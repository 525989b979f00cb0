"""Tests for the validation helpers."""

import math

import pytest

from repro.utils.validation import (
    check_in_open_interval,
    check_nonnegative,
    check_positive,
    check_probability,
    check_same_length,
    check_weights,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 2.5) == 2.5

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects(self, bad):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", bad)


class TestCheckNonnegative:
    def test_accepts_zero(self):
        assert check_nonnegative("x", 0.0) == 0.0

    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            check_nonnegative("x", bad)


class TestCheckProbability:
    @pytest.mark.parametrize("ok", [0.0, 0.5, 1.0])
    def test_accepts(self, ok):
        assert check_probability("p", ok) == ok

    @pytest.mark.parametrize("bad", [-0.01, 1.01, math.nan])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            check_probability("p", bad)


class TestCheckInOpenInterval:
    def test_accepts_interior(self):
        assert check_in_open_interval("t", 0.5, 0.0, 1.0) == 0.5

    @pytest.mark.parametrize("bad", [0.0, 1.0, -1.0, 2.0])
    def test_rejects_boundary_and_outside(self, bad):
        with pytest.raises(ValueError):
            check_in_open_interval("t", bad, 0.0, 1.0)


class TestCheckSameLength:
    def test_accepts_equal(self):
        check_same_length("a", [1, 2], "b", [3, 4])

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError, match="same length"):
            check_same_length("a", [1], "b", [1, 2])


class TestCheckWeights:
    def test_converts_to_floats(self):
        assert check_weights("w", [1, 2]) == [1.0, 2.0]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_weights("w", [])

    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError, match=r"w\[1\]"):
            check_weights("w", [1.0, 0.0])
