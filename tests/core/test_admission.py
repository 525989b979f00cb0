"""Tests for statistical admission control."""

import pytest

from repro.analysis.admission import (
    QoSTarget,
    admissible,
    max_admissible_copies,
    meets_target,
    required_rate_for_delay,
)
from repro.core.ebb import EBB
from repro.core.rpps import guaranteed_rate_bounds
from repro.errors import NumericalError, ValidationError


def voice_ebb() -> EBB:
    return EBB(0.2, 1.0, 1.74)


class TestQoSTarget:
    def test_valid(self):
        QoSTarget(10.0, 1e-6)

    @pytest.mark.parametrize(
        "d,eps", [(0.0, 0.1), (1.0, 0.0), (1.0, 1.0)]
    )
    def test_invalid(self, d, eps):
        with pytest.raises(ValueError):
            QoSTarget(d, eps)


class TestMeetsTarget:
    def test_fast_rate_meets(self):
        assert meets_target(voice_ebb(), 0.9, QoSTarget(20.0, 1e-6))

    def test_rate_below_rho_fails(self):
        assert not meets_target(voice_ebb(), 0.1, QoSTarget(20.0, 0.5))

    def test_tight_epsilon_fails_at_slow_rate(self):
        assert not meets_target(
            voice_ebb(), 0.21, QoSTarget(1.0, 1e-9)
        )


class TestRequiredRate:
    def test_required_rate_meets_and_is_minimal(self):
        target = QoSTarget(15.0, 1e-5)
        rate = required_rate_for_delay(voice_ebb(), target)
        assert meets_target(voice_ebb(), rate * 1.001, target)
        assert not meets_target(voice_ebb(), rate * 0.99, target)

    def test_boundary_achieves_epsilon(self):
        target = QoSTarget(15.0, 1e-5)
        rate = required_rate_for_delay(voice_ebb(), target)
        bound = guaranteed_rate_bounds(
            "s", voice_ebb(), rate * (1 + 1e-9), discrete=True
        ).delay
        assert bound.evaluate(target.d_max) == pytest.approx(
            target.epsilon, rel=1e-3
        )

    def test_stricter_target_needs_more_rate(self):
        lax = required_rate_for_delay(
            voice_ebb(), QoSTarget(15.0, 1e-3)
        )
        strict = required_rate_for_delay(
            voice_ebb(), QoSTarget(15.0, 1e-8)
        )
        assert strict > lax

    def test_iteration_cap_raises_numerical_error(self):
        # One iteration cannot shrink the bracket to tolerance; the
        # bisection must fail loudly instead of looping or returning
        # an unconverged midpoint.
        with pytest.raises(NumericalError):
            required_rate_for_delay(
                voice_ebb(), QoSTarget(15.0, 1e-5), max_iter=1
            )

    def test_iteration_cap_must_be_positive(self):
        with pytest.raises(ValidationError):
            required_rate_for_delay(
                voice_ebb(), QoSTarget(15.0, 1e-5), max_iter=0
            )

    def test_default_cap_converges(self):
        target = QoSTarget(15.0, 1e-5)
        loose = required_rate_for_delay(
            voice_ebb(), target, max_iter=200
        )
        assert meets_target(voice_ebb(), loose * 1.001, target)

    def test_unreachable_target_raises(self):
        # prefactor floor: the discrete bound's prefactor stays above
        # Lambda even as g -> inf... actually it tends to Lambda; an
        # epsilon above it at d_max ~ 0 is unreachable only for huge
        # Lambda. Construct one.
        heavy = EBB(0.2, 1e6, 0.001)
        with pytest.raises(ValueError, match="unreachable"):
            required_rate_for_delay(
                heavy, QoSTarget(0.001, 1e-12), rate_cap=10.0
            )


class TestAdmissible:
    def test_small_set_admissible(self):
        arrivals = [voice_ebb(), EBB(0.25, 1.0, 1.62)]
        targets = [QoSTarget(30.0, 1e-4)] * 2
        assert admissible(arrivals, targets, server_rate=1.0)

    def test_unstable_set_rejected(self):
        arrivals = [EBB(0.6, 1.0, 1.0), EBB(0.5, 1.0, 1.0)]
        targets = [QoSTarget(30.0, 0.5)] * 2
        assert not admissible(arrivals, targets, server_rate=1.0)

    def test_tight_target_rejected(self):
        arrivals = [voice_ebb()] * 1
        targets = [QoSTarget(0.5, 1e-9)]
        assert not admissible(arrivals, targets, server_rate=0.25)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            admissible([voice_ebb()], [], 1.0)


class TestMaxAdmissibleCopies:
    def test_monotone_in_epsilon(self):
        lax = max_admissible_copies(
            voice_ebb(), QoSTarget(25.0, 1e-2), 1.0
        )
        strict = max_admissible_copies(
            voice_ebb(), QoSTarget(25.0, 1e-8), 1.0
        )
        assert lax >= strict >= 0

    def test_below_stability_ceiling(self):
        n = max_admissible_copies(
            voice_ebb(), QoSTarget(50.0, 0.1), 1.0
        )
        assert n * voice_ebb().rho < 1.0
        assert n >= 1

    def test_admitted_count_meets_target(self):
        target = QoSTarget(25.0, 1e-4)
        n = max_admissible_copies(voice_ebb(), target, 1.0)
        assert n >= 1
        assert meets_target(voice_ebb(), 1.0 / n, target)
        if (n + 1) * voice_ebb().rho < 1.0:
            assert not meets_target(
                voice_ebb(), 1.0 / (n + 1), target
            )
