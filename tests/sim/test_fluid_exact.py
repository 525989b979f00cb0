"""Tests for the exact continuous-time fluid GPS engine."""

import numpy as np
import pytest

from repro.sim.fluid import FluidGPSServer
from repro.sim.fluid_exact import (
    RateSegment,
    gps_rate_allocation,
    simulate_exact_gps,
)


class TestGpsRateAllocation:
    def test_backlogged_sessions_split_by_weight(self):
        allocation = gps_rate_allocation(
            np.array([True, True]),
            np.array([0.0, 0.0]),
            np.array([1.0, 3.0]),
            1.0,
        )
        np.testing.assert_allclose(allocation, [0.25, 0.75])

    def test_idle_session_capped_at_input_rate(self):
        allocation = gps_rate_allocation(
            np.array([False, True]),
            np.array([0.1, 0.0]),
            np.array([1.0, 1.0]),
            1.0,
        )
        np.testing.assert_allclose(allocation, [0.1, 0.9])

    def test_underloaded_idle_system(self):
        allocation = gps_rate_allocation(
            np.array([False, False]),
            np.array([0.2, 0.3]),
            np.array([1.0, 1.0]),
            1.0,
        )
        np.testing.assert_allclose(allocation, [0.2, 0.3])

    def test_total_never_exceeds_capacity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            allocation = gps_rate_allocation(
                rng.random(n) > 0.5,
                rng.uniform(0, 2, n),
                rng.uniform(0.1, 3, n),
                1.0,
            )
            assert allocation.sum() <= 1.0 + 1e-9
            assert np.all(allocation >= -1e-12)


class TestSimulateExactGps:
    def test_single_burst_drains_linearly(self):
        trajectory = simulate_exact_gps(
            1.0,
            [1.0],
            [RateSegment(0.0, (0.0,), bursts=(3.0,))],
            horizon=5.0,
        )
        assert trajectory.backlog_at(0.0, 0) == pytest.approx(3.0)
        assert trajectory.backlog_at(1.5, 0) == pytest.approx(1.5)
        assert trajectory.backlog_at(3.0, 0) == pytest.approx(0.0)
        assert trajectory.backlog_at(4.0, 0) == pytest.approx(0.0)

    def test_burst_with_ongoing_rate(self):
        # burst 2, rate 0.5, served at 1.0: drains at 0.5/time,
        # empties at t = 4.
        trajectory = simulate_exact_gps(
            1.0,
            [1.0],
            [RateSegment(0.0, (0.5,), bursts=(2.0,))],
            horizon=6.0,
        )
        assert trajectory.backlog_at(2.0, 0) == pytest.approx(1.0)
        assert trajectory.backlog_at(4.0, 0) == pytest.approx(0.0)

    def test_two_sessions_redistribution_event(self):
        """Session 0's small burst empties first; session 1 then
        receives the full server."""
        trajectory = simulate_exact_gps(
            1.0,
            [1.0, 1.0],
            [RateSegment(0.0, (0.0, 0.0), bursts=(1.0, 3.0))],
            horizon=10.0,
        )
        # both drain at 0.5 until t=2 when session 0 empties
        assert trajectory.backlog_at(2.0, 0) == pytest.approx(0.0)
        assert trajectory.backlog_at(2.0, 1) == pytest.approx(2.0)
        # then session 1 drains at rate 1, emptying at t=4
        assert trajectory.backlog_at(3.0, 1) == pytest.approx(1.0)
        assert trajectory.backlog_at(4.0, 1) == pytest.approx(0.0)

    def test_rate_breakpoint(self):
        trajectory = simulate_exact_gps(
            1.0,
            [1.0],
            [
                RateSegment(0.0, (2.0,)),
                RateSegment(3.0, (0.0,)),
            ],
            horizon=10.0,
        )
        # builds at rate 1 for 3s, then drains at rate 1
        assert trajectory.backlog_at(3.0, 0) == pytest.approx(3.0)
        assert trajectory.backlog_at(6.0, 0) == pytest.approx(0.0)

    def test_idle_promotion(self):
        """A session starting idle but with input above its share
        becomes backlogged immediately."""
        trajectory = simulate_exact_gps(
            1.0,
            [1.0, 1.0],
            [RateSegment(0.0, (0.9, 0.9), bursts=None)],
            horizon=4.0,
        )
        # each gets 0.5, builds at 0.4 per unit time
        assert trajectory.backlog_at(2.0, 0) == pytest.approx(0.8)
        assert trajectory.backlog_at(2.0, 1) == pytest.approx(0.8)

    def test_matches_slotted_simulator_on_slot_constant_input(self):
        """Cross-validation: for inputs constant on unit slots the
        exact engine and the slotted engine agree at slot boundaries."""
        rng = np.random.default_rng(1)
        num_slots = 40
        arrivals = rng.uniform(0.0, 1.2, size=(2, num_slots))
        phis = [1.0, 2.0]
        slotted = FluidGPSServer(rate=1.0, phis=phis).run(arrivals)
        segments = [
            RateSegment(float(t), (arrivals[0, t], arrivals[1, t]))
            for t in range(num_slots)
        ]
        exact = simulate_exact_gps(
            1.0, phis, segments, horizon=float(num_slots)
        )
        for t in range(1, num_slots + 1):
            for i in range(2):
                assert exact.backlog_at(
                    float(t), i
                ) == pytest.approx(
                    slotted.backlog[i, t - 1], abs=1e-6
                )

    def test_validates_inputs(self):
        with pytest.raises(ValueError, match="segment"):
            simulate_exact_gps(1.0, [1.0], [], horizon=1.0)
        with pytest.raises(ValueError, match="sorted"):
            simulate_exact_gps(
                1.0,
                [1.0],
                [
                    RateSegment(1.0, (0.0,)),
                    RateSegment(0.0, (0.0,)),
                ],
                horizon=2.0,
            )
