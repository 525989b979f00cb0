"""Tests for the exact continuous-time fluid GPS engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.fluid import FluidGPSServer, busy_gps_slot_allocation
from repro.sim.fluid_exact import RateSegment, simulate_exact_gps
from tests.sim.oracle import gps_rate_allocation as reference_allocation


def kernel_allocation(backlogged, input_rates, phis, capacity):
    """The exact engine's instantaneous allocation: the one water-fill
    kernel with ``inf`` work for backlogged sessions."""
    return busy_gps_slot_allocation(
        np.where(backlogged, np.inf, input_rates),
        np.asarray(phis, dtype=float),
        capacity,
    )


class TestGpsRateAllocation:
    def test_backlogged_sessions_split_by_weight(self):
        allocation = kernel_allocation(
            np.array([True, True]),
            np.array([0.0, 0.0]),
            np.array([1.0, 3.0]),
            1.0,
        )
        np.testing.assert_allclose(allocation, [0.25, 0.75])

    def test_idle_session_capped_at_input_rate(self):
        allocation = kernel_allocation(
            np.array([False, True]),
            np.array([0.1, 0.0]),
            np.array([1.0, 1.0]),
            1.0,
        )
        np.testing.assert_allclose(allocation, [0.1, 0.9])

    def test_underloaded_idle_system(self):
        allocation = kernel_allocation(
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
            allocation = kernel_allocation(
                rng.random(n) > 0.5,
                rng.uniform(0, 2, n),
                rng.uniform(0.1, 3, n),
                1.0,
            )
            assert allocation.sum() <= 1.0 + 1e-9
            assert np.all(allocation >= -1e-12)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_kernel_matches_reference_loop(self, data):
        """The kernel with ``inf`` work agrees with the direct loop to
        within one ulp of the capacity (only the summation order
        differs)."""
        num = data.draw(st.integers(1, 11))
        weight = (
            st.integers(1, 5).map(float)
            if data.draw(st.booleans())
            else st.floats(0.1, 5.0)
        )
        phis = np.array(
            data.draw(st.lists(weight, min_size=num, max_size=num))
        )
        backlogged = np.array(
            data.draw(st.lists(st.booleans(), min_size=num, max_size=num))
        )
        rates = np.array(
            data.draw(
                st.lists(
                    st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
                    min_size=num,
                    max_size=num,
                )
            )
        )
        capacity = data.draw(st.floats(0.1, 4.0))
        np.testing.assert_allclose(
            kernel_allocation(backlogged, rates, phis, capacity),
            reference_allocation(backlogged, rates, phis, capacity),
            rtol=0.0,
            atol=np.finfo(float).eps * capacity,
        )


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
