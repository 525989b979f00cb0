"""Tests for the fluid GPS server simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.fluid import (
    FluidGPSServer,
    clearing_delays,
    gps_slot_allocation,
)

_EPS = 1e-9


class TestGpsSlotAllocation:
    def test_proportional_when_all_backlogged(self):
        served = gps_slot_allocation(
            np.array([10.0, 10.0]), np.array([1.0, 3.0]), 1.0
        )
        np.testing.assert_allclose(served, [0.25, 0.75])

    def test_redistribution_when_one_empties(self):
        # Session 0 has only 0.1 units; its leftover share goes to 1.
        served = gps_slot_allocation(
            np.array([0.1, 10.0]), np.array([1.0, 1.0]), 1.0
        )
        np.testing.assert_allclose(served, [0.1, 0.9])

    def test_work_conserving_underload(self):
        served = gps_slot_allocation(
            np.array([0.2, 0.3]), np.array([1.0, 1.0]), 1.0
        )
        np.testing.assert_allclose(served, [0.2, 0.3])

    def test_zero_work(self):
        served = gps_slot_allocation(
            np.array([0.0, 0.0]), np.array([1.0, 1.0]), 1.0
        )
        np.testing.assert_allclose(served, 0.0)

    def test_cascading_redistribution(self):
        # Three sessions; two small ones release capacity in turn.
        served = gps_slot_allocation(
            np.array([0.05, 0.2, 10.0]),
            np.array([1.0, 1.0, 1.0]),
            1.0,
        )
        np.testing.assert_allclose(served, [0.05, 0.2, 0.75])

    def test_subnormal_weight_does_not_overflow(self):
        """An idle session's weight never meets the subnormal total
        weight of the busy ones (RuntimeWarnings are errors here)."""
        served = gps_slot_allocation([0.0, 1.0], [1.0, 5e-324], 1.0)
        assert np.array_equal(served, [0.0, 1.0])

    @given(
        st.lists(st.floats(0.0, 5.0), min_size=1, max_size=8),
        st.data(),
    )
    @settings(max_examples=100)
    def test_invariants(self, work, data):
        phis = data.draw(
            st.lists(
                st.floats(0.1, 10.0),
                min_size=len(work),
                max_size=len(work),
            )
        )
        work_arr = np.array(work)
        phi_arr = np.array(phis)
        capacity = data.draw(st.floats(0.1, 10.0))
        served = gps_slot_allocation(work_arr, phi_arr, capacity)
        # never serve more than available work or capacity
        assert np.all(served <= work_arr + _EPS)
        assert served.sum() <= capacity + _EPS
        # work conservation
        assert served.sum() == pytest.approx(
            min(capacity, work_arr.sum()), abs=1e-7
        )
        # GPS fairness (eq. 1): a session served strictly less than its
        # work (still backlogged) must get at least its phi-share
        # relative to every other session.
        for i in range(len(work)):
            if served[i] < work_arr[i] - 1e-7:
                for j in range(len(work)):
                    assert (
                        served[i] * phi_arr[j]
                        >= served[j] * phi_arr[i] - 1e-6
                    )


class TestFluidGPSServer:
    def test_step_updates_backlog(self):
        server = FluidGPSServer(rate=1.0, phis=[1.0, 1.0])
        served = server.step([2.0, 0.0])
        np.testing.assert_allclose(served, [1.0, 0.0])
        np.testing.assert_allclose(server.backlog, [1.0, 0.0])

    def test_reset(self):
        server = FluidGPSServer(rate=1.0, phis=[1.0])
        server.step([5.0])
        server.reset()
        np.testing.assert_allclose(server.backlog, [0.0])

    def test_rejects_negative_arrivals(self):
        server = FluidGPSServer(rate=1.0, phis=[1.0])
        with pytest.raises(ValueError):
            server.step([-1.0])

    def test_rejects_wrong_shape(self):
        server = FluidGPSServer(rate=1.0, phis=[1.0, 1.0])
        with pytest.raises(ValueError):
            server.step([1.0])

    def test_run_leaves_final_backlog(self):
        server = FluidGPSServer(rate=1.0, phis=[1.0, 1.0])
        result = server.run(np.array([[3.0, 0.0], [0.0, 0.0]]))
        np.testing.assert_array_equal(server.backlog, result.backlog[:, -1])

    def test_run_traces(self):
        server = FluidGPSServer(rate=1.0, phis=[1.0, 1.0])
        arrivals = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        result = server.run(arrivals)
        np.testing.assert_allclose(result.served[0], [1.0, 1.0, 0.0])
        np.testing.assert_allclose(result.backlog[0], [1.0, 0.0, 0.0])
        assert result.utilization() == pytest.approx(2.0 / 3.0)

    def test_guaranteed_rate_when_backlogged(self):
        """A continuously backlogged session receives at least
        g_i = phi_i / sum(phi) per slot (eq. 1)."""
        server = FluidGPSServer(rate=1.0, phis=[1.0, 3.0])
        rng = np.random.default_rng(0)
        arrivals = np.vstack(
            [
                np.full(200, 10.0),  # session 0 always backlogged
                rng.uniform(0, 2.0, size=200),
            ]
        )
        result = server.run(arrivals)
        assert np.all(result.served[0] >= 0.25 - _EPS)

    def test_isolation_against_misbehaving_session(self):
        """GPS isolation: a flooding session cannot deny a conforming
        session its guaranteed share."""
        server = FluidGPSServer(rate=1.0, phis=[1.0, 1.0])
        arrivals = np.vstack(
            [
                np.full(100, 0.4),  # conforming: below g = 0.5
                np.full(100, 5.0),  # flooding
            ]
        )
        result = server.run(arrivals)
        # conforming session never builds a persistent queue
        assert result.backlog[0].max() <= 0.5 + _EPS
        np.testing.assert_allclose(result.served[0][5:], 0.4, atol=1e-9)

    def test_work_conservation_over_run(self):
        server = FluidGPSServer(rate=1.0, phis=[2.0, 1.0])
        rng = np.random.default_rng(1)
        arrivals = rng.uniform(0.0, 1.5, size=(2, 300))
        result = server.run(arrivals)
        # cumulative service + final backlog == cumulative arrivals
        total_in = arrivals.sum()
        total_out = result.served.sum() + result.backlog[:, -1].sum()
        assert total_out == pytest.approx(total_in, abs=1e-6)

    def test_busy_fraction(self):
        server = FluidGPSServer(rate=1.0, phis=[1.0])
        arrivals = np.array([[2.0, 0.0, 0.0, 0.0]])
        result = server.run(arrivals)
        assert result.busy_fraction(0) == pytest.approx(0.25)


class TestClearingDelays:
    def test_immediate_service(self):
        cum_a = np.array([1.0, 2.0, 3.0])
        cum_s = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(
            clearing_delays(cum_a, cum_s), [0.0, 0.0, 0.0]
        )

    def test_one_slot_lag(self):
        cum_a = np.array([2.0, 2.0, 2.0, 2.0])
        cum_s = np.array([1.0, 2.0, 2.0, 2.0])
        delays = clearing_delays(cum_a, cum_s)
        np.testing.assert_allclose(delays, [1.0, 0.0, 0.0, 0.0])

    def test_never_cleared_is_nan(self):
        cum_a = np.array([5.0, 5.0])
        cum_s = np.array([1.0, 2.0])
        delays = clearing_delays(cum_a, cum_s)
        assert np.isnan(delays).all()

    def test_session_delays_in_run(self):
        server = FluidGPSServer(rate=1.0, phis=[1.0])
        arrivals = np.array([[3.0, 0.0, 0.0, 0.0]])
        result = server.run(arrivals)
        delays = result.session_delays(0)
        # backlog after slot 0 is 2, cleared after 2 more slots
        assert delays[0] == pytest.approx(2.0)
        assert delays[-1] == pytest.approx(0.0)
