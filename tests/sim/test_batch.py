"""Tests for the batched fluid GPS engine.

The load-bearing property is *bit-for-bit* equivalence: row ``b`` of a
batched run must equal a scalar ``FluidGPSServer.step`` loop over the
same sample path, with ``==`` on floats, not ``allclose``.  Both paths
share one water-filling kernel, so any divergence is a real
regression.  (``FluidGPSServer.run`` is itself the ``B = 1`` batch
run, so it cannot serve as the independent side.)
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.sim.batch import BatchFluidGPSServer, BatchGPSSimResult
from repro.sim.fluid import (
    FluidGPSServer,
    _batch_water_fill,
    gps_slot_allocation,
)

_EPS = 1e-9


def _random_batch(
    rng: np.random.Generator, num_trials: int, num_sessions: int, num_slots: int
) -> np.ndarray:
    return rng.uniform(0.0, 0.6, size=(num_trials, num_sessions, num_slots))


def _step_loop(phis, arrivals, capacities=None, *, rate=1.0):
    """Served and backlog traces of a scalar server stepped slot by
    slot over one ``(N, T)`` arrival matrix."""
    server = FluidGPSServer(rate=rate, phis=phis)
    served = np.zeros_like(arrivals)
    backlog = np.zeros_like(arrivals)
    for t in range(arrivals.shape[1]):
        capacity = None if capacities is None else capacities[t]
        served[:, t] = server.step(arrivals[:, t], capacity=capacity)
        backlog[:, t] = server.backlog
    return served, backlog


def _water_fill(work, phis, capacity) -> np.ndarray:
    """The batch kernel, with a scalar capacity broadcast per trial."""
    work = np.ascontiguousarray(work, dtype=float)
    caps = np.broadcast_to(
        np.asarray(capacity, dtype=float), (work.shape[0],)
    )
    return _batch_water_fill(work, np.asarray(phis, dtype=float), caps)


class TestBatchSlotAllocation:
    """The kernel :class:`BatchFluidGPSServer` calls once per slot."""

    def test_matches_scalar_rows_exactly(self):
        rng = np.random.default_rng(0)
        phis = np.array([1.0, 3.0, 2.0])
        work = rng.uniform(0.0, 2.0, size=(32, 3))
        served = _water_fill(work, phis, 1.0)
        for b in range(32):
            scalar = gps_slot_allocation(work[b], phis, 1.0)
            assert np.array_equal(served[b], scalar)

    def test_per_trial_capacities(self):
        work = np.array([[10.0, 10.0], [10.0, 10.0]])
        phis = np.array([1.0, 1.0])
        served = _water_fill(work, phis, np.array([1.0, 2.0]))
        np.testing.assert_allclose(served[0], [0.5, 0.5])
        np.testing.assert_allclose(served[1], [1.0, 1.0])

    def test_redistribution_within_each_row(self):
        work = np.array([[0.1, 10.0], [10.0, 0.1]])
        served = _water_fill(work, np.array([1.0, 1.0]), 1.0)
        np.testing.assert_allclose(served[0], [0.1, 0.9])
        np.testing.assert_allclose(served[1], [0.9, 0.1])

    @settings(max_examples=60, deadline=None)
    @given(
        work=st.lists(
            st.lists(
                st.floats(min_value=0.0, max_value=5.0),
                min_size=3,
                max_size=3,
            ),
            min_size=1,
            max_size=8,
        ),
        capacity=st.floats(min_value=0.1, max_value=4.0),
    )
    def test_water_filling_conserves_work_per_trial(self, work, capacity):
        """Per row: served sums to min(capacity, backlogged work) and
        never exceeds the work or goes negative."""
        work_arr = np.asarray(work, dtype=float)
        phis = np.array([1.0, 2.0, 0.5])
        served = _water_fill(work_arr, phis, capacity)
        assert np.all(served >= 0.0)
        assert np.all(served <= work_arr + _EPS)
        row_total = served.sum(axis=1)
        expected = np.minimum(capacity, work_arr.sum(axis=1))
        np.testing.assert_allclose(row_total, expected, atol=1e-7)


class TestBatchFluidGPSServer:
    def test_requires_keywords(self):
        with pytest.raises(TypeError):
            BatchFluidGPSServer(1.0, [1.0, 1.0])  # noqa: missing kw

    def test_run_matches_scalar_server_bitwise(self):
        """The headline equivalence: every trial of a batched run is
        byte-identical to stepping a scalar server along the same
        sample path."""
        rng = np.random.default_rng(7)
        phis = [2.0, 1.0, 1.0, 0.5]
        arrivals = _random_batch(rng, 16, len(phis), 300)
        batch = BatchFluidGPSServer(rate=1.0, phis=phis).run(arrivals)
        for b in range(arrivals.shape[0]):
            served, backlog = _step_loop(phis, arrivals[b])
            assert np.array_equal(batch.served[b], served)
            assert np.array_equal(batch.backlog[b], backlog)
            assert np.array_equal(batch.arrivals[b], arrivals[b])

    def test_run_matches_scalar_with_time_varying_capacity(self):
        rng = np.random.default_rng(11)
        phis = [1.0, 1.0]
        arrivals = _random_batch(rng, 8, 2, 200)
        capacities = rng.uniform(0.2, 1.5, size=200)
        batch = BatchFluidGPSServer(rate=1.0, phis=phis).run(
            arrivals, capacities=capacities
        )
        for b in range(8):
            served, backlog = _step_loop(phis, arrivals[b], capacities)
            assert np.array_equal(batch.served[b], served)
            assert np.array_equal(batch.backlog[b], backlog)

    def test_trial_view_is_gps_sim_result(self):
        rng = np.random.default_rng(3)
        arrivals = _random_batch(rng, 4, 2, 50)
        batch = BatchFluidGPSServer(rate=1.0, phis=[1.0, 1.0]).run(
            arrivals
        )
        trial = batch.trial(2)
        assert trial.served.shape == (2, 50)
        assert np.array_equal(trial.served, batch.served[2])
        with pytest.raises(ValidationError):
            batch.trial(4)

    def test_step_interface(self):
        server = BatchFluidGPSServer(rate=1.0, phis=[1.0, 1.0])
        server.reset(num_trials=3)
        served = server.step(np.full((3, 2), 2.0))
        assert served.shape == (3, 2)
        np.testing.assert_allclose(served.sum(axis=1), 1.0)
        np.testing.assert_allclose(
            server.backlog.sum(axis=1), 3.0
        )

    def test_per_trial_capacity_vector(self):
        server = BatchFluidGPSServer(rate=1.0, phis=[1.0])
        server.reset(num_trials=2)
        served = server.step(
            np.array([[5.0], [5.0]]), capacity=np.array([1.0, 3.0])
        )
        np.testing.assert_allclose(served[:, 0], [1.0, 3.0])

    def test_work_conservation_whole_run(self):
        rng = np.random.default_rng(5)
        arrivals = _random_batch(rng, 6, 3, 400)
        batch = BatchFluidGPSServer(
            rate=1.0, phis=[1.0, 2.0, 1.0]
        ).run(arrivals)
        # arrived == served + final backlog, per trial
        np.testing.assert_allclose(
            arrivals.sum(axis=(1, 2)),
            batch.served.sum(axis=(1, 2))
            + batch.backlog[:, :, -1].sum(axis=1),
            atol=1e-7,
        )

    def test_validates_arrival_shape(self):
        server = BatchFluidGPSServer(rate=1.0, phis=[1.0, 1.0])
        with pytest.raises(ValidationError):
            server.run(np.ones((4, 3, 10)))  # 3 sessions != 2
        with pytest.raises(ValidationError):
            server.run(np.ones((4, 2)))  # not 3-D

    def test_summary_and_to_dict(self):
        rng = np.random.default_rng(9)
        arrivals = _random_batch(rng, 4, 2, 30)
        batch = BatchFluidGPSServer(rate=1.0, phis=[1.0, 1.0]).run(
            arrivals
        )
        summary = batch.summary()
        assert summary["kind"] == "batch_fluid_gps"
        assert summary["num_trials"] == 4
        payload = batch.to_dict()
        assert len(payload["served"]) == 4
        import json

        json.dumps(payload)  # must be serializable

    def test_result_utilization_bounded(self):
        rng = np.random.default_rng(13)
        arrivals = _random_batch(rng, 5, 2, 100)
        batch = BatchFluidGPSServer(rate=1.0, phis=[1.0, 1.0]).run(
            arrivals
        )
        util = batch.utilization()
        assert util.shape == (5,)
        assert np.all(util >= 0.0) and np.all(util <= 1.0 + 1e-12)


class TestFaultCapacityEquivalence:
    """Capacity traces — shared or per-trial, including fault-schedule
    derived ones — must keep the scalar/batch equivalence bitwise."""

    def test_per_trial_capacity_traces_match_scalar(self):
        rng = np.random.default_rng(17)
        phis = [2.0, 1.0]
        arrivals = _random_batch(rng, 6, 2, 150)
        capacities = rng.uniform(0.2, 1.5, size=(6, 150))
        batch = BatchFluidGPSServer(rate=1.0, phis=phis).run(
            arrivals, capacities=capacities
        )
        assert batch.capacities is not None
        for b in range(6):
            served, backlog = _step_loop(
                phis, arrivals[b], capacities[b]
            )
            assert np.array_equal(batch.served[b], served)
            assert np.array_equal(batch.backlog[b], backlog)

    def test_fault_schedule_capacities_match_scalar(self):
        """The fault-injection path: a RateFault window becomes the
        shared capacity trace, and every trial still matches its
        scalar step loop exactly."""
        from repro.faults import FaultSchedule, RateFault
        from repro.scenario import Scenario
        from repro.traffic.sources import BernoulliBurstTraffic

        scenario = Scenario(
            rate=1.0,
            phis=(1.0, 1.0),
            sources=(
                BernoulliBurstTraffic(
                    burst_probability=0.3, burst_size=0.5
                ),
                BernoulliBurstTraffic(
                    burst_probability=0.4, burst_size=0.4
                ),
            ),
            horizon=120,
            seed=23,
            faults=FaultSchedule(
                [RateFault(node="server", start=30, end=80, factor=0.5)]
            ),
        )
        capacities = scenario._fault_capacities()
        assert capacities is not None
        arrivals = np.stack(
            [
                scenario._fault_adjusted(scenario.sample_arrivals(b))
                for b in range(4)
            ]
        )
        batch = BatchFluidGPSServer(scenario=scenario).run(
            arrivals, capacities=capacities
        )
        for b in range(4):
            served, backlog = _step_loop(
                list(scenario.phis),
                arrivals[b],
                capacities,
                rate=scenario.rate,
            )
            assert np.array_equal(batch.served[b], served)
            assert np.array_equal(batch.backlog[b], backlog)


class TestBatchGPSSimResultValidation:
    def test_shape_consistency_enforced(self):
        good = np.zeros((2, 3, 4))
        with pytest.raises(ValidationError):
            BatchGPSSimResult(
                arrivals=good,
                served=np.zeros((2, 3, 5)),
                backlog=good,
                rate=1.0,
                phis=(1.0, 1.0, 1.0),
            )
