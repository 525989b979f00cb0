"""Tests for the baseline schedulers."""

import numpy as np
import pytest

from repro.sim.baselines import (
    FCFSServer,
    StaticPriorityServer,
    WeightedRoundRobinServer,
)
from repro.errors import ValidationError
from repro.sim.class_based import ClassBasedGPSServer
from repro.sim.fluid import FluidGPSServer

SLOT_SERVERS = {
    "fluid-gps": lambda: FluidGPSServer(rate=1.0, phis=[1.0, 1.0]),
    "fcfs": lambda: FCFSServer(1.0, 2),
    "static-priority": lambda: StaticPriorityServer(1.0, 2),
    "wrr": lambda: WeightedRoundRobinServer(1.0, [1.0, 1.0]),
    "class-based": lambda: ClassBasedGPSServer(1.0, [[0], [1]], [1, 1]),
}


@pytest.mark.parametrize("bad", [-0.5, float("nan")])
@pytest.mark.parametrize("name", sorted(SLOT_SERVERS))
def test_every_slot_server_rejects_negative_and_nan_arrivals(name, bad):
    server = SLOT_SERVERS[name]()
    with pytest.raises(ValidationError, match="non-negative"):
        server.run(np.array([[0.2, bad], [0.1, 0.1]]))
    if hasattr(server, "step"):  # FluidGPSServer is run-only
        with pytest.raises(ValidationError, match="non-negative"):
            server.step(np.array([bad, 0.1]))


@pytest.mark.parametrize("name", sorted(SLOT_SERVERS))
def test_every_slot_server_rejects_a_zero_slot_run(name):
    """Same rule as the batch server: a run needs one slot (a
    zero-slot result has no final backlog to summarize)."""
    with pytest.raises(ValidationError, match="one slot"):
        SLOT_SERVERS[name]().run(np.zeros((2, 0)))


class TestFCFS:
    def test_serves_in_arrival_order(self):
        server = FCFSServer(1.0, 2)
        served = server.step(np.array([0.7, 0.0]))
        np.testing.assert_allclose(served, [0.7, 0.0])
        served = server.step(np.array([0.0, 0.7]))
        # 0.3 of slot 2's capacity... capacity 1.0, queue holds 0.7 of
        # session 1: all of it fits.
        np.testing.assert_allclose(served, [0.0, 0.7])

    def test_backlogged_batches_fifo(self):
        server = FCFSServer(1.0, 2)
        server.step(np.array([2.0, 0.0]))
        served = server.step(np.array([0.0, 2.0]))
        # remaining 1.0 of session 0's batch is served before session 1
        np.testing.assert_allclose(served, [1.0, 0.0])

    def test_run_work_conservation(self):
        server = FCFSServer(1.0, 2)
        rng = np.random.default_rng(0)
        arrivals = rng.uniform(0, 1.2, size=(2, 200))
        result = server.run(arrivals)
        total = result.served.sum() + result.backlog[:, -1].sum()
        assert total == pytest.approx(arrivals.sum(), abs=1e-6)

    def test_no_isolation(self):
        """A flood ahead of a conforming session delays it — the
        contrast with GPS isolation."""
        flood_then_idle = np.zeros(50)
        flood_then_idle[0] = 25.0
        conforming = np.full(50, 0.4)
        arrivals = np.vstack([flood_then_idle, conforming])

        fcfs = FCFSServer(1.0, 2).run(arrivals)
        gps = FluidGPSServer(rate=1.0, phis=[1.0, 1.0]).run(arrivals)
        # Under FCFS the conforming session queues behind the flood.
        assert fcfs.backlog[1].max() > gps.backlog[1].max() + 1.0


class TestStaticPriority:
    def test_high_priority_first(self):
        server = StaticPriorityServer(1.0, 2)
        served = server.step(np.array([0.8, 0.8]))
        np.testing.assert_allclose(served, [0.8, 0.2])

    def test_starvation_of_low_priority(self):
        server = StaticPriorityServer(1.0, 2)
        arrivals = np.vstack([np.full(20, 1.0), np.full(20, 0.5)])
        result = server.run(arrivals)
        np.testing.assert_allclose(result.served[1], 0.0)
        assert result.backlog[1, -1] == pytest.approx(10.0)

    def test_work_conservation(self):
        server = StaticPriorityServer(1.0, 3)
        rng = np.random.default_rng(1)
        arrivals = rng.uniform(0, 0.6, size=(3, 150))
        result = server.run(arrivals)
        total = result.served.sum() + result.backlog[:, -1].sum()
        assert total == pytest.approx(arrivals.sum(), abs=1e-6)


class TestWeightedRoundRobin:
    def test_small_quantum_approximates_gps(self):
        rng = np.random.default_rng(2)
        arrivals = rng.uniform(0, 1.0, size=(2, 300))
        wrr = WeightedRoundRobinServer(
            1.0, [1.0, 3.0], quantum=0.001
        ).run(arrivals)
        gps = FluidGPSServer(rate=1.0, phis=[1.0, 3.0]).run(arrivals)
        np.testing.assert_allclose(
            wrr.served, gps.served, atol=5e-3
        )

    def test_large_quantum_is_burstier(self):
        arrivals = np.vstack([np.full(50, 0.6), np.full(50, 0.6)])
        coarse = WeightedRoundRobinServer(
            1.0, [1.0, 1.0], quantum=5.0
        ).run(arrivals)
        fine = WeightedRoundRobinServer(
            1.0, [1.0, 1.0], quantum=0.01
        ).run(arrivals)
        # same total service (work conserving)
        assert coarse.served.sum() == pytest.approx(fine.served.sum())
        # but coarse quanta create larger per-slot service variance
        assert coarse.served[0].std() >= fine.served[0].std() - 1e-9

    def test_work_conservation(self):
        server = WeightedRoundRobinServer(1.0, [1.0, 2.0], quantum=0.3)
        rng = np.random.default_rng(3)
        arrivals = rng.uniform(0, 0.8, size=(2, 200))
        result = server.run(arrivals)
        total = result.served.sum() + result.backlog[:, -1].sum()
        assert total == pytest.approx(arrivals.sum(), abs=1e-6)

    def test_weight_proportionality_under_saturation(self):
        arrivals = np.vstack([np.full(100, 5.0), np.full(100, 5.0)])
        result = WeightedRoundRobinServer(
            1.0, [1.0, 3.0], quantum=0.05
        ).run(arrivals)
        share0 = result.served[0].sum()
        share1 = result.served[1].sum()
        assert share1 / share0 == pytest.approx(3.0, rel=0.05)
