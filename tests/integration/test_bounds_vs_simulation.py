"""Integration: analytic tail bounds dominate Monte-Carlo estimates.

The paper's bounds are proven upper bounds; these tests check that the
whole pipeline — source model -> E.B.B. characterization -> theorem ->
bound — produces numbers that dominate long fluid-GPS simulations of
the same configuration.
"""

import numpy as np
import pytest

from repro.core.gps import GPSConfig, Session
from repro.analysis.single_node import theorem10_bounds, theorem11_family
from repro.markov.lnt94 import ebb_characterization, queue_tail_bound
from repro.markov.onoff import OnOffSource
from repro.sim.fluid import FluidGPSServer
from repro.sim.measurements import compare_bound_to_samples
from repro.traffic.sources import OnOffTraffic

NUM_SLOTS = 200_000
WARMUP = 1_000


@pytest.fixture(scope="module")
def rpps_node_simulation():
    """Two on-off sources sharing one RPPS GPS server."""
    models = [OnOffSource(0.3, 0.7, 0.5), OnOffSource(0.4, 0.4, 0.4)]
    rhos = [0.3, 0.35]
    chars = [
        ebb_characterization(m.as_mms(), rho)
        for m, rho in zip(models, rhos)
    ]
    config = GPSConfig(
        1.0,
        [
            Session(f"s{i}", ebb, ebb.rho)
            for i, ebb in enumerate(chars)
        ],
    )
    rng = np.random.default_rng(11)
    arrivals = np.vstack(
        [
            OnOffTraffic(m).generate(NUM_SLOTS, rng)
            for m in models
        ]
    )
    result = FluidGPSServer(rate=1.0, phis=list(config.phis)).run(arrivals)
    return models, config, result


class TestTheorem10VsSimulation:
    def test_backlog_bound_dominates(self, rpps_node_simulation):
        _, config, result = rpps_node_simulation
        xs = np.linspace(0.25, 3.0, 12)
        for i in range(2):
            bounds = theorem10_bounds(config, i, discrete=True)
            samples = result.backlog[i][WARMUP:]
            comparison = compare_bound_to_samples(
                bounds.backlog, samples, xs
            )
            assert comparison.max_violation_ratio(
                min_probability=1e-4
            ) <= 1.05

    def test_delay_bound_dominates(self, rpps_node_simulation):
        _, config, result = rpps_node_simulation
        ds = np.linspace(1.0, 12.0, 10)
        for i in range(2):
            bounds = theorem10_bounds(config, i, discrete=True)
            delays = result.session_delays(i)[WARMUP:]
            delays = delays[~np.isnan(delays)]
            comparison = compare_bound_to_samples(
                bounds.delay, delays, ds
            )
            assert comparison.max_violation_ratio(
                min_probability=1e-4
            ) <= 1.05


class TestTheorem11VsSimulation:
    def test_optimized_backlog_bound_dominates(
        self, rpps_node_simulation
    ):
        _, config, result = rpps_node_simulation
        for i in range(2):
            family = theorem11_family(config, i)
            samples = result.backlog[i][WARMUP:]
            for q in (0.5, 1.0, 2.0):
                empirical = float(np.mean(samples >= q))
                bound = family.optimized_backlog(q).evaluate(q)
                assert empirical <= bound * 1.05


class TestImprovedBoundVsSimulation:
    def test_lnt94_queue_bound_dominates_gps_session_backlog(
        self, rpps_node_simulation
    ):
        """The Figure 4 construction at a single node: the LNT94 queue
        bound at rate g_i dominates the simulated session backlog
        (which Theorem 10's sample-path argument caps by delta_i)."""
        models, config, result = rpps_node_simulation
        for i, model in enumerate(models):
            g = config.guaranteed_rate(i)
            bound = queue_tail_bound(model.as_mms(), g)
            samples = result.backlog[i][WARMUP:]
            for x in (0.5, 1.0, 2.0, 3.0):
                empirical = float(np.mean(samples >= x))
                assert empirical <= bound.evaluate(x) * 1.05

    def test_improved_bound_is_much_tighter_than_ebb_bound(
        self, rpps_node_simulation
    ):
        models, config, result = rpps_node_simulation
        i = 0
        g = config.guaranteed_rate(i)
        improved = queue_tail_bound(models[i].as_mms(), g)
        ebb_based = theorem10_bounds(config, i, discrete=True).backlog
        # at a moderate backlog the improved bound is at least 10x
        # tighter
        assert improved.evaluate(3.0) < 0.1 * ebb_based.evaluate(3.0)
