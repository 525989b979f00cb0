"""A10 — exact all-greedy worst case vs decomposition bounds.

Parekh & Gallager's worst case is attained by the all-greedy regime.
This bench computes the *exact* all-greedy peaks with the continuous
fluid engine and compares them with (a) the decomposition-based
deterministic upper bounds and (b) a stochastic simulation of shaped
traffic — showing the full conservatism ladder

    typical stochastic peak  <<  exact worst case  <=  PG-style bound.
"""

import numpy as np

from benchmarks.conftest import report
from repro.deterministic.all_greedy import all_greedy_analysis
from repro.deterministic.parekh_gallager import (
    DeterministicGPSConfig,
    DeterministicSession,
    pg_all_bounds,
)
from repro.experiments.tables import format_table
from repro.markov.onoff import OnOffSource
from repro.sim.fluid import FluidGPSServer
from repro.traffic.envelope import LBAPEnvelope
from repro.traffic.leaky_bucket import LeakyBucketShaper
from repro.traffic.sources import OnOffTraffic

NUM_SLOTS = 40_000


def build_config() -> DeterministicGPSConfig:
    sessions = [
        DeterministicSession("low", LBAPEnvelope(1.5, 0.15), 1.0),
        DeterministicSession("mid", LBAPEnvelope(2.0, 0.3), 0.8),
        DeterministicSession("high", LBAPEnvelope(2.5, 0.45), 0.5),
    ]
    return DeterministicGPSConfig(1.0, sessions)


def run_experiment():
    config = build_config()
    exact = all_greedy_analysis(config)
    bounds = pg_all_bounds(config)
    # stochastic traffic shaped to the same envelopes
    models = [
        OnOffSource(0.3, 0.6, 0.45),
        OnOffSource(0.4, 0.4, 0.6),
        OnOffSource(0.5, 0.3, 0.7),
    ]
    rng = np.random.default_rng(13)
    shaped = []
    for model, session in zip(models, config.sessions):
        raw = OnOffTraffic(model).generate(NUM_SLOTS, rng)
        released, _ = LeakyBucketShaper(
            session.rho, session.sigma
        ).shape(raw)
        shaped.append(released)
    result = FluidGPSServer(
        rate=1.0, phis=[s.phi for s in config.sessions]
    ).run(np.vstack(shaped))
    rows = []
    for i, session in enumerate(config.sessions):
        rows.append(
            [
                session.name,
                float(result.backlog[i].max()),
                exact.max_backlogs[i],
                bounds[i].max_backlog,
            ]
        )
    return rows


def test_all_greedy_ladder(once):
    rows = once(run_experiment)
    report(
        "A10: backlog — stochastic peak vs exact all-greedy worst "
        "case vs decomposition bound",
        format_table(
            [
                "session",
                "stochastic peak",
                "exact worst case",
                "PG-style bound",
            ],
            rows,
        ),
    )
    for _, stochastic, exact, bound in rows:
        assert stochastic <= exact + 1e-6
        assert exact <= bound + 1e-9
