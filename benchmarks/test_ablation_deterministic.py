"""A5 — Deterministic (Parekh-Gallager) vs statistical bounds vs
simulation.

The paper's motivation: worst-case deterministic bounds are "usually
very conservative" for stochastic sources, so admission control based
on them wastes bandwidth.  This bench quantifies the claim on a single
RPPS node fed by leaky-bucket-shaped on-off traffic: the PG worst-case
backlog, the statistical backlog at exceedance 1e-6, and the simulated
99.9999%-ish maximum are printed side by side.
"""

import numpy as np

from benchmarks.conftest import report
from repro.core.gps import GPSConfig, Session
from repro.analysis.single_node import theorem10_bounds
from repro.deterministic.parekh_gallager import (
    DeterministicGPSConfig,
    DeterministicSession,
    pg_all_bounds,
)
from repro.experiments.tables import format_table
from repro.markov.lnt94 import ebb_characterization
from repro.markov.onoff import OnOffSource
from repro.sim.fluid import FluidGPSServer
from repro.traffic.envelope import LBAPEnvelope
from repro.traffic.leaky_bucket import LeakyBucketShaper
from repro.traffic.sources import OnOffTraffic

NUM_SLOTS = 100_000
EPSILON = 1e-6
SIGMAS = (4.0, 3.0)
RHOS = (0.3, 0.35)
MODELS = ((0.3, 0.7, 0.5), (0.4, 0.4, 0.4))


def run_experiment():
    models = [OnOffSource(*params) for params in MODELS]
    shapers = [
        LeakyBucketShaper(rho, sigma)
        for rho, sigma in zip(RHOS, SIGMAS)
    ]
    rng = np.random.default_rng(21)
    shaped = []
    for model, shaper in zip(models, shapers):
        raw = OnOffTraffic(model).generate(NUM_SLOTS, rng)
        released, _ = shaper.shape(raw)
        shaped.append(released)
    arrivals = np.vstack(shaped)

    det_config = DeterministicGPSConfig(
        1.0,
        [
            DeterministicSession(
                f"s{i}", LBAPEnvelope(sigma, rho), rho
            )
            for i, (sigma, rho) in enumerate(zip(SIGMAS, RHOS))
        ],
    )
    det_bounds = pg_all_bounds(det_config)

    # Statistical: the shaped traffic still admits the E.B.B.
    # characterization of the unshaped source (shaping only removes
    # burstiness), so Theorem 10 applies with the LNT94 parameters.
    stat_config = GPSConfig(
        1.0,
        [
            Session(
                f"s{i}",
                ebb_characterization(model.as_mms(), rho),
                rho,
            )
            for i, (model, rho) in enumerate(zip(models, RHOS))
        ],
    )
    stat_bounds = [
        theorem10_bounds(stat_config, i, discrete=True)
        for i in range(2)
    ]

    result = FluidGPSServer(rate=1.0, phis=list(RHOS)).run(arrivals)
    rows = []
    for i in range(2):
        simulated_max = float(result.backlog[i].max())
        statistical = stat_bounds[i].backlog.quantile(EPSILON)
        deterministic = det_bounds[i].max_backlog
        rows.append(
            [f"s{i}", simulated_max, statistical, deterministic]
        )
    return rows, result


def test_deterministic_vs_statistical(once):
    rows, _ = once(run_experiment)
    report(
        "A5: session backlog — simulated max vs statistical backlog "
        f"at eps={EPSILON} vs PG worst case",
        format_table(
            ["session", "simulated max", "statistical", "PG worst case"],
            rows,
        ),
    )
    for _, simulated_max, statistical, deterministic in rows:
        # both bounds dominate the simulation
        assert simulated_max <= deterministic + 1e-6
        # and the simulated maximum stays below the statistical
        # 1e-6 quantile too (the run is far shorter than 1e6 busy
        # periods)
        assert simulated_max <= statistical * 1.5
