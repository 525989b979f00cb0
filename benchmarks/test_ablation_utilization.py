"""A12 — bound tightness vs server utilization.

The practical question behind admission control: how much capacity do
the statistical bounds waste?  This bench sweeps the number of
identical voice sessions on one RPPS server, and for each load level
compares the simulated 99.9th-percentile session backlog with the
Theorem 10 bound's 1e-3 quantile — the ratio is the over-provisioning
factor an operator pays for using the bound, as a function of
utilization.
"""

import numpy as np

from benchmarks.conftest import report
from repro.core.gps import rpps_config
from repro.analysis.single_node import theorem10_bounds
from repro.experiments.tables import format_table
from repro.markov.lnt94 import ebb_characterization
from repro.markov.onoff import OnOffSource
from repro.sim.fluid import FluidGPSServer
from repro.sim.measurements import tail_quantile
from repro.traffic.sources import OnOffTraffic

NUM_SLOTS = 60_000
SESSION_COUNTS = (3, 4)
RHO = 0.2
EPSILON = 1e-3
MODEL = OnOffSource(0.3, 0.7, 0.5)


def run_experiment():
    ebb = ebb_characterization(MODEL.as_mms(), RHO)
    rows = []
    for count in SESSION_COUNTS:
        config = rpps_config(
            1.0, [(f"s{k}", ebb) for k in range(count)]
        )
        bounds = theorem10_bounds(config, 0, discrete=True)
        rng = np.random.default_rng(count)
        arrivals = np.vstack(
            [
                OnOffTraffic(MODEL).generate(NUM_SLOTS, rng)
                for _ in range(count)
            ]
        )
        result = FluidGPSServer(rate=1.0, phis=list(config.phis)).run(arrivals)
        simulated = tail_quantile(
            result.backlog[0][1000:], EPSILON
        )
        analytic = bounds.backlog.quantile(EPSILON)
        utilization = count * MODEL.mean_rate
        rows.append(
            [
                count,
                utilization,
                simulated,
                analytic,
                analytic / max(simulated, 1e-9),
            ]
        )
    return rows


def test_utilization_sweep(once):
    rows = once(run_experiment)
    report(
        "A12: session-0 backlog at exceedance 1e-3 — simulated vs "
        "Theorem 10 quantile, across loads",
        format_table(
            [
                "sessions",
                "mean utilization",
                "simulated q(1e-3)",
                "bound q(1e-3)",
                "over-provisioning",
            ],
            rows,
        ),
    )
    for _, _, simulated, analytic, factor in rows:
        # the bound quantile must dominate the simulated one
        assert analytic >= simulated * 0.999
        # and stay within a sane over-provisioning envelope
        assert factor < 100.0
    # the bound's quantile grows with load (less slack per session)
    quantiles = [row[3] for row in rows]
    assert quantiles[0] < quantiles[-1]
