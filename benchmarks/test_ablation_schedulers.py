"""A7 — Scheduler comparison: the isolation / multiplexing trade-off.

Section 7 (following Clark/Shenker/Zhang) discusses GPS's isolation
versus FCFS's statistical-multiplexing gain.  This bench simulates a
well-behaved session sharing a server with a bursty aggressor under
GPS, FCFS, static priority (aggressor prioritized, worst case) and
weighted round robin, and reports the conforming session's delay
quantiles — the quantitative version of the paper's discussion.
"""

import numpy as np

from benchmarks.conftest import report
from repro.experiments.tables import format_table
from repro.markov.onoff import OnOffSource
from repro.sim.baselines import (
    FCFSServer,
    StaticPriorityServer,
    WeightedRoundRobinServer,
)
from repro.sim.fluid import FluidGPSServer
from repro.sim.measurements import tail_quantile
from repro.traffic.sources import OnOffTraffic

NUM_SLOTS = 60_000


def run_experiment():
    rng = np.random.default_rng(31)
    conforming = OnOffTraffic(OnOffSource(0.5, 0.5, 0.6)).generate(
        NUM_SLOTS, rng
    )
    aggressor = OnOffTraffic(OnOffSource(0.1, 0.1, 1.2)).generate(
        NUM_SLOTS, rng
    )
    arrivals = np.vstack([aggressor, conforming])
    phis = [0.55, 0.45]
    servers = {
        "GPS": FluidGPSServer(rate=1.0, phis=phis),
        "WRR (q=1.0)": WeightedRoundRobinServer(
            1.0, phis, quantum=1.0
        ),
        "FCFS": FCFSServer(1.0, 2),
        "priority (aggr high)": StaticPriorityServer(1.0, 2),
    }
    rows = []
    for label, server in servers.items():
        result = server.run(arrivals)
        delays = result.session_delays(1)
        delays = delays[~np.isnan(delays)]
        rows.append(
            [
                label,
                float(delays.mean()),
                tail_quantile(delays, 0.01),
                float(result.backlog[1].max()),
            ]
        )
    return rows


def test_scheduler_isolation(once):
    rows = once(run_experiment)
    report(
        "A7: conforming session delay under different schedulers "
        "(bursty aggressor present)",
        format_table(
            [
                "scheduler",
                "mean delay",
                "99% delay",
                "max backlog",
            ],
            rows,
        ),
    )
    by_label = {row[0]: row for row in rows}
    # GPS protects the conforming session at least as well as FCFS and
    # far better than an adversarial priority assignment.
    assert by_label["GPS"][2] <= by_label["priority (aggr high)"][2]
    assert by_label["GPS"][3] <= by_label["FCFS"][3] + 1e-9
