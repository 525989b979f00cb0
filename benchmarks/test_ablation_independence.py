"""A2 — The independence ablation: Theorem 7 vs Theorem 8.

Theorem 7 exploits independence of the arrival processes; Theorem 8
replaces it with Hölder's inequality and works for arbitrarily
correlated inputs at the cost of a reduced usable decay range
``(sum 1/alpha_j)^{-1}``.  This bench quantifies that cost on a
three-session server across a sweep of backlog targets.
"""

import numpy as np

from benchmarks.conftest import report
from repro.core.decomposition import decompose
from repro.core.ebb import EBB
from repro.core.gps import GPSConfig, Session
from repro.analysis.single_node import theorem7_family, theorem8_family
from repro.experiments.tables import format_table

BACKLOGS = (5.0, 10.0, 20.0, 40.0)


def build_families():
    config = GPSConfig(
        1.0,
        [
            Session("a", EBB(0.2, 1.0, 2.0), 1.0),
            Session("b", EBB(0.3, 1.5, 1.5), 2.0),
            Session("c", EBB(0.25, 0.8, 3.0), 1.0),
        ],
    )
    decomposition = decompose(config)
    last = decomposition.ordering[-1]
    return (
        theorem7_family(decomposition, last),
        theorem8_family(decomposition, last),
        last,
    )


def test_independence_gain(once):
    f7, f8, session = once(build_families)
    rows = []
    for q in BACKLOGS:
        independent = f7.optimized_backlog(q).evaluate(q)
        dependent = f8.optimized_backlog(q).evaluate(q)
        rows.append(
            [
                q,
                independent,
                dependent,
                np.log10(max(dependent, 1e-300))
                - np.log10(max(independent, 1e-300)),
            ]
        )
    report(
        "A2: Pr{Q >= q} for the last-ordered session — Theorem 7 "
        "(independent) vs Theorem 8 (Hölder)",
        format_table(
            ["q", "Thm 7", "Thm 8", "gap (decades)"], rows
        ),
    )
    # Theorem 8's usable decay range is strictly smaller...
    assert f8.theta_max < f7.theta_max
    # ...so at large backlogs the independent bound wins.
    assert rows[-1][1] <= rows[-1][2] * 1.0000001
