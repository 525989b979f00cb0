"""A3 — The feasible-partition ablation: Theorem 7 vs Theorem 11.

Theorem 11 places each session as early as possible by aggregating the
strictly-lower partition classes and concentrating the epsilon slack on
the session's own class chain; Theorem 7 with a generic decomposition
spreads slack across all sessions.  This bench measures the gain across
all sessions and several backlog targets.
"""

import numpy as np

from benchmarks.conftest import report
from repro.core.decomposition import decompose
from repro.core.ebb import EBB
from repro.core.gps import GPSConfig, Session
from repro.analysis.single_node import theorem7_family, theorem11_family
from repro.experiments.tables import format_table

BACKLOGS = (5.0, 15.0, 30.0)


def build_config() -> GPSConfig:
    return GPSConfig(
        1.0,
        [
            Session("a", EBB(0.2, 1.0, 2.0), 1.0),
            Session("b", EBB(0.3, 1.5, 1.5), 2.0),
            Session("c", EBB(0.25, 0.8, 3.0), 1.0),
        ],
    )


def compute_rows():
    config = build_config()
    decomposition = decompose(config)
    rows = []
    for i, session in enumerate(config.sessions):
        f7 = theorem7_family(decomposition, i)
        f11 = theorem11_family(config, i)
        for q in BACKLOGS:
            b7 = f7.optimized_backlog(q).evaluate(q)
            b11 = f11.optimized_backlog(q).evaluate(q)
            rows.append(
                [
                    session.name,
                    q,
                    b7,
                    b11,
                    np.log10(max(b7, 1e-300))
                    - np.log10(max(b11, 1e-300)),
                ]
            )
    return rows


def test_partition_gain(once):
    rows = once(compute_rows)
    report(
        "A3: Pr{Q >= q} — Theorem 7 (generic ordering) vs Theorem 11 "
        "(feasible partition)",
        format_table(
            ["session", "q", "Thm 7", "Thm 11", "gain (decades)"],
            rows,
        ),
    )
    # The partition bound wins at the largest target for every session.
    by_session = {}
    for name, q, b7, b11, _ in rows:
        if q == max(BACKLOGS):
            by_session[name] = (b7, b11)
    for name, (b7, b11) in by_session.items():
        assert b11 <= b7 * 1.0000001, name
