"""A9 — continuous vs discrete-time bound machinery (Remark 2).

The paper carries a ``rho * xi`` slack term because its supremum is
over real-valued interval lengths; in the slotted setting of the
Section 6.3 example the supremum is over integers and the term
disappears.  This bench quantifies the tightening across the theorem
families on a representative configuration.
"""

import numpy as np

from benchmarks.conftest import report
from repro.core.decomposition import decompose
from repro.core.ebb import EBB
from repro.core.gps import GPSConfig, Session
from repro.analysis.single_node import theorem7_family, theorem11_family
from repro.experiments.tables import format_table

BACKLOGS = (5.0, 10.0, 20.0)


def build_rows():
    config = GPSConfig(
        1.0,
        [
            Session("a", EBB(0.2, 1.0, 2.0), 1.0),
            Session("b", EBB(0.3, 1.5, 1.5), 2.0),
            Session("c", EBB(0.25, 0.8, 3.0), 1.0),
        ],
    )
    decomposition = decompose(config)
    rows = []
    for i, session in enumerate(config.sessions):
        families = {
            "Thm 7": (
                theorem7_family(decomposition, i),
                theorem7_family(decomposition, i, discrete=True),
            ),
            "Thm 11": (
                theorem11_family(config, i),
                theorem11_family(config, i, discrete=True),
            ),
        }
        for label, (continuous, discrete) in families.items():
            for q in BACKLOGS:
                c_val = continuous.optimized_backlog(q).evaluate(q)
                d_val = discrete.optimized_backlog(q).evaluate(q)
                gain = np.log10(max(c_val, 1e-300)) - np.log10(
                    max(d_val, 1e-300)
                )
                rows.append(
                    [session.name, label, q, c_val, d_val, gain]
                )
    return rows


def test_discrete_vs_continuous(once):
    rows = once(build_rows)
    report(
        "A9: Pr{Q >= q} — continuous (xi = 1) vs discrete-time bound",
        format_table(
            [
                "session",
                "theorem",
                "q",
                "continuous",
                "discrete",
                "gain (decades)",
            ],
            rows,
        ),
    )
    for row in rows:
        # the discrete variant never loses
        assert row[4] <= row[3] * (1.0 + 1e-9)
