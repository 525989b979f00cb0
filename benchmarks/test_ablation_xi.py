"""A4 — The discretization ablation: xi = 1 vs the optimal xi.

Lemma 6's MGF bound carries a free discretization step ``xi``; the
paper fixes ``xi = 1`` "for simplicity of notation" and Remark (1)
derives the optimum ``xi_0 = ln(r/rho) / (eps theta)``.  This bench
quantifies what the simplification costs across the epsilon range (the
cost explodes as the virtual-rate slack shrinks, because xi = 1 is then
far from optimal).
"""

import math

from benchmarks.conftest import report
from repro.core.ebb import EBB
from repro.analysis.mgf import (
    lemma6_log_mgf_bound,
    lemma6_optimal_xi,
)
from repro.experiments.tables import format_table

THETA = 1.0
EPSILONS = (0.02, 0.05, 0.1, 0.2, 0.4)


def compute_rows():
    arrival = EBB(0.3, 1.0, 2.0)
    rows = []
    for eps in EPSILONS:
        rate = arrival.rho + eps
        fixed = lemma6_log_mgf_bound(arrival, rate, THETA, xi=1.0)
        best_xi = lemma6_optimal_xi(arrival, rate, THETA)
        optimal = lemma6_log_mgf_bound(
            arrival, rate, THETA, xi=best_xi
        )
        rows.append(
            [
                eps,
                best_xi,
                math.exp(fixed),
                math.exp(optimal),
                (fixed - optimal) / math.log(10.0),
            ]
        )
    return rows


def test_xi_ablation(once):
    rows = once(compute_rows)
    report(
        "A4: Lemma 6 MGF-bound prefactor at theta=1 — xi=1 (paper) vs "
        "optimal xi",
        format_table(
            [
                "eps",
                "optimal xi",
                "prefactor (xi=1)",
                "prefactor (opt)",
                "cost (decades)",
            ],
            rows,
        ),
    )
    for _, _, fixed, optimal, cost in rows:
        assert optimal <= fixed * (1 + 1e-9)
        assert cost >= -1e-9
    # the xi=1 penalty grows as eps shrinks
    costs = [row[4] for row in rows]
    assert costs[0] > costs[-1]
