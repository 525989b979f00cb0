"""Core analytical machinery: E.B.B. processes, the GPS decomposition,
and the simulation-facing configuration objects.

The paper-theorem computations themselves (feasible orderings and
partitions, the Lemma 5/6 MGF machinery, the Theorem 7/8/10/11/12
bound families and the admission procedures) live in
:mod:`repro.analysis`.
"""

from __future__ import annotations

from repro.core.bounds import (
    ExponentialTailBound,
    MinTailBound,
    best_bound,
    sum_of_tail_bounds,
)
from repro.core.decomposition import (
    Decomposition,
    decompose,
    phi_proportional_epsilons,
    rho_proportional_epsilons,
    uniform_epsilons,
)
from repro.core.ebb import EB, EBB, aggregate_independent, aggregate_union
from repro.core.gps import GPSConfig, Session, rpps_config
from repro.core.holder import HolderSplit, HolderTerm, optimal_holder_split
from repro.core.pgps import (
    PacketizationPenalty,
    pgps_backlog_bound,
    pgps_delay_bound,
    pgps_session_bounds,
    shift_bound,
)
from repro.core.rpps import (
    guaranteed_rate_bounds,
    rpps_all_bounds,
    rpps_session_bounds,
)

__all__ = [
    "PacketizationPenalty",
    "pgps_backlog_bound",
    "pgps_delay_bound",
    "pgps_session_bounds",
    "shift_bound",
    "EB",
    "EBB",
    "aggregate_independent",
    "aggregate_union",
    "ExponentialTailBound",
    "MinTailBound",
    "best_bound",
    "sum_of_tail_bounds",
    "Decomposition",
    "decompose",
    "uniform_epsilons",
    "rho_proportional_epsilons",
    "phi_proportional_epsilons",
    "GPSConfig",
    "Session",
    "rpps_config",
    "HolderSplit",
    "HolderTerm",
    "optimal_holder_split",
    "guaranteed_rate_bounds",
    "rpps_all_bounds",
    "rpps_session_bounds",
]
