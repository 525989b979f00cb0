"""Single owner of the paper's theorem computations.

``repro.analysis`` collects every analytic construction from the paper
— feasible orderings (eqs. 4-5), the feasible partition (eqs. 37-39),
the Chernoff/MGF machinery of Lemmas 5-6, the single-node bound
theorems (7, 8, 10, 11, 12) and the admission procedures built on them
— behind one import path, plus the stateful
:class:`~repro.analysis.context.AnalysisContext` that caches and
incrementally maintains those computations across session
join/leave/renegotiate events.

Layout
------
:mod:`repro.analysis.feasible`
    Feasible orderings and the feasible partition.
:mod:`repro.analysis.mgf`
    Lemma 5/6 virtual-queue tail and log-MGF bounds (continuous and
    discrete-time forms).
:mod:`repro.analysis.single_node`
    The Theorem 7/8/10/11/12 bound families for one GPS node.
:mod:`repro.analysis.admission`
    QoS targets, the Theorem 10/15 admission predicate, the
    float-exact critical-rate threshold and typed decisions.
:mod:`repro.analysis.incremental`
    Exact-sum and sorted-ratio-order containers behind the
    incremental context.
:mod:`repro.analysis.context`
    :class:`AnalysisContext` — cached, incrementally-updated state.
:mod:`repro.analysis.grid`
    Vectorized bound evaluation over numpy grids.
"""

from repro.analysis.admission import (
    AdmissionDecision,
    QoSTarget,
    admissible,
    critical_guaranteed_rate,
    max_admissible_copies,
    meets_target,
    required_rate_for_delay,
)
from repro.analysis.context import AnalysisContext, SessionDeclaration
from repro.analysis.feasible import (
    FeasibleOrderingError,
    FeasiblePartition,
    all_feasible_orderings,
    feasible_partition,
    find_feasible_ordering,
    is_feasible_ordering,
)
from repro.analysis.grid import (
    rpps_delay_bounds,
    tail_probability_matrix,
    theorem15_delay_tail_grid,
)
from repro.analysis.incremental import ExactSum, SortedRatioOrder
from repro.analysis.mgf import (
    VirtualQueue,
    bucket_delta_tail_bound,
    discrete_delta_tail_bound,
    discrete_log_mgf_bound,
    lemma5_max_xi,
    lemma5_tail_bound,
    lemma6_log_mgf_bound,
    lemma6_optimal_xi,
    paper_remark_mgf_minimum,
)
from repro.analysis.single_node import (
    SessionBoundFamily,
    SessionBounds,
    best_partition_family,
    theorem7_family,
    theorem8_family,
    theorem10_bounds,
    theorem11_family,
    theorem12_family,
)

__all__ = [
    # context
    "AnalysisContext",
    "SessionDeclaration",
    # admission
    "AdmissionDecision",
    "QoSTarget",
    "admissible",
    "critical_guaranteed_rate",
    "max_admissible_copies",
    "meets_target",
    "required_rate_for_delay",
    # feasible orderings / partition
    "FeasibleOrderingError",
    "FeasiblePartition",
    "all_feasible_orderings",
    "feasible_partition",
    "find_feasible_ordering",
    "is_feasible_ordering",
    # MGF / Chernoff machinery
    "VirtualQueue",
    "bucket_delta_tail_bound",
    "discrete_delta_tail_bound",
    "discrete_log_mgf_bound",
    "lemma5_max_xi",
    "lemma5_tail_bound",
    "lemma6_log_mgf_bound",
    "lemma6_optimal_xi",
    "paper_remark_mgf_minimum",
    # single-node theorem families
    "SessionBoundFamily",
    "SessionBounds",
    "best_partition_family",
    "theorem7_family",
    "theorem8_family",
    "theorem10_bounds",
    "theorem11_family",
    "theorem12_family",
    # incremental containers
    "ExactSum",
    "SortedRatioOrder",
    # vectorized grids
    "rpps_delay_bounds",
    "tail_probability_matrix",
    "theorem15_delay_tail_grid",
]
