"""Single-node statistical bounds: Theorems 7, 8, 10, 11 and 12.

Every theorem produces, for one session ``i``, a family of exponential
tail bounds indexed by the Chernoff parameter ``theta``:

* backlog   ``Pr{Q_i(t) >= q} <= Lambda_i(theta) e^{-theta q}``,
* delay     ``Pr{D_i(t) >= d} <= Lambda_i(theta) e^{-theta g_i d}``,
* output    ``S_i`` is ``(rho_i, Lambda_i(theta), theta)``-E.B.B.

The families differ in how ``Lambda_i(theta)`` is assembled from the
virtual-queue MGF bounds (Lemma 6) and in the admissible ``theta``
range:

========== ============================ ==========================
theorem     inputs                       ordering used
========== ============================ ==========================
Theorem 7   independent                  explicit feasible ordering
Theorem 8   arbitrary (Hölder)           explicit feasible ordering
Theorem 10  arbitrary, session in H_1    none (rate ``g_i`` directly)
Theorem 11  independent                  feasible partition
Theorem 12  arbitrary (Hölder)           feasible partition
========== ============================ ==========================

Theorems 11/12 use the partition-aware epsilon split
``eps_i = psi_i eps~_l = (g_i - rho_i) / k`` from the proof of
Theorem 11, which makes every geometric factor in the denominator equal
to ``1 - e^{-theta (g_i - rho_i)/k}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.analysis.feasible import FeasiblePartition
from repro.analysis.mgf import (
    discrete_delta_tail_bound,
    discrete_log_mgf_bound,
    lemma5_tail_bound,
    lemma6_log_mgf_bound,
)
from repro.core.bounds import ExponentialTailBound
from repro.core.decomposition import Decomposition
from repro.core.ebb import EBB
from repro.core.gps import GPSConfig
from repro.core.holder import HolderSplit, HolderTerm, optimal_holder_split
from repro.utils.numeric import expm1_neg, minimize_scalar_bounded
from repro.utils.validation import check_in_open_interval, check_positive

from repro.errors import ValidationError

__all__ = [
    "SessionBoundFamily",
    "SessionBounds",
    "theorem7_family",
    "theorem8_family",
    "theorem10_bounds",
    "theorem11_family",
    "theorem12_family",
    "best_partition_family",
]

#: Fraction of ``theta_max`` used as the upper search limit when
#: optimizing theta (the prefactor diverges at ``theta_max`` itself).
_THETA_SEARCH_CAP = 1.0 - 1e-9


@dataclass(frozen=True)
class SessionBounds:
    """Concrete bounds for one session at one chosen ``theta``."""

    session_name: str
    backlog: ExponentialTailBound
    delay: ExponentialTailBound
    output: EBB


@dataclass(frozen=True)
class SessionBoundFamily:
    """A ``theta``-indexed family of bounds for one session.

    ``log_prefactor(theta)`` is valid for ``0 < theta < theta_max``; the
    prefactor typically diverges as ``theta`` approaches ``theta_max``,
    so the best bound at a given backlog ``q`` (or delay ``d``) is found
    by a one-dimensional optimization, exposed as
    :meth:`optimized_backlog` / :meth:`optimized_delay`.
    """

    session_name: str
    theta_max: float
    guaranteed_rate: float
    rho: float
    log_prefactor: Callable[[float], float]

    def __post_init__(self) -> None:
        check_positive("theta_max", self.theta_max)
        check_positive("guaranteed_rate", self.guaranteed_rate)

    # ------------------------------------------------------------------
    # fixed-theta bounds
    # ------------------------------------------------------------------
    def _check_theta(self, theta: float) -> None:
        check_in_open_interval("theta", theta, 0.0, self.theta_max)

    def backlog_bound(self, theta: float) -> ExponentialTailBound:
        """``Pr{Q >= q} <= Lambda(theta) e^{-theta q}``."""
        self._check_theta(theta)
        return ExponentialTailBound(
            math.exp(self.log_prefactor(theta)), theta
        )

    def delay_bound(self, theta: float) -> ExponentialTailBound:
        """``Pr{D >= d} <= Lambda(theta) e^{-theta g d}``."""
        return self.backlog_bound(theta).scaled_argument(
            self.guaranteed_rate
        )

    def output_ebb(self, theta: float) -> EBB:
        """The output process is ``(rho, Lambda(theta), theta)``-E.B.B."""
        self._check_theta(theta)
        return EBB(
            self.rho, math.exp(self.log_prefactor(theta)), theta
        )

    def bounds_at(self, theta: float) -> SessionBounds:
        """All three bounds at one ``theta``."""
        return SessionBounds(
            session_name=self.session_name,
            backlog=self.backlog_bound(theta),
            delay=self.delay_bound(theta),
            output=self.output_ebb(theta),
        )

    # ------------------------------------------------------------------
    # optimized-theta bounds
    # ------------------------------------------------------------------
    def _optimize(self, objective: Callable[[float], float]) -> float:
        """Return the ``theta`` minimizing ``objective`` on the range."""
        hi = self.theta_max * _THETA_SEARCH_CAP
        lo = self.theta_max * 1e-9
        # Coarse grid to bracket the minimum, then golden refinement;
        # the objective is smooth and in practice unimodal, but a grid
        # guards against a misleading golden start.
        grid_size = 64
        best_k = 0
        best_val = math.inf
        for k in range(grid_size + 1):
            theta = lo + (hi - lo) * k / grid_size
            val = objective(theta)
            if val < best_val:
                best_val, best_k = val, k
        lo_idx = max(0, best_k - 1)
        hi_idx = min(grid_size, best_k + 1)
        bracket_lo = lo + (hi - lo) * lo_idx / grid_size
        bracket_hi = lo + (hi - lo) * hi_idx / grid_size
        theta_star, _ = minimize_scalar_bounded(
            objective, bracket_lo, bracket_hi
        )
        return theta_star

    def optimized_backlog(self, q: float) -> ExponentialTailBound:
        """The member of the family that is tightest at backlog ``q``."""
        check_positive("q", q)
        theta = self._optimize(
            lambda t: self.log_prefactor(t) - t * q
        )
        return self.backlog_bound(theta)

    def optimized_delay(self, d: float) -> ExponentialTailBound:
        """The member of the family that is tightest at delay ``d``."""
        check_positive("d", d)
        theta = self._optimize(
            lambda t: self.log_prefactor(t) - t * self.guaranteed_rate * d
        )
        return self.delay_bound(theta)

    def backlog_curve(self, qs: Sequence[float]) -> list[float]:
        """Pointwise-optimized bound values ``Pr{Q >= q}`` over ``qs``."""
        return [self.optimized_backlog(q).evaluate(q) for q in qs]

    def delay_curve(self, ds: Sequence[float]) -> list[float]:
        """Pointwise-optimized bound values ``Pr{D >= d}`` over ``ds``."""
        return [self.optimized_delay(d).evaluate(d) for d in ds]


def _queue_log_mgf(
    arrival: EBB,
    rate: float,
    theta: float,
    xi: float,
    discrete: bool,
) -> float:
    """Lemma 6 log-MGF bound, continuous (with step ``xi``) or the
    tighter discrete-time variant of Remark (2)."""
    if discrete:
        return discrete_log_mgf_bound(arrival, rate, theta)
    return lemma6_log_mgf_bound(arrival, rate, theta, xi=xi)


# ----------------------------------------------------------------------
# Theorem 7 — independent inputs, explicit feasible ordering
# ----------------------------------------------------------------------
def theorem7_family(
    decomposition: Decomposition,
    session_index: int,
    *,
    xi: float = 1.0,
    discrete: bool = False,
) -> SessionBoundFamily:
    """Theorem 7: per-session bounds under independent E.B.B. inputs.

    ``log Lambda_i(theta)`` is the sum of Lemma 6 MGF bounds: the
    session's own virtual queue evaluated at ``theta`` plus each
    predecessor's virtual queue evaluated at ``psi_i theta`` — exactly
    the prefactor of eq. (26) when ``xi = 1``.  ``discrete=True``
    swaps in the tighter discrete-time MGF bound of Remark (2)
    (``xi`` is then ignored).
    """
    config = decomposition.config
    session = config.sessions[session_index]
    predecessors = decomposition.predecessors(session_index)
    psi = decomposition.psi(session_index)
    theta_max = min(
        [session.alpha]
        + [config.sessions[j].alpha for j in predecessors]
    )
    own_rate = decomposition.rates[session_index]

    def log_prefactor(theta: float) -> float:
        total = _queue_log_mgf(
            session.arrival, own_rate, theta, xi, discrete
        )
        for j in predecessors:
            total += _queue_log_mgf(
                config.sessions[j].arrival,
                decomposition.rates[j],
                psi * theta,
                xi,
                discrete,
            )
        return total

    return SessionBoundFamily(
        session_name=session.name,
        theta_max=theta_max,
        guaranteed_rate=config.guaranteed_rate(session_index),
        rho=session.rho,
        log_prefactor=log_prefactor,
    )


# ----------------------------------------------------------------------
# Theorem 8 — dependent inputs via Hölder, explicit feasible ordering
# ----------------------------------------------------------------------
def theorem8_family(
    decomposition: Decomposition,
    session_index: int,
    *,
    xi: float = 1.0,
    split: HolderSplit | None = None,
    paper_form: bool = False,
    discrete: bool = False,
) -> SessionBoundFamily:
    """Theorem 8: per-session bounds without independence assumptions.

    Hölder's inequality splits the joint MGF into marginal MGFs with
    inflated arguments ``p_j``.  By default the exponents equalize the
    per-term ceilings (maximizing the usable ``theta`` range to
    ``(sum_{j <= i} 1/alpha_j)^{-1}``), and the exact Hölder powers
    ``(...)^{1/p_j}`` are kept.  ``paper_form=True`` reproduces
    eq. (36) literally, which drops the ``1/p_j`` exponent on the
    geometric denominators and is therefore slightly looser.
    """
    config = decomposition.config
    session = config.sessions[session_index]
    predecessors = decomposition.predecessors(session_index)
    psi = decomposition.psi(session_index)
    own_rate = decomposition.rates[session_index]

    if paper_form and discrete:
        raise ValidationError(
            "paper_form reproduces the literal continuous-time "
            "eq. (36); combine it with discrete=False"
        )
    if not predecessors:
        # First in the ordering: no Hölder split is needed; the bound
        # reduces to the single-queue Chernoff bound.
        return theorem7_family(
            decomposition, session_index, xi=xi, discrete=discrete
        )

    terms = [HolderTerm(coefficient=1.0, ceiling=session.alpha)] + [
        HolderTerm(coefficient=psi, ceiling=config.sessions[j].alpha)
        for j in predecessors
    ]
    if split is None:
        split = optimal_holder_split(terms)
    exponents = split.exponents
    if len(exponents) != len(terms):
        raise ValidationError(
            f"split has {len(exponents)} exponents for {len(terms)} terms"
        )

    def log_prefactor(theta: float) -> float:
        contributions = []
        queue_specs = [(session.arrival, own_rate, 1.0)] + [
            (
                config.sessions[j].arrival,
                decomposition.rates[j],
                psi,
            )
            for j in predecessors
        ]
        for (arrival, rate, coeff), p in zip(queue_specs, exponents):
            inner = _queue_log_mgf(
                arrival, rate, p * coeff * theta, xi, discrete
            )
            if paper_form:
                # eq. (36): keep theta * (sigma_hat + rho xi) but divide
                # by the *unexponentiated* geometric factor.
                eps = rate - arrival.rho
                contributions.append(
                    theta
                    * coeff
                    * (arrival.sigma_hat(p * coeff * theta) + arrival.rho * xi)
                    - math.log(expm1_neg(p * coeff * theta * eps * xi))
                )
            else:
                contributions.append(inner / p)
        return sum(contributions)

    # The usable range: every MGF argument p * c * theta < alpha.
    theta_max = min(
        term.ceiling / (p * term.coefficient)
        for term, p in zip(terms, exponents)
    )
    return SessionBoundFamily(
        session_name=session.name,
        theta_max=theta_max,
        guaranteed_rate=config.guaranteed_rate(session_index),
        rho=session.rho,
        log_prefactor=log_prefactor,
    )


# ----------------------------------------------------------------------
# Theorem 10 — sessions in H_1 (no independence needed)
# ----------------------------------------------------------------------
def theorem10_bounds(
    config: GPSConfig,
    session_index: int,
    *,
    xi: float | None = None,
    discrete: bool = False,
    partition: FeasiblePartition | None = None,
) -> SessionBounds:
    """Theorem 10: direct bounds for a session in partition class H_1.

    For ``i`` in ``H_1`` the sample path argument gives ``Q_i(t) <=
    delta_i(t)`` with the virtual queue drained at the *guaranteed* rate
    ``g_i``, so Lemma 5 applies verbatim with ``eps = g_i - rho_i`` and
    decay rate equal to the session's own ``alpha_i`` — no other session
    enters the bound and no independence is required.

    ``discrete=True`` uses the discrete-time form of the tail bound
    (eq. 66), as in the Section 6.3 example.
    """
    if partition is None:
        partition = config.partition()
    if partition.level(session_index) != 0:
        raise ValidationError(
            f"session {session_index} is in class "
            f"H_{partition.level(session_index) + 1}, but Theorem 10 "
            "applies only to sessions in H_1"
        )
    session = config.sessions[session_index]
    g = config.guaranteed_rate(session_index)
    if discrete:
        backlog = discrete_delta_tail_bound(session.arrival, g)
    else:
        backlog = lemma5_tail_bound(session.arrival, g, xi=xi)
    delay = backlog.scaled_argument(g)
    output = EBB(session.rho, backlog.prefactor, backlog.decay_rate)
    return SessionBounds(
        session_name=session.name,
        backlog=backlog,
        delay=delay,
        output=output,
    )


# ----------------------------------------------------------------------
# Theorems 11 / 12 — feasible-partition bounds
# ----------------------------------------------------------------------
def _partition_epsilon_structure(
    config: GPSConfig,
    partition: FeasiblePartition,
    session_index: int,
) -> tuple[int, float, float, float]:
    """Common geometry for Theorems 11/12.

    Returns ``(level, psi, own_eps, class_eps)`` where ``level`` is the
    0-based partition level of the session, ``own_eps`` is the
    session's virtual-queue slack and ``class_eps`` is the slack
    ``eps~_l`` of each aggregate class below it (chosen so that
    ``psi * class_eps = own_eps``).

    The ``g_i`` of Theorems 11/12 is the *class-relative* guaranteed
    rate ``g_i = psi_i (r - sum_{j in lower classes} rho_j)`` — the
    share of the residual server the session is guaranteed once the
    lower classes' long-term rates are subtracted.  (The algebra in the
    proof of eq. (55), ``sum r~_l + r_i = 1 - (1/psi - 1) rho_i``,
    pins this down; for a session in ``H_1`` it coincides with the
    ordinary GPS guaranteed rate.)  The defining inequality (39) of the
    feasible partition makes the margin ``g_i - rho_i`` strictly
    positive for every session, which is exactly why the partition
    yields bounds for *all* sessions.
    """
    level = partition.level(session_index)
    psi = partition.psi(session_index)
    session = config.sessions[session_index]
    lower_rho = sum(
        config.sessions[j].rho for j in partition.prefix_sessions(level)
    )
    class_guaranteed_rate = psi * (config.rate - lower_rho)
    margin = class_guaranteed_rate - session.rho
    if margin <= 0.0:
        raise AssertionError(
            f"session {session_index} has rho={session.rho} >= class-"
            f"relative rate {class_guaranteed_rate}; this cannot happen "
            "for a correctly built feasible partition"
        )
    own_eps = margin / (level + 1)
    class_eps = own_eps / psi
    return level, psi, own_eps, class_eps


def _aggregate_log_mgf(
    config: GPSConfig,
    members: Sequence[int],
    virtual_rate: float,
    theta: float,
    xi: float,
    discrete: bool = False,
) -> float:
    """Lemma 6 log-MGF bound for an *aggregate* session.

    The aggregate of independent sessions ``members`` has MGF envelope
    ``exp(theta (rho~ d + sigma~(theta)))`` with ``rho~ = sum rho_j``
    and ``sigma~(theta) = sum sigma_hat_j(theta)``, so the Lemma 6 chain
    goes through with those substitutions.
    """
    check_positive("theta", theta)
    rho_total = sum(config.sessions[j].rho for j in members)
    eps = virtual_rate - rho_total
    check_positive("aggregate eps", eps)
    sigma_total = sum(
        config.sessions[j].arrival.sigma_hat(theta) for j in members
    )
    if discrete:
        return theta * sigma_total - math.log(expm1_neg(theta * eps))
    return theta * (sigma_total + rho_total * xi) - math.log(
        expm1_neg(theta * eps * xi)
    )


def theorem11_family(
    config: GPSConfig,
    session_index: int,
    *,
    xi: float = 1.0,
    partition: FeasiblePartition | None = None,
    discrete: bool = False,
) -> SessionBoundFamily:
    """Theorem 11: partition-based bounds under independent inputs.

    The session in class ``H_k`` is placed ``k``-th in a feasible
    ordering whose first ``k - 1`` entries are the *aggregated* earlier
    classes; the slack ``g_i - rho_i`` is split equally over the ``k``
    geometric factors.  For a session in ``H_1`` the family degenerates
    to the single-queue Chernoff bound at rate ``g_i`` (the MGF version
    of Theorem 10).
    """
    if partition is None:
        partition = config.partition()
    session = config.sessions[session_index]
    level, psi, own_eps, class_eps = _partition_epsilon_structure(
        config, partition, session_index
    )
    own_rate = session.rho + own_eps
    prefix_alphas = [
        config.sessions[j].alpha for j in partition.prefix_sessions(level)
    ]
    theta_max = min([session.alpha] + prefix_alphas)

    def log_prefactor(theta: float) -> float:
        total = _queue_log_mgf(
            session.arrival, own_rate, theta, xi, discrete
        )
        for l in range(level):
            members = partition.classes[l]
            rho_total = sum(config.sessions[j].rho for j in members)
            total += _aggregate_log_mgf(
                config,
                members,
                rho_total + class_eps,
                psi * theta,
                xi,
                discrete,
            )
        return total

    return SessionBoundFamily(
        session_name=session.name,
        theta_max=theta_max,
        guaranteed_rate=config.guaranteed_rate(session_index),
        rho=session.rho,
        log_prefactor=log_prefactor,
    )


def theorem12_family(
    config: GPSConfig,
    session_index: int,
    *,
    xi: float = 1.0,
    partition: FeasiblePartition | None = None,
    paper_form: bool = False,
    discrete: bool = False,
) -> SessionBoundFamily:
    """Theorem 12: partition-based bounds without independence (Hölder).

    Blocks of the Hölder split are the session itself plus one block per
    earlier partition class.  Exponents are chosen to equalize the
    per-block MGF ceilings, matching the paper's optimal choice.  As in
    :func:`theorem8_family`, the exact Hölder form is the default and
    ``paper_form=True`` reproduces the literal eq. (59).
    """
    if partition is None:
        partition = config.partition()
    session = config.sessions[session_index]
    level, psi, own_eps, class_eps = _partition_epsilon_structure(
        config, partition, session_index
    )
    own_rate = session.rho + own_eps

    if paper_form and discrete:
        raise ValidationError(
            "paper_form reproduces the literal continuous-time "
            "eq. (59); combine it with discrete=False"
        )
    if level == 0:
        return theorem11_family(
            config,
            session_index,
            xi=xi,
            partition=partition,
            discrete=discrete,
        )

    class_ceilings = [
        min(config.sessions[j].alpha for j in partition.classes[l])
        for l in range(level)
    ]
    terms = [HolderTerm(coefficient=1.0, ceiling=session.alpha)] + [
        HolderTerm(coefficient=psi, ceiling=ceiling)
        for ceiling in class_ceilings
    ]
    split = optimal_holder_split(terms)
    exponents = split.exponents

    def log_prefactor(theta: float) -> float:
        p_self = exponents[0]
        inner_self = _queue_log_mgf(
            session.arrival, own_rate, p_self * theta, xi, discrete
        )
        if paper_form:
            eps = own_rate - session.rho
            total = theta * (
                session.arrival.sigma_hat(p_self * theta)
                + session.rho * xi
            ) - math.log(expm1_neg(p_self * theta * eps * xi))
        else:
            total = inner_self / p_self
        for l in range(level):
            p_l = exponents[l + 1]
            members = partition.classes[l]
            rho_total = sum(config.sessions[j].rho for j in members)
            inner = _aggregate_log_mgf(
                config,
                members,
                rho_total + class_eps,
                p_l * psi * theta,
                xi,
                discrete,
            )
            if paper_form:
                sigma_total = sum(
                    config.sessions[j].arrival.sigma_hat(p_l * psi * theta)
                    for j in members
                )
                total += theta * psi * (
                    sigma_total + rho_total * xi
                ) - math.log(
                    expm1_neg(p_l * psi * theta * class_eps * xi)
                )
            else:
                total += inner / p_l
        return total

    return SessionBoundFamily(
        session_name=session.name,
        theta_max=split.theta_max,
        guaranteed_rate=config.guaranteed_rate(session_index),
        rho=session.rho,
        log_prefactor=log_prefactor,
    )


def best_partition_family(
    config: GPSConfig,
    session_index: int,
    *,
    independent: bool = True,
    xi: float = 1.0,
    discrete: bool = False,
) -> SessionBoundFamily:
    """The recommended bound family for a session.

    Uses the feasible-partition theorems: Theorem 11 when the inputs are
    independent, Theorem 12 otherwise.
    """
    if independent:
        return theorem11_family(
            config, session_index, xi=xi, discrete=discrete
        )
    return theorem12_family(
        config, session_index, xi=xi, discrete=discrete
    )
