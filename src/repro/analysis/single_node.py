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
from functools import partial
from itertools import repeat
from operator import truediv
from typing import Callable, NamedTuple, Sequence

import numpy as np

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

from repro.errors import NumericalError, ValidationError

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
    def _prefactor(self, theta: float) -> float:
        """``Lambda(theta)``; a prefactor beyond the float range raises
        :class:`repro.errors.NumericalError`."""
        check_in_open_interval("theta", theta, 0.0, self.theta_max)
        log_prefactor = self.log_prefactor(theta)
        try:
            return math.exp(log_prefactor)
        except OverflowError:
            raise NumericalError(
                f"{self.session_name!r}: prefactor exp({log_prefactor}) "
                f"overflows at theta={theta}"
            ) from None

    def backlog_bound(self, theta: float) -> ExponentialTailBound:
        """``Pr{Q >= q} <= Lambda(theta) e^{-theta q}``."""
        return ExponentialTailBound(self._prefactor(theta), theta)

    def delay_bound(self, theta: float) -> ExponentialTailBound:
        """``Pr{D >= d} <= Lambda(theta) e^{-theta g d}``."""
        return self.backlog_bound(theta).scaled_argument(
            self.guaranteed_rate
        )

    def output_ebb(self, theta: float) -> EBB:
        """The output process is ``(rho, Lambda(theta), theta)``-E.B.B."""
        return EBB(self.rho, self._prefactor(theta), theta)

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
        log_prefactor = self.log_prefactor
        theta = self._optimize(lambda t: log_prefactor(t) - t * q)
        return self.backlog_bound(theta)

    def optimized_delay(self, d: float) -> ExponentialTailBound:
        """The member of the family that is tightest at delay ``d``."""
        check_positive("d", d)
        log_prefactor, rate = self.log_prefactor, self.guaranteed_rate
        theta = self._optimize(lambda t: log_prefactor(t) - t * rate * d)
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
class _LowerClass(NamedTuple):
    """One partition class below a session, as Theorems 11/12 read it.

    ``rho_total`` is the aggregate upper rate ``rho~``, summed over the
    members in ascending session index.  ``prefactors`` and
    ``decay_rates`` hold the distinct ``(Lambda_j, alpha_j)`` pairs among
    the members, and ``pairs[m]`` is the index of member ``m``'s pair, in
    member order: each ``sigma_hat_j(theta)`` is evaluated once per
    distinct pair and summed over the members.
    """

    rho_total: float
    prefactors: np.ndarray
    decay_rates: np.ndarray
    pairs: np.ndarray


def _lower_class(
    rho_total: float, prefactors: np.ndarray, decay_rates: np.ndarray
) -> _LowerClass:
    """The class whose members have these parameters, in member order."""
    distinct, pairs = np.unique(
        np.stack((prefactors, decay_rates)), axis=1, return_inverse=True
    )
    return _LowerClass(rho_total, distinct[0], distinct[1], pairs.ravel())


class _Placement(NamedTuple):
    """Where one session sits in the feasible partition: everything
    Theorems 11/12 read about the rest of the server.

    ``level`` is the 0-based class ``k`` holding the session, ``psi``
    its ``phi_i / sum_{j not in H^{k-1}} phi_j``, ``lower_rho`` the
    upper rates of the lower classes summed member by member in class
    order, ``lower`` one :class:`_LowerClass` per lower class and
    ``guaranteed_rate`` the GPS rate ``g_i``.  :func:`_placement`
    derives it from a :class:`GPSConfig`;
    :class:`repro.analysis.context.AnalysisContext` reads it off the
    columns it maintains.  Both then run the same bound code.
    """

    name: str
    arrival: EBB
    level: int
    psi: float
    lower_rho: float
    server_rate: float
    guaranteed_rate: float
    lower: tuple[_LowerClass, ...]


def _placement(
    config: GPSConfig,
    session_index: int,
    partition: FeasiblePartition | None,
) -> _Placement:
    if partition is None:
        partition = config.partition()
    level = partition.level(session_index)
    session = config.sessions[session_index]
    return _Placement(
        name=session.name,
        arrival=session.arrival,
        level=level,
        psi=partition.psi(session_index),
        lower_rho=sum(
            config.sessions[j].rho for j in partition.prefix_sessions(level)
        ),
        server_rate=config.rate,
        guaranteed_rate=config.guaranteed_rate(session_index),
        lower=tuple(
            _lower_class(
                sum(config.sessions[j].rho for j in members),
                np.array(
                    [config.sessions[j].arrival.prefactor for j in members],
                    dtype=float,
                ),
                np.array(
                    [config.sessions[j].alpha for j in members], dtype=float
                ),
            )
            for members in partition.classes[:level]
        ),
    )


def _slack_split(p: _Placement) -> tuple[float, float]:
    """The partition-aware epsilon split of Theorems 11/12.

    Returns ``(own_eps, class_eps)``: ``own_eps`` is the session's
    virtual-queue slack and ``class_eps`` the slack ``eps~_l`` of each
    aggregate class below it (chosen so that ``psi * class_eps =
    own_eps``).

    The ``g_i`` of Theorems 11/12 is the *class-relative* guaranteed
    rate ``g_i = psi_i (r - sum_{j in lower classes} rho_j)`` — the
    share of the residual server the session is guaranteed once the
    lower classes' long-term rates are subtracted.  (The algebra in the
    proof of eq. (55), ``sum r~_l + r_i = 1 - (1/psi - 1) rho_i``,
    pins this down; for a session in ``H_1`` it coincides with the
    ordinary GPS guaranteed rate.)  The defining inequality (39) of the
    feasible partition makes the margin ``g_i - rho_i`` positive in
    exact arithmetic, but a ratio a few ulps below its class threshold
    can round it to zero or below; that raises
    :class:`repro.errors.NumericalError`.
    """
    class_guaranteed_rate = p.psi * (p.server_rate - p.lower_rho)
    margin = class_guaranteed_rate - p.arrival.rho
    if margin <= 0.0:
        raise NumericalError(
            f"session {p.name!r} has rho={p.arrival.rho} >= class-"
            f"relative rate {class_guaranteed_rate} after rounding, so "
            "its partition bound has no slack"
        )
    own_eps = margin / (p.level + 1)
    return own_eps, own_eps / p.psi


def _queue_slack(name: str, rho: float, slack: float) -> float:
    """``(rho + slack) - rho``, the margin the Lemma 6 bound computes
    from the virtual rate ``rho + slack``; validated once per family."""
    return check_positive(name, (rho + slack) - rho)


def _sigma_total(lower: _LowerClass, theta: float) -> float:
    """``sigma~(theta) = sum_j sigma_hat_j(theta)`` over the class.

    Each distinct pair's ``theta Lambda / (alpha - theta)`` is an
    elementwise IEEE operation, so numpy yields the float
    :meth:`EBB.sigma_hat` computes; ``math.log1p`` and the division by
    ``theta`` follow, and the builtin ``sum`` adds the members' values
    in member order, as the reference does.
    """
    # psi * theta underflows for a vanishing weight share
    check_positive("theta", theta)
    args = theta * lower.prefactors / (lower.decay_rates - theta)
    sigma_hats = np.array(
        list(map(truediv, map(math.log1p, args.tolist()), repeat(theta))),
        dtype=object,
    )
    sigma_total: float = sum(sigma_hats[lower.pairs].tolist())
    return sigma_total


def _own_log_mgf(
    arrival: EBB, eps: float, theta: float, xi: float, discrete: bool
) -> float:
    """:func:`_queue_log_mgf` at margin ``eps``, without its per-call
    validation (the same float expression)."""
    # EBB.sigma_hat and expm1_neg written out: this runs ~100 times
    # per optimized bound
    sigma_hat = (
        math.log1p(theta * arrival.prefactor / (arrival.decay_rate - theta))
        / theta
    )
    if discrete:
        return theta * sigma_hat - math.log(-math.expm1(-(theta * eps)))
    return theta * (sigma_hat + arrival.rho * xi) - math.log(
        -math.expm1(-(theta * eps * xi))
    )


def _aggregate_log_mgf(
    lower: _LowerClass, eps: float, theta: float, xi: float, discrete: bool
) -> float:
    """Lemma 6 log-MGF bound for an *aggregate* session.

    The aggregate of independent sessions has MGF envelope
    ``exp(theta (rho~ d + sigma~(theta)))`` with ``rho~ = sum rho_j``
    and ``sigma~(theta) = sum sigma_hat_j(theta)``, so the Lemma 6 chain
    goes through with those substitutions; ``eps`` is the aggregate
    queue's margin.
    """
    sigma_total = _sigma_total(lower, theta)
    if discrete:
        return theta * sigma_total - math.log(expm1_neg(theta * eps))
    return theta * (sigma_total + lower.rho_total * xi) - math.log(
        expm1_neg(theta * eps * xi)
    )


def _class_slacks(p: _Placement, class_eps: float) -> list[float]:
    return [
        _queue_slack("aggregate eps", lower.rho_total, class_eps)
        for lower in p.lower
    ]


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

    Raises :class:`repro.errors.NumericalError` when rounding leaves
    the session no slack (see :func:`_slack_split`).
    """
    return _theorem11(
        _placement(config, session_index, partition), xi=xi, discrete=discrete
    )


def _theorem11(
    p: _Placement, *, xi: float, discrete: bool
) -> SessionBoundFamily:
    own_eps, class_eps = _slack_split(p)
    arrival = p.arrival
    eps = _queue_slack("rate - rho", arrival.rho, own_eps)
    lower = list(zip(p.lower, _class_slacks(p, class_eps)))
    psi = p.psi

    def with_lower_classes(theta: float) -> float:
        total = _own_log_mgf(arrival, eps, theta, xi, discrete)
        for group, group_eps in lower:
            total += _aggregate_log_mgf(
                group, group_eps, psi * theta, xi, discrete
            )
        return total

    # in H_1 the own queue is the whole bound: one call frame per theta
    log_prefactor: Callable[[float], float] = (
        with_lower_classes
        if lower
        else partial(_own_log_mgf, arrival, eps, xi=xi, discrete=discrete)
    )
    return SessionBoundFamily(
        session_name=p.name,
        theta_max=min(
            [arrival.decay_rate]
            + [float(g.decay_rates.min()) for g in p.lower]
        ),
        guaranteed_rate=p.guaranteed_rate,
        rho=arrival.rho,
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
    return _theorem12(
        _placement(config, session_index, partition),
        xi=xi,
        paper_form=paper_form,
        discrete=discrete,
    )


def _theorem12(
    p: _Placement, *, xi: float, paper_form: bool, discrete: bool
) -> SessionBoundFamily:
    own_eps, class_eps = _slack_split(p)
    if paper_form and discrete:
        raise ValidationError(
            "paper_form reproduces the literal continuous-time "
            "eq. (59); combine it with discrete=False"
        )
    if p.level == 0:
        return _theorem11(p, xi=xi, discrete=discrete)
    arrival = p.arrival
    eps = _queue_slack("rate - rho", arrival.rho, own_eps)
    lower = list(zip(p.lower, _class_slacks(p, class_eps)))
    psi = p.psi
    terms = [HolderTerm(coefficient=1.0, ceiling=arrival.decay_rate)] + [
        HolderTerm(coefficient=psi, ceiling=float(group.decay_rates.min()))
        for group in p.lower
    ]
    split = optimal_holder_split(terms)
    exponents = split.exponents

    def log_prefactor(theta: float) -> float:
        p_self = exponents[0]
        if paper_form:
            # eq. (59): keep theta * (sigma_hat + rho xi) but divide by
            # the *unexponentiated* geometric factor
            arg = p_self * theta
            total = theta * (
                arrival.sigma_hat(arg) + arrival.rho * xi
            ) - math.log(expm1_neg(arg * eps * xi))
        else:
            total = (
                _own_log_mgf(arrival, eps, p_self * theta, xi, discrete)
                / p_self
            )
        for (group, group_eps), p_l in zip(lower, exponents[1:]):
            arg = p_l * psi * theta
            if paper_form:
                total += theta * psi * (
                    _sigma_total(group, arg) + group.rho_total * xi
                ) - math.log(expm1_neg(arg * class_eps * xi))
            else:
                total += (
                    _aggregate_log_mgf(group, group_eps, arg, xi, discrete)
                    / p_l
                )
        return total

    return SessionBoundFamily(
        session_name=p.name,
        theta_max=split.theta_max,
        guaranteed_rate=p.guaranteed_rate,
        rho=arrival.rho,
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
