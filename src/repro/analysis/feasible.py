"""Feasible orderings (eq. 4-5) and the feasible partition (Section 5).

Parekh & Gallager showed that whenever ``sum_i rho_i < r`` the sessions
of a GPS server can be relabelled so that

    rho_i < phi_i / (sum_{j >= i} phi_j) * (r - sum_{j < i} rho_j)

for every ``i`` — a *feasible ordering*.  The statistical analysis picks
virtual rates ``r_i`` satisfying the analogous non-strict condition
(eq. 5).

Section 5 observes that all feasible orderings are governed by the
ratios ``rho_i / phi_i`` and distils them into the *feasible partition*
``H_1, ..., H_L`` (eqs. 37-39): ``H_1`` holds the sessions whose upper
rate is below their guaranteed rate ``g_i``; each subsequent class holds
the sessions that become "feasible" once the earlier classes' rates are
subtracted from the server.  A key consequence (used by Theorems 10-12)
is that the bound for a session in ``H_k`` depends only on the sessions
in ``H_1, ..., H_{k-1}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.utils.validation import check_positive, check_same_length

from repro.errors import FeasibilityError, ValidationError

__all__ = [
    "FeasibleOrderingError",
    "is_feasible_ordering",
    "find_feasible_ordering",
    "all_feasible_orderings",
    "FeasiblePartition",
    "feasible_partition",
]

#: Relative tolerance used when comparing rates; the constructions are
#: exact in rational arithmetic, but the inputs are floats.
_REL_TOL = 1e-12


class FeasibleOrderingError(FeasibilityError):
    """Raised when no feasible ordering / partition exists for the input.

    A :class:`repro.errors.FeasibilityError` (and therefore both a
    :class:`repro.errors.ReproError` and a ``ValueError``); the historical
    name is kept for backward compatibility.
    """


def _check_inputs(
    rates: Sequence[float], phis: Sequence[float], server_rate: float
) -> None:
    check_same_length("rates", rates, "phis", phis)
    if len(rates) == 0:
        raise ValidationError("need at least one session")
    check_positive("server_rate", server_rate)
    for k, (rate, phi) in enumerate(zip(rates, phis)):
        check_positive(f"phis[{k}]", phi)
        if rate < 0.0:
            raise ValidationError(f"rates[{k}] must be non-negative, got {rate}")


def is_feasible_ordering(
    order: Sequence[int],
    rates: Sequence[float],
    phis: Sequence[float],
    *,
    server_rate: float = 1.0,
    strict: bool = False,
) -> bool:
    """Check condition (4)/(5) for the permutation ``order``.

    ``order[k]`` is the session placed at position ``k``.  With
    ``strict=True`` the strict inequality of eq. (4) is required (the
    appropriate check for the true upper rates ``rho_i``); otherwise the
    non-strict eq. (5) (the check for chosen virtual rates ``r_i``).
    """
    _check_inputs(rates, phis, server_rate)
    if sorted(order) != list(range(len(rates))):
        raise ValidationError(f"order must be a permutation of 0..{len(rates) - 1}")
    remaining_phi = sum(phis[i] for i in order)
    consumed = 0.0
    for position, i in enumerate(order):
        budget = (phis[i] / remaining_phi) * (server_rate - consumed)
        slack = budget - rates[i]
        if strict:
            if slack <= 0.0:
                return False
        else:
            if slack < -_REL_TOL * server_rate:
                return False
        consumed += rates[i]
        remaining_phi -= phis[i]
        del position
    return True


def find_feasible_ordering(
    rates: Sequence[float],
    phis: Sequence[float],
    *,
    server_rate: float = 1.0,
    strict: bool = False,
) -> list[int]:
    """Return a feasible ordering of the sessions, or raise.

    The ordering by increasing ``rho_i / phi_i`` is canonical: at every
    step the eligibility threshold ``(r - consumed) / sum_remaining_phi``
    is *uniform* across remaining sessions, so if any session is
    eligible, the one with the smallest ratio is.  A summation argument
    shows some session is always eligible whenever
    ``sum_i rates_i < server_rate`` (or ``<=`` in the non-strict case).

    Raises
    ------
    FeasibleOrderingError
        If the canonical ordering is not feasible (and therefore no
        ordering is).
    """
    _check_inputs(rates, phis, server_rate)
    order = sorted(range(len(rates)), key=lambda i: rates[i] / phis[i])
    if not is_feasible_ordering(
        order, rates, phis, server_rate=server_rate, strict=strict
    ):
        raise FeasibleOrderingError(
            "no feasible ordering exists: the ratio-sorted ordering "
            f"violates eq. {'(4)' if strict else '(5)'}; total rate "
            f"{sum(rates)} vs server rate {server_rate}"
        )
    return order


def all_feasible_orderings(
    rates: Sequence[float],
    phis: Sequence[float],
    *,
    server_rate: float = 1.0,
    strict: bool = False,
    limit: int = 10_000,
) -> list[list[int]]:
    """Enumerate *every* feasible ordering (for small session counts).

    The paper notes that "in general, there are many feasible
    orderings"; since Theorem 7's bound depends on a session's position,
    enumerating them lets one take the pointwise-best bound over all
    orderings and compare it with the feasible-partition bound
    (Theorem 11) — the partition distils exactly the ordering freedom
    that matters.  Backtracking search; raises ``ValueError`` if more
    than ``limit`` orderings exist (use the canonical one instead).
    """
    _check_inputs(rates, phis, server_rate)
    n = len(rates)
    results: list[list[int]] = []

    def recurse(
        prefix: list[int], consumed: float, remaining: set[int]
    ) -> None:
        if len(results) > limit:
            raise ValidationError(
                f"more than {limit} feasible orderings; enumeration "
                "is not practical for this configuration"
            )
        if not remaining:
            results.append(list(prefix))
            return
        remaining_phi = sum(phis[j] for j in remaining)
        threshold = (server_rate - consumed) / remaining_phi
        for i in sorted(remaining):
            ratio = rates[i] / phis[i]
            ok = ratio < threshold if strict else (
                ratio <= threshold + _REL_TOL
            )
            if ok:
                prefix.append(i)
                remaining.discard(i)
                recurse(prefix, consumed + rates[i], remaining)
                remaining.add(i)
                prefix.pop()

    recurse([], 0.0, set(range(n)))
    return results


@dataclass(frozen=True)
class FeasiblePartition:
    """The feasible partition ``H_1, ..., H_L`` of eqs. (37)-(39).

    Attributes
    ----------
    classes:
        ``classes[k]`` is the tuple of session indices in ``H_{k+1}``
        (0-based classes).
    rhos, phis:
        The inputs the partition was built from.
    server_rate:
        The server rate ``r``.
    """

    classes: tuple[tuple[int, ...], ...]
    rhos: tuple[float, ...]
    phis: tuple[float, ...]
    server_rate: float
    # built on first use: the level map in one pass over the classes,
    # each suffix weight once per level
    _level_of: dict[int, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _suffix_phi: dict[int, float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    @property
    def num_classes(self) -> int:
        """The number of partition classes ``L``."""
        return len(self.classes)

    def level(self, session: int) -> int:
        """0-based class index ``k`` such that ``session`` is in ``H_{k+1}``."""
        levels = self._level_of
        if levels is None:
            levels = {
                i: level
                for level, members in enumerate(self.classes)
                for i in members
            }
            object.__setattr__(self, "_level_of", levels)
        return levels[session]

    def prefix_sessions(self, level: int) -> list[int]:
        """All sessions in classes strictly below ``level`` (``H^{k-1}``)."""
        out: list[int] = []
        for k in range(level):
            out.extend(self.classes[k])
        return out

    def suffix_phi(self, level: int) -> float:
        """``sum_{j not in H^{k-1}} phi_j`` — the weight mass at or above
        ``level``; the denominator of ``psi_i`` in Theorems 11-12."""
        cached = self._suffix_phi.get(level)
        if cached is None:
            prefix = set(self.prefix_sessions(level))
            cached = sum(
                phi for j, phi in enumerate(self.phis) if j not in prefix
            )
            self._suffix_phi[level] = cached
        return cached

    def psi(self, session: int) -> float:
        """``psi_i = phi_i / sum_{j not in H^{k-1}} phi_j`` for session i in H_k."""
        return self.phis[session] / self.suffix_phi(self.level(session))

    def guaranteed_rate(self, session: int) -> float:
        """``g_i = phi_i / sum_j phi_j * r`` — GPS guaranteed clearing rate."""
        return self.phis[session] / sum(self.phis) * self.server_rate

    def class_rho(self, level: int) -> float:
        """Aggregate upper rate ``rho~`` of class ``level``."""
        return sum(self.rhos[i] for i in self.classes[level])

    def class_phi(self, level: int) -> float:
        """Aggregate weight ``phi~`` of class ``level``."""
        return sum(self.phis[i] for i in self.classes[level])


def feasible_partition(
    rhos: Sequence[float],
    phis: Sequence[float],
    *,
    server_rate: float = 1.0,
) -> FeasiblePartition:
    """Build the feasible partition of eqs. (37)-(39).

    ``H_1`` collects every session with ``rho_i / phi_i < r / sum_j
    phi_j``; recursively, ``H_{k+1}`` collects the sessions whose ratio
    is below the residual rate per unit weight once classes
    ``H_1..H_k`` are removed.  Requires ``sum_i rho_i < server_rate``
    (otherwise some stage has no eligible session).
    """
    _check_inputs(rhos, phis, server_rate)
    total_rho = sum(rhos)
    if total_rho >= server_rate:
        raise FeasibleOrderingError(
            f"stability requires sum(rho) < server rate; got {total_rho} "
            f">= {server_rate}"
        )
    remaining = set(range(len(rhos)))
    consumed_rho = 0.0
    classes: list[tuple[int, ...]] = []
    while remaining:
        remaining_phi = sum(phis[j] for j in remaining)
        threshold = (server_rate - consumed_rho) / remaining_phi
        members = sorted(
            i for i in remaining if rhos[i] / phis[i] < threshold
        )
        if not members:
            raise FeasibleOrderingError(
                "feasible partition construction stalled; this cannot "
                "happen when sum(rho) < server rate"
            )
        classes.append(tuple(members))
        consumed_rho += sum(rhos[i] for i in members)
        remaining.difference_update(members)
    return FeasiblePartition(
        classes=tuple(classes),
        rhos=tuple(float(x) for x in rhos),
        phis=tuple(float(x) for x in phis),
        server_rate=float(server_rate),
    )
