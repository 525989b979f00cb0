"""Statistical call admission control on top of the GPS bounds.

The paper motivates its statistical bounds with admission control: a
session asks for the QoS guarantee ``Pr{D >= d_max} <= epsilon`` and
the network must decide whether to accept it.  This module turns the
bound theorems into that decision procedure:

* :class:`QoSTarget` — a (d_max, epsilon) delay requirement;
* :func:`required_rate_for_delay` — the smallest guaranteed rate ``g``
  at which an E.B.B. session meets its target (inverts the Theorem 10 /
  Theorem 15 bound in ``g``);
* :func:`critical_guaranteed_rate` — the float-exact admission
  threshold: the smallest representable rate at which
  :func:`meets_target` flips to ``True`` (the quantity the incremental
  :class:`repro.analysis.context.AnalysisContext` gate caches per
  session);
* :func:`admissible` / :func:`max_admissible_copies` — accept/reject
  decisions for RPPS servers, where admission only requires each
  session's bottleneck share to stay above its required rate;
* :class:`AdmissionDecision` — the typed, JSON-serializable outcome
  record produced by the online controller and the context's
  ``decide_*`` methods.

Everything here is *conservative*: a session admitted by these
procedures provably meets its target (up to the tightness of the
underlying bound), matching the paper's soft-guarantee semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.ebb import EBB
from repro.core.rpps import guaranteed_rate_bounds
from repro.utils.numeric import bisect_root
from repro.utils.validation import check_positive

from repro.errors import AdmissionError, ValidationError

__all__ = [
    "QoSTarget",
    "meets_target",
    "required_rate_for_delay",
    "critical_guaranteed_rate",
    "admissible",
    "max_admissible_copies",
    "AdmissionDecision",
]


@dataclass(frozen=True)
class QoSTarget:
    """The soft delay guarantee ``Pr{D >= d_max} <= epsilon``."""

    d_max: float
    epsilon: float

    def __post_init__(self) -> None:
        check_positive("d_max", self.d_max)
        if not 0.0 < self.epsilon < 1.0:
            raise ValidationError(
                f"epsilon must be in (0, 1), got {self.epsilon}"
            )


def meets_target(
    arrival: EBB,
    guaranteed_rate: float,
    target: QoSTarget,
    *,
    discrete: bool = True,
) -> bool:
    """True if the Theorem 10/15 delay bound meets the target at the
    given guaranteed rate."""
    if guaranteed_rate <= arrival.rho:
        return False
    bounds = guaranteed_rate_bounds(
        "probe", arrival, guaranteed_rate, discrete=discrete
    )
    return bounds.delay.evaluate(target.d_max) <= target.epsilon


def required_rate_for_delay(
    arrival: EBB,
    target: QoSTarget,
    *,
    discrete: bool = True,
    rate_cap: float = 1e6,
    max_iter: int = 200,
) -> float:
    """Smallest guaranteed rate meeting the target, by bisection.

    The Theorem 10 delay bound is monotone in ``g`` (larger rate means
    both a faster decay ``alpha g`` and a smaller prefactor), so the
    admissible set of rates is an interval ``[g*, inf)``; we return
    ``g*``.  The bisection is capped at ``max_iter`` iterations.

    Raises
    ------
    ValidationError
        If even ``rate_cap`` cannot meet the target (an extremely lax
        cap only fails for epsilon below the bound's intrinsic
        prefactor floor).
    NumericalError
        If the bracket ``[rho, rate_cap]`` does not straddle the
        target (inconsistent bound evaluations on non-bracketing
        inputs) or the bisection fails to converge within
        ``max_iter`` iterations — the search never loops unboundedly.
    """
    check_positive("rate_cap", rate_cap)
    check_positive("max_iter", max_iter)
    if meets_target(arrival, arrival.rho * (1.0 + 1e-12), target):
        return arrival.rho
    if not meets_target(arrival, rate_cap, target, discrete=discrete):
        raise ValidationError(
            "target unreachable: even an arbitrarily fast server "
            f"cannot push the bound below epsilon={target.epsilon} "
            "(the prefactor floor exceeds it)"
        )

    def gap(rate: float) -> float:
        bounds = guaranteed_rate_bounds(
            "probe", arrival, rate, discrete=discrete
        )
        return bounds.delay.log_evaluate(target.d_max) - math.log(
            target.epsilon
        )

    lo = arrival.rho * (1.0 + 1e-9)
    return bisect_root(gap, lo, rate_cap, tol=1e-10, max_iter=int(max_iter))


def critical_guaranteed_rate(
    arrival: EBB,
    target: QoSTarget,
    *,
    server_rate: float,
    discrete: bool = True,
) -> float:
    """The float-exact pass threshold of :func:`meets_target`.

    Returns the smallest representable ``g`` in ``(rho, server_rate]``
    with ``meets_target(arrival, g, target) == True``, or ``math.inf``
    when no rate up to ``server_rate`` passes.  The bisection runs on
    the *predicate itself* down to adjacent floats, so for any granted
    rate ``g <= server_rate``,

        ``g >= critical_guaranteed_rate(...)  <=>  meets_target(...)``

    (using the monotonicity of the Theorem 10/15 bound in ``g``).  An
    RPPS share never exceeds the server rate, which is why the search
    interval can stop there; the incremental admission gate compares
    shares against this cached threshold instead of re-evaluating the
    bound.
    """
    check_positive("server_rate", server_rate)
    if not meets_target(arrival, server_rate, target, discrete=discrete):
        return math.inf
    lo = arrival.rho  # meets_target is False at rho by definition
    hi = server_rate
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if meets_target(arrival, mid, target, discrete=discrete):
            hi = mid
        else:
            lo = mid


def admissible(
    arrivals: Sequence[EBB],
    targets: Sequence[QoSTarget],
    server_rate: float,
    *,
    discrete: bool = True,
) -> bool:
    """Accept/reject a session set on an RPPS server.

    Under RPPS each session's guaranteed rate is
    ``g_i = rho_i / sum_j rho_j * r``; the set is admissible when the
    server is stable and every session's ``g_i`` is at least its
    required rate.
    """
    if len(arrivals) != len(targets):
        raise ValidationError("one target per session required")
    check_positive("server_rate", server_rate)
    total_rho = sum(a.rho for a in arrivals)
    if total_rho >= server_rate:
        return False
    for arrival, target in zip(arrivals, targets):
        g = arrival.rho / total_rho * server_rate
        if not meets_target(arrival, g, target, discrete=discrete):
            return False
    return True


def max_admissible_copies(
    arrival: EBB,
    target: QoSTarget,
    server_rate: float,
    *,
    discrete: bool = True,
) -> int:
    """Largest ``n`` such that ``n`` identical sessions are admissible.

    With identical RPPS sessions every copy gets ``g = r / n``, so the
    count is monotone and a linear scan from the stability ceiling down
    is exact (the ceiling ``r / rho`` is small in practice).
    """
    check_positive("server_rate", server_rate)
    ceiling = int(math.floor(server_rate / arrival.rho))
    for n in range(ceiling, 0, -1):
        if n * arrival.rho >= server_rate:
            continue
        g = server_rate / n
        if meets_target(arrival, g, target, discrete=discrete):
            return n
    return 0


@dataclass(frozen=True)
class AdmissionDecision:
    """The typed outcome of one admission request.

    Attributes
    ----------
    accepted:
        Whether the request was admitted (and committed).
    session:
        The requesting session's name.
    action:
        ``"join"`` or ``"renegotiate"``.
    reason:
        One human-readable sentence.
    violated:
        ``None`` when accepted; otherwise which check failed:
        ``"missing_declaration"``, ``"stability"`` or ``"delay_bound"``.
    details:
        JSON-serializable diagnostics: offered load, the feasible
        ordering/partition of the candidate set, the violating
        session's granted rate and bound value, and the joining
        session's Theorem 11 tail-bound evaluation when available.
    """

    accepted: bool
    session: str
    action: str
    reason: str
    violated: str | None = None
    details: dict[str, Any] = field(default_factory=dict)

    def to_record(self) -> dict[str, Any]:
        """JSON-serializable record of the decision."""
        return {
            "accepted": self.accepted,
            "session": self.session,
            "action": self.action,
            "reason": self.reason,
            "violated": self.violated,
            "details": dict(self.details),
        }

    def raise_if_rejected(self) -> "AdmissionDecision":
        """Return self when accepted; raise :class:`AdmissionError` when not."""
        if not self.accepted:
            raise AdmissionError(
                f"admission rejected for session {self.session!r}: "
                f"{self.reason}",
                decision=self,
            )
        return self
