"""Live E.B.B. admission control for the streaming GPS engine.

The paper motivates its statistical bounds with exactly this use case:
a session arrives declaring an E.B.B. characterization and a
``(d_max, epsilon)`` QoS target, and the server must decide *now*
whether the whole population still meets every target.  The
:class:`AdmissionController` is a thin, counter-keeping façade over a
long-lived :class:`repro.analysis.context.AnalysisContext`, which owns
the admitted declarations and runs the decision machinery:

* the accept/reject *gate* is condition for condition
  :func:`repro.analysis.admission.admissible` (stability, then each
  session's RPPS share against its Theorem 10/15 delay bound).  The
  context answers each request in ``O(log N)``: it patches the ratio
  ordering and the exact aggregate-rate accumulator per membership
  event and compares the common RPPS share multiplier against cached
  per-session critical rates.  The tests check every decision record
  byte for byte against a from-scratch reference
  (``tests/analysis/oracle.py``);
* the *diagnostics* derive the feasible ordering (eq. 4) and the
  feasible partition with the joining session's Theorem 11 tail bound
  (the sharper partition-based bound of Section 5), attached to every
  decision so an operator can see which bound was violated and by how
  much.

Decisions are returned as typed
:class:`repro.analysis.admission.AdmissionDecision` records
(JSON-serializable via ``AdmissionDecision.to_record``) rather than
booleans; a rejected decision can be raised as
:class:`repro.errors.AdmissionError` via
``AdmissionDecision.raise_if_rejected``.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.admission import AdmissionDecision, QoSTarget
from repro.analysis.context import AnalysisContext
from repro.core.ebb import EBB
from repro.errors import AdmissionError, ValidationError
from repro.utils.validation import check_positive

__all__ = ["AdmissionDecision", "AdmissionController"]


class AdmissionController:
    """Stateful call-admission control over one GPS server.

    Parameters
    ----------
    rate:
        The server rate the declarations share.
    discrete:
        Evaluate the discrete-time variants of the bounds (matches the
        slotted simulators); forwarded to
        :func:`repro.analysis.admission.meets_target`.
    diagnostics:
        Attach feasible-ordering / feasible-partition / Theorem 11
        details to every decision.  This costs a few C-level passes
        over the context's columns (the eq. (4) check and the
        partition) plus one Theorem 11 bound optimization per request:
        a decision takes about 0.4-0.5 ms at 1,000 sessions, against
        about 0.1 ms for the gate alone.  Switch off for very large
        populations where only the gate matters.
    """

    def __init__(
        self,
        *,
        rate: float,
        discrete: bool = True,
        diagnostics: bool = True,
    ) -> None:
        check_positive("rate", rate)
        self._context = AnalysisContext(rate, discrete=discrete)
        self._diagnostics = bool(diagnostics)
        self._decisions = 0
        self._accepted = 0

    # ------------------------------------------------------------------
    @property
    def rate(self) -> float:
        """The server rate."""
        return self._context.rate

    @property
    def num_admitted(self) -> int:
        """Number of currently admitted sessions."""
        return len(self._context)

    @property
    def admitted_names(self) -> tuple[str, ...]:
        """Names of the admitted sessions, in admission order."""
        return self._context.names

    @property
    def total_rho(self) -> float:
        """Aggregate declared upper rate of the admitted set."""
        return self._context.total_rho

    @property
    def context(self) -> AnalysisContext:
        """The underlying analysis context (shared bound caches)."""
        return self._context

    def declarations(self) -> list[tuple[str, EBB, float, QoSTarget]]:
        """``(name, ebb, phi, target)`` per admitted session, in order."""
        out: list[tuple[str, EBB, float, QoSTarget]] = []
        for declaration in self._context.declarations():
            assert declaration.target is not None
            out.append(
                (
                    declaration.name,
                    declaration.ebb,
                    declaration.phi,
                    declaration.target,
                )
            )
        return out

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    def _record(self, decision: AdmissionDecision) -> AdmissionDecision:
        self._decisions += 1
        if decision.accepted:
            self._accepted += 1
        return decision

    def _missing(
        self, action: str, name: str, ebb: EBB | None, target: QoSTarget | None
    ) -> AdmissionDecision:
        missing = [
            label
            for label, value in (("ebb", ebb), ("target", target))
            if value is None
        ]
        return self._record(
            AdmissionDecision(
                accepted=False,
                session=name,
                action=action,
                reason=(
                    "admission control requires an E.B.B. characterization "
                    f"and a QoS target; missing: {', '.join(missing)}"
                ),
                violated="missing_declaration",
            )
        )

    def request_join(
        self,
        name: str,
        *,
        ebb: EBB | None,
        phi: float,
        target: QoSTarget | None,
    ) -> AdmissionDecision:
        """Decide a join request; commits the session when accepted."""
        if not name:
            raise ValidationError("session name must be non-empty")
        if name in self._context:
            raise AdmissionError(
                f"session {name!r} is already admitted"
            )
        check_positive("phi", phi)
        if ebb is None or target is None:
            return self._missing("join", name, ebb, target)
        return self._record(
            self._context.decide_join(
                name,
                ebb,
                float(phi),
                target,
                diagnostics=self._diagnostics,
            )
        )

    def request_renegotiate(
        self,
        name: str,
        *,
        phi: float | None = None,
        ebb: EBB | None = None,
        target: QoSTarget | None = None,
    ) -> AdmissionDecision:
        """Decide a renegotiation; commits the new contract when accepted.

        Unset fields keep the session's current declaration.  A
        rejected renegotiation leaves the previous contract in force.
        """
        if name not in self._context:
            raise AdmissionError(
                f"cannot renegotiate unknown session {name!r}"
            )
        return self._record(
            self._context.decide_update(
                name,
                ebb=ebb,
                phi=float(phi) if phi is not None else None,
                target=target,
                diagnostics=self._diagnostics,
            )
        )

    def leave(self, name: str) -> None:
        """Forget a departed session (frees its rate for future joins)."""
        self._context.remove(name)

    # ------------------------------------------------------------------
    # durable state export/import
    # ------------------------------------------------------------------
    def export_state(self) -> dict[str, Any]:
        """JSON-serializable snapshot of the controller + its context."""
        return {
            "diagnostics": self._diagnostics,
            "decisions": self._decisions,
            "accepted": self._accepted,
            "context": self._context.export_state(),
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "AdmissionController":
        """Rebuild a controller from an :meth:`export_state` snapshot.

        The restored controller issues byte-identical decisions: the
        context import preserves the exact aggregate-rate partials,
        the cached per-session critical rates, and the version
        counters its caches are keyed on.
        """
        out = cls.__new__(cls)
        out._context = AnalysisContext.from_state(state["context"])
        out._diagnostics = bool(state["diagnostics"])
        out._decisions = int(state["decisions"])
        out._accepted = int(state["accepted"])
        return out

    def summary(self) -> dict[str, Any]:
        """JSON-serializable snapshot of the controller state."""
        return {
            "kind": "admission_controller",
            "server_rate": self.rate,
            "num_admitted": self.num_admitted,
            "total_rho": self.total_rho,
            "offered_load": self.total_rho / self.rate,
            "decisions": self._decisions,
            "accepted": self._accepted,
            "rejected": self._decisions - self._accepted,
        }
