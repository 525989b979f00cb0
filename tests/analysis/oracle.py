"""A from-scratch admission reference for the analysis tests.

:class:`repro.analysis.AnalysisContext` is the only admission
implementation in the library: it maintains the ratio order, the exact
aggregate rate, per-session critical rates and per-session columns
under membership events.  :class:`ReferenceContext` is the slow,
obviously correct one it is checked against.  It keeps a plain dict of
contracts and rebuilds every answer from the paper's public pure
functions on each call:

* the gate: eq. (4) stability on the exactly rounded total rate, then
  :func:`repro.analysis.meets_target` for each session's RPPS share in
  admission order (condition for condition
  :func:`repro.analysis.admissible`);
* the diagnostics: :func:`repro.analysis.find_feasible_ordering`
  (strict), :func:`repro.analysis.feasible_partition` and
  :func:`repro.analysis.theorem11_family` over a fresh
  :class:`repro.core.gps.GPSConfig`.

Its decisions use the record layout of ``AnalysisContext`` (details
keys, reason strings, error fields), so the two can be compared with
``AdmissionDecision.to_record()`` byte for byte.
"""

from __future__ import annotations

import math
from typing import Any

from repro.analysis import (
    AdmissionDecision,
    FeasibleOrderingError,
    QoSTarget,
    SessionDeclaration,
    feasible_partition,
    find_feasible_ordering,
    meets_target,
    theorem11_family,
)
from repro.core.ebb import EBB
from repro.core.gps import GPSConfig, Session
from repro.core.rpps import guaranteed_rate_bounds
from repro.errors import AdmissionError, ReproError
from repro.online.admission import AdmissionController


class ReferenceContext:
    """The ``AnalysisContext`` surface the tests drive, recomputed from
    scratch on every call."""

    def __init__(self, rate: float, *, discrete: bool = True) -> None:
        self.rate = float(rate)
        self.discrete = discrete
        self._sessions: dict[str, SessionDeclaration] = {}

    # -- membership ----------------------------------------------------
    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, name: object) -> bool:
        return name in self._sessions

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._sessions)

    @property
    def total_rho(self) -> float:
        return math.fsum(d.ebb.rho for d in self._sessions.values())

    def declarations(self) -> list[SessionDeclaration]:
        return list(self._sessions.values())

    def ratio_ordering(self) -> list[str]:
        return sorted(self._sessions, key=lambda n: self._sessions[n].ratio)

    def add(self, name, ebb: EBB, phi: float, target=None) -> None:
        if name in self._sessions:
            raise AdmissionError(f"session {name!r} is already admitted")
        Session(name, ebb, phi)  # the model's validation
        self._sessions[name] = SessionDeclaration(name, ebb, float(phi), target)

    def remove(self, name: str) -> SessionDeclaration:
        return self._sessions.pop(name)

    def update(self, name, *, ebb=None, phi=None, target=None):
        previous = self._sessions[name]
        self.restore(
            SessionDeclaration(
                name,
                ebb if ebb is not None else previous.ebb,
                float(phi) if phi is not None else previous.phi,
                target if target is not None else previous.target,
            )
        )
        return previous

    def restore(self, declaration: SessionDeclaration) -> None:
        Session(declaration.name, declaration.ebb, declaration.phi)
        self._sessions[declaration.name] = declaration

    # -- the gate ------------------------------------------------------
    def gate(self, request_name: str):
        total = self.total_rho
        rate = self.rate
        details: dict[str, Any] = {
            "server_rate": rate,
            "total_rho": total,
            "offered_load": total / rate,
            "num_sessions": len(self._sessions),
        }
        if total >= rate:
            return (
                "stability",
                f"aggregate rate {total:.6g} would reach the server "
                f"rate {rate:.6g} (eq. 4 stability)",
                details,
            )
        for d in self._sessions.values():
            if d.target is None:
                continue
            granted = d.ebb.rho / total * rate
            if meets_target(d.ebb, granted, d.target, discrete=self.discrete):
                continue
            bound = None
            if granted > d.ebb.rho:
                try:
                    bound = float(
                        guaranteed_rate_bounds(
                            d.name, d.ebb, granted, discrete=self.discrete
                        ).delay.evaluate(d.target.d_max)
                    )
                except ReproError:
                    pass
            details.update(
                violating_session=d.name,
                granted_rate=granted,
                d_max=d.target.d_max,
                epsilon=d.target.epsilon,
                bound_probability=bound,
            )
            blame = (
                "its own" if d.name == request_name
                else f"session {d.name!r}'s"
            )
            return (
                "delay_bound",
                f"admitting {request_name!r} would violate {blame} "
                f"Theorem 10 delay target Pr{{D >= {d.target.d_max:g}}} <= "
                f"{d.target.epsilon:g} at RPPS rate {granted:.6g}",
                details,
            )
        return None, "all delay targets met at the RPPS shares", details

    # -- diagnostics ---------------------------------------------------
    def _columns(self):
        decls = self.declarations()
        return (
            [d.name for d in decls],
            [d.ebb.rho for d in decls],
            [d.phi for d in decls],
        )

    def ordering_diagnostics(self) -> dict[str, Any]:
        names, rhos, phis = self._columns()
        try:
            order = find_feasible_ordering(
                rhos, phis, server_rate=self.rate, strict=True
            )
        except FeasibleOrderingError as error:
            return {
                "feasible_ordering": None,
                "feasible_ordering_error": str(error),
            }
        return {"feasible_ordering": [names[i] for i in order]}

    def partition(self):
        _, rhos, phis = self._columns()
        return feasible_partition(rhos, phis, server_rate=self.rate)

    def diagnose(self, request_name: str) -> dict[str, Any]:
        out = self.ordering_diagnostics()
        if out["feasible_ordering"] is None:
            return out
        try:
            partition = self.partition()
        except FeasibleOrderingError as error:
            out["feasible_partition"] = None
            out["feasible_partition_error"] = str(error)
            return out
        names = list(self._sessions)
        index = names.index(request_name)
        out["feasible_partition"] = [
            [names[i] for i in members] for members in partition.classes
        ]
        out["partition_level"] = partition.level(index)
        target = self._sessions[request_name].target
        probability = None
        if target is not None:
            try:
                family = self.theorem11_family(request_name)
                bound = family.optimized_delay(target.d_max)
                probability = float(bound.evaluate(target.d_max))
            except ReproError:
                pass
        out["theorem11_probability"] = probability
        return out

    def theorem11_family(self, name: str, *, xi: float = 1.0):
        config = GPSConfig(
            self.rate,
            [Session(d.name, d.ebb, d.phi) for d in self.declarations()],
        )
        return theorem11_family(
            config,
            config.index_of(name),
            xi=xi,
            partition=self.partition(),
            discrete=self.discrete,
        )

    # -- decisions -----------------------------------------------------
    def _decision(self, action, name, diagnostics) -> AdmissionDecision:
        violated, reason, details = self.gate(name)
        if diagnostics and violated != "stability":
            details.update(self.diagnose(name))
        return AdmissionDecision(
            accepted=violated is None,
            session=name,
            action=action,
            reason=reason,
            violated=violated,
            details=details,
        )

    def _decide(self, action, name, diagnostics, apply) -> AdmissionDecision:
        """Apply a membership change, decide it, and keep it only if
        accepted (a raise keeps nothing either)."""
        before = dict(self._sessions)
        apply()
        decision = None
        try:
            decision = self._decision(action, name, diagnostics)
        finally:
            if decision is None or not decision.accepted:
                self._sessions = before
        return decision

    def decide_join(
        self, name, ebb: EBB, phi: float, target: QoSTarget, *,
        diagnostics: bool = False,
    ) -> AdmissionDecision:
        return self._decide(
            "join", name, diagnostics,
            lambda: self.add(name, ebb, phi, target),
        )

    def decide_update(
        self, name, *, ebb=None, phi=None, target=None,
        diagnostics: bool = False,
    ) -> AdmissionDecision:
        return self._decide(
            "renegotiate", name, diagnostics,
            lambda: self.update(name, ebb=ebb, phi=phi, target=target),
        )


def reference_controller(
    rate: float, *, diagnostics: bool = True
) -> AdmissionController:
    """An :class:`AdmissionController` deciding through
    :class:`ReferenceContext` (its counters and request checks are the
    production ones)."""
    controller = AdmissionController(rate=rate, diagnostics=diagnostics)
    controller._context = ReferenceContext(rate)  # type: ignore[assignment]
    return controller
