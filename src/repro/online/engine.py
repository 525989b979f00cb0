"""Event-driven streaming fluid GPS server.

The offline engines (:mod:`repro.sim.fluid`, :mod:`repro.sim.batch`)
materialize a fixed population over a fixed horizon as full ``(N, T)``
/ ``(B, N, T)`` arrays.  :class:`StreamingGPSServer` is the online
counterpart: it consumes an ordered stream of
:mod:`repro.online.events` — session churn, arrivals, capacity changes
— and keeps only O(active sessions) state (the
:class:`repro.online.session.SessionRegistry` vectors, the admission
context, counters).  Horizons are unbounded; memory does not grow with
time unless per-slot recording is explicitly requested, and the
emitted records are the history.  Idle and capacity-0 gaps close in
one step.

Each slot is served by the *same* water-filling kernel as the offline
engines (``repro.sim.fluid._batch_water_fill`` through the identical
``work = backlog + arrivals`` / ``clip(work - served, 0, None)``
sequence of the batch slot loop), so replaying an event
stream produced by :meth:`repro.scenario.Scenario.to_event_stream`
reproduces the offline backlog/served trajectories *bit for bit* —
``np.array_equal``, not ``allclose`` — which the equivalence suite in
``tests/online/test_engine.py`` asserts.

Slot semantics match the offline convention: arrivals stamped inside
slot ``t`` are available at the start of the slot; the slot is served
when the clock advances past it (an event stamped in a later slot,
:meth:`StreamingGPSServer.advance_to`, or :meth:`~StreamingGPSServer.drain`).
With an :class:`repro.online.admission.AdmissionController` attached,
join/renegotiate events are gated and every decision is emitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.analysis.admission import AdmissionDecision
from repro.errors import AdmissionError, ValidationError
from repro.online.admission import AdmissionController
from repro.online.events import (
    ArrivalEvent,
    CapacityEvent,
    Event,
    Renegotiate,
    SessionJoin,
    SessionLeave,
)
from repro.online.session import SessionRegistry
from repro.sim.fluid import busy_gps_slot_allocation
from repro.utils.validation import check_positive

__all__ = ["StreamingGPSServer", "OnlineResult"]

_EPS = 1e-12

#: Decision details as long as the admitted population: emitted with
#: every decision record, never kept in the engine's decision log.
_EMITTED_ONLY = ("feasible_ordering", "feasible_partition")

#: Engine scalars exported under their attribute names (less the
#: ``_``), with the type they load as.
_SCALARS = {
    "capacity": float, "clock": int, "events_processed": int,
    "accepted": int, "rejected": int, "last_total_backlog": float,
    "max_total_backlog": float, "departed_arrived": float,
    "departed_served": float, "dropped_residual": float,
}

#: The run's history, kept (and exported) only by a recording engine.
_HISTORY = (
    "decisions", "total_backlog_trace", "backlog_snapshots",
    "served_snapshots",
)


def _retained(decision: dict[str, Any]) -> dict[str, Any]:
    """A decision record as the decision log keeps it: verdict, reason,
    violated check and every scalar detail, without the
    :data:`_EMITTED_ONLY` lists."""
    out = dict(decision)
    out["details"] = {
        k: v for k, v in decision["details"].items() if k not in _EMITTED_ONLY
    }
    return out


def _fold_history(state: dict[str, Any]) -> dict[str, float]:
    """The running totals of a snapshot written while every engine kept
    its history: its backlog trace and departed-session records,
    folded in order."""
    last = peak = arrived = served = 0.0
    for total in state["total_backlog_trace"]:
        last = float(total)
        peak = max(peak, last)
    for record in state["registry"]["departed"]:
        arrived += float(record["arrived"])
        served += float(record["served"])
    return {
        "last_total_backlog": last,
        "max_total_backlog": peak,
        "departed_arrived": arrived,
        "departed_served": served,
    }


@dataclass(frozen=True)
class OnlineResult:
    """Summary of one streaming run (the ``repro.sim.results.SimResult``
    protocol).

    Unlike the offline results this holds no traces — only the last
    and largest slot total backlog and the active sessions' stats (a
    departed session's are in its ``leave`` record).  When the engine
    was constructed with ``record_traces=True`` the per-slot total
    backlog, the retained admission decisions and the per-slot
    per-session snapshots are attached too (testing/small runs only;
    they grow with the horizon).
    """

    rate: float
    num_slots: int
    events_processed: int
    event_counts: dict[str, int]
    accepted: int
    rejected: int
    last_total_backlog: float
    max_total_backlog: float
    total_arrived: float
    total_served: float
    dropped_residual: float
    session_stats: dict[str, dict[str, Any]]
    active_sessions: tuple[str, ...]
    peak_active_sessions: int
    drained: bool | None = None
    decisions: tuple[dict[str, Any], ...] | None = None
    total_backlog_trace: np.ndarray | None = field(default=None, repr=False)
    backlog_snapshots: tuple[np.ndarray, ...] | None = field(
        default=None, repr=False
    )
    served_snapshots: tuple[np.ndarray, ...] | None = field(
        default=None, repr=False
    )

    @property
    def num_sessions(self) -> int:
        """Number of sessions active at the end of the run."""
        return len(self.active_sessions)

    def final_total_backlog(self) -> float:
        """System backlog at the end of the run (0.0 before any slot)."""
        return self.last_total_backlog

    def _snapshot_matrix(
        self, snapshots: tuple[np.ndarray, ...] | None, label: str
    ) -> np.ndarray:
        if snapshots is None:
            raise ValidationError(
                f"no per-session {label} snapshots were recorded; "
                "construct the engine with record_traces=True"
            )
        sizes = {snap.size for snap in snapshots}
        if len(sizes) > 1:
            raise ValidationError(
                f"{label} snapshots are ragged (session churn during "
                "the run); per-slot snapshots cannot form a matrix"
            )
        return np.stack(snapshots).T if snapshots else np.zeros((0, 0))

    def backlog_matrix(self) -> np.ndarray:
        """The offline-style ``(N, T)`` backlog trajectory.

        Requires ``record_traces=True`` and a churn-free population;
        compares bit-for-bit with
        :attr:`repro.sim.fluid.GPSSimResult.backlog` on a replayed
        :meth:`~repro.scenario.Scenario.to_event_stream` trace.
        """
        return self._snapshot_matrix(self.backlog_snapshots, "backlog")

    def served_matrix(self) -> np.ndarray:
        """The offline-style ``(N, T)`` service trajectory (see
        :meth:`backlog_matrix`)."""
        return self._snapshot_matrix(self.served_snapshots, "served")

    # ------------------------------------------------------------------
    # unified result protocol (repro.sim.results.SimResult)
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """JSON-serializable scalar summary of the run."""
        return {
            "kind": "online_gps",
            "rate": self.rate,
            "num_slots": self.num_slots,
            "events_processed": self.events_processed,
            "event_counts": dict(self.event_counts),
            "admission_accepted": self.accepted,
            "admission_rejected": self.rejected,
            "num_sessions": self.num_sessions,
            "peak_active_sessions": self.peak_active_sessions,
            "total_arrived": self.total_arrived,
            "total_served": self.total_served,
            "dropped_residual": self.dropped_residual,
            "final_total_backlog": self.last_total_backlog,
            "max_total_backlog": self.max_total_backlog,
            "drained": self.drained,
        }

    def to_dict(self) -> dict[str, Any]:
        """Full JSON-serializable dump: summary plus traces/records."""
        from repro.sim.results import to_jsonable

        payload = self.summary()
        payload["session_stats"] = {
            name: dict(stats)
            for name, stats in self.session_stats.items()
        }
        payload["active_sessions"] = list(self.active_sessions)
        for key in _HISTORY:
            if getattr(self, key) is not None:
                payload[key] = to_jsonable(getattr(self, key))
        return payload


class StreamingGPSServer:
    """Event-driven fluid GPS server with O(active sessions) state.

    Parameters
    ----------
    rate:
        Nominal server capacity per slot (overridable per window by
        :class:`repro.online.events.CapacityEvent`).
    admission:
        Optional :class:`repro.online.admission.AdmissionController`.
        When attached, join/renegotiate events are gated: rejected
        joins never enter the registry, rejected renegotiations keep
        the old contract.  Without it every join is accepted.
    record_traces:
        Keep the run's history (:data:`_HISTORY`) and serve idle gaps
        slot by slot (memory and snapshots grow with the horizon; for
        tests and small runs).

    Events must be fed in non-decreasing slot order (route out-of-order
    streams through :class:`repro.online.events.EventQueue` first).
    """

    def __init__(
        self,
        *,
        rate: float,
        admission: AdmissionController | None = None,
        record_traces: bool = False,
    ) -> None:
        check_positive("rate", rate)
        if admission is not None and admission.rate != float(rate):
            raise ValidationError(
                f"admission controller rate {admission.rate} does not "
                f"match engine rate {float(rate)}"
            )
        self._nominal_rate = float(rate)
        self._capacity = float(rate)
        self._registry = SessionRegistry()
        self._admission = admission
        self._clock = 0
        self._events_processed = 0
        self._event_counts: dict[str, int] = {}
        self._accepted = 0
        self._rejected = 0
        self._last_total_backlog = 0.0
        self._max_total_backlog = 0.0
        self._departed_arrived = 0.0  # summed in leave order
        self._departed_served = 0.0
        self._dropped_residual = 0.0
        self._record_traces = bool(record_traces)
        self._decisions: list[dict[str, Any]] = []
        self._total_backlog_trace: list[float] = []
        self._backlog_snapshots: list[np.ndarray] = []
        self._served_snapshots: list[np.ndarray] = []

    # ------------------------------------------------------------------
    @property
    def clock(self) -> int:
        """The next slot to be served (slots ``0..clock-1`` are closed)."""
        return self._clock

    @property
    def rate(self) -> float:
        """Nominal server capacity per slot."""
        return self._nominal_rate

    @property
    def capacity(self) -> float:
        """Capacity currently in force (differs from :attr:`rate` inside
        a degraded window)."""
        return self._capacity

    @property
    def events_processed(self) -> int:
        """Number of events applied so far."""
        return self._events_processed

    @property
    def num_active(self) -> int:
        """Number of active sessions."""
        return self._registry.num_active

    def has_session(self, name: str) -> bool:
        """Whether ``name`` is an active session (O(1))."""
        return name in self._registry

    @property
    def active_sessions(self) -> tuple[str, ...]:
        """Active session names, in join order."""
        return self._registry.names

    @property
    def admission(self) -> AdmissionController | None:
        """The attached admission controller, if any."""
        return self._admission

    def total_backlog(self) -> float:
        """Current system backlog (excluding the open slot's pending
        arrivals).  O(1) — a cached registry scalar."""
        return self._registry.total_backlog()

    def session_backlog(self, name: str) -> float:
        """Current backlog of one active session."""
        return float(
            self._registry.backlog[self._registry.index_of(name)]
        )

    def unfinished_work(self) -> float:
        """Backlog plus the open slot's pending arrivals (drain target).
        O(1) — cached registry scalars."""
        return (
            self._registry.total_backlog()
            + self._registry.total_pending()
        )

    # ------------------------------------------------------------------
    # slot machinery
    # ------------------------------------------------------------------
    def _serve_slot(self) -> None:
        """Close the current slot: water-fill pending work, advance.

        O(busy), not O(active): only the busy slice is gathered and
        water-filled.  Idle sessions hold exactly zero work, and the
        kernel's sequential reductions are invariant to exact zeros
        (:func:`repro.sim.fluid.busy_gps_slot_allocation`), so the
        gathered allocation is bit-for-bit the dense one — idle
        sessions' φ mass never enters the sharing denominator, exactly
        as eq. 1's work-conserving redistribution prescribes.
        """
        registry = self._registry
        busy = registry.busy_indices()
        if self._record_traces:
            # commit_slot rewrites the busy index buffer in place; the
            # trace block below still needs this slot's gather order.
            busy = busy.copy()
        if busy.size:
            # Mirrors the batch slot loop operation for
            # operation; same kernel, same clip — the bit-for-bit
            # equivalence guarantee rests on this block.
            work = registry.backlog[busy] + registry.pending[busy]
            served = busy_gps_slot_allocation(
                work, registry.phis[busy], self._capacity
            )
            new_backlog = np.clip(work - served, 0.0, None)
            total = registry.commit_slot(busy, new_backlog, served)
        else:
            served = np.zeros(0)
            total = registry.commit_slot(busy, served, served)
        self._last_total_backlog = total
        self._max_total_backlog = max(self._max_total_backlog, total)
        if self._record_traces:
            self._total_backlog_trace.append(total)
            self._backlog_snapshots.append(registry.backlog.copy())
            dense_served = np.zeros(registry.num_active)
            dense_served[busy] = served
            self._served_snapshots.append(dense_served)
        self._clock += 1

    def _idle(self) -> bool:
        """Whether every further slot is a no-op (call right after a
        served slot): nothing is busy, or the capacity is 0 and the
        busy backlog would water-fill to itself."""
        return not self._record_traces and (
            self._registry.num_busy == 0 or self._capacity == 0.0
        )

    def _skip_slots(self, count: int) -> None:
        self._clock += count
        self._registry.skip_slots(count)

    def advance_to(self, slot: int) -> None:
        """Serve every slot up to (excluding) ``slot``.

        After the call, ``clock == slot`` and all arrivals stamped
        before ``slot`` have been offered service.  The rest of a gap
        that turns idle (:meth:`_idle`) closes in one step.
        """
        if slot < self._clock:
            raise ValidationError(
                f"cannot advance to slot {slot}: clock is already at "
                f"{self._clock} (events must be slot-monotone)"
            )
        while self._clock < slot:
            self._serve_slot()
            if self._idle():
                self._skip_slots(slot - self._clock)

    def drain(self, *, max_slots: int = 100_000) -> tuple[int, bool]:
        """Serve empty slots until the system empties (graceful drain).

        Returns ``(slots_used, drained)``; ``drained`` is False when
        ``max_slots`` elapsed with backlog still standing (a capacity-0
        window, for example, which closes in one step).
        """
        check_positive("max_slots", max_slots)
        used = 0
        while used < max_slots:
            if self.unfinished_work() <= _EPS:
                return used, True
            self._serve_slot()
            used += 1
            if self._idle() and self.unfinished_work() > _EPS:
                self._skip_slots(max_slots - used)
                used = max_slots
        return used, self.unfinished_work() <= _EPS

    # ------------------------------------------------------------------
    # event processing
    # ------------------------------------------------------------------
    def process(self, event: Event) -> dict[str, Any]:
        """Apply one event; returns its JSON-serializable outcome record.

        The record always carries ``kind``, ``time``, ``slot``,
        ``clock`` (after any implied slot advance) and
        ``total_backlog``; joins/renegotiations add the admission
        ``decision``, leaves add the dropped ``residual``.
        """
        slot = math.floor(event.time)  # the event checked its time
        # A rejected event changes nothing: look its session up before
        # the clock moves or a counter counts it.
        if isinstance(event, SessionJoin):
            if event.name in self._registry:
                raise AdmissionError(
                    f"session {event.name!r} is already active"
                )
        elif isinstance(event, (Renegotiate, SessionLeave)):
            self._registry.index_of(event.name)
        elif isinstance(event, ArrivalEvent):
            self._registry.index_of(event.session)
        self.advance_to(slot)
        kind = event.kind
        self._events_processed += 1
        self._event_counts[kind] = self._event_counts.get(kind, 0) + 1
        record: dict[str, Any] = {
            "kind": kind,
            "time": event.time,
            "slot": slot,
        }
        if isinstance(event, CapacityEvent):
            self._capacity = float(event.capacity)
            record["capacity"] = self._capacity
        elif isinstance(event, SessionJoin):
            record.update(self._process_join(event, slot))
        elif isinstance(event, Renegotiate):
            record.update(self._process_renegotiate(event))
        elif isinstance(event, ArrivalEvent):
            self._registry.add_arrival(event.session, event.amount)
            record["session"] = event.session
            record["amount"] = event.amount
        elif isinstance(event, SessionLeave):
            record.update(self._process_leave(event))
        else:
            raise ValidationError(
                f"unsupported event type: {type(event).__name__}"
            )
        record["clock"] = self._clock
        record["total_backlog"] = self.total_backlog()
        return record

    def _process_join(
        self, event: SessionJoin, slot: int
    ) -> dict[str, Any]:
        out: dict[str, Any] = {"session": event.name}
        if self._admission is not None:
            decision = self._admission.request_join(
                event.name,
                ebb=event.ebb,
                phi=event.phi,
                target=event.target,
            )
            if not self._log_decision(decision, slot, out):
                return out
        else:
            out["accepted"] = True
            self._accepted += 1
        self._registry.join(
            event.name,
            event.phi,
            ebb=event.ebb,
            target=event.target,
            at=slot,
        )
        return out

    def _process_renegotiate(self, event: Renegotiate) -> dict[str, Any]:
        out: dict[str, Any] = {"session": event.name}
        if self._admission is not None:
            decision = self._admission.request_renegotiate(
                event.name,
                phi=event.phi,
                ebb=event.ebb,
                target=event.target,
            )
            if not self._log_decision(decision, self._clock, out):
                return out
        else:
            out["accepted"] = True
            self._accepted += 1
        self._registry.renegotiate(
            event.name, phi=event.phi, ebb=event.ebb, target=event.target
        )
        return out

    def _log_decision(
        self, decision: AdmissionDecision, slot: int, out: dict[str, Any]
    ) -> bool:
        """Count and log one admission decision; returns its verdict.

        The outcome record carries the full decision; a recording
        engine's retained log keeps it without the population-sized
        diagnostics (:func:`_retained`).
        """
        record = decision.to_record()
        record["slot"] = slot
        if self._record_traces:
            self._decisions.append(_retained(record))
        out["accepted"] = decision.accepted
        out["decision"] = record
        if decision.accepted:
            self._accepted += 1
        else:
            self._rejected += 1
        return decision.accepted

    def _process_leave(self, event: SessionLeave) -> dict[str, Any]:
        info = self._registry.leave(event.name)
        if self._admission is not None and (
            event.name in self._admission.admitted_names
        ):
            self._admission.leave(event.name)
        self._dropped_residual += info.residual
        self._departed_arrived += info.arrived
        self._departed_served += info.served
        return {
            "session": event.name,
            "residual": info.residual,
            "arrived": info.arrived,
            "served": info.served,
        }

    # ------------------------------------------------------------------
    # durable state export/import
    # ------------------------------------------------------------------
    def export_state(self) -> dict[str, Any]:
        """JSON-serializable snapshot of the complete serving state.

        Everything a restart needs to continue the run bit-for-bit:
        the clock/capacity, every counter and running total backing
        :meth:`result`, the registry vectors, and (when attached) the
        admission controller with its
        :class:`repro.analysis.context.AnalysisContext` version
        counters and exact accumulators; a recording engine adds its
        :data:`_HISTORY`.  ``from_state(export_state())`` followed by
        any event sequence produces trajectories ``np.array_equal`` to
        the uninterrupted engine's.
        """
        from repro.sim.results import to_jsonable

        state = {key: getattr(self, f"_{key}") for key in _SCALARS}
        state.update(
            rate=self._nominal_rate,
            event_counts=dict(self._event_counts),
            record_traces=self._record_traces,
            registry=self._registry.export_state(),
            admission=(
                None
                if self._admission is None
                else self._admission.export_state()
            ),
        )
        if self._record_traces:
            history = {key: getattr(self, f"_{key}") for key in _HISTORY}
            state.update(to_jsonable(history))
        return state

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "StreamingGPSServer":
        """Rebuild an engine from an :meth:`export_state` snapshot
        (or an older one that still carries its history)."""
        admission = (
            None
            if state["admission"] is None
            else AdmissionController.from_state(state["admission"])
        )
        out = cls(
            rate=float(state["rate"]),
            admission=admission,
            record_traces=bool(state["record_traces"]),
        )
        out._event_counts = {
            str(k): int(v) for k, v in state["event_counts"].items()
        }
        if "last_total_backlog" not in state:
            state = {**state, **_fold_history(state)}
        for key, kind in _SCALARS.items():
            setattr(out, f"_{key}", kind(state[key]))
        if out._record_traces:
            out._decisions = [_retained(d) for d in state["decisions"]]
            out._total_backlog_trace = [
                float(v) for v in state["total_backlog_trace"]
            ]
            for key in ("backlog_snapshots", "served_snapshots"):
                snaps = [np.asarray(snap, float) for snap in state[key]]
                setattr(out, f"_{key}", snaps)
        out._registry = SessionRegistry.from_state(state["registry"])
        return out

    # ------------------------------------------------------------------
    # whole-stream conveniences
    # ------------------------------------------------------------------
    def replay(
        self,
        events,
        *,
        horizon: int | None = None,
        drain: bool = False,
        max_drain_slots: int = 100_000,
    ) -> OnlineResult:
        """Process an iterable of events, then finish the run.

        ``horizon`` serves every slot up to it after the stream ends
        (matching an offline run of that length); ``drain`` then
        serves further empty slots until the backlog clears.
        """
        for event in events:
            self.process(event)
        drained: bool | None = None
        if horizon is not None:
            self.advance_to(horizon)
        elif not drain:
            # Close the last open slot so stamped arrivals are served.
            if self._registry.total_pending() > _EPS:
                self._serve_slot()
        if drain:
            _, drained = self.drain(max_slots=max_drain_slots)
        return self.result(drained=drained)

    def result(self, *, drained: bool | None = None) -> OnlineResult:
        """Snapshot the run as an :class:`OnlineResult`."""
        registry = self._registry
        history = {
            "decisions": tuple(self._decisions),
            "total_backlog_trace": np.asarray(self._total_backlog_trace),
            "backlog_snapshots": tuple(self._backlog_snapshots),
            "served_snapshots": tuple(self._served_snapshots),
        }
        return OnlineResult(
            rate=self._nominal_rate,
            num_slots=self._clock,
            events_processed=self._events_processed,
            event_counts=dict(self._event_counts),
            accepted=self._accepted,
            rejected=self._rejected,
            last_total_backlog=self._last_total_backlog,
            max_total_backlog=self._max_total_backlog,
            total_arrived=float(registry.arrived.sum())
            + self._departed_arrived,
            total_served=float(registry.served.sum())
            + self._departed_served,
            dropped_residual=self._dropped_residual,
            session_stats=registry.stats(),
            active_sessions=registry.names,
            peak_active_sessions=registry.peak_active,
            drained=drained,
            **(history if self._record_traces else {}),
        )
