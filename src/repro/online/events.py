"""Event model of the streaming GPS engine.

The online engine consumes a totally ordered stream of five event
kinds, all stamped with a slot-valued ``time``:

* :class:`CapacityEvent` — the server capacity becomes ``capacity``
  from slot ``floor(time)`` onward (fault injection maps
  :class:`repro.faults.RateFault` windows onto pairs of these);
* :class:`SessionJoin` — a session asks to join with weight ``phi``
  and, optionally, an E.B.B. characterization plus a
  :class:`repro.analysis.admission.QoSTarget` for admission control;
* :class:`Renegotiate` — an active session changes its weight and/or
  QoS declaration (re-admitted like a join);
* :class:`ArrivalEvent` — ``amount`` units of work arrive for one
  session inside slot ``floor(time)``;
* :class:`SessionLeave` — a session departs; residual backlog is
  dropped and reported.

Within one slot, events apply in the order capacity < join <
renegotiate < arrival < leave (:data:`EVENT_ORDER`), matching the
offline convention that slot ``t`` arrivals are available at the start
of the slot and the population serving slot ``t`` is the one registered
when the slot closes.  :class:`EventQueue` is a stable binary heap over
``(time, order, sequence)``; the JSONL helpers
(:func:`write_event_stream` / :func:`read_event_stream`) record and
replay traces losslessly — ``json`` floats round-trip exactly, so a
replayed trace reproduces a live run bit for bit.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from typing import IO, Any, ClassVar, Iterable, Iterator, Union

from repro.analysis.admission import QoSTarget
from repro.core.ebb import EBB
from repro.errors import ValidationError
from repro.utils.validation import check_positive

__all__ = [
    "CapacityEvent",
    "SessionJoin",
    "Renegotiate",
    "ArrivalEvent",
    "SessionLeave",
    "Event",
    "EVENT_ORDER",
    "EventQueue",
    "event_to_record",
    "event_from_record",
    "write_event_stream",
    "read_event_stream",
]


def _check_time(time: float) -> None:
    try:
        if math.isfinite(time) and time >= 0.0:
            return
    except (TypeError, OverflowError):
        pass
    raise ValidationError(f"event time must be finite and >= 0, got {time}")


def _check_name(name: str) -> None:
    if not name:
        raise ValidationError("session name must be non-empty")


@dataclass(frozen=True)
class CapacityEvent:
    """Server capacity becomes ``capacity`` from slot ``floor(time)`` on."""

    time: float
    capacity: float
    kind: ClassVar[str] = "capacity"

    def __post_init__(self) -> None:
        _check_time(self.time)
        try:
            if math.isfinite(self.capacity) and self.capacity >= 0.0:
                return
        except (TypeError, OverflowError):
            pass
        raise ValidationError(
            f"capacity must be finite and >= 0, got {self.capacity}"
        )

    def to_record(self) -> dict[str, Any]:
        """JSON-serializable record of the event."""
        return {
            "kind": self.kind,
            "time": self.time,
            "capacity": self.capacity,
        }


@dataclass(frozen=True)
class SessionJoin:
    """A session asks to join with weight ``phi``.

    ``ebb`` and ``target`` carry the session's QoS declaration; both
    are required for the join to pass through an
    :class:`repro.online.admission.AdmissionController` and optional
    on an engine running without admission control.
    """

    time: float
    name: str
    phi: float
    ebb: EBB | None = None
    target: QoSTarget | None = None
    kind: ClassVar[str] = "join"

    def __post_init__(self) -> None:
        _check_time(self.time)
        _check_name(self.name)
        check_positive("phi", self.phi)

    def to_record(self) -> dict[str, Any]:
        """JSON-serializable record of the event."""
        return {
            "kind": self.kind,
            "time": self.time,
            "name": self.name,
            "phi": self.phi,
            "ebb": _ebb_record(self.ebb),
            "target": _target_record(self.target),
        }


@dataclass(frozen=True)
class Renegotiate:
    """An active session changes its weight and/or QoS declaration.

    Unset fields keep their current values; at least one field must be
    set.  Under admission control the *changed* declaration is
    re-evaluated exactly like a join; a rejected renegotiation leaves
    the previous contract in force.
    """

    time: float
    name: str
    phi: float | None = None
    ebb: EBB | None = None
    target: QoSTarget | None = None
    kind: ClassVar[str] = "renegotiate"

    def __post_init__(self) -> None:
        _check_time(self.time)
        _check_name(self.name)
        if self.phi is None and self.ebb is None and self.target is None:
            raise ValidationError(
                "a Renegotiate event must change phi, ebb or target"
            )
        if self.phi is not None:
            check_positive("phi", self.phi)

    def to_record(self) -> dict[str, Any]:
        """JSON-serializable record of the event."""
        return {
            "kind": self.kind,
            "time": self.time,
            "name": self.name,
            "phi": self.phi,
            "ebb": _ebb_record(self.ebb),
            "target": _target_record(self.target),
        }


@dataclass(frozen=True)
class ArrivalEvent:
    """``amount`` units of work arrive for ``session`` in slot ``floor(time)``."""

    time: float
    session: str
    amount: float
    kind: ClassVar[str] = "arrival"

    def __post_init__(self) -> None:
        _check_time(self.time)
        _check_name(self.session)
        try:
            if math.isfinite(self.amount) and self.amount >= 0.0:
                return
        except (TypeError, OverflowError):
            pass
        raise ValidationError(
            f"arrival amount must be finite and >= 0, got {self.amount}"
        )

    def to_record(self) -> dict[str, Any]:
        """JSON-serializable record of the event."""
        return {
            "kind": self.kind,
            "time": self.time,
            "session": self.session,
            "amount": self.amount,
        }


@dataclass(frozen=True)
class SessionLeave:
    """Session ``name`` departs; residual backlog is dropped and reported."""

    time: float
    name: str
    kind: ClassVar[str] = "leave"

    def __post_init__(self) -> None:
        _check_time(self.time)
        _check_name(self.name)

    def to_record(self) -> dict[str, Any]:
        """JSON-serializable record of the event."""
        return {"kind": self.kind, "time": self.time, "name": self.name}


Event = Union[
    CapacityEvent, SessionJoin, Renegotiate, ArrivalEvent, SessionLeave
]

#: Intra-slot application order (see module docstring).
EVENT_ORDER: dict[str, int] = {
    CapacityEvent.kind: 0,
    SessionJoin.kind: 1,
    Renegotiate.kind: 2,
    ArrivalEvent.kind: 3,
    SessionLeave.kind: 4,
}

_EVENT_TYPES: dict[str, type] = {
    cls.kind: cls
    for cls in (
        CapacityEvent,
        SessionJoin,
        Renegotiate,
        ArrivalEvent,
        SessionLeave,
    )
}


class EventQueue:
    """A stable min-heap of events ordered by ``(time, kind order)``.

    Ties on both keys preserve insertion order, so a trace pushed in
    emission order replays deterministically.
    """

    def __init__(self, events: Iterable[Event] = ()) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._sequence = 0
        for event in events:
            self.push(event)

    def push(self, event: Event) -> None:
        """Insert an event."""
        order = EVENT_ORDER.get(getattr(event, "kind", ""), None)
        if order is None:
            raise ValidationError(
                f"unsupported event type: {type(event).__name__}"
            )
        heapq.heappush(
            self._heap, (event.time, order, self._sequence, event)
        )
        self._sequence += 1

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise ValidationError("pop from an empty EventQueue")
        return heapq.heappop(self._heap)[3]

    def peek(self) -> Event:
        """The earliest event, without removing it."""
        if not self._heap:
            raise ValidationError("peek at an empty EventQueue")
        return self._heap[0][3]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __iter__(self) -> Iterator[Event]:
        """Drain the queue in order (consumes it)."""
        while self._heap:
            yield self.pop()


# ----------------------------------------------------------------------
# JSONL record/replay
# ----------------------------------------------------------------------
def _ebb_record(ebb: EBB | None) -> dict[str, float] | None:
    if ebb is None:
        return None
    return {
        "rho": ebb.rho,
        "prefactor": ebb.prefactor,
        "decay_rate": ebb.decay_rate,
    }


def _target_record(target: QoSTarget | None) -> dict[str, float] | None:
    if target is None:
        return None
    return {"d_max": target.d_max, "epsilon": target.epsilon}


def _ebb_from(record: dict[str, float] | None) -> EBB | None:
    if record is None:
        return None
    try:
        rho = record["rho"]
    except TypeError:
        raise ValidationError(
            f"ebb must be a JSON object or null, got {record!r}"
        ) from None
    return EBB(
        rho=rho,
        prefactor=record["prefactor"],
        decay_rate=record["decay_rate"],
    )


def _target_from(record: dict[str, float] | None) -> QoSTarget | None:
    if record is None:
        return None
    try:
        d_max = record["d_max"]
    except TypeError:
        raise ValidationError(
            f"target must be a JSON object or null, got {record!r}"
        ) from None
    return QoSTarget(d_max=d_max, epsilon=record["epsilon"])


def event_to_record(event: Event) -> dict[str, Any]:
    """The JSON-serializable record of any event."""
    if getattr(event, "kind", None) not in _EVENT_TYPES:
        raise ValidationError(
            f"unsupported event type: {type(event).__name__}"
        )
    return event.to_record()


def event_from_record(record: dict[str, Any]) -> Event:
    """Rebuild an event from its :func:`event_to_record` record."""
    if not isinstance(record, dict):
        raise ValidationError(
            f"event record must be a JSON object, got {type(record).__name__}"
        )
    kind = record.get("kind")
    cls = _EVENT_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValidationError(f"unknown event kind: {kind!r}")
    try:
        if cls is CapacityEvent:
            return CapacityEvent(
                time=record["time"], capacity=record["capacity"]
            )
        if cls is SessionJoin:
            return SessionJoin(
                time=record["time"],
                name=record["name"],
                phi=record["phi"],
                ebb=_ebb_from(record.get("ebb")),
                target=_target_from(record.get("target")),
            )
        if cls is Renegotiate:
            return Renegotiate(
                time=record["time"],
                name=record["name"],
                phi=record.get("phi"),
                ebb=_ebb_from(record.get("ebb")),
                target=_target_from(record.get("target")),
            )
        if cls is ArrivalEvent:
            return ArrivalEvent(
                time=record["time"],
                session=record["session"],
                amount=record["amount"],
            )
        return SessionLeave(time=record["time"], name=record["name"])
    except KeyError as exc:
        raise ValidationError(
            f"event record for kind {kind!r} is missing field {exc}"
        ) from None


def write_event_stream(
    destination: str | IO[str], events: Iterable[Event]
) -> int:
    """Write events as JSON Lines; returns the number written.

    ``destination`` is a path or an open text file.  One record per
    line, in iteration order — the replay order for slot-monotone
    traces (pre-sort or route through :class:`EventQueue` otherwise).
    """
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            return write_event_stream(handle, events)
    count = 0
    for event in events:
        destination.write(json.dumps(event_to_record(event)))
        destination.write("\n")
        count += 1
    return count


def read_event_stream(source: str | IO[str]) -> Iterator[Event]:
    """Yield events from a JSON Lines trace (path or open text file).

    Blank lines are skipped; malformed lines raise
    :class:`repro.errors.ValidationError` with the line number.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            yield from read_event_stream(handle)
        return
    for lineno, line in enumerate(source, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            record = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"line {lineno} is not valid JSON: {exc}"
            ) from None
        yield event_from_record(record)
