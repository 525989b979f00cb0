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

Each kind's field table, ``FIELDS`` (collected in :data:`EVENT_SCHEMAS`;
docs/ONLINE.md prints it), is checked once per event, whether Python
builds it or :func:`event_from_record` reads it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import IO, Any, ClassVar, Iterable, Iterator, Union

from repro.analysis.admission import QoSTarget
from repro.core.ebb import EBB
from repro.errors import ValidationError
from repro.utils.wire import (
    NAME,
    NONNEGATIVE,
    POSITIVE,
    PROBABILITY,
    Field,
    Rule,
    Schema,
    check_fields,
    read_lines,
    read_record,
    record_of,
    write_lines,
)

__all__ = [
    "CapacityEvent",
    "SessionJoin",
    "Renegotiate",
    "ArrivalEvent",
    "SessionLeave",
    "Event",
    "EVENT_ORDER",
    "EVENT_SCHEMAS",
    "EventQueue",
    "event_to_record",
    "event_from_record",
    "write_event_stream",
    "read_event_stream",
]


_TIME = Field("time", NONNEGATIVE, label="event time")
_NAME = Field("name", NAME, label="session name")
_PHI = Field("phi", POSITIVE)
_EBB_FIELDS = (
    Field("rho", POSITIVE, label="ebb.rho"),
    Field("prefactor", NONNEGATIVE, label="ebb.prefactor"),
    Field("decay_rate", POSITIVE, label="ebb.decay_rate"),
)
_TARGET_FIELDS = (
    Field("d_max", POSITIVE, label="target.d_max"),
    Field("epsilon", PROBABILITY, label="target.epsilon"),
)
_EBB = Field(
    "ebb",
    Rule(
        "an object {rho, prefactor, decay_rate}", lambda v: isinstance(v, EBB)
    ),
    optional=True,
    schema=Schema(_EBB_FIELDS, EBB),
)
_TARGET = Field(
    "target",
    Rule("an object {d_max, epsilon}", lambda v: isinstance(v, QoSTarget)),
    optional=True,
    schema=Schema(_TARGET_FIELDS, QoSTarget),
)


class _Checked:
    """Runs the kind's wire table (``FIELDS``, in dataclass field
    order) on every event, however it is built."""

    FIELDS: ClassVar[tuple[Field, ...]]

    def __post_init__(self) -> None:
        check_fields(self.FIELDS, vars(self).values())

    def to_record(self) -> dict[str, Any]:
        """JSON-serializable record of the event."""
        return {"kind": self.kind, **record_of(self.FIELDS, self)}


@dataclass(frozen=True)
class CapacityEvent(_Checked):
    """Server capacity becomes ``capacity`` from slot ``floor(time)`` on."""

    time: float
    capacity: float
    kind: ClassVar[str] = "capacity"
    FIELDS = (_TIME, Field("capacity", NONNEGATIVE))


@dataclass(frozen=True)
class SessionJoin(_Checked):
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
    FIELDS = (_TIME, _NAME, _PHI, _EBB, _TARGET)


@dataclass(frozen=True)
class Renegotiate(_Checked):
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
    FIELDS = (_TIME, _NAME, replace(_PHI, optional=True), _EBB, _TARGET)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.phi is None and self.ebb is None and self.target is None:
            raise ValidationError(
                "a Renegotiate event must change phi, ebb or target"
            )


@dataclass(frozen=True)
class ArrivalEvent(_Checked):
    """``amount`` units of work arrive for ``session`` in slot ``floor(time)``."""

    time: float
    session: str
    amount: float
    kind: ClassVar[str] = "arrival"
    FIELDS = (
        _TIME,
        Field("session", NAME, label="session name"),
        Field("amount", NONNEGATIVE, label="arrival amount"),
    )


@dataclass(frozen=True)
class SessionLeave(_Checked):
    """Session ``name`` departs; residual backlog is dropped and reported."""

    time: float
    name: str
    kind: ClassVar[str] = "leave"
    FIELDS = (_TIME, _NAME)


Event = Union[
    CapacityEvent, SessionJoin, Renegotiate, ArrivalEvent, SessionLeave
]

_KINDS = (CapacityEvent, SessionJoin, Renegotiate, ArrivalEvent, SessionLeave)

#: Intra-slot application order (see module docstring).
EVENT_ORDER: dict[str, int] = {cls.kind: k for k, cls in enumerate(_KINDS)}

#: The online wire vocabulary: each kind's field table.
EVENT_SCHEMAS: dict[str, Schema] = {
    cls.kind: Schema(cls.FIELDS, cls, build_checks=True) for cls in _KINDS
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
def event_to_record(event: Event) -> dict[str, Any]:
    """The JSON-serializable record of any event."""
    if getattr(event, "kind", None) not in EVENT_SCHEMAS:
        raise ValidationError(
            f"unsupported event type: {type(event).__name__}"
        )
    return event.to_record()


def event_from_record(record: dict[str, Any]) -> Event:
    """Rebuild an event from its :func:`event_to_record` record."""
    return read_record(record, EVENT_SCHEMAS)


def write_event_stream(
    destination: str | IO[str], events: Iterable[Event]
) -> int:
    """Write events as JSON Lines; returns the number written.

    ``destination`` is a path or an open text file.  One record per
    line, in iteration order — the replay order for slot-monotone
    traces (pre-sort or route through :class:`EventQueue` otherwise).
    """
    return write_lines(destination, map(event_to_record, events))


def read_event_stream(source: str | IO[str]) -> Iterator[Event]:
    """Yield events from a JSON Lines trace (path or open text file).

    Blank lines are skipped; malformed lines raise
    :class:`repro.errors.ValidationError` with the line number.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            yield from read_event_stream(handle)
        return
    yield from read_lines(source, EVENT_SCHEMAS)
