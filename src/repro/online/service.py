"""Long-running ingestion loop around the streaming engine.

:class:`OnlineService` wires a :class:`repro.online.engine.StreamingGPSServer`
to a JSONL transport: it reads event records line by line (a file, a
pipe, or any iterable of strings — ``repro serve`` points it at a path
or stdin), feeds each event to the engine, and writes one decision/
backlog record per event to a sink.  The loop is resilient by default:
a malformed line or a stream-level session error (duplicate join,
unknown leave) produces an ``{"kind": "error", ...}`` record and the
loop keeps going; ``strict=True`` turns those into raised exceptions.

Production ingest protection rides on top of the resilience:

* ``max_errors`` bounds the error budget — an adversarial garbage
  stream can no longer emit error records forever; past the budget the
  service aborts with a typed :class:`repro.errors.OverloadError`
  carrying the error count;
* ``shed_backlog`` / ``shed_resume`` are high/low watermarks on the
  engine backlog — above the high watermark arrival events are *shed*
  (the slot clock still advances, so the server keeps draining) and a
  typed ``{"kind": "shed", ...}`` record is emitted for each, until
  the backlog recedes below the low watermark;
* ``heartbeat_every`` emits a periodic ``{"kind": "heartbeat", ...}``
  health record (clock, backlog, error/shed counters, active
  sessions) so an operator can watch a long-running ingest without
  parsing every per-event record.

Shutdown is graceful: when the stream ends — or the operator interrupts
with Ctrl-C — the service drains the remaining backlog through empty
slots and emits a final ``{"kind": "summary", ...}`` record carrying
the :meth:`repro.online.engine.OnlineResult.summary` payload.  A drain
that hits ``drain_slots`` with backlog still standing emits an
explicit ``{"kind": "drain-truncated", ...}`` record (and flags the
summary) instead of silently under-reporting the residual.
"""

from __future__ import annotations

import json
import math
from json import JSONDecodeError
from typing import IO, Any, Iterable, Sequence

from repro.errors import OverloadError, ReproError, ValidationError
from repro.online.engine import OnlineResult, StreamingGPSServer
from repro.online.events import ArrivalEvent, event_from_record
from repro.online.records import RecordSink, as_record_sink

__all__ = ["BLANK", "OnlineService", "decode_line"]

#: What :func:`decode_line` returns for an empty or whitespace-only line
#: (a heartbeat tick).
BLANK: Any = object()


def decode_line(line: str) -> Any:
    """Decode one raw JSONL line; never raises on malformed input.

    Returns the JSON value of the stripped line, :data:`BLANK` for an
    empty or whitespace-only line, or the
    :class:`json.JSONDecodeError` instance ``json.loads`` raised.  This
    is the single decode of the serving path: the cluster routes on the
    value it returns and hands the same value to the shard's
    :meth:`OnlineService.ingest`, so each line is parsed once.
    """
    stripped = line.strip()
    if not stripped:
        return BLANK
    try:
        return json.loads(stripped)
    except JSONDecodeError as exc:
        return exc


class OnlineService:
    """Drive a streaming engine from a JSONL event feed.

    Parameters
    ----------
    engine:
        The :class:`~repro.online.engine.StreamingGPSServer` to feed.
    sink:
        Destination for per-event output records: a
        :class:`repro.online.records.RecordSink`, an open text file
        (wrapped in a :class:`repro.online.records.JsonlSink`), or
        ``None`` to discard them (the final
        :class:`~repro.online.engine.OnlineResult` is still returned).
    strict:
        Raise on malformed lines / stream-level session errors instead
        of emitting ``error`` records and continuing.
    drain_slots:
        Maximum number of empty slots served during the closing drain.
    max_errors:
        Error budget: after this many error records the service aborts
        with :class:`repro.errors.OverloadError` (``None`` = unbounded,
        the historical behavior).
    heartbeat_every:
        Emit a ``heartbeat`` health record every N ingested lines
        (``None`` disables heartbeats).
    shed_backlog:
        High watermark on the engine backlog; at or above it arrival
        events are shed with typed ``shed`` records until the backlog
        recedes below ``shed_resume`` (``None`` disables shedding).
    shed_resume:
        Low watermark ending a shedding episode; defaults to half of
        ``shed_backlog``.
    """

    def __init__(
        self,
        engine: StreamingGPSServer,
        *,
        sink: RecordSink | IO[str] | None = None,
        strict: bool = False,
        drain_slots: int = 100_000,
        max_errors: int | None = None,
        heartbeat_every: int | None = None,
        shed_backlog: float | None = None,
        shed_resume: float | None = None,
    ) -> None:
        if max_errors is not None and max_errors < 0:
            raise ValidationError(
                f"max_errors must be >= 0, got {max_errors}"
            )
        if heartbeat_every is not None and heartbeat_every < 1:
            raise ValidationError(
                f"heartbeat_every must be >= 1, got {heartbeat_every}"
            )
        if shed_backlog is not None and (
            not math.isfinite(shed_backlog) or shed_backlog <= 0.0
        ):
            raise ValidationError(
                f"shed_backlog must be finite and > 0, got {shed_backlog}"
            )
        if shed_resume is not None:
            if shed_backlog is None:
                raise ValidationError(
                    "shed_resume requires shed_backlog to be set"
                )
            if not 0.0 <= shed_resume <= shed_backlog:
                raise ValidationError(
                    f"shed_resume must lie in [0, shed_backlog], got "
                    f"{shed_resume} with shed_backlog={shed_backlog}"
                )
        self._engine = engine
        self._sink = as_record_sink(sink)
        self._strict = bool(strict)
        self._drain_slots = int(drain_slots)
        self._max_errors = (
            None if max_errors is None else int(max_errors)
        )
        self._heartbeat_every = (
            None if heartbeat_every is None else int(heartbeat_every)
        )
        self._shed_backlog = (
            None if shed_backlog is None else float(shed_backlog)
        )
        self._shed_resume = (
            None
            if shed_backlog is None
            else float(
                shed_resume if shed_resume is not None else shed_backlog / 2.0
            )
        )
        self._errors = 0
        self._shed = 0
        self._heartbeats = 0
        self._shedding = False
        self._lineno = 0
        self._drain_truncated = False

    @property
    def engine(self) -> StreamingGPSServer:
        """The engine being driven."""
        return self._engine

    @property
    def errors(self) -> int:
        """Number of lines that produced error records so far."""
        return self._errors

    @property
    def shed(self) -> int:
        """Number of arrival events shed by overload protection."""
        return self._shed

    @property
    def lineno(self) -> int:
        """Sequence number of the last ingested line."""
        return self._lineno

    def _emit(self, record: dict[str, Any]) -> None:
        self._sink.emit(record)

    def _count_error(self) -> None:
        """Bump the error counter, aborting past the ``max_errors`` budget."""
        self._errors += 1
        if self._max_errors is not None and self._errors > self._max_errors:
            raise OverloadError(
                f"error budget exhausted: {self._errors} error records "
                f"exceed max_errors={self._max_errors}; aborting the "
                "ingest loop (the stream looks adversarial or the "
                "transport is corrupting lines)",
                count=self._errors,
            )

    def _maybe_shed(self, lineno: int, event: Any) -> bool:
        """Apply the backlog-watermark shed policy to one event.

        Only arrival events are ever shed; membership and capacity
        events always apply.  A shed arrival still advances the engine
        clock to the event's slot — the server keeps serving (and
        therefore draining) while refusing new work, which is what
        makes the high/low watermark hysteresis converge.
        """
        if self._shed_backlog is None or not isinstance(event, ArrivalEvent):
            return False
        slot = int(math.floor(event.time))
        if slot > self._engine.clock:
            self._engine.advance_to(slot)
        # Unfinished work (carried backlog plus same-slot pending), not
        # the post-service backlog alone: a burst inside one slot must
        # trip the watermark before the slot is ever served.
        backlog = self._engine.unfinished_work()
        if self._shedding:
            assert self._shed_resume is not None
            if backlog <= self._shed_resume:
                self._shedding = False
        elif backlog >= self._shed_backlog:
            self._shedding = True
        if not self._shedding:
            return False
        self._shed += 1
        self._emit(
            {
                "kind": "shed",
                "line": lineno,
                "session": event.session,
                "amount": event.amount,
                "slot": slot,
                "total_backlog": backlog,
            }
        )
        return True

    def _heartbeat(self, lineno: int) -> None:
        if (
            self._heartbeat_every is None
            or lineno % self._heartbeat_every != 0
        ):
            return
        self._heartbeats += 1
        engine = self._engine
        self._emit(
            {
                "kind": "heartbeat",
                "line": lineno,
                "clock": engine.clock,
                "events_processed": engine.events_processed,
                "total_backlog": engine.unfinished_work(),
                "active_sessions": engine.num_active,
                "errors": self._errors,
                "shed": self._shed,
                "shedding": self._shedding,
            }
        )

    def _parse_event(self, payload: dict[str, Any]) -> Any:
        """Decode one JSON payload into an engine event.

        Subclasses override this to speak other wire vocabularies
        (:class:`repro.packet.serving.PacketOnlineService` dispatches
        packet-trace records here); the surrounding resilience,
        durability and replay machinery is shared untouched.
        """
        return event_from_record(payload)

    def _handle_line(self, lineno: int, line: str, payload: Any) -> None:
        """Apply one line whose :func:`decode_line` value is ``payload``."""
        if payload is BLANK:
            self._heartbeat(lineno)
            return
        if isinstance(payload, JSONDecodeError):
            if self._strict:
                raise ReproError(
                    f"line {lineno} is not valid JSON: {payload}"
                ) from payload
            self._emit(
                {"kind": "error", "line": lineno, "error": str(payload)}
            )
            self._count_error()
            self._heartbeat(lineno)
            return
        try:
            event = self._parse_event(payload)
            if self._maybe_shed(lineno, event):
                self._heartbeat(lineno)
                return
            record = self._engine.process(event)
        except ReproError as exc:
            if self._strict:
                raise
            self._emit(
                {
                    "kind": "error",
                    "line": lineno,
                    "error": str(exc),
                    "error_type": type(exc).__name__,
                }
            )
            self._count_error()
            self._heartbeat(lineno)
            return
        record["line"] = lineno
        self._emit(record)
        self._heartbeat(lineno)

    def ingest(
        self, lines: Iterable[str], decoded: Sequence[Any] | None = None
    ) -> None:
        """Feed a line stream to the engine without draining.

        Line numbering continues from where the previous ingest left
        off, so a service resumed after recovery keeps globally
        consistent sequence numbers.  ``decoded``, when given, holds
        the :func:`decode_line` value of each line (the cluster decodes
        a line once to route it and passes the value on); otherwise
        each line is decoded here.
        """
        for index, line in enumerate(lines):
            self._lineno += 1
            self._handle_line(
                self._lineno,
                line,
                decode_line(line) if decoded is None else decoded[index],
            )

    def serve(self, lines: Iterable[str]) -> OnlineResult:
        """Ingest a line stream until it ends (or Ctrl-C), then drain.

        Returns the final :class:`~repro.online.engine.OnlineResult`;
        its summary is also emitted as the last output record.
        """
        try:
            self.ingest(lines)
        except KeyboardInterrupt:
            # Graceful shutdown: fall through to the drain with
            # whatever has been ingested so far.
            pass
        return self.shutdown()

    def shutdown(self) -> OnlineResult:
        """Drain the engine and emit the final summary record."""
        slots_used, drained = self._engine.drain(
            max_slots=self._drain_slots
        )
        if not drained:
            self._drain_truncated = True
            self._emit(
                {
                    "kind": "drain-truncated",
                    "slots_used": slots_used,
                    "residual_backlog": self._engine.unfinished_work(),
                }
            )
        result = self._engine.result(drained=drained)
        summary = result.summary()
        summary["errors"] = self._errors
        summary["shed"] = self._shed
        summary["heartbeats"] = self._heartbeats
        summary["drain_truncated"] = self._drain_truncated
        summary.update(self._extra_summary())
        self._emit({"kind": "summary", "summary": summary})
        self._sink.flush()
        return result

    def _extra_summary(self) -> dict[str, Any]:
        """Summary fields contributed by subclasses (durable counters)."""
        return {}
