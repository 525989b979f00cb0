"""Packetized online serving: PGPS scheduling on the JSONL serving stack.

``repro serve --packet`` reuses the whole online machinery — the
resilient :class:`repro.online.service.OnlineService` loop, its error
budget and heartbeats, the WAL/snapshot durability of
:class:`repro.online.durability.service.DurableOnlineService`, and
``repro recover`` — while swapping the event vocabulary and the engine:

* the wire format is the :mod:`repro.packet.trace` JSONL — one
  ``packet-trace-header`` record configuring the session weights
  followed by ``packet`` records in nondecreasing arrival order;
* the engine is :class:`PacketStreamEngine`, a thin serving adapter
  around :class:`repro.packet.engine.PacketEngine` exposing the
  ``process`` / ``drain`` / ``result`` / ``export_state`` surface the
  service loop and the snapshot store expect.

Each ingested packet produces one ``packet-accepted`` ack record (the
per-line record the service stamps with its sequence number) and, once
its GPS departure resolves, one ``packet-served`` record carrying the
full PGPS/GPS stamps.  Shutdown transmits the backlog, drains the
virtual clock, and emits a ``gap-report`` record followed by the usual
``summary`` — so a crashed-and-recovered ``--packet`` session drains
to the exact gap report of the uninterrupted run (the durability suite
asserts identity on the serialized records).
"""

from __future__ import annotations

import math
from typing import Any

from repro.errors import ValidationError
from repro.online.durability.service import DurableOnlineService
from repro.online.records import RecordSink
from repro.online.service import OnlineService
from repro.packet.engine import PacketEngine
from repro.packet.gap import GapReport
from repro.packet.results import PacketSimResult
from repro.packet.trace import PACKET_SCHEMAS, PacketTraceHeader
from repro.sim.packet import Packet
from repro.utils.validation import check_positive
from repro.utils.wire import read_record

__all__ = [
    "DurablePacketService",
    "PacketOnlineService",
    "PacketStreamEngine",
]

STATE_FORMAT_VERSION = 1


def _empty_report(rate: float) -> GapReport:
    return GapReport(
        rate=rate,
        num_packets=0,
        total_size=0.0,
        max_size=0.0,
        bound=0.0,
        max_gap=0.0,
        mean_gap=0.0,
        max_delay=0.0,
        mean_delay=0.0,
        violations=0,
        sessions=(),
    )


class PacketStreamEngine:
    """Serving adapter: a :class:`~repro.packet.engine.PacketEngine`
    behind the :class:`~repro.online.service.OnlineService` engine
    surface.

    The adapter starts *unconfigured* — the session weight vector
    arrives on the wire as the trace header, so ``process`` builds the
    inner engine on the first ``packet-trace-header`` event.  ``rate``
    may be fixed at construction (``repro serve --rate``), declared by
    the header, or both (cross-checked).
    """

    def __init__(self, rate: float | None = None) -> None:
        if rate is not None:
            check_positive("rate", rate)
        self._rate = None if rate is None else float(rate)
        self._engine: PacketEngine | None = None
        self._header: PacketTraceHeader | None = None
        self._sink: RecordSink | None = None
        self._events = 0

    # ------------------------------------------------------------------
    @property
    def configured(self) -> bool:
        """Whether the trace header has arrived."""
        return self._engine is not None

    @property
    def packet_engine(self) -> PacketEngine | None:
        """The inner engine (``None`` until configured)."""
        return self._engine

    @property
    def rate(self) -> float | None:
        """The transmission rate (``None`` until known)."""
        return self._rate

    @property
    def events_processed(self) -> int:
        """Events applied so far (header + packets)."""
        return self._events

    @property
    def clock(self) -> float:
        """Stream time: the latest packet arrival."""
        return 0.0 if self._engine is None else self._engine.last_arrival

    @property
    def num_active(self) -> int:
        """Packets in the system (admitted, not yet emitted)."""
        return 0 if self._engine is None else self._engine.in_flight

    def unfinished_work(self) -> float:
        """Total size queued for transmission."""
        return 0.0 if self._engine is None else self._engine.queued_size

    # ------------------------------------------------------------------
    def bind_sink(self, sink: RecordSink) -> None:
        """Attach the sink receiving ``packet-served`` records.

        The owning service calls this once at construction (and again
        after recovery) so served-packet records share the service's
        output stream.
        """
        self._sink = sink
        if self._engine is not None:
            self._engine._sink = sink

    def _configure(self, header: PacketTraceHeader) -> dict[str, Any]:
        if self._engine is not None:
            raise ValidationError(
                "duplicate packet-trace-header: the stream is already "
                f"configured with {len(self._header.phis)} sessions"
            )
        rate = self._rate
        if header.rate is not None:
            if rate is not None and not math.isclose(
                rate, header.rate, rel_tol=0.0, abs_tol=0.0
            ):
                raise ValidationError(
                    f"trace header declares rate {header.rate:g} but "
                    f"the server was opened with rate {rate:g}"
                )
            rate = header.rate
        if rate is None:
            raise ValidationError(
                "no transmission rate: pass --rate or declare one in "
                "the packet-trace header"
            )
        self._rate = rate
        self._header = header
        self._engine = PacketEngine(
            rate, header.phis, sink=self._sink
        )
        return {
            "kind": "packet-configured",
            "num_sessions": header.num_sessions,
            "rate": rate,
            "phis": list(header.phis),
        }

    def process(self, event: Any) -> dict[str, Any]:
        """Apply one parsed event; returns the per-line ack record."""
        if isinstance(event, PacketTraceHeader):
            record = self._configure(event)
        elif isinstance(event, Packet):
            if self._engine is None:
                raise ValidationError(
                    "packet before packet-trace-header: the stream "
                    "must open with a header declaring the weights"
                )
            v_start, v_finish = self._engine.push(
                event.session, event.size, event.arrival_time
            )
            record = {
                "kind": "packet-accepted",
                "session": event.session,
                "size": event.size,
                "time": event.arrival_time,
                "virtual_start": v_start,
                "virtual_finish": v_finish,
                "in_flight": self._engine.in_flight,
            }
        else:
            raise ValidationError(
                f"packet serving cannot apply event {event!r}"
            )
        self._events += 1
        return record

    # ------------------------------------------------------------------
    def drain(self, max_slots: int = 0) -> tuple[int, bool]:
        """Seal the stream; the packet drain always completes.

        Transmits the whole backlog, drains the virtual clock (every
        in-flight packet resolves and is emitted), and writes the
        ``gap-report`` record to the bound sink.  ``max_slots`` is the
        slotted engine's knob and is ignored — the packet drain is
        O(backlog), not open-ended.
        """
        if self._engine is not None:
            already = self._engine.finished
            self._engine.finish()
            if not already and self._sink is not None:
                self._sink.emit(self._engine.gap_report().to_record())
        return 0, True

    def result(self, drained: bool = True) -> PacketSimResult:
        """The run's :class:`~repro.packet.results.PacketSimResult`."""
        if self._engine is None:
            rate = self._rate if self._rate is not None else 0.0
            return PacketSimResult(
                rate=rate,
                phis=(),
                num_packets=0,
                gap_report=_empty_report(rate),
                drained=bool(drained),
            )
        return self._engine.result().with_drained(drained)

    # ------------------------------------------------------------------
    # snapshot surface (what the durable snapshot store serializes)
    # ------------------------------------------------------------------
    def export_state(self) -> dict[str, Any]:
        """JSON-serializable adapter state (inner engine included)."""
        return {
            "kind": "packet-stream-engine",
            "version": STATE_FORMAT_VERSION,
            "rate": self._rate,
            "events": self._events,
            "header": (
                None if self._header is None else self._header.to_record()
            ),
            "engine": (
                None if self._engine is None else self._engine.export_state()
            ),
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "PacketStreamEngine":
        """Rebuild an adapter from :meth:`export_state` output."""
        if state.get("kind") != "packet-stream-engine":
            raise ValidationError(
                "snapshot does not hold a packet-stream engine "
                f"(kind={state.get('kind')!r}); was this WAL created "
                "without --packet?"
            )
        if state.get("version") != STATE_FORMAT_VERSION:
            raise ValidationError(
                f"unsupported packet-stream-engine state version "
                f"{state.get('version')!r}"
            )
        rate = state["rate"]
        adapter = cls(rate=None if rate is None else float(rate))
        adapter._events = int(state["events"])
        if state["header"] is not None:
            adapter._header = PacketTraceHeader.from_record(
                state["header"]
            )
        if state["engine"] is not None:
            adapter._engine = PacketEngine.from_state(state["engine"])
        return adapter


class PacketServiceMixin:
    """Swap the serving loop's vocabulary to packet-trace records.

    Mixed in *before* the service base class: overrides
    ``_parse_event`` to decode ``packet`` / ``packet-trace-header``
    lines and binds the service sink into the engine so
    ``packet-served`` records interleave with the per-line acks.  All
    resilience, durability and replay logic is inherited untouched —
    including :meth:`DurableOnlineService.replay`, which re-dispatches
    through this parser.
    """

    def __init__(
        self, engine: PacketStreamEngine, **kwargs: Any
    ) -> None:
        if kwargs.get("shed_backlog") is not None:
            raise ValidationError(
                "packet serving has no slot backlog to shed; "
                "shed_backlog does not apply to --packet"
            )
        super().__init__(engine, **kwargs)
        engine.bind_sink(self._sink)

    def _parse_event(self, payload: dict[str, Any]) -> Any:
        return read_record(payload, PACKET_SCHEMAS)


class PacketOnlineService(PacketServiceMixin, OnlineService):
    """The in-memory packet serving loop (``repro serve --packet``)."""


class DurablePacketService(PacketServiceMixin, DurableOnlineService):
    """Crash-safe packet serving (``repro serve --packet --wal``).

    Construct via ``DurableOnlineService.open(dir, packet=True, ...)``
    (or let ``repro serve --packet --wal DIR`` do it): the ``packet``
    configuration key is persisted in the directory's metadata, so
    ``repro recover`` rebuilds the right service class unprompted.
    """
