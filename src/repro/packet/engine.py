"""One-pass discrete-event PGPS/WFQ engine.

:class:`PacketEngine` is the library's packet-by-packet GPS
scheduler: a continuous-time virtual clock ``V(t)`` advancing at
``r / sum_{i in B(t)} phi_i`` over the GPS-busy set, per-packet
virtual stamps ``S = max(V(a), F_prev)``, ``F = S + L / phi_i``, a
non-preemptive server that transmits the smallest virtual finish
whenever it frees, and each packet's departure in the fluid reference
(``V`` inverted at ``F``).  It works in a single streaming pass:

* packets are **pushed** one at a time (or pulled from an iterator by
  :meth:`run`); the engine never sorts or materializes the workload;
* completed packets are **emitted** in PGPS departure order, each as a
  ``packet-served`` record through an optional
  :class:`repro.online.records.RecordSink` and as a streaming update
  of the :class:`repro.packet.gap.GapAccumulator`;
* memory is O(packets in system): the ready queue, the in-flight
  record table and the virtual clock's pending-inversion heap all
  shrink as packets depart.

The tests check it against a short reference schedule
(``tests/packet/oracle.py``) with ``np.array_equal`` on every stamp
column: the :class:`repro.packet.vclock.StreamingVirtualClock` uses
the reference's exactly rounded arithmetic, and the transmit loop
interleaves admissions and transmissions in the order the reference
visits them.  Ties (equal arrival times) are broken by push order, so
feed the engine packets sorted by ``(arrival_time, session)`` — the
order :class:`PacketTrace` files are written in — to match the
reference's canonical ordering.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Iterable

from repro.errors import ValidationError
from repro.online.records import RecordSink, as_record_sink
from repro.packet.gap import GapAccumulator, GapReport
from repro.packet.results import PacketSimResult
from repro.packet.trace import PacketTrace
from repro.packet.vclock import StreamingVirtualClock
from repro.sim.packet import Packet, ScheduledPacket
from repro.utils.validation import check_positive, check_weights

__all__ = ["PacketEngine"]

_EPS = 1e-12

# In-flight record slots.
(
    _SESSION,
    _SIZE,
    _ARRIVAL,
    _V_START,
    _V_FINISH,
    _PGPS_START,
    _PGPS_FINISH,
    _GPS_FINISH,
) = range(8)


class PacketEngine:
    """Streaming PGPS/WFQ discrete-event scheduler.

    Parameters
    ----------
    rate:
        Server transmission rate.
    phis:
        GPS weights, one per session.
    sink:
        Optional :class:`~repro.online.records.RecordSink` (or raw
        text stream) receiving one ``packet-served`` record per
        departed packet; ``None`` keeps only the streaming aggregates.
    collect:
        Retain every :class:`~repro.sim.packet.ScheduledPacket` in
        departure order on the result (needed for per-packet and
        per-session views); leave off for large traces.
    """

    def __init__(
        self,
        rate: float,
        phis: Iterable[float],
        *,
        sink: RecordSink | Any | None = None,
        collect: bool = False,
    ) -> None:
        check_positive("rate", rate)
        self._phis = check_weights("phis", list(phis))
        self._rate = float(rate)
        self._clock = StreamingVirtualClock(self._rate, self._phis)
        self._sink: RecordSink | None = (
            None if sink is None else as_record_sink(sink)
        )
        self._collect = bool(collect)
        self._collected: list[ScheduledPacket] = []
        # In-flight packets: admission seq -> mutable record.
        self._recs: dict[int, list[Any]] = {}
        # Transmission queue: (virtual_finish, admission seq).
        self._ready: list[tuple[float, int]] = []
        # Transmitted but not yet emitted (waiting on the GPS finish),
        # in departure order.
        self._departed: deque[int] = deque()
        self._seq = 0
        self._server_free_at = 0.0
        self._last_arrival = 0.0
        self._pushed = 0
        self._emitted = 0
        self._queued_size = 0.0
        self._gap = GapAccumulator(self._rate)
        self._finished = False

    # ------------------------------------------------------------------
    @property
    def rate(self) -> float:
        """Transmission rate."""
        return self._rate

    @property
    def phis(self) -> tuple[float, ...]:
        """The GPS weight vector."""
        return tuple(self._phis)

    @property
    def num_sessions(self) -> int:
        """Number of sessions."""
        return len(self._phis)

    @property
    def packets_pushed(self) -> int:
        """Packets accepted so far."""
        return self._pushed

    @property
    def packets_emitted(self) -> int:
        """Packets fully resolved and emitted so far."""
        return self._emitted

    @property
    def in_flight(self) -> int:
        """Packets admitted but not yet emitted."""
        return self._pushed - self._emitted

    @property
    def last_arrival(self) -> float:
        """Arrival time of the most recent packet."""
        return self._last_arrival

    @property
    def queued_size(self) -> float:
        """Total size of packets awaiting transmission."""
        return self._queued_size

    @property
    def finished(self) -> bool:
        """Whether :meth:`finish` has sealed the stream."""
        return self._finished

    # ------------------------------------------------------------------
    # the streaming hot path
    # ------------------------------------------------------------------
    def push(
        self, session: int, size: float, arrival_time: float
    ) -> tuple[float, float]:
        """Admit one packet; returns its virtual (start, finish).

        Packets must arrive in nondecreasing time order (the engine is
        one-pass); violations raise
        :class:`repro.errors.ValidationError` before any state
        changes.  Transmissions that complete strictly before this
        arrival are finalized first, exactly as the reference
        schedule orders them.
        """
        if self._finished:
            raise ValidationError(
                "push() after finish(): the stream is sealed"
            )
        if not 0 <= session < len(self._phis):
            raise ValidationError(
                f"packet session {session} out of range "
                f"(server has {len(self._phis)} sessions)"
            )
        if not (
            math.isfinite(arrival_time) and arrival_time >= 0.0
        ):
            raise ValidationError(
                f"arrival_time must be finite and >= 0, got "
                f"{arrival_time}"
            )
        if arrival_time < self._last_arrival:
            raise ValidationError(
                f"out-of-order packet: arrival {arrival_time} after "
                f"{self._last_arrival} (the streaming engine needs "
                "nondecreasing arrival times)"
            )
        if not (math.isfinite(size) and size > 0.0):
            raise ValidationError(
                f"size must be finite and > 0, got {size}"
            )
        self._last_arrival = arrival_time
        ready = self._ready
        # The server keeps picking winners while it goes idle before
        # this arrival; when the queue empties the next transmission
        # starts no earlier than the arrival itself.
        while ready and arrival_time > self._server_free_at + _EPS:
            self._transmit()
        if not ready and arrival_time > self._server_free_at:
            self._server_free_at = arrival_time
        clock = self._clock
        clock.advance_to(arrival_time)
        v_start, v_finish = clock.stamp(session, size)
        seq = self._seq
        self._seq = seq + 1
        self._recs[seq] = [
            session,
            size,
            arrival_time,
            v_start,
            v_finish,
            None,
            None,
            None,
        ]
        heapq.heappush(ready, (v_finish, seq))
        clock.register(v_finish, seq)
        self._pushed += 1
        self._queued_size += size
        if clock.resolved:
            self._pump()
        return v_start, v_finish

    def _transmit(self) -> None:
        """Serve the smallest-virtual-finish queued packet."""
        _, seq = heapq.heappop(self._ready)
        rec = self._recs[seq]
        arrival = rec[_ARRIVAL]
        free_at = self._server_free_at
        start = free_at if free_at >= arrival else arrival
        finish = start + rec[_SIZE] / self._rate
        rec[_PGPS_START] = start
        rec[_PGPS_FINISH] = finish
        self._server_free_at = finish
        self._queued_size -= rec[_SIZE]
        self._departed.append(seq)

    def _pump(self) -> None:
        """Apply resolved GPS finishes; emit ready departures in order."""
        resolved = self._clock.resolved
        recs = self._recs
        while resolved:
            seq, gps_finish = resolved.popleft()
            recs[seq][_GPS_FINISH] = gps_finish
        departed = self._departed
        while departed:
            rec = recs[departed[0]]
            if rec[_GPS_FINISH] is None or rec[_PGPS_FINISH] is None:
                break
            self._emit(recs.pop(departed.popleft()))

    def _emit(self, rec: list[Any]) -> None:
        self._emitted += 1
        self._gap.observe(
            rec[_SESSION],
            rec[_SIZE],
            rec[_ARRIVAL],
            rec[_PGPS_FINISH],
            rec[_GPS_FINISH],
        )
        if self._sink is not None:
            self._sink.emit(
                {
                    "kind": "packet-served",
                    "session": rec[_SESSION],
                    "size": rec[_SIZE],
                    "arrival_time": rec[_ARRIVAL],
                    "virtual_start": rec[_V_START],
                    "virtual_finish": rec[_V_FINISH],
                    "pgps_start": rec[_PGPS_START],
                    "pgps_finish": rec[_PGPS_FINISH],
                    "gps_finish": rec[_GPS_FINISH],
                    "gap": rec[_PGPS_FINISH] - rec[_GPS_FINISH],
                }
            )
        if self._collect:
            self._collected.append(
                ScheduledPacket(
                    packet=Packet(
                        session=rec[_SESSION],
                        size=rec[_SIZE],
                        arrival_time=rec[_ARRIVAL],
                    ),
                    virtual_start=rec[_V_START],
                    virtual_finish=rec[_V_FINISH],
                    pgps_start=rec[_PGPS_START],
                    pgps_finish=rec[_PGPS_FINISH],
                    gps_finish=rec[_GPS_FINISH],
                )
            )

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def finish(self) -> PacketSimResult:
        """Seal the stream: transmit the backlog, drain the clock,
        emit every remaining packet, and return the result.

        Idempotent — repeated calls return the same result object.
        """
        if not self._finished:
            while self._ready:
                self._transmit()
            self._clock.drain()
            self._pump()
            self._finished = True
        return self.result()

    def result(self) -> PacketSimResult:
        """The aggregates so far (complete once :meth:`finish` ran)."""
        return PacketSimResult(
            rate=self._rate,
            phis=tuple(self._phis),
            num_packets=self._emitted,
            gap_report=self._gap.report(),
            drained=self._finished,
            packets=(
                tuple(self._collected) if self._collect else None
            ),
        )

    def gap_report(self) -> GapReport:
        """The streaming gap statistics, frozen at this instant."""
        return self._gap.report()

    def run(
        self, packets: Iterable[Packet] | PacketTrace
    ) -> PacketSimResult:
        """Schedule an entire packet iterable and :meth:`finish`."""
        for packet in packets:
            self.push(
                packet.session, packet.size, packet.arrival_time
            )
        return self.finish()

    # ------------------------------------------------------------------
    # snapshot round-trip (the durable-serving contract)
    # ------------------------------------------------------------------
    def export_state(self) -> dict[str, Any]:
        """JSON-serializable state; the restored engine continues the
        stream bit for bit (sink/collect wiring is the caller's)."""
        return {
            "version": 1,
            "rate": self._rate,
            "phis": list(self._phis),
            "clock": self._clock.export_state(),
            "recs": [
                [seq, list(rec)]
                for seq, rec in sorted(self._recs.items())
            ],
            "ready": [list(entry) for entry in self._ready],
            "departed": list(self._departed),
            "seq": self._seq,
            "server_free_at": self._server_free_at,
            "last_arrival": self._last_arrival,
            "pushed": self._pushed,
            "emitted": self._emitted,
            "queued_size": self._queued_size,
            "gap": self._gap.export_state(),
            "finished": self._finished,
        }

    @classmethod
    def from_state(
        cls,
        state: dict[str, Any],
        *,
        sink: RecordSink | Any | None = None,
    ) -> "PacketEngine":
        """Rebuild an engine from :meth:`export_state` output."""
        engine = cls(
            float(state["rate"]), list(state["phis"]), sink=sink
        )
        engine._clock = StreamingVirtualClock.from_state(
            state["clock"]
        )
        engine._recs = {
            int(seq): [
                int(rec[_SESSION]),
                float(rec[_SIZE]),
                float(rec[_ARRIVAL]),
                float(rec[_V_START]),
                float(rec[_V_FINISH]),
                None if rec[_PGPS_START] is None else float(rec[_PGPS_START]),
                None if rec[_PGPS_FINISH] is None else float(rec[_PGPS_FINISH]),
                None if rec[_GPS_FINISH] is None else float(rec[_GPS_FINISH]),
            ]
            for seq, rec in state["recs"]
        }
        engine._ready = [
            (float(v), int(seq)) for v, seq in state["ready"]
        ]
        engine._departed = deque(int(s) for s in state["departed"])
        engine._seq = int(state["seq"])
        engine._server_free_at = float(state["server_free_at"])
        engine._last_arrival = float(state["last_arrival"])
        engine._pushed = int(state["pushed"])
        engine._emitted = int(state["emitted"])
        engine._queued_size = float(state["queued_size"])
        engine._gap = GapAccumulator.from_state(state["gap"])
        engine._finished = bool(state["finished"])
        return engine
