"""Packet-level baseline schedulers: SCFQ and Virtual Clock.

Two classic alternatives to WFQ from the same era as the paper, useful
as comparison points for the PGPS results:

* **Self-Clocked Fair Queueing** (Golestani '94): like WFQ but the
  virtual time is read off the tag of the packet *in service* instead
  of simulating the fluid reference — O(1) virtual time at the cost of
  looser fairness bounds.
* **Virtual Clock** (L. Zhang '90): each session has a reserved rate
  ``r_i``; packets are stamped ``VC_i = max(now, VC_i) + L / r_i`` and
  served in stamp order.  Rate guarantees without GPS-style fairness
  (an idle session can be penalized for past overuse).

Both share a tag-ordered non-preemptive engine; results expose
per-packet start/finish times and per-session delays like
:class:`repro.packet.results.PacketSimResult`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.sim.packet import Packet
from repro.utils.validation import check_positive, check_weights

from repro.errors import ValidationError

__all__ = [
    "TaggedPacket",
    "TaggedResult",
    "SCFQServer",
    "VirtualClockServer",
]

_EPS = 1e-12


@dataclass(frozen=True)
class TaggedPacket:
    """A packet scheduled by a tag-ordered server."""

    packet: Packet
    tag: float
    start: float
    finish: float

    @property
    def delay(self) -> float:
        """Queueing plus transmission delay."""
        return self.finish - self.packet.arrival_time


@dataclass(frozen=True)
class TaggedResult:
    """All packets of a tag-ordered simulation, in departure order."""

    packets: tuple[TaggedPacket, ...]
    rate: float

    def session_packets(self, session: int) -> list[TaggedPacket]:
        """One session's packets in arrival order."""
        mine = [p for p in self.packets if p.packet.session == session]
        mine.sort(key=lambda p: p.packet.arrival_time)
        return mine

    def session_delays(self, session: int) -> np.ndarray:
        """One session's per-packet delays."""
        return np.array(
            [p.delay for p in self.session_packets(session)]
        )

    def summary(self) -> dict:
        """Scalar facts about the run (the :class:`SimResult` protocol)."""
        delays = [p.delay for p in self.packets]
        return {
            "kind": "tagged_packet",
            "num_packets": len(self.packets),
            "rate": self.rate,
            "total_size": float(
                sum(p.packet.size for p in self.packets)
            ),
            "mean_delay": float(np.mean(delays)) if delays else 0.0,
            "max_delay": float(max(delays)) if delays else 0.0,
        }

    def to_dict(self) -> dict:
        """Full JSON-serializable dump: summary plus per-packet stamps."""
        payload = self.summary()
        payload["packets"] = [
            {
                "session": p.packet.session,
                "size": p.packet.size,
                "arrival_time": p.packet.arrival_time,
                "tag": p.tag,
                "start": p.start,
                "finish": p.finish,
            }
            for p in self.packets
        ]
        return payload


class _TagOrderedServer:
    """Shared engine: admit arrived packets, stamp them with a
    scheduler-specific tag, transmit in tag order, non-preemptively."""

    def __init__(self, rate: float, num_sessions: int) -> None:
        check_positive("rate", rate)
        self._rate = float(rate)
        self._num_sessions = num_sessions

    @property
    def rate(self) -> float:
        """Transmission rate."""
        return self._rate

    @property
    def num_sessions(self) -> int:
        """Number of sessions."""
        return self._num_sessions

    def _reset(self) -> None:
        raise NotImplementedError

    def _stamp(self, packet: Packet, now: float) -> float:
        raise NotImplementedError

    def _on_service_start(self, tag: float) -> None:
        """Hook called when a packet begins transmission."""

    def _on_idle(self) -> None:
        """Hook called when the server goes idle."""

    def simulate(self, packets: list[Packet]) -> TaggedResult:
        """Schedule all packets; returns stamps in departure order."""
        for packet in packets:
            if packet.session >= self._num_sessions:
                raise ValidationError(
                    f"packet session {packet.session} out of range"
                )
        self._reset()
        pending = sorted(
            packets, key=lambda p: (p.arrival_time, p.session)
        )
        ready: list[tuple[float, int, Packet]] = []
        scheduled: list[TaggedPacket] = []
        sequence = 0
        server_free_at = 0.0
        index = 0
        while index < len(pending) or ready:
            if not ready:
                self._on_idle()
                server_free_at = max(
                    server_free_at, pending[index].arrival_time
                )
            while (
                index < len(pending)
                and pending[index].arrival_time <= server_free_at + _EPS
            ):
                packet = pending[index]
                tag = self._stamp(packet, packet.arrival_time)
                heapq.heappush(ready, (tag, sequence, packet))
                sequence += 1
                index += 1
            tag, _, packet = heapq.heappop(ready)
            start = max(server_free_at, packet.arrival_time)
            self._on_service_start(tag)
            finish = start + packet.size / self._rate
            scheduled.append(
                TaggedPacket(
                    packet=packet, tag=tag, start=start, finish=finish
                )
            )
            server_free_at = finish
        return TaggedResult(
            packets=tuple(scheduled), rate=self._rate
        )


class SCFQServer(_TagOrderedServer):
    """Self-Clocked Fair Queueing.

    The virtual time is the tag of the packet currently in service
    (zero when the system is idle); arriving packets are stamped
    ``max(v, F_prev) + L / phi_i``.
    """

    def __init__(self, rate: float, phis) -> None:
        weights = check_weights("phis", list(phis))
        super().__init__(rate, len(weights))
        self._phis = np.asarray(weights)
        self._reset()

    def _reset(self) -> None:
        self._virtual = 0.0
        self._last_finish = np.zeros(self._num_sessions)

    def _stamp(self, packet: Packet, now: float) -> float:
        del now
        i = packet.session
        start = max(self._virtual, self._last_finish[i])
        finish = start + packet.size / self._phis[i]
        self._last_finish[i] = finish
        return finish

    def _on_service_start(self, tag: float) -> None:
        self._virtual = tag

    def _on_idle(self) -> None:
        self._virtual = 0.0
        self._last_finish[:] = 0.0


class VirtualClockServer(_TagOrderedServer):
    """Virtual Clock scheduling with per-session reserved rates."""

    def __init__(self, rate: float, reserved_rates) -> None:
        reserved = [float(r) for r in reserved_rates]
        for k, r in enumerate(reserved):
            check_positive(f"reserved_rates[{k}]", r)
        if sum(reserved) > rate + 1e-12:
            raise ValidationError(
                f"reserved rates sum to {sum(reserved)} > server rate "
                f"{rate}"
            )
        super().__init__(rate, len(reserved))
        self._reserved = np.asarray(reserved)
        self._reset()

    def _reset(self) -> None:
        self._clocks = np.zeros(self._num_sessions)

    def _stamp(self, packet: Packet, now: float) -> float:
        i = packet.session
        self._clocks[i] = (
            max(now, self._clocks[i])
            + packet.size / self._reserved[i]
        )
        return float(self._clocks[i])
