"""The packet engine's result object (the ``SimResult`` protocol).

:class:`PacketSimResult` carries the streaming aggregates of one
:class:`repro.packet.engine.PacketEngine` run — packet counts, delay
extremes, the frozen :class:`repro.packet.gap.GapReport` — plus the
full :class:`repro.sim.packet.ScheduledPacket` tuple when the engine
ran with ``collect=True``, which the per-session views
(:meth:`PacketSimResult.session_packets`,
:meth:`PacketSimResult.session_delays`) need.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.errors import ValidationError
from repro.packet.gap import GapReport
from repro.sim.packet import ScheduledPacket

__all__ = ["PacketSimResult"]


@dataclass(frozen=True)
class PacketSimResult:
    """Aggregates of one streaming PGPS/WFQ run."""

    rate: float
    phis: tuple[float, ...]
    num_packets: int
    gap_report: GapReport
    drained: bool = True
    packets: tuple[ScheduledPacket, ...] | None = None

    @property
    def total_size(self) -> float:
        """Total traffic served."""
        return self.gap_report.total_size

    @property
    def max_pgps_delay(self) -> float:
        """Largest packet-system delay."""
        return self.gap_report.max_delay

    @property
    def mean_pgps_delay(self) -> float:
        """Mean packet-system delay."""
        return self.gap_report.mean_delay

    def max_pgps_gps_gap(self) -> float:
        """``max_k (pgps_finish_k - gps_finish_k)``; Parekh & Gallager
        bound this by ``L_max / r``."""
        return self.gap_report.max_gap

    def session_packets(self, session: int) -> list[ScheduledPacket]:
        """Packets of one session, in arrival order (needs a run with
        ``collect=True``)."""
        if self.packets is None:
            raise ValidationError(
                "per-packet views need a PacketEngine run with "
                "collect=True"
            )
        selected = [
            p for p in self.packets if p.packet.session == session
        ]
        selected.sort(key=lambda p: p.packet.arrival_time)
        return selected

    def session_delays(self, session: int) -> np.ndarray:
        """PGPS delays of one session's packets, in arrival order."""
        return np.array(
            [p.pgps_delay for p in self.session_packets(session)]
        )

    def with_drained(self, drained: bool) -> "PacketSimResult":
        """A copy with the ``drained`` flag replaced."""
        return replace(self, drained=bool(drained))

    def summary(self) -> dict[str, Any]:
        """Scalar facts about the run (the ``SimResult`` protocol)."""
        return {
            "kind": "packet_engine",
            "num_packets": self.num_packets,
            "num_sessions": len(self.phis),
            "rate": self.rate,
            "phis": list(self.phis),
            "total_size": self.total_size,
            "mean_pgps_delay": self.mean_pgps_delay,
            "max_pgps_delay": self.max_pgps_delay,
            "max_pgps_gps_gap": self.gap_report.max_gap,
            "gap_bound": self.gap_report.bound,
            "gap_violations": self.gap_report.violations,
            "drained": self.drained,
        }

    def to_dict(self) -> dict[str, Any]:
        """Summary plus the full gap report (and stamps if collected)."""
        payload = self.summary()
        payload["gap_report"] = self.gap_report.to_record()
        if self.packets is not None:
            payload["packets"] = [
                {
                    "session": p.packet.session,
                    "size": p.packet.size,
                    "arrival_time": p.packet.arrival_time,
                    "virtual_start": p.virtual_start,
                    "virtual_finish": p.virtual_finish,
                    "pgps_start": p.pgps_start,
                    "pgps_finish": p.pgps_finish,
                    "gps_finish": p.gps_finish,
                }
                for p in self.packets
            ]
        return payload
