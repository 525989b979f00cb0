"""Packet types of the packetized GPS (PGPS / WFQ) discipline.

The paper analyzes the fluid GPS discipline and notes (Sections 2 and
7) that the extension to the packet-by-packet version — PGPS, i.e.
WFQ as introduced by Demers/Keshav/Shenker — "is not difficult".
:class:`repro.packet.engine.PacketEngine` schedules it; this module
holds the input :class:`Packet` and the fully stamped
:class:`ScheduledPacket` it produces, whose ``gps_finish`` (the
departure in the fluid reference) lets tests verify Parekh &
Gallager's coupling result

    pgps_finish_k <= gps_finish_k + L_max / r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ValidationError
from repro.utils.validation import check_positive

__all__ = ["Packet", "ScheduledPacket"]


@dataclass(frozen=True)
class Packet:
    """An input packet: session index, size (service units) and
    arrival time."""

    session: int
    size: float
    arrival_time: float

    def __post_init__(self) -> None:
        if self.session < 0:
            raise ValidationError(f"session must be >= 0, got {self.session}")
        check_positive("size", self.size)
        if self.arrival_time < 0.0 or not math.isfinite(self.arrival_time):
            raise ValidationError(
                f"arrival_time must be finite and >= 0, got "
                f"{self.arrival_time}"
            )


@dataclass(frozen=True)
class ScheduledPacket:
    """A packet with all simulation stamps filled in."""

    packet: Packet
    virtual_start: float
    virtual_finish: float
    pgps_start: float
    pgps_finish: float
    gps_finish: float

    @property
    def pgps_delay(self) -> float:
        """Queueing + transmission delay in the packet system."""
        return self.pgps_finish - self.packet.arrival_time

    @property
    def gps_delay(self) -> float:
        """Departure delay in the fluid reference system."""
        return self.gps_finish - self.packet.arrival_time
