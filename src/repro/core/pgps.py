"""Packetized GPS (PGPS / WFQ) corollaries of the fluid bounds.

The paper analyzes fluid GPS and notes (Sections 2 and 7) that the
extension to the packet-by-packet discipline follows Parekh &
Gallager's coupling results:

* every packet leaves the PGPS system no later than it would leave the
  fluid GPS system plus one maximum packet transmission time,
  ``L_max / r``;
* a session's PGPS backlog exceeds its GPS backlog by at most
  ``L_max``.

These translate any fluid exponential tail bound into a packetized one
by an argument shift: ``Pr{D_pgps >= d} <= Pr{D_gps >= d - L_max/r}``.
This module performs those conversions on
:class:`repro.core.bounds.ExponentialTailBound` objects and on whole
:class:`repro.analysis.single_node.SessionBounds` results.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

from repro.core.bounds import ExponentialTailBound
from repro.analysis.single_node import SessionBounds
from repro.utils.validation import check_positive

from repro.errors import ValidationError

__all__ = [
    "PacketizationPenalty",
    "shift_bound",
    "pgps_delay_bound",
    "pgps_backlog_bound",
    "pgps_session_bounds",
]


@dataclass(frozen=True)
class PacketizationPenalty:
    """The PGPS-vs-GPS coupling constants for one server.

    Attributes
    ----------
    max_packet_size:
        ``L_max``: the largest packet the server may carry.
    rate:
        The server transmission rate ``r``.
    """

    max_packet_size: float
    rate: float

    def __post_init__(self) -> None:
        check_positive("max_packet_size", self.max_packet_size)
        check_positive("rate", self.rate)

    @property
    def delay_shift(self) -> float:
        """``L_max / r``: the worst-case extra departure delay."""
        return self.max_packet_size / self.rate

    @property
    def backlog_shift(self) -> float:
        """``L_max``: the worst-case extra backlog."""
        return self.max_packet_size


def shift_bound(
    bound: ExponentialTailBound, shift: float
) -> ExponentialTailBound:
    """``Pr{X' >= x} <= Pr{X >= x - shift}`` as an exponential bound.

    Shifting the argument multiplies the prefactor by
    ``exp(decay * shift)`` — the bound stays exponential with the same
    decay rate.
    """
    if shift < 0.0:
        raise ValidationError(f"shift must be >= 0, got {shift}")
    return ExponentialTailBound(
        bound.prefactor * math.exp(bound.decay_rate * shift),
        bound.decay_rate,
    )


def pgps_delay_bound(
    gps_delay: ExponentialTailBound, penalty: PacketizationPenalty
) -> ExponentialTailBound:
    """Packetized delay bound from a fluid delay bound."""
    return shift_bound(gps_delay, penalty.delay_shift)


def pgps_backlog_bound(
    gps_backlog: ExponentialTailBound, penalty: PacketizationPenalty
) -> ExponentialTailBound:
    """Packetized backlog bound from a fluid backlog bound."""
    return shift_bound(gps_backlog, penalty.backlog_shift)


def pgps_session_bounds(
    fluid: SessionBounds, penalty: PacketizationPenalty
) -> SessionBounds:
    """Convert a whole fluid :class:`SessionBounds` to PGPS form.

    The output E.B.B. characterization is shifted like the backlog:
    over any interval the PGPS departures can lead the fluid departures
    by at most one packet, adding ``L_max`` of burstiness.
    """
    output = fluid.output
    return SessionBounds(
        session_name=fluid.session_name,
        backlog=pgps_backlog_bound(fluid.backlog, penalty),
        delay=pgps_delay_bound(fluid.delay, penalty),
        output=type(output)(
            output.rho,
            output.prefactor
            * math.exp(output.decay_rate * penalty.backlog_shift),
            output.decay_rate,
        ),
    )
