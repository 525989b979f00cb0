"""PGPS-vs-GPS departure-gap statistics against the ``L_max/r`` bound.

Parekh & Gallager couple the packet system to its fluid reference:
every packet's PGPS departure trails its GPS departure by at most
``L_max / r`` (:class:`repro.core.pgps.PacketizationPenalty`).  The
:class:`GapAccumulator` measures that coupling *streaming* — one
O(1) update per departed packet, per-session max/mean gaps and
delays, no packet retention — and :meth:`GapAccumulator.report`
freezes the measurement into a :class:`GapReport` that names the
observed ``L_max``, the implied bound, and any violations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.pgps import PacketizationPenalty
from repro.utils.validation import check_positive

__all__ = ["GapAccumulator", "GapReport", "SessionGap"]

#: Tolerance on the coupling inequality: the bound is exact in real
#: arithmetic, so only rounding noise may sit above it.
_GAP_TOL = 1e-9

# Per-session accumulator slots (plain lists keep the hot update cheap
# and the snapshot payload trivially JSON-serializable).
_COUNT, _SIZE, _SUM_GAP, _MAX_GAP, _SUM_DELAY, _MAX_DELAY, _VIOL = range(7)


@dataclass(frozen=True)
class SessionGap:
    """One session's PGPS−GPS departure-gap statistics."""

    session: int
    packets: int
    total_size: float
    max_gap: float
    mean_gap: float
    max_delay: float
    mean_delay: float
    violations: int

    def to_record(self) -> dict[str, Any]:
        """JSON-serializable row."""
        return {
            "session": self.session,
            "packets": self.packets,
            "total_size": self.total_size,
            "max_gap": self.max_gap,
            "mean_gap": self.mean_gap,
            "max_delay": self.max_delay,
            "mean_delay": self.mean_delay,
            "violations": self.violations,
        }


@dataclass(frozen=True)
class GapReport:
    """Measured PGPS−GPS departure gaps vs the ``L_max/r`` correction.

    ``bound`` is ``L_max / r`` computed from the *observed* largest
    packet (zero when no packet departed); ``violations`` counts
    packets whose gap exceeded it beyond rounding tolerance — the
    coupling theorem says the count must be zero.
    """

    rate: float
    num_packets: int
    total_size: float
    max_size: float
    bound: float
    max_gap: float
    mean_gap: float
    max_delay: float
    mean_delay: float
    violations: int
    sessions: tuple[SessionGap, ...]

    @property
    def satisfied(self) -> bool:
        """Whether every packet obeyed the coupling bound."""
        return self.violations == 0

    @property
    def slack(self) -> float:
        """``bound - max_gap``: how loose the correction ran."""
        return self.bound - self.max_gap

    def to_record(self) -> dict[str, Any]:
        """JSON-serializable report (the ``gap-report`` record body)."""
        return {
            "kind": "gap-report",
            "rate": self.rate,
            "num_packets": self.num_packets,
            "total_size": self.total_size,
            "max_size": self.max_size,
            "bound": self.bound,
            "max_gap": self.max_gap,
            "mean_gap": self.mean_gap,
            "max_delay": self.max_delay,
            "mean_delay": self.mean_delay,
            "slack": self.slack,
            "violations": self.violations,
            "satisfied": self.satisfied,
            "sessions": [s.to_record() for s in self.sessions],
        }


class GapAccumulator:
    """Streaming per-session gap/delay statistics.

    ``observe`` is called once per departed packet in departure order;
    the accumulation order is part of the serialized state, so a
    recovered service resumes the exact float sums of an uninterrupted
    run.
    """

    __slots__ = ("_rate", "_sessions", "_max_size")

    def __init__(self, rate: float) -> None:
        check_positive("rate", rate)
        self._rate = float(rate)
        self._sessions: dict[int, list[float]] = {}
        self._max_size = 0.0

    @property
    def num_packets(self) -> int:
        """Packets observed so far."""
        return int(
            sum(row[_COUNT] for row in self._sessions.values())
        )

    @property
    def max_size(self) -> float:
        """Largest packet observed so far (the empirical ``L_max``)."""
        return self._max_size

    def observe(
        self,
        session: int,
        size: float,
        arrival_time: float,
        pgps_finish: float,
        gps_finish: float,
    ) -> None:
        """Fold one departed packet into the statistics."""
        gap = pgps_finish - gps_finish
        delay = pgps_finish - arrival_time
        row = self._sessions.get(session)
        if row is None:
            row = [0.0] * 7
            self._sessions[session] = row
        row[_COUNT] += 1.0
        row[_SIZE] += size
        row[_SUM_GAP] += gap
        if gap > row[_MAX_GAP] or row[_COUNT] == 1.0:
            row[_MAX_GAP] = gap
        row[_SUM_DELAY] += delay
        if delay > row[_MAX_DELAY] or row[_COUNT] == 1.0:
            row[_MAX_DELAY] = delay
        if size > self._max_size:
            self._max_size = size
        if gap > self._max_size / self._rate + _GAP_TOL:
            # The running max is the right streaming L_max: any packet
            # that delayed this one started (hence departed) earlier,
            # so it has already been folded into max_size by the time
            # the departure-ordered observe() sees this packet.
            row[_VIOL] += 1.0

    def report(self) -> GapReport:
        """Freeze the statistics into a :class:`GapReport`."""
        sessions = []
        total = 0
        total_size = 0.0
        total_gap = 0.0
        total_delay = 0.0
        max_gap = 0.0
        max_delay = 0.0
        violations = 0
        first = True
        for session in sorted(self._sessions):
            row = self._sessions[session]
            count = int(row[_COUNT])
            sessions.append(
                SessionGap(
                    session=session,
                    packets=count,
                    total_size=row[_SIZE],
                    max_gap=row[_MAX_GAP],
                    mean_gap=row[_SUM_GAP] / count,
                    max_delay=row[_MAX_DELAY],
                    mean_delay=row[_SUM_DELAY] / count,
                    violations=int(row[_VIOL]),
                )
            )
            total += count
            total_size += row[_SIZE]
            total_gap += row[_SUM_GAP]
            total_delay += row[_SUM_DELAY]
            violations += int(row[_VIOL])
            if first or row[_MAX_GAP] > max_gap:
                max_gap = row[_MAX_GAP]
            if first or row[_MAX_DELAY] > max_delay:
                max_delay = row[_MAX_DELAY]
            first = False
        bound = 0.0
        if total:
            bound = PacketizationPenalty(
                max_packet_size=self._max_size, rate=self._rate
            ).delay_shift
        return GapReport(
            rate=self._rate,
            num_packets=total,
            total_size=total_size,
            max_size=self._max_size,
            bound=bound,
            max_gap=max_gap,
            mean_gap=total_gap / total if total else 0.0,
            max_delay=max_delay,
            mean_delay=total_delay / total if total else 0.0,
            violations=violations,
            sessions=tuple(sessions),
        )

    # ------------------------------------------------------------------
    def export_state(self) -> dict[str, Any]:
        """JSON-serializable state (exact float sums preserved)."""
        return {
            "rate": self._rate,
            "max_size": self._max_size,
            "sessions": [
                [session, *row]
                for session, row in sorted(self._sessions.items())
            ],
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "GapAccumulator":
        """Rebuild an accumulator from :meth:`export_state` output."""
        acc = cls(float(state["rate"]))
        acc._max_size = float(state["max_size"])
        for entry in state["sessions"]:
            acc._sessions[int(entry[0])] = [
                float(x) for x in entry[1:]
            ]
        return acc
