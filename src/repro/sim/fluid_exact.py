"""Exact continuous-time fluid GPS: event-driven, piecewise-linear.

The slotted simulator (:mod:`repro.sim.fluid`) discretizes time; this
engine solves the fluid GPS dynamics *exactly* for inputs that are
piecewise-constant rates plus instantaneous bursts — the input class of
the deterministic analysis (leaky-bucket all-greedy sources emit a
burst ``sigma_i`` and then flow at rate ``rho_i``).

Between events the backlog trajectory is linear: the GPS allocation
depends only on which sessions are backlogged and on the current input
rates, and it changes only when (a) a session's backlog hits zero,
(b) an input breakpoint occurs, or (c) an idle session's input rate
starts exceeding its fair share.  The engine steps from event to event,
yielding exact per-session piecewise-linear backlog curves.

Within an instant, the service rate allocation is the fluid
water-filling fixed point: backlogged sessions demand unbounded rate,
idle sessions demand their input rate; capacity is assigned in weight
proportion with redistribution of unused shares.  That is the slotted
simulator's water-fill with ``inf`` work for backlogged sessions and
the input rate as the work of idle ones, so this engine runs on the
same batch kernel (:func:`repro.sim.fluid.busy_gps_slot_allocation`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.sim.fluid import busy_gps_slot_allocation
from repro.utils.validation import check_positive, check_weights

from repro.errors import ValidationError

__all__ = [
    "RateSegment",
    "FluidTrajectory",
    "simulate_exact_gps",
]

_EPS = 1e-12


@dataclass(frozen=True)
class RateSegment:
    """Input rates from ``start_time`` onward (until the next segment).

    Attributes
    ----------
    start_time:
        When these rates take effect.
    rates:
        Per-session constant input rates.
    bursts:
        Instantaneous per-session traffic injected exactly at
        ``start_time`` (defaults to none).
    """

    start_time: float
    rates: tuple[float, ...]
    bursts: tuple[float, ...] | None = None


@dataclass(frozen=True)
class FluidTrajectory:
    """Exact piecewise-linear backlog curves.

    Attributes
    ----------
    times:
        Event times ``t_0 < t_1 < ...`` (including every input
        breakpoint and every queue-emptying instant).
    backlog:
        ``backlog[k][i]``: session ``i`` backlog at ``times[k]``
        (immediately after any burst at that instant).  Between
        consecutive times the backlog is linear.
    """

    times: np.ndarray
    backlog: np.ndarray

    def backlog_at(self, t: float, session: int) -> float:
        """Exact backlog of one session at an arbitrary time."""
        times = self.times
        if t < times[0] - _EPS:
            return 0.0
        k = int(np.searchsorted(times, t, side="right")) - 1
        k = min(k, times.size - 2) if times.size > 1 else 0
        if times.size == 1 or t >= times[-1]:
            return float(self.backlog[-1, session])
        t0, t1 = times[k], times[k + 1]
        q0, q1 = self.backlog[k, session], self.backlog[k + 1, session]
        if t1 <= t0 + _EPS:
            return float(q1)
        fraction = (t - t0) / (t1 - t0)
        return float(q0 + fraction * (q1 - q0))

    def max_backlog(self, session: int) -> float:
        """Peak backlog of one session (attained at an event time,
        since trajectories are piecewise linear)."""
        return float(self.backlog[:, session].max())


def simulate_exact_gps(
    rate: float,
    phis: Sequence[float],
    segments: Sequence[RateSegment],
    *,
    horizon: float,
) -> FluidTrajectory:
    """Run the exact fluid GPS dynamics up to ``horizon``.

    ``segments`` must be sorted by ``start_time`` with the first at the
    simulation start.  Queues start empty (use a burst in the first
    segment for non-empty starts).
    """
    check_positive("rate", rate)
    phi_arr = np.asarray(check_weights("phis", list(phis)))
    num = phi_arr.size
    if not segments:
        raise ValidationError("need at least one input segment")
    starts = [seg.start_time for seg in segments]
    if starts != sorted(starts):
        raise ValidationError("segments must be sorted by start_time")
    check_positive("horizon", horizon)

    times = [segments[0].start_time]
    q = np.zeros(num)
    if segments[0].bursts is not None:
        q += np.asarray(segments[0].bursts, dtype=float)
    backlog_rows = [q.copy()]
    now = segments[0].start_time
    segment_index = 0

    def current_rates() -> np.ndarray:
        return np.asarray(segments[segment_index].rates, dtype=float)

    max_events = 64 * (num + len(segments)) * max(
        8, int(horizon) + 1
    )
    for _ in range(max_events):
        if now >= horizon - _EPS:
            break
        rates = current_rates()
        backlogged = q > _EPS
        # Promotion fixed point: an idle session whose input rate
        # exceeds its allocation becomes backlogged immediately, which
        # may in turn starve another idle session; iterate (at most N
        # promotions are possible).
        while True:
            allocation = busy_gps_slot_allocation(
                np.where(backlogged, np.inf, rates), phi_arr, rate
            )
            drift = rates - allocation
            promote = (~backlogged) & (drift > _EPS)
            if not promote.any():
                break
            backlogged = backlogged | promote
        # Next queue-emptying event.
        empty_dt = np.inf
        for i in range(num):
            if q[i] > _EPS and drift[i] < -_EPS:
                empty_dt = min(empty_dt, q[i] / (-drift[i]))
        # Next input breakpoint.
        if segment_index + 1 < len(segments):
            breakpoint_dt = segments[segment_index + 1].start_time - now
        else:
            breakpoint_dt = np.inf
        dt = min(empty_dt, breakpoint_dt, horizon - now)
        if dt <= _EPS:
            dt = min(breakpoint_dt, horizon - now)
            if dt <= _EPS:
                break
        q = np.clip(q + drift * dt, 0.0, None)
        now += dt
        if (
            segment_index + 1 < len(segments)
            and abs(now - segments[segment_index + 1].start_time) < 1e-9
        ):
            segment_index += 1
            bursts = segments[segment_index].bursts
            if bursts is not None:
                q += np.asarray(bursts, dtype=float)
        times.append(now)
        backlog_rows.append(q.copy())
    return FluidTrajectory(
        times=np.asarray(times), backlog=np.vstack(backlog_rows)
    )
