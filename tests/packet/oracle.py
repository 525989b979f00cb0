"""A short PGPS/WFQ reference schedule for the packet tests.

:class:`repro.packet.PacketEngine` is the only packet scheduler in the
library; this function is the slow, obviously correct one it is
checked against.  It simulates the fluid reference directly:

* the virtual clock ``V(t)`` advances at ``r / sum_{i in B} phi_i``
  over the GPS-busy set ``B = {i : F_i > V + eps}``, found by a scan,
  until the next arrival or until ``V`` reaches the smallest busy
  finish, whichever comes first;
* arrivals are stamped ``S = max(V, F_prev)``, ``F = S + L / phi_i``
  and the server, whenever it frees, transmits the queued packet with
  the smallest virtual finish;
* each packet's GPS departure is the first time ``V`` reaches its
  virtual finish, by linear scan and interpolation over the recorded
  ``(t, V)`` breakpoints.

The busy weight is a ``math.fsum`` (exactly rounded, so independent
of summation order) and every stamp, crossing and interpolation
expression is the engine's, so the two agree bit for bit.  Packets are
admitted in ``(arrival_time, session)`` order.
"""

from __future__ import annotations

import heapq
import math

from repro.sim.packet import Packet, ScheduledPacket

_EPS = 1e-12


def wfq_schedule(
    rate: float, phis, packets: list[Packet]
) -> list[ScheduledPacket]:
    """Schedule ``packets`` under PGPS; returns them in departure
    order with every stamp filled in."""
    phis = [float(phi) for phi in phis]
    last_finish = [0.0] * len(phis)
    now = virtual = 0.0
    breakpoints = [(0.0, 0.0)]

    def advance(target: float | None) -> None:
        """Run ``V`` to real time ``target`` (``None``: until idle)."""
        nonlocal now, virtual
        while target is None or now < target - _EPS:
            busy = [
                i for i, f in enumerate(last_finish) if f > virtual + _EPS
            ]
            if not busy:
                if target is not None:
                    now = target
                    breakpoints.append((now, virtual))
                return
            slope = rate / math.fsum(phis[i] for i in busy)
            next_finish = min(last_finish[i] for i in busy)
            crossing_dt = (next_finish - virtual) / slope
            if target is None or crossing_dt <= target - now + _EPS:
                now += crossing_dt
                virtual = next_finish
            else:
                virtual += slope * (target - now)
                now = target
            breakpoints.append((now, virtual))

    def gps_finish(value: float) -> float:
        """First real time at which ``V`` reaches ``value``."""
        k = next(
            (k for k, (_, v) in enumerate(breakpoints) if v >= value),
            None,
        )
        if k is None:
            # Within eps above the drained V: the stamp never made
            # its session busy again.
            assert value <= virtual + _EPS
            return breakpoints[-1][0]
        if k == 0:
            return breakpoints[0][0]
        t0, v0 = breakpoints[k - 1]
        t1, v1 = breakpoints[k]
        if v1 <= v0 + _EPS:
            return t1
        return t0 + (value - v0) / (v1 - v0) * (t1 - t0)

    pending = sorted(packets, key=lambda p: (p.arrival_time, p.session))
    ready: list[tuple[float, int, Packet, float]] = []
    sent: list[tuple[Packet, float, float, float, float]] = []
    free_at = 0.0
    index = 0
    while index < len(pending) or ready:
        if not ready:
            free_at = max(free_at, pending[index].arrival_time)
        while (
            index < len(pending)
            and pending[index].arrival_time <= free_at + _EPS
        ):
            packet = pending[index]
            advance(packet.arrival_time)
            i = packet.session
            v_start = max(virtual, last_finish[i])
            last_finish[i] = v_start + packet.size / phis[i]
            heapq.heappush(
                ready, (last_finish[i], index, packet, v_start)
            )
            index += 1
        v_finish, _, packet, v_start = heapq.heappop(ready)
        start = max(free_at, packet.arrival_time)
        free_at = start + packet.size / rate
        sent.append((packet, v_start, v_finish, start, free_at))
    advance(None)
    return [
        ScheduledPacket(
            packet=packet,
            virtual_start=v_start,
            virtual_finish=v_finish,
            pgps_start=start,
            pgps_finish=finish,
            gps_finish=gps_finish(v_finish),
        )
        for packet, v_start, v_finish, start, finish in sent
    ]
