"""Streaming GPS virtual clock with online finish-time inversion.

The virtual clock of PGPS/WFQ advances at rate
``r / sum_{i in B(t)} phi_i`` over the GPS-busy set ``B(t)`` and is
piecewise linear between *breakpoints* (busy-set changes and arrival
instants).  The short reference schedule the tests check it against
(``tests/packet/oracle.py``) rescans the busy set at every step, pays
an O(busy) exactly-rounded φ sum per slope change, records every
breakpoint, and inverts virtual finish values by a scan over them.

:class:`StreamingVirtualClock` computes the *same* trajectory in
O(log busy) amortized per event and O(busy + pending) memory:

* the busy-φ mass lives in a :class:`repro.analysis.incremental.ExactSum`
  (Shewchuk partials) whose value is the correctly-rounded sum of the
  live multiset — bit-identical to the ``math.fsum`` the reference
  clock computes over a gathered slice, regardless of add/remove
  history;
* the next busy departure comes from a lazy-deletion min-heap of
  ``(virtual_finish, session)`` entries — an entry is live while it
  matches the session's current last finish and the session is still
  busy;
* inversion is *streaming*: a query ``w`` registered via
  :meth:`register` resolves at the first appended breakpoint whose
  virtual value reaches ``w``, interpolating inside the segment with
  the reference formula.  Queries equal to the current virtual value
  resolve against the start of the current equal-value plateau —
  exactly the first-breakpoint-reaching-the-query semantics of the
  reference scan — so no breakpoint history is retained at all.

Every floating-point expression matches the reference operation for
operation; the equivalence fuzz suite asserts ``np.array_equal`` on
all stamps across both.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any

from repro.analysis.incremental import ExactSum
from repro.errors import NumericalError

__all__ = ["StreamingVirtualClock"]

_EPS = 1e-12


def _segment_time(
    t0: float, v0: float, t1: float, v1: float, w: float
) -> float:
    """First real time ``V`` reaches ``w`` inside one linear segment.

    The expression mirrors the reference schedule's inversion
    exactly (flat-segment guard included) so resolved times are
    bit-identical to it.
    """
    if v1 <= v0 + _EPS:
        return t1
    fraction = (w - v0) / (v1 - v0)
    return t0 + fraction * (t1 - t0)


class StreamingVirtualClock:
    """O(log busy) virtual clock over a fixed weight vector.

    Parameters
    ----------
    rate:
        Server transmission rate ``r``.
    phis:
        GPS weights (already validated by the caller).

    Resolved inversion queries accumulate in :attr:`resolved` as
    ``(token, gps_finish)`` pairs; the engine drains that deque after
    every advance.
    """

    __slots__ = (
        "_rate",
        "_phis",
        "_time",
        "_virtual",
        "_last_finish",
        "_in_busy",
        "_busy_heap",
        "_busy_count",
        "_phi_sum",
        "_phi_sum_value",
        "_prev_t",
        "_prev_v",
        "_plateau_t",
        "_plateau_v",
        "_plateau_prev",
        "_pending",
        "_pending_seq",
        "resolved",
    )

    def __init__(self, rate: float, phis: list[float]) -> None:
        self._rate = float(rate)
        self._phis = [float(p) for p in phis]
        n = len(self._phis)
        self._time = 0.0
        self._virtual = 0.0
        self._last_finish = [0.0] * n
        self._in_busy = [False] * n
        # Lazy-deletion heap of (virtual_finish, session); an entry is
        # live iff the session is busy and the finish is its current
        # last finish.
        self._busy_heap: list[tuple[float, int]] = []
        self._busy_count = 0
        self._phi_sum = ExactSum()
        self._phi_sum_value = 0.0
        # Latest appended breakpoint (the initial one is (0, 0)).
        self._prev_t = 0.0
        self._prev_v = 0.0
        # The current plateau: the maximal trailing run of breakpoints
        # sharing the current virtual value, plus the breakpoint just
        # before it (None while the plateau starts at the origin).
        self._plateau_t = 0.0
        self._plateau_v = 0.0
        self._plateau_prev: tuple[float, float] | None = None
        # Pending inversion queries: (virtual_finish, seq, token).
        self._pending: list[tuple[float, int, Any]] = []
        self._pending_seq = 0
        self.resolved: deque[tuple[Any, float]] = deque()

    # ------------------------------------------------------------------
    @property
    def time(self) -> float:
        """Current real time."""
        return self._time

    @property
    def virtual_now(self) -> float:
        """Current virtual time ``V``."""
        return self._virtual

    @property
    def busy_count(self) -> int:
        """Number of GPS-busy sessions."""
        return self._busy_count

    @property
    def pending_count(self) -> int:
        """Number of unresolved inversion queries."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # busy-set maintenance
    # ------------------------------------------------------------------
    def _settle(self, session: int) -> None:
        self._in_busy[session] = False
        self._busy_count -= 1
        self._phi_sum.remove(self._phis[session])
        self._phi_sum_value = self._phi_sum.value

    def _peek_next_finish(self) -> float:
        """Smallest live busy finish (the heap top after pruning)."""
        heap = self._busy_heap
        in_busy = self._in_busy
        last = self._last_finish
        while heap:
            finish, session = heap[0]
            if in_busy[session] and finish == last[session]:
                return finish
            heapq.heappop(heap)
        raise NumericalError(
            "busy heap is empty while busy_count > 0 — the busy-set "
            "bookkeeping desynchronized"
        )

    def _drop_settled(self) -> None:
        """Evict busy sessions whose last finish ``V`` has crossed."""
        threshold = self._virtual + _EPS
        heap = self._busy_heap
        in_busy = self._in_busy
        last = self._last_finish
        while heap:
            finish, session = heap[0]
            if not in_busy[session] or finish != last[session]:
                heapq.heappop(heap)
                continue
            if finish <= threshold:
                heapq.heappop(heap)
                self._settle(session)
                continue
            break

    # ------------------------------------------------------------------
    # breakpoints and inversion
    # ------------------------------------------------------------------
    def _append_breakpoint(self, t: float, v: float) -> None:
        prev_t = self._prev_t
        prev_v = self._prev_v
        pending = self._pending
        resolved = self.resolved
        while pending and pending[0][0] <= v:
            w, _, token = heapq.heappop(pending)
            resolved.append(
                (token, _segment_time(prev_t, prev_v, t, v, w))
            )
        if v != self._plateau_v:
            self._plateau_prev = (prev_t, prev_v)
            self._plateau_t = t
            self._plateau_v = v
        self._prev_t = t
        self._prev_v = v

    def register(self, w: float, token: Any) -> None:
        """Queue an inversion query for virtual value ``w``.

        ``(token, real_time)`` lands in :attr:`resolved` once the
        clock establishes the first real time ``V`` reaches ``w`` —
        immediately when ``w`` is already covered, otherwise at the
        breakpoint that crosses it.
        """
        if w <= self._virtual:
            # Already reached: resolve at the start of the current
            # plateau — the first breakpoint with this virtual value,
            # matching bisect_left first-occurrence semantics.
            if self._plateau_prev is None:
                self.resolved.append((token, self._plateau_t))
            else:
                t0, v0 = self._plateau_prev
                self.resolved.append(
                    (
                        token,
                        _segment_time(
                            t0, v0, self._plateau_t, self._plateau_v, w
                        ),
                    )
                )
            return
        self._pending_seq += 1
        heapq.heappush(self._pending, (w, self._pending_seq, token))

    # ------------------------------------------------------------------
    # the reference trajectory, streamed
    # ------------------------------------------------------------------
    def advance_to(self, target_time: float) -> None:
        """Advance real time to ``target_time``, updating ``V``.

        Arithmetic is expression-for-expression the reference clock's
        ``advance_to``; only the busy-set bookkeeping differs.
        """
        while self._time < target_time - _EPS:
            if self._busy_count == 0:
                self._time = target_time
                self._append_breakpoint(target_time, self._virtual)
                return
            slope = self._rate / self._phi_sum_value
            next_finish = self._peek_next_finish()
            crossing_dt = (next_finish - self._virtual) / slope
            remaining = target_time - self._time
            if crossing_dt <= remaining + _EPS:
                self._time += crossing_dt
                self._virtual = next_finish
            else:
                self._time = target_time
                self._virtual += slope * remaining
            self._drop_settled()
            self._append_breakpoint(self._time, self._virtual)

    def stamp(self, session: int, size: float) -> tuple[float, float]:
        """Assign virtual start/finish stamps to an arriving packet.

        The clock must already be advanced to the arrival time.
        """
        last = self._last_finish
        virtual = self._virtual
        prev_finish = last[session]
        start = virtual if virtual >= prev_finish else prev_finish
        finish = start + size / self._phis[session]
        last[session] = finish
        if finish > virtual + _EPS:
            if not self._in_busy[session]:
                self._in_busy[session] = True
                self._busy_count += 1
                self._phi_sum.add(self._phis[session])
                self._phi_sum_value = self._phi_sum.value
            heapq.heappush(self._busy_heap, (finish, session))
        return start, finish

    def drain(self) -> None:
        """Run ``V`` to the last busy finish and resolve every query.

        Mirrors the reference ``drain``; afterwards any still-pending
        query must sit within ``eps`` of the final virtual value (a
        stamp that never re-entered the busy set) and resolves to the
        final breakpoint, as the reference inversion does.
        """
        while self._busy_count:
            slope = self._rate / self._phi_sum_value
            next_finish = self._peek_next_finish()
            self._time += (next_finish - self._virtual) / slope
            self._virtual = next_finish
            self._drop_settled()
            self._append_breakpoint(self._time, self._virtual)
        pending = self._pending
        while pending:
            w, _, token = heapq.heappop(pending)
            if w <= self._virtual + _EPS:
                self.resolved.append((token, self._prev_t))
            else:
                raise NumericalError(
                    f"virtual value {w} unreachable after drain "
                    f"(final V={self._virtual}) — a stamp exceeded "
                    "every busy finish"
                )

    # ------------------------------------------------------------------
    # snapshot round-trip
    # ------------------------------------------------------------------
    def export_state(self) -> dict[str, Any]:
        """JSON-serializable state; restoring reproduces the clock bit
        for bit (including the exact-φ partials)."""
        return {
            "rate": self._rate,
            "phis": list(self._phis),
            "time": self._time,
            "virtual": self._virtual,
            "last_finish": list(self._last_finish),
            "in_busy": list(self._in_busy),
            "busy_heap": [list(entry) for entry in self._busy_heap],
            "busy_count": self._busy_count,
            "phi_partials": list(self._phi_sum.partials),
            "prev": [self._prev_t, self._prev_v],
            "plateau": [self._plateau_t, self._plateau_v],
            "plateau_prev": (
                None
                if self._plateau_prev is None
                else list(self._plateau_prev)
            ),
            "pending": [list(entry) for entry in self._pending],
            "pending_seq": self._pending_seq,
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "StreamingVirtualClock":
        """Rebuild a clock from :meth:`export_state` output."""
        clock = cls(float(state["rate"]), list(state["phis"]))
        clock._time = float(state["time"])
        clock._virtual = float(state["virtual"])
        clock._last_finish = [float(x) for x in state["last_finish"]]
        clock._in_busy = [bool(x) for x in state["in_busy"]]
        clock._busy_heap = [
            (float(f), int(s)) for f, s in state["busy_heap"]
        ]
        clock._busy_count = int(state["busy_count"])
        clock._phi_sum = ExactSum.from_partials(
            float(p) for p in state["phi_partials"]
        )
        clock._phi_sum_value = math.fsum(clock._phi_sum.partials)
        clock._prev_t, clock._prev_v = (
            float(state["prev"][0]),
            float(state["prev"][1]),
        )
        clock._plateau_t, clock._plateau_v = (
            float(state["plateau"][0]),
            float(state["plateau"][1]),
        )
        plateau_prev = state["plateau_prev"]
        clock._plateau_prev = (
            None
            if plateau_prev is None
            else (float(plateau_prev[0]), float(plateau_prev[1]))
        )
        clock._pending = [
            (float(w), int(seq), int(token))
            for w, seq, token in state["pending"]
        ]
        clock._pending_seq = int(state["pending_seq"])
        return clock
