"""Incremental data structures behind :class:`AnalysisContext`.

Two small, exactly-specified containers let the admission gate patch
its state in ``O(log N)`` per session event instead of recomputing
from scratch:

* :class:`ExactSum` — a Shewchuk-style exact accumulator for the
  aggregate rate ``sum_i rho_i``.  Its :attr:`ExactSum.value` is
  *bit-identical* to ``math.fsum`` over the current multiset of
  addends, no matter in which order sessions joined and left, which is
  what keeps the gate byte-identical to a from-scratch evaluation.
* :class:`SortedRatioOrder` — the ``rho_i / phi_i`` ratio order of
  eq. (36) maintained under insertions, deletions and renegotiations.
  Ties break by insertion sequence number, reproducing the stable
  ``sorted(..., key=ratio)`` order of
  :func:`repro.analysis.feasible.find_feasible_ordering`.
  :meth:`SortedRatioOrder.replace` implements the Lemma 9 fast path:
  a renegotiated rate that still fits between the session's current
  neighbours leaves the ordering untouched (``O(1)`` check), and only
  otherwise pays the ``O(log N)`` re-insertion.  Beside the entries it
  keeps their ``seq`` numbers as a numpy column, so a reader gets the
  whole order as an array without a Python pass.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Iterable

import numpy as np

__all__ = ["ExactSum", "SortedRatioOrder"]


class ExactSum:
    """Exact floating-point accumulator supporting add *and* remove.

    Maintains Shewchuk non-overlapping partial sums (the ``msum``
    recipe underlying ``math.fsum``).  Removing ``x`` is adding
    ``-x``: because every grow step is exact (two-sum), the partials
    always represent the true real-number sum of everything ever
    added, so after removals the value equals ``math.fsum`` of the
    surviving multiset exactly.
    """

    __slots__ = ("_partials",)

    def __init__(self) -> None:
        self._partials: list[float] = []

    def _grow(self, x: float) -> None:
        partials = self._partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    def add(self, x: float) -> None:
        """Add ``x`` to the sum, exactly."""
        self._grow(x)

    def remove(self, x: float) -> None:
        """Remove one previously-added ``x`` from the sum, exactly."""
        self._grow(-x)

    @property
    def value(self) -> float:
        """Correctly-rounded sum — ``math.fsum`` of the live multiset."""
        return math.fsum(self._partials)

    @property
    def partials(self) -> tuple[float, ...]:
        """The non-overlapping partial sums, smallest magnitude first.

        Restoring these via :meth:`from_partials` reproduces the
        accumulator *bit for bit* — including the rounding of every
        future :meth:`add`/:meth:`remove` — which is what lets a
        serving snapshot round-trip the aggregate rate exactly.
        """
        return tuple(self._partials)

    @classmethod
    def from_partials(cls, partials: "Iterable[float]") -> "ExactSum":
        """Rebuild an accumulator from a :attr:`partials` snapshot."""
        out = cls()
        out._partials = [float(p) for p in partials]
        return out

    def __len__(self) -> int:
        return len(self._partials)


class _ArrayColumn:
    """A numpy column with list-style insert and delete (internal).

    Spare capacity makes an insert or a delete one overlapping slice
    copy (a C-level memmove, as in ``list.insert``); :meth:`view`
    returns the live prefix without copying, valid until the next
    change.
    """

    __slots__ = ("_data", "_size")

    def __init__(self, dtype: Any) -> None:
        self._data = np.empty(64, dtype=dtype)
        self._size = 0

    def view(self) -> np.ndarray:
        return self._data[: self._size]

    def insert(self, k: int, value: Any) -> None:
        n = self._size
        if n == len(self._data):
            grown = np.empty(2 * n, dtype=self._data.dtype)
            grown[:n] = self._data
            self._data = grown
        data = self._data
        data[k + 1 : n + 1] = data[k:n]
        data[k] = value
        self._size = n + 1

    def append(self, value: Any) -> None:
        self.insert(self._size, value)

    def delete(self, k: int) -> None:
        n = self._size
        data = self._data
        data[k : n - 1] = data[k + 1 : n]
        self._size = n - 1

    def __setitem__(self, k: int, value: Any) -> None:
        self._data[k] = value


class SortedRatioOrder:
    """The ratio-sorted session order, maintained incrementally.

    Entries are ``(ratio, seq)`` pairs where ``seq`` is the session's
    insertion sequence number.  Python tuple comparison then sorts by
    ratio with ties broken by join order — exactly the stable sort
    ``sorted(range(n), key=lambda i: rho[i] / phi[i])`` over sessions
    listed in join order, so the maintained order reproduces the
    canonical feasible ordering of eq. (36) bit for bit.
    """

    __slots__ = ("_entries", "_seqs")

    def __init__(self) -> None:
        self._entries: list[tuple[float, int]] = []
        self._seqs = _ArrayColumn(np.int64)

    def __len__(self) -> int:
        return len(self._entries)

    def _place(self, entry: tuple[float, int]) -> None:
        k = bisect_left(self._entries, entry)
        self._entries.insert(k, entry)
        self._seqs.insert(k, entry[1])

    def insert(self, ratio: float, seq: int) -> None:
        """Insert a session at its sorted position (``O(log N)`` search,
        ``O(N)`` shift — the shift is a C-level memmove)."""
        self._place((ratio, seq))

    def remove(self, ratio: float, seq: int) -> None:
        """Remove a session by its exact ``(ratio, seq)`` key."""
        k = self.rank(ratio, seq)
        del self._entries[k]
        self._seqs.delete(k)

    def replace(self, old_ratio: float, new_ratio: float, seq: int) -> bool:
        """Renegotiate a session's ratio; returns True if the order moved.

        Lemma 9 of the paper shows the feasible ordering is preserved
        when a rate is inflated without crossing a neighbour's ratio;
        the ``O(1)`` neighbour check below detects exactly that case
        and rewrites the entry in place.  Only a crossing pays the
        delete + re-insert.
        """
        entries = self._entries
        k = self.rank(old_ratio, seq)
        new_entry = (new_ratio, seq)
        left_ok = k == 0 or entries[k - 1] < new_entry
        right_ok = k == len(entries) - 1 or new_entry < entries[k + 1]
        if left_ok and right_ok:
            entries[k] = new_entry
            return False
        del entries[k]
        self._seqs.delete(k)
        self._place(new_entry)
        return True

    def seqs(self) -> list[int]:
        """Session sequence numbers in ratio order."""
        seqs: list[int] = self._seqs.view().tolist()
        return seqs

    def seq_array(self) -> np.ndarray:
        """:meth:`seqs` as a read-only ``int64`` array view, valid until
        the order next changes."""
        view = self._seqs.view()
        view.flags.writeable = False
        return view

    def rank(self, ratio: float, seq: int) -> int:
        """0-based position of an entry in the order."""
        entries = self._entries
        k = bisect_left(entries, (ratio, seq))
        if k >= len(entries) or entries[k] != (ratio, seq):
            raise KeyError((ratio, seq))
        return k

    def neighbors(
        self, ratio: float, seq: int
    ) -> tuple[tuple[float, int] | None, tuple[float, int] | None]:
        """The entries immediately before and after one session."""
        k = self.rank(ratio, seq)
        entries = self._entries
        before = entries[k - 1] if k > 0 else None
        after = entries[k + 1] if k + 1 < len(entries) else None
        return before, after

    def as_tuples(self) -> list[tuple[float, int]]:
        """Snapshot of the ``(ratio, seq)`` entries, in order."""
        return list(self._entries)
