"""Session registry of the streaming GPS engine.

The registry keeps one float64 vector per per-session quantity
(weight, backlog, pending arrivals, cumulative totals), all aligned
with a stable insertion order.  Joins append (amortized O(1)), leaves
compact the vectors (O(active)), and the per-slot water-filling reads
the vectors directly — no per-session Python objects are touched on
the hot path.

On top of the dense vectors the registry maintains an explicit **busy
set**: the compact int index array of sessions with non-zero backlog
or non-zero pending arrivals.  GPS is work-conserving — a session with
zero work receives nothing and changes nothing in a slot — so the
engine's per-slot cost is O(busy), not O(active): a million idle
sessions cost nothing per event.  The index is maintained
incrementally (O(1) on :meth:`add_arrival`, O(busy) pruning on
:meth:`commit_slot`, O(busy) fix-up on :meth:`leave`) and the invariant
is one-sided: the busy set always *contains* every session with
non-zero work, and may transiently hold sessions whose work is exactly
zero — harmless, because the water-filling kernel's sequential
reductions are invariant to exact-zero entries
(:func:`repro.sim.fluid.busy_gps_slot_allocation`).

The fields the vectors do not carry — join slot, renegotiation count,
E.B.B. declaration and QoS target — are plain lists aligned with the
same order, so an active session is a column index and nothing else.
A :class:`SessionInfo` is built only on demand: by :meth:`info`,
:meth:`leave` (the registry keeps nothing of a departed session) and
:meth:`stats`.  The system-wide backlog/pending totals are cached
scalars updated incrementally, so none of the reporting paths scan
the full active set per event.

For a population that joined in scenario order and never churned, the
registry's vectors are element-for-element the rows of the offline
engines' arrays, which is what makes the online/offline bit-for-bit
equivalence possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.analysis.admission import QoSTarget
from repro.core.ebb import EBB
from repro.errors import AdmissionError, ValidationError
from repro.utils.validation import check_positive

__all__ = ["SessionInfo", "SessionRegistry"]


@dataclass
class SessionInfo:
    """Bookkeeping for one session, live or departed.

    For an active session this is a copy taken by
    :meth:`SessionRegistry.info`; :meth:`SessionRegistry.leave` returns
    a departed session's totals at the moment it left.
    """

    name: str
    phi: float
    ebb: EBB | None = None
    target: QoSTarget | None = None
    joined_at: int = 0
    arrived: float = 0.0
    served: float = 0.0
    residual: float = 0.0
    renegotiations: int = 0

    def to_record(self) -> dict[str, Any]:
        """JSON-serializable summary of the session."""
        return {
            "name": self.name,
            "phi": self.phi,
            "joined_at": self.joined_at,
            "arrived": self.arrived,
            "served": self.served,
            "residual": self.residual,
            "renegotiations": self.renegotiations,
        }


_GROW = 1024

#: Backing vectors, compacted together on leave.
_VECTORS = ("_phis", "_backlog", "_pending", "_arrived", "_served")

#: Active-session fields kept as plain lists, and the snapshot
#: ``columns`` they export to.
_COLUMNS = ("joined_at", "renegotiations", "ebb", "target")


class SessionRegistry:
    """Active-session state vectors with churn.

    All public vectors (:attr:`phis`, :attr:`backlog`, :attr:`pending`,
    ...) are *views* of length :attr:`num_active` into larger backing
    buffers; the engine mutates them in place between churn events.
    """

    def __init__(self) -> None:
        self._names: list[str] = []
        self._index: dict[str, int] = {}
        # Active-session columns the vectors do not carry, aligned
        # with _names.
        self._joined_at: list[int] = []
        self._renegotiations: list[int] = []
        self._ebb: list[EBB | None] = []
        self._target: list[QoSTarget | None] = []
        self._capacity = _GROW
        self._phis = np.zeros(self._capacity)
        self._backlog = np.zeros(self._capacity)
        self._pending = np.zeros(self._capacity)
        self._arrived = np.zeros(self._capacity)
        self._served = np.zeros(self._capacity)
        self._peak_active = 0
        # Busy-set index: _busy_idx[:_busy_count] are the (unordered)
        # indices of sessions with backlog != 0 or pending != 0;
        # _busy_mask is the membership bitmap keeping appends O(1).
        self._busy_mask = np.zeros(self._capacity, dtype=bool)
        self._busy_capacity = _GROW
        self._busy_idx = np.zeros(self._busy_capacity, dtype=np.int64)
        self._busy_count = 0
        # Cached system totals; _epoch counts committed slots.
        self._total_backlog = 0.0
        self._total_pending = 0.0
        self._epoch = 0

    # ------------------------------------------------------------------
    # vector views (length == num_active)
    # ------------------------------------------------------------------
    @property
    def num_active(self) -> int:
        """Number of active sessions."""
        return len(self._names)

    @property
    def peak_active(self) -> int:
        """Largest number of simultaneously active sessions seen."""
        return self._peak_active

    @property
    def names(self) -> tuple[str, ...]:
        """Active session names, in join order."""
        return tuple(self._names)

    @property
    def phis(self) -> np.ndarray:
        """Active GPS weights (view; do not resize)."""
        return self._phis[: self.num_active]

    @property
    def backlog(self) -> np.ndarray:
        """Active per-session backlog (view)."""
        return self._backlog[: self.num_active]

    @property
    def pending(self) -> np.ndarray:
        """Arrivals accumulated for the current slot (view)."""
        return self._pending[: self.num_active]

    @property
    def arrived(self) -> np.ndarray:
        """Cumulative per-session arrivals (view)."""
        return self._arrived[: self.num_active]

    @property
    def served(self) -> np.ndarray:
        """Cumulative per-session service (view)."""
        return self._served[: self.num_active]

    # ------------------------------------------------------------------
    # busy-set index and cached totals
    # ------------------------------------------------------------------
    @property
    def num_busy(self) -> int:
        """Number of sessions currently in the busy set."""
        return self._busy_count

    @property
    def epoch(self) -> int:
        """Number of slots committed so far."""
        return self._epoch

    def busy_indices(self) -> np.ndarray:
        """Busy-session indices, sorted ascending (a view; do not keep).

        Ascending session order is load-bearing: it makes the gathered
        work/weight slices subsequences of the dense vectors, which is
        what the sequential-sum kernel needs for bit-identity with the
        dense path — and it makes the array canonical, so it round-trips
        through snapshots byte-for-byte.
        """
        view = self._busy_idx[: self._busy_count]
        view.sort()
        return view

    def total_backlog(self) -> float:
        """System backlog (cached scalar; O(1))."""
        return self._total_backlog

    def total_pending(self) -> float:
        """Pending arrivals for the open slot (cached scalar; O(1))."""
        return self._total_pending

    def _mark_busy(self, index: int) -> None:
        if self._busy_mask[index]:
            return
        if self._busy_count >= self._busy_capacity:
            self._busy_capacity *= 2
            grown = np.zeros(self._busy_capacity, dtype=np.int64)
            grown[: self._busy_count] = self._busy_idx[: self._busy_count]
            self._busy_idx = grown
        self._busy_idx[self._busy_count] = index
        self._busy_count += 1
        self._busy_mask[index] = True

    def commit_slot(
        self,
        busy: np.ndarray,
        new_backlog: np.ndarray,
        served: np.ndarray,
    ) -> float:
        """Apply one served slot's gathered results to the busy slice.

        ``busy`` must be the array :meth:`busy_indices` returned for
        this slot; ``new_backlog``/``served`` the post-water-fill
        gathered values.  Folds pending arrivals into the cumulative
        vectors, prunes sessions that emptied out of the busy set,
        refreshes the cached totals from the slice (a sequential sum,
        bit-identical to the dense total) and advances the epoch.
        Returns the new system backlog.  O(busy).
        """
        if busy.size:
            self._arrived[busy] += self._pending[busy]
            self._served[busy] += served
            self._backlog[busy] = new_backlog
            self._pending[busy] = 0.0
            kept = busy[new_backlog > 0.0]
            self._busy_mask[busy] = False
            self._busy_mask[kept] = True
            self._busy_idx[: kept.size] = kept
            self._busy_count = int(kept.size)
            backlog_kept = self._backlog[kept]
            self._total_backlog = (
                float(np.cumsum(backlog_kept)[-1]) if kept.size else 0.0
            )
        else:
            self._total_backlog = 0.0
        self._total_pending = 0.0
        self._epoch += 1
        return self._total_backlog

    def skip_slots(self, count: int) -> None:
        """Count ``count`` slots that change nothing, right after a
        :meth:`commit_slot` with an empty busy set or no capacity."""
        self._epoch += count

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return self.num_active

    def index_of(self, name: str) -> int:
        """Current vector index of an active session."""
        try:
            return self._index[name]
        except KeyError:
            raise AdmissionError(f"no active session named {name!r}") from None

    def _info_at(self, index: int) -> SessionInfo:
        return SessionInfo(
            name=self._names[index],
            phi=float(self._phis[index]),
            ebb=self._ebb[index],
            target=self._target[index],
            joined_at=self._joined_at[index],
            arrived=float(self._arrived[index]),
            served=float(self._served[index]),
            residual=float(self._backlog[index]),
            renegotiations=self._renegotiations[index],
        )

    def info(self, name: str) -> SessionInfo:
        """A :class:`SessionInfo` copy of an active session, totals
        current as of the last committed slot."""
        return self._info_at(self.index_of(name))

    # ------------------------------------------------------------------
    # churn
    # ------------------------------------------------------------------
    def _ensure_capacity(self, needed: int) -> None:
        if needed <= self._capacity:
            return
        while self._capacity < needed:
            self._capacity *= 2
        for attr in (*_VECTORS, "_busy_mask"):
            old = getattr(self, attr)
            grown = np.zeros(self._capacity, dtype=old.dtype)
            grown[: old.size] = old
            setattr(self, attr, grown)

    def join(
        self,
        name: str,
        phi: float,
        *,
        ebb: EBB | None = None,
        target: QoSTarget | None = None,
        at: int = 0,
    ) -> None:
        """Register a new session; raises :class:`AdmissionError` on a
        duplicate name."""
        check_positive("phi", phi)
        if name in self._index:
            raise AdmissionError(
                f"session {name!r} is already active (joined at slot "
                f"{self._joined_at[self._index[name]]})"
            )
        index = self.num_active
        self._ensure_capacity(index + 1)
        self._names.append(name)
        self._index[name] = index
        self._joined_at.append(at)
        self._renegotiations.append(0)
        self._ebb.append(ebb)
        self._target.append(target)
        self._phis[index] = float(phi)
        self._backlog[index] = 0.0
        self._pending[index] = 0.0
        self._arrived[index] = 0.0
        self._served[index] = 0.0
        self._busy_mask[index] = False
        self._peak_active = max(self._peak_active, self.num_active)

    def leave(self, name: str) -> SessionInfo:
        """Deregister a session; returns its final :class:`SessionInfo`.

        Residual backlog (plus any arrivals still pending for the
        current slot) is dropped and recorded on the info record.
        """
        index = self.index_of(name)
        info = self._info_at(index)
        info.residual = float(self._backlog[index] + self._pending[index])
        # Busy-set fix-up (O(busy)): drop the leaver, then shift every
        # busy index past the compaction point down one slot.  The
        # cached totals lose the leaver's contribution; they are
        # recomputed exactly from the busy slice at the next commit.
        busy = self._busy_idx[: self._busy_count]
        if self._busy_mask[index]:
            pos = int(np.flatnonzero(busy == index)[0])
            busy[pos] = busy[self._busy_count - 1]
            self._busy_count -= 1
            busy = self._busy_idx[: self._busy_count]
        busy[busy > index] -= 1
        if self._busy_count == 0:
            # Empty busy set means every remaining backlog/pending is
            # exactly zero; pin the cached totals so incremental
            # subtraction dust cannot accumulate.
            self._total_backlog = 0.0
            self._total_pending = 0.0
        else:
            self._total_backlog -= float(self._backlog[index])
            self._total_pending -= float(self._pending[index])
        last = self.num_active - 1
        if index != last:
            # Compact by shifting the tail down one slot; O(active).
            for attr in (*_VECTORS, "_busy_mask"):
                vec = getattr(self, attr)
                vec[index:last] = vec[index + 1 : last + 1]
            for shifted in self._names[index + 1 :]:
                self._index[shifted] -= 1
        self._busy_mask[last] = False
        for column in (
            self._names,
            self._joined_at,
            self._renegotiations,
            self._ebb,
            self._target,
        ):
            del column[index]
        del self._index[name]
        return info

    def renegotiate(
        self,
        name: str,
        *,
        phi: float | None = None,
        ebb: EBB | None = None,
        target: QoSTarget | None = None,
    ) -> None:
        """Update an active session's weight / QoS declaration in place."""
        index = self.index_of(name)
        if phi is not None:
            check_positive("phi", phi)
            self._phis[index] = float(phi)
        if ebb is not None:
            self._ebb[index] = ebb
        if target is not None:
            self._target[index] = target
        self._renegotiations[index] += 1

    def add_arrival(self, name: str, amount: float) -> None:
        """Accumulate work for the current slot (O(1)).

        Marks the session busy, so the next slot's water-fill gathers
        it; the cached pending total tracks incrementally.
        """
        index = self.index_of(name)
        self._pending[index] += amount
        self._total_pending += amount
        if self._pending[index] != 0.0 or self._backlog[index] != 0.0:
            self._mark_busy(index)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, dict[str, Any]]:
        """Per-session summaries of the active sessions, in join order."""
        return {
            name: self._info_at(index).to_record()
            for index, name in enumerate(self._names)
        }

    # ------------------------------------------------------------------
    # durable state export/import
    # ------------------------------------------------------------------
    def export_state(self) -> dict[str, Any]:
        """JSON-serializable snapshot of the registry's active sessions.

        Active sessions are stored column-wise: ``names`` plus the
        ``joined_at``, ``renegotiations``, ``ebb`` and ``target``
        columns, in vector order.  Their ``phi``/``arrived``/``served``/
        ``residual`` live only in the ``phis``/``arrived``/``served``/
        ``backlog`` vectors.

        The backing vectors are trimmed to the active prefix; the
        restored registry reallocates them, and since JSON round-trips
        finite floats exactly the restored vectors are element-for-
        element ``np.array_equal`` with the originals.
        """
        from repro.online.events import _ebb_record, _target_record

        return {
            "names": list(self._names),
            "columns": {
                "joined_at": list(self._joined_at),
                "renegotiations": list(self._renegotiations),
                "ebb": [_ebb_record(ebb) for ebb in self._ebb],
                "target": [_target_record(t) for t in self._target],
            },
            "peak_active": self._peak_active,
            "vectors": {
                "phis": self.phis.tolist(),
                "backlog": self.backlog.tolist(),
                "pending": self.pending.tolist(),
                "arrived": self.arrived.tolist(),
                "served": self.served.tolist(),
            },
            # Busy-set/epoch state: exported explicitly (not derived)
            # so a recovered registry reproduces the live one bit for
            # bit — including transient zero-work members and the
            # incremental rounding of the cached totals.
            "busy": self.busy_indices().tolist(),
            "epoch": self._epoch,
            "total_backlog": self._total_backlog,
            "total_pending": self._total_pending,
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "SessionRegistry":
        """Rebuild a registry from an :meth:`export_state` snapshot.

        Also reads the older per-session layout, which stored every
        active session as a full record in an ``"active"`` list.  The
        engine folds an older snapshot's ``"departed"`` list.
        """
        from repro.online.events import _ebb_from, _target_from

        out = cls()
        names = [str(name) for name in state["names"]]
        out._ensure_capacity(len(names))
        out._names = names
        out._index = {name: k for k, name in enumerate(names)}

        def column(block: dict[str, Any], key: str, kind: str) -> list:
            values = block[key]
            if len(values) != len(names):
                raise ValidationError(
                    f"registry state {kind} {key!r} has {len(values)} "
                    f"entries for {len(names)} active sessions"
                )
            return values

        for key in ("phis", "backlog", "pending", "arrived", "served"):
            values = [
                float(v) for v in column(state["vectors"], key, "vector")
            ]
            getattr(out, f"_{key}")[: len(values)] = values
        if "active" in state:
            # The per-session records repeat the vector fields; the
            # vectors are authoritative, as in the columnar layout.
            rows = column(state, "active", "list")
            if [str(row["name"]) for row in rows] != names:
                raise ValidationError(
                    "registry state 'active' records are not in "
                    "'names' order"
                )
            columns = {key: [row[key] for row in rows] for key in _COLUMNS}
        else:
            columns = {
                key: column(state["columns"], key, "column")
                for key in _COLUMNS
            }
        out._joined_at = [int(v) for v in columns["joined_at"]]
        out._renegotiations = [int(v) for v in columns["renegotiations"]]
        out._ebb = [_ebb_from(record) for record in columns["ebb"]]
        out._target = [_target_from(record) for record in columns["target"]]
        out._peak_active = int(state["peak_active"])
        if "busy" in state:
            busy = [int(k) for k in state["busy"]]
            if any(k < 0 or k >= len(names) for k in busy):
                raise ValidationError(
                    f"registry busy index out of range for {len(names)} "
                    "active sessions"
                )
            out._total_backlog = float(state["total_backlog"])
            out._total_pending = float(state["total_pending"])
            out._epoch = int(state["epoch"])
        else:
            # Pre-busy-set snapshot: derive the index and totals from
            # the vectors (sequential sums over the sorted busy slice,
            # the same computation commit_slot performs).
            busy = np.flatnonzero(
                (out.backlog != 0.0) | (out.pending != 0.0)
            ).tolist()
            backlog_busy = out._backlog[busy]
            pending_busy = out._pending[busy]
            out._total_backlog = (
                float(np.cumsum(backlog_busy)[-1]) if busy else 0.0
            )
            out._total_pending = (
                float(np.cumsum(pending_busy)[-1]) if busy else 0.0
            )
            out._epoch = 0
        count = len(busy)
        while out._busy_capacity < max(count, 1):
            out._busy_capacity *= 2
        out._busy_idx = np.zeros(out._busy_capacity, dtype=np.int64)
        out._busy_idx[:count] = busy
        out._busy_count = count
        out._busy_mask[busy] = True
        return out

    def admitted_declarations(
        self,
    ) -> list[tuple[str, EBB | None, float, QoSTarget | None]]:
        """``(name, ebb, phi, target)`` of every active session, in order."""
        return list(
            zip(self._names, self._ebb, self.phis.tolist(), self._target)
        )
