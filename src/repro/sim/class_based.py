"""Two-level scheduling: GPS between classes, FCFS within a class.

The paper's Section 7 proposes exactly this hybrid: group sessions
with similar characteristics into classes, isolate the *classes* from
each other with GPS, and let sessions inside a class share their
aggregate allocation FCFS to harvest multiplexing gain.  The
feasible-partition theory then bounds each class aggregate, and the
aggregate bound is a worst-case bound for every member.

:class:`ClassBasedGPSServer` implements the discipline at fluid-slot
granularity: the slot capacity is split across classes by GPS
water-filling on the class backlogs, and each class's share is drained
through a FIFO of per-slot batches, so traffic of different sessions
inside a class is served strictly in arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.baselines import _SlotServer
from repro.sim.fluid import gps_slot_allocation
from repro.utils.validation import check_weights

from repro.errors import ValidationError

__all__ = ["ClassBasedGPSServer"]

_EPS = 1e-12


@dataclass
class _ClassQueue:
    """FIFO of per-slot batches for one class.

    Each batch stores the per-member amounts so service can be
    attributed back to sessions proportionally within a batch.
    """

    members: list[int]
    batches: list[np.ndarray]

    def backlog(self) -> float:
        return float(sum(b.sum() for b in self.batches))

    def member_backlog(self, num_sessions: int) -> np.ndarray:
        out = np.zeros(num_sessions)
        for batch in self.batches:
            out[self.members] += batch
        return out

    def push(self, amounts: np.ndarray) -> None:
        if float(amounts.sum()) > _EPS:
            self.batches.append(amounts.copy())

    def drain(self, capacity: float, num_sessions: int) -> np.ndarray:
        served = np.zeros(num_sessions)
        remaining = capacity
        while self.batches and remaining > _EPS:
            batch = self.batches[0]
            total = float(batch.sum())
            if total <= remaining + _EPS:
                served[self.members] += batch
                remaining -= total
                self.batches.pop(0)
            else:
                fraction = remaining / total
                grant = batch * fraction
                served[self.members] += grant
                self.batches[0] = batch - grant
                remaining = 0.0
        return served


class ClassBasedGPSServer(_SlotServer):
    """GPS across classes, FCFS within each class.

    Parameters
    ----------
    rate:
        Server capacity per slot.
    class_members:
        ``class_members[k]`` lists the session indices of class ``k``;
        together they must partition ``0..N-1``.
    class_phis:
        GPS weight per class.
    """

    def __init__(
        self,
        rate: float,
        class_members: list[list[int]],
        class_phis,
    ) -> None:
        phis = check_weights("class_phis", list(class_phis))
        if len(phis) != len(class_members):
            raise ValidationError(
                "one weight per class required, got "
                f"{len(phis)} weights for {len(class_members)} classes"
            )
        flat = [i for members in class_members for i in members]
        if not flat:
            raise ValidationError("need at least one session")
        if sorted(flat) != list(range(len(flat))):
            raise ValidationError(
                "class_members must partition the session indices "
                f"0..{len(flat) - 1}, got {class_members}"
            )
        super().__init__(rate, len(flat))
        self._phis = np.asarray(phis)
        self._queues = [
            _ClassQueue(members=list(m), batches=[])
            for m in class_members
        ]

    @property
    def num_classes(self) -> int:
        """Number of classes."""
        return len(self._queues)

    def reset(self) -> None:
        """Empty all class queues."""
        for queue in self._queues:
            queue.batches = []

    def _advance(self, arr: np.ndarray) -> np.ndarray:
        for queue in self._queues:
            queue.push(arr[queue.members])
        class_work = np.array(
            [queue.backlog() for queue in self._queues]
        )
        class_service = gps_slot_allocation(
            class_work, self._phis, self._rate
        )
        served = np.zeros(self._num_sessions)
        for queue, capacity in zip(self._queues, class_service):
            served += queue.drain(float(capacity), self._num_sessions)
        return served

    def _backlog_snapshot(self) -> np.ndarray:
        snapshot = np.zeros(self._num_sessions)
        for queue in self._queues:
            snapshot += queue.member_backlog(self._num_sessions)
        return snapshot

    def _weights_record(self) -> tuple[float, ...]:
        # Each member records an equal part of its class weight.
        weights = np.zeros(self._num_sessions)
        for queue, phi in zip(self._queues, self._phis):
            weights[queue.members] = phi / max(len(queue.members), 1)
        return tuple(weights.tolist())

    def class_backlogs(self) -> np.ndarray:
        """Current per-class backlog totals."""
        return np.array([queue.backlog() for queue in self._queues])
