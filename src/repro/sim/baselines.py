"""Baseline scheduling disciplines for comparison against GPS.

The paper's discussion (Sections 1 and 7, following Clark/Shenker/Zhang
[CSZ92]) contrasts GPS's isolation with FCFS's statistical-multiplexing
gain and sketches hybrid class-based schemes.  These simulators provide
the comparison points:

* :class:`FCFSServer` — all sessions share one FIFO queue; no
  isolation, maximal multiplexing.
* :class:`StaticPriorityServer` — strict priority by session order.
* :class:`WeightedRoundRobinServer` — a quantum-based approximation of
  GPS whose fairness degrades with quantum size.

All share the slot-stepped interface of
:class:`repro.sim.fluid.FluidGPSServer` and return the same
:class:`GPSSimResult` structure (the ``phis`` field records the weights
or priorities used).
"""

from __future__ import annotations

import numpy as np

from repro.sim.fluid import GPSSimResult
from repro.utils.validation import (
    check_arrivals,
    check_positive,
    check_weights,
)

from repro.errors import ValidationError

__all__ = [
    "FCFSServer",
    "StaticPriorityServer",
    "WeightedRoundRobinServer",
]

_EPS = 1e-12


class _SlotServer:
    """Shared plumbing for the slot-stepped baselines: construction,
    the arrival checks and the batch run.  Subclasses implement
    :meth:`reset`, :meth:`_advance` (one slot on checked arrivals)
    and :meth:`_backlog_snapshot`."""

    def __init__(self, rate: float, num_sessions: int) -> None:
        check_positive("rate", rate)
        if num_sessions <= 0:
            raise ValidationError("need at least one session")
        self._rate = float(rate)
        self._num_sessions = num_sessions

    @property
    def rate(self) -> float:
        """Server capacity per slot."""
        return self._rate

    @property
    def num_sessions(self) -> int:
        """Number of sessions."""
        return self._num_sessions

    def reset(self) -> None:
        """Reset scheduler state; subclasses extend."""
        raise NotImplementedError

    def _advance(self, arrivals: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _backlog_snapshot(self) -> np.ndarray:
        raise NotImplementedError

    def _weights_record(self) -> tuple[float, ...]:
        return tuple([1.0] * self._num_sessions)

    def step(self, arrivals) -> np.ndarray:
        """Advance one slot; returns per-session service amounts."""
        arr = np.asarray(arrivals, dtype=float)
        if arr.shape != (self._num_sessions,):
            raise ValidationError(
                f"expected {self._num_sessions} arrival entries, got "
                f"shape {arr.shape}"
            )
        check_arrivals(arr)
        return self._advance(arr)

    def run(self, arrivals: np.ndarray) -> GPSSimResult:
        """Simulate a whole arrival matrix; see FluidGPSServer.run."""
        arr = np.asarray(arrivals, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != self._num_sessions:
            raise ValidationError(
                f"arrivals must have shape ({self._num_sessions}, T), "
                f"got {arr.shape}"
            )
        if arr.shape[1] == 0:
            raise ValidationError("need at least one slot, got 0")
        check_arrivals(arr)
        self.reset()
        served = np.zeros_like(arr)
        backlog = np.zeros_like(arr)
        for t in range(arr.shape[1]):
            served[:, t] = self._advance(arr[:, t])
            backlog[:, t] = self._backlog_snapshot()
        return GPSSimResult(
            arrivals=arr,
            served=served,
            backlog=backlog,
            rate=self._rate,
            phis=self._weights_record(),
        )


class FCFSServer(_SlotServer):
    """First-come-first-served across all sessions.

    Work is served strictly in arrival order; traffic arriving in the
    same slot is served in proportion to the amounts contributed (the
    fluid analogue of random packet interleaving within a slot).
    Implemented as a FIFO of (per-session amounts) batches.
    """

    def __init__(self, rate: float, num_sessions: int) -> None:
        super().__init__(rate, num_sessions)
        self._queue: list[np.ndarray] = []

    def reset(self) -> None:
        self._queue = []

    def _advance(self, arr: np.ndarray) -> np.ndarray:
        if float(arr.sum()) > _EPS:
            self._queue.append(arr.copy())
        capacity = self._rate
        served = np.zeros(self._num_sessions)
        while self._queue and capacity > _EPS:
            batch = self._queue[0]
            batch_total = float(batch.sum())
            if batch_total <= capacity + _EPS:
                served += batch
                capacity -= batch_total
                self._queue.pop(0)
            else:
                fraction = capacity / batch_total
                grant = batch * fraction
                served += grant
                self._queue[0] = batch - grant
                capacity = 0.0
        return served

    def _backlog_snapshot(self) -> np.ndarray:
        if not self._queue:
            return np.zeros(self._num_sessions)
        return np.sum(self._queue, axis=0)


class StaticPriorityServer(_SlotServer):
    """Strict priority: lower session index preempts all higher ones."""

    def __init__(self, rate: float, num_sessions: int) -> None:
        super().__init__(rate, num_sessions)
        self._backlog = np.zeros(num_sessions)

    def reset(self) -> None:
        self._backlog = np.zeros(self._num_sessions)

    def _advance(self, arr: np.ndarray) -> np.ndarray:
        work = self._backlog + arr
        served = np.zeros_like(work)
        capacity = self._rate
        for i in range(self._num_sessions):
            grant = min(work[i], capacity)
            served[i] = grant
            capacity -= grant
            if capacity <= _EPS:
                break
        self._backlog = np.clip(work - served, 0.0, None)
        return served

    def _backlog_snapshot(self) -> np.ndarray:
        return self._backlog.copy()


class WeightedRoundRobinServer(_SlotServer):
    """Deficit-style weighted round robin with a configurable quantum.

    Each slot the scheduler cycles through sessions granting up to
    ``quantum * phi_i`` units per visit until the slot capacity is
    exhausted.  As ``quantum -> 0`` the allocation converges to the
    fluid GPS allocation; large quanta introduce the burstiness that
    motivates fair-queueing (used in the scheduler-comparison bench).
    """

    def __init__(self, rate: float, phis, *, quantum: float = 0.1) -> None:
        weights = check_weights("phis", list(phis))
        super().__init__(rate, len(weights))
        check_positive("quantum", quantum)
        self._phis = np.asarray(weights)
        self._quantum = float(quantum)
        self._backlog = np.zeros(len(weights))
        self._next_session = 0

    def reset(self) -> None:
        self._backlog = np.zeros(self._num_sessions)
        self._next_session = 0

    def _weights_record(self) -> tuple[float, ...]:
        return tuple(self._phis.tolist())

    def _advance(self, arr: np.ndarray) -> np.ndarray:
        work = self._backlog + arr
        served = np.zeros_like(work)
        capacity = self._rate
        idle_visits = 0
        position = self._next_session
        # Cycle until capacity is gone or a full idle round shows no
        # remaining work.
        while capacity > _EPS and idle_visits < self._num_sessions:
            deficit = work[position] - served[position]
            if deficit > _EPS:
                grant = min(
                    deficit, self._quantum * self._phis[position], capacity
                )
                served[position] += grant
                capacity -= grant
                idle_visits = 0
            else:
                idle_visits += 1
            position = (position + 1) % self._num_sessions
        self._next_session = position
        self._backlog = np.clip(work - served, 0.0, None)
        return served

    def _backlog_snapshot(self) -> np.ndarray:
        return self._backlog.copy()
