"""Batched fluid GPS engine: ``B`` independent trials per step.

Monte-Carlo campaigns over a single GPS node spend essentially all of
their time in the per-slot water-filling; stepping each trial through
:class:`repro.sim.fluid.FluidGPSServer` pays the Python interpreter
cost ``B * T`` times.  :class:`BatchFluidGPSServer` stacks the trials
into ``(B, N, T)`` arrays and applies the *same* water-filling kernel
across the whole batch at once, so the interpreter cost is paid ``T``
times regardless of ``B``.

This is the one fluid slot loop in the library:
:meth:`repro.sim.fluid.FluidGPSServer.run` is its ``B = 1`` case, and
both servers share their construction and the water-filling kernel
(``repro.sim.fluid._batch_water_fill``), which treats every row
independently.  So each trial of a batched run is bit-for-bit a
``FluidGPSServer.step`` loop over that trial — the equivalence suite
in ``tests/sim/test_batch.py`` asserts exact equality, not closeness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import ValidationError
from repro.sim.fluid import GPSSimResult, _FluidServer, _batch_water_fill
from repro.utils.validation import check_arrivals

__all__ = ["BatchFluidGPSServer", "BatchGPSSimResult"]

_EPS = 1e-12


@dataclass(frozen=True)
class BatchGPSSimResult:
    """Stacked traces of ``B`` independent fluid GPS trials.

    All trace arrays have shape ``(num_trials, num_sessions,
    num_slots)``; ``capacities`` — when the run was fault-injected —
    has shape ``(num_trials, num_slots)``.
    """

    arrivals: np.ndarray
    served: np.ndarray
    backlog: np.ndarray
    rate: float
    phis: tuple[float, ...]
    capacities: np.ndarray | None = None

    def __post_init__(self) -> None:
        shape = self.arrivals.shape
        if len(shape) != 3:
            raise ValidationError(
                f"traces must be 3-D (B, N, T), got {shape}"
            )
        if self.served.shape != shape or self.backlog.shape != shape:
            raise ValidationError(
                "arrivals/served/backlog shapes differ: "
                f"{shape}, {self.served.shape}, {self.backlog.shape}"
            )
        if self.capacities is not None and self.capacities.shape != (
            shape[0],
            shape[2],
        ):
            raise ValidationError(
                f"capacities must have shape ({shape[0]}, {shape[2]}), "
                f"got {self.capacities.shape}"
            )

    @property
    def num_trials(self) -> int:
        """Batch size ``B``."""
        return self.arrivals.shape[0]

    @property
    def num_sessions(self) -> int:
        """Number of sessions."""
        return self.arrivals.shape[1]

    @property
    def num_slots(self) -> int:
        """Number of simulated slots."""
        return self.arrivals.shape[2]

    def trial(self, index: int) -> GPSSimResult:
        """One trial's traces as a scalar :class:`GPSSimResult`.

        The arrays are views into the batch; they compare bit-for-bit
        equal to running :class:`repro.sim.fluid.FluidGPSServer` on the
        same arrivals.
        """
        if not 0 <= index < self.num_trials:
            raise ValidationError(
                f"trial index must be in [0, {self.num_trials}), got "
                f"{index}"
            )
        return GPSSimResult(
            arrivals=self.arrivals[index],
            served=self.served[index],
            backlog=self.backlog[index],
            rate=self.rate,
            phis=self.phis,
            capacities=(
                None if self.capacities is None else self.capacities[index]
            ),
        )

    def total_backlog(self) -> np.ndarray:
        """System backlog per trial and slot, shape ``(B, T)``.

        Sequential over sessions, matching
        :meth:`repro.sim.fluid.GPSSimResult.total_backlog` bit for bit
        on each trial slice.
        """
        if self.backlog.shape[1] == 0:
            return np.zeros((self.num_trials, self.num_slots))
        return np.cumsum(self.backlog, axis=1)[:, -1, :]

    def utilization(self) -> np.ndarray:
        """Per-trial fraction of offered capacity actually used."""
        if self.capacities is not None:
            offered = self.capacities.sum(axis=1)
        else:
            offered = np.full(
                self.num_trials, self.rate * self.num_slots
            )
        used = self.served.sum(axis=(1, 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(offered > 0.0, used / offered, 0.0)
        return out

    def busy_fraction(self, session: int) -> np.ndarray:
        """Per-trial fraction of slots the session is backlogged."""
        return np.mean(self.backlog[:, session, :] > _EPS, axis=1)

    # ------------------------------------------------------------------
    # unified result protocol (repro.sim.results.SimResult)
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """JSON-serializable scalar summary across the batch."""
        total = self.total_backlog()
        return {
            "kind": "batch_fluid_gps",
            "num_trials": self.num_trials,
            "num_sessions": self.num_sessions,
            "num_slots": self.num_slots,
            "rate": self.rate,
            "phis": list(self.phis),
            "mean_utilization": float(self.utilization().mean()),
            "total_arrived": float(self.arrivals.sum()),
            "total_served": float(self.served.sum()),
            "max_total_backlog": float(total.max()),
            "mean_final_backlog": [
                float(b) for b in self.backlog[:, :, -1].mean(axis=0)
            ],
        }

    def to_dict(self) -> dict[str, Any]:
        """Full JSON-serializable dump: summary plus all traces."""
        payload = self.summary()
        payload["arrivals"] = self.arrivals.tolist()
        payload["served"] = self.served.tolist()
        payload["backlog"] = self.backlog.tolist()
        if self.capacities is not None:
            payload["capacities"] = self.capacities.tolist()
        return payload


def _check_capacities(caps: np.ndarray) -> None:
    # One pass per comparison; NaN fails both.
    if not ((caps >= 0.0) & (caps < np.inf)).all():
        raise ValidationError("capacity must be finite and non-negative")


class BatchFluidGPSServer(_FluidServer):
    """Vectorized fluid GPS server over ``B`` independent trials.

    Keyword-only construction, shared with
    :class:`repro.sim.fluid.FluidGPSServer`::

        BatchFluidGPSServer(rate=1.0, phis=[2.0, 1.0])
        BatchFluidGPSServer(scenario=scenario)

    All trials share the server rate and weight vector (they are
    independent repetitions of one scenario, not different scenarios);
    per-trial capacity traces may still differ, e.g. under fault
    injection.  Validation happens at construction and once per
    :meth:`run`; the slot loop runs on the no-copy float64 kernel.
    """

    @property
    def backlog(self) -> np.ndarray | None:
        """Current ``(B, N)`` backlog (copy), or ``None`` before any
        step."""
        return None if self._backlog is None else self._backlog.copy()

    def reset(self, num_trials: int | None = None) -> None:
        """Empty all queues (and fix the batch size, when given)."""
        if num_trials is None:
            self._backlog = None
        else:
            if num_trials <= 0:
                raise ValidationError(
                    f"num_trials must be positive, got {num_trials}"
                )
            self._backlog = np.zeros((num_trials, self.num_sessions))

    def step(self, arrivals, *, capacity=None) -> np.ndarray:
        """Advance every trial one slot; returns ``(B, N)`` service.

        ``arrivals`` is ``(B, N)``; the batch size is fixed by the
        first step after a :meth:`reset`.  ``capacity`` overrides the
        rate for this slot — a scalar applies to every trial, a
        ``(B,)`` array sets per-trial capacities.
        """
        arr = np.ascontiguousarray(arrivals, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.num_sessions:
            raise ValidationError(
                f"arrivals must have shape (B, {self.num_sessions}), "
                f"got {arr.shape}"
            )
        check_arrivals(arr)
        if self._backlog is None:
            self._backlog = np.zeros_like(arr)
        elif self._backlog.shape != arr.shape:
            raise ValidationError(
                f"expected batch shape {self._backlog.shape}, got "
                f"{arr.shape}"
            )
        if capacity is None:
            caps = np.full(arr.shape[0], self._rate)
        else:
            caps = np.broadcast_to(
                np.asarray(capacity, dtype=float), (arr.shape[0],)
            ).copy()
            _check_capacities(caps)
        return self._step_fast(arr, caps)

    def _step_fast(
        self, arrivals: np.ndarray, capacities: np.ndarray
    ) -> np.ndarray:
        work = self._backlog + arrivals
        served = _batch_water_fill(work, self._phis, capacities)
        self._backlog = np.clip(work - served, 0.0, None)
        return served

    def run(
        self,
        arrivals: np.ndarray,
        *,
        capacities: np.ndarray | None = None,
    ) -> BatchGPSSimResult:
        """Simulate a stacked arrival tensor ``(B, num_sessions, T)``.

        State is reset first, so ``run`` is reproducible.
        ``capacities`` optionally overrides the per-slot capacity:
        shape ``(T,)`` applies the same trace to every trial (the
        common fault-injection case), shape ``(B, T)`` sets per-trial
        traces.

        This is the one fluid slot loop: ``FluidGPSServer.run`` is its
        ``B = 1`` case, and trial ``b`` of the result is bit-for-bit a
        ``FluidGPSServer.step`` loop over ``arrivals[b]``.
        """
        arr = np.ascontiguousarray(arrivals, dtype=float)
        if arr.ndim != 3 or arr.shape[1] != self.num_sessions:
            raise ValidationError(
                f"arrivals must have shape (B, {self.num_sessions}, T), "
                f"got {arr.shape}"
            )
        check_arrivals(arr)
        num_trials, _, num_slots = arr.shape
        if num_trials == 0 or num_slots == 0:
            raise ValidationError(
                f"need at least one trial and one slot, got {arr.shape}"
            )
        caps = None
        if capacities is not None:
            caps = np.ascontiguousarray(capacities, dtype=float)
            if caps.shape == (num_slots,):
                caps = np.broadcast_to(
                    caps, (num_trials, num_slots)
                ).copy()
            if caps.shape != (num_trials, num_slots):
                raise ValidationError(
                    f"capacities must have shape ({num_slots},) or "
                    f"({num_trials}, {num_slots}), got {caps.shape}"
                )
            _check_capacities(caps)
        self.reset(num_trials)
        served = np.zeros_like(arr)
        backlog = np.zeros_like(arr)
        full_rate = np.full(num_trials, self._rate)
        for t in range(num_slots):
            slot_caps = full_rate if caps is None else caps[:, t]
            served[:, :, t] = self._step_fast(arr[:, :, t], slot_caps)
            backlog[:, :, t] = self._backlog
        return BatchGPSSimResult(
            arrivals=arr,
            served=served,
            backlog=backlog,
            rate=self._rate,
            phis=tuple(self._phis.tolist()),
            capacities=caps,
        )
