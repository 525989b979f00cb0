"""Discrete-time fluid GPS server simulator.

The paper's GPS server is a fluid device: in every instant, backlogged
sessions share the server in proportion to their weights ``phi_i``
(eq. 1), and capacity freed by sessions that empty is redistributed to
the rest.  This module simulates that device on a slotted time axis:
arrivals for slot ``t`` are available at the start of the slot and the
slot's capacity is allocated by exact proportional *water-filling*
(:func:`gps_slot_allocation`) — the fixed point of the GPS sharing rule
within the slot.

The server is a stateful stepper (so it can sit inside a multi-node
network simulation) whose :meth:`FluidGPSServer.run` returns a
:class:`GPSSimResult` with per-session served/backlog traces and the
paper's delay process ``D_i(t)`` (the time for the session-``i``
backlog present at ``t`` to clear).

The water-filling itself is implemented once, as a *batched* kernel
over stacked ``(B, N)`` work matrices (``_batch_water_fill``), and so
is the slot loop: :meth:`FluidGPSServer.run` is the ``B = 1`` run of
:class:`repro.sim.batch.BatchFluidGPSServer`, and :meth:`FluidGPSServer.step`
is the ``B = 1`` slice of the kernel.  The exact continuous-time
engine (:mod:`repro.sim.fluid_exact`) calls the same kernel with
``inf`` work for backlogged sessions.  :func:`gps_slot_allocation` is
the one validating entry point, :func:`busy_gps_slot_allocation` the
unchecked one the streaming engine calls on its gathered busy slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.utils.validation import (
    check_arrivals,
    check_positive,
    check_weights,
)

from repro.errors import ValidationError

__all__ = [
    "gps_slot_allocation",
    "busy_gps_slot_allocation",
    "FluidGPSServer",
    "GPSSimResult",
    "clearing_delays",
]

_EPS = 1e-12


def _row_sum(values: np.ndarray) -> np.ndarray:
    """Strictly sequential (left-to-right) row sums of a ``(B, N)`` array.

    ``np.sum`` uses pairwise summation, whose grouping — and therefore
    rounding — depends on *where* entries sit in the row: interleaving
    exact zeros between the non-zero entries changes the result by an
    ulp or two.  A sequential sum is invariant to exact-zero entries
    (``x + 0.0 == x`` for every finite non-negative ``x``), which is
    the property the busy-set hot path rests on: summing a gathered
    slice of the non-zero entries is *bit-for-bit* the sum of the full
    row with idle zeros in place.  ``np.cumsum`` is contractually
    sequential (every prefix is exposed), so its last column is exactly
    that left-to-right sum.
    """
    if values.shape[1] == 0:
        return np.zeros(values.shape[0])
    return np.cumsum(values, axis=1)[:, -1]


def _batch_water_fill(
    work: np.ndarray, phis: np.ndarray, capacity: np.ndarray
) -> np.ndarray:
    """GPS water-filling over a batch of independent trials.

    ``work`` is ``(B, N)`` available work, ``phis`` a shared ``(N,)``
    weight vector, ``capacity`` the ``(B,)`` per-trial slot capacities.
    All inputs must already be validated, float64 and C-contiguous —
    this is the hot kernel and performs no checks or copies.

    Every floating-point operation applied to row ``b`` is independent
    of the other rows (elementwise arithmetic plus row-wise
    reductions), so the result for each row is bit-for-bit the result
    of running the kernel on that row alone.  All row reductions are
    strictly sequential (:func:`_row_sum`), so the result is also
    invariant to dropping (or inserting) sessions whose work is exactly
    zero — the contract :func:`busy_gps_slot_allocation` exposes.
    """
    served = np.zeros_like(work)
    remaining = capacity.astype(float, copy=True)
    active = work > _EPS
    while True:
        live = (remaining > _EPS) & active.any(axis=1)
        if not live.any():
            break
        # Inactive sessions carry weight 0 in both the sum and the
        # shares, so a finished session's weight never meets a
        # subnormal denominator (no overflow on phi ratios ~1e308).
        active_phis = np.where(active, phis, 0.0)
        total_phi = _row_sum(active_phis)
        # Inactive-only rows would divide by zero; the guard merely
        # keeps their (all-zero) shares finite.
        denom = np.where(total_phi > 0.0, total_phi, 1.0)
        shares = remaining[:, None] * active_phis / denom[:, None]
        deficit = work - served
        finishing = active & (deficit <= shares + _EPS) & live[:, None]
        granting = finishing.any(axis=1)
        if granting.any():
            # Fully serve the finishing sessions of granting rows and
            # redistribute their surplus on the next round.
            grants = np.where(finishing, deficit, 0.0)
            served += grants
            remaining = np.where(
                granting, remaining - _row_sum(grants), remaining
            )
            active &= ~finishing
        flat = live & ~granting
        if flat.any():
            # Rows whose active sessions all absorb their full share:
            # spend the rest of the capacity proportionally and stop.
            served = np.where(
                flat[:, None] & active, served + shares, served
            )
            remaining = np.where(flat, 0.0, remaining)
    return served


def gps_slot_allocation(
    work: np.ndarray, phis: np.ndarray, capacity: float
) -> np.ndarray:
    """Allocate one slot's capacity among sessions GPS-fashion.

    ``work[i]`` is the session's available work (backlog plus this
    slot's arrivals).  Water-filling: capacity is offered in proportion
    to the weights of still-active sessions; sessions whose work is
    below their share are fully served and their surplus is
    redistributed, iterating until the remaining sessions absorb their
    full proportional shares.  Terminates in at most ``N`` rounds.

    Returns the per-session service amounts; their total equals
    ``min(capacity, total work)`` (work conservation).
    """
    work_arr = np.ascontiguousarray(work, dtype=float)
    phi_arr = np.ascontiguousarray(phis, dtype=float)
    if work_arr.shape != phi_arr.shape:
        raise ValidationError("work and phis must have matching shapes")
    if np.any(work_arr < -_EPS):
        raise ValidationError("work amounts must be non-negative")
    return _batch_water_fill(
        work_arr[None, :], phi_arr, np.array([float(capacity)])
    )[0]


def busy_gps_slot_allocation(
    work: np.ndarray, phis: np.ndarray, capacity: float
) -> np.ndarray:
    """Water-fill one slot over a gathered *busy* slice (hot path).

    ``work`` and ``phis`` are the compressed vectors of the sessions
    that can possibly receive service this slot (everything with
    non-zero backlog or pending arrivals), gathered in ascending
    session order.  Sessions left out must have exactly zero work:
    because every reduction in :func:`_batch_water_fill` is strictly
    sequential (:func:`_row_sum`), the returned allocation is
    *bit-for-bit* the slice of the dense allocation over the full
    session vector — the streaming engine's busy-set path and the
    offline dense path are ``np.array_equal``, not merely close.

    Performs no validation or copies; inputs must be float64 and
    C-contiguous.  This is the kernel entry point shared by
    :class:`repro.online.engine.StreamingGPSServer` (gathered slices)
    and the offline servers (the full vector is the degenerate
    "everything is busy" slice).
    """
    return _batch_water_fill(
        work[None, :], phis, np.array([float(capacity)])
    )[0]


@dataclass(frozen=True)
class GPSSimResult:
    """Batch simulation traces for a fluid GPS server.

    All arrays have shape ``(num_sessions, num_slots)``.

    Attributes
    ----------
    arrivals:
        Per-slot arrivals fed to the server.
    served:
        Per-slot service received by each session.
    backlog:
        End-of-slot backlog of each session.
    rate:
        The server rate (capacity per slot).
    phis:
        The GPS weights.
    """

    arrivals: np.ndarray
    served: np.ndarray
    backlog: np.ndarray
    rate: float
    phis: tuple[float, ...]
    capacities: np.ndarray | None = None

    @property
    def num_sessions(self) -> int:
        """Number of sessions."""
        return self.arrivals.shape[0]

    @property
    def num_slots(self) -> int:
        """Number of simulated slots."""
        return self.arrivals.shape[1]

    def total_backlog(self) -> np.ndarray:
        """System backlog per slot (sum over sessions).

        Summed sequentially over sessions (not pairwise) so the value
        is bit-identical to the streaming engine's busy-set total: a
        sequential sum is invariant to the exact zeros contributed by
        idle sessions, a pairwise sum is not.
        """
        if self.backlog.shape[0] == 0:
            return np.zeros(self.backlog.shape[1])
        return np.cumsum(self.backlog, axis=0)[-1]

    def effective_capacities(self) -> np.ndarray:
        """Per-slot server capacity actually offered.

        Equals ``rate`` everywhere for an unfaulted run; under fault
        injection it reflects the degraded/outage windows.
        """
        if self.capacities is not None:
            return self.capacities
        return np.full(self.num_slots, self.rate)

    def utilization(self) -> float:
        """Fraction of offered server capacity actually used."""
        offered = float(self.effective_capacities().sum())
        if offered <= 0.0:
            return 0.0
        return float(self.served.sum()) / offered

    def session_delays(self, session: int) -> np.ndarray:
        """The delay process ``D_i(t)`` in slots, for each slot ``t``.

        ``D_i(t)`` is the time until the backlog present at the end of
        slot ``t`` has been completely served (FCFS within the session)
        — the quantity bounded by the delay theorems.  Slots whose
        backlog never clears within the simulated horizon are reported
        as ``nan`` and should be excluded (or the horizon extended).
        """
        cumulative_arrivals = np.cumsum(self.arrivals[session])
        cumulative_service = np.cumsum(self.served[session])
        return clearing_delays(cumulative_arrivals, cumulative_service)

    def busy_fraction(self, session: int) -> float:
        """Fraction of slots in which the session is backlogged."""
        return float(np.mean(self.backlog[session] > _EPS))

    # ------------------------------------------------------------------
    # unified result protocol (repro.sim.results.SimResult)
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """JSON-serializable scalar summary of the run."""
        return {
            "kind": "fluid_gps",
            "num_sessions": self.num_sessions,
            "num_slots": self.num_slots,
            "rate": self.rate,
            "phis": list(self.phis),
            "utilization": self.utilization(),
            "total_arrived": float(self.arrivals.sum()),
            "total_served": float(self.served.sum()),
            "final_backlog": [float(b) for b in self.backlog[:, -1]],
            "max_total_backlog": float(self.total_backlog().max()),
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


def clearing_delays(
    cumulative_arrivals: np.ndarray, cumulative_service: np.ndarray
) -> np.ndarray:
    """Slots until the work arrived by each slot is fully served.

    ``delays[t] = min{d >= 0 : S(t + d) >= A(t)}`` with ``A``/``S`` the
    cumulative arrival/service curves; ``nan`` when the horizon ends
    first.  Two-pointer scan, O(T).
    """
    arr = np.asarray(cumulative_arrivals, dtype=float)
    srv = np.asarray(cumulative_service, dtype=float)
    if arr.shape != srv.shape:
        raise ValidationError("cumulative curves must have matching shapes")
    horizon = arr.size
    delays = np.full(horizon, np.nan)
    pointer = 0
    for t in range(horizon):
        # Scale-aware tolerance: cumulative sums accumulate rounding
        # error proportional to their magnitude; without it a few
        # nano-units of phantom backlog can inflate a delay by many
        # slots (until the next real arrival pushes the curve up).
        target = arr[t] - 1e-9 * (1.0 + abs(arr[t]))
        if pointer < t:
            pointer = t
        while pointer < horizon and srv[pointer] < target:
            pointer += 1
        if pointer < horizon:
            delays[t] = pointer - t
    return delays


class _FluidServer:
    """Construction shared by the scalar and the batched fluid server.

    Keyword-only: ``rate=`` (server capacity per slot) and ``phis=``
    (GPS weights, one per session), or ``scenario=`` — a
    :class:`repro.scenario.Scenario`, or any object exposing ``rate``
    and ``phis`` — instead of both.  All argument validation happens
    here, at construction time; subclasses define :meth:`reset`,
    which starts them empty.
    """

    def __init__(
        self,
        *,
        rate: float | None = None,
        phis=None,
        scenario=None,
    ) -> None:
        if scenario is not None:
            if rate is not None or phis is not None:
                raise ValidationError(
                    "pass either scenario= or explicit rate=/phis=, "
                    "not both"
                )
            rate = scenario.rate
            phis = scenario.phis
        if rate is None or phis is None:
            raise ValidationError(
                f"{type(self).__name__} requires rate= and phis= "
                "(or scenario=)"
            )
        check_positive("rate", rate)
        self._phis = np.ascontiguousarray(
            check_weights("phis", list(phis)), dtype=float
        )
        self._rate = float(rate)
        self.reset()

    @property
    def rate(self) -> float:
        """Server capacity per slot."""
        return self._rate

    @property
    def num_sessions(self) -> int:
        """Number of sessions."""
        return self._phis.size


class FluidGPSServer(_FluidServer):
    """Stateful slot-stepped fluid GPS server.

    Construction is keyword-only::

        FluidGPSServer(rate=1.0, phis=[2.0, 1.0])
        FluidGPSServer(scenario=scenario)       # repro.scenario.Scenario

    :meth:`step` is the per-slot hot path (the network simulator calls
    it once per node per slot); :meth:`run` is the ``B = 1`` run of
    :class:`repro.sim.batch.BatchFluidGPSServer`.
    """

    @property
    def backlog(self) -> np.ndarray:
        """Current per-session backlog (copy)."""
        return self._backlog.copy()

    def reset(self) -> None:
        """Empty all queues."""
        self._backlog = np.zeros(self._phis.size)

    def step(self, arrivals, *, capacity: float | None = None) -> np.ndarray:
        """Advance one slot; returns per-session service amounts.

        ``capacity`` overrides the server rate for this slot only — the
        hook used by fault injection to model degraded or failed servers
        (``capacity=0`` is a full outage; the backlog simply accrues).
        """
        arr = np.ascontiguousarray(arrivals, dtype=float)
        if arr.shape != self._backlog.shape:
            raise ValidationError(
                f"expected {self._backlog.size} arrival entries, got "
                f"shape {arr.shape}"
            )
        check_arrivals(arr)
        if capacity is None:
            capacity = self._rate
        elif not 0.0 <= capacity < math.inf:
            raise ValidationError(
                f"capacity must be finite and non-negative, got {capacity}"
            )
        work = self._backlog + arr
        served = _batch_water_fill(
            work[None, :], self._phis, np.array([float(capacity)])
        )[0]
        self._backlog = np.clip(work - served, 0.0, None)
        return served

    def run(
        self,
        arrivals: np.ndarray,
        *,
        capacities: np.ndarray | None = None,
    ) -> GPSSimResult:
        """Simulate a whole arrival matrix ``(num_sessions, num_slots)``.

        The server state is reset first, so ``run`` is reproducible;
        afterwards it holds the final backlog.  ``capacities`` (length
        ``num_slots``) overrides the per-slot server capacity, e.g. a
        degraded-rate window produced by
        :meth:`repro.faults.FaultSchedule.node_capacities`.

        This is ``BatchFluidGPSServer.run(arrivals[None],
        capacities=capacities).trial(0)``: one slot loop, one set of
        checks, and the same zero-slot rule (a ``ValidationError``).
        """
        from repro.sim.batch import BatchFluidGPSServer

        batch = BatchFluidGPSServer(rate=self._rate, phis=self._phis).run(
            np.asarray(arrivals, dtype=float)[None],
            capacities=capacities,
        )
        self._backlog = batch.backlog[0, :, -1].copy()
        return batch.trial(0)
