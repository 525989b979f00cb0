"""Convert fluid slot traces into packet workloads.

Bridges the fluid world of the analysis (per-slot traffic amounts) and
the packet world of :mod:`repro.sim.packet`: each session's fluid
arrivals are chopped into packets, with packets released at the
(sub-slot) instants at which the fluid crosses packet boundaries.
This is how the PGPS ablation drives the WFQ simulator with the same
stochastic sources the fluid analysis uses.

Packet sizes come from a :class:`PacketSizeModel`:

* :class:`FixedSize` — the classical fixed-length chopper (and the
  model behind the original :func:`packetize_trace` API, which is kept
  bit-for-bit compatible);
* :class:`UniformSize` — lengths uniform on ``[low, high]``;
* :class:`TruncatedGeometricSize` — lengths ``k * quantum`` with ``k``
  truncated-geometric, the classical packet-length model with an
  explicit ``L_max`` (the quantity the Parekh–Gallager ``L_max / r``
  correction is about).

Every model exposes ``max_size`` — the a-priori ``L_max`` feeding
:class:`repro.core.pgps.PacketizationPenalty` — and samples from a
caller-provided :class:`numpy.random.Generator`, so workloads are
reproducible from a seed (see :func:`packetize_traces_model` and
:meth:`repro.scenario.Scenario.to_packet_trace`).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ValidationError
from repro.sim.packet import Packet
from repro.utils.validation import check_positive

__all__ = [
    "FixedSize",
    "PacketSizeModel",
    "TruncatedGeometricSize",
    "UniformSize",
    "packetize_trace",
    "packetize_trace_model",
    "packetize_traces",
    "packetize_traces_model",
]


class PacketSizeModel(ABC):
    """A distribution over packet lengths.

    ``sample`` draws the *next* packet's length; the chopper calls it
    once per packet, in packet order, so a given generator state yields
    a deterministic workload.
    """

    @property
    @abstractmethod
    def max_size(self) -> float:
        """The largest length the model can emit (``L_max``)."""

    @abstractmethod
    def sample(self, rng: np.random.Generator | None) -> float:
        """Draw one packet length."""


class FixedSize(PacketSizeModel):
    """Every packet has the same length (the classical chopper)."""

    def __init__(self, size: float) -> None:
        check_positive("size", size)
        self._size = float(size)

    @property
    def size(self) -> float:
        """The fixed packet length."""
        return self._size

    @property
    def max_size(self) -> float:
        """The fixed length is also the maximum."""
        return self._size

    def sample(self, rng: np.random.Generator | None) -> float:
        """The fixed length; no randomness consumed."""
        return self._size

    def __repr__(self) -> str:
        return f"FixedSize({self._size!r})"


class UniformSize(PacketSizeModel):
    """Packet lengths uniform on ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        check_positive("low", low)
        check_positive("high", high)
        if high < low:
            raise ValidationError(
                f"high must be >= low, got low={low}, high={high}"
            )
        self._low = float(low)
        self._high = float(high)

    @property
    def low(self) -> float:
        """The smallest length."""
        return self._low

    @property
    def high(self) -> float:
        """The largest length."""
        return self._high

    @property
    def max_size(self) -> float:
        """``high`` — the support's upper end."""
        return self._high

    def sample(self, rng: np.random.Generator | None) -> float:
        """One uniform draw from the generator."""
        if rng is None:
            raise ValidationError(
                "UniformSize needs a random generator to sample from"
            )
        return float(rng.uniform(self._low, self._high))

    def __repr__(self) -> str:
        return f"UniformSize({self._low!r}, {self._high!r})"


class TruncatedGeometricSize(PacketSizeModel):
    """Lengths ``k * quantum`` with ``k`` truncated-geometric.

    ``k`` ranges over ``1..k_max`` where ``k_max = floor(l_max /
    quantum)``; ``P(k) ∝ (1 - p)^(k - 1) p``, renormalized over the
    truncated support.  ``p`` close to 1 concentrates on minimum-size
    packets; small ``p`` pushes mass toward ``L_max`` — the knob the
    gap experiments sweep against the ``L_max / r`` bound.
    """

    def __init__(self, quantum: float, p: float, l_max: float) -> None:
        check_positive("quantum", quantum)
        check_positive("l_max", l_max)
        if not 0.0 < p < 1.0:
            raise ValidationError(
                f"p must lie strictly in (0, 1), got {p}"
            )
        k_max = int(math.floor(float(l_max) / float(quantum)))
        if k_max < 1:
            raise ValidationError(
                f"l_max={l_max} admits no packet: it is smaller than "
                f"quantum={quantum}"
            )
        self._quantum = float(quantum)
        self._p = float(p)
        self._k_max = k_max
        # Inverse-CDF table over the truncated support.
        pmf = self._p * (1.0 - self._p) ** np.arange(k_max)
        self._cdf = np.cumsum(pmf / pmf.sum())
        self._cdf[-1] = 1.0

    @property
    def quantum(self) -> float:
        """The length quantum (the minimum packet length)."""
        return self._quantum

    @property
    def p(self) -> float:
        """The geometric success probability."""
        return self._p

    @property
    def k_max(self) -> int:
        """The largest multiple of ``quantum`` the model emits."""
        return self._k_max

    @property
    def max_size(self) -> float:
        """``k_max * quantum`` — the truncation point."""
        return self._k_max * self._quantum

    def sample(self, rng: np.random.Generator | None) -> float:
        """One truncated-geometric draw (inverse CDF)."""
        if rng is None:
            raise ValidationError(
                "TruncatedGeometricSize needs a random generator to "
                "sample from"
            )
        k = int(np.searchsorted(self._cdf, rng.random(), side="right"))
        return (min(k, self._k_max - 1) + 1) * self._quantum

    def __repr__(self) -> str:
        return (
            f"TruncatedGeometricSize({self._quantum!r}, {self._p!r}, "
            f"{self.max_size!r})"
        )


def packetize_trace_model(
    increments: np.ndarray,
    session: int,
    model: PacketSizeModel,
    rng: np.random.Generator | None = None,
) -> list[Packet]:
    """Chop one session's fluid trace into model-sized packets.

    A packet's length is drawn when the *previous* packet completes;
    the packet is released at the first instant the cumulative fluid
    reaches the resulting boundary.  Within a slot the fluid arrives
    at a constant rate, so release times interpolate linearly inside
    the slot.  Residual fluid smaller than the pending packet at the
    end of the trace is dropped (it never completed a packet).

    With :class:`FixedSize` this reproduces :func:`packetize_trace`
    bit for bit — the boundary accumulation is the same float
    sequence.
    """
    if session < 0:
        raise ValidationError(f"session must be >= 0, got {session}")
    arr = np.asarray(increments, dtype=float)
    if np.any(arr < 0.0):
        raise ValidationError("arrivals must be non-negative")
    packets: list[Packet] = []
    cumulative = 0.0
    pending_size = model.sample(rng)
    next_boundary = pending_size
    for slot, amount in enumerate(arr):
        if amount <= 0.0:
            continue
        slot_start_cum = cumulative
        cumulative += float(amount)
        while cumulative >= next_boundary - 1e-12:
            fraction = (next_boundary - slot_start_cum) / amount
            fraction = min(max(fraction, 0.0), 1.0)
            packets.append(
                Packet(
                    session=session,
                    size=pending_size,
                    arrival_time=slot + fraction,
                )
            )
            pending_size = model.sample(rng)
            next_boundary += pending_size
    return packets


def packetize_trace(
    increments: np.ndarray,
    session: int,
    packet_size: float,
) -> list[Packet]:
    """Chop one session's fluid trace into fixed-size packets.

    The original fixed-length API; equivalent to
    :func:`packetize_trace_model` with :class:`FixedSize` (and kept as
    the convenient spelling for the common case).
    """
    check_positive("packet_size", packet_size)
    return packetize_trace_model(
        increments, session, FixedSize(packet_size)
    )


def packetize_traces(
    traces: np.ndarray, packet_size: float
) -> list[Packet]:
    """Packetize a ``(num_sessions, num_slots)`` fluid matrix.

    Returns all packets merged in ``(arrival_time, session)`` order,
    ready for :meth:`repro.packet.engine.PacketEngine.run`.
    """
    check_positive("packet_size", packet_size)
    return packetize_traces_model(traces, FixedSize(packet_size))


def packetize_traces_model(
    traces: np.ndarray,
    model: PacketSizeModel,
    *,
    seed: int | tuple | None = None,
) -> list[Packet]:
    """Packetize a fluid matrix with model-drawn packet lengths.

    Each session gets an independent generator spawned from ``seed``
    via ``SeedSequence(entropy=seed, spawn_key=(session,))`` — the
    workload for session ``i`` does not change when other sessions are
    added or removed.  Returns all packets merged in ``(arrival_time,
    session)`` order, the canonical admission order of
    :class:`repro.packet.engine.PacketEngine`.
    """
    matrix = np.asarray(traces, dtype=float)
    if matrix.ndim != 2:
        raise ValidationError(
            f"traces must be 2-D (sessions x slots), got {matrix.shape}"
        )
    packets: list[Packet] = []
    for session in range(matrix.shape[0]):
        rng = None
        if seed is not None:
            rng = np.random.default_rng(
                np.random.SeedSequence(
                    entropy=seed, spawn_key=(session,)
                )
            )
        packets.extend(
            packetize_trace_model(
                matrix[session], session, model, rng
            )
        )
    packets.sort(key=lambda p: (p.arrival_time, p.session))
    return packets
