"""Discrete-time traffic generators for the simulators.

Each generator produces a numpy array of per-slot arrival amounts
(fluid units per slot).  Generators are deterministic given a seed, so
simulations are exactly reproducible; every generator also exposes its
analytical counterparts (mean rate, and where available the E.B.B. /
Markov-modulated model) so simulation and analysis stay in sync.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.markov.mmpp import MarkovModulatedSource
from repro.markov.onoff import OnOffSource
from repro.utils.validation import (
    check_nonnegative,
    check_positive,
    check_probability,
)

from repro.errors import ValidationError

__all__ = [
    "TrafficSource",
    "OnOffTraffic",
    "MarkovModulatedTraffic",
    "ConstantBitRateTraffic",
    "BernoulliBurstTraffic",
    "UniformNoiseTraffic",
    "CompoundTraffic",
]


def _onoff_states(
    uniforms: np.ndarray, p: float, q: float, initial: "bool | np.ndarray"
) -> np.ndarray:
    """On-off chain states driven by ``uniforms`` along the last axis.

    Equal, element for element, to stepping the chain one slot at a
    time (from on: stay on iff ``u >= q``; from off: turn on iff
    ``u < p``), starting from ``initial`` (a bool, or one per row with
    a trailing length-1 axis).  Where the two rules agree the step
    resets the chain to that value; where only ``u < p`` holds it flips
    the chain; otherwise it keeps the state.  So each state is the value
    at the last reset (or ``initial``) XOR the parity of the flips since.
    """
    from_on = uniforms >= q
    from_off = uniforms < p
    reset = from_on == from_off
    flips = np.cumsum(from_off & ~from_on, axis=-1)
    slots = np.arange(uniforms.shape[-1])
    last = np.maximum.accumulate(np.where(reset, slots, -1), axis=-1)
    seen = last >= 0
    at = np.maximum(last, 0)
    base = np.where(
        seen, np.take_along_axis(from_on, at, axis=-1), initial
    )
    since = flips - np.where(seen, np.take_along_axis(flips, at, axis=-1), 0)
    return base ^ (since & 1).astype(bool)


class TrafficSource(ABC):
    """A stationary discrete-time traffic source."""

    @abstractmethod
    def generate(
        self, num_slots: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Return ``num_slots`` per-slot arrival amounts."""

    def generate_batch(
        self, num_trials: int, num_slots: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Return ``(num_trials, num_slots)`` independent sample paths.

        The base implementation stacks :meth:`generate` calls on the
        shared generator; vectorized sources override it to draw the
        whole batch at once (same marginal law, different stream
        layout) for the batched simulation engine.
        """
        if num_trials <= 0:
            raise ValidationError(
                f"num_trials must be positive, got {num_trials}"
            )
        return np.stack(
            [self.generate(num_slots, rng) for _ in range(num_trials)]
        )

    @property
    @abstractmethod
    def mean_rate(self) -> float:
        """Long-run average arrival rate (units per slot)."""

    @property
    @abstractmethod
    def peak_rate(self) -> float:
        """Maximum possible arrival in a single slot."""


@dataclass(frozen=True)
class OnOffTraffic(TrafficSource):
    """Sample-path generator for the two-state on-off Markov source.

    The stationary chain is sampled directly: the initial state comes
    from the stationary distribution, and transitions use the (p, q)
    probabilities of the analytical :class:`OnOffSource` model.
    """

    model: OnOffSource

    def generate(
        self, num_slots: int, rng: np.random.Generator
    ) -> np.ndarray:
        if num_slots <= 0:
            raise ValidationError(f"num_slots must be positive, got {num_slots}")
        uniforms = rng.random(num_slots)
        initial = rng.random() < self.model.on_probability
        states = _onoff_states(uniforms, self.model.p, self.model.q, initial)
        return np.where(states, self.model.peak_rate, 0.0)

    def generate_batch(
        self, num_trials: int, num_slots: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Vectorized across trials: every row is one chain, sampled by
        :func:`_onoff_states` along the slot axis."""
        if num_trials <= 0:
            raise ValidationError(
                f"num_trials must be positive, got {num_trials}"
            )
        if num_slots <= 0:
            raise ValidationError(f"num_slots must be positive, got {num_slots}")
        initial = rng.random(num_trials) < self.model.on_probability
        uniforms = rng.random((num_trials, num_slots))
        states = _onoff_states(
            uniforms, self.model.p, self.model.q, initial[:, None]
        )
        return np.where(states, self.model.peak_rate, 0.0)

    @property
    def mean_rate(self) -> float:
        return self.model.mean_rate

    @property
    def peak_rate(self) -> float:
        return self.model.peak_rate


@dataclass(frozen=True)
class MarkovModulatedTraffic(TrafficSource):
    """Sample-path generator for a general Markov-modulated source."""

    model: MarkovModulatedSource

    def generate(
        self, num_slots: int, rng: np.random.Generator
    ) -> np.ndarray:
        if num_slots <= 0:
            raise ValidationError(f"num_slots must be positive, got {num_slots}")
        transition = self.model.chain.transition
        pi = self.model.chain.stationary_distribution()
        num_states = self.model.num_states
        # Pre-draw uniforms; walk the chain with cumulative rows.
        cumulative = np.cumsum(transition, axis=1)
        state = int(rng.choice(num_states, p=pi))
        uniforms = rng.random(num_slots)
        states = np.empty(num_slots, dtype=np.int64)
        for t in range(num_slots):
            state = int(np.searchsorted(cumulative[state], uniforms[t]))
            states[t] = state
        return self.model.rates[states]

    def generate_batch(
        self, num_trials: int, num_slots: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Vectorized across trials: the whole batch of chains steps
        together, one row-wise inverse-CDF lookup per slot."""
        if num_trials <= 0:
            raise ValidationError(
                f"num_trials must be positive, got {num_trials}"
            )
        if num_slots <= 0:
            raise ValidationError(f"num_slots must be positive, got {num_slots}")
        transition = self.model.chain.transition
        pi = self.model.chain.stationary_distribution()
        cumulative = np.cumsum(transition, axis=1)
        state = rng.choice(
            self.model.num_states, size=num_trials, p=pi
        )
        uniforms = rng.random((num_trials, num_slots))
        states = np.empty((num_trials, num_slots), dtype=np.int64)
        for t in range(num_slots):
            rows = cumulative[state]
            state = (rows < uniforms[:, t, None]).sum(axis=1)
            states[:, t] = state
        return self.model.rates[states]

    @property
    def mean_rate(self) -> float:
        return self.model.mean_rate

    @property
    def peak_rate(self) -> float:
        return self.model.peak_rate


@dataclass(frozen=True)
class ConstantBitRateTraffic(TrafficSource):
    """A CBR source emitting exactly ``rate`` units every slot."""

    rate: float

    def __post_init__(self) -> None:
        check_positive("rate", self.rate)

    def generate(
        self, num_slots: int, rng: np.random.Generator
    ) -> np.ndarray:
        del rng
        if num_slots <= 0:
            raise ValidationError(f"num_slots must be positive, got {num_slots}")
        return np.full(num_slots, self.rate)

    def generate_batch(
        self, num_trials: int, num_slots: int, rng: np.random.Generator
    ) -> np.ndarray:
        del rng
        if num_trials <= 0:
            raise ValidationError(
                f"num_trials must be positive, got {num_trials}"
            )
        if num_slots <= 0:
            raise ValidationError(f"num_slots must be positive, got {num_slots}")
        return np.full((num_trials, num_slots), self.rate)

    @property
    def mean_rate(self) -> float:
        return self.rate

    @property
    def peak_rate(self) -> float:
        return self.rate


@dataclass(frozen=True)
class BernoulliBurstTraffic(TrafficSource):
    """I.i.d. bursts: each slot emits ``burst_size`` with probability
    ``burst_probability`` and nothing otherwise.

    The memoryless special case of the on-off source (``p = 1 - q``);
    handy in property-based tests because every interval statistic has
    a closed form.
    """

    burst_probability: float
    burst_size: float

    def __post_init__(self) -> None:
        check_probability("burst_probability", self.burst_probability)
        check_positive("burst_size", self.burst_size)

    def generate(
        self, num_slots: int, rng: np.random.Generator
    ) -> np.ndarray:
        if num_slots <= 0:
            raise ValidationError(f"num_slots must be positive, got {num_slots}")
        hits = rng.random(num_slots) < self.burst_probability
        return np.where(hits, self.burst_size, 0.0)

    def generate_batch(
        self, num_trials: int, num_slots: int, rng: np.random.Generator
    ) -> np.ndarray:
        if num_trials <= 0:
            raise ValidationError(
                f"num_trials must be positive, got {num_trials}"
            )
        if num_slots <= 0:
            raise ValidationError(f"num_slots must be positive, got {num_slots}")
        hits = rng.random((num_trials, num_slots)) < self.burst_probability
        return np.where(hits, self.burst_size, 0.0)

    @property
    def mean_rate(self) -> float:
        return self.burst_probability * self.burst_size

    @property
    def peak_rate(self) -> float:
        return self.burst_size


@dataclass(frozen=True)
class UniformNoiseTraffic(TrafficSource):
    """I.i.d. uniform arrivals on ``[low, high]`` per slot.

    A light-tailed non-Markov source used to exercise the estimation
    pipeline on traffic with no hidden state.
    """

    low: float
    high: float

    def __post_init__(self) -> None:
        check_nonnegative("low", self.low)
        if self.high <= self.low:
            raise ValidationError(
                f"need high > low, got [{self.low}, {self.high}]"
            )

    def generate(
        self, num_slots: int, rng: np.random.Generator
    ) -> np.ndarray:
        if num_slots <= 0:
            raise ValidationError(f"num_slots must be positive, got {num_slots}")
        return rng.uniform(self.low, self.high, size=num_slots)

    def generate_batch(
        self, num_trials: int, num_slots: int, rng: np.random.Generator
    ) -> np.ndarray:
        if num_trials <= 0:
            raise ValidationError(
                f"num_trials must be positive, got {num_trials}"
            )
        if num_slots <= 0:
            raise ValidationError(f"num_slots must be positive, got {num_slots}")
        return rng.uniform(
            self.low, self.high, size=(num_trials, num_slots)
        )

    @property
    def mean_rate(self) -> float:
        return 0.5 * (self.low + self.high)

    @property
    def peak_rate(self) -> float:
        return self.high


@dataclass(frozen=True)
class CompoundTraffic(TrafficSource):
    """Superposition of independent sources (their slot-wise sum).

    Models an aggregate session — e.g. a feasible-partition class
    treated as one flow — while keeping the constituent models.
    """

    components: tuple[TrafficSource, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValidationError("CompoundTraffic needs at least one component")

    def generate(
        self, num_slots: int, rng: np.random.Generator
    ) -> np.ndarray:
        total = np.zeros(num_slots)
        for component in self.components:
            total += component.generate(num_slots, rng)
        return total

    def generate_batch(
        self, num_trials: int, num_slots: int, rng: np.random.Generator
    ) -> np.ndarray:
        if num_trials <= 0:
            raise ValidationError(
                f"num_trials must be positive, got {num_trials}"
            )
        total = np.zeros((num_trials, num_slots))
        for component in self.components:
            total += component.generate_batch(num_trials, num_slots, rng)
        return total

    @property
    def mean_rate(self) -> float:
        return sum(c.mean_rate for c in self.components)

    @property
    def peak_rate(self) -> float:
        return sum(c.peak_rate for c in self.components)
