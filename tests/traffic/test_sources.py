"""Tests for the traffic generators."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.markov.chain import DTMC
from repro.markov.mmpp import MarkovModulatedSource
from repro.markov.onoff import OnOffSource
from repro.traffic.sources import (
    BernoulliBurstTraffic,
    CompoundTraffic,
    ConstantBitRateTraffic,
    MarkovModulatedTraffic,
    OnOffTraffic,
    UniformNoiseTraffic,
    _onoff_states,
)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestOnOffTraffic:
    def test_values_are_zero_or_peak(self):
        gen = OnOffTraffic(OnOffSource(0.3, 0.7, 0.5))
        trace = gen.generate(1000, rng())
        assert set(np.unique(trace)).issubset({0.0, 0.5})

    def test_reproducible(self):
        gen = OnOffTraffic(OnOffSource(0.3, 0.7, 0.5))
        a = gen.generate(500, rng(42))
        b = gen.generate(500, rng(42))
        np.testing.assert_array_equal(a, b)

    def test_mean_rate_converges(self):
        gen = OnOffTraffic(OnOffSource(0.3, 0.7, 0.5))
        trace = gen.generate(200_000, rng(1))
        assert trace.mean() == pytest.approx(gen.mean_rate, rel=0.03)

    def test_transition_frequencies(self):
        p, q = 0.25, 0.4
        gen = OnOffTraffic(OnOffSource(p, q, 1.0))
        trace = gen.generate(300_000, rng(2))
        on = trace > 0
        # P(on -> off) ~ q, P(off -> on) ~ p
        on_to_off = np.mean(~on[1:][on[:-1]])
        off_to_on = np.mean(on[1:][~on[:-1]])
        assert on_to_off == pytest.approx(q, rel=0.05)
        assert off_to_on == pytest.approx(p, rel=0.05)

    def test_rejects_bad_num_slots(self):
        gen = OnOffTraffic(OnOffSource(0.3, 0.7, 0.5))
        with pytest.raises(ValueError):
            gen.generate(0, rng())


class TestMarkovModulatedTraffic:
    def make_source(self):
        chain = DTMC(
            np.array(
                [
                    [0.6, 0.3, 0.1],
                    [0.3, 0.4, 0.3],
                    [0.1, 0.4, 0.5],
                ]
            )
        )
        return MarkovModulatedSource(chain, [0.0, 1.0, 2.0])

    def test_values_are_state_rates(self):
        gen = MarkovModulatedTraffic(self.make_source())
        trace = gen.generate(2000, rng(3))
        assert set(np.unique(trace)).issubset({0.0, 1.0, 2.0})

    def test_mean_rate_converges(self):
        gen = MarkovModulatedTraffic(self.make_source())
        trace = gen.generate(200_000, rng(4))
        assert trace.mean() == pytest.approx(gen.mean_rate, rel=0.03)

    def test_state_occupancy_matches_stationary(self):
        source = self.make_source()
        gen = MarkovModulatedTraffic(source)
        trace = gen.generate(300_000, rng(5))
        pi = source.chain.stationary_distribution()
        for state, rate in enumerate(source.rates):
            occupancy = np.mean(trace == rate)
            assert occupancy == pytest.approx(pi[state], abs=0.01)


class TestConstantBitRate:
    def test_constant(self):
        gen = ConstantBitRateTraffic(0.7)
        trace = gen.generate(100, rng())
        np.testing.assert_allclose(trace, 0.7)
        assert gen.mean_rate == gen.peak_rate == 0.7


class TestBernoulliBurst:
    def test_values(self):
        gen = BernoulliBurstTraffic(0.3, 2.0)
        trace = gen.generate(10_000, rng(6))
        assert set(np.unique(trace)).issubset({0.0, 2.0})
        assert trace.mean() == pytest.approx(0.6, rel=0.05)

    def test_mean_and_peak(self):
        gen = BernoulliBurstTraffic(0.25, 4.0)
        assert gen.mean_rate == 1.0
        assert gen.peak_rate == 4.0


class TestUniformNoise:
    def test_range_and_mean(self):
        gen = UniformNoiseTraffic(0.1, 0.5)
        trace = gen.generate(50_000, rng(7))
        assert trace.min() >= 0.1
        assert trace.max() <= 0.5
        assert trace.mean() == pytest.approx(0.3, rel=0.02)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            UniformNoiseTraffic(0.5, 0.5)


class TestCompoundTraffic:
    def test_sum_of_components(self):
        gen = CompoundTraffic(
            (ConstantBitRateTraffic(0.2), ConstantBitRateTraffic(0.3))
        )
        trace = gen.generate(10, rng())
        np.testing.assert_allclose(trace, 0.5)
        assert gen.mean_rate == pytest.approx(0.5)
        assert gen.peak_rate == pytest.approx(0.5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CompoundTraffic(())

    def test_mixed_components_mean(self):
        gen = CompoundTraffic(
            (
                BernoulliBurstTraffic(0.5, 1.0),
                OnOffTraffic(OnOffSource(0.3, 0.7, 0.5)),
            )
        )
        trace = gen.generate(200_000, rng(8))
        assert trace.mean() == pytest.approx(gen.mean_rate, rel=0.03)


# ----------------------------------------------------------------------
# the loop-free on-off sampler against the per-slot chain walk
# ----------------------------------------------------------------------
def _walk(uniforms, p, q, state):
    """The chain stepped one slot at a time: the reference."""
    states = np.empty(len(uniforms), dtype=bool)
    for t, u in enumerate(uniforms):
        state = u >= q if state else u < p
        states[t] = state
    return states


def _loop_generate(model, num_slots, rng):
    """``OnOffTraffic.generate`` as a per-slot loop (same draw order)."""
    uniforms = rng.random(num_slots)
    state = bool(rng.random() < model.on_probability)
    return np.where(
        _walk(uniforms, model.p, model.q, state), model.peak_rate, 0.0
    )


def _loop_generate_batch(model, num_trials, num_slots, rng):
    """``OnOffTraffic.generate_batch`` as a per-slot loop over the
    whole state vector (same draw order)."""
    state = rng.random(num_trials) < model.on_probability
    uniforms = rng.random((num_trials, num_slots))
    states = np.empty((num_trials, num_slots), dtype=bool)
    for t in range(num_slots):
        u = uniforms[:, t]
        state = np.where(state, u >= model.q, u < model.p)
        states[:, t] = state
    return np.where(states, model.peak_rate, 0.0)


_prob = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
_seed = st.integers(min_value=0, max_value=2**32 - 1)


class TestLoopFreeOnOff:
    @given(_prob, _prob, st.integers(1, 400), _seed)
    @example(1.0, 0.3, 50, 1)
    @example(0.3, 1.0, 50, 2)
    @example(1.0, 1.0, 50, 3)
    @example(0.3, 0.7, 200, 4)
    @example(0.999999, 1e-9, 200, 5)
    @example(1e-9, 1e-9, 200, 6)
    @example(5e-324, 0.5, 20, 7)
    @example(0.5, 0.5, 1, 8)
    def test_generate_equals_the_loop(self, p, q, num_slots, seed):
        model = OnOffSource(p, q, 0.7)
        expected = _loop_generate(model, num_slots, rng(seed))
        got = OnOffTraffic(model).generate(num_slots, rng(seed))
        assert np.array_equal(got, expected)

    @given(
        _prob, _prob, st.integers(1, 6), st.integers(1, 120), _seed
    )
    @example(1.0, 0.3, 3, 50, 1)
    @example(0.3, 1.0, 3, 50, 2)
    @example(1.0, 1.0, 3, 50, 3)
    @example(0.3, 0.7, 4, 100, 4)
    @example(1e-9, 1e-9, 2, 100, 5)
    @example(0.5, 0.5, 5, 1, 6)
    def test_generate_batch_equals_the_loop(
        self, p, q, num_trials, num_slots, seed
    ):
        model = OnOffSource(p, q, 0.7)
        expected = _loop_generate_batch(
            model, num_trials, num_slots, rng(seed)
        )
        got = OnOffTraffic(model).generate_batch(
            num_trials, num_slots, rng(seed)
        )
        assert np.array_equal(got, expected)

    @given(
        _prob,
        _prob,
        st.booleans(),
        st.lists(
            st.sampled_from(["p", "q", "zero", "free"]), min_size=1
        ),
        _seed,
    )
    def test_ties_at_p_and_q_follow_the_walk(
        self, p, q, initial, picks, seed
    ):
        """Uniforms exactly at ``p`` or ``q`` take the walk's branch."""
        free = rng(seed).random(len(picks))
        values = {"p": p, "q": q, "zero": 0.0}
        uniforms = np.array(
            [values.get(pick, f) for pick, f in zip(picks, free)]
        )
        assert np.array_equal(
            _onoff_states(uniforms, p, q, initial),
            _walk(uniforms, p, q, initial),
        )
