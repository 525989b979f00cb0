"""Tests for empirical decay-rate estimation."""

import numpy as np
import pytest

from repro.sim.decay import estimate_decay_rate


class TestEstimateDecayRate:
    def test_recovers_exponential_rate(self):
        rng = np.random.default_rng(0)
        samples = rng.exponential(scale=0.5, size=300_000)
        fit = estimate_decay_rate(samples)
        assert fit.decay_rate == pytest.approx(2.0, rel=0.05)
        assert fit.residual < 0.2

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        base = rng.exponential(scale=1.0, size=200_000)
        half = estimate_decay_rate(base)
        double = estimate_decay_rate(2.0 * base)
        assert double.decay_rate == pytest.approx(
            half.decay_rate / 2.0, rel=0.05
        )

    def test_evaluate_matches_fit(self):
        rng = np.random.default_rng(2)
        samples = rng.exponential(size=100_000)
        fit = estimate_decay_rate(samples)
        x = float(fit.xs[len(fit.xs) // 2])
        assert fit.evaluate(x) == pytest.approx(
            np.exp(fit.log_prefactor - fit.decay_rate * x)
        )

    def test_heavy_tail_flagged_by_residual(self):
        """A Pareto tail is not exponential; the fit still returns but
        with a visibly larger residual than an exponential fit."""
        rng = np.random.default_rng(3)
        exponential = estimate_decay_rate(
            rng.exponential(size=200_000)
        )
        pareto = estimate_decay_rate(rng.pareto(1.5, size=200_000))
        assert pareto.residual > exponential.residual

    def test_rejects_tiny_samples(self):
        with pytest.raises(ValueError, match="at least 100"):
            estimate_decay_rate(np.ones(10))

    def test_rejects_degenerate_tail(self):
        with pytest.raises(ValueError, match="degenerate"):
            estimate_decay_rate(np.ones(1000))

    def test_gps_backlog_decay_at_least_bound_decay(self):
        """End-to-end consistency: the analytic decay is a valid lower
        bound on the empirical decay of a GPS session backlog."""
        from repro.core.gps import rpps_config
        from repro.analysis.single_node import theorem10_bounds
        from repro.markov.lnt94 import ebb_characterization
        from repro.markov.onoff import OnOffSource
        from repro.sim.fluid import FluidGPSServer
        from repro.traffic.sources import OnOffTraffic

        models = [
            OnOffSource(0.3, 0.7, 0.5),
            OnOffSource(0.4, 0.4, 0.4),
        ]
        rhos = [0.3, 0.35]
        config = rpps_config(
            1.0,
            [
                (f"s{i}", ebb_characterization(m.as_mms(), rho))
                for i, (m, rho) in enumerate(zip(models, rhos))
            ],
        )
        rng = np.random.default_rng(4)
        arrivals = np.vstack(
            [
                OnOffTraffic(m).generate(250_000, rng)
                for m in models
            ]
        )
        result = FluidGPSServer(rate=1.0, phis=list(config.phis)).run(arrivals)
        for i in range(2):
            samples = result.backlog[i][1000:]
            if (samples > 0).mean() < 0.05:
                continue
            fit = estimate_decay_rate(
                samples[samples >= 0],
                lower_quantile=0.95,
                upper_probability=3e-4,
            )
            bound = theorem10_bounds(config, i, discrete=True)
            assert fit.decay_rate >= bound.backlog.decay_rate * 0.9
