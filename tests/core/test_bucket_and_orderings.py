"""Tests for the sigma-bucket tail bound (footnote 3) and
feasible-ordering enumeration."""

import math

import numpy as np
import pytest

from repro.core.ebb import EBB
from repro.analysis.feasible import (
    all_feasible_orderings,
    find_feasible_ordering,
    is_feasible_ordering,
)
from repro.analysis.mgf import bucket_delta_tail_bound, lemma5_tail_bound


class TestBucketDeltaTailBound:
    def test_zero_bucket_equals_lemma5(self):
        arrival = EBB(0.3, 1.0, 2.0)
        base = lemma5_tail_bound(arrival, 0.5)
        bucket = bucket_delta_tail_bound(arrival, 0.5, 0.0)
        assert bucket.prefactor == pytest.approx(base.prefactor)

    def test_bucket_shifts_prefactor(self):
        arrival = EBB(0.3, 1.0, 2.0)
        base = lemma5_tail_bound(arrival, 0.5)
        sigma = 1.5
        bucket = bucket_delta_tail_bound(arrival, 0.5, sigma)
        assert bucket.prefactor == pytest.approx(
            base.prefactor * math.exp(-base.decay_rate * sigma)
        )
        assert bucket.decay_rate == base.decay_rate

    def test_equivalent_to_shifted_evaluation(self):
        arrival = EBB(0.3, 1.0, 2.0)
        sigma, x = 1.0, 2.0
        base = lemma5_tail_bound(arrival, 0.5)
        bucket = bucket_delta_tail_bound(arrival, 0.5, sigma)
        assert bucket.evaluate(x) == pytest.approx(
            base.evaluate(x + sigma)
        )

    def test_rejects_negative_bucket(self):
        with pytest.raises(ValueError):
            bucket_delta_tail_bound(EBB(0.3, 1.0, 2.0), 0.5, -1.0)

    def test_marking_validation(self):
        """The bucketed bound dominates the simulated bucketed marker
        backlog: max(delta - sigma, 0)."""
        from repro.markov.lnt94 import ebb_characterization
        from repro.markov.onoff import OnOffSource
        from repro.traffic.sources import OnOffTraffic

        model = OnOffSource(0.3, 0.6, 0.8)
        ebb = ebb_characterization(model.as_mms(), 0.4)
        rate, sigma = 0.5, 1.0
        bound = bucket_delta_tail_bound(ebb, rate, sigma)
        rng = np.random.default_rng(0)
        arrivals = OnOffTraffic(model).generate(150_000, rng)
        level = 0.0
        exceed = {0.5: 0, 1.0: 0, 2.0: 0}
        count = 0
        for a in arrivals:
            level = max(level + a - rate, 0.0)
            bucketed = max(level - sigma, 0.0)
            count += 1
            for x in exceed:
                if bucketed >= x:
                    exceed[x] += 1
        for x, hits in exceed.items():
            assert hits / count <= bound.evaluate(x) * 1.1


class TestAllFeasibleOrderings:
    def test_contains_canonical(self):
        rates = [0.3, 0.1, 0.2]
        phis = [1.0, 1.0, 1.0]
        orderings = all_feasible_orderings(rates, phis)
        canonical = find_feasible_ordering(rates, phis)
        assert canonical in orderings

    def test_all_returned_are_feasible(self):
        rates = [0.25, 0.2, 0.3, 0.15]
        phis = [0.5, 2.0, 1.0, 0.7]
        orderings = all_feasible_orderings(rates, phis)
        assert orderings
        for order in orderings:
            assert is_feasible_ordering(order, rates, phis)

    def test_exhaustive_against_brute_force(self):
        import itertools

        rates = [0.2, 0.25, 0.3]
        phis = [1.0, 0.8, 1.5]
        found = {
            tuple(o) for o in all_feasible_orderings(rates, phis)
        }
        brute = {
            perm
            for perm in itertools.permutations(range(3))
            if is_feasible_ordering(list(perm), rates, phis)
        }
        assert found == brute

    def test_equal_sessions_all_permutations_feasible(self):
        rates = [0.2, 0.2, 0.2]
        phis = [1.0, 1.0, 1.0]
        orderings = all_feasible_orderings(rates, phis)
        assert len(orderings) == 6

    def test_limit_enforced(self):
        rates = [0.05] * 8
        phis = [1.0] * 8
        with pytest.raises(ValueError, match="orderings"):
            all_feasible_orderings(rates, phis, limit=100)


class TestSensitivityCurve:
    def test_rho_sweep_shapes(self):
        from repro.experiments.sensitivity import rho_tradeoff_curve
        from repro.markov.onoff import OnOffSource

        source = OnOffSource(0.3, 0.7, 0.5).as_mms()
        points = rho_tradeoff_curve(
            source,
            guaranteed_rate=0.25,
            reference_delay=30.0,
            num_points=6,
        )
        assert len(points) >= 2
        alphas = [p.alpha for p in points]
        assert all(a < b for a, b in zip(alphas, alphas[1:]))
        rhos = [p.rho for p in points]
        assert min(rhos) > source.mean_rate
        assert max(rhos) < 0.25

    def test_rejects_low_guaranteed_rate(self):
        from repro.experiments.sensitivity import rho_tradeoff_curve
        from repro.markov.onoff import OnOffSource

        source = OnOffSource(0.3, 0.7, 0.5).as_mms()
        with pytest.raises(ValueError, match="exceed the mean"):
            rho_tradeoff_curve(
                source, guaranteed_rate=0.1, reference_delay=10.0
            )
