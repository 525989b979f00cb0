"""Tests for Lemma 5 / Lemma 6 virtual-queue bounds."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.ebb import EBB
from repro.analysis.mgf import (
    VirtualQueue,
    discrete_delta_tail_bound,
    lemma5_max_xi,
    lemma5_tail_bound,
    lemma6_log_mgf_bound,
    lemma6_optimal_xi,
    paper_remark_mgf_minimum,
)


def make_queue(rho=0.3, prefactor=1.0, alpha=2.0, rate=0.5) -> VirtualQueue:
    return VirtualQueue(EBB(rho, prefactor, alpha), rate)


class TestVirtualQueue:
    def test_slack(self):
        q = make_queue(rho=0.3, rate=0.5)
        assert q.slack == pytest.approx(0.2)

    def test_rejects_unstable(self):
        with pytest.raises(ValueError, match="exceed"):
            VirtualQueue(EBB(0.5, 1.0, 1.0), 0.5)


class TestLemma5:
    def test_prefactor_formula_at_given_xi(self):
        arrival = EBB(0.3, 1.0, 2.0)
        rate, xi = 0.5, 0.5
        bound = lemma5_tail_bound(arrival, rate, xi=xi)
        eps = rate - arrival.rho
        expected = (
            arrival.prefactor
            * math.exp(arrival.decay_rate * arrival.rho * xi)
            / (1.0 - math.exp(-arrival.decay_rate * eps * xi))
        )
        assert bound.prefactor == pytest.approx(expected)
        assert bound.decay_rate == arrival.decay_rate

    def test_default_xi_is_admissible_and_optimal(self):
        arrival = EBB(0.3, 1.0, 2.0)
        rate = 0.5
        default_bound = lemma5_tail_bound(arrival, rate)
        cap = lemma5_max_xi(arrival, rate)
        # Any admissible xi must not beat the default choice.
        for xi in [0.1 * cap, 0.5 * cap, cap]:
            other = lemma5_tail_bound(arrival, rate, xi=xi)
            assert default_bound.prefactor <= other.prefactor * (1 + 1e-9)

    def test_rejects_xi_beyond_cap(self):
        arrival = EBB(0.3, 1.0, 2.0)
        cap = lemma5_max_xi(arrival, 0.5)
        with pytest.raises(ValueError, match="cap"):
            lemma5_tail_bound(arrival, 0.5, xi=2.0 * cap)

    def test_zero_prefactor_short_circuit(self):
        bound = lemma5_tail_bound(EBB(0.3, 0.0, 2.0), 0.5)
        assert bound.prefactor == 0.0

    def test_rejects_unstable_rate(self):
        with pytest.raises(ValueError):
            lemma5_tail_bound(EBB(0.5, 1.0, 1.0), 0.4)

    @given(st.floats(0.31, 0.99), st.floats(0.1, 5.0), st.floats(0.5, 4.0))
    def test_prefactor_decreases_with_rate(self, rate, prefactor, alpha):
        """More service slack can only tighten the bound."""
        arrival = EBB(0.3, prefactor, alpha)
        tight = lemma5_tail_bound(arrival, rate)
        tighter = lemma5_tail_bound(arrival, rate + 0.5)
        assert tighter.prefactor <= tight.prefactor * (1 + 1e-9)


class TestLemma6:
    def test_matches_closed_form_xi1(self):
        arrival = EBB(0.3, 1.0, 2.0)
        rate, theta = 0.5, 1.0
        value = lemma6_log_mgf_bound(arrival, rate, theta, xi=1.0)
        eps = rate - arrival.rho
        expected = theta * (
            arrival.sigma_hat(theta) + arrival.rho
        ) - math.log(1.0 - math.exp(-theta * eps))
        assert value == pytest.approx(expected)

    def test_optimal_xi_minimizes(self):
        arrival = EBB(0.3, 1.0, 2.0)
        rate, theta = 0.5, 1.0
        best_xi = lemma6_optimal_xi(arrival, rate, theta)
        best = lemma6_log_mgf_bound(arrival, rate, theta, xi=best_xi)
        for xi in [0.25 * best_xi, 0.5 * best_xi, 2.0 * best_xi, 1.0]:
            assert best <= lemma6_log_mgf_bound(
                arrival, rate, theta, xi=xi
            ) + 1e-9

    def test_paper_remark_minimum_matches_optimal_xi(self):
        arrival = EBB(0.3, 1.0, 2.0)
        rate, theta = 0.5, 1.0
        best_xi = lemma6_optimal_xi(arrival, rate, theta)
        via_xi = lemma6_log_mgf_bound(arrival, rate, theta, xi=best_xi)
        closed_form = paper_remark_mgf_minimum(arrival, rate, theta)
        assert via_xi == pytest.approx(closed_form, rel=1e-9)

    def test_requires_theta_in_range(self):
        arrival = EBB(0.3, 1.0, 2.0)
        with pytest.raises(ValueError):
            lemma6_log_mgf_bound(arrival, 0.5, 2.0)

    @given(st.floats(0.05, 1.9))
    def test_mgf_bound_nonnegative(self, theta):
        # E[exp(theta delta)] >= 1 since delta >= 0, so any valid bound
        # on its log must be >= 0.
        arrival = EBB(0.3, 1.0, 2.0)
        assert lemma6_log_mgf_bound(arrival, 0.5, theta) >= 0.0

    def test_chernoff_from_mgf_consistent_with_lemma5_shape(self):
        # exp(L6(theta)) e^{-theta x} is a valid tail bound for every
        # theta < alpha; at theta close to alpha it should be within a
        # constant of the Lemma 5 bound.
        arrival = EBB(0.3, 1.0, 2.0)
        rate = 0.5
        theta = 1.99
        log_mgf = lemma6_log_mgf_bound(arrival, rate, theta)
        lemma5 = lemma5_tail_bound(arrival, rate, xi=1.0)
        x = 30.0
        chernoff = log_mgf - theta * x
        direct = math.log(lemma5.prefactor) - lemma5.decay_rate * x
        # Both are genuine bounds; they agree within a few nats at
        # moderate x.
        assert abs(chernoff - direct) < 10.0


class TestDiscreteDeltaTailBound:
    def test_paper_form(self):
        arrival = EBB(0.2, 1.0, 1.74)
        g = 0.2 / 0.9
        bound = discrete_delta_tail_bound(arrival, g)
        eps = g - 0.2
        expected = 1.0 / (1.0 - math.exp(-1.74 * eps))
        assert bound.prefactor == pytest.approx(expected)

    def test_tight_form_is_tighter(self):
        arrival = EBB(0.2, 1.0, 1.74)
        g = 0.2 / 0.9
        loose = discrete_delta_tail_bound(arrival, g)
        tight = discrete_delta_tail_bound(arrival, g, tight=True)
        assert tight.prefactor < loose.prefactor

    def test_zero_prefactor(self):
        bound = discrete_delta_tail_bound(EBB(0.2, 0.0, 1.0), 0.5)
        assert bound.prefactor == 0.0
