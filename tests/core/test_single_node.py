"""Tests for the single-node bound theorems (7, 8, 10, 11, 12)."""

import math

import pytest

from repro.core.decomposition import decompose
from repro.core.ebb import EBB
from repro.core.gps import GPSConfig, Session, rpps_config
from repro.analysis.mgf import lemma5_tail_bound, lemma6_log_mgf_bound
from repro.analysis.single_node import (
    best_partition_family,
    theorem7_family,
    theorem8_family,
    theorem10_bounds,
    theorem11_family,
    theorem12_family,
)


def make_config() -> GPSConfig:
    sessions = [
        Session("a", EBB(0.2, 1.0, 2.0), 1.0),
        Session("b", EBB(0.3, 1.5, 1.0), 2.0),
        Session("c", EBB(0.25, 0.8, 3.0), 1.0),
    ]
    return GPSConfig(1.0, sessions)


def rpps() -> GPSConfig:
    return rpps_config(
        1.0,
        [
            ("a", EBB(0.2, 1.0, 2.0)),
            ("b", EBB(0.3, 1.5, 1.0)),
            ("c", EBB(0.25, 0.8, 3.0)),
        ],
    )


class TestTheorem7:
    def test_prefactor_matches_equation_26(self):
        """Hand-computed eq. (26) for the second session in the
        ordering, xi = 1."""
        config = make_config()
        dec = decompose(config)
        # ordering is by rho/phi: b (0.15), a (0.2), c (0.25)
        assert dec.ordering == (1, 0, 2)
        i = 0  # session "a", position 1, predecessor "b"
        psi = config.phis[0] / (config.phis[0] + config.phis[2])
        theta = 0.5
        family = theorem7_family(dec, i)
        a_ebb, b_ebb = config.sessions[0].arrival, config.sessions[1].arrival
        r_a, r_b = dec.rates[0], dec.rates[1]
        eps_a, eps_b = r_a - 0.2, r_b - 0.3
        expected = (
            theta * (a_ebb.sigma_hat(theta) + 0.2)
            - math.log(1.0 - math.exp(-theta * eps_a))
            + psi * theta * (b_ebb.sigma_hat(psi * theta) + 0.3 / psi * psi)
            - math.log(1.0 - math.exp(-psi * theta * eps_b))
        )
        # rewrite the rho term exactly as eq. (26): psi * theta * rho_b
        expected = (
            theta * (a_ebb.sigma_hat(theta) + 0.2)
            - math.log(1.0 - math.exp(-theta * eps_a))
            + psi * theta * (b_ebb.sigma_hat(psi * theta) + 0.3)
            - math.log(1.0 - math.exp(-psi * theta * eps_b))
        )
        assert family.log_prefactor(theta) == pytest.approx(expected)

    def test_first_session_depends_only_on_itself(self):
        config = make_config()
        dec = decompose(config)
        first = dec.ordering[0]
        family = theorem7_family(dec, first)
        expected = lemma6_log_mgf_bound(
            config.sessions[first].arrival, dec.rates[first], 0.4, xi=1.0
        )
        assert family.log_prefactor(0.4) == pytest.approx(expected)

    def test_theta_max_is_min_alpha_of_prefix(self):
        config = make_config()
        dec = decompose(config)
        last = dec.ordering[-1]
        family = theorem7_family(dec, last)
        assert family.theta_max == min(config.alphas)

    def test_backlog_delay_output_consistency(self):
        config = make_config()
        dec = decompose(config)
        family = theorem7_family(dec, 0)
        theta = 0.5
        backlog = family.backlog_bound(theta)
        delay = family.delay_bound(theta)
        output = family.output_ebb(theta)
        g = config.guaranteed_rate(0)
        assert delay.decay_rate == pytest.approx(backlog.decay_rate * g)
        assert delay.prefactor == pytest.approx(backlog.prefactor)
        assert output.rho == config.sessions[0].rho
        assert output.prefactor == pytest.approx(backlog.prefactor)
        assert output.decay_rate == theta

    def test_rejects_theta_outside_range(self):
        config = make_config()
        dec = decompose(config)
        family = theorem7_family(dec, 0)
        with pytest.raises(ValueError):
            family.backlog_bound(family.theta_max)
        with pytest.raises(ValueError):
            family.backlog_bound(0.0)

    def test_optimized_backlog_beats_fixed_choices(self):
        config = make_config()
        dec = decompose(config)
        family = theorem7_family(dec, 0)
        q = 10.0
        best = family.optimized_backlog(q).evaluate(q)
        for fraction in [0.1, 0.3, 0.5, 0.7, 0.9]:
            theta = fraction * family.theta_max
            assert best <= family.backlog_bound(theta).evaluate(q) * (
                1.0 + 1e-6
            )

    def test_curves_are_decreasing(self):
        config = make_config()
        dec = decompose(config)
        family = theorem7_family(dec, 1)
        qs = [1.0, 2.0, 5.0, 10.0, 20.0]
        curve = family.backlog_curve(qs)
        assert all(a >= b for a, b in zip(curve, curve[1:]))


class TestTheorem8:
    def test_first_in_ordering_reduces_to_theorem7(self):
        config = make_config()
        dec = decompose(config)
        first = dec.ordering[0]
        f7 = theorem7_family(dec, first)
        f8 = theorem8_family(dec, first)
        assert f8.theta_max == f7.theta_max
        assert f8.log_prefactor(0.3) == pytest.approx(
            f7.log_prefactor(0.3)
        )

    def test_theta_max_is_optimal_holder_range(self):
        config = make_config()
        dec = decompose(config)
        last = dec.ordering[-1]  # session "c"
        family = theorem8_family(dec, last)
        psi = dec.psi(last)
        preds = dec.predecessors(last)
        expected = 1.0 / (
            1.0 / config.alphas[last]
            + sum(psi / config.alphas[j] for j in preds)
        )
        assert family.theta_max == pytest.approx(expected)

    def test_paper_form_is_no_tighter(self):
        config = make_config()
        dec = decompose(config)
        last = dec.ordering[-1]
        exact = theorem8_family(dec, last)
        paper = theorem8_family(dec, last, paper_form=True)
        theta = 0.5 * exact.theta_max
        assert paper.log_prefactor(theta) >= exact.log_prefactor(
            theta
        ) - 1e-9

    def test_smaller_theta_range_than_theorem7(self):
        config = make_config()
        dec = decompose(config)
        last = dec.ordering[-1]
        f7 = theorem7_family(dec, last)
        f8 = theorem8_family(dec, last)
        assert f8.theta_max < f7.theta_max


class TestTheorem10:
    def test_matches_lemma5_at_guaranteed_rate(self):
        config = rpps()
        for i in range(3):
            bounds = theorem10_bounds(config, i)
            g = config.guaranteed_rate(i)
            direct = lemma5_tail_bound(config.sessions[i].arrival, g)
            assert bounds.backlog.prefactor == pytest.approx(
                direct.prefactor
            )
            assert bounds.backlog.decay_rate == pytest.approx(
                config.sessions[i].alpha
            )
            assert bounds.delay.decay_rate == pytest.approx(
                config.sessions[i].alpha * g
            )

    def test_rejects_sessions_outside_h1(self):
        sessions = [
            Session("low", EBB(0.1, 1.0, 2.0), 1.0),
            Session("high", EBB(0.6, 1.0, 2.0), 1.0),
        ]
        config = GPSConfig(1.0, sessions)
        assert config.partition().level(1) == 1
        with pytest.raises(ValueError, match="H_1"):
            theorem10_bounds(config, 1)

    def test_discrete_variant(self):
        config = rpps()
        cont = theorem10_bounds(config, 0)
        disc = theorem10_bounds(config, 0, discrete=True)
        assert disc.backlog.decay_rate == cont.backlog.decay_rate
        assert disc.backlog.prefactor != cont.backlog.prefactor

    def test_output_preserves_rho(self):
        config = rpps()
        bounds = theorem10_bounds(config, 1)
        assert bounds.output.rho == config.sessions[1].rho


class TestTheorem11:
    def test_level0_own_rate_is_guaranteed_rate(self):
        """For H_1 sessions the family is the single-queue MGF bound at
        the guaranteed rate g_i."""
        config = rpps()
        i = 0
        family = theorem11_family(config, i)
        g = config.guaranteed_rate(i)
        theta = 0.9
        expected = lemma6_log_mgf_bound(
            config.sessions[i].arrival, g, theta, xi=1.0
        )
        assert family.log_prefactor(theta) == pytest.approx(expected)
        assert family.theta_max == config.sessions[i].alpha

    def test_higher_level_denominator_structure(self):
        """The two geometric factors of eq. (54) are equal by the
        epsilon split."""
        sessions = [
            Session("low", EBB(0.1, 1.0, 2.0), 1.0),
            Session("high", EBB(0.6, 1.0, 2.0), 1.0),
        ]
        config = GPSConfig(1.0, sessions)
        family = theorem11_family(config, 1)
        # class-relative rate: psi = 1, residual = 1 - 0.1 = 0.9,
        # margin = 0.3, K = 2 -> eps = 0.15 each.
        theta = 1.0
        arrival = config.sessions[1].arrival
        low = config.sessions[0].arrival
        own = theta * (arrival.sigma_hat(theta) + 0.6) - math.log(
            1.0 - math.exp(-theta * 0.15)
        )
        agg = theta * (low.sigma_hat(theta) + 0.1) - math.log(
            1.0 - math.exp(-theta * 0.15)
        )
        assert family.log_prefactor(theta) == pytest.approx(own + agg)

    def test_theta_max_includes_prefix_alphas(self):
        sessions = [
            Session("low", EBB(0.1, 1.0, 0.5), 1.0),
            Session("high", EBB(0.6, 1.0, 2.0), 1.0),
        ]
        config = GPSConfig(1.0, sessions)
        family = theorem11_family(config, 1)
        assert family.theta_max == 0.5

    def test_guaranteed_rate_for_delay_is_overall_gps_rate(self):
        sessions = [
            Session("low", EBB(0.1, 1.0, 2.0), 1.0),
            Session("high", EBB(0.6, 1.0, 2.0), 1.0),
        ]
        config = GPSConfig(1.0, sessions)
        family = theorem11_family(config, 1)
        assert family.guaranteed_rate == pytest.approx(0.5)


class TestTheorem12:
    def test_level0_falls_back_to_theorem11(self):
        config = rpps()
        f11 = theorem11_family(config, 0)
        f12 = theorem12_family(config, 0)
        assert f12.theta_max == f11.theta_max
        assert f12.log_prefactor(0.7) == pytest.approx(
            f11.log_prefactor(0.7)
        )

    def test_higher_level_has_reduced_theta_range(self):
        sessions = [
            Session("low", EBB(0.1, 1.0, 2.0), 1.0),
            Session("high", EBB(0.6, 1.0, 2.0), 1.0),
        ]
        config = GPSConfig(1.0, sessions)
        f11 = theorem11_family(config, 1)
        f12 = theorem12_family(config, 1)
        assert f12.theta_max < f11.theta_max
        # paper's optimum: 1 / (1/alpha_i + psi/alpha_low), psi = 1.
        assert f12.theta_max == pytest.approx(1.0 / (0.5 + 0.5))

    def test_paper_form_is_no_tighter(self):
        sessions = [
            Session("low", EBB(0.1, 1.0, 2.0), 1.0),
            Session("high", EBB(0.6, 1.0, 2.0), 1.0),
        ]
        config = GPSConfig(1.0, sessions)
        exact = theorem12_family(config, 1)
        paper = theorem12_family(config, 1, paper_form=True)
        theta = 0.5 * exact.theta_max
        assert paper.log_prefactor(theta) >= exact.log_prefactor(
            theta
        ) - 1e-9


class TestBestPartitionFamily:
    def test_independent_uses_theorem11(self):
        config = rpps()
        fam = best_partition_family(config, 0, independent=True)
        f11 = theorem11_family(config, 0)
        assert fam.log_prefactor(0.5) == pytest.approx(
            f11.log_prefactor(0.5)
        )

    def test_dependent_uses_theorem12(self):
        sessions = [
            Session("low", EBB(0.1, 1.0, 2.0), 1.0),
            Session("high", EBB(0.6, 1.0, 2.0), 1.0),
        ]
        config = GPSConfig(1.0, sessions)
        fam = best_partition_family(config, 1, independent=False)
        f12 = theorem12_family(config, 1)
        assert fam.theta_max == f12.theta_max
