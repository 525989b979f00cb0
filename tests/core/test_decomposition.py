"""Tests for virtual-rate allocation and the GPS decomposition."""

import pytest

from repro.core.decomposition import (
    Decomposition,
    decompose,
    phi_proportional_epsilons,
    rho_proportional_epsilons,
    uniform_epsilons,
)
from repro.core.ebb import EBB
from repro.analysis.feasible import is_feasible_ordering
from repro.core.gps import GPSConfig, Session


def make_config() -> GPSConfig:
    sessions = [
        Session("a", EBB(0.2, 1.0, 2.0), 1.0),
        Session("b", EBB(0.3, 1.5, 1.0), 2.0),
        Session("c", EBB(0.25, 0.8, 3.0), 1.0),
    ]
    return GPSConfig(1.0, sessions)


class TestEpsilonStrategies:
    def test_uniform_sums_to_slack(self):
        config = make_config()
        eps = uniform_epsilons(config)
        assert sum(eps) == pytest.approx(config.slack)
        assert len(set(eps)) == 1

    def test_rho_proportional_relative_margin_equal(self):
        config = make_config()
        eps = rho_proportional_epsilons(config)
        ratios = [e / rho for e, rho in zip(eps, config.rhos)]
        assert max(ratios) == pytest.approx(min(ratios))
        assert sum(eps) == pytest.approx(config.slack)

    def test_phi_proportional(self):
        config = make_config()
        eps = phi_proportional_epsilons(config)
        ratios = [e / phi for e, phi in zip(eps, config.phis)]
        assert max(ratios) == pytest.approx(min(ratios))

    def test_share_scales(self):
        config = make_config()
        full = uniform_epsilons(config)
        half = uniform_epsilons(config, share=0.5)
        assert half == pytest.approx([0.5 * e for e in full])

    def test_rejects_bad_share(self):
        with pytest.raises(ValueError):
            uniform_epsilons(make_config(), share=0.0)
        with pytest.raises(ValueError):
            uniform_epsilons(make_config(), share=1.5)


class TestDecompose:
    def test_default_builds_valid_decomposition(self):
        config = make_config()
        dec = decompose(config)
        assert sum(dec.rates) <= config.rate + 1e-12
        assert is_feasible_ordering(
            list(dec.ordering),
            list(dec.rates),
            list(config.phis),
            server_rate=config.rate,
        )

    def test_rates_exceed_rhos(self):
        dec = decompose(make_config())
        for rate, rho in zip(dec.rates, dec.config.rhos):
            assert rate > rho

    def test_explicit_epsilons(self):
        config = make_config()
        dec = decompose(config, epsilons=[0.05, 0.1, 0.05])
        assert dec.rates == pytest.approx((0.25, 0.4, 0.3))

    def test_rejects_wrong_epsilon_count(self):
        with pytest.raises(ValueError, match="one epsilon"):
            decompose(make_config(), epsilons=[0.1])

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            decompose(make_config(), epsilons=[0.1, 0.0, 0.1])

    def test_rejects_oversubscribed_epsilons(self):
        with pytest.raises(ValueError):
            decompose(make_config(), epsilons=[0.2, 0.2, 0.2])


class TestDecompositionGeometry:
    def test_positions_and_predecessors(self):
        dec = decompose(make_config())
        for i in range(3):
            pos = dec.position(i)
            assert dec.ordering[pos] == i
            preds = dec.predecessors(i)
            assert len(preds) == pos
            for j in preds:
                assert dec.position(j) < pos

    def test_psi_matches_definition(self):
        config = make_config()
        dec = decompose(config)
        for i in range(3):
            pos = dec.position(i)
            tail_phi = sum(
                config.phis[j] for j in dec.ordering[pos:]
            )
            assert dec.psi(i) == pytest.approx(
                config.phis[i] / tail_phi
            )

    def test_first_session_psi_is_overall_share(self):
        config = make_config()
        dec = decompose(config)
        first = dec.ordering[0]
        assert dec.psi(first) == pytest.approx(
            config.phis[first] / config.total_phi
        )

    def test_virtual_queue_rates(self):
        dec = decompose(make_config())
        for i in range(3):
            vq = dec.virtual_queue(i)
            assert vq.rate == dec.rates[i]
            assert vq.slack == pytest.approx(dec.epsilon(i))

    def test_rejects_inconsistent_direct_construction(self):
        config = make_config()
        with pytest.raises(ValueError, match="must exceed"):
            Decomposition(
                config=config,
                rates=(0.1, 0.4, 0.3),  # 0.1 < rho_a = 0.2
                ordering=(0, 1, 2),
            )
