"""Tests for the discrete-time variants of the MGF bounds and
theorems (Remark 2)."""

import math

import pytest

from repro.core.decomposition import decompose
from repro.core.ebb import EBB
from repro.core.gps import GPSConfig, Session
from repro.analysis.mgf import discrete_log_mgf_bound, lemma6_log_mgf_bound
from repro.analysis.single_node import (
    best_partition_family,
    theorem7_family,
    theorem8_family,
    theorem11_family,
    theorem12_family,
)


def make_config() -> GPSConfig:
    return GPSConfig(
        1.0,
        [
            Session("a", EBB(0.2, 1.0, 2.0), 1.0),
            Session("b", EBB(0.3, 1.5, 1.0), 2.0),
            Session("c", EBB(0.25, 0.8, 3.0), 1.0),
        ],
    )


class TestDiscreteLogMgf:
    def test_tighter_than_continuous_xi1_by_theta_rho(self):
        arrival = EBB(0.3, 1.0, 2.0)
        rate, theta = 0.5, 1.0
        continuous = lemma6_log_mgf_bound(arrival, rate, theta, xi=1.0)
        discrete = discrete_log_mgf_bound(arrival, rate, theta)
        assert discrete == pytest.approx(
            continuous - theta * arrival.rho
        )

    def test_nonnegative(self):
        arrival = EBB(0.3, 1.0, 2.0)
        assert discrete_log_mgf_bound(arrival, 0.5, 0.8) >= 0.0

    def test_requires_theta_in_range(self):
        with pytest.raises(ValueError):
            discrete_log_mgf_bound(EBB(0.3, 1.0, 2.0), 0.5, 2.0)

    def test_dominates_direct_series(self):
        """The bound must exceed the truncated geometric series it
        approximates (each term bounded by the MGF envelope)."""
        arrival = EBB(0.3, 1.0, 2.0)
        rate, theta = 0.5, 1.0
        bound = discrete_log_mgf_bound(arrival, rate, theta)
        series = sum(
            math.exp(
                arrival.log_mgf_envelope(theta, k) - theta * rate * k
            )
            for k in range(0, 2000)
        )
        assert bound >= math.log(series) - 1e-9


class TestDiscreteTheoremFamilies:
    @pytest.mark.parametrize("session_index", [0, 1, 2])
    def test_theorem7_discrete_tighter(self, session_index):
        config = make_config()
        dec = decompose(config)
        cont = theorem7_family(dec, session_index)
        disc = theorem7_family(dec, session_index, discrete=True)
        theta = 0.5 * cont.theta_max
        assert disc.log_prefactor(theta) <= cont.log_prefactor(theta)

    @pytest.mark.parametrize("session_index", [0, 1, 2])
    def test_theorem11_discrete_tighter(self, session_index):
        config = make_config()
        cont = theorem11_family(config, session_index)
        disc = theorem11_family(config, session_index, discrete=True)
        theta = 0.5 * cont.theta_max
        assert disc.log_prefactor(theta) <= cont.log_prefactor(theta)

    def test_theorem8_discrete(self):
        config = make_config()
        dec = decompose(config)
        last = dec.ordering[-1]
        cont = theorem8_family(dec, last)
        disc = theorem8_family(dec, last, discrete=True)
        theta = 0.5 * cont.theta_max
        assert disc.log_prefactor(theta) <= cont.log_prefactor(theta)

    def test_theorem12_discrete(self):
        sessions = [
            Session("low", EBB(0.1, 1.0, 2.0), 1.0),
            Session("high", EBB(0.6, 1.0, 2.0), 1.0),
        ]
        config = GPSConfig(1.0, sessions)
        cont = theorem12_family(config, 1)
        disc = theorem12_family(config, 1, discrete=True)
        theta = 0.5 * cont.theta_max
        assert disc.log_prefactor(theta) <= cont.log_prefactor(theta)

    def test_paper_form_plus_discrete_rejected(self):
        config = make_config()
        dec = decompose(config)
        last = dec.ordering[-1]
        with pytest.raises(ValueError, match="paper_form"):
            theorem8_family(dec, last, paper_form=True, discrete=True)
        sessions = [
            Session("low", EBB(0.1, 1.0, 2.0), 1.0),
            Session("high", EBB(0.6, 1.0, 2.0), 1.0),
        ]
        two_class = GPSConfig(1.0, sessions)
        with pytest.raises(ValueError, match="paper_form"):
            theorem12_family(
                two_class, 1, paper_form=True, discrete=True
            )

    def test_best_partition_family_passthrough(self):
        config = make_config()
        disc = best_partition_family(config, 0, discrete=True)
        direct = theorem11_family(config, 0, discrete=True)
        assert disc.log_prefactor(0.5) == pytest.approx(
            direct.log_prefactor(0.5)
        )


class TestDiscreteNetworkAnalysis:
    def test_discrete_flag_tightens_reports(self):
        from repro.core.ebb import EBB as _EBB
        from repro.network.analysis import analyze_crst_network
        from repro.network.topology import (
            Network,
            NetworkNode,
            NetworkSession,
        )

        nodes = [NetworkNode("a", 1.0), NetworkNode("b", 1.0)]
        sessions = [
            NetworkSession("x", _EBB(0.2, 1.0, 1.7), ("a", "b"), 0.2),
            NetworkSession("y", _EBB(0.3, 1.0, 1.5), ("a", "b"), 0.3),
        ]
        network = Network(nodes, sessions)
        cont = analyze_crst_network(network)
        disc = analyze_crst_network(network, discrete=True)
        for name in ("x", "y"):
            assert (
                disc[name].end_to_end_delay.prefactor
                <= cont[name].end_to_end_delay.prefactor
            )
