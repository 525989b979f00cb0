"""Tests for the topology builders."""

import pytest

from repro.core.ebb import EBB
from repro.network.builders import (
    ring_network,
    tandem_network,
    tree_network,
)
from repro.network.rpps_network import rpps_network_bounds


def through():
    return EBB(0.2, 1.0, 1.7)


def cross():
    return EBB(0.3, 1.0, 1.5)


class TestTandem:
    def test_structure(self):
        network = tandem_network(num_hops=4, through=through(), cross=cross())
        assert len(network.nodes) == 4
        assert network.session("through").num_hops == 4
        assert len(network.sessions) == 5
        assert network.is_rpps()
        assert network.is_feedforward()

    def test_route_length_independence_of_theorem15(self):
        """The central RPPS claim, over a builder family: the bound is
        identical for every chain length."""
        reference = None
        for hops in (1, 2, 4, 8):
            network = tandem_network(
                num_hops=hops, through=through(), cross=cross()
            )
            bound = rpps_network_bounds(
                network, "through", discrete=True
            ).end_to_end_delay
            if reference is None:
                reference = bound
            assert bound.prefactor == pytest.approx(
                reference.prefactor
            )
            assert bound.decay_rate == pytest.approx(
                reference.decay_rate
            )

    def test_rejects_zero_hops(self):
        with pytest.raises(ValueError):
            tandem_network(num_hops=0, through=through(), cross=cross())


class TestTree:
    def test_figure2_shape(self):
        second = EBB(0.25, 1.0, 1.6)
        network = tree_network(
            leaf_sessions=[[through(), second], [through(), second]]
        )
        assert set(network.nodes) == {"root", "leaf0", "leaf1"}
        assert len(network.sessions) == 4
        for session in network.sessions:
            assert session.route[-1] == "root"

    def test_rejects_empty_leaf(self):
        with pytest.raises(ValueError, match="no sessions"):
            tree_network(leaf_sessions=[[through()], []])

    def test_overload_at_root_rejected(self):
        fat = EBB(0.4, 1.0, 1.0)
        with pytest.raises(ValueError, match="overloaded"):
            tree_network(leaf_sessions=[[fat, fat], [fat, fat]])


class TestRing:
    def test_cyclic_structure(self):
        network = ring_network(num_nodes=4, arrival=EBB(0.2, 1.0, 1.5))
        assert not network.is_feedforward()
        assert len(network.sessions) == 4
        for session in network.sessions:
            assert session.num_hops == 2

    def test_single_hop_ring_is_feedforward(self):
        network = ring_network(
            num_nodes=3, arrival=EBB(0.2, 1.0, 1.5), hops_per_session=1
        )
        assert network.is_feedforward()

    def test_ring_analyzable_as_crst(self):
        """Arbitrary topology: the cyclic ring is CRST (RPPS) and the
        Theorem 13 recursion produces finite bounds."""
        from repro.network.analysis import analyze_crst_network

        network = ring_network(num_nodes=4, arrival=EBB(0.2, 1.0, 1.5))
        reports = analyze_crst_network(network)
        for report in reports.values():
            assert report.end_to_end_delay.decay_rate > 0.0

    def test_theorem15_applies_to_ring(self):
        network = ring_network(num_nodes=5, arrival=EBB(0.15, 1.0, 1.5))
        bound = rpps_network_bounds(network, "s0", discrete=True)
        assert bound.network_backlog.decay_rate == pytest.approx(1.5)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ring_network(num_nodes=1, arrival=EBB(0.2, 1.0, 1.5))
        with pytest.raises(ValueError):
            ring_network(
                num_nodes=3, arrival=EBB(0.2, 1.0, 1.5), hops_per_session=4
            )
