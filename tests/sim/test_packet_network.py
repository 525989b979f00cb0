"""Tests for the multi-node packet (PGPS) network simulator."""

import numpy as np
import pytest

from repro.core.ebb import EBB
from repro.network.topology import Network, NetworkNode, NetworkSession
from repro.sim.packet import Packet
from repro.sim.packet_network import PacketNetworkSimulator
from tests.packet.oracle import wfq_schedule


def tandem() -> Network:
    nodes = [NetworkNode("a", 1.0), NetworkNode("b", 1.0)]
    sessions = [
        NetworkSession(
            "through", EBB(0.3, 1.0, 1.5), ("a", "b"), 0.3
        ),
        NetworkSession("crossA", EBB(0.3, 1.0, 1.5), ("a",), 0.3),
        NetworkSession("crossB", EBB(0.3, 1.0, 1.5), ("b",), 0.3),
    ]
    return Network(nodes, sessions)


def poisson_packets(rng, n, mean_gap=1.2, size=0.5):
    packets = []
    clock = 0.0
    for _ in range(n):
        clock += float(rng.exponential(mean_gap))
        packets.append(Packet(0, size, clock))
    return packets


class TestSingleNodeEquivalence:
    def test_matches_direct_wfq(self):
        nodes = [NetworkNode("solo", 1.0)]
        sessions = [
            NetworkSession("x", EBB(0.3, 1.0, 1.5), ("solo",), 0.3),
            NetworkSession("y", EBB(0.3, 1.0, 1.5), ("solo",), 0.6),
        ]
        network = Network(nodes, sessions)
        rng = np.random.default_rng(0)
        ingress = {
            "x": poisson_packets(rng, 50),
            "y": poisson_packets(rng, 50),
        }
        result = PacketNetworkSimulator(network).run(ingress)
        # the reference schedule of the same combined workload
        combined = [
            Packet(0, p.size, p.arrival_time) for p in ingress["x"]
        ] + [
            Packet(1, p.size, p.arrival_time) for p in ingress["y"]
        ]
        direct = wfq_schedule(1.0, [0.3, 0.6], combined)
        for name, session_index in (("x", 0), ("y", 1)):
            mine = sorted(
                (p for p in direct if p.packet.session == session_index),
                key=lambda p: p.packet.arrival_time,
            )
            assert np.array_equal(
                result.session_delays(name),
                np.array([p.pgps_delay for p in mine]),
            ), name


class TestTandem:
    def test_journeys_are_chronological(self):
        network = tandem()
        rng = np.random.default_rng(1)
        ingress = {
            "through": poisson_packets(rng, 80),
            "crossA": poisson_packets(rng, 80),
            "crossB": poisson_packets(rng, 80),
        }
        result = PacketNetworkSimulator(network).run(ingress)
        for journey in result.journeys:
            assert journey.hops
            previous_departure = journey.ingress_time
            for hop in journey.hops:
                assert hop.arrival_time >= previous_departure - 1e-9
                assert hop.departure_time > hop.arrival_time
                previous_departure = hop.departure_time

    def test_through_session_visits_both_nodes(self):
        network = tandem()
        rng = np.random.default_rng(2)
        ingress = {
            "through": poisson_packets(rng, 30),
            "crossA": poisson_packets(rng, 30),
            "crossB": poisson_packets(rng, 30),
        }
        result = PacketNetworkSimulator(network).run(ingress)
        through = [
            j for j in result.journeys if j.session == "through"
        ]
        assert len(through) == 30
        for journey in through:
            assert [hop.node for hop in journey.hops] == ["a", "b"]

    def test_min_delay_is_transmission_time(self):
        network = tandem()
        rng = np.random.default_rng(3)
        ingress = {
            "through": poisson_packets(rng, 40, size=0.5),
            "crossA": poisson_packets(rng, 40, size=0.5),
            "crossB": poisson_packets(rng, 40, size=0.5),
        }
        result = PacketNetworkSimulator(network).run(ingress)
        delays = result.session_delays("through")
        # two hops at rate 1, size 0.5: at least 1.0 total
        assert delays.min() >= 1.0 - 1e-9

    def test_fifo_per_session_preserved(self):
        """Departure order of a session equals its ingress order."""
        network = tandem()
        rng = np.random.default_rng(4)
        ingress = {
            "through": poisson_packets(rng, 60),
            "crossA": poisson_packets(rng, 60),
            "crossB": poisson_packets(rng, 60),
        }
        result = PacketNetworkSimulator(network).run(ingress)
        through = sorted(
            (j for j in result.journeys if j.session == "through"),
            key=lambda j: j.ingress_time,
        )
        egress_times = [j.egress_time for j in through]
        assert egress_times == sorted(egress_times)


class TestValidation:
    def test_rejects_cyclic_network(self):
        nodes = [NetworkNode("x", 1.0), NetworkNode("y", 1.0)]
        sessions = [
            NetworkSession("a", EBB(0.2, 1.0, 1.0), ("x", "y"), 0.2),
            NetworkSession("b", EBB(0.2, 1.0, 1.0), ("y", "x"), 0.2),
        ]
        with pytest.raises(ValueError, match="feedforward"):
            PacketNetworkSimulator(Network(nodes, sessions))

    def test_rejects_missing_sessions(self):
        network = tandem()
        with pytest.raises(ValueError, match="cover exactly"):
            PacketNetworkSimulator(network).run({"through": []})
