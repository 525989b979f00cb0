"""Tests for the multi-node fluid GPS network simulator."""

import numpy as np
import pytest

from repro.core.ebb import EBB
from repro.network.topology import Network, NetworkNode, NetworkSession
from repro.sim.fluid import FluidGPSServer
from repro.sim.network_sim import FluidNetworkSimulator


def tandem_network() -> Network:
    nodes = [NetworkNode("n1", 1.0), NetworkNode("n2", 1.0)]
    sessions = [
        NetworkSession(
            "a", EBB(0.3, 1.0, 1.0), ("n1", "n2"), (0.3, 0.3)
        ),
        NetworkSession("b", EBB(0.4, 1.0, 1.0), ("n2",), (0.4,)),
    ]
    return Network(nodes, sessions)


class TestFeedforward:
    def test_single_hop_matches_single_server(self):
        nodes = [NetworkNode("n", 1.0)]
        sessions = [
            NetworkSession("a", EBB(0.3, 1.0, 1.0), ("n",), 1.0),
            NetworkSession("b", EBB(0.4, 1.0, 1.0), ("n",), 2.0),
        ]
        network = Network(nodes, sessions)
        rng = np.random.default_rng(0)
        arrivals = {
            "a": rng.uniform(0, 0.8, size=300),
            "b": rng.uniform(0, 0.9, size=300),
        }
        sim = FluidNetworkSimulator(network)
        result = sim.run(arrivals)
        direct = FluidGPSServer(rate=1.0, phis=[1.0, 2.0]).run(
            np.vstack([arrivals["a"], arrivals["b"]])
        )
        np.testing.assert_allclose(
            result.node_backlog[("a", "n")], direct.backlog[0], atol=1e-9
        )
        np.testing.assert_allclose(
            result.egress["b"], direct.served[1], atol=1e-9
        )

    def test_tandem_conservation(self):
        network = tandem_network()
        rng = np.random.default_rng(1)
        arrivals = {
            "a": rng.uniform(0, 0.6, size=500),
            "b": rng.uniform(0, 0.8, size=500),
        }
        result = FluidNetworkSimulator(network).run(arrivals)
        # conservation per session: ingress = egress + queued
        for name in ("a", "b"):
            queued = sum(
                result.node_backlog[(name, node)][-1]
                for node in network.session(name).route
            )
            assert result.egress[name].sum() + queued == pytest.approx(
                arrivals[name].sum(), abs=1e-6
            )

    def test_network_backlog_nonnegative(self):
        network = tandem_network()
        rng = np.random.default_rng(2)
        arrivals = {
            "a": rng.uniform(0, 0.6, size=400),
            "b": rng.uniform(0, 0.8, size=400),
        }
        result = FluidNetworkSimulator(network).run(arrivals)
        for name in ("a", "b"):
            assert np.all(result.network_backlog(name) >= -1e-9)

    def test_zero_link_delay_lets_traffic_cross_in_one_slot(self):
        network = tandem_network()
        arrivals = {
            "a": np.array([0.5, 0.0, 0.0]),
            "b": np.zeros(3),
        }
        result = FluidNetworkSimulator(network, link_delay=0).run(arrivals)
        # With both nodes idle, 0.5 units traverse both hops in slot 0.
        assert result.egress["a"][0] == pytest.approx(0.5)

    def test_positive_link_delay_defers_egress(self):
        network = tandem_network()
        arrivals = {
            "a": np.array([0.5, 0.0, 0.0]),
            "b": np.zeros(3),
        }
        result = FluidNetworkSimulator(network, link_delay=1).run(arrivals)
        assert result.egress["a"][0] == 0.0
        assert result.egress["a"][1] == pytest.approx(0.5)

    def test_end_to_end_delays(self):
        network = tandem_network()
        arrivals = {
            "a": np.array([2.0, 0.0, 0.0, 0.0, 0.0]),
            "b": np.zeros(5),
        }
        result = FluidNetworkSimulator(network, link_delay=0).run(arrivals)
        delays = result.end_to_end_delays("a")
        # 2 units at rate 1: backlog at end of slot 0 is 1 unit, clears
        # one slot later.
        assert delays[0] == pytest.approx(1.0)


class TestValidation:
    def test_rejects_missing_session(self):
        network = tandem_network()
        with pytest.raises(ValueError, match="cover exactly"):
            FluidNetworkSimulator(network).run(
                {"a": np.zeros(10)}
            )

    def test_rejects_length_mismatch(self):
        network = tandem_network()
        with pytest.raises(ValueError, match="length"):
            FluidNetworkSimulator(network).run(
                {"a": np.zeros(10), "b": np.zeros(11)}
            )

    def test_rejects_zero_delay_on_cycle(self):
        nodes = [NetworkNode("x", 1.0), NetworkNode("y", 1.0)]
        sessions = [
            NetworkSession("a", EBB(0.2, 1.0, 1.0), ("x", "y"), 0.2),
            NetworkSession("b", EBB(0.2, 1.0, 1.0), ("y", "x"), 0.2),
        ]
        network = Network(nodes, sessions)
        with pytest.raises(ValueError, match="feedforward"):
            FluidNetworkSimulator(network, link_delay=0)

    def test_cycle_runs_with_delay(self):
        nodes = [NetworkNode("x", 1.0), NetworkNode("y", 1.0)]
        sessions = [
            NetworkSession("a", EBB(0.2, 1.0, 1.0), ("x", "y"), 0.2),
            NetworkSession("b", EBB(0.2, 1.0, 1.0), ("y", "x"), 0.2),
        ]
        network = Network(nodes, sessions)
        rng = np.random.default_rng(3)
        arrivals = {
            "a": rng.uniform(0, 0.4, size=200),
            "b": rng.uniform(0, 0.4, size=200),
        }
        sim = FluidNetworkSimulator(network)  # defaults to delay 1
        result = sim.run(arrivals)
        for name in ("a", "b"):
            assert result.egress[name].sum() > 0.0
            assert np.all(result.network_backlog(name) >= -1e-9)


def _example(parameter_set):
    from repro.experiments.paper_example import example_network

    return example_network(parameter_set)


def _a8_tandem(hops):
    from repro.network.builders import tandem_network

    return tandem_network(
        num_hops=hops,
        through=EBB(0.2, 1.0, 1.0),
        cross=EBB(0.3, 1.0, 1.0),
        node_rate=0.55,
    )


def _ring():
    from repro.network.builders import ring_network

    return ring_network(
        num_nodes=4, arrival=EBB(0.2, 1.0, 1.0), hops_per_session=3
    )


def _faults(kind):
    from repro.faults import BurstFault, FaultSchedule, LinkFault, RateFault

    faults = {
        "link": [
            LinkFault("node1", 40, 90, down=True),
            LinkFault("node2", 60, 75, extra_delay=7.5, session="session3"),
        ],
        "rate": [RateFault("node3", 30, 160, 0.4), RateFault("node1", 0, 20, 0.0)],
        "burst": [BurstFault("session2", 50, 120, multiplier=2.5, extra=0.1)],
    }[kind]
    return FaultSchedule(faults)


NETWORK_CASES = {
    "example-set1": lambda: (_example(1), None, None),
    "example-set2": lambda: (_example(2), None, None),
    "a8-tandem-1": lambda: (_a8_tandem(1), None, None),
    "a8-tandem-2": lambda: (_a8_tandem(2), None, None),
    "a8-tandem-4": lambda: (_a8_tandem(4), None, None),
    "ring-delay-1": lambda: (_ring(), 1, None),
    "ring-delay-3": lambda: (_ring(), 3, None),
    "example-delay-2": lambda: (_example(1), 2, None),
    "link-faults": lambda: (_example(1), 0, _faults("link")),
    "link-faults-delay-2": lambda: (
        _example(1), 2, _faults("link")
    ),
    "rate-faults": lambda: (_example(1), 0, _faults("rate")),
    "burst-faults": lambda: (_example(1), 0, _faults("burst")),
}


class TestRunBatchMatchesScalarLoop:
    """Every trial of ``run_batch`` is ``np.array_equal`` to the scalar
    per-slot, per-node, per-session loop in ``tests/sim/oracle.py``."""

    @pytest.mark.parametrize("case", sorted(NETWORK_CASES))
    def test_trials_equal_the_scalar_loop(self, case):
        from tests.sim.oracle import network_loop

        network, link_delay, faults = NETWORK_CASES[case]()
        sim = FluidNetworkSimulator(
            network, link_delay=link_delay, faults=faults
        )
        rng = np.random.default_rng(sum(map(ord, case)))
        names = [s.name for s in network.sessions]
        arrivals = {
            name: rng.uniform(0.0, 0.5, size=(3, 300))
            * (rng.random((3, 300)) < 0.6)
            for name in names
        }
        batch = sim.run_batch(arrivals)
        assert len(batch) == 3
        for b, result in enumerate(batch):
            reference = network_loop(
                sim, {name: arrivals[name][b] for name in names}
            )
            for field in (
                "external_arrivals",
                "egress",
                "node_backlog",
                "node_served",
                "node_capacities",
            ):
                got = getattr(result, field)
                want = getattr(reference, field)
                if want is None:
                    assert got is None
                    continue
                assert list(got) == list(want), field
                for key in want:
                    assert np.array_equal(got[key], want[key]), (field, key)
            assert result.fault_schedule is reference.fault_schedule
            if b == 0:
                single = sim.run({n: arrivals[n][0] for n in names})
                for key in reference.node_served:
                    assert np.array_equal(
                        single.node_served[key], reference.node_served[key]
                    )

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="shape"):
            FluidNetworkSimulator(tandem_network()).run_batch(
                {"a": np.zeros((2, 10)), "b": np.zeros((3, 10))}
            )
