"""The per-node-context Theorem 13 recursion is bit-identical to the
pre-refactor per-hop rebuild.

The reference implementation below re-creates the old recursion
verbatim: a ``(session, node) -> EBB`` arrival dict and a fresh
``GPSConfig`` + partition per hop visit.  Every per-hop float the new
:func:`repro.network.analysis.analyze_crst_network` produces must
equal it exactly — the context refactor changes *where* state lives,
never a single value.
"""

import pytest

from repro.analysis.single_node import theorem11_family, theorem12_family
from repro.core.bounds import sum_of_tail_bounds
from repro.core.ebb import EBB
from repro.core.gps import GPSConfig, Session
from repro.network.analysis import analyze_crst_network, node_contexts
from repro.network.crst import crst_partition
from repro.network.topology import Network, NetworkNode, NetworkSession


def rpps_tree() -> Network:
    nodes = [
        NetworkNode("n1", 1.0),
        NetworkNode("n2", 1.0),
        NetworkNode("n3", 1.0),
    ]
    sessions = [
        NetworkSession("s1", EBB(0.2, 1.0, 1.7), ("n1", "n3"), 0.2),
        NetworkSession("s2", EBB(0.25, 1.0, 1.8), ("n1", "n3"), 0.25),
        NetworkSession("s3", EBB(0.2, 1.0, 2.1), ("n2", "n3"), 0.2),
        NetworkSession("s4", EBB(0.25, 1.0, 1.6), ("n2", "n3"), 0.25),
    ]
    return Network(nodes, sessions)


def two_class_tandem() -> Network:
    nodes = [NetworkNode("a", 1.0), NetworkNode("b", 1.0)]
    sessions = [
        NetworkSession("low", EBB(0.1, 1.0, 2.0), ("a", "b"), 1.0),
        NetworkSession("high", EBB(0.5, 1.0, 1.5), ("a", "b"), 0.3),
    ]
    return Network(nodes, sessions)


def _reference_recursion(
    network, *, theta_shrink=0.7, xi=1.0, independent_inputs=False,
    discrete=False,
):
    """The old implementation: per-hop GPSConfig rebuild, arrival dict."""
    partition = crst_partition(network)
    arrivals = {}
    reports = {}
    for class_members in partition.classes:
        for session_name in class_members:
            session = network.session(session_name)
            arrivals[(session_name, session.route[0])] = session.arrival
            hops = []
            for hop, node_name in enumerate(session.route):
                local = network.sessions_at(node_name)
                sessions = [
                    Session(
                        s.name,
                        arrivals.get((s.name, node_name), s.arrival),
                        s.phi_at(node_name),
                    )
                    for s in local
                ]
                index = [s.name for s in local].index(session_name)
                config = GPSConfig(
                    network.nodes[node_name].rate, sessions
                )
                family_fn = (
                    theorem11_family
                    if independent_inputs
                    else theorem12_family
                )
                family = family_fn(
                    config,
                    index,
                    xi=xi,
                    partition=config.partition(),
                    discrete=discrete,
                )
                theta = theta_shrink * family.theta_max
                bounds = family.bounds_at(theta)
                hops.append(
                    (
                        node_name,
                        arrivals[(session_name, node_name)],
                        theta,
                        bounds.backlog,
                        bounds.delay,
                        bounds.output,
                    )
                )
                if hop + 1 < session.num_hops:
                    arrivals[(session_name, session.route[hop + 1])] = (
                        bounds.output
                    )
            reports[session_name] = (
                hops,
                sum_of_tail_bounds([h[3] for h in hops]),
                sum_of_tail_bounds([h[4] for h in hops]),
            )
    return reports


@pytest.mark.parametrize("make_network", [rpps_tree, two_class_tandem])
@pytest.mark.parametrize("independent_inputs", [False, True])
def test_recursion_bit_identical_to_reference(
    make_network, independent_inputs
):
    network = make_network()
    new = analyze_crst_network(
        network, independent_inputs=independent_inputs
    )
    old = _reference_recursion(
        network, independent_inputs=independent_inputs
    )
    assert set(new) == set(old)
    for name, report in new.items():
        hops, backlog, delay = old[name]
        assert len(report.hops) == len(hops)
        for got, (node, arrival, theta, b, d, output) in zip(
            report.hops, hops
        ):
            assert got.node == node
            assert got.arrival == arrival
            assert got.theta == theta
            assert got.backlog.prefactor == b.prefactor
            assert got.backlog.decay_rate == b.decay_rate
            assert got.delay.prefactor == d.prefactor
            assert got.delay.decay_rate == d.decay_rate
            assert got.output == output
        assert report.network_backlog.prefactor == backlog.prefactor
        assert report.network_backlog.decay_rate == backlog.decay_rate
        assert report.end_to_end_delay.prefactor == delay.prefactor
        assert report.end_to_end_delay.decay_rate == delay.decay_rate


class TestNodeContexts:
    def test_one_context_per_node_with_local_sessions(self):
        network = rpps_tree()
        contexts = node_contexts(network)
        assert set(contexts) == {"n1", "n2", "n3"}
        assert contexts["n1"].names == ("s1", "s2")
        assert contexts["n3"].names == ("s1", "s2", "s3", "s4")

    def test_seeded_with_source_characterizations(self):
        network = rpps_tree()
        contexts = node_contexts(network)
        for session in ("s1", "s2"):
            assert (
                contexts["n3"].declaration(session).ebb
                == network.session(session).arrival
            )

    def test_partition_built_once_per_node(self):
        """Arrival updates keep rho, so the geometry cache survives —
        the structural saving of the refactor."""
        network = rpps_tree()
        contexts = node_contexts(network)
        shared = contexts["n3"]
        partition = shared.partition()
        analyze_ready = shared.version
        # simulate a recursion-style arrival update: rho preserved
        old = shared.declaration("s1").ebb
        shared.update("s1", ebb=EBB(old.rho, 2.0, 1.2))
        assert shared.version == analyze_ready + 1
        assert shared.partition() is partition
