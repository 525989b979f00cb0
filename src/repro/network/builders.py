"""Topology builders: parametric RPPS network families.

Factories for the network shapes used throughout the GPS literature —
tandems (chains), trees like the paper's Figure 2, and rings (cyclic
route graphs, exercising the arbitrary-topology side of Theorem 13).
All builders produce RPPS assignments (``phi = rho`` everywhere) so the
closed-form Theorem 15 bounds apply, and are used by the
route-independence bench and property tests.

Builders are keyword-only and accept either explicit E.B.B.
characterizations or a :class:`repro.scenario.Scenario` (whose ``ebbs``
supply the per-session envelopes and whose ``rate`` becomes the node
rate).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.ebb import EBB
from repro.network.topology import Network, NetworkNode, NetworkSession

from repro.errors import ValidationError

__all__ = ["tandem_network", "tree_network", "ring_network"]


def _scenario_ebbs(scenario) -> tuple:
    ebbs = getattr(scenario, "ebbs", None)
    if ebbs is None:
        raise ValidationError(
            "scenario has no E.B.B. characterizations (ebbs=None); "
            "network builders need per-session envelopes"
        )
    return tuple(ebbs)


def tandem_network(
    *,
    num_hops: int | None = None,
    through: EBB | None = None,
    cross: EBB | None = None,
    scenario=None,
    node_rate: float | None = None,
) -> Network:
    """A chain of ``num_hops`` nodes.

    One *through* session traverses the whole chain; at every node an
    independent *cross* session (same characterization, distinct name)
    enters and leaves.  The through session's bottleneck is identical at
    every hop, making this the canonical testbed for Theorem 15's
    route-length independence.

    With ``scenario=``: ``ebbs[0]`` is the through session, ``ebbs[1]``
    the cross session, ``num_hops`` defaults to ``num_sessions - 1``
    (the remaining sessions become the per-hop cross traffic), and the
    node rate defaults to the scenario's server rate.
    """
    if scenario is not None:
        if through is not None or cross is not None:
            raise ValidationError(
                "pass either scenario= or through=/cross=, not both"
            )
        ebbs = _scenario_ebbs(scenario)
        if len(ebbs) < 2:
            raise ValidationError(
                "tandem_network(scenario=...) needs at least two "
                "sessions (through and cross)"
            )
        through, cross = ebbs[0], ebbs[1]
        if num_hops is None:
            num_hops = max(1, scenario.num_sessions - 1)
        if node_rate is None:
            node_rate = scenario.rate
    if num_hops is None or through is None or cross is None:
        raise ValidationError(
            "tandem_network requires num_hops=, through= and cross= "
            "(or scenario=)"
        )
    if node_rate is None:
        node_rate = 1.0
    if num_hops < 1:
        raise ValidationError(f"num_hops must be >= 1, got {num_hops}")
    nodes = [
        NetworkNode(f"n{k}", node_rate) for k in range(num_hops)
    ]
    sessions = [
        NetworkSession(
            "through",
            through,
            tuple(f"n{k}" for k in range(num_hops)),
            through.rho,
        )
    ]
    for k in range(num_hops):
        sessions.append(
            NetworkSession(
                f"cross{k}", cross, (f"n{k}",), cross.rho
            )
        )
    return Network(nodes, sessions)


def tree_network(
    *,
    leaf_sessions: Sequence[Sequence[EBB]] | None = None,
    scenario=None,
    node_rate: float | None = None,
) -> Network:
    """A two-level tree: one leaf node per entry, all feeding a root.

    ``leaf_sessions[k]`` lists the arrivals entering at leaf ``k``;
    every session's route is (leaf_k, root).  The paper's Figure 2 is
    ``tree_network(leaf_sessions=[[s1, s2], [s3, s4]])``.

    With ``scenario=``: each session becomes its own leaf feeding the
    root, and the node rate defaults to the scenario's server rate.
    """
    if scenario is not None:
        if leaf_sessions is not None:
            raise ValidationError(
                "pass either scenario= or leaf_sessions=, not both"
            )
        leaf_sessions = [[ebb] for ebb in _scenario_ebbs(scenario)]
        if node_rate is None:
            node_rate = scenario.rate
    if leaf_sessions is None:
        raise ValidationError(
            "tree_network requires leaf_sessions= (or scenario=)"
        )
    if node_rate is None:
        node_rate = 1.0
    if not leaf_sessions:
        raise ValidationError("need at least one leaf")
    nodes = [NetworkNode("root", node_rate)]
    sessions = []
    for k, arrivals in enumerate(leaf_sessions):
        if not arrivals:
            raise ValidationError(f"leaf {k} has no sessions")
        nodes.append(NetworkNode(f"leaf{k}", node_rate))
        for j, ebb in enumerate(arrivals):
            sessions.append(
                NetworkSession(
                    f"s{k}_{j}", ebb, (f"leaf{k}", "root"), ebb.rho
                )
            )
    return Network(nodes, sessions)


def ring_network(
    *,
    num_nodes: int | None = None,
    arrival: EBB | None = None,
    scenario=None,
    hops_per_session: int = 2,
    node_rate: float | None = None,
) -> Network:
    """A ring: session ``k`` enters at node ``k`` and traverses the
    next ``hops_per_session`` nodes clockwise.

    For ``hops_per_session >= 2`` the route graph is cyclic — the case
    where stability genuinely needs Theorem 13 rather than feedforward
    induction.

    With ``scenario=``: a homogeneous ring of ``num_sessions`` nodes
    built from ``ebbs[0]``, node rate defaulting to the scenario's
    server rate.
    """
    if scenario is not None:
        if arrival is not None:
            raise ValidationError(
                "pass either scenario= or arrival=, not both"
            )
        arrival = _scenario_ebbs(scenario)[0]
        if num_nodes is None:
            num_nodes = scenario.num_sessions
        if node_rate is None:
            node_rate = scenario.rate
    if num_nodes is None or arrival is None:
        raise ValidationError(
            "ring_network requires num_nodes= and arrival= (or scenario=)"
        )
    if node_rate is None:
        node_rate = 1.0
    if num_nodes < 2:
        raise ValidationError(f"num_nodes must be >= 2, got {num_nodes}")
    if not 1 <= hops_per_session <= num_nodes:
        raise ValidationError(
            f"hops_per_session must be in [1, {num_nodes}], got "
            f"{hops_per_session}"
        )
    nodes = [
        NetworkNode(f"n{k}", node_rate) for k in range(num_nodes)
    ]
    sessions = []
    for k in range(num_nodes):
        route = tuple(
            f"n{(k + h) % num_nodes}" for h in range(hops_per_session)
        )
        sessions.append(
            NetworkSession(f"s{k}", arrival, route, arrival.rho)
        )
    return Network(nodes, sessions)
