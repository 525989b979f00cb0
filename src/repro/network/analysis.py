"""Recursive bound propagation through CRST GPS networks (Theorem 13).

The stability argument of Section 6.1 is constructive: process the
global CRST classes in order; for every session of class ``l`` walk its
route, and at each node apply the single-node partition theorems using,
as the "earlier" sessions, exactly those in strictly lower *node*
classes — all of which belong to strictly lower global classes, so
their arrival characterizations at this node are already known.  Each
hop yields backlog/delay tail bounds and an output E.B.B.
characterization that becomes the arrival at the next hop; end-to-end
metrics come from combining per-node bounds (:func:`repro.core.bounds.
sum_of_tail_bounds`).

Each node holds a long-lived
:class:`repro.analysis.context.AnalysisContext`: the recursion
declares the node's sessions once and then *updates* a session's
arrival E.B.B. in place as upstream outputs become known.  Because an
output characterization preserves the session's upper rate ``rho``
bit for bit, those updates never change the node's partition geometry,
so the feasible partition (eqs. 37-39) is built once per node instead
of once per hop visit — the main structural saving of the context
refactor at network scale.

Because traffic streams inside a network are generally *dependent*
(they share upstream servers), the per-node step defaults to the
Hölder-based Theorem 12; pass ``independent_inputs=True`` to use
Theorem 11 when sessions are known not to interact upstream (e.g.
feedforward trees where every pair of flows shares at most the final
hop).

The Chernoff parameter at each hop is set to ``theta_shrink`` times the
hop's admissible ceiling; shrinking strictly below the ceiling is what
keeps the recursion well-posed (an output with decay ``theta`` can only
be integrated against tilts strictly below ``theta`` downstream).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.context import AnalysisContext
from repro.core.bounds import ExponentialTailBound, sum_of_tail_bounds
from repro.core.ebb import EBB
from repro.network.crst import CRSTPartition, crst_partition
from repro.network.topology import Network
from repro.utils.validation import check_in_open_interval

__all__ = [
    "SessionHopReport",
    "SessionNetworkReport",
    "analyze_crst_network",
    "node_contexts",
]


@dataclass(frozen=True)
class SessionHopReport:
    """Bounds for one session at one node of its route."""

    node: str
    arrival: EBB
    theta: float
    backlog: ExponentialTailBound
    delay: ExponentialTailBound
    output: EBB


@dataclass(frozen=True)
class SessionNetworkReport:
    """End-to-end results for one session.

    ``network_backlog`` bounds ``Q_i^net(t)`` (total session traffic
    queued anywhere in the network) and ``end_to_end_delay`` bounds
    ``D_i^net(t)``; both are assembled from the per-hop bounds without
    any independence assumption (union-bound convolution), as in the
    last step of the Theorem 13 procedure.
    """

    session: str
    hops: tuple[SessionHopReport, ...]
    network_backlog: ExponentialTailBound
    end_to_end_delay: ExponentialTailBound

    @property
    def egress(self) -> EBB:
        """E.B.B. characterization of the traffic leaving the network."""
        return self.hops[-1].output


def node_contexts(
    network: Network, *, discrete: bool = False
) -> dict[str, AnalysisContext]:
    """One :class:`AnalysisContext` per node, seeded with the node's
    sessions at their *source* characterizations.

    For sessions whose arrival characterization at a node is not yet
    known (they belong to the same or a later global class), the source
    characterization placeholder keeps ``rho`` — all that the
    feasible-partition geometry needs; their prefactors never enter any
    bound computed against this node until the recursion updates them.
    """
    contexts: dict[str, AnalysisContext] = {}
    for node_name, node in network.nodes.items():
        context = AnalysisContext(node.rate, discrete=discrete)
        for session in network.sessions_at(node_name):
            context.add(
                session.name, session.arrival, session.phi_at(node_name)
            )
        contexts[node_name] = context
    return contexts


def analyze_crst_network(
    network: Network,
    *,
    theta_shrink: float = 0.7,
    xi: float = 1.0,
    independent_inputs: bool = False,
    discrete: bool = False,
    partition: CRSTPartition | None = None,
) -> dict[str, SessionNetworkReport]:
    """Run the Theorem 13 recursion over a CRST network.

    Returns a report per session.  Raises
    :class:`repro.network.crst.NotCRSTError` if the assignment is not
    CRST.
    """
    check_in_open_interval("theta_shrink", theta_shrink, 0.0, 1.0)
    if partition is None:
        partition = crst_partition(network)
    contexts = node_contexts(network, discrete=discrete)
    reports: dict[str, SessionNetworkReport] = {}

    for class_members in partition.classes:
        for session_name in class_members:
            session = network.session(session_name)
            hop_reports: list[SessionHopReport] = []
            for hop, node_name in enumerate(session.route):
                context = contexts[node_name]
                arrival = context.declaration(session_name).ebb
                if independent_inputs:
                    family = context.theorem11_family(session_name, xi=xi)
                else:
                    family = context.theorem12_family(session_name, xi=xi)
                theta = theta_shrink * family.theta_max
                bounds = family.bounds_at(theta)
                report = SessionHopReport(
                    node=node_name,
                    arrival=arrival,
                    theta=theta,
                    backlog=bounds.backlog,
                    delay=bounds.delay,
                    output=bounds.output,
                )
                hop_reports.append(report)
                if hop + 1 < session.num_hops:
                    # propagate: the output E.B.B. keeps rho exactly,
                    # so the downstream node's partition cache survives
                    contexts[session.route[hop + 1]].update(
                        session_name, ebb=bounds.output
                    )
            reports[session_name] = SessionNetworkReport(
                session=session_name,
                hops=tuple(hop_reports),
                network_backlog=sum_of_tail_bounds(
                    [h.backlog for h in hop_reports]
                ),
                end_to_end_delay=sum_of_tail_bounds(
                    [h.delay for h in hop_reports]
                ),
            )
    return reports
