"""Multi-node packetized (WFQ) networks.

Chains the PGPS engine across a feedforward network: each node's
departure packets become arrival packets at the session's next hop.
This is the packet-level counterpart of
:class:`repro.sim.network_sim.FluidNetworkSimulator` and lets the
PGPS corollaries (:mod:`repro.core.pgps`) be validated end to end: the
fluid network bound plus one ``L_max / r`` per hop must dominate the
simulated end-to-end packet delays.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.errors import ValidationError
from repro.faults.schedule import FaultSchedule, LinkFault
from repro.network.topology import Network
from repro.sim.packet import Packet

__all__ = ["PacketNetworkResult", "PacketNetworkSimulator"]


@dataclass(frozen=True)
class PacketHopRecord:
    """One packet's passage through one node."""

    node: str
    arrival_time: float
    departure_time: float


@dataclass(frozen=True)
class PacketJourney:
    """A packet's full path through the network."""

    session: str
    size: float
    ingress_time: float
    hops: tuple[PacketHopRecord, ...]

    @property
    def egress_time(self) -> float:
        """Departure from the last hop."""
        return self.hops[-1].departure_time

    @property
    def end_to_end_delay(self) -> float:
        """Total network delay including all queueing."""
        return self.egress_time - self.ingress_time


@dataclass(frozen=True)
class PacketNetworkResult:
    """All packet journeys of a packet-network simulation."""

    journeys: tuple[PacketJourney, ...]
    max_packet_size: float

    def session_delays(self, session: str) -> np.ndarray:
        """End-to-end delays of one session's packets, in ingress
        order."""
        mine = sorted(
            (j for j in self.journeys if j.session == session),
            key=lambda j: j.ingress_time,
        )
        return np.array([j.end_to_end_delay for j in mine])

    def summary(self) -> dict:
        """Scalar facts about the run (the :class:`SimResult` protocol)."""
        sessions = sorted({j.session for j in self.journeys})
        delays = [j.end_to_end_delay for j in self.journeys]
        return {
            "kind": "packet_network",
            "num_packets": len(self.journeys),
            "num_sessions": len(sessions),
            "max_packet_size": self.max_packet_size,
            "mean_end_to_end_delay": (
                float(np.mean(delays)) if delays else 0.0
            ),
            "max_end_to_end_delay": (
                float(max(delays)) if delays else 0.0
            ),
            "sessions": sessions,
        }

    def to_dict(self) -> dict:
        """Full JSON-serializable dump: summary plus packet journeys."""
        payload = self.summary()
        payload["journeys"] = [
            {
                "session": j.session,
                "size": j.size,
                "ingress_time": j.ingress_time,
                "egress_time": j.egress_time,
                "hops": [
                    {
                        "node": h.node,
                        "arrival_time": h.arrival_time,
                        "departure_time": h.departure_time,
                    }
                    for h in j.hops
                ],
            }
            for j in self.journeys
        ]
        return payload


class PacketNetworkSimulator:
    """Per-node WFQ over a feedforward network of GPS nodes.

    Nodes are processed in topological order; since WFQ is
    work-conserving and causal, simulating an upstream node completely
    before its downstream neighbors is exact for feedforward routes.

    ``faults`` injects a :class:`repro.faults.FaultSchedule` of
    :class:`repro.faults.LinkFault` events: packets leaving a faulted
    node are held until the down window closes and/or shifted by the
    extra latency before entering the next hop.
    """

    def __init__(
        self,
        network: Network,
        *,
        faults: FaultSchedule | None = None,
    ) -> None:
        if not network.is_feedforward():
            raise ValidationError(
                "packet networks require a feedforward route graph"
            )
        self._faults = faults if faults is not None else FaultSchedule()
        unsupported = [
            type(f).__name__
            for f in self._faults
            if not isinstance(f, LinkFault)
        ]
        if unsupported:
            raise ValidationError(
                "the packet-network simulator supports only LinkFault "
                f"models (WFQ runs each node as one batch at a fixed "
                f"rate); got {sorted(set(unsupported))}. Use the fluid "
                "network simulator for rate/burst faults."
            )
        self._network = network
        order = list(nx.topological_sort(network.route_graph()))
        in_graph = set(order)
        # nodes never appearing in any edge still need a slot
        for name in network.nodes:
            if name not in in_graph and network.sessions_at(name):
                order.append(name)
        self._node_order = [
            name for name in order if network.sessions_at(name)
        ]

    def run(
        self, ingress: dict[str, list[Packet]]
    ) -> PacketNetworkResult:
        """Simulate; ``ingress[session]`` are the session's packets
        with ``session`` indices ignored (reassigned per node)."""
        # Imported here so that importing repro.sim does not load the
        # packet engine (which itself imports repro.sim.packet).
        from repro.packet.engine import PacketEngine

        network = self._network
        sessions = {s.name: s for s in network.sessions}
        if set(ingress) != set(sessions):
            raise ValidationError(
                "ingress must cover exactly the network sessions "
                f"{sorted(sessions)}, got {sorted(ingress)}"
            )
        # Pending arrival times per (session, node); starts with the
        # ingress packets at each session's first hop.
        pending: dict[tuple[str, str], list[tuple[float, float]]] = {}
        journeys: dict[
            tuple[str, int], list[PacketHopRecord]
        ] = {}
        order_of: dict[tuple[str, int], tuple[float, float]] = {}
        for name, packets in ingress.items():
            route = sessions[name].route
            for index, packet in enumerate(
                sorted(packets, key=lambda p: p.arrival_time)
            ):
                pending.setdefault((name, route[0]), []).append(
                    (packet.arrival_time, packet.size)
                )
                journeys[(name, index)] = []
                order_of[(name, index)] = (
                    packet.arrival_time,
                    packet.size,
                )
        max_size = max(
            (p.size for packets in ingress.values() for p in packets),
            default=0.0,
        )

        for node_name in self._node_order:
            local = [
                s.name for s in network.sessions_at(node_name)
            ]
            phis = [
                sessions[s].phi_at(node_name) for s in local
            ]
            node_packets = []
            tags = []
            for k, session_name in enumerate(local):
                for arrival_time, size in sorted(
                    pending.pop((session_name, node_name), [])
                ):
                    node_packets.append(
                        Packet(k, size, arrival_time)
                    )
                    tags.append(session_name)
            if not node_packets:
                continue
            node_packets.sort(key=lambda p: (p.arrival_time, p.session))
            result = PacketEngine(
                network.nodes[node_name].rate, phis, collect=True
            ).run(node_packets)
            # Re-associate departures to sessions in arrival order.
            counters: dict[str, int] = {}
            for scheduled in sorted(
                result.packets,
                key=lambda p: (
                    p.packet.arrival_time,
                    p.packet.session,
                ),
            ):
                session_name = local[scheduled.packet.session]
                counters.setdefault(session_name, 0)
                # identify the packet's global index by per-session
                # FIFO order at this node
                session = sessions[session_name]
                hop = session.hop_index(node_name)
                # the per-session order at every hop equals ingress
                # order (FIFO within session under WFQ), so the
                # counter indexes the journey directly
                index = counters[session_name]
                counters[session_name] += 1
                journeys[(session_name, index)].append(
                    PacketHopRecord(
                        node=node_name,
                        arrival_time=scheduled.packet.arrival_time,
                        departure_time=scheduled.pgps_finish,
                    )
                )
                if hop + 1 < session.num_hops:
                    # A faulty link holds the packet (down window) or
                    # adds latency before it reaches the next hop.
                    handoff = self._faults.link_delivery_time(
                        session_name,
                        node_name,
                        scheduled.pgps_finish,
                    )
                    pending.setdefault(
                        (session_name, session.route[hop + 1]), []
                    ).append(
                        (
                            handoff,
                            scheduled.packet.size,
                        )
                    )
        journey_list = []
        for (session_name, index), hops in sorted(
            journeys.items()
        ):
            ingress_time, size = order_of[(session_name, index)]
            journey_list.append(
                PacketJourney(
                    session=session_name,
                    size=size,
                    ingress_time=ingress_time,
                    hops=tuple(hops),
                )
            )
        return PacketNetworkResult(
            journeys=tuple(journey_list),
            max_packet_size=max_size,
        )
