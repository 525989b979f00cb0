"""Slot-stepped simulation of a network of fluid GPS servers.

Each node of a :class:`repro.network.topology.Network` runs a
:class:`repro.sim.batch.BatchFluidGPSServer` over the sessions
traversing it, for ``B`` independent trials at once
(:meth:`FluidNetworkSimulator.run_batch`; :meth:`~FluidNetworkSimulator.run`
is ``B = 1``); a session's departures at one hop become its arrivals
at the next.

Two propagation modes:

* ``link_delay=0`` (default for feedforward networks): nodes are
  stepped in topological order so traffic can traverse the whole route
  within one slot — matching the paper's zero-propagation fluid model.
* ``link_delay>=1``: departures reach the next hop ``link_delay`` slots
  later; required for (and valid on) cyclic route graphs.

The result object exposes per-session network backlog ``Q_i^net`` and
end-to-end clearing delays ``D_i^net`` — the quantities bounded by
Theorem 15 — plus per-node traces for node-level checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.errors import ValidationError
from repro.faults.schedule import FaultSchedule
from repro.network.topology import Network
from repro.sim.batch import BatchFluidGPSServer
from repro.sim.fluid import clearing_delays
from repro.sim.results import to_jsonable
from repro.utils.validation import check_arrivals

__all__ = ["NetworkSimResult", "FluidNetworkSimulator"]


@dataclass(frozen=True)
class NetworkSimResult:
    """Traces from a network simulation.

    Attributes
    ----------
    external_arrivals:
        ``{session: per-slot ingress arrivals}``.
    egress:
        ``{session: per-slot departures from the last hop}``.
    node_backlog:
        ``{(session, node): per-slot backlog at that node}``.
    node_served:
        ``{(session, node): per-slot service at that node}``.
    node_capacities:
        ``{node: per-slot capacity offered}`` when the run was fault
        injected, else ``None``.
    fault_schedule:
        The :class:`repro.faults.FaultSchedule` the run was subjected
        to, else ``None``.
    """

    external_arrivals: dict[str, np.ndarray]
    egress: dict[str, np.ndarray]
    node_backlog: dict[tuple[str, str], np.ndarray]
    node_served: dict[tuple[str, str], np.ndarray]
    node_capacities: dict[str, np.ndarray] | None = None
    fault_schedule: FaultSchedule | None = None

    @property
    def num_slots(self) -> int:
        """Simulated horizon."""
        return next(iter(self.external_arrivals.values())).size

    def network_backlog(self, session_name: str) -> np.ndarray:
        """``Q_i^net(t)``: session traffic queued anywhere (including
        in flight on links), per slot — ingress minus egress."""
        in_cum = np.cumsum(self.external_arrivals[session_name])
        out_cum = np.cumsum(self.egress[session_name])
        return in_cum - out_cum

    def end_to_end_delays(self, session_name: str) -> np.ndarray:
        """``D_i^net(t)``: slots until the network backlog at ``t``
        clears (nan when the horizon ends first)."""
        in_cum = np.cumsum(self.external_arrivals[session_name])
        out_cum = np.cumsum(self.egress[session_name])
        return clearing_delays(in_cum, out_cum)

    def session_node_backlog(
        self, session_name: str, node_name: str
    ) -> np.ndarray:
        """Per-slot backlog of one session at one node."""
        return self.node_backlog[(session_name, node_name)]

    def summary(self) -> dict:
        """Scalar facts about the run (the :class:`SimResult` protocol)."""
        sessions = sorted(self.external_arrivals)
        return {
            "kind": "fluid_network",
            "num_sessions": len(sessions),
            "num_slots": self.num_slots,
            "num_nodes": len({node for _, node in self.node_backlog}),
            "total_arrivals": {
                name: float(self.external_arrivals[name].sum())
                for name in sessions
            },
            "total_egress": {
                name: float(self.egress[name].sum())
                for name in sessions
            },
            "final_network_backlog": {
                name: float(self.network_backlog(name)[-1])
                for name in sessions
            },
            "max_network_backlog": {
                name: float(self.network_backlog(name).max())
                for name in sessions
            },
            "fault_injected": self.fault_schedule is not None,
        }

    def to_dict(self) -> dict:
        """Full JSON-serializable dump: summary plus traces."""
        payload = self.summary()
        payload["external_arrivals"] = to_jsonable(self.external_arrivals)
        payload["egress"] = to_jsonable(self.egress)
        payload["node_backlog"] = to_jsonable(self.node_backlog)
        payload["node_served"] = to_jsonable(self.node_served)
        if self.node_capacities is not None:
            payload["node_capacities"] = to_jsonable(self.node_capacities)
        return payload


class FluidNetworkSimulator:
    """Simulate a network of fluid GPS servers slot by slot.

    ``faults`` injects a :class:`repro.faults.FaultSchedule`: server
    rate faults scale each node's per-slot capacity, burst faults
    perturb session ingress, and link faults hold or delay traffic
    between hops.  The simulation runs *through* every fault — degraded
    windows accrue backlog instead of raising — and the result records
    the capacities actually offered so degraded-mode reports can split
    violations by fault window.
    """

    def __init__(
        self,
        network: Network,
        *,
        link_delay: int | None = None,
        faults: FaultSchedule | None = None,
    ):
        self._network = network
        self._faults = faults if faults is not None else FaultSchedule()
        if link_delay is None:
            link_delay = 0 if network.is_feedforward() else 1
        if link_delay < 0:
            raise ValidationError(f"link_delay must be >= 0, got {link_delay}")
        if link_delay == 0 and not network.is_feedforward():
            raise ValidationError(
                "link_delay=0 needs a feedforward (acyclic) network; "
                "use link_delay >= 1 for cyclic route graphs"
            )
        self._link_delay = link_delay
        # Per-node session order (fixed) and servers.
        self._node_sessions = {
            name: [s.name for s in network.sessions_at(name)]
            for name in network.nodes
        }
        self._node_order = self._processing_order()

    def _processing_order(self) -> list[str]:
        names = [
            name
            for name in self._network.nodes
            if self._node_sessions[name]
        ]
        if self._link_delay > 0:
            return names
        graph = self._network.route_graph()
        order = list(nx.topological_sort(graph))
        return [name for name in order if name in names]

    # ------------------------------------------------------------------
    def run(
        self, external_arrivals: dict[str, np.ndarray]
    ) -> NetworkSimResult:
        """Simulate; ``external_arrivals`` maps every session name to a
        per-slot ingress array (all the same length).  The ``B = 1``
        case of :meth:`run_batch`."""
        (result,) = self.run_batch(
            {
                name: np.asarray(arr, dtype=float)[None]
                for name, arr in external_arrivals.items()
            }
        )
        return result

    def run_batch(
        self, external_arrivals: dict[str, np.ndarray]
    ) -> list[NetworkSimResult]:
        """Simulate ``B`` independent trials in one slot loop.

        ``external_arrivals`` maps every session name to a ``(B, T)``
        ingress block (all the same shape); returns one
        :class:`NetworkSimResult` per trial.  Each node is a
        :class:`repro.sim.batch.BatchFluidGPSServer` over ``(B, n)``
        state and every hand-off carries a ``(B,)`` amount, so trial
        ``b`` is bit-for-bit a one-trial run of its own arrivals.
        """
        network = self._network
        sessions = {s.name: s for s in network.sessions}
        if set(external_arrivals) != set(sessions):
            raise ValidationError(
                "external_arrivals must cover exactly the network "
                f"sessions {sorted(sessions)}, got "
                f"{sorted(external_arrivals)}"
            )
        shapes = {arr.shape for arr in external_arrivals.values()}
        if len(shapes) != 1 or len(next(iter(shapes))) != 2:
            raise ValidationError(
                "all arrival arrays must share a (trials, length) "
                f"shape, got {shapes}"
            )
        ((num_trials, num_slots),) = shapes
        faults = self._faults
        external = {}
        for name, arr in external_arrivals.items():
            arr = np.asarray(arr, dtype=float)
            if faults.has_burst_faults:
                arr = np.stack(
                    [faults.adjusted_arrivals(name, row) for row in arr]
                )
            check_arrivals(arr)
            external[name] = arr
        capacities = {
            name: faults.node_capacities(
                name, network.nodes[name].rate, num_slots
            )
            for name in self._node_order
        }
        delay = self._link_delay
        order = self._node_order
        local = [self._node_sessions[name] for name in order]
        column = {
            (s, name): (j, k)
            for j, name in enumerate(order)
            for k, s in enumerate(local[j])
        }
        servers, ingress, handoffs = [], [], []
        for j, name in enumerate(order):
            servers.append(
                BatchFluidGPSServer(
                    rate=network.nodes[name].rate,
                    phis=[sessions[s].phi_at(name) for s in local[j]],
                )
            )
            servers[-1].reset(num_trials)
            routes = [sessions[s].route for s in local[j]]
            ingress.append([k for k, r in enumerate(routes) if r[0] == name])
            # (column here, session, next node, column there)
            handoffs.append(
                [
                    (k, s) + column[(s, r[r.index(name) + 1])]
                    for k, (s, r) in enumerate(zip(local[j], routes))
                    if r[-1] != name
                ]
            )
        ext = [
            np.stack([external[local[j][k]] for k in ks], axis=1)
            if ks
            else None
            for j, ks in enumerate(ingress)
        ]
        served_trace = [
            np.zeros((num_trials, len(ls), num_slots)) for ls in local
        ]
        backlog_trace = [np.zeros_like(trace) for trace in served_trace]
        # pending[(j, k)]: FIFO of (due slot, (B,) amount) for
        # link_delay >= 1 and for link-faulted traffic.
        pending: dict[tuple[int, int], list] = {}
        for t in range(num_slots):
            inboxes = [np.zeros((num_trials, len(ls))) for ls in local]
            for j, name in enumerate(order):
                inbox = inboxes[j]
                if ingress[j]:
                    inbox[:, ingress[j]] = ext[j][:, :, t]
                for k in range(len(local[j]) if pending else 0):
                    queue = pending.get((j, k))
                    if queue:
                        # Link faults can put a held blob (due at the
                        # window end) ahead of later healthy traffic,
                        # so scan the whole queue rather than the head.
                        for due, amount in queue:
                            if due <= t:
                                inbox[:, k] += amount
                        queue[:] = [e for e in queue if e[0] > t]
                served = servers[j]._step_fast(
                    inbox, np.full(num_trials, capacities[name][t])
                )
                served_trace[j][:, :, t] = served
                backlog_trace[j][:, :, t] = servers[j]._backlog
                for k, session_name, nj, nk in handoffs[j]:
                    due = t + delay
                    if len(faults):
                        delivery = faults.link_delivery_time(
                            session_name, name, t
                        )
                        if delivery > t:
                            # Link down or delayed: hold the traffic
                            # until the fault clears, then add the
                            # nominal link latency.
                            due = max(int(np.ceil(delivery)) + delay, t + 1)
                    if due == t:
                        inboxes[nj][:, nk] += served[:, k]
                    else:
                        pending.setdefault((nj, nk), []).append(
                            (due, served[:, k].copy())
                        )
        last_hop = {s: column[(s, x.route[-1])] for s, x in sessions.items()}
        fault_schedule = faults if len(faults) else None
        return [
            NetworkSimResult(
                external_arrivals={
                    name: arr[b] for name, arr in external.items()
                },
                egress={
                    s: served_trace[j][b, k].copy()
                    for s, (j, k) in last_hop.items()
                },
                node_backlog={
                    key: backlog_trace[j][b, k]
                    for key, (j, k) in column.items()
                },
                node_served={
                    key: served_trace[j][b, k]
                    for key, (j, k) in column.items()
                },
                node_capacities=capacities if fault_schedule else None,
                fault_schedule=fault_schedule,
            )
            for b in range(num_trials)
        ]
