"""Short test-only references for the fluid GPS engines.

:func:`gps_rate_allocation` is the instantaneous fluid GPS rate
allocation.  The exact engine (:func:`repro.sim.fluid_exact.simulate_exact_gps`)
runs on the one water-fill kernel: backlogged sessions get ``inf``
work, idle ones their input rate.  This is the direct loop it is
checked against: offer the capacity in weight proportion among the
unsatisfied sessions, pin the idle sessions whose input rate is below
their offer, and hand the excess to the rest.  It sums with numpy's
pairwise ``sum``, the kernel sequentially, so the two agree to the
last bit except where the summation order rounds differently.

:class:`ScalarFluidServer` steps one trial one slot at a time, and
:func:`network_loop` is the per-slot, per-node, per-session network
loop that :meth:`repro.sim.network_sim.FluidNetworkSimulator.run_batch`
replaced.  Both run the same kernel on ``(1, N)`` rows, so every trial
of a batched run must equal them bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationFaultError, ValidationError
from repro.sim.fluid import busy_gps_slot_allocation
from repro.sim.network_sim import FluidNetworkSimulator, NetworkSimResult
from repro.utils.validation import check_arrivals

_EPS = 1e-12


def gps_rate_allocation(
    backlogged: np.ndarray,
    input_rates: np.ndarray,
    phis: np.ndarray,
    capacity: float,
) -> np.ndarray:
    """Instantaneous GPS service rates.

    Backlogged sessions absorb any rate; idle sessions are capped at
    their input rate.
    """
    num = phis.size
    allocation = np.zeros(num)
    demand = np.where(backlogged, np.inf, input_rates)
    remaining = float(capacity)
    active = demand > _EPS
    # Sessions with zero demand stay at zero allocation.
    for _ in range(num + 1):
        if remaining <= _EPS or not active.any():
            break
        total_phi = phis[active].sum()
        shares = np.zeros(num)
        shares[active] = remaining * phis[active] / total_phi
        capped = active & (demand <= shares + _EPS)
        if capped.any():
            allocation[capped] = demand[capped]
            remaining -= float(demand[capped].sum())
            active &= ~capped
        else:
            allocation[active] += shares[active]
            remaining = 0.0
    return allocation


class ScalarFluidServer:
    """One trial of a fluid GPS server, stepped one slot at a time."""

    def __init__(self, *, rate: float, phis) -> None:
        self._rate = float(rate)
        self._phis = np.ascontiguousarray(phis, dtype=float)
        self.backlog = np.zeros(self._phis.size)

    def step(self, arrivals, *, capacity: float | None = None) -> np.ndarray:
        """Advance one slot; returns per-session service amounts."""
        arr = np.ascontiguousarray(arrivals, dtype=float)
        check_arrivals(arr)
        if capacity is None:
            capacity = self._rate
        work = self.backlog + arr
        served = busy_gps_slot_allocation(work, self._phis, capacity)
        self.backlog = np.clip(work - served, 0.0, None)
        return served


def network_loop(
    simulator: FluidNetworkSimulator,
    external_arrivals: dict[str, np.ndarray],
) -> NetworkSimResult:
    """The scalar network loop: ``simulator``'s network, link delay and
    faults, one trial of ``{session: per-slot ingress}``."""
    network = simulator._network
    sessions = {s.name: s for s in network.sessions}
    if set(external_arrivals) != set(sessions):
        raise ValidationError(
            "external_arrivals must cover exactly the network "
            f"sessions {sorted(sessions)}, got "
            f"{sorted(external_arrivals)}"
        )
    lengths = {arr.shape[0] for arr in external_arrivals.values()}
    if len(lengths) != 1:
        raise ValidationError(
            f"all arrival arrays must share a length, got {lengths}"
        )
    (num_slots,) = lengths

    faults = simulator._faults
    if faults.has_burst_faults:
        external_arrivals = {
            name: faults.adjusted_arrivals(name, arr)
            for name, arr in external_arrivals.items()
        }
    capacities = {
        name: faults.node_capacities(
            name, network.nodes[name].rate, num_slots
        )
        for name in simulator._node_order
    }

    servers = {
        name: ScalarFluidServer(
            rate=network.nodes[name].rate,
            phis=[
                sessions[s].phi_at(name)
                for s in simulator._node_sessions[name]
            ],
        )
        for name in simulator._node_order
    }
    # in_transit[(session, node)]: FIFO of (due_slot, amount)
    # for link_delay >= 1 and for link-faulted traffic; for
    # link_delay == 0 a same-slot buffer handles the healthy path.
    pending: dict[tuple[str, str], list[tuple[int, float]]] = {}
    node_backlog = {
        (s, n): np.zeros(num_slots)
        for n in simulator._node_order
        for s in simulator._node_sessions[n]
    }
    node_served = {
        key: np.zeros(num_slots) for key in node_backlog
    }
    egress = {name: np.zeros(num_slots) for name in sessions}

    for t in range(num_slots):
        same_slot: dict[tuple[str, str], float] = {}
        for node_name in simulator._node_order:
            local = simulator._node_sessions[node_name]
            slot_arrivals = np.zeros(len(local))
            for k, session_name in enumerate(local):
                session = sessions[session_name]
                if session.route[0] == node_name:
                    slot_arrivals[k] += external_arrivals[
                        session_name
                    ][t]
                if simulator._link_delay == 0:
                    slot_arrivals[k] += same_slot.pop(
                        (session_name, node_name), 0.0
                    )
                queue = pending.get((session_name, node_name))
                if queue:
                    # Link faults can put a held blob (due at the
                    # window end) ahead of later healthy traffic,
                    # so scan the whole queue rather than the head.
                    still_in_transit = []
                    for due, amount in queue:
                        if due <= t:
                            slot_arrivals[k] += amount
                        else:
                            still_in_transit.append((due, amount))
                    pending[(session_name, node_name)] = (
                        still_in_transit
                    )
            served = servers[node_name].step(
                slot_arrivals, capacity=capacities[node_name][t]
            )
            backlog = servers[node_name].backlog
            for k, session_name in enumerate(local):
                node_served[(session_name, node_name)][t] = served[k]
                node_backlog[(session_name, node_name)][t] = backlog[k]
                session = sessions[session_name]
                hop = session.hop_index(node_name)
                amount = float(served[k])
                if amount <= 0.0:
                    continue
                if hop + 1 == session.num_hops:
                    egress[session_name][t] += amount
                else:
                    next_node = session.route[hop + 1]
                    delivery = faults.link_delivery_time(
                        session_name, node_name, t
                    )
                    if delivery > t:
                        # Link down or delayed: hold the traffic
                        # until the fault clears, then add the
                        # nominal link latency.
                        due = (
                            int(np.ceil(delivery))
                            + simulator._link_delay
                        )
                        pending.setdefault(
                            (session_name, next_node), []
                        ).append((max(due, t + 1), amount))
                    elif simulator._link_delay == 0:
                        same_slot[(session_name, next_node)] = (
                            same_slot.get(
                                (session_name, next_node), 0.0
                            )
                            + amount
                        )
                    else:
                        pending.setdefault(
                            (session_name, next_node), []
                        ).append((t + simulator._link_delay, amount))
        if simulator._link_delay == 0 and same_slot:
            leftovers = {k: v for k, v in same_slot.items() if v > 0}
            if leftovers:
                raise SimulationFaultError(
                    "same-slot traffic was not consumed; processing "
                    f"order is inconsistent: {leftovers}"
                )
    return NetworkSimResult(
        external_arrivals={
            name: np.asarray(arr, dtype=float)
            for name, arr in external_arrivals.items()
        },
        egress=egress,
        node_backlog=node_backlog,
        node_served=node_served,
        node_capacities=capacities if len(faults) else None,
        fault_schedule=faults if len(faults) else None,
    )
