"""Integration: cyclic (ring) RPPS networks — stability and bounds.

Feedforward induction does not cover rings; Theorem 13/15 do.  This
test simulates a 4-node ring (with one-slot link delays, required for
cycles) and verifies stability plus the Theorem 15 bounds, accounting
for the propagation slots the fluid theory does not model.
"""

import numpy as np
import pytest

from repro.markov.lnt94 import ebb_characterization
from repro.markov.onoff import OnOffSource
from repro.network.builders import ring_network
from repro.network.rpps_network import rpps_network_report
from repro.sim.network_sim import FluidNetworkSimulator
from repro.traffic.sources import OnOffTraffic

NUM_SLOTS = 120_000
WARMUP = 2_000
NUM_NODES = 4
HOPS = 2
MODEL = OnOffSource(0.35, 0.45, 0.5)
RHO = 0.3


@pytest.fixture(scope="module")
def ring_scenario():
    ebb = ebb_characterization(MODEL.as_mms(), RHO)
    network = ring_network(
        num_nodes=NUM_NODES, arrival=ebb, hops_per_session=HOPS
    )
    reports = rpps_network_report(network, discrete=True)
    rng = np.random.default_rng(41)
    arrivals = {
        f"s{k}": OnOffTraffic(MODEL).generate(NUM_SLOTS, rng)
        for k in range(NUM_NODES)
    }
    simulation = FluidNetworkSimulator(network, link_delay=1).run(
        arrivals
    )
    return network, reports, simulation


class TestRingStability:
    def test_backlogs_do_not_drift(self, ring_scenario):
        _, _, simulation = ring_scenario
        for k in range(NUM_NODES):
            backlog = simulation.network_backlog(f"s{k}")
            half = backlog.size // 2
            assert backlog[half:].mean() < 3.0 * max(
                backlog[WARMUP:half].mean(), 0.2
            )

    def test_every_session_drains(self, ring_scenario):
        _, _, simulation = ring_scenario
        for k in range(NUM_NODES):
            egress = simulation.egress[f"s{k}"]
            assert egress.sum() > 0.9 * simulation.external_arrivals[
                f"s{k}"
            ].sum() - 100.0


class TestRingBounds:
    def test_backlog_bound_with_transit_allowance(self, ring_scenario):
        """Q_net in the simulator includes traffic in flight on links
        (up to `hops - 1` slots of service each); allow that offset
        when comparing with the fluid bound."""
        _, reports, simulation = ring_scenario
        transit_allowance = (HOPS - 1) * 1.0  # one slot of peak rate
        for k in range(NUM_NODES):
            name = f"s{k}"
            samples = simulation.network_backlog(name)[WARMUP:]
            bound = reports[name].network_backlog
            for q in (1.5, 3.0):
                empirical = float(np.mean(samples >= q))
                assert empirical <= bound.evaluate(
                    q - transit_allowance
                ) * 1.05

    def test_delay_bound_with_propagation_allowance(
        self, ring_scenario
    ):
        """End-to-end slotted delays include ceil + (hops-1)
        propagation slots beyond the fluid-theory delay."""
        _, reports, simulation = ring_scenario
        allowance = 1.0 + (HOPS - 1)
        for k in range(NUM_NODES):
            name = f"s{k}"
            delays = simulation.end_to_end_delays(name)[WARMUP:]
            delays = delays[~np.isnan(delays)]
            bound = reports[name].end_to_end_delay
            for d in (4.0, 8.0):
                empirical = float(np.mean(delays >= d))
                assert empirical <= bound.evaluate(
                    d - allowance
                ) * 1.05
