"""Integration: packetized (PGPS) bounds vs the packet WFQ simulator.

The full packet pipeline: stochastic fluid sources -> packetization ->
WFQ simulation, compared against the fluid statistical bounds shifted
by the Parekh-Gallager packetization penalty
(:mod:`repro.core.pgps`).  The shifted bound must dominate the
empirical packet-delay CCDF.
"""

import numpy as np
import pytest

from repro.core.gps import rpps_config
from repro.core.pgps import PacketizationPenalty, pgps_session_bounds
from repro.analysis.single_node import theorem10_bounds
from repro.markov.lnt94 import ebb_characterization
from repro.markov.onoff import OnOffSource
from repro.packet.engine import PacketEngine
from repro.sim.packetize import packetize_traces
from repro.traffic.sources import OnOffTraffic

NUM_SLOTS = 60_000
PACKET_SIZE = 0.1


@pytest.fixture(scope="module")
def packet_simulation():
    models = [OnOffSource(0.3, 0.7, 0.5), OnOffSource(0.4, 0.4, 0.4)]
    rhos = [0.3, 0.35]
    config = rpps_config(
        1.0,
        [
            (f"s{i}", ebb_characterization(m.as_mms(), rho))
            for i, (m, rho) in enumerate(zip(models, rhos))
        ],
    )
    rng = np.random.default_rng(23)
    traces = np.vstack(
        [OnOffTraffic(m).generate(NUM_SLOTS, rng) for m in models]
    )
    packets = packetize_traces(traces, PACKET_SIZE)
    result = PacketEngine(1.0, config.phis, collect=True).run(packets)
    return config, result


class TestPgpsBoundVsWfqSim:
    def test_shifted_bound_dominates_packet_delays(
        self, packet_simulation
    ):
        config, result = packet_simulation
        penalty = PacketizationPenalty(PACKET_SIZE, 1.0)
        for i in range(2):
            fluid = theorem10_bounds(config, i, discrete=True)
            packet_bounds = pgps_session_bounds(fluid, penalty)
            delays = result.session_delays(i)
            delays = delays[len(delays) // 50 :]  # drop warm-up
            for d in (2.0, 5.0, 10.0):
                empirical = float(np.mean(delays >= d))
                # +1 slot: the fluid bound is continuous-time while
                # the fluid sources emit in whole-slot batches.
                assert empirical <= packet_bounds.delay.evaluate(
                    d - 1.0
                ) * 1.05

    def test_packet_gap_respects_pg_coupling(self, packet_simulation):
        _, result = packet_simulation
        assert result.max_pgps_gps_gap() <= PACKET_SIZE / 1.0 + 1e-6

    def test_gps_reference_delays_below_pgps(self, packet_simulation):
        """On average, the fluid reference is no slower than PGPS
        minus the packetization penalty."""
        _, result = packet_simulation
        for i in range(2):
            packets = result.session_packets(i)
            gps_mean = float(
                np.mean([p.gps_delay for p in packets])
            )
            pgps_mean = float(
                np.mean([p.pgps_delay for p in packets])
            )
            assert gps_mean <= pgps_mean + PACKET_SIZE
