"""A8 — route-length independence of the RPPS bounds (Theorem 15).

The paper's strongest structural claim: under RPPS the end-to-end
bounds depend only on the bottleneck, not on the route length.  This
bench sweeps tandem chains of growing length with the same per-node
load, verifies the bound is literally constant, and simulates each
chain to show the empirical delays grow with hops while remaining
dominated by the constant bound.
"""

import numpy as np

from benchmarks.conftest import report
from repro.core.ebb import EBB
from repro.experiments.tables import format_table
from repro.markov.lnt94 import ebb_characterization
from repro.markov.onoff import OnOffSource
from repro.network.builders import tandem_network
from repro.network.rpps_network import rpps_network_bounds
from repro.sim.network_sim import FluidNetworkSimulator
from repro.traffic.sources import OnOffTraffic

NUM_SLOTS = 40_000
HOPS = (1, 2, 4)
THROUGH_MODEL = OnOffSource(0.3, 0.7, 0.5)
CROSS_MODEL = OnOffSource(0.4, 0.4, 0.4)
#: Below the combined peak rate (0.9) so queues actually form, above
#: the combined upper rate (0.5) so the network is stable.
NODE_RATE = 0.55


def run_experiment():
    through = ebb_characterization(THROUGH_MODEL.as_mms(), 0.2)
    cross = ebb_characterization(CROSS_MODEL.as_mms(), 0.3)
    rows = []
    for hops in HOPS:
        network = tandem_network(
            num_hops=hops, through=through, cross=cross, node_rate=NODE_RATE
        )
        bound = rpps_network_bounds(
            network, "through", discrete=True
        ).end_to_end_delay
        rng = np.random.default_rng(hops)
        arrivals = {
            "through": OnOffTraffic(THROUGH_MODEL).generate(
                NUM_SLOTS, rng
            )
        }
        for k in range(hops):
            arrivals[f"cross{k}"] = OnOffTraffic(
                CROSS_MODEL
            ).generate(NUM_SLOTS, rng)
        sim = FluidNetworkSimulator(network).run(arrivals)
        delays = sim.end_to_end_delays("through")[1000:]
        delays = delays[~np.isnan(delays)]
        d = 8.0
        rows.append(
            [
                hops,
                float(delays.mean()),
                float(np.mean(delays >= d)),
                bound.evaluate(d - 1.0),
                bound.prefactor,
                bound.decay_rate,
            ]
        )
    return rows


def test_route_length_independence(once):
    rows = once(run_experiment)
    report(
        "A8: tandem sweep — simulated delay grows with hops, the "
        "Theorem 15 bound does not",
        format_table(
            [
                "hops",
                "mean delay",
                "Pr{D >= 8} (sim)",
                "bound at 8",
                "bound prefactor",
                "bound decay",
            ],
            rows,
        ),
    )
    # the bound is identical across chain lengths
    prefactors = {round(row[4], 12) for row in rows}
    decays = {round(row[5], 12) for row in rows}
    assert len(prefactors) == 1
    assert len(decays) == 1
    # and dominates every simulated tail
    for row in rows:
        assert row[2] <= row[3] * 1.05
    # while the actual mean delay grows with the route length
    means = [row[1] for row in rows]
    assert means[-1] > means[0]
