"""A15 — packet-level scheduler comparison: WFQ vs SCFQ vs Virtual
Clock.

WFQ is the packetized version of the GPS discipline the paper
analyzes; SCFQ approximates its virtual clock cheaply and Virtual
Clock replaces fairness with per-session reservations.  This bench
runs all three on one randomized workload and reports per-session mean
and 99th-percentile delays — quantifying what the GPS fidelity of WFQ
buys.
"""

import numpy as np

from benchmarks.conftest import report
from repro.experiments.tables import format_table
from repro.sim.measurements import tail_quantile
from repro.packet.engine import PacketEngine
from repro.sim.packet import Packet
from repro.sim.packet_baselines import SCFQServer, VirtualClockServer

NUM_PACKETS = 3_000
PHIS = (0.5, 0.3, 0.2)
RATE = 1.0


def build_workload():
    rng = np.random.default_rng(77)
    packets = []
    clock = 0.0
    for _ in range(NUM_PACKETS):
        clock += float(rng.exponential(0.75))
        session = int(rng.choice(3, p=[0.5, 0.3, 0.2]))
        size = float(rng.uniform(0.2, 1.0))
        packets.append(Packet(session, size, clock))
    return packets


def run_comparison():
    packets = build_workload()
    results = {
        "WFQ (PGPS)": PacketEngine(RATE, PHIS, collect=True).run(packets),
        "SCFQ": SCFQServer(RATE, PHIS).simulate(packets),
        "VirtualClock": VirtualClockServer(
            RATE, [0.45, 0.3, 0.2]
        ).simulate(packets),
    }
    rows = []
    for label, result in results.items():
        for session in range(3):
            delays = result.session_delays(session)
            rows.append(
                [
                    label,
                    session,
                    float(delays.mean()),
                    tail_quantile(delays, 0.01),
                ]
            )
    return rows


def test_packet_scheduler_comparison(once):
    rows = once(run_comparison)
    report(
        "A15: per-session packet delays under WFQ / SCFQ / "
        "Virtual Clock",
        format_table(
            ["scheduler", "session", "mean delay", "99% delay"], rows
        ),
    )
    by_key = {(row[0], row[1]): row for row in rows}
    for session in range(3):
        wfq_mean = by_key[("WFQ (PGPS)", session)][2]
        scfq_mean = by_key[("SCFQ", session)][2]
        # SCFQ tracks WFQ closely on average
        assert scfq_mean == wfq_mean or abs(
            scfq_mean - wfq_mean
        ) / wfq_mean < 0.5
        # all schedulers keep delays finite and sane
        for label in ("WFQ (PGPS)", "SCFQ", "VirtualClock"):
            assert by_key[(label, session)][3] < 100.0
