"""A6 — Fluid GPS vs packetized GPS (PGPS / WFQ).

The paper analyzes the fluid discipline and notes the packetized
extension follows Parekh & Gallager's coupling: every packet departs
PGPS no later than its fluid-GPS departure plus ``L_max / r``.  This
bench simulates a packetized workload, verifies the coupling bound on
every packet and reports the per-session mean and maximum
packetization penalty.
"""

import numpy as np

from benchmarks.conftest import report
from repro.experiments.tables import format_table
from repro.packet.engine import PacketEngine
from repro.sim.packet import Packet

NUM_PACKETS = 2_000
RATE = 1.0
PHIS = (1.0, 2.0, 0.5)


def run_experiment():
    rng = np.random.default_rng(17)
    packets = []
    clock = 0.0
    for _ in range(NUM_PACKETS):
        clock += float(rng.exponential(0.7))
        session = int(rng.integers(0, len(PHIS)))
        size = float(rng.uniform(0.2, 1.2))
        packets.append(Packet(session, size, clock))
    return PacketEngine(RATE, PHIS, collect=True).run(packets)


def test_pgps_vs_gps(once):
    result = once(run_experiment)
    l_max = max(p.packet.size for p in result.packets)
    rows = []
    for session in range(len(PHIS)):
        scheduled = result.session_packets(session)
        gaps = np.array(
            [p.pgps_finish - p.gps_finish for p in scheduled]
        )
        pgps_delays = np.array([p.pgps_delay for p in scheduled])
        gps_delays = np.array([p.gps_delay for p in scheduled])
        rows.append(
            [
                f"s{session}",
                len(scheduled),
                float(gps_delays.mean()),
                float(pgps_delays.mean()),
                float(gaps.max()),
            ]
        )
    report(
        "A6: PGPS vs fluid GPS per-session delays "
        f"(L_max/r = {l_max / RATE:.3f})",
        format_table(
            [
                "session",
                "packets",
                "mean GPS delay",
                "mean PGPS delay",
                "max finish gap",
            ],
            rows,
        ),
    )
    # PG coupling on every packet.
    assert result.max_pgps_gps_gap() <= l_max / RATE + 1e-6
