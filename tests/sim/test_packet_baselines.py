"""Tests for SCFQ and Virtual Clock packet schedulers."""

import numpy as np
import pytest

from repro.packet.engine import PacketEngine
from repro.sim.packet import Packet
from repro.sim.packet_baselines import SCFQServer, VirtualClockServer


def random_workload(seed=0, n=400, num_sessions=3, mean_gap=0.7):
    rng = np.random.default_rng(seed)
    packets = []
    clock = 0.0
    for _ in range(n):
        clock += float(rng.exponential(mean_gap))
        packets.append(
            Packet(
                int(rng.integers(0, num_sessions)),
                float(rng.uniform(0.2, 1.2)),
                clock,
            )
        )
    return packets


class TestSCFQ:
    def test_single_packet(self):
        server = SCFQServer(1.0, [1.0])
        result = server.simulate([Packet(0, 2.0, 1.0)])
        (p,) = result.packets
        assert p.start == pytest.approx(1.0)
        assert p.finish == pytest.approx(3.0)

    def test_weighted_share_under_saturation(self):
        """With both sessions continuously backlogged, throughput
        follows the weights."""
        packets = []
        for k in range(60):
            packets.append(Packet(0, 1.0, 0.0))
            packets.append(Packet(1, 1.0, 0.0))
            packets.append(Packet(1, 1.0, 0.0))
        server = SCFQServer(1.0, [1.0, 2.0])
        result = server.simulate(packets)
        horizon = 60.0
        served = [0.0, 0.0]
        for p in result.packets:
            if p.finish <= horizon:
                served[p.packet.session] += p.packet.size
        assert served[1] / served[0] == pytest.approx(2.0, rel=0.1)

    def test_close_to_wfq_delays(self):
        """SCFQ approximates WFQ; per-session mean delays should be in
        the same ballpark on a random workload."""
        packets = random_workload(seed=1)
        phis = [1.0, 2.0, 0.5]
        scfq = SCFQServer(1.0, phis).simulate(packets)
        wfq = PacketEngine(1.0, phis, collect=True).run(packets)
        for session in range(3):
            a = scfq.session_delays(session).mean()
            b = wfq.session_delays(session).mean()
            assert a == pytest.approx(b, rel=0.5)

    def test_work_conserving(self):
        packets = [Packet(0, 1.0, 0.0), Packet(1, 1.0, 0.0)]
        result = SCFQServer(2.0, [1.0, 1.0]).simulate(packets)
        assert max(p.finish for p in result.packets) == pytest.approx(
            1.0
        )

    def test_rejects_out_of_range_session(self):
        with pytest.raises(ValueError, match="out of range"):
            SCFQServer(1.0, [1.0]).simulate([Packet(2, 1.0, 0.0)])


class TestVirtualClock:
    def test_reserved_rate_spacing(self):
        """Back-to-back packets of one session get stamps spaced by
        L / r_i."""
        server = VirtualClockServer(1.0, [0.25, 0.25])
        packets = [Packet(0, 1.0, 0.0), Packet(0, 1.0, 0.0)]
        result = server.simulate(packets)
        tags = sorted(p.tag for p in result.packets)
        assert tags[1] - tags[0] == pytest.approx(4.0)

    def test_rejects_overbooked_reservations(self):
        with pytest.raises(ValueError, match="reserved"):
            VirtualClockServer(1.0, [0.6, 0.6])

    def test_idle_session_not_rewarded(self):
        """Virtual Clock's known property: a session that used the
        server while others were idle keeps a large clock and is
        penalized when competition returns."""
        server = VirtualClockServer(1.0, [0.5, 0.5])
        packets = [Packet(0, 1.0, float(t)) for t in range(10)]
        # session 1 wakes up at t=10 with a burst
        packets += [Packet(1, 1.0, 10.0) for _ in range(3)]
        packets += [Packet(0, 1.0, 10.0) for _ in range(3)]
        result = server.simulate(packets)
        s0_late = [
            p
            for p in result.packets
            if p.packet.session == 0 and p.packet.arrival_time >= 10.0
        ]
        s1 = [
            p for p in result.packets if p.packet.session == 1
        ]
        # session 0's clock ran ahead (2 per packet for 10 packets),
        # so session 1's burst is served first
        assert max(p.finish for p in s1) < max(
            p.finish for p in s0_late
        )

    def test_meets_reservation_under_congestion(self):
        rng = np.random.default_rng(3)
        packets = []
        # session 0 reserved 0.5, sends exactly 0.4; session 1
        # reserved 0.5 but floods at ~1.0
        clock = 0.0
        for t in range(200):
            packets.append(Packet(0, 0.4, float(t)))
            packets.append(Packet(1, 1.0, float(t)))
        del rng, clock
        result = VirtualClockServer(1.0, [0.5, 0.5]).simulate(packets)
        delays = result.session_delays(0)
        # the conforming session's delay stays bounded
        assert delays.max() < 10.0
