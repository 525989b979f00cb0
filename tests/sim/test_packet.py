"""Behaviour of the PGPS (packetized WFQ) scheduler, PacketEngine."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.packet.engine import PacketEngine
from repro.sim.packet import Packet


def simulate(rate, phis, packets):
    """Run the engine over ``packets`` with every stamp kept."""
    return PacketEngine(rate, phis, collect=True).run(packets)


class TestPacketValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            Packet(-1, 1.0, 0.0)
        with pytest.raises(ValueError):
            Packet(0, 0.0, 0.0)
        with pytest.raises(ValueError):
            Packet(0, 1.0, -1.0)


class TestSinglePacket:
    def test_transmission_time(self):
        result = simulate(2.0, [1.0], [Packet(0, 4.0, 1.0)])
        (pkt,) = result.packets
        assert pkt.pgps_start == pytest.approx(1.0)
        assert pkt.pgps_finish == pytest.approx(3.0)
        assert pkt.gps_finish == pytest.approx(3.0)

    def test_virtual_stamps(self):
        result = simulate(1.0, [2.0], [Packet(0, 1.0, 0.0)])
        (pkt,) = result.packets
        assert pkt.virtual_start == pytest.approx(0.0)
        assert pkt.virtual_finish == pytest.approx(0.5)  # L / phi


class TestTwoSessions:
    def test_weighted_interleaving(self):
        """Backlogged sessions share the output in phi proportion:
        session 1 (weight 2) finishes two packets per session 0
        packet in the fluid reference."""
        packets = [
            Packet(0, 1.0, 0.0),
            Packet(0, 1.0, 0.0),
            Packet(1, 1.0, 0.0),
            Packet(1, 1.0, 0.0),
            Packet(1, 1.0, 0.0),
            Packet(1, 1.0, 0.0),
        ]
        result = simulate(1.0, [1.0, 2.0], packets)
        # virtual finishes: session0: 1, 2; session1: 0.5, 1.0, 1.5, 2.0
        s0 = result.session_packets(0)
        s1 = result.session_packets(1)
        assert [p.virtual_finish for p in s0] == pytest.approx([1.0, 2.0])
        assert [p.virtual_finish for p in s1] == pytest.approx(
            [0.5, 1.0, 1.5, 2.0]
        )

    def test_departure_order_follows_virtual_finish(self):
        packets = [
            Packet(0, 1.0, 0.0),
            Packet(1, 1.0, 0.0),
        ]
        result = simulate(1.0, [1.0, 2.0], packets)
        finishes = [
            (p.packet.session, p.pgps_finish) for p in result.packets
        ]
        # session 1 has the smaller virtual finish, so departs first
        assert finishes[0][0] == 1
        assert finishes[0][1] < finishes[1][1]

    def test_idle_gap_resets_competition(self):
        packets = [
            Packet(0, 1.0, 0.0),
            Packet(1, 1.0, 10.0),
        ]
        result = simulate(1.0, [1.0, 1.0], packets)
        s1 = result.session_packets(1)[0]
        assert s1.pgps_start == pytest.approx(10.0)
        assert s1.pgps_finish == pytest.approx(11.0)


class TestParekgGallagerCoupling:
    def test_pgps_finish_within_lmax_over_r_of_gps(self):
        """PG's theorem: PGPS departs no later than GPS + L_max / r."""
        rng = np.random.default_rng(0)
        rate = 1.0
        phis = [1.0, 2.0, 0.5]
        packets = []
        clock = 0.0
        for _ in range(300):
            clock += float(rng.exponential(0.6))
            session = int(rng.integers(0, 3))
            size = float(rng.uniform(0.2, 1.5))
            packets.append(Packet(session, size, clock))
        result = simulate(rate, phis, packets)
        l_max = max(p.packet.size for p in result.packets)
        assert result.max_pgps_gps_gap() <= l_max / rate + 1e-6

    def test_gps_finish_after_arrival(self):
        rng = np.random.default_rng(1)
        packets = [
            Packet(int(rng.integers(0, 2)), float(rng.uniform(0.1, 1.0)),
                   float(t * 0.7))
            for t in range(100)
        ]
        result = simulate(1.0, [1.0, 1.0], packets)
        for p in result.packets:
            assert p.gps_finish >= p.packet.arrival_time - 1e-9
            assert p.pgps_finish >= p.packet.arrival_time + p.packet.size

    def test_work_conservation_busy_period(self):
        """With continuous backlog the server never idles: total PGPS
        transmission spans exactly total size / rate."""
        packets = sorted(
            (Packet(i % 2, 1.0, 0.0) for i in range(10)),
            key=lambda p: (p.arrival_time, p.session),
        )
        result = simulate(2.0, [1.0, 1.0], packets)
        last_finish = max(p.pgps_finish for p in result.packets)
        assert last_finish == pytest.approx(10.0 / 2.0)


class TestSessionDelays:
    def test_session_delays_vector(self):
        packets = [Packet(0, 1.0, 0.0), Packet(0, 1.0, 0.0)]
        result = simulate(1.0, [1.0, 1.0], packets)
        delays = result.session_delays(0)
        assert delays.shape == (2,)
        assert np.all(delays >= 1.0 - 1e-9)

    def test_session_views_need_collected_packets(self):
        result = PacketEngine(1.0, [1.0]).run([Packet(0, 1.0, 0.0)])
        with pytest.raises(ValidationError, match="collect=True"):
            result.session_delays(0)

    def test_rejects_out_of_range_session(self):
        with pytest.raises(ValueError, match="out of range"):
            simulate(1.0, [1.0], [Packet(3, 1.0, 0.0)])
