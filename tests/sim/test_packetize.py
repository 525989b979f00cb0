"""Tests for fluid-to-packet conversion."""

import numpy as np
import pytest

from repro.packet.engine import PacketEngine
from repro.sim.packetize import packetize_trace, packetize_traces


class TestPacketizeTrace:
    def test_exact_multiples(self):
        packets = packetize_trace(np.array([2.0, 0.0, 1.0]), 0, 1.0)
        assert len(packets) == 3
        assert [p.arrival_time for p in packets] == pytest.approx(
            [0.5, 1.0, 3.0]
        )

    def test_sub_slot_interpolation(self):
        # 4 units in one slot, packet size 1: boundaries at quarters.
        packets = packetize_trace(np.array([4.0]), 0, 1.0)
        assert [p.arrival_time for p in packets] == pytest.approx(
            [0.25, 0.5, 0.75, 1.0]
        )

    def test_residual_dropped(self):
        packets = packetize_trace(np.array([1.5]), 0, 1.0)
        assert len(packets) == 1

    def test_spanning_slots(self):
        # 0.6 + 0.6: the packet completes partway through slot 1.
        packets = packetize_trace(np.array([0.6, 0.6]), 0, 1.0)
        assert len(packets) == 1
        # remaining 0.4 of the packet completes at fraction 0.4/0.6
        assert packets[0].arrival_time == pytest.approx(
            1.0 + 0.4 / 0.6
        )

    def test_total_volume_conserved_up_to_residual(self):
        rng = np.random.default_rng(0)
        trace = rng.uniform(0, 1.0, size=500)
        size = 0.7
        packets = packetize_trace(trace, 0, size)
        total = len(packets) * size
        assert total <= trace.sum() + 1e-9
        assert total >= trace.sum() - size

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            packetize_trace(np.array([-1.0]), 0, 1.0)


class TestPacketizeTraces:
    def test_merged_and_sorted(self):
        traces = np.array([[1.0, 0.0], [0.0, 1.0]])
        packets = packetize_traces(traces, 1.0)
        assert [p.packet if hasattr(p, "packet") else p.session for p in packets] == [0, 1]
        times = [p.arrival_time for p in packets]
        assert times == sorted(times)

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            packetize_traces(np.array([1.0, 2.0]), 1.0)

    def test_feeds_wfq_server(self):
        rng = np.random.default_rng(1)
        traces = rng.uniform(0, 0.5, size=(2, 200))
        packets = packetize_traces(traces, 0.5)
        result = PacketEngine(1.0, [1.0, 1.0]).run(packets)
        assert result.num_packets == len(packets)
        # PG coupling holds for the packetized stochastic workload
        assert result.max_pgps_gps_gap() <= 0.5 / 1.0 + 1e-6
