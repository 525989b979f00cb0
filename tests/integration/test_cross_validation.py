"""Property-based cross-validation between independent implementations.

The library implements GPS three times — slotted water-filling, exact
continuous-time rates, and the packet-level virtual-time reference —
plus several bound routes for the same quantities.  These hypothesis
tests force the implementations to agree on randomized inputs, which
catches errors no single hand-written example would.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.fluid import FluidGPSServer, gps_slot_allocation
from repro.sim.fluid_exact import (
    RateSegment,
    gps_rate_allocation,
    simulate_exact_gps,
)

small_floats = st.floats(0.0, 2.0)
weights = st.floats(0.1, 5.0)


class TestSlottedVsExactEngines:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_end_of_slot_backlogs_agree(self, data):
        num_sessions = data.draw(st.integers(1, 4))
        num_slots = data.draw(st.integers(1, 12))
        phis = data.draw(
            st.lists(
                weights,
                min_size=num_sessions,
                max_size=num_sessions,
            )
        )
        arrivals = np.array(
            [
                data.draw(
                    st.lists(
                        small_floats,
                        min_size=num_slots,
                        max_size=num_slots,
                    )
                )
                for _ in range(num_sessions)
            ]
        )
        slotted = FluidGPSServer(rate=1.0, phis=phis).run(arrivals)
        segments = [
            RateSegment(
                float(t), tuple(arrivals[:, t].tolist())
            )
            for t in range(num_slots)
        ]
        exact = simulate_exact_gps(
            1.0, phis, segments, horizon=float(num_slots)
        )
        for t in range(1, num_slots + 1):
            for i in range(num_sessions):
                assert exact.backlog_at(
                    float(t), i
                ) == pytest.approx(
                    slotted.backlog[i, t - 1], abs=1e-6
                )

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_allocations_agree_when_everyone_is_backlogged(self, data):
        """With all sessions heavily backlogged, the slot allocation
        (volumes) equals the instantaneous allocation (rates) times
        the slot length."""
        num_sessions = data.draw(st.integers(1, 5))
        phis = np.array(
            data.draw(
                st.lists(
                    weights,
                    min_size=num_sessions,
                    max_size=num_sessions,
                )
            )
        )
        work = np.full(num_sessions, 100.0)
        slot = gps_slot_allocation(work, phis, 1.0)
        instantaneous = gps_rate_allocation(
            np.full(num_sessions, True),
            np.zeros(num_sessions),
            phis,
            1.0,
        )
        np.testing.assert_allclose(slot, instantaneous, atol=1e-9)


class TestConservationProperties:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_slotted_gps_work_conservation(self, data):
        num_sessions = data.draw(st.integers(1, 4))
        num_slots = data.draw(st.integers(1, 20))
        phis = data.draw(
            st.lists(
                weights,
                min_size=num_sessions,
                max_size=num_sessions,
            )
        )
        arrivals = np.array(
            [
                data.draw(
                    st.lists(
                        small_floats,
                        min_size=num_slots,
                        max_size=num_slots,
                    )
                )
                for _ in range(num_sessions)
            ]
        )
        result = FluidGPSServer(rate=1.0, phis=phis).run(arrivals)
        # conservation
        total = result.served.sum() + result.backlog[:, -1].sum()
        assert total == pytest.approx(arrivals.sum(), abs=1e-6)
        # capacity
        assert np.all(result.served.sum(axis=0) <= 1.0 + 1e-9)
        # work conservation: if any backlog remains at the end of a
        # slot, the full capacity was used that slot
        for t in range(num_slots):
            if result.backlog[:, t].sum() > 1e-6:
                assert result.served[:, t].sum() == pytest.approx(
                    1.0, abs=1e-6
                )

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_wfq_departure_count_and_order(self, data):
        from repro.packet.engine import PacketEngine
        from repro.sim.packet import Packet

        num_packets = data.draw(st.integers(1, 25))
        phis = [1.0, 2.0]
        packets = []
        clock = 0.0
        for _ in range(num_packets):
            clock += data.draw(st.floats(0.0, 2.0))
            packets.append(
                Packet(
                    data.draw(st.integers(0, 1)),
                    data.draw(st.floats(0.1, 1.5)),
                    clock,
                )
            )
        packets.sort(key=lambda p: (p.arrival_time, p.session))
        result = PacketEngine(1.0, phis, collect=True).run(packets)
        assert len(result.packets) == num_packets
        # non-preemptive single server: departures never overlap
        finishes = [p.pgps_finish for p in result.packets]
        starts = [p.pgps_start for p in result.packets]
        for k in range(1, num_packets):
            assert starts[k] >= finishes[k - 1] - 1e-9
        # PG coupling
        l_max = max(p.packet.size for p in result.packets)
        assert result.max_pgps_gps_gap() <= l_max + 1e-6
