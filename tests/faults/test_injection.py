"""Fault injection into the simulators and the degraded-mode reports.

Includes the flagship resilience scenario: the Section 6.3 example
network with a server degraded to 50% rate for a window — the
simulation must complete (no exception) and the result must report
per-session bound-violation counts inside the fault window.
"""

import math

import numpy as np
import pytest

from repro.errors import NumericalError, ValidationError
from repro.experiments.paper_example import (
    SESSION_NAMES,
    example_network,
    figure3_delay_bounds,
    table1_sources,
)
from repro.faults import (
    BurstFault,
    FaultSchedule,
    LinkFault,
    NumericFault,
    NumericFaultInjector,
    RateFault,
    faulted_gps_run,
    guard_finite,
    network_violation_report,
    violation_counts,
)
from repro.sim.fluid import FluidGPSServer
from repro.sim.network_sim import FluidNetworkSimulator
from repro.sim.packet import Packet
from repro.sim.packet_network import PacketNetworkSimulator
from repro.traffic.sources import OnOffTraffic


def _example_arrivals(num_slots, seed=0):
    rng = np.random.default_rng(seed)
    return {
        name: OnOffTraffic(source).generate(num_slots, rng)
        for name, source in zip(SESSION_NAMES, table1_sources())
    }


class TestFluidServerInjection:
    def test_outage_accrues_backlog_instead_of_raising(self):
        server = FluidGPSServer(rate=1.0, phis=[1.0, 1.0])
        arrivals = np.full((2, 10), 0.4)
        capacities = np.array([1.0] * 3 + [0.0] * 4 + [1.0] * 3)
        result = server.run(arrivals, capacities=capacities)
        assert result.served[:, 3:7].sum() == 0.0
        assert result.total_backlog()[6] > result.total_backlog()[2]
        assert result.effective_capacities().tolist() == (
            capacities.tolist()
        )

    def test_degraded_window_halves_throughput(self):
        server = FluidGPSServer(rate=1.0, phis=[1.0])
        arrivals = np.full((1, 100), 1.0)
        capacities = np.full(100, 0.5)
        result = server.run(arrivals, capacities=capacities)
        assert result.served.sum() == pytest.approx(50.0)

    def test_capacity_must_be_nonnegative(self):
        server = FluidGPSServer(rate=1.0, phis=[1.0])
        with pytest.raises(ValidationError):
            server.run(np.ones((1, 3)), capacities=np.array([1.0, -1.0, 1.0]))

    def test_capacities_shape_checked(self):
        server = FluidGPSServer(rate=1.0, phis=[1.0])
        with pytest.raises(ValidationError):
            server.run(np.ones((1, 5)), capacities=np.ones(4))

    def test_faulted_gps_run_applies_rate_and_burst(self):
        server = FluidGPSServer(rate=1.0, phis=[1.0, 1.0])
        arrivals = np.full((2, 20), 0.3)
        schedule = FaultSchedule(
            [
                RateFault("server", 5, 10, 0.0),
                BurstFault("session1", 0, 20, multiplier=2.0),
            ]
        )
        result = faulted_gps_run(server, arrivals, schedule)
        assert result.served[:, 5:10].sum() == 0.0
        assert result.arrivals[0].sum() == pytest.approx(12.0)
        assert result.arrivals[1].sum() == pytest.approx(6.0)


class TestNetworkInjection:
    def test_degraded_server_run_completes_and_reports(self):
        """Acceptance: 50% rate fault on the Section 6.3 network."""
        num_slots = 6000
        window = (2000, 3000)
        network = example_network(1)
        schedule = FaultSchedule(
            [RateFault("node3", window[0], window[1], 0.5)]
        )
        simulator = FluidNetworkSimulator(network, faults=schedule)
        result = simulator.run(_example_arrivals(num_slots))
        # The run records the degraded capacities it actually offered.
        caps = result.node_capacities["node3"]
        assert caps[window[0]] == pytest.approx(0.5)
        assert caps[window[1] - 1] == pytest.approx(0.5)
        assert caps[window[0] - 1] == pytest.approx(1.0)
        bounds = {
            name: report.end_to_end_delay
            for name, report in figure3_delay_bounds(1).items()
        }
        report = network_violation_report(
            result, bounds, schedule, epsilon=1e-3, warmup=500
        )
        assert set(report.sessions) == set(SESSION_NAMES)
        for name in SESSION_NAMES:
            session_report = report.sessions[name]
            assert session_report.slots_in_fault > 0
            assert session_report.violations_in_fault >= 0
            # Aggregate ingress (~0.7/slot) exceeds the degraded rate
            # 0.5, so the shared node builds a queue and the nominal
            # bound is violated during the window.
            assert (
                session_report.rate_in_fault
                >= session_report.rate_outside
            )
        assert report.total_violations_in_fault() > 0
        assert "session1" in report.summary()

    def test_link_down_traffic_is_conserved(self):
        num_slots = 4000
        network = example_network(1)
        schedule = FaultSchedule(
            [LinkFault("node1", 1000, 1200, down=True)]
        )
        arrivals = _example_arrivals(num_slots, seed=3)
        faulted = FluidNetworkSimulator(network, faults=schedule).run(
            arrivals
        )
        clean = FluidNetworkSimulator(network).run(arrivals)
        for name in ("session1", "session2"):
            # Nothing crosses node1 -> node3 while the link is down...
            assert faulted.egress[name][1001:1200].sum() <= (
                clean.egress[name][1001:1200].sum()
            )
            # ...but all of it eventually egresses (work conservation).
            assert faulted.egress[name].sum() == pytest.approx(
                clean.egress[name].sum(), rel=0.05
            )

    def test_burst_fault_changes_recorded_ingress(self):
        network = example_network(1)
        schedule = FaultSchedule(
            [BurstFault("session1", 100, 200, extra=0.5)]
        )
        arrivals = _example_arrivals(1000, seed=5)
        result = FluidNetworkSimulator(network, faults=schedule).run(
            arrivals
        )
        baseline = arrivals["session1"][100:200].sum()
        recorded = result.external_arrivals["session1"][100:200].sum()
        assert recorded == pytest.approx(baseline + 50.0)

    def test_unfaulted_result_has_no_fault_fields(self):
        network = example_network(1)
        result = FluidNetworkSimulator(network).run(
            _example_arrivals(200)
        )
        assert result.node_capacities is None
        assert result.fault_schedule is None


class TestPacketNetworkInjection:
    @staticmethod
    def _ingress(num_packets=40, spacing=2.0):
        return {
            name: [
                Packet(0, 1.0, k * spacing + offset)
                for k in range(num_packets)
            ]
            for offset, name in zip(
                (0.0, 0.3, 0.6, 0.9), SESSION_NAMES
            )
        }

    def test_link_fault_delays_downstream_packets(self):
        network = example_network(1)
        ingress = self._ingress(spacing=8.0)
        clean = PacketNetworkSimulator(network).run(ingress)
        faulted = PacketNetworkSimulator(
            network,
            faults=FaultSchedule(
                [LinkFault("node1", 0.0, 1000.0, extra_delay=10.0)]
            ),
        ).run(self._ingress(spacing=8.0))
        for name in ("session1", "session2"):
            shift = faulted.session_delays(name) - clean.session_delays(
                name
            )
            # Each packet pays the extra link delay, modulo a little
            # WFQ contention relief at the shared downstream node.
            assert np.all(shift >= 10.0 - 1.0)
            assert np.mean(shift) == pytest.approx(10.0, abs=1.0)
        # Every packet still traverses the network (nothing dropped).
        assert len(faulted.journeys) == len(clean.journeys)
        for journey in faulted.journeys:
            assert len(journey.hops) == 2

    def test_rate_faults_rejected_for_packet_networks(self):
        network = example_network(1)
        with pytest.raises(ValidationError, match="LinkFault"):
            PacketNetworkSimulator(
                network,
                faults=FaultSchedule([RateFault("node1", 0, 10, 0.5)]),
            )


class TestNumericInjection:
    def test_injector_corrupts_scheduled_calls(self):
        schedule = FaultSchedule([NumericFault("bound", 1, 2)])
        injector = NumericFaultInjector(schedule, "bound")
        wrapped = injector.wrap(lambda x: x * 2.0)
        assert wrapped(1.0) == 2.0
        assert math.isnan(wrapped(1.0))
        assert wrapped(1.0) == 2.0
        assert injector.calls == 3

    def test_overflow_mode_produces_huge_values(self):
        schedule = FaultSchedule(
            [NumericFault("bound", 0, 1, mode="overflow")]
        )
        wrapped = NumericFaultInjector(schedule, "bound").wrap(
            lambda: 1e-9
        )
        assert wrapped() >= 1e308

    def test_guard_finite_raises_typed_error(self):
        assert guard_finite("x", 1.5) == 1.5
        with pytest.raises(NumericalError):
            guard_finite("x", math.nan)
        with pytest.raises(NumericalError):
            guard_finite("x", math.inf)

    def test_guarded_pipeline_surfaces_injected_fault(self):
        schedule = FaultSchedule([NumericFault("bound", 0, 1)])
        wrapped = NumericFaultInjector(schedule, "bound").wrap(
            lambda x: math.exp(-x)
        )
        with pytest.raises(NumericalError):
            guard_finite("bound value", wrapped(1.0))


class TestViolationCounts:
    def test_counts_split_by_mask(self):
        delays = np.array([1.0, 5.0, 5.0, 1.0, np.nan])
        mask = np.array([True, True, False, False, False])
        in_fault, outside, unresolved = violation_counts(
            delays, 4.0, mask
        )
        assert (in_fault, outside, unresolved) == (1, 1, 1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            violation_counts(np.ones(3), 1.0, np.ones(4, dtype=bool))
