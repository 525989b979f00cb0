"""Simulators: fluid GPS, packet types and packet networks (PGPS),
baseline schedulers, multi-node networks and measurement utilities."""

from repro.sim.baselines import (
    FCFSServer,
    StaticPriorityServer,
    WeightedRoundRobinServer,
)
from repro.sim.batch import BatchFluidGPSServer, BatchGPSSimResult
from repro.sim.class_based import ClassBasedGPSServer
from repro.sim.decay import DecayFit, estimate_decay_rate
from repro.sim.fluid_exact import (
    FluidTrajectory,
    RateSegment,
    simulate_exact_gps,
)
from repro.sim.fluid import (
    FluidGPSServer,
    GPSSimResult,
    clearing_delays,
    gps_slot_allocation,
)
from repro.sim.measurements import (
    BoundComparison,
    busy_periods,
    compare_bound_to_samples,
    empirical_ccdf,
    tail_quantile,
)
from repro.sim.network_sim import FluidNetworkSimulator, NetworkSimResult
from repro.sim.packet import Packet, ScheduledPacket
from repro.sim.packet_network import (
    PacketNetworkResult,
    PacketNetworkSimulator,
)
from repro.sim.packet_baselines import (
    SCFQServer,
    TaggedPacket,
    TaggedResult,
    VirtualClockServer,
)
from repro.sim.packetize import (
    FixedSize,
    PacketSizeModel,
    TruncatedGeometricSize,
    UniformSize,
    packetize_trace,
    packetize_trace_model,
    packetize_traces,
    packetize_traces_model,
)
from repro.sim.results import SimResult, to_jsonable
from repro.sim.statistics import (
    BatchMeansEstimate,
    batch_means_tail,
    dominance_check,
)

__all__ = [
    "FCFSServer",
    "StaticPriorityServer",
    "WeightedRoundRobinServer",
    "FluidGPSServer",
    "GPSSimResult",
    "BatchFluidGPSServer",
    "BatchGPSSimResult",
    "SimResult",
    "to_jsonable",
    "clearing_delays",
    "gps_slot_allocation",
    "BoundComparison",
    "busy_periods",
    "compare_bound_to_samples",
    "empirical_ccdf",
    "tail_quantile",
    "FluidNetworkSimulator",
    "NetworkSimResult",
    "Packet",
    "ScheduledPacket",
    "packetize_trace",
    "packetize_trace_model",
    "packetize_traces",
    "packetize_traces_model",
    "FixedSize",
    "PacketSizeModel",
    "TruncatedGeometricSize",
    "UniformSize",
    "SCFQServer",
    "TaggedPacket",
    "TaggedResult",
    "VirtualClockServer",
    "BatchMeansEstimate",
    "batch_means_tail",
    "dominance_check",
    "FluidTrajectory",
    "RateSegment",
    "simulate_exact_gps",
    "DecayFit",
    "estimate_decay_rate",
    "ClassBasedGPSServer",
    "PacketNetworkResult",
    "PacketNetworkSimulator",
]
