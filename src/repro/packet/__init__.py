"""Scalable trace-driven PGPS/WFQ discrete-event simulation.

The paper's bounds are fluid-level; Sections 2 and 7 invoke the
Parekh–Gallager coupling (an ``L_max/r`` delay shift and an ``L_max``
backlog shift) to carry them over to the packet-by-packet discipline.
This package schedules that discipline and *measures* the coupling at
scale (:mod:`repro.sim.packet` holds the packet types):

* :mod:`repro.packet.vclock` — a streaming virtual clock: the busy-set
  φ mass lives in an exact incremental accumulator and the next busy
  departure in a lazy-deletion heap, so every slope change costs
  O(log busy); virtual-finish inversion (the GPS reference departure)
  resolves online against the breakpoint stream instead of a post-hoc
  binary search.
* :mod:`repro.packet.engine` — :class:`~repro.packet.engine.PacketEngine`,
  a one-pass discrete-event PGPS/WFQ engine: packets stream in from an
  iterator, scheduled packets stream out through a
  :class:`repro.online.records.RecordSink`, and memory stays
  O(in-system packets).  The library's only PGPS scheduler; the
  tests hold it bit-identical to a short reference schedule
  (``tests/packet/oracle.py``, same exactly-rounded arithmetic).
* :mod:`repro.packet.trace` — the JSONL ``PacketTrace`` wire format
  (pcap-style: arrival time, session, length) with a streaming
  reader/writer; :meth:`repro.scenario.Scenario.to_packet_trace`
  produces it from the paper's stochastic sources.
* :mod:`repro.packet.gap` — per-session PGPS−GPS departure-gap
  statistics (:class:`~repro.packet.gap.GapReport`) measured against
  the :class:`repro.core.pgps.PacketizationPenalty` ``L_max/r``
  correction.
* :mod:`repro.packet.results` — the :class:`SimResult`-style summary
  object.
* :mod:`repro.packet.serving` — packetized ingest for the online
  service: ``repro serve --packet`` drives a durable (WAL +
  snapshot) service whose engine is a :class:`PacketEngine`.
"""

from repro.packet.engine import PacketEngine
from repro.packet.gap import GapAccumulator, GapReport, SessionGap
from repro.packet.results import PacketSimResult
from repro.packet.trace import (
    PacketTrace,
    PacketTraceHeader,
    packet_from_record,
    packet_to_record,
    read_packet_trace,
    write_packet_trace,
)
from repro.packet.vclock import StreamingVirtualClock

__all__ = [
    "GapAccumulator",
    "GapReport",
    "PacketEngine",
    "PacketSimResult",
    "PacketTrace",
    "PacketTraceHeader",
    "SessionGap",
    "StreamingVirtualClock",
    "packet_from_record",
    "packet_to_record",
    "read_packet_trace",
    "write_packet_trace",
]
