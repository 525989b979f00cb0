"""Packetized online serving: the resilient loop, durability, recovery
and the CLI surface.

The load-bearing assertion is record-level *identity*: a durable
``--packet`` session killed mid-ingest and rebuilt by ``repro
recover`` must drain to byte-identical ``gap-report`` and ``summary``
records of the uninterrupted run.
"""

import io
import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.errors import ValidationError
from repro.online.durability import DurableOnlineService
from repro.packet.engine import PacketEngine
from repro.packet.serving import (
    DurablePacketService,
    PacketOnlineService,
    PacketStreamEngine,
)
from repro.packet.trace import PacketTraceHeader, packet_to_record
from repro.sim.packet import Packet


def make_lines(num_packets=40, num_sessions=3, seed=7, rate=2.0):
    rng = np.random.default_rng(seed)
    phis = rng.uniform(0.2, 1.0, num_sessions)
    phis = tuple(float(p) for p in phis / phis.sum())
    header = PacketTraceHeader(phis=phis, rate=rate)
    packets = sorted(
        (
            Packet(
                session=int(rng.integers(0, num_sessions)),
                size=float(rng.uniform(0.1, 1.0)),
                arrival_time=float(t),
            )
            for t in np.sort(rng.uniform(0, 6, num_packets))
        ),
        key=lambda p: (p.arrival_time, p.session),
    )
    lines = [json.dumps(header.to_record())] + [
        json.dumps(packet_to_record(p)) for p in packets
    ]
    return header, packets, lines


def records_of(buffer):
    return [json.loads(line) for line in buffer.getvalue().splitlines()]


def final_records(records):
    return [
        r for r in records if r["kind"] in ("gap-report", "summary")
    ]


class TestInMemoryServing:
    def test_serve_emits_full_record_stream(self):
        header, packets, lines = make_lines()
        out = io.StringIO()
        service = PacketOnlineService(
            PacketStreamEngine(rate=2.0), sink=out
        )
        result = service.serve(iter(lines))
        kinds = [r["kind"] for r in records_of(out)]
        assert kinds[0] == "packet-configured"
        assert kinds.count("packet-accepted") == len(packets)
        assert kinds.count("packet-served") == len(packets)
        assert kinds[-2:] == ["gap-report", "summary"]
        assert result.drained and result.num_packets == len(packets)

    def test_serving_matches_direct_engine_run(self):
        header, packets, lines = make_lines()
        out = io.StringIO()
        service = PacketOnlineService(
            PacketStreamEngine(rate=2.0), sink=out
        )
        result = service.serve(iter(lines))
        direct = PacketEngine(2.0, header.phis).run(packets)
        assert result.gap_report == direct.gap_report

    def test_packet_before_header_is_an_error_record(self):
        out = io.StringIO()
        service = PacketOnlineService(
            PacketStreamEngine(rate=1.0), sink=out
        )
        service.ingest(
            ['{"kind": "packet", "time": 0.0, "session": 0, "size": 1.0}']
        )
        assert service.errors == 1
        assert records_of(out)[0]["kind"] == "error"

    def test_fluid_event_kinds_are_rejected(self):
        _, _, lines = make_lines(num_packets=2)
        out = io.StringIO()
        service = PacketOnlineService(
            PacketStreamEngine(rate=2.0), sink=out
        )
        service.ingest(iter(lines + ['{"kind": "join", "session": 9}']))
        assert service.errors == 1

    def test_duplicate_header_is_an_error_record(self):
        _, _, lines = make_lines(num_packets=1)
        out = io.StringIO()
        service = PacketOnlineService(
            PacketStreamEngine(rate=2.0), sink=out
        )
        service.ingest(iter([lines[0], lines[0]]))
        assert service.errors == 1

    def test_header_rate_cross_check(self):
        header = PacketTraceHeader(phis=(1.0,), rate=3.0)
        engine = PacketStreamEngine(rate=2.0)
        with pytest.raises(ValidationError, match="rate"):
            engine.process(header)

    def test_rate_can_come_from_header_alone(self):
        header = PacketTraceHeader(phis=(1.0,), rate=3.0)
        engine = PacketStreamEngine()
        record = engine.process(header)
        assert record["rate"] == 3.0 and engine.rate == 3.0

    def test_malformed_lines_are_error_records(self):
        """Bad numbers in a header or packet line are served as
        ``error`` records; the good packets around them still run."""
        header, packets, lines = make_lines(num_packets=6)
        packet_lines = lines[1:]
        bad_headers = [
            '{"kind": "packet-trace-header", "version": 1, "phis": ["x"]}',
            '{"kind": "packet-trace-header", "version": 1, "phis": [null]}',
            '{"kind": "packet-trace-header", "version": 1, "phis": [true]}',
        ]
        bad_packets = [
            '{"kind": "packet", "time": 9.0, "session": Infinity, "size": 1.0}',
            '{"kind": "packet", "time": 9.0, "session": 1.7, "size": 1.0}',
            '{"kind": "packet", "time": 9.0, "session": true, "size": 1.0}',
            '{"kind": "packet", "time": 9.0, "session": 0, "size": "1"}',
            '[1, 2]',
        ]
        stream = (
            bad_headers
            + [lines[0]]
            + packet_lines[:3]
            + bad_packets
            + packet_lines[3:]
        )
        out = io.StringIO()
        service = PacketOnlineService(
            PacketStreamEngine(rate=2.0), sink=out
        )
        result = service.serve(iter(stream))
        records = records_of(out)
        errors = [r for r in records if r["kind"] == "error"]
        assert len(errors) == len(bad_headers) + len(bad_packets)
        assert all(r["error_type"] == "ValidationError" for r in errors)
        assert records[-1]["kind"] == "summary"
        assert records[-1]["summary"]["errors"] == len(errors)
        assert service.errors == len(errors)
        direct = PacketEngine(2.0, header.phis).run(packets)
        assert result.num_packets == len(packets)
        assert result.gap_report == direct.gap_report

    def test_shed_watermarks_are_rejected(self):
        with pytest.raises(ValidationError, match="shed"):
            PacketOnlineService(
                PacketStreamEngine(rate=1.0), shed_backlog=5.0
            )


class TestDurableServing:
    @pytest.mark.parametrize("cut", [1, 9, 27, 41])
    def test_crash_recover_drain_is_identical(self, tmp_path, cut):
        _, _, lines = make_lines()
        baseline_out = io.StringIO()
        service, _ = DurableOnlineService.open(
            tmp_path / "full",
            mode="create",
            rate=2.0,
            sink=baseline_out,
            packet=True,
            snapshot_every=7,
        )
        assert isinstance(service, DurablePacketService)
        baseline = service.serve(iter(lines))

        crashed_out = io.StringIO()
        crashed, _ = DurableOnlineService.open(
            tmp_path / "crashed",
            mode="create",
            rate=2.0,
            sink=crashed_out,
            packet=True,
            snapshot_every=7,
        )
        crashed.ingest(iter(lines[:cut]))
        # Crash: no drain, no WAL close.
        recovered_out = io.StringIO()
        recovered, report = DurableOnlineService.open(
            tmp_path / "crashed", mode="recover", sink=recovered_out
        )
        assert isinstance(recovered, DurablePacketService)
        assert report.applied_seq == cut
        result = recovered.serve(iter(lines[cut:]))
        assert final_records(records_of(recovered_out)) == (
            final_records(records_of(baseline_out))
        )
        assert result.gap_report == baseline.gap_report

    def test_create_rejects_admission_and_shed(self, tmp_path):
        with pytest.raises(ValidationError, match="admission"):
            DurableOnlineService.open(
                tmp_path / "a",
                mode="create",
                rate=1.0,
                packet=True,
                admission=True,
            )
        with pytest.raises(ValidationError, match="shed"):
            DurableOnlineService.open(
                tmp_path / "b",
                mode="create",
                rate=1.0,
                packet=True,
                shed_backlog=5.0,
            )

    def test_snapshot_only_recovery(self, tmp_path):
        # Snapshot every line, so recovery never needs WAL replay.
        _, _, lines = make_lines(num_packets=10)
        out = io.StringIO()
        service, _ = DurableOnlineService.open(
            tmp_path / "w",
            mode="create",
            rate=2.0,
            sink=out,
            packet=True,
            snapshot_every=1,
        )
        service.ingest(iter(lines))
        recovered_out = io.StringIO()
        recovered, report = DurableOnlineService.open(
            tmp_path / "w", mode="recover", sink=recovered_out
        )
        assert report.replayed == 0
        assert recovered.engine.events_processed == len(lines)


class TestCli:
    def write_trace(self, tmp_path, lines):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_serve_packet_then_recover_drain(self, tmp_path):
        _, packets, lines = make_lines()
        trace = self.write_trace(tmp_path, lines)

        full_out = tmp_path / "full.out"
        code = cli_main(
            [
                "serve",
                str(trace),
                "--packet",
                "--rate",
                "2.0",
                "--out",
                str(full_out),
            ]
        )
        assert code == 0
        full = [
            json.loads(line)
            for line in full_out.read_text().splitlines()
        ]
        assert full[-1]["kind"] == "summary"
        assert full[-1]["summary"]["num_packets"] == len(packets)

        # Interrupted durable session: ingest everything, crash
        # before the drain, then recover via the CLI.
        wal = tmp_path / "wal"
        service, _ = DurableOnlineService.open(
            wal,
            mode="create",
            rate=2.0,
            sink=io.StringIO(),
            packet=True,
            snapshot_every=5,
        )
        service.ingest(iter(lines))

        recovered_out = tmp_path / "recovered.out"
        code = cli_main(
            ["recover", str(wal), "--drain", "--out", str(recovered_out)]
        )
        assert code == 0
        recovered = [
            json.loads(line)
            for line in recovered_out.read_text().splitlines()
        ]
        assert final_records(recovered) == final_records(full)

    def test_packet_flag_combinations_rejected(self, tmp_path, capsys):
        _, _, lines = make_lines(num_packets=1)
        trace = self.write_trace(tmp_path, lines)
        for extra in (
            ["--admission"],
            ["--shards", "2", "--wal", str(tmp_path / "w")],
            ["--shed-backlog", "5.0"],
        ):
            code = cli_main(
                ["serve", str(trace), "--packet", "--rate", "1.0"]
                + extra
            )
            assert code == 2
            assert "--packet" in capsys.readouterr().err
