"""The JSONL ingestion loop and the ``repro serve`` CLI command."""

import io
import json

import pytest

from repro.cli import main
from repro.analysis.admission import QoSTarget
from repro.core.ebb import EBB
from repro.errors import ReproError
from repro.online.engine import StreamingGPSServer
from repro.online.events import (
    ArrivalEvent,
    SessionJoin,
    SessionLeave,
    event_to_record,
    write_event_stream,
)
from repro.online.service import OnlineService


def _lines(events):
    return [json.dumps(event_to_record(e)) + "\n" for e in events]


def _simple_events():
    return [
        SessionJoin(time=0.0, name="a", phi=2.0),
        SessionJoin(time=0.0, name="b", phi=1.0),
        ArrivalEvent(time=0.0, session="a", amount=1.5),
        ArrivalEvent(time=1.0, session="b", amount=0.5),
        SessionLeave(time=2.0, name="b"),
    ]


class TestOnlineService:
    def test_serve_emits_one_record_per_event_plus_summary(self):
        sink = io.StringIO()
        service = OnlineService(
            StreamingGPSServer(rate=1.0), sink=sink
        )
        result = service.serve(_lines(_simple_events()))
        records = [
            json.loads(line) for line in sink.getvalue().splitlines()
        ]
        assert len(records) == len(_simple_events()) + 1
        assert [r["kind"] for r in records[:-1]] == [
            "join",
            "join",
            "arrival",
            "arrival",
            "leave",
        ]
        assert all("total_backlog" in r for r in records[:-1])
        assert records[-1]["kind"] == "summary"
        assert records[-1]["summary"]["errors"] == 0
        assert result.drained is True
        assert service.errors == 0

    def test_subnormal_weight_serves_without_overflow(self):
        """Once ``a`` is done, the slot's second water-fill round
        shares among ``b`` alone, whose total weight is subnormal."""
        events = [
            SessionJoin(time=0.0, name="a", phi=1.0),
            SessionJoin(time=0.0, name="b", phi=5e-324),
            ArrivalEvent(time=0.0, session="a", amount=0.3),
            ArrivalEvent(time=0.0, session="b", amount=0.5),
        ]
        service = OnlineService(StreamingGPSServer(rate=1.0))
        result = service.serve(_lines(events))
        assert service.errors == 0
        assert result.session_stats["a"]["served"] == 0.3
        assert result.session_stats["b"]["served"] == 0.5
        assert result.drained is True

    def test_blank_lines_ignored(self):
        service = OnlineService(StreamingGPSServer(rate=1.0))
        result = service.serve(["\n", "   \n"])
        assert result.events_processed == 0

    def test_malformed_line_becomes_error_record(self):
        sink = io.StringIO()
        service = OnlineService(
            StreamingGPSServer(rate=1.0), sink=sink
        )
        service.serve(["this is not json\n"])
        records = [
            json.loads(line) for line in sink.getvalue().splitlines()
        ]
        assert records[0]["kind"] == "error"
        assert records[0]["line"] == 1
        assert service.errors == 1

    def test_session_error_becomes_error_record(self):
        sink = io.StringIO()
        service = OnlineService(
            StreamingGPSServer(rate=1.0), sink=sink
        )
        events = [
            SessionJoin(time=0.0, name="a", phi=1.0),
            SessionJoin(time=0.0, name="a", phi=1.0),  # duplicate
        ]
        service.serve(_lines(events))
        records = [
            json.loads(line) for line in sink.getvalue().splitlines()
        ]
        assert records[1]["kind"] == "error"
        assert records[1]["error_type"] == "AdmissionError"
        assert service.engine.num_active == 1

    def test_strict_mode_raises(self):
        service = OnlineService(
            StreamingGPSServer(rate=1.0), strict=True
        )
        with pytest.raises(ReproError):
            service.serve(["nope\n"])

    def test_no_sink_still_returns_result(self):
        service = OnlineService(StreamingGPSServer(rate=1.0))
        result = service.serve(_lines(_simple_events()))
        assert result.events_processed == len(_simple_events())


class TestServeCommand:
    def _trace(self, tmp_path, events):
        path = str(tmp_path / "trace.jsonl")
        write_event_stream(path, events)
        return path

    def test_serve_exits_zero_and_writes_records(self, tmp_path):
        path = self._trace(tmp_path, _simple_events())
        out = str(tmp_path / "out.jsonl")
        code = main(["serve", path, "--rate", "1.0", "--out", out])
        assert code == 0
        with open(out, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        assert records[-1]["kind"] == "summary"
        assert records[-1]["summary"]["kind"] == "online_gps"

    def test_serve_reads_stdin(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("".join(_lines(_simple_events())))
        )
        code = main(["serve", "-", "--rate", "1.0"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert json.loads(lines[-1])["kind"] == "summary"

    def test_serve_with_admission_records_decisions(self, tmp_path):
        events = [
            SessionJoin(
                time=0.0,
                name="voice",
                phi=1.0,
                ebb=EBB(rho=0.2, prefactor=1.0, decay_rate=1.74),
                target=QoSTarget(d_max=30.0, epsilon=1e-3),
            ),
            ArrivalEvent(time=0.0, session="voice", amount=0.4),
        ]
        path = self._trace(tmp_path, events)
        out = str(tmp_path / "out.jsonl")
        code = main(
            ["serve", path, "--rate", "1.0", "--out", out, "--admission"]
        )
        assert code == 0
        with open(out, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        assert records[0]["decision"]["accepted"] is True

    def test_serve_error_lines_exit_nonzero(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("garbage\n")
        out = str(tmp_path / "out.jsonl")
        assert main(["serve", path, "--rate", "1.0", "--out", out]) == 1

    def test_serve_strict_exits_nonzero(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("garbage\n")
        out = str(tmp_path / "out.jsonl")
        code = main(
            ["serve", path, "--rate", "1.0", "--out", out, "--strict"]
        )
        assert code == 1

    def test_serve_rejects_bad_drain_slots(self, tmp_path):
        path = self._trace(tmp_path, _simple_events())
        code = main(
            ["serve", path, "--rate", "1.0", "--drain-slots", "0"]
        )
        assert code == 2


class TestIngestProtection:
    def _garbage(self, n):
        return ["not json\n"] * n

    def test_error_budget_raises_typed_overload(self):
        from repro.errors import OverloadError

        service = OnlineService(
            StreamingGPSServer(rate=1.0), max_errors=3
        )
        with pytest.raises(OverloadError) as excinfo:
            service.serve(self._garbage(10))
        assert excinfo.value.count == 4
        assert isinstance(excinfo.value, ReproError)

    def test_error_budget_boundary_is_inclusive(self):
        service = OnlineService(
            StreamingGPSServer(rate=1.0), max_errors=3
        )
        result = service.serve(self._garbage(3))
        assert service.errors == 3
        assert result.drained is True

    def test_heartbeat_records_emitted(self):
        sink = io.StringIO()
        service = OnlineService(
            StreamingGPSServer(rate=1.0),
            sink=sink,
            heartbeat_every=2,
        )
        service.serve(_lines(_simple_events()))
        beats = [
            json.loads(line)
            for line in sink.getvalue().splitlines()
            if json.loads(line)["kind"] == "heartbeat"
        ]
        assert len(beats) == 2  # 5 events -> lines 2 and 4
        assert {"clock", "total_backlog", "errors", "shed"} <= set(
            beats[0]
        )

    def test_shedding_hysteresis_and_typed_records(self):
        sink = io.StringIO()
        service = OnlineService(
            StreamingGPSServer(rate=1.0),
            sink=sink,
            shed_backlog=5.0,
            shed_resume=1.0,
        )
        events = [SessionJoin(time=0.0, name="a", phi=1.0)]
        # Flood slot 1 far past the watermark, then go quiet.
        events += [
            ArrivalEvent(time=1.0, session="a", amount=3.0)
            for _ in range(5)
        ]
        # By slot 12 the backlog has drained below shed_resume.
        events += [ArrivalEvent(time=12.0, session="a", amount=1.0)]
        result = service.serve(_lines(events))
        records = [
            json.loads(line) for line in sink.getvalue().splitlines()
        ]
        shed = [r for r in records if r["kind"] == "shed"]
        assert shed, "the flood must trigger shedding"
        assert service.shed == len(shed)
        assert {"session", "amount", "slot", "total_backlog"} <= set(
            shed[0]
        )
        # The late arrival lands after the episode ends: applied.
        arrivals = [
            r
            for r in records
            if r["kind"] == "arrival" and r["time"] == 12.0
        ]
        assert len(arrivals) == 1
        assert result.summary()["total_arrived"] == pytest.approx(
            3.0 * (5 - len(shed)) + 1.0
        )

    def test_shed_watermarks_validated(self):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            OnlineService(StreamingGPSServer(rate=1.0), shed_backlog=-1.0)
        with pytest.raises(ValidationError):
            OnlineService(StreamingGPSServer(rate=1.0), shed_resume=1.0)
        with pytest.raises(ValidationError):
            OnlineService(
                StreamingGPSServer(rate=1.0),
                shed_backlog=2.0,
                shed_resume=3.0,
            )


class TestGracefulShutdown:
    def test_keyboard_interrupt_drains_gracefully(self):
        sink = io.StringIO()
        service = OnlineService(StreamingGPSServer(rate=1.0), sink=sink)

        def interrupted():
            for line in _lines(_simple_events())[:3]:
                yield line
            raise KeyboardInterrupt

        result = service.serve(interrupted())
        assert result.drained is True
        records = [
            json.loads(line) for line in sink.getvalue().splitlines()
        ]
        assert records[-1]["kind"] == "summary"
        assert records[-1]["summary"]["events_processed"] == 3

    def test_truncated_drain_emits_typed_record(self):
        sink = io.StringIO()
        service = OnlineService(
            StreamingGPSServer(rate=0.001), sink=sink, drain_slots=3
        )
        events = [
            SessionJoin(time=0.0, name="a", phi=1.0),
            ArrivalEvent(time=0.0, session="a", amount=100.0),
        ]
        result = service.serve(_lines(events))
        assert result.drained is False
        records = [
            json.loads(line) for line in sink.getvalue().splitlines()
        ]
        truncated = [
            r for r in records if r["kind"] == "drain-truncated"
        ]
        assert len(truncated) == 1
        assert truncated[0]["slots_used"] == 3
        assert truncated[0]["residual_backlog"] > 0.0
        assert records[-1]["summary"]["drain_truncated"] is True


class TestStrictPropagation:
    def test_strict_raises_on_malformed_json(self):
        service = OnlineService(
            StreamingGPSServer(rate=1.0), strict=True
        )
        with pytest.raises(ReproError, match="not valid JSON"):
            service.serve(["{broken\n"])

    def test_strict_raises_on_stream_level_session_error(self):
        from repro.errors import AdmissionError

        service = OnlineService(
            StreamingGPSServer(rate=1.0), strict=True
        )
        lines = _lines(
            [ArrivalEvent(time=0.0, session="ghost", amount=1.0)]
        )
        with pytest.raises(AdmissionError, match="ghost"):
            service.serve(lines)
