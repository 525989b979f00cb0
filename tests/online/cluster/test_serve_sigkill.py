"""SIGKILL ``repro serve - --wal DIR`` mid-ingest, recover, compare exactly.

The chaos suites kill shards in-process with
:class:`repro.faults.injection.SimulatedCrash`; this one sends a real
kernel ``SIGKILL`` to the command operators run, a ``python -m repro
serve`` subprocess reading stdin, alone and with ``--shards 2``.  Its
stdin stays open, so the process is killed mid-stream rather than
draining at EOF, and its block-buffered stdout is lost with it: only
the WAL survives.  Recovery must then hold every line the process
framed (``0 < applied_seq <= sent``), lose none of them, and resume to
a state equal to an uninterrupted run's: the canonical
``export_state()`` document (clock, registry vectors, busy set, running
backlog totals) and the ``summary()``.  Slow by nature (each case
starts interpreters), so the streams are small.
"""

import contextlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.online import (
    DurableOnlineService,
    OnlineService,
    ShardedOnlineCluster,
    ShardRouter,
    StreamingGPSServer,
)
from repro.online.cluster import shard_directory

RATE = 3.0
#: ``a``-``c`` route to shard 1 of 2 and ``d``-``f`` to shard 0.
NAMES = ("a", "b", "c", "d", "e", "f")
SENT = 40


def _lines(n=60):
    lines = [
        json.dumps({"kind": "join", "name": name, "time": 0.0, "phi": 1.0})
        for name in NAMES
    ]
    for t in range(1, n - len(NAMES) + 1):
        lines.append(
            json.dumps(
                {
                    "kind": "arrival",
                    "session": NAMES[t % len(NAMES)],
                    "time": float(t) / 2,
                    "amount": 1.0 + (t % 3) / 2,
                }
            )
        )
    return lines


def _serve_command(wal, *extra):
    return [
        sys.executable, "-m", "repro", "serve", "-",
        "--wal", str(wal), "--rate", repr(RATE), *extra,
    ]


def _env():
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p
    )
    return env


def _frames(directory):
    """Complete WAL frames on disk under ``directory``."""
    count = 0
    for segment in Path(directory).glob("wal-*.log"):
        with contextlib.suppress(OSError):
            count += segment.read_bytes().count(b"\n")
    return count


def _serve_then_sigkill(tmp_path, wal, wal_dirs, lines, *extra):
    """Pipe ``lines`` into ``repro serve``, wait for WAL frames in every
    directory of ``wal_dirs``, then SIGKILL the process."""
    with open(tmp_path / "killed.err", "w") as err:
        proc = subprocess.Popen(
            _serve_command(wal, *extra),
            stdin=subprocess.PIPE,
            stdout=subprocess.DEVNULL,
            stderr=err,
            text=True,
            env=_env(),
        )
        try:
            proc.stdin.write("".join(line + "\n" for line in lines))
            proc.stdin.flush()
            deadline = time.monotonic() + 60.0
            while not all(_frames(d) for d in wal_dirs):
                assert proc.poll() is None, (
                    tmp_path / "killed.err"
                ).read_text()
                assert time.monotonic() < deadline, "no WAL frames"
                time.sleep(0.01)
            proc.send_signal(signal.SIGKILL)
            assert proc.wait(timeout=30) == -signal.SIGKILL
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            with contextlib.suppress(BrokenPipeError):
                proc.stdin.close()


def _canonical(engine):
    return json.dumps(engine.export_state(), sort_keys=True)


def _baseline(lines):
    """Uninterrupted run: the result, its emitted summary record and
    the engine's canonical state."""
    buffer = io.StringIO()
    service = OnlineService(StreamingGPSServer(rate=RATE), sink=buffer)
    result = service.serve(lines)
    records = [json.loads(line) for line in buffer.getvalue().splitlines()]
    assert records[-1]["kind"] == "summary"
    return result, records[-1]["summary"], _canonical(service.engine)


class TestServeSigkill:
    def test_single_service_recovers_in_process(self, tmp_path):
        lines = _lines()
        wal = tmp_path / "wal"
        _serve_then_sigkill(
            tmp_path, wal, [wal], lines[:SENT], "--snapshot-every", "5"
        )
        service, report = DurableOnlineService.open(wal, mode="recover")
        applied = report.applied_seq
        assert 0 < applied <= SENT
        service.ingest(lines[applied:])
        result = service.shutdown()
        base, _, state = _baseline(lines)
        assert _canonical(service.engine) == state
        assert base.summary() == result.summary()

    def test_single_service_resumes_in_second_process(self, tmp_path):
        lines = _lines()
        wal = tmp_path / "wal"
        _serve_then_sigkill(
            tmp_path, wal, [wal], lines[:SENT], "--snapshot-every", "5"
        )
        # What the killed process acknowledged, read from a copy so the
        # second process recovers the untouched directory itself.
        probe = tmp_path / "probe"
        shutil.copytree(wal, probe)
        replay_out = io.StringIO()
        _, report = DurableOnlineService.open(
            probe, mode="recover", sink=replay_out
        )
        applied = report.applied_seq
        assert 0 < applied <= SENT
        replayed = [
            json.loads(line) for line in replay_out.getvalue().splitlines()
        ]
        done = subprocess.run(
            _serve_command(wal),
            input="".join(line + "\n" for line in lines[applied:]),
            capture_output=True,
            text=True,
            env=_env(),
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        records = [json.loads(line) for line in done.stdout.splitlines()]
        # Replay re-emits the records of the lines past the newest
        # snapshot; the recovery report follows them.
        assert records[: len(replayed)] == replayed
        first = records[len(replayed)]
        assert first["kind"] == "recovery"
        assert first["applied_seq"] == applied
        assert first["replayed"] == report.replayed
        assert records[-1]["kind"] == "summary"
        _, summary, _ = _baseline(lines)
        assert records[-1]["summary"] == summary

    def test_two_shards_recover_in_process(self, tmp_path):
        lines = _lines()
        router = ShardRouter(2)
        parts = router.partition(lines)
        sent_parts = router.partition(lines[:SENT])
        assert all(sent_parts), "the stream must reach both shards"
        root = tmp_path / "fleet"
        _serve_then_sigkill(
            tmp_path,
            root,
            [shard_directory(root, i) for i in range(2)],
            lines[:SENT],
            "--shards", "2", "--snapshot-every", "5",
        )
        cluster, reports = ShardedOnlineCluster.open(root, mode="recover")
        applied = [r.applied_seq for r in reports]
        for i, k in enumerate(applied):
            assert 0 < k <= len(sent_parts[i]), f"shard {i}"
        # Every line goes to one shard and the process handled them in
        # order, so what the fleet holds is a global prefix: no line
        # framed after an unframed one, none lost before the kill.
        framed = sum(applied)
        prefix = router.partition(lines[:framed])
        assert [len(p) for p in prefix] == applied
        cluster.ingest(lines[framed:])
        result = cluster.shutdown()
        for i, part in enumerate(parts):
            base, _, state = _baseline(part)
            got = result.results[i]
            assert _canonical(cluster.handles[i].service.engine) == state, (
                f"shard {i} state diverged after SIGKILL"
            )
            assert base.summary() == got.summary(), f"shard {i}"

