"""Self-test of the gpsbench harness: ``pytest benchmarks/gpsbench -q``.

Every workload runs at a tiny size (set through the workload functions'
size arguments) and must pass its own checks; corrupted check inputs
must fail; a traced run must leave every patched attribute exactly as
it found it; and the metric names must match ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from benchmarks.gpsbench import ROOT, use_source_tree

use_source_tree()

from benchmarks.gpsbench import workloads  # noqa: E402
from benchmarks.gpsbench.compare import (  # noqa: E402
    FAILURES,
    Row,
    claim_holds,
    compare,
)
from benchmarks.gpsbench.trace import (  # noqa: E402
    EXTRA_METRICS,
    SPAN_NAMES,
    patched_objects,
)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_NAMES = [m["name"] for m in BENCH["end_to_end"]]
LAYER_NAMES = [m["name"] for m in BENCH["per_layer"]]

TINY = {
    "serve-durable": dict(
        sessions=200,
        pool=50,
        per_slot=10,
        snapshot_every=100,
        past_snapshot=50,
        recoveries=2,
        setup_repeats=1,
    ),
    "serve-admission": dict(sessions=40, arrivals=5, setup_repeats=1),
    "serve-sharded": dict(sessions=400, shards=2, per_slot=20, setup_repeats=1),
    "packet-saturated": dict(sessions=20, packets=2_000, setup_repeats=2),
    "mc-batch": dict(trials=4, horizon=40, check_trials=2, setup_repeats=2),
}


def _run(name: str, tmp_path: Path, trace: bool) -> workloads.Outcome:
    return workloads.WORKLOADS[name](
        7, 0.36, tmp_path, trace=trace, **TINY[name]
    )


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_passes_its_checks(name: str, tmp_path: Path) -> None:
    outcome = _run(name, tmp_path, trace=False)
    assert outcome.failures == []
    assert outcome.attempted > 0 and outcome.failed == 0
    assert list(outcome.metrics) == E2E_NAMES
    assert all(value > 0 for value in outcome.metrics.values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_restores_every_patch(name: str, tmp_path: Path) -> None:
    before = patched_objects()
    outcome = _run(name, tmp_path, trace=True)
    after = patched_objects()
    assert outcome.failures == []
    assert [(ns, attr) for ns, attr, _ in before] == [
        (ns, attr) for ns, attr, _ in after
    ]
    for (_, attr, old), (_, _, new) in zip(before, after):
        assert new is old, attr
    assert sorted(outcome.metrics) == sorted(LAYER_NAMES)
    assert outcome.metrics["trace.coverage"] > 0


def test_corrupted_check_inputs_fail() -> None:
    assert workloads.check_recovery("{}", '{"x": 1}', 5, 5)
    assert workloads.check_recovery("{}", "{}", 4, 5)
    assert workloads.check_admission(10, 2, 0, {"accepted": 11, "rejected": 2})
    assert workloads.check_admission(10, 2, 1, {"accepted": 10, "rejected": 2})
    summary = {"events_processed": 9, "crashes": 0, "shed": 0}
    assert workloads.check_sharded(summary, 10, 1.0, 1.0)
    assert workloads.check_sharded(
        {**summary, "events_processed": 10}, 10, 1.0, 1.0 + 1e-6
    )
    assert workloads.check_packet(1, 5, 5)
    assert workloads.check_packet(0, 4, 5)
    assert workloads.check_mc([], 4, {0: {"a": 1.0}}, {0: {"a": 2.0}})


def test_names_match_benchmark_json() -> None:
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    assert list(workloads.E2E_UNITS) == E2E_NAMES
    assert [m["unit"] for m in BENCH["end_to_end"]] == list(
        workloads.E2E_UNITS.values()
    )
    spans = [
        f"{span}.{part}"
        for span in SPAN_NAMES
        for part in ("calls", "self_s", "share")
    ]
    assert sorted(spans + list(EXTRA_METRICS)) == sorted(LAYER_NAMES)
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    for name in E2E_NAMES + LAYER_NAMES:
        assert pattern.fullmatch(name), name


def test_compare_flags_regressions_and_claims() -> None:
    bench = {
        "workloads": [{"name": "w"}],
        "end_to_end": [
            {"name": "events_per_s", "better": "higher", "bound": 0.1}
        ],
    }

    def runs(rate: float, failing: int = 0) -> dict:
        return {
            ("w", s): {
                "events_per_s": rate + s % 3,
                FAILURES: 0.01 if s < failing else 0.0,
            }
            for s in range(10)
        }

    parent, slower, faster = runs(100.0), runs(80.0), runs(120.0)
    rows = {row.metric: row for row in compare(parent, slower, bench)}
    assert rows["events_per_s"].verdict == "regression"
    assert rows[FAILURES].verdict == "ok"
    rows = {row.metric: row for row in compare(parent, faster, bench)}
    assert rows["events_per_s"].verdict == "ok"
    assert claim_holds(rows["events_per_s"])
    assert not claim_holds(Row("w", "m", (1, 2, 3), (4, 5, 6), "ok", 9, 9))
    # Faster, but one pair fails more operations: a regression, no gain.
    rows = {row.metric: row for row in compare(parent, runs(120.0, 1), bench)}
    assert rows[FAILURES].verdict == "regression"
    assert not claim_holds(rows["events_per_s"])


def test_setup_frees_each_instance_before_the_next() -> None:
    class Instance:
        pass

    previous: list[weakref.ref] = []

    def setup(k: int) -> Instance:
        assert all(ref() is None for ref in previous)
        instance = Instance()
        previous.append(weakref.ref(instance))
        return instance

    _, last = workloads._repeat_setup(setup, lambda instance: None, 3)
    assert previous[-1]() is last and len(previous) == 3


def test_stop_children_leaves_no_process_behind() -> None:
    from multiprocessing import shared_memory

    from benchmarks.gpsbench.run import _child_pids, stop_children

    # A shared-memory block starts the resource tracker, as mc-batch does.
    block = shared_memory.SharedMemory(create=True, size=64)
    block.close()
    block.unlink()
    sleeper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    assert _child_pids()
    stop_children()
    assert _child_pids() == []
    assert not Path(f"/proc/{sleeper.pid}").exists()


def test_run_without_source_exits_nonzero(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "gpsbench",
        tmp_path / "benchmarks" / "gpsbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [
            sys.executable,
            "benchmarks/gpsbench/run.py",
            "--workload",
            "mc-batch",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
