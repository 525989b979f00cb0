"""Compare parent and change result files against the benchmark bounds.

Pairs are result files of the same workload and seed on both sides;
run at least ten, alternating which side runs first.  Per workload and
end-to-end metric the report gives each side's median and quartiles
and a verdict:

* ``regression`` -- the change's median is worse than the parent's by
  more than the metric's ``bound`` in ``BENCHMARK.json``;
* ``unresolved`` -- the parent's own quartile spread is wider than the
  bound, so no verdict can be read, unless every change run beats
  every parent run (``better``);
* ``ok`` otherwise.

Each workload also gets a :data:`FAILURES` row (failed operations per
attempted one): ``regression`` when any pair's change run fails a larger
share than its parent run, ``ok`` otherwise.

A named claim (``--claim workload:metric``) holds only when the change
wins at least nine tenths of the pairs (ties count for neither side),
the medians differ by more than the parent's quartile spread, and no
pair of that workload fails more at the change.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Any

MIN_PAIRS = 10
#: The row name of failed ÷ attempted operations.
FAILURES = "failed_per_attempt"


@dataclass(frozen=True)
class Row:
    """One workload/metric comparison."""

    workload: str
    metric: str
    parent: tuple[float, float, float]
    change: tuple[float, float, float]
    verdict: str
    pairs: int
    wins: int
    #: Some pair of this workload failed a larger share at the change.
    more_failures: bool = False


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_results(paths: list[Path]) -> dict[tuple[str, int], dict[str, float]]:
    """Untraced result files (or directories of them) by (workload, seed):
    every metric value, and failed ÷ attempted under :data:`FAILURES`."""
    files: list[Path] = []
    for path in paths:
        files.extend(sorted(path.glob("*.json")) if path.is_dir() else [path])
    out: dict[tuple[str, int], dict[str, float]] = {}
    for file in files:
        record = json.loads(file.read_text())
        if not isinstance(record, dict) or record.get("trace", True):
            continue
        values = {
            name: entry["value"] for name, entry in record["metrics"].items()
        }
        values[FAILURES] = record["failed"] / record["attempted"]
        out[(record["workload"], record["seed"])] = values
    return out


def compare(
    parent: dict[tuple[str, int], dict[str, float]],
    change: dict[tuple[str, int], dict[str, float]],
    bench: dict[str, Any],
) -> list[Row]:
    """One :class:`Row` per workload and end-to-end metric, and one
    :data:`FAILURES` row per workload."""
    rows = []
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        keys = sorted(k for k in parent if k[0] == workload and k in change)
        if not keys:
            continue
        old = [parent[k][FAILURES] for k in keys]
        new = [change[k][FAILURES] for k in keys]
        more = any(b > a for a, b in zip(old, new))
        rows.append(
            Row(
                workload,
                FAILURES,
                quartiles(old),
                quartiles(new),
                "regression" if more else "ok",
                len(keys),
                sum(1 for a, b in zip(old, new) if b < a),
                more,
            )
        )
        for spec in bench["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            sign = 1.0 if spec["better"] == "lower" else -1.0
            old = [parent[k][name] for k in keys]
            new = [change[k][name] for k in keys]
            p, c = quartiles(old), quartiles(new)
            wins = sum(1 for a, b in zip(old, new) if sign * (b - a) < 0)
            spread = (p[2] - p[0]) / abs(p[1]) if p[1] else 0.0
            worse = sign * (c[1] - p[1]) / abs(p[1]) if p[1] else 0.0
            if worse > bound:
                verdict = "regression"
            elif spread > bound:
                beats_all = (
                    max(sign * v for v in new) < min(sign * v for v in old)
                )
                verdict = "better" if beats_all else "unresolved"
            else:
                verdict = "ok"
            rows.append(
                Row(workload, name, p, c, verdict, len(keys), wins, more)
            )
    return rows


def claim_holds(row: Row) -> bool:
    """A gain claim holds when the change wins at least nine tenths of at
    least :data:`MIN_PAIRS` pairs, the medians differ by more than the
    parent's quartile spread, and no pair fails more at the change."""
    if row.pairs < MIN_PAIRS or row.more_failures:
        return False
    parent_iqr = row.parent[2] - row.parent[0]
    moved = abs(row.change[1] - row.parent[1])
    return row.wins >= 0.9 * row.pairs and moved > parent_iqr


def _triple(values: tuple[float, float, float]) -> str:
    return "/".join(f"{v:.4g}" for v in values)


def render(rows: list[Row]) -> str:
    """A plain-text table, one row per workload and metric."""
    lines = [
        f"{'workload':18} {'metric':18} {'parent q1/med/q3':>34} "
        f"{'change q1/med/q3':>34} {'pairs':>5} {'wins':>4}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row.workload:18} {row.metric:18} {_triple(row.parent):>34} "
            f"{_triple(row.change):>34} {row.pairs:>5} {row.wins:>4}  "
            f"{row.verdict}"
        )
    return "\n".join(lines)
