"""gpsbench: the repository benchmark for the GPS serving system.

Five workloads drive the three ways the system serves the paper's
GPS/E.B.B. machinery -- durable JSONL serving with admission control,
packet-level PGPS, and the Monte-Carlo bound check -- and report named
end-to-end metrics from untraced runs and per-layer spans from a
separate traced run.  Everything is measured from outside ``src/``: the
program only sees the lines, packets and scenarios the workloads
generate from ``--seed``.  See ``README.md`` in this directory.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: The repository root (the directory holding ``src/`` and ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parents[2]
#: The source tree the benchmark builds the program from.
SRC = ROOT / "src"
#: Scratch space and default result directory; ignored by git.
WORK = ROOT / ".gpsbench"


class MissingSource(RuntimeError):
    """The checkout holds no program to benchmark."""


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else.

    Raises :class:`MissingSource` when the checkout has no source tree,
    or when an already-imported ``repro`` comes from somewhere else.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingSource(f"no program source at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC not in origin.parents:
        raise MissingSource(
            f"repro imported from {origin}, not from {SRC}"
        )
