"""The unified simulation-result protocol.

Every simulator in :mod:`repro.sim` returns a result object of its own
shape (fluid traces, packet journeys, network egress maps, ...), but
all of them expose the same two-method protocol:

* ``summary()`` — a small JSON-serializable dict of scalar facts about
  the run (kind, sizes, totals, utilization);
* ``to_dict()`` — the full JSON-serializable dump, summary plus
  traces/records.

``repro simulate --json`` and the checkpointing machinery consume the
protocol rather than the concrete classes, so new simulators plug into
the CLI and the supervised runner by implementing these two methods.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

import numpy as np

__all__ = ["SimResult", "to_jsonable"]


@runtime_checkable
class SimResult(Protocol):
    """Structural type of every simulation result class."""

    def summary(self) -> dict[str, Any]:
        """A small JSON-serializable dict of scalar facts."""
        ...

    def to_dict(self) -> dict[str, Any]:
        """The full JSON-serializable dump (summary plus traces)."""
        ...


#: Leaf types ``json.dumps`` writes unchanged.  The check is on the
#: exact type: ``np.float64`` subclasses ``float`` but still goes
#: through ``.item()``.
_JSON_LEAVES = frozenset({str, float, int, bool, type(None)})


def to_jsonable(value: Any) -> Any:
    """Convert numpy containers/scalars to plain JSON types.

    Dicts and sequences are converted recursively; non-string dict keys
    are stringified (tuple keys become ``"a/b"``) so the result always
    survives ``json.dumps``.  Plain JSON leaves are returned without a
    recursive call, and plain ``str`` keys without a ``_key`` call.
    """
    if type(value) in _JSON_LEAVES:
        return value
    if isinstance(value, dict):
        return {
            k if type(k) is str else _key(k): (
                v if type(v) in _JSON_LEAVES else to_jsonable(v)
            )
            for k, v in value.items()
        }
    if isinstance(value, np.ndarray):
        return [to_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [
            v if type(v) in _JSON_LEAVES else to_jsonable(v) for v in value
        ]
    return value


def _key(key: Any) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, tuple):
        return "/".join(str(part) for part in key)
    return str(key)
