"""Deterministic session-key routing for the sharded serving fleet.

The cluster splits one ingest stream across ``N`` independent GPS
shards.  Routing must be a *pure function* of the raw line and the
shard count — nothing else — because the fault-tolerance proof depends
on it: the per-shard substream of any input stream is then fixed, so a
shard that crashes and recovers can be compared ``np.array_equal``
against a fresh uninterrupted run over :func:`ShardRouter.partition`
of the same lines.

The cluster decodes each line once, with
:func:`repro.online.service.decode_line`, routes on the decoded value
(:meth:`ShardRouter.route` with ``payload=``) and hands the same value
to the shard, which does not parse the line again.  Called with the
raw line alone, :meth:`ShardRouter.route` decodes it the same way, so
:meth:`ShardRouter.partition` and the cluster agree on every line.

Rules, in order:

* an *empty* line (heartbeat tick) broadcasts to every shard — ticks
  advance each service's line clock exactly as they would a single
  server's;
* a ``capacity`` event broadcasts, whether or not it carries a
  session key — each shard is an independent GPS server and a
  fleet-wide capacity change applies to each of them;
* any other record carrying a session key (``session`` for arrivals,
  ``name`` for join/renegotiate/leave) routes to
  ``crc32(key) % num_shards`` — CRC32 is stable across platforms and
  Python versions, so a cluster restarted elsewhere routes
  identically;
* anything else — unparsable JSON, a record with no session key —
  routes to ``crc32(stripped line) % num_shards``: exactly one shard
  emits the ``error`` record and charges its error budget, mirroring
  the single-server behavior.
"""

from __future__ import annotations

import zlib
from typing import Any, Iterable

from repro.errors import ValidationError
from repro.online.service import BLANK, decode_line

__all__ = ["shard_for", "ShardRouter"]

#: ``route``'s default payload: decode the line itself.  Not ``None``,
#: which is what the line ``null`` decodes to.
_UNDECODED: Any = object()


def shard_for(key: str, num_shards: int) -> int:
    """The shard index session ``key`` hashes to (stable CRC32).

    The key is hashed as UTF-8 with ``surrogatepass``, so a lone
    surrogate (a ``"\\ud800"`` escape decodes to one) routes like any
    other key; every other string encodes to the same bytes either way.
    """
    if num_shards < 1:
        raise ValidationError(
            f"num_shards must be >= 1, got {num_shards}"
        )
    data = key.encode("utf-8", "surrogatepass")
    return (zlib.crc32(data) & 0xFFFFFFFF) % num_shards


class ShardRouter:
    """Map raw JSONL ingest lines onto shard indices.

    Stateless apart from the shard count; :meth:`route` returns the
    target indices for one line and :meth:`partition` materializes the
    per-shard substreams of a whole stream (the baseline the chaos
    harness compares recovered shards against).
    """

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValidationError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        self._num_shards = int(num_shards)
        self._all = tuple(range(self._num_shards))

    @property
    def num_shards(self) -> int:
        """Number of shards lines are routed across."""
        return self._num_shards

    def route(
        self, line: str, payload: Any = _UNDECODED
    ) -> tuple[int, ...]:
        """Target shard indices for one raw line (1 shard, or all).

        ``payload`` is the line's :func:`~repro.online.service.decode_line`
        value when the caller already decoded it; left out, ``line``
        is decoded here.  Either way the result depends on the line and
        the shard count alone.
        """
        if payload is _UNDECODED:
            payload = decode_line(line)
        if payload is BLANK:
            return self._all
        if isinstance(payload, dict):
            if payload.get("kind") == "capacity":
                return self._all
            key = payload.get("session", payload.get("name"))
            if isinstance(key, str):
                return (shard_for(key, self._num_shards),)
        # Keyless / malformed: exactly one shard owns the error record.
        return (shard_for(line.strip(), self._num_shards),)

    def partition(
        self, lines: Iterable[str]
    ) -> tuple[list[str], ...]:
        """Split a stream into its per-shard substreams.

        Pure: ``partition(lines)[i]`` is exactly the sequence of lines
        shard ``i`` ingests when the cluster routes ``lines``, so a
        fresh single service over it is the equivalence baseline for
        shard ``i``.
        """
        out: tuple[list[str], ...] = tuple(
            [] for _ in range(self._num_shards)
        )
        for line in lines:
            for index in self.route(line):
                out[index].append(line)
        return out

    def assignments(
        self, lines: Iterable[str]
    ) -> list[tuple[int, tuple[int, ...]]]:
        """``(global_seq, shard_targets)`` for every line, 1-based.

        The cross-shard accounting oracle: the chaos harness checks
        that the union of applied ``(shard, local_seq)`` pairs covers
        every global sequence number exactly once per target, with no
        gaps or duplicates.
        """
        return [
            (seq, self.route(line))
            for seq, line in enumerate(lines, start=1)
        ]
