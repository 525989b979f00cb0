"""Crash-safe serving: write-ahead log, snapshots, and recovery.

The durability layer makes the online service survivable: every ingest
line is CRC-framed into a segmented :class:`WriteAheadLog` *before* it
is applied, the full serving state is periodically committed by a
:class:`SnapshotStore` (atomically, with an asserted round-trip
bit-identity check), and :func:`recover_durable_service` rebuilds a
killed service — newest valid snapshot, torn-tail truncation,
idempotent replay by sequence number — into exactly the state of an
uninterrupted run.  The chaos harness in
``tests/online/test_recovery_chaos.py`` kills and restarts the service
at every crash-point class and asserts that equivalence with
``np.array_equal``.

The disk itself is allowed to misbehave: fsync failures run a
seal/truncate/rewrite repair cycle instead of trusting a retried
fsync, ``ENOSPC`` degrades serving into typed ``disk-pressure``
records instead of crashing, and :func:`scrub_directory` (the
``repro scrub`` CLI) verifies every CRC frame and snapshot checksum,
quarantining and repairing corrupt-but-covered segments — or naming
the exact unrecoverable sequence ranges.
"""

from repro.online.durability.scrub import (
    QUARANTINE_DIR,
    ScrubReport,
    scrub_directory,
)
from repro.online.durability.service import (
    DurableOnlineService,
    RecoveryReport,
    create_durable_service,
    open_durable_service,
    recover_durable_service,
)
from repro.online.durability.snapshot import SNAPSHOT_FORMAT, SnapshotStore
from repro.online.durability.wal import WalEntry, WriteAheadLog
from repro.online.durability.writers import (
    FSYNC_POLICY_BASES,
    SyncWalWriter,
    parse_fsync_policy,
)

__all__ = [
    "DurableOnlineService",
    "RecoveryReport",
    "create_durable_service",
    "open_durable_service",
    "recover_durable_service",
    "SnapshotStore",
    "SNAPSHOT_FORMAT",
    "WriteAheadLog",
    "WalEntry",
    "FSYNC_POLICY_BASES",
    "SyncWalWriter",
    "parse_fsync_policy",
    "ScrubReport",
    "scrub_directory",
    "QUARANTINE_DIR",
]
