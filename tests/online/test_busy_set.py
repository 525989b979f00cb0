"""Busy-set hot path: bit-identity with the dense water-fill.

The tentpole guarantee of the sublinear serving path: gathering only
the busy slice (sessions with non-zero backlog or pending arrivals)
into :func:`repro.sim.fluid.busy_gps_slot_allocation` produces results
``np.array_equal`` — not merely close — to a dense per-slot water-fill
over every active session, for *arbitrary* join/leave/renegotiate/
arrival/capacity sequences.  A dense reference engine is maintained
here, in the test, so the property does not lean on the code under
test.  The crash-recovery tests check that the busy index, epoch and
cached totals rebuild identically from snapshots and WAL replay —
including pre-busy-set snapshots that lack the explicit fields.  The
round-trip tests check that the columnar registry state restores every
field, re-exports to the same bytes, and drops nothing the older
per-session layout stored.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.admission import QoSTarget
from repro.core.ebb import EBB
from repro.errors import ValidationError
from repro.online import (
    DurableOnlineService,
    ShardedOnlineCluster,
    StreamingGPSServer,
)
from repro.online.events import (
    ArrivalEvent,
    CapacityEvent,
    Renegotiate,
    SessionJoin,
    SessionLeave,
)
from repro.online.session import SessionRegistry
from repro.sim.fluid import gps_slot_allocation

NAMES = ("a", "b", "c", "d", "e")


class DenseReference:
    """O(active) reference engine: dense water-fill, no busy set.

    Mirrors :class:`StreamingGPSServer` semantics operation for
    operation — shift-compaction on leave, pending folded at slot
    close, residual (backlog + pending) dropped on leave — but serves
    each slot with :func:`gps_slot_allocation` over the *full* active
    vector, idle sessions included.
    """

    def __init__(self, rate):
        self.capacity = float(rate)
        self.names = []
        self.phis = []
        self.backlog = []
        self.pending = []
        self.trace = []
        self.backlog_snaps = []
        self.served_snaps = []
        self.clock = 0

    def advance_to(self, slot):
        while self.clock < slot:
            self._serve_slot()

    def _serve_slot(self):
        work = np.asarray(self.backlog) + np.asarray(self.pending)
        if work.size:
            served = gps_slot_allocation(
                work, np.asarray(self.phis), self.capacity
            )
            new_backlog = np.clip(work - served, 0.0, None)
        else:
            served = np.zeros(0)
            new_backlog = np.zeros(0)
        self.backlog = new_backlog.tolist()
        self.pending = [0.0] * len(self.names)
        total = (
            float(np.cumsum(new_backlog)[-1]) if work.size else 0.0
        )
        self.trace.append(total)
        self.backlog_snaps.append(new_backlog)
        self.served_snaps.append(served)
        self.clock += 1

    def join(self, name, phi):
        self.names.append(name)
        self.phis.append(float(phi))
        self.backlog.append(0.0)
        self.pending.append(0.0)

    def leave(self, name):
        i = self.names.index(name)
        for arr in (self.names, self.phis, self.backlog, self.pending):
            arr.pop(i)

    def renegotiate(self, name, phi):
        self.phis[self.names.index(name)] = float(phi)

    def arrival(self, name, amount):
        self.pending[self.names.index(name)] += float(amount)

    def total_backlog(self):
        busy = [k for k, b in enumerate(self.backlog) if b != 0.0]
        values = np.asarray([self.backlog[k] for k in busy])
        return float(np.cumsum(values)[-1]) if busy else 0.0


def _phi():
    return st.floats(
        min_value=0.125, max_value=8.0, allow_nan=False
    )


def _op():
    idx = st.integers(min_value=0, max_value=len(NAMES) - 1)
    # QoS declarations ride along (no admission gate here), so the
    # registry's exported state carries them.
    ebb = st.sampled_from(
        (
            None,
            EBB(rho=0.4, prefactor=2.0, decay_rate=0.5),
            EBB(rho=0.25, prefactor=1.5, decay_rate=0.75),
        )
    )
    target = st.sampled_from(
        (
            None,
            QoSTarget(d_max=30.0, epsilon=1e-4),
            QoSTarget(d_max=12.5, epsilon=1e-2),
        )
    )
    return st.one_of(
        st.tuples(st.just("advance"), st.integers(1, 3)),
        st.tuples(st.just("join"), idx, _phi(), ebb, target),
        st.tuples(st.just("leave"), idx),
        st.tuples(
            st.just("renegotiate"),
            idx,
            st.one_of(st.none(), _phi()),
            ebb,
            target,
        ),
        st.tuples(
            st.just("arrival"),
            idx,
            st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
        ),
        st.tuples(
            st.just("capacity"),
            st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
        ),
    )


def _run_pair(ops, rate=1.5):
    """Interpret one op sequence against engine and reference."""
    server = StreamingGPSServer(rate=rate, record_traces=True)
    ref = DenseReference(rate)
    t = 0
    for op in ops:
        kind = op[0]
        if kind == "advance":
            t += op[1]
            continue
        time = float(t)
        if kind == "join":
            name = NAMES[op[1]]
            if name in server.active_sessions:
                continue
            server.process(
                SessionJoin(
                    time=time, name=name, phi=op[2], ebb=op[3], target=op[4]
                )
            )
            ref.advance_to(t)
            ref.join(name, op[2])
        elif kind == "leave":
            name = NAMES[op[1]]
            if name not in server.active_sessions:
                continue
            server.process(SessionLeave(time=time, name=name))
            ref.advance_to(t)
            ref.leave(name)
        elif kind == "renegotiate":
            name = NAMES[op[1]]
            if name not in server.active_sessions or not any(op[2:]):
                continue
            server.process(
                Renegotiate(
                    time=time, name=name, phi=op[2], ebb=op[3], target=op[4]
                )
            )
            ref.advance_to(t)
            if op[2] is not None:
                ref.renegotiate(name, op[2])
        elif kind == "arrival":
            name = NAMES[op[1]]
            if name not in server.active_sessions or op[2] <= 0.0:
                continue
            server.process(
                ArrivalEvent(time=time, session=name, amount=op[2])
            )
            ref.advance_to(t)
            ref.arrival(name, op[2])
        elif kind == "capacity":
            server.process(CapacityEvent(time=time, capacity=op[1]))
            ref.advance_to(t)
            ref.capacity = float(op[1])
    # close a few more slots so trailing arrivals get served
    server.advance_to(t + 3)
    ref.advance_to(t + 3)
    return server, ref


class TestBusySetBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_op(), min_size=1, max_size=60))
    def test_arbitrary_sequences_match_dense_reference(self, ops):
        server, ref = _run_pair(ops)
        state = server.export_state()
        assert np.array_equal(
            np.asarray(state["total_backlog_trace"]),
            np.asarray(ref.trace),
        )
        # per-slot dense snapshots, shape and bits
        assert len(server._backlog_snapshots) == len(ref.backlog_snaps)
        for got, want in zip(
            server._backlog_snapshots, ref.backlog_snaps
        ):
            assert np.array_equal(got, want)
        for got_s, want_s in zip(
            server._served_snapshots, ref.served_snaps
        ):
            assert np.array_equal(got_s, want_s)
        # final vectors and the cached total
        assert list(server.active_sessions) == ref.names
        reg = server._registry
        assert np.array_equal(reg.backlog, np.asarray(ref.backlog))
        assert np.array_equal(reg.phis, np.asarray(ref.phis))
        assert server.total_backlog() == ref.total_backlog()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_op(), min_size=1, max_size=60))
    def test_busy_set_invariant(self, ops):
        """The busy set always covers every session with work."""
        server, ref = _run_pair(ops)
        reg = server._registry
        busy = reg.busy_indices()
        n = reg.num_active
        assert busy.size == reg.num_busy
        assert np.array_equal(busy, np.sort(busy))
        if busy.size:
            assert busy[0] >= 0 and busy[-1] < n
        with_work = set(
            np.flatnonzero(
                (reg.backlog != 0.0) | (reg.pending != 0.0)
            ).tolist()
        )
        assert with_work <= set(busy.tolist())

    def test_idle_majority_never_enters_the_denominator(self):
        """Work-conservation: idle sessions' phi mass is excluded, so
        one busy session among many idle ones gets the full capacity,
        not its proportional share."""
        server = StreamingGPSServer(rate=2.0)
        for k in range(50):
            server.process(
                SessionJoin(time=0.0, name=f"s{k}", phi=1.0)
            )
        server.process(
            ArrivalEvent(time=0.0, session="s7", amount=10.0)
        )
        server.advance_to(1)
        assert server._registry.num_busy == 1
        # full capacity, not 2.0 * (1/50)
        assert server.session_backlog("s7") == 8.0


def _registry_after(ops):
    """The registry after ``ops``, with one arrival left pending in the
    open slot (export keeps it apart from the backlog)."""
    server, _ = _run_pair(ops)
    for name in server.active_sessions[:1]:
        server.process(
            ArrivalEvent(time=float(server.clock), session=name, amount=0.5)
        )
    return server._registry


def _vectors(registry):
    return (
        registry.phis,
        registry.backlog,
        registry.pending,
        registry.arrived,
        registry.served,
    )


class TestRegistryStateRoundTrip:
    """The columnar registry snapshot loses nothing and re-exports to
    the same bytes, for arbitrary churn with QoS declarations."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(_op(), min_size=1, max_size=60))
    def test_round_trip_restores_every_field(self, ops):
        registry = _registry_after(ops)
        encoded = json.dumps(registry.export_state(), sort_keys=True)
        restored = SessionRegistry.from_state(json.loads(encoded))
        for got, want in zip(_vectors(restored), _vectors(registry)):
            assert np.array_equal(got, want)
        assert np.array_equal(
            restored.busy_indices(), registry.busy_indices()
        )
        assert restored.epoch == registry.epoch
        assert restored.total_backlog() == registry.total_backlog()
        assert restored.total_pending() == registry.total_pending()
        assert restored.stats() == registry.stats()
        assert restored.admitted_declarations() == (
            registry.admitted_declarations()
        )
        assert (
            json.dumps(restored.export_state(), sort_keys=True) == encoded
        )

    @settings(max_examples=80, deadline=None)
    @given(st.lists(_op(), min_size=1, max_size=60))
    def test_columns_drop_nothing_of_the_per_session_layout(self, ops):
        """An active session's old per-session record repeated its
        vector entries exactly, so the per-session layout restores to
        the same registry as the columnar one."""
        registry = _registry_after(ops)
        state = json.loads(json.dumps(registry.export_state()))
        phis, backlog, _, arrived, served = _vectors(registry)
        stats = registry.stats()
        legacy_active = []
        for k, name in enumerate(registry.names):
            record = stats[name]
            # json.dumps tells -0.0 from 0.0 and compares the exact
            # repr, so this is a bit-for-bit comparison.
            assert json.dumps(
                [
                    record["phi"],
                    record["arrived"],
                    record["served"],
                    record["residual"],
                ]
            ) == json.dumps(
                [
                    float(phis[k]),
                    float(arrived[k]),
                    float(served[k]),
                    float(backlog[k]),
                ]
            )
            legacy_active.append(
                {
                    **record,
                    "ebb": state["columns"]["ebb"][k],
                    "target": state["columns"]["target"][k],
                }
            )
        legacy = {key: v for key, v in state.items() if key != "columns"}
        legacy["active"] = legacy_active
        from_legacy = SessionRegistry.from_state(legacy)
        assert from_legacy.export_state() == registry.export_state()
        assert from_legacy.stats() == registry.stats()


class TestColumnarActiveSessions:
    """Active sessions are columns, not objects: a ``SessionInfo`` is a
    copy built on demand."""

    def test_joins_build_no_session_info(self):
        import gc

        from repro.online.session import SessionInfo

        def infos():
            return sum(
                isinstance(obj, SessionInfo) for obj in gc.get_objects()
            )

        before = infos()
        registry = SessionRegistry()
        for k in range(10_000):
            assert registry.join(f"s{k}", 1.0, at=k) is None
        assert registry.renegotiate("s7", phi=2.0) is None
        assert infos() == before
        assert not hasattr(registry, "sync_totals")
        assert not hasattr(registry, "_dirty_mask")
        assert not hasattr(registry, "_synced_epoch")

    def test_info_is_a_current_copy(self):
        ebb = EBB(rho=0.2, prefactor=1.0, decay_rate=0.5)
        target = QoSTarget(d_max=20.0, epsilon=1e-3)
        registry = SessionRegistry()
        registry.join("a", 1.0, ebb=ebb, target=target, at=3)
        registry.join("b", 3.0)
        registry.add_arrival("a", 2.0)
        registry.add_arrival("b", 1.0)
        busy = registry.busy_indices()
        registry.commit_slot(busy, np.array([1.5, 0.0]), np.array([0.5, 1.0]))
        info = registry.info("a")
        assert (info.phi, info.ebb, info.target, info.joined_at) == (
            1.0, ebb, target, 3,
        )
        assert (info.arrived, info.served, info.residual) == (2.0, 0.5, 1.5)
        info.phi = 9.0
        assert registry.info("a").phi == 1.0
        assert registry.info("a") is not registry.info("a")
        registry.renegotiate("a", phi=4.0)
        assert registry.info("a").renegotiations == 1
        assert registry.info("a").phi == 4.0


class TestBusySetRecovery:
    def _serve_some(self, server):
        for k, name in enumerate(NAMES):
            server.process(
                SessionJoin(time=0.0, name=name, phi=1.0 + k)
            )
        for t in range(1, 12):
            server.process(
                ArrivalEvent(
                    time=float(t),
                    session=NAMES[t % len(NAMES)],
                    amount=0.7 * t,
                )
            )
        server.process(SessionLeave(time=12.0, name="c"))
        server.advance_to(13)

    def test_export_state_round_trips_busy_index(self):
        server = StreamingGPSServer(rate=1.0, record_traces=False)
        self._serve_some(server)
        reg = server._registry
        state = server.export_state()
        restored = StreamingGPSServer.from_state(state)
        reg2 = restored._registry
        assert np.array_equal(reg2.busy_indices(), reg.busy_indices())
        assert reg2.epoch == reg.epoch
        assert reg2.total_backlog() == reg.total_backlog()
        assert reg2.total_pending() == reg.total_pending()
        # and the restarted engine keeps serving bit-identically
        server.advance_to(20)
        restored.advance_to(20)
        assert server.export_state() == restored.export_state()

    def test_legacy_snapshot_derives_busy_index(self):
        """Snapshots written before the busy-set fields existed restore
        through the derivation path and serve identically."""
        server = StreamingGPSServer(rate=1.0)
        self._serve_some(server)
        state = server.export_state()
        legacy = json.loads(json.dumps(state))
        for key in ("busy", "epoch", "total_backlog", "total_pending"):
            del legacy["registry"][key]
        restored = StreamingGPSServer.from_state(legacy)
        reg, reg2 = server._registry, restored._registry
        assert np.array_equal(reg2.busy_indices(), reg.busy_indices())
        assert reg2.total_backlog() == reg.total_backlog()
        server.advance_to(20)
        restored.advance_to(20)
        assert server.total_backlog() == restored.total_backlog()

    def test_wal_replay_rebuilds_busy_index(self, tmp_path):
        """Kill -9 a durable service; recovery's WAL replay rebuilds
        the busy index, epoch and totals to the live values."""
        lines = [
            json.dumps(
                {
                    "kind": "join",
                    "name": name,
                    "time": 0.0,
                    "phi": 1.0 + k,
                }
            )
            for k, name in enumerate(NAMES)
        ] + [
            json.dumps(
                {
                    "kind": "arrival",
                    "session": NAMES[t % len(NAMES)],
                    "time": float(t),
                    "amount": 0.9,
                }
            )
            for t in range(1, 15)
        ]
        service, _ = DurableOnlineService.open(
            tmp_path, mode="create", rate=1.0, snapshot_every=6
        )
        service.ingest(lines)
        live = service.engine._registry
        live_busy = live.busy_indices().copy()
        live_state = (
            live.epoch,
            live.total_backlog(),
            live.total_pending(),
        )
        # abandon without shutdown: recovery sees snapshot + WAL tail
        del service
        recovered, report = DurableOnlineService.open(
            tmp_path, mode="recover"
        )
        assert report.applied_seq == len(lines)
        reg = recovered.engine._registry
        assert np.array_equal(reg.busy_indices(), live_busy)
        assert (
            reg.epoch,
            reg.total_backlog(),
            reg.total_pending(),
        ) == live_state


class TestOpenFactoryValidation:
    def test_bad_mode_is_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="mode"):
            DurableOnlineService.open(
                tmp_path, mode="resume", rate=1.0
            )
        with pytest.raises(ValidationError, match="mode"):
            ShardedOnlineCluster.open(
                tmp_path, mode="resume", num_shards=2, rate=1.0
            )

    def test_create_requires_rate(self, tmp_path):
        with pytest.raises(ValidationError, match="rate"):
            DurableOnlineService.open(tmp_path, mode="create")

    def test_recover_rejects_creation_overrides(self, tmp_path):
        service, _ = DurableOnlineService.open(
            tmp_path, mode="create", rate=1.0
        )
        service.shutdown()
        with pytest.raises(ValidationError, match="snapshot_every"):
            DurableOnlineService.open(
                tmp_path, mode="recover", snapshot_every=5
            )

    def test_cluster_recover_rejects_creation_overrides(self, tmp_path):
        cluster, _ = ShardedOnlineCluster.open(
            tmp_path, mode="create", num_shards=2, rate=1.0
        )
        cluster.shutdown()
        with pytest.raises(ValidationError, match="snapshot_every"):
            ShardedOnlineCluster.open(
                tmp_path, mode="recover", snapshot_every=5
            )
