"""The unified :class:`Scenario` entry point.

Historically every layer of the library assembled the same facts —
session names, GPS weights, server rate, traffic sources, horizon,
seed — through its own constructor signature: the fluid server took
``(rate, phis)``, the traffic generators a separate RNG, the bound
theorems a :class:`repro.core.gps.GPSConfig`, the fault layer yet
another argument list.  A :class:`Scenario` collects those facts once,
immutably, and is accepted everywhere:

* ``FluidGPSServer(scenario=s)`` / ``BatchFluidGPSServer(scenario=s)``
  — scalar and batched fluid simulation;
* ``s.simulate(trial=k)`` / ``s.simulate_batch(B)`` — one-call fluid
  runs with deterministic per-trial seeding (and fault injection when
  the scenario carries a :class:`repro.faults.FaultSchedule`);
* ``s.packetize(...)`` + ``s.packet_server()`` — the packet/WFQ side;
* ``s.gps_config()`` — the analysis-side object consumed by the bound
  theorems (requires E.B.B. characterizations);
* ``SupervisedRunner(scenario=s, num_trials=...)`` — supervised
  Monte-Carlo campaigns over the scenario;
* the topology builders in :mod:`repro.network.builders` — network
  families grown out of the scenario's sessions.

Determinism: trial ``k`` draws its arrivals from a generator seeded by
``SeedSequence(entropy=seed, spawn_key=(k,))``, so
``s.sample_arrivals(trial=k)`` equals trial ``k`` of
``s.sample_arrival_batch(B)`` bit for bit, for every ``B > k``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ClassVar, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.traffic.sources import TrafficSource
from repro.utils.validation import check_positive

if TYPE_CHECKING:  # imported lazily at runtime to keep layering acyclic
    from repro.core.ebb import EBB
    from repro.core.gps import GPSConfig
    from repro.faults.schedule import FaultSchedule
    from repro.sim.batch import BatchFluidGPSServer, BatchGPSSimResult
    from repro.sim.fluid import FluidGPSServer, GPSSimResult
    from repro.packet.engine import PacketEngine
    from repro.packet.results import PacketSimResult
    from repro.packet.trace import PacketTrace
    from repro.sim.packet import Packet
    from repro.sim.packetize import PacketSizeModel

__all__ = ["Scenario"]


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """One GPS simulation/analysis scenario, frozen.

    Attributes
    ----------
    rate:
        Server capacity per slot.
    phis:
        GPS weights, one per session.
    sources:
        One :class:`repro.traffic.TrafficSource` per session.
    horizon:
        Number of simulated slots per trial.
    seed:
        Base seed; per-trial generators derive from it.
    names:
        Session labels; defaults to ``session1..sessionN``.
    ebbs:
        Optional per-session E.B.B. characterizations — required by the
        analysis-side accessors (:meth:`gps_config`) and the topology
        builders.
    faults:
        Optional :class:`repro.faults.FaultSchedule` applied by
        :meth:`simulate` / :meth:`simulate_batch` (rate faults scale
        the server capacity under :attr:`node_name`; burst faults
        perturb per-session ingress).
    node_name:
        The label rate faults address this server by.
    """

    rate: float
    phis: tuple[float, ...]
    sources: tuple[TrafficSource, ...]
    horizon: int
    seed: int = 0
    names: tuple[str, ...] | None = None
    ebbs: tuple["EBB", ...] | None = None
    faults: "FaultSchedule | None" = None
    node_name: str = "server"

    #: Most trials one :meth:`run_chunk` call should hold (the process
    #: dispatch backend's chunk cap for this campaign).
    chunk_trials: ClassVar[int] = 128

    def __post_init__(self) -> None:
        check_positive("rate", self.rate)
        phis = tuple(float(p) for p in self.phis)
        if not phis:
            raise ValidationError("a Scenario needs at least one session")
        for k, phi in enumerate(phis):
            check_positive(f"phis[{k}]", phi)
        object.__setattr__(self, "phis", phis)
        sources = tuple(self.sources)
        if len(sources) != len(phis):
            raise ValidationError(
                f"got {len(phis)} weights but {len(sources)} sources"
            )
        for k, source in enumerate(sources):
            if not isinstance(source, TrafficSource):
                raise ValidationError(
                    f"sources[{k}] must be a TrafficSource, got "
                    f"{type(source).__name__}"
                )
        object.__setattr__(self, "sources", sources)
        if self.horizon <= 0:
            raise ValidationError(
                f"horizon must be positive, got {self.horizon}"
            )
        if self.names is None:
            object.__setattr__(
                self,
                "names",
                tuple(f"session{k + 1}" for k in range(len(phis))),
            )
        else:
            names = tuple(str(n) for n in self.names)
            if len(names) != len(phis):
                raise ValidationError(
                    f"got {len(phis)} sessions but {len(names)} names"
                )
            if len(set(names)) != len(names):
                raise ValidationError(
                    f"session names must be unique, got {list(names)}"
                )
            object.__setattr__(self, "names", names)
        if self.ebbs is not None:
            ebbs = tuple(self.ebbs)
            if len(ebbs) != len(phis):
                raise ValidationError(
                    f"got {len(phis)} sessions but {len(ebbs)} "
                    "E.B.B. characterizations"
                )
            object.__setattr__(self, "ebbs", ebbs)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_sessions(self) -> int:
        """Number of sessions."""
        return len(self.phis)

    @property
    def mean_rates(self) -> tuple[float, ...]:
        """Long-run mean arrival rate of each source."""
        return tuple(s.mean_rate for s in self.sources)

    @property
    def offered_load(self) -> float:
        """Total mean arrival rate over the server rate."""
        return sum(self.mean_rates) / self.rate

    def index_of(self, name: str) -> int:
        """Index of the session called ``name``."""
        assert self.names is not None
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no session named {name!r}") from None

    def replace(self, **changes: Any) -> "Scenario":
        """A copy of the scenario with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # deterministic sampling
    # ------------------------------------------------------------------
    def trial_rng(self, trial: int = 0) -> np.random.Generator:
        """The per-trial random generator.

        Derived via ``SeedSequence`` spawn keys so different trials see
        statistically independent streams while trial ``k`` is
        reproducible regardless of how many trials surround it.
        """
        if trial < 0:
            raise ValidationError(f"trial must be >= 0, got {trial}")
        return np.random.default_rng(
            np.random.SeedSequence(
                entropy=self.seed, spawn_key=(trial,)
            )
        )

    def sample_arrivals(self, trial: int = 0) -> np.ndarray:
        """Sample one trial's ``(num_sessions, horizon)`` arrivals."""
        rng = self.trial_rng(trial)
        return np.vstack(
            [
                source.generate(self.horizon, rng)
                for source in self.sources
            ]
        )

    def sample_arrival_batch(
        self, num_trials: int, *, vectorized: bool = False
    ) -> np.ndarray:
        """Sample ``(num_trials, num_sessions, horizon)`` arrivals.

        With ``vectorized=False`` (default) each trial draws from its
        own :meth:`trial_rng` stream, so slice ``b`` equals
        ``sample_arrivals(trial=b)`` bit for bit — the property the
        batched-engine equivalence suite relies on.  With
        ``vectorized=True`` all trials are drawn from one generator via
        the sources' :meth:`~repro.traffic.TrafficSource.generate_batch`
        fast path — statistically equivalent, much faster, but laid out
        on a different stream.
        """
        if num_trials <= 0:
            raise ValidationError(
                f"num_trials must be positive, got {num_trials}"
            )
        if not vectorized:
            return np.stack(
                [self.sample_arrivals(trial=b) for b in range(num_trials)]
            )
        rng = self.trial_rng(0)
        batch = np.empty(
            (num_trials, self.num_sessions, self.horizon)
        )
        for k, source in enumerate(self.sources):
            batch[:, k, :] = source.generate_batch(
                num_trials, self.horizon, rng
            )
        return batch

    # ------------------------------------------------------------------
    # simulation entry points
    # ------------------------------------------------------------------
    def server(self) -> "FluidGPSServer":
        """A fresh scalar fluid GPS server for this scenario."""
        from repro.sim.fluid import FluidGPSServer

        return FluidGPSServer(scenario=self)

    def batch_server(self) -> "BatchFluidGPSServer":
        """A fresh batched fluid GPS server for this scenario."""
        from repro.sim.batch import BatchFluidGPSServer

        return BatchFluidGPSServer(scenario=self)

    def _fault_capacities(self) -> np.ndarray | None:
        if self.faults is None or len(self.faults) == 0:
            return None
        return self.faults.node_capacities(
            self.node_name, self.rate, self.horizon
        )

    def _fault_adjusted(self, arrivals: np.ndarray) -> np.ndarray:
        if self.faults is None or not self.faults.has_burst_faults:
            return arrivals
        assert self.names is not None
        adjusted = np.array(arrivals, dtype=float, copy=True)
        for k, name in enumerate(self.names):
            adjusted[k] = self.faults.adjusted_arrivals(
                name, adjusted[k]
            )
        return adjusted

    def simulate(self, trial: int = 0) -> "GPSSimResult":
        """Run one fluid-GPS trial (faults applied when scheduled)."""
        arrivals = self._fault_adjusted(self.sample_arrivals(trial))
        return self.server().run(
            arrivals, capacities=self._fault_capacities()
        )

    def simulate_batch(
        self, num_trials: int, *, vectorized_sampling: bool = False
    ) -> "BatchGPSSimResult":
        """Run ``num_trials`` fluid-GPS trials on the batched engine.

        With default sampling, ``result.trial(b)`` is bit-for-bit
        identical to :meth:`simulate` with ``trial=b``.
        """
        batch = self.sample_arrival_batch(
            num_trials, vectorized=vectorized_sampling
        )
        if self.faults is not None and self.faults.has_burst_faults:
            for b in range(num_trials):
                batch[b] = self._fault_adjusted(batch[b])
        return self.batch_server().run(
            batch, capacities=self._fault_capacities()
        )

    def trial_result(self, trial: int, seed: int) -> dict[str, Any]:
        """One supervised Monte-Carlo trial, as a JSON-friendly dict:
        the one-trial case of :meth:`run_chunk`."""
        return self.run_chunk([trial], [seed])[0]

    def run_chunk(
        self, trials: Sequence[int], seeds: Sequence[int]
    ) -> list[dict[str, Any]]:
        """Supervised trials ``trials`` at ``seeds`` (the supervisor
        owns seeding, so arrivals come from ``default_rng(seed)``, not
        :meth:`trial_rng`), sampled into one ``(B, N, T)`` block and
        run by one batch-engine call; each row equals its one-trial
        run bit for bit."""
        block = np.empty(
            (len(seeds), self.num_sessions, self.horizon), dtype=float
        )
        for row, seed in zip(block, seeds):
            rng = np.random.default_rng(seed)
            for k, source in enumerate(self.sources):
                row[k] = source.generate(self.horizon, rng)
            row[:] = self._fault_adjusted(row)
        result = self.batch_server().run(
            block, capacities=self._fault_capacities()
        )
        payloads = []
        for index, trial in enumerate(trials):
            payload = result.trial(index).summary()
            payload["trial"] = int(trial)
            payloads.append(payload)
        return payloads

    # ------------------------------------------------------------------
    # online side
    # ------------------------------------------------------------------
    def to_event_stream(
        self,
        trial: int = 0,
        *,
        targets: "Sequence | None" = None,
        include_leaves: bool = False,
    ) -> list:
        """The scenario as an online event stream (slot-ordered).

        Emits one :class:`repro.online.events.SessionJoin` per session
        at time 0 (carrying the scenario's weights, E.B.B.
        characterizations when present, and the optional per-session
        QoS ``targets``), a :class:`repro.online.events.CapacityEvent`
        at every slot where the fault-injected capacity trace changes,
        and one :class:`repro.online.events.ArrivalEvent` per session
        and slot with non-zero (fault-adjusted) arrivals — the same
        sample path :meth:`simulate` feeds the offline engine.
        Replaying the stream through
        :class:`repro.online.engine.StreamingGPSServer` with
        ``horizon=self.horizon`` reproduces the offline run's backlog
        and service trajectories bit for bit.

        ``include_leaves=True`` appends a
        :class:`repro.online.events.SessionLeave` per session at the
        horizon (useful for churn-style downstream processing; leave
        it off when comparing trajectories against the offline run).
        """
        from repro.online.events import (
            ArrivalEvent,
            CapacityEvent,
            SessionJoin,
            SessionLeave,
        )

        assert self.names is not None
        if targets is not None and len(targets) != self.num_sessions:
            raise ValidationError(
                f"got {self.num_sessions} sessions but {len(targets)} "
                "QoS targets"
            )
        events: list = []
        for k, name in enumerate(self.names):
            events.append(
                SessionJoin(
                    time=0.0,
                    name=name,
                    phi=self.phis[k],
                    ebb=None if self.ebbs is None else self.ebbs[k],
                    target=None if targets is None else targets[k],
                )
            )
        capacities = self._fault_capacities()
        arrivals = self._fault_adjusted(self.sample_arrivals(trial))
        current_capacity = self.rate
        for t in range(self.horizon):
            if capacities is not None and capacities[t] != current_capacity:
                current_capacity = float(capacities[t])
                events.append(
                    CapacityEvent(time=float(t), capacity=current_capacity)
                )
            for k, name in enumerate(self.names):
                amount = float(arrivals[k, t])
                if amount > 0.0:
                    events.append(
                        ArrivalEvent(
                            time=float(t), session=name, amount=amount
                        )
                    )
        if include_leaves:
            for name in self.names:
                events.append(
                    SessionLeave(time=float(self.horizon), name=name)
                )
        return events

    # ------------------------------------------------------------------
    # packet side
    # ------------------------------------------------------------------
    def packet_server(self) -> "PacketEngine":
        """A fresh PGPS (packet-by-packet GPS) engine for this
        scenario."""
        from repro.packet.engine import PacketEngine

        return PacketEngine(self.rate, self.phis)

    def packetize(
        self, packet_size: float, trial: int = 0
    ) -> "list[Packet]":
        """Sample one trial and chop it into fixed-size packets."""
        from repro.sim.packetize import packetize_traces

        return packetize_traces(
            self.sample_arrivals(trial), packet_size
        )

    def simulate_packets(
        self, packet_size: float, trial: int = 0
    ) -> "PacketSimResult":
        """Run one packetized PGPS trial of the scenario, keeping
        every packet's stamps."""
        from repro.packet.engine import PacketEngine

        engine = PacketEngine(self.rate, self.phis, collect=True)
        return engine.run(self.packetize(packet_size, trial))

    def to_packet_trace(
        self,
        packet_size: float | None = None,
        *,
        model: "PacketSizeModel | None" = None,
        trial: int = 0,
    ) -> "PacketTrace":
        """Sample one trial as a :class:`repro.packet.trace.PacketTrace`.

        Pass either ``packet_size`` (the fixed-length chopper) or
        ``model`` (any :class:`repro.sim.packetize.PacketSizeModel`).
        The trace header carries this scenario's weights, rate and
        session names, so the file is self-describing — feed it to
        :class:`repro.packet.engine.PacketEngine`, ``repro serve
        --packet``, or write it to disk with
        :meth:`~repro.packet.trace.PacketTrace.write`.

        Arrivals come from :meth:`sample_arrivals` for the given
        trial; model-drawn packet lengths are seeded from
        ``(self.seed, trial)``, so the same scenario and trial always
        produce the same trace.
        """
        from repro.packet.trace import PacketTrace, PacketTraceHeader
        from repro.sim.packetize import FixedSize, packetize_traces_model

        if (packet_size is None) == (model is None):
            raise ValidationError(
                "pass exactly one of packet_size= or model= to "
                "to_packet_trace()"
            )
        if model is None:
            assert packet_size is not None
            model = FixedSize(packet_size)
        packets = packetize_traces_model(
            self.sample_arrivals(trial),
            model,
            seed=(self.seed, trial),
        )
        header = PacketTraceHeader(
            phis=self.phis, rate=self.rate, names=self.names
        )
        return PacketTrace(header=header, packets=tuple(packets))

    # ------------------------------------------------------------------
    # analysis side
    # ------------------------------------------------------------------
    def gps_config(self) -> "GPSConfig":
        """The analysis-side :class:`repro.core.gps.GPSConfig`.

        Requires :attr:`ebbs`; raises :class:`ValidationError` when the
        scenario carries no E.B.B. characterizations.
        """
        from repro.core.gps import GPSConfig, Session

        if self.ebbs is None:
            raise ValidationError(
                "this Scenario has no E.B.B. characterizations; "
                "construct it with ebbs=(...) to use the bound theorems"
            )
        assert self.names is not None
        return GPSConfig(
            self.rate,
            [
                Session(name, ebb, phi)
                for name, ebb, phi in zip(
                    self.names, self.ebbs, self.phis
                )
            ],
        )

    def analysis_context(
        self,
        targets: "Sequence[QoSTarget] | None" = None,
        *,
        discrete: bool = True,
    ) -> "AnalysisContext":
        """A :class:`repro.analysis.context.AnalysisContext` seeded with
        this scenario's sessions.

        Requires :attr:`ebbs`; raises :class:`ValidationError` when the
        scenario carries no E.B.B. characterizations.  ``targets``
        optionally attaches one QoS target per session, enabling the
        context's admission gate in addition to its cached partition /
        bound-family computations.
        """
        from repro.analysis.context import AnalysisContext

        if self.ebbs is None:
            raise ValidationError(
                "this Scenario has no E.B.B. characterizations; "
                "construct it with ebbs=(...) to use the bound theorems"
            )
        assert self.names is not None
        if targets is not None and len(targets) != self.num_sessions:
            raise ValidationError(
                f"got {self.num_sessions} sessions but {len(targets)} "
                "QoS targets"
            )
        context = AnalysisContext(self.rate, discrete=discrete)
        for k, name in enumerate(self.names):
            context.add(
                name,
                self.ebbs[k],
                self.phis[k],
                None if targets is None else targets[k],
            )
        return context

    def summary(self) -> dict[str, Any]:
        """JSON-serializable description of the scenario."""
        return {
            "kind": "scenario",
            "rate": self.rate,
            "phis": list(self.phis),
            "names": list(self.names or ()),
            "horizon": self.horizon,
            "seed": self.seed,
            "mean_rates": list(self.mean_rates),
            "offered_load": self.offered_load,
            "num_faults": 0 if self.faults is None else len(self.faults),
        }
