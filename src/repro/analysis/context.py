"""The cached, incrementally-updated owner of the paper's bound state.

:class:`AnalysisContext` holds one GPS server's session population and
is the single stateful entry point to the paper's analytic machinery:

* **membership** — :meth:`AnalysisContext.add`,
  :meth:`AnalysisContext.remove` and :meth:`AnalysisContext.update`
  maintain the population under join / leave / renegotiate events.
  Each event patches the sorted ``rho_i / phi_i`` ratio order of
  eq. (36) and the exact aggregate-rate accumulator in ``O(log N)``
  (Lemma 9's rate-inflation argument makes most renegotiations an
  ``O(1)`` in-place rewrite);
* **admission gate** — :meth:`AnalysisContext.gate` re-checks the
  stability condition (eq. 4) and every session's RPPS share against
  its Theorem 10/15 delay target in ``O(1)`` per decision: each
  session's *critical guaranteed rate* (the float-exact threshold where
  its bound starts meeting the target) is cached, and the population
  passes iff the common share multiplier clears the largest cached
  ``threshold_i / rho_i``.  Condition for condition this is
  :func:`repro.analysis.admission.admissible`;
* **theorem caches** — :meth:`AnalysisContext.partition` (eqs. 37-39),
  :meth:`AnalysisContext.gps_config`,
  :meth:`AnalysisContext.theorem10_bounds`,
  :meth:`AnalysisContext.theorem11_family` and
  :meth:`AnalysisContext.theorem12_family` memoize the feasible
  partition and per-session bound families keyed on the population
  version, so repeated bound evaluations between membership changes
  are free.  The eq. (4) feasibility scan and the partition are
  C-level passes (numpy accumulations and selections, builtin sums)
  over per-session columns kept beside the maintained ratio order, and
  the Theorem 11/12 families read the session's place in the partition
  off them: a diagnosed decision runs no per-session interpreted loop.
  The partition cache is keyed on the *geometry* version, which only
  advances when some ``rho_i`` or ``phi_i`` actually changes —
  renegotiating a QoS target, or re-declaring an identical contract,
  keeps every structural cache warm.

Every answer equals the paper's pure functions
(:func:`~repro.analysis.admission.meets_target`,
:func:`~repro.analysis.feasible.find_feasible_ordering`,
:func:`~repro.analysis.feasible.feasible_partition`,
:func:`~repro.analysis.single_node.theorem11_family`) evaluated from
scratch on the same population, bit for bit; the tests check this
against a from-scratch reference context.

The context is deliberately decision-procedure-shaped rather than
simulation-shaped: :meth:`AnalysisContext.decide_join` and
:meth:`AnalysisContext.decide_update` run the full
gate-diagnose-commit/rollback cycle and return the same typed
:class:`repro.analysis.admission.AdmissionDecision` records the online
controller exposes.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Any

import numpy as np

from repro.analysis.admission import (
    AdmissionDecision,
    QoSTarget,
    critical_guaranteed_rate,
)
from repro.analysis.feasible import FeasibleOrderingError, FeasiblePartition
from repro.analysis.incremental import ExactSum, SortedRatioOrder, _ArrayColumn
from repro.analysis.single_node import (
    SessionBoundFamily,
    SessionBounds,
    _Placement,
    _lower_class,
    _theorem11,
    _theorem12,
    theorem10_bounds,
)
from repro.core.ebb import EBB
from repro.core.gps import GPSConfig, Session
from repro.errors import AdmissionError, ReproError, ValidationError
from repro.utils.validation import check_positive

__all__ = ["SessionDeclaration", "AnalysisContext"]

#: Relative safety margin for the O(1) gate fast path: the cached scale
#: comparison uses ``g_i = rho_i * (rate / total)`` while the exact scan
#: computes ``g_i = rho_i / total * rate``; the two differ by at most a
#: few ulps, so a pass clearing the cached ceiling by this margin is
#: guaranteed to pass the exact per-session comparison too.
_FAST_PATH_MARGIN = 1e-12


@dataclass(frozen=True)
class SessionDeclaration:
    """One session's declared contract, as held by the context.

    ``target`` is optional: network-analysis contexts track sessions
    for their bound structure only, without an admission target.
    """

    name: str
    ebb: EBB
    phi: float
    target: QoSTarget | None = None

    @property
    def ratio(self) -> float:
        """The ordering key ``rho_i / phi_i`` of eq. (36)."""
        return self.ebb.rho / self.phi


class _SessionState:
    """Mutable per-session record (internal).

    ``session`` is the validated :class:`repro.core.gps.Session` view of
    ``(name, ebb, phi)``, rebuilt only when ``ebb`` or ``phi`` changes,
    so :meth:`AnalysisContext.gps_config` re-validates nothing.
    """

    __slots__ = (
        "name", "seq", "ebb", "phi", "target", "ratio", "threshold", "scale",
        "session",
    )

    def __init__(
        self,
        name: str,
        seq: int,
        ebb: EBB,
        phi: float,
        target: QoSTarget | None,
        threshold: float,
    ) -> None:
        self.name = name
        self.seq = seq
        self.ebb = ebb
        self.phi = phi
        self.target = target
        self.ratio = ebb.rho / phi
        self.threshold = threshold
        self.scale = 0.0 if threshold == 0.0 else threshold / ebb.rho
        self.session = Session(name, ebb, phi)

    def declaration(self) -> SessionDeclaration:
        return SessionDeclaration(
            name=self.name, ebb=self.ebb, phi=self.phi, target=self.target
        )


class _Columns:
    """Per-session contract values in insertion (ascending ``seq``)
    order, kept beside the ratio order (internal).

    ``names``, ``rhos`` and ``phis`` are object columns holding the
    declared values themselves: gathers from them feed builtin sums in
    the reference summation order, and ``tolist`` only copies
    references.  The float columns serve the numpy arithmetic of the
    eq. (4) scan and the lower classes of Theorems 11/12.  Together
    they let the diagnostics read whole columns instead of visiting one
    ``_SessionState`` per session in interpreted code.
    """

    __slots__ = (
        "seq", "names", "rhos", "phis", "rho_floats", "phi_floats",
        "prefactors", "decay_rates",
    )

    def __init__(self) -> None:
        self.seq: list[int] = []
        self.names = _ArrayColumn(object)
        self.rhos = _ArrayColumn(object)
        self.phis = _ArrayColumn(object)
        self.rho_floats = _ArrayColumn(np.float64)
        self.phi_floats = _ArrayColumn(np.float64)
        self.prefactors = _ArrayColumn(np.float64)
        self.decay_rates = _ArrayColumn(np.float64)

    def _arrays(self) -> tuple[_ArrayColumn, ...]:
        return (
            self.names, self.rhos, self.phis, self.rho_floats,
            self.phi_floats, self.prefactors, self.decay_rates,
        )

    @staticmethod
    def _values(state: _SessionState) -> tuple[Any, ...]:
        rho, phi = state.ebb.rho, state.phi
        return (
            state.name, rho, phi, rho, phi, state.ebb.prefactor,
            state.ebb.decay_rate,
        )

    def append(self, state: _SessionState) -> None:
        """Add the newest session (its ``seq`` exceeds every other)."""
        self.seq.append(state.seq)
        for array, value in zip(self._arrays(), self._values(state)):
            array.append(value)

    def remove(self, seq: int) -> None:
        k = bisect_left(self.seq, seq)
        del self.seq[k]
        for array in self._arrays():
            array.delete(k)

    def set(self, state: _SessionState) -> None:
        """Rewrite one session's values after a renegotiation."""
        k = bisect_left(self.seq, state.seq)
        for array, value in zip(self._arrays(), self._values(state)):
            array[k] = value


def _strict_scan(
    rhos: np.ndarray, phis: np.ndarray, total_phi: float, rate: float
) -> bool:
    """The strict eq. (4) check of
    :func:`repro.analysis.feasible.is_feasible_ordering` over sessions
    already in candidate order, with its float evaluation order.

    The remaining weight starts at ``total_phi`` (the caller's builtin
    ``sum`` of the weights in this order) and then loses one ``phi``
    per step; the consumed rate gains one ``rho`` per step.
    Both recurrences are sequential accumulations, which
    ``np.{subtract,add}.accumulate`` evaluate in the same order, and the
    slack is elementwise IEEE arithmetic.  Where the running weight
    rounds to ``<= 0.0`` with sessions left, the scalar loop restarts
    it from the builtin ``sum`` of the unscanned weights, and so does
    this scan.  A step whose slack is NaN passes, as in the loop.
    """
    remaining = np.empty_like(phis)
    remaining[0] = total_phi
    remaining[1:] = phis[:-1]
    np.subtract.accumulate(remaining, out=remaining)
    k = 0
    while True:
        rounded_away = np.flatnonzero(remaining[k:] <= 0.0)
        if not rounded_away.size:
            break
        k += int(rounded_away[0])
        tail = remaining[k:]
        tail[0] = sum(phis[k:].tolist())
        tail[1:] = phis[k:-1]
        np.subtract.accumulate(tail, out=tail)
    consumed = np.empty_like(rhos)
    consumed[0] = 0.0
    consumed[1:] = rhos[:-1]
    np.add.accumulate(consumed, out=consumed)
    with np.errstate(all="ignore"):
        slack = phis / remaining * (rate - consumed) - rhos
    return not (slack <= 0.0).any()


class _Layout:
    """The incremental partition's class structure (internal), cached
    per geometry version.

    Class ``k`` is the run of the ratio order ending before position
    ``ends[k]``.  ``members[k]`` holds its sessions' column positions
    in ascending (insertion) order, ``names[k]`` and ``class_rhos[k]``
    list them in that order, and ``suffix_phi[k]`` is the weight mass at
    or above the class.  These are the sums
    :func:`repro.analysis.feasible.feasible_partition` forms, so
    ``suffix_phi[k]`` equals ``partition.suffix_phi(k)`` and
    ``suffix_phi[0]`` the total weight, bit for bit.
    """

    __slots__ = (
        "rhos", "phis", "members", "ends", "suffix_phi", "class_rhos",
        "names", "_partition",
    )

    def __init__(self, rhos: list[float], phis: list[float]) -> None:
        self.rhos = rhos
        self.phis = phis
        self.members: list[np.ndarray] = []
        self.ends: list[int] = []
        self.suffix_phi: list[float] = []
        self.class_rhos: list[list[float]] = []
        self.names: list[list[str]] = []
        self._partition: FeasiblePartition | None = None

    def partition(self, server_rate: float) -> FeasiblePartition:
        if self._partition is None:
            self._partition = FeasiblePartition(
                classes=tuple(
                    tuple(members.tolist()) for members in self.members
                ),
                rhos=tuple(map(float, self.rhos)),
                phis=tuple(map(float, self.phis)),
                server_rate=server_rate,
            )
        return self._partition


class AnalysisContext:
    """Cached, incrementally-updated bound computations for one server.

    Parameters
    ----------
    rate:
        The GPS server rate shared by the population.
    discrete:
        Evaluate the discrete-time variants of the bounds (eq. 66), as
        the slotted simulators and the online controller do; pass
        ``False`` for the continuous-time forms used by the network
        recursion.
    """

    def __init__(self, rate: float, *, discrete: bool = True) -> None:
        check_positive("rate", rate)
        self._rate = float(rate)
        self._discrete = bool(discrete)
        self._sessions: dict[str, _SessionState] = {}
        self._next_seq = 0
        # maintained structures ----------------------------------------
        self._total = ExactSum()
        self._order = SortedRatioOrder()
        self._heap: list[tuple[float, int]] = []  # (-scale, seq), lazy deletion
        self._seq_state: dict[int, _SessionState] = {}
        self._columns = _Columns()
        # cache versioning ---------------------------------------------
        self._version = 0  # any membership / contract change
        self._geometry = 0  # only rho / phi changes
        self._threshold_cache: dict[tuple[EBB, QoSTarget], float] = {}
        self._ranks_cache: tuple[int, np.ndarray, np.ndarray] | None = None
        self._layout_cache: tuple[int, _Layout] | None = None
        self._ordering_cache: tuple[int, dict[str, Any]] | None = None
        self._config_cache: tuple[int, GPSConfig] | None = None
        self._family_version = -1
        self._family_cache: dict[tuple[str, str, float], SessionBoundFamily] = {}
        self._bounds_cache: dict[tuple[str, str, float], SessionBounds] = {}

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def rate(self) -> float:
        """The server rate."""
        return self._rate

    @property
    def discrete(self) -> bool:
        """Whether the discrete-time bound variants are evaluated."""
        return self._discrete

    @property
    def version(self) -> int:
        """Population version; advances on every effective change."""
        return self._version

    @property
    def names(self) -> tuple[str, ...]:
        """Session names in insertion (admission) order."""
        return tuple(self._sessions)

    @property
    def total_rho(self) -> float:
        """Exact (correctly rounded) aggregate upper rate."""
        return self._total.value

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, name: object) -> bool:
        return name in self._sessions

    def declaration(self, name: str) -> SessionDeclaration:
        """The current contract of one session."""
        state = self._sessions.get(name)
        if state is None:
            raise AdmissionError(f"unknown session {name!r}")
        return state.declaration()

    def declarations(self) -> list[SessionDeclaration]:
        """All current contracts, in insertion order."""
        return [s.declaration() for s in self._sessions.values()]

    def ratio_ordering(self) -> list[str]:
        """Session names sorted by ``rho_i / phi_i`` (stable in join
        order) — the canonical feasible-ordering candidate of eq. (36)."""
        return self._ratio_names()

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def _admission_threshold(
        self, ebb: EBB, target: QoSTarget | None
    ) -> float:
        """Cached critical guaranteed rate (0.0 for target-less sessions)."""
        if target is None:
            return 0.0
        key = (ebb, target)
        cached = self._threshold_cache.get(key)
        if cached is None:
            cached = critical_guaranteed_rate(
                ebb, target, server_rate=self._rate, discrete=self._discrete
            )
            self._threshold_cache[key] = cached
        return cached

    def add(
        self,
        name: str,
        ebb: EBB,
        phi: float,
        target: QoSTarget | None = None,
    ) -> None:
        """Register a session (no admission check; see ``decide_join``)."""
        if not name:
            raise ValidationError("session name must be non-empty")
        if name in self._sessions:
            raise AdmissionError(f"session {name!r} is already admitted")
        check_positive("phi", phi)
        state = _SessionState(
            name,
            self._next_seq,
            ebb,
            float(phi),
            target,
            self._admission_threshold(ebb, target),
        )
        self._next_seq += 1
        self._sessions[name] = state
        self._total.add(state.ebb.rho)
        self._order.insert(state.ratio, state.seq)
        heapq.heappush(self._heap, (-state.scale, state.seq))
        self._seq_state[state.seq] = state
        self._columns.append(state)
        self._version += 1
        self._geometry += 1

    def remove(self, name: str) -> SessionDeclaration:
        """Forget a session; returns its final contract."""
        state = self._sessions.get(name)
        if state is None:
            raise AdmissionError(f"cannot remove unknown session {name!r}")
        del self._sessions[name]
        self._total.remove(state.ebb.rho)
        self._order.remove(state.ratio, state.seq)
        del self._seq_state[state.seq]  # heap entries go stale lazily
        self._compact_heap()
        self._columns.remove(state.seq)
        self._version += 1
        self._geometry += 1
        return state.declaration()

    def update(
        self,
        name: str,
        *,
        ebb: EBB | None = None,
        phi: float | None = None,
        target: QoSTarget | None = None,
    ) -> SessionDeclaration:
        """Renegotiate a session's contract; ``None`` keeps a field.

        Returns the *previous* contract (so callers can roll back a
        rejected renegotiation with :meth:`restore`).  A non-positive
        ``phi`` raises :class:`repro.errors.ValidationError` and leaves
        the contract and :attr:`version` unchanged.
        """
        state = self._sessions.get(name)
        if state is None:
            raise AdmissionError(f"cannot renegotiate unknown session {name!r}")
        previous = state.declaration()
        self._set(
            state,
            ebb if ebb is not None else state.ebb,
            float(phi) if phi is not None else state.phi,
            target if target is not None else state.target,
        )
        return previous

    def restore(self, declaration: SessionDeclaration) -> None:
        """Re-impose a previously returned contract (rollback helper)."""
        state = self._sessions.get(declaration.name)
        if state is None:
            raise AdmissionError(
                f"cannot renegotiate unknown session {declaration.name!r}"
            )
        self._set(state, declaration.ebb, declaration.phi, declaration.target)

    def _set(
        self,
        state: _SessionState,
        ebb: EBB,
        phi: float,
        target: QoSTarget | None,
    ) -> None:
        """Apply an exact new contract, patching the maintained state.

        A no-op contract (bit-identical to the current one) returns
        without advancing any version counter, keeping every cache
        warm — load-bearing for the network recursion, which re-declares
        each hop's input E.B.B. per session and only occasionally
        changes it.  An invalid contract raises before anything changes.
        """
        check_positive("phi", phi)
        if ebb == state.ebb and phi == state.phi and target == state.target:
            return
        geometry_changed = ebb.rho != state.ebb.rho or phi != state.phi
        if ebb != state.ebb or phi != state.phi:
            state.session = Session(state.name, ebb, phi)  # validates
        if ebb.rho != state.ebb.rho:
            self._total.remove(state.ebb.rho)
            self._total.add(ebb.rho)
        new_ratio = ebb.rho / phi
        if new_ratio != state.ratio:
            self._order.replace(state.ratio, new_ratio, state.seq)
        if ebb != state.ebb or target != state.target:
            threshold = self._admission_threshold(ebb, target)
            state.threshold = threshold
            state.scale = 0.0 if threshold == 0.0 else threshold / ebb.rho
            heapq.heappush(self._heap, (-state.scale, state.seq))
            self._compact_heap()
        state.ebb = ebb
        state.phi = phi
        state.target = target
        state.ratio = new_ratio
        self._columns.set(state)
        self._version += 1
        if geometry_changed:
            self._geometry += 1

    # ------------------------------------------------------------------
    # the admission gate
    # ------------------------------------------------------------------
    def _compact_heap(self) -> None:
        """Rebuild the heap once stale entries outnumber live ones."""
        if len(self._heap) > 2 * len(self._seq_state):
            self._heap = [(-s.scale, q) for q, s in self._seq_state.items()]
            heapq.heapify(self._heap)

    def _max_scale(self) -> float | None:
        """Largest live ``threshold_i / rho_i`` (lazy-deletion heap top)."""
        heap = self._heap
        while heap:
            neg_scale, seq = heap[0]
            state = self._seq_state.get(seq)
            if state is not None and state.scale == -neg_scale:
                return -neg_scale
            heapq.heappop(heap)
        return None

    def gate(self, request_name: str) -> tuple[str | None, str, dict[str, Any]]:
        """Run the RPPS admission gate over the current population.

        Returns ``(violated, reason, details)`` with ``violated=None``
        on acceptance.  Condition for condition this is
        :func:`repro.analysis.admission.admissible` on the current
        ``(ebbs, targets)``; the requesting session must already be
        registered (``decide_join`` adds it first and rolls back on
        rejection).  Sessions without a target only participate in the
        stability check.
        """
        if request_name not in self._sessions:
            raise AdmissionError(f"unknown session {request_name!r}")
        total = self.total_rho
        details: dict[str, Any] = {
            "server_rate": self._rate,
            "total_rho": total,
            "offered_load": total / self._rate,
            "num_sessions": len(self._sessions),
        }
        if total >= self._rate:
            return (
                "stability",
                f"aggregate rate {total:.6g} would reach the server "
                f"rate {self._rate:.6g} (eq. 4 stability)",
                details,
            )
        violator = self._first_violator(total)
        if violator is None:
            return None, "all delay targets met at the RPPS shares", details
        state, granted = violator
        assert state.target is not None
        details["violating_session"] = state.name
        details["granted_rate"] = granted
        details["d_max"] = state.target.d_max
        details["epsilon"] = state.target.epsilon
        details["bound_probability"] = self._bound_at(state, granted)
        blame = (
            "its own"
            if state.name == request_name
            else f"session {state.name!r}'s"
        )
        return (
            "delay_bound",
            f"admitting {request_name!r} would violate {blame} "
            f"Theorem 10 delay target Pr{{D >= "
            f"{state.target.d_max:g}}} <= "
            f"{state.target.epsilon:g} at RPPS rate "
            f"{granted:.6g}",
            details,
        )

    def _first_violator(
        self, total: float
    ) -> tuple[_SessionState, float] | None:
        """First session (in admission order) whose RPPS share misses
        its delay target, or ``None`` when all targets are met."""
        ceiling = self._max_scale()
        multiplier = self._rate / total
        if ceiling is None or multiplier * (1.0 - _FAST_PATH_MARGIN) > ceiling:
            # O(1) accept: every share clears its threshold with a
            # margin larger than the share-expression rounding.
            return None
        for state in self._sessions.values():
            if state.target is None:
                continue
            granted = state.ebb.rho / total * self._rate
            # granted >= threshold  <=>  meets_target(granted), by
            # the float-exact bisection in critical_guaranteed_rate
            if granted < state.threshold:
                return state, granted
        return None

    def _bound_at(self, state: _SessionState, granted: float) -> float | None:
        """Theorem 10/15 delay-bound value at the session's ``d_max``."""
        from repro.core.rpps import guaranteed_rate_bounds

        assert state.target is not None
        if granted <= state.ebb.rho:
            return None
        try:
            bounds = guaranteed_rate_bounds(
                state.name, state.ebb, granted, discrete=self._discrete
            )
            return float(bounds.delay.evaluate(state.target.d_max))
        except ReproError:
            return None

    # ------------------------------------------------------------------
    # diagnostics (feasible ordering / partition / Theorem 11)
    # ------------------------------------------------------------------
    def _ranks(self) -> tuple[np.ndarray, np.ndarray]:
        """``(order, rank)``, cached per geometry:
        ``order[r]`` is the column (insertion) index of the ``r``-th
        session in ratio order and ``rank[i]`` the ratio position of
        column ``i``.

        Insertion order is ascending ``seq``, so sorting the maintained
        order's ``seq`` column yields ``rank`` in one C-level pass.
        """
        cache = self._ranks_cache
        if cache is not None and cache[0] == self._geometry:
            return cache[1], cache[2]
        rank = np.argsort(self._order.seq_array(), kind="stable")
        order = np.empty_like(rank)
        order[rank] = np.arange(len(rank))
        self._ranks_cache = (self._geometry, order, rank)
        return order, rank

    def _ratio_names(self) -> list[str]:
        order, _ = self._ranks()
        names: list[str] = self._columns.names.view()[order].tolist()
        return names

    def _ordering_diagnostics(self) -> dict[str, Any]:
        """Feasible-ordering diagnostics, cached on the geometry version.

        The maintained ratio order *is* the canonical candidate
        ordering, so only the strict eq. (4) scan is paid, as numpy
        passes over the rate and weight columns gathered into that
        order; the output (including the failure message) is
        bit-identical to
        :func:`repro.analysis.feasible.find_feasible_ordering`.
        """
        if (
            self._ordering_cache is not None
            and self._ordering_cache[0] == self._geometry
        ):
            return dict(self._ordering_cache[1])
        order, _ = self._ranks()
        columns = self._columns
        feasible = _strict_scan(
            columns.rho_floats.view()[order],
            columns.phi_floats.view()[order],
            sum(columns.phis.view()[order].tolist()),
            self._rate,
        )
        out: dict[str, Any]
        if feasible:
            out = {"feasible_ordering": self._ratio_names()}
        else:
            error = FeasibleOrderingError(
                "no feasible ordering exists: the ratio-sorted ordering "
                f"violates eq. (4); total rate "
                f"{sum(s.ebb.rho for s in self._sessions.values())} "
                f"vs server rate {self._rate}"
            )
            out = {
                "feasible_ordering": None,
                "feasible_ordering_error": str(error),
            }
        self._ordering_cache = (self._geometry, dict(out))
        return out

    def diagnose(self, request_name: str) -> dict[str, Any]:
        """Feasible ordering / partition / Theorem 11 diagnostics for a
        request, matching the online controller's decision details.

        No step visits the sessions one by one in interpreted code: the
        ordering and the partition are column passes, the request's
        level comes from its rank in the ratio order, and its Theorem 11
        family reads the class sums the partition formed.

        A population the gate finds stable can still defeat the float
        partition construction (its builtin rate sum rounds up to the
        server rate where the exact sum stays below).  Like an
        infeasible ordering, that is reported as data:
        ``"feasible_partition": None`` with a
        ``"feasible_partition_error"`` message.
        """
        state = self._sessions.get(request_name)
        if state is None:
            raise AdmissionError(f"unknown session {request_name!r}")
        out = self._ordering_diagnostics()
        if out.get("feasible_ordering") is None:
            return out
        try:
            layout = self._layout()
        except FeasibleOrderingError as error:
            out["feasible_partition"] = None
            out["feasible_partition_error"] = str(error)
            return out
        out["feasible_partition"] = [list(names) for names in layout.names]
        out["partition_level"] = self._level(state)
        out["theorem11_probability"] = self._theorem11_probability(state)
        return out

    def _theorem11_probability(self, state: _SessionState) -> float | None:
        """The session's optimized Theorem 11 delay tail at its
        ``d_max`` — the sharper partition-based bound, for diagnostics."""
        if state.target is None:
            return None
        try:
            family = self.theorem11_family(state.name)
            bound = family.optimized_delay(state.target.d_max)
            return float(bound.evaluate(state.target.d_max))
        except ReproError:
            return None

    # ------------------------------------------------------------------
    # cached theorem computations
    # ------------------------------------------------------------------
    def partition(self) -> FeasiblePartition:
        """The feasible partition of eqs. (37)-(39), cached per geometry.

        It is read off the maintained ratio order: every class is a
        contiguous run of that order (the sessions of the remaining
        suffix whose ratio is below the class threshold), listed by
        insertion index.  The float sums are evaluated in the same order
        as :func:`repro.analysis.feasible.feasible_partition` (the
        remaining weights by ascending insertion index, each class's
        rates over its sorted members), so the result is equal to it
        field for field.
        """
        return self._layout().partition(self._rate)

    def _layout(self) -> _Layout:
        """The partition's classes read off the ratio order, cached per
        geometry.

        Each class costs one ``bisect`` for its end in the ratio order,
        numpy selections of its members' column positions, and builtin
        ``sum`` passes over the gathered values.
        """
        cache = self._layout_cache
        if cache is not None and cache[0] == self._geometry:
            return cache[1]
        columns = self._columns
        rhos = columns.rhos.view()
        phis = columns.phis.view()
        n = len(rhos)
        if not n:
            raise ValidationError("need at least one session")
        rate = self._rate
        layout = _Layout(rhos.tolist(), phis.tolist())
        total_rho = sum(layout.rhos)
        if total_rho >= rate:
            raise FeasibleOrderingError(
                f"stability requires sum(rho) < server rate; got {total_rho} "
                f">= {rate}"
            )
        _, rank = self._ranks()
        entries = self._order.as_tuples()
        consumed_rho = 0.0
        remaining_phi = sum(layout.phis)
        start = 0
        while start < n:
            # the sessions left, by ascending insertion index
            alive = np.flatnonzero(rank >= start)
            if start:
                remaining_phi = sum(phis[alive].tolist())
            threshold = (rate - consumed_rho) / remaining_phi
            # first entry at or above the threshold; seqs are >= 0
            end = bisect_left(entries, (threshold, -1), start)
            if end == start:
                raise FeasibleOrderingError(
                    "feasible partition construction stalled; this cannot "
                    "happen when sum(rho) < server rate"
                )
            members = alive if end == n else alive[rank[alive] < end]
            member_rhos = rhos[members].tolist()
            consumed_rho += sum(member_rhos)
            layout.members.append(members)
            layout.ends.append(end)
            layout.suffix_phi.append(remaining_phi)
            layout.class_rhos.append(member_rhos)
            layout.names.append(columns.names.view()[members].tolist())
            start = end
        self._layout_cache = (self._geometry, layout)
        return layout

    def _level(self, state: _SessionState) -> int:
        """A session's partition level, from its rank in the ratio order:
        classes are contiguous runs of that order."""
        rank = self._order.rank(state.ratio, state.seq)
        return bisect_right(self._layout().ends, rank)

    def _placement(self, state: _SessionState) -> _Placement:
        """What Theorems 11/12 need about one session's class and the
        classes below it, read off the layout.

        Every float is the one the ``GPSConfig``/``FeasiblePartition``
        route computes: ``psi`` divides by the partition's suffix
        weight, ``g_i`` by the total weight, and the lower classes' rate
        sums run over their members in class order.
        """
        layout = self._layout()
        level = self._level(state)
        columns = self._columns
        return _Placement(
            name=state.name,
            arrival=state.ebb,
            level=level,
            psi=state.phi / layout.suffix_phi[level],
            # over the lower classes' members in class order, as
            # partition.prefix_sessions(level) lists them
            lower_rho=sum(chain.from_iterable(layout.class_rhos[:level])),
            server_rate=self._rate,
            guaranteed_rate=state.phi / layout.suffix_phi[0] * self._rate,
            lower=tuple(
                _lower_class(
                    sum(class_rhos),
                    columns.prefactors.view()[members],
                    columns.decay_rates.view()[members],
                )
                for members, class_rhos in zip(
                    layout.members[:level], layout.class_rhos
                )
            ),
        )

    def gps_config(self) -> GPSConfig:
        """The population as a :class:`GPSConfig`, cached per version."""
        if self._config_cache is not None and self._config_cache[0] == self._version:
            return self._config_cache[1]
        config = GPSConfig(
            self._rate, [s.session for s in self._sessions.values()]
        )
        self._config_cache = (self._version, config)
        return config

    def _families(self) -> dict[tuple[str, str, float], SessionBoundFamily]:
        if self._family_version != self._version:
            self._family_cache.clear()
            self._bounds_cache.clear()
            self._family_version = self._version
        return self._family_cache

    def theorem10_bounds(
        self, name: str, *, xi: float | None = None
    ) -> SessionBounds:
        """Theorem 10 bounds for one session (class ``H_1`` only),
        cached per population version."""
        self._families()  # resets both caches when the version moved
        key = ("t10", name, -1.0 if xi is None else xi)
        cached = self._bounds_cache.get(key)
        if cached is not None:
            return cached
        config = self.gps_config()
        bounds = theorem10_bounds(
            config,
            config.index_of(name),
            xi=xi,
            discrete=self._discrete,
            partition=self.partition(),
        )
        self._bounds_cache[key] = bounds
        return bounds

    def _family(
        self, kind: str, name: str, xi: float
    ) -> SessionBoundFamily:
        cache = self._families()
        key = (kind, name, xi)
        family = cache.get(key)
        if family is not None:
            return family
        state = self._sessions.get(name)
        if state is None:
            raise KeyError(f"no session named {name!r}")
        placement = self._placement(state)
        if kind == "t11":
            family = _theorem11(placement, xi=xi, discrete=self._discrete)
        else:
            family = _theorem12(
                placement, xi=xi, paper_form=False, discrete=self._discrete
            )
        cache[key] = family
        return family

    def theorem11_family(self, name: str, *, xi: float = 1.0) -> SessionBoundFamily:
        """Theorem 11 bound family for one session, cached per version."""
        return self._family("t11", name, xi)

    def theorem12_family(self, name: str, *, xi: float = 1.0) -> SessionBoundFamily:
        """Theorem 12 bound family for one session, cached per version."""
        return self._family("t12", name, xi)

    # ------------------------------------------------------------------
    # durable state export/import
    # ------------------------------------------------------------------
    def export_state(self) -> dict[str, Any]:
        """JSON-serializable snapshot of the full context state.

        Captures everything a byte-identical resurrection needs: the
        population with the cached per-session admission thresholds,
        the version/geometry counters, and the *exact* Shewchuk
        partials of the aggregate-rate accumulator (JSON round-trips
        finite floats exactly, so restoring the partials reproduces
        every future rounding).  Theorem caches are deliberately
        excluded — they are deterministic functions of this state.
        """
        return {
            "rate": self._rate,
            "discrete": self._discrete,
            "next_seq": self._next_seq,
            "version": self._version,
            "geometry": self._geometry,
            "total_partials": list(self._total.partials),
            "sessions": [
                {
                    "name": state.name,
                    "seq": state.seq,
                    "ebb": {
                        "rho": state.ebb.rho,
                        "prefactor": state.ebb.prefactor,
                        "decay_rate": state.ebb.decay_rate,
                    },
                    "phi": state.phi,
                    "target": (
                        None
                        if state.target is None
                        else {
                            "d_max": state.target.d_max,
                            "epsilon": state.target.epsilon,
                        }
                    ),
                    "threshold": state.threshold,
                }
                for state in self._sessions.values()
            ],
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "AnalysisContext":
        """Rebuild a context from an :meth:`export_state` snapshot.

        The restored context is observationally bit-identical to the
        exported one: same gate decisions, same ``total_rho`` rounding,
        same version counters (so version-keyed caches rebuilt after
        restore stay coherent with pre-snapshot consumers).  Snapshots
        written while a from-scratch mode existed carry an
        ``"incremental"`` key; it is ignored.
        """
        out = cls(float(state["rate"]), discrete=bool(state["discrete"]))
        for record in state["sessions"]:
            ebb = EBB(
                rho=float(record["ebb"]["rho"]),
                prefactor=float(record["ebb"]["prefactor"]),
                decay_rate=float(record["ebb"]["decay_rate"]),
            )
            target = (
                None
                if record["target"] is None
                else QoSTarget(
                    d_max=float(record["target"]["d_max"]),
                    epsilon=float(record["target"]["epsilon"]),
                )
            )
            session = _SessionState(
                str(record["name"]),
                int(record["seq"]),
                ebb,
                float(record["phi"]),
                target,
                float(record["threshold"]),
            )
            out._sessions[session.name] = session
            out._order.insert(session.ratio, session.seq)
            heapq.heappush(out._heap, (-session.scale, session.seq))
            out._seq_state[session.seq] = session
            out._columns.append(session)
            if target is not None:
                out._threshold_cache[(ebb, target)] = session.threshold
        out._total = ExactSum.from_partials(
            float(p) for p in state["total_partials"]
        )
        out._next_seq = int(state["next_seq"])
        out._version = int(state["version"])
        out._geometry = int(state["geometry"])
        return out

    # ------------------------------------------------------------------
    # typed decisions
    # ------------------------------------------------------------------
    def _decision(
        self,
        action: str,
        request_name: str,
        *,
        diagnostics: bool,
    ) -> AdmissionDecision:
        violated, reason, details = self.gate(request_name)
        if diagnostics and violated != "stability":
            details.update(self.diagnose(request_name))
        return AdmissionDecision(
            accepted=violated is None,
            session=request_name,
            action=action,
            reason=reason,
            violated=violated,
            details=details,
        )

    def decide_join(
        self,
        name: str,
        ebb: EBB,
        phi: float,
        target: QoSTarget,
        *,
        diagnostics: bool = False,
    ) -> AdmissionDecision:
        """Gate a join request; commits the session iff accepted.

        A rejected or raising decision leaves the population as it was.
        """
        self.add(name, ebb, phi, target)
        decision = None
        try:
            decision = self._decision("join", name, diagnostics=diagnostics)
        finally:
            if decision is None or not decision.accepted:
                self.remove(name)
        return decision

    def decide_update(
        self,
        name: str,
        *,
        ebb: EBB | None = None,
        phi: float | None = None,
        target: QoSTarget | None = None,
        diagnostics: bool = False,
    ) -> AdmissionDecision:
        """Gate a renegotiation; commits the new contract iff accepted.

        A rejected or raising decision restores the previous contract.
        """
        previous = self.update(name, ebb=ebb, phi=phi, target=target)
        decision = None
        try:
            decision = self._decision(
                "renegotiate", name, diagnostics=diagnostics
            )
        finally:
            if decision is None or not decision.accepted:
                self.restore(previous)
        return decision
