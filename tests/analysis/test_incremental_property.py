"""Property tests for the incremental maintenance path.

The contract: after *any* sequence of add / remove / renegotiate
events, the incrementally-maintained state equals a from-scratch
recompute —

* :meth:`AnalysisContext.ratio_ordering` equals the stable
  ratio sort over the surviving population,
* :meth:`AnalysisContext.total_rho` is bit-identical to ``math.fsum``
  of the surviving rates,
* :meth:`AnalysisContext.partition` equals
  :func:`repro.analysis.feasible.feasible_partition` recomputed from
  the surviving declarations — also near saturation, where ratio ties
  and three or more classes are common, together with
  :meth:`AnalysisContext.diagnose` matching the from-scratch reference
  of ``tests/analysis/oracle.py``,

plus the same exactness properties for the two underlying containers
(:class:`ExactSum`, :class:`SortedRatioOrder`) in isolation.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import (  # noqa: E402
    event,
    example,
    given,
    settings,
    strategies as st,
)

from repro.analysis import (  # noqa: E402
    AnalysisContext,
    ExactSum,
    QoSTarget,
    SortedRatioOrder,
    feasible_partition,
    is_feasible_ordering,
)
from repro.core.ebb import EBB  # noqa: E402

from tests.analysis.oracle import ReferenceContext  # noqa: E402

_SERVER_RATE = 100.0  # large: any population below stays stable

_rhos = st.floats(min_value=1e-3, max_value=1.0, allow_nan=False)
_phis = st.floats(min_value=1e-2, max_value=5.0, allow_nan=False)


@st.composite
def _event_sequences(draw, max_events=30):
    """(kind, rho, phi) triples; kind 0=add, 1=remove, 2=update."""
    n = draw(st.integers(min_value=1, max_value=max_events))
    events = []
    for _ in range(n):
        kind = draw(st.integers(min_value=0, max_value=2))
        events.append((kind, draw(_rhos), draw(_phis), draw(st.integers(0, 10**6))))
    return events


def _apply(events):
    """Drive a context and a plain-dict mirror from one event stream."""
    context = AnalysisContext(_SERVER_RATE)
    mirror: dict[str, tuple[float, float]] = {}
    next_id = 0
    for kind, rho, phi, pick in events:
        live = sorted(mirror)
        if kind == 0 or not live:
            name = f"s{next_id}"
            next_id += 1
            context.add(name, EBB(rho, 1.0, 1.0), phi)
            mirror[name] = (rho, phi)
        elif kind == 1:
            name = live[pick % len(live)]
            context.remove(name)
            del mirror[name]
        else:
            name = live[pick % len(live)]
            context.update(name, ebb=EBB(rho, 1.0, 1.0), phi=phi)
            mirror[name] = (rho, phi)
    return context, mirror


class TestIncrementalMatchesScratch:
    @settings(max_examples=150, deadline=None)
    @given(_event_sequences())
    def test_ordering_total_and_partition(self, events):
        context, mirror = _apply(events)
        # the context lists sessions in insertion order, like the mirror
        names = list(context.names)
        assert sorted(names) == sorted(mirror)
        rhos = [mirror[n][0] for n in names]
        phis = [mirror[n][1] for n in names]
        # stable ratio sort over the survivors (eq. 36)
        order = sorted(range(len(names)), key=lambda i: rhos[i] / phis[i])
        assert context.ratio_ordering() == [names[i] for i in order]
        # exact aggregate rate
        assert context.total_rho == math.fsum(rhos)
        # feasible partition identical to a from-scratch build
        if names:
            assert context.partition() == feasible_partition(
                rhos, phis, server_rate=_SERVER_RATE
            )


# few distinct rates and weights, so ratios tie across sessions
_tied_rhos = st.sampled_from([0.01, 0.02, 0.03, 0.05, 0.08])
_tied_phis = st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0])


@st.composite
def _saturated_sequences(draw):
    """Add/remove/update events over tied contracts, and an offered
    load near 1 for the survivors (many partition classes)."""
    n = draw(st.integers(min_value=1, max_value=30))
    events = [
        (
            draw(st.integers(min_value=0, max_value=2)),
            draw(_tied_rhos),
            draw(_tied_phis),
            draw(st.integers(0, 10**6)),
        )
        for _ in range(n)
    ]
    load = draw(st.sampled_from([0.5, 0.9, 0.99, 0.999]))
    return events, load


def _drive(context, events):
    """Apply an event stream; returns the surviving ``name -> (rho,
    phi)`` map in insertion order."""
    target = QoSTarget(d_max=50.0, epsilon=1e-3)
    mirror: dict[str, tuple[float, float]] = {}
    next_id = 0
    for kind, rho, phi, pick in events:
        live = sorted(mirror)
        if kind == 0 or not live:
            name = f"s{next_id}"
            next_id += 1
            context.add(name, EBB(rho, 1.0, 1.0), phi, target)
            mirror[name] = (rho, phi)
        elif kind == 1:
            name = live[pick % len(live)]
            context.remove(name)
            del mirror[name]
        else:
            name = live[pick % len(live)]
            context.update(name, ebb=EBB(rho, 1.0, 1.0), phi=phi)
            mirror[name] = (rho, phi)
    return mirror


#: two ties in ratio, three partition classes at 99.9% load
_THREE_TIED_CLASSES = [
    (0, 0.01, 1.0, 0),
    (0, 0.01, 1.0, 0),
    (0, 0.05, 1.0, 0),
    (0, 0.08, 1.0, 0),
    (0, 0.08, 1.0, 0),
    (2, 0.03, 3.0, 1),
]


class TestPartitionFromRatioOrder:
    @settings(max_examples=150, deadline=None)
    @given(_saturated_sequences())
    @example((_THREE_TIED_CLASSES, 0.999))
    def test_partition_and_diagnostics_match_reference(self, case):
        events, load = case
        survivors = _drive(AnalysisContext(1.0), events)
        if not survivors:
            return
        rate = math.fsum(rho for rho, _ in survivors.values()) / load
        fast = AnalysisContext(rate)
        slow = ReferenceContext(rate)
        _drive(fast, events)
        _drive(slow, events)
        rhos = [rho for rho, _ in survivors.values()]
        phis = [phi for _, phi in survivors.values()]
        reference = feasible_partition(rhos, phis, server_rate=rate)
        partition = fast.partition()
        event(f"classes={partition.num_classes}")
        assert partition.classes == reference.classes
        assert partition.rhos == reference.rhos
        assert partition.phis == reference.phis
        assert partition == reference
        assert [partition.level(i) for i in range(len(rhos))] == [
            reference.level(i) for i in range(len(rhos))
        ]
        for name in survivors:
            assert fast.diagnose(name) == slow.diagnose(name)

    def test_example_reaches_three_classes_with_ties(self):
        survivors = _drive(AnalysisContext(1.0), _THREE_TIED_CLASSES)
        rate = math.fsum(rho for rho, _ in survivors.values()) / 0.999
        context = AnalysisContext(rate)
        _drive(context, _THREE_TIED_CLASSES)
        ratios = [rho / phi for rho, phi in survivors.values()]
        assert len(set(ratios)) < len(ratios)
        assert context.partition().num_classes >= 3


class TestScaleHeap:
    """The lazy-deletion heap behind the admission gate's largest
    ``threshold / rho`` stays exact, and is rebuilt from the live
    sessions once its stale entries outnumber them."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                _rhos,
                st.builds(
                    QoSTarget,
                    d_max=st.floats(min_value=1.0, max_value=50.0),
                    epsilon=st.sampled_from([1e-2, 1e-3, 1e-4]),
                ),
                st.integers(0, 10**6),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_max_scale_is_exact_and_heap_bounded(self, ops):
        context = AnalysisContext(_SERVER_RATE)
        next_id = 0
        for kind, rho, target, pick in ops:
            live = list(context.names)
            if kind == 0 or not live:
                context.add(f"s{next_id}", EBB(rho, 1.0, 1.0), 1.0, target)
                next_id += 1
            elif kind == 1:
                context.remove(live[pick % len(live)])
            else:
                name = live[pick % len(live)]
                context.update(name, ebb=EBB(rho, 1.0, 1.0), target=target)
            states = list(context._seq_state.values())
            assert context._max_scale() == max(
                (state.scale for state in states), default=None
            )
            assert len(context._heap) <= 2 * len(states) + 1

    def test_churn_keeps_the_heap_near_the_population(self):
        """Steady join/leave churn at a fixed population: the heap no
        longer grows with every departure."""
        context = AnalysisContext(_SERVER_RATE)
        target = QoSTarget(d_max=20.0, epsilon=1e-3)
        for k in range(2000):
            ebb = EBB(0.01 + (k % 7) * 1e-3, 1.0, 1.0)
            context.add(f"s{k}", ebb, 1.0, target)
            if k >= 50:
                context.remove(f"s{k - 50}")
        assert len(context.names) == 50
        assert len(context._heap) <= 2 * 50 + 1


class TestExactSum:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(
                    min_value=-1e9,
                    max_value=1e9,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                st.booleans(),
            ),
            max_size=40,
        )
    )
    def test_value_is_fsum_of_live_multiset(self, ops):
        """add/remove in any order == fsum of the survivors, bit for bit."""
        acc = ExactSum()
        live: list[float] = []
        for x, keep in ops:
            acc.add(x)
            live.append(x)
            if not keep and live:
                gone = live.pop(0)
                acc.remove(gone)
        assert acc.value == math.fsum(live)


class TestSortedRatioOrder:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                st.integers(min_value=0, max_value=10**6),
            ),
            max_size=40,
        )
    )
    def test_matches_sorted_tuples(self, ops):
        """insert/remove/replace == sorted() over the live entries."""
        order = SortedRatioOrder()
        live: dict[int, float] = {}
        next_seq = 0
        for kind, ratio, pick in ops:
            if kind == 0 or not live:
                order.insert(ratio, next_seq)
                live[next_seq] = ratio
                next_seq += 1
            elif kind == 1:
                seq = sorted(live)[pick % len(live)]
                order.remove(live[seq], seq)
                del live[seq]
            else:
                seq = sorted(live)[pick % len(live)]
                order.replace(live[seq], ratio, seq)
                live[seq] = ratio
        expected = sorted((r, s) for s, r in live.items())
        assert order.as_tuples() == expected
        assert order.seqs() == [s for _, s in expected]

    def test_replace_in_place_does_not_move(self):
        order = SortedRatioOrder()
        order.insert(1.0, 0)
        order.insert(2.0, 1)
        order.insert(3.0, 2)
        # stays between the neighbours: O(1) in-place rewrite (Lemma 9)
        assert order.replace(2.0, 2.5, 1) is False
        # crosses a neighbour: re-insertion
        assert order.replace(2.5, 0.5, 1) is True
        assert order.seqs() == [1, 0, 2]

    def test_remove_unknown_key_raises(self):
        order = SortedRatioOrder()
        order.insert(1.0, 0)
        with pytest.raises(KeyError):
            order.remove(1.0, 99)
        with pytest.raises(KeyError):
            order.replace(2.0, 1.0, 0)


class TestScanAtSaturation:
    """The eq. (4) scan runs as numpy accumulations over the ratio
    order; within 1e-12 of saturation every rounding decides whether a
    step passes, so the outcome must match the scalar reference
    exactly, including when it finds no feasible ordering."""

    @settings(max_examples=150, deadline=None)
    @given(
        _saturated_sequences(),
        st.floats(min_value=0.0, max_value=1e-12),
    )
    @example((_THREE_TIED_CLASSES, 0.999), 0.0)
    def test_scan_matches_reference_near_saturation(self, case, gap):
        events, _ = case
        survivors = _drive(AnalysisContext(1.0), events)
        if not survivors:
            return
        rhos = [rho for rho, _ in survivors.values()]
        phis = [phi for _, phi in survivors.values()]
        rate = math.fsum(rhos) * (1.0 + gap)
        fast = AnalysisContext(rate)
        slow = ReferenceContext(rate)
        _drive(fast, events)
        _drive(slow, events)
        order = sorted(range(len(rhos)), key=lambda i: rhos[i] / phis[i])
        feasible = is_feasible_ordering(
            order, rhos, phis, server_rate=rate, strict=True
        )
        event(f"feasible={feasible}")
        # the ordering part of diagnose(), cached per geometry
        ordering = fast._ordering_diagnostics()
        assert ordering == slow.ordering_diagnostics()
        assert (ordering["feasible_ordering"] is not None) == feasible
