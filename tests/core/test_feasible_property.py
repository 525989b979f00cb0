"""Property-based tests for feasible orderings and the feasible partition.

The contract under test: for *any* rate/weight vector,
``find_feasible_ordering`` either returns a permutation that verifiably
satisfies eq. (4)/(5), or raises :class:`FeasibilityError` — it never
returns a wrong ordering, and it never raises when the stability
condition guarantees one exists.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.analysis.feasible import (  # noqa: E402
    FeasibleOrderingError,
    feasible_partition,
    find_feasible_ordering,
    is_feasible_ordering,
)
from repro.errors import FeasibilityError, ReproError  # noqa: E402

_rates = st.floats(
    min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False
)
_phis = st.floats(
    min_value=1e-3, max_value=10.0, allow_nan=False, allow_infinity=False
)


@st.composite
def _sessions(draw, min_size=1, max_size=8):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    rates = draw(
        st.lists(_rates, min_size=n, max_size=n)
    )
    phis = draw(st.lists(_phis, min_size=n, max_size=n))
    server_rate = draw(
        st.floats(min_value=1e-2, max_value=20.0, allow_nan=False)
    )
    return rates, phis, server_rate


@st.composite
def _stable_sessions(draw, min_size=1, max_size=8):
    """Sessions whose total rate is strictly below the server rate."""
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    rates = draw(st.lists(_rates, min_size=n, max_size=n))
    phis = draw(st.lists(_phis, min_size=n, max_size=n))
    headroom = draw(st.floats(min_value=1.05, max_value=4.0))
    server_rate = max(sum(rates), 1e-3) * headroom
    return rates, phis, server_rate


class TestFindFeasibleOrderingProperties:
    @settings(max_examples=200, deadline=None)
    @given(_sessions())
    def test_never_returns_a_wrong_ordering(self, case):
        """Either a verified feasible ordering or a typed error."""
        rates, phis, server_rate = case
        try:
            order = find_feasible_ordering(
                rates, phis, server_rate=server_rate
            )
        except FeasibilityError:
            return
        assert sorted(order) == list(range(len(rates)))
        assert is_feasible_ordering(
            order, rates, phis, server_rate=server_rate
        )

    @settings(max_examples=200, deadline=None)
    @given(_stable_sessions())
    def test_stable_systems_always_have_an_ordering(self, case):
        """sum(rho) < r guarantees a feasible ordering exists (P&G)."""
        rates, phis, server_rate = case
        order = find_feasible_ordering(
            rates, phis, server_rate=server_rate
        )
        assert is_feasible_ordering(
            order, rates, phis, server_rate=server_rate
        )

    @settings(max_examples=100, deadline=None)
    @given(_sessions())
    def test_strict_implies_nonstrict(self, case):
        rates, phis, server_rate = case
        try:
            order = find_feasible_ordering(
                rates, phis, server_rate=server_rate, strict=True
            )
        except FeasibilityError:
            return
        assert is_feasible_ordering(
            order, rates, phis, server_rate=server_rate, strict=False
        )

    @settings(max_examples=100, deadline=None)
    @given(_sessions())
    def test_failures_are_repro_errors(self, case):
        rates, phis, server_rate = case
        try:
            find_feasible_ordering(rates, phis, server_rate=server_rate)
        except ReproError:
            pass  # typed — also a ValueError by design
        except Exception as exc:  # pragma: no cover - property violation
            pytest.fail(f"untyped exception {type(exc).__name__}: {exc}")


class TestFeasiblePartitionProperties:
    @settings(max_examples=200, deadline=None)
    @given(_stable_sessions())
    def test_partition_covers_every_session_once(self, case):
        rhos, phis, server_rate = case
        partition = feasible_partition(
            rhos, phis, server_rate=server_rate
        )
        members = [i for group in partition.classes for i in group]
        assert sorted(members) == list(range(len(rhos)))

    @settings(max_examples=200, deadline=None)
    @given(_stable_sessions())
    def test_each_class_clears_its_threshold(self, case):
        """Eq. (37)-(39): H_k members sit below the residual threshold."""
        rhos, phis, server_rate = case
        partition = feasible_partition(
            rhos, phis, server_rate=server_rate
        )
        consumed = 0.0
        remaining = set(range(len(rhos)))
        for group in partition.classes:
            remaining_phi = sum(phis[j] for j in remaining)
            threshold = (server_rate - consumed) / remaining_phi
            for i in group:
                assert rhos[i] / phis[i] < threshold
            # Maximality: no session left behind also clears it.
            for i in remaining - set(group):
                assert not rhos[i] / phis[i] < threshold
            consumed += sum(rhos[i] for i in group)
            remaining.difference_update(group)

    @settings(max_examples=100, deadline=None)
    @given(_stable_sessions(min_size=2))
    def test_guaranteed_rates_exhaust_server(self, case):
        rhos, phis, server_rate = case
        partition = feasible_partition(
            rhos, phis, server_rate=server_rate
        )
        total = sum(
            partition.guaranteed_rate(i) for i in range(len(rhos))
        )
        assert total == pytest.approx(server_rate, rel=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(_sessions())
    def test_unstable_systems_raise_typed_error(self, case):
        rhos, phis, server_rate = case
        if sum(rhos) < server_rate:
            return
        with pytest.raises(FeasibleOrderingError):
            feasible_partition(rhos, phis, server_rate=server_rate)
