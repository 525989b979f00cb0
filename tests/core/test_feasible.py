"""Tests for feasible orderings and feasible partitions."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.feasible import (
    FeasibleOrderingError,
    feasible_partition,
    find_feasible_ordering,
    is_feasible_ordering,
)


class TestIsFeasibleOrdering:
    def test_accepts_valid(self):
        # Two sessions, equal weights, rates 0.2 and 0.6: 0.2 first is
        # feasible (0.2 <= 0.5 and 0.6 <= 0.8).
        assert is_feasible_ordering([0, 1], [0.2, 0.6], [1.0, 1.0])

    def test_rejects_invalid(self):
        # 0.6 first is infeasible (0.6 > 0.5).
        assert not is_feasible_ordering([1, 0], [0.2, 0.6], [1.0, 1.0])

    def test_strict_mode_rejects_equality(self):
        # rate exactly phi-share: non-strict passes, strict fails.
        assert is_feasible_ordering([0], [0.5], [1.0], server_rate=0.5)
        assert not is_feasible_ordering(
            [0], [0.5], [1.0], server_rate=0.5, strict=True
        )

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            is_feasible_ordering([0, 0], [0.1, 0.1], [1.0, 1.0])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            is_feasible_ordering([0], [0.1, 0.2], [1.0])


class TestFindFeasibleOrdering:
    def test_orders_by_ratio(self):
        rates = [0.3, 0.1, 0.2]
        phis = [1.0, 1.0, 1.0]
        order = find_feasible_ordering(rates, phis)
        assert order == [1, 2, 0]

    def test_found_ordering_is_feasible(self):
        rates = [0.25, 0.2, 0.3, 0.15]
        phis = [0.5, 2.0, 1.0, 0.7]
        order = find_feasible_ordering(rates, phis)
        assert is_feasible_ordering(order, rates, phis)

    def test_raises_when_none_exists(self):
        # Total virtual rate above server rate: infeasible.
        with pytest.raises(FeasibleOrderingError):
            find_feasible_ordering([0.7, 0.7], [1.0, 1.0])

    def test_respects_server_rate(self):
        order = find_feasible_ordering(
            [2.0, 3.0], [1.0, 1.0], server_rate=10.0
        )
        assert is_feasible_ordering(
            order, [2.0, 3.0], [1.0, 1.0], server_rate=10.0
        )

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8),
        st.data(),
    )
    def test_exists_whenever_total_below_capacity(self, raw_rates, data):
        """PG's existence result: sum r_i <= r implies a feasible
        ordering exists (and the ratio-sorted one is feasible)."""
        phis = data.draw(
            st.lists(
                st.floats(0.1, 10.0),
                min_size=len(raw_rates),
                max_size=len(raw_rates),
            )
        )
        total = sum(raw_rates)
        rates = [0.999 * r / total for r in raw_rates]  # sum < 1
        order = find_feasible_ordering(rates, phis)
        assert is_feasible_ordering(order, rates, phis)

    def test_strict_existence_for_rhos(self):
        rhos = [0.3, 0.3, 0.3]
        phis = [1.0, 2.0, 3.0]
        order = find_feasible_ordering(rhos, phis, strict=True)
        assert is_feasible_ordering(order, rhos, phis, strict=True)


class TestFeasiblePartition:
    def test_single_class_when_all_below_guaranteed(self):
        # RPPS: phi = rho, all sessions in H_1.
        rhos = [0.2, 0.3, 0.4]
        partition = feasible_partition(rhos, rhos)
        assert partition.num_classes == 1
        assert partition.classes[0] == (0, 1, 2)

    def test_two_classes(self):
        # Session 1 has rho/phi = 0.6 > 1/2 = threshold, so it lands in
        # a later class; session 0 (0.1) is in H_1.
        rhos = [0.1, 0.6]
        phis = [1.0, 1.0]
        partition = feasible_partition(rhos, phis)
        assert partition.classes == ((0,), (1,))

    def test_definition_inequalities_hold(self):
        """Every session satisfies eq. (39): it is ineligible at its
        predecessor stage and eligible at its own stage."""
        rhos = [0.05, 0.1, 0.25, 0.3, 0.1]
        phis = [1.0, 0.3, 0.5, 0.4, 2.0]
        partition = feasible_partition(rhos, phis)
        server_rate = 1.0
        for level, members in enumerate(partition.classes):
            prefix = partition.prefix_sessions(level)
            consumed = sum(rhos[j] for j in prefix)
            remaining_phi = sum(
                phis[j]
                for j in range(len(rhos))
                if j not in set(prefix)
            )
            threshold = (server_rate - consumed) / remaining_phi
            for i in members:
                assert rhos[i] / phis[i] < threshold
        # ineligibility at the previous stage
        for level in range(1, partition.num_classes):
            prefix_prev = partition.prefix_sessions(level - 1)
            consumed = sum(rhos[j] for j in prefix_prev)
            remaining_phi = sum(
                phis[j]
                for j in range(len(rhos))
                if j not in set(prefix_prev)
            )
            threshold = (server_rate - consumed) / remaining_phi
            for i in partition.classes[level]:
                assert rhos[i] / phis[i] >= threshold

    def test_rejects_unstable(self):
        with pytest.raises(FeasibleOrderingError, match="stability"):
            feasible_partition([0.6, 0.5], [1.0, 1.0])

    def test_level_lookup(self):
        partition = feasible_partition([0.1, 0.6], [1.0, 1.0])
        assert partition.level(0) == 0
        assert partition.level(1) == 1

    def test_psi_definition(self):
        rhos = [0.1, 0.6]
        phis = [1.0, 1.0]
        partition = feasible_partition(rhos, phis)
        # session 1 is alone above H_1: psi = phi_1 / phi_1 = 1.
        assert partition.psi(1) == pytest.approx(1.0)
        # session 0 in H_1: psi = phi_0 / (phi_0 + phi_1).
        assert partition.psi(0) == pytest.approx(0.5)

    def test_guaranteed_rate(self):
        partition = feasible_partition([0.1, 0.6], [1.0, 3.0])
        assert partition.guaranteed_rate(0) == pytest.approx(0.25)
        assert partition.guaranteed_rate(1) == pytest.approx(0.75)

    def test_class_aggregates(self):
        rhos = [0.1, 0.15, 0.6]
        phis = [1.0, 1.0, 1.0]
        partition = feasible_partition(rhos, phis)
        assert partition.class_rho(0) == pytest.approx(0.25)
        assert partition.class_phi(0) == pytest.approx(2.0)

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=1, max_size=10),
        st.data(),
    )
    def test_partition_covers_all_sessions(self, raw_rhos, data):
        phis = data.draw(
            st.lists(
                st.floats(0.1, 10.0),
                min_size=len(raw_rhos),
                max_size=len(raw_rhos),
            )
        )
        total = sum(raw_rhos)
        rhos = [0.95 * r / total for r in raw_rhos]
        partition = feasible_partition(rhos, phis)
        seen = sorted(i for cls in partition.classes for i in cls)
        assert seen == list(range(len(rhos)))

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=10),
        st.data(),
    )
    def test_h1_has_rho_below_guaranteed_rate(self, raw_rhos, data):
        """The defining property: H_1 = sessions with rho_i < g_i."""
        phis = data.draw(
            st.lists(
                st.floats(0.1, 10.0),
                min_size=len(raw_rhos),
                max_size=len(raw_rhos),
            )
        )
        total = sum(raw_rhos)
        rhos = [0.9 * r / total for r in raw_rhos]
        partition = feasible_partition(rhos, phis)
        total_phi = sum(phis)
        for i in range(len(rhos)):
            g_i = phis[i] / total_phi
            if partition.level(i) == 0:
                assert rhos[i] < g_i
            else:
                assert rhos[i] >= g_i


class TestLemma9:
    """Lemma 9: inflating aggregate class rates by any epsilons that fit
    in the server slack preserves the class ordering's feasibility."""

    @given(
        st.lists(st.floats(0.02, 1.0), min_size=2, max_size=8),
        st.data(),
    )
    def test_inflated_class_rates_remain_feasible(self, raw_rhos, data):
        phis = data.draw(
            st.lists(
                st.floats(0.1, 10.0),
                min_size=len(raw_rhos),
                max_size=len(raw_rhos),
            )
        )
        total = sum(raw_rhos)
        rhos = [0.9 * r / total for r in raw_rhos]
        partition = feasible_partition(rhos, phis)
        num_classes = partition.num_classes
        slack = 1.0 - sum(rhos)
        eps_each = slack / (num_classes + 1)
        class_rates = [
            partition.class_rho(level) + eps_each
            for level in range(num_classes)
        ]
        class_phis = [
            partition.class_phi(level) for level in range(num_classes)
        ]
        assert is_feasible_ordering(
            list(range(num_classes)), class_rates, class_phis
        )
