"""Tests combining theorem families across orderings and theorems.

The bound algebra (MinTailBound / best_bound) composes with the
theorem families: every feasible ordering yields a valid Theorem 7
bound, so their pointwise minimum is valid too — and the feasible
partition bound should be competitive with the best of them (it
distils the ordering freedom that matters).
"""

import pytest

from repro.core.bounds import MinTailBound, best_bound
from repro.core.decomposition import (
    Decomposition,
    decompose,
    uniform_epsilons,
)
from repro.core.ebb import EBB
from repro.analysis.feasible import all_feasible_orderings
from repro.core.gps import GPSConfig, Session
from repro.analysis.single_node import theorem7_family, theorem11_family


def make_config() -> GPSConfig:
    return GPSConfig(
        1.0,
        [
            Session("a", EBB(0.2, 1.0, 2.0), 1.0),
            Session("b", EBB(0.3, 1.5, 1.5), 2.0),
            Session("c", EBB(0.25, 0.8, 3.0), 1.0),
        ],
    )


def small_decomposition(config):
    """A decomposition with deliberately small virtual rates, so
    several orderings are feasible (larger rates pin the order)."""
    return decompose(
        config, epsilons=uniform_epsilons(config, share=0.3)
    )


def families_over_orderings(config, session_index, q):
    """Theorem 7 bounds at ``q`` for every feasible ordering."""
    base = small_decomposition(config)
    rates = base.rates
    bounds = []
    for ordering in all_feasible_orderings(
        list(rates), list(config.phis)
    ):
        decomposition = Decomposition(
            config=config,
            rates=rates,
            ordering=tuple(ordering),
        )
        family = theorem7_family(decomposition, session_index)
        bounds.append(family.optimized_backlog(q))
    return bounds


class TestOrderingFreedom:
    def test_multiple_orderings_exist(self):
        config = make_config()
        base = small_decomposition(config)
        orderings = all_feasible_orderings(
            list(base.rates), list(config.phis)
        )
        assert len(orderings) >= 2

    def test_min_over_orderings_is_valid_composition(self):
        config = make_config()
        q = 10.0
        bounds = families_over_orderings(config, 0, q)
        combined = MinTailBound(tuple(bounds))
        assert combined.evaluate(q) == min(
            b.evaluate(q) for b in bounds
        )

    def test_best_bound_picks_the_minimum(self):
        config = make_config()
        q = 10.0
        bounds = families_over_orderings(config, 0, q)
        chosen = best_bound(bounds, at=q)
        assert chosen.evaluate(q) == pytest.approx(
            min(b.evaluate(q) for b in bounds)
        )

    def test_partition_bound_competitive_for_h1_sessions(self):
        """For H_1 sessions Theorem 11 beats (or matches) the best
        Theorem 7 bound over all orderings at large backlogs — the
        partition concentrates the epsilon budget optimally.

        (For *higher* classes this is genuinely not always true: with
        small virtual rates an ordering can place the session first
        and unlock its full own-alpha decay, which the partition's
        theta ceiling — capped by the lower classes' alphas — cannot
        reach.  The composed pointwise minimum, tested below, is then
        the right bound to use.)
        """
        config = make_config()
        partition = config.partition()
        q = 25.0
        for session_index in range(3):
            if partition.level(session_index) != 0:
                continue
            ordering_bounds = families_over_orderings(
                config, session_index, q
            )
            best_ordering = min(
                b.evaluate(q) for b in ordering_bounds
            )
            partition_bound = theorem11_family(
                config, session_index
            ).optimized_backlog(q).evaluate(q)
            assert partition_bound <= best_ordering * 1.01

    def test_composed_minimum_never_worse_than_either(self):
        config = make_config()
        q = 25.0
        for session_index in range(3):
            ordering_bounds = families_over_orderings(
                config, session_index, q
            )
            partition_bound = theorem11_family(
                config, session_index
            ).optimized_backlog(q)
            combined = MinTailBound(
                tuple(ordering_bounds) + (partition_bound,)
            )
            assert combined.evaluate(q) <= partition_bound.evaluate(q)
            assert combined.evaluate(q) <= min(
                b.evaluate(q) for b in ordering_bounds
            )


class TestEarlierPositionTightens:
    def test_bound_depends_on_position(self):
        """A session placed earlier in the ordering gets a bound at
        least as tight (fewer predecessor terms)."""
        config = make_config()
        base = small_decomposition(config)
        orderings = all_feasible_orderings(
            list(base.rates), list(config.phis)
        )
        session = 0
        q = 15.0
        by_position = {}
        for ordering in orderings:
            decomposition = Decomposition(
                config=config,
                rates=base.rates,
                ordering=tuple(ordering),
            )
            value = theorem7_family(
                decomposition, session
            ).optimized_backlog(q).evaluate(q)
            position = ordering.index(session)
            by_position.setdefault(position, []).append(value)
        positions = sorted(by_position)
        if len(positions) >= 2:
            first = min(by_position[positions[0]])
            last = min(by_position[positions[-1]])
            assert first <= last * (1.0 + 1e-9)
