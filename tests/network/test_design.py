"""Tests for GPS weight design."""

import pytest

from repro.analysis.admission import QoSTarget, meets_target
from repro.core.ebb import EBB
from repro.network.design import (
    rpps_weights,
    weights_for_delay_targets,
)


def sessions():
    return [EBB(0.2, 1.0, 1.74), EBB(0.25, 1.0, 1.62)]


class TestRppsWeights:
    def test_weights_are_rhos(self):
        assert rpps_weights(sessions()) == (0.2, 0.25)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            rpps_weights([])


class TestWeightsForDelayTargets:
    def test_design_meets_all_targets(self):
        targets = [QoSTarget(30.0, 1e-4), QoSTarget(20.0, 1e-3)]
        design = weights_for_delay_targets(
            sessions(), targets, server_rate=1.0
        )
        assert design.utilization <= 1.0
        for arrival, target, g in zip(
            sessions(), targets, design.guaranteed_rates
        ):
            assert g > arrival.rho
            assert meets_target(arrival, g, target)

    def test_guaranteed_rates_sum_to_server_rate(self):
        targets = [QoSTarget(30.0, 1e-4), QoSTarget(20.0, 1e-3)]
        design = weights_for_delay_targets(
            sessions(), targets, server_rate=1.0
        )
        assert sum(design.guaranteed_rates) == pytest.approx(1.0)

    def test_weights_proportional_to_required_rates(self):
        targets = [QoSTarget(30.0, 1e-4), QoSTarget(20.0, 1e-3)]
        design = weights_for_delay_targets(
            sessions(), targets, server_rate=1.0
        )
        ratio = [
            w / g
            for w, g in zip(design.weights, design.guaranteed_rates)
        ]
        assert ratio[0] == pytest.approx(ratio[1])

    def test_stricter_targets_raise_utilization(self):
        lax = weights_for_delay_targets(
            sessions(),
            [QoSTarget(40.0, 1e-2)] * 2,
            server_rate=1.0,
        )
        strict = weights_for_delay_targets(
            sessions(),
            [QoSTarget(25.0, 1e-5)] * 2,
            server_rate=1.0,
        )
        assert strict.utilization > lax.utilization

    def test_infeasible_targets_raise(self):
        with pytest.raises(ValueError, match="infeasible"):
            weights_for_delay_targets(
                sessions(),
                [QoSTarget(0.5, 1e-9)] * 2,
                server_rate=0.5,
            )

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="one target"):
            weights_for_delay_targets(
                sessions(), [QoSTarget(10.0, 0.1)], 1.0
            )
