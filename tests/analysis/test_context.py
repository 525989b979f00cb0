"""Unit tests for :class:`repro.analysis.context.AnalysisContext`.

Covers membership bookkeeping, the admission gate's decision cycle
(commit on accept, rollback on reject), the version-keyed theorem
caches, and the ``Scenario.analysis_context`` constructor.
"""

import pytest

from repro.analysis import (
    AnalysisContext,
    QoSTarget,
    SessionDeclaration,
    feasible_partition,
    theorem10_bounds,
    theorem11_family,
    theorem12_family,
)
from repro.core.ebb import EBB
from repro.errors import AdmissionError, ValidationError
from repro.scenario import Scenario
from repro.traffic.sources import ConstantBitRateTraffic

from tests.analysis.oracle import ReferenceContext


def _scenario(**overrides):
    defaults = dict(
        rate=1.0,
        phis=(1.0, 2.0),
        sources=(
            ConstantBitRateTraffic(rate=0.1),
            ConstantBitRateTraffic(rate=0.1),
        ),
        horizon=100,
        names=("a", "b"),
        ebbs=(_voice(), _video()),
    )
    defaults.update(overrides)
    return Scenario(**defaults)


def _voice():
    return EBB(rho=0.2, prefactor=1.0, decay_rate=1.74)


def _video():
    return EBB(rho=0.3, prefactor=1.2, decay_rate=1.1)


def _lax_target():
    return QoSTarget(d_max=30.0, epsilon=1e-3)


def _tight_target():
    return QoSTarget(d_max=2.0, epsilon=1e-9)


def _populated(production=True):
    context = (AnalysisContext if production else ReferenceContext)(1.0)
    context.add("a", _voice(), 1.0, _lax_target())
    context.add("b", _video(), 2.0, _lax_target())
    context.add("c", _voice(), 0.5, _lax_target())
    return context


class TestMembership:
    def test_add_tracks_insertion_order(self):
        context = _populated()
        assert context.names == ("a", "b", "c")
        assert len(context) == 3
        assert "a" in context and "zzz" not in context

    def test_total_rho_is_exact(self):
        context = _populated()
        assert context.total_rho == pytest.approx(0.7)

    def test_empty_name_rejected(self):
        context = AnalysisContext(1.0)
        with pytest.raises(ValidationError, match="non-empty"):
            context.add("", _voice(), 1.0)

    def test_duplicate_add_rejected(self):
        context = _populated()
        with pytest.raises(AdmissionError, match="already admitted"):
            context.add("a", _voice(), 1.0)

    def test_nonpositive_phi_rejected(self):
        context = AnalysisContext(1.0)
        with pytest.raises(ValidationError):
            context.add("a", _voice(), 0.0)

    def test_remove_returns_final_contract(self):
        context = _populated()
        declaration = context.remove("b")
        assert declaration == SessionDeclaration(
            "b", _video(), 2.0, _lax_target()
        )
        assert context.names == ("a", "c")

    def test_remove_unknown_raises(self):
        context = _populated()
        with pytest.raises(AdmissionError, match="unknown session 'x'"):
            context.remove("x")

    def test_update_returns_previous_contract(self):
        context = _populated()
        previous = context.update("a", phi=3.0)
        assert previous.phi == 1.0
        assert context.declaration("a").phi == 3.0
        assert context.declaration("a").ebb == _voice()

    def test_update_unknown_raises(self):
        context = _populated()
        with pytest.raises(AdmissionError, match="renegotiate unknown"):
            context.update("x", phi=1.0)

    def test_restore_rolls_back(self):
        context = _populated()
        previous = context.update("a", ebb=_video(), phi=5.0)
        context.restore(previous)
        assert context.declaration("a") == SessionDeclaration(
            "a", _voice(), 1.0, _lax_target()
        )

    @pytest.mark.parametrize("production", [True, False])
    @pytest.mark.parametrize("diagnostics", [True, False])
    @pytest.mark.parametrize("phi", [0.0, -1.0])
    def test_nonpositive_phi_update_rejected(
        self, production, diagnostics, phi
    ):
        """Renegotiating to a non-positive weight fails at the
        membership boundary; nothing downstream sees it (the reference
        keeps no version counter)."""
        context = _populated(production=production)
        context.diagnose("a")  # warm the caches
        before = context.declarations()
        version = getattr(context, "version", None)
        with pytest.raises(ValidationError, match="phi"):
            context.update("a", phi=phi)
        with pytest.raises(ValidationError, match="phi"):
            context.decide_update("a", phi=phi, diagnostics=diagnostics)
        with pytest.raises(ValidationError, match="phi"):
            context.update("a", ebb=_video(), phi=phi)
        assert context.declarations() == before
        assert getattr(context, "version", None) == version
        assert context.total_rho == pytest.approx(0.7)
        decision = context.decide_update(
            "a", phi=3.0, diagnostics=diagnostics
        )
        assert decision.accepted
        if diagnostics:
            assert decision.details["feasible_partition"]

    def test_declarations_in_insertion_order(self):
        context = _populated()
        assert [d.name for d in context.declarations()] == ["a", "b", "c"]

    def test_ratio_ordering_is_stable_sort(self):
        context = _populated()
        # ratios: a=0.2, b=0.15, c=0.4
        assert context.ratio_ordering() == ["b", "a", "c"]
        scratch = _populated(production=False)
        assert scratch.ratio_ordering() == ["b", "a", "c"]


class TestGate:
    def test_accepts_light_population(self):
        context = _populated()
        violated, reason, details = context.gate("a")
        assert violated is None
        assert "met" in reason
        assert details["num_sessions"] == 3
        assert details["offered_load"] == pytest.approx(0.7)

    def test_stability_violation(self):
        context = AnalysisContext(0.3)
        context.add("a", _voice(), 1.0, _lax_target())
        context.add("b", _voice(), 1.0, _lax_target())
        violated, reason, _ = context.gate("b")
        assert violated == "stability"
        assert "eq. 4" in reason

    def test_delay_bound_violation_details(self):
        context = AnalysisContext(1.0)
        context.add("a", _voice(), 1.0, _lax_target())
        context.add("b", _video(), 1.0, _tight_target())
        context.add("c", _video(), 1.0, _lax_target())
        violated, reason, details = context.gate("c")
        assert violated == "delay_bound"
        assert details["violating_session"] == "b"
        assert "session 'b'" in reason
        assert details["granted_rate"] < 1.0

    def test_gate_unknown_session_raises(self):
        context = _populated()
        with pytest.raises(AdmissionError):
            context.gate("ghost")

    def test_targetless_sessions_skip_delay_check(self):
        context = AnalysisContext(1.0)
        context.add("a", _voice(), 1.0)  # no target
        context.add("b", _voice(), 1.0, _lax_target())
        violated, _, _ = context.gate("b")
        assert violated is None


class TestDecisions:
    def test_decide_join_commits_on_accept(self):
        context = AnalysisContext(1.0)
        decision = context.decide_join("a", _voice(), 1.0, _lax_target())
        assert decision.accepted
        assert decision.action == "join"
        assert "a" in context

    def test_decide_join_rolls_back_on_reject(self):
        context = AnalysisContext(0.3)
        context.add("a", _voice(), 1.0, _lax_target())
        decision = context.decide_join("b", _voice(), 1.0, _lax_target())
        assert not decision.accepted
        assert "b" not in context
        assert context.names == ("a",)

    def test_decide_update_restores_on_reject(self):
        context = AnalysisContext(0.5)
        context.add("a", _voice(), 1.0, _lax_target())
        big = EBB(rho=0.6, prefactor=1.0, decay_rate=1.74)
        decision = context.decide_update("a", ebb=big)
        assert not decision.accepted
        assert context.declaration("a").ebb == _voice()

    def test_diagnostics_attached(self):
        context = AnalysisContext(1.0)
        decision = context.decide_join(
            "a", _voice(), 1.0, _lax_target(), diagnostics=True
        )
        assert decision.accepted
        assert decision.details["feasible_ordering"] == ["a"]
        assert decision.details["feasible_partition"] == [["a"]]
        assert decision.details["partition_level"] == 0
        assert decision.details["theorem11_probability"] is not None


class TestCaches:
    def test_partition_cached_between_calls(self):
        context = _populated()
        assert context.partition() is context.partition()

    def test_partition_matches_direct_computation(self):
        context = _populated()
        states = context.declarations()
        direct = feasible_partition(
            [d.ebb.rho for d in states],
            [d.phi for d in states],
            server_rate=1.0,
        )
        assert context.partition() == direct

    @pytest.mark.parametrize(
        "contracts, classes",
        [
            # the two tiny weights vanish when added after 1.0 (insertion
            # order) but not before it (ratio order): s0 sits one ulp
            # below the first threshold only in insertion order
            (
                [(1 - 2.0**-53, 1.0), (2.0**-56, 2.0**-53),
                 (2.0**-56, 2.0**-53)],
                ((0, 1, 2),),
            ),
            # likewise for the rates of H_1 (0.5 first, or the two tiny
            # rates first): s3 sits one ulp below the second threshold
            (
                [(0.5, 100.0), (2.0**-54, 1.0), (2.0**-54, 1.0),
                 (0.25 - 2.0**-55, 1.0), (0.2, 1.0)],
                ((0, 1, 2), (3, 4)),
            ),
        ],
    )
    def test_partition_sums_in_reference_order(self, contracts, classes):
        """Class thresholds depend on float summation order; the
        ratio-order derivation must sum as ``feasible_partition`` does
        (ascending insertion index), not in ratio order."""
        context = AnalysisContext(1.0)
        for k, (rho, phi) in enumerate(contracts):
            context.add(f"s{k}", EBB(rho, 1.0, 1.0), phi)
        assert context.ratio_ordering()[0] != "s0"
        direct = feasible_partition(
            [rho for rho, _ in contracts],
            [phi for _, phi in contracts],
            server_rate=1.0,
        )
        assert direct.classes == classes
        assert context.partition() == direct

    def test_target_only_update_keeps_partition_cache(self):
        context = _populated()
        partition = context.partition()
        context.update("a", target=_tight_target())
        assert context.partition() is partition

    def test_identical_redeclaration_is_a_noop(self):
        context = _populated()
        version = context.version
        context.update("a", ebb=_voice(), phi=1.0, target=_lax_target())
        assert context.version == version

    def test_geometry_change_invalidates_partition(self):
        context = _populated()
        partition = context.partition()
        context.update("a", phi=9.0)
        assert context.partition() is not partition

    def test_family_cached_per_version(self):
        context = _populated()
        family = context.theorem11_family("a")
        assert context.theorem11_family("a") is family
        context.update("a", phi=2.0)
        assert context.theorem11_family("a") is not family

    def test_bounds_match_stateless_wrappers(self):
        """Context results are bit-identical to the module functions."""
        context = _populated()
        config = context.gps_config()
        partition = context.partition()
        for k, name in enumerate(("a", "b", "c")):
            if partition.level(k) == 0:  # Theorem 10 needs H_1
                direct = theorem10_bounds(
                    config, k, discrete=True, partition=partition
                )
                cached = context.theorem10_bounds(name)
                assert cached.backlog.prefactor == direct.backlog.prefactor
                assert cached.delay.decay_rate == direct.delay.decay_rate
            f11 = theorem11_family(
                config, k, xi=1.0, partition=partition, discrete=True
            )
            assert context.theorem11_family(name).theta_max == f11.theta_max
            f12 = theorem12_family(
                config, k, xi=1.0, partition=partition, discrete=True
            )
            assert context.theorem12_family(name).theta_max == f12.theta_max


class TestScenarioConstructor:
    def test_scenario_analysis_context(self):
        context = _scenario().analysis_context()
        assert context.names == ("a", "b")
        assert context.declaration("b").phi == 2.0
        assert context.declaration("b").target is None
        assert context.discrete

    def test_scenario_targets_attached(self):
        target = _lax_target()
        context = _scenario().analysis_context([target, target])
        assert context.declaration("a").target == target

    def test_scenario_without_ebbs_rejected(self):
        with pytest.raises(ValidationError, match="no E.B.B."):
            _scenario(ebbs=None).analysis_context()

    def test_scenario_target_length_mismatch(self):
        with pytest.raises(ValidationError, match="2 sessions but 1"):
            _scenario().analysis_context([_lax_target()])
