"""The live admission controller.

The load-bearing property: on any state, the controller's
accept/reject gate must agree with the offline procedure
:func:`repro.analysis.admission.admissible` evaluated on the same
candidate population — asserted below over randomized request
sequences that exercise both outcomes.
"""

import json

import numpy as np
import pytest

from repro.analysis.admission import QoSTarget, admissible
from repro.core.ebb import EBB
from repro.errors import AdmissionError, ValidationError
from repro.online.admission import AdmissionController, AdmissionDecision
from repro.online.engine import StreamingGPSServer
from repro.online.events import SessionJoin


def _voice():
    return EBB(rho=0.2, prefactor=1.0, decay_rate=1.74)


def _lax_target():
    return QoSTarget(d_max=30.0, epsilon=1e-3)


def _random_request(rng):
    ebb = EBB(
        rho=float(rng.uniform(0.05, 0.3)),
        prefactor=float(rng.uniform(0.5, 2.0)),
        decay_rate=float(rng.uniform(0.3, 2.0)),
    )
    target = QoSTarget(
        d_max=float(rng.uniform(2.0, 30.0)),
        epsilon=float(10.0 ** -rng.uniform(1.0, 6.0)),
    )
    return ebb, target


class TestConsistencyWithOffline:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_join_decisions_match_admissible(self, seed):
        """Every join decision equals admissible() on the candidate set."""
        rng = np.random.default_rng(seed)
        controller = AdmissionController(rate=1.0, diagnostics=False)
        admitted: list[tuple[EBB, QoSTarget]] = []
        outcomes = set()
        for k in range(12):
            ebb, target = _random_request(rng)
            candidate = admitted + [(ebb, target)]
            expected = admissible(
                [e for e, _ in candidate],
                [t for _, t in candidate],
                server_rate=1.0,
            )
            decision = controller.request_join(
                f"s{k}", ebb=ebb, phi=1.0, target=target
            )
            assert decision.accepted == expected, (seed, k)
            if decision.accepted:
                admitted.append((ebb, target))
            outcomes.add(decision.accepted)
        assert controller.num_admitted == len(admitted)
        # The sequences must exercise the gate, not vacuously pass.
        assert outcomes == {True, False}, seed

    def test_renegotiate_decisions_match_admissible(self):
        rng = np.random.default_rng(42)
        controller = AdmissionController(rate=1.0, diagnostics=False)
        names = []
        for k in range(3):
            decision = controller.request_join(
                f"s{k}", ebb=_voice(), phi=1.0, target=_lax_target()
            )
            assert decision.accepted
            names.append(f"s{k}")
        for _ in range(8):
            name = names[int(rng.integers(len(names)))]
            ebb, target = _random_request(rng)
            current = dict(
                (n, (e, t))
                for n, e, _, t in controller.declarations()
            )
            current[name] = (ebb, target)
            expected = admissible(
                [e for e, _ in current.values()],
                [t for _, t in current.values()],
                server_rate=1.0,
            )
            decision = controller.request_renegotiate(
                name, ebb=ebb, target=target
            )
            assert decision.accepted == expected


class TestDecisions:
    def test_missing_declaration_rejected(self):
        controller = AdmissionController(rate=1.0)
        decision = controller.request_join(
            "a", ebb=None, phi=1.0, target=_lax_target()
        )
        assert not decision.accepted
        assert decision.violated == "missing_declaration"
        assert "ebb" in decision.reason
        assert controller.num_admitted == 0

    def test_stability_rejection(self):
        controller = AdmissionController(rate=0.3)
        first = controller.request_join(
            "a", ebb=_voice(), phi=1.0, target=_lax_target()
        )
        assert first.accepted
        second = controller.request_join(
            "b", ebb=_voice(), phi=1.0, target=_lax_target()
        )
        assert not second.accepted
        assert second.violated == "stability"
        assert second.details["total_rho"] == pytest.approx(0.4)

    def test_delay_bound_rejection_details(self):
        controller = AdmissionController(rate=1.0)
        decision = controller.request_join(
            "tight",
            ebb=EBB(rho=0.2, prefactor=1.0, decay_rate=1.74),
            phi=1.0,
            target=QoSTarget(d_max=0.5, epsilon=1e-9),
        )
        # The single session gets the full rate g = r; at this epsilon
        # the Theorem 10 bound cannot hold at d_max = 0.5.
        assert not decision.accepted
        assert decision.violated == "delay_bound"
        assert decision.details["violating_session"] == "tight"
        assert decision.details["granted_rate"] == pytest.approx(1.0)

    def test_rejected_renegotiation_keeps_old_contract(self):
        controller = AdmissionController(rate=1.0)
        controller.request_join(
            "a", ebb=_voice(), phi=1.0, target=_lax_target()
        )
        before = controller.declarations()
        decision = controller.request_renegotiate(
            "a", target=QoSTarget(d_max=0.5, epsilon=1e-9)
        )
        assert not decision.accepted
        assert controller.declarations() == before

    def test_leave_frees_capacity(self):
        controller = AdmissionController(rate=0.3, diagnostics=False)
        assert controller.request_join(
            "a", ebb=_voice(), phi=1.0, target=_lax_target()
        ).accepted
        rejected = controller.request_join(
            "b", ebb=_voice(), phi=1.0, target=_lax_target()
        )
        assert not rejected.accepted  # 0.2 + 0.2 >= 0.3: unstable
        controller.leave("a")
        assert controller.request_join(
            "b", ebb=_voice(), phi=1.0, target=_lax_target()
        ).accepted

    def test_duplicate_join_raises(self):
        controller = AdmissionController(rate=1.0)
        controller.request_join(
            "a", ebb=_voice(), phi=1.0, target=_lax_target()
        )
        with pytest.raises(AdmissionError):
            controller.request_join(
                "a", ebb=_voice(), phi=1.0, target=_lax_target()
            )

    def test_unknown_session_operations_raise(self):
        controller = AdmissionController(rate=1.0)
        with pytest.raises(AdmissionError):
            controller.request_renegotiate("ghost", phi=2.0)
        with pytest.raises(AdmissionError):
            controller.leave("ghost")

    def test_raise_if_rejected(self):
        controller = AdmissionController(rate=1.0)
        accepted = controller.request_join(
            "a", ebb=_voice(), phi=1.0, target=_lax_target()
        )
        assert accepted.raise_if_rejected() is accepted
        rejected = controller.request_join(
            "b", ebb=None, phi=1.0, target=None
        )
        with pytest.raises(AdmissionError) as excinfo:
            rejected.raise_if_rejected()
        assert excinfo.value.decision is rejected

    def test_decision_record_is_jsonable(self):
        controller = AdmissionController(rate=1.0)
        decision = controller.request_join(
            "a", ebb=_voice(), phi=1.0, target=_lax_target()
        )
        record = decision.to_record()
        json.dumps(record)
        assert record["accepted"] is True
        assert record["action"] == "join"
        assert isinstance(decision, AdmissionDecision)


class TestDiagnostics:
    def test_accepted_join_carries_diagnostics(self):
        controller = AdmissionController(rate=1.0)
        controller.request_join(
            "a", ebb=_voice(), phi=2.0, target=_lax_target()
        )
        decision = controller.request_join(
            "b",
            ebb=EBB(rho=0.25, prefactor=1.0, decay_rate=1.62),
            phi=1.0,
            target=_lax_target(),
        )
        assert decision.accepted
        details = decision.details
        assert set(details["feasible_ordering"]) == {"a", "b"}
        assert sorted(
            name
            for members in details["feasible_partition"]
            for name in members
        ) == ["a", "b"]
        assert details["partition_level"] >= 0
        theorem11 = details["theorem11_probability"]
        assert theorem11 is None or 0.0 <= theorem11 <= 1.0

    def test_diagnostics_can_be_disabled(self):
        controller = AdmissionController(rate=1.0, diagnostics=False)
        decision = controller.request_join(
            "a", ebb=_voice(), phi=1.0, target=_lax_target()
        )
        assert "feasible_ordering" not in decision.details

    def test_summary_counts(self):
        controller = AdmissionController(rate=1.0)
        controller.request_join(
            "a", ebb=_voice(), phi=1.0, target=_lax_target()
        )
        controller.request_join("b", ebb=None, phi=1.0, target=None)
        summary = controller.summary()
        assert summary["kind"] == "admission_controller"
        assert summary["decisions"] == 2
        assert summary["accepted"] == 1
        assert summary["rejected"] == 1
        assert summary["num_admitted"] == 1
        json.dumps(summary)


class TestEngineIntegration:
    def test_rejected_join_never_enters_registry(self):
        engine = StreamingGPSServer(
            rate=1.0, admission=AdmissionController(rate=1.0)
        )
        record = engine.process(
            SessionJoin(time=0.0, name="a", phi=1.0)  # no declaration
        )
        assert record["accepted"] is False
        assert engine.num_active == 0
        result = engine.result()
        assert result.rejected == 1
        assert result.decisions[0]["violated"] == "missing_declaration"

    def test_accepted_join_enters_registry_and_controller(self):
        admission = AdmissionController(rate=1.0)
        engine = StreamingGPSServer(rate=1.0, admission=admission)
        record = engine.process(
            SessionJoin(
                time=0.0,
                name="a",
                phi=1.0,
                ebb=_voice(),
                target=_lax_target(),
            )
        )
        assert record["accepted"] is True
        assert engine.active_sessions == ("a",)
        assert admission.admitted_names == ("a",)

    def test_rate_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="does not match"):
            StreamingGPSServer(
                rate=1.0, admission=AdmissionController(rate=2.0)
            )

    def test_bad_inputs(self):
        controller = AdmissionController(rate=1.0)
        with pytest.raises(ValidationError):
            controller.request_join(
                "", ebb=_voice(), phi=1.0, target=_lax_target()
            )
        with pytest.raises(ValidationError):
            controller.request_join(
                "a", ebb=_voice(), phi=0.0, target=_lax_target()
            )
        with pytest.raises(ValidationError):
            AdmissionController(rate=0.0)
