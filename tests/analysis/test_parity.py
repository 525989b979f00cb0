"""Byte-parity of the incremental admission gate.

Two independent contracts, fuzzed over randomized event sequences:

* the ``O(log N)`` incremental context produces decisions (records,
  reasons, diagnostics — the full ``to_record()`` payload)
  byte-identical to the from-scratch reference in
  ``tests/analysis/oracle.py``;
* every decision's accept/reject flag agrees with the offline
  procedure :func:`repro.analysis.admission.admissible` evaluated on
  the candidate population.
"""

import json

import numpy as np
import pytest

from repro.analysis import AnalysisContext, QoSTarget, admissible
from repro.analysis.feasible import is_feasible_ordering
from repro.core.ebb import EBB
from repro.online.admission import AdmissionController

from tests.analysis.oracle import ReferenceContext, reference_controller


def _bytes(record):
    """A record as the JSONL sink writes it: equal bytes, not just
    equal values (``-0.0``, NaN)."""
    return json.dumps(record)


def _random_request(rng):
    ebb = EBB(
        rho=float(rng.uniform(0.02, 0.12)),
        prefactor=float(rng.uniform(0.5, 2.0)),
        decay_rate=float(rng.uniform(0.3, 2.0)),
    )
    target = QoSTarget(
        d_max=float(rng.uniform(3.0, 25.0)),
        epsilon=float(10.0 ** -rng.uniform(1.0, 5.0)),
    )
    phi = float(rng.uniform(0.5, 2.0))
    return ebb, phi, target


def _drive(rng, fast, slow, num_events=120):
    """Apply one random event stream to both contexts, asserting
    byte-identical decisions after every event."""
    admitted: list[str] = []
    next_id = 0
    outcomes = set()
    for _ in range(num_events):
        op = rng.uniform()
        diagnostics = bool(rng.uniform() < 0.3)
        if admitted and op < 0.2:
            name = admitted.pop(int(rng.integers(len(admitted))))
            fast.remove(name)
            slow.remove(name)
        elif admitted and op < 0.45:
            name = admitted[int(rng.integers(len(admitted)))]
            ebb, phi, target = _random_request(rng)
            d1 = fast.decide_update(
                name, ebb=ebb, phi=phi, target=target,
                diagnostics=diagnostics,
            )
            d2 = slow.decide_update(
                name, ebb=ebb, phi=phi, target=target,
                diagnostics=diagnostics,
            )
            assert _bytes(d1.to_record()) == _bytes(d2.to_record())
            outcomes.add(d1.accepted)
        else:
            name = f"s{next_id}"
            next_id += 1
            ebb, phi, target = _random_request(rng)
            d1 = fast.decide_join(
                name, ebb, phi, target, diagnostics=diagnostics
            )
            d2 = slow.decide_join(
                name, ebb, phi, target, diagnostics=diagnostics
            )
            assert _bytes(d1.to_record()) == _bytes(d2.to_record())
            outcomes.add(d1.accepted)
            if d1.accepted:
                admitted.append(name)
        assert fast.total_rho == slow.total_rho
        assert fast.names == slow.names
        assert fast.ratio_ordering() == slow.ratio_ordering()
    return outcomes


class TestIncrementalParity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 42, 1234])
    def test_decisions_byte_identical(self, seed):
        rng = np.random.default_rng(seed)
        fast = AnalysisContext(1.0)
        slow = ReferenceContext(1.0)
        outcomes = _drive(rng, fast, slow)
        # the stream must exercise both gate outcomes, not vacuously pass
        assert outcomes == {True, False}, seed


class TestAgreementWithOffline:
    @pytest.mark.parametrize("production", [True, False])
    def test_joins_match_admissible(self, production):
        rng = np.random.default_rng(7)
        context = (AnalysisContext if production else ReferenceContext)(1.0)
        admitted: list[tuple[EBB, QoSTarget]] = []
        outcomes = set()
        for k in range(40):
            ebb, phi, target = _random_request(rng)
            candidate = admitted + [(ebb, target)]
            expected = admissible(
                [e for e, _ in candidate],
                [t for _, t in candidate],
                server_rate=1.0,
            )
            decision = context.decide_join(f"s{k}", ebb, 1.0, target)
            assert decision.accepted == expected, k
            if decision.accepted:
                admitted.append((ebb, target))
            outcomes.add(decision.accepted)
        assert outcomes == {True, False}


class TestControllerParity:
    def test_controller_modes_agree(self):
        """The public controller decides as the reference does."""
        rng = np.random.default_rng(3)
        fast = AdmissionController(rate=1.0)
        slow = reference_controller(1.0)
        outcomes = set()
        names: list[str] = []
        for k in range(60):
            ebb, phi, target = _random_request(rng)
            d1 = fast.request_join(f"s{k}", ebb=ebb, phi=phi, target=target)
            d2 = slow.request_join(f"s{k}", ebb=ebb, phi=phi, target=target)
            assert _bytes(d1.to_record()) == _bytes(d2.to_record())
            outcomes.add(d1.accepted)
            if d1.accepted:
                names.append(f"s{k}")
            if names and rng.uniform() < 0.25:
                gone = names.pop(int(rng.integers(len(names))))
                fast.leave(gone)
                slow.leave(gone)
        assert fast.summary() == slow.summary()
        assert outcomes == {True, False}


class TestDiagnosticsAtScale:
    """Diagnostics read off the maintained columns equal the
    from-scratch context's at a serving-sized population.

    2,000 sessions from four upper rates and four weights (half of the
    rates exact, so ratios tie across sessions) at 97% load form four
    partition classes; the churn renegotiates weights down to 0.1 and
    joins contracts that land above ``H_1``, so requesters sit at every
    level.
    """

    RATES = (1e-4, 2e-4, 4e-4, 8e-4)
    WEIGHTS = (0.25, 0.5, 1.0, 2.0)
    TARGET = QoSTarget(d_max=1e6, epsilon=1e-3)
    TIGHT = QoSTarget(d_max=1.0, epsilon=1e-3)

    def _contract(self, rng):
        rho = self.RATES[int(rng.integers(len(self.RATES)))]
        if rng.uniform() < 0.5:
            rho *= float(rng.uniform(0.9, 1.1))
        ebb = EBB(
            rho,
            float(rng.choice([0.5, 1.0, 2.0])),
            float(rng.choice([1.0, 2.0, 4.0])),
        )
        return ebb, self.WEIGHTS[int(rng.integers(len(self.WEIGHTS)))]

    def test_churn_diagnostics_match_reference(self):
        rng = np.random.default_rng(7)
        population = [self._contract(rng) for _ in range(2_000)]
        rate = sum(ebb.rho for ebb, _ in population) / 0.97
        fast = AnalysisContext(rate)
        slow = ReferenceContext(rate)
        for k, (ebb, phi) in enumerate(population):
            fast.add(f"s{k}", ebb, phi, self.TARGET)
            slow.add(f"s{k}", ebb, phi, self.TARGET)
        assert fast.partition().num_classes >= 3
        ratios = [ebb.rho / phi for ebb, phi in population]
        assert len(set(ratios)) < len(ratios)

        names = list(fast.names)
        levels = set()
        outcomes = set()
        for step in range(60):
            if step % 3 == 2:
                gone = names.pop(int(rng.integers(len(names))))
                fast.remove(gone)
                slow.remove(gone)
                continue
            if step % 3 == 0:
                ebb, phi = self._contract(rng)
                target = self.TIGHT if step % 9 == 0 else self.TARGET
                name = f"s{2_000 + step}"
                d1 = fast.decide_join(name, ebb, phi, target, diagnostics=True)
                d2 = slow.decide_join(name, ebb, phi, target, diagnostics=True)
                if d1.accepted:
                    names.append(name)
            else:
                name = names[int(rng.integers(len(names)))]
                phi = float(rng.choice([0.1, 0.25, 0.5, 1.0, 2.0]))
                d1 = fast.decide_update(name, phi=phi, diagnostics=True)
                d2 = slow.decide_update(name, phi=phi, diagnostics=True)
            assert _bytes(d1.to_record()) == _bytes(d2.to_record())
            levels.add(d1.details["partition_level"])
            outcomes.add(d1.accepted)
            if name in fast:  # a refused join never enters
                assert _bytes(fast.diagnose(name)) == _bytes(slow.diagnose(name))
        assert fast.partition() == slow.partition()
        assert outcomes == {True, False}
        assert max(levels) >= 2, levels


class TestRoundedRemainingWeight:
    """Weights more than 2**53 apart: the eq. (4) scan's running
    remaining weight rounds to 0.0 while sessions are still unscanned,
    and both scans restart it from the unscanned weights' sum."""

    TARGET = QoSTarget(d_max=10.0, epsilon=1e-3)
    JOINS = [
        ("a", EBB(0.05, 1.0, 1.0), 1.0),
        ("b", EBB(1e-21, 1.0, 1.0), 1e-20),
    ]

    def test_is_feasible_ordering_survives(self):
        assert is_feasible_ordering(
            [0, 1], [0.05, 1e-21], [1.0, 1e-20], strict=True
        )
        assert not is_feasible_ordering(
            [0, 1], [0.05, 1.0], [1.0, 1e-20], strict=True
        )

    @pytest.mark.parametrize("extra", [0, 3])
    def test_two_joins_yield_matching_decisions(self, extra):
        fast = AnalysisContext(1.0)
        slow = ReferenceContext(1.0)
        joins = self.JOINS + [
            (f"t{k}", EBB(1e-22 * (k + 1), 1.0, 1.0), 1e-20 * 2.0**-k)
            for k in range(extra)
        ]
        records = []
        for name, ebb, phi in joins:
            d1 = fast.decide_join(
                name, ebb, phi, self.TARGET, diagnostics=True
            )
            d2 = slow.decide_join(
                name, ebb, phi, self.TARGET, diagnostics=True
            )
            assert _bytes(d1.to_record()) == _bytes(d2.to_record())
            records.append(d1.to_record())
        assert len(records) == len(joins)
        assert records[0]["accepted"]
        assert records[1]["details"]["feasible_ordering"] == ["a", "b"]
