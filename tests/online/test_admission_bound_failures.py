"""A Theorem 11 bound that fails numerically is served, not fatal.

The decision diagnostics evaluate the requester's Theorem 11 bound;
when that evaluation fails numerically, the record carries
``"theorem11_probability": null`` and serving goes on.  Two valid
requests used to escape as non-``ReproError`` exceptions instead:

* **slack rounding** — two joins on a rate-1.0 server put session
  ``i``'s ratio ``rho_i / phi_i`` a few ulps below its class
  threshold.  The margin ``psi_i (r - lower_rho) - rho_i`` is positive
  in exact arithmetic but rounds to ``0.0``, so the partition bound has
  no slack to split (this raised ``AssertionError``).  With a WAL the
  logged line crashed every replay, so the directory never recovered;
* **prefactor overflow** — a requester above ``H_1`` with a very long
  delay target pushes the optimal Chernoff parameter to where the
  lower classes' summed ``sigma_hat`` make ``exp(log Lambda)``
  overflow (this raised ``OverflowError``).

A third pair of valid joins crashed the diagnostics before any bound
was evaluated:

* **rounded-away weight** — weights more than ``2**53`` apart make the
  eq. (4) scan's running remaining weight round to ``0.0`` while a
  session is still unscanned (this raised ``ZeroDivisionError``).

Two more requests broke the decision cycle itself:

* **subnormal weight** — ``phi=5e-324`` makes ``rho / phi`` overflow to
  ``inf``, the partition construction stalled and raised out of the
  decision, and the uncommitted session stayed in the context, so every
  later join failed too.  Such a weight is now refused when the
  contract is declared, and a decision that raises for any reason
  leaves the population as it was;
* **unbuildable partition** — near saturation the exact aggregate rate
  (the gate's) stays below the server rate while the builtin sum the
  partition construction uses rounds up to it.  The diagnostics report
  ``"feasible_partition": null`` with the error, like an infeasible
  ordering.
"""

import io
import json

import pytest

from repro.analysis import AnalysisContext, theorem11_family
from repro.analysis.single_node import SessionBoundFamily
from repro.analysis.admission import QoSTarget
from repro.cli import main
from repro.core.ebb import EBB
from repro.core.gps import GPSConfig, Session
from repro.errors import NumericalError, ValidationError
from repro.online import OnlineService, StreamingGPSServer
from repro.online.admission import AdmissionController
from repro.online.durability import DurableOnlineService
from repro.online.events import Renegotiate, SessionJoin, event_to_record

from tests.analysis.oracle import ReferenceContext, reference_controller

RATE = 1.0
TARGET = QoSTarget(d_max=1e6, epsilon=0.5)
#: (name, rho, phi); prefactor 1 and decay rate 1 for both
JOINS = [
    ("j", 0.0009098350455589181, 13.316379139501686),
    ("i", 0.09016495444108198, 1.3196575844094505),
]


def _lines():
    return [
        json.dumps(
            event_to_record(
                SessionJoin(
                    time=0.0,
                    name=name,
                    phi=phi,
                    ebb=EBB(rho, 1.0, 1.0),
                    target=TARGET,
                )
            )
        )
        + "\n"
        for name, rho, phi in JOINS
    ]


def _decisions(text):
    records = [json.loads(line) for line in text.splitlines()]
    return [r["decision"] for r in records if r.get("kind") == "join"]


def _check_decisions(decisions):
    assert [d["session"] for d in decisions] == ["j", "i"]
    assert all(d["accepted"] for d in decisions)
    assert decisions[0]["details"]["theorem11_probability"] is not None
    assert decisions[1]["details"]["partition_level"] == 0
    assert decisions[1]["details"]["theorem11_probability"] is None


def test_theorem11_family_raises_numerical_error():
    config = GPSConfig(
        RATE,
        [Session(name, EBB(rho, 1.0, 1.0), phi) for name, rho, phi in JOINS],
    )
    with pytest.raises(NumericalError, match="no slack"):
        theorem11_family(config, 1, discrete=True)


def test_online_service_emits_both_decisions():
    out = io.StringIO()
    engine = StreamingGPSServer(
        rate=RATE, admission=AdmissionController(rate=RATE)
    )
    service = OnlineService(engine, sink=out)
    service.serve(iter(_lines()))
    assert service.errors == 0
    _check_decisions(_decisions(out.getvalue()))


def test_durable_service_recovers_after_crash(tmp_path):
    out = io.StringIO()
    service, _ = DurableOnlineService.open(
        tmp_path, mode="create", rate=RATE, admission=True, sink=out
    )
    service.ingest(_lines())
    _check_decisions(_decisions(out.getvalue()))
    service.wal.close()  # crash: no shutdown, no snapshot

    recovered, report = DurableOnlineService.open(
        tmp_path, mode="recover", sink=io.StringIO()
    )
    assert report.applied_seq == len(JOINS)
    admission = recovered.engine.admission
    assert admission.admitted_names == ("j", "i")
    recovered.shutdown()


def test_prefactor_overflow_raises_numerical_error():
    family = SessionBoundFamily(
        session_name="s",
        theta_max=1.0,
        guaranteed_rate=0.5,
        rho=0.1,
        log_prefactor=lambda theta: 1e4 * theta,
    )
    with pytest.raises(NumericalError, match="overflows"):
        family.backlog_bound(0.5)
    with pytest.raises(NumericalError, match="overflows"):
        family.output_ebb(0.5)


@pytest.mark.parametrize("production", [True, False])
def test_overflowing_theorem11_bound_is_reported_as_null(production):
    context = (AnalysisContext if production else ReferenceContext)(RATE)
    for k in range(200):
        context.add(f"s{k}", EBB(0.004, 2.0, 1.0), 1.0)
    decision = context.decide_join(
        "long",
        EBB(0.1, 1.0, 1.0),
        0.5,
        QoSTarget(d_max=1e9, epsilon=1e-3),
        diagnostics=True,
    )
    assert decision.accepted
    assert decision.details["partition_level"] == 1
    assert decision.details["theorem11_probability"] is None


def test_serve_admission_with_rounded_away_weight(tmp_path):
    target = QoSTarget(d_max=10.0, epsilon=1e-3)
    joins = [("a", 0.05, 1.0), ("b", 1e-21, 1e-20)]
    path = tmp_path / "joins.jsonl"
    path.write_text(
        "".join(
            json.dumps(
                event_to_record(
                    SessionJoin(
                        time=0.0,
                        name=name,
                        phi=phi,
                        ebb=EBB(rho, 1.0, 1.0),
                        target=target,
                    )
                )
            )
            + "\n"
            for name, rho, phi in joins
        )
    )
    out = tmp_path / "out.jsonl"
    code = main(
        ["serve", str(path), "--rate", "1.0", "--out", str(out), "--admission"]
    )
    assert code == 0
    decisions = _decisions(out.read_text())
    assert [d["session"] for d in decisions] == ["a", "b"]
    assert decisions[1]["details"]["feasible_ordering"] == ["a", "b"]


SUBNORMAL = 5e-324
LAX = QoSTarget(d_max=50.0, epsilon=0.01)


def _wire(event):
    return json.dumps(event_to_record(event)) + "\n"


def _join(name, phi):
    return _wire(
        SessionJoin(
            time=0.0, name=name, phi=phi, ebb=EBB(0.1, 1.0, 1.0), target=LAX
        )
    )


#: (lines with one bad line, the same lines without it)
SUBNORMAL_STREAMS = {
    "join": (
        [_join("a", 1.0), _join("b", SUBNORMAL), _join("c", 1.0),
         _join("d", 1.0)],
        [_join("a", 1.0), _join("c", 1.0), _join("d", 1.0)],
    ),
    "renegotiate": (
        [_join("a", 1.0), _join("b", 1.0),
         _wire(Renegotiate(time=0.0, name="a", phi=SUBNORMAL)),
         _join("c", 1.0)],
        [_join("a", 1.0), _join("b", 1.0), _join("c", 1.0)],
    ),
}


def _serve(tmp_path, lines):
    path = tmp_path / "in.jsonl"
    path.write_text("".join(lines))
    out = tmp_path / "out.jsonl"
    main(["serve", str(path), "--rate", "1.0", "--out", str(out),
          "--admission"])
    return [json.loads(line) for line in out.read_text().splitlines()]


@pytest.mark.parametrize("kind", sorted(SUBNORMAL_STREAMS))
def test_serve_subnormal_weight_is_one_error_record(tmp_path, kind):
    bad, clean = SUBNORMAL_STREAMS[kind]
    got = _serve(tmp_path, bad)
    want = _serve(tmp_path, clean)
    errors = [r for r in got if r["kind"] == "error"]
    assert len(errors) == 1
    assert errors[0]["error_type"] == "ValidationError"
    assert "overflows" in errors[0]["error"]
    assert [r["decision"] for r in got if "decision" in r] == [
        r["decision"] for r in want if "decision" in r
    ]
    assert got[-1]["summary"]["errors"] == 1
    assert got[-1]["summary"]["admission_accepted"] == (
        want[-1]["summary"]["admission_accepted"]
    )


@pytest.mark.parametrize("production", [True, False])
def test_controller_refuses_subnormal_weight(production):
    def controller():
        if production:
            return AdmissionController(rate=RATE)
        return reference_controller(RATE)

    bad, clean = controller(), controller()
    for c in (bad, clean):
        c.request_join("a", ebb=EBB(0.1, 1.0, 1.0), phi=1.0, target=LAX)
    with pytest.raises(ValidationError, match="overflows"):
        bad.request_join(
            "b", ebb=EBB(0.1, 1.0, 1.0), phi=SUBNORMAL, target=LAX
        )
    with pytest.raises(ValidationError, match="overflows"):
        bad.request_renegotiate("a", phi=SUBNORMAL)
    assert bad.admitted_names == ("a",)
    assert bad.declarations() == clean.declarations()
    assert bad.summary() == clean.summary()
    for name in ("b", "c"):
        d1, d2 = (
            c.request_join(name, ebb=EBB(0.1, 1.0, 1.0), phi=1.0, target=LAX)
            for c in (bad, clean)
        )
        assert json.dumps(d1.to_record()) == json.dumps(d2.to_record())


def test_raising_decision_leaves_population_unchanged(monkeypatch):
    def populated():
        context = AnalysisContext(RATE)
        context.add("a", EBB(0.1, 1.0, 1.0), 1.0, LAX)
        context.add("b", EBB(0.2, 1.0, 1.0), 2.0, LAX)
        return context

    context, clean = populated(), populated()

    def fail(self, name):
        raise RuntimeError("diagnostics failed")

    with monkeypatch.context() as patch:
        patch.setattr(AnalysisContext, "diagnose", fail)
        with pytest.raises(RuntimeError):
            context.decide_join(
                "c", EBB(0.1, 1.0, 1.0), 1.0, LAX, diagnostics=True
            )
        with pytest.raises(RuntimeError):
            context.decide_update("a", phi=3.0, diagnostics=True)
    assert context.declarations() == clean.declarations()
    assert context.ratio_ordering() == clean.ratio_ordering()
    assert context.export_state()["total_partials"] == (
        clean.export_state()["total_partials"]
    )
    d1, d2 = (
        c.decide_join("c", EBB(0.3, 1.0, 1.0), 0.5, LAX, diagnostics=True)
        for c in (context, clean)
    )
    assert json.dumps(d1.to_record()) == json.dumps(d2.to_record())


def test_unbuildable_partition_is_reported_as_data():
    """The exact rate sum is below 1.1; the builtin one rounds to 1.1."""
    joins = [("a", 0.7, 3.0), ("b", 0.3, 2.0), ("c", 0.05, 3.0)]
    records = []
    for context in (AnalysisContext(1.1), ReferenceContext(1.1)):
        for name, rho, phi in joins:
            context.add(name, EBB(rho, 1.0, 1.0), phi, LAX)
        decision = context.decide_join(
            "d", EBB(0.05, 1.0, 1.0), 3.0, LAX, diagnostics=True
        )
        assert context.names == ("a", "b", "c")
        records.append(json.dumps(decision.to_record()))
        details = decision.details
        assert details["feasible_ordering"] == ["c", "d", "b", "a"]
        assert details["feasible_partition"] is None
        assert details["feasible_partition_error"].startswith(
            "stability requires sum(rho) < server rate"
        )
    assert records[0] == records[1]
