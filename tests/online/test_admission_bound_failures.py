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
"""

import io
import json

import pytest

from repro.analysis import AnalysisContext, theorem11_family
from repro.analysis.single_node import SessionBoundFamily
from repro.analysis.admission import QoSTarget
from repro.core.ebb import EBB
from repro.core.gps import GPSConfig, Session
from repro.errors import NumericalError
from repro.online import OnlineService, StreamingGPSServer
from repro.online.admission import AdmissionController
from repro.online.durability import DurableOnlineService
from repro.online.events import SessionJoin, event_to_record

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


@pytest.mark.parametrize("incremental", [True, False])
def test_overflowing_theorem11_bound_is_reported_as_null(incremental):
    context = AnalysisContext(RATE, incremental=incremental)
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
