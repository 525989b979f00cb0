"""Acceptance sweep: every exception from ``repro.*`` public APIs is typed.

Feeds invalid inputs to public constructors and functions across every
subpackage and asserts the raised exception is a
:class:`repro.errors.ReproError` subclass — the contract documented in
``docs/ROBUSTNESS.md``.  Also pins the hierarchy shape and the
backward-compatibility guarantees (validation errors remain
``ValueError``s).
"""

import numpy as np
import pytest

from repro import (
    EBB,
    ExponentialTailBound,
    GPSConfig,
    Session,
    feasible_partition,
    find_feasible_ordering,
    rpps_config,
)
from repro.errors import (
    AdmissionError,
    CheckpointError,
    FeasibilityError,
    NumericalError,
    ReproError,
    SimulationFaultError,
    ValidationError,
)
from repro.experiments.supervisor import SupervisedRunner, trial_seed
from repro.faults import FaultSchedule, LinkFault, RateFault
from repro.markov.chain import DTMC
from repro.markov.onoff import OnOffSource
from repro.network import NetworkNode
from repro.online.engine import StreamingGPSServer
from repro.online.events import CapacityEvent
from repro.sim.batch import BatchFluidGPSServer
from repro.sim.fluid import FluidGPSServer
from repro.traffic.leaky_bucket import LeakyBucketShaper
from repro.traffic.sources import ConstantBitRateTraffic, OnOffTraffic
from repro.utils.numeric import (
    bisect_root,
    expm1_neg,
    geometric_tail_factor,
    log1mexp,
    minimize_scalar_bounded,
)


class TestHierarchyShape:
    def test_all_leaves_are_repro_errors(self):
        for leaf in (
            ValidationError,
            FeasibilityError,
            NumericalError,
            SimulationFaultError,
            CheckpointError,
            AdmissionError,
        ):
            assert issubclass(leaf, ReproError)

    def test_backward_compatible_builtin_bases(self):
        # Callers written against the pre-hierarchy API caught builtin
        # types; those catches must keep working.
        assert issubclass(ValidationError, ValueError)
        assert issubclass(FeasibilityError, ValueError)
        assert issubclass(NumericalError, ValueError)
        assert issubclass(NumericalError, ArithmeticError)
        assert issubclass(SimulationFaultError, RuntimeError)
        assert issubclass(CheckpointError, RuntimeError)

    def test_feasibility_is_a_validation_error(self):
        assert issubclass(FeasibilityError, ValidationError)

    def test_repro_error_is_catchable_base(self):
        with pytest.raises(ReproError):
            raise CheckpointError("x")


def _ebb():
    return EBB(rho=0.3, prefactor=1.0, decay_rate=0.5)


#: (label, thunk) pairs — every thunk feeds invalid input to a public
#: API and must raise a typed error.
INVALID_CALLS = [
    # core ---------------------------------------------------------------
    ("EBB negative rho", lambda: EBB(-1.0, 1.0, 1.0)),
    ("EBB zero decay", lambda: EBB(1.0, 1.0, 0.0)),
    ("tail bound bad decay", lambda: ExponentialTailBound(1.0, -2.0)),
    ("session empty name", lambda: Session("", _ebb(), 1.0)),
    ("session bad phi", lambda: Session("s", _ebb(), 0.0)),
    ("gps config bad rate", lambda: GPSConfig(-1.0, [Session("s", _ebb(), 1.0)])),
    ("gps config no sessions", lambda: GPSConfig(1.0, [])),
    (
        "gps config unstable",
        lambda: GPSConfig(0.25, [Session("s", _ebb(), 1.0)]),
    ),
    (
        "gps duplicate names",
        lambda: GPSConfig(
            2.0, [Session("s", _ebb(), 1.0), Session("s", _ebb(), 1.0)]
        ),
    ),
    ("rpps unstable", lambda: rpps_config(0.1, [("a", _ebb())])),
    (
        "infeasible ordering",
        lambda: find_feasible_ordering([2.0], [1.0], server_rate=1.0),
    ),
    (
        "unstable partition",
        lambda: feasible_partition([0.6, 0.6], [1.0, 1.0], server_rate=1.0),
    ),
    ("ordering length mismatch", lambda: find_feasible_ordering([0.1], [1.0, 2.0])),
    # utils --------------------------------------------------------------
    ("log1mexp domain", lambda: log1mexp(-1.0)),
    ("expm1_neg domain", lambda: expm1_neg(-1.0)),
    ("tail factor zero", lambda: geometric_tail_factor(0.0)),
    ("tail factor underflow", lambda: geometric_tail_factor(5e-324)),
    ("bisect no bracket", lambda: bisect_root(lambda x: x * x + 1, -1, 1)),
    (
        "minimize bad interval",
        lambda: minimize_scalar_bounded(lambda x: x, 2.0, 1.0),
    ),
    # markov -------------------------------------------------------------
    ("onoff p zero", lambda: OnOffSource(p=0.0, q=0.5, peak_rate=1.0)),
    ("onoff bad probability", lambda: OnOffSource(p=1.5, q=0.5, peak_rate=1.0)),
    ("dtmc not square", lambda: DTMC(np.ones((2, 3)))),
    ("dtmc not stochastic", lambda: DTMC(np.array([[0.5, 0.1], [0.2, 0.8]]))),
    # traffic ------------------------------------------------------------
    ("shaper bad rate", lambda: LeakyBucketShaper(rate=-1.0, bucket_size=0.0)),
    ("cbr bad rate", lambda: ConstantBitRateTraffic(rate=-0.5)),
    (
        "generator bad slots",
        lambda: OnOffTraffic(
            OnOffSource(p=0.5, q=0.5, peak_rate=1.0)
        ).generate(0, np.random.default_rng(0)),
    ),
    # network ------------------------------------------------------------
    ("node empty name", lambda: NetworkNode("", 1.0)),
    ("node bad rate", lambda: NetworkNode("n", 0.0)),
    # sim ----------------------------------------------------------------
    ("fluid server bad rate", lambda: FluidGPSServer(rate=0.0, phis=[1.0])),
    (
        "fluid step bad capacity",
        lambda: BatchFluidGPSServer(rate=1.0, phis=[1.0]).step(
            [[0.1]], capacity=-1.0
        ),
    ),
    (
        "fluid run capacity shape",
        lambda: FluidGPSServer(rate=1.0, phis=[1.0]).run(
            np.ones((1, 4)), capacities=np.ones(3)
        ),
    ),
    # faults -------------------------------------------------------------
    ("fault bad window", lambda: RateFault("n", 5, 2, 0.5)),
    ("link fault no effect", lambda: LinkFault("n", 0, 5)),
    ("schedule foreign object", lambda: FaultSchedule([42])),
    # experiments --------------------------------------------------------
    (
        "runner zero trials",
        lambda: SupervisedRunner(trial_fn=lambda t, s: t, num_trials=0),
    ),
    ("negative trial index", lambda: trial_seed(0, -1)),
    # online -------------------------------------------------------------
    ("online engine bad rate", lambda: StreamingGPSServer(rate=0.0)),
    (
        "online capacity event negative",
        lambda: CapacityEvent(time=0.0, capacity=-1.0),
    ),
]


@pytest.mark.parametrize(
    "thunk", [c[1] for c in INVALID_CALLS], ids=[c[0] for c in INVALID_CALLS]
)
def test_invalid_inputs_raise_repro_errors(thunk):
    with pytest.raises(ReproError):
        thunk()


@pytest.mark.parametrize(
    "thunk",
    [c[1] for c in INVALID_CALLS if "runner" not in c[0]],
    ids=[c[0] for c in INVALID_CALLS if "runner" not in c[0]],
)
def test_validation_failures_remain_value_errors(thunk):
    """Pre-hierarchy callers caught ValueError; that must keep working."""
    with pytest.raises(ValueError):
        thunk()


class TestSpecificTypes:
    def test_infeasible_ordering_is_feasibility_error(self):
        with pytest.raises(FeasibilityError):
            find_feasible_ordering([2.0], [1.0], server_rate=1.0)

    def test_numeric_underflow_is_numerical_error(self):
        with pytest.raises(NumericalError):
            geometric_tail_factor(5e-324)

    def test_unknown_online_session_is_admission_error(self):
        engine = StreamingGPSServer(rate=1.0)
        with pytest.raises(AdmissionError):
            engine.session_backlog("ghost")

    def test_checkpoint_mismatch_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("not json at all {")
        runner = SupervisedRunner(
            trial_fn=lambda t, s: t, num_trials=1, checkpoint_path=path
        )
        with pytest.raises(CheckpointError):
            runner.load_checkpoint()
