"""The ``repro.core`` surface after the analysis split, and the removed
call forms.

Each public name has one home, one constructor form and one factory:
the theorem machinery is reached only through :mod:`repro.analysis`,
constructors and network builders are keyword-only, and durable
services and clusters open only through their ``open(mode=...)``
classmethods.  Shards run in-process under ``ShardSupervisor``; a
shard in its own process is ``repro serve - --wal DIR``.
"""

import importlib
import warnings

import pytest

import repro.analysis
import repro.core
import repro.experiments
import repro.online
import repro.online.cluster
import repro.sim
from repro.analysis import AnalysisContext
from repro.cli import main
from repro.core.ebb import EBB
from repro.experiments.supervisor import SupervisedRunner
from repro.network.builders import ring_network, tandem_network, tree_network
from repro.online.admission import AdmissionController
from repro.scenario import Scenario
from repro.sim.fluid import FluidGPSServer
from repro.traffic.sources import ConstantBitRateTraffic

_ARRIVAL = EBB(0.2, 1.0, 1.5)
_SCENARIO = Scenario(
    rate=1.0,
    phis=(1.0,),
    sources=(ConstantBitRateTraffic(rate=0.1),),
    horizon=10,
    ebbs=(_ARRIVAL,),
)


def _trial(trial, seed):
    return trial


REMOVED_FORMS = [
    pytest.param(
        lambda: FluidGPSServer(1.0, [1.0]), TypeError,
        id="FluidGPSServer-positional",
    ),
    pytest.param(
        lambda: SupervisedRunner(_trial, 2), TypeError,
        id="SupervisedRunner-positional",
    ),
    pytest.param(
        lambda: tandem_network(2, _ARRIVAL, _ARRIVAL), TypeError,
        id="tandem_network-positional",
    ),
    pytest.param(
        lambda: tree_network([[_ARRIVAL]]), TypeError,
        id="tree_network-positional",
    ),
    pytest.param(
        lambda: ring_network(3, _ARRIVAL), TypeError,
        id="ring_network-positional",
    ),
    pytest.param(
        lambda: repro.core.theorem10_bounds, AttributeError,
        id="core-moved-name",
    ),
    pytest.param(
        lambda: importlib.import_module("repro.core.mgf"), ImportError,
        id="core-shim-module",
    ),
    pytest.param(
        lambda: repro.online.open_durable_service, AttributeError,
        id="durable-factory-function",
    ),
    pytest.param(
        lambda: repro.online.create_cluster, AttributeError,
        id="cluster-factory-function",
    ),
    pytest.param(
        lambda: main(["simulate", "--dispatch", "serial"]), SystemExit,
        id="simulate-dispatch-flag",
    ),
    pytest.param(
        lambda: importlib.import_module("repro.online.cluster.process"),
        ImportError,
        id="cluster-process-module",
    ),
    pytest.param(
        lambda: importlib.import_module("repro.online.cluster.worker"),
        ImportError,
        id="cluster-worker-module",
    ),
    pytest.param(
        lambda: repro.online.cluster.ShardProcess, AttributeError,
        id="cluster-shard-process",
    ),
    pytest.param(
        lambda: repro.sim.batch_gps_slot_allocation, AttributeError,
        id="batch-slot-allocation",
    ),
    pytest.param(
        lambda: repro.sim.gps_rate_allocation_exact, AttributeError,
        id="exact-rate-allocation",
    ),
    pytest.param(
        lambda: importlib.import_module(
            "repro.sim.fluid_exact"
        ).gps_rate_allocation,
        AttributeError,
        id="exact-rate-allocation-module",
    ),
    pytest.param(
        lambda: AnalysisContext(1.0, incremental=False), TypeError,
        id="context-incremental",
    ),
    pytest.param(
        lambda: AdmissionController(rate=1.0, incremental=False), TypeError,
        id="controller-incremental",
    ),
    pytest.param(
        lambda: _SCENARIO.analysis_context(incremental=False), TypeError,
        id="scenario-context-incremental",
    ),
    pytest.param(
        lambda: repro.experiments.ProcessPickleDispatch, AttributeError,
        id="process-pickle-dispatch",
    ),
    pytest.param(
        lambda: repro.experiments.SharedMemoryDispatch, AttributeError,
        id="shared-memory-dispatch",
    ),
    pytest.param(
        lambda: SupervisedRunner(trial_fn=_trial, num_trials=2, chunk_size=2),
        TypeError,
        id="SupervisedRunner-chunk-size",
    ),
    pytest.param(
        lambda: repro.experiments.simulation_trial, AttributeError,
        id="simulation-trial",
    ),
    pytest.param(
        lambda: importlib.import_module(
            "repro.experiments.runner"
        ).simulation_trial,
        AttributeError,
        id="simulation-trial-module",
    ),
    pytest.param(
        lambda: FluidGPSServer(rate=1.0, phis=[1.0]).step, AttributeError,
        id="FluidGPSServer-step",
    ),
    pytest.param(
        lambda: FluidGPSServer(rate=1.0, phis=[1.0]).backlog, AttributeError,
        id="FluidGPSServer-backlog",
    ),
    pytest.param(
        lambda: FluidGPSServer(rate=1.0, phis=[1.0]).reset, AttributeError,
        id="FluidGPSServer-reset",
    ),
]


@pytest.mark.parametrize("call,error", REMOVED_FORMS)
def test_removed_form_raises(call, error):
    with pytest.raises(error):
        call()


def test_serve_full_recompute_flag_is_a_usage_error(tmp_path, capsys):
    lines = tmp_path / "empty.jsonl"
    lines.write_text("")
    with pytest.raises(SystemExit) as exc:
        main(["serve", str(lines), "--rate", "1.0", "--full-recompute"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --full-recompute" in capsys.readouterr().err


def test_eager_core_names_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        assert repro.core.EBB is not None
        assert repro.core.GPSConfig is not None


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="no attribute 'nonsense'"):
        repro.core.nonsense


def test_analysis_all_resolves():
    for name in repro.analysis.__all__:
        assert getattr(repro.analysis, name) is not None
