"""Public-API hygiene: every exported name resolves and is documented.

Guards against drift between ``__all__`` lists and module contents as
the library grows, and enforces the documentation contract (every
public item carries a docstring).
"""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.markov",
    "repro.traffic",
    "repro.deterministic",
    "repro.sim",
    "repro.network",
    "repro.experiments",
    "repro.faults",
    "repro.online",
    "repro.online.cluster",
    "repro.online.durability",
    "repro.packet",
    "repro.utils",
]

MODULES = [
    "repro.cli",
    "repro.errors",
    "repro.analysis.admission",
    "repro.analysis.context",
    "repro.analysis.feasible",
    "repro.analysis.grid",
    "repro.analysis.incremental",
    "repro.analysis.mgf",
    "repro.analysis.single_node",
    "repro.core.bounds",
    "repro.core.decomposition",
    "repro.core.ebb",
    "repro.core.gps",
    "repro.core.holder",
    "repro.core.pgps",
    "repro.core.rpps",
    "repro.deterministic.all_greedy",
    "repro.deterministic.network",
    "repro.deterministic.parekh_gallager",
    "repro.experiments.dispatch",
    "repro.experiments.paper_example",
    "repro.experiments.runner",
    "repro.experiments.sensitivity",
    "repro.experiments.supervisor",
    "repro.experiments.tables",
    "repro.faults.injection",
    "repro.faults.report",
    "repro.faults.schedule",
    "repro.markov.chain",
    "repro.markov.effective_bandwidth",
    "repro.markov.exact_queue",
    "repro.markov.fitting",
    "repro.markov.lnt94",
    "repro.markov.mmpp",
    "repro.markov.onoff",
    "repro.network.analysis",
    "repro.network.builders",
    "repro.network.crst",
    "repro.network.design",
    "repro.network.render",
    "repro.network.serialization",
    "repro.network.rpps_network",
    "repro.network.topology",
    "repro.online.admission",
    "repro.online.cluster.cluster",
    "repro.online.cluster.process",
    "repro.online.cluster.routing",
    "repro.online.cluster.shard",
    "repro.online.cluster.supervisor",
    "repro.online.cluster.worker",
    "repro.online.durability.scrub",
    "repro.online.durability.service",
    "repro.online.durability.snapshot",
    "repro.online.durability.wal",
    "repro.online.durability.writers",
    "repro.online.engine",
    "repro.online.events",
    "repro.online.records",
    "repro.online.service",
    "repro.online.session",
    "repro.packet.engine",
    "repro.packet.gap",
    "repro.packet.results",
    "repro.packet.serving",
    "repro.packet.trace",
    "repro.packet.vclock",
    "repro.sim.baselines",
    "repro.sim.class_based",
    "repro.sim.decay",
    "repro.sim.fluid",
    "repro.sim.fluid_exact",
    "repro.sim.measurements",
    "repro.sim.network_sim",
    "repro.sim.packet",
    "repro.sim.packet_baselines",
    "repro.sim.packet_network",
    "repro.sim.packetize",
    "repro.sim.statistics",
    "repro.traffic.envelope",
    "repro.traffic.estimation",
    "repro.traffic.leaky_bucket",
    "repro.traffic.presets",
    "repro.traffic.sources",
    "repro.utils.numeric",
    "repro.utils.validation",
]


@pytest.mark.parametrize("name", PACKAGES + MODULES)
class TestModule:
    def test_imports(self, name):
        importlib.import_module(name)

    def test_has_docstring(self, name):
        module = importlib.import_module(name)
        assert module.__doc__ and module.__doc__.strip()


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{name} must define __all__"
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


@pytest.mark.parametrize("name", MODULES)
def test_public_callables_documented(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        obj = getattr(module, symbol)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if getattr(obj, "__module__", "").startswith("repro"):
                assert (
                    obj.__doc__ and obj.__doc__.strip()
                ), f"{name}.{symbol} lacks a docstring"


def test_main_package_version():
    import repro

    assert repro.__version__ == "1.0.0"
