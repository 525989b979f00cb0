"""Tests for the pluggable Monte-Carlo dispatch backends.

The invariant every backend must honor is bit-identity with
:class:`SerialDispatch` — same ``manifest.completed`` payloads, same
attempt counts — plus graceful degradation: a poisoned shared-memory
chunk falls back to the serial per-trial loop instead of aborting the
campaign.
"""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.experiments import dispatch as dispatch_module
from repro.experiments.dispatch import (
    DISPATCH_BACKENDS,
    DispatchBackend,
    ProcessPickleDispatch,
    SerialDispatch,
    SharedMemoryDispatch,
    make_dispatch_backend,
)
from repro.experiments.supervisor import SupervisedRunner
from repro.faults import BurstFault, FaultSchedule, RateFault
from repro.markov.onoff import OnOffSource
from repro.scenario import Scenario
from repro.traffic.sources import BernoulliBurstTraffic, OnOffTraffic


def make_scenario(**overrides) -> Scenario:
    defaults = dict(
        rate=1.0,
        phis=(2.0, 1.0),
        sources=(
            OnOffTraffic(OnOffSource(p=0.2, q=0.4, peak_rate=0.8)),
            BernoulliBurstTraffic(
                burst_probability=0.3, burst_size=0.6
            ),
        ),
        horizon=200,
        seed=11,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


class PoisonScenario(Scenario):
    """Module-level (picklable) scenario whose batch engine always
    raises, forcing every shared-memory chunk into the serial
    fallback; the scalar path (``trial_result``) stays intact."""

    def batch_server(self):
        raise RuntimeError("poisoned batch engine")


def _square_trial(trial, seed):
    """Module-level so it pickles across the process pool."""
    return {"trial": trial, "seed": seed, "value": trial * trial}


class TestBackendResolution:
    def test_registry_names(self):
        assert DISPATCH_BACKENDS == ("serial", "process", "shared-memory")
        assert make_dispatch_backend("serial").name == "serial"
        assert make_dispatch_backend("process").name == "process"
        assert (
            make_dispatch_backend("shared-memory").name == "shared-memory"
        )

    def test_instance_passes_through(self):
        backend = SharedMemoryDispatch(chunk_size=4)
        assert make_dispatch_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError, match="dispatch backend"):
            make_dispatch_backend("threads")

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValidationError):
            SharedMemoryDispatch(chunk_size=0)

    def test_runner_defaults_by_worker_count(self):
        serial = SupervisedRunner(trial_fn=_square_trial, num_trials=2)
        assert serial.dispatch.name == "serial"
        fanout = SupervisedRunner(
            trial_fn=_square_trial, num_trials=2, max_workers=4
        )
        assert fanout.dispatch.name == "process"

    def test_shared_memory_requires_scenario(self):
        with pytest.raises(ValidationError, match="scenario"):
            SupervisedRunner(
                trial_fn=_square_trial,
                num_trials=2,
                dispatch="shared-memory",
            )

    def test_timeout_only_supported_serially(self):
        for dispatch in ("process", "shared-memory"):
            with pytest.raises(ValidationError, match="timeout"):
                SupervisedRunner(
                    scenario=make_scenario(),
                    num_trials=2,
                    dispatch=dispatch,
                    timeout=1.0,
                )

    def test_default_chunking_splits_across_workers(self):
        chunks = SharedMemoryDispatch()._chunks(list(range(10)), 4)
        assert [len(c) for c in chunks] == [3, 3, 3, 1]
        assert sum(chunks, []) == list(range(10))
        fixed = SharedMemoryDispatch(chunk_size=4)._chunks(
            list(range(10)), 4
        )
        assert [len(c) for c in fixed] == [4, 4, 2]


class TestSharedMemoryIdentity:
    def test_bit_identical_to_serial(self):
        scenario = make_scenario()
        serial = SupervisedRunner(
            scenario=scenario, num_trials=6, dispatch="serial"
        ).run()
        shm = SupervisedRunner(
            scenario=scenario,
            num_trials=6,
            max_workers=2,
            dispatch="shared-memory",
        ).run()
        assert shm.completed == serial.completed
        assert shm.attempts == serial.attempts
        assert not shm.failed and not shm.skipped

    def test_explicit_chunk_size_same_results(self):
        scenario = make_scenario()
        serial = SupervisedRunner(
            scenario=scenario, num_trials=5, dispatch="serial"
        ).run()
        shm = SupervisedRunner(
            scenario=scenario,
            num_trials=5,
            max_workers=2,
            dispatch="shared-memory",
            chunk_size=2,
        ).run()
        assert shm.completed == serial.completed

    def test_remainder_chunk_matches_serial(self):
        scenario = make_scenario()
        serial = SupervisedRunner(
            scenario=scenario, num_trials=7, dispatch="serial"
        ).run()
        shm = SupervisedRunner(
            scenario=scenario,
            num_trials=7,
            max_workers=2,
            dispatch="shared-memory",
            chunk_size=3,
        ).run()
        assert shm.completed == serial.completed
        assert shm.attempts == serial.attempts

    def test_faulted_scenario_matches_serial(self):
        scenario = make_scenario(
            names=("voice", "data"),
            faults=FaultSchedule(
                [
                    RateFault(node="server", start=40, end=120, factor=0.5),
                    BurstFault(
                        session="voice", start=60, end=90, multiplier=2.0
                    ),
                ]
            ),
        )
        serial = SupervisedRunner(
            scenario=scenario, num_trials=5, dispatch="serial"
        ).run()
        shm = SupervisedRunner(
            scenario=scenario,
            num_trials=5,
            max_workers=2,
            dispatch="shared-memory",
        ).run()
        assert shm.completed == serial.completed
        assert shm.attempts == serial.attempts

    def test_poisoned_chunk_falls_back_to_serial(self):
        reference = SupervisedRunner(
            scenario=make_scenario(), num_trials=4, dispatch="serial"
        ).run()
        poisoned = SupervisedRunner(
            scenario=PoisonScenario(
                rate=1.0,
                phis=(2.0, 1.0),
                sources=(
                    OnOffTraffic(
                        OnOffSource(p=0.2, q=0.4, peak_rate=0.8)
                    ),
                    BernoulliBurstTraffic(
                        burst_probability=0.3, burst_size=0.6
                    ),
                ),
                horizon=200,
                seed=11,
            ),
            num_trials=4,
            max_workers=2,
            dispatch="shared-memory",
        ).run()
        assert poisoned.completed == reference.completed
        assert poisoned.attempts == reference.attempts
        assert not poisoned.failed

    def test_resume_skips_completed_trials(self, tmp_path, monkeypatch):
        scenario = make_scenario()
        checkpoint = tmp_path / "manifest.json"
        first = SupervisedRunner(
            scenario=scenario,
            num_trials=4,
            max_workers=2,
            dispatch="shared-memory",
            checkpoint_path=checkpoint,
        ).run()
        assert first.num_completed == 4

        def explode(*args, **kwargs):
            raise AssertionError(
                "resume must not resubmit completed trials"
            )

        # Workers sample their own chunks, so any chunk submitted at
        # all would open a pool; the serial fallback cannot absorb this.
        monkeypatch.setattr(
            dispatch_module, "ProcessPoolExecutor", explode
        )
        resumed = SupervisedRunner(
            scenario=scenario,
            num_trials=4,
            max_workers=2,
            dispatch="shared-memory",
            checkpoint_path=checkpoint,
        ).run()
        assert resumed.completed == first.completed
        assert resumed.attempts == first.attempts

    def test_sampled_block_matches_trial_sampling(self):
        scenario = make_scenario()
        seeds = [101, 202]
        block = dispatch_module._sample_trial_block(scenario, seeds)
        assert block.shape == (2, 2, scenario.horizon)
        for row, seed in zip(block, seeds):
            rng = np.random.default_rng(seed)
            expected = np.vstack(
                [
                    source.generate(scenario.horizon, rng)
                    for source in scenario.sources
                ]
            )
            assert np.array_equal(row, expected)


class TestCustomBackend:
    def test_custom_instance_drives_the_run(self):
        calls = []

        class Recording(DispatchBackend):
            name = "recording"

            def execute(self, runner, manifest, indices):
                calls.append(list(indices))
                return SerialDispatch().execute(
                    runner, manifest, indices
                )

        manifest = SupervisedRunner(
            trial_fn=_square_trial,
            num_trials=3,
            dispatch=Recording(),
        ).run()
        assert calls == [[0, 1, 2]]
        assert manifest.num_completed == 3
