"""Tests for the pluggable Monte-Carlo dispatch backends.

The invariant every backend must honor is bit-identity with
:class:`SerialDispatch` — same ``manifest.completed`` payloads, same
attempt counts — plus graceful degradation: a poisoned process chunk
falls back to the serial per-trial loop instead of aborting the
campaign, and a trial that kills its worker is recorded failed.
"""

import functools
import multiprocessing
import os

import numpy as np
import pytest

from repro.errors import SimulationFaultError, ValidationError
from repro.experiments import dispatch as dispatch_module
from repro.experiments.dispatch import (
    DISPATCH_BACKENDS,
    DispatchBackend,
    ProcessDispatch,
    SerialDispatch,
    make_dispatch_backend,
)
from repro.experiments.runner import ExampleNetworkCampaign
from repro.experiments.supervisor import SupervisedRunner, trial_seed
from repro.faults import BurstFault, FaultSchedule, RateFault
from repro.markov.onoff import OnOffSource
from repro.scenario import Scenario
from repro.traffic.sources import BernoulliBurstTraffic, OnOffTraffic


def make_scenario(cls=Scenario, **overrides) -> Scenario:
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
    return cls(**defaults)


class PoisonScenario(Scenario):
    """Module-level (picklable) scenario whose chunks always raise in
    a pool worker, forcing every process chunk into the serial
    fallback; in the parent process (``trial_result``) it runs."""

    def run_chunk(self, trials, seeds):
        if multiprocessing.parent_process() is not None:
            raise RuntimeError("poisoned chunk")
        return super().run_chunk(trials, seeds)


class PoisonTrialScenario(PoisonScenario):
    """A poisoned batch engine plus a scalar trial 2 that always
    raises a non-retryable error."""

    def trial_result(self, trial, seed):
        if trial == 2:
            raise ValueError("trial 2 always fails")
        return super().trial_result(trial, seed)


def _square_trial(trial, seed):
    """Module-level so it pickles across the process pool."""
    return {"trial": trial, "seed": seed, "value": trial * trial}


def _fail_on_even(trial, seed):
    if trial % 2 == 0:
        raise ValueError(f"trial {trial} is even")
    return trial


def _fail_fast_manifest(backend, **runner_kwargs):
    """Run a fail-fast campaign through ``backend`` and return the
    manifest the raised abort leaves behind."""
    runner = SupervisedRunner(
        max_workers=3, max_retries=0, fail_fast=True, **runner_kwargs
    )
    manifest = runner.load_checkpoint()
    indices = list(range(manifest.num_trials))
    with pytest.raises(SimulationFaultError, match="fail-fast"):
        backend.execute(runner, manifest, indices)
    return manifest


def _raise_zero_in_worker_exit_on_one(parent_pid, trial, seed):
    """Trial 0 raises in a pool worker and succeeds in the parent;
    trial 1 kills any pool worker that runs it."""
    if trial == 0 and os.getpid() != parent_pid:
        raise RuntimeError("trial 0 raises in a worker")
    return _exit_on_trial_one(parent_pid, trial, seed)


def _exit_on_trial_one(parent_pid, trial, seed):
    """Trial 1 kills any pool worker that runs it (and fails loudly if
    it ever runs in the parent); every other trial succeeds."""
    if trial == 1:
        if os.getpid() == parent_pid:
            raise AssertionError("trial 1 ran in the parent")
        os._exit(3)
    return {"trial": trial, "seed": seed}


class TestBackendResolution:
    def test_registry_names(self):
        assert DISPATCH_BACKENDS == ("serial", "process")
        assert make_dispatch_backend("serial").name == "serial"
        assert make_dispatch_backend("process").name == "process"

    def test_shared_memory_name_resolves_to_process(self):
        backend = make_dispatch_backend("shared-memory")
        assert type(backend) is ProcessDispatch
        assert backend.name == "process"

    def test_instance_passes_through(self):
        backend = ProcessDispatch()
        assert make_dispatch_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError, match="dispatch backend"):
            make_dispatch_backend("threads")

    def test_runner_defaults_by_worker_count(self):
        serial = SupervisedRunner(trial_fn=_square_trial, num_trials=2)
        assert serial.dispatch.name == "serial"
        fanout = SupervisedRunner(
            trial_fn=_square_trial, num_trials=2, max_workers=4
        )
        assert fanout.dispatch.name == "process"

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
        cap = Scenario.chunk_trials
        chunks = ProcessDispatch._chunks(list(range(10)), 4, cap=cap)
        assert [len(c) for c in chunks] == [3, 3, 3, 1]
        assert sum(chunks, []) == list(range(10))
        capped = ProcessDispatch._chunks(list(range(300)), 2, cap=cap)
        assert [len(c) for c in capped] == [128, 128, 44]
        single = ProcessDispatch._chunks(list(range(10)), 4, cap=1)
        assert single == [[k] for k in range(10)]

    def test_network_chunks_are_one_sub_batch(self):
        # At 60,000 slots a network trial traces 11.5 MB, so a chunk
        # (and the interval between checkpoints) is 11 trials.
        campaign = ExampleNetworkCampaign(60_000)
        assert campaign.chunk_trials == 11
        chunks = ProcessDispatch._chunks(
            list(range(64)), 2, cap=campaign.chunk_trials
        )
        assert [len(c) for c in chunks] == [11] * 5 + [9]


class TestSharedMemoryIdentity:
    """The chunked ``process`` backend on scenario campaigns.  The
    class keeps the name of the backend it replaced."""

    def test_bit_identical_to_serial(self):
        scenario = make_scenario()
        serial = SupervisedRunner(
            scenario=scenario, num_trials=6, dispatch="serial"
        ).run()
        shm = SupervisedRunner(
            scenario=scenario,
            num_trials=6,
            max_workers=2,
            dispatch="process",
        ).run()
        assert shm.completed == serial.completed
        assert shm.attempts == serial.attempts
        assert not shm.failed and not shm.skipped

    def test_default_dispatch_is_bit_identical_to_serial(self):
        scenario = make_scenario()
        serial = SupervisedRunner(
            scenario=scenario, num_trials=5, dispatch="serial"
        ).run()
        runner = SupervisedRunner(
            scenario=scenario, num_trials=5, max_workers=2
        )
        assert type(runner.dispatch) is ProcessDispatch
        parallel = runner.run()
        assert parallel.completed == serial.completed
        assert parallel.attempts == serial.attempts

    def test_remainder_chunk_matches_serial(self):
        # 7 trials on 3 workers: chunks of 3, 3 and a remainder of 1.
        scenario = make_scenario()
        serial = SupervisedRunner(
            scenario=scenario, num_trials=7, dispatch="serial"
        ).run()
        shm = SupervisedRunner(
            scenario=scenario,
            num_trials=7,
            max_workers=3,
            dispatch="process",
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
            dispatch="process",
        ).run()
        assert shm.completed == serial.completed
        assert shm.attempts == serial.attempts

    def test_poisoned_chunk_falls_back_to_serial(self):
        reference = SupervisedRunner(
            scenario=make_scenario(), num_trials=4, dispatch="serial"
        ).run()
        poisoned = SupervisedRunner(
            scenario=make_scenario(PoisonScenario),
            num_trials=4,
            max_workers=2,
            dispatch="process",
        ).run()
        assert poisoned.completed == reference.completed
        assert poisoned.attempts == reference.attempts
        assert not poisoned.failed

    def test_fail_fast_fallback_matches_serial(self):
        # Every chunk is poisoned, so every trial goes to the serial
        # fallback: the manifest is the serial one, skipped list too.
        scenario = make_scenario(PoisonTrialScenario)
        serial, parallel = (
            _fail_fast_manifest(backend, scenario=scenario, num_trials=7)
            for backend in (SerialDispatch(), ProcessDispatch())
        )
        assert parallel.skipped == serial.skipped == [3, 4, 5, 6]
        assert parallel.completed == serial.completed
        assert parallel.attempts == serial.attempts
        assert parallel.failed == serial.failed

    def test_resume_skips_completed_trials(self, tmp_path, monkeypatch):
        scenario = make_scenario()
        checkpoint = tmp_path / "manifest.json"
        first = SupervisedRunner(
            scenario=scenario,
            num_trials=4,
            max_workers=2,
            dispatch="process",
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
            dispatch="process",
            checkpoint_path=checkpoint,
        ).run()
        assert resumed.completed == first.completed
        assert resumed.attempts == first.attempts

    def test_sampled_block_matches_trial_sampling(self):
        scenario = make_scenario()
        trials, seeds = [3, 5], [101, 202]
        payloads = scenario.run_chunk(trials, seeds)
        for trial, seed, payload in zip(trials, seeds, payloads):
            rng = np.random.default_rng(seed)
            expected = np.vstack(
                [
                    source.generate(scenario.horizon, rng)
                    for source in scenario.sources
                ]
            )
            summary = scenario.server().run(expected).summary()
            summary["trial"] = trial
            assert payload == summary
            assert scenario.trial_result(trial, seed) == summary


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


class TestTrialFnChunks:
    def test_fail_fast_skipped_is_deterministic(self):
        # Three one-trial chunks on three workers are all in flight
        # from the start, so no completion order changes the outcome:
        # trial 1 completes in the pool, trial 0 aborts the serial
        # fallback and trial 2 is skipped.
        manifest = _fail_fast_manifest(
            ProcessDispatch(), trial_fn=_fail_on_even, num_trials=3
        )
        assert manifest.completed == {1: 1}
        assert sorted(manifest.failed) == [0]
        assert manifest.skipped == [2]
        assert manifest.attempts == {0: 1, 1: 1}

    def test_dead_worker_trial_is_recorded_failed(self, tmp_path):
        # Trial 1 kills every worker that runs it, in its chunk and
        # alone; it must never run in the parent.
        trial_fn = functools.partial(_exit_on_trial_one, os.getpid())
        checkpoint = tmp_path / "manifest.json"
        runs = [
            SupervisedRunner(
                trial_fn=trial_fn,
                num_trials=8,
                max_workers=2,
                checkpoint_path=checkpoint,
            ).run()
            for _ in range(2)  # the second run resumes the first
        ]
        for manifest in runs:
            assert sorted(manifest.completed) == [0, 2, 3, 4, 5, 6, 7]
            assert list(manifest.failed) == [1]
            assert manifest.failed[1].startswith("worker_died")
            assert not manifest.skipped
            assert all(
                manifest.completed[k] == {"trial": k, "seed": trial_seed(0, k)}
                for k in manifest.completed
            )
        assert runs[1].completed == runs[0].completed

    def test_fail_fast_dead_worker_still_reruns_raised_chunks(self):
        # Trial 0's chunk raises in the pool and trial 1 kills its
        # worker twice: the fail-fast abort comes after trial 0's
        # serial re-run, which completes, instead of skipping it.
        manifest = _fail_fast_manifest(
            ProcessDispatch(),
            trial_fn=functools.partial(
                _raise_zero_in_worker_exit_on_one, os.getpid()
            ),
            num_trials=2,
        )
        assert manifest.completed == {0: {"trial": 0, "seed": trial_seed(0, 0)}}
        assert list(manifest.failed) == [1]
        assert manifest.failed[1].startswith("worker_died")
        assert manifest.skipped == []
