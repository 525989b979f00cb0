"""Process fan-out and the keyword/scenario construction of
SupervisedRunner."""

import pytest

from repro.errors import SimulationFaultError, ValidationError
from repro.experiments.supervisor import SupervisedRunner, trial_seed


def _square_trial(trial, seed):
    """Module-level so it pickles across the process pool."""
    return {"trial": trial, "seed": seed, "value": trial * trial}


def _fail_on_even(trial, seed):
    if trial % 2 == 0:
        raise ValueError(f"trial {trial} is even")
    return trial


def _flaky_first_attempt(trial, seed):
    # Deterministic flake: the first attempt's seed fails, the retry
    # seed (attempt=1) succeeds.
    if seed == trial_seed(0, trial, 0):
        raise SimulationFaultError("first attempt always faults")
    return {"trial": trial}


class TestConstructionShim:
    """Keyword-only construction and its argument validation."""

    def test_requires_trial_fn_and_num_trials(self):
        with pytest.raises(ValidationError):
            SupervisedRunner(num_trials=2)
        with pytest.raises(ValidationError):
            SupervisedRunner(trial_fn=_square_trial)

    def test_rejects_scenario_plus_trial_fn(self):
        class FakeScenario:
            def trial_result(self, trial, seed):
                return trial

        with pytest.raises(ValidationError):
            SupervisedRunner(
                trial_fn=_square_trial,
                scenario=FakeScenario(),
                num_trials=1,
            )

    def test_rejects_bad_max_workers(self):
        with pytest.raises(ValidationError):
            SupervisedRunner(
                trial_fn=_square_trial, num_trials=2, max_workers=0
            )

    def test_rejects_workers_with_timeout(self):
        with pytest.raises(ValidationError):
            SupervisedRunner(
                trial_fn=_square_trial,
                num_trials=2,
                max_workers=2,
                timeout=1.0,
            )


class TestParallelRun:
    def test_matches_serial_results(self):
        serial = SupervisedRunner(
            trial_fn=_square_trial, num_trials=6, base_seed=11
        ).run()
        parallel = SupervisedRunner(
            trial_fn=_square_trial,
            num_trials=6,
            base_seed=11,
            max_workers=3,
        ).run()
        assert parallel.completed == serial.completed
        assert parallel.attempts == serial.attempts

    def test_failures_recorded_not_raised(self):
        manifest = SupervisedRunner(
            trial_fn=_fail_on_even,
            num_trials=5,
            max_workers=2,
            max_retries=0,
        ).run()
        assert sorted(manifest.failed) == [0, 2, 4]
        assert sorted(manifest.completed) == [1, 3]

    def test_retry_uses_fresh_seed(self):
        manifest = SupervisedRunner(
            trial_fn=_flaky_first_attempt,
            num_trials=4,
            base_seed=0,
            max_workers=2,
            max_retries=2,
        ).run()
        assert manifest.num_completed == 4
        assert all(a == 2 for a in manifest.attempts.values())

    def test_fail_fast_raises_and_skips(self):
        runner = SupervisedRunner(
            trial_fn=_fail_on_even,
            num_trials=8,
            max_workers=2,
            max_retries=0,
            fail_fast=True,
        )
        with pytest.raises(SimulationFaultError, match="fail-fast"):
            runner.run()

    def test_checkpoint_written_in_parallel_mode(self, tmp_path):
        path = tmp_path / "run.json"
        manifest = SupervisedRunner(
            trial_fn=_square_trial,
            num_trials=4,
            max_workers=2,
            checkpoint_path=path,
        ).run()
        assert manifest.num_completed == 4
        resumed = SupervisedRunner(
            trial_fn=_square_trial,
            num_trials=4,
            max_workers=2,
            checkpoint_path=path,
        ).load_checkpoint()
        assert sorted(resumed.completed) == [0, 1, 2, 3]
