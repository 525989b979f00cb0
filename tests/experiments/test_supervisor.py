"""Tests for the supervised Monte-Carlo runner.

Includes the acceptance scenario: a run killed after k of n trials,
resumed from its checkpoint, must aggregate to exactly the result of
an uninterrupted run with the same seeds.
"""

import json

import numpy as np
import pytest

from repro.errors import (
    CheckpointError,
    NumericalError,
    ReproError,
    SimulationFaultError,
    ValidationError,
)
from repro.experiments.supervisor import (
    RunManifest,
    SupervisedRunner,
    trial_seed,
)


def _mean_trial(trial, seed):
    rng = np.random.default_rng(seed)
    return float(rng.normal(size=100).mean())


class TestTrialSeed:
    def test_deterministic(self):
        assert trial_seed(7, 3) == trial_seed(7, 3)
        assert trial_seed(7, 3, attempt=1) == trial_seed(7, 3, attempt=1)

    def test_distinct_across_trials_and_attempts(self):
        seeds = {
            trial_seed(0, trial, attempt)
            for trial in range(20)
            for attempt in range(3)
        }
        assert len(seeds) == 60

    def test_distinct_across_base_seeds(self):
        assert trial_seed(0, 0) != trial_seed(1, 0)

    def test_rejects_negative_indices(self):
        with pytest.raises(ValidationError):
            trial_seed(0, -1)
        with pytest.raises(ValidationError):
            trial_seed(0, 0, attempt=-1)


class TestBasicRun:
    def test_all_trials_complete(self):
        manifest = SupervisedRunner(
            trial_fn=_mean_trial, num_trials=8, base_seed=42
        ).run()
        assert manifest.num_completed == 8
        assert manifest.failed == {}
        assert manifest.skipped == []
        assert all(manifest.attempts[k] == 1 for k in range(8))
        assert len(manifest.results) == 8

    def test_results_are_reproducible(self):
        first = SupervisedRunner(
            trial_fn=_mean_trial, num_trials=5, base_seed=9
        ).run()
        second = SupervisedRunner(
            trial_fn=_mean_trial, num_trials=5, base_seed=9
        ).run()
        assert first.results == second.results

    def test_different_base_seeds_differ(self):
        a = SupervisedRunner(
            trial_fn=_mean_trial, num_trials=3, base_seed=0
        ).run()
        b = SupervisedRunner(
            trial_fn=_mean_trial, num_trials=3, base_seed=1
        ).run()
        assert a.results != b.results

    def test_validation(self):
        with pytest.raises(ValidationError):
            SupervisedRunner(trial_fn=_mean_trial, num_trials=0)
        with pytest.raises(ValidationError):
            SupervisedRunner(
                trial_fn=_mean_trial, num_trials=1, max_retries=-1
            )
        with pytest.raises(ValidationError):
            SupervisedRunner(trial_fn=_mean_trial, num_trials=1, timeout=0.0)
        with pytest.raises(ValidationError):
            SupervisedRunner(
                trial_fn=_mean_trial, num_trials=1, backoff_base=-0.1
            )

    def test_summary_mentions_counts(self):
        manifest = SupervisedRunner(trial_fn=_mean_trial, num_trials=2).run()
        assert "2 completed" in manifest.summary()


class TestRetries:
    def test_transient_failure_retried_with_fresh_seed(self):
        sleeps = []
        seen = []

        def flaky(trial, seed):
            seen.append((trial, seed))
            if trial == 1 and len([s for s in seen if s[0] == 1]) < 3:
                raise NumericalError("transient blow-up")
            return trial

        manifest = SupervisedRunner(
            trial_fn=flaky,
            num_trials=3,
            base_seed=5,
            max_retries=2,
            sleep=sleeps.append,
        ).run()
        assert manifest.completed == {0: 0, 1: 1, 2: 2}
        assert manifest.attempts[1] == 3
        # Each retry of trial 1 saw a different (deterministic) seed.
        trial1_seeds = [s for t, s in seen if t == 1]
        assert len(set(trial1_seeds)) == 3
        assert trial1_seeds == [
            trial_seed(5, 1, attempt) for attempt in range(3)
        ]
        assert len(sleeps) == 2

    def test_backoff_grows_exponentially(self):
        sleeps = []

        def always_fails(trial, seed):
            raise NumericalError("nope")

        manifest = SupervisedRunner(
            trial_fn=always_fails,
            num_trials=1,
            max_retries=3,
            backoff_base=0.1,
            backoff_cap=100.0,
            jitter=0.0,
            sleep=sleeps.append,
        ).run()
        assert manifest.failed[0].startswith("NumericalError")
        assert sleeps == pytest.approx([0.1, 0.2, 0.4])

    def test_backoff_respects_cap_and_jitter(self):
        sleeps = []

        def always_fails(trial, seed):
            raise NumericalError("nope")

        SupervisedRunner(
            trial_fn=always_fails,
            num_trials=1,
            max_retries=4,
            backoff_base=1.0,
            backoff_cap=2.0,
            jitter=0.5,
            sleep=sleeps.append,
        ).run()
        for delay, floor in zip(sleeps, [1.0, 2.0, 2.0, 2.0]):
            assert floor <= delay <= floor * 1.5

    def test_non_retryable_exception_fails_immediately(self):
        calls = []

        def broken(trial, seed):
            calls.append(trial)
            raise KeyError("not transient")

        manifest = SupervisedRunner(
            trial_fn=broken, num_trials=2, max_retries=5, sleep=lambda _: None
        ).run()
        assert calls == [0, 1]
        assert set(manifest.failed) == {0, 1}
        assert all(manifest.attempts[k] == 1 for k in (0, 1))

    def test_failed_trials_do_not_block_others(self):
        def mixed(trial, seed):
            if trial == 1:
                raise ReproError("bad seed path")
            return trial

        manifest = SupervisedRunner(
            trial_fn=mixed, num_trials=4, max_retries=1, sleep=lambda _: None
        ).run()
        assert set(manifest.completed) == {0, 2, 3}
        assert set(manifest.failed) == {1}

    def test_fail_fast_aborts_and_records_skips(self):
        def mixed(trial, seed):
            if trial == 1:
                raise ReproError("bad")
            return trial

        runner = SupervisedRunner(
            trial_fn=mixed,
            num_trials=5,
            max_retries=0,
            fail_fast=True,
            sleep=lambda _: None,
            checkpoint_path=None,
        )
        with pytest.raises(SimulationFaultError, match="fail-fast"):
            runner.run()

    def test_timeout_is_a_retryable_fault(self):
        import time as _time

        def slow_once(trial, seed):
            if trial == 0 and not getattr(slow_once, "done", False):
                slow_once.done = True
                _time.sleep(2.0)
            return trial

        manifest = SupervisedRunner(
            trial_fn=slow_once,
            num_trials=1,
            timeout=0.2,
            max_retries=1,
            backoff_base=0.0,
            jitter=0.0,
            sleep=lambda _: None,
        ).run()
        assert manifest.completed == {0: 0}
        assert manifest.attempts[0] == 2


class TestCheckpointing:
    def test_checkpoint_resume_roundtrip(self, tmp_path):
        """Acceptance: kill after k of n, resume, equal aggregate."""
        path = tmp_path / "run.json"
        n, k = 10, 4
        calls = []

        class Killed(BaseException):
            pass

        def killable(trial, seed):
            calls.append(trial)
            if len(calls) == k + 1:
                raise Killed()  # simulates the process dying
            return _mean_trial(trial, seed)

        runner = SupervisedRunner(
            trial_fn=killable,
            num_trials=n,
            base_seed=123,
            checkpoint_path=path,
        )
        with pytest.raises(Killed):
            runner.run()
        assert path.exists()
        partial = runner.load_checkpoint()
        assert partial.num_completed == k

        resumed = SupervisedRunner(
            trial_fn=_mean_trial,
            num_trials=n,
            base_seed=123,
            checkpoint_path=path,
        ).run()
        uninterrupted = SupervisedRunner(
            trial_fn=_mean_trial, num_trials=n, base_seed=123
        ).run()
        assert resumed.num_completed == n
        assert resumed.results == uninterrupted.results
        assert np.mean(resumed.results) == pytest.approx(
            np.mean(uninterrupted.results)
        )
        # The resumed run only executed the missing trials.
        assert sorted(set(calls)) == list(range(k + 1))

    def test_checkpoint_file_is_valid_json(self, tmp_path):
        path = tmp_path / "run.json"
        SupervisedRunner(
            trial_fn=_mean_trial,
            num_trials=3,
            base_seed=1,
            checkpoint_path=path,
        ).run()
        payload = json.loads(path.read_text())
        assert payload["version"] == 1
        assert payload["base_seed"] == 1
        assert payload["num_trials"] == 3
        assert set(payload["completed"]) == {"0", "1", "2"}

    def test_failed_trials_retried_on_resume(self, tmp_path):
        path = tmp_path / "run.json"

        def fails(trial, seed):
            raise NumericalError("bad")

        SupervisedRunner(
            trial_fn=fails,
            num_trials=2,
            max_retries=0,
            checkpoint_path=path,
            sleep=lambda _: None,
        ).run()
        manifest = SupervisedRunner(
            trial_fn=_mean_trial, num_trials=2, checkpoint_path=path
        ).run()
        assert manifest.num_completed == 2
        assert manifest.failed == {}

    def test_base_seed_mismatch_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        SupervisedRunner(
            trial_fn=_mean_trial,
            num_trials=2,
            base_seed=1,
            checkpoint_path=path,
        ).run()
        with pytest.raises(CheckpointError, match="base_seed"):
            SupervisedRunner(
                trial_fn=_mean_trial,
                num_trials=2,
                base_seed=2,
                checkpoint_path=path,
            ).run()

    def test_num_trials_mismatch_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        SupervisedRunner(
            trial_fn=_mean_trial, num_trials=2, checkpoint_path=path
        ).run()
        with pytest.raises(CheckpointError, match="trials"):
            SupervisedRunner(
                trial_fn=_mean_trial, num_trials=5, checkpoint_path=path
            ).run()

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="cannot read"):
            SupervisedRunner(
                trial_fn=_mean_trial, num_trials=2, checkpoint_path=path
            ).load_checkpoint()

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(
            json.dumps(
                {
                    "version": 99,
                    "base_seed": 0,
                    "num_trials": 2,
                    "completed": {},
                }
            )
        )
        with pytest.raises(CheckpointError, match="version"):
            SupervisedRunner(
                trial_fn=_mean_trial, num_trials=2, checkpoint_path=path
            ).load_checkpoint()

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"version": 1}))
        with pytest.raises(CheckpointError, match="missing"):
            SupervisedRunner(
                trial_fn=_mean_trial, num_trials=2, checkpoint_path=path
            ).load_checkpoint()

    def test_numpy_results_serialized(self, tmp_path):
        path = tmp_path / "run.json"

        def numpy_trial(trial, seed):
            return {
                "mean": np.float64(1.5),
                "counts": np.arange(3),
                "n": np.int64(trial),
            }

        manifest = SupervisedRunner(
            trial_fn=numpy_trial, num_trials=1, checkpoint_path=path
        ).run()
        payload = json.loads(path.read_text())
        assert payload["completed"]["0"] == {
            "mean": 1.5,
            "counts": [0, 1, 2],
            "n": 0,
        }
        assert manifest.num_completed == 1


class TestManifest:
    def test_results_in_trial_order(self):
        manifest = RunManifest(base_seed=0, num_trials=3)
        manifest.completed = {2: "c", 0: "a", 1: "b"}
        assert manifest.results == ["a", "b", "c"]


class TestCheckpointDurability:
    def test_unserializable_result_leaves_no_tmp_orphan(self, tmp_path):
        path = tmp_path / "run.json"

        def unserializable(trial, seed):
            return {1, 2, 3}  # sets are not JSON

        runner = SupervisedRunner(
            trial_fn=unserializable,
            num_trials=2,
            base_seed=1,
            checkpoint_path=path,
        )
        with pytest.raises(TypeError):
            runner.run()
        # The failed atomic write must not strand mkstemp files.
        assert list(tmp_path.glob("*.tmp*")) == []
        assert not path.exists()

    def test_checkpoint_written_atomically_and_synced(self, tmp_path):
        path = tmp_path / "run.json"
        SupervisedRunner(
            trial_fn=_mean_trial,
            num_trials=3,
            base_seed=1,
            checkpoint_path=path,
        ).run()
        # Committed file only; no temp leftovers from any write.
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]
        payload = json.loads(path.read_text())
        assert set(payload["completed"]) == {"0", "1", "2"}
