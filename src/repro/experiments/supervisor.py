"""Supervised Monte-Carlo execution: retries, timeouts, checkpoints.

Long validation runs die in practice for reasons that have nothing to
do with the mathematics: a trial hits a numerical blow-up under fault
injection, a machine reboots at trial 47 of 64, one pathological seed
takes forever.  :class:`SupervisedRunner` wraps a per-trial function
with the standard production defenses:

* **deterministic per-trial seeding** — trial ``k`` always sees the same
  seed (derived from ``base_seed`` via ``numpy.random.SeedSequence``),
  so an interrupted-and-resumed run aggregates to *exactly* the result
  of an uninterrupted one;
* **retry with exponential backoff + jitter** — transient failures
  (:class:`repro.errors.NumericalError`, injected simulation faults)
  are retried up to ``max_retries`` times; retry ``a`` of trial ``k``
  runs with a seed derived from ``(k, a)``, so a fault that is a
  function of the sample path can clear on retry;
* **per-trial timeout** — a wall-clock budget per attempt, enforced in
  a worker thread (a timed-out attempt is abandoned, counted as a
  failure, and retried);
* **JSON checkpoint/resume** — completed and failed trials are flushed
  to a checkpoint file (atomic rename) after every trial — after every
  completed chunk of trials for a campaign on the process
  pool — and a rerun with the same ``checkpoint_path`` skips finished
  work;
* **pluggable dispatch** — *how* pending trials execute is a
  :class:`repro.experiments.dispatch.DispatchBackend`: ``"serial"``
  (the reference) or ``"process"`` (the chunked
  ``ProcessPoolExecutor`` backend that ``max_workers > 1`` selects by
  default: a campaign's workers each run a chunk of trials through its
  ``run_chunk``, bit-identical per trial; a ``trial_fn`` campaign runs
  one trial per pool task; a trial that kills its worker is recorded
  failed, never run in the parent);
* **graceful degradation** — trials that exhaust their retries are
  recorded in the manifest's ``failed`` map and the run continues
  (unless ``fail_fast``), so a 1000-trial campaign with three bad seeds
  still yields 997 aggregatable results plus an explicit account of
  the rest.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import (
    CheckpointError,
    NumericalError,
    ReproError,
    SimulationFaultError,
    ValidationError,
)
from repro.experiments.dispatch import (
    DispatchBackend,
    make_dispatch_backend,
)
from repro.sim.results import to_jsonable
from repro.utils.retry import RetryPolicy

__all__ = [
    "trial_seed",
    "RunManifest",
    "SupervisedRunner",
]

_CHECKPOINT_VERSION = 1

#: Exception types retried by default: typed repro failures and the
#: numpy linear-algebra errors a degenerate sample path can trigger.
_DEFAULT_RETRYABLE = (ReproError, FloatingPointError, np.linalg.LinAlgError)


def trial_seed(base_seed: int, trial: int, attempt: int = 0) -> int:
    """Deterministic seed for one attempt of one trial.

    Derived through ``numpy.random.SeedSequence`` spawn keys, so seeds
    for different trials (and different retry attempts of one trial)
    are statistically independent, and trial ``k`` of a resumed run
    sees exactly the seed it saw in the original run.
    """
    if trial < 0 or attempt < 0:
        raise ValidationError(
            f"trial and attempt must be >= 0, got {trial}, {attempt}"
        )
    sequence = np.random.SeedSequence(
        entropy=base_seed, spawn_key=(trial, attempt)
    )
    return int(sequence.generate_state(1, dtype=np.uint64)[0])


@dataclass
class RunManifest:
    """Outcome of a supervised run: what completed, failed, was skipped.

    ``completed`` maps trial index to the trial's result; ``failed``
    maps trial index to the final error message; ``skipped`` lists
    trials never attempted (a ``fail_fast`` abort).  ``attempts`` maps
    trial index to the number of attempts consumed.
    """

    base_seed: int
    num_trials: int
    completed: dict[int, Any] = field(default_factory=dict)
    failed: dict[int, str] = field(default_factory=dict)
    skipped: list[int] = field(default_factory=list)
    attempts: dict[int, int] = field(default_factory=dict)

    @property
    def results(self) -> list[Any]:
        """Completed results in trial order."""
        return [self.completed[k] for k in sorted(self.completed)]

    @property
    def num_completed(self) -> int:
        """Number of trials that produced a result."""
        return len(self.completed)

    def summary(self) -> str:
        """One-line account of the run."""
        return (
            f"trials: {len(self.completed)} completed, "
            f"{len(self.failed)} failed, {len(self.skipped)} skipped "
            f"(of {self.num_trials}; base_seed={self.base_seed})"
        )


class SupervisedRunner:
    """Run ``num_trials`` Monte-Carlo trials under supervision.

    Construction is keyword-only::

        SupervisedRunner(trial_fn=fn, num_trials=64, ...)
        SupervisedRunner(scenario=s, num_trials=64, ...)

    Parameters
    ----------
    trial_fn:
        Called as ``trial_fn(trial_index, seed)``; must return a
        JSON-serializable result (numpy scalars/arrays are converted).
        With ``max_workers > 1`` it must also be picklable (a
        module-level function, ``functools.partial`` of one, or a bound
        method of a picklable object).
    scenario:
        A campaign: a :class:`repro.scenario.Scenario`, the Section 6.3
        :class:`repro.experiments.runner.ExampleNetworkCampaign`, or
        any picklable object with ``trial_result(trial, seed)`` (one
        trial, the ``trial_fn``), ``run_chunk(trials, seeds)`` (a
        list of results, each equal to its ``trial_result``; the
        process backend runs chunks through it) and ``chunk_trials``
        (the most trials one chunk should hold; a chunk is also the
        process backend's checkpoint unit).  Mutually exclusive with
        ``trial_fn``.
    num_trials, base_seed:
        The campaign size and the seed the per-trial seeds derive from.
    max_retries:
        Extra attempts after the first, per trial.
    retry_on:
        Exception types considered transient.  Anything else aborts the
        trial immediately (still recorded as failed, no retries burned).
    timeout:
        Wall-clock seconds per attempt, enforced via a worker thread;
        ``None`` disables the thread and runs inline.  Needs the
        serial dispatch backend.
    max_workers:
        ``> 1`` fans trials out to a process pool of that size.
        Per-trial seeding keeps the completed results identical to a
        serial run; a trial that fails in the pool is re-run by the
        serial retry loop.
    dispatch:
        How pending trials execute: ``"serial"``, ``"process"``, or a
        :class:`repro.experiments.dispatch.DispatchBackend` instance.
        ``None`` (default) selects ``"process"`` when
        ``max_workers > 1``, else ``"serial"``.
    backoff_base, backoff_cap, jitter:
        Attempt ``a`` sleeps ``min(cap, base * 2**a) * (1 + U*jitter)``
        before retrying, with ``U`` drawn from a deterministic
        per-(trial, attempt) RNG so runs remain reproducible.
    checkpoint_path:
        JSON checkpoint written as trials finish and loaded (if
        present) before the run; see :meth:`load_checkpoint`.
    fail_fast:
        Re-raise as soon as one trial exhausts its retries; remaining
        trials are recorded as skipped in the manifest attached to the
        raised :class:`repro.errors.SimulationFaultError`.
    sleep:
        Injection point for the backoff clock (tests pass a stub).
    """

    def __init__(
        self,
        *,
        trial_fn: Callable[[int, int], Any] | None = None,
        num_trials: int | None = None,
        scenario=None,
        base_seed: int = 0,
        max_retries: int = 2,
        retry_on: Sequence[type] = _DEFAULT_RETRYABLE,
        timeout: float | None = None,
        max_workers: int | None = None,
        dispatch: "str | DispatchBackend | None" = None,
        backoff_base: float = 0.1,
        backoff_cap: float = 5.0,
        jitter: float = 0.25,
        checkpoint_path: str | Path | None = None,
        fail_fast: bool = False,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if scenario is not None:
            if trial_fn is not None:
                raise ValidationError(
                    "pass either scenario= or trial_fn=, not both"
                )
            trial_fn = scenario.trial_result
        if trial_fn is None or num_trials is None:
            raise ValidationError(
                "SupervisedRunner requires trial_fn= (or scenario=) "
                "and num_trials="
            )
        if max_workers is not None and max_workers < 1:
            raise ValidationError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        if dispatch is None:
            resolved_workers = (
                int(max_workers) if max_workers is not None else 1
            )
            dispatch = "process" if resolved_workers > 1 else "serial"
        backend = make_dispatch_backend(dispatch)
        if backend.name != "serial" and timeout is not None:
            raise ValidationError(
                "a per-attempt timeout needs the serial dispatch "
                f"backend, not '{backend.name}'"
            )
        if num_trials <= 0:
            raise ValidationError(
                f"num_trials must be positive, got {num_trials}"
            )
        if timeout is not None and timeout <= 0:
            raise ValidationError(f"timeout must be positive, got {timeout}")
        self._trial_fn = trial_fn
        self._num_trials = int(num_trials)
        self._base_seed = int(base_seed)
        self._max_retries = int(max_retries)
        self._retry_on = tuple(retry_on)
        self._timeout = timeout
        # The shared deterministic backoff policy (repro.utils.retry);
        # jitter is keyed per (trial, attempt) via the run's base seed.
        self._retry_policy = RetryPolicy(
            max_retries=int(max_retries),
            base=float(backoff_base),
            cap=float(backoff_cap),
            jitter=float(jitter),
            seed=int(base_seed),
        )
        self._checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self._fail_fast = bool(fail_fast)
        self._max_workers = int(max_workers) if max_workers is not None else 1
        self._sleep = sleep
        self._campaign = scenario
        self._dispatch = backend

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def load_checkpoint(self) -> RunManifest:
        """Load prior progress, or an empty manifest when none exists.

        Raises
        ------
        CheckpointError
            If the file is unreadable, not valid JSON, from a different
            checkpoint version, or recorded under a different
            ``base_seed`` / ``num_trials`` than this run.
        """
        manifest = RunManifest(
            base_seed=self._base_seed, num_trials=self._num_trials
        )
        path = self._checkpoint_path
        if path is None or not path.exists():
            return manifest
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"cannot read checkpoint {path}: {exc}"
            ) from exc
        for key in ("version", "base_seed", "num_trials", "completed"):
            if key not in payload:
                raise CheckpointError(
                    f"checkpoint {path} is missing field {key!r}"
                )
        if payload["version"] != _CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint {path} has version {payload['version']}, "
                f"expected {_CHECKPOINT_VERSION}"
            )
        if payload["base_seed"] != self._base_seed:
            raise CheckpointError(
                f"checkpoint {path} was recorded with base_seed "
                f"{payload['base_seed']}, this run uses {self._base_seed}; "
                "resuming would silently mix sample paths"
            )
        if payload["num_trials"] != self._num_trials:
            raise CheckpointError(
                f"checkpoint {path} was recorded for "
                f"{payload['num_trials']} trials, this run asks for "
                f"{self._num_trials}"
            )
        manifest.completed = {
            int(k): v for k, v in payload["completed"].items()
        }
        manifest.failed = {
            int(k): str(v) for k, v in payload.get("failed", {}).items()
        }
        manifest.attempts = {
            int(k): int(v) for k, v in payload.get("attempts", {}).items()
        }
        return manifest

    def _write_checkpoint(self, manifest: RunManifest) -> None:
        path = self._checkpoint_path
        if path is None:
            return
        payload = {
            "version": _CHECKPOINT_VERSION,
            "base_seed": manifest.base_seed,
            "num_trials": manifest.num_trials,
            "completed": {
                str(k): to_jsonable(v)
                for k, v in manifest.completed.items()
            },
            "failed": {str(k): v for k, v in manifest.failed.items()},
            "attempts": {
                str(k): v for k, v in manifest.attempts.items()
            },
        }
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            handle, tmp_name = tempfile.mkstemp(
                dir=str(path.parent), prefix=path.name, suffix=".tmp"
            )
            try:
                with os.fdopen(handle, "w") as stream:
                    json.dump(payload, stream)
                    stream.flush()
                    os.fsync(stream.fileno())
                os.replace(tmp_name, path)
            except BaseException:
                # Never leave a mkstemp orphan behind (a failing
                # json.dump — unserializable result — used to).
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
            # Make the rename itself durable, not just the contents.
            dir_fd = os.open(path.parent, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError as exc:
            raise CheckpointError(
                f"cannot write checkpoint {path}: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _attempt(self, trial: int, attempt: int) -> Any:
        seed = trial_seed(self._base_seed, trial, attempt)
        if self._timeout is None:
            return self._trial_fn(trial, seed)
        with ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(self._trial_fn, trial, seed)
            try:
                return future.result(timeout=self._timeout)
            except FutureTimeoutError:
                future.cancel()
                raise SimulationFaultError(
                    f"trial {trial} attempt {attempt} exceeded the "
                    f"{self._timeout}s timeout"
                ) from None

    def _backoff(self, trial: int, attempt: int) -> None:
        delay = self._retry_policy.delay(attempt, key=trial)
        if delay > 0.0:
            self._sleep(delay)

    @property
    def dispatch(self) -> DispatchBackend:
        """The backend executing this runner's pending trials."""
        return self._dispatch

    def run(self) -> RunManifest:
        """Execute (or resume) the campaign and return its manifest.

        The pending trials are handed to the configured
        :class:`~repro.experiments.dispatch.DispatchBackend`; every
        backend fills the manifest exactly as the serial reference
        would (same per-``(trial, attempt)`` seeds, same retry
        accounting, same fail-fast contract).
        """
        manifest = self.load_checkpoint()
        indices = [
            k
            for k in range(self._num_trials)
            if k not in manifest.completed
        ]
        # Failed trials from a previous run get a fresh chance.
        for k in indices:
            manifest.failed.pop(k, None)
        return self._dispatch.execute(self, manifest, indices)
