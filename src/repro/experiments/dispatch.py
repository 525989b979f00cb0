"""Pluggable Monte-Carlo dispatch: serial or a chunked process pool.

:class:`~repro.experiments.supervisor.SupervisedRunner` owns the
campaign bookkeeping — deterministic per-trial seeds, retries with
backoff, checkpoint/resume, the fail-fast contract — and delegates
*how the pending trials are executed* to a :class:`DispatchBackend`:

* :class:`SerialDispatch` — one trial at a time on the calling thread;
  the reference semantics every other backend must reproduce;
* :class:`ProcessDispatch` — a ``ProcessPoolExecutor`` whose tasks are
  chunks of trials at their attempt-0 seeds.  A scenario campaign
  splits its trials evenly across the pool and each worker samples its
  chunk's ``(B, N, T)`` arrival block and runs it through
  :class:`repro.sim.batch.BatchFluidGPSServer` — per-trial results
  bit-for-bit those of the scalar engine, one pickled scenario per
  chunk, no sampling in the parent.  An arbitrary ``trial_fn``
  campaign sends one trial per chunk.  Checkpoints are written once per
  completed chunk: per chunk of trials for a scenario campaign, per
  trial for a ``trial_fn`` campaign.

Chunk failures degrade, they do not abort: if a chunk raises (one bad
trial poisons the whole batch — the batch engine cannot tell which),
every trial of that chunk is re-run through the serial attempt/retry
loop, starting from attempt 0 with the same seeds, so outcomes
(results, attempt counts, failures) still match the serial reference.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.errors import SimulationFaultError, ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.supervisor import RunManifest, SupervisedRunner
    from repro.scenario import Scenario

__all__ = [
    "DispatchBackend",
    "SerialDispatch",
    "ProcessDispatch",
    "DISPATCH_BACKENDS",
    "make_dispatch_backend",
]

#: Names accepted by ``SupervisedRunner(dispatch=...)``.
DISPATCH_BACKENDS: tuple[str, ...] = ("serial", "process")


class DispatchBackend:
    """Executes the pending trials of one supervised campaign.

    ``execute`` receives the runner (for seeds, retry policy,
    checkpoint writes and the trial function), the manifest loaded
    from the checkpoint, and the pending trial indices; it must fill
    ``manifest.completed`` / ``failed`` / ``attempts`` exactly as the
    serial reference would, honor ``fail_fast`` (record the remaining
    trials as skipped and raise
    :class:`repro.errors.SimulationFaultError`), and write a
    checkpoint after every state change it makes.
    """

    #: The backend's registry name.
    name: str = ""

    def execute(
        self,
        runner: "SupervisedRunner",
        manifest: "RunManifest",
        indices: list[int],
    ) -> "RunManifest":
        raise NotImplementedError


def _fail_fast_abort(manifest: "RunManifest") -> SimulationFaultError:
    failed = sorted(manifest.failed)
    return SimulationFaultError(
        f"fail-fast abort: trial {failed[-1]} exhausted its "
        f"retries; manifest: {manifest.summary()}"
    )


class SerialDispatch(DispatchBackend):
    """One trial at a time, with inline backoff sleeps — the reference."""

    name = "serial"

    def execute(
        self,
        runner: "SupervisedRunner",
        manifest: "RunManifest",
        indices: list[int],
    ) -> "RunManifest":
        aborted = False
        for trial in indices:
            if aborted:
                manifest.skipped.append(trial)
                continue
            attempts_used = 0
            while True:
                attempts_used += 1
                try:
                    result = runner._attempt(trial, attempts_used - 1)
                except runner._retry_on as exc:
                    if attempts_used <= runner._max_retries:
                        runner._backoff(trial, attempts_used - 1)
                        continue
                    manifest.failed[trial] = (
                        f"{type(exc).__name__}: {exc}"
                    )
                    manifest.attempts[trial] = attempts_used
                    runner._write_checkpoint(manifest)
                    if runner._fail_fast:
                        aborted = True
                    break
                except Exception as exc:  # non-retryable: record, no retry
                    manifest.failed[trial] = (
                        f"{type(exc).__name__}: {exc}"
                    )
                    manifest.attempts[trial] = attempts_used
                    runner._write_checkpoint(manifest)
                    if runner._fail_fast:
                        aborted = True
                    break
                else:
                    manifest.completed[trial] = result
                    manifest.attempts[trial] = attempts_used
                    runner._write_checkpoint(manifest)
                    break
        if aborted and runner._fail_fast:
            raise _fail_fast_abort(manifest)
        return manifest


# ----------------------------------------------------------------------
# process-pool dispatch
# ----------------------------------------------------------------------
def _sample_trial_block(
    scenario: "Scenario", seeds: Sequence[int]
) -> np.ndarray:
    """Sample per-trial arrival matrices into one ``(B, N, T)`` block.

    Each trial's matrix is sampled exactly as
    :meth:`repro.scenario.Scenario.trial_result` samples it — same RNG
    construction, same per-source generate order, same fault
    adjustment — so the batched trial is bit-for-bit the serial one.
    """
    block = np.empty(
        (len(seeds), scenario.num_sessions, scenario.horizon), dtype=float
    )
    for row, seed in zip(block, seeds):
        rng = np.random.default_rng(seed)
        for k, source in enumerate(scenario.sources):
            row[k] = source.generate(scenario.horizon, rng)
        row[:] = scenario._fault_adjusted(row)
    return block


def _run_chunk(
    scenario: "Scenario",
    capacities: Any,
    trials: list[int],
    seeds: list[int],
) -> list[Any]:
    """Worker: sample one chunk and run it through the batch engine."""
    block = _sample_trial_block(scenario, seeds)
    result = scenario.batch_server().run(block, capacities=capacities)
    payloads = []
    for index, trial in enumerate(trials):
        payload = result.trial(index).summary()
        payload["trial"] = int(trial)
        payloads.append(payload)
    return payloads


def _run_trials(
    trial_fn: Any, trials: list[int], seeds: list[int]
) -> list[Any]:
    """Worker: run each trial of one chunk through ``trial_fn``."""
    return [trial_fn(trial, seed) for trial, seed in zip(trials, seeds)]


class ProcessDispatch(DispatchBackend):
    """Process-pool dispatch: each pool task is one chunk of trials.

    A chunk is a list of trials plus their attempt-0 seeds, so its
    results are the ones the serial path computes first.  What a chunk
    holds follows from the runner:

    * a scenario-backed runner (``scenario=``) splits the pending
      trials evenly across the pool (capped at 128 trials a chunk); the
      worker samples the chunk's ``(B, N, T)`` arrival block itself and
      runs it through :meth:`~repro.scenario.Scenario.batch_server`,
      whose per-trial results are bit-for-bit those of the scalar
      engine;
    * an arbitrary ``trial_fn`` runner sends one trial per chunk: a
      pool round trip costs far less than a trial, and the campaign
      keeps one checkpoint per trial.

    A chunk that raises falls back to :class:`SerialDispatch`, which
    re-runs its trials from attempt 0 with the same seeds and owns
    retries with backoff and fail-fast, so ``completed``, ``attempts``
    and ``failed`` match serial.  Under ``fail_fast`` the first failed
    chunk stops new launches: the chunks still queued join the
    fallback, which raises at the first trial that exhausts its
    retries and records the rest as skipped.  A dead worker breaks the
    pool, so its queued chunks join the fallback as well.
    """

    name = "process"

    @staticmethod
    def _chunks(
        indices: list[int], max_workers: int, *, batched: bool
    ) -> list[list[int]]:
        size = 1
        if batched:
            size = min(128, math.ceil(len(indices) / max_workers))
        return [
            indices[i : i + size] for i in range(0, len(indices), size)
        ]

    def execute(
        self,
        runner: "SupervisedRunner",
        manifest: "RunManifest",
        indices: list[int],
    ) -> "RunManifest":
        from repro.experiments.supervisor import trial_seed

        if not indices:
            return manifest
        scenario = runner._scenario
        if scenario is None:
            task, context = _run_trials, (runner._trial_fn,)
        else:
            task = _run_chunk
            context = (scenario, scenario._fault_capacities())
        workers = runner._max_workers
        queue = deque(
            self._chunks(indices, workers, batched=scenario is not None)
        )
        fallback: list[int] = []
        inflight: dict[Any, list[int]] = {}
        with ProcessPoolExecutor(max_workers=workers) as pool:

            def launch_more() -> None:
                # At most one chunk waits in the pool beyond the ones
                # running, so its task queue stays O(workers) long.
                while queue and len(inflight) <= workers:
                    chunk = queue.popleft()
                    seeds = [
                        trial_seed(runner._base_seed, trial, 0)
                        for trial in chunk
                    ]
                    future = pool.submit(task, *context, chunk, seeds)
                    inflight[future] = chunk

            launch_more()
            while inflight:
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                for future in done:
                    chunk = inflight.pop(future)
                    error = future.exception()
                    if error is None:
                        for trial, payload in zip(chunk, future.result()):
                            manifest.completed[trial] = payload
                            manifest.attempts[trial] = 1
                        runner._write_checkpoint(manifest)
                        continue
                    # A failed chunk (a bad trial, a poisoned batch, a
                    # dead worker) goes to the serial fallback.  After a
                    # fail-fast failure, or once the pool is broken, no
                    # chunk is launched and the queue joins it too.
                    fallback.extend(chunk)
                    if runner._fail_fast or isinstance(
                        error, BrokenProcessPool
                    ):
                        while queue:
                            fallback.extend(queue.popleft())
                launch_more()
        if fallback:
            return SerialDispatch().execute(
                runner, manifest, sorted(fallback)
            )
        return manifest


def make_dispatch_backend(spec: "str | DispatchBackend") -> DispatchBackend:
    """Resolve a backend name (or pass an instance through)."""
    if isinstance(spec, DispatchBackend):
        return spec
    if spec == "serial":
        return SerialDispatch()
    # "shared-memory" is the former name of the chunked backend, still
    # passed by benchmarks/gpsbench's mc-batch workload.
    if spec in ("process", "shared-memory"):
        return ProcessDispatch()
    raise ValidationError(
        f"dispatch backend must be one of {DISPATCH_BACKENDS} or a "
        f"DispatchBackend instance, got {spec!r}"
    )
