"""Pluggable Monte-Carlo dispatch: serial or a chunked process pool.

:class:`~repro.experiments.supervisor.SupervisedRunner` owns the
campaign bookkeeping — deterministic per-trial seeds, retries with
backoff, checkpoint/resume, the fail-fast contract — and delegates
*how the pending trials are executed* to a :class:`DispatchBackend`:

* :class:`SerialDispatch` — one trial at a time on the calling thread;
  the reference semantics every other backend must reproduce;
* :class:`ProcessDispatch` — a ``ProcessPoolExecutor`` whose tasks are
  chunks of trials at their attempt-0 seeds.  A campaign (a
  :class:`repro.scenario.Scenario`, the Section 6.3
  :class:`repro.experiments.runner.ExampleNetworkCampaign`, or any
  picklable object with ``trial_result(trial, seed)``,
  ``run_chunk(trials, seeds)`` and ``chunk_trials``) splits its trials
  evenly across the pool, at most ``campaign.chunk_trials`` a chunk,
  and each worker runs ``campaign.run_chunk`` on its chunk — the
  campaign samples and batches, per-trial results bit-for-bit its
  ``trial_result``.  An arbitrary ``trial_fn`` campaign sends one
  trial per chunk.  Checkpoints are written once per completed chunk.

Chunk failures degrade, they do not abort: if a chunk raises (one bad
trial poisons the whole batch — the batch engine cannot tell which),
every trial of that chunk is re-run through the serial attempt/retry
loop, starting from attempt 0 with the same seeds, so outcomes
(results, attempt counts, failures) still match the serial reference.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Any

from repro.errors import SimulationFaultError, ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.supervisor import RunManifest, SupervisedRunner

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
#: The ``failed`` reason of a trial whose worker died twice.
_WORKER_DIED = (
    "worker_died: the worker process exited while running this trial, "
    "in its chunk and again alone"
)


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

    * a campaign-backed runner (``scenario=``, any object with
      ``trial_result``, ``run_chunk`` and ``chunk_trials``) splits the
      pending trials evenly across the pool (capped at the campaign's
      ``chunk_trials``: 128 for a scenario, one traced sub-batch for
      the Section 6.3 network) and the worker calls
      ``campaign.run_chunk(trials, seeds)``, which samples and runs
      the chunk itself;
    * an arbitrary ``trial_fn`` runner sends one trial per chunk: a
      pool round trip costs far less than a trial, and the campaign
      keeps one checkpoint per trial.

    A chunk that raises falls back to :class:`SerialDispatch`, which
    re-runs its trials from attempt 0 with the same seeds and owns
    retries with backoff and fail-fast, so ``completed``, ``attempts``
    and ``failed`` match serial.  Under ``fail_fast`` the first failed
    chunk stops new launches: the chunks still queued join the
    fallback, which raises at the first trial that exhausts its
    retries and records the rest as skipped.

    A dead worker breaks the pool.  Each trial that was in flight then
    runs alone in a fresh single-worker pool; one whose solo run kills
    its worker too is recorded failed with a ``worker_died`` reason
    (under ``fail_fast`` the campaign aborts there, after the serial
    re-run of the chunks that had raised) and never runs in the
    parent.  The queued chunks go on in a fresh pool.
    """

    name = "process"

    @staticmethod
    def _chunks(
        indices: list[int], max_workers: int, *, cap: int
    ) -> list[list[int]]:
        size = min(cap, math.ceil(len(indices) / max_workers))
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
        campaign = runner._campaign
        task = (
            functools.partial(_run_trials, runner._trial_fn)
            if campaign is None
            else campaign.run_chunk
        )
        fail_fast = runner._fail_fast
        workers = runner._max_workers
        cap = 1 if campaign is None else campaign.chunk_trials
        queue = deque(self._chunks(indices, workers, cap=cap))
        fallback: list[int] = []

        def submit(pool: ProcessPoolExecutor, chunk: list[int]) -> Any:
            seeds = [
                trial_seed(runner._base_seed, trial, 0) for trial in chunk
            ]
            return pool.submit(task, chunk, seeds)

        def complete(chunk: list[int], payloads: list[Any]) -> None:
            for trial, payload in zip(chunk, payloads):
                manifest.completed[trial] = payload
                manifest.attempts[trial] = 1
            runner._write_checkpoint(manifest)

        def failed(chunk: list[int]) -> None:
            fallback.extend(chunk)
            if fail_fast:
                while queue:
                    fallback.extend(queue.popleft())

        def pool_round() -> list[int]:
            """Run queued chunks until the queue empties or a worker
            dies; returns the trials in flight when the pool broke."""
            lost: list[int] = []
            inflight: dict[Any, list[int]] = {}
            with ProcessPoolExecutor(max_workers=workers) as pool:

                def launch_more() -> None:
                    # At most one chunk waits in the pool beyond the
                    # ones running, so its task queue stays O(workers).
                    while queue and not lost and len(inflight) <= workers:
                        chunk = queue.popleft()
                        try:
                            inflight[submit(pool, chunk)] = chunk
                        except BrokenProcessPool:
                            queue.appendleft(chunk)
                            return

                launch_more()
                while inflight:
                    done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                    for future in done:
                        chunk = inflight.pop(future)
                        error = future.exception()
                        if error is None:
                            complete(chunk, future.result())
                        elif isinstance(error, BrokenProcessPool):
                            lost.extend(chunk)
                        else:
                            failed(chunk)
                    launch_more()
            return sorted(lost)

        def solo_round(trials: list[int]) -> bool:
            """Run each trial alone; True when fail-fast must abort."""
            pool = None
            try:
                for trial in trials:
                    if pool is None:
                        pool = ProcessPoolExecutor(max_workers=1)
                    try:
                        payloads = submit(pool, [trial]).result()
                    except BrokenProcessPool:
                        pool.shutdown()
                        pool = None
                        manifest.failed[trial] = _WORKER_DIED
                        manifest.attempts[trial] = 1
                        runner._write_checkpoint(manifest)
                        if fail_fast:
                            rest = trials[trials.index(trial) + 1 :]
                            manifest.skipped.extend(rest)
                            return True
                    except Exception:
                        failed([trial])
                    else:
                        complete([trial], payloads)
            finally:
                if pool is not None:
                    pool.shutdown()
            return False

        while queue:
            lost = pool_round()
            if lost and solo_round(lost):
                # The queued chunks never start; the trials whose chunk
                # raised still get their serial re-run, which may abort
                # first on a failure of its own.
                manifest.skipped.extend(t for chunk in queue for t in chunk)
                try:
                    SerialDispatch().execute(
                        runner, manifest, sorted(fallback)
                    )
                finally:
                    manifest.skipped.sort()
                    runner._write_checkpoint(manifest)
                raise _fail_fast_abort(manifest)
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
