"""Pluggable Monte-Carlo dispatch: serial, process-pickle, chunked batch.

:class:`~repro.experiments.supervisor.SupervisedRunner` owns the
campaign bookkeeping — deterministic per-trial seeds, retries with
backoff, checkpoint/resume, the fail-fast contract — and delegates
*how the pending trials are executed* to a :class:`DispatchBackend`:

* :class:`SerialDispatch` — one trial at a time on the calling thread;
  the reference semantics every other backend must reproduce;
* :class:`ProcessPickleDispatch` — the legacy fan-out: each trial is a
  ``ProcessPoolExecutor`` task, pickling the trial function (and any
  ``Scenario`` it closes over) per submission.  General — it runs any
  picklable ``trial_fn`` — but the per-task pickle/unpickle overhead
  swamps short trials, which is why ``BENCH_engine.json`` measured it
  at ~1.0× on 4 workers;
* :class:`SharedMemoryDispatch` — the fast path for scenario
  campaigns: each pool task is one chunk of trials, and the worker
  samples the chunk's ``(B, N, T)`` arrival block itself (the exact
  attempt-0 seeds of the serial path) and runs it through
  :class:`repro.sim.batch.BatchFluidGPSServer` — whose per-trial
  results are bit-for-bit those of the scalar engine, so
  ``manifest.completed`` is identical to a serial run.  One pickled
  scenario per *chunk* instead of one pickle per *trial*, no sampling
  in the parent, and the simulation itself runs vectorized.

Chunk failures degrade, they do not abort: if a chunked batch raises
(one bad trial poisons the whole block — the batch engine cannot tell
which), every trial of that chunk is re-run through the serial
attempt/retry loop, starting from attempt 0 with the same seeds, so
outcomes (results, attempt counts, fail-fast behavior) still match the
serial reference exactly.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.errors import SimulationFaultError, ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.supervisor import RunManifest, SupervisedRunner
    from repro.scenario import Scenario

__all__ = [
    "DispatchBackend",
    "SerialDispatch",
    "ProcessPickleDispatch",
    "SharedMemoryDispatch",
    "DISPATCH_BACKENDS",
    "make_dispatch_backend",
]

#: Names accepted by ``SupervisedRunner(dispatch=...)``.
DISPATCH_BACKENDS: tuple[str, ...] = (
    "serial",
    "process",
    "shared-memory",
)


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


class ProcessPickleDispatch(DispatchBackend):
    """The legacy process-pool fan-out: one pickled task per trial.

    Seeds are the same per-``(trial, attempt)`` values the serial path
    uses, so ``manifest.completed`` is identical to a serial run.
    Retryable failures re-enter the submission queue immediately (no
    backoff sleep — the pool's other workers keep the wall clock
    busy); checkpoints are written as completions arrive.
    """

    name = "process"

    def execute(
        self,
        runner: "SupervisedRunner",
        manifest: "RunManifest",
        indices: list[int],
    ) -> "RunManifest":
        from repro.experiments.supervisor import trial_seed

        aborted = False
        attempts: dict[int, int] = {trial: 0 for trial in indices}
        with ProcessPoolExecutor(max_workers=runner._max_workers) as pool:

            def submit(trial: int):
                attempt = attempts[trial]
                attempts[trial] += 1
                seed = trial_seed(runner._base_seed, trial, attempt)
                return pool.submit(runner._trial_fn, trial, seed)

            pending = {submit(trial): trial for trial in indices}
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    trial = pending.pop(future)
                    if aborted:
                        if trial not in manifest.failed:
                            manifest.skipped.append(trial)
                        continue
                    error = future.exception()
                    if error is None:
                        manifest.completed[trial] = future.result()
                        manifest.attempts[trial] = attempts[trial]
                        runner._write_checkpoint(manifest)
                        continue
                    retryable = isinstance(error, runner._retry_on)
                    if retryable and attempts[trial] <= runner._max_retries:
                        new_future = submit(trial)
                        pending[new_future] = trial
                        continue
                    manifest.failed[trial] = (
                        f"{type(error).__name__}: {error}"
                    )
                    manifest.attempts[trial] = attempts[trial]
                    runner._write_checkpoint(manifest)
                    if runner._fail_fast:
                        aborted = True
                        for other in pending.values():
                            manifest.skipped.append(other)
                        for other_future in pending:
                            other_future.cancel()
                        pending = {}
                        break
        manifest.skipped.sort()
        if aborted and runner._fail_fast:
            raise _fail_fast_abort(manifest)
        return manifest


# ----------------------------------------------------------------------
# chunked batch dispatch
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
    trials: list[int],
    seeds: list[int],
    capacities: Any,
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


class SharedMemoryDispatch(DispatchBackend):
    """Chunked ``(B, N, T)`` batch dispatch: workers sample and simulate.

    Each pool task is one chunk of trials: the worker samples the
    chunk's arrivals itself (attempt-0 seeds, so the block is the one
    the serial path would sample) and runs it through the scenario's
    :meth:`~repro.scenario.Scenario.batch_server`.  Requires the runner
    to be scenario-backed (``scenario=``).  ``chunk_size`` bounds both
    a worker's block size and the work granularity; the default splits
    the pending trials evenly across the pool (one chunk per worker,
    capped at 128 trials).

    The name is historical: the parent once sampled every chunk and
    handed it over in a shared-memory segment.  Now only the scenario,
    the chunk's trial indices and its seeds are pickled per chunk.
    """

    name = "shared-memory"

    def __init__(self, *, chunk_size: int | None = None) -> None:
        if chunk_size is not None and chunk_size < 1:
            raise ValidationError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        self._chunk_size = chunk_size

    def _chunks(
        self, indices: list[int], max_workers: int
    ) -> list[list[int]]:
        size = self._chunk_size
        if size is None:
            size = max(1, math.ceil(len(indices) / max(1, max_workers)))
            size = min(size, 128)
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

        scenario = runner._scenario
        if scenario is None:
            raise ValidationError(
                "dispatch='shared-memory' requires a scenario-backed "
                "runner (SupervisedRunner(scenario=...)); arbitrary "
                "trial_fn campaigns need dispatch='process'"
            )
        if not indices:
            return manifest
        capacities = scenario._fault_capacities()
        queue = deque(self._chunks(indices, runner._max_workers))
        fallback: list[int] = []
        inflight: dict[Any, list[int]] = {}
        with ProcessPoolExecutor(max_workers=runner._max_workers) as pool:

            def launch(chunk: list[int]) -> None:
                seeds = [
                    trial_seed(runner._base_seed, trial, 0)
                    for trial in chunk
                ]
                future = pool.submit(
                    _run_chunk, scenario, chunk, seeds, capacities
                )
                inflight[future] = chunk

            # Keep at most one chunk queued per worker beyond the ones
            # running, so the pool's task queue stays O(workers) long.
            while queue and len(inflight) <= runner._max_workers:
                launch(queue.popleft())
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
                    else:
                        # A poisoned chunk (one bad trial, a broken
                        # pool) falls back to the serial per-trial
                        # loop, which re-runs attempt 0 with the same
                        # seeds and owns the retry/fail-fast logic.
                        fallback.extend(chunk)
                while queue and len(inflight) <= runner._max_workers:
                    launch(queue.popleft())
        if fallback:
            return SerialDispatch().execute(
                runner, manifest, sorted(fallback)
            )
        return manifest


def make_dispatch_backend(
    spec: "str | DispatchBackend", *, chunk_size: int | None = None
) -> DispatchBackend:
    """Resolve a backend name (or pass an instance through)."""
    if isinstance(spec, DispatchBackend):
        return spec
    if spec == "serial":
        return SerialDispatch()
    if spec == "process":
        return ProcessPickleDispatch()
    if spec == "shared-memory":
        return SharedMemoryDispatch(chunk_size=chunk_size)
    raise ValidationError(
        f"dispatch backend must be one of {DISPATCH_BACKENDS} or a "
        f"DispatchBackend instance, got {spec!r}"
    )
