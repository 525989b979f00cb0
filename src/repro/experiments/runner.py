"""Regenerate every paper artifact as plain-text reports.

Drives the same computations as the benchmark harness but writes the
artifacts to files (or returns them as strings), so the full
reproduction can be archived with one call — also the engine behind
the ``python -m repro`` command line.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.analysis.grid import tail_probability_matrix
from repro.errors import ReproError
from repro.experiments.paper_example import (
    PAPER_TABLE2,
    SESSION_NAMES,
    TABLE1_PARAMETERS,
    delay_bound_curve,
    example_network,
    figure3_delay_bounds,
    figure4_improved_bounds,
    sample_example_arrivals,
    table1_sources,
    table2_characterizations,
)
from repro.experiments.supervisor import RunManifest, SupervisedRunner
from repro.experiments.tables import format_comparison, format_table
from repro.faults.injection import guard_finite
from repro.sim.network_sim import FluidNetworkSimulator

__all__ = [
    "render_table1",
    "render_table2",
    "render_figure3",
    "render_figure4",
    "render_simulation_check",
    "ExampleNetworkCampaign",
    "delay_frequencies",
    "aggregate_frequencies",
    "render_supervised_simulation",
    "run_all",
    "run_all_resilient",
]

_DELAY_GRID = np.arange(0.0, 51.0, 5.0)

#: Delay thresholds (slots) at which the Monte-Carlo check compares the
#: empirical CCDF against the Figure 3/4 bounds.
_CHECK_DELAYS = (3.0, 6.0, 9.0)

#: Slots discarded as warm-up before measuring delay frequencies.
_WARMUP_SLOTS = 1000


def render_table1() -> str:
    """Table 1 as text."""
    rows = [
        [name, p, q, lam, source.mean_rate]
        for name, (p, q, lam), source in zip(
            SESSION_NAMES, TABLE1_PARAMETERS, table1_sources()
        )
    ]
    return format_table(
        ["session", "p_i", "q_i", "lambda_i", "mean rate"], rows
    )


def render_table2() -> str:
    """Table 2 (both sets, ours vs paper) as text."""
    blocks = []
    for parameter_set in (1, 2):
        ours = table2_characterizations(parameter_set)
        theirs = PAPER_TABLE2[parameter_set]
        rows = [
            [
                name,
                ebb.rho,
                ebb.prefactor,
                row.prefactor,
                ebb.decay_rate,
                row.alpha,
            ]
            for name, ebb, row in zip(SESSION_NAMES, ours, theirs)
        ]
        blocks.append(
            f"Set {parameter_set}\n"
            + format_table(
                [
                    "session",
                    "rho",
                    "Lambda",
                    "Lambda(paper)",
                    "alpha",
                    "alpha(paper)",
                ],
                rows,
            )
        )
    return "\n\n".join(blocks)


def _render_curves(bounds, label: str) -> str:
    series = {
        name: delay_bound_curve(
            bounds[name].end_to_end_delay, _DELAY_GRID
        )
        for name in SESSION_NAMES
    }
    return format_comparison(label, _DELAY_GRID, series)


def render_figure3() -> str:
    """Figure 3(a)/(b) series as text."""
    return "\n\n".join(
        _render_curves(
            figure3_delay_bounds(parameter_set),
            f"Figure 3, Set {parameter_set}: log10 Pr{{D_net >= d}}",
        )
        for parameter_set in (1, 2)
    )


def render_figure4() -> str:
    """Figure 4 series as text."""
    return "\n\n".join(
        _render_curves(
            figure4_improved_bounds(parameter_set),
            f"Figure 4, Set {parameter_set}: log10 Pr{{D_net >= d}}",
        )
        for parameter_set in (1, 2)
    )


def render_simulation_check(
    *, num_slots: int = 60_000, seed: int = 0
) -> str:
    """Monte-Carlo validation block: simulated CCDF vs both bounds."""
    frequencies = ExampleNetworkCampaign(num_slots).trial_result(0, seed)
    fig3 = figure3_delay_bounds(1)
    fig4 = figure4_improved_bounds(1)
    fig4_at, fig3_at = _check_bound_matrices(fig3, fig4)
    rows = []
    for i, name in enumerate(SESSION_NAMES):
        for j, d in enumerate(_CHECK_DELAYS):
            rows.append(
                [
                    name,
                    d,
                    frequencies[name][str(d)],
                    fig4_at[i, j],
                    fig3_at[i, j],
                ]
            )
    return format_table(
        ["session", "d", "simulated", "Fig4 bound", "Fig3 bound"],
        rows,
    )


def _check_bound_matrices(fig3, fig4):
    """Figure 3/4 end-to-end bounds at the check delays, vectorized.

    The paper compares ``Pr{D >= d}`` against the bound evaluated at
    ``d - 1`` (the slotted simulator counts a delay of ``d`` slots as
    strictly exceeding ``d - 1``); one
    :func:`repro.analysis.grid.tail_probability_matrix` call per figure
    replaces the per-cell scalar evaluations.
    """
    shifted = [d - 1.0 for d in _CHECK_DELAYS]
    fig4_at = tail_probability_matrix(
        [fig4[name].end_to_end_delay for name in SESSION_NAMES], shifted
    )
    fig3_at = tail_probability_matrix(
        [fig3[name].end_to_end_delay for name in SESSION_NAMES], shifted
    )
    return fig4_at, fig3_at


def delay_frequencies(simulation) -> dict[str, dict[str, float]]:
    """Per-session delay-exceedance frequencies of a network run.

    ``{session: {str(d): Pr-hat{D_net >= d}}}`` over the post-warm-up
    slots, guarded: a non-finite frequency (e.g. from an injected
    numeric fault) raises :class:`repro.errors.NumericalError`.
    """
    frequencies: dict[str, dict[str, float]] = {}
    for name in SESSION_NAMES:
        delays = simulation.end_to_end_delays(name)[_WARMUP_SLOTS:]
        delays = delays[~np.isnan(delays)]
        frequencies[name] = {
            str(d): guard_finite(
                f"{name} frequency at d={d}",
                float(np.mean(delays >= d)) if delays.size else 0.0,
            )
            for d in _CHECK_DELAYS
        }
    return frequencies


def aggregate_frequencies(
    results,
) -> dict[str, dict[str, dict[str, float]]]:
    """Mean/std of per-trial exceedance frequencies across trials.

    ``results`` is a list of :class:`ExampleNetworkCampaign` records;
    returns ``{session: {str(d): {"mean": ..., "std": ...}}}``.
    """
    aggregate: dict[str, dict[str, dict[str, float]]] = {}
    for name in SESSION_NAMES:
        aggregate[name] = {}
        for d in _CHECK_DELAYS:
            samples = [r[name][str(d)] for r in results]
            aggregate[name][str(d)] = {
                "mean": float(np.mean(samples)) if samples else float("nan"),
                "std": float(np.std(samples)) if samples else float("nan"),
            }
    return aggregate


#: Traces one network sub-batch may hold.  A Figure 2 trial traces 24
#: float series per slot: ingress and egress of 4 sessions, backlog and
#: service of 8 (session, node) pairs.
_NETWORK_CHUNK_BYTES = 128 * 2**20


@dataclass(frozen=True)
class ExampleNetworkCampaign:
    """The Section 6.3 Monte-Carlo check as a picklable campaign for
    ``SupervisedRunner(scenario=...)``: a trial runs the Set 1 Figure 2
    network for ``num_slots`` slots on Table 1 sources sampled from
    its seed, and returns :func:`delay_frequencies` of the run.
    """

    num_slots: int = 60_000

    @property
    def chunk_trials(self) -> int:
        """Most trials one chunk should hold: one sub-batch, so the
        process backend checkpoints after every sub-batch."""
        return max(1, _NETWORK_CHUNK_BYTES // (24 * 8 * self.num_slots))

    def trial_result(self, trial: int, seed: int) -> dict:
        """One trial: the one-trial case of :meth:`run_chunk`."""
        return self.run_chunk([trial], [seed])[0]

    def run_chunk(self, trials, seeds) -> list[dict]:
        """Run a chunk of trials on the batched network stepper, in
        sub-batches of at most ``_NETWORK_CHUNK_BYTES`` of traces.
        Each trial's result is bit-for-bit its one-trial run."""
        del trials  # results carry no label
        simulator = FluidNetworkSimulator(example_network(1))
        size = self.chunk_trials
        results = []
        for start in range(0, len(seeds), size):
            arrivals = sample_example_arrivals(
                seeds[start : start + size], self.num_slots
            )
            results.extend(
                delay_frequencies(trial)
                for trial in simulator.run_batch(arrivals)
            )
        return results


def render_supervised_simulation(
    *,
    num_trials: int,
    num_slots: int = 60_000,
    base_seed: int = 0,
    checkpoint_path: str | Path | None = None,
    fail_fast: bool = False,
    timeout: float | None = None,
    max_workers: int | None = None,
) -> tuple[str, RunManifest]:
    """Supervised multi-trial Monte-Carlo check of the Section 6.3 bounds.

    Runs ``num_trials`` independent simulations under
    :class:`SupervisedRunner` (deterministic per-trial seeds, retries,
    optional checkpoint/resume, process fan-out with
    ``max_workers > 1``), aggregates the per-trial exceedance
    frequencies of the completed trials, and renders them against the
    Figure 3/4 bounds.  Returns ``(report text, manifest)``.
    """
    runner = SupervisedRunner(
        scenario=ExampleNetworkCampaign(num_slots),
        num_trials=num_trials,
        base_seed=base_seed,
        checkpoint_path=checkpoint_path,
        fail_fast=fail_fast,
        timeout=timeout,
        max_workers=max_workers,
    )
    manifest = runner.run()
    fig3 = figure3_delay_bounds(1)
    fig4 = figure4_improved_bounds(1)
    fig4_at, fig3_at = _check_bound_matrices(fig3, fig4)
    rows = []
    results = manifest.results
    for i, name in enumerate(SESSION_NAMES):
        for j, d in enumerate(_CHECK_DELAYS):
            samples = [r[name][str(d)] for r in results]
            mean = float(np.mean(samples)) if samples else float("nan")
            spread = float(np.std(samples)) if samples else float("nan")
            rows.append(
                [
                    name,
                    d,
                    mean,
                    spread,
                    fig4_at[i, j],
                    fig3_at[i, j],
                ]
            )
    table = format_table(
        [
            "session",
            "d",
            "simulated",
            "std",
            "Fig4 bound",
            "Fig3 bound",
        ],
        rows,
    )
    return f"{manifest.summary()}\n{table}", manifest


def run_all_resilient(
    output_dir: str | Path | None = None,
) -> tuple[dict[str, str], dict[str, Exception]]:
    """Render every artifact, surviving individual failures.

    Returns ``(artifacts, errors)``: every artifact that rendered is in
    ``artifacts`` (and written to ``<output_dir>/<name>.txt`` when a
    directory is given); every artifact that raised is in ``errors``
    with the exception that killed it.  One bad artifact no longer
    takes down the other four.
    """
    renderers = {
        "table1": render_table1,
        "table2": render_table2,
        "figure3": render_figure3,
        "figure4": render_figure4,
        "simulation_check": render_simulation_check,
    }
    artifacts: dict[str, str] = {}
    errors: dict[str, Exception] = {}
    for name, render in renderers.items():
        try:
            artifacts[name] = render()
        except (ReproError, ArithmeticError, ValueError) as exc:
            errors[name] = exc
    if output_dir is not None:
        directory = Path(output_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for name, text in artifacts.items():
            (directory / f"{name}.txt").write_text(text + "\n")
    return artifacts, errors


def run_all(output_dir: str | Path | None = None) -> dict[str, str]:
    """Render every artifact; optionally write them under a directory.

    Returns ``{artifact name: text}``.  With ``output_dir`` set, each
    artifact is also written to ``<output_dir>/<name>.txt``.  The first
    render failure propagates; use :func:`run_all_resilient` to collect
    partial results instead.
    """
    artifacts, errors = run_all_resilient(output_dir)
    if errors:
        raise next(iter(errors.values()))
    return artifacts
