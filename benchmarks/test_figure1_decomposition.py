"""F1 — Figure 1: validity of the GPS decomposition.

Figure 1 is the paper's schematic of the decomposition (a GPS server
versus N fictitious dedicated-rate servers).  This bench exercises it
quantitatively: on simulated sample paths the virtual backlogs
``delta_i(t)`` must dominate the true GPS backlogs in the sense of
Lemma 1 (prefix sums) and Lemma 3 (per-session with the psi
correction), and the bench reports how tight the domination is.
"""

import numpy as np

from benchmarks.conftest import report
from repro.core.decomposition import decompose
from repro.core.ebb import EBB
from repro.core.gps import GPSConfig, Session
from repro.experiments.tables import format_table
from repro.markov.onoff import OnOffSource
from repro.sim.fluid import FluidGPSServer
from repro.traffic.sources import OnOffTraffic

NUM_SLOTS = 60_000


def run_decomposition_experiment():
    models = [
        OnOffSource(0.3, 0.7, 0.5),
        OnOffSource(0.4, 0.4, 0.4),
        OnOffSource(0.3, 0.3, 0.3),
    ]
    rhos = [0.2, 0.25, 0.2]
    phis = [1.0, 2.0, 1.5]
    config = GPSConfig(
        1.0,
        [
            Session(f"s{i}", EBB(rho, 1.0, 1.0), phi)
            for i, (rho, phi) in enumerate(zip(rhos, phis))
        ],
    )
    decomposition = decompose(config)
    rng = np.random.default_rng(42)
    arrivals = np.vstack(
        [OnOffTraffic(m).generate(NUM_SLOTS, rng) for m in models]
    )
    result = FluidGPSServer(rate=1.0, phis=phis).run(arrivals)
    deltas = np.empty_like(arrivals)
    for i in range(3):
        level = 0.0
        rate = decomposition.rates[i]
        for t in range(NUM_SLOTS):
            level = max(level + arrivals[i, t] - rate, 0.0)
            deltas[i, t] = level
    return config, decomposition, result, deltas


def test_figure1_decomposition(once):
    config, decomposition, result, deltas = once(
        run_decomposition_experiment
    )
    rows = []
    ordering = decomposition.ordering
    # Lemma 1: prefix sums.
    for prefix_len in range(1, len(ordering) + 1):
        prefix = list(ordering[:prefix_len])
        q_sum = result.backlog[prefix].sum(axis=0)
        d_sum = deltas[prefix].sum(axis=0)
        gap = d_sum - q_sum
        assert gap.min() > -1e-7, "Lemma 1 violated"
        rows.append(
            [
                f"Lemma 1, prefix {prefix_len}",
                float(q_sum.mean()),
                float(d_sum.mean()),
                float(gap.min()),
            ]
        )
    # Lemma 3: per-session bounds.
    for i in range(3):
        psi = decomposition.psi(i)
        preds = decomposition.predecessors(i)
        bound = deltas[i] + (
            psi * deltas[preds].sum(axis=0) if preds else 0.0
        )
        gap = bound - result.backlog[i]
        assert gap.min() > -1e-7, "Lemma 3 violated"
        rows.append(
            [
                f"Lemma 3, session {i}",
                float(result.backlog[i].mean()),
                float(bound.mean()),
                float(gap.min()),
            ]
        )
    report(
        "Figure 1: decomposition sample-path domination "
        f"({NUM_SLOTS} slots)",
        format_table(
            ["check", "mean actual", "mean bound", "min slack"], rows
        ),
    )
