"""Integration: the sample-path lemmas of Section 3 hold in simulation.

These tests exercise the decomposition of Figure 1 on simulated sample
paths: the virtual backlogs ``delta_i(t)`` (computed by the Lindley
recursion at the virtual rates) must dominate the real GPS backlogs in
the precise senses of Lemma 1 and Lemma 3 — for *every* slot of every
sample path, not just in distribution.
"""

import numpy as np
import pytest

from repro.core.decomposition import decompose
from repro.core.ebb import EBB
from repro.core.gps import GPSConfig, Session
from repro.markov.onoff import OnOffSource
from repro.sim.fluid import FluidGPSServer
from repro.traffic.sources import BernoulliBurstTraffic, OnOffTraffic


def virtual_backlogs(arrivals: np.ndarray, rate: float) -> np.ndarray:
    """delta(t) by the Lindley recursion at a constant virtual rate."""
    level = 0.0
    out = np.empty(arrivals.size)
    for t, amount in enumerate(arrivals):
        level = max(level + amount - rate, 0.0)
        out[t] = level
    return out


def build_scenario(seed: int, num_slots: int = 4000):
    sources = [
        OnOffTraffic(OnOffSource(0.3, 0.7, 0.5)),
        OnOffTraffic(OnOffSource(0.4, 0.4, 0.4)),
        BernoulliBurstTraffic(0.25, 0.8),
    ]
    rhos = [0.2, 0.25, 0.25]
    phis = [1.0, 2.0, 1.5]
    sessions = [
        Session(f"s{i}", EBB(rho, 1.0, 1.0), phi)
        for i, (rho, phi) in enumerate(zip(rhos, phis))
    ]
    config = GPSConfig(1.0, sessions)
    decomposition = decompose(config)
    rng = np.random.default_rng(seed)
    arrivals = np.vstack(
        [src.generate(num_slots, rng) for src in sources]
    )
    result = FluidGPSServer(rate=1.0, phis=phis).run(arrivals)
    deltas = np.vstack(
        [
            virtual_backlogs(arrivals[i], decomposition.rates[i])
            for i in range(3)
        ]
    )
    return config, decomposition, arrivals, result, deltas


@pytest.mark.parametrize("seed", [0, 1, 2])
class TestLemma1:
    def test_prefix_sums_dominated(self, seed):
        """Lemma 1: sum_{j <= i in ordering} Q_j(t) <= sum delta_j(t)
        for every prefix of the feasible ordering, every t."""
        config, decomposition, _, result, deltas = build_scenario(seed)
        ordering = decomposition.ordering
        for prefix_len in range(1, len(ordering) + 1):
            prefix = list(ordering[:prefix_len])
            q_sum = result.backlog[prefix].sum(axis=0)
            d_sum = deltas[prefix].sum(axis=0)
            assert np.all(q_sum <= d_sum + 1e-7)


@pytest.mark.parametrize("seed", [0, 1, 2])
class TestLemma3:
    def test_per_session_backlog_bound(self, seed):
        """Lemma 3: Q_i(t) <= delta_i(t) + psi_i sum_{j<i} delta_j(t)."""
        config, decomposition, _, result, deltas = build_scenario(seed)
        for i in range(3):
            psi = decomposition.psi(i)
            predecessors = decomposition.predecessors(i)
            bound = deltas[i] + psi * (
                deltas[predecessors].sum(axis=0)
                if predecessors
                else 0.0
            )
            assert np.all(result.backlog[i] <= bound + 1e-7)


@pytest.mark.parametrize("seed", [0, 1])
class TestTheorem10SamplePath:
    def test_h1_session_backlog_below_delta_at_g(self, seed):
        """For H_1 sessions: Q_i(t) <= delta_i(t) with the virtual
        queue drained at the guaranteed rate g_i (proof of Thm 10)."""
        config, decomposition, arrivals, result, _ = build_scenario(seed)
        partition = config.partition()
        for i in range(3):
            if partition.level(i) != 0:
                continue
            g = config.guaranteed_rate(i)
            delta_g = virtual_backlogs(arrivals[i], g)
            assert np.all(result.backlog[i] <= delta_g + 1e-7)


class TestGuaranteedServiceDuringBusyPeriods:
    def test_eq1_guarantee(self):
        """Whenever session i is backlogged through [tau, t] it
        receives at least g_i per slot of that interval (the defining
        GPS property used throughout the paper)."""
        config, decomposition, arrivals, result, _ = build_scenario(3)
        g = [config.guaranteed_rate(i) for i in range(3)]
        checked_slots = 0
        for i in range(3):
            backlogged = result.backlog[i] > 1e-9
            # The guarantee applies to slots throughout which the
            # session stays backlogged: it entered the slot with a
            # queue and still has one at the end (a session that
            # empties mid-slot is only served its remaining work).
            was_backlogged = np.concatenate(([False], backlogged[:-1]))
            mask = was_backlogged & backlogged
            checked_slots += int(mask.sum())
            if mask.any():
                assert np.all(result.served[i][mask] >= g[i] - 1e-7)
        assert checked_slots > 0
