"""Tests for the deterministic Parekh-Gallager baseline."""

import numpy as np
import pytest

from repro.deterministic.parekh_gallager import (
    DeterministicGPSConfig,
    DeterministicSession,
    pg_all_bounds,
    pg_session_bounds,
)
from repro.sim.fluid import FluidGPSServer
from repro.traffic.envelope import LBAPEnvelope
from repro.traffic.leaky_bucket import LeakyBucketShaper


def rpps_det_config() -> DeterministicGPSConfig:
    sessions = [
        DeterministicSession("a", LBAPEnvelope(2.0, 0.2), 0.2),
        DeterministicSession("b", LBAPEnvelope(1.0, 0.3), 0.3),
        DeterministicSession("c", LBAPEnvelope(3.0, 0.25), 0.25),
    ]
    return DeterministicGPSConfig(1.0, sessions)


class TestConfig:
    def test_rejects_unstable(self):
        sessions = [
            DeterministicSession("a", LBAPEnvelope(1.0, 0.6), 1.0),
            DeterministicSession("b", LBAPEnvelope(1.0, 0.5), 1.0),
        ]
        with pytest.raises(ValueError):
            DeterministicGPSConfig(1.0, sessions)

    def test_guaranteed_rates(self):
        config = rpps_det_config()
        assert config.guaranteed_rate(0) == pytest.approx(0.2 / 0.75)

    def test_is_rpps(self):
        assert rpps_det_config().is_rpps()


class TestPGBounds:
    def test_rpps_closed_form(self):
        """Under RPPS (single partition class): Q* <= sigma,
        D* <= sigma / g."""
        config = rpps_det_config()
        bounds = pg_all_bounds(config)
        for session, bound in zip(config.sessions, bounds):
            assert bound.max_backlog == pytest.approx(session.sigma)
            g = config.guaranteed_rate(
                config.sessions.index(session)
            )
            assert bound.max_delay == pytest.approx(session.sigma / g)

    def test_two_class_structure(self):
        sessions = [
            DeterministicSession("low", LBAPEnvelope(1.0, 0.1), 1.0),
            DeterministicSession("high", LBAPEnvelope(2.0, 0.6), 1.0),
        ]
        config = DeterministicGPSConfig(1.0, sessions)
        low = pg_session_bounds(config, 0)
        high = pg_session_bounds(config, 1)
        assert low.max_backlog == pytest.approx(1.0)
        # psi = 1 for the lone H_2 session; backlog picks up the H_1
        # burst.
        assert high.max_backlog == pytest.approx(2.0 + 1.0)

    def test_output_envelope_rho_preserved(self):
        config = rpps_det_config()
        bound = pg_session_bounds(config, 1)
        assert bound.output_envelope.rho == 0.3

    def test_bound_holds_in_simulation(self):
        """Worst-case bound must dominate any simulated sample path of
        shaped traffic."""
        config = rpps_det_config()
        bounds = pg_all_bounds(config)
        rng = np.random.default_rng(0)
        num_slots = 2000
        shaped = []
        for session in config.sessions:
            raw = rng.uniform(
                0.0, 2.5 * session.rho, size=num_slots
            )
            released, _ = LeakyBucketShaper(
                session.rho, session.sigma
            ).shape(raw)
            shaped.append(released)
        arrivals = np.vstack(shaped)
        result = FluidGPSServer(
            rate=1.0, phis=[s.phi for s in config.sessions]
        ).run(arrivals)
        for i, bound in enumerate(bounds):
            assert result.backlog[i].max() <= bound.max_backlog + 1e-6
            delays = result.session_delays(i)
            finite = delays[~np.isnan(delays)]
            # simulated clearing delay (slots) within the bound,
            # allowing one slot of discretization.
            assert finite.max() <= bound.max_delay + 1.0
