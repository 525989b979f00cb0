"""Edge-case tests for simulation result objects and the CLI."""

import numpy as np
import pytest

from repro.cli import main
from repro.sim.fluid import FluidGPSServer, GPSSimResult


class TestGPSSimResultEdges:
    def make_result(self) -> GPSSimResult:
        server = FluidGPSServer(rate=1.0, phis=[1.0, 1.0])
        arrivals = np.array(
            [[2.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]
        )
        return server.run(arrivals)

    def test_dimensions(self):
        result = self.make_result()
        assert result.num_sessions == 2
        assert result.num_slots == 4

    def test_total_backlog(self):
        result = self.make_result()
        np.testing.assert_allclose(
            result.total_backlog(),
            result.backlog.sum(axis=0),
        )

    def test_idle_session_delays_are_zero(self):
        result = self.make_result()
        delays = result.session_delays(1)
        np.testing.assert_allclose(delays, 0.0)

    def test_busy_fraction_of_idle_session(self):
        result = self.make_result()
        assert result.busy_fraction(1) == 0.0

    def test_utilization_below_one(self):
        result = self.make_result()
        assert 0.0 < result.utilization() <= 1.0


class TestCLIErrors:
    def test_analyze_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["analyze", str(tmp_path / "missing.json")])

    def test_analyze_malformed_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"nodes": []}')
        with pytest.raises(ValueError, match="sessions"):
            main(["analyze", str(path)])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestEBEdges:
    def test_eb_zero_prefactor(self):
        from repro.core.ebb import EB

        eb = EB(0.0, 1.0)
        assert eb.evaluate(0.5) == 0.0

    def test_eb_rejects_bad_decay(self):
        from repro.core.ebb import EB

        with pytest.raises(ValueError):
            EB(1.0, 0.0)


class TestRunnerSimulationCheck:
    def test_contains_dominance_rows(self):
        from repro.experiments.runner import render_simulation_check

        text = render_simulation_check(num_slots=5000, seed=1)
        assert "session1" in text
        assert "Fig4 bound" in text
        # rows parse as numbers: simulated <= Fig3 bound on each row
        lines = [
            line
            for line in text.splitlines()
            if line.startswith("session") and not line.startswith("session ")
        ]
        assert len(lines) == 12
