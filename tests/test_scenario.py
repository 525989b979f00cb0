"""Tests for the unified Scenario entry point."""

import numpy as np
import pytest

from repro import Scenario
from repro.core.ebb import EBB
from repro.errors import ValidationError
from repro.faults.schedule import FaultSchedule, RateFault
from repro.markov.onoff import OnOffSource
from tests.packet.oracle import wfq_schedule
from repro.traffic.sources import (
    BernoulliBurstTraffic,
    ConstantBitRateTraffic,
    OnOffTraffic,
)


def make_scenario(**overrides) -> Scenario:
    defaults = dict(
        rate=1.0,
        phis=(2.0, 1.0),
        sources=(
            OnOffTraffic(OnOffSource(p=0.2, q=0.4, peak_rate=0.8)),
            BernoulliBurstTraffic(
                burst_probability=0.3, burst_size=0.6
            ),
        ),
        horizon=300,
        seed=5,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


class TestConstruction:
    def test_requires_keywords(self):
        with pytest.raises(TypeError):
            Scenario(1.0, (1.0,), (), 100)  # noqa: positional

    def test_defaults_names(self):
        scenario = make_scenario()
        assert scenario.names == ("session1", "session2")
        assert scenario.index_of("session2") == 1
        with pytest.raises(KeyError):
            scenario.index_of("nope")

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValidationError):
            make_scenario(phis=(1.0,))
        with pytest.raises(ValidationError):
            make_scenario(names=("only-one",))
        with pytest.raises(ValidationError):
            make_scenario(ebbs=(EBB(0.2, 1.0, 1.5),))

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValidationError):
            make_scenario(names=("a", "a"))

    def test_rejects_bad_source(self):
        with pytest.raises(ValidationError):
            make_scenario(sources=(object(), object()))

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValidationError):
            make_scenario(rate=0.0)
        with pytest.raises(ValidationError):
            make_scenario(horizon=0)
        with pytest.raises(ValidationError):
            make_scenario(phis=(1.0, -1.0))

    def test_frozen_and_replace(self):
        scenario = make_scenario()
        with pytest.raises(AttributeError):
            scenario.rate = 2.0
        faster = scenario.replace(rate=2.0)
        assert faster.rate == 2.0 and scenario.rate == 1.0

    def test_offered_load(self):
        scenario = make_scenario(
            sources=(
                ConstantBitRateTraffic(rate=0.3),
                ConstantBitRateTraffic(rate=0.4),
            )
        )
        assert scenario.offered_load == pytest.approx(0.7)

    def test_summary_is_jsonable(self):
        import json

        json.dumps(make_scenario().summary())


class TestSampling:
    def test_trials_are_deterministic(self):
        scenario = make_scenario()
        assert np.array_equal(
            scenario.sample_arrivals(trial=3),
            scenario.sample_arrivals(trial=3),
        )
        assert not np.array_equal(
            scenario.sample_arrivals(trial=3),
            scenario.sample_arrivals(trial=4),
        )

    def test_batch_slices_equal_scalar_trials(self):
        scenario = make_scenario()
        batch = scenario.sample_arrival_batch(5)
        for b in range(5):
            assert np.array_equal(
                batch[b], scenario.sample_arrivals(trial=b)
            )

    def test_vectorized_batch_same_shape_and_law(self):
        scenario = make_scenario(horizon=2000)
        batch = scenario.sample_arrival_batch(8, vectorized=True)
        assert batch.shape == (8, 2, 2000)
        # Same marginal means (loose statistical check).
        expected = np.array(scenario.mean_rates)
        np.testing.assert_allclose(
            batch.mean(axis=(0, 2)), expected, atol=0.05
        )

    def test_rejects_bad_trial_counts(self):
        scenario = make_scenario()
        with pytest.raises(ValidationError):
            scenario.sample_arrival_batch(0)
        with pytest.raises(ValidationError):
            scenario.trial_rng(-1)


class TestSimulation:
    def test_simulate_batch_matches_scalar_simulate(self):
        scenario = make_scenario()
        batch = scenario.simulate_batch(4)
        for b in range(4):
            scalar = scenario.simulate(trial=b)
            assert np.array_equal(batch.trial(b).served, scalar.served)
            assert np.array_equal(
                batch.trial(b).backlog, scalar.backlog
            )

    def test_server_accessors(self):
        scenario = make_scenario()
        assert scenario.server().num_sessions == 2
        assert scenario.batch_server().num_sessions == 2
        assert scenario.packet_server().num_sessions == 2

    def test_fault_injected_simulation(self):
        faults = FaultSchedule(
            [RateFault(node="server", start=50, end=100, factor=0.5)]
        )
        scenario = make_scenario(faults=faults)
        result = scenario.simulate(trial=0)
        assert result.capacities is not None
        np.testing.assert_allclose(result.capacities[60], 0.5)
        batch = scenario.simulate_batch(3)
        for b in range(3):
            assert np.array_equal(
                batch.trial(b).served, scenario.simulate(b).served
            )

    def test_trial_result_is_summary_dict(self):
        import json

        scenario = make_scenario()
        payload = scenario.trial_result(2, 123)
        assert payload["trial"] == 2
        assert payload["kind"] == "fluid_gps"
        json.dumps(payload)

    def test_simulate_packets(self):
        scenario = make_scenario(horizon=50)
        result = scenario.simulate_packets(packet_size=0.5)
        assert result.rate == scenario.rate
        assert result.phis == scenario.phis

    def test_simulate_packets_matches_reference_schedule(self):
        scenario = make_scenario(horizon=50)
        result = scenario.simulate_packets(packet_size=0.5, trial=1)
        reference = wfq_schedule(
            scenario.rate,
            scenario.phis,
            scenario.packetize(packet_size=0.5, trial=1),
        )
        assert result.num_packets == len(reference) > 0
        assert [p.packet for p in result.packets] == [
            p.packet for p in reference
        ]
        for field in (
            "virtual_start",
            "virtual_finish",
            "pgps_start",
            "pgps_finish",
            "gps_finish",
        ):
            assert np.array_equal(
                [getattr(p, field) for p in result.packets],
                [getattr(p, field) for p in reference],
            ), field


class TestAnalysisSide:
    def test_gps_config_requires_ebbs(self):
        with pytest.raises(ValidationError):
            make_scenario().gps_config()

    def test_gps_config_round_trip(self):
        ebbs = (EBB(0.3, 1.0, 1.5), EBB(0.25, 1.0, 1.2))
        scenario = make_scenario(ebbs=ebbs, names=("voice", "data"))
        config = scenario.gps_config()
        assert config.index_of("voice") == 0
        assert [s.phi for s in config.sessions] == [2.0, 1.0]


class TestScenarioEverywhere:
    def test_fluid_server_scenario_kwarg(self):
        from repro.sim.fluid import FluidGPSServer

        scenario = make_scenario()
        server = FluidGPSServer(scenario=scenario)
        assert server.rate == scenario.rate
        with pytest.raises(ValidationError):
            FluidGPSServer(scenario=scenario, rate=2.0)

    def test_supervised_runner_scenario_kwarg(self):
        from repro.experiments.supervisor import SupervisedRunner

        scenario = make_scenario(horizon=100)
        manifest = SupervisedRunner(
            scenario=scenario, num_trials=3
        ).run()
        assert manifest.num_completed == 3
        assert all(
            r["kind"] == "fluid_gps" for r in manifest.results
        )

    def test_builders_scenario_kwarg(self):
        from repro.network.builders import (
            ring_network,
            tandem_network,
            tree_network,
        )

        ebbs = (EBB(0.2, 1.0, 1.5), EBB(0.2, 1.0, 1.2))
        scenario = make_scenario(ebbs=ebbs)
        tree = tree_network(scenario=scenario)
        assert len(tree.nodes) == 3  # root + one leaf per session
        tandem = tandem_network(scenario=scenario)
        assert len(tandem.nodes) == 1
        ring = ring_network(scenario=scenario)
        assert len(ring.nodes) == 2
        with pytest.raises(ValidationError):
            tree_network(scenario=make_scenario())  # no ebbs
