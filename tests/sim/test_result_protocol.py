"""Every simulator result implements the unified SimResult protocol,
and FluidGPSServer validates its keyword/scenario construction."""

import json

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.sim.fluid import FluidGPSServer
from repro.packet.engine import PacketEngine
from repro.sim.packet import Packet
from repro.sim.packet_baselines import SCFQServer
from repro.sim.results import SimResult, to_jsonable


def _packets():
    return [
        Packet(session=0, size=1.0, arrival_time=0.0),
        Packet(session=1, size=0.5, arrival_time=0.2),
        Packet(session=0, size=1.0, arrival_time=1.1),
    ]


def _all_results():
    rng = np.random.default_rng(0)
    arrivals = rng.uniform(0.0, 0.8, size=(2, 50))
    fluid = FluidGPSServer(rate=1.0, phis=[1.0, 1.0]).run(arrivals)
    wfq = PacketEngine(1.0, [1.0, 1.0], collect=True).run(_packets())
    tagged = SCFQServer(1.0, [1.0, 1.0]).simulate(_packets())

    from repro.core.ebb import EBB
    from repro.network.builders import tree_network
    from repro.sim.network_sim import FluidNetworkSimulator
    from repro.sim.packet_network import PacketNetworkSimulator

    network = tree_network(
        leaf_sessions=[[EBB(0.2, 1.0, 1.5)], [EBB(0.2, 1.0, 1.5)]]
    )
    ingress = {
        s.name: rng.uniform(0.0, 0.4, size=30)
        for s in network.sessions
    }
    net = FluidNetworkSimulator(network).run(ingress)
    pkt_net = PacketNetworkSimulator(network).run(
        {
            s.name: [Packet(session=0, size=0.5, arrival_time=0.0)]
            for s in network.sessions
        }
    )
    from repro.online.engine import StreamingGPSServer
    from repro.online.events import ArrivalEvent, SessionJoin

    online = StreamingGPSServer(rate=1.0).replay(
        [
            SessionJoin(time=0.0, name="a", phi=1.0),
            SessionJoin(time=0.0, name="b", phi=2.0),
            ArrivalEvent(time=0.0, session="a", amount=1.2),
            ArrivalEvent(time=1.0, session="b", amount=0.4),
        ],
        horizon=5,
    )
    return {
        "fluid_gps": fluid,
        "packet_engine": wfq,
        "tagged_packet": tagged,
        "fluid_network": net,
        "packet_network": pkt_net,
        "online_gps": online,
    }


class TestProtocol:
    def test_every_result_satisfies_protocol(self):
        for kind, result in _all_results().items():
            assert isinstance(result, SimResult), kind
            summary = result.summary()
            assert summary["kind"] == kind
            json.dumps(summary)
            json.dumps(to_jsonable(result.to_dict()))

    def test_to_dict_extends_summary(self):
        for kind, result in _all_results().items():
            summary = result.summary()
            payload = result.to_dict()
            for key, value in summary.items():
                assert payload[key] == value, (kind, key)
            assert len(payload) > len(summary), kind

    def test_to_dict_round_trips_through_json(self):
        """serialize -> json.loads must reproduce the jsonable payload
        exactly for every result type (floats round-trip in json)."""
        for kind, result in _all_results().items():
            payload = to_jsonable(result.to_dict())
            assert json.loads(json.dumps(payload)) == payload, kind
            summary = to_jsonable(result.summary())
            assert json.loads(json.dumps(summary)) == summary, kind


class TestToJsonable:
    def test_numpy_and_tuple_keys(self):
        payload = to_jsonable(
            {
                ("s1", "n0"): np.arange(3),
                "x": np.float64(1.5),
                2: (np.int64(1), [np.bool_(True)]),
            }
        )
        assert payload == {
            "s1/n0": [0, 1, 2],
            "x": 1.5,
            "2": [1, [True]],
        }
        json.dumps(payload)

    def test_matches_reference_conversion(self):
        """The exact-type leaf and plain-``str`` key fast paths
        serialize like the plain recursive conversion they replaced."""

        def reference(value):
            if isinstance(value, np.ndarray):
                return [reference(v) for v in value.tolist()]
            if isinstance(value, (np.floating, np.integer, np.bool_)):
                return value.item()
            if isinstance(value, dict):
                return {key(k): reference(v) for k, v in value.items()}
            if isinstance(value, (list, tuple)):
                return [reference(v) for v in value]
            return value

        def key(k):
            if isinstance(k, str):
                return k
            if isinstance(k, tuple):
                return "/".join(str(part) for part in k)
            return str(k)

        class Label(str):
            pass

        values = [
            np.float64(0.1),
            np.float32(2.5),
            np.int64(-3),
            np.bool_(False),
            np.array([[0.1, 2.0], [3.0, np.inf]]),
            np.array([True, False]),
            np.arange(4, dtype=np.int32),
            Label("tagged"),
            None,
            True,
            7,
            1e-300,
            "plain",
            {
                ("s1", "n0"): [np.float64(1.5), (np.int64(2), None)],
                True: {False: np.bool_(True)},
                3: 1.0,
                2.5: ("a", ["b", (np.float64(-0.0),)]),
                Label("k"): Label("v"),
                None: [[], (), {}],
            },
            [[1, (2.0, [np.float64(3.0), {"x": (True, None)}])]],
            ((np.array([1.0]),),),
            {
                "plain": {"nested": [{"deep": 1}, [{"deeper": (2, 3)}]]},
                1: {2: [{3: "x"}]},
                "1": "same text as the int key before it",
                ("s1", 4): {("a", ("b", 5)): []},
                np.int64(7): {np.int32(-8): np.int64(9)},
                np.uint8(255): None,
                Label("tag"): {Label("inner"): Label("v")},
                (): {"": {}},
            },
        ]

        def key_types(obj):
            if isinstance(obj, dict):
                return [(type(k), key_types(v)) for k, v in obj.items()]
            if isinstance(obj, list):
                return [key_types(v) for v in obj]
            return None

        for value in values:
            assert json.dumps(to_jsonable(value)) == json.dumps(
                reference(value)
            ), value
            # Plain str keys skip _key; every key keeps its type.
            assert key_types(to_jsonable(value)) == key_types(
                reference(value)
            ), value
        converted = to_jsonable({"x": np.float64(0.1), "y": [np.float64(2.0)]})
        assert type(converted["x"]) is float
        assert type(converted["y"][0]) is float


class TestFluidServerShim:
    """Keyword-only construction and its argument validation."""

    def test_requires_rate_and_phis(self):
        with pytest.raises(ValidationError):
            FluidGPSServer(rate=1.0)
        with pytest.raises(ValidationError):
            FluidGPSServer(phis=[1.0])

    def test_validation_hoisted_to_construction(self):
        with pytest.raises(ValidationError):
            FluidGPSServer(rate=-1.0, phis=[1.0])
        with pytest.raises(ValidationError):
            FluidGPSServer(rate=1.0, phis=[0.0])
