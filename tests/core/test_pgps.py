"""Tests for the PGPS (packetized) bound conversions."""

import math

import pytest

from repro.core.bounds import ExponentialTailBound
from repro.core.ebb import EBB
from repro.core.gps import rpps_config
from repro.core.pgps import (
    PacketizationPenalty,
    pgps_backlog_bound,
    pgps_delay_bound,
    pgps_session_bounds,
    shift_bound,
)
from repro.analysis.single_node import theorem10_bounds


class TestPacketizationPenalty:
    def test_shifts(self):
        penalty = PacketizationPenalty(
            max_packet_size=2.0, rate=4.0
        )
        assert penalty.delay_shift == pytest.approx(0.5)
        assert penalty.backlog_shift == 2.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PacketizationPenalty(0.0, 1.0)


class TestShiftBound:
    def test_equivalent_to_argument_shift(self):
        bound = ExponentialTailBound(1.5, 0.8)
        shifted = shift_bound(bound, 2.0)
        x = 7.0
        assert shifted.evaluate(x) == pytest.approx(
            min(1.0, bound.evaluate(x - 2.0))
        )

    def test_zero_shift_identity(self):
        bound = ExponentialTailBound(1.5, 0.8)
        shifted = shift_bound(bound, 0.0)
        assert shifted.prefactor == pytest.approx(bound.prefactor)

    def test_rejects_negative_shift(self):
        with pytest.raises(ValueError):
            shift_bound(ExponentialTailBound(1.0, 1.0), -1.0)


class TestPgpsBounds:
    def test_delay_prefactor_growth(self):
        gps = ExponentialTailBound(2.0, 1.0)
        penalty = PacketizationPenalty(0.5, 1.0)
        pgps = pgps_delay_bound(gps, penalty)
        assert pgps.prefactor == pytest.approx(
            2.0 * math.exp(1.0 * 0.5)
        )
        assert pgps.decay_rate == gps.decay_rate

    def test_backlog_uses_lmax(self):
        gps = ExponentialTailBound(2.0, 1.0)
        penalty = PacketizationPenalty(0.5, 2.0)
        pgps = pgps_backlog_bound(gps, penalty)
        assert pgps.prefactor == pytest.approx(
            2.0 * math.exp(1.0 * 0.5)
        )

    def test_session_bounds_conversion(self):
        config = rpps_config(
            1.0,
            [
                ("a", EBB(0.2, 1.0, 2.0)),
                ("b", EBB(0.3, 1.0, 1.5)),
            ],
        )
        fluid = theorem10_bounds(config, 0)
        penalty = PacketizationPenalty(0.1, 1.0)
        packet = pgps_session_bounds(fluid, penalty)
        assert packet.session_name == fluid.session_name
        assert packet.backlog.prefactor > fluid.backlog.prefactor
        assert packet.delay.prefactor > fluid.delay.prefactor
        assert packet.output.rho == fluid.output.rho
        assert packet.output.prefactor > fluid.output.prefactor
        # decay rates unchanged
        assert packet.backlog.decay_rate == fluid.backlog.decay_rate
        assert packet.delay.decay_rate == fluid.delay.decay_rate

    def test_small_packets_small_penalty(self):
        gps = ExponentialTailBound(1.0, 1.0)
        tiny = pgps_delay_bound(
            gps, PacketizationPenalty(1e-6, 1.0)
        )
        assert tiny.prefactor == pytest.approx(1.0, rel=1e-5)
