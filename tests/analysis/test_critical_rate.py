"""The cached admission threshold stays the bisection on ``meets_target``.

:func:`critical_guaranteed_rate` evaluates the Theorem 10/15 bound
directly in its bisection loop instead of building a
:class:`SessionBounds` per step.  Its thresholds are exported in
serving snapshots, so they must stay bit-identical:

* the loop predicate equals :func:`meets_target` at every rate it can
  probe, ``rho < g <= server_rate``;
* the threshold equals the bisection on :func:`meets_target` itself,
  kept here as the reference.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.analysis.admission import (  # noqa: E402
    QoSTarget,
    _target_predicate,
    critical_guaranteed_rate,
    meets_target,
)
from repro.core.ebb import EBB  # noqa: E402


def _reference_threshold(arrival, target, *, server_rate, discrete):
    """The float-exact bisection on ``meets_target`` at every step."""
    if not meets_target(arrival, server_rate, target, discrete=discrete):
        return math.inf
    lo, hi = arrival.rho, server_rate
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if meets_target(arrival, mid, target, discrete=discrete):
            hi = mid
        else:
            lo = mid


@st.composite
def _cases(draw):
    rho = draw(st.floats(min_value=1e-6, max_value=0.5))
    prefactor = draw(
        st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=50.0))
    )
    alpha = draw(st.floats(min_value=1e-2, max_value=1e2))
    target = QoSTarget(
        d_max=draw(st.floats(min_value=0.1, max_value=1e6)),
        epsilon=draw(st.floats(min_value=1e-9, max_value=0.99)),
    )
    server_rate = rho * draw(st.floats(min_value=1.0 + 1e-9, max_value=50.0))
    return EBB(rho, prefactor, alpha), target, server_rate, draw(st.booleans())


class TestCriticalRate:
    @settings(max_examples=200, deadline=None)
    @given(_cases(), st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    def test_predicate_equals_meets_target(self, case, fraction):
        arrival, target, server_rate, discrete = case
        rate = arrival.rho + fraction * (server_rate - arrival.rho)
        if not arrival.rho < rate <= server_rate:
            return
        passes = _target_predicate(arrival, target, discrete=discrete)
        assert passes(rate) == meets_target(
            arrival, rate, target, discrete=discrete
        )

    @settings(max_examples=150, deadline=None)
    @given(_cases())
    def test_threshold_equals_reference_bisection(self, case):
        arrival, target, server_rate, discrete = case
        assert critical_guaranteed_rate(
            arrival, target, server_rate=server_rate, discrete=discrete
        ) == _reference_threshold(
            arrival, target, server_rate=server_rate, discrete=discrete
        )

    def test_threshold_splits_the_predicate(self):
        arrival = EBB(0.01, 1.0, 2.0)
        target = QoSTarget(d_max=400.0, epsilon=1e-3)
        g = critical_guaranteed_rate(arrival, target, server_rate=1.0)
        assert meets_target(arrival, g, target)
        assert not meets_target(arrival, math.nextafter(g, 0.0), target)
