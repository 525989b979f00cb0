"""A short reference for the instantaneous fluid GPS rate allocation.

The exact engine (:func:`repro.sim.fluid_exact.simulate_exact_gps`)
runs on the one water-fill kernel: backlogged sessions get ``inf``
work, idle ones their input rate.  This is the direct loop it is
checked against: offer the capacity in weight proportion among the
unsatisfied sessions, pin the idle sessions whose input rate is below
their offer, and hand the excess to the rest.  It sums with numpy's
pairwise ``sum``, the kernel sequentially, so the two agree to the
last bit except where the summation order rounds differently.
"""

from __future__ import annotations

import numpy as np

_EPS = 1e-12


def gps_rate_allocation(
    backlogged: np.ndarray,
    input_rates: np.ndarray,
    phis: np.ndarray,
    capacity: float,
) -> np.ndarray:
    """Instantaneous GPS service rates.

    Backlogged sessions absorb any rate; idle sessions are capped at
    their input rate.
    """
    num = phis.size
    allocation = np.zeros(num)
    demand = np.where(backlogged, np.inf, input_rates)
    remaining = float(capacity)
    active = demand > _EPS
    # Sessions with zero demand stay at zero allocation.
    for _ in range(num + 1):
        if remaining <= _EPS or not active.any():
            break
        total_phi = phis[active].sum()
        shares = np.zeros(num)
        shares[active] = remaining * phis[active] / total_phi
        capped = active & (demand <= shares + _EPS)
        if capped.any():
            allocation[capped] = demand[capped]
            remaining -= float(demand[capped].sum())
            active &= ~capped
        else:
            allocation[active] += shares[active]
            remaining = 0.0
    return allocation
