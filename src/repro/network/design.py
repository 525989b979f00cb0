"""GPS weight design: picking ``phi`` assignments to meet QoS targets.

Section 7 raises "how to choose the GPS assignment" as the practical
question the analysis leaves open.  This module provides the two
design procedures the theory directly supports:

* :func:`rpps_weights` — the RPPS assignment itself (``phi_i = rho_i``),
  the paper's recommended default: topology-independent closed-form
  bounds for everyone.
* :func:`weights_for_delay_targets` — a single-node inverse problem:
  given per-session E.B.B. characterizations and (d_max, epsilon)
  targets, find weights such that every session's *guaranteed-rate*
  bound (Theorem 10 applied at ``g_i = phi_i/sum phi * r``) meets its
  target.  Since the bound depends on the weights only through ``g_i``,
  the problem reduces to per-session required rates
  (:func:`repro.analysis.admission.required_rate_for_delay`) plus a
  feasibility check ``sum g_i^req <= r``; the returned weights are the
  required rates themselves, normalized (so the spare capacity is
  shared proportionally).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.admission import QoSTarget, required_rate_for_delay
from repro.core.ebb import EBB
from repro.utils.validation import check_positive

from repro.errors import ValidationError

__all__ = ["WeightDesign", "rpps_weights", "weights_for_delay_targets"]


@dataclass(frozen=True)
class WeightDesign:
    """Result of a weight-design procedure.

    Attributes
    ----------
    weights:
        The GPS weights ``phi_i`` (scale-free; only ratios matter).
    guaranteed_rates:
        The implied ``g_i`` at the given server rate.
    utilization:
        ``sum_i g_i^req / rate`` — how much of the server the hard
        requirements consume (< 1 means spare capacity).
    """

    weights: tuple[float, ...]
    guaranteed_rates: tuple[float, ...]
    utilization: float


def rpps_weights(arrivals: Sequence[EBB]) -> tuple[float, ...]:
    """The RPPS assignment ``phi_i = rho_i``."""
    if not arrivals:
        raise ValidationError("need at least one session")
    return tuple(a.rho for a in arrivals)


def weights_for_delay_targets(
    arrivals: Sequence[EBB],
    targets: Sequence[QoSTarget],
    server_rate: float,
    *,
    discrete: bool = True,
) -> WeightDesign:
    """Weights meeting per-session delay targets at one GPS server.

    Raises
    ------
    ValueError
        If the summed required rates exceed the server rate — the
        target set is infeasible under guaranteed-rate reasoning and
        some session must relax its target (or the server be upgraded).
    """
    if len(arrivals) != len(targets):
        raise ValidationError("one target per session required")
    if not arrivals:
        raise ValidationError("need at least one session")
    check_positive("server_rate", server_rate)
    required = [
        max(
            required_rate_for_delay(a, t, discrete=discrete),
            a.rho * (1.0 + 1e-9),
        )
        for a, t in zip(arrivals, targets)
    ]
    total_required = sum(required)
    if total_required > server_rate:
        raise ValidationError(
            f"infeasible targets: required rates sum to "
            f"{total_required} > server rate {server_rate}"
        )
    # Weights proportional to required rates: each session's actual
    # share g_i = req_i / total_required * rate >= req_i.
    weights = tuple(required)
    guaranteed = tuple(
        r / total_required * server_rate for r in required
    )
    return WeightDesign(
        weights=weights,
        guaranteed_rates=guaranteed,
        utilization=total_required / server_rate,
    )
