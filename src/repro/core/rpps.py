"""Rate Proportional Processor Sharing (RPPS) at a single node.

Under the RPPS assignment ``phi_i = rho_i`` (or any assignment
proportional to the upper rates) the feasible partition collapses to a
single class ``H_1 = {1, ..., N}``, so Theorem 10 applies to *every*
session: each session's backlog and delay bounds involve only its own
E.B.B. characterization and its guaranteed rate ``g_i`` — from a
bounding standpoint sessions behave independently even when their
traffic is correlated.

The network version (Theorem 15) lives in
:mod:`repro.network.rpps_network`; this module covers the single node
and the generic "guaranteed-rate" specialization noted after
Theorem 15: the same bound holds for *any* session guaranteed a
clearing rate ``g > rho`` regardless of the GPS assignment.
"""

from __future__ import annotations

from repro.core.bounds import ExponentialTailBound
from repro.core.ebb import EBB
from repro.core.gps import GPSConfig
from repro.analysis.mgf import discrete_delta_tail_bound, lemma5_tail_bound
from repro.analysis.single_node import SessionBounds, theorem10_bounds
from repro.utils.validation import check_positive

from repro.errors import ValidationError

__all__ = [
    "guaranteed_rate_bounds",
    "rpps_session_bounds",
    "rpps_all_bounds",
]


def guaranteed_rate_bounds(
    name: str,
    arrival: EBB,
    guaranteed_rate: float,
    *,
    xi: float | None = None,
    discrete: bool = False,
) -> SessionBounds:
    """Bounds for any session with a guaranteed clearing rate ``g > rho``.

    This is the remark after Theorem 15: whenever a session is
    guaranteed a backlog-clearing rate ``g`` exceeding its upper rate,
    ``Q(t) <= delta(t)`` for the virtual queue at rate ``g`` and Lemma 5
    (or its discrete-time form, eq. 66) bounds the tail directly.
    """
    check_positive("guaranteed_rate", guaranteed_rate)
    if guaranteed_rate <= arrival.rho:
        raise ValidationError(
            f"guaranteed rate {guaranteed_rate} must exceed the session "
            f"upper rate {arrival.rho}"
        )
    if discrete:
        backlog: ExponentialTailBound = discrete_delta_tail_bound(
            arrival, guaranteed_rate
        )
    else:
        backlog = lemma5_tail_bound(arrival, guaranteed_rate, xi=xi)
    return SessionBounds(
        session_name=name,
        backlog=backlog,
        delay=backlog.scaled_argument(guaranteed_rate),
        output=EBB(arrival.rho, backlog.prefactor, backlog.decay_rate),
    )


def rpps_session_bounds(
    config: GPSConfig,
    session_index: int,
    *,
    xi: float | None = None,
    discrete: bool = False,
) -> SessionBounds:
    """Theorem 10 bounds for one session of an RPPS server.

    Raises ``ValueError`` if the assignment is not RPPS (use
    :func:`repro.analysis.single_node.theorem10_bounds` directly for a
    non-RPPS session that happens to sit in ``H_1``).
    """
    if not config.is_rpps():
        raise ValidationError(
            "configuration is not rate-proportional; phi_i must be "
            "proportional to rho_i"
        )
    return theorem10_bounds(
        config, session_index, xi=xi, discrete=discrete
    )


def rpps_all_bounds(
    config: GPSConfig,
    *,
    xi: float | None = None,
    discrete: bool = False,
) -> list[SessionBounds]:
    """Theorem 10 bounds for every session of an RPPS server."""
    return [
        rpps_session_bounds(config, i, xi=xi, discrete=discrete)
        for i in range(len(config))
    ]
