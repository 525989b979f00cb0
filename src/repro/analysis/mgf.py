"""Chernoff/MGF machinery for the virtual backlogs ``delta_i(t)``.

The decomposition of Section 3 reduces the GPS system to ``N`` virtual
G/G/1 queues, the ``i``-th fed by arrival process ``A_i`` and drained at
the constant virtual rate ``r_i = rho_i + eps_i``:

    delta_i(t) = sup_{s <= t} { A_i(s, t) - r_i (t - s) }.

Everything downstream needs two handles on ``delta_i(t)``:

* a direct tail bound (Lemma 5 / [YaSi93] Theorem 1), and
* a moment-generating-function bound (Lemma 6), which is what the
  Chernoff argument of Theorems 7-12 combines across sessions.

Both come from discretizing the supremum with step ``xi`` and summing a
geometric series.  The module implements the paper's default ``xi = 1``,
the optimal ``xi`` of Remark (1) after Lemma 6, and the discrete-time
variants used in the Section 6.3 numerical example (eqs. 66-67).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.bounds import ExponentialTailBound
from repro.core.ebb import EBB
from repro.utils.numeric import expm1_neg
from repro.utils.validation import check_in_open_interval, check_positive

from repro.errors import ValidationError

__all__ = [
    "VirtualQueue",
    "lemma5_tail_bound",
    "lemma6_log_mgf_bound",
    "lemma6_optimal_xi",
    "lemma5_max_xi",
    "bucket_delta_tail_bound",
    "discrete_delta_tail_bound",
    "discrete_log_mgf_bound",
    "paper_remark_mgf_minimum",
]


@dataclass(frozen=True)
class VirtualQueue:
    """One virtual queue of the decomposition: an E.B.B. source drained
    at constant rate ``rate > rho``.

    Attributes
    ----------
    arrival:
        The session's E.B.B. characterization.
    rate:
        The virtual service rate ``r_i`` assigned by the decomposition.
    """

    arrival: EBB
    rate: float

    def __post_init__(self) -> None:
        check_positive("rate", self.rate)
        if self.rate <= self.arrival.rho:
            raise ValidationError(
                "virtual rate must exceed the arrival upper rate "
                f"(rate={self.rate}, rho={self.arrival.rho})"
            )

    @property
    def slack(self) -> float:
        """The stability margin ``eps = rate - rho > 0``."""
        return self.rate - self.arrival.rho

    def tail_bound(self, xi: float | None = None) -> ExponentialTailBound:
        """Lemma 5 tail bound on ``delta(t)``; see :func:`lemma5_tail_bound`."""
        return lemma5_tail_bound(self.arrival, self.rate, xi=xi)

    def log_mgf_bound(self, theta: float, xi: float = 1.0) -> float:
        """Lemma 6 bound on ``ln E[exp(theta delta(t))]``."""
        return lemma6_log_mgf_bound(self.arrival, self.rate, theta, xi=xi)


def lemma5_max_xi(arrival: EBB, rate: float) -> float:
    """Largest ``xi`` allowed by Lemma 5: ``ln(Lambda + 1) / (alpha eps)``."""
    eps = rate - arrival.rho
    check_positive("eps", eps)
    return math.log1p(arrival.prefactor) / (arrival.decay_rate * eps)


def lemma5_tail_bound(
    arrival: EBB, rate: float, *, xi: float | None = None
) -> ExponentialTailBound:
    """Lemma 5: ``Pr{delta(t) >= x} <= prefactor * exp(-alpha x)`` with

        prefactor = Lambda e^{alpha rho xi} / (1 - e^{-alpha eps xi}),

    valid for ``0 < xi <= ln(Lambda + 1) / (alpha eps)``.

    When ``xi`` is omitted the prefactor-minimizing admissible value is
    used: Remark (1) shows the unconstrained optimum is
    ``ln(r/rho) / (alpha eps)``, so we take the smaller of that and the
    Lemma 5 cap.

    A zero prefactor (a source that never exceeds ``rho`` per interval)
    short-circuits to the trivial zero bound.
    """
    eps = rate - arrival.rho
    check_positive("rate - rho", eps)
    alpha = arrival.decay_rate
    if arrival.prefactor == 0.0:
        return ExponentialTailBound(0.0, alpha)
    if xi is None:
        unconstrained = math.log(rate / arrival.rho) / (alpha * eps)
        xi = min(lemma5_max_xi(arrival, rate), unconstrained)
    check_positive("xi", xi)
    cap = lemma5_max_xi(arrival, rate)
    if xi > cap * (1.0 + 1e-12):
        raise ValidationError(
            f"xi={xi} exceeds the Lemma 5 cap ln(Lambda+1)/(alpha eps)={cap}"
        )
    prefactor = (
        arrival.prefactor
        * math.exp(alpha * arrival.rho * xi)
        / expm1_neg(alpha * eps * xi)
    )
    return ExponentialTailBound(prefactor, alpha)


def lemma6_optimal_xi(arrival: EBB, rate: float, theta: float) -> float:
    """The ``xi`` minimizing the Lemma 6 prefactor:
    ``xi_0 = ln(r / rho) / (eps theta)`` (Remark (1) after Lemma 6)."""
    eps = rate - arrival.rho
    check_positive("rate - rho", eps)
    check_positive("theta", theta)
    return math.log(rate / arrival.rho) / (eps * theta)


def lemma6_log_mgf_bound(
    arrival: EBB, rate: float, theta: float, *, xi: float = 1.0
) -> float:
    """Lemma 6: ``ln E[exp(theta delta(t))]`` is at most

        theta (sigma_hat(theta) + rho xi) - ln(1 - e^{-theta eps xi})

    for any discretization step ``xi > 0`` and ``0 < theta < alpha``.
    The paper uses ``xi = 1``; pass :func:`lemma6_optimal_xi` for the
    tightest version.
    """
    eps = rate - arrival.rho
    check_positive("rate - rho", eps)
    check_in_open_interval("theta", theta, 0.0, arrival.decay_rate)
    check_positive("xi", xi)
    return (
        theta * (arrival.sigma_hat(theta) + arrival.rho * xi)
        - math.log(expm1_neg(theta * eps * xi))
    )


def discrete_log_mgf_bound(
    arrival: EBB, rate: float, theta: float
) -> float:
    """Discrete-time analogue of Lemma 6 (Remark (2)).

    With integer slots the supremum runs over integer interval lengths,
    so the ``rho * xi`` slack term disappears:

        E[exp(theta delta(t))]
            <= sum_{k >= 0} E[exp(theta (A(t-k, t) - r k))]
            <= 1 + e^{theta sigma_hat} e^{-theta eps}/(1 - e^{-theta eps})
            <= e^{theta sigma_hat(theta)} / (1 - e^{-theta eps}),

    i.e. the continuous bound at ``xi = 1`` *minus* the
    ``theta * rho`` term — uniformly tighter in the slotted setting of
    the Section 6.3 example.
    """
    eps = rate - arrival.rho
    check_positive("rate - rho", eps)
    check_in_open_interval("theta", theta, 0.0, arrival.decay_rate)
    return theta * arrival.sigma_hat(theta) - math.log(
        expm1_neg(theta * eps)
    )


def paper_remark_mgf_minimum(arrival: EBB, rate: float, theta: float) -> float:
    """Exact minimum over ``xi`` of the Lemma 6 MGF bound (natural log).

    Remark (1) states the minimum of ``f(xi) = e^{theta rho xi} /
    (1 - e^{-theta eps xi})`` as ``r^2/(eps rho) e^{rho/eps}``; the exact
    value is ``(r/rho)^{rho/eps} * r / eps`` (the paper's expression is a
    slightly loose transcription).  This helper returns the exact
    ``ln E[exp(theta delta)]`` minimum,

        theta sigma_hat(theta) + (rho/eps) ln(r/rho) + ln(r/eps).
    """
    eps = rate - arrival.rho
    check_positive("rate - rho", eps)
    check_in_open_interval("theta", theta, 0.0, arrival.decay_rate)
    return (
        theta * arrival.sigma_hat(theta)
        + (arrival.rho / eps) * math.log(rate / arrival.rho)
        + math.log(rate / eps)
    )


def bucket_delta_tail_bound(
    arrival: EBB,
    rate: float,
    bucket_size: float,
    *,
    xi: float | None = None,
) -> ExponentialTailBound:
    """Tail bound on the *bucketed* virtual backlog (footnote 3).

    The paper's footnote 3 generalizes the marker to a bucket of depth
    ``sigma``:

        delta^sigma(t) = sup_{s <= t} {A(s,t) - r (t-s) - sigma}
                       = max(delta(t) - sigma, 0)... bounded by
        Pr{delta^sigma >= x} = Pr{delta >= x + sigma},

    so the Lemma 5 bound shifts: same decay, prefactor multiplied by
    ``e^{-alpha sigma}``.  This quantifies how much marking a non-zero
    token bucket saves.
    """
    if bucket_size < 0.0:
        raise ValidationError(
            f"bucket_size must be >= 0, got {bucket_size}"
        )
    base = lemma5_tail_bound(arrival, rate, xi=xi)
    return ExponentialTailBound(
        base.prefactor * math.exp(-base.decay_rate * bucket_size),
        base.decay_rate,
    )


def discrete_delta_tail_bound(
    arrival: EBB, rate: float, *, tight: bool = False
) -> ExponentialTailBound:
    """Discrete-time tail bound on ``delta(t)`` (eq. 66 of Section 6.3).

    With integer time slots the supremum runs over integer interval
    lengths only, so no ``rho xi`` slack term is needed:

        Pr{delta(t) >= x} <= Lambda / (1 - e^{-alpha eps}) * e^{-alpha x}.

    With ``tight=True`` the slightly sharper geometric sum starting at
    ``k = 1`` is used, ``Lambda / (e^{alpha eps} - 1)``; the paper's
    numerical example uses the looser form, which we keep as default for
    fidelity.
    """
    eps = rate - arrival.rho
    check_positive("rate - rho", eps)
    alpha = arrival.decay_rate
    if arrival.prefactor == 0.0:
        return ExponentialTailBound(0.0, alpha)
    if tight:
        prefactor = arrival.prefactor / math.expm1(alpha * eps)
    else:
        prefactor = arrival.prefactor / expm1_neg(alpha * eps)
    return ExponentialTailBound(prefactor, alpha)
