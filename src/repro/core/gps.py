"""Analytical model of a single GPS server and its sessions.

A :class:`Session` couples a named traffic source (its E.B.B.
characterization) with its GPS weight ``phi``; a :class:`GPSConfig`
collects the sessions sharing one server of rate ``r``.  These are the
*analysis-side* objects consumed by the bound theorems
(:mod:`repro.analysis.single_node`); the *simulation-side* counterparts live
in :mod:`repro.sim`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.core.ebb import EBB
from repro.analysis.feasible import FeasiblePartition, feasible_partition
from repro.utils.validation import check_positive

from repro.errors import ValidationError

__all__ = ["Session", "GPSConfig", "rpps_config"]


@dataclass(frozen=True)
class Session:
    """One session at a GPS server.

    Attributes
    ----------
    name:
        Human-readable label used in reports and error messages.
    arrival:
        The ``(rho, Lambda, alpha)``-E.B.B. characterization of the
        session's source traffic.
    phi:
        The session's GPS weight ``phi_i > 0``.
    """

    name: str
    arrival: EBB
    phi: float

    def __post_init__(self) -> None:
        check_positive("phi", self.phi)
        if not self.name:
            raise ValidationError("session name must be non-empty")

    @property
    def rho(self) -> float:
        """The session's long-term upper rate."""
        return self.arrival.rho

    @property
    def alpha(self) -> float:
        """The session's E.B.B. decay rate."""
        return self.arrival.decay_rate


@dataclass(frozen=True)
class GPSConfig:
    """A GPS server of rate ``rate`` shared by ``sessions``.

    Construction validates the stochastic stability condition
    ``sum_i rho_i < rate`` required by every theorem in the paper.
    """

    rate: float
    sessions: tuple[Session, ...]

    def __init__(self, rate: float, sessions: Sequence[Session]) -> None:
        check_positive("rate", rate)
        session_tuple = tuple(sessions)
        if not session_tuple:
            raise ValidationError("a GPS server needs at least one session")
        names = [s.name for s in session_tuple]
        if len(set(names)) != len(names):
            raise ValidationError(f"session names must be unique, got {names}")
        total_rho = sum(s.rho for s in session_tuple)
        if total_rho >= rate:
            raise ValidationError(
                "unstable configuration: sum of session upper rates "
                f"{total_rho} must be strictly below the server rate {rate}"
            )
        object.__setattr__(self, "rate", float(rate))
        object.__setattr__(self, "sessions", session_tuple)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.sessions)

    def __iter__(self) -> Iterator[Session]:
        return iter(self.sessions)

    def index_of(self, name: str) -> int:
        """Index of the session called ``name``."""
        for k, session in enumerate(self.sessions):
            if session.name == name:
                return k
        raise KeyError(f"no session named {name!r}")

    @property
    def rhos(self) -> tuple[float, ...]:
        """Upper rates of all sessions, in session order."""
        return tuple(s.rho for s in self.sessions)

    @property
    def phis(self) -> tuple[float, ...]:
        """GPS weights of all sessions, in session order."""
        return tuple(s.phi for s in self.sessions)

    @property
    def alphas(self) -> tuple[float, ...]:
        """E.B.B. decay rates of all sessions, in session order."""
        return tuple(s.alpha for s in self.sessions)

    @property
    def total_phi(self) -> float:
        """Sum of all GPS weights."""
        return sum(self.phis)

    @property
    def slack(self) -> float:
        """The stability margin ``rate - sum_i rho_i > 0``."""
        return self.rate - sum(self.rhos)

    def guaranteed_rate(self, session_index: int) -> float:
        """``g_i = phi_i / sum_j phi_j * rate`` — the minimum service
        rate session ``i`` receives whenever it is backlogged (from
        eq. 1)."""
        return self.sessions[session_index].phi / self.total_phi * self.rate

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def partition(self) -> FeasiblePartition:
        """The feasible partition induced by ``{rho_i}`` and ``{phi_i}``."""
        return feasible_partition(
            self.rhos, self.phis, server_rate=self.rate
        )

    def is_rpps(self, *, rel_tol: float = 1e-9) -> bool:
        """True if the assignment is Rate Proportional Processor Sharing
        (``phi_i`` proportional to ``rho_i``)."""
        ratios = [s.phi / s.rho for s in self.sessions]
        lo, hi = min(ratios), max(ratios)
        return hi - lo <= rel_tol * hi


def rpps_config(
    rate: float, arrivals: Sequence[tuple[str, EBB]]
) -> GPSConfig:
    """Build the RPPS assignment ``phi_i = rho_i`` for the given sources."""
    sessions = [
        Session(name=name, arrival=ebb, phi=ebb.rho)
        for name, ebb in arrivals
    ]
    return GPSConfig(rate, sessions)
