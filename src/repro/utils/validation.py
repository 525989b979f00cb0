"""Argument-validation helpers.

All public constructors in the library validate their inputs eagerly and
raise :class:`repro.errors.ValidationError` (a ``ValueError`` subclass)
with a message naming the offending parameter, so that a mis-specified
session or GPS assignment fails at construction time rather than deep
inside a bound computation.
"""

from __future__ import annotations

import math
from typing import Sequence, Sized

from repro.errors import ValidationError

__all__ = [
    "check_positive",
    "check_nonnegative",
    "check_probability",
    "check_in_open_interval",
    "check_same_length",
    "check_arrivals",
]


def check_positive(name: str, value: float) -> float:
    """Raise :class:`ValidationError` unless ``value`` is finite and > 0.

    A non-number (a string, ``None``, a list) or an int too large for
    a float fails the check rather than raising ``TypeError``.
    """
    try:
        if math.isfinite(value) and value > 0.0:
            return value
    except (TypeError, OverflowError):
        pass
    raise ValidationError(f"{name} must be finite and positive, got {value}")


def check_nonnegative(name: str, value: float) -> float:
    """Raise :class:`ValidationError` unless ``value`` is finite and >= 0
    (non-numbers fail, as in :func:`check_positive`)."""
    try:
        if math.isfinite(value) and value >= 0.0:
            return value
    except (TypeError, OverflowError):
        pass
    raise ValidationError(
        f"{name} must be finite and non-negative, got {value}"
    )


def check_probability(name: str, value: float) -> float:
    """Raise :class:`ValidationError` unless ``value`` lies in ``[0, 1]``."""
    if not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ValidationError(
            f"{name} must be a probability in [0, 1], got {value}"
        )
    return value


def check_in_open_interval(
    name: str, value: float, lo: float, hi: float
) -> float:
    """Raise :class:`ValidationError` unless ``lo < value < hi``."""
    if not math.isfinite(value) or not lo < value < hi:
        raise ValidationError(f"{name} must lie in ({lo}, {hi}), got {value}")
    return value


def check_same_length(name_a: str, a: Sized, name_b: str, b: Sized) -> None:
    """Raise :class:`ValidationError` unless two sequences have equal length."""
    if len(a) != len(b):
        raise ValidationError(
            f"{name_a} (length {len(a)}) and {name_b} (length {len(b)}) "
            "must have the same length"
        )


def check_arrivals(arrivals) -> None:
    """Raise :class:`ValidationError` unless every entry of a float
    array of arrivals is ``>= 0`` — one pass, and it rejects NaN too
    (``nan >= 0.0`` is false).  The one arrival check of every
    slot-stepped server."""
    if not (arrivals >= 0.0).all():
        raise ValidationError("arrivals must be non-negative and not NaN")


def check_weights(name: str, weights: Sequence[float]) -> list[float]:
    """Validate a GPS weight vector: non-empty, all entries positive."""
    if len(weights) == 0:
        raise ValidationError(f"{name} must be non-empty")
    out = []
    for k, w in enumerate(weights):
        check_positive(f"{name}[{k}]", w)
        out.append(float(w))
    return out
