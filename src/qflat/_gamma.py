"""Gamma evaluation: exact at integers and half-integers, float elsewhere.

All the catalog parameters land on integer or half-integer gamma arguments,
where the value is a rational multiple of a power of sqrt(pi) and should be
kept exact as long as possible.  General real arguments (reachable only
through the generic entry points) fall back to ``math.gamma``, which on
CPython is accurate to a few ulp and comfortably beats the 1e-12 relative
target needed here.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

__all__ = ["gamma_half_exact", "gamma_value", "SQRT_PI"]

SQRT_PI = math.sqrt(math.pi)


@functools.lru_cache(maxsize=256)
def gamma_half_exact(x: Fraction | int) -> tuple[Fraction, bool]:
    """Exact Gamma at a positive integer or half-integer argument.

    Returns ``(q, half)`` with Gamma(x) = q * sqrt(pi) when ``half`` is true
    and Gamma(x) = q otherwise.  Memoized: the result depends on the
    rational value of x alone, so equal keys of any numeric type (1.5 and
    Fraction(3, 2) hash alike) share one immutable entry.
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError(f"gamma argument must be positive, got {x}")
    if x.denominator not in (1, 2):
        raise ValueError(f"not an integer or half-integer: {x}")
    q = Fraction(1)
    while x > 1:
        x -= 1
        q *= x
    if x == 1:
        return q, False
    return q, True


def gamma_value(x) -> float:
    """Gamma as a float; exact route for rational integer/half-integer input."""
    # not memoized itself: 1.5 == Fraction(3, 2) share a cache key, and a
    # float argument must get math.gamma's value, not the exact route's
    if isinstance(x, (int, Fraction)) and Fraction(x).denominator in (1, 2):
        q, half = gamma_half_exact(Fraction(x))
        v = q.numerator / q.denominator
        return v * SQRT_PI if half else v
    return math.gamma(float(x))
