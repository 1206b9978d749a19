"""Gauss hypergeometric polynomials with exact rational coefficients.

The spherical functions of rank-1 symmetric spaces are terminating
hypergeometric series F(A+n, -n, c, x): with second parameter -n the term
recurrence stops after n steps, so the function is a degree-n polynomial
and each coefficient is rational whenever A and c are.  Coefficients are
kept as ``fractions.Fraction`` end to end; floating point enters only when
a polynomial is evaluated along the radial ray.  Exactness is load-bearing:
the centrality certificates in :mod:`qflat.flatness` compare the top
coefficient against a closed-form gamma-ratio product as rationals, with no
tolerance.  The closed-form coefficients are integer products over the
numerators and denominators of A and c, reduced to lowest terms once, when
the one ``Fraction`` of each coefficient is built.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Union

__all__ = [
    "RationalPoly",
    "hypergeom_poly",
    "closed_coeffs",
]

RationalLike = Union[int, Fraction]


def _num_den(x: RationalLike) -> tuple[int, int]:
    """Numerator and denominator of x in lowest terms; an int or a Fraction
    is read as it is, anything else goes through ``Fraction`` first."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return x.numerator, x.denominator


def _require_not_nonpositive_integer(num: int, den: int, name: str) -> None:
    if den == 1 and num <= 0:
        raise ValueError(f"{name} must not be a nonpositive integer, got {num}")


def _top_ratio(a: int, d: int, e: int, f: int, n: int) -> tuple[int, int]:
    """c_{n,n} of F(A+n, -n, c, x) for A = a/d and c = e/f, as integers.

    Returns (num, den), not reduced, with c_{n,n} = num/den:
    (-1)^n prod_{j<n}(A+n+j)/(c+j) = (-1)^n f^n prod_{j<n}(a+(n+j)d)
    / (d^n prod_{j<n}(e+jf)).
    """
    _require_not_nonpositive_integer(e, f, "c")
    num, den = (-f) ** n, d ** n
    for j in range(n):
        num *= a + (n + j) * d
        den *= e + j * f
    return num, den


class _RationalPolyFields(NamedTuple):
    coeffs: tuple[Fraction, ...]


class RationalPoly(_RationalPolyFields):
    """Dense polynomial over Q; index equals degree, constant term first."""

    __slots__ = ()

    def __new__(cls, coeffs) -> "RationalPoly":
        if not coeffs:
            raise ValueError("a polynomial needs at least one coefficient")
        return super().__new__(cls, tuple(Fraction(c) for c in coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval_exact(self, x: RationalLike) -> Fraction:
        """Horner evaluation in exact rational arithmetic."""
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def float_coeffs(self) -> tuple[float, ...]:
        return tuple(float(c) for c in self.coeffs)


def hypergeom_poly(A: RationalLike, n: int, c: RationalLike) -> RationalPoly:
    """Coefficients of F(A+n, -n, c, x) via the exact term recurrence.

    c_{j+1} = c_j (a+j)(b+j) / ((j+1)(c+j)) with a = A+n, b = -n; the factor
    (b+j) vanishes at j = n, so the series terminates at degree n.
    """
    if n < 0:
        raise ValueError(f"degree index must be nonnegative, got {n}")
    A = Fraction(A)
    cf = Fraction(c)
    _require_not_nonpositive_integer(cf.numerator, cf.denominator, "c")
    a = A + n
    b = Fraction(-n)
    term = Fraction(1)
    coeffs = [term]
    for j in range(n):
        term = term * (a + j) * (b + j) / ((j + 1) * (cf + j))
        coeffs.append(term)
    return RationalPoly(tuple(coeffs))


def closed_coeffs(
    A: RationalLike, n: int, c: RationalLike
) -> tuple[Fraction | None, Fraction]:
    """Closed-form first and top coefficients of F(A+n, -n, c, x).

    c_{n,1} = (A+n)(-n)/c and c_{n,n} = (-1)^n prod_{j<n}(A+n+j) / prod_{j<n}(c+j),
    the gamma ratios Gamma(A+2n)/Gamma(A+n) and Gamma(c)/Gamma(c+n) written
    as finite rational products.  Each is formed as one integer numerator
    and denominator from those of A and c, and becomes a ``Fraction`` (one
    reduction to lowest terms) only at the end.  For n = 0 the linear
    coefficient does not exist and None is returned in its place.
    """
    if n < 0:
        raise ValueError(f"degree index must be nonnegative, got {n}")
    a, d = _num_den(A)
    e, f = _num_den(c)
    top = Fraction(*_top_ratio(a, d, e, f, n))
    if n == 0:
        return None, top
    return Fraction(-n * (a + n * d) * f, d * e), top
