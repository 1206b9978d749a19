"""Catalog of compact, simply connected rank-1 symmetric spaces.

Every curvature question handled by this package factors through a small
record per space: the real dimension ``m``, the multiplicities of the long
restricted root and of its half (``m_beta``, ``m_half``, the latter zero
exactly when the root system is reduced, i.e. for round spheres), and the
root scale ``B``.  Four families exist in rank one: spheres S^m, complex
projective spaces CP^n, quaternionic projective spaces HP^n, and the Cayley
plane OP2.

The multiplicities are fixed by the standard classification and are pinned
down here by the dimension identity m = m_beta + m_half + 1, which is
asserted on every constructed record.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

__all__ = [
    "Family",
    "RootData",
    "ChiParams",
    "make_space",
    "parse_space",
    "chi_params",
    "eta_radial",
    "sphere_volume",
    "DEFAULT_SCAN_SELECTORS",
    "default_scan_spaces",
]


class Family(Enum):
    SPHERE = "Sphere"
    COMPLEX_PROJECTIVE = "ComplexProjective"
    QUATERNIONIC_PROJECTIVE = "QuaternionicProjective"
    CAYLEY_PLANE = "CayleyPlane"


_MIN_SIZE = {
    Family.SPHERE: 2,
    Family.COMPLEX_PROJECTIVE: 1,
    Family.QUATERNIONIC_PROJECTIVE: 1,
}

_PREFIX = {
    Family.SPHERE: "S",
    Family.COMPLEX_PROJECTIVE: "CP",
    Family.QUATERNIONIC_PROJECTIVE: "HP",
    Family.CAYLEY_PLANE: "OP",
}

#: Space selectors exercised by the full flatness scan.
DEFAULT_SCAN_SELECTORS = ("S2", "S3", "S4", "S5", "S7", "CP2", "CP3", "HP2", "OP2")


@dataclass(frozen=True)
class RootData:
    """Root multiplicity data of a rank-1 space.

    ``size`` is the m of S^m or the n of CP^n / HP^n (2 for the Cayley
    plane).  ``B`` is the value of the long root on the unit radial
    direction; it depends on the metric normalization and defaults to 1.
    """

    family: Family
    size: int
    m: int
    m_beta: int
    m_half: int
    B: float = 1.0

    def __post_init__(self) -> None:
        if self.m != self.m_beta + self.m_half + 1:
            raise ValueError(
                f"dimension identity violated: m={self.m} but "
                f"m_beta+m_half+1={self.m_beta + self.m_half + 1}"
            )
        if self.m_beta < 0 or self.m_half < 0 or self.m < 2:
            raise ValueError("multiplicities out of range")
        if self.m_half % 2 != 0:
            raise ValueError(f"m_half must be even, got {self.m_half}")
        if self.family is Family.SPHERE and self.m_half != 0:
            raise ValueError("spheres have a reduced root system (m_half = 0)")
        if not (self.B > 0 and math.isfinite(self.B)):
            raise ValueError(f"B must be positive and finite, got {self.B}")

    @property
    def label(self) -> str:
        return f"{_PREFIX[self.family]}{self.size}"

    def with_scale(self, B: float) -> "RootData":
        return replace(self, B=B)


@dataclass(frozen=True)
class ChiParams:
    """Exact per-isotype parameters for the index-n spherical representation.

    ``a``, ``b``, ``c`` are the hypergeometric parameters of the spherical
    function; ``A = a - n`` is the shifted parameter of the polynomial
    family; ``mu``, ``kappa``, ``nu`` are the radial weight exponents and
    ``r = mu + kappa + 1`` (= m) drives the small-tau power law.
    """

    n: int
    a: Fraction
    b: Fraction
    c: Fraction
    A: Fraction
    mu: Fraction
    kappa: Fraction
    nu: Fraction
    r: Fraction


def make_space(family: Family, size: int | None = None, B: float = 1.0) -> RootData:
    """Construct the multiplicity record of a rank-1 symmetric space.

    Sphere(m): (m_beta, m_half) = (m-1, 0); ComplexProjective(n): (1, 2n-2)
    with m = 2n; QuaternionicProjective(n): (3, 4n-4) with m = 4n;
    CayleyPlane: (7, 8) with m = 16 and no size parameter.  CP1 and HP1 are
    permitted and reproduce the sphere data of S2 and S4, as the isometric
    identifications force.
    """
    if family is Family.CAYLEY_PLANE:
        if size not in (None, 2):
            raise ValueError("the Cayley plane takes no size parameter")
        return RootData(family, 2, 16, 7, 8, B)
    if size is None:
        raise ValueError(f"{family.name} requires a size parameter")
    if size < _MIN_SIZE[family]:
        raise ValueError(
            f"size {size} below minimum {_MIN_SIZE[family]} for {family.name}"
        )
    if family is Family.SPHERE:
        return RootData(family, size, size, size - 1, 0, B)
    if family is Family.COMPLEX_PROJECTIVE:
        return RootData(family, size, 2 * size, 1, 2 * size - 2, B)
    if family is Family.QUATERNIONIC_PROJECTIVE:
        return RootData(family, size, 4 * size, 3, 4 * size - 4, B)
    raise ValueError(f"unknown family: {family!r}")


_SELECTOR_RE = re.compile(r"^(S|CP|HP)(\d+)$")


def parse_space(selector: str, B: float = 1.0) -> RootData:
    """Parse a selector such as ``S3``, ``CP2``, ``HP2`` or ``OP2``."""
    s = selector.strip()
    if s == "OP2":
        return make_space(Family.CAYLEY_PLANE, B=B)
    mo = _SELECTOR_RE.match(s)
    if mo is None:
        raise ValueError(f"unknown space selector: {selector!r}")
    fam = {"S": Family.SPHERE, "CP": Family.COMPLEX_PROJECTIVE,
           "HP": Family.QUATERNIONIC_PROJECTIVE}[mo.group(1)]
    return make_space(fam, int(mo.group(2)), B=B)


def default_scan_spaces(B: float = 1.0) -> tuple[RootData, ...]:
    return tuple(parse_space(s, B=B) for s in DEFAULT_SCAN_SELECTORS)


def chi_params(space: RootData, n: int) -> ChiParams:
    """Exact spherical-representation parameters for isotype index n >= 0."""
    if n < 0:
        raise ValueError(f"isotype index must be nonnegative, got {n}")
    A = space.m_beta + Fraction(space.m_half, 2)
    mu = kappa = Fraction(space.m - 1, 2)
    nu = Fraction(space.m_beta, 2)
    return ChiParams(
        n=n,
        a=A + n,
        b=Fraction(-n),
        c=Fraction(space.m, 2),
        A=A,
        mu=mu,
        kappa=kappa,
        nu=nu,
        r=mu + kappa + 1,
    )


def _shx_over_x(x: float) -> float:
    # even analytic function; series keeps full precision through x = 0
    if abs(x) < 1e-4:
        x2 = x * x
        return 1.0 + x2 / 6.0 + x2 * x2 / 120.0
    return math.sinh(x) / x


def eta_radial(space: RootData, rho: float) -> float:
    """The radial Jacobian factor eta at distance rho along the unit ray.

    Closed form 2^m (sinh(x)/x)^(m-1) cosh(x)^m_beta with x = rho*B; the
    value at rho = 0 is the limit 2^m.  Even in rho.
    """
    x = rho * space.B
    return (
        2.0 ** space.m
        * _shx_over_x(x) ** (space.m - 1)
        * math.cosh(x) ** space.m_beta
    )


def sphere_volume(m: int) -> float:
    """Surface volume of the unit (m-1)-sphere in R^m: 2 pi^(m/2) / Gamma(m/2)."""
    if m < 1:
        raise ValueError(f"dimension must be >= 1, got {m}")
    return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)
