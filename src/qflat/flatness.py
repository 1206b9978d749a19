"""Flatness decisions: exact centrality certificates and numeric curvature tests.

A quantization family over the upper half plane is flat when every isotype
curvature sample (log q_n)'' vanishes (after the dimensional prefactor is
restored) and projectively flat when the samples do not depend on the
isotype index n.  Both properties are decided here along two independent
routes:

* exact route -- the gamma-ratio identity that a central polynomial family
  must satisfy, checked in rational arithmetic with square roots tracked
  symbolically, so a failure is a tolerance-free certificate;
* numeric route -- curvature samples from the quadrature module on a tau
  grid, one grid per verdict at the tol it is given, held against one
  pass/fail corridor (``_corridor``: 1e-6 / 1e-3) wide enough that verdicts
  never flap.  A deviation in the gap stays inconclusive: it is the
  samples' own spread or rounding, which a finer tol does not move.

Negative verdicts prefer the exact witness when both routes fail.

On the flatness criterion itself: the raw radial integral q_n carries a
tau^(m/2) prefactor relative to the matrix coefficient p_n(s) it came from,
and (log q_n)'' alone is therefore nonzero even in the flat case.  The
flatness test is (log(tau^(-m/2) q_n))'' = 0, i.e.
(log q_n)''(tau) = -(m/2)/tau^2, which the 3-sphere satisfies identically.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .hypergeom import _top_ratio
from .quadrature import (
    DEFAULT_TOL,
    QuadratureError,
    _check_grid,
    prefetch,
    q_chi_derivs,
)
from .spaces import Family, RootData, chi_params

__all__ = [
    "PASS_DEVIATION",
    "FAIL_DEVIATION",
    "FieldVerdict",
    "ProjectiveVerdict",
    "FlatVerdict",
    "SqrtRational",
    "sqrt_rational",
    "describe_exact",
    "CentralityCheck",
    "RationalityArgument",
    "CurvatureGrid",
    "FlatnessReport",
    "centrality_check",
    "rationality_argument",
    "curvature_samples",
    "projective_test",
    "flat_test",
    "theorem_scan",
    "theorem_expected_verdict",
]

PASS_DEVIATION = 1e-6
FAIL_DEVIATION = 1e-3


class FieldVerdict(str, Enum):
    FLAT = "flat"
    PROJECTIVELY_FLAT_ONLY = "projectively_flat_only"
    NOT_PROJECTIVELY_FLAT = "not_projectively_flat"
    INCONCLUSIVE = "inconclusive"


class ProjectiveVerdict(str, Enum):
    CONSISTENT = "consistent_with_projectively_flat"
    NOT_PROJECTIVELY_FLAT = "not_projectively_flat"
    INCONCLUSIVE = "inconclusive"


class FlatVerdict(str, Enum):
    FLAT = "flat"
    NOT_FLAT = "not_flat"
    INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# exact arithmetic over Q adjoined square roots


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = s^2 * d with d squarefree; returns (s, d).  Trial division."""
    if n <= 0:
        raise ValueError(f"need a positive integer, got {n}")
    s, d = 1, 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    return s, d * n


class SqrtRational(NamedTuple):
    """Exact positive real of the form rat * sqrt(radicand).

    ``radicand`` is a squarefree positive integer; the value is rational
    exactly when it equals 1.  Construct through :func:`sqrt_rational` to
    keep the radicand normalized.
    """

    rat: Fraction
    radicand: int = 1

    @property
    def is_rational(self) -> bool:
        return self.radicand == 1 or self.rat == 0

    def __float__(self) -> float:
        return float(self.rat) * math.sqrt(self.radicand)

    def equals(self, other) -> bool:
        if isinstance(other, SqrtRational):
            return self.rat == other.rat and self.radicand == other.radicand
        return self.is_rational and self.rat == Fraction(other)


def sqrt_rational(rat: Fraction, radicand: int = 1) -> SqrtRational:
    if rat == 0:
        return SqrtRational(Fraction(0), 1)
    s, d = _squarefree_split(radicand)
    return SqrtRational(rat * s, d)


def describe_exact(x) -> str:
    """Certificate-grade string: 'p/q' when rational, else 'irrational:...'."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, SqrtRational):
        if x.is_rational:
            return str(x.rat)
        if x.rat == 1:
            body = f"sqrt({x.radicand})"
        elif x.rat.denominator == 1:
            body = f"{x.rat}*sqrt({x.radicand})"
        else:
            body = f"({x.rat})*sqrt({x.radicand})"
        return f"irrational:{body}"
    raise TypeError(f"not an exact value: {x!r}")


# ---------------------------------------------------------------------------
# exact certificates


class CentralityCheck(NamedTuple):
    """One instance of the centrality identity, evaluated exactly.

    lhs = Gamma(A+2n)Gamma(c) / (Gamma(A+n)Gamma(c+n)) as a rational
    product; rhs = 4^n (A/(A+2n))^mu, rational or an explicit surd.  A
    rational lhs against an irrational rhs fails with no tolerance
    involved.
    """

    n: int
    lhs: Fraction
    rhs: SqrtRational
    passed: bool


class RationalityArgument(NamedTuple):
    """The n = 2A specialization: A/(A+2n) = 1/5 forces 5^mu rational."""

    n_used: int
    lhs: Fraction
    rhs: SqrtRational
    rhs_rational: bool
    conclusion: str


def _centrality_rhs(a: int, d: int, mu: Fraction, n: int) -> SqrtRational:
    """4^n (A/(A+2n))^mu for A = a/d and an integer or half-integer mu.

    With A/(A+2n) = p/q in lowest terms and mu = k or k + 1/2, the value is
    4^n p^k / q^k, times sqrt(p q) / q for the half: integer powers, one
    squarefree split of p q and one ``Fraction`` at the end.
    """
    p, q = a, a + 2 * n * d
    if p * q <= 0:
        raise ValueError(f"base must be positive, got {Fraction(p, q)}")
    g = math.gcd(p, q)
    p, q = abs(p) // g, abs(q) // g
    if mu.denominator == 1:
        k, s, radicand, extra = mu.numerator, 1, 1, 1
    elif mu.denominator == 2:
        k, extra = (mu.numerator - 1) // 2, q
        s, radicand = _squarefree_split(p * q)
    else:
        raise ValueError(f"exponent must be integer or half-integer, got {mu}")
    num, den = (p ** k, q ** k) if k >= 0 else (q ** -k, p ** -k)
    return SqrtRational(Fraction(4 ** n * num * s, den * extra), radicand)


def centrality_check(space: RootData, n_set: Iterable[int]) -> list[CentralityCheck]:
    """Evaluate the centrality identity exactly at each index in n_set.

    Each side is an integer numerator and denominator from those of A, c and
    mu, normalised once into its ``Fraction``.

    n = 1 alone refutes every catalog space but S^3, for every m.  A is the
    positive integer m_beta + m_half/2, c = m/2 and mu = (m-1)/2.

    * Even m (the even spheres, CP^k, HP^k, OP2): mu is a half-integer, so
      the right side is a rational multiple of sqrt(A(A+2)), and
      A(A+2) = (A+1)^2 - 1 lies strictly between A^2 and (A+1)^2.  It is
      not a square, so the right side is irrational and the rational left
      side cannot equal it.
    * Odd m (only the spheres in the catalog): A = m - 1, so the left side
      (A+1)/c is 2 and n = 1 reads 2 = 4((m-1)/(m+1))^((m-1)/2), that is
      ((m+1)/(m-1))^((m-1)/2) = 2.  For m = 2x + 1 the left side is
      (1 + 1/x)^x, and its first three binomial terms give
      (1 + 1/x)^x >= 2 + (x-1)/(2x) > 2 once x >= 2.  So m = 3 is the only
      odd solution.
    """
    ch0 = chi_params(space, 0)
    a, d = ch0.A.numerator, ch0.A.denominator
    e, f = ch0.c.numerator, ch0.c.denominator
    out = []
    for n in sorted(set(int(n) for n in n_set)):
        if n < 1:
            raise ValueError(f"centrality indices must be positive, got {n}")
        # |c_nn| = prod_{j<n} (A+n+j)/(c+j), the top coefficient's magnitude
        num, den = _top_ratio(a, d, e, f, n)
        lhs = Fraction(abs(num), abs(den))
        rhs = _centrality_rhs(a, d, ch0.mu, n)
        passed = rhs.is_rational and rhs.rat == lhs
        out.append(CentralityCheck(n=n, lhs=lhs, rhs=rhs, passed=passed))
    return out


def rationality_argument(space: RootData) -> RationalityArgument:
    """Centrality at n = 2A, where rationality alone decides.

    With n = 2A the ratio A/(A+2n) is 1/5, so the right-hand side is
    4^(2A) 5^(-mu): rational precisely when mu = (m-1)/2 is an integer,
    i.e. when m is odd.  The left-hand side is always rational, so every
    even-dimensional space fails centrality outright.
    """
    return _rationality(space, ())


def _rationality(space: RootData,
                 checks: Sequence[CentralityCheck]) -> RationalityArgument:
    """The n = 2A argument, its certificate taken from ``checks`` (those for
    n = 1..len(checks), in order) when 2A is among them."""
    n = 2 * int(chi_params(space, 0).A)
    chk = checks[n - 1] if n <= len(checks) else centrality_check(space, [n])[0]
    rational = chk.rhs.is_rational
    return RationalityArgument(
        n_used=n,
        lhs=chk.lhs,
        rhs=chk.rhs,
        rhs_rational=rational,
        conclusion="test passes to next stage" if rational else "m must be odd",
    )


# ---------------------------------------------------------------------------
# numeric curvature route


class CurvatureGrid(NamedTuple):
    """Curvature samples d^2/d(Im s)^2 log q_n(B^2 Im s) over (n, grid).

    Failed cells hold nan and are listed in ``failures`` with their error
    message instead of aborting the whole grid.
    """

    space: RootData
    tau_grid: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]
    failures: tuple[tuple[int, int, str], ...]


def curvature_samples(
    space: RootData, n_max: int, tau_grid: Sequence[float],
    tol: float = DEFAULT_TOL
) -> CurvatureGrid:
    """Matrix of curvature samples for n = 0..n_max over the grid; a space,
    n_max, tol or width B^2 tau outside the box raises ParameterRangeError."""
    grid = tuple([float(t) for t in tau_grid])
    if not grid:
        raise ValueError("tau grid must be nonempty")
    b4 = space.B ** 4
    taus = [space.B * space.B * sig for sig in grid]
    _check_grid((space,), (n_max,), taus, tol)
    rows = []
    failures = []
    prefetch(space, range(n_max + 1), taus, tol)
    for n in range(n_max + 1):
        row = []
        for i, tau in enumerate(taus):
            try:
                _, _, d2 = q_chi_derivs(space, n, tau, tol)
                row.append(b4 * d2)
            except QuadratureError as exc:
                row.append(math.nan)
                failures.append((n, i, str(exc)))
        rows.append(tuple(row))
    return CurvatureGrid(space, grid, tuple(rows), tuple(failures))


def _prefactor_residual(d2: float, m: int, tau: float) -> float:
    """|(log q)'' + (m/2)/tau^2|, the curvature of tau^(-m/2) q."""
    return abs(d2 + 0.5 * m / (tau * tau))


def _spreads(grid: CurvatureGrid) -> tuple[float, float]:
    """The largest spread across n, over the fully valid columns of the
    grid, and the largest prefactor residual, over its valid samples."""
    dev = resid = math.nan
    for sig, col in zip(grid.tau_grid, zip(*grid.values)):
        valid = [v for v in col if not math.isnan(v)]
        for v in valid:
            r = _prefactor_residual(v, grid.space.m, sig)
            resid = r if math.isnan(resid) else max(resid, r)
        if len(valid) == len(col):
            spread = max(col) - min(col)
            dev = spread if math.isnan(dev) else max(dev, spread)
    return dev, resid


def _corridor(dev: float, passed, failed, undecided):
    """``passed`` at dev <= 1e-6, ``failed`` at dev >= 1e-3, else (nan or in
    the gap between) ``undecided``."""
    if dev <= PASS_DEVIATION:
        return passed
    if dev >= FAIL_DEVIATION:
        return failed
    return undecided


def projective_test(
    space: RootData, n_max: int, tau_grid: Sequence[float],
    tol: float = DEFAULT_TOL
) -> tuple[ProjectiveVerdict, float]:
    """Numeric isotype-independence test of the curvature samples.

    Deviation <= 1e-6 is consistent with projective flatness, >= 1e-3 is a
    numeric refutation, and the gap is inconclusive.
    """
    _check_grid((space,), (n_max,), (), tol)
    if n_max < 1:
        raise ValueError(f"need n_max >= 1 to compare isotypes, got {n_max}")
    dev, _ = _spreads(curvature_samples(space, n_max, tau_grid, tol))
    return _corridor(dev, ProjectiveVerdict.CONSISTENT,
                     ProjectiveVerdict.NOT_PROJECTIVELY_FLAT,
                     ProjectiveVerdict.INCONCLUSIVE), dev


def flat_test(
    space: RootData, n_max: int, tau_grid: Sequence[float],
    tol: float = DEFAULT_TOL
) -> tuple[FlatVerdict, float]:
    """Numeric vanishing test of the prefactor residual
    |(log q_n)'' + (m/2)/tau^2|: <= 1e-6 is flat, >= 1e-3 is not."""
    _, resid = _spreads(curvature_samples(space, n_max, tau_grid, tol))
    return _corridor(resid, FlatVerdict.FLAT, FlatVerdict.NOT_FLAT,
                     FlatVerdict.INCONCLUSIVE), resid


# ---------------------------------------------------------------------------
# the full scan


class FlatnessReport(NamedTuple):
    """Per-space verdict with both its exact and numeric evidence."""

    space: RootData
    n_max: int
    tau_grid: tuple[float, ...]
    curvature: tuple[tuple[float, ...], ...]
    max_chi_deviation: float
    prefactor_residual: float
    verdict: FieldVerdict
    exact_witness: CentralityCheck | None
    centrality: tuple[CentralityCheck, ...]
    rationality: RationalityArgument | None
    failures: tuple[tuple[int, int, str], ...]


def theorem_expected_verdict(space: RootData) -> FieldVerdict:
    """The main theorem's prediction: flat for S^3, else not projectively flat."""
    if space.family is Family.SPHERE and space.m == 3:
        return FieldVerdict.FLAT
    return FieldVerdict.NOT_PROJECTIVELY_FLAT


def _scan_one(
    space: RootData, n_max: int, tau_grid: tuple[float, ...], tol: float
) -> FlatnessReport:
    checks = tuple(centrality_check(space, range(1, n_max + 1)))
    # n = 1 is always checked and refutes every catalog space but S3 (see
    # centrality_check); the rationality argument is only reported, for a
    # space whose checks all pass
    witness = next((c for c in checks if not c.passed), None)
    rationality = _rationality(space, checks) if witness is None else None
    grid = curvature_samples(space, n_max, tau_grid, tol)
    # projectively flat first (isotype spread), then flat (residual)
    dev, resid = _spreads(grid)
    if witness is not None:
        verdict = FieldVerdict.NOT_PROJECTIVELY_FLAT
    else:
        flat = _corridor(resid, FieldVerdict.FLAT,
                         FieldVerdict.PROJECTIVELY_FLAT_ONLY,
                         FieldVerdict.INCONCLUSIVE)
        verdict = _corridor(dev, flat, FieldVerdict.NOT_PROJECTIVELY_FLAT,
                            FieldVerdict.INCONCLUSIVE)
    return FlatnessReport(
        space=space,
        n_max=n_max,
        tau_grid=grid.tau_grid,
        curvature=grid.values,
        max_chi_deviation=dev,
        prefactor_residual=resid,
        verdict=verdict,
        exact_witness=witness,
        centrality=checks,
        rationality=rationality,
        failures=grid.failures,
    )


def theorem_scan(
    spaces: Sequence[RootData], n_max: int = 5,
    tau_grid: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0),
    tol: float = DEFAULT_TOL,
) -> list[FlatnessReport]:
    """One flatness report per space, in input order.

    Exact certificates are evaluated first; a failed certificate is
    preferred over a numeric witness in the report.  A value outside the
    box refuses the whole scan before any space is computed.
    """
    spaces = list(spaces)
    if not spaces:
        raise ValueError("space list must be nonempty")
    grid = tuple([float(t) for t in tau_grid])
    _check_grid(spaces, (n_max,), [s.B * s.B * t for s in spaces for t in grid], tol)
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    return [_scan_one(s, n_max, grid, tol) for s in spaces]
