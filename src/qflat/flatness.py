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
  grid, judged by one pass/fail corridor (``_corridor``: 1e-6 / 1e-3) wide
  enough that verdicts never flap.  An inconclusive judgement redoes the
  grid once at tol/100 (``_judge_grid``, the only retry).

Negative verdicts prefer the exact witness when both routes fail.

On the flatness criterion itself: the raw radial integral q_n carries a
tau^(m/2) prefactor relative to the matrix coefficient p_n(s) it came from,
and (log q_n)'' alone is therefore nonzero even in the flat case.  The
default ``prefactor_corrected`` mode tests (log(tau^(-m/2) q_n))'' = 0,
i.e. (log q_n)''(tau) = -(m/2)/tau^2, which the 3-sphere satisfies
identically; ``literal`` mode tests (log q_n)'' = 0 as such and is kept for
documentation of the discrepancy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .hypergeom import closed_coeffs
from .quadrature import (
    DEFAULT_TOL,
    MAX_TAU,
    MIN_TAU,
    TOL_MIN,
    QuadratureError,
    prefetch,
    q_chi_derivs,
)
from .spaces import Family, RootData, chi_params

__all__ = [
    "PASS_DEVIATION",
    "FAIL_DEVIATION",
    "Mode",
    "FieldVerdict",
    "ProjectiveVerdict",
    "FlatVerdict",
    "SqrtRational",
    "sqrt_rational",
    "describe_exact",
    "CentralityCheck",
    "RationalityArgument",
    "DimensionEquationScan",
    "CurvatureGrid",
    "FlatnessReport",
    "centrality_check",
    "rationality_argument",
    "parameter_constraints",
    "solve_dimension_equation",
    "curvature_samples",
    "projective_test",
    "flat_test",
    "theorem_scan",
    "theorem_expected_verdict",
]

PASS_DEVIATION = 1e-6
FAIL_DEVIATION = 1e-3


class Mode(str, Enum):
    PREFACTOR_CORRECTED = "prefactor_corrected"
    LITERAL = "literal"


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


@dataclass(frozen=True)
class SqrtRational:
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

    def scaled(self, f: Fraction) -> "SqrtRational":
        return SqrtRational(self.rat * f, self.radicand)

    def equals(self, other) -> bool:
        if isinstance(other, SqrtRational):
            return self.rat == other.rat and self.radicand == other.radicand
        return self.is_rational and self.rat == Fraction(other)


def sqrt_rational(rat: Fraction, radicand: int = 1) -> SqrtRational:
    if rat == 0:
        return SqrtRational(Fraction(0), 1)
    s, d = _squarefree_split(radicand)
    return SqrtRational(rat * s, d)


def _pow_half_integer(base: Fraction, expo: Fraction) -> SqrtRational:
    """base ** expo for positive rational base and integer/half-integer expo."""
    if base <= 0:
        raise ValueError(f"base must be positive, got {base}")
    expo = Fraction(expo)
    if expo.denominator == 1:
        return SqrtRational(base ** int(expo), 1)
    if expo.denominator != 2:
        raise ValueError(f"exponent must be integer or half-integer, got {expo}")
    k = expo - Fraction(1, 2)
    p, q = base.numerator, base.denominator
    # sqrt(p/q) = sqrt(p q) / q
    return sqrt_rational(base ** int(k) / q, p * q)


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


@dataclass(frozen=True)
class CentralityCheck:
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


@dataclass(frozen=True)
class RationalityArgument:
    """The n = 2A specialization: A/(A+2n) = 1/5 forces 5^mu rational."""

    n_used: int
    lhs: Fraction
    lhs_rational: bool
    rhs: SqrtRational
    rhs_rational: bool
    conclusion: str


@dataclass(frozen=True)
class DimensionEquationScan:
    """Odd dimensions solving ((m+1)/(m-1))^((m-1)/2) = 2, scanned exactly."""

    solutions: tuple[int, ...]
    strictly_increasing: bool
    values: tuple[float, ...]


def centrality_check(space: RootData, n_set: Iterable[int]) -> list[CentralityCheck]:
    """Evaluate the centrality identity exactly at each index in n_set."""
    ch0 = chi_params(space, 0)
    A, c, mu = ch0.A, ch0.c, ch0.mu
    out = []
    for n in sorted(set(int(n) for n in n_set)):
        if n < 1:
            raise ValueError(f"centrality indices must be positive, got {n}")
        # |c_nn| = prod_{j<n} (A+n+j)/(c+j), the top coefficient's magnitude
        lhs = abs(closed_coeffs(A, n, c)[1])
        rho = A / (A + 2 * n)
        rhs = _pow_half_integer(rho, mu).scaled(Fraction(4) ** n)
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
    A = chi_params(space, 0).A
    if A.denominator != 1 or A <= 0:
        raise ValueError(f"A must be a positive integer, got {A}")
    n = 2 * int(A)
    chk = centrality_check(space, [n])[0]
    rhs_rational = chk.rhs.is_rational
    conclusion = "test passes to next stage" if rhs_rational else "m must be odd"
    return RationalityArgument(
        n_used=n,
        lhs=chk.lhs,
        lhs_rational=True,
        rhs=chk.rhs,
        rhs_rational=rhs_rational,
        conclusion=conclusion,
    )


def parameter_constraints(mu: float, kappa: float, nu: float) -> float:
    """Residual of the n = 1 compatibility identity between the two
    closed-form expressions for the linear coefficient:
    (nu+kappa+1)/(mu+kappa+1) - 2 ((nu+kappa)/(nu+kappa+2))^mu."""
    mu, kappa, nu = float(mu), float(kappa), float(nu)
    if nu <= 0.0 or kappa <= 0.0:
        raise ValueError(f"need nu > 0 and kappa > 0, got nu={nu}, kappa={kappa}")
    if mu + kappa <= -1.0:
        raise ValueError("need mu + kappa > -1")
    lhs = (nu + kappa + 1.0) / (mu + kappa + 1.0)
    rhs = 2.0 * ((nu + kappa) / (nu + kappa + 2.0)) ** mu
    return lhs - rhs


def solve_dimension_equation(m_max: int) -> DimensionEquationScan:
    """Scan odd m in [3, m_max] for g(m) = ((m+1)/(m-1))^((m-1)/2) = 2.

    Both the equation and the monotonicity certificate are evaluated in
    exact rational arithmetic; g increases strictly toward e^2, so m = 3 is
    the only solution ever found.
    """
    if m_max < 3:
        raise ValueError(f"need m_max >= 3, got {m_max}")
    solutions = []
    gs: list[Fraction] = []
    for m in range(3, m_max + 1, 2):
        g = Fraction(m + 1, m - 1) ** ((m - 1) // 2)
        gs.append(g)
        if g == 2:
            solutions.append(m)
    increasing = all(a < b for a, b in zip(gs, gs[1:]))
    return DimensionEquationScan(
        solutions=tuple(solutions),
        strictly_increasing=increasing,
        values=tuple(float(g) for g in gs),
    )


# ---------------------------------------------------------------------------
# numeric curvature route


@dataclass(frozen=True)
class CurvatureGrid:
    """Curvature samples d^2/d(Im s)^2 log q_n(B^2 Im s) over (n, grid).

    Failed cells hold nan and are listed in ``failures`` with their error
    message instead of aborting the whole grid.
    """

    space: RootData
    tau_grid: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]
    failures: tuple[tuple[int, int, str], ...]


def _validate_grid(space: RootData, tau_grid: Sequence[float]) -> tuple[float, ...]:
    grid = tuple(float(t) for t in tau_grid)
    if not grid:
        raise ValueError("tau grid must be nonempty")
    for t in grid:
        if not (t > 0.0):
            raise ValueError(f"tau grid values must be positive, got {t}")
        if not (MIN_TAU <= space.B * space.B * t <= MAX_TAU):
            raise ValueError(
                f"B^2*tau = {space.B * space.B * t:g} outside the quadrature box"
            )
    return grid


def curvature_samples(
    space: RootData, n_max: int, tau_grid: Sequence[float],
    tol: float = DEFAULT_TOL
) -> CurvatureGrid:
    """Matrix of curvature samples for n = 0..n_max over the grid."""
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    grid = _validate_grid(space, tau_grid)
    b4 = space.B ** 4
    taus = [space.B * space.B * sig for sig in grid]
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


def _chi_deviation(grid: CurvatureGrid) -> float:
    """Largest spread across n, maximized over fully valid grid columns."""
    best = math.nan
    for i in range(len(grid.tau_grid)):
        col = [row[i] for row in grid.values]
        if any(math.isnan(v) for v in col):
            continue
        spread = max(col) - min(col)
        best = spread if math.isnan(best) else max(best, spread)
    return best


def _residual(grid: CurvatureGrid, mode: Mode) -> float:
    m = grid.space.m
    best = math.nan
    for row in grid.values:
        for sig, v in zip(grid.tau_grid, row):
            if math.isnan(v):
                continue
            r = abs(v) if mode is Mode.LITERAL else abs(v + 0.5 * m / (sig * sig))
            best = r if math.isnan(best) else max(best, r)
    return best


def _corridor(dev: float, passed, failed, undecided):
    """``passed`` at dev <= 1e-6, ``failed`` at dev >= 1e-3, else (nan or in
    the gap between) ``undecided``."""
    if dev <= PASS_DEVIATION:
        return passed
    if dev >= FAIL_DEVIATION:
        return failed
    return undecided


def _judge_grid(
    space: RootData, n_max: int, tau_grid: Sequence[float], tol: float,
    judge: Callable[[CurvatureGrid], tuple]
) -> tuple:
    """``judge(grid)`` -> (verdict, deviation) on the curvature grid at tol.

    An inconclusive verdict redoes the grid once at max(tol/100, TOL_MIN).
    Returns the last verdict and deviation with the grid they came from.
    """
    grid = curvature_samples(space, n_max, tau_grid, tol)
    verdict, dev = judge(grid)
    finer = max(tol / 100.0, TOL_MIN)
    # every verdict enum has an INCONCLUSIVE member
    if verdict is type(verdict).INCONCLUSIVE and finer < tol:
        grid = curvature_samples(space, n_max, tau_grid, finer)
        verdict, dev = judge(grid)
    return verdict, dev, grid


def projective_test(
    space: RootData, n_max: int, tau_grid: Sequence[float],
    tol: float = DEFAULT_TOL
) -> tuple[ProjectiveVerdict, float]:
    """Numeric isotype-independence test of the curvature samples.

    Deviation <= 1e-6 is consistent with projective flatness, >= 1e-3 is a
    numeric refutation; the gap refines the tolerance once and otherwise
    stays inconclusive.
    """
    if n_max < 1:
        raise ValueError(f"need n_max >= 1 to compare isotypes, got {n_max}")

    def judge(grid: CurvatureGrid) -> tuple[ProjectiveVerdict, float]:
        dev = _chi_deviation(grid)
        return _corridor(dev, ProjectiveVerdict.CONSISTENT,
                         ProjectiveVerdict.NOT_PROJECTIVELY_FLAT,
                         ProjectiveVerdict.INCONCLUSIVE), dev

    verdict, dev, _ = _judge_grid(space, n_max, tau_grid, tol, judge)
    return verdict, dev


def flat_test(
    space: RootData, n_max: int, tau_grid: Sequence[float],
    tol: float = DEFAULT_TOL, mode: Mode = Mode.PREFACTOR_CORRECTED
) -> tuple[FlatVerdict, float]:
    """Numeric vanishing test of the curvature samples, per mode."""
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    mode = Mode(mode)

    def judge(grid: CurvatureGrid) -> tuple[FlatVerdict, float]:
        resid = _residual(grid, mode)
        return _corridor(resid, FlatVerdict.FLAT, FlatVerdict.NOT_FLAT,
                         FlatVerdict.INCONCLUSIVE), resid

    verdict, resid, _ = _judge_grid(space, n_max, tau_grid, tol, judge)
    return verdict, resid


# ---------------------------------------------------------------------------
# the full scan


@dataclass(frozen=True)
class FlatnessReport:
    """Per-space verdict with both its exact and numeric evidence."""

    space: RootData
    mode: Mode
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
    space: RootData, n_max: int, tau_grid: tuple[float, ...], tol: float,
    mode: Mode
) -> FlatnessReport:
    checks = tuple(centrality_check(space, range(1, n_max + 1)))
    # n = 1 is always checked and fails for every even m (its right side
    # carries sqrt(A/(A+2)), and A(A+2) = (A+1)^2 - 1 is never a square); for
    # odd m the rationality argument's right side is rational: it is reported
    witness = next((c for c in checks if not c.passed), None)
    rationality = rationality_argument(space) if witness is None else None

    def judge(grid: CurvatureGrid) -> tuple[FieldVerdict, float]:
        # projectively flat first (isotype spread), then flat (residual)
        dev = _chi_deviation(grid)
        if witness is not None:
            return FieldVerdict.NOT_PROJECTIVELY_FLAT, dev
        flat = _corridor(_residual(grid, mode), FieldVerdict.FLAT,
                         FieldVerdict.PROJECTIVELY_FLAT_ONLY,
                         FieldVerdict.INCONCLUSIVE)
        return _corridor(dev, flat, FieldVerdict.NOT_PROJECTIVELY_FLAT,
                         FieldVerdict.INCONCLUSIVE), dev

    verdict, dev, grid = _judge_grid(space, n_max, tau_grid, tol, judge)
    return FlatnessReport(
        space=space,
        mode=mode,
        n_max=n_max,
        tau_grid=grid.tau_grid,
        curvature=grid.values,
        max_chi_deviation=dev,
        prefactor_residual=_residual(grid, Mode.PREFACTOR_CORRECTED),
        verdict=verdict,
        exact_witness=witness,
        centrality=checks,
        rationality=rationality,
        failures=grid.failures,
    )


def theorem_scan(
    spaces: Sequence[RootData], n_max: int = 5,
    tau_grid: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0),
    tol: float = DEFAULT_TOL, mode: Mode = Mode.PREFACTOR_CORRECTED,
) -> list[FlatnessReport]:
    """One flatness report per space, in input order.

    Exact certificates are evaluated first; a failed certificate is
    preferred over a numeric witness in the report.
    """
    spaces = list(spaces)
    if not spaces:
        raise ValueError("space list must be nonempty")
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    mode = Mode(mode)
    grid = tuple(float(t) for t in tau_grid)
    return [_scan_one(s, n_max, grid, tol, mode) for s in spaces]
