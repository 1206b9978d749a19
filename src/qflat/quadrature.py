"""Gaussian-weighted radial integrals on the half line.

Evaluates

    Q(tau) = int_0^inf exp(-t^2/tau) P(-sinh^2 t) t^mu sinh(t)^kappa cosh(t)^nu dt

together with its first two log-derivatives in tau, by composite adaptive
Gauss-Kronrod 7/15 panels on a truncated interval [0, T].  Each panel costs
15 node evaluations: the 15-point Kronrod rule gives its value and the
7-point Gauss rule on every other node its error estimate |K15 - G7|
(the embedded pair of QUADPACK's qk15).  Panels are kept as arrays, and
each level (the initial panels, then each generation of the refinement
sweep) is evaluated in one stacked call, so the cost per node is numpy
arithmetic rather than Python overhead per panel.

The fixed cost of a cell is kept small as well.  Everything about isotype n
of a catalog space that does not depend on tau (the float coefficients of
its hypergeometric polynomial, the exponents mu, kappa, nu and the constant
of the tail bound) is one read-only record, built once per
(space, n) and cached; the scale B never enters it.  Integrals of arbitrary
polynomials (``q_p``) build their record afresh and leave the cache alone.
Within a cell, the common log-scale is the peak of the integrand over the
first panel level's own nodes, and refinement is one bisection sweep
against the first level's targets, whose kept panels are summed once.
Every cell goes through one grid engine, ``_q_engine``: a grid of isotypes
n and taus of one space from ``prefetch``, or a lone cell as a grid of
one.  The break points of a grid come from one array pass, with
lam as a per-cell column, and its first levels go through stacked node
calls that span isotypes, with tau as a per-panel column.  The exponents
mu, kappa, nu depend on the space only, so the isotypes of a stack differ
only in the coefficients of P, which ``_log_mag_sign`` reads by index from
one table, zero-padded to the stack's top degree.  The first level's
targets of a stack are tested together; a cell that meets them never
enters refinement, the others refine against the stored targets.  Every
step is per node, panel or cell, so a cell gets the same bits alone and in
any grid.

Two numerical realities shape the implementation:

* Before the Gaussian takes over, the integrand grows like exp(lambda*t)
  with lambda = kappa + nu + 2 deg(P), so for large tau the peak magnitude
  (about exp(lambda^2 tau / 4)) dwarfs the double range even though every
  relative quantity of interest is tame.  Node evaluation therefore happens
  in log space, panels are accumulated after subtracting one common scale,
  and the result records log(value) alongside the value itself (which may
  legitimately overflow to inf within the allowed parameter box).  At a
  node, log|integrand| is closed-form logs of t, sinh t and cosh t plus the
  log of one Horner sum of P in a variable x in [-1, 0), so no term of it
  can overflow (``_log_mag_sign``).
* The truncation point T comes from the exponent t^2/tau - lambda*t, placed
  where the integrand has dropped a fixed factor below the requested
  tolerance.  An analytic majorant of the discarded tail is checked
  a posteriori against the computed value; T is enlarged and the
  integration redone in the rare case the bound is not met.

Derivatives in tau are produced by differentiation under the integral sign:
dQ/dtau inserts a factor t^2/tau^2 and d2Q/dtau2 a factor
t^4/tau^4 - 2 t^2/tau^3, so one pass over the nodes yields the moments
needed for (log Q)' and (log Q)''.  A value-only call (``q_chi``, ``q_p``,
``p_chi``) forms the first moment alone: its panels are summed, tested and
refined on the value row only.

All operations are pure; results are bit-reproducible for fixed inputs and
independent of evaluation order across calls.  The rule sums are numpy
reductions in a fixed order, not BLAS products, so they do not depend on
the kernel a BLAS build dispatches to either.  The panel sums are
correctly rounded, with the bits of ``math.fsum``, in a few array passes
per stack (``_sum_panels``): each value splits at a power of two above its
run's magnitudes (the error-free extraction of Rump, Ogita and Oishi,
Accurate floating-point summation, part I, SIAM J. Sci. Comput. 31, 2008),
the high parts sum exactly, and a bound on the low parts' rounding
certifies the result; a sum it cannot certify goes to ``math.fsum``.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence, Union

import numpy as np

from .hypergeom import RationalPoly, hypergeom_poly
from .spaces import RootData, chi_params, sphere_volume

__all__ = [
    "QPParams",
    "QuadratureResult",
    "QuadratureError",
    "ParameterRangeError",
    "ConvergenceError",
    "CancellationWarning",
    "integrand",
    "q_p",
    "q_chi",
    "q_chi_derivs",
    "prefetch",
    "p_chi",
    "dlogq",
    "TOL_MIN",
    "TOL_MAX",
    "MAX_DEGREE",
    "MAX_DIM",
    "MIN_TAU",
    "MAX_TAU",
    "MAX_POWER",
    "DEFAULT_TOL",
]

_LN2 = math.log(2.0)
_EPS = 2.0 ** -52

# The Gauss-Kronrod 7/15 pair of QUADPACK's qk15 (Kronrod 1965; Piessens et
# al., QUADPACK, 1983): the Kronrod abscissae of [0, 1) from the outside in,
# their weights, and the weights of the 7-point Gauss rule on the abscissae
# of odd index.  Mirrored below into the 15 nodes of [-1, 1] in ascending
# order, so the Gauss nodes are those of odd index there too.
_XGK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
])
_K15_X = np.concatenate([-_XGK, _XGK[-2::-1]])
_K15_W = np.concatenate([_WGK, _WGK[-2::-1]])
_G7_W = np.concatenate([_WG, _WG[-2::-1]])

# Rounding floor of the reported panel error, in units of eps * int |f|.
# Each rule is a dot product and a scaling by the half-width, so the
# computed K15 is off by at most gamma_16 * sum w|f| (inner-product bound,
# Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1;
# gamma_k = k u / (1 - k u), u = eps / 2) and G7 by gamma_8 * sum w|f|.
# The estimate |K15 - G7| thus carries up to (gamma_16 + gamma_8) int |f| of
# noise and the returned value gamma_16 int |f| of its own rounding: about
# 40 u = 20 eps in all, rounded up to a power of two here.
_ROUND_C = 32.0

TOL_MIN = 1e-13
TOL_MAX = 1e-4
DEFAULT_TOL = 1e-10

# Parameter box.  Within it log-magnitudes stay far from the float64
# exponent limits at every node; outside it the operations refuse to run
# rather than degrade silently.
MAX_DEGREE = 16
MAX_DIM = 16
MAX_POWER = 8.0
MAX_TAU = 400.0
# Far above the first failure of a sweep of the catalog (OP2 stops settling
# its truncation tail at tau = 1e-60, and tau**4 underflows the curvature
# near 1e-77), and high enough that q ~ tau^(r/2) with r <= 2 MAX_POWER + 1
# stays a normal double: (1e-30)^8.5 = 1e-255.
MIN_TAU = 1e-30

_MAX_DEPTH = 46
_SAFETY = 0.5
_NODE_BUDGET = 400_000
# Nodes per stacked node call of the first levels of a grid of cells
# (about ten cells): larger stacks save little time and cost peak memory.
_STACK_NODES = 5_000


class QuadratureError(Exception):
    """Base class for radial-integration failures."""


class ParameterRangeError(QuadratureError, ValueError):
    """Parameters outside the supported box or otherwise invalid."""


class ConvergenceError(QuadratureError):
    """Tolerance not reached; ``best`` is the failing attempt's result.

    Three kinds: refinement stops at ``_NODE_BUDGET`` nodes per cell or at
    the maximum depth (the message gives ``best.nodes``, the panel target
    tol/2 and the worst moment row's relative panel error, above it); a
    cancelling integral's rounding floor, or the rounding of a subnormal
    value, keeps ``best.rel_error`` above tol; or the truncation tail bound
    does not settle below tol/2 by the fifth T.
    """

    def __init__(self, message: str, best: "QuadratureResult | None" = None):
        super().__init__(message)
        self.best = best


class CancellationWarning(RuntimeWarning):
    """More than six digits lost forming (log Q)'' from its moment ratios."""


PolyLike = Union[RationalPoly, Sequence[float], Sequence[Fraction], int, float, Fraction]


@dataclass(frozen=True)
class QPParams:
    """Weight exponents and Gaussian width of a radial integral."""

    mu: float
    kappa: float
    nu: float
    tau: float

    def __post_init__(self) -> None:
        for name in ("mu", "kappa", "nu", "tau"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ParameterRangeError(f"{name} must be finite, got {v}")
        if self.mu + self.kappa <= -1.0:
            raise ParameterRangeError(
                f"need mu + kappa > -1 for convergence, got {self.mu + self.kappa}"
            )
        if self.tau <= 0.0:
            raise ParameterRangeError(f"tau must be positive, got {self.tau}")


@dataclass(frozen=True)
class QuadratureResult:
    """Value of a radial integral with accounting.

    ``log_value`` stays finite even when ``value`` overflows the double
    range; ratio-style consumers should prefer it.  ``abs_error`` and
    ``rel_error`` cover the panel error estimates, floored at a bound on the
    rounding of the panel rules (32 eps times the integral of |integrand|),
    the analytic truncation-tail bound and, for a value below the normal
    range, its rounding to a double (2^-1075).  The floor makes them error
    bounds rather than readings of roundoff, so they do not depend on the
    order in which a BLAS build sums the rule products.  It leaves out the
    rounding of log|integrand| at the nodes, about eps * |log value|.
    """

    value: float
    abs_error: float
    nodes: int
    truncation_t: float
    log_value: float
    rel_error: float


def _as_float_coeffs(P: PolyLike) -> tuple[float, ...]:
    """The float coefficients of P, lowest first, less trailing zeros.

    A tuple of floats whose top coefficient is nonzero is already that, and
    comes back as it is.  Every form, that one included, is refused unless
    each coefficient is finite.
    """
    if (type(P) is tuple and P and P[-1] != 0.0
            and all(type(c) is float for c in P)):
        cs = P
    elif isinstance(P, RationalPoly):
        cs = P.float_coeffs()
    elif isinstance(P, (int, float, Fraction)):
        cs = (float(P),)
    else:
        cs = tuple(float(c) for c in P)
    if not cs:
        raise ParameterRangeError("empty polynomial")
    while len(cs) > 1 and cs[-1] == 0.0:
        cs = cs[:-1]
    if not any(c != 0.0 for c in cs):
        raise ParameterRangeError("zero polynomial")
    if not all(map(math.isfinite, cs)):
        raise ParameterRangeError(
            f"polynomial coefficients must be finite, got {cs}")
    return cs


def _check_tau_tol(tau: float, tol: float) -> None:
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise ParameterRangeError(
            f"tol must lie in [{TOL_MIN:g}, {TOL_MAX:g}], got {tol:g}"
        )
    if tau > MAX_TAU:
        raise ParameterRangeError(f"tau {tau} exceeds supported {MAX_TAU}")
    if not (tau >= MIN_TAU):
        raise ParameterRangeError(f"tau must be at least {MIN_TAU:g}, got {tau}")


def _check_box(coeffs: Sequence[float], params: QPParams, tol: float) -> None:
    _check_tau_tol(params.tau, tol)
    if len(coeffs) - 1 > MAX_DEGREE:
        raise ParameterRangeError(
            f"polynomial degree {len(coeffs) - 1} exceeds supported {MAX_DEGREE}"
        )
    for name in ("mu", "kappa", "nu"):
        if abs(getattr(params, name)) > MAX_POWER:
            raise ParameterRangeError(
                f"|{name}| exceeds supported {MAX_POWER}: {getattr(params, name)}"
            )
    # below this the endpoint singularity t^(mu + kappa) outruns refinement
    # at some tol of the box; every catalog isotype has mu + kappa >= 1
    if params.mu + params.kappa < -0.1:
        raise ParameterRangeError(
            f"mu + kappa below supported -0.1: {params.mu + params.kappa}"
        )


def _log_sinh(t: np.ndarray) -> np.ndarray:
    # requires t > 0; expm1 keeps 1 - exp(-2t) accurate for tiny t
    return t - _LN2 + np.log(-np.expm1(-2.0 * t))


class _Tables(NamedTuple):
    """The tau-independent part of a weight: the float coefficients of P
    (read-only, so one record can serve every tau), the exponents mu, kappa,
    nu, the growth rate lam = kappa + nu + 2 deg(P) and the log of the tail
    majorant's constant."""

    coeffs: np.ndarray
    mu: float
    kappa: float
    nu: float
    lam: float
    log_tail_const: float


def _make_tables(coeffs: Sequence[float], mu: float, kappa: float,
                 nu: float) -> _Tables:
    c = np.array(coeffs, dtype=float)
    deg = len(c) - 1
    kappa, nu = float(kappa), float(nu)
    j = np.arange(deg + 1)
    # majorant constant: |P(-sh^2 t)| sh^k ch^v <= C exp(lam t) t^0 with
    # C = sum |c_j| 4^-j * 2^-kappa  (uses sh t <= e^t/2, ch t <= e^t)
    log_tail_const = (
        math.log(float(np.sum(np.abs(c) * 4.0 ** -j))) - kappa * _LN2
    )
    c.flags.writeable = False
    return _Tables(c, float(mu), kappa, nu, kappa + nu + 2.0 * deg,
                   log_tail_const)


@functools.lru_cache(maxsize=512)
def _isotype(space: RootData, n: int) -> _Tables:
    """The record of isotype n of ``space``, which must be given at B = 1.

    512 entries hold every catalog space with m <= MAX_DIM at every
    n <= MAX_DEGREE; the callers validate n and m before the lookup.
    """
    ch = chi_params(space, n)
    coeffs = _as_float_coeffs(hypergeom_poly(ch.A, n, ch.c))
    return _make_tables(coeffs, ch.mu, ch.kappa, ch.nu)


def _log_mag_sign(tables: Sequence[_Tables], tau: float | np.ndarray,
                  t: np.ndarray, runs: Sequence[int]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(log|integrand|, sign) elementwise at ``tau``, a float or an array
    that broadcasts against the 2-D ``t``; t must be positive.

    P(-sinh^2 t) is one Horner sum in x = -exp(-2 |log sinh t|), which lies
    in [-1, 0): x = -sinh^2 t up to sinh t = 1, with the coefficients taken
    from the top down, and x = -1/sinh^2 t beyond it, with them taken from
    the bottom up and negated for odd deg (the reversed polynomial, times
    (-sinh^2 t)^deg); negation is exact, so only the sign moves.

    ``tables`` is a stack of records that share mu, kappa and nu (as the
    isotypes of one space do), whose nodes are runs of ``runs`` rows of t.
    Each Horner step reads the coefficients of every record both ways
    round, zero-padded at the front to the top degree, and each node takes
    its own record's, on its side of sinh t = 1, by index; the degree is a
    per-row column.  0 x + c = c exactly, so each record gets the bits it
    gets in a stack of its own.
    """
    logsh = _log_sinh(t)
    up = np.maximum(logsh, 0.0)
    x = -np.exp(-2.0 * np.abs(logsh))
    big = logsh > 0.0
    sizes = [len(tb.coeffs) for tb in tables]
    steps = np.zeros((max(sizes), len(tables), 2))
    for k, (tb, size) in enumerate(zip(tables, sizes)):
        # beyond sinh t = 1 the factor (-1)^deg goes into the coefficients
        steps[-size:, k, 0] = tb.coeffs[::-1]
        steps[-size:, k, 1] = tb.coeffs if size % 2 else -tb.coeffs
    steps = steps.reshape(len(steps), -1)
    pick = big + np.repeat(2 * np.arange(len(tables)), runs)[:, None]
    deg = np.repeat(np.array(sizes) - 1, runs)[:, None]
    p = steps[0].take(pick)
    for c in steps[1:]:
        p *= x
        p += c.take(pick)
    sign = np.sign(p)
    with np.errstate(divide="ignore"):
        g = np.log(np.abs(p)) + 2.0 * deg * up - t * t / tau
    tb = tables[0]
    # a zero exponent adds 0 times a finite log, which leaves g's bits as
    # they are; cosh^2 t = 1 + sinh^2 t, so log cosh t = up + log1p(-x) / 2
    g += tb.mu * np.log(t)
    g += tb.kappa * logsh
    g += tb.nu * (up + 0.5 * np.log1p(-x))
    return g, sign


def _moment_rows(t: np.ndarray, g: np.ndarray, sign: np.ndarray,
                 scale: float, nrows: int) -> np.ndarray:
    """Rows (w, t^2 w, t^4 w) with w = sign * exp(g - scale), or the row w
    alone when ``nrows`` is 1."""
    w = sign * np.exp(g - scale)
    if nrows == 1:
        return w[None]
    t2 = t * t
    return np.stack([w, t2 * w, t2 * t2 * w])


def _gl_rule(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Unscaled sum of each row of a 2-D ``rows`` against the rule weights ``w``.

    A numpy reduction in a fixed order rather than a BLAS product, so the
    sums do not depend on which kernel the BLAS build dispatches to.
    """
    return (rows * w).sum(axis=-1)


def _panel_nodes(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (P, 15) and half-widths (P,) of the 15-node Kronrod rule on
    each panel [a, b]."""
    half = 0.5 * (b - a)
    return (0.5 * (a + b))[:, None] + half[:, None] * _K15_X, half


def _apply_rules(rows: np.ndarray,
                 half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Estimates K15 and their errors |K15 - G7|, each of shape (rows, P),
    from the moment rows at the nodes of ``_panel_nodes``; G7 reads the
    nodes of odd index."""
    shape = len(rows), len(half)
    rows = rows.reshape(-1, 15)
    k15 = _gl_rule(rows, _K15_W).reshape(shape) * half
    g7 = _gl_rule(rows[:, 1::2], _G7_W).reshape(shape) * half
    return k15, np.abs(k15 - g7)


def _eval_panels(tables: _Tables, tau: float, scale: float, a: np.ndarray,
                 b: np.ndarray, nrows: int) -> tuple[np.ndarray, np.ndarray]:
    """Estimates and their errors, each of shape (nrows, P), of panels [a, b].

    Each panel gets the Gauss-Kronrod 7/15 pair on its 15 nodes: K15 is the
    estimate and |K15 - G7| its error.  All nodes of all panels go through
    one node call.
    """
    xs, half = _panel_nodes(a, b)
    g, sign = _log_mag_sign([tables], tau, xs, [len(a)])
    return _apply_rules(_moment_rows(xs, g, sign, scale, nrows), half)


# Candidate break points of a cell, as multiples: of T the grid k / 8
# (k = 0..8), of sigma = sqrt(tau / 2) the offsets j about the peak
# lam tau / 2 (|j| <= 12), and of sqrt(tau) the factors e.
_GRID = np.arange(9.0) / 8.0
_PEAK_J = np.arange(-12.0, 13.0)
_ROOT_E = np.array([0.25, 0.5, 1.0, 2.0, 4.0])


def _initial_breaks(tables: Sequence[_Tables], taus: Sequence[float],
                    Ts: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """The initial break points of each cell (tau, T), of the records
    ``tables``, one per cell.

    Returns the break points of all cells, concatenated, and the number of
    each cell's.  A cell's candidates are the grid T k / 8, and the points
    lam tau / 2 + j sigma and e sqrt(tau) that fall inside (0, T); sorted,
    less any candidate within 1e-10 T of its predecessor, with the last
    break moved onto T.  All cells are one array pass, with lam as a
    per-cell column.  Dropping against the predecessor keeps
    the points that dropping against the last point kept does unless three
    candidates fall within 2e-10 T; those of one kind lie much farther
    apart, so that takes all three kinds meeting to ten digits.
    """
    tau = np.array(taus, dtype=float)[:, None]
    half = 0.5 * tau
    lam = np.array([tb.lam for tb in tables])[:, None]
    T = np.array(Ts, dtype=float)[:, None]
    # halving and eighths are exact, so every candidate has the bits of its
    # scalar formula; one outside (0, T) is clipped onto a copy of 0 or T,
    # which the thinning drops
    extra = np.minimum(np.maximum(np.concatenate(
        [lam * half + _PEAK_J * np.sqrt(half), _ROOT_E * np.sqrt(tau)],
        axis=1), 0.0), T)
    cand = np.sort(np.concatenate([T * _GRID, extra], axis=1), axis=1)
    keep = np.empty(cand.shape, dtype=bool)
    keep[:, 0] = True
    np.greater(cand[:, 1:] - cand[:, :-1], 1e-10 * T, out=keep[:, 1:])
    breaks = cand[keep]
    counts = keep.sum(axis=1)
    breaks[np.cumsum(counts) - 1] = T[:, 0]
    return breaks, counts


def _targets(I: np.ndarray, Iabs: np.ndarray, tol: float) -> np.ndarray:
    # the floor is _build_result's, so refinement stops where the reported
    # error's floor starts
    return np.maximum(tol * np.abs(I), _ROUND_C * _EPS * Iabs)


# The sums (I, Iabs, E) of a run of panels, each of shape (rows,).
_Sums = tuple[np.ndarray, np.ndarray, np.ndarray]
# A cell's first panel level: panels a and b, estimates, errors, scale,
# sums, the targets its refinement sweep tests against and whether the
# errors meet them.
_Level = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float, _Sums,
               np.ndarray, bool]


def _sum_panels(val: np.ndarray, err: np.ndarray, counts: Sequence[int]
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sums I of the estimates, Iabs of their magnitudes and E of their
    errors over each run of ``counts`` consecutive panels, each of shape
    (runs, rows), with the bits of ``math.fsum``.  When no estimate is
    negative, Iabs is I: the magnitudes are the estimates, so their sums
    have the same bits.

    Each row of a run of n values x splits at sigma = 2^k, the power of two
    with max |x| < 2^-K sigma, 2^K >= n + 2 (the extraction of Rump, Ogita
    and Oishi, SIAM J. Sci. Comput. 31, 2008): q = (sigma + x) - sigma is x
    rounded to a multiple of u sigma (u = 2^-53), and x - q its exact
    remainder, at most u sigma.  Every partial sum of the q is such a
    multiple below sigma, so S1 = sum q is exact in any order, and
    S2 = sum (x - q) is off by at most gamma_(n-1) n u sigma <= n^2 u^2
    sigma.  TwoSum splits S1 + S2 exactly into d + rho, so the exact sum is
    d + rho up to that bound, and d is its correctly rounded value, fsum's,
    when |rho| + n^2 u^2 sigma stays below half the gap from d to its
    neighbour towards 0 (the narrower one).  The few rows that fail this
    test go to ``math.fsum``: a sum that cancels to 0 (the gap of 0 halves
    to 0), one near a rounding midpoint, and any non-finite value, where
    the NaN it leaves fails every comparison.
    """
    signed = not np.all(val >= 0.0)
    x = np.concatenate([val, np.abs(val), err] if signed else [val, err])
    n = np.asarray(counts)
    starts = np.cumsum(n) - n
    with np.errstate(over="ignore", invalid="ignore"):
        top = np.maximum.reduceat(np.abs(x), starts, axis=1)
        # frexp gives max |x| < 2^e and n + 1 < 2^K, so 2^K >= n + 2
        sigma = np.ldexp(1.0, np.frexp(top)[1] + np.frexp(n + 1.0)[1])
        s = np.repeat(sigma, n, axis=1)
        q = (s + x) - s
        S1 = np.add.reduceat(q, starts, axis=1)
        S2 = np.add.reduceat(x - q, starts, axis=1)
        d = S1 + S2
        z = d - S1
        rho = (S1 - (d - z)) + (S2 - z)
        # the bound floored at the least subnormal, where u^2 sigma underflows
        bound = n * n * np.maximum(0.25 * _EPS * _EPS * sigma, 5e-324)
        ok = np.abs(rho) + bound < 0.5 * np.abs(d - np.nextafter(d, 0.0))
    for i, k in zip(*np.nonzero(~ok)):
        d[i, k] = math.fsum(x[i, starts[k]:starts[k] + n[k]].tolist())
    sums = d.T
    r = len(val)
    I = sums[:, :r]
    return I, sums[:, r:2 * r] if signed else I, sums[:, -r:]


def _first_levels(tables: Sequence[_Tables], taus: Sequence[float],
                  Ts: Sequence[float], tol: float,
                  nrows: int) -> Iterator[_Level]:
    """The first panel level of each cell (tau, T), tested against the panel
    tolerance ``tol`` on the first ``nrows`` moment rows; the cells are of
    the records ``tables``, one per cell, which share mu, kappa and nu, as
    the isotypes of one space do.

    Yields per cell its panels a and b, their estimates and errors, each
    of shape (nrows, P), its scale (the peak of log|integrand| over the
    cell's own nodes), the sums of ``_sum_panels``, the targets of its
    refinement sweep and whether its errors meet them.  The cells' panels are
    concatenated into stacked node calls of at most _STACK_NODES nodes (or
    one cell, if it has more), across records, with tau as a per-panel
    column; the targets of a stack are one call and one comparison.  A stack is
    computed when its first cell is asked for, and its arrays are freed
    once the caller has let go of its cells.  Every step is elementwise,
    per panel or per cell, so each cell gets the bits it gets in a stack of
    its own.
    """
    breaks, nbreaks = _initial_breaks(tables, taus, Ts)
    # the panels of the grid join consecutive breaks of one cell
    inner = np.ones(len(breaks) - 1, dtype=bool)
    inner[np.cumsum(nbreaks[:-1]) - 1] = False
    a_row, b_row = breaks[:-1][inner], breaks[1:][inner]
    del breaks, inner
    panels = (nbreaks - 1).tolist()
    lo = p0 = 0
    while lo < len(panels):
        hi, size = lo + 1, panels[lo]
        while hi < len(panels) and 15 * (size + panels[hi]) <= _STACK_NODES:
            size += panels[hi]
            hi += 1
        counts = np.array(panels[lo:hi])
        starts = np.cumsum(counts) - counts
        p1 = p0 + size
        a, b = a_row[p0:p1], b_row[p0:p1]
        xs, half = _panel_nodes(a, b)
        tau = np.repeat(np.array(taus[lo:hi], dtype=float), counts)[:, None]
        g, sign = _log_mag_sign(tables[lo:hi], tau, xs, counts)
        scales = np.maximum.reduceat(g.ravel(), 15 * starts)
        val, err = _apply_rules(_moment_rows(
            xs, g, sign, np.repeat(scales, counts)[:, None], nrows), half)
        # the node arrays go before the next stack's are made
        del xs, g, sign
        I, Iabs, E = _sum_panels(val, err, panels[lo:hi])
        target = _targets(I, Iabs, tol)
        met = np.all(E <= target, axis=1).tolist()
        for k, (s, e, scale) in enumerate(zip(starts, starts + counts,
                                              scales.tolist())):
            yield (a[s:e], b[s:e], val[:, s:e], err[:, s:e], scale,
                   (I[k], Iabs[k], E[k]), target[k], met[k])
        lo, p0 = hi, p1


def _integrate_moments(
    tables: _Tables, tau: float, T: float, tol: float, first: _Level,
    nrows: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, int, bool]:
    """Refine the cell's first level, an entry of ``_first_levels``, in one
    bisection sweep, then test its sums against ``tol`` (a first level that
    meets it is returned).

    Each generation splits the panels that miss their share of the first
    level's targets; its panels share one depth and run left to right.
    The sweep ends when no panel fails, at depth ``_MAX_DEPTH``, or when
    the node budget cuts a generation short at its leftmost failing panels,
    whose children are kept untested.  The kept panels are summed in one
    call, correctly rounded, so their order does not matter.
    """
    a, b, val, err, scale, (I, Iabs, E), target, converged = first
    nodes = 15 * len(a)
    if converged:
        return I, Iabs, E, scale, nodes, True
    vals, errs = [], []
    for _ in range(_MAX_DEPTH):
        ok = np.all(err <= target[:, None] * (_SAFETY * (b - a) / T), axis=0)
        fail = np.flatnonzero(~ok)
        room = max(0, (_NODE_BUDGET - nodes) // 30)
        cut = len(fail) > room
        fail = fail[:room]
        if len(fail) == 0:
            break
        stay = np.ones(len(a), dtype=bool)
        stay[fail] = False
        vals.append(val[:, stay])
        errs.append(err[:, stay])
        mid = 0.5 * (a[fail] + b[fail])
        a = np.stack([a[fail], mid], axis=1).ravel()
        b = np.stack([mid, b[fail]], axis=1).ravel()
        val, err = _eval_panels(tables, tau, scale, a, b, nrows)
        nodes += 15 * len(a)
        if cut:
            break
    vals.append(val)
    errs.append(err)
    val, err = np.concatenate(vals, axis=1), np.concatenate(errs, axis=1)
    I, Iabs, E = (x[0] for x in _sum_panels(val, err, [val.shape[1]]))
    return I, Iabs, E, scale, nodes, bool(np.all(E <= _targets(I, Iabs, tol)))


def _log_tail_bound(tables: _Tables, tau: float, T: float) -> float:
    """Log of an analytic bound on the integral over [T, inf).

    On [T, inf) the exponent -t^2/tau + lam t decays with slope at least
    D = 2T/tau - lam, and t^mu <= T^mu exp(mu_+ (t-T)/T), so the tail is at
    most C T^mu exp(-T^2/tau + lam T) / (D - mu_+/T).
    """
    lam, mu = tables.lam, tables.mu
    D = 2.0 * T / tau - lam - max(mu, 0.0) / T
    if D <= 0.0:
        return math.inf
    return (
        tables.log_tail_const
        - T * T / tau
        + lam * T
        + mu * math.log(T)
        - math.log(D)
    )


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _build_result(
    I: np.ndarray, Iabs: np.ndarray, E: np.ndarray, scale: float, nodes: int,
    T: float, log_tail: float
) -> QuadratureResult:
    """A cell's result: rel_error is the value row's panel error, floored at
    the rounding bound, over |I|, plus the relative tail bound, capped at 1.
    A value below the normal range (subnormal, or 0 after underflow) is off
    by up to 2^-1075 as a double, which both errors include."""
    i0 = float(I[0])
    if i0 == 0.0:
        return QuadratureResult(0.0, 0.0, nodes, T, -math.inf, math.inf)
    sign = 1.0 if i0 > 0 else -1.0
    log_value = scale + math.log(abs(i0))
    value = sign * _exp_or_inf(log_value)
    # Iabs stands in for int |f|; it falls short only where the integrand
    # changes sign inside a panel
    err = max(float(E[0]), _ROUND_C * _EPS * float(Iabs[0]))
    rel = err / abs(i0) + math.exp(min(log_tail - log_value, 0.0))
    abs_err = math.inf if math.isinf(value) else rel * abs(value)
    if abs(value) < sys.float_info.min:
        rel += _exp_or_inf(-1075.0 * _LN2 - log_value)
        # 2^-1075 itself rounds to 0.0; the least subnormal bounds it
        abs_err += math.ulp(0.0)
    return QuadratureResult(value, abs_err, nodes, T, log_value, rel)


def _first_truncation(tables: _Tables, tau: float, tol: float) -> float:
    """T of the first attempt: where the exponent t^2/tau - lam t has
    dropped a fixed factor below tol."""
    L = math.log(1.0 / tol) + 40.0
    lam = tables.lam
    root = 0.5 * (lam * tau + math.sqrt(lam * lam * tau * tau + 4.0 * L * tau))
    return max(8.0 * math.sqrt(tau), root)


def _finish_cell(tables: _Tables, tau: float, tol: float, T0: float,
                 first: _Level, nrows: int
                 ) -> tuple[np.ndarray, QuadratureResult]:
    """One cell of ``nrows`` moment rows from its first attempt's T and
    first level at the panel tolerance tol/2: refinement, the tail test and
    up to four larger T, whose first levels are stacks of one.  Success is a
    settled tail bound and a reported ``rel_error`` at most tol."""
    for attempt in range(5):
        T = T0 * 1.3 ** attempt
        if attempt:
            (first,) = _first_levels([tables], [tau], [T], 0.5 * tol, nrows)
        # split the tolerance: half for the panels, half for the tail
        I, Iabs, E, scale, nodes, conv = _integrate_moments(
            tables, tau, T, 0.5 * tol, first, nrows
        )
        log_tail = _log_tail_bound(tables, tau, T)
        res = _build_result(I, Iabs, E, scale, nodes, T, log_tail)
        if not conv:
            # some moment row missed tol/2, so the worst E/|I| exceeds it
            with np.errstate(divide="ignore", invalid="ignore"):
                worst = float(np.max(E / np.abs(I)))
            raise ConvergenceError(
                f"panel refinement did not reach tol={tol:g}: after "
                f"{res.nodes} nodes the worst moment's relative error "
                f"{worst:.4g} exceeds the panel target {0.5 * tol:g}",
                res,
            )
        if log_tail <= math.log(tol / 2.0) + res.log_value:
            if res.rel_error > tol:
                raise ConvergenceError(
                    f"rounding or cancellation limits the relative error to "
                    f"{res.rel_error:.3g}, above tol={tol:g}",
                    res,
                )
            return I, res
    raise ConvergenceError(
        "truncation tail bound failed to settle below tol/2", res
    )


def _q_engine(tables: Sequence[_Tables], taus: Sequence[float], tol: float,
              nrows: int) -> list:
    """Per validated cell (record, tau), whose records share mu, kappa and
    nu: (I, result), or the QuadratureError it raises.  Every cell's first
    T comes first, then the stacked first levels of all cells, then each
    cell's refinement, tail test and larger T.

    Each cell forms, sums and meets tol on its first ``nrows`` moment rows:
    1 for a value, 3 for (log q)' and (log q)'' as well; I has that length.
    """
    Ts = [_first_truncation(tb, tau, tol) for tb, tau in zip(tables, taus)]
    firsts = _first_levels(tables, taus, Ts, 0.5 * tol, nrows)
    out = []
    for tb, tau, T, first in zip(tables, taus, Ts, firsts):
        try:
            out.append(_finish_cell(tb, tau, tol, T, first, nrows))
        except QuadratureError as exc:
            # without its traceback, which would keep the grid's frames alive
            out.append(exc.with_traceback(None))
    return out


def _unwrap(out) -> tuple[np.ndarray, QuadratureResult]:
    """The (I, result) of an outcome of ``_q_engine``, or its error raised."""
    if isinstance(out, QuadratureError):
        raise out.with_traceback(None)
    return out


# ---------------------------------------------------------------------------
# public operations


def integrand(P: PolyLike, params: QPParams, t: float) -> float:
    """Integrand value at a finite t >= 0, as a double.

    For t > 0 it is sign * exp(g) from the node evaluator ``_log_mag_sign``,
    which the integration routines use as well.  At t = 0 it is the limit
    of P(0) t^(r-1), r = mu + kappa + 1: 0, P(0) or inf as r is above, at
    or below 1.  Raises OverflowError when the magnitude exceeds e^709,
    near the top of the double range; the integration routines work in
    log space and do not share this limit.
    """
    if not 0.0 <= t < math.inf:
        raise ParameterRangeError(f"t must be finite and nonnegative, got {t}")
    coeffs = _as_float_coeffs(P)
    tables = _make_tables(coeffs, params.mu, params.kappa, params.nu)
    if t == 0.0:
        r = params.mu + params.kappa + 1.0
        if r > 1.0:
            return 0.0
        if r == 1.0:
            return coeffs[0]
        return math.inf
    g, sign = _log_mag_sign([tables], float(params.tau),
                            np.array([[float(t)]]), [1])
    g0 = float(g[0, 0])
    if g0 > 709.0:
        raise OverflowError(
            f"integrand magnitude exp({g0:.1f}) exceeds double range"
        )
    return float(sign[0, 0]) * math.exp(g0)


def q_p(P: PolyLike, params: QPParams,
        tol: float = DEFAULT_TOL) -> QuadratureResult:
    """The radial integral for an arbitrary polynomial and weight exponents.

    On success ``rel_error`` (panels, rounding floor and tail, as described
    at QuadratureResult) is at most ``tol``.  Otherwise a ConvergenceError
    carrying the best estimate is raised; when refinement stops at the node
    budget or the maximum depth, its message gives the nodes spent and the
    value's relative panel error against the panel target tol/2.  Only the
    value row is formed, so convergence and ``rel_error`` are those of the
    value.  Deterministic: identical inputs give bit-identical results.
    """
    coeffs = _as_float_coeffs(P)
    _check_box(coeffs, params, tol)
    tables = _make_tables(coeffs, params.mu, params.kappa, params.nu)
    (out,) = _q_engine([tables], [float(params.tau)], tol, 1)
    return _unwrap(out)[1]


def _unit_scale(space: RootData) -> RootData:
    # the scale B never enters a cell's integral
    return space if space.B == 1.0 else space.with_scale(1.0)


def _checked_isotype(space: RootData, n: int, tau: float,
                     tol: float) -> _Tables:
    """The cached record of isotype n of ``space``.

    Everything is validated before the lookup, so the cache only ever holds
    records inside the box.
    """
    if n < 0 or n > MAX_DEGREE:
        raise ParameterRangeError(f"isotype index n must be in [0, {MAX_DEGREE}], got {n}")
    if space.m > MAX_DIM:
        raise ParameterRangeError(
            f"dimension m={space.m} exceeds supported {MAX_DIM}"
        )
    _check_tau_tol(tau, tol)
    return _isotype(_unit_scale(space), n)


# The cells of the last prefetched grid: (I, result), or the QuadratureError
# the cell raises, keyed by (space at B = 1, n, tau, tol, moment rows).
_ROW: dict = {}


def prefetch(space: RootData, ns: Sequence[int], taus: Sequence[float],
             tol: float = DEFAULT_TOL, *, derivs: bool = True) -> None:
    """Compute the cells (n, tau) of the isotypes ``ns`` of ``space`` at
    ``taus`` ahead of their calls, as one grid of ``_q_engine``.

    Each outcome waits in a one-grid memo, which every call here replaces,
    until a call of its kind takes it for the same space (at any B), n, tau
    and tol: a derivative grid (``derivs``, the default) serves
    ``q_chi_derivs``, a value grid serves ``q_chi``, and a call of the other
    kind computes its cell alone and leaves the memo untouched.  Those calls
    give the bits, and raise the errors, they give without it.  Cells
    outside the box are left to their calls.
    """
    _ROW.clear()
    cells = {}
    for n in ns:
        for tau in taus:
            tau = float(tau)
            try:
                cells[n, tau] = _checked_isotype(space, n, tau, tol)
            except ParameterRangeError:
                continue
    if not cells:
        return
    key = _unit_scale(space)
    nrows = 3 if derivs else 1
    outcomes = _q_engine(list(cells.values()), [tau for _, tau in cells], tol,
                         nrows)
    for (n, tau), out in zip(cells, outcomes):
        _ROW[key, n, tau, tol, nrows] = out


def _cell(space: RootData, n: int, tau: float, tol: float,
          nrows: int) -> tuple[np.ndarray, QuadratureResult]:
    """One cell of ``nrows`` moment rows, from the prefetched grid (which
    validated it) or else validated and computed as a grid of one."""
    out = _ROW.pop((_unit_scale(space), n, tau, tol, nrows), None)
    if out is None:
        (out,) = _q_engine([_checked_isotype(space, n, tau, tol)], [tau], tol,
                           nrows)
    return _unwrap(out)


def q_chi(space: RootData, n: int, tau: float,
          tol: float = DEFAULT_TOL) -> QuadratureResult:
    """The isotype-n radial integral q_n(tau) of a catalog space.

    Only the value row is formed, so convergence and ``rel_error`` are
    those of the value.
    """
    _, res = _cell(space, n, float(tau), tol, 1)
    return res


def q_chi_derivs(
    space: RootData, n: int, tau: float, tol: float = DEFAULT_TOL
) -> tuple[QuadratureResult, float, float]:
    """One-pass (q_n(tau), (log q_n)'(tau), (log q_n)''(tau)).

    The second log-derivative is assembled as Q''/Q - (Q'/Q)^2, which can
    cancel; losing more than six digits triggers a CancellationWarning.
    """
    tau = float(tau)
    I, res = _cell(space, n, tau, tol, 3)
    ratio2 = float(I[1]) / float(I[0])
    ratio4 = float(I[2]) / float(I[0])
    d1 = ratio2 / tau**2
    term_a = ratio4 / tau**4
    term_b = 2.0 * ratio2 / tau**3
    term_c = d1 * d1
    d2 = term_a - term_b - term_c
    biggest = max(abs(term_a), abs(term_b), abs(term_c))
    if abs(d2) < 1e-6 * biggest:
        warnings.warn(
            f"(log q)'' lost more than six digits to cancellation at "
            f"tau={tau:g} (terms ~{biggest:.3g}, result {d2:.3g})",
            CancellationWarning,
            stacklevel=2,
        )
    return res, d1, d2


def dlogq(space: RootData, n: int, tau: float, order: int,
          tol: float = DEFAULT_TOL) -> float:
    """First or second derivative of log q_n at tau."""
    if order not in (1, 2):
        raise ParameterRangeError(f"order must be 1 or 2, got {order}")
    _, d1, d2 = q_chi_derivs(space, n, tau, tol)
    return d1 if order == 1 else d2


def p_chi(space: RootData, n: int, s: complex,
          tol: float = DEFAULT_TOL) -> float:
    """The polarization-family matrix coefficient p_n(s), up to its constant.

    Depends on s only through Im s: equals
    Vol(S^(m-1)) 2^(m/2) / (B^m (Im s)^(m/2)) * q_n(B^2 Im s), with the
    overall isotype constant normalized to 1.  q_n comes from ``q_chi``, so
    convergence is that of its value row.
    """
    im = complex(s).imag
    if im <= 0.0:
        raise ParameterRangeError(f"need Im s > 0, got {im}")
    tau = space.B * space.B * im
    res = q_chi(space, n, tau, tol)
    pref = (
        sphere_volume(space.m)
        * 2.0 ** (space.m / 2.0)
        / (space.B ** space.m * im ** (space.m / 2.0))
    )
    return pref * res.value
