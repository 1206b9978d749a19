"""Gaussian-weighted radial integrals on the half line.

Evaluates

    Q(tau) = int_0^inf exp(-t^2/tau) P(-sinh^2 t) t^mu sinh(t)^kappa cosh(t)^nu dt

for mu, kappa, nu >= 0 and coefficients c_k of P with (-1)^k c_k >= 0, so
that every term of P(-sinh^2 t) is non-negative and the integrand is
positive (the class of every catalog weight), together with its first two
log-derivatives in tau, by composite adaptive Gauss-Kronrod 7/15 panels on
a truncated interval [0, T].  Each panel costs 15 node evaluations: the
15-point Kronrod rule gives its value and the 7-point Gauss rule on every
other node its error estimate |K15 - G7| (the embedded pair of QUADPACK's
qk15).  Panels are kept as arrays, and
one evaluator, ``_eval_panels``, takes every batch of them (a stack of
first levels, or one generation of a cell's refinement sweep) in one node
call, so the cost per node is numpy arithmetic rather than Python overhead
per panel.

The fixed cost of a cell is kept small as well.  Everything about isotype n
of a catalog space that does not depend on tau (the float coefficients of
its hypergeometric polynomial, their Horner table, the exponents mu, kappa,
nu and the logs of the coefficients' magnitudes) is one read-only record,
built once per (space, n) and cached; B never enters it.  Integrals of
arbitrary polynomials (``q_p``) build their record afresh, uncached.
Every cell goes through one grid engine, ``_q_engine``: a grid of isotypes
n and taus of one space from ``prefetch``, or a lone cell as a grid of
one.  The break points of a grid come from one array pass, with lam as a
per-cell column; outside each cell's mass window they leave one panel a
side.  The engine then walks the grid on two levels, across isotypes.
Node work goes in stacks of whole cells of at most
``_STACK_NODES`` nodes: per stack one ``_eval_panels`` call, with tau as a
per-panel column and each cell's common log-scale the peak of the
integrand over its own first-level nodes.  Panel-sized work goes in settle
groups of whole stacks of at most ``_STACK_NODES // 2`` panels: the
stacks of a group write their estimates and errors into its arrays, and
the group has one ``_sum_panels`` call and one test against the targets.
The exponents mu, kappa, nu depend on the space only, so the isotypes of a
stack differ only in the coefficients of P, which ``_log_mag`` reads
by index from the Horner tables of its records, zero-padded to the top
degree.  Each cell of a group is finished before the next group is built:
one that met its targets is settled on the group's sums, the others refine
in one bisection sweep (``_finish_cell``) and settle on their kept panels.
``_settle``, the one error rule, forms each term of a cell's ``ErrorBudget``
and raises every failure.  Every step is per node, panel or cell, so a cell
gets the same bits alone and in any grid (the test ``TestGridContract``).

Two numerical realities shape the implementation:

* Before the Gaussian takes over, the integrand grows like exp(lambda*t)
  with lambda = kappa + nu + 2 deg(P), so for large tau the peak magnitude
  (about exp(lambda^2 tau / 4)) dwarfs the double range even though every
  relative quantity of interest is tame.  Node evaluation therefore happens
  in log space, panels are accumulated after subtracting one common scale,
  and the result records log(value) alongside the value itself (which may
  legitimately overflow to inf within the allowed parameter box).  At a
  node, log integrand is closed-form logs of t, sinh t and cosh t plus the
  log of one Horner sum of P in a variable x in [-1, 0), so no term of it
  can overflow (``_log_mag``).
* The truncation point T comes from the exponent t^2/tau - lambda*t, placed
  where the integrand has dropped a fixed factor below the requested
  tolerance.  An analytic majorant of the discarded tail, tight at T, is
  checked a posteriori against the computed value; a cell whose bound is
  not met fails, at its one T.

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
per settle group (``_sum_panels``): each value splits at a power of two
above its run's magnitudes (the error-free extraction of Rump, Ogita and
Oishi, Accurate floating-point summation, part I, SIAM J. Sci. Comput. 31,
2008), the high parts sum exactly, and a bound on the low parts' rounding
certifies the result; a sum it cannot certify goes to ``math.fsum``.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import warnings
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

import numpy as np

from .hypergeom import RationalPoly, hypergeom_poly
from .spaces import RootData, chi_params, sphere_volume

__all__ = [
    "QPParams",
    "QuadratureResult",
    "ErrorBudget",
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
# A settle group holds at most half as many panels as a stack holds nodes:
# at 2 nrows summed rows a panel, its sums are no larger than a stack's
# nrows moment rows a node.
_STACK_NODES = 5_000


class QuadratureError(Exception):
    """Base class for radial-integration failures."""


class ParameterRangeError(QuadratureError, ValueError):
    """Parameters outside the supported box or otherwise invalid."""


class ConvergenceError(QuadratureError):
    """Tolerance not reached; ``best`` is the failing cell's result.

    Three kinds, in the order ``_settle`` tests them: refinement stops at
    ``_NODE_BUDGET`` nodes or the maximum depth (the message gives
    ``best.nodes``, the panel target tol/2 and the worst moment row's
    relative panel error, above it); the tail bound does not settle below
    tol/2; or ``best.rel_error`` stays above tol, the message naming the
    largest term of ``best.budget``: ``representation`` for a value below
    the normal double range, else ``rounding``.
    """

    def __init__(self, message: str, best: "QuadratureResult | None" = None):
        super().__init__(message)
        self.best = best


class CancellationWarning(RuntimeWarning):
    """More than six digits lost forming (log Q)'' from its moment ratios."""


PolyLike = Union[RationalPoly, Sequence[float], Sequence[Fraction], int, float, Fraction]


class _QPParamsFields(NamedTuple):
    mu: float
    kappa: float
    nu: float
    tau: float


class QPParams(_QPParamsFields):
    """Weight exponents, each nonnegative, and Gaussian width of a radial
    integral."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "QPParams":
        self = super().__new__(cls, *args, **kwargs)
        for name, v in zip(self._fields, self):
            if not math.isfinite(v):
                raise ParameterRangeError(f"{name} must be finite, got {v}")
            if v < 0.0 and name != "tau":
                raise ParameterRangeError(f"{name} must be nonnegative, got {v}")
        if self.tau <= 0.0:
            raise ParameterRangeError(f"tau must be positive, got {self.tau}")
        return self


class ErrorBudget(NamedTuple):
    """The terms of a value's error, relative to it: the panel estimates
    ``rule``, the bound ``rounding`` on the rules' rounding (32 eps, as the
    integrand is positive), the tail bound ``tail`` (at most 1), and
    ``representation``, 2^-1075 below the normal range and 0.0 above it."""

    rule: float
    rounding: float
    tail: float
    representation: float


class QuadratureResult:
    """Value of a radial integral with accounting.

    ``log_value`` stays finite even when ``value`` overflows the double
    range; ratio-style consumers should prefer it.  ``rel_error`` is
    max(rule, rounding) + tail + representation of ``budget``, which only
    an exactly-zero value lacks, and ``abs_error`` is |value| times the
    first three terms, plus the least subnormal for the last.  The rounding
    floor makes them error bounds rather than readings of roundoff, so they
    do not depend on the order in which a BLAS build sums the rule products.
    They leave out two terms: the rounding of log|integrand| at the nodes,
    about eps * |log value|, and the representation floor of ``log_value``,
    a double, so that exp(log_value) is off by up to half an ulp of
    log_value, relative.  It is not a tuple, so that a caller can tell it
    from the (result, d1, d2) of ``q_chi_derivs``.
    """

    __slots__ = ("value", "abs_error", "nodes", "truncation_t", "log_value",
                 "rel_error", "budget")

    def __init__(self, value: float, abs_error: float, nodes: int,
                 truncation_t: float, log_value: float, rel_error: float,
                 budget: ErrorBudget | None = None) -> None:
        self.value = value
        self.abs_error = abs_error
        self.nodes = nodes
        self.truncation_t = truncation_t
        self.log_value = log_value
        self.rel_error = rel_error
        self.budget = budget

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other) -> bool:
        if type(other) is not QuadratureResult:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __repr__(self) -> str:
        return "QuadratureResult(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__) + ")"


class _Coeffs(tuple):
    """Float coefficients that ``_as_float_coeffs`` has coerced and checked."""


def _as_float_coeffs(P: PolyLike) -> tuple[float, ...]:
    """The float coefficients of P, lowest first, less trailing zeros.

    A tuple of floats whose top coefficient is nonzero is already that, and
    comes back as it is, once checked; any other form comes back as a
    ``_Coeffs``, which comes back as it is with no second check.  Every
    form is refused unless each coefficient is finite.
    """
    if type(P) is _Coeffs:
        return P
    if (type(P) is tuple and P and P[-1] != 0.0
            and all(type(c) is float for c in P)):
        cs = P
    elif isinstance(P, RationalPoly):
        cs = P.float_coeffs()
    elif isinstance(P, (int, float, Fraction)):
        cs = (float(P),)
    else:
        # from a list: a tuple built from an iterator grows by resizing,
        # which in a loop of such calls keeps raising the process's RSS
        cs = tuple([float(c) for c in P])
    if not cs:
        raise ParameterRangeError("empty polynomial")
    while len(cs) > 1 and cs[-1] == 0.0:
        cs = cs[:-1]
    if not any(c != 0.0 for c in cs):
        raise ParameterRangeError("zero polynomial")
    if not all(map(math.isfinite, cs)):
        raise ParameterRangeError(
            f"polynomial coefficients must be finite, got {cs}")
    return cs if cs is P else _Coeffs(cs)


def _exact(x: float) -> str:
    # every digit, so that a value just outside the box never reads as its edge
    return repr(float(x)).removesuffix(".0")


def _check_grid(spaces: Sequence[RootData], ns: Sequence[int],
                taus: Sequence[float], tol: float) -> None:
    """The one statement of the parameter box: refuse the first value
    outside it, checking tol, each space's m, each n, then each tau."""
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise ParameterRangeError(
            f"tol must lie in [{TOL_MIN:g}, {TOL_MAX:g}], got {_exact(tol)}")
    for space in spaces:
        if space.m > MAX_DIM:
            raise ParameterRangeError(
                f"space {space.label} has dimension m={space.m}, "
                f"supported is m <= {MAX_DIM}")
    for n in ns:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ParameterRangeError(f"n must be an integer, got {n}")
        if n < 0:
            raise ParameterRangeError(f"n must be nonnegative, got {n}")
        if n > MAX_DEGREE:
            raise ParameterRangeError(f"n must be at most {MAX_DEGREE}, got {n}")
    for tau in taus:
        rule = ("be positive" if not tau > 0.0 else
                f"be at most {MAX_TAU:g}" if tau > MAX_TAU else
                f"be at least {MIN_TAU:g}" if tau < MIN_TAU else "")
        if rule:
            raise ParameterRangeError(f"tau must {rule}, got {_exact(tau)}")


def _check_box(coeffs: Sequence[float], params: QPParams, tol: float) -> None:
    _check_grid((), (), (params.tau,), tol)
    if len(coeffs) - 1 > MAX_DEGREE:
        raise ParameterRangeError(
            f"polynomial degree {len(coeffs) - 1} exceeds supported {MAX_DEGREE}"
        )
    for name in ("mu", "kappa", "nu"):
        if getattr(params, name) > MAX_POWER:
            raise ParameterRangeError(
                f"{name} exceeds supported {MAX_POWER}: {getattr(params, name)}"
            )


def _log_sinh(t: np.ndarray) -> np.ndarray:
    # requires t > 0; expm1 keeps 1 - exp(-2t) accurate for tiny t
    return t - _LN2 + np.log(-np.expm1(-2.0 * t))


class _Tables(NamedTuple):
    """The tau-independent part of a weight: the float coefficients c of P,
    the logs of their magnitudes (-inf for a zero coefficient) and the
    (deg + 1, 2) Horner table of ``_log_mag`` (c from the top down, and
    from the bottom up negated for odd deg), all read-only so one record can
    serve every tau; the exponents mu, kappa, nu and lam = kappa + nu + 2 deg."""

    coeffs: np.ndarray
    mu: float
    kappa: float
    nu: float
    lam: float
    log_abs_coeffs: np.ndarray
    horner: np.ndarray


def _make_tables(coeffs: Sequence[float], mu: float, kappa: float,
                 nu: float) -> _Tables:
    """The record of a weight, refused unless (-1)^k c_k >= 0 for every k:
    then each term of P(-sinh^2 t) is non-negative."""
    c = np.array(coeffs, dtype=float)
    if (c[::2] < 0.0).any() or (c[1::2] > 0.0).any():
        raise ParameterRangeError(
            f"coefficients must alternate in sign, (-1)^k c_k >= 0, got {coeffs}")
    with np.errstate(divide="ignore"):
        log_abs = np.log(np.abs(c))
    # beyond sinh t = 1 the factor (-1)^deg goes into the coefficients
    horner = np.array([c[::-1], c if len(c) % 2 else -c]).T
    c.flags.writeable = log_abs.flags.writeable = horner.flags.writeable = False
    kappa, nu = float(kappa), float(nu)
    return _Tables(c, float(mu), kappa, nu, kappa + nu + 2.0 * (len(c) - 1),
                   log_abs, horner)


def _distinct(tables: Sequence[_Tables]) -> tuple[list[_Tables], list[int]]:
    """The distinct record objects of ``tables``, and each entry's index."""
    index: dict = {}
    which = [index.setdefault(id(tb), (len(index), tb))[0] for tb in tables]
    return [tb for _, tb in index.values()], which


def _log_coeffs(tables: Sequence[_Tables]) -> np.ndarray:
    """The log|c_j| of each entry of ``tables`` as a row, padded with -inf."""
    recs, which = _distinct(tables)
    logc = np.full((len(recs), max(len(rec.coeffs) for rec in recs)), -math.inf)
    for k, rec in enumerate(recs):
        logc[k, :len(rec.coeffs)] = rec.log_abs_coeffs
    return logc.take(which, 0)


@functools.lru_cache(maxsize=512)
def _isotype(space: RootData, n: int) -> _Tables:
    """The record of isotype n of ``space``.

    512 entries hold every catalog space with m <= MAX_DIM, at one B, at
    every n <= MAX_DEGREE; the callers validate n and m before the lookup.
    """
    ch = chi_params(space, n)
    coeffs = _as_float_coeffs(hypergeom_poly(ch.A, n, ch.c))
    return _make_tables(coeffs, ch.mu, ch.kappa, ch.nu)


def _log_mag(tables: Sequence[_Tables], tau: float | np.ndarray,
             t: np.ndarray, runs: Sequence[int]) -> np.ndarray:
    """log integrand elementwise at ``tau``, a float or an array that
    broadcasts against the 2-D ``t``; t must be positive.

    P(-sinh^2 t) is one Horner sum in x = -exp(-2 |log sinh t|), which lies
    in [-1, 0): x = -sinh^2 t up to sinh t = 1, with the coefficients taken
    from the top down, and x = -1/sinh^2 t beyond it, with them taken from
    the bottom up and negated for odd deg (the reversed polynomial, times
    (-sinh^2 t)^deg); negation is exact.  Every term of the sum has the
    sign of its first, as (-1)^k c_k >= 0, so the sum is non-negative.

    ``tables`` is a stack of records that share mu, kappa and nu (as the
    isotypes of one space do), whose nodes are runs of ``runs`` rows of t.
    Each Horner step reads the Horner tables of the stack's distinct
    records, zero-padded at the front to the top degree, and each node
    takes its own record's coefficient, on its side of sinh t = 1, by
    index, and its degree.  0 x + c = c exactly, so each record gets the
    bits it gets in a stack of its own.
    """
    logsh = _log_sinh(t)
    up = np.maximum(logsh, 0.0)
    x = -np.exp(-2.0 * np.abs(logsh))
    big = logsh > 0.0
    recs, which = _distinct(tables)
    size = max(len(tb.horner) for tb in recs)
    steps = np.zeros((size, len(recs), 2))
    for k, tb in enumerate(recs):
        steps[size - len(tb.horner):, k] = tb.horner
    steps = steps.reshape(size, -1)
    which = np.array(which).repeat(runs)[:, None]
    pick = big + 2 * which
    deg = np.array([len(tb.horner) - 1 for tb in recs]).take(which)
    p = steps[0].take(pick)
    for c in steps[1:]:
        p *= x
        p += c.take(pick)
    with np.errstate(divide="ignore"):
        g = np.log(p) + 2.0 * deg * up - t * t / tau
    tb = tables[0]
    # a zero exponent adds 0 times a finite log, which leaves g's bits as
    # they are; cosh^2 t = 1 + sinh^2 t, so log cosh t = up + log1p(-x) / 2
    g += tb.mu * np.log(t)
    g += tb.kappa * logsh
    g += tb.nu * (up + 0.5 * np.log1p(-x))
    return g


def _moment_rows(t: np.ndarray, g: np.ndarray, scale: float,
                 nrows: int) -> np.ndarray:
    """Rows (w, t^2 w, t^4 w) with w = exp(g - scale), or the row w alone
    when ``nrows`` is 1."""
    w = np.exp(g - scale)
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


def _eval_panels(tables: Sequence[_Tables], taus: Sequence[float],
                 a: np.ndarray, b: np.ndarray, counts: Sequence[int], nrows: int,
                 scales: Sequence[float] | None = None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Estimates and their errors, each of shape (nrows, P), of panels
    [a, b] in runs of ``counts``, one run per record of ``tables`` at its tau
    of ``taus``, and the common log-scale of each run.

    Each panel gets the Gauss-Kronrod 7/15 pair on its 15 nodes: K15 is the
    estimate and |K15 - G7| its error, G7 reading the nodes of odd index.
    All nodes go through one node call, with tau as a per-panel column.  A
    run's scale is its entry of ``scales`` or, when that is None, the peak
    of log integrand over its own nodes.  Every step is elementwise or per
    panel, so each run gets the bits it gets in a call of its own.
    """
    xs, half = _panel_nodes(a, b)
    tau = np.array(taus, dtype=float).repeat(counts)[:, None]
    g = _log_mag(tables, tau, xs, counts)
    if scales is None:
        starts = np.cumsum(counts) - counts
        scales = np.maximum.reduceat(g.ravel(), 15 * starts)
    rows = _moment_rows(xs, g, np.repeat(scales, counts)[:, None],
                        nrows).reshape(-1, 15)
    shape = nrows, len(half)
    k15 = _gl_rule(rows, _K15_W).reshape(shape) * half
    g7 = _gl_rule(rows[:, 1::2], _G7_W).reshape(shape) * half
    return k15, np.abs(k15 - g7), scales


# Candidate break points of a cell, as multiples: of T the grid k / 8
# (k = 1..7), of sigma = sqrt(tau / 2) the offsets j about the peak
# lam tau / 2 (|j| <= 12), and of sqrt(tau) the factors e.
_GRID = np.arange(1.0, 8.0) / 8.0
_PEAK_J = np.arange(-12.0, 13.0)
_ROOT_E = np.array([0.25, 0.5, 1.0, 2.0, 4.0])


def _initial_breaks(tables: Sequence[_Tables], taus: Sequence[float],
                    Ts: Sequence[float], logc: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The initial break points of each cell (tau, T), of the records
    ``tables`` (one per cell, sharing kappa and nu, with ``_log_coeffs``
    rows logc).  Returns the break points of all cells, concatenated, and
    the number of each cell's.

    A cell's candidates are the grid T k / 8 and the points
    lam tau / 2 + j sigma and e sqrt(tau), each moved onto the nearer edge
    of the cell's mass window if outside it; with 0 and T, sorted, less
    any candidate within 1e-10 T of its predecessor, with the last break
    moved onto T.  All cells are one array pass, with lam as a per-cell
    column.  Dropping against the predecessor keeps the points that
    dropping against the last point kept does unless three candidates fall
    within 2e-10 T; those of one kind lie much farther apart, so that takes
    all three kinds meeting to ten digits.

    Against the Gaussian, term j of P peaks near p_j = lam_j tau / 2 >= 0,
    lam_j = kappa + nu + 2 j, at a log-height of about log|c_j| + p_j^2 / tau.
    The window reaches 12 sigma (a drop of exp(-72)) beyond the p_j of the
    terms within 72 of the highest, clipped to [0, T]; the far field outside
    it is at most the panels [0, lo] and [hi, T], tested as every panel is.
    """
    tau = np.array(taus, dtype=float)[:, None]
    half = 0.5 * tau
    sigma = np.sqrt(half)
    lam = np.array([tb.lam for tb in tables])[:, None]
    T = np.array(Ts, dtype=float)[:, None]
    kn = tables[0].kappa + tables[0].nu
    peak = (kn + 2.0 * np.arange(logc.shape[1])) * half
    height = logc + peak * peak / tau
    span = _PEAK_J[-1] * sigma
    peak[height < height.max(axis=1, keepdims=True) - 0.5 * _PEAK_J[-1] ** 2] = np.nan
    lo = np.maximum(np.fmin.reduce(peak, axis=1, keepdims=True) - span, 0.0)
    hi = np.minimum(np.fmax.reduce(peak, axis=1, keepdims=True) + span, T)
    # halving and eighths are exact: each candidate has its scalar formula's bits
    cand = np.concatenate([0.0 * T, np.minimum(np.maximum(np.concatenate(
        [T * _GRID, lam * half + _PEAK_J * sigma, _ROOT_E * np.sqrt(tau)],
        axis=1), lo), hi), T], axis=1)
    cand.sort(axis=1)
    keep = np.empty(cand.shape, dtype=bool)
    keep[:, 0] = True
    np.greater(cand[:, 1:] - cand[:, :-1], 1e-10 * T, out=keep[:, 1:])
    breaks = cand[keep]
    counts = keep.sum(axis=1)
    breaks[counts.cumsum() - 1] = T[:, 0]
    return breaks, counts


def _targets(I: np.ndarray, tol: float) -> np.ndarray:
    # half of tol for the panels, half for the tail; tol/2 is above _settle's
    # rounding term at every tol of the box, so refinement never chases it
    return 0.5 * tol * I


def _sum_panels(val: np.ndarray, err: np.ndarray, counts: Sequence[int]
                ) -> tuple[np.ndarray, np.ndarray]:
    """The sums I of the estimates and E of their errors over each run of
    ``counts`` consecutive panels, each of shape (runs, rows), with the bits
    of ``math.fsum``, for values of any sign.

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
    x = np.concatenate([val, err])
    n = np.asarray(counts)
    starts = n.cumsum() - n
    with np.errstate(over="ignore", invalid="ignore"):
        top = np.maximum.reduceat(np.abs(x), starts, axis=1)
        # frexp gives max |x| < 2^e and n + 1 < 2^K, so 2^K >= n + 2
        sigma = np.ldexp(1.0, np.frexp(top)[1] + np.frexp(n + 1.0)[1])
        s = sigma.repeat(n, axis=1)
        q = (s + x) - s
        S1 = np.add.reduceat(q, starts, axis=1)
        S2 = np.add.reduceat(x - q, starts, axis=1)
        d = S1 + S2
        z = d - S1
        rho = (S1 - (d - z)) + (S2 - z)
        # the bound floored at the least subnormal, where u^2 sigma underflows
        bound = n * n * np.maximum(0.25 * _EPS * _EPS * sigma, 5e-324)
        ok = np.abs(rho) + bound < 0.5 * np.abs(d - np.nextafter(d, 0.0))
    for i, k in zip(*(~ok).nonzero()):
        d[i, k] = math.fsum(x[i, starts[k]:starts[k] + n[k]].tolist())
    sums = d.T
    r = len(val)
    return sums[:, :r], sums[:, r:]


def _log_tail_bound(tables: Sequence[_Tables], taus: Sequence[float],
                    Ts: Sequence[float], logc: np.ndarray) -> np.ndarray:
    """Log of a bound on the integral of the integrand over [T, inf), per
    cell (tau, T) of the records ``tables`` (one per cell, sharing mu, kappa
    and nu, with ``_log_coeffs`` rows logc), in one array pass.

    For t = T + s >= T: sinh t <= sinh T (t/T) e^s (as coth t - 1/t < 1),
    cosh t <= cosh T e^s, t/T <= e^(s/T) and exp(-t^2/tau) <=
    exp(-T^2/tau - 2T s/tau).  With mu, kappa, nu >= 0 the integrand is at
    most M e^(-D s), exact at s = 0, with log M = log sum_j |c_j| sinh^2j T
    + mu log T + kappa log sinh T + nu log cosh T - T^2/tau and
    D = 2T/tau - (2 deg + kappa)(1 + 1/T) - nu - mu/T.  The tail is at most
    M/D, or +inf where D <= 0.
    """
    tb = tables[0]
    tau, T = np.array(taus, dtype=float), np.array(Ts, dtype=float)
    deg = np.array([len(rec.coeffs) - 1 for rec in tables])
    logsh = _log_sinh(T)
    terms = logc + 2.0 * np.arange(logc.shape[1]) * logsh[:, None]
    top = terms.max(axis=1)
    log_m = top + np.log(np.exp(terms - top[:, None]).sum(axis=1))
    # log cosh T = T - log 2 + log1p(e^-2T)
    log_m += (tb.mu * np.log(T) + tb.kappa * logsh + tb.nu * (T - _LN2)
              + tb.nu * np.log1p(np.exp(-2.0 * T)) - T * T / tau)
    D = (2.0 * T / tau - (2.0 * deg + tb.kappa) * (1.0 + 1.0 / T) - tb.nu
         - tb.mu / T)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(D > 0.0, log_m - np.log(D), math.inf)


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _settle(i0: float, e0: float, scale: float, nodes: int, T: float,
            log_tail: float, tol: float,
            worst: float | None = None) -> QuadratureResult:
    """A cell's result from its value row's sums I >= 0 and E, each term of
    its ``ErrorBudget`` formed once, or the ConvergenceError of the first of
    its tests to fail: the panels (failed when the caller passes the
    ``worst`` row's relative panel error), the tail, then rel_error against
    tol.  The integrand is positive, so the rounding term, 32 eps times the
    integral of |integrand|, is 32 eps of I.  I = 0 has no budget; its log,
    -inf, fails the tail test."""
    if i0 == 0.0:
        res = QuadratureResult(0.0, 0.0, nodes, T, -math.inf, math.inf)
    else:
        log_value = scale + math.log(i0)
        value = _exp_or_inf(log_value)
        tiny = value < sys.float_info.min
        budget = ErrorBudget(
            e0 / i0, _ROUND_C * _EPS, math.exp(min(log_tail - log_value, 0.0)),
            _exp_or_inf(-1075.0 * _LN2 - log_value) if tiny else 0.0)
        rel = max(budget.rule, budget.rounding) + budget.tail
        abs_err = math.inf if math.isinf(value) else rel * value
        # 2^-1075 itself rounds to 0.0; the least subnormal bounds it
        res = QuadratureResult(
            value, abs_err + math.ulp(0.0) if tiny else abs_err, nodes, T,
            log_value, rel + budget.representation, budget)
    if worst is not None:
        msg = (f"panel refinement did not reach tol={tol:g}: after {nodes} "
               f"nodes the worst moment's relative error {worst:.4g} exceeds "
               f"the panel target {0.5 * tol:g}")
    elif not log_tail <= math.log(tol / 2.0) + res.log_value:
        msg = "truncation tail bound failed to settle below tol/2"
    elif res.rel_error > tol:
        msg = (f"rounding or cancellation limits the relative error to "
               f"{res.rel_error:.3g}, above tol={tol:g}; its largest term is "
               f"{max(zip(res.budget, ErrorBudget._fields))[1]}")
    else:
        return res
    raise ConvergenceError(msg, res)


def _first_truncation(tables: _Tables, tau: float, tol: float) -> float:
    """The truncation point T: where the exponent t^2/tau - lam t has
    dropped a fixed factor below tol."""
    L = math.log(1.0 / tol) + 40.0
    lam = tables.lam
    root = 0.5 * (lam * tau + math.sqrt(lam * lam * tau * tau + 4.0 * L * tau))
    return max(8.0 * math.sqrt(tau), root)


def _finish_cell(tables: _Tables, tau: float, tol: float, T: float,
                 log_tail: float, nrows: int, a: np.ndarray, b: np.ndarray,
                 val: np.ndarray, err: np.ndarray, scale: float,
                 target: np.ndarray) -> tuple[np.ndarray, QuadratureResult]:
    """One cell of ``nrows`` moment rows whose first level missed its
    targets, from its truncation point T, log tail bound and that level:
    panels a and b, their estimates and errors at ``scale``, and the
    targets of the panel tolerance tol/2.  Then refinement and the tests of
    ``_settle``, which a returned cell passed.

    The first level is refined in one bisection sweep.  Each generation
    splits the panels that miss their share of the first level's targets;
    its panels share one depth and run left to right.  The sweep ends when
    no panel fails, at depth ``_MAX_DEPTH``, or when the node budget cuts a
    generation short at its leftmost failing panels, whose children are
    kept untested.  The kept panels are summed in one call, correctly
    rounded, so their order does not matter.
    """
    nodes = 15 * len(a)
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
        val, err, _ = _eval_panels([tables], [tau], a, b, [len(a)], nrows,
                                   [scale])
        nodes += 15 * len(a)
        if cut:
            break
    vals.append(val)
    errs.append(err)
    val, err = np.concatenate(vals, axis=1), np.concatenate(errs, axis=1)
    I, E = (x[0] for x in _sum_panels(val, err, [val.shape[1]]))
    worst = None
    if not np.all(E <= _targets(I, tol)):
        # some moment row missed tol/2, so the worst E/I exceeds it
        with np.errstate(divide="ignore", invalid="ignore"):
            worst = float(np.max(E / I))
    return I, _settle(float(I[0]), float(E[0]), scale, nodes, T, log_tail,
                      tol, worst)


def _runs(sizes: Sequence[int], cap: int) -> tuple[list[int], list[int]]:
    """The greedy runs of consecutive ``sizes``, each summing to at most
    ``cap`` or one entry that alone exceeds it, and unable to take the entry
    after it: their bounds, from 0 to len(sizes), and their sums."""
    starts, sums = [], []
    for k, n in enumerate(sizes):
        if sums and sums[-1] + n <= cap:
            sums[-1] += n
        else:
            starts.append(k)
            sums.append(n)
    return starts + [len(sizes)], sums


def _q_engine(tables: Sequence[_Tables], taus: Sequence[float], tol: float,
              nrows: int) -> list:
    """Per validated cell (record, tau), whose records share mu, kappa and
    nu: (I, result), or the QuadratureError it raises.

    Every cell's T and tail bound come first, then the break points of all
    cells in one array pass.  The first levels go in node stacks of whole
    cells of at most _STACK_NODES nodes (or one cell, if it has more), one
    ``_eval_panels`` call each, whose node arrays are gone before the next
    stack is built.  The stacks go in settle groups of at most
    _STACK_NODES // 2 panels (or one stack), which hold their stacks'
    estimates, errors and scales: one ``_sum_panels`` call and one test
    against the targets per group.  Each cell of a group is finished
    before the next group is built; only a cell that misses its targets
    goes on to ``_finish_cell``, with its slices of the group's arrays.

    Each cell forms, sums and meets tol on its first ``nrows`` moment rows:
    1 for a value, 3 for (log q)' and (log q)'' as well; I has that length.
    """
    Ts = [_first_truncation(tb, tau, tol) for tb, tau in zip(tables, taus)]
    logc = _log_coeffs(tables)
    log_tails = _log_tail_bound(tables, taus, Ts, logc).tolist()
    breaks, nbreaks = _initial_breaks(tables, taus, Ts, logc)
    # the panels of the grid join consecutive breaks of one cell
    inner = np.ones(len(breaks) - 1, dtype=bool)
    inner[nbreaks[:-1].cumsum() - 1] = False
    a_row, b_row = breaks[:-1][inner], breaks[1:][inner]
    del breaks, inner
    panels = (nbreaks - 1).tolist()
    # node stacks of whole cells, and settle groups of whole stacks: their
    # bounds into the cells and the stacks, and their panels
    stacks, stack_panels = _runs(panels, _STACK_NODES // 15)
    groups, group_panels = _runs(stack_panels, _STACK_NODES // 2)
    out = []
    p0 = 0
    for (g, h), size in zip(itertools.pairwise(groups), group_panels):
        lo, hi = stacks[g], stacks[h]
        a, b = a_row[p0:p0 + size], b_row[p0:p0 + size]
        p0 += size
        val, err = np.empty((nrows, size)), np.empty((nrows, size))
        scales = []
        s = 0
        for (c, d), n in zip(itertools.pairwise(stacks[g:h + 1]),
                             stack_panels[g:h]):
            e = s + n
            val[:, s:e], err[:, s:e], sc = _eval_panels(
                tables[c:d], taus[c:d], a[s:e], b[s:e], panels[c:d], nrows)
            scales += sc.tolist()
            s = e
        I, E = _sum_panels(val, err, panels[lo:hi])
        target = _targets(I, tol)
        met = (E <= target).all(axis=1).tolist()
        group = zip(met, scales, I[:, 0].tolist(), E[:, 0].tolist())
        s = 0
        for k, (ok, scale, i0, e0) in enumerate(group):
            c = lo + k
            e = s + panels[c]
            try:
                if ok:
                    out.append((I[k], _settle(i0, e0, scale, 15 * panels[c],
                                              Ts[c], log_tails[c], tol)))
                else:
                    out.append(_finish_cell(
                        tables[c], taus[c], tol, Ts[c], log_tails[c], nrows,
                        a[s:e], b[s:e], val[:, s:e], err[:, s:e], scale,
                        target[k]))
            except QuadratureError as exc:
                # without its traceback, which would keep the grid alive
                out.append(exc.with_traceback(None))
            s = e
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

    P must have (-1)^k c_k >= 0 for every coefficient, as ``q_p`` requires,
    or a ParameterRangeError names that rule.  For t > 0 the value is
    exp(g) from the node evaluator ``_log_mag``, which the integration
    routines use as well.  At t = 0 it is the limit of P(-sinh^2 t)
    t^(mu + kappa): P(0) at mu + kappa = 0, else 0.  Raises OverflowError
    when the value exceeds e^709, near the top of the double range; the
    integration routines work in log space and do not share this limit.
    """
    if not 0.0 <= t < math.inf:
        raise ParameterRangeError(f"t must be finite and nonnegative, got {t}")
    coeffs = _as_float_coeffs(P)
    tables = _make_tables(coeffs, params.mu, params.kappa, params.nu)
    if t == 0.0:
        return coeffs[0] if params.mu + params.kappa == 0.0 else 0.0
    g0 = float(_log_mag([tables], float(params.tau),
                        np.array([[float(t)]]), [1])[0, 0])
    if g0 > 709.0:
        raise OverflowError(
            f"integrand magnitude exp({g0:.1f}) exceeds double range"
        )
    return math.exp(g0)


def q_p(P: PolyLike, params: QPParams,
        tol: float = DEFAULT_TOL) -> QuadratureResult:
    """The radial integral for a polynomial and weight exponents of the
    catalog's class: mu, kappa, nu >= 0 (``QPParams`` refuses others) and
    (-1)^k c_k >= 0 for every coefficient of P, so that the integrand is
    positive.  Anything else is refused with a ParameterRangeError that
    names the rule, before any node is spent.

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


# The cells of the last prefetched grid: (I, result), or the QuadratureError
# the cell raises, keyed by (space, n, tau, tol, moment rows).
_ROW: dict = {}


def _grid(space: RootData, ns: Sequence[int], taus: Sequence[float],
          tol: float, nrows: int) -> dict:
    """The cells (n, tau) of ``space`` as one grid of ``_q_engine``, keyed as
    ``_ROW`` is; checked whole first, so the cache holds no out-of-box record."""
    _check_grid((space,), ns, taus, tol)
    recs = {n: _isotype(space, n) for n in ns}
    cells = {(n, tau): recs[n] for n in ns for tau in taus}
    outcomes = _q_engine(list(cells.values()), [tau for _, tau in cells], tol,
                         nrows) if cells else ()
    return {(space, n, tau, tol, nrows): out
            for (n, tau), out in zip(cells, outcomes)}


def prefetch(space: RootData, ns: Sequence[int], taus: Sequence[float],
             tol: float = DEFAULT_TOL, *, derivs: bool = True) -> None:
    """Compute the cells (n, tau) of the isotypes ``ns`` of ``space`` at
    ``taus`` ahead of their calls, as one grid of ``_q_engine``.

    Each outcome waits in a one-grid memo, which every call here replaces,
    until a call of its kind takes it for the same space, n, tau and tol: a
    derivative grid (``derivs``, the default) serves ``q_chi_derivs``, a
    value grid serves ``q_chi``, and a call of the other kind computes its
    cell alone and leaves the memo untouched.  Those calls give the bits,
    and raise the errors, they give without it.  A grid with any value
    outside the box is refused whole, with the ParameterRangeError its first
    such cell raises alone, and leaves the memo empty.
    """
    _ROW.clear()
    _ROW.update(_grid(space, ns, [float(t) for t in taus], tol, 3 if derivs else 1))


def _cell(space: RootData, n: int, tau: float, tol: float,
          nrows: int) -> tuple[np.ndarray, QuadratureResult]:
    """One cell of ``nrows`` moment rows, from the prefetched grid (which
    validated it) or else validated and computed as a grid of one."""
    key = (space, n, tau, tol, nrows)
    out = _ROW.pop(key, None)
    if out is None:
        out = _grid(space, (n,), (tau,), tol, nrows)[key]
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


def p_chi(space: RootData, n: int, s: complex,
          tol: float = DEFAULT_TOL) -> float:
    """The polarization-family matrix coefficient p_n(s), up to its constant.

    Depends on s only through Im s: equals
    Vol(S^(m-1)) 2^(m/2) / (B^m (Im s)^(m/2)) * q_n(B^2 Im s), with the
    overall isotype constant normalized to 1.  q_n comes from ``q_chi``, so
    convergence is that of its value row, and the box applies to
    tau = B^2 Im s: an s off the upper half plane is a nonpositive tau.
    """
    im = complex(s).imag
    tau = space.B * space.B * im
    res = q_chi(space, n, tau, tol)
    pref = (
        sphere_volume(space.m)
        * 2.0 ** (space.m / 2.0)
        / (space.B ** space.m * im ** (space.m / 2.0))
    )
    return pref * res.value
