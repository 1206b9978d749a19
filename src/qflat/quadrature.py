"""Gaussian-weighted radial integrals on the half line.

Evaluates

    Q(tau) = int_0^inf exp(-t^2/tau) P(-sinh^2 t) t^mu sinh(t)^kappa cosh(t)^nu dt

together with its first two log-derivatives in tau, by composite adaptive
Gauss-Kronrod 7/15 panels on a truncated interval [0, T].  Each panel costs
15 node evaluations: the 15-point Kronrod rule gives its value and the
7-point Gauss rule on every other node its error estimate |K15 - G7|
(the embedded pair of QUADPACK's qk15).  Panels are kept as arrays, and
each refinement level (the initial panels, then the children of every
panel split in a round) is evaluated in one stacked call, so the cost per
node is numpy arithmetic rather than Python overhead per panel.

The fixed cost of a cell is kept small as well.  Everything about isotype n
of a catalog space that does not depend on tau (the float coefficients of
its hypergeometric polynomial, the exponents mu, kappa, nu and the constant
of the tail bound) is one read-only record, built once per
(space, n) and cached; the scale B never enters it.  Integrals of arbitrary
polynomials (``q_p``) build their record afresh and leave the cache alone.
Within a cell, the common log-scale is the peak of the integrand over the
first panel level's own nodes, and a refinement round whose panels all
meet their targets ends the integration with the sums it has already
formed.  Most cells converge on that first level, so a row of taus of one
(space, n) can be computed together with ``prefetch``: the break points of
the whole row come from one array pass, its first levels go through one
stacked node call (a few, for long rows) with tau as a per-panel column,
the panel sums of a stack come from one pass, and each cell's outcome
waits for its own ``q_chi`` / ``q_chi_derivs`` call.  A cell computed
alone is a row of one, so both ways give the same bits.

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
needed for (log Q)' and (log Q)''.

All operations are pure; results are bit-reproducible for fixed inputs and
independent of evaluation order across calls.  The rule sums are numpy
reductions in a fixed order, not BLAS products, so they do not depend on
the kernel a BLAS build dispatches to either.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

import numpy as np

from .hypergeom import RationalPoly, hypergeom_poly, horner_compensated
from .spaces import RootData, chi_params, sphere_volume, _shx_over_x

__all__ = [
    "QPParams",
    "QuadratureResult",
    "QuadratureError",
    "ParameterRangeError",
    "ConvergenceError",
    "CancellationWarning",
    "integrand",
    "integrand_direct",
    "integrand_regrouped",
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
_MAX_ROUNDS = 6
_SAFETY = 0.5
_NODE_BUDGET = 400_000
# Nodes per stacked node call of the first levels of a row of cells (about
# ten cells): larger stacks save little time and cost peak memory.
_STACK_NODES = 5_000


class QuadratureError(Exception):
    """Base class for radial-integration failures."""


class ParameterRangeError(QuadratureError, ValueError):
    """Parameters outside the supported box or otherwise invalid."""


class ConvergenceError(QuadratureError):
    """Tolerance not reached; carries the best estimate.

    Refinement stops at ``_NODE_BUDGET`` nodes per cell or at the maximum
    depth; its message then gives ``best.nodes``, the panel target tol/2 and
    the worst moment row's relative panel error, which exceeds that target.
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
    and the analytic truncation-tail bound.  The floor makes them error
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
    if isinstance(P, RationalPoly):
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


def _log_mag_sign(tables: _Tables, tau: float | np.ndarray,
                  t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log|integrand|, sign) elementwise at ``tau``, a float or an array
    that broadcasts against ``t``; t must be positive.

    P(-sinh^2 t) is one Horner sum in x = -exp(-2 |log sinh t|), which lies
    in [-1, 0): x = -sinh^2 t up to sinh t = 1, with the coefficients taken
    from the top down, and x = -1/sinh^2 t beyond it, with them taken from
    the bottom up (the reversed polynomial, times (-sinh^2 t)^deg).
    """
    logsh = _log_sinh(t)
    up = np.maximum(logsh, 0.0)
    x = -np.exp(-2.0 * np.abs(logsh))
    big = logsh > 0.0
    cs = tables.coeffs.tolist()
    deg = len(cs) - 1
    p = np.where(big, cs[0], cs[-1])
    for lo, hi in zip(cs[-2::-1], cs[1:]):
        p *= x
        p += np.where(big, hi, lo)
    sign = np.sign(p)
    if deg % 2:
        sign = np.where(big, -sign, sign)
    with np.errstate(divide="ignore"):
        g = np.log(np.abs(p)) + 2.0 * deg * up - t * t / tau
    if tables.mu != 0.0:
        g = g + tables.mu * np.log(t)
    if tables.kappa != 0.0:
        g = g + tables.kappa * logsh
    if tables.nu != 0.0:
        # cosh^2 t = 1 + sinh^2 t, so log cosh t = up + log1p(-x) / 2
        g = g + tables.nu * (up + 0.5 * np.log1p(-x))
    return g, sign


def _moment_rows(t: np.ndarray, g: np.ndarray, sign: np.ndarray,
                 scale: float) -> np.ndarray:
    """Rows (w, t^2 w, t^4 w) with w = sign * exp(g - scale)."""
    w = sign * np.exp(g - scale)
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
    """Estimates K15 and their errors |K15 - G7|, each of shape (3, P), from
    the moment rows at the nodes of ``_panel_nodes``; G7 reads the nodes of
    odd index."""
    rows = rows.reshape(-1, 15)
    k15 = _gl_rule(rows, _K15_W).reshape(3, len(half)) * half
    g7 = _gl_rule(rows[:, 1::2], _G7_W).reshape(3, len(half)) * half
    return k15, np.abs(k15 - g7)


def _eval_panels(tables: _Tables, tau: float, scale: float, a: np.ndarray,
                 b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Estimates and their errors, each of shape (3, P), of panels [a, b].

    Each panel gets the Gauss-Kronrod 7/15 pair on its 15 nodes: K15 is the
    estimate and |K15 - G7| its error.  All nodes of all panels go through
    one node call.
    """
    xs, half = _panel_nodes(a, b)
    g, sign = _log_mag_sign(tables, tau, xs)
    return _apply_rules(_moment_rows(xs, g, sign, scale), half)


# Candidate break points of a cell, as multiples: of T the grid k / 8
# (k = 0..8), of sigma = sqrt(tau / 2) the offsets j about the peak
# lam tau / 2 (|j| <= 12), and of sqrt(tau) the factors e.
_GRID = np.arange(9.0) / 8.0
_PEAK_J = np.arange(-12.0, 13.0)
_ROOT_E = np.array([0.25, 0.5, 1.0, 2.0, 4.0])


def _initial_breaks(tables: _Tables, taus: Sequence[float],
                    Ts: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """The initial break points of each cell (tau, T) of one isotype.

    Returns the break points of all cells, concatenated, and the number of
    each cell's.  A cell's candidates are the grid T k / 8, and the points
    lam tau / 2 + j sigma and e sqrt(tau) that fall inside (0, T); sorted,
    less any candidate within 1e-10 T of its predecessor, with the last
    break moved onto T.  The whole row is one array pass.  Dropping against
    the predecessor keeps the points that dropping against the last point
    kept does unless three candidates fall within 2e-10 T; those of one
    kind lie much farther apart, so that takes all three kinds meeting to
    ten digits.
    """
    tau = np.array(taus, dtype=float)[:, None]
    half = 0.5 * tau
    T = np.array(Ts, dtype=float)[:, None]
    # halving and eighths are exact, so every candidate has the bits of its
    # scalar formula; one outside (0, T) is clipped onto a copy of 0 or T,
    # which the thinning drops
    extra = np.minimum(np.maximum(np.concatenate(
        [tables.lam * half + _PEAK_J * np.sqrt(half), _ROOT_E * np.sqrt(tau)],
        axis=1), 0.0), T)
    cand = np.sort(np.concatenate([T * _GRID, extra], axis=1), axis=1)
    keep = np.empty(cand.shape, dtype=bool)
    keep[:, 0] = True
    np.greater(cand[:, 1:] - cand[:, :-1], 1e-10 * T, out=keep[:, 1:])
    breaks = cand[keep]
    counts = keep.sum(axis=1)
    breaks[np.cumsum(counts) - 1] = T[:, 0]
    return breaks, counts


# The sums (I, Iabs, E) of a run of panels, each of shape (3,).
_Sums = tuple[np.ndarray, np.ndarray, np.ndarray]
# A cell's first panel level: panels a and b, estimates, errors, scale and
# their sums.
_Level = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float, _Sums]


def _sum_panels(val: np.ndarray, err: np.ndarray,
                counts: Sequence[int]) -> list[_Sums]:
    """The sums of the estimates, of their magnitudes and of their errors
    over each run of ``counts`` consecutive panels."""
    # fsum is correctly rounded, so the sums do not depend on panel order;
    # one tolist serves every run
    rows = np.concatenate([val, np.abs(val), err]).tolist()
    out = []
    s = 0
    for e in itertools.accumulate(counts):
        sums = np.array([math.fsum(r[s:e]) for r in rows])
        out.append((sums[:3], sums[3:6], sums[6:]))
        s = e
    return out


def _first_levels(tables: _Tables, taus: Sequence[float],
                  Ts: Sequence[float]) -> list[_Level]:
    """The first panel level of each cell (tau, T) of one isotype.

    Returns per cell its panels a and b, their estimates and errors, each
    of shape (3, P), its scale (the peak of log|integrand| over the cell's
    own nodes) and the sums of ``_sum_panels``.  The cells' panels are
    concatenated into stacked node calls of at most _STACK_NODES nodes (or
    one cell, if it has more), with tau as a per-panel column.  Every step
    is elementwise, per panel or per cell, so each cell gets the bits it
    gets in a stack of its own.
    """
    breaks, nbreaks = _initial_breaks(tables, taus, Ts)
    # the panels of the row join consecutive breaks of one cell
    inner = np.ones(len(breaks) - 1, dtype=bool)
    inner[np.cumsum(nbreaks[:-1]) - 1] = False
    a_row, b_row = breaks[:-1][inner], breaks[1:][inner]
    panels = (nbreaks - 1).tolist()
    out = []
    lo = p0 = 0
    while lo < len(panels):
        hi = lo + 1
        while hi < len(panels) and 15 * sum(panels[lo:hi + 1]) <= _STACK_NODES:
            hi += 1
        counts = np.array(panels[lo:hi])
        starts = np.cumsum(counts) - counts
        p1 = p0 + int(counts.sum())
        a, b = a_row[p0:p1], b_row[p0:p1]
        xs, half = _panel_nodes(a, b)
        g, sign = _log_mag_sign(
            tables, np.repeat(np.array(taus[lo:hi], dtype=float), counts)[:, None], xs)
        scales = np.maximum.reduceat(g.ravel(), 15 * starts)
        val, err = _apply_rules(
            _moment_rows(xs, g, sign, np.repeat(scales, counts)[:, None]), half)
        sums = _sum_panels(val, err, panels[lo:hi])
        for s, e, scale, cell_sums in zip(starts, starts + counts,
                                          scales.tolist(), sums):
            out.append((a[s:e], b[s:e], val[:, s:e], err[:, s:e], scale, cell_sums))
        lo, p0 = hi, p1
    return out


def _targets(I: np.ndarray, Iabs: np.ndarray, tol: float) -> np.ndarray:
    # the 4e-16 floor stops futile refinement once a moment is dominated by
    # cancellation noise; failure to reach tol is then reported honestly
    return np.maximum(tol * np.abs(I), 4e-16 * Iabs)


def _integrate_moments(
    tables: _Tables, tau: float, T: float, tol: float,
    first: _Level | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, int, bool]:
    """Refine from the cell's first level, an entry of ``_first_levels``
    (computed here as a row of one when not given), until the panels meet
    ``tol``."""
    if first is None:
        (first,) = _first_levels(tables, [tau], [T])
    a, b, val, err, scale, sums = first
    depth = np.zeros(len(a), dtype=int)
    nodes = 15 * len(a)

    budget_hit = False
    for rnd in range(_MAX_ROUNDS + 1):
        # the round that meets its targets (or may split no further) returns
        # the sums it has formed
        I, Iabs, E = sums
        target = _targets(I, Iabs, tol)
        converged = bool(np.all(E <= target))
        if converged or budget_hit or rnd == _MAX_ROUNDS:
            break
        # split level by level; each panel is tested on its own against the
        # round's fixed target, so the order of the splits does not matter
        # until the node budget runs out
        parts = []
        while True:
            share = _SAFETY * (b - a) / T
            ok = np.all(err <= target[:, None] * share, axis=0)
            fail = np.flatnonzero(~ok & (depth < _MAX_DEPTH))
            room = max(0, (_NODE_BUDGET - nodes) // 30)
            if len(fail) > room:
                budget_hit = True
                fail = fail[:room]
            stay = np.ones(len(a), dtype=bool)
            stay[fail] = False
            parts.append(tuple(x[..., stay] for x in (a, b, depth, val, err)))
            if len(fail) == 0:
                break
            mid = 0.5 * (a[fail] + b[fail])
            a = np.stack([a[fail], mid], axis=1).ravel()
            b = np.stack([mid, b[fail]], axis=1).ravel()
            depth = np.repeat(depth[fail] + 1, 2)
            val, err = _eval_panels(tables, tau, scale, a, b)
            nodes += 15 * len(a)
            if budget_hit:
                parts.append((a, b, depth, val, err))
                break
        # back into left-to-right order, which the budget cut above follows
        a, b, depth, val, err = (np.concatenate(x, axis=-1) for x in zip(*parts))
        order = np.argsort(a)
        a, b, depth, val, err = (x[..., order] for x in (a, b, depth, val, err))
        (sums,) = _sum_panels(val, err, [len(a)])

    return I, Iabs, E, scale, nodes, converged


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
    T: float, rel_tail: float
) -> QuadratureResult:
    i0 = float(I[0])
    if i0 == 0.0:
        return QuadratureResult(0.0, 0.0, nodes, T, -math.inf, math.inf)
    sign = 1.0 if i0 > 0 else -1.0
    log_value = scale + math.log(abs(i0))
    value = sign * _exp_or_inf(log_value)
    # Iabs stands in for int |f|; it falls short only where the integrand
    # changes sign inside a panel
    err = max(float(E[0]), _ROUND_C * _EPS * float(Iabs[0]))
    rel = err / abs(i0) + rel_tail
    abs_err = math.inf if math.isinf(value) else rel * abs(value)
    return QuadratureResult(value, abs_err, nodes, T, log_value, rel)


def _first_truncation(tables: _Tables, tau: float, tol: float) -> float:
    """T of the first attempt: where the exponent t^2/tau - lam t has
    dropped a fixed factor below tol."""
    L = math.log(1.0 / tol) + 40.0
    lam = tables.lam
    root = 0.5 * (lam * tau + math.sqrt(lam * lam * tau * tau + 4.0 * L * tau))
    return max(8.0 * math.sqrt(tau), root)


def _q_engine(tables: _Tables, tau: float, tol: float,
              first: _Level | None = None) -> tuple[np.ndarray, QuadratureResult]:
    """One cell; ``first`` is its first level at the first attempt's T, if
    it was computed with its row."""
    T0 = _first_truncation(tables, tau, tol)
    for attempt in range(5):
        T = T0 * 1.3 ** attempt
        # split the tolerance: half for the panels, half for the tail
        I, Iabs, E, scale, nodes, conv = _integrate_moments(
            tables, tau, T, 0.5 * tol, first if attempt == 0 else None
        )
        if not conv:
            # some moment row missed tol/2, so the worst E/|I| exceeds it
            with np.errstate(divide="ignore", invalid="ignore"):
                worst = float(np.max(E / np.abs(I)))
            best = _build_result(I, Iabs, E, scale, nodes, T, 0.0)
            raise ConvergenceError(
                f"panel refinement did not reach tol={tol:g}: after "
                f"{best.nodes} nodes the worst moment's relative error "
                f"{worst:.4g} exceeds the panel target {0.5 * tol:g}",
                best,
            )
        log_tail = _log_tail_bound(tables, tau, T)
        if I[0] != 0.0:
            log_value = scale + math.log(abs(float(I[0])))
            if log_tail <= math.log(tol / 2.0) + log_value:
                rel_tail = _exp_or_inf(min(log_tail - log_value, 0.0))
                res = _build_result(I, Iabs, E, scale, nodes, T, rel_tail)
                # tested without the rounding floor, which is reported only
                if float(E[0]) / abs(float(I[0])) + rel_tail > tol:
                    # panels stopped at the cancellation noise floor
                    raise ConvergenceError(
                        f"cancellation limits the relative error to "
                        f"{res.rel_error:.3g}, above tol={tol:g}",
                        res,
                    )
                return I, res
    best = _build_result(I, Iabs, E, scale, nodes, T, 1.0)
    raise ConvergenceError(
        "truncation tail bound failed to settle below tol/2", best
    )


# ---------------------------------------------------------------------------
# public operations


def integrand_direct(P: PolyLike, params: QPParams, t: float) -> float:
    """Plain product form of the integrand at one point (t >= 0)."""
    coeffs = _as_float_coeffs(P)
    pv = horner_compensated(coeffs, -math.sinh(t) ** 2)
    out = math.exp(-t * t / params.tau) * pv
    if params.mu != 0.0:
        out *= t ** params.mu
    if params.kappa != 0.0:
        out *= math.sinh(t) ** params.kappa
    if params.nu != 0.0:
        out *= math.cosh(t) ** params.nu
    return out


def integrand_regrouped(P: PolyLike, params: QPParams, t: float) -> float:
    """Integrand as t^(r-1) times an even analytic factor, r = mu+kappa+1.

    Regroups t^mu sinh^kappa = t^(r-1) (sinh t / t)^kappa, which is the
    numerically robust form near t = 0; sinh(t)/t is evaluated by series
    for small t.
    """
    coeffs = _as_float_coeffs(P)
    r = params.mu + params.kappa + 1.0
    if t == 0.0:
        if r > 1.0:
            return 0.0
        if r == 1.0:
            return coeffs[0]
        return math.inf
    pv = horner_compensated(coeffs, -math.sinh(t) ** 2)
    out = math.exp(-t * t / params.tau) * pv * t ** (r - 1.0)
    if params.kappa != 0.0:
        out *= _shx_over_x(t) ** params.kappa
    if params.nu != 0.0:
        out *= math.cosh(t) ** params.nu
    return out


def integrand(P: PolyLike, params: QPParams, t: float) -> float:
    """Integrand value at t >= 0 in plain double arithmetic.

    Uses the regrouped form below t = 1e-4 (removable origin behaviour) and
    the direct product elsewhere.  Raises OverflowError when the magnitude
    provably exceeds the double range; the integration routines themselves
    work in log space and do not share this limit.
    """
    if t < 0.0:
        raise ParameterRangeError(f"t must be nonnegative, got {t}")
    coeffs = _as_float_coeffs(P)
    if t > 0.0:
        tables = _make_tables(coeffs, params.mu, params.kappa, params.nu)
        g, _ = _log_mag_sign(tables, float(params.tau), np.array([t]))
        if float(g[0]) > 709.0:
            raise OverflowError(
                f"integrand magnitude exp({float(g[0]):.1f}) exceeds double range"
            )
    if t < 1e-4:
        return integrand_regrouped(coeffs, params, t)
    return integrand_direct(coeffs, params, t)


def q_p(P: PolyLike, params: QPParams,
        tol: float = DEFAULT_TOL) -> QuadratureResult:
    """The radial integral for an arbitrary polynomial and weight exponents.

    The relative error estimate of the panels and the tail is at most
    ``tol`` on success.  Otherwise a ConvergenceError carrying the best
    estimate is raised; when refinement stops at the node budget or the
    maximum depth, its message gives the nodes spent and the worst moment's
    relative panel error against the panel target tol/2.  The reported
    ``rel_error`` adds the rounding floor described at QuadratureResult;
    that floor is not part of the test and can exceed a ``tol`` near
    TOL_MIN when the integrand cancels heavily.
    Deterministic: identical inputs give bit-identical results.
    """
    coeffs = _as_float_coeffs(P)
    _check_box(coeffs, params, tol)
    tables = _make_tables(coeffs, params.mu, params.kappa, params.nu)
    _, res = _q_engine(tables, float(params.tau), tol)
    return res


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


# The cells of the last prefetched row: (I, result), or the QuadratureError
# the cell raises, keyed by (space at B = 1, n, tau, tol).
_ROW: dict = {}


def prefetch(space: RootData, n: int, taus: Sequence[float],
             tol: float = DEFAULT_TOL) -> None:
    """Compute the cells of a row of taus of isotype n ahead of their calls.

    The first panel levels of the whole row go through stacked node calls;
    the rest of each cell (refinement, tail test, larger T) runs per cell.
    Each outcome waits in a one-row memo, which every call here replaces,
    until ``q_chi`` or ``q_chi_derivs`` takes it for the same space (at any
    B), n, tau and tol.  Those calls give the bits, and raise the errors,
    they give without it.  Cells outside the box are left to their calls.
    """
    _ROW.clear()
    cells = []
    for tau in taus:
        tau = float(tau)
        try:
            tables = _checked_isotype(space, n, tau, tol)
        except ParameterRangeError:
            continue
        cells.append(tau)
    if not cells:
        return
    Ts = [_first_truncation(tables, tau, tol) for tau in cells]
    key = _unit_scale(space)
    for tau, first in zip(cells, _first_levels(tables, cells, Ts)):
        try:
            _ROW[key, n, tau, tol] = _q_engine(tables, tau, tol, first)
        except QuadratureError as exc:
            _ROW[key, n, tau, tol] = exc


def _cell(space: RootData, n: int, tau: float,
          tol: float) -> tuple[np.ndarray, QuadratureResult]:
    """One cell, from the prefetched row or else computed as a row of one."""
    tables = _checked_isotype(space, n, tau, tol)
    out = _ROW.pop((_unit_scale(space), n, tau, tol), None)
    if out is None:
        return _q_engine(tables, tau, tol)
    if isinstance(out, QuadratureError):
        raise out.with_traceback(None)
    return out


def q_chi(space: RootData, n: int, tau: float,
          tol: float = DEFAULT_TOL) -> QuadratureResult:
    """The isotype-n radial integral q_n(tau) of a catalog space."""
    _, res = _cell(space, n, float(tau), tol)
    return res


def q_chi_derivs(
    space: RootData, n: int, tau: float, tol: float = DEFAULT_TOL
) -> tuple[QuadratureResult, float, float]:
    """One-pass (q_n(tau), (log q_n)'(tau), (log q_n)''(tau)).

    The second log-derivative is assembled as Q''/Q - (Q'/Q)^2, which can
    cancel; losing more than six digits triggers a CancellationWarning.
    """
    tau = float(tau)
    I, res = _cell(space, n, tau, tol)
    ratio2 = float(I[1]) / float(I[0])
    ratio4 = float(I[2]) / float(I[0])
    d1 = ratio2 / tau**2
    term_a = ratio4 / tau**4
    term_b = 2.0 * ratio2 / tau**3
    term_c = d1 * d1
    d2 = term_a - term_b - term_c
    biggest = max(abs(term_a), abs(term_b), abs(term_c))
    if biggest > 0.0 and abs(d2) < 1e-6 * biggest:
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
    overall isotype constant normalized to 1.
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
