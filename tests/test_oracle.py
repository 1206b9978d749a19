"""A quadrature-free oracle for the odd spheres S3, S5 and S7.

For these spaces mu = kappa = nu = k = (m - 1)/2 is an integer, so the
weight P(-sinh^2 t) sinh^k t cosh^k t expands by binomials into a finite
sum of exponentials a_b e^(bt), with exact rational a_b.  Each term leaves
a moment I_j(b) = int_0^inf t^j e^(-t^2/tau + bt) dt in closed form (the
erfc of DLMF 7.7 and a three-term recurrence), so q_n and its
tau-derivatives are finite sums evaluated at 80 digits, with no quadrature
and no numerical differentiation.  The sweep checks ``q_chi_derivs``
against it.

Cells that fail today are strict xfails that name the ROADMAP item whose
fix should flip them: item 2 for a value outside its reported ``rel_error``
or a ConvergenceError (the node logs carry eps |log q| of rounding, which
``rel_error`` leaves out), item 3 for (log q)'' off by more than 1e-9
(the moment formula Q''/Q - (Q'/Q)^2 cancels at large tau).
"""

import functools
import warnings
from collections import defaultdict
from fractions import Fraction
from math import comb

import pytest

from qflat.hypergeom import hypergeom_poly
from qflat.quadrature import CancellationWarning, ConvergenceError, q_chi_derivs
from qflat.spaces import chi_params, parse_space

mp = pytest.importorskip("mpmath")

DPS = 80
SPACES = ("S3", "S5", "S7")
NS = (0, 3, 8, 16)
TAUS = (1e-3, 0.05, 1.0, 20.0, 400.0)
TOLS = (1e-10, 1e-13)
D2_REL = 1e-9


@functools.lru_cache(maxsize=None)
def exponential_series(label, n):
    """(k, {b: a_b}) with P(-sinh^2 t) sinh^k t cosh^k t = sum a_b e^(bt).

    (-1)^j sinh^(2j) t = (-1)^j 4^-j sum_i C(2j, i) (-1)^i e^((2j - 2i) t)
    and (sinh t cosh t)^k = (sinh 2t / 2)^k
    = 4^-k sum_l C(k, l) (-1)^l e^((2k - 4l) t).
    """
    ch = chi_params(parse_space(label), n)
    assert ch.mu == ch.kappa == ch.nu and ch.mu.denominator == 1
    k = int(ch.mu)
    a = defaultdict(Fraction)
    for j, c in enumerate(hypergeom_poly(ch.A, n, ch.c).coeffs):
        for i in range(2 * j + 1):
            for l in range(k + 1):
                a[2 * j - 2 * i + 2 * k - 4 * l] += (
                    c * (-1) ** (j + i + l) * comb(2 * j, i) * comb(k, l)
                    / 4 ** (j + k))
    return k, {b: c for b, c in a.items() if c}


def gauss_exp_moments(b, tau, top):
    """I_0..I_top, I_j = int_0^inf t^j e^(-t^2/tau + bt) dt.

    I_0 = (sqrt(pi tau)/2) e^(b^2 tau/4) erfc(-b sqrt(tau)/2) and, from
    integrating d/dt[t^j e^(-t^2/tau + bt)] over the half line,
    I_1 = (tau/2)(1 + b I_0) and I_(j+1) = (tau/2)(j I_(j-1) + b I_j).
    """
    I = [mp.sqrt(mp.pi * tau) / 2 * mp.exp(b * b * tau / 4)
         * mp.erfc(-b * mp.sqrt(tau) / 2)]
    I.append(tau / 2 * (1 + b * I[0]))
    for j in range(1, top):
        I.append(tau / 2 * (j * I[j - 1] + b * I[j]))
    return I


@functools.lru_cache(maxsize=None)
def oracle(label, n, tau):
    """(q_n(tau), (log q_n)''(tau)) as mpmath numbers at DPS digits.

    Q' inserts t^2/tau^2 and Q'' inserts t^4/tau^4 - 2 t^2/tau^3 under the
    integral, so they are the same sums at moments k + 2 and k + 4.
    """
    k, series = exponential_series(label, n)
    with mp.workdps(DPS):
        tau = mp.mpf(tau)
        q = q1 = q2 = mp.mpf(0)
        for b, a in series.items():
            I = gauss_exp_moments(mp.mpf(b), tau, k + 4)
            a = mp.mpf(a.numerator) / a.denominator
            q += a * I[k]
            q1 += a * I[k + 2] / tau ** 2
            q2 += a * (I[k + 4] / tau ** 4 - 2 * I[k + 2] / tau ** 3)
        return +q, q2 / q - (q1 / q) ** 2


@functools.lru_cache(maxsize=None)
def cell(label, n, tau, tol):
    """``q_chi_derivs``' outcome, or the ConvergenceError it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CancellationWarning)
        try:
            return q_chi_derivs(parse_space(label), n, tau, tol)
        except ConvergenceError as exc:
            return exc


def outcome(label, n, tau, tol):
    """``cell``'s outcome, or its error raised afresh (a re-raise would
    extend the traceback the error keeps from its last raise)."""
    out = cell(label, n, tau, tol)
    if isinstance(out, ConvergenceError):
        raise out.with_traceback(None)
    return out


def value_error(label, n, tau, tol):
    """(|q / q_oracle - 1|, reported rel_error), raising a cell's error."""
    res = outcome(label, n, tau, tol)[0]
    q, _ = oracle(label, n, tau)
    with mp.workdps(DPS):
        return abs(mp.expm1(mp.mpf(res.log_value) - mp.log(q))), res.rel_error


def d2_error(label, n, tau, tol):
    """|(log q)'' / its oracle - 1|, raising a cell's error."""
    d2 = outcome(label, n, tau, tol)[2]
    with mp.workdps(DPS):
        return abs(mp.mpf(d2) / oracle(label, n, tau)[1] - 1)


class TestOracle:
    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("n", NS)
    def test_s3_closed_form(self, n, tau):
        # q_n = (sqrt(pi)/4) tau^(3/2) e^((n+1)^2 tau), (log q_n)'' = -3/(2 tau^2)
        q, d2 = oracle("S3", n, tau)
        with mp.workdps(DPS):
            t = mp.mpf(tau)
            closed = mp.sqrt(mp.pi) / 4 * t ** 1.5 * mp.exp((n + 1) ** 2 * t)
            assert abs(q / closed - 1) < mp.mpf(10) ** -30
            assert abs(d2 * t ** 2 / mp.mpf(-1.5) - 1) < mp.mpf(10) ** -30

    def test_series_is_exact_at_the_origin(self):
        # sinh^k t vanishes at t = 0 like t^k: the exponential sum and its
        # first k - 1 derivatives cancel exactly there
        for label in SPACES:
            for n in NS:
                k, series = exponential_series(label, n)
                for d in range(k):
                    assert sum(a * b ** d for b, a in series.items()) == 0


# The cells of the sweep that fail today, as (space, n, tau, tol).
# ConvergenceError: all at tol 1e-13, at tau 20 and 400.
NOT_CONVERGED = frozenset([
    ("S3", 3, 400.0, 1e-13), ("S3", 8, 400.0, 1e-13),
    ("S3", 16, 20.0, 1e-13), ("S3", 16, 400.0, 1e-13),
    ("S5", 3, 400.0, 1e-13), ("S5", 8, 400.0, 1e-13),
    ("S5", 16, 20.0, 1e-13), ("S5", 16, 400.0, 1e-13),
    ("S7", 0, 400.0, 1e-13), ("S7", 3, 400.0, 1e-13),
    ("S7", 8, 20.0, 1e-13), ("S7", 8, 400.0, 1e-13),
    ("S7", 16, 20.0, 1e-13), ("S7", 16, 400.0, 1e-13),
])
# |q / q_oracle - 1| above rel_error: 21 cells at tol 1e-10 and 12 at 1e-13,
# where log q is large (n = 16 at tau = 1, or tau >= 20); the worst is
# S7, n = 16, tau = 400 at 1e-10: 1.9e-11 against 2.9e-12 reported.
VALUE_MISSES = frozenset(
    [(label, n, tau, tol) for tol in (1e-10, 1e-13) for label, n, tau in [
        ("S3", 0, 400.0), ("S3", 3, 20.0), ("S3", 8, 20.0), ("S3", 16, 1.0),
        ("S5", 0, 20.0), ("S5", 0, 400.0), ("S5", 3, 20.0), ("S5", 8, 20.0),
        ("S5", 16, 1.0), ("S7", 0, 20.0), ("S7", 3, 20.0), ("S7", 16, 1.0),
    ]]
    + [(label, n, 400.0, 1e-10) for label, n in [
        ("S3", 3), ("S3", 8), ("S3", 16), ("S5", 8), ("S7", 0), ("S7", 3),
        ("S7", 8), ("S7", 16),
    ]]
    + [("S7", 8, 20.0, 1e-10)]
)
# (log q)'' more than 1e-9 off: every one at tol 1e-10 (the same cells do
# not converge at 1e-13), up to 3.3e-6 at S3, n = 16, tau = 400.
D2_MISSES = frozenset(
    [(label, n, 400.0, 1e-10) for label in SPACES for n in (3, 8, 16)]
    + [(label, 16, 20.0, 1e-10) for label in SPACES]
)

ITEM2_CONVERGENCE = pytest.mark.xfail(
    strict=True, raises=ConvergenceError,
    reason="ROADMAP item 2: the node budget runs out on node-log rounding")
ITEM2_VALUE = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 2: rel_error leaves out eps |log q| of node-log "
           "rounding")
ITEM3_D2 = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 3: (log q)'' cancels in Q''/Q - (Q'/Q)^2")


def sweep(misses, mark):
    """Every (space, n, tau, tol) of the sweep, a failing one under its xfail."""
    cells = []
    for label in SPACES:
        for n in NS:
            for tau in TAUS:
                for tol in TOLS:
                    key = (label, n, tau, tol)
                    marks = ()
                    if key in NOT_CONVERGED:
                        marks = (ITEM2_CONVERGENCE,)
                    elif key in misses:
                        marks = (mark,)
                    cells.append(pytest.param(*key, marks=marks))
    return cells


class TestSweep:
    @pytest.mark.parametrize("label, n, tau, tol", sweep(VALUE_MISSES, ITEM2_VALUE))
    def test_value_within_rel_error(self, label, n, tau, tol):
        err, rel_error = value_error(label, n, tau, tol)
        assert err <= rel_error

    @pytest.mark.parametrize("label, n, tau, tol", sweep(D2_MISSES, ITEM3_D2))
    def test_dlogq2_to_1e9(self, label, n, tau, tol):
        assert d2_error(label, n, tau, tol) <= D2_REL
