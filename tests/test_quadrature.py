import functools
import math
import re
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qflat import quadrature
from qflat.quadrature import (
    CancellationWarning,
    ConvergenceError,
    ParameterRangeError,
    QPParams,
    integrand,
    p_chi,
    q_chi,
    q_chi_derivs,
    q_p,
)
from qflat.spaces import (
    DEFAULT_SCAN_SELECTORS,
    chi_params,
    default_scan_spaces,
    parse_space,
)
from qflat.hypergeom import RationalPoly, hypergeom_poly


def s3_q_closed(tau):
    # closed form obtained by completing the square in
    # (1/2) int_0^inf t e^(-t^2/tau) sinh(2t) dt
    return math.sqrt(math.pi) / 4.0 * tau ** 1.5 * math.exp(tau)


def s3_log_q_closed(n, tau):
    # log of (sqrt(pi)/4) tau^(3/2) e^((n+1)^2 tau), the closed form above
    # shifted by the isotype factor e^(n(n+2) tau), at 30 digits
    import mpmath as mp

    with mp.workdps(30):
        tau = mp.mpf(tau)
        return mp.log(mp.sqrt(mp.pi) / 4) + 1.5 * mp.log(tau) + (n + 1) ** 2 * tau


def depth_limited_cell():
    # a q_p cell that refines at 1e-13, its sweep cut at depth 2, far inside
    # the node budget: no cell of the class reaches the real maximum depth
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_MAX_DEPTH", 2)
        return q_p(1, QPParams(0.5, 0.0, 0.5, 1.0), 1e-13)


def initial_breaks(tables, taus, Ts):
    # as the engine calls it, with the grid's one table of log|c_j|
    return quadrature._initial_breaks(tables, taus, Ts,
                                      quadrature._log_coeffs(tables))


def log_tail_bound(tables, taus, Ts):
    return quadrature._log_tail_bound(tables, taus, Ts,
                                      quadrature._log_coeffs(tables))


class TestKronrodRule:
    # exactness to degree 22 pins the 15-node Kronrod extension of the
    # 7-point Gauss rule, so a mistyped digit in a constant fails here
    X, WK, WG = quadrature._K15_X, quadrature._K15_W, quadrature._G7_W

    @staticmethod
    def defect(w, x, d):
        return abs(math.fsum(w * x ** d) - (2.0 / (d + 1) if d % 2 == 0 else 0.0))

    def test_k15_exact_to_degree_22(self):
        for d in range(23):
            assert self.defect(self.WK, self.X, d) <= 1e-14, d
        assert self.defect(self.WK, self.X, 24) > 1e-10

    def test_g7_exact_to_degree_13(self):
        for d in range(14):
            assert self.defect(self.WG, self.X[1::2], d) <= 1e-14, d
        assert self.defect(self.WG, self.X[1::2], 14) > 1e-6

    def test_g7_nodes_are_gauss_legendre(self):
        x7, _ = np.polynomial.legendre.leggauss(7)
        assert len(self.X) == 15 and len(self.WG) == 7
        assert np.all(np.diff(self.X) > 0)
        np.testing.assert_array_max_ulp(self.X[1::2], x7, maxulp=1)

    def test_weights_sum_to_two(self):
        assert math.fsum(self.WK) == pytest.approx(2.0, abs=1e-15)
        assert math.fsum(self.WG) == pytest.approx(2.0, abs=1e-15)


class TestIntegrand:
    def test_pure_gaussian_at_zero(self):
        assert integrand(1, QPParams(0, 0, 0, 1.0), 0.0) == 1.0

    def test_direct_value(self):
        got = integrand(1, QPParams(1, 1, 1, 1.0), 1.0)
        expected = math.exp(-1.0) * math.sinh(1.0) * math.cosh(1.0)
        assert got == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.66712, abs=5e-5)

    def test_with_polynomial(self):
        # P = 1 - 2x gives P(-sinh^2 t) = cosh(2t)
        got = integrand([1.0, -2.0], QPParams(1, 1, 1, 1.0), 1.0)
        expected = math.exp(-1.0) * math.cosh(2.0) * math.sinh(1.0) * math.cosh(1.0)
        assert got == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(2.50985, abs=1e-5)

    @staticmethod
    def exact(poly, params, t):
        # the integrand at 50 digits from the exact coefficients of P
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            t = mp.mpf(t)
            x = -mp.sinh(t) ** 2
            p = sum(mp.mpf(c.numerator) / c.denominator * x ** j
                    for j, c in enumerate(poly.coeffs))
            return (mp.exp(-t * t / params.tau) * p * t ** params.mu
                    * mp.sinh(t) ** params.kappa * mp.cosh(t) ** params.nu)

    def test_matches_mpmath_near_origin(self):
        ch = chi_params(parse_space("OP2"), 2)
        poly = hypergeom_poly(ch.A, 2, ch.c)
        params = QPParams(float(ch.mu), float(ch.kappa), float(ch.nu), 1.0)
        t = 1e-6
        while t <= 1.0:
            assert integrand(poly, params, t) == pytest.approx(
                float(self.exact(poly, params, t)), rel=1e-12, abs=0.0), t
            t *= 3.7

    def test_tiny_value_does_not_underflow_early(self):
        # e^(-1600) underflows on its own; the value is 4.39e-255
        ch = chi_params(parse_space("S16"), 5)
        poly = hypergeom_poly(ch.A, 5, ch.c)
        params = QPParams(7.5, 7.5, 7.5, 1.0)
        got = integrand(poly, params, 40.0)
        assert got == pytest.approx(float(self.exact(poly, params, 40.0)),
                                    rel=1e-12, abs=0.0)
        assert got == pytest.approx(4.3925e-255, rel=1e-4, abs=0.0)

    def test_large_t_within_double_range(self):
        # sinh(720) overflows on its own; the value is e^149.19 = 6.22e64
        params = QPParams(1, 1, 1, 400.0)
        got = integrand(1, params, 720.0)
        one = RationalPoly((1,))
        assert got == pytest.approx(float(self.exact(one, params, 720.0)), rel=1e-12)
        assert got == pytest.approx(6.2184e64, rel=1e-4)

    def test_zero_limit_with_positive_r(self):
        assert integrand(1, QPParams(1, 1, 1, 1.0), 0.0) == 0.0

    def test_overflow_signalled(self):
        ch = chi_params(parse_space("OP2"), 3)
        poly = hypergeom_poly(ch.A, 3, ch.c)
        params = QPParams(float(ch.mu), float(ch.kappa), float(ch.nu), 400.0)
        with pytest.raises(OverflowError):
            integrand(poly, params, 3400.0)

    def test_rejects_negative_t(self):
        # and a t that is not finite
        for t in (-0.5, math.inf, math.nan):
            with pytest.raises(ValueError):
                integrand(1, QPParams(0, 0, 0, 1.0), t)

    @pytest.mark.parametrize("P", [[math.nan], [1.0, math.inf], [-math.inf, 1.0]])
    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_rejects_non_finite_coefficients(self, P, t):
        with pytest.raises(ParameterRangeError, match="finite"):
            integrand(P, QPParams(0, 0, 0, 1.0), t)


class TestQP:
    def test_gaussian_half_line(self):
        res = q_p(1, QPParams(0, 0, 0, 1.0), 1e-12)
        assert res.value == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)
        assert res.rel_error <= 1e-12
        assert res.abs_error <= 1e-12 * abs(res.value)

    def test_s3_closed_form(self):
        res = q_p(1, QPParams(1, 1, 1, 1.0), 1e-11)
        assert res.value == pytest.approx(s3_q_closed(1.0), rel=1e-11)
        assert s3_q_closed(1.0) == pytest.approx(1.204507, abs=5e-7)

    def test_exponential_shift_for_linear_poly(self):
        # Q_{1-2x}(tau) = e^(3 tau) Q_1(tau) for mu=kappa=nu=1
        got = q_p([1, -2], QPParams(1, 1, 1, 1.0), 1e-11)
        assert got.value == pytest.approx(math.exp(3.0) * s3_q_closed(1.0), rel=1e-10)

    def test_monomial_equals_shifted_weight(self):
        # (-sinh^2 t)^k folds into the weight: integrating (-1)^k x^k
        # against (mu, kappa, nu) equals P = 1 against kappa + 2k.  This
        # pits the polynomial evaluation path against the plain weight path
        # end to end.
        for k, tau in ((1, 0.5), (2, 1.0), (3, 2.0)):
            mono = [0.0] * k + [(-1.0) ** k]
            a = q_p(mono, QPParams(1.0, 1.0, 1.5, tau), 1e-11)
            b = q_p(1, QPParams(1.0, 1.0 + 2 * k, 1.5, tau), 1e-11)
            assert a.value == pytest.approx(b.value, rel=1e-10)

    def test_invalid_params_rejected(self):
        with pytest.raises(ParameterRangeError):
            QPParams(0, 0, 0, 0.0)
        with pytest.raises(ParameterRangeError):
            QPParams(0, 0, 0, -2.0)
        with pytest.raises(ParameterRangeError):
            QPParams(-1.5, 0.25, 0, 1.0)

    def test_box_rejections(self):
        with pytest.raises(ParameterRangeError):
            q_p(1, QPParams(0, 0, 0, 401.0))
        with pytest.raises(ParameterRangeError):
            q_p(1, QPParams(8.5, 0, 0, 1.0))
        with pytest.raises(ParameterRangeError, match="degree 17"):
            q_p([(-1.0) ** k for k in range(18)], QPParams(0, 0, 0, 1.0))
        for tol in (1e-14, 1e-3):
            with pytest.raises(ParameterRangeError):
                q_p(1, QPParams(0, 0, 0, 1.0), tol)

    @pytest.mark.parametrize("P", [[math.nan], [1.0, math.inf], [-math.inf, 1.0]])
    def test_non_finite_coefficients_refused(self, P, monkeypatch):
        # refused before any node is spent: a NaN estimate fails every
        # panel test and would spend the whole node budget
        engine = quadrature._q_engine
        calls = []
        monkeypatch.setattr(quadrature, "_q_engine",
                            lambda *a: calls.append(a) or engine(*a))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterRangeError, match="finite"):
                q_p(P, QPParams(1, 1, 1, 1.0))
        assert not calls

    def test_singular_weight_below_the_box_is_refused(self, monkeypatch):
        # a negative exponent, singular or not, is refused by its stated rule
        # before any cell is computed, however the exponents sum; at the
        # edge of the class the cell converges
        engine = quadrature._q_engine
        calls = []
        monkeypatch.setattr(quadrature, "_q_engine",
                            lambda *a: calls.append(a) or engine(*a))
        for weight, name in (((-0.9, 0, 0), "mu"), ((-0.45, 0, 0), "mu"),
                             ((1.9, -2.0, 0), "kappa"), ((7.9, -8.0, 0), "kappa"),
                             ((0, 0, -3.0), "nu"), ((1, 1, -1e-300), "nu")):
            with pytest.raises(ParameterRangeError,
                               match=f"^{name} must be nonnegative, got -"):
                q_p([1.0], QPParams(*weight, 1.0), 1e-10)
            with pytest.raises(ParameterRangeError,
                               match=f"^{name} must be nonnegative, got -"):
                integrand([1.0], QPParams(*weight, 1.0), 0.5)
        assert not calls
        res = q_p([1.0], QPParams(0, 0, 0, 1.0), 1e-10)
        assert len(calls) == 1 and res.rel_error <= 1e-10

    @pytest.mark.parametrize("P", [[-1.0], [1.0, 2.0], [0.0, 1.0], [1.0, 3.0],
                                   [1.0, -2.0, -1e-300], [1.0, -1.0, 1.0, 5e-324],
                                   [-1.0, 1.0, -1.0]])
    def test_wrong_sign_coefficient_refused(self, P, monkeypatch):
        # each term c_k (-sinh^2 t)^k must be non-negative; one that is not
        # is refused by that rule before any node is spent, by q_p and by
        # integrand at every t, 0 included
        engine = quadrature._q_engine
        calls = []
        monkeypatch.setattr(quadrature, "_q_engine",
                            lambda *a: calls.append(a) or engine(*a))
        rule = re.escape("coefficients must alternate in sign, (-1)^k c_k >= 0")
        with pytest.raises(ParameterRangeError, match=rule):
            q_p(P, QPParams(1, 1, 1, 1.0))
        for t in (0.0, 1.0):
            with pytest.raises(ParameterRangeError, match=rule):
                integrand(P, QPParams(1, 1, 1, 1.0), t)
        assert not calls

    def test_budget_failure_carries_best(self, monkeypatch):
        # fractional mu puts a t^(1/2) kink at the origin; bisection cannot
        # settle it to 1e-13 within 1000 nodes
        monkeypatch.setattr(quadrature, "_NODE_BUDGET", 1000)
        params = QPParams(0.5, 0.0, 0.5, 1.0)
        with pytest.raises(ConvergenceError) as err:
            q_p(1, params, 1e-13)
        best = err.value.best
        assert best is not None
        assert f"after {best.nodes} nodes" in str(err.value)
        # reference from 30-digit tanh-sinh quadrature
        assert best.value == pytest.approx(0.723214354285265, rel=1e-4)
        assert best.rel_error > 1e-13


class TestErrorRule:
    """A cell's error is formed once, in ``_settle``, and a cell succeeds
    exactly when that reported error meets tol."""

    # q_p([c], S3 weight at tau = 1) is c times the closed form below
    SUBNORMAL_PARAMS = QPParams(1, 1, 1, 1.0)

    @staticmethod
    def half_unit_over(x):
        # 2^-1075 / x, exactly rounded: 2.0 ** -1075 itself is 0.0
        return float(Fraction(1, 2 ** 1075) / Fraction(x))

    @pytest.mark.parametrize("c", [5e-324, 1e-320])
    def test_subnormal_value_fails_on_its_rounding(self, c):
        # as doubles these values are off by up to 2^-1075, 41 % of the first
        # and 2e-4 of the second, which their log values do not show
        with pytest.raises(ConvergenceError) as err:
            q_p([c], self.SUBNORMAL_PARAMS)
        best = err.value.best
        assert str(err.value).startswith(
            "rounding or cancellation limits the relative error to ")
        assert str(err.value).endswith("; its largest term is representation")
        # 2^-1075 over the true value, against which the panels' 1e-14 is lost
        assert best.rel_error == pytest.approx(
            self.half_unit_over(Fraction(c) * Fraction(s3_q_closed(1.0))),
            rel=1e-9)
        assert best.abs_error >= math.ulp(0.0)

    def test_subnormal_value_counts_its_rounding(self):
        c = 1e-310
        res = q_p([c], self.SUBNORMAL_PARAMS)
        assert res.value < sys.float_info.min
        assert res.abs_error >= math.ulp(0.0)
        assert res.rel_error > self.half_unit_over(res.value)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 2: rel_error leaves out the rounding of the node logs, "
        "about eps |log value| = 1.6e-13 at log value -714, two subnormal "
        "units here"))
    def test_subnormal_value_within_abs_error(self):
        c = 1e-310
        res = q_p([c], self.SUBNORMAL_PARAMS)
        true = Fraction(c) * Fraction(s3_q_closed(1.0))
        assert abs(Fraction(res.value) - true) <= Fraction(res.abs_error)

    @classmethod
    def budget_cell(cls, kind, *args):
        """The result of a cell of ``test_rel_error_is_the_sum_of_its_budget``,
        or the best estimate of its failure, and whether it failed."""
        try:
            if kind == "subnormal":
                c, tol = args
                res = q_p([c], cls.SUBNORMAL_PARAMS, tol)
            else:
                label, n, tau, tol = args
                res = kind(parse_space(label), n, tau, tol)
        except ConvergenceError as exc:
            return exc.best, True
        return res[0] if isinstance(res, tuple) else res, False

    def test_rel_error_is_the_sum_of_its_budget(self):
        seen = set()

        @settings(max_examples=150, deadline=None)
        @given(cell=st.one_of(
            # a tight tol only at tau <= 1, where no catalog cell spends the
            # node budget
            st.tuples(st.sampled_from((q_chi, _quiet_derivs)),
                      st.sampled_from(("S2", "S3", "S7", "CP2", "HP2", "OP2")),
                      st.integers(0, quadrature.MAX_DEGREE),
                      st.sampled_from((1e-3, 0.05, 1.0, 20.0, 400.0)),
                      st.sampled_from((1e-13, 1e-10, 1e-4)),
                      ).filter(lambda cell: cell[4] > 1e-13 or cell[3] <= 1.0),
            st.tuples(st.just("subnormal"),
                      st.sampled_from((5e-324, 1e-320, 1e-310)),
                      st.sampled_from((1e-13, 1e-10, 1e-4)))))
        def check(cell):
            res, failed = self.budget_cell(*cell)
            # a failure's best estimate carries its budget too
            b = res.budget
            assert b is not None
            rel = max(b.rule, b.rounding) + b.tail
            assert res.rel_error.hex() == (rel + b.representation).hex()
            tiny = abs(res.value) < sys.float_info.min
            abs_err = math.inf if math.isinf(res.value) else rel * abs(res.value)
            if tiny:
                abs_err += math.ulp(0.0)
            assert res.abs_error.hex() == abs_err.hex()
            # only a value below the normal range has a representation term
            assert (b.representation > 0.0) == tiny
            seen.update({("failed", failed), ("below normal", tiny)})

        check()
        assert len(seen) == 4, seen

    def test_catalog_rows_never_cancel(self, monkeypatch):
        # every catalog record is built by _make_tables, which refuses a
        # weight outside q_p's class, so every moment row is positive; and
        # the rounding floor stays below the panel target tol/2 at every tol
        assert quadrature._ROUND_C * quadrature._EPS < quadrature.TOL_MIN / 2
        make = quadrature._make_tables
        made = []
        monkeypatch.setattr(quadrature, "_make_tables",
                            lambda *a: made.append(make(*a)) or made[-1])
        quadrature._isotype.cache_clear()
        records = [quadrature._isotype(parse_space(label), n)
                   for label in CENSUS_SPACES
                   for n in range(quadrature.MAX_DEGREE + 1)]
        assert len(records) == len(made) == 442
        assert all(rec is new for rec, new in zip(records, made))
        for rec in records:
            assert rec.coeffs[0] > 0.0 and min(rec.mu, rec.kappa, rec.nu) >= 0.5

    def test_tail_failure_carries_its_attempt(self, monkeypatch):
        params = QPParams(1, 1, 1, 1.0)
        value = q_p([1.0], params, 1e-10).value
        tables = quadrature._make_tables([1.0], 1, 1, 1)
        T0 = quadrature._first_truncation(tables, 1.0, 1e-10)
        monkeypatch.setattr(quadrature, "_log_tail_bound",
                            lambda tables, taus, Ts, logc: np.full(len(Ts), math.inf))
        with pytest.raises(ConvergenceError) as err:
            q_p([1.0], params, 1e-10)
        best = err.value.best
        assert str(err.value) == (
            "truncation tail bound failed to settle below tol/2")
        # the cell fails at its one truncation point
        assert best.truncation_t == T0
        assert best.rel_error >= 1.0
        assert best.value == pytest.approx(value, rel=1e-9)


class TestQChi:
    def test_s3_tau1(self):
        res = q_chi(parse_space("S3"), 0, 1.0, 1e-11)
        assert res.value == pytest.approx(s3_q_closed(1.0), rel=1e-11)

    def test_s3_tau4(self):
        res = q_chi(parse_space("S3"), 0, 4.0, 1e-11)
        assert res.value == pytest.approx(s3_q_closed(4.0), rel=1e-11)
        # (sqrt(pi)/4) * 8 * e^4 = 2 sqrt(pi) e^4 = 193.5454...
        assert s3_q_closed(4.0) == pytest.approx(193.5454, abs=5e-4)

    def test_s2_small_tau_leading_order(self):
        # leading Watson term: tau/2 for the 2-sphere
        res = q_chi(parse_space("S2"), 0, 1e-4, 1e-10)
        assert res.value == pytest.approx(5.0e-5, rel=1e-2)

    # reference values from 30-digit tanh-sinh quadrature
    REFS = [
        ("S2", 0, 1.0, 0.68269917072682594055),
        ("S2", 1, 1.0, 4.9903356829171541166),
        ("S2", 2, 0.5, 5.8559613315843793493),
        ("CP2", 1, 0.5, 0.91559355785568140511),
        ("CP2", 3, 2.0, 153978912169102.55831),
        ("HP2", 2, 1.0, 1293753995.0023584895),
        ("OP2", 1, 0.25, 564.34042756733801702),
        ("S5", 3, 4.0, 4.7883863975956241149e44),
        ("S3", 5, 4.0, 1.2246453169141587873e63),
    ]

    @pytest.mark.parametrize("label,n,tau,ref", REFS)
    def test_reference_values(self, label, n, tau, ref):
        res = q_chi(parse_space(label), n, tau, 1e-11)
        assert res.value == pytest.approx(ref, rel=1e-10)

    def test_s3_shift_identity(self):
        sp = parse_space("S3")
        for tau in (0.25, 0.5, 1.0, 2.0, 4.0):
            q0 = q_chi(sp, 0, tau, 1e-10).value
            for n in range(1, 6):
                qn = q_chi(sp, n, tau, 1e-10).value
                assert qn * math.exp(-n * (n + 2) * tau) / q0 == pytest.approx(
                    1.0, rel=1e-8
                )

    def test_large_tau_log_value(self):
        res = q_chi(parse_space("OP2"), 3, 400.0, 1e-9)
        assert math.isinf(res.value)
        assert math.isfinite(res.log_value)
        assert res.rel_error <= 1e-9

    def test_determinism(self):
        a = q_chi(parse_space("CP3"), 2, 0.7, 1e-10)
        b = q_chi(parse_space("CP3"), 2, 0.7, 1e-10)
        assert a == b

    def test_box_rejections(self):
        sp = parse_space("S3")
        with pytest.raises(ParameterRangeError):
            q_chi(sp, 17, 1.0)
        with pytest.raises(ParameterRangeError):
            q_chi(sp, -1, 1.0)
        with pytest.raises(ParameterRangeError):
            q_chi(sp, 0, 500.0)
        with pytest.raises(ParameterRangeError):
            q_chi(sp, 0, -1.0)


class TestRefinement:
    """Cells that split panels, pinned to their node counts: 15 per panel of
    the first level and 30 per split."""

    REFINING = [
        # q_p refines on its value row alone: 2160 and 1215 nodes with all
        # three moment rows
        (QPParams(0.5, 0.0, 0.5, 1.0), 1e-13, 2100),
        (QPParams(0.25, 1.0, 0.0, 0.3), 1e-13, 1155),
        (QPParams(0.25, 1.0, 0.0, 0.3), 1e-11, 945),
    ]

    # ids by cell, so that a re-pinned count keeps its test's name
    @pytest.mark.parametrize("params, tol, nodes", REFINING, ids=[
        f"{p.mu}-{p.kappa}-{p.nu}-{p.tau}-{tol:g}" for p, tol, _ in REFINING])
    def test_refining_cell_nodes(self, params, tol, nodes):
        res = q_p(1, params, tol)
        assert res.nodes == nodes
        assert res.rel_error <= tol

    def test_refined_value(self):
        # reference from 30-digit tanh-sinh quadrature
        res = q_p(1, QPParams(0.5, 0.0, 0.5, 1.0), 1e-13)
        assert res.value == pytest.approx(0.723214354285265, rel=1e-13)

    REFINED = [
        # converges at the node budget, so the cut of the leftmost failing
        # panels of a generation shows in its bits
        ("S4", 8, 20.0, 399975, "0x1.c490a86c90c8dp+10", "0x1.3e61958ce2b85p-45"),
        ("HP2", 8, 1e-3, 465, "-0x1.a6c4ea1931346p+4", "0x1.0000000000187p-47"),
        ("OP2", 0, 0.05, 480, "-0x1.dcfaab3dc3256p+3", "0x1.00000000006ebp-47"),
    ]

    @pytest.mark.parametrize("label, n, tau, nodes, log_value, rel_error", REFINED,
                             ids=[f"{lbl}-{n}-{tau}" for lbl, n, tau, *_ in REFINED])
    def test_refined_catalog_cell_bits(self, label, n, tau, nodes, log_value,
                                       rel_error):
        # pinned bit for bit, so a change in which panels a sweep splits or
        # keeps shows here
        res = q_chi(parse_space(label), n, tau, 1e-13)
        assert res.nodes == nodes
        assert res.log_value.hex() == log_value
        assert res.rel_error.hex() == rel_error

    def test_depth_limited_cell_ends_after_one_sweep(self, monkeypatch):
        # the sweep stops at the maximum depth, far inside the node budget,
        # and its kept panels are summed once after the first level's sum
        sums = []
        fn = quadrature._sum_panels
        monkeypatch.setattr(quadrature, "_sum_panels",
                            lambda *a: sums.append(a) or fn(*a))
        with pytest.raises(ConvergenceError) as err:
            depth_limited_cell()
        assert str(err.value) == (
            "panel refinement did not reach tol=1e-13: after 510 nodes the "
            "worst moment's relative error 5.033e-06 exceeds the panel target "
            "5e-14")
        assert err.value.best.nodes == 510
        assert len(sums) == 2

    def test_budget_exhausted_cell(self):
        with pytest.raises(ConvergenceError) as err:
            q_chi(parse_space("S3"), 5, 400.0, 1e-13)
        best = err.value.best
        assert best.nodes <= quadrature._NODE_BUDGET
        assert best.nodes == 399975

    @pytest.mark.parametrize("call", [
        # their value rows converge; the derivative rows miss the target
        lambda: q_chi_derivs(parse_space("S7"), 8, 20.0, 1e-13),
        lambda: q_chi_derivs(parse_space("HP2"), 8, 20.0, 1e-13),
        # stops at the maximum depth, far inside the node budget
        lambda: depth_limited_cell(),
    ])
    def test_failure_message_quotes_the_missed_target(self, call):
        with pytest.raises(ConvergenceError) as err:
            call()
        msg = str(err.value)
        num = r"([0-9.]+(?:e[-+]?[0-9]+)?)"
        error = float(re.search(r"relative error " + num, msg).group(1))
        target = float(re.search(r"panel target " + num, msg).group(1))
        assert error > target
        assert str(err.value.best.nodes) in msg


# the small-tau end of the box, where every cell must settle at its first T
SMALL_TAUS = (quadrature.MIN_TAU, 1e-20, 1e-10, 1e-6, 1e-4)
# the 26 catalog spaces with m <= MAX_DIM
CENSUS_SPACES = ([f"S{k}" for k in range(2, 17)] + [f"CP{k}" for k in range(2, 9)]
                 + ["HP2", "HP3", "HP4", "OP2"])


class TestTruncationSoundness:
    CASES = [("S3", 0, 1.0), ("S2", 1, 0.01), ("OP2", 3, 4.0), ("CP3", 2, 100.0)]

    @pytest.mark.parametrize("label,n,tau", CASES)
    def test_internal_majorant(self, label, n, tau):
        # the analytic tail bound at the returned truncation point must sit
        # below tol/2 relative to the value
        from qflat.quadrature import _as_float_coeffs, _make_tables

        tol = 1e-10
        sp = parse_space(label)
        res = q_chi(sp, n, tau, tol)
        ch = chi_params(sp, n)
        coeffs = _as_float_coeffs(hypergeom_poly(ch.A, n, ch.c))
        tables = _make_tables(coeffs, ch.mu, ch.kappa, ch.nu)
        assert (log_tail_bound([tables], [tau], [res.truncation_t])[0]
                <= math.log(tol / 2.0) + res.log_value)

    @pytest.mark.parametrize("label,n,tau", [("S3", 0, 1.0), ("S2", 1, 0.01),
                                             ("CP2", 1, 0.25)])
    def test_exponential_majorant(self, label, n, tau):
        # cruder bound with t^mu majorized by e^(mu t); only certifies
        # anything when mu*T is small against T^2/tau - lambda*T, so the
        # cases here stay in that regime (the library itself uses the
        # sharper T^mu majorant, checked above for every regime)
        import mpmath as mp

        tol = 1e-10
        sp = parse_space(label)
        res = q_chi(sp, n, tau, tol)
        ch = chi_params(sp, n)
        poly = hypergeom_poly(ch.A, n, ch.c)
        norm1 = float(sum(abs(c) for c in poly.float_coeffs()))
        lam = float(ch.kappa + ch.nu) + 2 * n + float(ch.mu)
        T = mp.mpf(res.truncation_t)
        tail = norm1 * mp.quad(
            lambda t: mp.e ** (-t * t / tau + lam * t), [T, mp.inf]
        )
        assert mp.log(tail) <= math.log(tol / 2.0) + res.log_value

    # weights against a 30-digit tail of the integrand; the (1, 1, 1) case
    # keeps the id it had as the fourth of a longer list
    TAILS = [pytest.param((1.0, 1.0, 1.0), 1.0, 3.0, id="weight3-1.0-3.0"),
             ("S3", 1.0, 3.0)]

    @pytest.mark.parametrize("weight,tau,T", TAILS)
    def test_tail_bound_holds_for_every_sign(self, weight, tau, T):
        import mpmath as mp

        if weight == "S3":
            tables = quadrature._isotype(parse_space("S3"), 0)
        else:
            tables = quadrature._make_tables([1.0], *weight)
        bound = float(log_tail_bound([tables], [tau], [T])[0])
        with mp.workdps(30):
            def f(t):
                sh = mp.sinh(t)
                p = sum(c * (-sh * sh) ** j for j, c in enumerate(tables.coeffs))
                return (p * mp.exp(-t * t / tau) * t ** tables.mu
                        * sh ** tables.kappa * mp.cosh(t) ** tables.nu)

            tail = mp.quad(f, [T, T + 1, T + 5, mp.inf])
            assert 0 < tail <= mp.exp(bound)

    @staticmethod
    def majorant(tables, tau, T):
        # (log M, D) of the pointwise majorant M exp(-D (t - T)) of the
        # integrand on [T, inf), from its factors' bounds, each term as the
        # tail bound's docstring states it
        deg = len(tables.coeffs) - 1
        mu, kappa, nu = tables.mu, tables.kappa, tables.nu
        log_sh = math.log(math.sinh(T)) if T < 700 else T - math.log(2.0)
        log_ch = T - math.log(2.0) + math.log1p(math.exp(-2.0 * T))
        terms = [math.log(abs(c)) + 2 * j * log_sh
                 for j, c in enumerate(tables.coeffs) if c != 0.0]
        top = max(terms)
        log_m = (top + math.log(sum(math.exp(x - top) for x in terms))
                 + mu * math.log(T) + kappa * log_sh + nu * log_ch - T * T / tau)
        D = 2.0 * T / tau - ((2 * deg + kappa) * (1 + 1 / T) + nu + mu / T)
        return log_m, D

    @settings(max_examples=150, deadline=None)
    @given(sizes=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=17),
           mu=st.floats(0.0, 8.0), kappa=st.floats(0.0, 8.0),
           nu=st.floats(0.0, 8.0),
           log_tau=st.floats(math.log(quadrature.MIN_TAU), math.log(quadrature.MAX_TAU)),
           log_tol=st.floats(math.log(quadrature.TOL_MIN), math.log(quadrature.TOL_MAX)),
           stretch=st.floats(1.0, 4.0))
    def test_pointwise_majorant(self, sizes, mu, kappa, nu, log_tau, log_tol,
                                stretch):
        # every weight of the q_p box, at its first truncation point or beyond
        assume(any(c != 0.0 for c in sizes))
        coeffs = [(-1.0) ** k * c for k, c in enumerate(sizes)]
        tau = min(max(math.exp(log_tau), quadrature.MIN_TAU), quadrature.MAX_TAU)
        tol = min(max(math.exp(log_tol), quadrature.TOL_MIN), quadrature.TOL_MAX)
        tables = quadrature._make_tables(quadrature._as_float_coeffs(coeffs), mu,
                                         kappa, nu)
        T = quadrature._first_truncation(tables, tau, tol) * stretch
        log_m, D = self.majorant(tables, tau, T)
        assert D > 0.0
        bound = float(log_tail_bound([tables], [tau], [T])[0])
        # slack for the rounding of the logs, a few ulps of their largest terms
        slack = 1e-12 * (1.0 + T * T / tau + (2 * len(coeffs) + 24) * abs(math.log(T))
                         + 2 * len(coeffs) * T + abs(log_m))
        assert bound == pytest.approx(log_m - math.log(D), abs=slack)
        s = np.linspace(0.0, 30.0 / D, 401)
        g = quadrature._log_mag([tables], tau, (T + s)[None, :], [1])
        assert np.all(g[0] <= log_m - D * s + slack)

    def test_one_t_per_cell(self):
        # the 26 catalog spaces at their smallest taus: every cell settles
        # at its first T
        ns = (0, 16)
        for label in CENSUS_SPACES:
            sp = parse_space(label)
            for tol in (1e-10, 1e-4):
                quadrature.prefetch(sp, ns, SMALL_TAUS, tol, derivs=False)
                for n in ns:
                    for tau in SMALL_TAUS:
                        tables = quadrature._isotype(sp, n)
                        assert q_chi(sp, n, tau, tol).truncation_t == (
                            quadrature._first_truncation(tables, tau, tol)), (
                            label, n, tau, tol)

    @pytest.mark.parametrize("n, tau, tol", [
        pytest.param(n, tau, tol, marks=() if tau > quadrature.MIN_TAU else (
            pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
                "ROADMAP item 2: rel_error leaves out the rounding of log "
                "value -104.4, half an ulp or 7.1e-15 of the value, against "
                "7.105e-15 reported"))))
        for n in (0, 16) for tau in SMALL_TAUS for tol in (1e-10, 1e-4)])
    def test_s3_small_tau_closed_form(self, n, tau, tol):
        # (sqrt(pi)/4) tau^(3/2) e^((n+1)^2 tau) within the reported error
        import mpmath as mp

        res = q_chi(parse_space("S3"), n, tau, tol)
        with mp.workdps(30):
            closed = mp.exp(s3_log_q_closed(n, tau))
            assert abs(mp.mpf(res.value) - closed) <= res.abs_error


class TestDlogQ:
    def test_s3_order2_closed(self):
        assert q_chi_derivs(parse_space("S3"), 0, 1.0, 1e-11)[2] == pytest.approx(
            -1.5, abs=1e-9
        )

    def test_s3_order1_closed(self):
        # log q0 = const + (3/2) log tau + tau
        assert q_chi_derivs(parse_space("S3"), 0, 2.0, 1e-11)[1] == pytest.approx(
            1.75, abs=1e-9
        )

    def test_s3_n1_order2_unchanged(self):
        assert q_chi_derivs(parse_space("S3"), 1, 1.0, 1e-11)[2] == pytest.approx(
            -1.5, abs=1e-8
        )

    # references from 30-digit quadrature of the moment integrals
    REFS = [
        ("S2", 0, 1.0, 1, 1.2963251599017995288),
        ("S2", 0, 1.0, 2, -1.021741510737879233),
        ("S2", 1, 1.0, 2, -1.0316646965060860994),
        ("CP2", 2, 0.5, 2, -7.9914168860554803926),
        ("OP2", 0, 2.0, 2, -1.912249695685920149),
    ]

    @pytest.mark.parametrize("label,n,tau,order,ref", REFS)
    def test_reference_values(self, label, n, tau, order, ref):
        got = q_chi_derivs(parse_space(label), n, tau, 1e-11)[order]
        assert got == pytest.approx(ref, abs=1e-8)

    def test_finite_difference_coherence(self):
        # fourth-order central stencil at step h = 1e-3 tau; a three-point
        # stencil cannot reach 1e-6 at small tau since (log q)'''' ~ tau^-4
        for label, n in (("S2", 1), ("OP2", 3), ("S3", 2)):
            sp = parse_space(label)
            for tau in (0.25, 1.0, 4.0):
                h = 1e-3 * tau
                f = lambda x: q_chi_derivs(sp, n, x, 1e-11)[1]
                fd = (-f(tau + 2 * h) + 8 * f(tau + h)
                      - 8 * f(tau - h) + f(tau - 2 * h)) / (12 * h)
                d2 = q_chi_derivs(sp, n, tau, 1e-11)[2]
                assert d2 == pytest.approx(fd, abs=1e-6)

    def test_cancellation_warning_at_large_tau(self):
        # (log q)'' ~ -(mu+1/2)/tau^2 while the assembled terms are ~(d1)^2
        with pytest.warns(CancellationWarning):
            q_chi_derivs(parse_space("OP2"), 3, 400.0, 1e-9)[2]

    def test_single_precision_tau_is_widened(self):
        # tau enters every power in double precision, whatever its type
        sp = parse_space("CP2")
        tau = np.float32(0.3)
        wide = q_chi_derivs(sp, 2, float(tau))
        assert _bits(*q_chi_derivs(sp, 2, tau)) == _bits(*wide)
        assert _bits(q_chi(sp, 2, tau)) == _bits(wide[0])

    def test_one_pass_derivs_match(self):
        sp = parse_space("HP2")
        res, d1, d2 = q_chi_derivs(sp, 1, 0.5, 1e-10)
        assert res.value == pytest.approx(q_chi(sp, 1, 0.5, 1e-10).value, rel=1e-12)
        assert d1 == pytest.approx(q_chi_derivs(sp, 1, 0.5, 1e-10)[1], rel=1e-12)
        assert d2 == pytest.approx(q_chi_derivs(sp, 1, 0.5, 1e-10)[2], rel=1e-12)


class TestPChi:
    def test_s3_value(self):
        # Vol(S^2) * 2^(3/2) * q0(1) with unit prefactor constants
        expected = 4.0 * math.pi * 2.0 ** 1.5 * s3_q_closed(1.0)
        got = p_chi(parse_space("S3"), 0, 1j, 1e-11)
        assert got == pytest.approx(expected, rel=1e-10)
        assert expected == pytest.approx(42.81, abs=5e-3)

    def test_depends_only_on_im(self):
        sp = parse_space("S3")
        assert p_chi(sp, 0, 2 + 1j, 1e-11) == p_chi(sp, 0, 1j, 1e-11)
        assert p_chi(sp, 1, -5 + 0.7j, 1e-11) == p_chi(sp, 1, 0.7j, 1e-11)

    def test_scale_change_mapping(self):
        # B=1/2 at Im s = 4 probes the same tau = B^2 Im s = 1, and the
        # prefactor B^m (Im s)^(m/2) is 1 in both setups
        a = p_chi(parse_space("S3"), 0, 1j, 1e-11)
        b = p_chi(parse_space("S3", B=0.5), 0, 4j, 1e-11)
        assert b == pytest.approx(a, rel=1e-12)

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ParameterRangeError):
            p_chi(parse_space("S3"), 0, 1.0 - 1j)
        with pytest.raises(ParameterRangeError):
            p_chi(parse_space("S3"), 0, 3.0)


def _bits(res, d1=None, d2=None):
    return (res.value, res.log_value, res.abs_error, res.rel_error, res.nodes,
            res.truncation_t, d1, d2)


class TestIsotypeCache:
    # every default space at the box corners in n and tau
    CELLS = [(lbl, n, tau) for lbl in ("S2", "S3", "S4", "S5", "S7", "CP2",
                                       "CP3", "HP2", "OP2")
             for n in (0, 8, 16) for tau in (0.05, 1.0, 400.0)]

    @pytest.mark.parametrize("label,n,tau", CELLS)
    def test_cold_and_warm_bit_identical(self, label, n, tau):
        # a cold call and a warm one; TestGridContract holds their bits
        sp = parse_space(label)
        cache = quadrature._isotype
        cache.cache_clear()
        _quiet_derivs(sp, n, tau)
        assert cache.cache_info().misses == 1
        _quiet_derivs(sp, n, tau)
        assert cache.cache_info().hits == 1
        assert cache.cache_info().currsize == 1

    def test_record_is_read_only(self):
        for field in ("coeffs", "log_abs_coeffs", "horner"):
            tables = quadrature._isotype(parse_space("CP2"), 3)
            with pytest.raises(ValueError):
                getattr(tables, field)[0] = 1.0
            array = getattr(quadrature._isotype(parse_space("CP2"), 3), field)
            with pytest.raises(ValueError):
                array[0] = 1.0

    @pytest.mark.parametrize("n", (0, 1, 2, 7, 16))
    def test_horner_table_is_the_coefficients_both_ways_round(self, n):
        # from the top down, and from the bottom up negated for odd degree
        tables = quadrature._isotype(parse_space("HP2"), n)
        c = tables.coeffs
        assert tables.horner.shape == (n + 1, 2)
        assert tables.horner[:, 0].tolist() == c[::-1].tolist()
        assert tables.horner[:, 1].tolist() == ((-1.0) ** n * c).tolist()

    def test_scale_does_not_enter_the_key(self):
        cache = quadrature._isotype
        cache.cache_clear()
        a = q_chi(parse_space("S4"), 2, 1.5)
        b = q_chi(parse_space("S4", B=2.0), 2, 1.5)
        assert cache.cache_info().currsize == 1
        assert cache.cache_info().hits == 1
        assert _bits(a) == _bits(b)
        ta = quadrature._isotype(parse_space("S4"), 2)
        tb = quadrature._isotype(quadrature._unit_scale(parse_space("S4", B=2.0)), 2)
        assert ta is tb

    def test_arbitrary_polynomials_stay_out(self):
        quadrature._isotype(parse_space("S3"), 1)
        before = quadrature._isotype.cache_info()
        for P in (1, [1.0, -2.0], [0.5, 0.0, 3.0, -1.0], [1.0, -1.0] * 8 + [1.0]):
            for params in (QPParams(0.5, 0.5, 0.0, 1.0), QPParams(2.0, 1.0, 3.0, 20.0)):
                q_p(P, params)
        after = quadrature._isotype.cache_info()
        assert after.currsize == before.currsize
        assert after.misses == before.misses

    def test_rejected_cells_stay_out(self):
        quadrature._isotype.cache_clear()
        for args in ((parse_space("S3"), 17, 1.0), (parse_space("S20"), 0, 1.0),
                     (parse_space("S3"), 0, 500.0), (parse_space("S3"), 0, 1e-31)):
            with pytest.raises(ParameterRangeError):
                q_chi(*args)
        assert quadrature._isotype.cache_info().currsize == 0

    def test_non_finite_record_refused(self, monkeypatch):
        # catalog records come from the builder q_p and integrand use, so a
        # non-finite coefficient is refused there too, and nothing is cached
        monkeypatch.setattr(quadrature, "hypergeom_poly",
                            lambda *a: [1.0, math.nan])
        quadrature._isotype.cache_clear()
        with pytest.raises(ParameterRangeError, match="finite"):
            q_chi(parse_space("CP2"), 1, 1.0)
        assert quadrature._isotype.cache_info().currsize == 0

    def test_miss_builds_through_module_globals(self, monkeypatch):
        # a miss looks up chi_params and hypergeom_poly on the module, where
        # instrumentation can see it; a hit calls neither
        calls = []
        for name in ("chi_params", "hypergeom_poly"):
            fn = getattr(quadrature, name)
            monkeypatch.setattr(
                quadrature, name,
                lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a))
        quadrature._isotype.cache_clear()
        sp = parse_space("HP2")
        first = q_chi(sp, 4, 0.5)
        q_chi(sp, 4, 2.0)
        q_chi_derivs(sp, 4, 8.0)
        assert calls == ["chi_params", "hypergeom_poly"]
        ch = chi_params(sp, 4)
        coeffs = quadrature._as_float_coeffs(hypergeom_poly(ch.A, 4, ch.c))
        direct = q_p(coeffs, QPParams(float(ch.mu), float(ch.kappa), float(ch.nu), 0.5))
        assert _bits(first) == _bits(direct)


class TestFirstLevel:
    CASES = [("S3", 0, 0.05, 1e-10), ("CP2", 5, 1.0, 1e-13), ("OP2", 16, 400.0, 1e-10),
             ("HP2", 3, 20.0, 1e-4)]

    @pytest.mark.parametrize("label,n,tau,tol", CASES)
    def test_scale_is_the_peak_over_first_level_nodes(self, label, n, tau, tol):
        # the scale is the max of log|integrand| over the first level's own
        # nodes, and that level gets the bits a separate moments call gives
        # it, of the value row alone and of all three moment rows
        tables = quadrature._isotype(parse_space(label), n)
        T = q_chi(parse_space(label), n, tau, tol).truncation_t
        breaks, _ = initial_breaks([tables], [tau], [T])
        a, b = breaks[:-1], breaks[1:]
        xs, _ = quadrature._panel_nodes(a, b)
        g = quadrature._log_mag([tables], tau, xs, [len(xs)])
        for nrows in (1, 3):
            fval, ferr, (scale,) = quadrature._eval_panels(
                [tables], [tau], a, b, [len(a)], nrows)
            assert scale == float(np.max(g))
            val, err, _ = quadrature._eval_panels([tables], [tau], a, b, [len(a)],
                                                  nrows, [scale])
            assert np.array_equal(fval, val) and np.array_equal(ferr, err)
            # the cell settles on that level and returns its sums
            (out,) = quadrature._q_engine([tables], [tau], tol, nrows)
            I_cell, res = quadrature._unwrap(out)
            assert res.nodes == 15 * len(a)
            sums = quadrature._sum_panels(val, err, [val.shape[1]])
            assert len(sums) == 2
            for want in sums:
                assert want.shape == (1, nrows)
            assert np.array_equal(I_cell, sums[0][0])

    @pytest.mark.parametrize("label,n,tau,tol", CASES)
    def test_nodes_are_fifteen_per_panel(self, label, n, tau, tol):
        # these cells converge on their first level, which costs 15 nodes a
        # panel and nothing besides
        res = q_chi(parse_space(label), n, tau, tol)
        tables = quadrature._isotype(parse_space(label), n)
        panels = len(initial_breaks([tables], [tau], [res.truncation_t])[0]) - 1
        assert res.nodes == 15 * panels


ROW_TAUS = (quadrature.MIN_TAU, 1e-3, 0.05, 1.0, 20.0, 400.0)


def _quiet_derivs(*args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CancellationWarning)
        return q_chi_derivs(*args)


class TestStackedRow:
    def test_stack_arrays_go_before_the_next_stack(self):
        # the table_dense grid of one space: 340 cells in stacks of about ten
        # peak near 0.8 MB, and near 15 MB as one stack
        sp, taus = parse_space("OP2"), np.geomspace(0.05, 400.0, 20).tolist()
        quadrature.prefetch(sp, range(17), taus)
        tracemalloc.start()
        try:
            quadrature.prefetch(sp, range(17), taus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(quadrature._ROW) == 17 * len(taus)
        assert peak < 2 << 20, peak


def _hexbits(res):
    return tuple(x.hex() if isinstance(x, float) else x for x in (
        res.value, res.log_value, res.abs_error, res.rel_error, res.nodes,
        res.truncation_t))


def _failure(exc):
    return type(exc), str(exc), _hexbits(exc.best) if exc.best else None


def _outcome(call):
    """(I bits, result fields) of a cell, or (error type, message, fields of
    its best estimate)."""
    try:
        I, res = call()
    except quadrature.QuadratureError as exc:
        return _failure(exc)
    return I.tobytes(), _hexbits(res)


def _public_outcome(sp, n, tau, tol, nrows=3):
    """q_chi (``nrows`` 1) or q_chi_derivs (3) at one cell: the hex of every
    result field, and of d1 and d2, or the error's type, message and best
    estimate."""
    try:
        if nrows == 1:
            return _hexbits(q_chi(sp, n, tau, tol))
        res, d1, d2 = _quiet_derivs(sp, n, tau, tol)
    except quadrature.QuadratureError as exc:
        return _failure(exc)
    return _hexbits(res) + (d1.hex(), d2.hex())


# a positive q_p weight outside the catalog: profile 1 + 3 sinh^2 t
MIXED = ([1.0, -3.0], 0.5, 1.5, 2.0)


def grid_records(label, ns):
    """The records of the isotypes ``ns`` of a catalog space, or for "MIXED"
    one record of that weight per entry of ``ns``, each built afresh."""
    if label == "MIXED":
        P, mu, kappa, nu = MIXED
        return [quadrature._make_tables(quadrature._as_float_coeffs(P), mu, kappa, nu)
                for _ in ns]
    return [quadrature._isotype(parse_space(label), n) for n in ns]


def kind(tables, tau, tol, out):
    """How the cell (tables, tau) of ``_outcome`` ``out`` ended: "error",
    "larger T" than its first, "settled" on its first level, or "refined"."""
    if isinstance(out[0], type):
        return "error"
    nodes, T = out[1][4], float.fromhex(out[1][5])
    if T != quadrature._first_truncation(tables, tau, tol):
        return "larger T"
    panels = len(initial_breaks([tables], [tau], [T])[0]) - 1
    return "settled" if nodes == 15 * panels else "refined"


class TestGridContract:
    """The grid engine's contract: a cell gets the same bits alone and in
    any grid, whatever the cap on a node stack, and through ``prefetch``
    and the per-cell calls the bits a lone call gives."""

    @staticmethod
    def outcomes(tables, taus, tol, nrows):
        return [_outcome(lambda: quadrature._unwrap(out))
                for out in quadrature._q_engine(tables, taus, tol, nrows)]

    def test_cell_outcome_is_the_same_alone_and_in_any_grid(self):
        # each cell's lone outcomes, computed once: through the engine, and
        # through q_chi or q_chi_derivs with a cold isotype cache
        alone, public, kinds = {}, {}, set()

        @settings(max_examples=100, deadline=None)
        @given(label=st.sampled_from(("S2", "S3", "CP2", "HP2", "OP2", "MIXED")),
               ns=st.lists(st.integers(0, quadrature.MAX_DEGREE), min_size=1,
                           max_size=3, unique=True),
               taus=st.lists(st.sampled_from(ROW_TAUS), min_size=1, max_size=3,
                             unique=True),
               tol=st.sampled_from((1e-13, 1e-10, 1e-4)),
               nrows=st.sampled_from((1, 3)),
               cap=st.sampled_from((1, 900, "twice the grid's panels", None)))
        # settled, refining and failing cells in one grid: n = 16 fails at
        # tau = 20, and with the derivative rows other cells refine
        @example(label="CP2", ns=[16, 0, 1],
                 taus=[quadrature.MIN_TAU, 1e-3, 0.05, 20.0], tol=1e-13,
                 nrows=3, cap="twice the grid's panels")
        def check(label, ns, taus, tol, nrows, cap):
            cells = [(n, tau) for n in ns for tau in taus]
            tables = [rec for rec in grid_records(label, ns) for _ in taus]
            grid_taus = [tau for _, tau in cells]
            keys = [(label, n, tau, tol, nrows) for n, tau in cells]
            with pytest.MonkeyPatch.context() as mp:
                # the contract holds at any node budget; a small one keeps
                # each failing cell cheap and puts budget cuts in more grids
                mp.setattr(quadrature, "_NODE_BUDGET", 30_000)
                for tb, tau, key in zip(tables, grid_taus, keys):
                    if key not in alone:
                        alone[key] = self.outcomes([tb], [tau], tol, nrows)[0]
                        kinds.add(kind(tb, tau, tol, alone[key]))
                if label != "MIXED":
                    sp = parse_space(label)
                    for (n, tau), key in zip(cells, keys):
                        if key not in public:
                            quadrature._isotype.cache_clear()
                            public[key] = _public_outcome(sp, n, tau, tol, nrows)
                if isinstance(cap, str):
                    Ts = [quadrature._first_truncation(tb, tau, tol)
                          for tb, tau in zip(tables, grid_taus)]
                    cap = 2 * (len(initial_breaks(tables, grid_taus, Ts)[0])
                               - len(tables))
                if cap is not None:
                    mp.setattr(quadrature, "_STACK_NODES", cap)
                assert (self.outcomes(tables, grid_taus, tol, nrows)
                        == [alone[key] for key in keys])
                if label == "MIXED":
                    return
                quadrature.prefetch(sp, ns, taus, tol, derivs=nrows == 3)
                assert len(quadrature._ROW) == len(cells)
                # another tol is another cell, computed alone
                _public_outcome(sp, ns[0], taus[0],
                                1e-10 if tol == 1e-4 else 1e-4, nrows)
                assert len(quadrature._ROW) == len(cells)
                for (n, tau), key in zip(cells, keys):
                    assert _public_outcome(sp, n, tau, tol, nrows) == public[key], key
                assert not quadrature._ROW

        check()
        assert {"settled", "refined", "error"} <= kinds, kinds


class TestSumPanels:
    """``_sum_panels`` over the first levels of catalog cells."""

    def stack(self, tables, nrows=3, tol=1e-10):
        # the first levels of the cells of tables at ROW_TAUS, in one node call
        recs = [tables] * len(ROW_TAUS)
        Ts = [quadrature._first_truncation(tables, tau, tol) for tau in ROW_TAUS]
        breaks, counts = initial_breaks(recs, ROW_TAUS, Ts)
        cells = np.split(breaks, np.cumsum(counts)[:-1])
        a = np.concatenate([c[:-1] for c in cells])
        b = np.concatenate([c[1:] for c in cells])
        val, err, _ = quadrature._eval_panels(recs, ROW_TAUS, a, b, counts - 1, nrows)
        return val, err, (counts - 1).tolist()

    @staticmethod
    def fsums(x, counts):
        ends = np.cumsum(counts).tolist()
        return np.array([[math.fsum(row[s:e]) for row in x.tolist()]
                         for s, e in zip([0] + ends[:-1], ends)])

    @pytest.mark.parametrize("label,n", [("S2", 0), ("CP2", 8), ("OP2", 16)])
    def test_catalog_stack_reuses_the_estimate_sums(self, label, n):
        for nrows in (1, 3):
            val, err, counts = self.stack(
                quadrature._isotype(parse_space(label), n), nrows)
            assert np.all(val >= 0.0)
            I, E = quadrature._sum_panels(val, err, counts)
            assert I.shape == E.shape == (len(counts), nrows)
            assert np.array_equal(I, self.fsums(val, counts))
            assert np.array_equal(E, self.fsums(err, counts))


def _signs(rng, shape):
    return np.where(rng.random(shape) < 0.5, -1.0, 1.0)


def _run_values(kind, rng, n):
    """A (3, n) block of panel values of one kind."""
    shape = (3, n)
    if kind == "spread":
        # mixed signs over 120 binades
        return _signs(rng, shape) * rng.random(shape) * 2.0 ** rng.integers(-60, 60, shape)
    if kind == "wide":
        # from the subnormals up to 1e300
        return _signs(rng, shape) * 10.0 ** rng.uniform(-323.0, 300.0, shape)
    if kind == "cancel":
        # pairs x, -x in random order, plus residues 2^-80 below them or none
        half = rng.standard_normal((3, (n + 1) // 2)) * 2.0 ** rng.integers(-20, 20)
        x = np.concatenate([half, -half], axis=1)[:, :n]
        if rng.random() < 0.5:
            x[:, ::7] += rng.standard_normal(x[:, ::7].shape) * 2.0 ** -80
        return rng.permuted(x, axis=1)
    if kind == "subnormal":
        # multiples of the least subnormal, with zeros of both signs
        x = rng.integers(-2 ** 20, 2 ** 20, shape) * 5e-324
        x[rng.random(shape) < 0.1] = -0.0
        return x
    if kind == "level":
        # one sign and binade, then a small value of the other sign: the
        # partial sums climb far above every single value
        x = (1.0 + rng.random(shape)) * 2.0 ** rng.integers(-30, 30)
        x[:, -1] = -rng.random(3) * 2.0 ** -rng.integers(0, 40, 3)
        return x
    # ties: per row a coarse value, half a unit of its last place (of the
    # wider or the narrower gap) and a few residues near u^2 times it, among
    # zeros, so the sums fall on or next to rounding midpoints
    base = (rng.integers(1, 9, (3, 1)) * 2.0 ** rng.integers(-20, 20, (3, 1))
            * _signs(rng, (3, 1)))
    unit = np.spacing(np.abs(base)) / rng.choice([1.0, 2.0], (3, 1))
    x = (_signs(rng, shape) * rng.integers(1, 8, shape) * unit
         * 2.0 ** rng.integers(-60, -52, shape) * (rng.random(shape) < 4.0 / n))
    x[:, :2] = np.hstack([base, 0.5 * unit * _signs(rng, (3, 1))])[:, :n]
    return rng.permuted(x, axis=1)


@st.composite
def panel_stacks(draw):
    """(val, err, counts): runs of 1 to 4,500 panels of mixed kinds, with a
    few values Hypothesis picks itself (+-0.0, subnormals, up to 1e300)."""
    counts = draw(st.lists(st.one_of(st.integers(1, 60), st.integers(4_000, 4_500)),
                           min_size=1, max_size=4))
    kinds = draw(st.lists(st.sampled_from(["spread", "wide", "cancel", "subnormal", "level", "ties"]),
                          min_size=len(counts), max_size=len(counts)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    val = np.concatenate([_run_values(k, rng, n) for k, n in zip(kinds, counts)], axis=1)
    picks = draw(st.lists(st.floats(-1e300, 1e300, allow_subnormal=True), max_size=6))
    for x in picks:
        val[rng.integers(3), rng.integers(val.shape[1])] = x
    if draw(st.booleans()):
        val = np.abs(val)
    err = np.abs(_run_values(draw(st.sampled_from(["spread", "subnormal", "ties"])),
                             rng, val.shape[1]))
    return val, err, counts


class TestExactSums:
    """``_sum_panels`` returns the bits of ``math.fsum`` over every run, by
    its certificate or by its fallback to fsum itself."""

    @staticmethod
    def check(val, err, counts):
        I, E = quadrature._sum_panels(val, err, counts)
        want = TestSumPanels.fsums(np.concatenate([val, err]), counts)
        # tobytes tells -0.0 from 0.0
        assert np.concatenate([I, E], axis=1).tobytes() == want.tobytes()

    @settings(max_examples=120, deadline=None)
    @given(panel_stacks())
    def test_equals_fsum_bit_for_bit(self, stack):
        self.check(*stack)

    def test_failed_certificate_takes_fsum(self, monkeypatch):
        # row 0 lands on the midpoint between 1 and its successor (fsum
        # rounds it to even, 1.0), row 1 cancels to 0.0; row 2 passes: its
        # 2^-80 lifts the sum off the midpoint, up to 1 + 2^-52
        val = np.array([[1.0, 2.0 ** -53, 0.0], [1.0, -1.0, 0.0],
                        [1.0, 2.0 ** -53, 2.0 ** -80]])
        err = np.full((3, 3), 0.25)
        fsum, seen = math.fsum, []
        monkeypatch.setattr(math, "fsum", lambda xs: seen.append(list(xs)) or fsum(xs))
        I, _ = quadrature._sum_panels(val, err, [3])
        # the estimates of rows 0 and 1
        assert seen == [[1.0, 2.0 ** -53, 0.0], [1.0, -1.0, 0.0]]
        monkeypatch.undo()
        assert I[0].tolist() == [1.0, 0.0, 1.0 + 2.0 ** -52]
        self.check(val, err, [3])

    @pytest.mark.parametrize("row,want", [
        # the low parts round onto the midpoint below d = 1, where the gap is
        # half the one above; the exact sum lies past it
        ([1.0, -2.0 ** -54, -2.0 ** -107], 1.0 - 2.0 ** -53),
        # the low parts' sum rounds up by 1.25 * 2^-106 and hides that the
        # exact sum is past the midpoint, |rho| alone is below half the gap
        ([-1.25, -2.0 ** -53, 2.0 ** -106, -2.0 ** -105, 1.5 * 2.0 ** -107],
         -1.25 - 2.0 ** -52),
    ])
    def test_near_midpoint_takes_fsum(self, row, want, monkeypatch):
        # sums that only the rounding bound of the low parts and the
        # narrower of d's two gaps keep from the certificate
        val = np.array([row, np.ones(len(row)), np.ones(len(row))])
        err = np.ones(val.shape)
        fsum, seen = math.fsum, []
        monkeypatch.setattr(math, "fsum", lambda xs: seen.append(list(xs)) or fsum(xs))
        I, _ = quadrature._sum_panels(val, err, [len(row)])
        assert row in seen
        monkeypatch.undo()
        assert I[0, 0] == want == math.fsum(row)
        self.check(val, err, [len(row)])

    @pytest.mark.parametrize("label,n", [("S2", 0), ("CP2", 8), ("OP2", 16)])
    def test_catalog_stack_needs_no_fallback(self, label, n, monkeypatch):
        val, err, counts = TestSumPanels().stack(quadrature._isotype(parse_space(label), n))
        # a call of the fallback would raise
        monkeypatch.setattr(math, "fsum", None)
        quadrature._sum_panels(val, err, counts)
        monkeypatch.undo()
        self.check(val, err, counts)


def scalar_window(tables, tau, T):
    """A cell's mass window [lo, hi]: 12 sigma beyond the peaks
    p_j = max(lam_j, 0) tau / 2 of the terms j of P whose log-heights
    log|c_j| + p_j^2 / tau lie within 72 of the highest,
    lam_j = kappa + nu + 2 j, clipped to [0, T]."""
    sig = math.sqrt(tau / 2.0)
    terms = []
    for j, logc in enumerate(tables.log_abs_coeffs.tolist()):
        p = max(tables.kappa + tables.nu + 2.0 * j, 0.0) * (tau / 2.0)
        terms.append((p, logc + p * p / tau))
    top = max(h for _, h in terms)
    peaks = [p for p, h in terms if h >= top - 72.0]
    return max(min(peaks) - 12.0 * sig, 0.0), min(max(peaks) + 12.0 * sig, T)


def scalar_breaks(tables, tau, T, window=None):
    """One cell's initial break points as a Python set of candidates, each
    moved into the cell's mass window, sorted and thinned against the last
    point kept: the reference for the row pass of ``_initial_breaks``.
    The window (0, T) gives the layout without one, where a candidate
    outside (0, T) lands on a copy of 0 or T."""
    sig = math.sqrt(tau / 2.0)
    tpk = tables.lam * tau / 2.0
    lo, hi = window or scalar_window(tables, tau, T)
    cand = {0.0, T}
    for k in range(1, 8):
        cand.add(min(max(T * k / 8.0, lo), hi))
    for jj in range(-12, 13):
        cand.add(min(max(tpk + jj * sig, lo), hi))
    for e in (0.25, 0.5, 1.0, 2.0, 4.0):
        cand.add(min(max(e * math.sqrt(tau), lo), hi))
    br = sorted(cand)
    out = [br[0]]
    for x in br[1:]:
        if x - out[-1] > 1e-10 * T:
            out.append(x)
    out[-1] = T
    return out


class TestRowBreaks:
    SPACES = DEFAULT_SCAN_SELECTORS + ("S16", "CP8", "HP4")

    def test_row_pass_equals_scalar_construction(self):
        # seeded log-uniform taus over the whole box plus its two ends, at
        # the first truncation point times a random 1.3^k, in rows of 42 cells
        rng = np.random.default_rng(10)
        lo, hi = math.log(quadrature.MIN_TAU), math.log(quadrature.MAX_TAU)
        cells = 0
        with np.errstate(all="raise"):
            for label in self.SPACES:
                sp = parse_space(label)
                for n in range(quadrature.MAX_DEGREE + 1):
                    tables = quadrature._isotype(sp, n)
                    for tol in (1e-13, 1e-10, 1e-4):
                        taus = np.exp(rng.uniform(lo, hi, 40)).tolist()
                        taus += [quadrature.MIN_TAU, quadrature.MAX_TAU]
                        Ts = [quadrature._first_truncation(tables, tau, tol) * 1.3 ** k
                              for tau, k in zip(taus, rng.integers(0, 5, len(taus)))]
                        breaks, counts = initial_breaks(
                            [tables] * len(taus), taus, Ts)
                        assert counts.sum() == len(breaks)
                        cell = np.split(breaks, np.cumsum(counts)[:-1])
                        for got, tau, T in zip(cell, taus, Ts):
                            assert got.tolist() == scalar_breaks(tables, tau, T), (
                                label, n, tau, T)
                        cells += len(taus)
        assert cells >= 20_000

    def test_last_break_moves_onto_T(self):
        # a candidate just below T is kept in T's place
        tables = quadrature._isotype(parse_space("HP2"), 3)
        taus = [1.0, 20.0]
        near = [tables.lam * tau / 2.0 + 12.0 * math.sqrt(tau / 2.0) for tau in taus]
        Ts = [x * (1.0 + 5e-11) for x in near]
        breaks, counts = initial_breaks([tables] * len(taus), taus, Ts)
        cell = np.split(breaks, np.cumsum(counts)[:-1])
        for got, tau, T, x in zip(cell, taus, Ts, near):
            assert got.tolist() == scalar_breaks(tables, tau, T)
            assert got[-1] == T and got[-2] < x


def unwindowed_breaks(tables, taus, Ts, logc=None):
    """``_initial_breaks`` without the mass window, which is all it reads
    logc for: every candidate inside (0, T) stays where it falls."""
    cells = [scalar_breaks(tb, tau, T, (0.0, T))
             for tb, tau, T in zip(tables, taus, Ts)]
    return np.concatenate(cells), np.array([len(c) for c in cells])


class TestFarField:
    """The mass window merges only panels that hold nothing: against the
    layout without it, kept here as the reference."""

    TAUS = (1e-3, 0.05, 1.0, 20.0, 100.0, 400.0)

    @staticmethod
    def derivs_bits(sp, taus, tol):
        quadrature.prefetch(sp, range(quadrature.MAX_DEGREE + 1), taus, tol)
        out = []
        for n in range(quadrature.MAX_DEGREE + 1):
            for tau in taus:
                res, d1, d2 = _quiet_derivs(sp, n, tau, tol)
                out.append((res.value.hex(), res.log_value.hex(), d1.hex(),
                            d2.hex()))
        return out

    @pytest.mark.parametrize("label", CENSUS_SPACES)
    def test_census_far_panels_hold_nothing(self, label, monkeypatch):
        # every panel of the reference layout outside a cell's window holds
        # below 1e-25 of the cell's integral in each moment row, and merging
        # them moves no bit of value, log value, (log q)' or (log q)''
        tol = 1e-10
        sp = parse_space(label)
        tables = [quadrature._isotype(sp, n)
                  for n in range(quadrature.MAX_DEGREE + 1) for _ in self.TAUS]
        taus = list(self.TAUS) * (quadrature.MAX_DEGREE + 1)
        Ts = [quadrature._first_truncation(tb, tau, tol)
              for tb, tau in zip(tables, taus)]
        breaks, counts = unwindowed_breaks(tables, taus, Ts)
        inner = np.ones(len(breaks) - 1, dtype=bool)
        inner[counts[:-1].cumsum() - 1] = False
        a, b = breaks[:-1][inner], breaks[1:][inner]
        panels = counts - 1
        val, _, _ = quadrature._eval_panels(tables, taus, a, b, panels, 3)
        starts = panels.cumsum() - panels
        far = 0
        for k, (tb, tau, T) in enumerate(zip(tables, taus, Ts)):
            lo, hi = scalar_window(tb, tau, T)
            cell = slice(starts[k], starts[k] + panels[k])
            out = (b[cell] <= lo) | (a[cell] >= hi)
            I = np.abs(val[:, cell].sum(axis=1))
            assert np.all(np.abs(val[:, cell][:, out]) < 1e-25 * I[:, None]), (
                label, k, tau)
            far += out.sum()
        assert far > 0
        windowed = self.derivs_bits(sp, self.TAUS, tol)
        monkeypatch.setattr(quadrature, "_initial_breaks", unwindowed_breaks)
        assert self.derivs_bits(sp, self.TAUS, tol) == windowed


class TestWindowGuards:
    """q_p weights whose mass sits off the top term's peak, or at t = 0,
    against 40-digit mpmath: the window keeps the terms that carry it."""

    CASES = [
        ([1.0, -1e-300], (0.0, 0.0, 0.0, 400.0)),
        ([1.0, -1.0] * 8 + [1e-250], (0.0, 0.0, 0.0, 20.0)),
        ([1.0, -1.0] * 8 + [1e-300], (0.0, 8.0, 8.0, 60.0)),
        # the mass sits on the lower terms, far below the top term's peak;
        # it keeps the id it had as the sixth of a longer list
        pytest.param([1.0, -3.0, 1.0, -1e-200], (1.0, 0.0, 2.0, 50.0),
                     id="coeffs5-weight5"),
    ]

    @pytest.mark.parametrize("coeffs, weight", CASES)
    def test_q_p_matches_mpmath(self, coeffs, weight, monkeypatch):
        import mpmath as mp

        tol = 1e-10
        params = QPParams(*weight)
        res = q_p(coeffs, params, tol)
        mu, kappa, nu, tau = weight
        T = res.truncation_t
        lo, hi = scalar_window(quadrature._make_tables(coeffs, mu, kappa, nu),
                               tau, T)
        with mp.workdps(40):
            # scaled by the result, so the integral is near 1 and mpmath's
            # absolute error estimate a relative one
            def f(t):
                sh = mp.sinh(t)
                p = mp.polyval([mp.mpf(c) for c in coeffs[::-1]], -sh * sh)
                return (p * t ** mu * sh ** kappa * mp.cosh(t) ** nu
                        * mp.exp(-t * t / tau - res.log_value))

            pts = sorted({0.0, T, *np.linspace(lo, hi, 9).tolist()})
            ratio, err = mp.quad(f, pts + [mp.inf], error=True)
            assert err < 1e-20
            assert abs(mp.log(ratio)) <= tol
        # the layout without the window gets the same bits in as many
        # nodes or more
        monkeypatch.setattr(quadrature, "_initial_breaks", unwindowed_breaks)
        wide = q_p(coeffs, params, tol)
        assert wide.log_value == res.log_value and wide.nodes >= res.nodes


@functools.lru_cache(maxsize=None)
def _mp_node_terms(t):
    # (sinh^2 t, log t, log sinh t, log cosh t) at 60 digits
    import mpmath as mp

    with mp.workdps(60):
        t = mp.mpf(t)
        return mp.sinh(t) ** 2, mp.log(t), mp.log(mp.sinh(t)), mp.log(mp.cosh(t))


class TestNodeAccuracy:
    # log integrand at the nodes against 60-digit mpmath, from the smallest
    # node to the largest T of the box; the error is counted in units of
    # eps (1 + |g| + t^2/tau), the rounding of the terms of g.  Every term
    # of P(-s) is non-negative, so Horner loses no digits
    T = np.geomspace(1e-15, 17200.0, 161)
    TAUS = (quadrature.MIN_TAU, 1e-3, 1.0, 400.0)
    CATALOG = [(lbl, n) for lbl in ("S2", "S3", "S16", "CP2", "CP8", "HP2",
                                    "HP4", "OP2")
               for n in (0, 1, 8, 16)]
    # zero coefficients, as q_p accepts them
    POLYS = [[1.0, 0.0, 2.0, 0.0, 3.0], [0.0, -1.0, 0.5, 0.0, 0.0, -7.0],
             [1.0, -1.0] * 8 + [2.0], [(-1.0) ** k for k in range(17)]]

    def check(self, tables):
        """Each node's g within 32 units of the reference, whose P(-s) is
        positive."""
        mp = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        cs = tables.coeffs.tolist()
        with mp.workdps(60):
            ref = []
            for t in self.T.tolist():
                s, log_t, log_sh, log_ch = _mp_node_terms(t)
                P = mp.fsum(c * (-s) ** j for j, c in enumerate(cs))
                assert P > 0, t
                rest = tables.mu * log_t + tables.kappa * log_sh + tables.nu * log_ch
                ref.append(mp.log(P) + rest)
            for tau in self.TAUS:
                with np.errstate(over="raise", invalid="raise"):
                    g = quadrature._log_mag([tables], tau, self.T[None, :], [1])
                for t, gi, base in zip(self.T.tolist(), g[0].tolist(), ref):
                    err = abs(mp.mpf(gi) - (base - mp.mpf(t) ** 2 / tau))
                    units = float(err) / (eps * (1.0 + abs(gi) + t * t / tau))
                    assert units <= 32.0, (tau, t, gi, units)

    @pytest.mark.parametrize("label,n", CATALOG)
    def test_catalog_within_bound(self, label, n):
        self.check(quadrature._isotype(parse_space(label), n))

    @pytest.mark.parametrize("coeffs", POLYS)
    def test_zeros_and_mixed_signs_within_bound(self, coeffs):
        # coefficients of both signs, and zeros among them
        self.check(quadrature._make_tables(quadrature._as_float_coeffs(coeffs),
                                           0.5, 1.5, 2.0))


class TestPrefetch:
    def test_error_cell_raises_the_same_error(self):
        sp = parse_space("S3")
        with pytest.raises(ConvergenceError) as alone:
            q_chi(sp, 5, 400.0, 1e-13)
        quadrature.prefetch(sp, [5], [1.0, 400.0], 1e-13, derivs=False)
        with pytest.raises(ConvergenceError) as fetched:
            q_chi(sp, 5, 400.0, 1e-13)
        assert str(fetched.value) == str(alone.value)
        assert fetched.value.best.nodes == alone.value.best.nodes == 399975
        assert fetched.value.best == alone.value.best

    def test_out_of_box_value_refuses_the_grid(self):
        # the grid is refused whole, with the message of the lone-cell call,
        # and the memo it replaces stays empty
        sp, s20 = parse_space("S3"), parse_space("S20")
        quadrature.prefetch(sp, [0], [1.0])
        assert len(quadrature._ROW) == 1
        for grid, cell in (((sp, [0], [1.0, 500.0]), (sp, 0, 500.0)),
                           ((sp, [0], [1.0, 1e-31]), (sp, 0, 1e-31)),
                           ((sp, [0], [1.0, math.nan]), (sp, 0, math.nan)),
                           ((sp, [17], [1.0]), (sp, 17, 1.0)),
                           ((s20, [0], [1.0]), (s20, 0, 1.0)),
                           ((sp, [0], [1.0], 1e-14), (sp, 0, 1.0, 1e-14))):
            with pytest.raises(ParameterRangeError) as alone:
                q_chi(*cell)
            with pytest.raises(ParameterRangeError) as fetched:
                quadrature.prefetch(*grid)
            assert str(fetched.value) == str(alone.value), grid
            assert not quadrature._ROW

    def test_scale_is_keyed_at_one(self):
        quadrature.prefetch(parse_space("S4", B=2.0), [2], [1.5], derivs=False)
        assert list(quadrature._ROW) == [(parse_space("S4"), 2, 1.5, quadrature.DEFAULT_TOL, 1)]
        got = q_chi(parse_space("S4"), 2, 1.5)
        assert not quadrature._ROW
        assert _bits(got) == _bits(q_chi(parse_space("S4", B=2.0), 2, 1.5))

    def test_one_row_at_a_time(self):
        sp = parse_space("CP2")
        quadrature.prefetch(sp, [1], [0.5, 1.0, 2.0], derivs=False)
        assert {k[1:3] for k in quadrature._ROW} == {(1, 0.5), (1, 1.0), (1, 2.0)}
        quadrature.prefetch(sp, [2], [0.5, 4.0], derivs=False)
        assert {k[1:3] for k in quadrature._ROW} == {(2, 0.5), (2, 4.0)}
        q_chi(sp, 1, 0.5)  # not in the row: computed alone, memo untouched
        assert len(quadrature._ROW) == 2
        q_chi(sp, 2, 0.5, 1e-8)  # another tol is another cell
        assert len(quadrature._ROW) == 2
        q_chi(sp, 2, 0.5)
        assert {k[1:3] for k in quadrature._ROW} == {(2, 4.0)}
        q_chi(sp, 2, 4.0)
        assert not quadrature._ROW

    @pytest.mark.parametrize("derivs", (False, True))
    def test_a_grid_serves_its_own_kind_only(self, derivs):
        # the value row of this cell settles in fewer nodes than all three
        # rows do, so each kind has bits of its own
        sp, n, tau, tol = parse_space("OP2"), 3, 0.05, 1e-13
        value = _public_outcome(sp, n, tau, tol, 1)
        deriv = _public_outcome(sp, n, tau, tol)
        assert (value[4], deriv[4]) == (420, 570)
        quadrature.prefetch(sp, [n], [tau], tol, derivs=derivs)
        ((key, out),) = quadrature._ROW.items()
        assert key == (sp, n, tau, tol, 3 if derivs else 1)
        # the other kind computes its cell alone and leaves the entry
        if derivs:
            assert _public_outcome(sp, n, tau, tol, 1) == value
        else:
            assert _public_outcome(sp, n, tau, tol) == deriv
        assert list(quadrature._ROW) == [key] and quadrature._ROW[key] is out
        # its own kind takes it
        if derivs:
            assert _public_outcome(sp, n, tau, tol) == deriv
        else:
            assert _public_outcome(sp, n, tau, tol, 1) == value
        assert not quadrature._ROW


class TestGridPrefetch:
    """A grid of isotypes and taus of one space, prefetched together."""

    def test_invalid_cells_refuse_the_grid(self):
        # a valid cell beside an invalid one is not computed either: the
        # grid raises what its invalid cell raises alone, n before tau
        sp = parse_space("S3")
        bad = [(0, 500.0), (0, 1e-31), (0, math.nan), (17, 1.0), (17, 500.0)]
        for n, tau in bad:
            with pytest.raises(ParameterRangeError) as alone:
                q_chi(sp, n, tau)
            with pytest.raises(ParameterRangeError) as fetched:
                quadrature.prefetch(sp, sorted({0, n}), [1.0, tau], derivs=False)
            assert str(fetched.value) == str(alone.value), (n, tau)
            assert not quadrature._ROW
        with pytest.raises(ParameterRangeError, match="n must be at most 16, got 17"):
            quadrature.prefetch(sp, [0, 17], [1.0, 500.0, 1e-31, math.nan])
        assert not quadrature._ROW

    def test_oracles_grid_never_refines(self, monkeypatch):
        # every first level of the verify-asymptotics grids meets its targets
        # at the default tol, so each cell is finished from its stack's sums
        # and none enters _finish_cell, which a refining cell still does
        calls = []
        finish_cell = quadrature._finish_cell
        monkeypatch.setattr(quadrature, "_finish_cell",
                            lambda *a: calls.append(a) or finish_cell(*a))
        ns, taus = range(quadrature.MAX_DEGREE + 1), (1e-3, 1e-2, 100.0, 400.0)
        for label in DEFAULT_SCAN_SELECTORS:
            quadrature.prefetch(parse_space(label), ns, taus, derivs=False)
            assert len(quadrature._ROW) == len(ns) * len(taus)
        assert not calls
        _quiet_derivs(parse_space("CP2"), 0, quadrature.MIN_TAU, quadrature.TOL_MIN)
        assert len(calls) == 1


class TestOneRoute:
    """Every cell goes through one ``_q_engine`` call, which alone computes
    first truncation points: ``q_p`` and a lone catalog cell as a grid of
    one."""

    @pytest.fixture
    def engine_calls(self, monkeypatch):
        calls, inside = [], []
        q_engine = quadrature._q_engine
        first_truncation = quadrature._first_truncation

        def engine(tables, taus, tol, nrows):
            calls.append(("engine", len(tables), nrows))
            inside.append(True)
            try:
                return q_engine(tables, taus, tol, nrows)
            finally:
                inside.pop()

        def truncation(*args):
            calls.append(("truncation", bool(inside)))
            return first_truncation(*args)

        monkeypatch.setattr(quadrature, "_q_engine", engine)
        monkeypatch.setattr(quadrature, "_first_truncation", truncation)
        return calls

    @pytest.mark.parametrize("call, nrows", [
        (lambda: q_p([1.0, -3.0], QPParams(0.5, 1.5, 2.0, 1.0)), 1),
        (lambda: q_chi(parse_space("CP2"), 3, 0.5), 1),
        (lambda: p_chi(parse_space("S4"), 2, 0.5 + 1.5j), 1),
        (lambda: q_chi_derivs(parse_space("HP2"), 1, 2.0), 3),
    ], ids=["q_p", "q_chi", "p_chi", "q_chi_derivs"])
    def test_lone_cell_is_a_grid_of_one(self, call, nrows, engine_calls):
        # the entry point sets the moment rows: the value alone, or all three
        call()
        assert engine_calls == [("engine", 1, nrows), ("truncation", True)]

    def test_first_levels_once_at_the_first_t(self):
        # OP2 at n = 0 and MIN_TAU settles at its first truncation point
        sp, tau, tol = parse_space("OP2"), quadrature.MIN_TAU, quadrature.DEFAULT_TOL
        res = q_chi(sp, 0, tau, tol)
        T0 = quadrature._first_truncation(
            quadrature._isotype(sp, 0), tau, tol)
        assert res.truncation_t == T0


class TestS3ClosedFormSweep:
    # q_n of S3 is (sqrt(pi)/4) tau^(3/2) e^((n+1)^2 tau) at every n, so its
    # log pins the relative error of q across the box in n and tau
    @pytest.mark.parametrize("tol", [1e-10, 1e-4])
    def test_log_value_within_tol(self, tol):
        sp = parse_space("S3")
        for n in range(17):
            for tau in (0.05, 0.25, 1.0, 4.0, 20.0, 100.0, 400.0):
                got = q_chi(sp, n, tau, tol).log_value
                assert abs(got - s3_log_q_closed(n, tau)) <= tol, (n, tau)


class TestTauFloor:
    def test_tiny_tau_rejected(self):
        sp = parse_space("S3")
        for tau in (1e-100, 1e-200, 0.5 * quadrature.MIN_TAU, 0.0, -1.0, math.nan):
            with pytest.raises(ParameterRangeError):
                q_chi_derivs(sp, 0, tau)
        with pytest.raises(ParameterRangeError):
            q_p(1, QPParams(0, 0, 0, 1e-31))

    @pytest.mark.parametrize("tol", [quadrature.TOL_MIN, 1e-10, quadrature.TOL_MAX])
    def test_floor_is_inside_the_working_range(self, tol):
        # at the floor every default space succeeds up to n = 16, with a
        # normal double value and the small-tau law (log q)'' -> -(m/2)/tau^2
        tau = quadrature.MIN_TAU
        for sp in default_scan_spaces():
            for n in (0, 16):
                res, _, d2 = q_chi_derivs(sp, n, tau, tol)
                assert res.value > 2.3e-308
                assert d2 == pytest.approx(-0.5 * sp.m / tau**2, rel=1e-9)
        P = [(-1.0) ** k for k in range(17)]
        res = q_p(P, QPParams(8.0, 8.0, 8.0, tau), tol)
        assert res.value > 2.3e-308


class TestValueRows:
    """``q_chi``, ``q_p`` and ``p_chi`` form the value row alone,
    ``q_chi_derivs`` all three moment rows (``TestOneRoute`` checks which
    rows each entry point asks for); the two routes' values agree."""

    SWEEP_NS = (0, 3, 8, 16)
    SWEEP_TAUS = (1e-3, 0.05, 1.0, 20.0, 400.0)

    @pytest.mark.parametrize("tol", (1e-13, 1e-10, 1e-4))
    def test_value_agrees_with_the_derivative_route(self, tol):
        # where all three rows settle on the first level the value row does
        # too, with the same bits; at tol 1e-13 cells that the three rows
        # refine get other nodes, and agree within their error bounds
        differ = 0
        for label in DEFAULT_SCAN_SELECTORS:
            sp = parse_space(label)
            for n in self.SWEEP_NS:
                for tau in self.SWEEP_TAUS:
                    try:
                        deriv = _quiet_derivs(sp, n, tau, tol)[0]
                    except ConvergenceError:
                        continue
                    value = q_chi(sp, n, tau, tol)
                    if _hexbits(value) == _hexbits(deriv):
                        continue
                    differ += 1
                    assert kind(quadrature._isotype(sp, n), tau, tol,
                                (None, _hexbits(deriv))) != "settled", (label, n, tau)
                    if math.isinf(value.value):
                        # abs_error overflows with the value; the logs agree
                        # within the relative errors
                        gap = abs(value.log_value - deriv.log_value)
                        bound = value.rel_error + deriv.rel_error
                    else:
                        gap = abs(value.value - deriv.value)
                        bound = value.abs_error + deriv.abs_error
                    assert gap <= bound, (label, n, tau)
        assert (differ > 0) == (tol == 1e-13)
