import functools
import io
import math
import re
import sys
import warnings
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflat import quadrature
from qflat.cli import main
from qflat.quadrature import (
    CancellationWarning,
    ConvergenceError,
    ParameterRangeError,
    QPParams,
    dlogq,
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


def panel_one_at_a_time(tables, tau, scale, a, b, nrows):
    # the per-panel form of quadrature._eval_panels: K15 on [a, b] against
    # G7 on its nodes of odd index
    half = 0.5 * (b - a)
    xs = 0.5 * (a + b) + half * quadrature._K15_X
    g, sign = quadrature._log_mag_sign([tables], tau, xs[None, :], [1])
    rows = quadrature._moment_rows(xs, g[0], sign[0], scale, nrows)
    k15 = quadrature._gl_rule(rows, quadrature._K15_W) * half
    g7 = quadrature._gl_rule(rows[:, 1::2], quadrature._G7_W) * half
    return k15, np.abs(k15 - g7)


def cancelling_coeff(delta):
    # c such that 1 + c x integrates to delta times the integral of 1 under
    # QPParams(1, 1, 1, 1.0): its two terms cancel to a fraction delta
    params = QPParams(1, 1, 1, 1.0)
    a0 = q_p([1.0], params, 1e-13).value
    a1 = q_p([0.0, 1.0], params, 1e-13).value
    return -(1.0 - delta) * a0 / a1


def engine_cell(coeffs, params, tol):
    # one cell of q_p's route past its parameter box: the grid engine alone,
    # on the value row
    tables = quadrature._make_tables(coeffs, params.mu, params.kappa, params.nu)
    (out,) = quadrature._q_engine([tables], [params.tau], tol, 1)
    return quadrature._unwrap(out)[1]


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
        # (-sinh^2 t)^k folds into the weight: integrating x^k against
        # (mu, kappa, nu) equals (-1)^k times P = 1 against kappa + 2k.
        # This pits the polynomial evaluation path against the plain
        # weight path end to end.
        for k, tau in ((1, 0.5), (2, 1.0), (3, 2.0)):
            mono = [0.0] * k + [1.0]
            a = q_p(mono, QPParams(1.0, 1.0, 1.5, tau), 1e-11)
            b = q_p(1, QPParams(1.0, 1.0 + 2 * k, 1.5, tau), 1e-11)
            sign = -1.0 if k % 2 else 1.0
            assert a.value == pytest.approx(sign * b.value, rel=1e-10)

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
        with pytest.raises(ParameterRangeError):
            q_p([1.0] * 18, QPParams(0, 0, 0, 1.0))
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
        # t^(mu + kappa) at the origin outruns refinement below -0.1: these
        # weights once spent up to 400,000 nodes before failing; now no cell
        # is computed.  At -0.1 the cell still converges.
        engine = quadrature._q_engine
        calls = []
        monkeypatch.setattr(quadrature, "_q_engine",
                            lambda *a: calls.append(a) or engine(*a))
        for s in (-0.9, -0.45):
            with pytest.raises(ParameterRangeError, match="mu \\+ kappa"):
                q_p([1.0], QPParams(s, 0, 0, 1.0), 1e-10)
        assert not calls
        res = q_p([1.0], QPParams(-0.1, 0, 0, 1.0), 1e-10)
        assert len(calls) == 1 and res.rel_error <= 1e-10

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

    @pytest.mark.parametrize("ulps", [-20000, -1, 0, 1, 20000])
    def test_cancellation_floor_error(self, ulps):
        # 1 + c x integrates to a millionth of either term's integral: the
        # panels stop at the rounding floor, 32 eps times the integral of
        # |integrand|, which is far above tol times the small integral, so
        # the reported error, floored there too, is ~7e-9
        params = QPParams(1, 1, 1, 1.0)
        a0 = q_p([1.0], params, 1e-13).value
        a1 = q_p([0.0, 1.0], params, 1e-13).value
        c = cancelling_coeff(1e-6)
        c += ulps * math.ulp(c)
        with pytest.raises(ConvergenceError) as err:
            q_p([1.0, c], params, 1e-13)
        best = err.value.best
        assert str(err.value) == (
            f"cancellation limits the relative error to "
            f"{best.rel_error:.3g}, above tol=1e-13")
        assert 5e-9 < best.rel_error < 1e-8
        # a0 + c a1 is a millionth of its terms, whose 1e-13 errors make
        # up about 1e-7 of it
        assert best.value == pytest.approx(a0 + c * a1, rel=1e-6)


class TestErrorRule:
    """A cell's error is formed once, in ``_build_result``: refinement stops
    at its rounding floor, and a cell succeeds exactly when that reported
    error meets tol."""

    def test_cancelling_cells_meet_tol_or_fail_at_once(self):
        params = QPParams(1, 1, 1, 1.0)
        for k in range(1, 9):
            c = cancelling_coeff(10.0 ** -k)
            for j in range(-13, -3):
                tol = 10.0 ** j
                try:
                    res = q_p([1.0, c], params, tol)
                except ConvergenceError as exc:
                    assert str(exc).startswith(
                        "cancellation limits the relative error to ")
                    assert exc.best.nodes < 1000
                else:
                    assert res.rel_error <= tol

    def test_catalog_rows_never_cancel(self, empty_row, monkeypatch):
        # every catalog moment row is positive, so Iabs is I, and the
        # rounding floor stays below the panel target tol/2 at every tol
        assert quadrature._ROUND_C * quadrature._EPS < quadrature.TOL_MIN / 2
        sums = quadrature._sum_panels
        got = []
        monkeypatch.setattr(quadrature, "_sum_panels",
                            lambda *a: got.append(sums(*a)) or got[-1])
        ns, taus = range(17), [1e-30, 1e-3, 1.0, 20.0, 400.0]
        for sp in default_scan_spaces():
            quadrature.prefetch(sp, ns, taus)
            for n in ns:
                for tau in taus:
                    _quiet_derivs(sp, n, tau)
        assert got and all(Iabs is I for I, Iabs, _ in got)

    def test_tail_failure_carries_its_attempt(self, monkeypatch):
        params = QPParams(1, 1, 1, 1.0)
        value = q_p([1.0], params, 1e-10).value
        tables = quadrature._make_tables([1.0], 1, 1, 1)
        T0 = quadrature._first_truncation(tables, 1.0, 1e-10)
        monkeypatch.setattr(quadrature, "_log_tail_bound",
                            lambda *a: math.inf)
        with pytest.raises(ConvergenceError) as err:
            q_p([1.0], params, 1e-10)
        best = err.value.best
        assert str(err.value) == (
            "truncation tail bound failed to settle below tol/2")
        assert best.truncation_t == T0 * 1.3 ** 4
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

    @pytest.mark.parametrize("params, tol, nodes", [
        # q_p refines on its value row alone: 2160 and 1215 nodes with all
        # three moment rows
        (QPParams(0.5, 0.0, 0.5, 1.0), 1e-13, 2100),
        (QPParams(0.25, 1.0, 0.0, 0.3), 1e-13, 1155),
        (QPParams(0.25, 1.0, 0.0, 0.3), 1e-11, 945),
    ])
    def test_refining_cell_nodes(self, params, tol, nodes):
        res = q_p(1, params, tol)
        assert res.nodes == nodes
        assert res.rel_error <= tol

    def test_refined_value(self):
        # reference from 30-digit tanh-sinh quadrature
        res = q_p(1, QPParams(0.5, 0.0, 0.5, 1.0), 1e-13)
        assert res.value == pytest.approx(0.723214354285265, rel=1e-13)

    @pytest.mark.parametrize("label, n, tau, nodes, log_value, rel_error", [
        # converges at the node budget, so the cut of the leftmost failing
        # panels of a generation shows in its bits
        ("S4", 8, 20.0, 399990, "0x1.c490a86c90c8dp+10", "0x1.3e5ce255aa544p-45"),
        ("HP2", 8, 1e-3, 465, "-0x1.a6c4ea1931346p+4", "0x1.000000095f24ap-47"),
        ("OP2", 0, 0.05, 480, "-0x1.dcfaab3dc3256p+3", "0x1.0000000004e9dp-47"),
    ])
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
            engine_cell([1.0], QPParams(-0.45, 0.0, 0.0, 1e-3), 1e-10)
        assert str(err.value) == (
            "panel refinement did not reach tol=1e-10: after 34035 nodes the "
            "worst moment's relative error 3.362e-10 exceeds the panel target "
            "5e-11")
        assert err.value.best.nodes == 34035
        assert len(sums) == 2

    def test_budget_exhausted_cell(self):
        with pytest.raises(ConvergenceError) as err:
            q_chi(parse_space("S3"), 5, 400.0, 1e-13)
        best = err.value.best
        assert best.nodes <= quadrature._NODE_BUDGET
        assert best.nodes == 399990

    @pytest.mark.parametrize("call", [
        # their value rows converge; the derivative rows miss the target
        lambda: q_chi_derivs(parse_space("S7"), 8, 20.0, 1e-13),
        lambda: q_chi_derivs(parse_space("HP2"), 8, 20.0, 1e-13),
        # stops at the maximum depth, far inside the node budget; q_p
        # refuses this weight (mu + kappa < -0.1), the engine still runs it
        lambda: engine_cell([1.0], QPParams(-0.45, 0.0, 0.0, 1e-3), 1e-10),
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

    def test_stacked_panels_match_one_at_a_time(self):
        # the stacked layout gives each panel exactly the bits it gets alone,
        # of the value row alone and of all three moment rows
        tau = 1.0
        tables = quadrature._checked_isotype(parse_space("CP2"), 2, tau, 1e-10)
        T = 15.0
        breaks, _ = quadrature._initial_breaks([tables], [tau], [T])
        a, b = breaks[:-1], breaks[1:]
        g, _ = quadrature._log_mag_sign(
            [tables], tau, quadrature._panel_nodes(a, b)[0], [len(a)])
        scale = float(np.max(g))
        for nrows in (1, 3):
            val, err = quadrature._eval_panels(tables, tau, scale, a, b, nrows)
            assert val.shape == err.shape == (nrows, len(a))
            for i in range(len(a)):
                v, e = panel_one_at_a_time(tables, tau, scale, float(a[i]),
                                           float(b[i]), nrows)
                assert np.array_equal(val[:, i], v)
                assert np.array_equal(err[:, i], e)


class TestTruncationSoundness:
    CASES = [("S3", 0, 1.0), ("S2", 1, 0.01), ("OP2", 3, 4.0), ("CP3", 2, 100.0)]

    @pytest.mark.parametrize("label,n,tau", CASES)
    def test_internal_majorant(self, label, n, tau):
        # the analytic tail bound at the returned truncation point must sit
        # below tol/2 relative to the value
        from qflat.quadrature import _as_float_coeffs, _log_tail_bound, _make_tables

        tol = 1e-10
        sp = parse_space(label)
        res = q_chi(sp, n, tau, tol)
        ch = chi_params(sp, n)
        coeffs = _as_float_coeffs(hypergeom_poly(ch.A, n, ch.c))
        tables = _make_tables(coeffs, ch.mu, ch.kappa, ch.nu)
        assert (_log_tail_bound(tables, tau, res.truncation_t)
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


class TestDlogQ:
    def test_s3_order2_closed(self):
        assert dlogq(parse_space("S3"), 0, 1.0, 2, 1e-11) == pytest.approx(
            -1.5, abs=1e-9
        )

    def test_s3_order1_closed(self):
        # log q0 = const + (3/2) log tau + tau
        assert dlogq(parse_space("S3"), 0, 2.0, 1, 1e-11) == pytest.approx(
            1.75, abs=1e-9
        )

    def test_s3_n1_order2_unchanged(self):
        assert dlogq(parse_space("S3"), 1, 1.0, 2, 1e-11) == pytest.approx(
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
        got = dlogq(parse_space(label), n, tau, order, 1e-11)
        assert got == pytest.approx(ref, abs=1e-8)

    def test_order_validation(self):
        with pytest.raises(ParameterRangeError):
            dlogq(parse_space("S3"), 0, 1.0, 3)

    def test_finite_difference_coherence(self):
        # fourth-order central stencil at step h = 1e-3 tau; a three-point
        # stencil cannot reach 1e-6 at small tau since (log q)'''' ~ tau^-4
        for label, n in (("S2", 1), ("OP2", 3), ("S3", 2)):
            sp = parse_space(label)
            for tau in (0.25, 1.0, 4.0):
                h = 1e-3 * tau
                f = lambda x: dlogq(sp, n, x, 1, 1e-11)
                fd = (-f(tau + 2 * h) + 8 * f(tau + h)
                      - 8 * f(tau - h) + f(tau - 2 * h)) / (12 * h)
                d2 = dlogq(sp, n, tau, 2, 1e-11)
                assert d2 == pytest.approx(fd, abs=1e-6)

    def test_cancellation_warning_at_large_tau(self):
        # (log q)'' ~ -(mu+1/2)/tau^2 while the assembled terms are ~(d1)^2
        with pytest.warns(CancellationWarning):
            dlogq(parse_space("OP2"), 3, 400.0, 2, 1e-9)

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
        assert d1 == pytest.approx(dlogq(sp, 1, 0.5, 1, 1e-10), rel=1e-12)
        assert d2 == pytest.approx(dlogq(sp, 1, 0.5, 2, 1e-10), rel=1e-12)


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
        sp = parse_space(label)
        cache = quadrature._isotype
        cache.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CancellationWarning)
            cold = _bits(*q_chi_derivs(sp, n, tau))
            assert cache.cache_info().misses == 1
            warm = _bits(*q_chi_derivs(sp, n, tau))
        assert cache.cache_info().hits == 1
        assert cache.cache_info().currsize == 1
        assert cold == warm

    def test_record_is_read_only(self):
        tables = quadrature._isotype(parse_space("CP2"), 3)
        with pytest.raises(ValueError):
            tables.coeffs[0] = 1.0
        coeffs = quadrature._checked_isotype(parse_space("CP2"), 3, 1.0, 1e-10).coeffs
        with pytest.raises(ValueError):
            coeffs[0] = 1.0

    def test_scale_does_not_enter_the_key(self):
        cache = quadrature._isotype
        cache.cache_clear()
        a = q_chi(parse_space("S4"), 2, 1.5)
        b = q_chi(parse_space("S4", B=2.0), 2, 1.5)
        assert cache.cache_info().currsize == 1
        assert cache.cache_info().hits == 1
        assert _bits(a) == _bits(b)
        ta = quadrature._checked_isotype(parse_space("S4"), 2, 1.5, 1e-10)
        tb = quadrature._checked_isotype(parse_space("S4", B=2.0), 2, 1.5, 1e-10)
        assert ta is tb

    def test_arbitrary_polynomials_stay_out(self):
        quadrature._isotype(parse_space("S3"), 1)
        before = quadrature._isotype.cache_info()
        for P in (1, [1.0, -2.0], [0.5, 0.0, 3.0, -1.0], [1.0] * 17):
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
        tables = quadrature._checked_isotype(parse_space(label), n, tau, tol)
        T = q_chi(parse_space(label), n, tau, tol).truncation_t
        breaks, _ = quadrature._initial_breaks([tables], [tau], [T])
        xs, _ = quadrature._panel_nodes(breaks[:-1], breaks[1:])
        g, _ = quadrature._log_mag_sign([tables], tau, xs, [len(xs)])
        for nrows in (1, 3):
            (first,) = quadrature._first_levels([tables], [tau], [T], 0.5 * tol,
                                                nrows)
            I, Iabs, E, scale, nodes, conv = quadrature._integrate_moments(
                tables, tau, T, 0.5 * tol, first, nrows)
            assert scale == float(np.max(g))
            val, err = quadrature._eval_panels(tables, tau, scale, breaks[:-1],
                                               breaks[1:], nrows)
            assert conv
            sums = quadrature._sum_panels(val, err, [val.shape[1]])
            assert len(sums) == 3
            for got, want in zip((I, Iabs, E), sums):
                assert want.shape == (1, nrows)
                assert np.array_equal(got, want[0])

    @pytest.mark.parametrize("label,n,tau,tol", CASES)
    def test_nodes_are_fifteen_per_panel(self, label, n, tau, tol):
        # these cells converge on their first level, which costs 15 nodes a
        # panel and nothing besides
        res = q_chi(parse_space(label), n, tau, tol)
        tables = quadrature._checked_isotype(parse_space(label), n, tau, tol)
        panels = len(quadrature._initial_breaks([tables], [tau], [res.truncation_t])[0]) - 1
        assert res.nodes == 15 * panels


ROW_TAUS = (quadrature.MIN_TAU, 1e-3, 0.05, 1.0, 20.0, 400.0)


@pytest.fixture
def empty_row():
    # a test that prefetches leaves no cell behind for the next one
    quadrature._ROW.clear()
    yield quadrature._ROW
    quadrature._ROW.clear()


def _quiet_derivs(*args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CancellationWarning)
        return q_chi_derivs(*args)


class TestStackedRow:
    CELLS = [(lbl, n) for lbl in ("S2", "CP2", "HP2", "OP2") for n in (0, 8, 16)]

    @pytest.mark.parametrize("label,n", CELLS)
    def test_row_slices_equal_rows_of_one(self, label, n):
        tol = 1e-10
        tables = quadrature._checked_isotype(parse_space(label), n, 1.0, tol)
        Ts = [quadrature._first_truncation(tables, tau, tol) for tau in ROW_TAUS]
        recs = [tables] * len(ROW_TAUS)
        row = list(quadrature._first_levels(recs, ROW_TAUS, Ts, 0.5 * tol, 3))
        assert len(row) == len(ROW_TAUS)
        for tau, T, cell in zip(ROW_TAUS, Ts, row):
            (alone,) = quadrature._first_levels([tables], [tau], [T], 0.5 * tol, 3)
            assert len(cell) == len(alone) == 8
            for got, want in zip(cell, alone):
                assert np.array_equal(got, want), (tau, T)

    @pytest.mark.parametrize("label,n", CELLS)
    def test_prefetched_cells_equal_cells_alone(self, label, n, empty_row):
        sp = parse_space(label)
        alone = [_quiet_derivs(sp, n, tau) for tau in ROW_TAUS]
        quadrature.prefetch(sp, [n], ROW_TAUS)
        assert len(empty_row) == len(ROW_TAUS)
        for tau, (res, d1, d2) in zip(ROW_TAUS, alone):
            got, g1, g2 = _quiet_derivs(sp, n, tau)
            assert got == res
            assert _bits(got, g1, g2) == _bits(res, d1, d2)
        assert not empty_row

    def test_stacks_are_capped(self, monkeypatch):
        # a cap below one cell's nodes gives stacks of one, with the same bits
        tol = 1e-10
        tables = quadrature._checked_isotype(parse_space("CP2"), 4, 1.0, tol)
        Ts = [quadrature._first_truncation(tables, tau, tol) for tau in ROW_TAUS]
        recs = [tables] * len(ROW_TAUS)
        whole = list(quadrature._first_levels(recs, ROW_TAUS, Ts, 0.5 * tol, 3))
        monkeypatch.setattr(quadrature, "_STACK_NODES", 1)
        calls = []
        log_mag_sign = quadrature._log_mag_sign
        monkeypatch.setattr(quadrature, "_log_mag_sign",
                            lambda *a: calls.append(a[2].shape) or log_mag_sign(*a))
        capped = list(quadrature._first_levels(recs, ROW_TAUS, Ts, 0.5 * tol, 3))
        assert len(calls) == len(ROW_TAUS)
        for a, b in zip(whole, capped):
            for got, want in zip(a, b):
                assert np.array_equal(got, want)


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


# q_p polynomial whose profile 1 - 3 sinh^2 t changes sign, with its weight
MIXED = ([1.0, 3.0], 0.5, 1.5, 2.0)


class TestStackedFirstRound:
    """A stack's first-level targets are tested together; each cell must
    still get the bits, or the error, of a row of one."""

    TOLS = (1e-13, 1e-10, 1e-4)

    @pytest.mark.parametrize("label,n", TestStackedRow.CELLS)
    def test_prefetched_cells_equal_rows_of_one(self, label, n, empty_row,
                                                monkeypatch):
        sp = parse_space(label)
        seen = []
        cell = quadrature._cell

        def spy(*args):
            try:
                I, res = cell(*args)
            except quadrature.QuadratureError as exc:
                seen.append(_failure(exc))
                raise
            seen.append((I.tobytes(), _hexbits(res)))
            return I, res

        def derivs(tau, tol):
            # the outcome of the one _cell call of q_chi_derivs, and d1, d2
            seen.clear()
            try:
                _, d1, d2 = _quiet_derivs(sp, n, tau, tol)
                d12 = d1.hex(), d2.hex()
            except quadrature.QuadratureError:
                d12 = None
            (out,) = seen
            return out, d12

        monkeypatch.setattr(quadrature, "_cell", spy)
        for tol in self.TOLS:
            alone = [derivs(tau, tol) for tau in ROW_TAUS]
            quadrature.prefetch(sp, [n], ROW_TAUS, tol)
            assert len(empty_row) == len(ROW_TAUS)
            for tau, want in zip(ROW_TAUS, alone):
                assert derivs(tau, tol) == want, (tol, tau)
            assert not empty_row
            if tol == 1e-13:
                # settled cells share their stacks with cells that are not
                kinds = {self.kind(sp, n, tau, tol, out) for tau, (out, _)
                         in zip(ROW_TAUS, alone)}
                assert "settled" in kinds and len(kinds) > 1, kinds

    @staticmethod
    def kind(sp, n, tau, tol, out):
        if isinstance(out[0], type):
            return "error"
        tables = quadrature._checked_isotype(sp, n, tau, tol)
        nodes, T = out[1][4], float.fromhex(out[1][5])
        if T != quadrature._first_truncation(tables, tau, tol):
            return "larger T"
        panels = len(quadrature._initial_breaks([tables], [tau], [T])[0]) - 1
        return "settled" if nodes == 15 * panels else "refined"

    @pytest.mark.parametrize("tol", TOLS)
    def test_mixed_sign_stack_equals_rows_of_one(self, tol):
        P, mu, kappa, nu = MIXED
        tables = quadrature._make_tables(quadrature._as_float_coeffs(P), mu, kappa, nu)
        Ts = [quadrature._first_truncation(tables, tau, tol) for tau in ROW_TAUS]
        recs = [tables] * len(ROW_TAUS)
        for nrows in (1, 3):
            stack = list(quadrature._first_levels(recs, ROW_TAUS, Ts, 0.5 * tol,
                                                  nrows))
            assert any(np.any(level[2] < 0.0) for level in stack)
            # that stack is the first level of the grid of these cells
            grid = quadrature._q_engine(recs, ROW_TAUS, tol, nrows)
            for tau, out in zip(ROW_TAUS, grid):
                (alone,) = quadrature._q_engine([tables], [tau], tol, nrows)
                want = _outcome(lambda: quadrature._unwrap(alone))
                assert _outcome(lambda: quadrature._unwrap(out)) == want
                if nrows == 1:
                    # q_p is the value route
                    public = _outcome(lambda: (
                        np.empty(0), q_p(P, QPParams(mu, kappa, nu, tau), tol)))
                    assert public[1:] == want[1:], tau


class TestSumPanels:
    """``_sum_panels`` skips the magnitude sums only when no estimate of the
    stack is negative."""

    def stack(self, tables, nrows=3, tol=1e-10):
        Ts = [quadrature._first_truncation(tables, tau, tol) for tau in ROW_TAUS]
        recs = [tables] * len(ROW_TAUS)
        levels = list(quadrature._first_levels(recs, ROW_TAUS, Ts, 0.5 * tol,
                                               nrows))
        val = np.concatenate([level[2] for level in levels], axis=1)
        err = np.concatenate([level[3] for level in levels], axis=1)
        return val, err, [level[2].shape[1] for level in levels]

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
            I, Iabs, E = quadrature._sum_panels(val, err, counts)
            assert I.shape == Iabs.shape == E.shape == (len(counts), nrows)
            assert Iabs is I
            assert np.array_equal(Iabs, self.fsums(np.abs(val), counts))
            assert np.array_equal(I, self.fsums(val, counts))
            assert np.array_equal(E, self.fsums(err, counts))

    def test_negative_estimate_takes_the_magnitude_sums(self):
        P, mu, kappa, nu = MIXED
        tables = quadrature._make_tables(quadrature._as_float_coeffs(P), mu, kappa, nu)
        val, err, counts = self.stack(tables)
        assert np.any(val < 0.0)
        I, Iabs, E = quadrature._sum_panels(val, err, counts)
        assert Iabs is not I
        assert np.array_equal(Iabs, self.fsums(np.abs(val), counts))
        assert np.array_equal(I, self.fsums(val, counts))
        assert np.any(Iabs > np.abs(I))


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
        I, Iabs, E = quadrature._sum_panels(val, err, counts)
        want = TestSumPanels.fsums(np.concatenate([val, np.abs(val), err]), counts)
        # tobytes tells -0.0 from 0.0
        assert np.concatenate([I, Iabs, E], axis=1).tobytes() == want.tobytes()
        assert (Iabs is I) == bool(np.all(val >= 0.0))

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
        I, _, _ = quadrature._sum_panels(val, err, [3])
        # the estimates and magnitudes of row 0, and the estimates of row 1
        assert seen == [[1.0, 2.0 ** -53, 0.0], [1.0, -1.0, 0.0],
                        [1.0, 2.0 ** -53, 0.0]]
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
        I, _, _ = quadrature._sum_panels(val, err, [len(row)])
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


def scalar_breaks(tables, tau, T):
    """One cell's initial break points as a Python set of candidates,
    sorted and thinned against the last point kept: the reference for the
    row pass of ``_initial_breaks``."""
    sig = math.sqrt(tau / 2.0)
    tpk = tables.lam * tau / 2.0
    cand = {0.0, T}
    for k in range(1, 8):
        cand.add(T * k / 8.0)
    for jj in range(-12, 13):
        x = tpk + jj * sig
        if 0.0 < x < T:
            cand.add(x)
    for e in (0.25, 0.5, 1.0, 2.0, 4.0):
        x = e * math.sqrt(tau)
        if 0.0 < x < T:
            cand.add(x)
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
        # the truncation point of a random attempt, in rows of 42 cells
        rng = np.random.default_rng(10)
        lo, hi = math.log(quadrature.MIN_TAU), math.log(quadrature.MAX_TAU)
        cells = 0
        with np.errstate(all="raise"):
            for label in self.SPACES:
                sp = parse_space(label)
                for n in range(quadrature.MAX_DEGREE + 1):
                    tables = quadrature._checked_isotype(sp, n, 1.0, 1e-10)
                    for tol in (1e-13, 1e-10, 1e-4):
                        taus = np.exp(rng.uniform(lo, hi, 40)).tolist()
                        taus += [quadrature.MIN_TAU, quadrature.MAX_TAU]
                        Ts = [quadrature._first_truncation(tables, tau, tol) * 1.3 ** k
                              for tau, k in zip(taus, rng.integers(0, 5, len(taus)))]
                        breaks, counts = quadrature._initial_breaks(
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
        tables = quadrature._checked_isotype(parse_space("HP2"), 3, 1.0, 1e-10)
        taus = [1.0, 20.0]
        near = [tables.lam * tau / 2.0 + 12.0 * math.sqrt(tau / 2.0) for tau in taus]
        Ts = [x * (1.0 + 5e-11) for x in near]
        breaks, counts = quadrature._initial_breaks([tables] * len(taus), taus, Ts)
        cell = np.split(breaks, np.cumsum(counts)[:-1])
        for got, tau, T, x in zip(cell, taus, Ts, near):
            assert got.tolist() == scalar_breaks(tables, tau, T)
            assert got[-1] == T and got[-2] < x

    def test_one_breaks_and_sums_pass_per_stack(self, monkeypatch, empty_row):
        # a prefetched grid builds its break points in one call and sums each
        # stack of first levels in one call; its stacks span isotypes, and
        # these cells converge there
        sp = parse_space("CP2")
        ns, taus = (1, 2, 3), (0.25, 0.5, 1.0, 2.0, 4.0)
        calls = {}
        for name in ("_initial_breaks", "_sum_panels", "_log_mag_sign"):
            fn = getattr(quadrature, name)
            monkeypatch.setattr(
                quadrature, name,
                lambda *a, _fn=fn, _name=name: calls.setdefault(_name, []).append(a)
                or _fn(*a))
        quadrature.prefetch(sp, ns, taus, derivs=False)
        assert len(calls["_initial_breaks"]) == 1
        stacks = [a[2] for a in calls["_sum_panels"]]
        assert len(stacks) == len(calls["_log_mag_sign"]) < len(ns)
        assert sum(len(counts) for counts in stacks) == len(ns) * len(taus)
        for counts in stacks:
            assert 15 * sum(counts) <= quadrature._STACK_NODES
        for n in ns:
            for tau in taus:
                res = q_chi(sp, n, tau)
                tables = quadrature._checked_isotype(sp, n, tau, quadrature.DEFAULT_TOL)
                (breaks,) = quadrature._initial_breaks([tables], [tau], [res.truncation_t])[1]
                assert res.nodes == 15 * (breaks - 1)
        assert not empty_row


@functools.lru_cache(maxsize=None)
def _mp_node_terms(t):
    # (sinh^2 t, log t, log sinh t, log cosh t) at 60 digits
    import mpmath as mp

    with mp.workdps(60):
        t = mp.mpf(t)
        return mp.sinh(t) ** 2, mp.log(t), mp.log(mp.sinh(t)), mp.log(mp.cosh(t))


class TestNodeAccuracy:
    # log|integrand| and its sign at the nodes against 60-digit mpmath, from
    # the smallest node to the largest T of the box; the error is counted in
    # units of eps (1 + |g| + t^2/tau), the rounding of the terms of g
    T = np.geomspace(1e-15, 17200.0, 161)
    TAUS = (quadrature.MIN_TAU, 1e-3, 1.0, 400.0)
    CATALOG = [(lbl, n) for lbl in ("S2", "S3", "S16", "CP2", "CP8", "HP2",
                                    "HP4", "OP2")
               for n in (0, 1, 8, 16)]
    # zero coefficients and mixed signs, as q_p accepts them
    POLYS = [[1.0, 0.0, -2.0, 0.0, 3.0], [0.0, 1.0, 0.5, 0.0, 0.0, 7.0],
             [-1.0, 1.0] * 8 + [2.0], [1.0] * 17]

    def sweep(self, tables):
        """Per tau and t: (g, sign, error in units, reference sign, condition
        number sum |c_j| s^j / |P(-s)|)."""
        mp = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        cs = tables.coeffs.tolist()
        out = []
        with mp.workdps(60):
            ref = []
            for t in self.T.tolist():
                s, log_t, log_sh, log_ch = _mp_node_terms(t)
                P = mp.fsum(c * (-s) ** j for j, c in enumerate(cs))
                size = mp.fsum(abs(c) * s ** j for j, c in enumerate(cs))
                rest = tables.mu * log_t + tables.kappa * log_sh + tables.nu * log_ch
                ref.append((mp.log(abs(P)) + rest, mp.sign(P), float(size / abs(P))))
            for tau in self.TAUS:
                with np.errstate(over="raise", invalid="raise"):
                    g, sign = quadrature._log_mag_sign([tables], tau,
                                                       self.T[None, :], [1])
                for t, gi, si, (base, sr, cond) in zip(self.T.tolist(), g[0].tolist(),
                                                       sign[0].tolist(), ref):
                    err = abs(mp.mpf(gi) - (base - mp.mpf(t) ** 2 / tau))
                    units = float(err) / (eps * (1.0 + abs(gi) + t * t / tau))
                    out.append((tau, t, gi, si, units, int(sr), cond))
        return out

    @pytest.mark.parametrize("label,n", CATALOG)
    def test_catalog_within_bound(self, label, n):
        # every term of P(-s) is positive, so Horner loses no digits
        for tau, t, g, sign, units, ref_sign, cond in self.sweep(
                quadrature._isotype(parse_space(label), n)):
            assert sign == ref_sign == 1, (tau, t)
            assert units <= 32.0, (tau, t, g)

    @pytest.mark.parametrize("coeffs", POLYS)
    def test_zeros_and_mixed_signs_within_bound(self, coeffs):
        # the terms c_j (-s)^j of P(-s) take both signs
        terms = [math.copysign(1.0, c) * (-1) ** j for j, c in enumerate(coeffs) if c]
        assert min(terms) < 0 < max(terms)
        tables = quadrature._make_tables(quadrature._as_float_coeffs(coeffs),
                                         0.5, 1.5, 2.0)
        for tau, t, g, sign, units, ref_sign, cond in self.sweep(tables):
            assert units <= 32.0 * cond, (tau, t, g, cond)
            if cond < 1e8:
                assert sign == ref_sign, (tau, t, cond)


class TestPrefetch:
    def test_error_cell_raises_the_same_error(self, empty_row):
        sp = parse_space("S3")
        with pytest.raises(ConvergenceError) as alone:
            q_chi(sp, 5, 400.0, 1e-13)
        quadrature.prefetch(sp, [5], [1.0, 400.0], 1e-13, derivs=False)
        with pytest.raises(ConvergenceError) as fetched:
            q_chi(sp, 5, 400.0, 1e-13)
        assert str(fetched.value) == str(alone.value)
        assert fetched.value.best.nodes == alone.value.best.nodes == 399990
        assert fetched.value.best == alone.value.best

    def test_out_of_box_tau_is_left_to_its_call(self, empty_row):
        sp = parse_space("S3")
        quadrature.prefetch(sp, [0], [1.0, 500.0, 1e-31, math.nan])
        assert len(empty_row) == 1
        for tau in (500.0, 1e-31):
            with pytest.raises(ParameterRangeError):
                q_chi(sp, 0, tau)
        for args in ((sp, [17], [1.0]), (parse_space("S20"), [0], [1.0])):
            quadrature.prefetch(*args)
            assert not empty_row
        quadrature.prefetch(sp, [0], [1.0], 1e-14)
        assert not empty_row

    def test_scale_is_keyed_at_one(self, empty_row):
        quadrature.prefetch(parse_space("S4", B=2.0), [2], [1.5], derivs=False)
        assert list(empty_row) == [(parse_space("S4"), 2, 1.5, quadrature.DEFAULT_TOL, 1)]
        got = q_chi(parse_space("S4"), 2, 1.5)
        assert not empty_row
        assert _bits(got) == _bits(q_chi(parse_space("S4", B=2.0), 2, 1.5))

    def test_one_row_at_a_time(self, empty_row):
        sp = parse_space("CP2")
        quadrature.prefetch(sp, [1], [0.5, 1.0, 2.0], derivs=False)
        assert {k[1:3] for k in empty_row} == {(1, 0.5), (1, 1.0), (1, 2.0)}
        quadrature.prefetch(sp, [2], [0.5, 4.0], derivs=False)
        assert {k[1:3] for k in empty_row} == {(2, 0.5), (2, 4.0)}
        q_chi(sp, 1, 0.5)  # not in the row: computed alone, memo untouched
        assert len(empty_row) == 2
        q_chi(sp, 2, 0.5, 1e-8)  # another tol is another cell
        assert len(empty_row) == 2
        q_chi(sp, 2, 0.5)
        assert {k[1:3] for k in empty_row} == {(2, 4.0)}
        q_chi(sp, 2, 4.0)
        assert not empty_row

    @pytest.mark.parametrize("derivs", (False, True))
    def test_a_grid_serves_its_own_kind_only(self, derivs, empty_row):
        # the value row of this cell settles in fewer nodes than all three
        # rows do, so each kind has bits of its own
        sp, n, tau, tol = parse_space("OP2"), 3, 0.05, 1e-13
        value = _hexbits(q_chi(sp, n, tau, tol))
        deriv = _derivs_outcome(sp, n, tau, tol)
        assert (value[4], deriv[4]) == (420, 570)
        quadrature.prefetch(sp, [n], [tau], tol, derivs=derivs)
        ((key, out),) = empty_row.items()
        assert key == (sp, n, tau, tol, 3 if derivs else 1)
        # the other kind computes its cell alone and leaves the entry
        if derivs:
            assert _hexbits(q_chi(sp, n, tau, tol)) == value
        else:
            assert _derivs_outcome(sp, n, tau, tol) == deriv
        assert list(empty_row) == [key] and empty_row[key] is out
        # its own kind takes it
        if derivs:
            assert _derivs_outcome(sp, n, tau, tol) == deriv
        else:
            assert _hexbits(q_chi(sp, n, tau, tol)) == value
        assert not empty_row


def _derivs_outcome(sp, n, tau, tol):
    """q_chi_derivs at one cell: the hex of every result field and of d1 and
    d2, or the error's type, message and best estimate."""
    try:
        res, d1, d2 = _quiet_derivs(sp, n, tau, tol)
    except quadrature.QuadratureError as exc:
        return _failure(exc)
    return _hexbits(res) + (d1.hex(), d2.hex())


class TestGridPrefetch:
    """A grid of isotypes and taus of one space, prefetched together, gives
    each cell the outcome it gets computed alone."""

    NS = (0, 1, 7, 8, 16)

    @pytest.mark.parametrize("tol", (1e-10, 1e-4))
    @pytest.mark.parametrize("label", ("S2", "CP2", "OP2"))
    def test_grid_cells_equal_cells_alone(self, label, tol, empty_row):
        sp = parse_space(label)
        alone = {(n, tau): _derivs_outcome(sp, n, tau, tol)
                 for n in self.NS for tau in ROW_TAUS}
        quadrature.prefetch(sp, self.NS, ROW_TAUS, tol)
        assert {k[1:3] for k in empty_row} == set(alone)
        for (n, tau), want in alone.items():
            assert _derivs_outcome(sp, n, tau, tol) == want, (n, tau)
        assert not empty_row

    def test_refined_larger_t_and_failed_cells_at_tol_min(self, empty_row):
        # stacks of settled cells hold cells that refine, take a larger T or
        # raise, all of which must still match
        sp, tol = parse_space("CP2"), 1e-13
        ns, taus = (0, 1, 16), (quadrature.MIN_TAU, 1e-3, 0.05, 20.0)
        alone = {(n, tau): _derivs_outcome(sp, n, tau, tol) for n in ns for tau in taus}
        quadrature.prefetch(sp, ns, taus, tol)
        for (n, tau), want in alone.items():
            assert _derivs_outcome(sp, n, tau, tol) == want, (n, tau)
        assert not empty_row
        kinds = {TestStackedFirstRound.kind(
            sp, n, tau, tol, out if isinstance(out[0], type) else (None, out))
            for (n, tau), out in alone.items()}
        assert kinds == {"settled", "refined", "larger T", "error"}

    def test_invalid_cells_are_left_to_their_calls(self, empty_row):
        sp = parse_space("S3")
        bad = [(0, 500.0), (0, 1e-31), (0, math.nan), (17, 1.0), (17, 500.0)]
        want = []
        for n, tau in bad:
            with pytest.raises(ParameterRangeError) as exc:
                q_chi(sp, n, tau)
            want.append(str(exc.value))
        quadrature.prefetch(sp, [0, 17], [1.0, 500.0, 1e-31, math.nan], derivs=False)
        assert list(empty_row) == [(sp, 0, 1.0, quadrature.DEFAULT_TOL, 1)]
        for (n, tau), msg in zip(bad, want):
            with pytest.raises(ParameterRangeError) as exc:
                q_chi(sp, n, tau)
            assert str(exc.value) == msg
        assert len(empty_row) == 1

    def test_oracles_grid_is_one_breaks_pass_and_few_node_calls(self, monkeypatch,
                                                                 empty_row):
        # the isotypes 0..16 of a space at the taus of verify-asymptotics
        sp = parse_space("OP2")
        ns, taus = range(quadrature.MAX_DEGREE + 1), (1e-3, 1e-2, 100.0, 400.0)
        calls = {}
        for name in ("_initial_breaks", "_log_mag_sign"):
            fn = getattr(quadrature, name)
            # each call is kept with the name of the function that made it
            monkeypatch.setattr(
                quadrature, name,
                lambda *a, _fn=fn, _name=name: calls.setdefault(_name, []).append(
                    (sys._getframe(1).f_code.co_name, a)) or _fn(*a))
        quadrature.prefetch(sp, ns, taus)
        assert len(empty_row) == len(ns) * len(taus)
        assert len(calls["_initial_breaks"]) == 1
        # the first levels' node calls, as against those of refinement
        stacks = [a for caller, a in calls["_log_mag_sign"] if caller == "_first_levels"]
        assert sum(len(a[3]) for a in stacks) == len(ns) * len(taus)
        assert len(stacks) < len(ns)


class TestOneRoute:
    """Every cell goes through one ``_q_engine`` call, which alone computes
    first truncation points: ``q_p`` and a lone catalog cell as a grid of
    one, a prefetched grid as one grid."""

    @pytest.fixture
    def engine_calls(self, monkeypatch, empty_row):
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
        (lambda: q_p([1.0, 3.0], QPParams(0.5, 1.5, 2.0, 1.0)), 1),
        (lambda: q_chi(parse_space("CP2"), 3, 0.5), 1),
        (lambda: p_chi(parse_space("S4"), 2, 0.5 + 1.5j), 1),
        (lambda: q_chi_derivs(parse_space("HP2"), 1, 2.0), 3),
    ], ids=["q_p", "q_chi", "p_chi", "q_chi_derivs"])
    def test_lone_cell_is_a_grid_of_one(self, call, nrows, engine_calls):
        # the entry point sets the moment rows: the value alone, or all three
        call()
        assert engine_calls == [("engine", 1, nrows), ("truncation", True)]

    def test_prefetched_grid_is_one_call(self, engine_calls, empty_row):
        # a value grid and a derivative grid, each taken by calls of its kind
        sp, ns, taus = parse_space("S5"), (0, 4, 9), (1e-3, 1.0, 20.0)
        for derivs, call, nrows in ((False, q_chi, 1), (True, _quiet_derivs, 3)):
            engine_calls.clear()
            quadrature.prefetch(sp, ns, taus, derivs=derivs)
            for n in ns:
                for tau in taus:
                    call(sp, n, tau)
            assert not empty_row
            assert engine_calls == [("engine", 9, nrows)] + [("truncation", True)] * 9

    def test_larger_t_builds_its_own_first_level(self, monkeypatch, empty_row):
        # OP2 at n = 0 and MIN_TAU settles only at its fourth T, 1.3^3 times
        # the first; each later attempt is a stack of one at its own T
        Ts = []
        first_levels = quadrature._first_levels
        monkeypatch.setattr(quadrature, "_first_levels",
                            lambda tables, taus, ts, tol, nrows: Ts.append(list(ts))
                            or first_levels(tables, taus, ts, tol, nrows))
        res = q_chi(parse_space("OP2"), 0, quadrature.MIN_TAU)
        T0 = Ts[0][0]
        assert Ts == [[T0 * 1.3 ** k] for k in range(4)]
        assert res.truncation_t == Ts[-1][0]


class TestPaddedHorner:
    """A stack of records of different degrees is one Horner loop, each
    node reading its record's coefficient by index from a table zero-padded
    at the front to the top degree; each record's slice has the bits of a
    call on it alone."""

    # mixed signs, zero coefficients (a zero constant term too) and all-ones
    POLYS = [[2.5], [1.0, 3.0], [0.0, 1.0, 0.5],
             [1.0, 0.0, -2.0, 0.0, 3.0, 0.0, 0.0, 0.0, 5.0], [-1.0, 1.0] * 8,
             [1.0] * 17]
    TAUS = (quadrature.MIN_TAU, 1e-3, 0.05, 1.0, 20.0, 400.0)

    @staticmethod
    def record(coeffs, mu=0.5, kappa=1.5, nu=2.0):
        return quadrature._make_tables(quadrature._as_float_coeffs(coeffs), mu, kappa, nu)

    @pytest.mark.parametrize("rows", (1, 3))
    def test_stack_slices_equal_records_alone(self, rows):
        recs = [self.record(c) for c in self.POLYS]
        assert [len(r.coeffs) - 1 for r in recs] == [0, 1, 2, 8, 15, 16]
        # 15 nodes a row, on both sides of sinh t = 1
        ts = [np.geomspace(1e-3 * (k + 1), 40.0 / (k + 1), 15 * rows).reshape(rows, 15)
              for k in range(len(recs))]
        for t in ts:
            assert np.sinh(t.min()) < 1.0 < np.sinh(t.max())
        tau = np.repeat(self.TAUS, rows)[:, None]
        with np.errstate(over="raise", invalid="raise"):
            g, sign = quadrature._log_mag_sign(recs, tau, np.concatenate(ts),
                                               [rows] * len(recs))
        assert g.shape == sign.shape == (rows * len(recs), 15)
        for k, (rec, t, tk) in enumerate(zip(recs, ts, self.TAUS)):
            want_g, want_sign = quadrature._log_mag_sign([rec], tk, t, [rows])
            rows_k = slice(k * rows, (k + 1) * rows)
            assert g[rows_k].tobytes() == want_g.tobytes(), k
            assert sign[rows_k].tobytes() == want_sign.tobytes(), k
        assert np.any(sign < 0.0) and np.any(sign > 0.0)


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
        res = q_p([1.0] * 17, QPParams(8.0, 8.0, 8.0, tau), tol)
        assert res.value > 2.3e-308


class TestValueRows:
    """``q_chi``, ``q_p`` and ``p_chi`` form the value row alone,
    ``q_chi_derivs`` all three moment rows."""

    @staticmethod
    def spy_rows(monkeypatch):
        # (caller, rows formed) of every node call of the moments
        seen = []
        moment_rows = quadrature._moment_rows

        def spy(*args):
            rows = moment_rows(*args)
            seen.append((sys._getframe(1).f_code.co_name, len(rows)))
            return rows

        monkeypatch.setattr(quadrature, "_moment_rows", spy)
        return seen

    def test_oracles_pass_forms_one_row_per_stack(self, monkeypatch, empty_row):
        # verify-asymptotics over the default spaces: several stacks per
        # space, each of the value row alone
        seen = self.spy_rows(monkeypatch)
        with redirect_stdout(io.StringIO()):
            assert main(["verify-asymptotics", "--space", "all", "--n", "0..16"]) == 0
        stacks = [rows for caller, rows in seen if caller == "_first_levels"]
        assert len(stacks) > 2 * len(DEFAULT_SCAN_SELECTORS)
        assert set(rows for _, rows in seen) == {1}

    @pytest.mark.parametrize("derivs", (False, True))
    def test_every_stack_of_a_grid_forms_its_rows(self, derivs, monkeypatch,
                                                  empty_row):
        # at tol 1e-13 some cells refine, in node calls of _eval_panels
        seen = self.spy_rows(monkeypatch)
        sp = parse_space("CP2")
        quadrature.prefetch(sp, range(quadrature.MAX_DEGREE + 1),
                            (quadrature.MIN_TAU, 1e-3, 0.05, 20.0), 1e-13,
                            derivs=derivs)
        callers = {caller for caller, _ in seen}
        assert callers == {"_first_levels", "_eval_panels"}
        assert sum(caller == "_first_levels" for caller, _ in seen) > 2
        assert {rows for _, rows in seen} == {3 if derivs else 1}

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
                    kind = TestStackedFirstRound.kind(
                        sp, n, tau, tol, (None, _hexbits(deriv)))
                    assert kind != "settled", (label, n, tau)
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
