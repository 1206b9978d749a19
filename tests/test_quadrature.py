import functools
import math
import re
import warnings

import numpy as np
import pytest

from qflat import quadrature
from qflat.quadrature import (
    CancellationWarning,
    ConvergenceError,
    ParameterRangeError,
    QPParams,
    dlogq,
    integrand,
    integrand_direct,
    integrand_regrouped,
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
from qflat.hypergeom import hypergeom_poly


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


def panel_one_at_a_time(tables, tau, scale, a, b):
    # the per-panel form of quadrature._eval_panels: K15 on [a, b] against
    # G7 on its nodes of odd index
    half = 0.5 * (b - a)
    xs = 0.5 * (a + b) + half * quadrature._K15_X
    g, sign = quadrature._log_mag_sign(tables, tau, xs)
    rows = quadrature._moment_rows(xs, g, sign, scale)
    k15 = quadrature._gl_rule(rows, quadrature._K15_W) * half
    g7 = quadrature._gl_rule(rows[:, 1::2], quadrature._G7_W) * half
    return k15, np.abs(k15 - g7)


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

    def test_regrouped_matches_direct(self):
        ch = chi_params(parse_space("OP2"), 2)
        poly = hypergeom_poly(ch.A, 2, ch.c)
        params = QPParams(float(ch.mu), float(ch.kappa), float(ch.nu), 1.0)
        t = 1e-6
        while t <= 1.0:
            d = integrand_direct(poly, params, t)
            r = integrand_regrouped(poly, params, t)
            assert r == pytest.approx(d, rel=1e-12)
            t *= 3.7

    def test_zero_limit_with_positive_r(self):
        assert integrand(1, QPParams(1, 1, 1, 1.0), 0.0) == 0.0

    def test_overflow_signalled(self):
        ch = chi_params(parse_space("OP2"), 3)
        poly = hypergeom_poly(ch.A, 3, ch.c)
        params = QPParams(float(ch.mu), float(ch.kappa), float(ch.nu), 400.0)
        with pytest.raises(OverflowError):
            integrand(poly, params, 3400.0)

    def test_rejects_negative_t(self):
        with pytest.raises(ValueError):
            integrand(1, QPParams(0, 0, 0, 1.0), -0.5)


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

    def test_budget_failure_carries_best(self, monkeypatch):
        # fractional mu puts a t^(1/2) kink at the origin; bisection cannot
        # settle it to 1e-13 within 1000 nodes
        monkeypatch.setattr(quadrature, "_NODE_BUDGET", 1000)
        params = QPParams(0.5, 0.0, 0.5, 1.0)
        with pytest.raises(ConvergenceError) as err:
            q_p(1, params, 1e-13)
        best = err.value.best
        assert best is not None
        # reference from 30-digit tanh-sinh quadrature
        assert best.value == pytest.approx(0.723214354285265, rel=1e-4)
        assert best.rel_error > 1e-13


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
        (QPParams(0.5, 0.0, 0.5, 1.0), 1e-13, 2160),
        (QPParams(0.25, 1.0, 0.0, 0.3), 1e-13, 1215),
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

    def test_budget_exhausted_cell(self):
        with pytest.raises(ConvergenceError) as err:
            q_chi(parse_space("S3"), 5, 400.0, 1e-13)
        best = err.value.best
        assert best.nodes <= quadrature._NODE_BUDGET
        assert best.nodes == 399990

    @pytest.mark.parametrize("call", [
        lambda: q_chi(parse_space("S7"), 8, 20.0, 1e-13),
        lambda: q_chi(parse_space("HP2"), 8, 20.0, 1e-13),
        # stops at the maximum depth, far inside the node budget
        lambda: q_p([1.0], QPParams(-0.45, 0.0, 0.0, 1e-3), 1e-10),
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
        # the stacked layout gives each panel exactly the bits it gets alone
        tau = 1.0
        tables = quadrature._checked_isotype(parse_space("CP2"), 2, tau, 1e-10)
        T = 15.0
        breaks, _ = quadrature._initial_breaks(tables, [tau], [T])
        a, b = breaks[:-1], breaks[1:]
        g, _ = quadrature._log_mag_sign(
            tables, tau, quadrature._panel_nodes(a, b)[0].ravel())
        scale = float(np.max(g))
        val, err = quadrature._eval_panels(tables, tau, scale, a, b)
        assert val.shape == err.shape == (3, len(a))
        for i in range(len(a)):
            v, e = panel_one_at_a_time(tables, tau, scale, float(a[i]), float(b[i]))
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
        # nodes, and that level gets the bits a separate moments call gives it
        tables = quadrature._checked_isotype(parse_space(label), n, tau, tol)
        T = q_chi(parse_space(label), n, tau, tol).truncation_t
        I, Iabs, E, scale, nodes, conv = quadrature._integrate_moments(
            tables, tau, T, 0.5 * tol)
        breaks, _ = quadrature._initial_breaks(tables, [tau], [T])
        xs, _ = quadrature._panel_nodes(breaks[:-1], breaks[1:])
        g, _ = quadrature._log_mag_sign(tables, tau, xs.ravel())
        assert scale == float(np.max(g))
        val, err = quadrature._eval_panels(tables, tau, scale, breaks[:-1], breaks[1:])
        assert conv
        for got, want in zip((I, Iabs, E), quadrature._sum_panels(val, err, [val.shape[1]])[0]):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("label,n,tau,tol", CASES)
    def test_nodes_are_fifteen_per_panel(self, label, n, tau, tol):
        # these cells converge on their first level, which costs 15 nodes a
        # panel and nothing besides
        res = q_chi(parse_space(label), n, tau, tol)
        tables = quadrature._checked_isotype(parse_space(label), n, tau, tol)
        panels = len(quadrature._initial_breaks(tables, [tau], [res.truncation_t])[0]) - 1
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
        row = quadrature._first_levels(tables, ROW_TAUS, Ts)
        assert len(row) == len(ROW_TAUS)
        for tau, T, cell in zip(ROW_TAUS, Ts, row):
            (alone,) = quadrature._first_levels(tables, [tau], [T])
            for got, want in zip(cell, alone):
                assert np.array_equal(got, want), (tau, T)

    @pytest.mark.parametrize("label,n", CELLS)
    def test_prefetched_cells_equal_cells_alone(self, label, n, empty_row):
        sp = parse_space(label)
        alone = [_quiet_derivs(sp, n, tau) for tau in ROW_TAUS]
        quadrature.prefetch(sp, n, ROW_TAUS)
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
        whole = quadrature._first_levels(tables, ROW_TAUS, Ts)
        monkeypatch.setattr(quadrature, "_STACK_NODES", 1)
        calls = []
        log_mag_sign = quadrature._log_mag_sign
        monkeypatch.setattr(quadrature, "_log_mag_sign",
                            lambda *a: calls.append(a[2].shape) or log_mag_sign(*a))
        capped = quadrature._first_levels(tables, ROW_TAUS, Ts)
        assert len(calls) == len(ROW_TAUS)
        for a, b in zip(whole, capped):
            for got, want in zip(a, b):
                assert np.array_equal(got, want)


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
                        breaks, counts = quadrature._initial_breaks(tables, taus, Ts)
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
        breaks, counts = quadrature._initial_breaks(tables, taus, Ts)
        cell = np.split(breaks, np.cumsum(counts)[:-1])
        for got, tau, T, x in zip(cell, taus, Ts, near):
            assert got.tolist() == scalar_breaks(tables, tau, T)
            assert got[-1] == T and got[-2] < x

    def test_one_breaks_and_sums_pass_per_stack(self, monkeypatch, empty_row):
        # a prefetched row builds its break points in one call and sums each
        # stack of first levels in one call; these cells converge there
        sp = parse_space("CP2")
        taus = (0.25, 0.5, 1.0, 2.0, 4.0)
        calls = {}
        for name in ("_initial_breaks", "_sum_panels", "_log_mag_sign"):
            fn = getattr(quadrature, name)
            monkeypatch.setattr(
                quadrature, name,
                lambda *a, _fn=fn, _name=name: calls.setdefault(_name, []).append(a)
                or _fn(*a))
        quadrature.prefetch(sp, 2, taus)
        assert len(calls["_initial_breaks"]) == 1
        assert len(calls["_sum_panels"]) == len(calls["_log_mag_sign"]) == 1
        assert len(calls["_sum_panels"][0][2]) == len(taus)
        for tau in taus:
            res = q_chi(sp, 2, tau)
            tables = quadrature._checked_isotype(sp, 2, tau, quadrature.DEFAULT_TOL)
            (breaks,) = quadrature._initial_breaks(tables, [tau], [res.truncation_t])[1]
            assert res.nodes == 15 * (breaks - 1)


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
                    g, sign = quadrature._log_mag_sign(tables, tau, self.T)
                for t, gi, si, (base, sr, cond) in zip(self.T.tolist(), g.tolist(),
                                                       sign.tolist(), ref):
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
        quadrature.prefetch(sp, 5, [1.0, 400.0], 1e-13)
        with pytest.raises(ConvergenceError) as fetched:
            q_chi(sp, 5, 400.0, 1e-13)
        assert str(fetched.value) == str(alone.value)
        assert fetched.value.best.nodes == alone.value.best.nodes == 399990
        assert fetched.value.best == alone.value.best

    def test_out_of_box_tau_is_left_to_its_call(self, empty_row):
        sp = parse_space("S3")
        quadrature.prefetch(sp, 0, [1.0, 500.0, 1e-31, math.nan])
        assert len(empty_row) == 1
        for tau in (500.0, 1e-31):
            with pytest.raises(ParameterRangeError):
                q_chi(sp, 0, tau)
        for args in ((sp, 17, [1.0]), (parse_space("S20"), 0, [1.0])):
            quadrature.prefetch(*args)
            assert not empty_row
        quadrature.prefetch(sp, 0, [1.0], 1e-14)
        assert not empty_row

    def test_scale_is_keyed_at_one(self, empty_row):
        quadrature.prefetch(parse_space("S4", B=2.0), 2, [1.5])
        assert list(empty_row) == [(parse_space("S4"), 2, 1.5, quadrature.DEFAULT_TOL)]
        got = q_chi(parse_space("S4"), 2, 1.5)
        assert not empty_row
        assert _bits(got) == _bits(q_chi(parse_space("S4", B=2.0), 2, 1.5))

    def test_one_row_at_a_time(self, empty_row):
        sp = parse_space("CP2")
        quadrature.prefetch(sp, 1, [0.5, 1.0, 2.0])
        assert {k[1:3] for k in empty_row} == {(1, 0.5), (1, 1.0), (1, 2.0)}
        quadrature.prefetch(sp, 2, [0.5, 4.0])
        assert {k[1:3] for k in empty_row} == {(2, 0.5), (2, 4.0)}
        q_chi(sp, 1, 0.5)  # not in the row: computed alone, memo untouched
        assert len(empty_row) == 2
        q_chi(sp, 2, 0.5, 1e-8)  # another tol is another cell
        assert len(empty_row) == 2
        q_chi(sp, 2, 0.5)
        assert {k[1:3] for k in empty_row} == {(2, 4.0)}
        _quiet_derivs(sp, 2, 4.0)
        assert not empty_row


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
