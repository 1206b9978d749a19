import math

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
from qflat.spaces import chi_params, parse_space
from qflat.hypergeom import hypergeom_poly


def s3_q_closed(tau):
    # closed form obtained by completing the square in
    # (1/2) int_0^inf t e^(-t^2/tau) sinh(2t) dt
    return math.sqrt(math.pi) / 4.0 * tau ** 1.5 * math.exp(tau)


def panel_one_at_a_time(weight, scale, a, b):
    # the per-panel form of quadrature._eval_panels: rule on [a, b] against
    # the sum of the rules on its halves
    x = quadrature._GL_X
    mid = 0.5 * (a + b)
    half1 = 0.5 * (b - a)
    xs = np.concatenate([
        0.5 * (a + b) + half1 * x,
        0.5 * (a + mid) + 0.5 * (mid - a) * x,
        0.5 * (mid + b) + 0.5 * (b - mid) * x,
    ])
    rows = weight.moments(xs, scale)
    whole = quadrature._gl_rule(rows[:, :15]) * half1
    halves = (quadrature._gl_rule(rows[:, 15:30]) * (0.5 * (mid - a))
              + quadrature._gl_rule(rows[:, 30:]) * (0.5 * (b - mid)))
    return halves, np.abs(whole - halves)


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

    def test_budget_failure_carries_best(self):
        # fractional mu puts a t^(1/2) kink at the origin; bisection cannot
        # settle it to 1e-13 within 1000 nodes
        params = QPParams(0.5, 0.0, 0.5, 1.0)
        with pytest.raises(ConvergenceError) as err:
            q_p(1, params, 1e-13, node_budget=1000)
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
    """Cells that split panels, pinned to the node counts of the depth-first
    recursion that the level-by-level refinement replaced."""

    @pytest.mark.parametrize("params, tol, nodes", [
        (QPParams(0.5, 0.0, 0.5, 1.0), 1e-13, 5220),
        (QPParams(0.25, 1.0, 0.0, 0.3), 1e-13, 2925),
        (QPParams(0.25, 1.0, 0.0, 0.3), 1e-11, 2475),
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
        assert best.nodes <= quadrature._DEFAULT_BUDGET
        assert best.nodes == 399960

    def test_stacked_panels_match_one_at_a_time(self):
        # the stacked layout gives each panel exactly the bits it gets alone
        coeffs, params = quadrature._chi_setup(parse_space("CP2"), 2, 1.0, 1e-10)
        weight = quadrature._Weight(coeffs, params.mu, params.kappa, params.nu,
                                    params.tau)
        T = 15.0
        g, _ = weight.log_mag_sign(np.linspace(0.0, T, 801)[1:])
        scale = float(np.max(g))
        breaks = np.array(quadrature._initial_breaks(weight, T))
        a, b = breaks[:-1], breaks[1:]
        val, err = quadrature._eval_panels(weight, scale, a, b)
        assert val.shape == err.shape == (3, len(a))
        for i in range(len(a)):
            v, e = panel_one_at_a_time(weight, scale, float(a[i]), float(b[i]))
            assert np.array_equal(val[:, i], v)
            assert np.array_equal(err[:, i], e)


class TestTruncationSoundness:
    CASES = [("S3", 0, 1.0), ("S2", 1, 0.01), ("OP2", 3, 4.0), ("CP3", 2, 100.0)]

    @pytest.mark.parametrize("label,n,tau", CASES)
    def test_internal_majorant(self, label, n, tau):
        # the analytic tail bound at the returned truncation point must sit
        # below tol/2 relative to the value
        from qflat.quadrature import _Weight, _as_float_coeffs, _log_tail_bound

        tol = 1e-10
        sp = parse_space(label)
        res = q_chi(sp, n, tau, tol)
        ch = chi_params(sp, n)
        coeffs = _as_float_coeffs(hypergeom_poly(ch.A, n, ch.c))
        w = _Weight(coeffs, float(ch.mu), float(ch.kappa), float(ch.nu), tau)
        assert _log_tail_bound(w, res.truncation_t) <= math.log(tol / 2.0) + res.log_value

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
