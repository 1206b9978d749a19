import math
from fractions import Fraction

import pytest

from qflat import asymptotics, quadrature
from qflat._gamma import SQRT_PI, gamma_half_exact, gamma_value
from qflat.asymptotics import (
    central_predict,
    fseries2,
    log_qp_large_tau,
    log_tail_gauss_exp,
    qp_large_tau,
    tail_gauss_exp,
    watson2,
)
from qflat.hypergeom import RationalPoly, closed_coeffs, hypergeom_poly
from qflat.quadrature import q_chi
from qflat.spaces import (
    DEFAULT_SCAN_SELECTORS,
    chi_params,
    default_scan_spaces,
    parse_space,
)

SQPI = math.sqrt(math.pi)


def profile(poly, kappa, nu, t):
    """The even integrand profile P(-sinh^2 t) (sinh t/t)^kappa cosh(t)^nu."""
    x = -math.sinh(t) ** 2
    p = 0.0
    for c in reversed(poly.float_coeffs()):
        p = p * x + c
    shx = math.sinh(t) / t if t != 0 else 1.0
    return p * shx ** kappa * math.cosh(t) ** nu


class TestWatson2:
    def test_two_term_value(self):
        got = watson2(1, 1, 1, 1, 0.01)
        # (tau^(3/2)/2)(Gamma(3/2) + Gamma(5/2)(2/3) tau)
        expected = (0.01 ** 1.5 / 2.0) * (SQPI / 2.0 + 0.75 * SQPI * (2.0 / 3.0) * 0.01)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(4.47545e-4, abs=1e-9)
        # against the exact closed form (sqrt(pi)/4) tau^(3/2) e^tau
        exact = SQPI / 4.0 * 0.01 ** 1.5 * math.exp(0.01)
        assert abs(got - exact) / exact == pytest.approx(5e-5, abs=2e-5)

    def test_gaussian_case_exact(self):
        # kappa/6 + nu/2 = 0 and c1 = 0: the two-term form is sqrt(pi tau)/2
        for tau in (0.1, 1.0, 7.0):
            assert watson2(1, 0, 0, 0, tau) == pytest.approx(
                math.sqrt(math.pi * tau) / 2.0, rel=1e-14
            )

    def test_first_order_coefficient_with_linear_poly(self):
        # c1 = -2 contributes -c1 = 2 on top of kappa/6 + nu/2 = 2/3
        f0, f2 = fseries2([1, -2], 1, 1)
        assert f0 == 1.0
        assert f2 == pytest.approx(2.0 + 2.0 / 3.0, rel=1e-15)

    def test_exact_gamma_path_agrees_with_float_path(self):
        got_exact = watson2(1, Fraction(15, 2), Fraction(15, 2), Fraction(7, 2), 0.02)
        got_float = watson2(1, 7.5, 7.5, 3.5, 0.02)
        assert got_exact == pytest.approx(got_float, rel=1e-13)


    def test_zero_polynomial_rejected(self):
        # a zero profile has no small-tau expansion; it must not be read as
        # c0 = 0 with the first-order term alone
        with pytest.raises(ValueError):
            watson2(0, 0, 1, 1, 0.1)
        with pytest.raises(ValueError):
            fseries2([0.0], 1, 1)


class TestFSeries2:
    def test_trivial(self):
        assert fseries2(1, 0, 0) == (1.0, 0.0)

    def test_kappa_six(self):
        assert fseries2(1, 6, 0) == (1.0, 1.0)

    def test_linear_poly(self):
        f0, f2 = fseries2([1, -2], 1, 1)
        assert (f0, f2) == (1.0, pytest.approx(8.0 / 3.0, rel=1e-15))

    def test_against_numeric_second_derivative(self):
        h = 1e-4
        for label, n in (("S2", 1), ("CP2", 2), ("OP2", 3)):
            sp = parse_space(label)
            ch = chi_params(sp, n)
            poly = hypergeom_poly(ch.A, n, ch.c)
            kappa, nu = float(ch.kappa), float(ch.nu)
            _, f2 = fseries2(poly, kappa, nu)
            fd = (profile(poly, kappa, nu, h) - 2.0 * profile(poly, kappa, nu, 0.0)
                  + profile(poly, kappa, nu, -h)) / (h * h) / 2.0
            assert f2 == pytest.approx(fd, abs=1e-6)


class TestTailGaussExp:
    def test_cutoff_independent(self):
        assert tail_gauss_exp(5.0, 2.0, 1.0, 3.0) == tail_gauss_exp(0.0, 2.0, 1.0, 3.0)

    def test_lambda_two_mu_zero(self):
        for tau in (2.0, 10.0):
            assert tail_gauss_exp(0.0, 2.0, 0.0, tau) == pytest.approx(
                SQPI * math.sqrt(tau) * math.exp(tau), rel=1e-13
            )

    def test_lambda_two_mu_one(self):
        for tau in (2.0, 10.0):
            assert tail_gauss_exp(0.0, 2.0, 1.0, tau) == pytest.approx(
                SQPI * tau ** 1.5 * math.exp(tau), rel=1e-13
            )

    def test_log_variant(self):
        v = tail_gauss_exp(0.0, 3.0, 0.5, 2.0)
        assert math.log(v) == pytest.approx(log_tail_gauss_exp(0.0, 3.0, 0.5, 2.0),
                                            rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            tail_gauss_exp(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            tail_gauss_exp(0.0, 1.0, -1.5, 1.0)
        with pytest.raises(ValueError):
            tail_gauss_exp(-1.0, 1.0, 0.0, 1.0)


class TestQpLargeTau:
    def test_constant_poly(self):
        for tau in (1.0, 5.0):
            assert qp_large_tau(1, 1, 1, 1, tau) == pytest.approx(
                SQPI / 4.0 * tau ** 1.5 * math.exp(tau), rel=1e-13
            )

    def test_linear_poly(self):
        # top coefficient -2 at degree 1: rate (kappa+nu+2)^2/4 = 4
        for tau in (1.0, 3.0):
            assert qp_large_tau([1, -2], 1, 1, 1, tau) == pytest.approx(
                SQPI / 4.0 * tau ** 1.5 * math.exp(4.0 * tau), rel=1e-13
            )

    def test_pure_square(self):
        tau = 2.0
        assert qp_large_tau([0, 0, 1], 1, 1, 1, tau) == pytest.approx(
            SQPI * 6.0 / 2.0 ** 7 * tau ** 1.5 * math.exp(9.0 * tau), rel=1e-13
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            qp_large_tau(1, 1, 1, 0.0, 1.0)
        with pytest.raises(ValueError):
            qp_large_tau(1, 1, -0.5, 1.0, 1.0)


class TestCentralPredict:
    def test_n1_s3_parameters(self):
        pred = central_predict(1, 1, 1, 1)
        assert pred.alpha_n == 3
        assert pred.c_n1 == -2
        assert pred.c_nn_magnitude == pytest.approx(4.0 * (2.0 / 4.0), rel=1e-15)

    def test_n0_trivial(self):
        pred = central_predict(0, 1, 1, 1)
        assert pred.alpha_n == 0 and pred.c_n1 == 0
        assert pred.c_nn_magnitude == 1.0

    def test_n2_s3_matches_hypergeom_top(self):
        pred = central_predict(2, 1, 1, 1)
        assert pred.alpha_n == 8
        assert pred.c_nn_magnitude == pytest.approx(16.0 / 3.0, rel=1e-14)
        _, top = closed_coeffs(2, 2, Fraction(3, 2))
        assert abs(top) == Fraction(16, 3)

    def test_rate_vs_linear_coefficient_identity(self):
        # alpha_n = -(r/2) c_{n,1} identically, r = mu + kappa + 1
        for sp in default_scan_spaces():
            ch = chi_params(sp, 0)
            for n in range(11):
                pred = central_predict(n, ch.mu, ch.kappa, ch.nu)
                assert pred.alpha_n == -Fraction(ch.r, 2) * pred.c_n1

    def test_linear_coefficient_always_matches_at_n1(self):
        # A = nu + kappa makes the n = 1 linear coefficients agree for every
        # space; the centrality obstruction lives in the top coefficient
        for sp in default_scan_spaces():
            ch = chi_params(sp, 0)
            pred = central_predict(1, ch.mu, ch.kappa, ch.nu)
            c1, _ = closed_coeffs(ch.A, 1, ch.c)
            assert c1 == pred.c_n1

    def test_top_coefficient_mismatch_for_s2(self):
        ch = chi_params(parse_space("S2"), 0)
        pred = central_predict(2, ch.mu, ch.kappa, ch.nu)
        _, top = closed_coeffs(ch.A, 2, ch.c)
        assert abs(float(top)) != pytest.approx(pred.c_nn_magnitude, rel=1e-6)


class TestOracleAgreementSmallTau:
    @pytest.mark.parametrize("label", [s.label for s in default_scan_spaces()])
    def test_watson_within_ten_tau(self, label):
        # two-term remainder bound 10*tau.  Measured remainders (30-digit
        # reference): worst cell over the catalog is OP2 n=3 at tau=1e-2
        # with 0.1431, exceeding the bound 0.1; see notes on the expansion
        # parameter (r/2) f2 tau reaching ~0.66 there.
        sp = parse_space(label)
        for n in range(4):
            ch = chi_params(sp, n)
            poly = hypergeom_poly(ch.A, n, ch.c)
            for tau in (1e-3, 1e-2):
                q = q_chi(sp, n, tau, 1e-11).value
                w = watson2(poly, ch.mu, ch.kappa, ch.nu, tau)
                rel = abs(q - w) / q
                assert rel <= 10.0 * tau, (
                    f"{label} n={n} tau={tau}: watson relative error {rel:.4g} "
                    f"exceeds 10*tau={10 * tau:.4g}"
                )


class TestSmallTauErrorScaling:
    @pytest.mark.parametrize("label,n", [("S2", 1), ("S3", 2), ("CP2", 0),
                                         ("HP2", 1)])
    def test_quadratic_remainder(self, label, n):
        # remainder is O(tau^2), so halving tau divides the error by about
        # four: err(tau)/err(tau/2) in [3, 5]
        sp = parse_space(label)
        ch = chi_params(sp, n)
        poly = hypergeom_poly(ch.A, n, ch.c)
        errs = {}
        for tau in (1e-2, 5e-3):
            q = q_chi(sp, n, tau, 1e-11).value
            w = watson2(poly, ch.mu, ch.kappa, ch.nu, tau)
            errs[tau] = abs(q - w) / q
        assert 3.0 <= errs[1e-2] / errs[5e-3] <= 5.0


class TestOracleAgreementLargeTau:
    @pytest.mark.parametrize("label", [s.label for s in default_scan_spaces()])
    def test_ratio_brackets_and_shrinks(self, label):
        sp = parse_space(label)
        for n in range(4):
            ch = chi_params(sp, n)
            poly = hypergeom_poly(ch.A, n, ch.c)
            devs = {}
            for tau in (25.0, 100.0, 400.0):
                res = q_chi(sp, n, tau, 1e-9)
                logasym, sign = log_qp_large_tau(
                    poly, float(ch.mu), float(ch.kappa), float(ch.nu), tau
                )
                assert sign == 1.0
                devs[tau] = abs(math.expm1(res.log_value - logasym))
            assert devs[100.0] <= 0.2
            # the 3-sphere is the degenerate case: its leading asymptotic is
            # exact, so all deviations sit at quadrature noise; treat the
            # noise floor as a tie satisfying the shrinking law
            if max(devs.values()) >= 1e-7:
                assert devs[400.0] < devs[100.0] < devs[25.0]


# every integer and half-integer in (0, 19.5]
HALF_INTEGERS = [Fraction(k, 2) for k in range(1, 40)]


class TestGammaMemo:
    def test_float_argument_keeps_math_gamma_after_the_exact_route(self):
        # 1.5 == Fraction(3, 2) and both hash alike, so a memo keyed on the
        # argument of gamma_value would hand the float the exact route's bits
        for x in HALF_INTEGERS:
            gamma_value(x)
            assert gamma_value(float(x)).hex() == math.gamma(float(x)).hex(), x

    def test_exact_route_is_q_sqrt_pi(self):
        for x in HALF_INTEGERS:
            q, half = gamma_half_exact(x)
            k = math.floor(x)
            if x.denominator == 1:
                # Gamma(k) = (k - 1)!
                assert (q, half) == (Fraction(math.factorial(k - 1)), False)
            else:
                # Gamma(k + 1/2) = (2k)! / (4^k k!) sqrt(pi)
                want = Fraction(math.factorial(2 * k), 4 ** k * math.factorial(k))
                assert (q, half) == (want, True)
            v = q.numerator / q.denominator
            assert gamma_value(x) == (v * SQRT_PI if half else v)

    def test_exact_route_is_memoized(self):
        gamma_half_exact(Fraction(19, 2))
        hits = gamma_half_exact.cache_info().hits
        assert gamma_half_exact(Fraction(19, 2)) == gamma_half_exact(9.5)
        assert gamma_half_exact.cache_info().hits == hits + 2


def watson2_uncached(P, mu, kappa, nu, tau):
    """The two-term Watson formula with r and both Gammas formed afresh."""
    c0, coef = fseries2(P, kappa, nu)
    if isinstance(mu, (int, Fraction)) and isinstance(kappa, (int, Fraction)):
        r = Fraction(mu) + Fraction(kappa) + 1
        g0, g1 = gamma_value(r / 2), gamma_value(r / 2 + 1)
    else:
        r = float(mu) + float(kappa) + 1.0
        g0, g1 = gamma_value(r / 2.0), gamma_value(r / 2.0 + 1.0)
    return tau ** (float(r) / 2.0) / 2.0 * (g0 * c0 + g1 * coef * tau)


class TestWatsonGammaCache:
    # mu = 3/2, kappa = 1/2 give r = 3, where the exact route and math.gamma
    # differ in the last bit of both Gamma(3/2) and Gamma(5/2)
    EXACT = (Fraction(3, 2), Fraction(1, 2))
    FLOAT = (1.5, 0.5)
    MIXED = (Fraction(3, 2), 0.5)
    # P, nu and tau of every call
    REST = ([1.0, -0.25], Fraction(5, 2), 0.01)

    def uncached(self, args):
        P, nu, tau = self.REST
        return watson2_uncached(P, *args, nu, tau)

    @pytest.mark.parametrize("order", [(EXACT, FLOAT, MIXED), (MIXED, FLOAT, EXACT)])
    def test_each_call_gives_the_uncached_bits(self, order):
        cache = asymptotics._watson_gammas
        cache.cache_clear()
        for args in order:
            P, nu, tau = self.REST
            want = self.uncached(args)
            for hits in (0, 1):
                info = cache.cache_info()
                got = watson2(P, *args, nu, tau)
                assert got.hex() == want.hex(), args
                assert cache.cache_info().hits == info.hits + hits
        # one entry per argument types: 1.5 == Fraction(3, 2) hash alike
        assert cache.cache_info().currsize == 3

    def test_routes_really_differ(self):
        assert gamma_value(Fraction(3, 2)).hex() != math.gamma(1.5).hex()
        assert gamma_value(Fraction(5, 2)).hex() != math.gamma(2.5).hex()
        assert self.uncached(self.EXACT).hex() != self.uncached(self.FLOAT).hex()

    def test_nonpositive_r_raises_on_every_call(self):
        for mu, kappa in ((-1, 0), (-1.0, 0.0), (Fraction(-3, 2), Fraction(1, 2)),
                          (-2.5, 0.5)):
            for _ in range(3):
                with pytest.raises(ValueError, match="mu \\+ kappa \\+ 1 > 0"):
                    watson2(1, mu, kappa, 0, 0.01)


ORACLE_SPACES = DEFAULT_SCAN_SELECTORS + ("S16", "CP8", "HP4")


def _hex(x):
    return tuple(v.hex() for v in x) if isinstance(x, tuple) else x.hex()


class TestOracleReferences:
    @pytest.mark.parametrize("label", ORACLE_SPACES)
    def test_cached_record_gives_the_exact_polynomials_bits(self, label):
        # the oracle rows read the float coefficients of the cached isotype
        # record instead of rebuilding the exact polynomial
        sp = parse_space(label)
        for n in range(quadrature.MAX_DEGREE + 1):
            ch = chi_params(sp, n)
            exact = hypergeom_poly(ch.A, n, ch.c)
            coeffs = quadrature._isotype(quadrature._unit_scale(sp), n).coeffs
            for cached in (coeffs, coeffs.tolist(), tuple(coeffs.tolist())):
                for tau in (1e-3, 1e-2):
                    assert _hex(watson2(cached, ch.mu, ch.kappa, ch.nu, tau)) == _hex(
                        watson2(exact, ch.mu, ch.kappa, ch.nu, tau)), (n, tau)
                for tau in (100.0, 400.0):
                    args = (float(ch.mu), float(ch.kappa), float(ch.nu), tau)
                    assert _hex(log_qp_large_tau(cached, *args)) == _hex(
                        log_qp_large_tau(exact, *args)), (n, tau)


class TestCoefficientCoercion:
    """A tuple of floats with a nonzero top coefficient is the coerced form
    itself, so the laws take it as it is; every other input is coerced and
    checked as before."""

    LAWS = (lambda P: watson2(P, 1, 1, 1, 0.01),
            lambda P: log_qp_large_tau(P, 1.0, 1.0, 1.0, 100.0))

    def test_float_tuple_is_taken_as_it_is(self):
        cs = (1.0, -0.5, 0.25)
        assert quadrature._as_float_coeffs(cs) is cs

    @pytest.mark.parametrize("P", [
        (1.0, -0.5, 0.25), [1.0, -0.5, 0.25], (1, -0.5, Fraction(1, 4)),
        (1.0, -0.5, 0.25, 0.0), RationalPoly((1, Fraction(-1, 2), Fraction(1, 4))),
    ])
    def test_every_form_gives_the_same_bits(self, P):
        want = (1.0, -0.5, 0.25)
        assert quadrature._as_float_coeffs(P) == want
        for law in self.LAWS:
            assert _hex(law(P)) == _hex(law(want))

    @pytest.mark.parametrize("P", [(), [], (0.0,), (0.0, -0.0), [0.0], 0,
                                   RationalPoly((0, 0))])
    def test_empty_and_zero_polynomials_raise(self, P):
        for law in self.LAWS:
            with pytest.raises(quadrature.ParameterRangeError):
                law(P)
