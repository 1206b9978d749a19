import math
from fractions import Fraction

import pytest

from qflat import quadrature
from qflat.asymptotics import (
    fseries2,
    log_qp_large_tau,
    watson2,
)
from qflat.hypergeom import RationalPoly, hypergeom_poly
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
        # one Gamma for every argument type, so Fraction and float exponents
        # give the same bits
        got_exact = watson2(1, Fraction(15, 2), Fraction(15, 2), Fraction(7, 2), 0.02)
        got_float = watson2(1, 7.5, 7.5, 3.5, 0.02)
        assert got_exact.hex() == got_float.hex()


    def test_nonpositive_and_nan_tau_raise(self):
        for tau in (math.nan, 0.0, -0.01):
            with pytest.raises(ValueError, match="tau > 0"):
                watson2(1, 1, 1, 1, tau)

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


class TestQpLargeTau:
    def test_constant_poly(self):
        # lam = kappa + nu = 2: the Laplace factor sqrt(pi tau) (lam tau/2)^mu
        # e^(lam^2 tau/4) over 2^lam, at mu = 1 and at mu = 0
        cases = [(1, tau, SQPI / 4.0 * tau ** 1.5) for tau in (1.0, 5.0)]
        cases += [(0, tau, SQPI / 4.0 * math.sqrt(tau)) for tau in (2.0, 10.0)]
        for mu, tau, value in cases:
            logmag, sign = log_qp_large_tau(1, mu, 1, 1, tau)
            assert sign == 1.0
            assert logmag == pytest.approx(math.log(value) + tau, abs=1e-13)
        # finite at lam = 3 where the value e^(lam^2 tau/4) = e^900 overflows
        logmag, sign = log_qp_large_tau(1, 0.5, 1, 2, 400.0)
        assert sign == 1.0
        assert logmag == pytest.approx(
            0.5 * math.log(math.pi * 400.0) + 0.5 * math.log(600.0) + 900.0
            - 3.0 * math.log(2.0), rel=1e-13)

    def test_linear_poly(self):
        # top coefficient -2 at degree 1: rate (kappa+nu+2)^2/4 = 4
        for tau in (1.0, 3.0):
            logmag, sign = log_qp_large_tau([1, -2], 1, 1, 1, tau)
            assert sign == 1.0
            assert logmag == pytest.approx(
                math.log(SQPI / 4.0 * tau ** 1.5) + 4.0 * tau, abs=1e-13
            )

    def test_pure_square(self):
        tau = 2.0
        logmag, sign = log_qp_large_tau([0, 0, 1], 1, 1, 1, tau)
        assert sign == 1.0
        assert logmag == pytest.approx(
            math.log(SQPI * 6.0 / 2.0 ** 7 * tau ** 1.5) + 9.0 * tau, abs=1e-13
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            log_qp_large_tau(1, 1, 1, 0.0, 1.0)
        with pytest.raises(ValueError):
            log_qp_large_tau(1, 1, -0.5, 1.0, 1.0)
        for args in ((math.nan, 1, 1, 1.0), (1, math.nan, 1, 1.0),
                     (1, 1, math.nan, 1.0), (1, 1, 1, math.nan)):
            with pytest.raises(ValueError):
                log_qp_large_tau(1, *args)


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


class TestWatsonGammaCache:
    def test_nonpositive_r_raises_on_every_call(self):
        for mu, kappa in ((-1, 0), (-1.0, 0.0), (Fraction(-3, 2), Fraction(1, 2)),
                          (-2.5, 0.5), (math.nan, 0.5), (0.5, math.nan)):
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
            coeffs = quadrature._isotype(sp, n).coeffs
            for cached in (coeffs, coeffs.tolist(), tuple(coeffs.tolist()),
                           quadrature._as_float_coeffs(coeffs.tolist())):
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

    def test_coerced_form_comes_back_unchecked(self):
        # any other form comes back marked as coerced, and so comes back
        # as it is, with the bits of the tuple it equals
        for P in ([1.0, -0.5, 0.25], (1.0, -0.5, 0.25, 0.0), (1, -0.5, 0.25)):
            cs = quadrature._as_float_coeffs(P)
            assert type(cs) is quadrature._Coeffs and cs == (1.0, -0.5, 0.25)
            assert quadrature._as_float_coeffs(cs) is cs
            for law in self.LAWS:
                assert _hex(law(cs)) == _hex(law((1.0, -0.5, 0.25)))

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

    @pytest.mark.parametrize("P", [[math.nan], [1.0, math.inf], (1.0, math.nan)])
    def test_non_finite_coefficients_raise(self, P):
        for law in self.LAWS + (lambda P: fseries2(P, 1, 1),):
            with pytest.raises(quadrature.ParameterRangeError, match="finite"):
                law(P)


# the 26 catalog spaces with m <= 16 (CP1 and HP1 repeat S2 and S4)
CATALOG_M16 = (tuple(f"S{m}" for m in range(2, 17)) + tuple(f"CP{k}" for k in range(2, 9))
               + ("HP2", "HP3", "HP4", "OP2"))


class TestWatsonAgainstMpmath:
    @pytest.mark.parametrize("label", CATALOG_M16)
    def test_two_term_formula_in_30_digits(self, label):
        mpmath = pytest.importorskip("mpmath")

        def mpq(x):
            return mpmath.mpf(x.numerator) / x.denominator

        sp = parse_space(label)
        with mpmath.workdps(30):
            for n in (0, 3, 16):
                ch = chi_params(sp, n)
                poly = hypergeom_poly(ch.A, n, ch.c)
                c0, c1 = (poly.coeffs + (Fraction(0),))[:2]
                r = mpq(ch.mu + ch.kappa + 1)
                coef = -mpq(c1) + mpq(ch.kappa) / 6 + mpq(ch.nu) / 2
                for tau in (1e-3, 1e-2):
                    t = mpmath.mpf(tau)
                    want = t ** (r / 2) / 2 * (mpmath.gamma(r / 2) * mpq(c0)
                                               + mpmath.gamma(r / 2 + 1) * coef * t)
                    got = watson2(poly, ch.mu, ch.kappa, ch.nu, tau)
                    assert abs(got / want - 1) <= 1e-14, (n, tau)
