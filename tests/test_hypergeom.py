import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflat.hypergeom import (
    RationalPoly,
    closed_coeffs,
    eval_fchi,
    horner_compensated,
    hypergeom_poly,
)
from qflat.spaces import chi_params, default_scan_spaces, parse_space


class TestHypergeomPoly:
    def test_degree_zero_is_one(self):
        assert hypergeom_poly(2, 0, Fraction(3, 2)).coeffs == (Fraction(1),)

    def test_s3_linear(self):
        # F(3, -1, 3/2, x) = 1 - 2x
        p = hypergeom_poly(2, 1, Fraction(3, 2))
        assert p.coeffs == (Fraction(1), Fraction(-2))

    def test_s3_quadratic_top(self):
        # gamma-ratio oracle: Gamma(6)Gamma(3/2) / (Gamma(4)Gamma(7/2))
        # = (4*5) * 1/((3/2)(5/2)) = 20 * 4/15 = 16/3
        oracle = Fraction(20) * Fraction(4, 15)
        p = hypergeom_poly(2, 2, Fraction(3, 2))
        assert p.coeffs[2] == oracle == Fraction(16, 3)

    def test_constant_term_is_one(self):
        for sp in default_scan_spaces():
            ch = chi_params(sp, 0)
            for n in range(9):
                assert hypergeom_poly(ch.A, n, ch.c).coeffs[0] == 1

    def test_degree_exactness(self):
        for sp in default_scan_spaces():
            ch = chi_params(sp, 0)
            for n in range(9):
                p = hypergeom_poly(ch.A, n, ch.c)
                assert p.degree == n
                assert p.coeffs[-1] != 0

    def test_alternating_signs(self):
        # (a+j) > 0, (b+j) < 0, (c+j) > 0 for j < n, so signs alternate
        p = hypergeom_poly(11, 6, 8)
        for j, c in enumerate(p.coeffs):
            assert (c > 0) == (j % 2 == 0)

    def test_rejects_nonpositive_integer_c(self):
        for c in (0, -1, -2):
            with pytest.raises(ValueError):
                hypergeom_poly(2, 1, c)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            hypergeom_poly(2, -1, Fraction(3, 2))


class TestClosedCoeffs:
    def test_n0(self):
        assert closed_coeffs(2, 0, Fraction(3, 2)) == (None, Fraction(1))

    def test_s3_n1(self):
        c1, top = closed_coeffs(2, 1, Fraction(3, 2))
        assert c1 == -2 and top == -2
        # cross-consistency with the central-sequence formula
        # -2n(nu+kappa+n)/(mu+kappa+1) at nu=kappa=mu=1, n=1
        assert c1 == Fraction(-2 * 1 * (1 + 1 + 1), 1 + 1 + 1)

    def test_s3_n2_top(self):
        _, top = closed_coeffs(2, 2, Fraction(3, 2))
        assert top == Fraction(16, 3)

    def test_matches_recurrence_on_catalog(self):
        for sp in default_scan_spaces():
            ch = chi_params(sp, 0)
            for n in range(1, 9):
                p = hypergeom_poly(ch.A, n, ch.c)
                c1, top = closed_coeffs(ch.A, n, ch.c)
                assert p.coeffs[1] == c1
                assert p.coeffs[n] == top


@settings(max_examples=60, deadline=None)
@given(
    a_num=st.integers(min_value=1, max_value=24),
    a_den=st.sampled_from([1, 2]),
    n=st.integers(min_value=0, max_value=8),
    c_num=st.integers(min_value=1, max_value=32),
    c_den=st.sampled_from([1, 2]),
)
def test_property_recurrence_vs_closed(a_num, a_den, n, c_num, c_den):
    A = Fraction(a_num, a_den)
    c = Fraction(c_num, c_den)
    p = hypergeom_poly(A, n, c)
    assert p.coeffs[0] == 1
    assert p.degree == n
    c1, top = closed_coeffs(A, n, c)
    assert p.coeffs[n] == top
    if n >= 1:
        assert p.coeffs[1] == c1


class TestEvaluation:
    def test_f0_is_constant_one(self):
        sp = parse_space("S3")
        for t in (0.0, 0.5, 3.0):
            assert eval_fchi(sp, 0, t) == 1.0

    def test_f0_needs_no_sinh(self):
        # F_0 = 1 far beyond the t where sinh^2 t leaves the double range,
        # while F_1 of S3, cosh 2t, is out of range with it (5e308 at 356)
        for sp in default_scan_spaces():
            for t in (356.0, -356.0, 720.0, 1e6):
                assert eval_fchi(sp, 0, t) == 1.0
        with pytest.raises(OverflowError):
            eval_fchi(parse_space("S3"), 1, 356.0)

    def test_s3_n1_is_cosh2t(self):
        sp = parse_space("S3")
        for t in (0.1, 1.0, 2.5):
            assert eval_fchi(sp, 1, t) == pytest.approx(math.cosh(2 * t), rel=1e-14)
        assert eval_fchi(sp, 1, 1.0) == pytest.approx(3.7622, abs=5e-5)

    def test_value_one_at_origin(self):
        for sp in default_scan_spaces():
            for n in range(5):
                assert eval_fchi(sp, n, 0.0) == 1.0

    def test_even_in_t(self):
        for label in ("S2", "CP2", "OP2"):
            sp = parse_space(label)
            for n in (1, 3):
                for t in (0.3, 1.2, 2.0):
                    assert eval_fchi(sp, n, t) == eval_fchi(sp, n, -t)

    def test_float_vs_exact(self):
        for sp in default_scan_spaces():
            ch = chi_params(sp, 0)
            for n in range(9):
                p = hypergeom_poly(ch.A, n, ch.c)
                for x in (0, -1, -4):
                    exact = p.eval_exact(x)
                    got = p.eval_float(float(x))
                    if exact == 0:
                        assert got == 0.0
                    else:
                        rel = abs(got - float(exact)) / abs(float(exact))
                        assert rel <= 1e-13

    def test_horner_plain_cases(self):
        assert horner_compensated([1.0], 5.0) == 1.0
        assert horner_compensated([1.0, -2.0], 3.0) == -5.0


class TestRationalPoly:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RationalPoly(())

    def test_exact_eval(self):
        p = RationalPoly((Fraction(1), Fraction(-2), Fraction(16, 3)))
        assert p.eval_exact(Fraction(1, 2)) == 1 - 1 + Fraction(4, 3)
