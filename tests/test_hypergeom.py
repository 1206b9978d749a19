from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflat.hypergeom import (
    RationalPoly,
    closed_coeffs,
    hypergeom_poly,
)
from qflat.spaces import chi_params, default_scan_spaces


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

    def test_linear_coefficient_is_the_central_rate(self):
        # A = nu + kappa makes c_{n,1} the linear coefficient that centrality
        # forces, -2n(nu+kappa+n)/(mu+kappa+1), for every space and n; the
        # centrality obstruction lives in the top coefficient
        for sp in default_scan_spaces():
            ch = chi_params(sp, 0)
            for n in range(1, 11):
                c1, _ = closed_coeffs(ch.A, n, ch.c)
                forced = -2 * n * (ch.nu + ch.kappa + n) / (ch.mu + ch.kappa + 1)
                assert c1 == forced, (sp.label, n)


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


class TestRationalPoly:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RationalPoly(())

    def test_exact_eval(self):
        p = RationalPoly((Fraction(1), Fraction(-2), Fraction(16, 3)))
        assert p.eval_exact(Fraction(1, 2)) == 1 - 1 + Fraction(4, 3)
