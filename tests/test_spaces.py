import math
from fractions import Fraction

import pytest

from qflat.spaces import (
    DEFAULT_SCAN_SELECTORS,
    Family,
    RootData,
    chi_params,
    default_scan_spaces,
    eta_radial,
    make_space,
    parse_space,
    sphere_volume,
)


def all_catalog():
    spaces = list(default_scan_spaces())
    spaces += [make_space(Family.COMPLEX_PROJECTIVE, 1),
               make_space(Family.QUATERNIONIC_PROJECTIVE, 1),
               make_space(Family.SPHERE, 6)]
    return spaces


class TestMakeSpace:
    def test_sphere_3(self):
        sp = make_space(Family.SPHERE, 3)
        assert (sp.m, sp.m_beta, sp.m_half) == (3, 2, 0)

    def test_cp2(self):
        sp = make_space(Family.COMPLEX_PROJECTIVE, 2)
        assert (sp.m, sp.m_beta, sp.m_half) == (4, 1, 2)
        assert sp.m == sp.m_beta + sp.m_half + 1

    def test_cayley_plane(self):
        sp = make_space(Family.CAYLEY_PLANE)
        assert (sp.m, sp.m_beta, sp.m_half) == (16, 7, 8)
        assert 7 + 8 + 1 == 16

    def test_hp3(self):
        sp = make_space(Family.QUATERNIONIC_PROJECTIVE, 3)
        assert (sp.m, sp.m_beta, sp.m_half) == (12, 3, 8)

    def test_dimension_identity_everywhere(self):
        for sp in all_catalog():
            assert sp.m == sp.m_beta + sp.m_half + 1
            assert sp.m_half % 2 == 0

    def test_sphere_reduced(self):
        for m in range(2, 10):
            assert make_space(Family.SPHERE, m).m_half == 0

    def test_low_rank_coincidences(self):
        # CP1 is isometric to S2 and HP1 to S4; multiplicities must agree
        cp1 = make_space(Family.COMPLEX_PROJECTIVE, 1)
        s2 = make_space(Family.SPHERE, 2)
        assert (cp1.m, cp1.m_beta, cp1.m_half) == (s2.m, s2.m_beta, s2.m_half)
        hp1 = make_space(Family.QUATERNIONIC_PROJECTIVE, 1)
        s4 = make_space(Family.SPHERE, 4)
        assert (hp1.m, hp1.m_beta, hp1.m_half) == (s4.m, s4.m_beta, s4.m_half)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            make_space(Family.SPHERE, 1)
        with pytest.raises(ValueError):
            make_space(Family.COMPLEX_PROJECTIVE, 0)
        with pytest.raises(ValueError):
            make_space(Family.CAYLEY_PLANE, 3)
        with pytest.raises(ValueError):
            make_space(Family.SPHERE)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            make_space(Family.SPHERE, 3, B=0.0)
        with pytest.raises(ValueError):
            make_space(Family.SPHERE, 3, B=-1.0)

    def test_rejects_inconsistent_record(self):
        with pytest.raises(ValueError):
            RootData(Family.SPHERE, 3, m=3, m_beta=1, m_half=0)
        with pytest.raises(ValueError):
            RootData(Family.SPHERE, 4, m=4, m_beta=1, m_half=2)


def classification(family, size):
    """(size, m, m_beta, m_half) of the rank-1 classification, or the
    message that refuses the family at that size."""
    if family is Family.CAYLEY_PLANE:
        if size in (None, 2):
            return 2, 16, 7, 8
        return "the Cayley plane takes no size parameter"
    if size is None:
        return f"{family.name} requires a size parameter"
    least = 2 if family is Family.SPHERE else 1
    if size < least:
        return f"size {size} below minimum {least} for {family.name}"
    if family is Family.SPHERE:
        return size, size, size - 1, 0
    if family is Family.COMPLEX_PROJECTIVE:
        return size, 2 * size, 1, 2 * size - 2
    return size, 4 * size, 3, 4 * size - 4


class TestFamilyTable:
    @pytest.mark.parametrize("size", [None, *range(21)])
    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.name)
    def test_sizes(self, family, size):
        want = classification(family, size)
        if isinstance(want, str):
            with pytest.raises(ValueError) as exc:
                make_space(family, size)
            assert type(exc.value) is ValueError
            assert str(exc.value) == want
            return
        sp = make_space(family, size)
        assert sp == RootData(family, *want, 1.0)
        assert parse_space(sp.label) == sp


class TestSelectors:
    def test_parse(self):
        assert parse_space("S3").label == "S3"
        assert parse_space("CP2").label == "CP2"
        assert parse_space("HP2").label == "HP2"
        assert parse_space("OP2").label == "OP2"

    def test_rejects_unknown(self):
        # each refusal keeps its exact type and message
        refusals = [(bad, f"unknown space selector: {bad!r}")
                    for bad in ("X3", "s3", "OP3", "OP", "CP", "S", "")]
        refusals += [("CP0", "size 0 below minimum 1 for COMPLEX_PROJECTIVE"),
                     ("S1", "size 1 below minimum 2 for SPHERE")]
        for bad, message in refusals:
            with pytest.raises(ValueError) as exc:
                parse_space(bad)
            assert type(exc.value) is ValueError
            assert str(exc.value) == message

    def test_default_scan(self):
        assert [s.label for s in default_scan_spaces()] == list(DEFAULT_SCAN_SELECTORS)


class TestChiParams:
    def test_s3_n1(self):
        ch = chi_params(parse_space("S3"), 1)
        assert ch.a == 3 and ch.b == -1 and ch.c == Fraction(3, 2)
        assert ch.A == 2 and ch.mu == 1 and ch.kappa == 1
        assert ch.nu == 1 and ch.r == 3

    def test_s3_n2(self):
        ch = chi_params(parse_space("S3"), 2)
        assert ch.a == 4 and ch.b == -2 and ch.c == Fraction(3, 2)

    def test_cp2_n1(self):
        ch = chi_params(parse_space("CP2"), 1)
        assert ch.a == 3 and ch.b == -1 and ch.c == 2
        assert ch.A == 2 and ch.mu == Fraction(3, 2)
        assert ch.kappa == Fraction(3, 2) and ch.nu == Fraction(1, 2)

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            chi_params(parse_space("S3"), -1)

    def test_parameterization_structure(self):
        # a = A + n and b = -n across the catalog
        for sp in all_catalog():
            for n in range(21):
                ch = chi_params(sp, n)
                assert ch.a == ch.A + n
                assert ch.b == -n

    def test_structural_identities(self):
        # c = (mu+kappa+1)/2 and A = nu+kappa, exactly
        for sp in all_catalog():
            ch = chi_params(sp, 0)
            assert ch.c == (ch.mu + ch.kappa + 1) / 2
            assert ch.A == ch.nu + ch.kappa
            assert ch.r == sp.m


class TestEtaRadial:
    def test_limit_at_zero(self):
        for sp in all_catalog():
            assert eta_radial(sp, 0.0) == 2.0 ** sp.m

    def test_s3_closed_value(self):
        sp = parse_space("S3")
        expected = 8.0 * math.sinh(1.0) ** 2 * math.cosh(1.0) ** 2
        assert eta_radial(sp, 1.0) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(26.3082, abs=5e-5)

    def test_s2_closed_value(self):
        sp = parse_space("S2")
        expected = 4.0 * math.sinh(1.0) * math.cosh(1.0)
        assert eta_radial(sp, 1.0) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(7.2537, abs=5e-5)

    def test_even(self):
        for sp in (parse_space("S3"), parse_space("OP2"), parse_space("CP2", B=0.5)):
            for rho in (1e-9, 1e-5, 0.3, 1.7):
                assert eta_radial(sp, rho) == eta_radial(sp, -rho)

    def test_series_matches_direct_near_switch(self):
        sp = parse_space("HP2")
        for rho in (9.9e-5, 1.01e-4):
            direct = (2.0 ** sp.m * (math.sinh(rho) / rho) ** (sp.m - 1)
                      * math.cosh(rho) ** sp.m_beta)
            assert eta_radial(sp, rho) == pytest.approx(direct, rel=1e-13)


class TestRadialReduction:
    @pytest.mark.parametrize("label", DEFAULT_SCAN_SELECTORS)
    @pytest.mark.parametrize("B", [1.0, 0.5])
    def test_weight_functions_agree(self, label, B):
        # rho^(m-1) sqrt(eta(rho)) d rho must transform, under t = rho B,
        # into (2^(m/2)/B^m) t^((m-1)/2) sinh(t)^((m-1)/2) cosh(t)^(m_beta/2) dt
        sp = parse_space(label, B=B)
        for i in range(1, 11):
            rho = 0.3 * i
            w1 = rho ** (sp.m - 1) * math.sqrt(eta_radial(sp, rho))
            t = rho * B
            w2 = (2.0 ** (sp.m / 2.0) / B ** sp.m
                  * t ** ((sp.m - 1) / 2.0)
                  * math.sinh(t) ** ((sp.m - 1) / 2.0)
                  * math.cosh(t) ** (sp.m_beta / 2.0))
            assert w1 == pytest.approx(B * w2, rel=1e-12)


class TestSphereVolume:
    def test_known_values(self):
        assert sphere_volume(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
        assert sphere_volume(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
        assert sphere_volume(4) == pytest.approx(2.0 * math.pi ** 2, rel=1e-15)

    def test_against_gamma(self):
        # sphere_volume is this formula in floats, so check it in 30 digits
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for m in range(1, 17):
                half = mpmath.mpf(m) / 2
                ref = 2 * mpmath.pi ** half / mpmath.gamma(half)
                assert abs(sphere_volume(m) / ref - 1) <= 1e-15, m

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            sphere_volume(0)
