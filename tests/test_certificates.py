"""The exact certificates against the step-by-step ``Fraction`` formulas.

``closed_coeffs`` and ``centrality_check`` form each side of a certificate
as one integer product, normalised once.  The formulas below build the same
values one ``Fraction`` operation at a time; they are the reference that
every value, string and error message must match.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflat import flatness
from qflat.flatness import (
    CentralityCheck,
    RationalityArgument,
    SqrtRational,
    centrality_check,
    describe_exact,
    rationality_argument,
    sqrt_rational,
)
from qflat.hypergeom import closed_coeffs
from qflat.spaces import Family, chi_params, default_scan_spaces, make_space, parse_space

# every space of dimension m <= 64
FAMILIES = {
    "S": [make_space(Family.SPHERE, m) for m in range(2, 65)],
    "CP": [make_space(Family.COMPLEX_PROJECTIVE, k) for k in range(1, 33)],
    "HP": [make_space(Family.QUATERNIONIC_PROJECTIVE, k) for k in range(1, 17)],
    "OP": [make_space(Family.CAYLEY_PLANE)],
}
N_MAX = 16


def ref_closed_coeffs(A, n, c):
    if n < 0:
        raise ValueError(f"degree index must be nonnegative, got {n}")
    A = Fraction(A)
    cf = Fraction(c)
    if cf.denominator == 1 and cf <= 0:
        raise ValueError(f"c must not be a nonpositive integer, got {cf}")
    if n == 0:
        return None, Fraction(1)
    c_n1 = Fraction(A + n) * (-n) / cf
    top = Fraction(-1) ** n
    for j in range(n):
        top *= A + n + j
        top /= cf + j
    return c_n1, top


def ref_pow_half_integer(base, expo):
    if base <= 0:
        raise ValueError(f"base must be positive, got {base}")
    expo = Fraction(expo)
    if expo.denominator == 1:
        return SqrtRational(base ** int(expo), 1)
    if expo.denominator != 2:
        raise ValueError(f"exponent must be integer or half-integer, got {expo}")
    k = expo - Fraction(1, 2)
    p, q = base.numerator, base.denominator
    return sqrt_rational(base ** int(k) / q, p * q)


def ref_centrality(A, c, mu, n_set):
    out = []
    for n in sorted(set(int(n) for n in n_set)):
        if n < 1:
            raise ValueError(f"centrality indices must be positive, got {n}")
        lhs = abs(ref_closed_coeffs(A, n, c)[1])
        rho = ref_pow_half_integer(A / (A + 2 * n), mu)
        rhs = SqrtRational(rho.rat * Fraction(4) ** n, rho.radicand)
        passed = rhs.is_rational and rhs.rat == lhs
        out.append(CentralityCheck(n=n, lhs=lhs, rhs=rhs, passed=passed))
    return out


def ref_rationality(A, c, mu):
    n = 2 * int(A)
    chk = ref_centrality(A, c, mu, [n])[0]
    rational = chk.rhs.is_rational
    return RationalityArgument(
        n_used=n, lhs=chk.lhs, rhs=chk.rhs, rhs_rational=rational,
        conclusion="test passes to next stage" if rational else "m must be odd",
    )


def outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def same_check(new: CentralityCheck, ref: CentralityCheck):
    assert new == ref
    assert type(new.lhs) is Fraction and type(new.rhs.rat) is Fraction
    assert describe_exact(new.lhs) == describe_exact(ref.lhs)
    assert describe_exact(new.rhs) == describe_exact(ref.rhs)


@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestCatalog:
    def test_closed_coeffs(self, family):
        for sp in FAMILIES[family]:
            ch = chi_params(sp, 0)
            for n in range(N_MAX + 1):
                new = closed_coeffs(ch.A, n, ch.c)
                assert new == ref_closed_coeffs(ch.A, n, ch.c), (sp.label, n)
                assert all(type(v) is Fraction for v in new if v is not None)

    def test_centrality(self, family):
        for sp in FAMILIES[family]:
            ch = chi_params(sp, 0)
            new = centrality_check(sp, range(1, N_MAX + 1))
            ref = ref_centrality(ch.A, ch.c, ch.mu, range(1, N_MAX + 1))
            assert len(new) == N_MAX
            for a, b in zip(new, ref):
                same_check(a, b)

    def test_rationality(self, family):
        for sp in FAMILIES[family]:
            ch = chi_params(sp, 0)
            assert rationality_argument(sp) == ref_rationality(ch.A, ch.c, ch.mu)


RATIONALS = st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3]))


@settings(max_examples=200, deadline=None)
@given(A=RATIONALS, n=st.integers(0, 12), c=RATIONALS)
def test_closed_coeffs_any_sign(A, n, c):
    # negative A and c, and c a nonpositive integer, off the catalog
    assert outcome(closed_coeffs, A, n, c) == outcome(ref_closed_coeffs, A, n, c)


@pytest.mark.parametrize("A, n, c", [
    (2, -1, Fraction(3, 2)),
    (2, 3, 0),
    (2, 3, -2),
    (2, 0, Fraction(-4)),
    (Fraction(1, 2), 2, -1),
    (2.5, 3, -2.0),
    (2.5, 3, 1.5),
    (2, 4, Fraction(3, 2)),
])
def test_closed_coeffs_errors_and_coercions(A, n, c):
    new = outcome(closed_coeffs, A, n, c)
    assert new == outcome(ref_closed_coeffs, A, n, c)
    if not isinstance(new[0], type):
        assert all(type(v) is Fraction for v in new if v is not None)


@pytest.mark.parametrize("n_set", [[0], [-1, 3], [2, 0, 5], []])
def test_centrality_index_errors(n_set):
    s3 = parse_space("S3")
    ch = chi_params(s3, 0)
    assert outcome(centrality_check, s3, n_set) == outcome(
        ref_centrality, ch.A, ch.c, ch.mu, n_set)


@pytest.mark.parametrize("fields", [
    {"c": Fraction(-1)},                  # c a nonpositive integer
    {"c": Fraction(0)},
    {"A": Fraction(-3, 2)},               # base A/(A+2n) = -3 at n = 1
    {"A": Fraction(0)},                   # base 0
    {"mu": Fraction(1, 3)},               # neither integer nor half-integer
    {"A": Fraction(-5), "c": Fraction(-5, 2)},  # p, q < 0: the base is 5/3
    {"mu": Fraction(-3, 2)},              # negative exponents
    {"mu": Fraction(-2)},
])
@pytest.mark.parametrize("label", ["S2", "S3", "CP2"])
def test_centrality_off_the_catalog(monkeypatch, fields, label):
    # parameters no RootData yields, through a substituted chi_params
    sp = parse_space(label)
    ch = chi_params(sp, 0)._replace(**fields)
    monkeypatch.setattr(flatness, "chi_params", lambda space, n: ch)
    new = outcome(centrality_check, sp, [1, 2, 3])
    ref = outcome(ref_centrality, ch.A, ch.c, ch.mu, [1, 2, 3])
    if isinstance(ref, tuple):
        assert new == ref
    else:
        for a, b in zip(new, ref, strict=True):
            same_check(a, b)


def test_centrality_zero_base_denominator(monkeypatch):
    # A + 2n = 0 at n = 1: a ZeroDivisionError as before, whose message is
    # Fraction's own and names the numerator it was handed
    sp = parse_space("S3")
    ch = chi_params(sp, 0)._replace(A=Fraction(-2))
    monkeypatch.setattr(flatness, "chi_params", lambda space, n: ch)
    with pytest.raises(ZeroDivisionError):
        centrality_check(sp, [1])
    with pytest.raises(ZeroDivisionError):
        ref_centrality(ch.A, ch.c, ch.mu, [1])


def test_certificates_build_few_fractions(monkeypatch):
    # one Fraction per side of a certificate, plus the chi_params of each
    # call; the step-by-step formulas built about 36 per certificate
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    spaces = default_scan_spaces()
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    checks = [chk for sp in spaces for chk in centrality_check(sp, range(1, 6))]
    monkeypatch.undo()
    assert len(checks) == 45
    assert len(built) <= 4 * len(checks)
