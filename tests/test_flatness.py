import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qflat import flatness
from qflat.flatness import (
    FAIL_DEVIATION,
    PASS_DEVIATION,
    CurvatureGrid,
    FieldVerdict,
    FlatVerdict,
    ProjectiveVerdict,
    SqrtRational,
    centrality_check,
    curvature_samples,
    describe_exact,
    flat_test,
    projective_test,
    rationality_argument,
    sqrt_rational,
    theorem_expected_verdict,
    theorem_scan,
)
from qflat.quadrature import MAX_TAU, MIN_TAU, TOL_MIN, CancellationWarning
from qflat.spaces import Family, RootData, default_scan_spaces, parse_space

GRID = (0.25, 0.5, 1.0, 2.0, 4.0)


class TestSqrtRational:
    def test_normalization(self):
        v = sqrt_rational(Fraction(1), 12)
        assert v.rat == 2 and v.radicand == 3

    def test_rationality(self):
        assert sqrt_rational(Fraction(3, 2), 9).is_rational
        assert not sqrt_rational(Fraction(1), 2).is_rational

    def test_float_value(self):
        assert float(sqrt_rational(Fraction(4, 3), 3)) == pytest.approx(
            4.0 / math.sqrt(3.0), rel=1e-15
        )

    def test_describe(self):
        assert describe_exact(Fraction(16, 3)) == "16/3"
        assert describe_exact(sqrt_rational(Fraction(1), 2)) == "irrational:sqrt(2)"
        assert describe_exact(sqrt_rational(Fraction(4, 3), 3)) == (
            "irrational:(4/3)*sqrt(3)"
        )
        assert describe_exact(sqrt_rational(Fraction(3), 5)) == "irrational:3*sqrt(5)"

    def test_equality(self):
        assert sqrt_rational(Fraction(3, 2), 4).equals(Fraction(3))
        assert not sqrt_rational(Fraction(1), 2).equals(Fraction(1))


class TestCentrality:
    def test_s3_first_two(self):
        chks = centrality_check(parse_space("S3"), [1, 2])
        assert chks[0].lhs == 2 and chks[0].rhs.equals(Fraction(2)) and chks[0].passed
        assert chks[1].lhs == Fraction(16, 3)
        assert chks[1].rhs.equals(Fraction(16, 3)) and chks[1].passed

    def test_s3_closed_form_all_n(self):
        # independent closed form for the 3-sphere: both sides are 4^n/(n+1)
        chks = centrality_check(parse_space("S3"), range(1, 11))
        for chk in chks:
            assert chk.passed
            assert chk.lhs == Fraction(4) ** chk.n / (chk.n + 1)

    def test_s2_fails_irrationally(self):
        chk = centrality_check(parse_space("S2"), [1])[0]
        assert chk.lhs == 2
        assert not chk.rhs.is_rational
        assert float(chk.rhs) == pytest.approx(4.0 / math.sqrt(3.0), rel=1e-14)
        assert not chk.passed

    def test_cp2_fails_with_sqrt2(self):
        chk = centrality_check(parse_space("CP2"), [1])[0]
        assert chk.lhs == Fraction(3, 2)
        assert chk.rhs.rat == 1 and chk.rhs.radicand == 2
        assert not chk.passed

    def test_s5_fails_rationally(self):
        # both sides rational but unequal: 2 vs 16/9
        chk = centrality_check(parse_space("S5"), [1])[0]
        assert chk.lhs == 2
        assert chk.rhs.is_rational and chk.rhs.rat == Fraction(16, 9)
        assert not chk.passed

    def test_all_non_s3_fail_at_n1(self):
        for sp in default_scan_spaces():
            chk = centrality_check(sp, [1])[0]
            assert chk.passed == (sp.label == "S3")

    def test_rejects_nonpositive_indices(self):
        with pytest.raises(ValueError):
            centrality_check(parse_space("S3"), [0])


class TestRationalityArgument:
    def test_s3_no_obstruction(self):
        arg = rationality_argument(parse_space("S3"))
        assert arg.n_used == 4
        assert arg.rhs_rational
        assert arg.conclusion == "test passes to next stage"
        # the 3-sphere even satisfies the full identity at n = 2A
        assert arg.rhs.equals(arg.lhs)

    def test_cp2_obstruction(self):
        arg = rationality_argument(parse_space("CP2"))
        assert arg.n_used == 4
        assert not arg.rhs_rational
        assert arg.conclusion == "m must be odd"
        # rhs is 4^(2A) 5^(-mu) with mu = 3/2
        assert arg.rhs.radicand == 5

    def test_s4_obstruction(self):
        arg = rationality_argument(parse_space("S4"))
        assert not arg.rhs_rational
        assert arg.conclusion == "m must be odd"

    def test_even_m_always_obstructed(self):
        for sp in default_scan_spaces():
            arg = rationality_argument(sp)
            assert arg.rhs_rational == (sp.m % 2 == 1)

    def test_scan_takes_the_certificate_from_its_checks(self):
        # 2A = 4 for S3: within n_max = 4 the scan reuses the n = 4 check,
        # and with n_max = 2 it computes it; both give the public argument
        s3 = parse_space("S3")
        for n_max in (4, 2):
            rep = theorem_scan([s3], n_max=n_max, tau_grid=(1.0,))[0]
            assert rep.rationality == rationality_argument(s3)
            reused = rep.rationality.lhs is rep.centrality[-1].lhs
            assert reused == (n_max == 4)

    def test_n1_check_already_refutes_every_even_m(self):
        # why theorem_scan never takes its witness from this argument: the
        # scan always checks n = 1, which refutes every catalog space but S3;
        # off the catalog too it fails for every even m, and for odd m the
        # argument's right side is rational
        count = 0
        for m in range(2, 17):
            for m_half in range(0, m, 2):
                # every multiplicity pair RootData admits, not only the catalog's
                family = (Family.SPHERE if m_half == 0
                          else Family.COMPLEX_PROJECTIVE)
                sp = RootData(family, m, m, m - 1 - m_half, m_half)
                if m % 2 == 0:
                    assert not centrality_check(sp, [1])[0].passed, (m, m_half)
                else:
                    assert rationality_argument(sp).rhs_rational, (m, m_half)
                count += 1
        assert count == 71


class TestDimensionEquation:
    def test_g_values(self):
        # for odd m, S^m at n = 1 reads 2 = 4/g(m), with
        # g(m) = ((m+1)/(m-1))^((m-1)/2)
        for m in range(3, 100, 2):
            chk = centrality_check(parse_space(f"S{m}"), [1])[0]
            g = Fraction(m + 1, m - 1) ** ((m - 1) // 2)
            assert chk.lhs == 2 and chk.rhs.equals(4 / g), m
        s3, s5 = (centrality_check(parse_space(s), [1])[0] for s in ("S3", "S5"))
        assert s3.rhs.equals(2)                  # g(3) = 2: the flat S3
        assert s5.rhs.equals(Fraction(16, 9))    # g(5) = 9/4 > 2

    def test_solution_set(self):
        # every sphere S2..S99: only S3 passes n = 1; the even ones fail by
        # an irrational right side, the other odd ones by a rational one
        passing = []
        for m in range(2, 100):
            chk = centrality_check(parse_space(f"S{m}"), [1])[0]
            assert chk.rhs.is_rational == (m % 2 == 1), m
            if chk.passed:
                passing.append(m)
        assert passing == [3]


class TestCurvatureSamples:
    def test_s3_constant_row(self):
        grid = curvature_samples(parse_space("S3"), 2, (1.0,), 1e-10)
        for row in grid.values:
            assert row[0] == pytest.approx(-1.5, abs=1e-8)

    def test_s2_gap_at_tau_one(self):
        # reference gap 9.923185768e-3 from 30-digit quadrature
        grid = curvature_samples(parse_space("S2"), 1, (1.0,), 1e-10)
        gap = abs(grid.values[0][0] - grid.values[1][0])
        assert gap > 1e-3
        assert gap == pytest.approx(9.923185768e-3, abs=1e-8)

    def test_single_row(self):
        grid = curvature_samples(parse_space("CP2"), 0, (0.5, 1.0), 1e-10)
        assert len(grid.values) == 1 and len(grid.values[0]) == 2

    def test_rejects_bad_grid(self):
        sp = parse_space("S3")
        with pytest.raises(ValueError):
            curvature_samples(sp, 1, (), 1e-10)
        with pytest.raises(ValueError):
            curvature_samples(sp, 1, (-1.0,), 1e-10)
        with pytest.raises(ValueError):
            curvature_samples(sp, 1, (500.0,), 1e-10)


    def test_rejects_grid_below_tau_floor(self):
        # the box applies to B^2 tau, the width the quadrature sees
        with pytest.raises(ValueError):
            curvature_samples(parse_space("S3"), 1, (1e-31,), 1e-10)
        with pytest.raises(ValueError):
            curvature_samples(parse_space("S3", B=0.1), 1, (1e-29,), 1e-10)
        grid = curvature_samples(parse_space("S3", B=0.1), 1, (1e-28,), 1e-10)
        assert not grid.failures

class TestProjectiveTest:
    def test_s3_consistent(self):
        verdict, dev = projective_test(parse_space("S3"), 5, GRID, 1e-10)
        assert verdict is ProjectiveVerdict.CONSISTENT
        assert dev <= PASS_DEVIATION

    def test_s2_refuted(self):
        verdict, dev = projective_test(parse_space("S2"), 3, (0.5, 1.0, 2.0), 1e-10)
        assert verdict is ProjectiveVerdict.NOT_PROJECTIVELY_FLAT
        assert dev >= FAIL_DEVIATION

    def test_cp2_refuted(self):
        verdict, _ = projective_test(parse_space("CP2"), 3, (0.5, 1.0, 2.0), 1e-10)
        assert verdict is ProjectiveVerdict.NOT_PROJECTIVELY_FLAT

    def test_requires_two_isotypes(self):
        with pytest.raises(ValueError):
            projective_test(parse_space("S3"), 0, GRID)


class TestFlatTest:
    def test_s3_corrected(self):
        verdict, resid = flat_test(parse_space("S3"), 3, (0.5, 1.0, 2.0), 1e-10)
        assert verdict is FlatVerdict.FLAT
        assert resid <= PASS_DEVIATION

    def test_s2_not_flat(self):
        verdict, _ = flat_test(parse_space("S2"), 2, (1.0,), 1e-10)
        assert verdict is FlatVerdict.NOT_FLAT


class TestTheoremScan:
    def test_full_pattern(self):
        reports = theorem_scan(default_scan_spaces(), n_max=3,
                               tau_grid=(0.5, 1.0), tol=1e-10)
        for rep in reports:
            assert rep.verdict is theorem_expected_verdict(rep.space)
            if rep.space.label == "S3":
                assert rep.exact_witness is None
                assert rep.prefactor_residual <= PASS_DEVIATION
            else:
                assert rep.exact_witness is not None
                assert rep.exact_witness.n == 1
                assert not rep.exact_witness.passed

    def test_exact_numeric_coherence(self):
        # a failed certificate at n must come with a numeric refutation on a
        # grid containing tau = 1 reaching at least that n
        for sp in default_scan_spaces():
            chk = centrality_check(sp, [1])[0]
            if chk.passed:
                continue
            verdict, dev = projective_test(sp, 1, (1.0,), 1e-10)
            assert verdict is ProjectiveVerdict.NOT_PROJECTIVELY_FLAT
            assert dev >= FAIL_DEVIATION

    VERDICT_CASES = [
        ("S3", 0.0, 0.0, None, FieldVerdict.FLAT),
        ("S3", 1e-2, 0.0, None, FieldVerdict.PROJECTIVELY_FLAT_ONLY),
        ("S3", 1e-5, 0.0, None, FieldVerdict.INCONCLUSIVE),
        ("S3", 0.0, 5e-6, None, FieldVerdict.INCONCLUSIVE),
        ("S3", 0.0, 5e-3, None, FieldVerdict.NOT_PROJECTIVELY_FLAT),
        ("S3", math.nan, 0.0, None, FieldVerdict.INCONCLUSIVE),
        # the exact witness outranks a numerically flat grid
        ("CP2", 0.0, 0.0, None, FieldVerdict.NOT_PROJECTIVELY_FLAT),
        # one failed sample: its column leaves the spread, but the bump of
        # another sample in it still counts in the residual
        ("S3", 0.0, 0.0, 1e-2, FieldVerdict.PROJECTIVELY_FLAT_ONLY),
    ]

    @pytest.mark.parametrize(
        "label, offset, step, hole, verdict", VERDICT_CASES,
        ids=["-".join([lbl, str(off), str(st)] + ["hole"] * (h is not None)
                      + [v.value]) for lbl, off, st, h, v in VERDICT_CASES])
    def test_verdict_table(self, monkeypatch, label, offset, step, hole,
                           verdict):
        # crafted grids: row n is the flat curvature -(m/2)/tau^2 plus
        # offset + n * step, so at n_max 2 the prefactor residual is
        # offset + 2 * step and the spread across n is 2 * step; a ``hole``
        # fails sample (1, 0) and adds itself to sample (2, 0)
        def samples(space, n_max, tau_grid, tol):
            rows = [[-0.5 * space.m / (t * t) + offset + n * step
                     for t in tau_grid] for n in range(n_max + 1)]
            if hole is not None:
                rows[1][0] = math.nan
                rows[2][0] += hole
            return CurvatureGrid(space, tau_grid,
                                 tuple(tuple(row) for row in rows), ())

        monkeypatch.setattr(flatness, "curvature_samples", samples)
        rep = theorem_scan([parse_space(label)], n_max=2, tau_grid=GRID)[0]
        assert rep.verdict is verdict
        assert (rep.exact_witness is not None) == (label == "CP2")
        assert rep.prefactor_residual == pytest.approx(
            offset + 2 * step + (hole or 0.0), abs=1e-12, nan_ok=True)
        assert rep.max_chi_deviation == pytest.approx(
            math.nan if math.isnan(offset) else 2 * step, abs=1e-12,
            nan_ok=True)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            theorem_scan([])

    def test_reproducible(self):
        spaces = [parse_space("S2"), parse_space("S3")]
        a = theorem_scan(spaces, n_max=2, tau_grid=(0.5, 1.0), tol=1e-10)
        b = theorem_scan(spaces, n_max=2, tau_grid=(0.5, 1.0), tol=1e-10)
        assert a == b

    @pytest.mark.parametrize("B", [0.5, 2.0])
    def test_scale_invariance_of_verdicts(self, B):
        # rescaling the root length moves tau = B^2 Im s and multiplies the
        # curvature by B^4; verdicts must not move
        for label in ("S2", "S3", "CP2"):
            sp = parse_space(label, B=B)
            rep = theorem_scan([sp], n_max=5, tau_grid=GRID, tol=1e-10)[0]
            assert rep.verdict is theorem_expected_verdict(sp)

    def test_verdict_invariants(self):
        reports = theorem_scan(default_scan_spaces(), n_max=2,
                               tau_grid=(1.0,), tol=1e-10)
        for rep in reports:
            if rep.verdict is FieldVerdict.NOT_PROJECTIVELY_FLAT:
                assert (rep.exact_witness is not None
                        or rep.max_chi_deviation > FAIL_DEVIATION)
            if rep.verdict in (FieldVerdict.FLAT,
                               FieldVerdict.PROJECTIVELY_FLAT_ONLY):
                assert all(c.passed for c in rep.centrality)


class TestNumericRouteDefects:
    """Two regions of the box where the corridor, an absolute test on the
    curvature samples, gives the numeric route a wrong verdict; each test
    flips when its ROADMAP item lands."""

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 13: the corridor is absolute, and S3's curvature "
        "-1.5/tau^2, right to about 10 eps, spreads by more than 1e-3 below "
        "tau = 1e-7, so the one flat space is refuted"))
    def test_s3_is_not_refuted_at_small_tau(self):
        sp, taus = parse_space("S3"), (1e-8, 1e-7)
        flat, resid = flat_test(sp, 5, taus)
        projective, dev = projective_test(sp, 5, taus)
        assert flat is not FlatVerdict.NOT_FLAT, resid
        assert projective is not ProjectiveVerdict.NOT_PROJECTIVELY_FLAT, dev

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP items 13 and 2: the true isotype spread falls like 1/tau^3, "
        "below the corridor's 1e-6 pass line at tau 100 to 400, so every "
        "non-flat default space reads consistent"))
    def test_no_non_flat_space_is_consistent_at_large_tau(self):
        consistent = []
        for sp in default_scan_spaces():
            if sp.label == "S3":
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CancellationWarning)
                verdict, dev = projective_test(sp, 3, (100.0, 400.0))
            if verdict is ProjectiveVerdict.CONSISTENT:
                consistent.append((sp.label, dev))
        assert not consistent, consistent


# the 26 catalog spaces with m <= 16 (CP1 and HP1 repeat S2 and S4)
CATALOG_M16 = (tuple(f"S{m}" for m in range(2, 17)) + tuple(f"CP{k}" for k in range(2, 9))
               + ("HP2", "HP3", "HP4", "OP2"))
# log-uniform over the whole tau box; exp(log x) may round past either end
BOX_TAU = st.floats(math.log(MIN_TAU), math.log(MAX_TAU)).map(
    lambda x: min(max(math.exp(x), MIN_TAU), MAX_TAU))


def numeric_verdict(space, n_max, taus, tol):
    """The verdict of the numeric route alone, the two corridors combined as
    in the scan: the flat test decides only a consistent isotype spread."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CancellationWarning)
        projective, _ = projective_test(space, n_max, taus, tol)
        flat, _ = flat_test(space, n_max, taus, tol)
    if projective is ProjectiveVerdict.NOT_PROJECTIVELY_FLAT:
        return FieldVerdict.NOT_PROJECTIVELY_FLAT
    if projective is ProjectiveVerdict.INCONCLUSIVE:
        return FieldVerdict.INCONCLUSIVE
    return {FlatVerdict.FLAT: FieldVerdict.FLAT,
            FlatVerdict.NOT_FLAT: FieldVerdict.PROJECTIVELY_FLAT_ONLY,
            FlatVerdict.INCONCLUSIVE: FieldVerdict.INCONCLUSIVE}[flat]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP items 13 and 2: the corridor is absolute, so the numeric route "
    "refutes S3 at tau near 1e-7 and below, and calls other spaces flat at "
    "tau 100 to 400, where their true isotype spread falls below 1e-6"))
@settings(max_examples=100, deadline=None)
@given(label=st.sampled_from(CATALOG_M16), taus=st.lists(BOX_TAU, min_size=2, max_size=4),
       n_max=st.integers(1, 16))
@example(label="S3", taus=[1e-8, 1e-7], n_max=5)
@example(label="S2", taus=[100.0, 400.0], n_max=3)
def test_numeric_verdict_is_the_theorem_or_inconclusive(label, taus, n_max):
    # the theorem as a property of the numeric route, over the whole box at
    # tol 1e-10; the examples are TestNumericRouteDefects' two cases
    sp = parse_space(label)
    verdict = numeric_verdict(sp, n_max, taus, 1e-10)
    assert verdict in (theorem_expected_verdict(sp), FieldVerdict.INCONCLUSIVE), verdict


class TestRetry:
    """No numeric verdict retries: each computes one curvature grid, at the
    tol it was given, and an inconclusive deviation stays inconclusive."""

    IN_GAP = 5e-5  # row offset step; deviation and residual 1e-4, in the gap
    DECISIVE = 1e-9  # deviation and residual 2e-9, below PASS_DEVIATION

    @pytest.fixture
    def fake(self, monkeypatch):
        # call k returns a grid whose row n is the flat S3 curvature
        # -m/(2 tau^2) shifted by n * steps[k] (the last step repeats), so the
        # isotype spread and the prefactor residual are both 2 * step at n_max 2
        calls, steps = [], []

        def samples(space, n_max, tau_grid, tol):
            calls.append(tol)
            step = steps[min(len(calls), len(steps)) - 1]
            taus = tuple(float(t) for t in tau_grid)
            rows = tuple(tuple(-0.5 * space.m / (t * t) + n * step for t in taus)
                         for n in range(n_max + 1))
            return CurvatureGrid(space, taus, rows, ())

        monkeypatch.setattr(flatness, "curvature_samples", samples)
        return calls, steps

    @staticmethod
    def judge(kind, tol):
        sp = parse_space("S3")
        if kind == "projective":
            verdict, dev = projective_test(sp, 2, GRID, tol)
            return verdict.value, dev, dev
        if kind == "flat":
            verdict, resid = flat_test(sp, 2, GRID, tol)
            return verdict.value, resid, resid
        rep = theorem_scan([sp], n_max=2, tau_grid=GRID, tol=tol)[0]
        return rep.verdict.value, rep.max_chi_deviation, rep.prefactor_residual

    PASSED = {"projective": ProjectiveVerdict.CONSISTENT.value,
              "flat": FlatVerdict.FLAT.value, "scan": FieldVerdict.FLAT.value}
    KINDS = ("projective", "flat", "scan")

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("first", [IN_GAP, math.nan])
    def test_inconclusive_grid_is_final(self, fake, kind, first):
        calls, steps = fake
        # a second grid, were one computed, would pass
        steps += [first, self.DECISIVE]
        verdict, dev, resid = self.judge(kind, 1e-10)
        assert calls == [1e-10]
        assert verdict == "inconclusive"
        # both numbers come from the one grid
        if math.isnan(first):
            assert math.isnan(dev) and math.isnan(resid)
        else:
            assert dev == pytest.approx(2 * first)
            assert resid == pytest.approx(2 * first)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("first", [IN_GAP, math.nan])
    def test_no_retry_at_tol_min(self, fake, kind, first):
        calls, steps = fake
        steps.append(first)
        verdict, _, _ = self.judge(kind, TOL_MIN)
        assert calls == [TOL_MIN]
        assert verdict == "inconclusive"

    @pytest.mark.parametrize("kind", KINDS)
    def test_decisive_first_grid_is_not_redone(self, fake, kind):
        calls, steps = fake
        steps.append(self.DECISIVE)
        verdict, _, _ = self.judge(kind, 1e-10)
        assert calls == [1e-10]
        assert verdict == self.PASSED[kind]

    def test_exact_witness_needs_one_grid(self, fake):
        calls, steps = fake
        steps.append(self.IN_GAP)
        rep = theorem_scan([parse_space("S2")], n_max=2, tau_grid=GRID,
                           tol=1e-10)[0]
        assert calls == [1e-10]
        assert rep.verdict is FieldVerdict.NOT_PROJECTIVELY_FLAT

    def test_finer_tol_moves_no_verdict(self):
        # why the numeric route needs no retry at a finer tol: the verdicts
        # at 1e-10 and 1e-12 agree on every pair below.  16 of the 54 are
        # inconclusive, every non-S3 space on (20, 50), where the isotype
        # spread itself (2e-5 to 1e-4) lies in the corridor's gap
        grids = [GRID, (20.0, 50.0), (100.0, 400.0)]
        inconclusive = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CancellationWarning)
            for sp in default_scan_spaces():
                for grid in grids:
                    for test in (projective_test, flat_test):
                        coarse, _ = test(sp, 3, grid, 1e-10)
                        fine, _ = test(sp, 3, grid, 1e-12)
                        assert coarse is fine, (sp.label, grid, test.__name__)
                        inconclusive += coarse.value == "inconclusive"
        assert inconclusive > 0
