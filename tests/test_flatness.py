import math
from fractions import Fraction

import pytest

from qflat import flatness
from qflat.flatness import (
    FAIL_DEVIATION,
    PASS_DEVIATION,
    CurvatureGrid,
    FieldVerdict,
    FlatVerdict,
    Mode,
    ProjectiveVerdict,
    SqrtRational,
    centrality_check,
    curvature_samples,
    describe_exact,
    flat_test,
    parameter_constraints,
    projective_test,
    rationality_argument,
    solve_dimension_equation,
    sqrt_rational,
    theorem_expected_verdict,
    theorem_scan,
)
from qflat.quadrature import TOL_MIN
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
        assert arg.lhs_rational and not arg.rhs_rational
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

    def test_n1_check_already_refutes_every_even_m(self):
        # why theorem_scan never takes its witness from this argument: the
        # scan always checks n = 1, which fails for every even m, and for
        # odd m the argument's right side is rational
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


class TestParameterConstraints:
    def test_s3_exact_zero(self):
        assert parameter_constraints(1, 1, 1) == 0.0

    def test_s2_residual(self):
        got = parameter_constraints(0.5, 0.5, 0.5)
        assert got == pytest.approx(1.0 - 2.0 / math.sqrt(3.0), rel=1e-13)

    def test_cp2_residual(self):
        got = parameter_constraints(1.5, 1.5, 0.5)
        assert got == pytest.approx(0.75 - 1.0 / math.sqrt(2.0), rel=1e-13)
        assert got == pytest.approx(0.0428932, abs=1e-7)

    def test_sign_agrees_with_n1_certificate(self):
        # this residual is (half) the n = 1 centrality residual in disguise
        for sp in default_scan_spaces():
            from qflat.spaces import chi_params

            ch = chi_params(sp, 0)
            pc = parameter_constraints(float(ch.mu), float(ch.kappa), float(ch.nu))
            chk = centrality_check(sp, [1])[0]
            exact_resid = float(chk.lhs) - float(chk.rhs)
            if sp.label == "S3":
                assert abs(pc) < 1e-14 and chk.passed
            else:
                assert math.copysign(1.0, pc) == math.copysign(1.0, exact_resid)

    def test_validation(self):
        with pytest.raises(ValueError):
            parameter_constraints(1, 0, 1)


class TestDimensionEquation:
    def test_solution_set(self):
        scan = solve_dimension_equation(99)
        assert scan.solutions == (3,)
        assert scan.strictly_increasing

    def test_g_values(self):
        scan = solve_dimension_equation(9)
        assert scan.values[0] == 2.0          # g(3) = (4/2)^1
        assert scan.values[1] == 2.25         # g(5) = (3/2)^2
        assert scan.values[1] > 2.0

    def test_rejects_small_range(self):
        with pytest.raises(ValueError):
            solve_dimension_equation(2)


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

    def test_s3_literal_residual(self):
        verdict, resid = flat_test(
            parse_space("S3"), 3, (1.0,), 1e-10, mode=Mode.LITERAL
        )
        assert verdict is FlatVerdict.NOT_FLAT
        assert resid == pytest.approx(1.5, abs=1e-6)

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

    def test_literal_mode_s3(self):
        rep = theorem_scan([parse_space("S3")], n_max=2, tau_grid=(1.0,),
                           tol=1e-10, mode=Mode.LITERAL)[0]
        assert rep.verdict is FieldVerdict.PROJECTIVELY_FLAT_ONLY

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


class TestRetry:
    """An inconclusive judgement redoes the curvature grid once, at tol/100."""

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
    def test_inconclusive_retries_once_at_tol_over_100(self, fake, kind, first):
        calls, steps = fake
        steps += [first, self.DECISIVE]
        verdict, dev, resid = self.judge(kind, 1e-10)
        assert calls == [1e-10, 1e-10 / 100]
        assert verdict == self.PASSED[kind]
        # both numbers come from the second grid
        assert dev == pytest.approx(2 * self.DECISIVE, rel=1e-3)
        assert resid == pytest.approx(2 * self.DECISIVE, rel=1e-3)

    @pytest.mark.parametrize("kind", KINDS)
    def test_still_inconclusive_after_one_retry(self, fake, kind):
        calls, steps = fake
        steps.append(self.IN_GAP)
        verdict, dev, _ = self.judge(kind, 1e-10)
        assert calls == [1e-10, 1e-10 / 100]
        assert verdict == "inconclusive"
        assert dev == pytest.approx(2 * self.IN_GAP)

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
