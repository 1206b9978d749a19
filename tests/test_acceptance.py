"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is calibrated at runtime.

Criterion 6 is expected to fail in part: the two-term small-tau expansion
has relative error C*tau^2 with C growing with the dimension and the
isotype index, and, e.g., the exactly solvable 3-sphere case at n = 3 gives
C = 115.1, i.e. 1.151e-2 > 1e-2 at tau = 1e-2 (worst catalog cell: OP2
n = 3 at 0.1431).  The threshold is asserted as stated anyway; see the
failure list it prints.
"""

import io
import math
import time
from contextlib import redirect_stdout
from fractions import Fraction

from qflat.asymptotics import log_qp_large_tau, watson2
from qflat.cli import main
from qflat.flatness import (
    FieldVerdict,
    centrality_check,
    rationality_argument,
    theorem_scan,
)
from qflat.hypergeom import hypergeom_poly
from qflat.quadrature import q_chi, q_chi_derivs
from qflat.spaces import (
    DEFAULT_SCAN_SELECTORS,
    chi_params,
    default_scan_spaces,
    eta_radial,
    parse_space,
)

GRID = (0.25, 0.5, 1.0, 2.0, 4.0)


def report(num: int, desc: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    extra = "" if not failures else f"  [{len(failures)} failing checks]"
    print(f"ACCEPTANCE {num:02d} {status}: {desc}{extra}")
    assert not failures, f"criterion {num} failed:\n" + "\n".join(failures)


def s3_q_closed(tau: float) -> float:
    # completing the square in (1/2) int t e^(-t^2/tau) sinh 2t dt
    return math.sqrt(math.pi) / 4.0 * tau ** 1.5 * math.exp(tau)


def run_cli(argv) -> tuple[str, int]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return buf.getvalue(), code


def test_criterion_01_theorem_scan():
    failures = []
    t0 = time.monotonic()
    reports = theorem_scan(default_scan_spaces(), n_max=5, tau_grid=GRID,
                           tol=1e-10)
    elapsed = time.monotonic() - t0
    for rep in reports:
        lbl = rep.space.label
        if lbl == "S3":
            if rep.verdict is not FieldVerdict.FLAT:
                failures.append(f"S3 verdict {rep.verdict.value}, wanted flat")
        else:
            if rep.verdict is not FieldVerdict.NOT_PROJECTIVELY_FLAT:
                failures.append(f"{lbl} verdict {rep.verdict.value}")
            w = rep.exact_witness
            A = chi_params(rep.space, 0).A
            if w is None:
                failures.append(f"{lbl}: no exact witness")
            elif w.n not in (1, 2 * int(A)):
                failures.append(f"{lbl}: witness at n={w.n}, wanted 1 or {2*int(A)}")
    if elapsed >= 60.0:
        failures.append(f"scan took {elapsed:.1f}s, budget 60s")
    report(1, f"theorem scan over {len(reports)} spaces "
              f"({elapsed:.1f}s)", failures)


def test_criterion_02_s3_closed_form():
    failures = []
    sp = parse_space("S3")
    for tau in (0.25, 1.0, 4.0):
        got = q_chi(sp, 0, tau, 1e-11).value
        want = s3_q_closed(tau)
        rel = abs(got - want) / want
        if rel > 1e-9:
            failures.append(f"tau={tau}: rel dev {rel:.3e} > 1e-9")
    report(2, "S3 closed form (sqrt(pi)/4) tau^(3/2) e^tau to 1e-9", failures)


def test_criterion_03_s3_shift_identity():
    failures = []
    sp = parse_space("S3")
    for tau in GRID:
        q0 = q_chi(sp, 0, tau, 1e-10).value
        for n in range(1, 6):
            qn = q_chi(sp, n, tau, 1e-10).value
            ratio = qn * math.exp(-n * (n + 2) * tau) / q0
            if abs(ratio - 1.0) > 1e-8:
                failures.append(f"n={n} tau={tau}: |ratio-1|={abs(ratio-1):.3e}")
    report(3, "S3 shift identity q_n = e^(n(n+2)tau) q_0 to 1e-8, n<=5",
           failures)


def test_criterion_04_exact_certificates():
    failures = []
    s3 = parse_space("S3")
    for chk in centrality_check(s3, range(1, 11)):
        if not chk.passed:
            failures.append(f"S3 n={chk.n}: {chk.lhs} vs {chk.rhs}")
    chks = centrality_check(s3, [1, 2])
    if not (chks[0].lhs == 2 and chks[0].rhs.equals(Fraction(2))):
        failures.append("S3 n=1 should read 2 = 2")
    if not (chks[1].lhs == Fraction(16, 3)
            and chks[1].rhs.equals(Fraction(16, 3))):
        failures.append("S3 n=2 should read 16/3 = 16/3")

    s2 = centrality_check(parse_space("S2"), [1])[0]
    if s2.passed or s2.lhs != 2 or s2.rhs.is_rational or not math.isclose(
            float(s2.rhs), 4.0 / math.sqrt(3.0)):
        failures.append(f"S2 n=1: got {s2.lhs} vs {s2.rhs}")
    cp2 = centrality_check(parse_space("CP2"), [1])[0]
    if cp2.passed or cp2.lhs != Fraction(3, 2) or not math.isclose(
            float(cp2.rhs), math.sqrt(2.0)):
        failures.append(f"CP2 n=1: got {cp2.lhs} vs {cp2.rhs}")

    for sp in default_scan_spaces():
        if sp.m % 2 == 0:
            arg = rationality_argument(sp)
            if arg.rhs_rational or arg.rhs.radicand != 5:
                failures.append(
                    f"{sp.label}: n=2A rhs should be an irrational multiple "
                    f"of sqrt(5), got {arg.rhs}"
                )
    report(4, "exact centrality certificates (S3 passes n<=10; S2, CP2 and "
              "all even-dimensional spaces fail)", failures)


def test_criterion_05_dimension_equation():
    # for odd m the n = 1 certificate of S^m is ((m+1)/(m-1))^((m-1)/2) = 2,
    # and with m = 2x + 1 its left side is (1 + 1/x)^x
    failures = []
    solutions = tuple(m for m in range(3, 100, 2)
                      if centrality_check(parse_space(f"S{m}"), [1])[0].passed)
    if solutions != (3,):
        failures.append(f"solutions {solutions}, wanted (3,)")
    for x in range(2, 50):
        # first three binomial terms: (1 + 1/x)^x >= 2 + (x-1)/(2x) > 2
        bound = 2 + Fraction(x - 1, 2 * x)
        if not (Fraction(x + 1, x) ** x >= bound > 2):
            failures.append(f"binomial bound fails at x = {x}")
    report(5, "dimension equation ((m+1)/(m-1))^((m-1)/2) = 2 has only m=3, "
              "with the binomial bound (1+1/x)^x >= 2 + (x-1)/(2x)", failures)


def test_criterion_06_watson_small_tau():
    failures = []
    for label in DEFAULT_SCAN_SELECTORS:
        sp = parse_space(label)
        for n in range(4):
            ch = chi_params(sp, n)
            poly = hypergeom_poly(ch.A, n, ch.c)
            errs = {}
            for tau in (1e-2, 5e-3):
                q = q_chi(sp, n, tau, 1e-11).value
                w = watson2(poly, ch.mu, ch.kappa, ch.nu, tau)
                errs[tau] = abs(q - w) / q
            if errs[1e-2] >= 1e-2:
                failures.append(
                    f"{label} n={n}: rel err {errs[1e-2]:.4g} at tau=1e-2 "
                    f"not below 1e-2"
                )
            ratio = errs[5e-3] / errs[1e-2]
            if not (0.15 <= ratio <= 0.35):
                failures.append(
                    f"{label} n={n}: err(5e-3)/err(1e-2) = {ratio:.3f} "
                    f"outside [0.15, 0.35]"
                )
    report(6, "two-term Watson law at tau=1e-2 (threshold 1e-2; quadratic "
              "remainder ratio in [0.15, 0.35])", failures)


def test_criterion_07_large_tau():
    failures = []
    for label in DEFAULT_SCAN_SELECTORS:
        sp = parse_space(label)
        for n in range(4):
            ch = chi_params(sp, n)
            poly = hypergeom_poly(ch.A, n, ch.c)
            devs = {}
            for tau in (100.0, 400.0):
                res = q_chi(sp, n, tau, 1e-9)
                logasym, _ = log_qp_large_tau(
                    poly, float(ch.mu), float(ch.kappa), float(ch.nu), tau
                )
                ratio = math.exp(res.log_value - logasym)
                devs[tau] = abs(ratio - 1.0)
                if tau == 100.0 and not (0.8 <= ratio <= 1.2):
                    failures.append(f"{label} n={n}: ratio {ratio:.4f} at tau=100")
            # for S3 the leading asymptotic is exact and both deviations sit
            # at quadrature noise; a tie at the noise floor satisfies the law
            if max(devs.values()) >= 1e-7 and not devs[400.0] < devs[100.0]:
                failures.append(
                    f"{label} n={n}: deviation did not shrink "
                    f"({devs[100.0]:.3e} -> {devs[400.0]:.3e})"
                )
    report(7, "large-tau law: ratio in [0.8, 1.2] at tau=100, deviation "
              "strictly smaller at tau=400", failures)


def test_criterion_08_derivative_coherence():
    failures = []
    for label in DEFAULT_SCAN_SELECTORS:
        sp = parse_space(label)
        for n in range(4):
            for tau in GRID:
                h = 1e-3 * tau
                f = lambda x: q_chi_derivs(sp, n, x, 1e-11)[1]
                fd = (-f(tau + 2 * h) + 8 * f(tau + h)
                      - 8 * f(tau - h) + f(tau - 2 * h)) / (12 * h)
                d2 = q_chi_derivs(sp, n, tau, 1e-11)[2]
                if abs(fd - d2) > 1e-6:
                    failures.append(
                        f"{label} n={n} tau={tau}: |fd - d2| = {abs(fd-d2):.3e}"
                    )
    report(8, "(log q)'' agrees with central finite differences of (log q)' "
              "at h = 1e-3 tau to 1e-6", failures)


def test_criterion_09_radial_reduction():
    failures = []
    for label in DEFAULT_SCAN_SELECTORS:
        sp = parse_space(label)
        B = sp.B
        for i in range(1, 11):
            rho = 0.25 * i
            w1 = rho ** (sp.m - 1) * math.sqrt(eta_radial(sp, rho))
            t = rho * B
            w2 = (2.0 ** (sp.m / 2.0) / B ** sp.m
                  * t ** ((sp.m - 1) / 2.0)
                  * math.sinh(t) ** ((sp.m - 1) / 2.0)
                  * math.cosh(t) ** (sp.m_beta / 2.0))
            rel = abs(w1 - B * w2) / (B * w2)
            if rel > 1e-12:
                failures.append(f"{label} rho={rho}: rel dev {rel:.3e}")
    report(9, "radial weight identity rho^(m-1) sqrt(eta) == reduced "
              "integrand weight, 10 points per space to 1e-12", failures)


def test_criterion_10_determinism():
    failures = []
    qt = ["qtable", "--space", "S2,S3,CP2", "--n", "0..2", "--tau", "0.5,1,2"]
    a, _ = run_cli(qt)
    b, _ = run_cli(qt)
    if a != b:
        failures.append("qtable differs between repeated runs")
    sc = ["scan", "--spaces", "S2,S3", "--n-max", "2", "--tau", "0.5,1"]
    d1, _ = run_cli(sc)
    d2, _ = run_cli(sc)
    if d1 != d2:
        failures.append("scan JSON differs between repeated runs")
    report(10, "byte-identical CSV/JSON across repeats", failures)
