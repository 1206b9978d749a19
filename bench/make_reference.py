"""Regenerate bench/reference/reference.json with mpmath.

The reference values are computed without any part of qflat: the catalog
multiplicities, the hypergeometric coefficients, the quadrature and the
exact centrality witnesses are all rebuilt here from their definitions, so
that a later engine is checked against numbers it did not produce.

For every default-seed cell (space, n, tau) of the three workloads it
stores log q_n(tau) and (log q_n)''(tau) as 30-digit strings, where

    q_n(tau) = int_0^inf e^(-t^2/tau) F_n(-sinh^2 t)
               t^mu sinh(t)^kappa cosh(t)^nu dt,

and for the oracle cells the deviation the CLI prints against the two-term
Watson law (small tau) or the leading large-tau law.  Each integral is a
composite Gauss-Legendre sum at 40 digits over the window where the
integrand is within e^-120 of its peak; the 12- and 24-point rules must
agree to 1e-25 in log q and in (log q)'' or the panels are halved.

Run from the repository root; it uses one process per usable CPU (takes
several minutes on two cores):

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from fractions import Fraction

import mpmath
from mpmath.calculus.quadrature import GaussLegendre

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402

mp = mpmath.mp
mp.dps = 40
_AGREE = mpmath.mpf("1e-25")
_DROP = 120  # window: where log integrand >= peak - _DROP

# (m, m_beta, m_half) from the rank-1 classification: S^m (m-1, 0),
# CP^k (1, 2k-2) with m = 2k, HP^k (3, 4k-4) with m = 4k, OP2 (7, 8).
def multiplicities(label: str) -> tuple[int, int, int]:
    if label == "OP2":
        return 16, 7, 8
    if label.startswith("CP"):
        k = int(label[2:])
        return 2 * k, 1, 2 * k - 2
    if label.startswith("HP"):
        k = int(label[2:])
        return 4 * k, 3, 4 * k - 4
    m = int(label[1:])
    return m, m - 1, 0


def params(label: str):
    """A, c, mu (= kappa), nu of the isotype integrals, exact."""
    m, mb, mh = multiplicities(label)
    return (Fraction(mb) + Fraction(mh, 2), Fraction(m, 2),
            Fraction(m - 1, 2), Fraction(mb, 2))


def poly_coeffs(A: Fraction, n: int, c: Fraction) -> list[Fraction]:
    """Coefficients of 2F1(A+n, -n; c; x), constant term first."""
    out = [Fraction(1)]
    for j in range(n):
        out.append(out[-1] * (A + n + j) * (-n + j) / ((j + 1) * (c + j)))
    return out


def _mpf(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


_NODES = {}


def _gl(degree: int):
    if degree not in _NODES:
        _NODES[degree] = GaussLegendre(mp).calc_nodes(degree, mp.prec)
    return _NODES[degree]


def _moments(logf, a, b, panels: int, degree: int, scale):
    """Composite Gauss-Legendre sums of (1, t^2, t^4) * exp(logf - scale)."""
    s0 = s2 = s4 = mpmath.mpf(0)
    h = (b - a) / panels
    for k in range(panels):
        lo = a + k * h
        half = h / 2
        mid = lo + half
        for x, w in _gl(degree):
            t = mid + half * x
            v = w * half * mpmath.exp(logf(t) - scale)
            t2 = t * t
            s0 += v
            s2 += v * t2
            s4 += v * t2 * t2
    return s0, s2, s4


def integrate(label: str, n: int, tau_value: float):
    """(log q, (log q)'') of one cell to about 25 digits."""
    A, c, mu, nu = params(label)
    coeffs = [_mpf(x) for x in poly_coeffs(A, n, c)]
    mu_f, nu_f = _mpf(mu), _mpf(nu)
    tau = mpmath.mpf(tau_value)

    def logf(t):
        sh = mpmath.sinh(t)
        ch = mpmath.cosh(t)
        x = -sh * sh
        acc = coeffs[-1]
        for cf in reversed(coeffs[:-1]):
            acc = acc * x + cf
        # every term of F_n(-sinh^2 t) is positive, so acc > 0
        return (-t * t / tau + mpmath.log(acc) + mu_f * mpmath.log(t)
                + mu_f * mpmath.log(sh) + nu_f * mpmath.log(ch))

    # the peak sits near (kappa + nu + 2n) tau / 2; bracket it generously
    sig = mpmath.sqrt(tau / 2)
    lo = mpmath.mpf("1e-30")
    hi = (2 * mu_f + nu_f + 2 * n) * tau / 2 + 40 * sig + 10
    # ternary search for the peak of the (unimodal) log integrand
    for _ in range(200):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if logf(m1) < logf(m2):
            lo = m1
        else:
            hi = m2
        if hi - lo < sig * mpmath.mpf("1e-6"):
            break
    tpk = (lo + hi) / 2
    peak = logf(tpk)

    def edge(direction: int):
        step = sig
        t = tpk
        while True:
            nxt = t + direction * step
            if nxt <= 0:
                return mpmath.mpf(0)
            if logf(nxt) < peak - _DROP:
                return nxt
            t = nxt
            step *= 2

    a, b = edge(-1), edge(+1)
    panels = 16
    while True:
        coarse = _moments(logf, a, b, panels, 3, peak)
        fine = _moments(logf, a, b, panels, 4, peak)
        res = []
        for s0, s2, s4 in (coarse, fine):
            r2 = s2 / s0
            d2 = s4 / s0 / tau**4 - 2 * r2 / tau**3 - (r2 / tau**2) ** 2
            res.append((peak + mpmath.log(s0), d2))
        (lq0, d20), (lq1, d21) = res
        if (abs(lq1 - lq0) < _AGREE
                and abs(d21 - d20) < _AGREE * (abs(d21) + 1)):
            return lq1, d21
        panels *= 2


def oracle_deviation(label: str, n: int, tau_value: float, log_q):
    """The deviation the CLI prints for one verify-asymptotics row."""
    A, c, mu, nu = params(label)
    coeffs = poly_coeffs(A, n, c)
    tau = mpmath.mpf(tau_value)
    mu_f, nu_f = _mpf(mu), _mpf(nu)
    if tau_value < 1.0:
        # two-term Watson law, r = mu + kappa + 1, f''(0)/2 = -c1 + kappa/6 + nu/2
        r = 2 * mu_f + 1
        c1 = coeffs[1] if n > 0 else Fraction(0)
        coef = -_mpf(c1) + mu_f / 6 + nu_f / 2
        w = tau ** (r / 2) / 2 * (mpmath.gamma(r / 2)
                                  + mpmath.gamma(r / 2 + 1) * coef * tau)
        return abs(1 - w / mpmath.exp(log_q))
    lam = mu_f + nu_f + 2 * n  # kappa + nu + 2n with kappa = mu
    top = coeffs[-1]
    log_asym = (mpmath.log(abs(_mpf(top)))
                + mpmath.log(mpmath.pi) / 2 + mu_f * mpmath.log(lam)
                - (2 * mu_f + nu_f + 2 * n) * mpmath.log(2)
                + (mu_f + mpmath.mpf(1) / 2) * mpmath.log(tau)
                + lam * lam * tau / 4)
    return abs(mpmath.expm1(log_q - log_asym))


def _squarefree(n: int) -> tuple[int, int]:
    s, d, p = 1, 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        d *= p ** (e % 2)
        p += 1
    return s, d * n


def _surd(rat: Fraction, radicand: int) -> str:
    """qflat's certificate string for rat * sqrt(radicand)."""
    s, d = _squarefree(radicand)
    rat *= s
    if d == 1:
        return str(rat)
    if rat == 1:
        return f"irrational:sqrt({d})"
    if rat.denominator == 1:
        return f"irrational:{rat}*sqrt({d})"
    return f"irrational:({rat})*sqrt({d})"


def centrality(label: str, n: int) -> tuple[str, str, bool]:
    """lhs, rhs strings of Gamma(A+2n)Gamma(c)/(Gamma(A+n)Gamma(c+n)) = 4^n rho^mu."""
    A, c, mu, _ = params(label)
    lhs = Fraction(1)
    for j in range(n):
        lhs = lhs * (A + n + j) / (c + j)
    rho = A / (A + 2 * n)
    if mu.denominator == 1:
        rhs = 4 ** n * rho ** int(mu)
        return str(lhs), str(rhs), lhs == rhs
    # rho^(k + 1/2) = rho^k sqrt(p/q) = rho^k sqrt(p q) / q
    k = int(mu - Fraction(1, 2))
    base = 4 ** n * rho ** k / rho.denominator
    rhs_s = _surd(base, rho.numerator * rho.denominator)
    return str(lhs), rhs_s, rhs_s == str(lhs)


def expected_space(label: str) -> dict:
    """Theorem verdict and exact witness of one space in the default scan."""
    verdict = "flat" if label == "S3" else "not_projectively_flat"
    for n in range(1, workloads.SCAN_N_MAX + 1):
        lhs, rhs, ok = centrality(label, n)
        if not ok:
            return {"verdict": verdict,
                    "witness": {"n": n, "lhs": lhs, "rhs": rhs, "pass": False}}
    A = params(label)[0]
    n = 2 * int(A)
    lhs, rhs, ok = centrality(label, n)
    witness = None if not rhs.startswith("irrational:") else {
        "n": n, "lhs": lhs, "rhs": rhs, "pass": False}
    return {"verdict": verdict, "witness": witness}


def _job(cell):
    label, n, tau = cell
    lq, d2 = integrate(label, n, tau)
    out = {"log_q": mpmath.nstr(lq, 30), "d2": mpmath.nstr(d2, 30)}
    if (label, n, tau) in _ORACLE_CELLS:
        out["deviation"] = float(oracle_deviation(label, n, tau, lq))
    return workloads.cell_key(label, n, tau), out


_ORACLE_CELLS = set(workloads.cells("oracles", workloads.DEFAULT_SEED))


def main() -> int:
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "reference", "reference.json")

    seed = workloads.DEFAULT_SEED
    todo = sorted({c for w in workloads.WORKLOADS
                   for c in workloads.cells(w, seed)})
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(len(os.sched_getaffinity(0))) as pool:
        results = dict(pool.imap_unordered(_job, todo, chunksize=4))
    doc = {
        "seed": seed,
        "argv": {w: workloads.argv_for(w, seed) for w in workloads.WORKLOADS},
        "spaces": {lbl: expected_space(lbl) for lbl in workloads.SCAN_SPACES},
        "cells": {k: results[k] for k in sorted(results)},
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(results)} cells to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
