"""Command-line front end.

Subcommands::

    qflat list                  catalog of spaces with derived parameters
    qflat qtable                q_n(tau) table with error and (log q)''
    qflat curvature             qtable plus the prefactor residual column
    qflat centrality            exact centrality certificates
    qflat scan                  full flatness scan with verdicts
    qflat verify-asymptotics    small- and large-tau oracle deviations

Output is a single CSV or JSON document on stdout or to ``--out``.  All
numerics are deterministic and the documents carry no timestamps unless
``--timestamps`` is given, so identical invocations produce byte-identical
output.

Exit status: 0 on success, 1 on configuration errors, 2 when any cell
failed numerically or when ``--expect-theorem`` verdicts do not match.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from argparse import ArgumentParser, Namespace
from datetime import datetime, timezone
from typing import Sequence

from .asymptotics import log_qp_large_tau, watson2
from .flatness import (
    FlatnessReport,
    _prefactor_residual,
    describe_exact,
    theorem_expected_verdict,
    theorem_scan,
)
# unused here, but bench/tracing.py's TARGETS wraps qflat.cli.hypergeom_poly
# and Tracer.install has no fallback for a missing name
from .hypergeom import hypergeom_poly  # noqa: F401
from .quadrature import (
    DEFAULT_TOL,
    ParameterRangeError,
    QuadratureError,
    _as_float_coeffs,
    _check_grid,
    prefetch,
    q_chi,
    q_chi_derivs,
    _isotype,
)
from .spaces import DEFAULT_SCAN_SELECTORS, chi_params, parse_space

__all__ = ["parse_args", "run", "main"]

_SMALL_TAUS = (1e-3, 1e-2)
_LARGE_TAUS = (100.0, 400.0)

_CSV_COLUMNS = {
    "list": ["space", "family", "size", "m", "m_beta", "m_half", "B",
             "A", "c", "mu", "kappa", "nu"],
    "qtable": ["space", "n", "tau", "q", "abs_err", "dlogq2"],
    "curvature": ["space", "n", "tau", "q", "abs_err", "dlogq2",
                  "prefactor_residual"],
    "centrality": ["space", "n", "lhs", "rhs", "pass"],
    "scan": ["space", "verdict", "max_chi_deviation", "prefactor_residual",
             "witness_n", "witness_lhs", "witness_rhs"],
    "verify-asymptotics": ["space", "n", "regime", "tau", "deviation"],
}


class _Parser(ArgumentParser):
    # configuration errors exit 1 (argparse defaults to 2)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_int_spans(text: str) -> list[tuple[int, int]]:
    """The ranges (lo, hi) of a list like ``0..3,5``, unexpanded; a reversed
    span such as ``5..2`` is refused wherever it stands."""
    parts = (p.strip().partition("..") for p in text.split(",") if p.strip())
    spans = [(int(lo), int(hi if sep else lo)) for lo, sep, hi in parts]
    for lo, hi in spans:
        if lo > hi:
            raise ValueError(f"reversed span {lo}..{hi}")
    if not spans:
        raise ValueError("empty integer set")
    return spans


def _parse_floats(text: str) -> tuple[float, ...]:
    vals = tuple([float(p) for p in text.split(",") if p.strip()])
    if not vals:
        raise ValueError("empty list")
    return vals


def build_parser() -> ArgumentParser:
    parser = _Parser(prog="qflat",
                     description="Curvature data of rank-1 symmetric space "
                                 "quantizations.")
    # what a subcommand without the option reads: every space, no n, no
    # tau, the default tol
    parser.set_defaults(spaces="all", n=None, tau=None, tol=DEFAULT_TOL)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, fmt="csv", tol=True):
        p.add_argument("--format", choices=("csv", "json"), default=fmt,
                       dest="fmt")
        p.add_argument("--out", default=None, metavar="PATH")
        if tol:
            p.add_argument("--tol", type=float, default=DEFAULT_TOL)
        p.add_argument("--timestamps", action="store_true")

    p = sub.add_parser("list", help="catalog listing")
    common(p, tol=False)

    taus = "0.25,0.5,1,2,4"
    for name, hlp in (("qtable", "q_n(tau) table"),
                      ("curvature", "curvature grid")):
        p = sub.add_parser(name, help=hlp)
        p.add_argument("--space", dest="spaces", metavar="SPACE", required=True,
                       help="comma-separated selectors, e.g. S3,CP2")
        p.add_argument("--n", default="0..3", help="e.g. 0..3 or 1,2,5")
        p.add_argument("--tau", default=taus)
        common(p)

    p = sub.add_parser("centrality", help="exact certificates")
    p.add_argument("--space", dest="spaces", metavar="SPACE", required=True)
    p.add_argument("--n", default="1..5")
    common(p, tol=False)

    p = sub.add_parser("scan", help="full flatness scan")
    p.add_argument("--spaces", default="all")
    p.add_argument("--n-max", type=int, default=5, dest="n_max")
    p.add_argument("--tau", default=taus)
    p.add_argument("--expect-theorem", action="store_true")
    common(p, fmt="json")

    p = sub.add_parser("verify-asymptotics",
                       help="small/large tau oracle deviations")
    p.add_argument("--space", dest="spaces", metavar="SPACE", default="all")
    p.add_argument("--n", default="0..3")
    common(p)

    return parser


def parse_args(argv: Sequence[str] | None = None) -> Namespace:
    """The parsed namespace, with the normalised ``spaces``, ``n_values``
    and ``tau_values`` set on it; ``tol`` is the default tol for ``list``
    and ``centrality``, which read none."""
    parser = build_parser()
    ns = parser.parse_args(argv)
    fail = parser.error
    scan = ns.subcommand == "scan"

    spaces, parsed = DEFAULT_SCAN_SELECTORS, []
    if ns.spaces.strip() != "all":
        spaces = tuple([s.strip() for s in ns.spaces.split(",") if s.strip()])
        if not spaces:
            fail("no spaces selected")
        for lbl in spaces:
            try:
                parsed.append(parse_space(lbl))
            except ValueError as exc:
                fail(str(exc))

    spans: list[tuple[int, int]] = []
    if ns.n is not None:
        try:
            spans = _parse_int_spans(ns.n)
        except ValueError as exc:
            fail(f"bad --n value {ns.n!r}: {exc}")
    ends = (min(lo for lo, _ in spans), max(hi for _, hi in spans)) if spans else ()

    ns.tau_values = ()
    if ns.tau is not None:
        try:
            ns.tau_values = _parse_floats(ns.tau)
        except ValueError as exc:
            fail(f"bad --tau value {ns.tau!r}: {exc}")

    # the quadrature's own check of its box, on the --n endpoints before any
    # range is expanded; centrality certificates are exact and hold for any m
    try:
        _check_grid(() if ns.subcommand == "centrality" else parsed,
                    ends + ((ns.n_max,) if scan else ()), ns.tau_values, ns.tol)
    except ParameterRangeError as exc:
        fail(str(exc))
    if scan and ns.n_max < 1:
        fail(f"--n-max must be at least 1, got {ns.n_max}")
    if ns.subcommand == "centrality" and ends[0] < 1:
        fail(f"centrality indices must be positive, got {ends[0]}")

    ns.spaces = spaces
    ns.n_values = tuple(sorted({n for lo, hi in spans for n in range(lo, hi + 1)}))
    return ns


# ---------------------------------------------------------------------------
# formatting


def _fmt_sci(x: float) -> str:
    # lowercase scientific, 9 significant digits; nan, inf and -inf as such
    return f"{x:.8e}"


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt_sci(v)
    return "" if v is None else str(v)


def _render_csv(kind: str, rows: list[dict]) -> str:
    # a tau (always a float) prints in full, any other value as _csv_cell
    # has it
    cols = _CSV_COLUMNS[kind]
    fmts = [repr if c == "tau" else _csv_cell for c in cols]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for row in rows:
        writer.writerow([f(row.get(c)) for f, c in zip(fmts, cols)])
    return buf.getvalue()


def _round_out_2sig(x: float) -> float:
    # an error bound keeps two digits, rounded away from zero; the digits
    # below are roundoff that varies between numpy/BLAS builds
    if not math.isfinite(x) or x == 0.0:
        return x
    # s is the two-digit decimal nearest |x|, the answer unless it is below
    # |x|; its double tells unless that is |x|, and then s = k 10^e and
    # |x| = p/q compare exactly, as integers
    a = abs(x)
    s = f"{a:.1e}"
    d = float(s)
    if d <= a:
        k, e = int(s[0] + s[2]), int(s[4:]) - 1
        p, q = a.as_integer_ratio()
        if d < a or k * 10 ** max(e, 0) * q < p * 10 ** max(-e, 0):
            d = float(f"{k + 1}e{e}")
    return math.copysign(d, x)


def _sanitize(obj):
    # JSON has no inf/nan literals; stringify them wherever they appear
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else _fmt_sci(obj)
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _render_json(kind: str, payload: dict, cfg: Namespace) -> str:
    doc: dict = {"schema": "qflat.v1", "kind": kind}
    if cfg.timestamps:
        doc["generated_at"] = datetime.now(timezone.utc).isoformat()
    doc.update(_sanitize(payload))
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _cannot_write(out: str, exc: OSError) -> int:
    """Report that the file ``out`` cannot be written; the exit code 1."""
    print(f"qflat: error: cannot write {out}: {exc.strerror or exc}",
          file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# subcommands


def _rows_list(cfg: Namespace) -> list[dict]:
    rows = []
    for lbl in cfg.spaces:
        sp = parse_space(lbl)
        ch = chi_params(sp, 0)
        rows.append({
            "space": sp.label, "family": sp.family.value, "size": sp.size,
            "m": sp.m, "m_beta": sp.m_beta, "m_half": sp.m_half, "B": sp.B,
            "A": str(ch.A), "c": str(ch.c), "mu": str(ch.mu),
            "kappa": str(ch.kappa), "nu": str(ch.nu),
        })
    return rows


def _rows_table(cfg: Namespace, with_residual: bool) -> tuple[list[dict], bool]:
    rows = []
    for lbl in cfg.spaces:
        sp = parse_space(lbl)
        prefetch(sp, cfg.n_values, cfg.tau_values, cfg.tol)
        for n in cfg.n_values:
            for tau in cfg.tau_values:
                row = {"space": lbl, "n": n, "tau": tau}
                try:
                    res, _, d2 = q_chi_derivs(sp, n, tau, cfg.tol)
                    row.update(q=res.value, log_q=res.log_value,
                               abs_err=_round_out_2sig(res.abs_error),
                               dlogq2=d2, status="ok")
                except QuadratureError as exc:
                    d2 = math.nan
                    row.update(q=math.nan, log_q=math.nan, abs_err=math.nan,
                               dlogq2=math.nan, status=f"error: {exc}")
                if with_residual:
                    row["prefactor_residual"] = _prefactor_residual(d2, sp.m, tau)
                rows.append(row)
    return rows, all(r["status"] == "ok" for r in rows)


def _certificate(chk) -> dict:
    """The record of one centrality certificate, its two sides exact."""
    return {"n": chk.n, "lhs": describe_exact(chk.lhs),
            "rhs": describe_exact(chk.rhs), "pass": chk.passed}


def _rows_centrality(cfg: Namespace) -> list[dict]:
    from .flatness import centrality_check

    rows = []
    for lbl in cfg.spaces:
        sp = parse_space(lbl)
        for chk in centrality_check(sp, cfg.n_values):
            # the lhs/rhs strings are exact certificates, never rounded
            rows.append({"space": lbl, **_certificate(chk), "exact": True})
    return rows


def _rows_asymptotics(cfg: Namespace) -> tuple[list[dict], bool]:
    rows = []
    for lbl in cfg.spaces:
        sp = parse_space(lbl)
        prefetch(sp, cfg.n_values, _SMALL_TAUS + _LARGE_TAUS, cfg.tol,
                 derivs=False)
        for n in cfg.n_values:
            # the floats of the cached record are those of the exact
            # parameters; n and m were validated at parse time.  Coerced
            # once here, they pass the laws' coercion at every tau unchecked
            rec = _isotype(sp, n)
            coeffs = _as_float_coeffs(rec.coeffs.tolist())
            for tau in _SMALL_TAUS + _LARGE_TAUS:
                small = tau in _SMALL_TAUS
                row = {"space": lbl, "n": n,
                       "regime": "small_tau" if small else "large_tau", "tau": tau}
                try:
                    res = q_chi(sp, n, tau, cfg.tol)
                    if small:
                        w = watson2(coeffs, rec.mu, rec.kappa, rec.nu, tau)
                        deviation = abs(res.value - w) / res.value
                    else:
                        logasym, _ = log_qp_large_tau(coeffs, rec.mu, rec.kappa,
                                                      rec.nu, tau)
                        deviation = abs(math.expm1(res.log_value - logasym))
                    row.update(deviation=deviation, status="ok")
                except QuadratureError as exc:
                    row.update(deviation=math.nan, status=f"error: {exc}")
                rows.append(row)
    return rows, all(r["status"] == "ok" for r in rows)


def _scan_payload(reports: list[FlatnessReport], cfg: Namespace) -> dict:
    reps = []
    for rep in reports:
        w = rep.exact_witness
        entry = {
            "space": rep.space.label,
            "family": rep.space.family.value,
            "m": rep.space.m,
            "m_beta": rep.space.m_beta,
            "m_half": rep.space.m_half,
            "B": rep.space.B,
            "verdict": rep.verdict.value,
            "max_chi_deviation": rep.max_chi_deviation,
            "prefactor_residual": rep.prefactor_residual,
            "exact_witness": None if w is None else _certificate(w),
            "centrality": [_certificate(c) for c in rep.centrality],
            "rationality": None if rep.rationality is None else {
                "n_used": rep.rationality.n_used,
                "lhs": describe_exact(rep.rationality.lhs),
                "rhs": describe_exact(rep.rationality.rhs),
                "rhs_rational": rep.rationality.rhs_rational,
                "conclusion": rep.rationality.conclusion,
            },
            "tau_grid": list(rep.tau_grid),
            "curvature": rep.curvature,
            "failures": [
                {"n": n, "tau_index": i, "message": msg}
                for n, i, msg in rep.failures
            ],
        }
        reps.append(entry)
    return {
        "mode": "prefactor_corrected",
        "n_max": cfg.n_max,
        "tau_grid": list(cfg.tau_values),
        "tol": cfg.tol,
        "reports": reps,
    }


def _render(cfg: Namespace) -> tuple[str, bool]:
    """The output document of a parsed configuration, and whether every
    cell and verdict came out as expected."""
    ok = True
    if cfg.subcommand == "list":
        rows = _rows_list(cfg)
        payload = {"rows": rows}
    elif cfg.subcommand in ("qtable", "curvature"):
        rows, ok = _rows_table(cfg, with_residual=cfg.subcommand == "curvature")
        payload = {"tol": cfg.tol, "rows": rows}
    elif cfg.subcommand == "centrality":
        rows = _rows_centrality(cfg)
        payload = {"rows": rows}
    elif cfg.subcommand == "verify-asymptotics":
        rows, ok = _rows_asymptotics(cfg)
        payload = {"tol": cfg.tol, "rows": rows}
    elif cfg.subcommand == "scan":
        reports = theorem_scan(
            [parse_space(lbl) for lbl in cfg.spaces],
            n_max=cfg.n_max, tau_grid=cfg.tau_values, tol=cfg.tol,
        )
        ok = all(not rep.failures for rep in reports)
        if cfg.expect_theorem:
            ok = ok and all(
                rep.verdict is theorem_expected_verdict(rep.space)
                for rep in reports
            )
        payload = _scan_payload(reports, cfg)
        rows = []
        for entry in payload["reports"]:
            w = entry["exact_witness"] or {}
            rows.append(dict(entry, witness_n=w.get("n"),
                             witness_lhs=w.get("lhs"), witness_rhs=w.get("rhs")))
    else:  # unreachable behind argparse
        raise ValueError(f"unknown subcommand {cfg.subcommand!r}")

    if cfg.fmt == "csv":
        return _render_csv(cfg.subcommand, rows), ok
    return _render_json(cfg.subcommand, payload, cfg), ok


def run(cfg: Namespace) -> int:
    """Execute a parsed configuration; returns the process exit code.

    ``--out`` is opened before any work, as shell redirection does; a path
    that cannot be opened, or written, is a configuration error (exit 1).
    """
    if cfg.out is None or cfg.out == "-":
        text, ok = _render(cfg)
        sys.stdout.write(text)
        return 0 if ok else 2
    try:
        fh = open(cfg.out, "w", encoding="utf-8", newline="")
    except OSError as exc:
        return _cannot_write(cfg.out, exc)
    try:
        text, ok = _render(cfg)
    except BaseException:
        fh.close()
        raise
    try:
        with fh:
            fh.write(text)
    except OSError as exc:
        return _cannot_write(cfg.out, exc)
    return 0 if ok else 2


def main(argv: Sequence[str] | None = None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
