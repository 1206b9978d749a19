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

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from decimal import ROUND_UP, Decimal
from typing import Sequence

from .asymptotics import log_qp_large_tau, watson2
from .flatness import (
    FlatnessReport,
    Mode,
    describe_exact,
    theorem_expected_verdict,
    theorem_scan,
)
# unused here, but bench/tracing.py's TARGETS wraps qflat.cli.hypergeom_poly
# and Tracer.install has no fallback for a missing name
from .hypergeom import hypergeom_poly  # noqa: F401
from .quadrature import (
    DEFAULT_TOL,
    MAX_DEGREE,
    MAX_DIM,
    MAX_TAU,
    MIN_TAU,
    TOL_MAX,
    TOL_MIN,
    QuadratureError,
    prefetch,
    q_chi,
    q_chi_derivs,
    _isotype,
    _unit_scale,
)
from .spaces import DEFAULT_SCAN_SELECTORS, chi_params, parse_space

__all__ = ["RunConfig", "parse_args", "run", "main"]

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


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    spaces: tuple[str, ...] = ()
    n_values: tuple[int, ...] = ()
    tau_values: tuple[float, ...] = ()
    n_max: int = 5
    tol: float = DEFAULT_TOL
    fmt: str = "csv"
    out: str | None = None
    mode: Mode = Mode.PREFACTOR_CORRECTED
    expect_theorem: bool = False
    timestamps: bool = False


class _Parser(argparse.ArgumentParser):
    # configuration errors exit 1 (argparse defaults to 2)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_int_spans(text: str) -> list[tuple[int, int]]:
    """The nonempty ranges (lo, hi) of a list like ``0..3,5``, unexpanded."""
    parts = (p.strip().partition("..") for p in text.split(",") if p.strip())
    spans = [(int(lo), int(hi if sep else lo)) for lo, sep, hi in parts]
    spans = [(lo, hi) for lo, hi in spans if lo <= hi]
    if not spans:
        raise ValueError("empty integer set")
    return spans


def _parse_floats(text: str) -> tuple[float, ...]:
    vals = tuple(float(p) for p in text.split(",") if p.strip())
    if not vals:
        raise ValueError("empty list")
    return vals


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qflat",
                     description="Curvature data of rank-1 symmetric space "
                                 "quantizations.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       dest="fmt")
        p.add_argument("--out", default=None, metavar="PATH")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL)
        p.add_argument("--timestamps", action="store_true")

    p = sub.add_parser("list", help="catalog listing")
    common(p)

    for name, hlp in (("qtable", "q_n(tau) table"),
                      ("curvature", "curvature grid")):
        p = sub.add_parser(name, help=hlp)
        p.add_argument("--space", required=True,
                       help="comma-separated selectors, e.g. S3,CP2")
        p.add_argument("--n", default="0..3", help="e.g. 0..3 or 1,2,5")
        p.add_argument("--tau", default="0.25,0.5,1,2,4")
        common(p)

    p = sub.add_parser("centrality", help="exact certificates")
    p.add_argument("--space", required=True)
    p.add_argument("--n", default="1..5")
    common(p)

    p = sub.add_parser("scan", help="full flatness scan")
    p.add_argument("--spaces", default="all")
    p.add_argument("--n-max", type=int, default=5, dest="n_max")
    p.add_argument("--tau", default="0.25,0.5,1,2,4")
    p.add_argument("--mode", choices=tuple(m.value for m in Mode),
                   default=Mode.PREFACTOR_CORRECTED.value)
    p.add_argument("--expect-theorem", action="store_true")
    common(p)

    p = sub.add_parser("verify-asymptotics",
                       help="small/large tau oracle deviations")
    p.add_argument("--space", default="all")
    p.add_argument("--n", default="0..3")
    common(p)

    return parser


def parse_args(argv: Sequence[str] | None = None) -> RunConfig:
    parser = build_parser()
    ns = parser.parse_args(argv)
    fail = parser.error

    spaces: tuple[str, ...] = ()
    raw = getattr(ns, "spaces", None)
    if raw is None:
        raw = getattr(ns, "space", None)
    if ns.subcommand == "list":
        spaces = DEFAULT_SCAN_SELECTORS
    elif raw is not None:
        if raw.strip() == "all":
            spaces = DEFAULT_SCAN_SELECTORS
        else:
            labels = tuple(s.strip() for s in raw.split(",") if s.strip())
            if not labels:
                fail("no spaces selected")
            for lbl in labels:
                try:
                    sp = parse_space(lbl)
                except ValueError as exc:
                    fail(str(exc))
                # centrality certificates are exact and hold for any m; the
                # quadrature behind every other subcommand stops at MAX_DIM
                if ns.subcommand != "centrality" and sp.m > MAX_DIM:
                    fail(f"space {lbl} has dimension m={sp.m}, "
                         f"supported is m <= {MAX_DIM}")
            spaces = labels

    n_values: tuple[int, ...] = ()
    if hasattr(ns, "n"):
        try:
            spans = _parse_int_spans(ns.n)
        except ValueError as exc:
            fail(f"bad --n value {ns.n!r}: {exc}")
        # the endpoints are checked before any range is expanded
        low, high = min(lo for lo, _ in spans), max(hi for _, hi in spans)
        if low < 0:
            fail(f"n must be nonnegative, got {low}")
        if high > MAX_DEGREE:
            fail(f"n must be at most {MAX_DEGREE}, got {high}")
        n_values = tuple(sorted({n for lo, hi in spans for n in range(lo, hi + 1)}))

    tau_values: tuple[float, ...] = ()
    if hasattr(ns, "tau"):
        try:
            tau_values = _parse_floats(ns.tau)
        except ValueError as exc:
            fail(f"bad --tau value {ns.tau!r}: {exc}")
        for t in tau_values:
            if not (t > 0.0):
                fail("tau must be positive")
            if t > MAX_TAU:
                fail(f"tau must be at most {MAX_TAU:g}, got {t:g}")
            if t < MIN_TAU:
                fail(f"tau must be at least {MIN_TAU:g}, got {t:g}")

    n_max = getattr(ns, "n_max", 5)
    if not (1 <= n_max <= MAX_DEGREE):
        fail(f"--n-max must lie in [1, {MAX_DEGREE}], got {n_max}")

    if not (TOL_MIN <= ns.tol <= TOL_MAX):
        fail(f"--tol must lie in [{TOL_MIN:g}, {TOL_MAX:g}], got {ns.tol:g}")

    fmt = ns.fmt or ("json" if ns.subcommand == "scan" else "csv")

    return RunConfig(
        subcommand=ns.subcommand,
        spaces=spaces,
        n_values=n_values,
        tau_values=tau_values,
        n_max=n_max,
        tol=ns.tol,
        fmt=fmt,
        out=ns.out,
        mode=Mode(getattr(ns, "mode", Mode.PREFACTOR_CORRECTED.value)),
        expect_theorem=getattr(ns, "expect_theorem", False),
        timestamps=ns.timestamps,
    )


# ---------------------------------------------------------------------------
# formatting


def _fmt_sci(x: float) -> str:
    # lowercase scientific, 9 significant digits
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.8e}"


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt_sci(v)
    return "" if v is None else str(v)


def _render_csv(kind: str, rows: list[dict]) -> str:
    cols = _CSV_COLUMNS[kind]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for row in rows:
        writer.writerow([_csv_cell(_csv_value(row.get(c), c)) for c in cols])
    return buf.getvalue()


def _csv_value(v, col: str):
    if col == "tau" and isinstance(v, float):
        return repr(v)
    if col == "abs_err" and isinstance(v, float):
        return _round_out_2sig(v)
    return v


def _round_out_2sig(x: float) -> float:
    # an error bound keeps two digits, rounded away from zero; the digits
    # below are roundoff that varies between numpy/BLAS builds
    if not math.isfinite(x) or x == 0.0:
        return x
    d = Decimal(x)
    return float(d.quantize(Decimal(1).scaleb(d.adjusted() - 1), rounding=ROUND_UP))


def _sanitize(obj):
    # JSON has no inf/nan literals; stringify them wherever they appear
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else _fmt_sci(obj)
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _render_json(kind: str, payload: dict, cfg: RunConfig) -> str:
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


def _rows_list(cfg: RunConfig) -> list[dict]:
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


def _rows_table(cfg: RunConfig, with_residual: bool) -> tuple[list[dict], bool]:
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
                               abs_err=res.abs_error, dlogq2=d2, status="ok")
                except QuadratureError as exc:
                    d2 = math.nan
                    row.update(q=math.nan, log_q=math.nan, abs_err=math.nan,
                               dlogq2=math.nan, status=f"error: {exc}")
                if with_residual:
                    row["prefactor_residual"] = abs(d2 + 0.5 * sp.m / (tau * tau))
                rows.append(row)
    return rows, all(r["status"] == "ok" for r in rows)


def _rows_centrality(cfg: RunConfig) -> list[dict]:
    from .flatness import centrality_check

    rows = []
    for lbl in cfg.spaces:
        sp = parse_space(lbl)
        for chk in centrality_check(sp, [n for n in cfg.n_values if n >= 1]):
            rows.append({
                "space": lbl, "n": chk.n,
                "lhs": describe_exact(chk.lhs),
                "rhs": describe_exact(chk.rhs),
                "pass": chk.passed,
                # the lhs/rhs strings are exact certificates, never rounded
                "exact": True,
            })
    return rows


def _rows_asymptotics(cfg: RunConfig) -> tuple[list[dict], bool]:
    rows = []
    for lbl in cfg.spaces:
        sp = parse_space(lbl)
        prefetch(sp, cfg.n_values, _SMALL_TAUS + _LARGE_TAUS, cfg.tol,
                 derivs=False)
        for n in cfg.n_values:
            # the floats of the cached record are those of the exact
            # parameters; n and m were validated at parse time.  As a tuple
            # of floats the laws take them without coercing them again
            rec = _isotype(_unit_scale(sp), n)
            coeffs = tuple(rec.coeffs.tolist())
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


def _scan_payload(reports: list[FlatnessReport], cfg: RunConfig) -> dict:
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
            "exact_witness": None if w is None else
                {"n": w.n, "lhs": describe_exact(w.lhs),
                 "rhs": describe_exact(w.rhs), "pass": False},
            "centrality": [
                {"n": c.n, "lhs": describe_exact(c.lhs),
                 "rhs": describe_exact(c.rhs), "pass": c.passed}
                for c in rep.centrality
            ],
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
        "mode": cfg.mode.value,
        "n_max": cfg.n_max,
        "tau_grid": list(cfg.tau_values),
        "tol": cfg.tol,
        "reports": reps,
    }


def _render(cfg: RunConfig) -> tuple[str, bool]:
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
            mode=cfg.mode,
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


def run(cfg: RunConfig) -> int:
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
