"""Output checks: every operation of a pass is checked and counted.

An operation is one numeric cell, plus each space's verdict and exact
witness in ``scan_default``, plus the exit code of the pass and, for the
JSON document of ``scan_default``, its ``qflat.v1`` schema.  A cell fails
when qflat raised or printed nan for it, when its log q misses the mpmath
reference by more than the tolerance it was computed at, when an S3 cell is
off the closed form (log q_n)'' = -3/(2 tau^2) by more than the corridor in
which the scan calls a space flat, or when the printed document disagrees
with what the call returned.  The mpmath references cover the default
seed, and every seed of ``oracles``, whose cells do not depend on it; other
seeds get every other check.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import workloads

PASS_DEVIATION = 1e-6  # qflat.flatness: a residual at or below this is flat
PRINT_REL = 1e-8  # two half-units in the 9th significant digit of %.8e
_MAX_MESSAGES = 20


class Tally:
    """Attempted and failed operations, with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < _MAX_MESSAGES:
                self.messages.append(f"{what}: {'; '.join(problems)}")


def _num(text) -> float:
    """A printed number, or nan when the document holds something else."""
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def _close(printed: str, value: float) -> bool:
    x = _num(printed)
    if math.isinf(value) or math.isinf(x):
        return x == value
    return abs(x - value) <= PRINT_REL * abs(value)


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def true_rel_error(log_q: float, ref: str) -> float:
    """|q / q_ref - 1| with the reference's 30 digits kept exactly."""
    if not math.isfinite(log_q):
        return math.inf
    try:
        return abs(math.expm1(float(Fraction(log_q) - Fraction(ref))))
    except OverflowError:
        return math.inf


def _s3_d2(tau: float) -> float:
    return -1.5 / (tau * tau)


def _cell_calls(cells: list[dict]) -> dict:
    by_cell: dict = {}
    for rec in cells:
        by_cell.setdefault((rec["space"], rec["n"], rec["tau"]), []).append(rec)
    return by_cell


def _call_problems(calls: list[dict], ref: dict | None) -> list[str]:
    if not calls:
        return ["no quadrature call"]
    out = []
    for rec in calls:
        if "error" in rec:
            out.append(rec["error"])
        elif ref is not None:
            tol = rec["tol"] or workloads.TOL  # None: called at the default
            err = true_rel_error(rec["log_q"], ref["log_q"])
            if not err <= tol:
                out.append(f"log q off the reference by {err:.3g} > tol {tol:g}")
    return out


def check_pass(workload: str, seed: int, reference: dict, schema: dict,
               doc: str, rc, cells: list[dict]) -> tuple[Tally, dict]:
    """Check one pass; returns the tally and its reference-quality counts."""
    tally = Tally()
    tally.op([] if rc == 0 else [f"exit code {rc!r}"], "exit code")
    argv = workloads.argv_for(workload, seed)
    refs = reference["cells"] if argv == reference["argv"][workload] else {}
    calls = _cell_calls(cells)

    if workload == "scan_default":
        _check_scan(tally, seed, reference, schema, doc, calls, refs)
    elif workload == "table_dense":
        _check_table(tally, seed, doc, calls, refs)
    else:
        _check_oracles(tally, seed, doc, calls, refs)
    return tally, _quality(cells, refs)


def _check_scan(tally, seed, reference, schema, doc, calls, refs) -> None:
    import jsonschema

    try:
        parsed = json.loads(doc)
        jsonschema.validate(parsed, schema)
        problems = []
    except (ValueError, jsonschema.ValidationError) as exc:
        parsed, problems = None, [f"{type(exc).__name__}: {str(exc)[:200]}"]
    tally.op(problems, "qflat.v1 schema")
    reports = {r.get("space"): r for r in (parsed or {}).get("reports", [])}
    for lbl, n, tau in workloads.cells("scan_default", seed):
        rep = reports.get(lbl)
        cell = calls.get((lbl, n, tau), [])
        probs = _call_problems(cell, refs.get(workloads.cell_key(lbl, n, tau)))
        value = None
        if rep is None:
            probs.append("space missing from the document")
        else:
            try:
                value = rep["curvature"][n][rep["tau_grid"].index(tau)]
            except (KeyError, IndexError, ValueError):
                probs.append("cell missing from the document")
        if value is not None:
            if not isinstance(value, (int, float)):
                probs.append(f"printed {value!r}")
            elif cell and value != cell[-1].get("d2"):
                probs.append("printed curvature differs from the computed one")
            elif lbl == "S3" and not abs(value - _s3_d2(tau)) <= PASS_DEVIATION:
                probs.append(f"S3 curvature {value!r} off -1.5/tau^2")
        tally.op(probs, f"cell {lbl} n={n} tau={tau!r}")
    for lbl, want in reference["spaces"].items():
        rep = reports.get(lbl) or {}
        got = rep.get("verdict")
        tally.op([] if got == want["verdict"] else
                 [f"verdict {got!r}, theorem says {want['verdict']!r}"],
                 f"verdict {lbl}")
        got = rep.get("exact_witness")
        tally.op([] if got == want["witness"] else
                 [f"witness {got!r}, expected {want['witness']!r}"],
                 f"witness {lbl}")


def _csv_index(doc: str) -> dict:
    """CSV rows by (space, n, tau); empty when the document does not parse."""
    try:
        return {(r["space"], int(r["n"]), float(r["tau"])): r
                for r in csv.DictReader(io.StringIO(doc))}
    except (csv.Error, KeyError, TypeError, ValueError):
        return {}


def _check_table(tally, seed, doc, calls, refs) -> None:
    rows = _csv_index(doc)
    for lbl, n, tau in workloads.cells("table_dense", seed):
        cell = calls.get((lbl, n, tau), [])
        probs = _call_problems(cell, refs.get(workloads.cell_key(lbl, n, tau)))
        row = rows.get((lbl, n, tau))
        if row is None:
            probs.append("row missing from the document")
        elif "nan" in (row["q"], row["dlogq2"], row["prefactor_residual"]):
            probs.append("printed nan")
        else:
            last = cell[-1] if cell else {"error": ""}
            if "error" not in last and not (
                    _close(row["q"], _exp(last["log_q"]))
                    and _close(row["dlogq2"], last["d2"])):
                probs.append("printed q or (log q)'' differs from the computed one")
            if lbl == "S3" and not _num(row["prefactor_residual"]) <= PASS_DEVIATION:
                probs.append(f"S3 prefactor residual {row['prefactor_residual']}")
        tally.op(probs, f"cell {lbl} n={n} tau={tau!r}")


def _check_oracles(tally, seed, doc, calls, refs) -> None:
    rows = _csv_index(doc)
    for lbl, n, tau in workloads.cells("oracles", seed):
        ref = refs.get(workloads.cell_key(lbl, n, tau))
        probs = _call_problems(calls.get((lbl, n, tau), []), ref)
        row = rows.get((lbl, n, tau))
        if row is None:
            probs.append("row missing from the document")
        elif row["deviation"] == "nan":
            probs.append("printed nan")
        elif ref is not None:
            dev, want = _num(row["deviation"]), ref["deviation"]
            log_q = abs(float(ref["log_q"]))
            # a q within tol moves the deviation by (1 + dev) tol; both
            # laws are evaluated in doubles near |log q|; the CSV rounds
            slack = ((1.0 + want) * (workloads.TOL + 1e-15 * (1.0 + log_q))
                     + PRINT_REL * want)
            if not abs(dev - want) <= slack:
                probs.append(f"deviation {dev!r}, reference {want!r}")
        tally.op(probs, f"cell {lbl} n={n} tau={tau!r}")


def _quality(cells: list[dict], refs: dict) -> dict:
    """Error-bound misses and worst (log q)'' error over referenced calls."""
    misses = 0
    d2_worst = 0.0
    for rec in cells:
        if "error" in rec:
            continue
        ref = refs.get(workloads.cell_key(rec["space"], rec["n"], rec["tau"]))
        if ref is not None and true_rel_error(rec["log_q"], ref["log_q"]) > rec["rel_error"]:
            misses += 1
        if "d2" not in rec:
            continue
        if rec["space"] == "S3":
            want = _s3_d2(rec["tau"])
        elif ref is not None:
            want = float(ref["d2"])
        else:
            continue
        d2_worst = max(d2_worst, abs(rec["d2"] / want - 1.0))
    return {"err_bound_misses": misses, "d2_relerr_max": d2_worst}
