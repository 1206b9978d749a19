"""qflat benchmark: end-to-end metrics, or a traced per-layer breakdown.

    python3 bench/run.py --workload scan_default --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all      # every workload, untraced then traced

Run from anywhere inside a checkout; qflat is imported from the checkout's
``src/`` and never installed.  Each run

* starts fresh interpreters that import ``qflat.cli`` and parse the
  workload's argv, one after another and each between two reference
  interpreters that import numpy but not qflat, and reports their median
  in reference seconds as ``setup_s`` (``--trace 0`` only);
* runs the workload's command again and again in one worker process
  (``worker.py``) with ``QFLAT_THREADS`` unset and BLAS/OpenMP pinned to one
  thread, for ``--seconds``: ``wall_s`` is the median pass in reference
  seconds (``calibrate.py``) and ``peak_rss_mb`` the worker's peak
  resident memory;
* times calibration kernel units in this process while the worker waits
  in its passes, and flags the run when the kernel ran at another speed
  inside the worker (``in_pass_ratio``);
* checks the outputs (``checks.py``) and counts failed operations;
* guards the exact-repeat contract: every pass must print the same
  document, and the counts of traced passes must agree, within the run and
  with earlier runs of the same workload, seed and sources in this checkout.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the end-to-end metrics with
``--trace 0`` and the per-layer ones with ``--trace 1``.  Spans and the full
record of the run are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SRC = os.path.join(ROOT, "src")
CLI_FILE = os.path.join(SRC, "qflat", "cli.py")
SCHEMA = os.path.join(SRC, "qflat", "schemas", "qflat.v1.schema.json")
REFERENCE = os.path.join(BENCH, "reference", "reference.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

SETUP_PROBES = 15
CROSS_UNITS = 3  # kernel units timed here each time the worker waits
WORKER_TIMEOUT_S = 160  # the whole run must end within 180 s
# a fresh interpreter up to the moment qflat.cli has parsed the argv;
# time.monotonic is the same clock in every process
PROBE = ("import sys, time\n"
         "import qflat.cli\n"
         "qflat.cli.parse_args(sys.argv[1:])\n"
         "t = time.monotonic()\n"
         "print(repr(t), qflat.cli.__file__)\n")
# a fresh interpreter that loads numpy and the standard modules a CLI uses
# but nothing of qflat: start-up and imports slow down under contention in
# their own way, which a compute kernel does not follow, so each probe is
# scaled by the reference probes run right before and right after it
REF_PROBE = ("import sys, time\n"
             "import argparse, json, numpy\n"
             "print(repr(time.monotonic()), '-')\n")
# median reference probe on the machine the baseline was recorded on
# (2 cores, Python 3.11.7, numpy 2.4.6); only ratios between runs matter
REF_PROBE_S = 0.185
MIN_TRACED_CELLS = 1000  # so that cell_ms_p99 has at least ten cells above it

sys.path.insert(0, BENCH)
import calibrate  # noqa: E402
import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a failed check)."""


def pinned_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QFLAT_THREADS"}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    return env


def _same_file(path: str, expected: str) -> bool:
    return os.path.realpath(path) == os.path.realpath(expected)


def setup_times(argv: list[str], env: dict) -> list[tuple[float, float]]:
    """(seconds, reference seconds) of each fresh-interpreter probe."""

    def probe(code: str) -> tuple[float, str]:
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        stamp, path = proc.stdout.split(None, 1)
        return float(stamp) - t0, path.strip()

    out = []
    ref_s, _ = probe(REF_PROBE)
    for _ in range(SETUP_PROBES):
        secs, path = probe(PROBE)
        if not _same_file(path, CLI_FILE):
            raise BenchError(f"probe imported qflat from {path}")
        before, (ref_s, _) = ref_s, probe(REF_PROBE)
        out.append((secs, secs * REF_PROBE_S / (0.5 * (before + ref_s))))
    return out


def run_worker(argv: list[str], seconds: float, trace: int,
               env: dict) -> tuple[dict, list[float]]:
    """The worker's report, and the kernel unit times taken here meanwhile.

    The worker runs on this process's CPU.  About once a second during an
    untraced pass it prints ``cal`` and waits for a line on its stdin; this
    process times ``CROSS_UNITS`` kernel units meanwhile, at the same times
    as the worker's own samples and while the worker is idle.
    """
    cfg = {"argv": argv, "seconds": seconds, "trace": trace,
           "min_cells": MIN_TRACED_CELLS if trace else 0}
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "worker.py"), json.dumps(cfg)],
        env=env, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    timed_out = threading.Event()

    def kill() -> None:
        timed_out.set()
        proc.kill()

    watchdog = threading.Timer(WORKER_TIMEOUT_S, kill)
    watchdog.start()
    unit_times, lines = [], []
    try:
        for line in proc.stdout:
            if line != "cal\n":
                lines.append(line)
                continue
            calibrate.timed_unit()  # the first unit after a wait runs cold
            unit_times += [calibrate.timed_unit() for _ in range(CROSS_UNITS)]
            try:
                proc.stdin.write("\n")
                proc.stdin.flush()
            except BrokenPipeError:
                pass
        proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stdin.close()
    if not unit_times:
        unit_times.append(calibrate.timed_unit())
    if timed_out.is_set():
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker failed: {''.join(lines).strip()[-2000:]}")
    out = json.loads(lines[-1])
    if not _same_file(out["qflat_file"], CLI_FILE):
        raise BenchError(f"worker imported qflat from {out['qflat_file']}")
    return out, unit_times


def src_digest() -> str:
    """sha256 over the package sources, so guards follow the code measured."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "qflat"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def guard(workload: str, seed: int, digest: str, work: dict,
          rows: list[dict]) -> list[str]:
    """Exact-repeat contract within this run and against earlier runs."""
    problems = []
    passes = work["passes"]
    if len({p["sha256"] for p in passes}) != 1:
        problems.append("output documents differ between passes "
                        "(traced and untraced included)")
    if len({p["cancellation_warnings"] for p in passes}) != 1:
        problems.append("cancellation warning counts differ between passes")
    counts = [{k: r[k] for k in layers.EXACT} for r in rows]
    if any(c != counts[0] for c in counts):
        problems.append(f"traced counts differ between passes: {counts}")
    record = {"sha256": passes[0]["sha256"], "counts": counts[0]}
    path = os.path.join(OUT_DIR, "guard.json")
    try:
        with open(path, encoding="utf-8") as fh:
            seen = json.load(fh)
    except (OSError, ValueError):
        seen = {}
    key = f"{workload}|{seed}|{digest}"
    if key in seen and seen[key] != record:
        problems.append(f"differs from an earlier run of the same sources: "
                        f"{seen[key]} != {record}")
    seen.setdefault(key, record)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(seen, fh, indent=1, sort_keys=True)
    return problems


def check_passes(workload: str, seed: int, work: dict) -> tuple:
    """Check every traced pass; returns the tally and per-pass layer rows."""
    with open(SCHEMA, encoding="utf-8") as fh:
        schema = json.load(fh)
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    total = checks.Tally()
    rows = []
    for p in work["passes"]:
        if not p["traced"]:
            continue
        cells = [c for c in work["cells"] if c["pass"] == p["id"]]
        tally, quality = checks.check_pass(workload, seed, reference, schema,
                                           work["doc"], p["rc"], cells)
        if p["error"]:
            tally.op([p["error"]], "pass")
        total.attempted += tally.attempted
        total.failed += tally.failed
        total.messages += tally.messages[:5]
        rows.append(layers.per_pass(work["spans"], work["cells"], p, quality))
    return total, rows


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = workloads.argv_for(workload, seed)
    env = pinned_env()
    setup = setup_times(argv, env) if trace == 0 else []
    work, unit_times = run_worker(argv, seconds, trace, env)
    passes = work["passes"]
    for i, p in enumerate(passes):
        p["id"] = i
    total, rows = check_passes(workload, seed, work)
    digest = src_digest()
    guard_problems = guard(workload, seed, digest, work, rows)

    # pass 0 is the warm-up; with trace 0 the one traced pass only feeds
    # the checks
    untraced = [p for p in passes[1:] if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    wall_raw_s = statistics.median(p["wall_s"] for p in untraced)
    # the kernel inside the worker against the kernel in this process,
    # which has not imported qflat
    in_pass_ratio = (
        statistics.median(u for p in passes if not p["traced"]
                          for u in p["unit_samples"])
        / statistics.median(unit_times))
    with open(BENCHMARK, encoding="utf-8") as fh:
        wall_bound = next(m["bound"] for m in json.load(fh)["end_to_end"]
                          if m["name"] == "wall_s")
    cal_problems = []
    if abs(in_pass_ratio - 1.0) > wall_bound:
        cal_problems.append(
            f"calibration kernel ran {in_pass_ratio:.3f}x as long inside the "
            f"worker as in its own process, beyond the wall_s bound "
            f"{wall_bound}: wall_s may have divided out a slowdown of qflat's "
            f"process")
    wall_s = statistics.median(p["wall_s"] * p["scale"] for p in untraced)
    if trace == 0:
        metrics = {
            "setup_s": statistics.median(ref for _, ref in setup),
            "wall_s": wall_s,
            "peak_rss_mb": work["peak_rss_kb"] / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        overhead = statistics.median(
            p["wall_s"] * p["scale"] for p in traced) / wall_s
        metrics = layers.summarize(rows, overhead)
        units = layers.UNITS
    failed_ratio = total.failed / total.attempted

    provenance = {
        "workload": workload, "seed": seed, "argv": argv, "trace": trace,
        "seconds": seconds, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": work["python"], "numpy": work["numpy"],
        "machine": platform.machine(), "commit": git_commit(),
        "src_sha256": digest,
    }
    report = {
        "provenance": provenance,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "wall_raw_s": wall_raw_s, "failed_ratio": failed_ratio,
        "in_pass_ratio": in_pass_ratio,
        "unit_out_of_process_s": unit_times,
        "calibration_problems": cal_problems,
        "attempted": total.attempted, "failed": total.failed,
        "check_messages": total.messages, "guard_problems": guard_problems,
        "setup_probes_s": setup,
        "passes": passes,
        "spans": work["spans"], "cells": work["cells"],
    }
    name = f"{workload}-seed{seed}-trace{trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(report, fh)

    print(f"== {workload}  seed {seed}  trace {trace}  "
          f"nproc {provenance['nproc']}  python {provenance['python']}  "
          f"numpy {provenance['numpy']}  "
          f"commit {provenance['commit'] or 'n/a'}  src {digest[:12]}")
    print(f"   argv: qflat {' '.join(argv)}")
    print(f"   passes: {len(untraced)} untraced timed"
          + (f", {len(traced)} traced timed" if trace else
             ", 1 traced for the checks")
          + " after 1 untraced warm-up"
          + (f"; setup from {len(setup)} fresh interpreters" if setup else ""))
    for k, v in metrics.items():
        print(f"   {k:36s} {v:>14.6g} {units[k]}")
    if setup:
        print(f"   {'setup_raw_s':36s} "
              f"{statistics.median(raw for raw, _ in setup):>14.6g} s  "
              f"(not calibrated)")
    print(f"   {'wall_raw_s':36s} {wall_raw_s:>14.6g} s  (not calibrated)")
    print(f"   {'in_pass_ratio':36s} {in_pass_ratio:>14.6g} 1  "
          f"(kernel unit time in the worker over that in run.py)")
    print(f"   {'failed_ratio':36s} {failed_ratio:>14.6g} 1  "
          f"({total.failed} of {total.attempted} operations)")
    for msg in total.messages + guard_problems:
        print(f"   ! {msg}")
    for msg in cal_problems:
        print(f"   ? {msg}")
    return {"correct": total.failed == 0 and not guard_problems,
            "attempted": total.attempted, "failed": total.failed,
            "metrics": report["metrics"]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="qflat benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",),
                    default="all")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(CLI_FILE):
        print(f"error: no qflat sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    # everything runs on one CPU, and the probes and the worker inherit it:
    # the CPUs of a shared machine run at different speeds, so a kernel
    # timed on one would not calibrate a pass or a probe run on another
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if args.workload != "all":
            result = run_one(args.workload, args.seed, args.seconds, args.trace)
        else:
            result = {f"{w}/trace{t}": run_one(w, args.seed, args.seconds, t)
                      for w in workloads.WORKLOADS for t in (0, 1)}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
