"""Run one workload's qflat command repeatedly in this process.

Started by ``run.py`` with the environment already pinned; takes one JSON
argument ``{"argv": [...], "seconds": s, "trace": 0|1, "min_cells": k}``
and prints one JSON object with every pass, the output document of the
first pass and, for traced passes, the spans and cell records.

Pass 0 is an untimed, untraced warm-up.  With ``trace`` 0 the passes after
it are untraced and timed until ``seconds`` are up; then the peak resident
memory is read, and one traced pass records the calls the output checks
need, so that its spans and cell records do not count toward the peak.
With ``trace`` 1 traced and untraced passes alternate, so that the ratio
of their medians is the tracing overhead, and every traced pass is
checked.  Every pass calls ``qflat.cli.main`` with stdout sent to an
in-memory buffer; ``CancellationWarning``s are counted, not kept.
Untraced passes run under ``calibrate.Sampler``: their ``wall_s`` leaves
out the sampler's pauses and ``scale`` turns it into reference seconds.
Every ``_CROSS_EVERY`` samples it prints ``cal`` and waits for a line on
stdin, so that run.py can time the same kernel in its own process
meanwhile.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import statistics
import sys
import time
import warnings

import calibrate
from tracing import Tracer

_MIN_PASSES = 3
_CROSS_EVERY = 10  # sampler ticks between two cross-check waits


def _peak_rss_kb() -> int:
    """This process's peak resident memory since it was started.

    ``ru_maxrss`` is not used: Linux carries the parent's peak across the
    fork and exec that start this process, so it would measure run.py.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    cfg = json.loads(sys.argv[1])
    argv = cfg["argv"]
    import numpy
    import qflat.cli
    from qflat.quadrature import CancellationWarning

    tracer = Tracer()
    passes: list[dict] = []
    first_doc = None

    ticks = 0

    def cross() -> None:
        # every _CROSS_EVERY ticks run.py times its own kernel units while
        # this process waits
        nonlocal ticks
        ticks += 1
        if ticks % _CROSS_EVERY == 0:
            print("cal", file=sys.__stdout__, flush=True)
            sys.stdin.readline()

    def one_pass(traced: bool) -> None:
        nonlocal first_doc
        pass_id = len(passes)
        buf = io.StringIO()
        error = None
        cancellations = 0

        def count(message, category, *args, **kwargs) -> None:
            nonlocal cancellations
            if issubclass(category, CancellationWarning):
                cancellations += 1

        # traced passes are not sampled: a kernel unit inside a span would
        # count toward that layer
        sampler = (contextlib.nullcontext() if traced
                   else calibrate.Sampler(tick_hook=cross))
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = count
            if traced:
                tracer.install(pass_id)
            t0 = time.perf_counter()
            try:
                with sampler, contextlib.redirect_stdout(buf):
                    rc = qflat.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a crash is a failed pass, not a dead run
                rc, error = None, f"{type(exc).__name__}: {exc}"
            finally:
                wall = time.perf_counter() - t0
                tracer.uninstall()
        text = buf.getvalue()
        if first_doc is None:
            first_doc = text
        record = {
            "traced": traced, "wall_s": wall, "rc": rc, "error": error,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "bytes": len(text.encode()),
            "cancellation_warnings": cancellations,
        }
        if not traced:
            record.update(wall_s=wall - sampler.paused_s,
                          paused_s=sampler.paused_s, scale=sampler.scale,
                          unit_samples=sampler.samples)
        passes.append(record)

    one_pass(traced=False)
    deadline = time.perf_counter() + cfg["seconds"]
    traced_cells = 0
    cycles = []
    while True:
        start = time.perf_counter()
        # with trace 1, passes 1, 3, 5, ... are traced and the run ends on
        # an untraced pass, so every traced pass sits between two untraced
        traced = cfg["trace"] == 1 and len(passes) % 2 == 1
        one_pass(traced)
        if traced:
            traced_cells += sum(1 for c in tracer.cells
                                if c["pass"] == len(passes) - 1)
        cycles.append(time.perf_counter() - start)
        if len(cycles) < _MIN_PASSES or traced_cells < cfg["min_cells"]:
            continue
        if cfg["trace"] == 1 and traced:
            continue
        if deadline - time.perf_counter() < 0.5 * statistics.median(cycles):
            break
    # read before the traced pass below and before anything is allocated
    # for the report
    peak_rss_kb = _peak_rss_kb()
    if cfg["trace"] == 0:
        one_pass(traced=True)
    # a traced pass takes the mean speed of the untraced passes around it
    for i, p in enumerate(passes):
        if p["traced"]:
            near = [passes[j]["scale"] for j in (i - 1, i + 1)
                    if 0 <= j < len(passes) and not passes[j]["traced"]]
            p["scale"] = statistics.fmean(near)

    json.dump({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "qflat_file": qflat.cli.__file__,
        "peak_rss_kb": peak_rss_kb,
        "passes": passes,
        "doc": first_doc,
        "spans": tracer.spans,
        "cells": tracer.cells,
    }, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
