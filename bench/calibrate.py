"""Measure how fast the machine runs while a pass runs.

The machines this benchmark runs on are shared: the same pass of the same
command takes 0.65 s in one stretch and 1.3 s in the next, on both cores,
with process CPU time tracking wall time, so the slowdown comes from other
tenants, not from waiting.  The stretches last from under a second to
longer than a run, so neither a median over passes nor a calibration run
before and after each pass removes them.

So a ``Sampler`` interrupts each untraced pass every ``INTERVAL_S`` seconds
of wall time and times one ``unit`` of a fixed kernel from the signal
handler.  The pass's own time is its wall time minus the time spent in the
handler, and the pass counts as that many seconds times
``REFERENCE_UNIT_S`` over the mean time of a unit during the pass: a pass
that ran while the kernel ran at half its reference speed counts half.
Set-up probes are calibrated differently, by reference probes (run.py).

The kernel is shaped like qflat's hot path, log-sum-exp over small numpy
arrays of 1 to 17 rows inside a Python loop over Gauss-Legendre panels, so
that contention slows it about as much as it slows qflat; a pure-Python
loop does not track qflat's slowdowns.  It imports nothing from qflat and
runs with the garbage collector off, so qflat's heap does not decide when
the kernel pays for a collection.

What the calibration cannot see: the in-pass kernel shares qflat's process.
A change that slows the whole process, not just qflat's own code (a
background thread contending for the GIL, a larger working set that evicts
the kernel's data from the caches, global numpy state), slows the kernel
too and is divided out of ``wall_s``.  As a cross-check, run.py times the
kernel in its own process, which has not imported qflat, on the same CPU
while the worker waits inside its passes, and flags a run whose in-pass
unit time differs from that by more than the ``wall_s`` bound
(``in_pass_ratio``).
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

# Median seconds per unit on the machine the baseline was recorded on
# (2 cores, Python 3.11.7, numpy 2.4.6).  Only ratios between runs matter.
REFERENCE_UNIT_S = 0.0037
INTERVAL_S = 0.1

_X, _W = np.polynomial.legendre.leggauss(15)


@dataclass
class _Panel:
    a: float
    b: float
    val: np.ndarray


def unit() -> float:
    """One unit of work: weights of degree 0..16, 8 panels x 45 nodes each."""
    total = 0.0
    for deg in range(0, 17, 2):
        logc = np.log(np.linspace(1.0, 3.0, deg + 1))[:, None]
        j2 = (2.0 * np.arange(deg + 1))[:, None]
        panels = []
        for a in np.linspace(0.01, 6.0, 8).tolist():
            b = a + 0.25
            m, h = 0.5 * (a + b), 0.5 * (b - a)
            xs = np.concatenate([m + h * _X, 0.5 * (a + m) + 0.5 * h * _X,
                                 0.5 * (m + b) + 0.5 * h * _X])
            ls = np.log(np.sinh(xs))
            lt = logc + j2 * ls[None, :]
            top = np.max(lt, axis=0)
            g = top + np.log(np.sum(np.exp(lt - top[None, :]), axis=0)) - xs * xs
            w = np.exp(g - g.max())
            rows = np.stack([w, xs * xs * w, xs ** 4 * w])
            panels.append(_Panel(a, b, rows[:, 15:30] @ _W * h))
        total += math.fsum(float(p.val[0]) for p in panels)
    return total


def timed_unit() -> float:
    """Wall seconds of one ``unit``, run with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        unit()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Times one kernel unit every INTERVAL_S seconds inside a ``with`` block.

    Uses SIGALRM, so it belongs to the main thread and to one block at a
    time.  After each sample the handler calls ``tick_hook``, if given,
    and counts the time it takes as paused as well.  After the block,
    ``paused_s`` is the time the handler took and ``scale`` turns the
    block's remaining seconds into reference seconds.
    """

    def __init__(self, tick_hook=None) -> None:
        self.tick_hook = tick_hook
        self.samples: list[float] = []
        self.paused_s = 0.0
        self.scale = 1.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(timed_unit())
        if self.tick_hook is not None:
            self.tick_hook()
        self.paused_s += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self.samples = []
        self.paused_s = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # a block shorter than one interval
            self.samples.append(timed_unit())
        self.scale = REFERENCE_UNIT_S / statistics.fmean(self.samples)
