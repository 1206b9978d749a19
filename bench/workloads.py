"""The benchmark's workloads: the qflat argv each one runs for a given seed.

The seed jitters the interior points of each geometric tau grid by up to a
quarter of a grid step, in log space; the grid end points stay fixed so that
every seed reaches the same corners of the supported box.  Seed 0 is the
unjittered grid, which is the one the committed reference values cover.
The ``oracles`` taus are constants of the CLI, so its argv does not depend
on the seed.
"""

from __future__ import annotations

import random

WORKLOADS = ("scan_default", "table_dense", "oracles")
DEFAULT_SEED = 0

# qflat's DEFAULT_SCAN_SELECTORS, spelled out so that a change to the
# catalog default shows up as a reference mismatch instead of passing.
SCAN_SPACES = ("S2", "S3", "S4", "S5", "S7", "CP2", "CP3", "HP2", "OP2")
SCAN_N_MAX = 5
TABLE_SPACES = ("S3", "CP2", "HP2", "OP2")
TABLE_N_MAX = 16
ORACLE_N_MAX = 16
ORACLE_TAUS = (1e-3, 1e-2, 100.0, 400.0)
TOL = 1e-10  # the CLI default; no workload passes --tol


def tau_grid(lo: float, hi: float, count: int, seed: int,
             salt: str) -> tuple[str, ...]:
    """Geometric grid from lo to hi as CLI strings, interior points jittered."""
    ratio = (hi / lo) ** (1.0 / (count - 1))
    rng = random.Random(f"{salt}:{seed}")
    out = []
    for i in range(count):
        step = float(i)
        if seed != DEFAULT_SEED and 0 < i < count - 1:
            step += rng.uniform(-0.25, 0.25)
        out.append(f"{lo * ratio ** step:.6g}")
    return tuple(out)


def argv_for(workload: str, seed: int) -> list[str]:
    if workload == "scan_default":
        taus = tau_grid(0.25, 4.0, 5, seed, workload)
        return ["scan", "--spaces", "all", "--expect-theorem",
                "--tau", ",".join(taus)]
    if workload == "table_dense":
        taus = tau_grid(0.05, 400.0, 20, seed, workload)
        return ["curvature", "--space", ",".join(TABLE_SPACES),
                "--n", f"0..{TABLE_N_MAX}", "--tau", ",".join(taus)]
    if workload == "oracles":
        return ["verify-asymptotics", "--space", "all",
                "--n", f"0..{ORACLE_N_MAX}"]
    raise ValueError(f"unknown workload {workload!r}")


def taus_of(argv: list[str]) -> tuple[float, ...]:
    if "--tau" in argv:
        return tuple(float(t) for t in argv[argv.index("--tau") + 1].split(","))
    return ORACLE_TAUS


def cells(workload: str, seed: int) -> list[tuple[str, int, float]]:
    """(space, n, tau) of every numeric cell, in the order qflat visits them."""
    taus = taus_of(argv_for(workload, seed))
    if workload == "scan_default":
        spaces, n_max = SCAN_SPACES, SCAN_N_MAX
    elif workload == "table_dense":
        spaces, n_max = TABLE_SPACES, TABLE_N_MAX
    else:
        spaces, n_max = SCAN_SPACES, ORACLE_N_MAX
    return [(lbl, n, tau) for lbl in spaces for n in range(n_max + 1)
            for tau in taus]


def cell_key(label: str, n: int, tau: float) -> str:
    return f"{label}|{n}|{tau!r}"
