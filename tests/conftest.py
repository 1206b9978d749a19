import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from qflat import quadrature

# Every property test draws the same examples on every run, and no example
# database is read or written: the suite's outcome depends on the code alone.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
# Hypothesis still caches the constants it reads from the source, from the
# collection on; that cache goes to a directory removed at exit, not to
# .hypothesis/
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="qflat-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

# pyproject.toml puts src/ on the suite's own path; the interpreters the
# suite starts (console entry, BLAS kernels) import qflat from there too
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(autouse=True)
def empty_memo():
    # quadrature._ROW holds the last prefetched grid: no test sees a cell
    # that another test left there, nor leaves one behind
    quadrature._ROW.clear()
    yield
    quadrature._ROW.clear()
