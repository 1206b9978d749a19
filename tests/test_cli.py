import csv
import functools
import importlib.util
import io
import json
import math
import operator
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from qflat import quadrature
from qflat.cli import main, parse_args, run
from qflat.spaces import parse_space

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_RUNS = {
    "qtable_s3_cp2.csv": ["qtable", "--space", "S3,CP2", "--n", "0..2",
                          "--tau", "0.5,1"],
    "curvature_s2.csv": ["curvature", "--space", "S2", "--n", "0..1",
                         "--tau", "1"],
}


def load_bench(name):
    """The module ``bench/<name>.py``, loaded from its file."""
    path = Path(__file__).parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def capture(argv) -> tuple[str, int]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return buf.getvalue(), code


class TestParseArgs:
    def test_scan_all(self):
        cfg = parse_args(["scan", "--spaces", "all", "--format", "json"])
        assert len(cfg.spaces) == 9
        assert cfg.fmt == "json"
        assert cfg.subcommand == "scan"

    def test_scan_defaults_to_json(self):
        cfg = parse_args(["scan"])
        assert cfg.fmt == "json"
        assert cfg.tau_values == (0.25, 0.5, 1.0, 2.0, 4.0)
        assert cfg.n_max == 5

    def test_qtable_cell_grid(self):
        cfg = parse_args(["qtable", "--space", "S3", "--n", "0..3",
                          "--tau", "0.5,1,2"])
        assert cfg.spaces == ("S3",)
        assert cfg.n_values == (0, 1, 2, 3)
        assert cfg.tau_values == (0.5, 1.0, 2.0)
        assert len(cfg.spaces) * len(cfg.n_values) * len(cfg.tau_values) == 12

    def test_n_list_syntax(self):
        cfg = parse_args(["qtable", "--space", "S3", "--n", "5,1,1,3",
                          "--tau", "1"])
        assert cfg.n_values == (1, 3, 5)

    def test_negative_tau_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["qtable", "--space", "S3", "--n", "0", "--tau", "-1"])
        assert exc.value.code == 1
        assert "tau must be positive" in capsys.readouterr().err

    def test_oversized_tau_rejected(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["qtable", "--space", "S3", "--n", "0", "--tau", "450"])
        assert exc.value.code == 1

    def test_tau_below_floor_rejected(self, capsys):
        for tau in ("1e-200", "1e-31"):
            with pytest.raises(SystemExit) as exc:
                parse_args(["qtable", "--space", "S3", "--n", "0", "--tau", tau])
            assert exc.value.code == 1
            err = capsys.readouterr().err.splitlines()
            assert err[-1] == f"qflat: error: tau must be at least 1e-30, got {tau}"
        cfg = parse_args(["qtable", "--space", "S3", "--n", "0", "--tau", "1e-30"])
        assert cfg.tau_values == (quadrature.MIN_TAU,)

    def test_tau_at_floor_runs(self):
        out, code = capture(["curvature", "--space", "S3,OP2", "--n", "0,16",
                             "--tau", "1e-30"])
        assert code == 0
        assert "nan" not in out

    def test_dimension_above_box_rejected(self, capsys):
        for argv in (["qtable", "--space", "S3,S20"], ["curvature", "--space", "CP9"],
                     ["scan", "--spaces", "S17"], ["verify-asymptotics", "--space", "HP5"]):
            with pytest.raises(SystemExit) as exc:
                parse_args(argv)
            assert exc.value.code == 1, argv
            err = capsys.readouterr().err.splitlines()
            assert "supported is m <= 16" in err[-1], argv
        for lbl in ("S16", "CP8", "HP4", "OP2"):
            assert parse_args(["qtable", "--space", lbl]).spaces == (lbl,)
        # exact certificates hold for any dimension
        out, code = capture(["centrality", "--space", "S40", "--n", "1..2"])
        assert code == 0
        assert out.count("S40,") == 2

    def test_degree_bounds_follow_max_degree(self, capsys):
        top = quadrature.MAX_DEGREE
        for argv in (["qtable", "--space", "S3", "--n", str(top + 1)],
                     ["scan", "--n-max", str(top + 1)],
                     ["scan", "--n-max", "0"]):
            with pytest.raises(SystemExit) as exc:
                parse_args(argv)
            assert exc.value.code == 1, argv
            capsys.readouterr()
        assert parse_args(["qtable", "--space", "S3", "--n", str(top)]).n_values == (top,)
        assert parse_args(["scan", "--n-max", str(top)]).n_max == top
        # a long range is refused from its endpoints, before it is expanded
        for n, word in (("0..200000", "at most"), ("-200000..0", "nonnegative")):
            tracemalloc.start()
            try:
                with pytest.raises(SystemExit) as exc:
                    parse_args(["qtable", "--space", "S3", f"--n={n}"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert exc.value.code == 1, n
            assert f"n must be {word}" in capsys.readouterr().err, n
            assert peak < 1 << 20, (n, peak)

    def test_unknown_selector_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["qtable", "--space", "Q5", "--n", "0", "--tau", "1"])
        assert exc.value.code == 1
        assert "selector" in capsys.readouterr().err

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["scan", "--frobnicate"])
        assert exc.value.code == 1

    def test_bad_tol_rejected(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["scan", "--tol", "0.5"])
        assert exc.value.code == 1

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["--help"])
        assert exc.value.code == 0

    def test_threads_removed(self, monkeypatch, capsys):
        # there is no thread count: --threads is a configuration error and
        # QFLAT_THREADS is ignored, however malformed
        for argv in (["qtable", "--space", "S3"], ["curvature", "--space", "S3"],
                     ["scan"], ["verify-asymptotics"]):
            with pytest.raises(SystemExit) as exc:
                parse_args(argv + ["--threads", "2"])
            assert exc.value.code == 1, argv
            assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        for value in ("abc", "0"):
            monkeypatch.setenv("QFLAT_THREADS", value)
            out, code = capture(["list"])
            assert code == 0, value
            assert len(out.splitlines()) == 10


class TestQTable:
    def test_csv_schema(self):
        out, code = capture(["qtable", "--space", "S3", "--n", "0", "--tau", "1"])
        lines = out.splitlines()
        assert lines[0] == "space,n,tau,q,abs_err,dlogq2"
        assert code == 0
        cells = lines[1].split(",")
        assert cells[0] == "S3" and cells[1] == "0" and cells[2] == "1.0"
        # closed form (sqrt(pi)/4) e
        assert float(cells[3]) == pytest.approx(
            math.sqrt(math.pi) / 4.0 * math.e, rel=1e-8
        )
        assert cells[3] == "1.20450727e+00"

    def test_golden_qtable(self):
        out, code = capture(["qtable", "--space", "S3,CP2", "--n", "0..2",
                             "--tau", "0.5,1"])
        assert code == 0
        assert out == (GOLDEN / "qtable_s3_cp2.csv").read_text()

    def test_golden_curvature(self):
        out, code = capture(["curvature", "--space", "S2", "--n", "0..1",
                             "--tau", "1"])
        assert code == 0
        assert out == (GOLDEN / "curvature_s2.csv").read_text()

    def test_abs_err_bounds_s3_closed_form(self):
        # q_n = (sqrt(pi)/4) tau^(3/2) e^((n+1)^2 tau) for S3; abs_err must
        # cover the true error of the full-precision value it describes
        mpmath = pytest.importorskip("mpmath")
        out, _ = capture(GOLDEN_RUNS["qtable_s3_cp2.csv"])
        rows = [r for r in csv.DictReader(io.StringIO(out)) if r["space"] == "S3"]
        assert len(rows) == 6
        for row in rows:
            n, tau = int(row["n"]), float(row["tau"])
            res = quadrature.q_chi(parse_space("S3"), n, tau)
            with mpmath.workdps(40):
                t = mpmath.mpf(tau)
                exact = mpmath.sqrt(mpmath.pi) / 4 * t ** 1.5 * mpmath.exp((n + 1) ** 2 * t)
                assert abs(mpmath.mpf(res.value) - exact) <= res.abs_error, row
            assert res.abs_error <= float(row["abs_err"]), row

    def test_curvature_adds_residual_column(self):
        out, _ = capture(["curvature", "--space", "S3", "--n", "0", "--tau", "1"])
        header = out.splitlines()[0]
        assert header == "space,n,tau,q,abs_err,dlogq2,prefactor_residual"
        resid = float(out.splitlines()[1].split(",")[-1])
        assert resid <= 1e-8

    def test_overflowing_value_serializes_in_json(self):
        # OP2 at tau=100, n=3 has log q ~ 7000: the value itself overflows
        # float64 and must appear as the string "inf" in JSON; (log q)''
        # there loses digits to cancellation, which warns
        with pytest.warns(quadrature.CancellationWarning,
                          match="lost more than six digits"):
            out, code = capture(["qtable", "--space", "OP2", "--n", "3",
                                 "--tau", "100", "--format", "json"])
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["q"] == "inf"
        assert isinstance(row["log_q"], float) and 7000 < row["log_q"] < 7500
        assert row["status"] == "ok"

    def test_empty_spaces_rejected(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["scan", "--spaces", ""])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [["list"], ["qtable", "--space", "S2",
                                                  "--n", "0", "--tau", "1"]])
    def test_unwritable_out_is_a_configuration_error(self, argv, tmp_path, capsys):
        # a missing directory, then a directory in place of a file
        for path in (tmp_path / "missing" / "x.csv", tmp_path):
            assert main(argv + ["--out", str(path)]) == 1, path
            err = capsys.readouterr().err
            assert err.startswith(f"qflat: error: cannot write {path}: "), err
            assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["curvature", "--space", "S3,CP2", "--n", "0..2", "--tau", "0.5,1"],
        ["scan", "--spaces", "S2,S3", "--n-max", "1", "--tau", "0.5,1"]])
    def test_unwritable_out_is_refused_before_any_cell(self, argv, tmp_path,
                                                       capsys, monkeypatch):
        # --out is opened first, as shell redirection does, so no cell and
        # no scan is computed for a path that cannot be written
        import qflat.cli

        calls = []
        for attr in ("q_chi_derivs", "theorem_scan"):
            fn = getattr(qflat.cli, attr)
            monkeypatch.setattr(qflat.cli, attr, lambda *a, _fn=fn, _attr=attr,
                                **k: calls.append(_attr) or _fn(*a, **k))
        for path in (tmp_path / "missing" / "x.csv", tmp_path):
            assert main(argv + ["--out", str(path)]) == 1, path
            err = capsys.readouterr().err
            assert err.startswith(f"qflat: error: cannot write {path}: "), err
            assert err.count("\n") == 1 and "Traceback" not in err
        assert calls == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_write_that_fails_after_the_open(self, capsys):
        # /dev/full opens, and every write to it fails
        argv = ["qtable", "--space", "S2", "--n", "0", "--tau", "1"]
        assert main(argv + ["--out", "/dev/full"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("qflat: error: cannot write /dev/full: "), err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_out_file_matches_stdout(self, tmp_path):
        argv = ["qtable", "--space", "S2", "--n", "0", "--tau", "1"]
        out, _ = capture(argv)
        path = tmp_path / "table.csv"
        code = main(argv + ["--out", str(path)])
        assert code == 0
        assert path.read_text() == out

    def test_out_closed_when_rendering_raises(self, tmp_path, monkeypatch):
        import qflat.cli

        handles = []

        def spy_open(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]

        class Abort(BaseException):
            """Not an Exception, as KeyboardInterrupt is not."""

        def render(cfg):
            raise Abort

        # a module global shadows the builtin for run's lookup of open
        monkeypatch.setattr(qflat.cli, "open", spy_open, raising=False)
        monkeypatch.setattr(qflat.cli, "_render", render)
        path = tmp_path / "table.csv"
        with pytest.raises(Abort):
            main(["list", "--out", str(path)])
        assert len(handles) == 1 and handles[0].closed
        assert path.read_text() == ""


class TestCentrality:
    def test_json_payload(self):
        out, code = capture(["centrality", "--space", "CP2", "--n", "1",
                             "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "qflat.v1"
        assert doc["rows"] == [{
            "space": "CP2", "n": 1, "lhs": "3/2",
            "rhs": "irrational:sqrt(2)", "pass": False, "exact": True,
        }]

    def test_csv(self):
        out, _ = capture(["centrality", "--space", "S3", "--n", "1,2"])
        lines = out.splitlines()
        assert lines[0] == "space,n,lhs,rhs,pass"
        assert lines[1] == "S3,1,2,2,true"
        assert lines[2] == "S3,2,16/3,16/3,true"


class TestScan:
    def test_expect_theorem_subset(self):
        out, code = capture(["scan", "--spaces", "S2,S3", "--n-max", "2",
                             "--tau", "0.5,1", "--expect-theorem"])
        assert code == 0
        doc = json.loads(out)
        verdicts = {r["space"]: r["verdict"] for r in doc["reports"]}
        assert verdicts == {"S2": "not_projectively_flat", "S3": "flat"}

    def test_expectation_mismatch_in_literal_mode(self):
        _, code = capture(["scan", "--spaces", "S3", "--n-max", "2",
                           "--tau", "1", "--mode", "literal",
                           "--expect-theorem"])
        assert code == 2

    def test_witness_payload(self):
        out, _ = capture(["scan", "--spaces", "CP2", "--n-max", "1",
                          "--tau", "1"])
        doc = json.loads(out)
        w = doc["reports"][0]["exact_witness"]
        assert w == {"n": 1, "lhs": "3/2", "rhs": "irrational:sqrt(2)",
                     "pass": False}

    def test_csv_summary(self):
        out, _ = capture(["scan", "--spaces", "S3", "--n-max", "2",
                          "--tau", "1", "--format", "csv"])
        lines = out.splitlines()
        assert lines[0] == ("space,verdict,max_chi_deviation,"
                            "prefactor_residual,witness_n,witness_lhs,"
                            "witness_rhs")
        assert lines[1].startswith("S3,flat,")


class TestVerifyAsymptotics:
    def test_rows(self):
        out, code = capture(["verify-asymptotics", "--space", "S3", "--n", "0",
                             "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        regimes = {(r["regime"], r["tau"]) for r in doc["rows"]}
        assert regimes == {("small_tau", 1e-3), ("small_tau", 1e-2),
                           ("large_tau", 100.0), ("large_tau", 400.0)}
        for r in doc["rows"]:
            assert r["status"] == "ok"
            assert r["deviation"] < 0.2


class TestNumericFailure:
    """One cell raises ConvergenceError: the exit code is 2, that cell reads
    nan next to its message, and every other cell is as in a clean run."""

    MESSAGE = "stub failure"

    @pytest.fixture
    def fail_cell(self, monkeypatch):
        # the names the CLI and the scan look the cell functions up by
        import qflat.cli
        import qflat.flatness

        def install(label, n, tau):
            def stub(fn):
                def call(space, n_, tau_, *args, **kwargs):
                    if (space.label, n_, tau_) == (label, n, tau):
                        raise quadrature.ConvergenceError(self.MESSAGE)
                    return fn(space, n_, tau_, *args, **kwargs)
                return call
            for mod, name in ((qflat.cli, "q_chi_derivs"), (qflat.cli, "q_chi"),
                              (qflat.flatness, "q_chi_derivs")):
                monkeypatch.setattr(mod, name, stub(getattr(mod, name)))
        return install

    def test_qtable(self, fail_cell):
        argv = ["qtable", "--space", "S2,S3", "--n", "0,1", "--tau", "0.5,1"]
        clean_json, code = capture(argv + ["--format", "json"])
        assert code == 0
        clean_csv, _ = capture(argv)
        fail_cell("S3", 1, 1.0)
        out, code = capture(argv + ["--format", "json"])
        assert code == 2
        rows, clean = json.loads(out)["rows"], json.loads(clean_json)["rows"]
        # rows run over space, then n, then tau: S3 n = 1 tau = 1 is the last
        assert rows[-1] == {"space": "S3", "n": 1, "tau": 1.0, "q": "nan",
                            "log_q": "nan", "abs_err": "nan", "dlogq2": "nan",
                            "status": f"error: {self.MESSAGE}"}
        assert rows[:-1] == clean[:-1]
        out, code = capture(argv)
        assert code == 2
        lines, clean = out.splitlines(), clean_csv.splitlines()
        assert lines[-1] == "S3,1,1.0,nan,nan,nan"
        assert lines[:-1] == clean[:-1]

    def test_verify_asymptotics(self, fail_cell):
        argv = ["verify-asymptotics", "--space", "S3", "--n", "0,1"]
        clean, code = capture(argv)
        assert code == 0
        fail_cell("S3", 1, 100.0)
        out, code = capture(argv)
        assert code == 2
        lines, clean = out.splitlines(), clean.splitlines()
        # header, four rows at n = 0, then 1e-3, 1e-2, 100, 400 at n = 1
        assert lines[7] == "S3,1,large_tau,100.0,nan"
        assert lines[:7] + lines[8:] == clean[:7] + clean[8:]

    def test_scan(self, fail_cell):
        argv = ["scan", "--spaces", "S2,S3", "--n-max", "2", "--tau", "0.5,1"]
        clean, code = capture(argv)
        assert code == 0
        fail_cell("S2", 1, 1.0)
        out, code = capture(argv)
        assert code == 2
        (s2, s3), (c2, c3) = json.loads(out)["reports"], json.loads(clean)["reports"]
        assert s3 == c3
        assert c2["failures"] == []
        assert s2["failures"] == [{"n": 1, "tau_index": 1,
                                   "message": self.MESSAGE}]
        assert s2["curvature"][1][1] == "nan"
        c2["curvature"][1][1] = "nan"
        assert s2["curvature"] == c2["curvature"]
        assert s2["verdict"] == c2["verdict"] == "not_projectively_flat"
        # the two summaries drop the failed cell's column or cell
        for key in c2.keys() - {"curvature", "failures", "max_chi_deviation",
                                "prefactor_residual"}:
            assert s2[key] == c2[key], key


class TestDeterminism:
    def test_repeat_runs_identical(self):
        argv = ["qtable", "--space", "S2,S3", "--n", "0..2", "--tau", "0.5,1"]
        a, _ = capture(argv)
        b, _ = capture(argv)
        assert a == b

    @pytest.mark.parametrize("rule", ["fsum", "reversed"])
    def test_golden_csv_independent_of_summation_order(self, monkeypatch, rule):
        # a numpy/BLAS build may sum the rule products in any order; the
        # CSV must not show it at its printed digits
        if rule == "fsum":
            def gl_rule(rows, w):
                return np.array([math.fsum(reversed(r * w)) for r in rows])
        else:
            def gl_rule(rows, w):
                return np.array([functools.reduce(operator.add, (r * w)[::-1])
                                 for r in rows])
        monkeypatch.setattr(quadrature, "_gl_rule", gl_rule)
        for name, argv in GOLDEN_RUNS.items():
            out, code = capture(argv)
            assert code == 0
            assert out == (GOLDEN / name).read_text(), name

    def test_scan_json_independent_of_blas_kernel(self):
        # JSON prints full float reprs, so it shows any roundoff that moves
        # with the kernel an OpenBLAS build dispatches to
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if "openblas" not in str(blas.get("name", "")).lower():
            pytest.skip("numpy is not built on OpenBLAS")
        argv = [sys.executable, "-m", "qflat.cli", "scan", "--spaces", "S2,S3",
                "--n-max", "2", "--tau", "1"]
        outs = []
        for coretype in (None, "Prescott"):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
            if coretype:
                env["OPENBLAS_CORETYPE"] = coretype
            proc = subprocess.run(argv, capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 10: printed digits that are "
                              "rounding noise move with a 1-ulp libm change")
    @pytest.mark.filterwarnings("ignore::qflat.quadrature.CancellationWarning")
    def test_output_survives_one_ulp_libm_change(self, monkeypatch):
        """Another libm may round exp, log, log1p and expm1 differently.

        A stand-in for numpy inside ``qflat.quadrature`` moves each finite,
        nonzero result of those four by one ulp up or down, seeded, and
        passes every other attribute through.  Python's ``math`` functions
        stay unperturbed.  The printed documents must not move.
        """
        argvs = [load_bench("workloads").argv_for("table_dense", 0),
                 ["scan", "--spaces", "all", "--format", "csv"],
                 ["verify-asymptotics", "--space", "all", "--n", "0..16"]]
        want = [capture(argv) for argv in argvs]
        rng = np.random.default_rng(0)

        def one_ulp(fn):
            def moved(x):
                y = fn(x)
                up = rng.random(np.shape(y)) < 0.5
                z = np.nextafter(y, np.where(up, np.inf, -np.inf))
                return np.where(np.isfinite(y) & (y != 0.0), z, y)
            return moved

        class PerturbedNumpy:
            def __getattr__(self, name):
                fn = getattr(np, name)
                if name in ("exp", "log", "log1p", "expm1"):
                    return one_ulp(fn)
                return fn

        monkeypatch.setattr(quadrature, "np", PerturbedNumpy())
        for argv, (out, code) in zip(argvs, want):
            assert capture(argv) == (out, code), argv

    def test_scan_json_identical(self):
        argv = ["scan", "--spaces", "S2,S3", "--n-max", "2", "--tau", "1"]
        a, _ = capture(argv)
        b, _ = capture(argv)
        assert a == b

    def test_no_timestamp_by_default(self):
        out, _ = capture(["scan", "--spaces", "S3", "--n-max", "1",
                          "--tau", "1"])
        assert "generated_at" not in json.loads(out)
        out, _ = capture(["scan", "--spaces", "S3", "--n-max", "1",
                          "--tau", "1", "--timestamps"])
        assert "generated_at" in json.loads(out)


class TestJsonSchema:
    def schema(self):
        import importlib.resources as res

        with res.files("qflat").joinpath("schemas/qflat.v1.schema.json").open() as fh:
            return json.load(fh)

    def test_documents_validate(self):
        import jsonschema

        schema = self.schema()
        for argv in (
            ["scan", "--spaces", "S2,S3", "--n-max", "2", "--tau", "1"],
            ["qtable", "--space", "S3", "--n", "0..1", "--tau", "1",
             "--format", "json"],
            ["curvature", "--space", "S2", "--n", "0", "--tau", "1",
             "--format", "json"],
            ["centrality", "--space", "S2,CP2", "--n", "1..3",
             "--format", "json"],
            ["list", "--format", "json"],
            ["verify-asymptotics", "--space", "S2", "--n", "0..1",
             "--format", "json"],
        ):
            out, _ = capture(argv)
            jsonschema.validate(json.loads(out), schema)

    def test_rationals_never_serialized_as_floats(self):
        out, _ = capture(["centrality", "--space", "CP2", "--n", "1..4",
                          "--format", "json"])
        doc = json.loads(out)
        for row in doc["rows"]:
            assert isinstance(row["lhs"], str)
            assert isinstance(row["rhs"], str)


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        import subprocess
        import sys

        out = tmp_path / "t.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "qflat.cli", "qtable", "--space", "S3",
             "--n", "0", "--tau", "1", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        inproc, _ = capture(["qtable", "--space", "S3", "--n", "0",
                             "--tau", "1"])
        assert out.read_text() == inproc

    def test_module_invocation_config_error(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "qflat.cli", "qtable", "--space", "S3",
             "--n", "0", "--tau", "-1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "tau must be positive" in proc.stderr

    def test_import_pulls_in_no_pool(self):
        # the work is batched numpy on one thread; a pool would only add
        # import time and GIL contention
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, qflat.cli; "
             "print('concurrent.futures' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestRunList:
    def test_list_catalog(self):
        out, code = capture(["list"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("space,family,size,m,m_beta,m_half")
        assert len(lines) == 10  # header + 9 spaces
        assert lines[1].startswith("S2,Sphere,2,2,1,0")


class TestBenchmarkTraceTargets:
    def test_every_target_resolves_to_a_callable(self):
        # the benchmark wraps these names on the live modules and has no
        # fallback, so a refactor that drops one must fail here first
        tracing = load_bench("tracing")
        assert tracing.TARGETS
        for mod_name, attr, _ in tracing.TARGETS:
            fn = getattr(importlib.import_module(mod_name), attr, None)
            assert callable(fn), (mod_name, attr)

    @pytest.mark.filterwarnings("ignore::qflat.quadrature.CancellationWarning")
    @pytest.mark.parametrize("argv,cells", [
        (["curvature", "--space", "S3,OP2", "--n", "0,5", "--tau", "0.05,1,400"], 12),
        (["verify-asymptotics", "--space", "S2,CP2", "--n", "0,3"], 16),
        (["scan", "--spaces", "S3,CP2", "--n-max", "2", "--tau", "0.5,1,2"], 18),
    ])
    def test_every_cell_is_one_traced_call(self, monkeypatch, argv, cells):
        # the benchmark records and checks cells only through these per-cell
        # lookups, so a prefetched row must still call each cell once and
        # hand back what the cell gives alone
        import qflat.cli
        import qflat.flatness

        calls = []

        def wrap(fn):
            def traced(space, n, tau, tol):
                out = fn(space, n, tau, tol)
                res = out[0] if isinstance(out, tuple) else out
                calls.append((space, n, tau, tol, res.log_value))
                return out
            return traced

        for mod, attr in ((qflat.cli, "q_chi_derivs"),
                          (qflat.flatness, "q_chi_derivs"), (qflat.cli, "q_chi")):
            monkeypatch.setattr(mod, attr, wrap(getattr(mod, attr)))
        _, code = capture(argv)
        assert code == 0
        keys = [(sp.label, n, tau, tol) for sp, n, tau, tol, _ in calls]
        assert len(set(keys)) == len(keys) == cells
        quadrature._ROW.clear()
        for sp, n, tau, tol, log_value in calls:
            assert quadrature.q_chi(sp, n, tau, tol).log_value == log_value
