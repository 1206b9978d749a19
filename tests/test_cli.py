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

from qflat import asymptotics, cli, quadrature
from qflat.cli import main, parse_args, run
from qflat.flatness import FieldVerdict
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

    def test_reversed_span_rejected_anywhere_in_the_list(self, capsys):
        # beside another span a reversed one was once dropped without a word
        for n in ("5..2", "0,5..2", "5..2,0..3"):
            with pytest.raises(SystemExit) as exc:
                parse_args(["qtable", "--space", "S3", "--n", n, "--tau", "1"])
            assert exc.value.code == 1, n
            err = capsys.readouterr().err.splitlines()
            assert err[-1] == f"qflat: error: bad --n value {n!r}: reversed span 5..2"

    def test_centrality_index_below_one_rejected_anywhere_in_the_list(self, capsys):
        # n = 0 has no certificate: alone it once printed a header-only table,
        # beside other indices it was dropped without a word
        for n in ("0", "0..2", "3,0", "2,5..7,0"):
            with pytest.raises(SystemExit) as exc:
                parse_args(["centrality", "--space", "S3", "--n", n])
            assert exc.value.code == 1, n
            err = capsys.readouterr().err.splitlines()
            assert err[-1] == "qflat: error: centrality indices must be positive, got 0"
        assert parse_args(["qtable", "--space", "S3", "--n", "0..2"]).n_values == (0, 1, 2)

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

    def test_golden_help(self, monkeypatch, capsys):
        # the usage and option lines of qflat and of each subcommand, as
        # argparse lays them out 80 columns wide
        monkeypatch.setenv("COLUMNS", "80")
        chunks = []
        for sub in ((), ("list",), ("qtable",), ("curvature",), ("centrality",),
                    ("scan",), ("verify-asymptotics",)):
            argv = [*sub, "--help"]
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0, argv
            chunks.append(f"$ qflat {' '.join(argv)}\n{capsys.readouterr().out}")
        assert "\n".join(chunks) == (GOLDEN / "help.txt").read_text()

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

    def test_mode_and_unread_tol_removed(self, capsys):
        # one flatness criterion, so no --mode; list and centrality read no
        # tolerance, so no --tol there
        for argv, extra in (
            (["scan"], ["--mode", "literal"]),
            (["scan"], ["--mode", "prefactor_corrected"]),
            (["list"], ["--tol", "1e-10"]),
            (["centrality", "--space", "S3"], ["--tol", "1e-10"]),
        ):
            with pytest.raises(SystemExit) as exc:
                parse_args(argv + extra)
            assert exc.value.code == 1, argv
            err = capsys.readouterr().err
            assert f"unrecognized arguments: {' '.join(extra)}" in err, argv


class TestOneBox:
    """Every entry point refuses a value outside the parameter box with the
    one message of ``quadrature._check_grid``; the CLI at parse time, exit 1."""

    # (space, n, tau, tol) with one value out of the box, and its message
    CASES = [
        (("S3", 2, 1.0, 1.0), "tol must lie in [1e-13, 0.0001], got 1"),
        (("S3", 2, 1.0, 1e-14), "tol must lie in [1e-13, 0.0001], got 1e-14"),
        (("S3", 17, 1.0, 1e-10), "n must be at most 16, got 17"),
        (("S3", -1, 1.0, 1e-10), "n must be nonnegative, got -1"),
        (("S17", 2, 1.0, 1e-10), "space S17 has dimension m=17, supported is m <= 16"),
        (("S3", 2, 500.0, 1e-10), "tau must be at most 400, got 500"),
        (("S3", 2, 1e-31, 1e-10), "tau must be at least 1e-30, got 1e-31"),
        (("S3", 2, 0.0, 1e-10), "tau must be positive, got 0"),
        (("S3", 2, -1.0, 1e-10), "tau must be positive, got -1"),
        (("S3", 2, math.nan, 1e-10), "tau must be positive, got nan"),
        (("S3", 2, 400.0000001, 1e-10), "tau must be at most 400, got 400.0000001"),
        (("S3", 2, 1.0, 1.00000001e-4),
         "tol must lie in [1e-13, 0.0001], got 0.000100000001"),
    ]
    # n that --n cannot express, refused by the library alone
    NOT_INTEGER = [
        (("S3", 1.5, 1.0, 1e-10), "n must be an integer, got 1.5"),
        (("S3", True, 1.0, 1e-10), "n must be an integer, got True"),
    ]

    @staticmethod
    def calls(sp, n, tau, tol):
        from qflat import flatness

        return {
            "q_chi": lambda: quadrature.q_chi(sp, n, tau, tol),
            "q_chi_derivs": lambda: quadrature.q_chi_derivs(sp, n, tau, tol),
            "p_chi": lambda: quadrature.p_chi(sp, n, complex(0.0, tau), tol),
            "prefetch": lambda: quadrature.prefetch(sp, [n], [tau], tol),
            "curvature_samples": lambda: flatness.curvature_samples(sp, n, (tau,), tol),
            "projective_test": lambda: flatness.projective_test(sp, n, (tau,), tol),
            "flat_test": lambda: flatness.flat_test(sp, n, (tau,), tol),
            "theorem_scan": lambda: flatness.theorem_scan([sp], n, (tau,), tol),
        }

    @pytest.mark.parametrize("cell, message", CASES + NOT_INTEGER)
    def test_library_refuses_with_one_message(self, cell, message):
        label, n, tau, tol = cell
        for name, call in self.calls(parse_space(label), n, tau, tol).items():
            with pytest.raises(quadrature.ParameterRangeError) as exc:
                call()
            assert str(exc.value) == message, name
        assert not quadrature._ROW

    @pytest.mark.parametrize("cell, message", CASES)
    def test_cli_refuses_with_one_message(self, cell, message, capsys):
        label, n, tau, tol = cell
        for argv in (["qtable", "--space", label, f"--n={n}"],
                     ["scan", "--spaces", label, f"--n-max={n}"]):
            with pytest.raises(SystemExit) as exc:
                parse_args(argv + [f"--tau={tau!r}", f"--tol={tol!r}"])
            assert exc.value.code == 1, argv
            err = capsys.readouterr().err.splitlines()
            assert err[-1] == f"qflat: error: {message}", argv


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

    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_json_abs_err_is_the_csv_bound(self, name):
        # JSON prints the bound the CSV prints, rounded out once, and not the
        # raw bound, whose last digits follow sub-ulp panel terms
        argv = GOLDEN_RUNS[name]
        rows = json.loads(capture(argv + ["--format", "json"])[0])["rows"]
        table = list(csv.DictReader(io.StringIO(capture(argv)[0])))
        assert len(rows) == len(table) > 0
        for row, line in zip(rows, table):
            assert [str(row[k]) for k in ("space", "n")] == [line["space"], line["n"]]
            assert row["tau"] == float(line["tau"])
            assert row["abs_err"] == float(line["abs_err"]), row
            res, _, _ = quadrature.q_chi_derivs(parse_space(row["space"]),
                                                row["n"], row["tau"])
            assert row["abs_err"] >= res.abs_error, row

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

    def test_golden_exact_json(self):
        # exact rationals and surds only, no float: no libm can move a byte
        out, code = capture(["centrality", "--space",
                             "S2,S3,S4,S5,S7,S40,CP2,CP3,CP8,HP2,HP4,OP2",
                             "--n", "1..16", "--format", "json"])
        assert code == 0
        assert out == (GOLDEN / "centrality_exact.json").read_text()


class TestScan:
    def test_expect_theorem_subset(self):
        out, code = capture(["scan", "--spaces", "S2,S3", "--n-max", "2",
                             "--tau", "0.5,1", "--expect-theorem"])
        assert code == 0
        doc = json.loads(out)
        verdicts = {r["space"]: r["verdict"] for r in doc["reports"]}
        assert verdicts == {"S2": "not_projectively_flat", "S3": "flat"}

    def test_expectation_mismatch_exits_2(self, monkeypatch):
        # an expectation that S2 contradicts: the verdicts are printed all
        # the same, and only --expect-theorem turns the mismatch into exit 2
        monkeypatch.setattr(cli, "theorem_expected_verdict",
                            lambda space: FieldVerdict.FLAT)
        argv = ["scan", "--spaces", "S2", "--n-max", "1", "--tau", "1"]
        out, code = capture(argv + ["--expect-theorem"])
        assert code == 2
        assert json.loads(out)["reports"][0]["verdict"] == "not_projectively_flat"
        assert capture(argv) == (out, 0)

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

    def test_coefficients_coerced_once_per_isotype(self, monkeypatch):
        # the rows coerce each isotype's coefficients once; the laws' own
        # coercion takes them back as they are at every tau
        seen = []
        coerce = quadrature._as_float_coeffs

        def spy(P):
            seen.append(type(P) is quadrature._Coeffs)
            return coerce(P)

        monkeypatch.setattr(cli, "_as_float_coeffs", spy)
        monkeypatch.setattr(asymptotics, "_as_float_coeffs", spy)
        out, code = capture(["verify-asymptotics", "--space", "S3,CP2", "--n", "0..2"])
        assert code == 0 and len(out.splitlines()) == 1 + 2 * 3 * 4
        assert seen.count(False) == 2 * 3 and seen.count(True) == 2 * 3 * 4


class TestRoundOut2Sig:
    """The two-digit error bound equals the exact ``Decimal`` round-out,
    its oracle here, on the doubles nearest every two-digit decimal of the
    double range, their neighbours and random doubles."""

    @staticmethod
    def decimal_round_out(x):
        from decimal import ROUND_UP, Decimal

        if not math.isfinite(x) or x == 0.0:
            return x
        d = Decimal(x)
        return float(d.quantize(Decimal(1).scaleb(d.adjusted() - 1), rounding=ROUND_UP))

    def test_equals_the_decimal_round_out(self):
        near = np.array([float(f"{k}e{e}") for e in range(-325, 308)
                         for k in range(10, 100)])
        near = near[np.isfinite(near) & (near > 0.0)]
        rng = np.random.default_rng(30)
        bits = rng.integers(0, 0x7FF0_0000_0000_0000, 20_000, dtype=np.int64)
        xs = np.concatenate([near, np.nextafter(near, 0.0), np.nextafter(near, np.inf),
                             bits.view(np.float64), [5e-324, 2.0 ** -1022,
                                                     sys.float_info.max]])
        xs = np.concatenate([xs, -xs[::97]]).tolist()
        assert len(xs) > 190_000
        for x in xs + [0.0, -0.0, math.inf, -math.inf]:
            got, want = cli._round_out_2sig(x), self.decimal_round_out(x)
            assert got.hex() == want.hex(), x
        assert math.isnan(cli._round_out_2sig(math.nan))


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


class TestNonFiniteSpelling:
    """nan (of either sign), inf, -inf and -0.0 print as they always have:
    a CSV cell, in every column that formats floats, as a lowercase word or
    nine-digit scientific, and a JSON value that is not finite as that word
    in a string."""

    VALUES = [(math.nan, "nan"), (-math.nan, "nan"), (math.inf, "inf"),
              (-math.inf, "-inf"), (-0.0, "-0.00000000e+00"),
              (0.0, "0.00000000e+00")]

    @pytest.mark.parametrize("x, text", VALUES)
    def test_csv_cell(self, x, text):
        assert cli._csv_cell(x) == text

    @pytest.mark.parametrize("x, text", VALUES)
    def test_csv_columns(self, x, text):
        # q, the rounded-out abs_err and dlogq2 each have their own formatter
        row = {"space": "S3", "n": 0, "tau": 1.0, "q": x, "abs_err": x,
               "dlogq2": x}
        lines = cli._render_csv("qtable", [row]).splitlines()
        assert lines == ["space,n,tau,q,abs_err,dlogq2",
                         f"S3,0,1.0,{text},{text},{text}"]

    def test_json_values(self):
        payload = {"rows": [{"q": math.nan, "abs_err": math.inf,
                             "dlogq2": -math.inf, "log_q": -0.0}],
                   "curvature": [(-math.nan, 0.0, -0.0)]}
        clean = cli._sanitize(payload)
        assert clean == {"rows": [{"q": "nan", "abs_err": "inf",
                                   "dlogq2": "-inf", "log_q": 0.0}],
                         "curvature": [["nan", 0.0, 0.0]]}
        assert json.dumps(clean, allow_nan=False) == (
            '{"rows": [{"q": "nan", "abs_err": "inf", "dlogq2": "-inf", '
            '"log_q": -0.0}], "curvature": [["nan", 0.0, -0.0]]}')


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

    def test_scan_mode_is_the_one_criterion(self):
        import jsonschema

        schema = self.schema()
        doc = json.loads(capture(["scan", "--spaces", "S3", "--n-max", "1",
                                  "--tau", "1"])[0])
        assert doc["mode"] == "prefactor_corrected"
        jsonschema.validate(doc, schema)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(dict(doc, mode="literal"), schema)

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
        # every prefetched cell was taken, so each call below computes alone
        assert not quadrature._ROW
        for sp, n, tau, tol, log_value in calls:
            assert quadrature.q_chi(sp, n, tau, tol).log_value == log_value
