import dataclasses
import hashlib
import json
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_op
from sampletbp import cli
from sampletbp.bench import GRID_CHUNK
from sampletbp.cli import (EXIT_BAD_INPUT, EXIT_BUDGET, EXIT_OK, EXIT_SOLVER,
                           EXIT_USAGE, build_parser, ingest_labeled_csv,
                           kernels_from_config, parse_config_file, run)
from sampletbp.kernel import CROSS_COPIES, KernelSpec
from sampletbp.solver import SOLVERS, SolverConfig


def write_points(path, pts, values=None):
    with open(path, "w") as fh:
        for i, row in enumerate(np.atleast_2d(pts)):
            cells = [f"{c:.17g}" for c in row]
            if values is not None:
                cells.append(f"{values[i]:.17g}")
            fh.write(",".join(cells) + "\n")


# --grid values that are not one positive count per coordinate of 2-D data
BAD_GRIDS = ["8x8x8", "abc", "0x5", "5x-2"]
BAD_GRID_IDS = ["rank-3", "text", "zero", "negative"]
# the stages a bench report times, without --field
BENCH_STAGES = ["tree", "basis", "data", "compress", "solve"]


@pytest.fixture
def cloud_csv(tmp_path, rng):
    path = tmp_path / "points.csv"
    write_points(path, rng.uniform(-0.5, 0.5, (100, 2)))
    return path


class TestInfo:
    def test_reports_summary(self, cloud_csv, capsys):
        assert run(["info", str(cloud_csv)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["n"] == 100 and out["dim"] == 2
        assert out["moment_dim"] == 10  # q = 3 in two dimensions
        assert out["suggested_leaf_capacity"] == 20
        assert len(out["bbox_min"]) == 2

    def test_missing_file(self, tmp_path):
        assert run(["info", str(tmp_path / "nope.csv")]) == EXIT_BAD_INPUT


class TestTransform:
    def test_round_trip(self, cloud_csv, tmp_path, rng):
        v = rng.standard_normal(100)
        vec = tmp_path / "v.csv"
        fwd = tmp_path / "w.csv"
        back = tmp_path / "v2.csv"
        np.savetxt(vec, v, fmt="%.17g")
        assert run(["transform", "--points", str(cloud_csv), "--input",
                    str(vec), "--output", str(fwd)]) == EXIT_OK
        assert run(["transform", "--points", str(cloud_csv), "--input",
                    str(fwd), "--output", str(back), "--inverse"]) == EXIT_OK
        v2 = np.loadtxt(back)
        assert np.abs(v2 - v).max() <= 1e-12

    def test_length_mismatch(self, cloud_csv, tmp_path):
        vec = tmp_path / "v.csv"
        np.savetxt(vec, np.zeros(7), fmt="%g")
        rc = run(["transform", "--points", str(cloud_csv), "--input",
                  str(vec), "--output", str(tmp_path / "o.csv")])
        assert rc == EXIT_BAD_INPUT

    def test_non_finite_input_rejected(self, cloud_csv, tmp_path, rng):
        v = rng.standard_normal(100)
        v[42] = np.nan
        vec = tmp_path / "v.csv"
        np.savetxt(vec, v, fmt="%.17g")
        out = tmp_path / "o.csv"
        rc = run(["transform", "--points", str(cloud_csv), "--input",
                  str(vec), "--output", str(out)])
        assert rc == EXIT_BAD_INPUT
        assert not out.exists()


class TestFitEval:
    def _labeled(self, tmp_path, rng, n=150):
        pts = rng.uniform(-0.5, 0.5, (n, 2))
        vals = np.sin(4 * pts[:, 0]) * pts[:, 1]
        path = tmp_path / "data.csv"
        write_points(path, pts, vals)
        return path

    def test_weight_zero_dispatches_to_ridge(self, tmp_path, rng):
        data = self._labeled(tmp_path, rng)
        report = tmp_path / "report.json"
        rc = run(["fit", "--data", str(data), "--weight", "0", "--q", "1",
                  "--report", str(report),
                  "--coefficients", str(tmp_path / "c.csv")])
        assert rc == EXIT_OK
        payload = json.loads(report.read_text())
        assert payload["report"]["method"] == "ridge_cg"
        assert payload["version"]
        assert payload["config"]["weight"] == 0.0

    def test_positive_weight_dispatches_to_newton(self, tmp_path, rng):
        data = self._labeled(tmp_path, rng)
        report = tmp_path / "report.json"
        rc = run(["fit", "--data", str(data), "--q", "1",
                  "--report", str(report),
                  "--coefficients", str(tmp_path / "c.csv")])
        assert rc == EXIT_OK
        payload = json.loads(report.read_text())
        assert payload["report"]["method"] == "ir_mrssn"
        assert "est_rel_frobenius_error" in payload["operator"]

    @pytest.mark.parametrize("solver", ["ridge", "mrssn", "ir_mrssn"])
    def test_non_finite_value_rejected(self, tmp_path, rng, solver):
        pts = rng.uniform(-0.5, 0.5, (150, 2))
        vals = np.sin(4 * pts[:, 0])
        vals[17] = np.nan
        data = tmp_path / "data.csv"
        write_points(data, pts, vals)
        report = tmp_path / "report.json"
        rc = run(["fit", "--data", str(data), "--q", "1", "--solver", solver,
                  "--report", str(report),
                  "--coefficients", str(tmp_path / "c.csv")])
        assert rc == EXIT_BAD_INPUT
        assert not report.exists()

    def test_missing_data_file_is_bad_input(self, tmp_path):
        # the path contains "cap"; the exit code must not depend on it
        rc = run(["fit", "--data", str(tmp_path / "no_such_capture.csv"),
                  "--report", str(tmp_path / "r.json"),
                  "--coefficients", str(tmp_path / "c.csv")])
        assert rc == EXIT_BAD_INPUT

    def test_fit_then_eval_grid(self, tmp_path, rng):
        data = self._labeled(tmp_path, rng)
        coeff = tmp_path / "c.csv"
        assert run(["fit", "--data", str(data), "--weight", "0", "--q", "1",
                    "--report", str(tmp_path / "r.json"),
                    "--coefficients", str(coeff)]) == EXIT_OK
        pts_only = tmp_path / "pts.csv"
        table = np.loadtxt(data, delimiter=",", ndmin=2)
        write_points(pts_only, table[:, :2])
        field = tmp_path / "field.csv"
        assert run(["eval", "--points", str(pts_only), "--coefficients",
                    str(coeff), "--output", str(field),
                    "--grid", "20x20"]) == EXIT_OK
        lines = field.read_text().splitlines()
        assert lines[0] == "x1,x2,value"
        assert len(lines) == 1 + 400

    def test_eval_budget_exceeded(self, tmp_path, rng, monkeypatch):
        data = self._labeled(tmp_path, rng)
        coeff = tmp_path / "c.csv"
        run(["fit", "--data", str(data), "--weight", "0", "--q", "1",
             "--report", str(tmp_path / "r.json"), "--coefficients",
             str(coeff)])
        pts_only = tmp_path / "pts.csv"
        table = np.loadtxt(data, delimiter=",", ndmin=2)
        write_points(pts_only, table[:, :2])
        # memory for the 50 x 50 points but not for evaluating them
        need = 8 * (2500 + GRID_CHUNK * (CROSS_COPIES * 150 + 2) + 150 * 2)
        monkeypatch.setattr("sampletbp.geometry.physical_memory",
                            lambda: need - 1)
        field = tmp_path / "f.csv"
        rc = run(["eval", "--points", str(pts_only), "--coefficients",
                  str(coeff), "--output", str(field), "--grid", "50x50"])
        assert rc == EXIT_BUDGET
        assert not field.exists()

    def test_eval_grid_too_large(self, cloud_csv, tmp_path):
        # 4·10^10 points are refused before they are allocated
        coeff = tmp_path / "c.csv"
        coeff.write_text("".join(f"{i},0,1\n" for i in range(100)))
        field = tmp_path / "f.csv"
        rc = run(["eval", "--points", str(cloud_csv), "--coefficients",
                  str(coeff), "--output", str(field),
                  "--grid", "200000x200000"])
        assert rc == EXIT_BUDGET
        assert not field.exists()

    @pytest.mark.parametrize("grid", BAD_GRIDS, ids=BAD_GRID_IDS)
    def test_eval_bad_grid(self, cloud_csv, tmp_path, monkeypatch, grid):
        # checked before the coefficients are read
        monkeypatch.setattr(cli, "read_numeric_csv",
                            lambda path: pytest.fail("read"))
        field = tmp_path / "f.csv"
        rc = run(["eval", "--points", str(cloud_csv), "--coefficients",
                  str(tmp_path / "c.csv"), "--output", str(field),
                  f"--grid={grid}"])
        assert rc == EXIT_BAD_INPUT
        assert not field.exists()

    @pytest.mark.parametrize("content", [
        "index,beta\n" + "".join(f"{i},0\n" for i in range(100)),
        "index,beta,alpha\n",
    ], ids=["two-columns", "header-only"])
    def test_eval_malformed_coefficient_file(self, cloud_csv, tmp_path,
                                             content):
        coeff = tmp_path / "c.csv"
        coeff.write_text(content)
        field = tmp_path / "f.csv"
        rc = run(["eval", "--points", str(cloud_csv), "--coefficients",
                  str(coeff), "--output", str(field), "--grid", "5x5"])
        assert rc == EXIT_BAD_INPUT
        assert not field.exists()

    def test_eval_non_finite_coefficient_rejected(self, cloud_csv, tmp_path):
        alpha = np.ones(100)
        alpha[7] = np.nan
        coeff = tmp_path / "c.csv"
        with open(coeff, "w") as fh:
            fh.write("index,beta,alpha\n")
            for i, a in enumerate(alpha):
                fh.write(f"{i},0,{a:.17g}\n")
        field = tmp_path / "f.csv"
        rc = run(["eval", "--points", str(cloud_csv), "--coefficients",
                  str(coeff), "--output", str(field), "--grid", "5x5"])
        assert rc == EXIT_BAD_INPUT
        assert not field.exists()


class TestBench:
    def test_cartoon_table_columns(self, tmp_path):
        report = tmp_path / "report.json"
        table = tmp_path / "table.csv"
        rc = run(["bench", "--case", "cartoon", "--n", "2000",
                  "--report", str(report), "--table", str(table)])
        assert rc == EXIT_OK
        header, row = table.read_text().splitlines()
        assert header == "method,iterations,comp_time,final_active,rel_l2_error"
        assert row.split(",")[0] == "ir_mrssn"
        rec = json.loads(report.read_text())["metrics"]
        for key in ("iterations", "wall_time", "beta_nnz", "rel_l2_error",
                    "rel_inf_error", "residual_inf"):
            assert key in rec

    def test_replay_is_bit_identical(self, tmp_path):
        report = tmp_path / "report.json"
        argv = ["bench", "--case", "spss", "--n", "400", "--seed", "3",
                "--solver", "mrfista", "--max-iter", "500", "--no-timings",
                "--report", str(report), "--table", str(tmp_path / "t.csv")]
        assert run(argv) == EXIT_OK
        first = report.read_bytes()
        assert run(argv) == EXIT_OK
        assert report.read_bytes() == first

    def test_stage_timings(self, tmp_path, monkeypatch):
        seen = []
        solve = SOLVERS["ir_mrssn"]

        def solve_and_keep(*args):
            seen.append(solve(*args))
            return seen[-1]

        monkeypatch.setitem(SOLVERS, "ir_mrssn", solve_and_keep)
        report = tmp_path / "report.json"
        argv = ["bench", "--case", "spss", "--n", "300", "--field",
                str(tmp_path / "f.csv"), "--grid", "4x4", "--report",
                str(report), "--table", str(tmp_path / "t.csv")]
        assert run(argv) == EXIT_OK
        payload = json.loads(report.read_text())
        # run order, as the file lists them
        assert list(payload["timings"]) == [*BENCH_STAGES, "grid"]
        for t in payload["timings"].values():
            assert set(t) == {"wall_s", "peak_rss_mb"}
            assert t["wall_s"] >= 0 and t["peak_rss_mb"] > 0
        beta = np.asarray(seen[0].beta, dtype="<f8")
        assert payload["report"]["beta_sha256"] == \
            hashlib.sha256(beta.tobytes()).hexdigest()
        assert run([*argv, "--no-timings"]) == EXIT_OK
        payload = json.loads(report.read_text())
        assert "timings" not in payload
        assert "wall_time" not in payload["report"]
        assert payload["report"]["beta_sha256"] == \
            hashlib.sha256(beta.tobytes()).hexdigest()

    def test_unknown_flag_exit_code(self, capsys):
        assert run(["bench", "--case", "spss", "--frobnicate"]) == EXIT_USAGE

    def test_memory_budget_exit_code(self, tmp_path, monkeypatch):
        # a machine too small for the compression: exit 4 before the build
        monkeypatch.setattr("sampletbp.geometry.physical_memory",
                            lambda: 2**20)
        report = tmp_path / "report.json"
        rc = run(["bench", "--case", "spss", "--n", "400", "--report",
                  str(report), "--table", str(tmp_path / "t.csv")])
        assert rc == EXIT_BUDGET
        assert not report.exists()

    def test_newton_memory_budget_exit_code(self, tmp_path, monkeypatch):
        # memory enough for the build but not for the Newton system
        build = cli.compress

        def build_then_shrink(*args):
            op = build(*args)
            monkeypatch.setattr("sampletbp.geometry.physical_memory",
                                lambda: 2**16)
            return op

        monkeypatch.setattr(cli, "compress", build_then_shrink)
        for solver in ("mrssn", "ir_mrssn"):
            report = tmp_path / f"{solver}.json"
            rc = run(["bench", "--case", "spss", "--n", "150", "--q", "1",
                      "--solver", solver, "--report", str(report),
                      "--table", str(tmp_path / "t.csv")])
            assert rc == EXIT_BUDGET
            assert not report.exists()

    @pytest.mark.parametrize("setting", [
        "--tau=nan", "--tau=-1e-4", "--noise=nan", "--noise=inf",
        "--noise=-0.1", "--length=inf", "--length=nan", "--length=0",
    ], ids=["nan", "negative", "noise-nan", "noise-inf", "noise-negative",
            "length-inf", "length-nan", "length-zero"])
    def test_bad_threshold_exit_code(self, tmp_path, monkeypatch, setting):
        # a threshold, noise level or correlation length out of range;
        # noise and length are checked before the data are generated
        if not setting.startswith("--tau"):
            monkeypatch.setattr(cli, "generate",
                                lambda *args: pytest.fail("ran"))
        report = tmp_path / "report.json"
        rc = run(["bench", "--case", "spss", "--n", "150", "--q", "1",
                  setting, "--report", str(report),
                  "--table", str(tmp_path / "t.csv")])
        assert rc == EXIT_BAD_INPUT
        assert not report.exists()

    def test_multi_kernel_config_rejected(self, tmp_path):
        # bench, like fit, runs one kernel and does not drop the others
        path = tmp_path / "run.cfg"
        path.write_text("kernel.0.family=matern32\n"
                        "kernel.1.family=exponential\n")
        report = tmp_path / "report.json"
        rc = run(["bench", "--case", "spss", "--n", "150", "--config",
                  str(path), "--report", str(report),
                  "--table", str(tmp_path / "t.csv")])
        assert rc == EXIT_BAD_INPUT
        assert not report.exists()

    def test_field_csv(self, tmp_path):
        field = tmp_path / "field.csv"
        rc = run(["bench", "--case", "cartoon", "--n", "300", "--solver",
                  "ridge", "--field", str(field), "--grid", "8x8",
                  "--report", str(tmp_path / "report.json"),
                  "--table", str(tmp_path / "t.csv")])
        assert rc == EXIT_OK
        table = np.loadtxt(field, delimiter=",")
        assert table.shape == (64, 3)
        assert np.all(np.isfinite(table))

    def test_field_csv_default_grid(self, tmp_path):
        # 200 x 200 points at N = 300: no fixed cap on points times N
        field = tmp_path / "field.csv"
        rc = run(["bench", "--case", "spss", "--n", "300", "--solver",
                  "ridge", "--field", str(field),
                  "--report", str(tmp_path / "report.json"),
                  "--table", str(tmp_path / "t.csv")])
        assert rc == EXIT_OK
        table = np.loadtxt(field, delimiter=",")
        assert table.shape == (40000, 3)
        assert np.all(np.isfinite(table))

    @pytest.mark.parametrize("grid", BAD_GRIDS, ids=BAD_GRID_IDS)
    def test_bad_grid_exit_code(self, tmp_path, monkeypatch, grid):
        # checked before the data are generated; no file is written
        monkeypatch.setattr(cli, "generate", lambda *args: pytest.fail("ran"))
        rc = run(["bench", "--case", "spss", "--n", "150", "--field",
                  str(tmp_path / "f.csv"), f"--grid={grid}",
                  "--report", str(tmp_path / "r.json"),
                  "--table", str(tmp_path / "t.csv")])
        assert rc == EXIT_BAD_INPUT
        assert list(tmp_path.iterdir()) == []

    def test_out_of_memory_exit_code(self, tmp_path, monkeypatch):
        # an allocation that fails outside the estimates is exit 4 too
        def generate(case, stage):
            raise MemoryError("Unable to allocate 14.9 GiB")

        monkeypatch.setattr(cli, "generate", generate)
        report = tmp_path / "report.json"
        rc = run(["bench", "--case", "spss", "--n", "1000000000",
                  "--report", str(report), "--table", str(tmp_path / "t.csv")])
        assert rc == EXIT_BUDGET
        assert not report.exists()

    @pytest.mark.parametrize("args", [
        ("--outer-steps", "-5"), ("--tol", "0"), ("--mu0", "1"),
        ("--weight", "nan"), ("--weight", "inf"), ("--tol", "nan"),
        ("--mu0", "nan"), ("--mu0", "1e10"), ("--outer-steps", "100000"),
        ("--solver", "ridge", "--lambda", "nan"),
        ("--solver", "ridge", "--lambda", "inf"),
        ("--solver", "mrfista", "--max-iter", "0"),
    ], ids=["outer-steps", "tol", "mu0", "weight-nan", "weight-inf",
            "tol-nan", "mu0-nan", "mu0-overflow", "outer-steps-overflow",
            "lambda-nan", "lambda-inf", "max-iter"])
    def test_bad_solver_setting_exit_code(self, tmp_path, args):
        report = tmp_path / "report.json"
        rc = run(["bench", "--case", "spss", "--n", "150", "--q", "1", *args,
                  "--report", str(report), "--table", str(tmp_path / "t.csv")])
        assert rc == EXIT_SOLVER
        assert not report.exists()


# SolverConfig field -> the fit and bench flag that sets it, with a value
# other than the default
CONFIG_FLAGS = {"tol": ("--tol", "1e-5"), "max_iter": ("--max-iter", "77"),
                "lam": ("--lambda", "0.5"), "mu0": ("--mu0", "1.5"),
                "outer_steps": ("--outer-steps", "7")}


@pytest.mark.parametrize("command", [
    ["fit", "--data", "data.csv"], ["bench", "--case", "spss"],
], ids=["fit", "bench"])
def test_every_config_field_has_a_flag(monkeypatch, command):
    # a SolverConfig field that no flag sets could only be set by tests
    fields = {f.name: f.default for f in dataclasses.fields(SolverConfig)}
    assert set(CONFIG_FLAGS) == set(fields)
    argv = [*command, "--solver", "mrssn"]
    for flag, value in CONFIG_FLAGS.values():
        argv += [flag, value]
    seen = {}
    monkeypatch.setitem(SOLVERS, "mrssn",
                        lambda op, h, w, cfg, basis: seen.setdefault("cfg", cfg))
    cli._solve(build_parser().parse_args(argv), "mrssn",
               dense_op(np.eye(3)), np.ones(3), None)
    for name, (flag, value) in CONFIG_FLAGS.items():
        assert getattr(seen["cfg"], name) == type(fields[name])(value) \
            != fields[name], flag


@pytest.mark.parametrize("solver", list(SOLVERS))
def test_fit_and_bench_run_the_named_solver(tmp_path, rng, solver):
    pts = rng.uniform(-0.5, 0.5, (150, 2))
    data = tmp_path / "data.csv"
    write_points(data, pts, np.sin(4 * pts[:, 0]) * pts[:, 1])
    small = ["--solver", solver, "--q", "1", "--max-iter", "50",
             "--outer-steps", "5"]
    fit, bench = tmp_path / "fit.json", tmp_path / "bench.json"
    assert run(["fit", "--data", str(data), "--report", str(fit),
                "--coefficients", str(tmp_path / "c.csv"), *small]) == EXIT_OK
    assert run(["bench", "--case", "spss", "--n", "150", "--report",
                str(bench), "--table", str(tmp_path / "t.csv"),
                *small]) == EXIT_OK
    method = "ridge_cg" if solver == "ridge" else solver
    for path, stages in ((fit, ["tree", "basis", "compress", "solve"]),
                         (bench, BENCH_STAGES)):
        payload = json.loads(path.read_text())
        assert payload["report"]["method"] == method
        assert list(payload["timings"]) == stages


@pytest.mark.parametrize("argv", [
    ["--threads", "2", "info", "{csv}"],
    ["fit", "--data", "{csv}", "--diagonal-scaling"],
    ["eval", "--points", "{csv}", "--coefficients", "{csv}", "--budget", "5"],
    ["eval", "--points", "{csv}", "--coefficients", "{csv}", "--q", "2"],
    ["eval", "--points", "{csv}", "--coefficients", "{csv}", "--tau", "0"],
], ids=["threads", "diagonal-scaling", "budget", "eval-q", "eval-tau"])
def test_removed_flags_are_usage_errors(argv, cloud_csv):
    assert run([a.format(csv=cloud_csv) for a in argv]) == EXIT_USAGE


class TestIngest:
    def test_two_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0,0,1\n1,1,-1\n")
        cloud, values = ingest_labeled_csv(path)
        assert cloud.n == 2 and cloud.dim == 2
        assert values.tolist() == [1.0, -1.0]

    def test_rescale_to_unit_box(self, tmp_path, rng):
        path = tmp_path / "d.csv"
        pts = rng.uniform(-0.5, 0.5, (50, 2))
        write_points(path, pts, np.zeros(50))
        cloud, _ = ingest_labeled_csv(path, rescale=True)
        assert cloud.points.min() >= 0.0 and cloud.points.max() <= 1.0
        assert np.isclose(cloud.points.min(), 0.0)
        assert np.isclose(cloud.points.max(), 1.0)

    def test_large_file_round_trip(self, tmp_path, rng):
        path = tmp_path / "big.csv"
        pts = rng.uniform(-1, 1, (10_000, 3))
        vals = rng.standard_normal(10_000)
        write_points(path, pts, vals)
        cloud, values = ingest_labeled_csv(path)
        assert np.array_equal(cloud.points, pts)
        assert np.array_equal(values, vals)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0,1\n1,2\n")
        from sampletbp.geometry import GeometryError
        with pytest.raises(GeometryError):
            ingest_labeled_csv(path)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_DEFECTS = ("empty", "ragged", "token", "non_finite_coordinate",
            "non_finite_value", "overflow", "single_column")


@st.composite
def _tables(draw, min_rows=1):
    """A well-formed labeled table: 1-40 rows of 2-4 finite numbers."""
    n_cols = draw(st.integers(2, 4))
    rows = draw(st.lists(st.lists(_FINITE, min_size=n_cols, max_size=n_cols),
                         min_size=min_rows, max_size=40))
    return [[repr(x) for x in row] for row in rows]


@st.composite
def _defective_tables(draw):
    """A table with exactly one defect that makes it malformed input."""
    defect = draw(st.sampled_from(_DEFECTS))
    # a ragged or non-numeric row needs a row before it: a first row that is
    # not numeric is read as a header
    rows = draw(_tables(min_rows=2))
    n_cols = len(rows[0])
    i = draw(st.integers(0, len(rows) - 1))
    if defect == "empty":
        rows = []
    elif defect == "ragged":
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["0"]
    elif defect == "token":
        j = draw(st.integers(0, n_cols - 1))
        rows[max(i, 1)][j] = draw(st.sampled_from(
            ["abc", "1.2.3", "", "1e", "--1", "0x1f"]))
    elif defect == "non_finite_coordinate":
        j = draw(st.integers(0, n_cols - 2))
        rows[i][j] = draw(st.sampled_from(["nan", "inf", "-inf"]))
    elif defect == "non_finite_value":
        rows[i][-1] = draw(st.sampled_from(["nan", "inf", "-inf"]))
    elif defect == "overflow":
        rows[i][draw(st.integers(0, n_cols - 1))] = "1e400"
    else:  # single_column
        rows = [row[:1] for row in rows]
    return rows


def _write_table(directory, rows):
    path = directory / "table.csv"
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    return str(path)


class TestIngestProperties:
    @settings(max_examples=80, deadline=None)
    @given(rows=_tables())
    def test_well_formed_table_is_accepted(self, tmp_path_factory, rows):
        path = _write_table(tmp_path_factory.mktemp("csv"), rows)
        assert run(["info", path, "--labeled"]) == EXIT_OK

    @settings(max_examples=120, deadline=None)
    @given(rows=_defective_tables())
    def test_one_defect_is_malformed_input(self, tmp_path_factory, rows):
        path = _write_table(tmp_path_factory.mktemp("csv"), rows)
        assert run(["info", path, "--labeled"]) == EXIT_BAD_INPUT


class TestConfig:
    def test_parse_key_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nkernel.0.family=matern32\n"
                        "kernel.0.length = 0.25\n\n"
                        "kernel.1.family=exponential\n"
                        "kernel.1.dim_scaling=false\n")
        cfg = parse_config_file(path)
        specs = kernels_from_config(cfg)
        assert len(specs) == 2
        assert specs[0].family == "matern32" and specs[0].length == 0.25
        assert specs[1].family == "exponential"
        assert specs[1].dim_scaling is False

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("not a key value pair\n")
        with pytest.raises(ValueError):
            parse_config_file(path)

    def test_default_kernel(self):
        specs = kernels_from_config({})
        assert specs[0].family == "matern32"

    @pytest.mark.parametrize("key", [
        "tau", "kernel.0.lenght", "kernel.2.family", "kernel.1.length",
        "kernel.0.literal_prefactor",
    ], ids=["top-level", "misspelled", "non-consecutive", "no-family",
            "removed-field"])
    def test_unread_key_rejected(self, key):
        cfg = {"kernel.0.family": "matern32", key: "1"}
        with pytest.raises(ValueError, match=re.escape(key)):
            kernels_from_config(cfg)

    def test_unread_key_is_bad_input(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("tau=0.5\nkernel.0.family=matern32\n"
                        "kernel.0.lenght=0.01\n")
        report = tmp_path / "report.json"
        rc = run(["bench", "--case", "spss", "--n", "150", "--config",
                  str(path), "--report", str(report),
                  "--table", str(tmp_path / "t.csv")])
        assert rc == EXIT_BAD_INPUT
        assert not report.exists()

    def test_flag_override_keeps_config_fields(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("kernel.0.family=matern32\nkernel.0.length=0.5\n"
                        "kernel.0.dim_scaling=false\n"
                        "kernel.0.periodic_scale=7\n")
        args = build_parser().parse_args(
            ["bench", "--case", "spss", "--config", str(path),
             "--length", "0.25"])
        assert cli._single_kernel(args) == KernelSpec(
            "matern32", length=0.25, dim_scaling=False, periodic_scale=7.0)

    @pytest.mark.parametrize("value, code", [("false", EXIT_OK),
                                             ("maybe", EXIT_BAD_INPUT)])
    def test_dim_scaling_value(self, tmp_path, value, code):
        path = tmp_path / "run.cfg"
        path.write_text("kernel.0.family=matern32\n"
                        f"kernel.0.dim_scaling={value}\n")
        report = tmp_path / "report.json"
        rc = run(["bench", "--case", "spss", "--n", "150", "--q", "1",
                  "--config", str(path), "--report", str(report),
                  "--table", str(tmp_path / "t.csv")])
        assert rc == code
        assert report.exists() == (code == EXIT_OK)


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sampletbp.cli", "--help"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "exit codes" in proc.stdout
