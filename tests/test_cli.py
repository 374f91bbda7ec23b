import json
import subprocess
import sys

import numpy as np
import pytest

from sampletbp.cli import (EXIT_BAD_INPUT, EXIT_BUDGET, EXIT_OK, EXIT_USAGE,
                           ingest_labeled_csv, kernels_from_config,
                           parse_config_file, run)


def write_points(path, pts, values=None):
    with open(path, "w") as fh:
        for i, row in enumerate(np.atleast_2d(pts)):
            cells = [f"{c:.17g}" for c in row]
            if values is not None:
                cells.append(f"{values[i]:.17g}")
            fh.write(",".join(cells) + "\n")


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

    def test_eval_budget_exceeded(self, tmp_path, rng):
        data = self._labeled(tmp_path, rng)
        coeff = tmp_path / "c.csv"
        run(["fit", "--data", str(data), "--weight", "0", "--q", "1",
             "--report", str(tmp_path / "r.json"), "--coefficients",
             str(coeff)])
        pts_only = tmp_path / "pts.csv"
        table = np.loadtxt(data, delimiter=",", ndmin=2)
        write_points(pts_only, table[:, :2])
        rc = run(["eval", "--points", str(pts_only), "--coefficients",
                  str(coeff), "--output", str(tmp_path / "f.csv"),
                  "--grid", "50x50", "--budget", "1000"])
        assert rc == EXIT_BUDGET


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

    def test_unknown_flag_exit_code(self, capsys):
        assert run(["bench", "--case", "spss", "--frobnicate"]) == EXIT_USAGE


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


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sampletbp.cli", "--help"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "exit codes" in proc.stdout
