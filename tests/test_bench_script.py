import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_script():
    spec = importlib.util.spec_from_file_location(
        "bench_script", os.path.join(ROOT, "scripts", "bench.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_files_and_compare(tmp_path, monkeypatch, capsys):
    script = load_script()
    monkeypatch.setattr(script, "CASES", (("spss", 300, "ir_mrssn"),))
    assert script.main(["--out", str(tmp_path)]) == 0
    name = "BENCH_spss_300_ir_mrssn.json"
    assert [p.name for p in tmp_path.iterdir()] == [name]
    record = json.loads((tmp_path / name).read_text())
    assert set(record) == {"case", "n", "solver", "timings", "operator",
                           "solve", "rel_l2_error", "provenance"}
    assert list(record["timings"]) == ["tree", "basis", "data", "compress",
                                       "solve"]
    assert set(record["operator"]) == {"threshold", "nnz_per_row_avg",
                                       "est_rel_frobenius_error"}
    solve = record["solve"]
    assert solve["method"] == "ir_mrssn" and solve["iterations"] > 0
    assert solve["converged"] == solve["extras"]["converged"]
    assert len(solve["beta_sha256"]) == 64
    for counter in ("newton_accepted", "cd_sweeps", "gram_fetches"):
        assert counter in solve["extras"]
    assert 0 < record["rel_l2_error"] < 1
    assert set(record["provenance"]) == {
        "commit", "host", "cores", "physical_memory_gb", "openblas_threads",
        "python", "numpy", "scipy"}
    capsys.readouterr()
    assert script.main(["--compare", str(tmp_path), str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "spss 300 ir_mrssn    beta identical" in out
    assert "DIFFERENT" not in out
    # a changed beta, then a case on one side only, exit 1
    other = tmp_path / "other"
    other.mkdir()
    record["solve"]["beta_sha256"] = "0" * 64
    (other / name).write_text(json.dumps(record))
    assert script.main(["--compare", str(tmp_path), str(other)]) == 1
    assert "spss 300 ir_mrssn    beta DIFFERENT" in capsys.readouterr().out
    (other / name).rename(other / "BENCH_spss_400_ir_mrssn.json")
    assert script.main(["--compare", str(tmp_path), str(other)]) == 1
    out = capsys.readouterr().out
    assert f"{name} only in A" in out
    assert "BENCH_spss_400_ir_mrssn.json only in B" in out
