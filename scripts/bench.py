"""Stage timings, peak memory and solver results of the benchmark cases.

Each case of ``CASES`` (seed 1 and the other ``sampletbp bench`` defaults)
runs as one fresh ``python -m sampletbp.cli bench ... --report`` process on
the package in this checkout's ``src/``, so that each peak RSS is that
case's own; a case with a grid also evaluates the field on it (``--field``,
stage ``grid``). For each case this writes
``BENCH_<case>_<N>_<solver>.json``: the report's stage timings (wall time
and the process's peak RSS after each stage), the operator summary, the
solver's iterations, objective, ``beta_sha256`` and ``extras`` counters,
``rel_l2_error``, the ``field_sha256`` of the field CSV for a case with a
grid, and the commit, host and library versions it ran with.

    python scripts/bench.py [--out DIR]
    python scripts/bench.py --compare DIR_A DIR_B

``--compare`` prints, for every case in both directories, each stage's
wall time and peak RSS side by side and whether beta, and the field of a
case with a grid, is bit for bit the same, and names each case found on one
side only. It exits 1 when a beta or a field differs or a case is missing,
else 0. Compare only runs of different code
on the same machine, close in time.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# (generator, N, solver, grid or None); spss 2000 fista is the paper's
# single-scale baseline, and cartoon 6000 evaluates perfbench's 40 x 40 grid
CASES = (("cartoon", 6000, "ridge", "40x40"),
         ("spss", 2000, "ir_mrssn", None), ("spms", 2000, "ir_mrssn", None),
         ("spss", 10_000, "ir_mrssn", None),
         ("spms", 10_000, "ir_mrssn", None),
         ("spss", 2000, "fista", None))


def _git(*args):
    """Output of a git command in this checkout, None outside a repository."""
    run = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                         text=True)
    return run.stdout.strip() if run.returncode == 0 else None


def provenance():
    """The commit (``-dirty`` with uncommitted package or script changes)
    and the host the cases run on."""
    commit = _git("rev-parse", "HEAD")
    if commit and _git("status", "--porcelain", "--", "src", "scripts"):
        commit += "-dirty"
    return {"commit": commit, "host": platform.node(),
            "cores": len(os.sched_getaffinity(0)),
            "physical_memory_gb": os.sysconf("SC_PHYS_PAGES")
            * os.sysconf("SC_PAGE_SIZE") / 2**30,
            "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": platform.python_version()}


def run_case(case, n, solver, grid, host):
    """One ``bench`` process; its BENCH record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "report.json")
        field = os.path.join(tmp, "field.csv")
        subprocess.run([sys.executable, "-m", "sampletbp.cli", "bench",
                        "--case", case, "--n", str(n), "--solver", solver,
                        "--report", report,
                        "--table", os.path.join(tmp, "table.csv")]
                       + (["--field", field, "--grid", grid] if grid else []),
                       env=env, check=True)
        with open(report) as fh:
            payload = json.load(fh)
        if grid:
            with open(field, "rb") as fh:
                field_sha256 = hashlib.sha256(fh.read()).hexdigest()
    rep = payload["report"]
    record = {
        "case": case, "n": n, "solver": solver,
        "timings": payload["timings"],
        "operator": payload["operator"],
        "solve": {"method": rep["method"], "iterations": rep["iterations"],
                  "converged": rep["extras"].get("converged"),
                  "objective": rep["objective"],
                  "beta_sha256": rep["beta_sha256"],
                  "extras": rep["extras"]},
        "rel_l2_error": payload["metrics"]["rel_l2_error"],
        "provenance": {**host, "numpy": payload["numpy"],
                       "scipy": payload["scipy"]},
    }
    if grid:
        record["field_sha256"] = field_sha256
    return record


def compare(dir_a, dir_b):
    """Print each stage's wall time and peak RSS of the cases in both
    directories side by side, and whether beta, and the field where either
    side has one, is identical; 1 if one differs or a case is in one
    directory only, else 0."""
    print(f"{'case':<20} {'stage':<9} {'A s':>8} {'B s':>8} {'B/A':>6} "
          f"{'A MB':>7} {'B MB':>7}")
    names = [{os.path.basename(p) for p in
              glob.glob(os.path.join(d, "BENCH_*.json"))}
             for d in (dir_a, dir_b)]
    status = 0
    for file in sorted(names[0] ^ names[1]):
        print(f"{file} only in {'A' if file in names[0] else 'B'}")
        status = 1
    for file in sorted(names[0] & names[1]):
        with open(os.path.join(dir_a, file)) as fa, \
                open(os.path.join(dir_b, file)) as fb:
            a, b = json.load(fa), json.load(fb)
        name = f"{a['case']} {a['n']} {a['solver']}"
        for stage, ta in a["timings"].items():
            tb = b["timings"].get(stage)
            if tb is None:
                continue
            print(f"{name:<20} {stage:<9} {ta['wall_s']:>8.3f} "
                  f"{tb['wall_s']:>8.3f} {tb['wall_s'] / ta['wall_s']:>6.3f} "
                  f"{ta['peak_rss_mb']:>7.1f} {tb['peak_rss_mb']:>7.1f}")
        checks = [("beta", a["solve"]["beta_sha256"],
                   b["solve"]["beta_sha256"])]
        if "field_sha256" in a or "field_sha256" in b:
            checks.append(("field", a.get("field_sha256"),
                           b.get("field_sha256")))
        for what, hash_a, hash_b in checks:
            same = hash_a == hash_b
            print(f"{name:<20} {what} {'identical' if same else 'DIFFERENT'}")
            if not same:
                status = 1
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=".",
                        help="directory for the BENCH_*.json files")
    parser.add_argument("--compare", nargs=2, metavar="DIR",
                        help="compare the BENCH files of two directories")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    os.makedirs(args.out, exist_ok=True)
    host = provenance()
    for case, n, solver, grid in CASES:
        record = run_case(case, n, solver, grid, host)
        path = os.path.join(args.out, f"BENCH_{case}_{n}_{solver}.json")
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
        print(f"{case} N={n} {solver}: " + ", ".join(
            f"{stage} {t['wall_s']:.3f} s / {t['peak_rss_mb']:.0f} MB"
            for stage, t in record["timings"].items())
            + f"; beta {record['solve']['beta_sha256'][:12]} -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
