"""Wall time, peak memory and counters of the ir_mrssn solve.

For each of spss and spms at N = 2000 and N = 10^4 (seed 1, q = 3,
Matern-3/2 with length 0.25, tau = 1e-4, weight 2e-5, the default solver
settings, as ``sampletbp bench --solver ir_mrssn`` runs them) this runs one
fresh Python process that generates the data, builds the compressed
operator and solves, and writes ``BENCH_solve_<case>_<N>.json``: the wall
time of each stage and the process's peak RSS (``ru_maxrss``) after it, the
iterations, the Newton and coordinate-descent counters, the Gram fetches,
the objective and a sha256 of beta's float64 bytes.

    PYTHONPATH=src python scripts/bench_solve.py [--out DIR]
    PYTHONPATH=src python scripts/bench_solve.py --case spss --n 2000
    python scripts/bench_solve.py --compare DIR_A DIR_B

``--compare`` prints, for every case in both directories, the solve times
and whether beta is bit for bit the same.  Compare only runs of different
code on the same machine, close in time.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from time import perf_counter

CASES = (("spss", 2000), ("spms", 2000), ("spss", 10_000), ("spms", 10_000))
SEED = 1
TAU = 1e-4
WEIGHT = 2e-5
COUNTERS = ("newton_accepted", "newton_damped", "newton_rejected",
            "cd_sweeps", "gram_fetches", "gram_columns")


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_case(case, n):
    """Generate, compress and solve one case; the report as a dict."""
    import numpy as np
    import scipy

    from sampletbp import BenchmarkCase, compress, generate, ir_mrssn

    spec = BenchmarkCase(case, n, seed=SEED)
    stages = {}

    def stage(name, fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        stages[name] = {"wall_s": perf_counter() - t0,
                        "peak_rss_mb": peak_rss_mb()}
        return out

    data = stage("generate", generate, spec)
    op = stage("compress", compress, data.basis, spec.kernel, data.cloud, TAU)
    h_sigma = data.basis.forward(data.noisy)
    w = np.full(n, WEIGHT)
    rep = stage("solve", lambda: ir_mrssn(op, h_sigma, w, basis=data.basis))
    beta = np.ascontiguousarray(rep.beta, dtype="<f8")
    return {
        "case": case, "n": n, "seed": SEED, "q": spec.q, "tau": TAU,
        "weight": WEIGHT, "solver": "ir_mrssn",
        "stages": stages,
        "solve": {"iterations": rep.iterations,
                  "converged": rep.extras["converged"],
                  "final_active": rep.final_active_size,
                  "objective": rep.objective,
                  "beta_sha256": hashlib.sha256(beta.tobytes()).hexdigest(),
                  **{k: rep.extras[k] for k in COUNTERS}},
        "provenance": {"cores": len(os.sched_getaffinity(0)),
                       "openblas_threads": os.environ.get(
                           "OPENBLAS_NUM_THREADS"),
                       "python": platform.python_version(),
                       "numpy": np.__version__, "scipy": scipy.__version__},
    }


def compare(dir_a, dir_b):
    """Print solve times and beta identity of the cases in both
    directories."""
    print(f"{'case':<12} {'solve A s':>10} {'solve B s':>10} {'B/A':>6} "
          f"{'RSS A MB':>9} {'RSS B MB':>9}  beta")
    for path_a in sorted(glob.glob(os.path.join(dir_a, "BENCH_solve_*.json"))):
        path_b = os.path.join(dir_b, os.path.basename(path_a))
        if not os.path.exists(path_b):
            continue
        with open(path_a) as fa, open(path_b) as fb:
            a, b = json.load(fa), json.load(fb)
        ta, tb = a["stages"]["solve"], b["stages"]["solve"]
        same = a["solve"]["beta_sha256"] == b["solve"]["beta_sha256"]
        print(f"{a['case'] + ' ' + str(a['n']):<12} {ta['wall_s']:>10.3f} "
              f"{tb['wall_s']:>10.3f} {tb['wall_s'] / ta['wall_s']:>6.3f} "
              f"{ta['peak_rss_mb']:>9.1f} {tb['peak_rss_mb']:>9.1f}  "
              + ("identical" if same else "DIFFERENT"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=".",
                        help="directory for the BENCH_*.json files")
    parser.add_argument("--case", help="run only this generator's case, "
                        "in this process")
    parser.add_argument("--n", type=int, help="N of --case")
    parser.add_argument("--compare", nargs=2, metavar="DIR",
                        help="compare the reports of two directories")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if (args.case is None) != (args.n is None):
        parser.error("--case and --n go together")
    if args.case is not None:
        report = run_case(args.case, args.n)
        path = os.path.join(args.out, f"BENCH_solve_{args.case}_{args.n}.json")
        with open(path, "w") as fh:
            json.dump(report, fh, indent=1)
        s = report["solve"]
        print(f"{args.case} N={args.n}: solve "
              f"{report['stages']['solve']['wall_s']:.3f} s / "
              f"{report['stages']['solve']['peak_rss_mb']:.0f} MB, "
              f"{s['iterations']} iterations, {s['gram_fetches']} fetches, "
              f"beta {s['beta_sha256'][:12]} -> {path}")
        return 0
    os.makedirs(args.out, exist_ok=True)
    for case, n in CASES:
        # a fresh process each, so that ru_maxrss is this case's own peak
        subprocess.run([sys.executable, __file__, "--case", case, "--n",
                        str(n), "--out", args.out], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
