"""Stage timings and peak memory of the operator build.

For each of cartoon at N = 6000 and spss at N = 2000 and N = 10^4 (seed 1,
q = 3, Matern-3/2 with length 0.25, tau = 1e-4) this runs one fresh Python
process that builds the cluster tree, the samplet basis and the compressed
operator, and writes ``BENCH_compress_<case>_<N>.json``: the wall time of
each stage and the process's peak RSS (``ru_maxrss``) after it, the
operator's nonzeros per row and its error estimate.

    PYTHONPATH=src python scripts/bench_compress.py [--out DIR]
    PYTHONPATH=src python scripts/bench_compress.py --case spss --n 2000

Compare only runs of different code on the same machine, close in time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from math import comb
from time import perf_counter

CASES = (("cartoon", 6000), ("spss", 2000), ("spss", 10_000))
SEED = 1
TAU = 1e-4


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_case(case, n):
    """Build tree, basis and operator for one case; the report as a dict."""
    import numpy as np
    import scipy

    from sampletbp import (BenchmarkCase, PointCloud, build_cluster_tree,
                           build_samplet_basis, compress)
    from sampletbp.bench import default_leaf_capacity
    from sampletbp.operator import panel_workers

    spec = BenchmarkCase(case, n, seed=SEED)
    # generate's first draw for every generator, without the tree and basis
    # it builds, so that the first stage's peak RSS is the tree's own
    cloud = PointCloud(np.random.default_rng(SEED).uniform(
        -0.5, 0.5, (n, spec.dim)))
    stages = {}

    def stage(name, fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        stages[name] = {"wall_s": perf_counter() - t0,
                        "peak_rss_mb": peak_rss_mb()}
        return out

    tree = stage("tree", build_cluster_tree, cloud,
                 default_leaf_capacity(comb(spec.q + spec.dim, spec.dim)))
    basis = stage("basis", build_samplet_basis, tree, cloud, spec.q)
    op = stage("compress", compress, basis, spec.kernel, cloud, TAU)
    return {
        "case": case, "n": n, "seed": SEED, "q": spec.q, "tau": TAU,
        "kernel": {"family": spec.kernel.family,
                   "length": spec.kernel.length},
        "stages": stages,
        "operator": {"nnz_per_row": op.nnz_per_row_avg,
                     "est_rel_error": op.est_rel_frobenius_error},
        "provenance": {"compress_workers": panel_workers(n),
                       "cores": len(os.sched_getaffinity(0)),
                       "python": platform.python_version(),
                       "numpy": np.__version__, "scipy": scipy.__version__},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=".",
                        help="directory for the BENCH_*.json files")
    parser.add_argument("--case", help="run only this generator's case, "
                        "in this process")
    parser.add_argument("--n", type=int, help="N of --case")
    args = parser.parse_args(argv)
    if (args.case is None) != (args.n is None):
        parser.error("--case and --n go together")
    if args.case is not None:
        report = run_case(args.case, args.n)
        path = os.path.join(args.out, f"BENCH_compress_{args.case}_{args.n}.json")
        with open(path, "w") as fh:
            json.dump(report, fh, indent=1)
        st = report["stages"]
        print(f"{args.case} N={args.n}: " + ", ".join(
            f"{name} {s['wall_s']:.3f} s / {s['peak_rss_mb']:.0f} MB"
            for name, s in st.items())
            + f"; {report['operator']['nnz_per_row']:.1f} nonzeros per row, "
            f"error estimate {report['operator']['est_rel_error']:.3g}"
            f" -> {path}")
        return 0
    os.makedirs(args.out, exist_ok=True)
    for case, n in CASES:
        # a fresh process each, so that ru_maxrss is this case's own peak
        subprocess.run([sys.executable, __file__, "--case", case, "--n",
                        str(n), "--out", args.out], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
