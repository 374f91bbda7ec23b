"""Pipeline benchmark for sampletbp.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload spss_ssn --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload cartoon_ridge --seed 1 --seconds 1 --trace 1 --smoke

One run is one process and one closed-loop workload, measured for
--seconds.  With --trace 0 the last line of stdout is a JSON object carrying
the end-to-end metrics; with --trace 1 it carries the per-layer metrics of
traced pipelines, each of which must reproduce its untraced twin bit for
bit.  The metric names and units are those of BENCHMARK.json.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
# validate later performance claims on this seed only after the change is
# written, never while tuning it
HELD_OUT_SEED = 7919
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny N, one input, seconds-long")
    return p.parse_args(argv)


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def measure(seconds, step):
    """Call ``step`` until the next call, if it took as long as the last,
    would end after ``seconds``; always at least once."""
    start = perf_counter()
    while True:
        t = perf_counter()
        step()
        now = perf_counter()
        if now - start + (now - t) > seconds:
            return


def emit(result):
    print(json.dumps(result, sort_keys=True), flush=True)


def run_all(args):
    """Each workload in its own process, then one table of all of them."""
    table = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=ROOT, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: failed with exit code {proc.returncode}")
            return 1
        *_, detail, last = proc.stdout.strip().splitlines()
        table.append((name, json.loads(detail), json.loads(last)))
    for name, detail, last in table:
        print(f"== {name} (correct={last['correct']}, "
              f"{last['attempted'] - last['failed']}/{last['attempted']} "
              "pipelines passed every gate)")
        for metric, m in last["metrics"].items():
            print(f"  {metric:34s} {m['value']:.6g} {m['unit']}")
        passed = {}
        for rec in detail["pipelines"]:
            for gate, ok in rec["gates"].items():
                passed[gate] = passed.get(gate, 0) + ok
        for gate, count in passed.items():
            print(f"  gate {gate:32s} {count}/{len(detail['pipelines'])} "
                  "passed")
    return 0 if all(last["correct"] for _, _, last in table) else 1


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "sampletbp" / "__init__.py").is_file():
        print(f"error: no package source under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    nproc = len(os.sched_getaffinity(0))
    threads = min(2, nproc)
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(src))

    import numpy as np
    import scipy
    import pipeline
    from tracing import Tracer

    wl = pipeline.WORKLOADS[args.workload]
    if args.smoke:
        wl = pipeline.smoke(wl)
    inputs = pipeline.make_inputs(wl, args.seed)

    # one untimed build first: the first N x N allocations of a fresh
    # process are markedly slower than the ones after
    pipeline.build(inputs[0].cloud)
    setups, solves, totals = [], [], []
    pipelines = []
    layers = []

    def next_input():
        return inputs[len(pipelines) % len(inputs)]

    def timed():
        data = next_input()
        res = pipeline.run_pipeline(wl, data, solve_reps=wl.solve_reps)
        setups.append(res.setup_s)
        solves.extend(res.solve_s)
        totals.append(res.total_s)
        pipelines.append(pipeline.gate(wl, data, res))

    def traced():
        # an untraced then a traced pipeline on the same input; the wrappers
        # are installed only around the traced one
        data = next_input()
        plain = pipeline.run_pipeline(wl, data)
        tracer = Tracer()
        with tracer.patched():
            res = pipeline.run_pipeline(wl, data, tracer)
        rec = pipeline.gate(wl, data, plain)
        rec_traced = pipeline.gate(wl, data, res)
        rec["traced_matches"] = \
            pipeline.fingerprint(rec) == pipeline.fingerprint(rec_traced)
        rec["ok"] = rec["ok"] and rec_traced["ok"] and rec["traced_matches"]
        layers.append(pipeline.layer_metrics(tracer, res))
        layers[-1]["trace.overhead_s"] = res.total_s - plain.total_s
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace_{wl.name}_seed{args.seed}"
                    f"_{len(pipelines)}.json")
        pipelines.append(rec)

    measure(args.seconds, traced if args.trace else timed)

    failed = sum(not rec["ok"] for rec in pipelines)
    provenance = {
        "workload": wl.name, "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED, "n": wl.n,
        "instances": len(inputs), "solve_reps": wl.solve_reps,
        "seconds": args.seconds, "smoke": args.smoke, "nproc": nproc,
        "blas_threads": threads, "numpy": np.__version__,
        "scipy": scipy.__version__, "python": sys.version.split()[0],
        "git_commit": git_commit(), "trace": args.trace,
    }
    if args.trace:
        # every per-layer metric is reported; one whose layer this workload
        # never calls reads 0 and is listed as not applicable
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        missing = [k for k in units if k not in layers[0]]
        metrics = {k: statistics.median(lay.get(k, 0) for lay in layers)
                   for k in units}
        detail = {"provenance": provenance, "pipelines": pipelines,
                  "not_applicable": missing}
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "solve_s": statistics.median(solves),
            "total_s": statistics.median(totals),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "rel_l2_error": statistics.median(
                rec["rel_l2_error"] for rec in pipelines),
        }
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        detail = {"provenance": provenance, "pipelines": pipelines,
                  "samples": {"setup_s": setups, "solve_s": solves,
                              "total_s": totals}}
    emit(detail)
    emit({"correct": failed == 0, "attempted": len(pipelines),
          "failed": failed,
          "metrics": {k: {"value": float(v), "unit": units[k]}
                      for k, v in metrics.items()}})
    return 0


if __name__ == "__main__":
    sys.exit(main())
