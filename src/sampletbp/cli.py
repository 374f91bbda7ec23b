"""Command-line front end: config parsing, data ingestion, subcommands."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from math import comb

import numpy as np

from . import __version__
from .bench import (BenchmarkCase, StageTimer, build_basis, cartesian_grid,
                    default_leaf_capacity, generate, grid_eval, metrics)
from .geometry import BudgetError, GeometryError, PointCloud, read_numeric_csv
from .kernel import KernelError, KernelSpec
from .operator import compress
from .solver import SOLVERS, SolverConfig, SolverError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BAD_INPUT = 3
EXIT_BUDGET = 4
EXIT_SOLVER = 5

_EPILOG = """\
exit codes: 0 success, 2 usage error, 3 malformed input file or --grid,
--tau, --noise or --length, 4 estimated peak memory above physical
memory, 5 solver failure.

config files are plain text `key=value` lines (# comments allowed) that
declare kernels only, with consecutive indices for dictionaries of several
kernels:
  kernel.0.family=matern32
  kernel.0.length=0.25
  kernel.0.dim_scaling=true
the other fields are periodic_scale and frequency; any other key is an
error.  --kernel and --length override the first kernel.
"""


def parse_config_file(path):
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, val = line.split("=", 1)
            values[key.strip()] = val.strip()
    return values


def _bool(s):
    if str(s).lower() in ("1", "true", "yes", "on"):
        return True
    if str(s).lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s}")


# config field -> parser of its value
_KERNEL_FIELDS = {"family": str, "length": float, "dim_scaling": _bool,
                  "periodic_scale": float, "frequency": float}


def kernels_from_config(cfg, default_length=0.25):
    """Build the ordered kernel list from `kernel.<i>.<field>` entries with
    consecutive indices i from 0; every other key is rejected."""
    specs = []
    used = set()
    while f"kernel.{len(specs)}.family" in cfg:
        prefix = f"kernel.{len(specs)}."
        kwargs = {}
        for name, parse in _KERNEL_FIELDS.items():
            if prefix + name in cfg:
                kwargs[name] = parse(cfg[prefix + name])
                used.add(prefix + name)
        specs.append(KernelSpec(**kwargs))
    unknown = sorted(set(cfg) - used)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)} (a "
                         "config file declares kernel.<i>.<field> only)")
    if not specs:
        specs = [KernelSpec("matern32", length=default_length)]
    return specs


def _require_finite(values, what):
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise GeometryError(f"{what} has {bad} non-finite values")


def ingest_labeled_csv(path, rescale=False):
    """Coordinates plus a trailing value column; optional unit-box rescale."""
    try:
        cloud, values = PointCloud.from_csv(path, has_values=True)
    except (OSError, ValueError, GeometryError) as exc:
        raise GeometryError(f"cannot read labeled CSV {path}: {exc}") from exc
    _require_finite(values, "labeled CSV")
    if rescale:
        box = cloud.domain_box
        width = np.where(box[1] > box[0], box[1] - box[0], 1.0)
        pts = (cloud.points - box[0]) / width
        cloud = PointCloud(pts)
    return cloud, values


# where a run writes its outputs is not part of its configuration, so the
# config echo leaves these keys out
OUTPUT_PATHS = ("report", "table", "field", "coefficients")


def _provenance(args, extra=None):
    import scipy
    echo = {k: v for k, v in vars(args).items()
            if k != "func" and k not in OUTPUT_PATHS and v is not None}
    out = {
        "tool": "sampletbp",
        "version": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "config": echo,
    }
    if extra:
        out.update(extra)
    return out


def _sorted_keys(obj):
    if isinstance(obj, dict):
        return {k: _sorted_keys(obj[k]) for k in sorted(obj)}
    if isinstance(obj, (list, tuple)):
        return [_sorted_keys(v) for v in obj]
    return obj


def _write_json(path, payload):
    """Keys in sorted order at every level, except the stages of
    ``timings``, which stay in run order."""
    out = _sorted_keys(payload)
    if "timings" in out:
        out["timings"] = {name: out["timings"][name]
                          for name in payload["timings"]}
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")


def _solve(args, solver, op, h_sigma, basis):
    """Run a solver from ``SOLVERS`` with the command's flags; returns its
    report and the operator summary that goes into the payload."""
    cfg = SolverConfig(tol=args.tol, max_iter=args.max_iter, lam=args.lam,
                       mu0=args.mu0, outer_steps=args.outer_steps)
    w = np.full(op.shape[1], args.weight)
    report = SOLVERS[solver](op, h_sigma, w, cfg, basis)
    return report, {
        "threshold": op.threshold,
        "nnz_per_row_avg": op.nnz_per_row_avg,
        "est_rel_frobenius_error": op.est_rel_frobenius_error,
    }


# -- subcommands -------------------------------------------------------------

def cmd_info(args):
    cloud, _ = ingest_labeled_csv(args.input) if args.labeled else \
        (PointCloud.from_csv(args.input), None)
    m_q = comb(args.q + cloud.dim, cloud.dim)
    info = {
        "n": cloud.n,
        "dim": cloud.dim,
        "bbox_min": list(cloud.domain_box[0]),
        "bbox_max": list(cloud.domain_box[1]),
        "moment_dim": m_q,
        "suggested_leaf_capacity": default_leaf_capacity(m_q),
    }
    print(json.dumps(info, sort_keys=True))
    return EXIT_OK


def cmd_transform(args):
    cloud = PointCloud.from_csv(args.points)
    basis = build_basis(cloud, args.q)
    vec = np.loadtxt(args.input, delimiter=",", ndmin=1)
    if vec.ndim != 1 or vec.shape[0] != cloud.n:
        raise GeometryError("vector length does not match the point count")
    _require_finite(vec, "input vector")
    out = basis.inverse(vec) if args.inverse else basis.forward(vec)
    np.savetxt(args.output, out, fmt="%.17g")
    return EXIT_OK


def cmd_fit(args):
    cloud, values = ingest_labeled_csv(args.data, rescale=args.rescale)
    spec = _single_kernel(args)
    solver = args.solver
    if solver == "auto":
        solver = "ridge" if args.weight == 0.0 else "ir_mrssn"
    stage = StageTimer()
    basis = build_basis(cloud, args.q, stage)
    with stage("compress"):
        op = compress(basis, spec, cloud, args.tau)
    with stage("solve"):
        report, op_summary = _solve(args, solver, op, basis.forward(values),
                                    basis)
    payload = _provenance(args, {
        "report": report.to_dict(include_coefficients=False),
        "operator": op_summary,
        "timings": stage.timings,
    })
    _write_json(args.report, payload)
    report.coefficients_csv(args.coefficients)
    return EXIT_OK


def cmd_eval(args):
    cloud = PointCloud.from_csv(args.points)
    shape = _parse_grid(args.grid, cloud.dim)
    specs = _resolve_kernels(args)
    table = read_numeric_csv(args.coefficients)
    if table.shape[1] < 3:
        raise GeometryError("coefficient file needs the columns index, beta, "
                            f"alpha; it has {table.shape[1]}")
    alpha = table[:, 2]
    if alpha.shape[0] != cloud.n * len(specs):
        raise GeometryError("coefficient count does not match N * L")
    _require_finite(alpha, "coefficient file")
    grid = cartesian_grid(cloud.domain_box, shape)
    alphas = np.split(alpha, len(specs))
    field = grid_eval(alphas, specs, cloud, grid)
    with open(args.output, "w") as fh:
        fh.write(",".join(f"x{j+1}" for j in range(cloud.dim)) + ",value\n")
        for row, val in zip(grid, field):
            fh.write(",".join(f"{c:.17g}" for c in row) + f",{val:.17g}\n")
    return EXIT_OK


def cmd_bench(args):
    spec = _single_kernel(args)
    case = BenchmarkCase(generator=args.case, n=args.n, seed=args.seed,
                         noise_level=args.noise, kernel=spec, q=args.q)
    if args.field:
        shape = _parse_grid(args.grid, case.dim)
    stage = StageTimer()
    data = generate(case, stage)
    with stage("compress"):
        op = compress(data.basis, spec, data.cloud, args.tau)
    with stage("solve"):
        report, op_summary = _solve(args, args.solver, op,
                                    data.basis.forward(data.noisy), data.basis)
    if args.field:
        with stage("grid"):
            grid = cartesian_grid(data.cloud.domain_box, shape)
            field = grid_eval([report.alpha], [spec], data.cloud, grid)
    rec = metrics(report, data, op=op)
    table_time = rec["wall_time"]
    if args.no_timings:
        rec = {k: v for k, v in rec.items() if k != "wall_time"}
    payload = _provenance(args, {
        "metrics": rec,
        "operator": op_summary,
        "report": report.to_dict(include_coefficients=False,
                                 include_timings=not args.no_timings),
    })
    if not args.no_timings:
        payload["timings"] = stage.timings
    _write_json(args.report, payload)
    with open(args.table, "w") as fh:
        fh.write("method,iterations,comp_time,final_active,rel_l2_error\n")
        fh.write(f"{rec['method']},{rec['iterations']},"
                 f"{table_time:.17g},{rec['beta_nnz']},"
                 f"{rec['rel_l2_error']:.17g}\n")
    if args.field:
        np.savetxt(args.field, np.column_stack([grid, field]),
                   delimiter=",", fmt="%.17g")
    return EXIT_OK


def _parse_grid(text, dim):
    """``--grid`` as a shape of ``dim`` positive point counts."""
    try:
        shape = tuple(int(s) for s in text.split("x"))
    except ValueError:
        shape = ()
    if len(shape) != dim or min(shape) < 1:
        raise GeometryError(f"--grid {text}: expected {dim} positive point "
                            "counts joined by x, one per coordinate")
    return shape


def _resolve_kernels(args):
    cfg = parse_config_file(args.config) if args.config else {}
    specs = kernels_from_config(cfg)
    # flag overrides apply to the first kernel and keep its other fields
    if args.kernel or args.length is not None:
        specs[0] = dataclasses.replace(
            specs[0], family=args.kernel or specs[0].family,
            length=specs[0].length if args.length is None else args.length)
    return specs


def _single_kernel(args):
    """The one kernel of a ``fit`` or ``bench`` run."""
    specs = _resolve_kernels(args)
    if len(specs) > 1:
        raise KernelError(f"{args.command} supports one kernel; use the "
                          "library API for multi-kernel dictionaries")
    return specs[0]


def build_parser():
    p = argparse.ArgumentParser(
        prog="sampletbp",
        description="Multiresolution scattered-data approximation with "
                    "samplets and l1 sparsity constraints.",
        epilog=_EPILOG, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, solver=True):
        sp.add_argument("--config", help="key=value config file")
        sp.add_argument("--kernel", help="kernel family override")
        sp.add_argument("--length", type=float, help="correlation length")
        if solver:
            sp.add_argument("--q", type=int, default=3,
                            help="vanishing moments are of order q+1")
            sp.add_argument("--tau", type=float, default=1e-4,
                            help="a-posteriori compression threshold")
            sp.add_argument("--lambda", dest="lam", type=float, default=2e-5,
                            help="ridge regularization as lambda / N")
            sp.add_argument("--weight", type=float, default=2e-5)
            sp.add_argument("--tol", type=float, default=9e-7)
            sp.add_argument("--mu0", type=float, default=1.05)
            sp.add_argument("--outer-steps", type=int, default=250)
            sp.add_argument("--max-iter", type=int, default=10000)

    sp = sub.add_parser("info", help="summarize a point CSV")
    sp.add_argument("input")
    sp.add_argument("--labeled", action="store_true")
    sp.add_argument("--q", type=int, default=3)
    sp.set_defaults(func=cmd_info)

    sp = sub.add_parser("transform", help="apply the samplet transform")
    sp.add_argument("--points", required=True)
    sp.add_argument("--input", required=True, help="vector CSV, one value/row")
    sp.add_argument("--output", required=True)
    sp.add_argument("--inverse", action="store_true")
    sp.add_argument("--q", type=int, default=3)
    sp.set_defaults(func=cmd_transform)

    sp = sub.add_parser("fit", help="fit scattered data from a labeled CSV")
    sp.add_argument("--data", required=True)
    sp.add_argument("--report", default="report.json")
    sp.add_argument("--coefficients", default="coefficients.csv")
    sp.add_argument("--solver", default="auto", choices=["auto", *SOLVERS],
                    help="auto: ridge for --weight 0, else ir_mrssn")
    sp.add_argument("--rescale", action="store_true",
                    help="map the bounding box to the unit cube")
    common(sp)
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("eval", help="evaluate fitted coefficients on a grid")
    sp.add_argument("--points", required=True)
    sp.add_argument("--coefficients", required=True)
    sp.add_argument("--output", default="field.csv")
    sp.add_argument("--grid", default="200x200")
    common(sp, solver=False)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("bench", help="run a benchmark case")
    sp.add_argument("--case", required=True,
                    choices=["spss", "spms", "cartoon"])
    sp.add_argument("--n", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--noise", type=float, default=0.05)
    sp.add_argument("--solver", default="ir_mrssn", choices=list(SOLVERS))
    sp.add_argument("--report", default="report.json")
    sp.add_argument("--table", default="table.csv")
    sp.add_argument("--field", help="optional grid-field CSV output")
    sp.add_argument("--grid", default="200x200")
    sp.add_argument("--no-timings", action="store_true",
                    help="omit wall times for bitwise-reproducible reports")
    common(sp)
    sp.set_defaults(func=cmd_bench)
    return p


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (BudgetError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
