"""Workloads, the closed-loop pipeline, and the correctness gates.

Every workload runs the package's public API in pipeline order:
build_cluster_tree -> build_samplet_basis -> compress -> basis.forward ->
solver (which back-transforms) -> grid_eval where the workload has it.
Inputs come from ``sampletbp.bench.generate`` and are made before any
timing starts.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from math import comb
from time import perf_counter

import numpy as np

from sampletbp import (BenchmarkCase, KernelSpec, build_cluster_tree,
                       build_samplet_basis, compress, generate, grid_eval,
                       ir_mrssn, metrics, ridge_cg)
from sampletbp.bench import cartesian_grid, default_leaf_capacity

from tracing import NullTracer, matvec_bytes

KERNEL = KernelSpec("matern32", length=0.25)
Q = 3
LEAF_CAPACITY = default_leaf_capacity(comb(Q + 2, 2))  # as generate() uses
TAU = 1e-4
WEIGHT = 2e-5
NOISE = 0.05
TOL = 9e-7
CONSISTENCY_TOL = 1e-8  # max|beta - T alpha|, as in acceptance criterion 4

@dataclass(frozen=True)
class Workload:
    name: str
    generator: str
    n: int
    solver: str
    instances: int = 1   # distinct inputs; a run cycles through them
    grid: tuple = ()     # grid_eval shape, empty for none
    solve_reps: int = 1  # solves per pipeline on the same operator


WORKLOADS = {
    # the SSN solver dominates: Gram blocks, Cholesky, CD fallback
    # (more inputs than one run reaches, so no input is solved twice)
    "spss_ssn": Workload("spss_ssn", "spss", 500, "ir_mrssn", instances=64),
    # the build dominates: dense assembly, two-sided transform, threshold;
    # the 0.1 s solve is repeated so that solve_s has enough samples
    "cartoon_ridge": Workload("cartoon_ridge", "cartoon", 6000, "ridge_cg",
                              grid=(40, 40), solve_reps=6),
}

SMOKE_N = 300


def smoke(wl):
    """Seconds-long variant of a workload, for checking the harness."""
    return Workload(wl.name, wl.generator, SMOKE_N, wl.solver,
                    grid=(8, 8) if wl.grid else (),
                    solve_reps=min(wl.solve_reps, 2))


def make_inputs(wl, seed):
    """Instance k: the clean case of generator seed k + 1, plus noise drawn
    from (seed, k) with the noise model of ``generate``.

    The points and support are a fixed panel so that every run solves
    comparable problems and the seed only redraws the noise; see README.md.
    """
    inputs = []
    for k in range(wl.instances):
        data = generate(BenchmarkCase(generator=wl.generator, n=wl.n,
                                      seed=k + 1, noise_level=0.0,
                                      kernel=KERNEL, q=Q))
        eta = np.random.default_rng([seed, k]).standard_normal(wl.n)
        eta *= NOISE * np.linalg.norm(data.clean) / np.linalg.norm(eta)
        data.noisy = data.clean + eta
        inputs.append(data)
    return inputs


@dataclass
class Result:
    setup_s: float
    solve_s: list  # the pipeline's own solve, then the repeats
    total_s: float
    basis: object
    op: object
    report: object
    field: np.ndarray


def build(cloud, tracer=NullTracer()):
    """Raw points -> (basis, compressed operator)."""
    with tracer.span("geometry.tree"):
        tree = build_cluster_tree(cloud, LEAF_CAPACITY)
    with tracer.span("samplet.basis"):
        basis = build_samplet_basis(tree, cloud, Q)
    with tracer.span("operator.compress"):
        op = compress(tracer.basis(basis), KERNEL, cloud, TAU)
    return basis, op


def solve(wl, op, basis, values, tracer):
    """Data transform plus solver call, which back-transforms."""
    h_sigma = basis.forward(values)
    n = len(values)
    with tracer.span("solver.solve"):
        if wl.solver == "ir_mrssn":
            return ir_mrssn(op, h_sigma, np.full(n, WEIGHT), basis=basis)
        return ridge_cg(op, h_sigma, WEIGHT * n, tol=TOL, basis=basis,
                        diagonal_scaling=True)


def run_pipeline(wl, data, tracer=NullTracer(), solve_reps=1):
    """One pipeline; after it, the solve is repeated ``solve_reps - 1``
    times on the same operator for more ``solve_s`` samples."""
    cloud = data.cloud
    t0 = perf_counter()
    basis, op = build(cloud, tracer)
    t1 = perf_counter()
    traced_basis, traced_op = tracer.basis(basis), tracer.operator(op)
    report = solve(wl, traced_op, traced_basis, data.noisy, tracer)
    t2 = perf_counter()
    field = None
    if wl.grid:
        grid = cartesian_grid(cloud.domain_box, wl.grid)
        with tracer.span("bench.grid_eval"):
            field = grid_eval([report.alpha], [KERNEL], cloud, grid)
    t3 = perf_counter()
    solves = [t2 - t1]
    for _ in range(solve_reps - 1):
        t = perf_counter()
        solve(wl, traced_op, traced_basis, data.noisy, tracer)
        solves.append(perf_counter() - t)
    return Result(t1 - t0, solves, t3 - t0, basis, op, report, field)


# -- correctness ------------------------------------------------------------

def gate(wl, data, res):
    """Quality record and pass/fail verdict for one pipeline."""
    rep = res.report
    rec = metrics(rep, data, op=res.op)
    checks = {}
    if wl.solver == "ir_mrssn":
        checks["converged"] = bool(rep.extras["converged"])
        checks["residual_inf<9e-7"] = rec["residual_inf"] < TOL
        # sanity bounds, not accuracy targets: at this N and noise the seed
        # code misses up to 2 of 10 translates and keeps up to 0.44 N
        # nonzeros; a zero or dense solution fails them
        checks["support_recovery>=0.5"] = rec["support_recovery"] >= 0.5
        checks["beta_nnz<=3N/4"] = rec["beta_nnz"] <= 3 * wl.n // 4
    else:
        consistency = float(np.abs(
            rep.beta - res.basis.forward(rep.alpha)).max())
        rec["consistency"] = consistency
        checks["cg_rel_residual<=tol"] = \
            rep.extras["relative_residual"] <= TOL
        checks["max|beta-T alpha|<=1e-8"] = consistency <= CONSISTENCY_TOL
    if res.field is not None:
        checks["field_finite"] = bool(np.all(np.isfinite(res.field)))
    rec["gates"] = checks
    rec["ok"] = all(checks.values())
    return rec


def fingerprint(rec):
    """Deterministic outputs the traced run must reproduce bit for bit."""
    return (rec["iterations"], rec["beta_nnz"], rec["rel_l2_error"])


# -- per-layer summary of one traced pipeline -------------------------------

def layer_metrics(tracer, res):
    """Per-layer metrics of one traced pipeline.  A metric whose span never
    occurred is left out: its layer does not apply to the workload."""
    totals = tracer.totals()
    out = {}

    def span(metric, name, calls=None):
        if name in totals:
            out[metric] = totals[name][0]
            if calls:
                out[calls] = totals[name][1]

    span("geometry.tree_s", "geometry.tree")
    span("samplet.basis_s", "samplet.basis")
    span("samplet.forward_s", "samplet.forward", "samplet.forward_calls")
    span("samplet.inverse_s", "samplet.inverse", "samplet.inverse_calls")
    span("kernel.assemble_s", "kernel.assemble")
    span("kernel.cross_s", "kernel.cross")
    if "kernel.cross" in tracer.samples:
        out["kernel.cross_entries"] = sum(tracer.samples["kernel.cross"])
    span("operator.compress_s", "operator.compress")
    span("operator.threshold_s", "operator.threshold")
    out["operator.nnz_per_row"] = res.op.nnz_per_row_avg
    out["operator.est_rel_error"] = res.op.est_rel_frobenius_error
    span("operator.matvec_s", "operator.matvec", "operator.matvec_calls")
    span("operator.rmatvec_s", "operator.rmatvec", "operator.rmatvec_calls")
    products = out.get("operator.matvec_calls", 0) \
        + out.get("operator.rmatvec_calls", 0)
    out["operator.matvec_bytes_computed"] = products * matvec_bytes(res.op)
    span("operator.gram_s", "operator.gram", "operator.gram_calls")
    if "operator.gram" in tracer.samples:
        sizes = tracer.samples["operator.gram"]
        out["operator.gram_size_p50"] = statistics.median(sizes)
        out["operator.gram_size_max"] = max(sizes)
    span("operator.lipschitz_s", "operator.lipschitz")
    out["solver.solve_s"] = totals["solver.solve"][0]
    out["solver.self_s"] = totals["solver.solve"][2]
    rep = res.report
    out["solver.iterations"] = rep.iterations
    if "outer_steps" in rep.extras:
        out["solver.outer_steps"] = rep.extras["outer_steps"]
    out["solver.final_active"] = rep.final_active_size
    out["solver.residual_inf"] = rep.residual_inf
    span("bench.grid_eval_s", "bench.grid_eval")
    if res.field is not None:
        out["bench.grid_points"] = res.field.size
    return out
