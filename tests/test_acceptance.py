"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line on the real stdout so the verdicts
are visible even under pytest's capture.  The heavy N = 10^4 benchmark
solves are shared between tests through module-scoped fixtures.
"""

import json
import sys
import time

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from conftest import (cd_lasso, dense_op, kkt_violation, lasso_objective,
                      random_spd)
from sampletbp import (BenchmarkCase, KernelSpec, PointCloud, build_cluster_tree,
                       build_samplet_basis, generate, metrics)
from sampletbp.kernel import assemble_dense, cross_matrix
from sampletbp.operator import (CompressedOperator, compress,
                                transform_two_sided)
from sampletbp.samplet import moment_matrix, multi_indices
from sampletbp.solver import (SolverConfig, fista, ir_mrssn, mrssn, ridge_cg,
                              solve_multi_kernel)

SEED = 20240612


_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True)
def _verdict_passthrough(request):
    # remember the capture manager so verdict lines can bypass fd capture
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")
    yield


def announce(name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    msg = f"[acceptance] {name}: {verdict} {detail}".rstrip()
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print(f"\n{msg}", flush=True)
    else:
        print(msg, file=sys.__stdout__, flush=True)
    assert ok, f"{name} failed: {detail}"


def uniform_points(n, dim, rng):
    return PointCloud(rng.uniform(-0.5, 0.5, (n, dim)))


def basis_for(cloud, q):
    m_q = len(multi_indices(cloud.dim, q))
    tree = build_cluster_tree(cloud, leaf_capacity=max(2 * m_q, 10))
    return build_samplet_basis(tree, cloud, q)


class TestOrthogonalityRoundTrip:
    def test_criterion_1(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(SEED)
        worst_orth = 0.0
        worst_rt = 0.0
        for dim in (1, 2, 3):
            for n in (128, 2048, 8192):
                for q in (0, 1, 2, 3):
                    cloud = uniform_points(n, dim, rng)
                    basis = basis_for(cloud, q)
                    T = basis.to_sparse()
                    # |T^T T - I|_max <= ||T T^T - I||_inf: the Gram is
                    # symmetric, so its row-sum norm bounds the spectral
                    # norm, which bounds every entry of T^T T - I as well.
                    G = (T @ T.T - scipy.sparse.identity(n)).tocsr()
                    bound = float(np.abs(G).sum(axis=1).max())
                    worst_orth = max(worst_orth, bound)
                    v = rng.standard_normal(n)
                    rt = float(np.abs(basis.inverse(basis.forward(v)) - v).max())
                    worst_rt = max(worst_rt, rt)
        elapsed = time.perf_counter() - t0
        ok = worst_orth <= 1e-10 and worst_rt <= 1e-12 and elapsed < 10.0
        announce("1 orthogonality/round-trip", ok,
                 f"(orth {worst_orth:.2e}, round-trip {worst_rt:.2e}, "
                 f"{elapsed:.1f}s)")


class TestVanishingMoments:
    def test_criterion_2(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(SEED)
        q = 3
        cloud = uniform_points(4096, 2, rng)
        basis = basis_for(cloud, q)
        T = basis.to_dense()
        alphas = multi_indices(2, q)
        M = moment_matrix(cloud.points, cloud.domain_box, alphas)  # (m_q, N)
        # rows of T beyond the root scaling functions are samplets
        moments = M @ T[basis.n_root_scaling:].T
        scale = np.abs(M).sum(axis=1, keepdims=True)  # normalization per row
        worst = float(np.abs(moments / scale).max())
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-10 and elapsed < 5.0
        announce("2 vanishing moments", ok,
                 f"(max normalized moment {worst:.2e}, {elapsed:.1f}s)")


class TestCompressionBookkeeping:
    def test_criterion_3(self):
        rng = np.random.default_rng(SEED)
        cloud = uniform_points(4096, 2, rng)
        basis = basis_for(cloud, 3)
        spec = KernelSpec("matern32", length=0.25)
        op = compress(basis, spec, cloud, tau=1e-4)

        K = assemble_dense(spec, cloud)
        dense = transform_two_sided(basis, K)
        dense = 0.5 * (dense + dense.T)  # the compressed path symmetrizes
        mask = np.abs(dense) >= 1e-4
        np.fill_diagonal(mask, True)
        dropped = dense[~mask]
        oracle = np.sqrt(float(dropped @ dropped) / float(np.sum(dense**2)))
        err = abs(op.est_rel_frobenius_error - oracle)

        nnzs = [compress(basis, spec, cloud, tau=t).matrix.nnz
                for t in (1e-6, 1e-4, 1e-2)]
        monotone = nnzs[0] >= nnzs[1] >= nnzs[2]
        ok = err <= 1e-12 and monotone
        announce("3 compression bookkeeping", ok,
                 f"(est error mismatch {err:.2e}, nnz {nnzs})")


class TestRidgeCorrectness:
    def test_criterion_4(self):
        rng = np.random.default_rng(SEED)
        n = 512
        cloud = uniform_points(n, 2, rng)
        basis = basis_for(cloud, 3)
        spec = KernelSpec("matern32", length=0.25)
        K = assemble_dense(spec, cloud)
        lam = 2e-5 * n
        h = np.sin(4 * cloud.points[:, 0]) + rng.standard_normal(n) * 0.01

        # untruncated samplet-coordinate operator
        op = CompressedOperator.from_dense(transform_two_sided(basis, K), 0.0)
        h_sig = basis.forward(h)
        rep = ridge_cg(op, h_sig, lam, tol=1e-12, basis=basis)

        dense_alpha = scipy.linalg.solve(K + lam * np.eye(n), h,
                                         assume_a="pos")
        rel = np.linalg.norm(rep.alpha - dense_alpha) \
            / np.linalg.norm(dense_alpha)
        consistency = float(np.abs(rep.beta - basis.forward(rep.alpha)).max())
        ok = rel <= 1e-6 and consistency <= 1e-8
        announce("4 ridge correctness", ok,
                 f"(rel {rel:.2e}, beta=T alpha {consistency:.2e})")


class TestLassoOracle:
    def test_criterion_5(self):
        worst_obj = 0.0
        worst_kkt = 0.0
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            n = int(rng.integers(8, 65))
            A = random_spd(n, rng, ridge=1.0)
            op = dense_op(A)
            h = rng.standard_normal(n)
            w = 0.1 * np.abs(A.T @ h).max()
            ref = cd_lasso(A, h, w, tol=1e-12)
            f_ref = lasso_objective(A, h, ref, w)
            for solver in ("mrssn", "mrfista"):
                if solver == "mrssn":
                    rep = mrssn(op, h, w, config=SolverConfig(tol=1e-12))
                else:
                    rep = fista(op, h, w,
                                config=SolverConfig(tol=1e-10, max_iter=50000))
                f = lasso_objective(A, h, rep.beta, w)
                worst_obj = max(worst_obj, abs(f - f_ref) / max(1.0, f_ref))
                worst_kkt = max(worst_kkt, kkt_violation(A, h, rep.beta, w))
        ok = worst_obj <= 1e-8 and worst_kkt <= 1e-8
        announce("5 lasso oracle equivalence", ok,
                 f"(objective gap {worst_obj:.2e}, KKT {worst_kkt:.2e})")


BENCH_N = 10**4
BENCH_WEIGHT = 2e-5


def _bench_solves(generator):
    case = BenchmarkCase(generator=generator, n=BENCH_N, noise_level=0.05,
                         seed=1)
    data = generate(case)
    op = compress(data.basis, case.kernel, data.cloud, tau=1e-4)
    h = data.basis.forward(data.noisy)
    cfg = SolverConfig()
    ir = ir_mrssn(op, h, BENCH_WEIGHT, config=cfg, basis=data.basis)
    fr = fista(op, h, BENCH_WEIGHT, config=cfg, basis=data.basis, mode="mr")
    return {"data": data, "op": op, "h": h, "ir": ir, "fista": fr}


@pytest.fixture(scope="module")
def bench_runs():
    t0 = time.perf_counter()
    runs = {gen: _bench_solves(gen) for gen in ("spss", "spms")}
    runs["elapsed"] = time.perf_counter() - t0
    return runs


class TestSolverEfficiency:
    def test_criterion_6(self, bench_runs):
        details = []
        ok = bench_runs["elapsed"] < 600.0
        for gen in ("spss", "spms"):
            run = bench_runs[gen]
            ir, fr = run["ir"], run["fista"]
            ir_nnz = int(np.count_nonzero(ir.beta))
            fr_nnz = int(np.count_nonzero(fr.beta))
            terminated = ir.extras["converged"] and ir.residual_inf < 9e-7
            fista_slow = (fr.iterations >= 10**4
                          or fr.iterations >= 5 * ir.iterations)
            sparse = ir_nnz <= fr_nnz and ir_nnz <= BENCH_N // 20
            ok = ok and terminated and fista_slow and sparse
            details.append(
                f"{gen}: ir r_inf {ir.residual_inf:.2e} nnz {ir_nnz}, "
                f"fista iters {fr.iterations} nnz {fr_nnz}")
        announce("6 solver efficiency", ok,
                 f"({'; '.join(details)}; {bench_runs['elapsed']:.0f}s)")


class TestSparseRecovery:
    def test_criterion_7(self, bench_runs):
        run = bench_runs["spss"]
        data, op, h, ir = run["data"], run["op"], run["h"], run["ir"]
        alpha = np.asarray(ir.alpha)  # back-transformed coefficients
        thresh = 1e-3 * np.abs(alpha).max()
        missed = int(np.sum(np.abs(alpha[data.support]) <= thresh))
        rel_fit = float(np.linalg.norm(op.matvec(ir.beta) - h)
                        / np.linalg.norm(h))
        ok = missed == 0 and rel_fit <= 5e-2
        announce("7 sparse recovery", ok,
                 f"(missed supports {missed}/10, data fit {rel_fit:.4f})")


class TestMultiKernel:
    def test_criterion_8(self):
        n = 5000
        rng = np.random.default_rng(2026)
        cloud = PointCloud(rng.uniform(-0.5, 0.5, (n, 3)))

        space = KernelSpec("matern32", length=0.5)
        timek = KernelSpec("periodic", periodic_scale=2.0, frequency=1.0)
        smooth_kernel = KernelSpec(
            "tensor", components=((space, (0, 1)), (timek, (2,))))
        rough_kernel = KernelSpec("exponential", length=0.1)

        sm_idx = rng.choice(n, size=8, replace=False)
        c_sm = rng.uniform(0.5, 1.0, size=8) * rng.choice([-1.0, 1.0], size=8)
        smooth = cross_matrix(smooth_kernel, cloud.points,
                              cloud.points[sm_idx]) @ c_sm
        scale = 0.5 / np.abs(smooth).max()
        smooth *= scale
        c_sm = c_sm * scale
        bp_idx = rng.choice(n, size=12, replace=False)
        c_bp = rng.uniform(0.5, 1.0, size=12) * rng.choice([-1.0, 1.0], size=12)
        bumps = cross_matrix(rough_kernel, cloud.points,
                             cloud.points[bp_idx]) @ c_bp
        bumps *= 0.5 * np.abs(smooth).max() / np.abs(bumps).max()
        clean = smooth + bumps
        noise = rng.standard_normal(n)
        noise *= 0.02 * np.linalg.norm(clean) / np.linalg.norm(noise)

        basis = basis_for(cloud, 3)
        ops = (compress(basis, smooth_kernel, cloud, 1e-4),
               compress(basis, rough_kernel, cloud, 1e-4))
        h = basis.forward(clean + noise)
        w = 2e-4 * np.abs(np.concatenate(
            [op.matvec_transpose(h) for op in ops])).max()
        rep = solve_multi_kernel(ops, h, w, config=SolverConfig(),
                                 bases=[basis, basis])
        nnz1, nnz2 = rep.extras["block_nnz"]

        alpha_smooth = rep.alpha[:n]
        held_out = rng.uniform(-0.5, 0.5, (2000, 3))
        s_true = cross_matrix(smooth_kernel, held_out,
                              cloud.points[sm_idx]) @ c_sm
        s_hat = cross_matrix(smooth_kernel, held_out, cloud.points) \
            @ alpha_smooth
        captured = 1.0 - float(np.sum((s_hat - s_true) ** 2)
                               / np.sum(s_true ** 2))
        ok = (rep.extras["converged"] and nnz1 > 0 and nnz2 > 0
              and captured >= 0.9)
        announce("8 multi-kernel", ok,
                 f"(converged {rep.extras['converged']}, block nnz "
                 f"({nnz1}, {nnz2}), smooth energy captured {captured:.4f})")


class TestDeterminism:
    def test_criterion_9(self, tmp_path):
        from sampletbp.cli import run

        # identical output paths both times: the provenance header echoes the
        # full configuration, including where the report is written
        path = tmp_path / "report.json"
        table = tmp_path / "table.csv"
        reports = []
        for _attempt in range(2):
            code = run(["bench", "--case", "spss", "--n", "512", "--seed", "3",
                        "--solver", "ir_mrssn", "--no-timings",
                        "--report", str(path), "--table", str(table)])
            assert code == 0
            reports.append(path.read_bytes())
        cli_identical = reports[0] == reports[1]

        rng_pts = np.random.default_rng(SEED)
        cloud = uniform_points(256, 2, rng_pts)
        basis = basis_for(cloud, 3)
        op = compress(basis, KernelSpec("matern32", length=0.25), cloud, 1e-4)
        h = basis.forward(np.sin(4 * cloud.points[:, 0]))
        jsons = []
        for attempt in range(2):
            ridge = ridge_cg(op, h, 2e-5 * 256, tol=1e-10, basis=basis)
            sparse = ir_mrssn(op, h, 2e-5, config=SolverConfig(), basis=basis)
            jsons.append(ridge.to_json(include_timings=False)
                         + sparse.to_json(include_timings=False))
        solver_identical = jsons[0] == jsons[1]
        ok = cli_identical and solver_identical
        announce("9 determinism", ok,
                 f"(cli identical {cli_identical}, "
                 f"solver identical {solver_identical})")
