from math import comb

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (cd_lasso, dense_op, kkt_violation, lasso_objective,
                      random_spd)
from sampletbp import (BenchmarkCase, BudgetError, CompressedOperator,
                       KernelSpec, PointCloud, SolverConfig,
                       build_cluster_tree, build_samplet_basis, compress,
                       fista, generate, ir_mrssn, mrssn, ridge_cg,
                       soft_shrinkage, solve_multi_kernel)
from sampletbp import solver
from sampletbp.solver import SolverError, _cd_burst, _GramCache


MATERN = KernelSpec("matern32", length=0.25)


def kernel_setup(rng, n, q=1, d=2, tau=0.0):
    cloud = PointCloud(rng.uniform(-0.5, 0.5, (n, d)))
    tree = build_cluster_tree(cloud, 2 * comb(q + d, d))
    basis = build_samplet_basis(tree, cloud, q)
    op = compress(basis, MATERN, cloud, tau=tau)
    return cloud, basis, op


def easy_lasso(seed):
    """Well-conditioned random instance on which every solver converges."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 65))
    A = random_spd(n, rng, ridge=1.0)
    h = rng.standard_normal(n)
    w = 0.1 * np.abs(A.T @ h).max()
    return A, h, np.full(n, w)


class TestSoftShrinkage:
    def test_basic(self):
        out = soft_shrinkage([2.0, -3.0, 0.5], [1.0, 1.0, 1.0])
        assert np.array_equal(out, [1.0, -2.0, 0.0])

    def test_zero_weight_identity(self, rng):
        v = rng.standard_normal(10)
        assert np.array_equal(soft_shrinkage(v, np.zeros(10)), v)

    def test_boundary_maps_to_zero(self):
        assert soft_shrinkage([1.5, -1.5], [1.5, 1.5]).tolist() == [0.0, 0.0]

    def test_negative_weight_rejected(self):
        with pytest.raises(SolverError):
            soft_shrinkage([1.0], [-0.1])


class TestRidgeCG:
    def test_identity_single_iteration(self, rng):
        h = rng.standard_normal(12)
        rep = ridge_cg(dense_op(np.eye(12)), h, lam=0.0)
        assert rep.iterations == 1
        assert np.abs(rep.beta - h).max() <= 1e-12

    def test_matern_matches_dense_solve(self, rng):
        n = 256
        cloud, basis, op = kernel_setup(rng, n)
        h = basis.forward(rng.standard_normal(n))
        lam = 2e-5 * n
        rep = ridge_cg(op, h, lam, tol=1e-10, diagonal_scaling=True,
                       basis=basis)
        ref = np.linalg.solve(op.to_dense() + lam * np.eye(n), h)
        assert np.linalg.norm(rep.beta - ref) / np.linalg.norm(ref) <= 1e-6
        assert np.abs(rep.alpha - basis.inverse(rep.beta)).max() <= 1e-12

    @pytest.mark.parametrize("generator", ["spss", "cartoon"])
    @pytest.mark.parametrize("n", [1000, 4000])
    def test_block_scaling_few_iterations(self, generator, n):
        # the multilevel block scaling: at most 15 CG iterations at the
        # default tol (diagonal scaling alone took 85 to 107 here), and the
        # scaled solve reaches the unscaled solution
        data = generate(BenchmarkCase(generator, n))
        basis = data.basis
        op = compress(basis, MATERN, data.cloud, tau=1e-4)
        h = basis.forward(data.noisy)
        lam = 2e-5 * n
        rep = ridge_cg(op, h, lam, diagonal_scaling=True, basis=basis)
        assert rep.iterations <= 15
        scaled = ridge_cg(op, h, lam, tol=1e-10, diagonal_scaling=True,
                          basis=basis)
        plain = ridge_cg(op, h, lam, tol=1e-10, basis=basis)
        assert np.linalg.norm(scaled.beta - plain.beta) \
            <= 1e-6 * np.linalg.norm(plain.beta)

    def test_diagonal_scaling_without_basis(self, rng):
        # without a basis every block is one index: Jacobi scaling, whose
        # solution is the dense solve's
        n = 40
        A = random_spd(n, rng) * rng.uniform(0.1, 10.0, n)
        A = (A + A.T) / 2 + n * np.eye(n)
        h = rng.standard_normal(n)
        rep = ridge_cg(dense_op(A), h, 0.3, tol=1e-12, diagonal_scaling=True)
        ref = np.linalg.solve(A + 0.3 * np.eye(n), h)
        assert np.linalg.norm(rep.beta - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_indefinite_block_rejected(self, rng):
        A = random_spd(6, rng, ridge=1.0)
        A[2, 2] = -1.0
        with pytest.raises(SolverError, match="not positive definite"):
            ridge_cg(dense_op(A), np.ones(6), 0.5, diagonal_scaling=True)

    def test_block_scaling_memory_limit(self, rng, monkeypatch):
        # N = 256 with q = 1 fits in one coarse block of 256 x 256; without
        # a basis there are 256 blocks of one entry.  The refusal comes
        # before any block entry is read
        n = 256
        cloud, basis, op = kernel_setup(rng, n)
        h = basis.forward(rng.standard_normal(n))
        memory = "sampletbp.geometry.physical_memory"
        for b, entries in ((basis, n * n), (None, n)):
            need = 8 * solver.SCALING_COPIES * entries
            monkeypatch.setattr(memory, lambda: need)
            ridge_cg(op, h, 0.1, diagonal_scaling=True, basis=b)
            monkeypatch.setattr(memory, lambda: need - 1)
            with monkeypatch.context() as m:
                m.setattr(CompressedOperator, "diagonal_blocks", None)
                with pytest.raises(BudgetError, match="physical memory"):
                    ridge_cg(op, h, 0.1, diagonal_scaling=True, basis=b)

    def test_large_lambda_asymptotics(self, rng):
        A = random_spd(20, rng)
        h = rng.standard_normal(20)
        lam = 1e8
        rep = ridge_cg(dense_op(A), h, lam, tol=1e-12)
        assert np.linalg.norm(rep.beta - h / lam) / np.linalg.norm(h / lam) \
            <= 1e-6

    def test_negative_curvature_reported(self, rng):
        with pytest.raises(SolverError, match="lam is too small"):
            ridge_cg(dense_op(-np.eye(5)), np.ones(5), lam=0.0)

    @pytest.mark.parametrize("lam", [-0.1, np.nan, np.inf])
    def test_bad_lambda_rejected(self, lam):
        with pytest.raises(SolverError, match="lam must be"):
            ridge_cg(dense_op(np.eye(3)), np.ones(3), lam=lam)

    def test_zero_data_reports_the_same_extras(self):
        # the early return for h = 0 reports what a full solve reports
        op = dense_op(np.eye(5))
        rep = ridge_cg(op, np.zeros(5), lam=0.5)
        full = ridge_cg(op, np.ones(5), lam=0.5)
        assert rep.extras.keys() == full.extras.keys()
        assert rep.extras == {"relative_residual": 0.0, "lam": 0.5}
        assert not rep.beta.any()

    def test_transform_invariance(self, rng):
        # untruncated: the samplet-coordinate solution is T times the
        # single-scale solution
        n = 128
        cloud, basis, op_sig = kernel_setup(rng, n)
        K = op_sig.to_dense()  # samplet coordinates
        h = rng.standard_normal(n)
        lam = 2e-5 * n
        from sampletbp.kernel import assemble_dense
        op_ss = dense_op(assemble_dense(MATERN, cloud))
        rep_ss = ridge_cg(op_ss, h, lam, tol=1e-12)
        rep_sig = ridge_cg(op_sig, basis.forward(h), lam, tol=1e-12)
        assert np.abs(rep_sig.beta - basis.forward(rep_ss.beta)).max() <= 1e-8


class TestFista:
    def test_orthonormal_closed_form(self):
        rep = fista(dense_op(np.eye(2)), [2.0, 0.0], [1.0, 1.0],
                    config=SolverConfig(tol=1e-12), mode="mr")
        assert np.abs(rep.beta - [1.0, 0.0]).max() <= 1e-10

    def test_zero_weights_interpolate(self, rng):
        A = random_spd(24, rng, ridge=1.0)
        h = rng.standard_normal(24)
        rep = fista(dense_op(A), h, 0.0, config=SolverConfig(tol=1e-10),
                    mode="mr")
        ref = np.linalg.solve(A, h)
        assert np.linalg.norm(rep.beta - ref) / np.linalg.norm(ref) <= 1e-6

    def test_matches_cd_oracle(self):
        A, h, w = easy_lasso(7)
        rep = fista(dense_op(A), h, w, config=SolverConfig(tol=1e-10),
                    mode="mr")
        b = cd_lasso(A, h, w)
        assert abs(rep.objective - lasso_objective(A, h, b, w)) <= 1e-8

    def test_single_scale_mode(self, rng):
        # with the operator equal to the identity in samplet coordinates the
        # single-scale design matrix is T itself, which is orthogonal, so the
        # solution has the closed form SS_w(T^T h)
        n = 64
        cloud, basis, _ = kernel_setup(rng, n)
        op = dense_op(np.eye(n))
        h = basis.forward(rng.standard_normal(n))
        w = 0.3
        rep = fista(op, h, w, config=SolverConfig(tol=1e-10), basis=basis,
                    mode="single")
        assert rep.method == "fista"
        ref = soft_shrinkage(basis.inverse(h), np.full(n, w))
        assert np.abs(rep.alpha - ref).max() <= 1e-8
        assert np.abs(rep.beta - basis.forward(rep.alpha)).max() <= 1e-12

    def test_objective_never_worse_than_start(self):
        A, h, w = easy_lasso(3)
        op = dense_op(A)
        rep = fista(op, h, w, config=SolverConfig(tol=1e-8), mode="mr")
        start = lasso_objective(A, h, np.zeros(len(h)), w)
        assert rep.objective <= start

    def test_unknown_mode(self):
        with pytest.raises(SolverError):
            fista(dense_op(np.eye(2)), [1.0, 1.0], 0.0, mode="bogus")


class TestLapack:
    # the Newton step and the gamma rule call LAPACK directly; they must give
    # scipy.linalg's results bit for bit, so that the iterates do not move
    SIZES = [1, 2, 3, 5, 8, 13, 23, 48, 64, 100, 129, 200]

    @pytest.mark.parametrize("n", SIZES)
    def test_spd_solve_is_cho_solve(self, rng, n):
        A = random_spd(n, rng, ridge=1e-3)
        b = rng.standard_normal(n)
        ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(A), b)
        assert np.array_equal(solver._spd_solve(A.copy(), b.copy()), ref)

    def test_smallest_eigenvalue_is_eigvalsh(self, rng):
        workspace = {}  # shared by every size, and reused for a second draw
        for n in self.SIZES * 2:
            A = random_spd(n, rng, ridge=1e-3)
            before = A.copy()
            ref = scipy.linalg.eigvalsh(A, subset_by_index=[0, 0])
            got = solver._smallest_eigenvalue(A, workspace)
            assert np.array_equal([got], ref)
            assert np.array_equal(A, before)  # the block is used again
        assert sorted(workspace) == self.SIZES

    @pytest.mark.parametrize("n", [1, 2, 30])
    def test_not_positive_definite(self, rng, n):
        A = random_spd(n, rng)
        A[-1, -1] = -1.0
        with pytest.raises(np.linalg.LinAlgError):
            solver._spd_solve(A, rng.standard_normal(n))


class TestMrssn:
    def test_scalar_closed_form(self):
        rep = mrssn(dense_op([[1.0]]), [2.0], [1.0],
                    config=SolverConfig(tol=1e-12))
        assert rep.iterations <= 2
        assert abs(rep.beta[0] - 1.0) <= 1e-12

    def test_zero_weights_full_active_set(self, rng):
        A = random_spd(16, rng, ridge=1.0)
        h = rng.standard_normal(16)
        rep = mrssn(dense_op(A), h, 0.0, config=SolverConfig(tol=1e-10))
        assert rep.final_active_size == 16
        ref = np.linalg.solve(A, h)
        assert np.linalg.norm(rep.beta - ref) / np.linalg.norm(ref) <= 1e-8

    def test_matches_cd_oracle(self):
        for seed in (0, 11, 29):
            A, h, w = easy_lasso(seed)
            rep = mrssn(dense_op(A), h, w, config=SolverConfig(tol=1e-10))
            b = cd_lasso(A, h, w)
            assert abs(rep.objective - lasso_objective(A, h, b, w)) <= 1e-8
            assert kkt_violation(A, h, rep.beta, w) <= 1e-8

    def test_newton_memory_limit(self, rng, monkeypatch):
        # zero weights make all 30 columns active at once: the Gram cache
        # storage plus NEWTON_COPIES blocks of 30 x 30 plus the fetch's
        # dense column chunk and its product must fit in memory, and the
        # refusal comes before the cache grows or anything is factored
        A = random_spd(30, rng, ridge=1.0)
        h = rng.standard_normal(30)
        need = (8 * (1 + solver.NEWTON_COPIES) * 30 * 30
                + 16 * solver.GRAM_CHUNK)
        memory = "sampletbp.geometry.physical_memory"
        cfg = SolverConfig(tol=1e-10, outer_steps=1)
        for solve in (mrssn, ir_mrssn):
            monkeypatch.setattr(memory, lambda: need)
            assert solve(dense_op(A), h, 0.0, config=cfg).extras["converged"]
            monkeypatch.setattr(memory, lambda: need - 1)
            with monkeypatch.context() as m:
                m.setattr(solver.scipy.linalg.lapack, "dpotrf", None)
                with pytest.raises(BudgetError, match="physical memory"):
                    solve(dense_op(A), h, 0.0, config=cfg)

    def test_damped_steps_match_cd_oracle(self):
        # ill-conditioned instances: the full Newton step often goes uphill,
        # so the solve must take shortened steps and still reach the optimum
        damped = 0
        for seed in range(6):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(8, 41))
            A = random_spd(n, rng, ridge=1e-3)
            h = rng.standard_normal(n)
            w = np.full(n, 0.05 * np.abs(A.T @ h).max())
            rep = mrssn(dense_op(A), h, w, config=SolverConfig(tol=1e-10))
            b = cd_lasso(A, h, w)
            assert abs(rep.objective - lasso_objective(A, h, b, w)) <= 1e-8
            assert kkt_violation(A, h, rep.beta, w) <= 1e-8
            assert rep.extras["newton_damped"] <= rep.extras["newton_accepted"]
            damped += rep.extras["newton_damped"]
        assert damped > 0

    @pytest.mark.parametrize("solve", [mrssn, ir_mrssn])
    def test_equal_columns_match_cd_oracle(self, solve):
        # M_aa is singular once both copies are active; its smallest
        # eigenvalue is rounding noise, which must not become gamma
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(8, 40))
            A = random_spd(n, rng, ridge=1.0)
            A[:, 1] = A[:, 0]
            h = rng.standard_normal(n)
            w = np.full(n, 0.05 * np.abs(A.T @ h).max())
            rep = solve(dense_op(A), h, w, config=SolverConfig(tol=1e-10))
            b = cd_lasso(A, h, w)
            assert abs(rep.objective - lasso_objective(A, h, b, w)) <= 1e-8
            assert kkt_violation(A, h, rep.beta, w) <= 1e-8

    def test_empty_active_set_resets_to_zero(self):
        # a weight above every |K^T h| leaves no coordinate active: the
        # start is replaced by the fixed point beta = 0
        A, h, _ = easy_lasso(3)
        op = dense_op(A)
        n = len(h)
        beta = np.ones(n)
        res = h - op.matvec(beta)
        kth = op.matvec_transpose(h)
        counts = dict.fromkeys(("newton_accepted", "newton_damped",
                                "newton_rejected", "cd_sweeps"), 0)
        beta, res, g, iterations, r_inf = solver._mrssn_loop(
            op, h, np.full(n, 1e10), beta, res, op.matvec_transpose(res),
            solver._GammaState(op), 1e-10, 5, counts, _GramCache(op), kth)
        assert iterations == 1 and r_inf == 0.0
        assert not beta.any()
        assert res is h and g is kth
        assert not any(counts.values())

    def test_cd_sweeps_counter(self):
        # mrssn takes Newton steps only on the easy instance; the
        # ill-conditioned ones fall back to coordinate descent, at most
        # CD_SWEEPS sweeps a fallback
        cfg = SolverConfig(tol=1e-10)
        A, h, w = easy_lasso(7)
        extras = [mrssn(dense_op(A), h, w, config=cfg).extras]
        assert extras[0]["newton_rejected"] == extras[0]["cd_sweeps"] == 0
        for seed in range(3):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(8, 41))
            A = random_spd(n, rng, ridge=1e-3)
            h = rng.standard_normal(n)
            w = np.full(n, 0.05 * np.abs(A.T @ h).max())
            extras += [solve(dense_op(A), h, w, config=cfg).extras
                       for solve in (mrssn, ir_mrssn)]
        for e in extras:
            assert (e["cd_sweeps"] == 0) == (e["newton_rejected"] == 0)
            assert e["cd_sweeps"] <= solver.CD_SWEEPS * e["newton_rejected"]
        assert all(e["cd_sweeps"] > 0 for e in extras[1:])

    def test_fixed_point_for_scaled_gammas(self):
        A, h, w = easy_lasso(5)
        op = dense_op(A)
        rep = mrssn(op, h, w, config=SolverConfig(tol=1e-10))
        gamma_star = rep.extras["gamma"]
        for g in (0.1 * gamma_star, gamma_star, 10 * gamma_star):
            u = rep.beta + g * op.matvec_transpose(h - op.matvec(rep.beta))
            r = rep.beta - soft_shrinkage(u, g * w)
            assert np.abs(r).max() <= 9e-7


@pytest.mark.parametrize("solve", [
    lambda op, h: ridge_cg(op, h, 0.1),
    lambda op, h: mrssn(op, h, 0.1),
    lambda op, h: ir_mrssn(op, h, 0.1),
    lambda op, h: fista(op, h, 0.1, mode="mr"),
], ids=["ridge_cg", "mrssn", "ir_mrssn", "mrfista"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_data_rejected(solve, bad):
    A, h, _ = easy_lasso(3)
    h[2] = bad
    with pytest.raises(SolverError, match="non-finite"):
        solve(dense_op(A), h)


class TestIrMrssn:
    def test_zero_outer_steps_equals_plain(self):
        A, h, w = easy_lasso(13)
        op = dense_op(A)
        rep_ir = ir_mrssn(op, h, w, config=SolverConfig(tol=1e-10,
                                                        outer_steps=0))
        rep_plain = mrssn(op, h, w, config=SolverConfig(tol=1e-10))
        assert np.array_equal(rep_ir.beta, rep_plain.beta)

    def test_tiny_mu0_continuation_noop(self):
        A, h, w = easy_lasso(17)
        op = dense_op(A)
        rep_ir = ir_mrssn(op, h, w, config=SolverConfig(
            tol=1e-10, mu0=1.0 + 1e-9, outer_steps=1))
        rep_plain = mrssn(op, h, w, config=SolverConfig(tol=1e-10))
        assert np.abs(rep_ir.beta - rep_plain.beta).max() <= 1e-7

    def test_sparser_than_fista_on_benchmark(self):
        from sampletbp.bench import BenchmarkCase, generate
        case = BenchmarkCase(generator="spss", n=1000, seed=1)
        data = generate(case)
        op = compress(data.basis, case.kernel, data.cloud, tau=1e-4)
        h = data.basis.forward(data.noisy)
        w = 2e-5
        cfg = SolverConfig(tol=9e-7, max_iter=3000)
        rep_ir = ir_mrssn(op, h, w, config=cfg)
        rep_f = fista(op, h, w, config=cfg, mode="mr")
        assert rep_ir.extras["converged"]
        assert rep_ir.final_active_size < rep_f.final_active_size

    def test_objective_agrees_with_fista(self, rng):
        # well-conditioned instance where the infinity-norm stopping rule is
        # meaningful for both methods
        n = 256
        A = random_spd(n, rng, ridge=1.0)
        h = rng.standard_normal(n)
        w = 0.1 * np.abs(A.T @ h).max()
        op = dense_op(A)
        rep_ir = ir_mrssn(op, h, w, config=SolverConfig(tol=1e-9))
        rep_f = fista(op, h, w, config=SolverConfig(tol=1e-9,
                                                    max_iter=100000),
                      mode="mr")
        assert abs(rep_ir.objective - rep_f.objective) <= 1e-6

    @pytest.mark.parametrize("w", [-0.1, np.nan, np.inf],
                             ids=["negative-weight", "nan-weight",
                                  "inf-weight"])
    def test_bad_weight_or_gamma_rejected(self, w):
        A, h, _ = easy_lasso(3)
        with pytest.raises(SolverError, match="must be"):
            ir_mrssn(dense_op(A), h, w)

    def test_negative_outer_steps_rejected(self):
        # mu = mu0 ** outer_steps would start below 1, so the only stage
        # would solve at a smaller weight than the one asked for
        A, h, w = easy_lasso(3)
        with pytest.raises(SolverError, match="outer_steps"):
            ir_mrssn(dense_op(A), h, w, config=SolverConfig(outer_steps=-5))


class TestGradient:
    def test_finite_difference(self, rng):
        n = 64
        A = random_spd(n, rng)
        op = dense_op(A)
        h = rng.standard_normal(n)
        beta = rng.standard_normal(n)
        g = op.matvec_transpose(op.matvec(beta) - h)

        def f(b):
            r = h - op.matvec(b)
            return 0.5 * float(r @ r)

        eps = 1e-6
        for k in rng.choice(n, 8, replace=False):
            e = np.zeros(n)
            e[k] = eps
            fd = (f(beta + e) - f(beta - e)) / (2 * eps)
            assert abs(fd - g[k]) <= 1e-6 * max(1.0, abs(g[k]))


class TestMultiKernel:
    def test_single_block_path(self):
        A, h, w = easy_lasso(23)
        rep = solve_multi_kernel((dense_op(A),), h, w, config=SolverConfig(tol=1e-10),
                                 method="mrfista")
        ref = fista(dense_op(A), h, w, config=SolverConfig(tol=1e-10),
                    mode="mr")
        assert np.array_equal(rep.beta, ref.beta)

    def test_identical_blocks_objective(self):
        A, h, w = easy_lasso(31)
        n = len(h)
        rep = solve_multi_kernel((dense_op(A), dense_op(A)), h,
                                 np.concatenate([w, w]),
                                 config=SolverConfig(tol=1e-10),
                                 method="mrfista")
        single = fista(dense_op(A), h, w, config=SolverConfig(tol=1e-10),
                       mode="mr")
        assert abs(rep.objective - single.objective) <= 1e-8

    def test_zero_block_gets_no_support(self, rng):
        n = 16
        ops = (dense_op(np.eye(n)),
               CompressedOperator.from_dense(np.zeros((n, n)), 0.0))
        h = rng.standard_normal(n)
        rep = solve_multi_kernel(ops, h, 0.05, config=SolverConfig(tol=1e-10),
                                 method="ir_mrssn")
        nnz1, nnz2 = rep.extras["block_nnz"]
        assert nnz1 > 0 and nnz2 == 0

    @pytest.mark.parametrize("n_bases", [1, 3])
    def test_basis_count_must_match(self, rng, n_bases, monkeypatch):
        # a basis per operator, or the back-transform would be cut short;
        # refused before the solve
        _, basis, op = kernel_setup(rng, 64)
        monkeypatch.setitem(solver.SOLVERS, "ir_mrssn",
                            lambda *args: pytest.fail("solved"))
        with pytest.raises(SolverError, match=f"{n_bases} bases for 2"):
            solve_multi_kernel((op, op), rng.standard_normal(64), 1e-3,
                               bases=[basis] * n_bases)


class TestReport:
    def test_alpha_matches_inverse_transform(self, rng):
        n = 64
        cloud, basis, op = kernel_setup(rng, n)
        h = basis.forward(rng.standard_normal(n))
        rep = ir_mrssn(op, h, 2e-3, config=SolverConfig(tol=1e-8),
                       basis=basis)
        assert np.abs(rep.alpha - basis.inverse(rep.beta)).max() <= 1e-12
        assert rep.final_active_size == int(np.count_nonzero(rep.beta))

    def test_json_round_trip_and_timing_toggle(self):
        import json
        A, h, w = easy_lasso(2)
        rep = mrssn(dense_op(A), h, w, config=SolverConfig(tol=1e-8))
        full = json.loads(rep.to_json())
        assert "wall_time" in full and "beta" in full
        bare = json.loads(rep.to_json(include_coefficients=False,
                                      include_timings=False))
        assert "wall_time" not in bare and "beta" not in bare

    def test_coefficients_csv(self, tmp_path):
        A, h, w = easy_lasso(4)
        rep = mrssn(dense_op(A), h, w, config=SolverConfig(tol=1e-8))
        path = tmp_path / "coeff.csv"
        rep.coefficients_csv(path)
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(table[:, 1], rep.beta)
        assert np.array_equal(table[:, 2], rep.alpha)


def _sparse_op(seed, n_rows, n_cols):
    rng = np.random.default_rng(seed)
    A = scipy.sparse.random(n_rows, n_cols, density=0.3, random_state=rng)
    return CompressedOperator.from_dense(A.toarray(), tau=1e-12)


GRAM_OPS = {
    "compressed": _sparse_op(1, 30, 30),
    "block": CompressedOperator.hstack((_sparse_op(2, 30, 17),
                                        _sparse_op(3, 30, 13),
                                        _sparse_op(4, 30, 10))),
}


class _CountingOp:
    """Operator proxy that records every Gram block request and counts the
    sparse products."""

    def __init__(self, op):
        self._op = op
        self.calls = 0
        self.fetched = []
        self.products = 0

    def matvec(self, v):
        self.products += 1
        return self._op.matvec(v)

    def matvec_transpose(self, v):
        self.products += 1
        return self._op.matvec_transpose(v)

    def gram_submatrix(self, rows_idx, cols_idx):
        self.calls += 1
        self.fetched += list(cols_idx)
        return self._op.gram_submatrix(rows_idx, cols_idx)

    def __getattr__(self, name):
        return getattr(self._op, name)


def _cd_burst_reference(kth, beta, w, active, M_aa, sweeps):
    """The coordinate-descent burst with numpy scalar arithmetic, one
    coordinate at a time; returns beta and the number of sweeps run."""
    b = beta[active].copy()
    w_a = w[active]
    diag = np.diag(M_aa).copy()
    diag[diag <= 0] = 1.0
    g = kth[active] - M_aa @ b
    done = 0
    for _ in range(sweeps):
        done += 1
        delta_max = 0.0
        for j in range(b.size):
            z = b[j] + g[j] / diag[j]
            bj = np.sign(z) * max(0.0, abs(z) - w_a[j] / diag[j])
            step = bj - b[j]
            if step != 0.0:
                g -= M_aa[:, j] * step
                b[j] = bj
                delta_max = max(delta_max, abs(step))
        if delta_max < 1e-14:
            break
    out = np.zeros(beta.shape[0])
    out[active] = b
    return out, done


@pytest.fixture
def sweep_log(monkeypatch):
    """(chunk, valid sweeps, stopped) of every chunk of sign-preserving
    sweeps the burst runs as Gauss-Seidel steps."""
    log = []
    inner = solver._SignPattern.sweep

    def spy(self, b_p, m):
        out = inner(self, b_p, m)
        log.append((m, out[1], out[2]))
        return out

    monkeypatch.setattr(solver._SignPattern, "sweep", spy)
    return log


def _check_burst(kth, beta, w, active, M_aa, sweeps):
    """The burst against the scalar reference: the same zero set, signs and
    sweep count, values within 1e-10 max(1, ||ref||_inf), and an objective
    on the block that does not rise."""
    got, done = _cd_burst(kth, beta, w, active, M_aa, sweeps)
    ref, ref_done = _cd_burst_reference(kth, beta, w, active, M_aa, sweeps)
    assert np.array_equal(got == 0.0, ref == 0.0)
    assert np.array_equal(np.sign(got), np.sign(ref))
    assert np.abs(got - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())
    assert done == ref_done
    b0, b1 = beta[active], got[active]
    assert _no_rise(_block_objective(kth[active], w[active], M_aa, b1),
                    _block_objective(kth[active], w[active], M_aa, b0))
    return got, done


def _block_objective(kth, w, M, b):
    """0.5 b.M b - kth.b + w.|b|: the objective minus 0.5 ||h||^2."""
    return 0.5 * b @ M @ b - kth @ b + w @ np.abs(b)


def _no_rise(f_new, f_old):
    # near a fixed point, evaluating the objective rounds at 1e-16 relative,
    # and the scalar reference's iterates show the same rises
    return f_new <= f_old + 1e-14 * max(1.0, abs(f_old))


@pytest.mark.parametrize("seed", range(6))
def test_cd_burst_matches_reference(seed):
    rng = np.random.default_rng(seed)
    n = 40
    A = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
    M = A.T @ A
    kth = A.T @ rng.standard_normal(n)
    beta = rng.standard_normal(n) * (rng.random(n) < 0.5)
    w = rng.uniform(0.0, 1.0, n) * (seed % 2)  # odd seeds: weighted
    active = np.sort(rng.choice(n, 25, replace=False))
    M_aa = M[np.ix_(active, active)]
    sweeps = (1, 50)[seed % 3 != 0]
    _check_burst(kth, beta, w, active, M_aa, sweeps)


def _pair(rho, kth, w, beta):
    """A two-coordinate burst on M = [[1, rho], [rho, 1]]."""
    return (np.asarray(kth, dtype=float), np.asarray(beta, dtype=float),
            np.full(2, w), np.arange(2), np.array([[1.0, rho], [rho, 1.0]]))


def test_cd_burst_sign_change_within_a_chunk(sweep_log):
    # the second coordinate drifts from -0.9 across zero: the first chunk
    # of Gauss-Seidel steps is valid, the second breaks after 7 of 8, that
    # sweep runs one coordinate at a time, and a new sign pattern finishes
    _, done = _check_burst(*_pair(0.9, [0.2, 0.0], 0.1, [-0.5, -0.9]), 50)
    assert sweep_log == [(4, 4, False), (8, 7, False), (4, 1, True)]
    assert done == 16


def test_cd_burst_sign_change_in_first_gauss_seidel_step(sweep_log):
    # w = 0: no coordinate rests at zero, and the first Gauss-Seidel step
    # already flips the second coordinate's sign, so the chunk keeps none
    _check_burst(*_pair(0.9, [1.0, 0.5], 0.0, [1.0, 1.0]), 50)
    assert sweep_log[0] == (4, 0, False)
    assert sum(k for _, k, _ in sweep_log) > 0


def test_cd_burst_zero_leaves_zero_within_a_chunk(sweep_log):
    # the third coordinate rests at zero while the first two converge,
    # until its gradient passes w in sweep 8, the third of a chunk of 8
    M = np.array([[1.0, 0.85, 0.2], [0.85, 1.0, 0.0], [0.2, 0.0, 1.0]])
    args = (np.array([0.9, 0.0, 0.4]), np.array([0.7, -0.8, 0.0]),
            np.full(3, 0.1), np.arange(3), M)
    got, _ = _check_burst(*args, 50)
    assert sweep_log[:2] == [(4, 4, False), (8, 2, False)]
    assert got[2] < 0.0


def test_cd_burst_early_stop_in_gauss_seidel_steps(sweep_log):
    # weak coupling: a chunk of Gauss-Seidel steps reaches the 1e-14 stop
    _, done = _check_burst(*_pair(0.5, [1.0, 0.2], 0.01, [0.5, 0.5]), 50)
    assert sweep_log[-1][2] and done < solver.CD_SWEEPS


def test_cd_burst_zero_diagonal_stays_scalar(sweep_log):
    # a zero column of K: as in the scalar code its coordinate shrinks by
    # w per sweep, 30 sweeps from 0.3 to zero, and no sweep runs as a
    # Gauss-Seidel step
    M = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 0.0]])
    args = (np.array([1.0, 0.2, 0.0]), np.array([0.5, 0.5, 0.3]),
            np.full(3, 0.01), np.arange(3), M)
    got, done = _check_burst(*args, 50)
    assert sweep_log == []
    assert got[2] == 0.0 and done == 31


@pytest.mark.parametrize("seed", range(4))
def test_cd_burst_objective_never_rises(seed, sweep_log):
    # ill-conditioned blocks, where the bursts change sign patterns and run
    # long: the objective on the block never rises from sweep to sweep
    rng = np.random.default_rng(100 + seed)
    n = 30
    A = rng.standard_normal((n, n)) @ np.diag(np.logspace(0, -3, n))
    M = A.T @ A
    kth = A.T @ rng.standard_normal(n)
    beta = rng.standard_normal(n) * (rng.random(n) < 0.5)
    w = np.full(n, 0.02)
    active = np.arange(n)
    prev = beta
    for sweeps in range(1, solver.CD_SWEEPS + 1, 7):
        cur, _ = _check_burst(kth, beta, w, active, M, sweeps)
        assert _no_rise(_block_objective(kth, w, M, cur),
                        _block_objective(kth, w, M, prev))
        prev = cur
    assert any(k > 0 for _, k, _ in sweep_log)  # Gauss-Seidel steps ran


class TestGramCache:
    @pytest.mark.parametrize("name", sorted(GRAM_OPS))
    @settings(max_examples=60, deadline=None)
    @given(seq=st.lists(st.lists(st.integers(0, 29), max_size=15), max_size=8))
    def test_blocks_match_gram_submatrix(self, name, seq):
        # growing, unsorted, repeated and empty index sets
        op = GRAM_OPS[name]
        cache = _GramCache(op)
        for idx in seq:
            ref = op.gram_submatrix(idx, idx)
            assert cache.block(idx).shape == ref.shape
            assert np.abs(cache.block(idx) - ref).max(initial=0.0) <= 1e-12
            assert cache.M.shape[0] <= op.shape[1]  # doubling stops at N
        assert cache.size == len({i for idx in seq for i in idx})

    def test_each_column_fetched_once(self):
        from sampletbp.bench import BenchmarkCase, generate
        case = BenchmarkCase(generator="spss", n=500, seed=1)
        data = generate(case)
        op = compress(data.basis, case.kernel, data.cloud, tau=1e-4)
        proxy = _CountingOp(op)
        rep = ir_mrssn(proxy, data.basis.forward(data.noisy), 2e-5)
        assert rep.extras["converged"]
        assert len(proxy.fetched) == len(set(proxy.fetched))
        assert len(proxy.fetched) == rep.extras["gram_columns"]
        assert proxy.calls == rep.extras["gram_fetches"]
        assert 0 < proxy.calls <= rep.iterations
        steps = rep.extras["newton_accepted"] + rep.extras["newton_rejected"]
        assert 0 < steps <= rep.iterations
        assert rep.extras["newton_rejected"] <= rep.extras["cd_sweeps"] \
            <= solver.CD_SWEEPS * rep.extras["newton_rejected"]
        # an accepted Newton step costs K d and K^T res; only the
        # coordinate-descent fallback recomputes the residual
        assert proxy.products <= 3 * rep.iterations

    def test_mrssn_counters_match_history(self):
        # mrssn's history is its one stage; every iteration of this instance
        # has a nonempty active set, so it takes a Newton step or falls back
        A, h, w = easy_lasso(7)
        rep = mrssn(dense_op(A), h, w, config=SolverConfig(tol=1e-10))
        assert rep.extras["outer_steps"] == len(rep.history) == 1
        assert rep.history[0]["mu"] == 1.0
        assert rep.history[0]["newton_iters"] == rep.iterations
        assert rep.extras["newton_accepted"] + rep.extras["newton_rejected"] \
            == rep.iterations
        assert rep.extras["newton_damped"] <= rep.extras["newton_accepted"]
        assert rep.extras["gram_columns"] <= len(h)
