from math import comb

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (cd_lasso, dense_op, kkt_violation, lasso_objective,
                      random_spd)
from sampletbp import (CompressedOperator, KernelSpec, PointCloud,
                       SolverConfig, build_cluster_tree, build_samplet_basis,
                       compress, fista, ir_mrssn, mrssn, ridge_cg,
                       soft_shrinkage, solve_multi_kernel)
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

    def test_active_set_cap(self, rng):
        A = random_spd(30, rng, ridge=1.0)
        h = rng.standard_normal(30)
        with pytest.raises(SolverError, match="cap"):
            mrssn(dense_op(A), h, 0.0, config=SolverConfig(active_set_cap=5))

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

    @pytest.mark.parametrize("w", [-0.1], ids=["negative-weight"])
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

    def test_error_context(self, rng):
        A = random_spd(30, rng, ridge=1.0)
        h = rng.standard_normal(30)
        with pytest.raises(SolverError, match="outer step"):
            ir_mrssn(dense_op(A), h, 0.0, config=SolverConfig(
                active_set_cap=5, outer_steps=1))


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
    """The coordinate-descent burst with numpy scalar arithmetic."""
    b = beta[active].copy()
    w_a = w[active]
    diag = np.diag(M_aa).copy()
    diag[diag <= 0] = 1.0
    g = kth[active] - M_aa @ b
    for _ in range(sweeps):
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
    return out


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
    got = _cd_burst(kth, beta, w, active, M_aa, sweeps)
    ref = _cd_burst_reference(kth, beta, w, active, M_aa, sweeps)
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


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
        # an accepted Newton step costs K d and K^T res; only the
        # coordinate-descent fallback recomputes the residual
        assert proxy.products <= 3 * rep.iterations

    def test_mrssn_counters_match_history(self):
        A, h, w = easy_lasso(7)
        rep = mrssn(dense_op(A), h, w, config=SolverConfig(tol=1e-10))
        flags = [e["newton_step"] for e in rep.history if "newton_step" in e]
        assert rep.extras["newton_accepted"] == sum(flags)
        assert rep.extras["newton_rejected"] == len(flags) - sum(flags)
        assert rep.extras["newton_damped"] == sum(
            0.0 < e["step_length"] < 1.0 for e in rep.history
            if "step_length" in e)
        assert rep.extras["gram_columns"] <= len(h)
