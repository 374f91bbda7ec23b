import numpy as np
import pytest

from sampletbp import (BudgetError, KernelSpec, PointCloud, generate,
                       grid_eval, metrics)
from sampletbp.bench import (GRID_CHUNK, BenchError, BenchmarkCase,
                             cartesian_grid, spms_index_window)
from sampletbp.kernel import CROSS_COPIES, assemble_dense, evaluate
from sampletbp.solver import SolveReport


def case(generator="spss", n=400, **kw):
    return BenchmarkCase(generator=generator, n=n, **kw)


class TestCaseValidation:
    def test_unknown_generator(self):
        with pytest.raises(BenchError):
            BenchmarkCase(generator="mystery", n=100)

    def test_negative_noise(self):
        with pytest.raises(BenchError):
            BenchmarkCase(generator="spss", n=100, noise_level=-0.1)

    def test_spms_needs_points(self):
        with pytest.raises(BenchError):
            BenchmarkCase(generator="spms", n=50)

    def test_spms_window_scales_with_n(self):
        assert spms_index_window(10**6) == (1000, 10000)
        assert spms_index_window(10**4) == (10, 10000)
        assert spms_index_window(500) == (1, 500)


class TestGenerate:
    def test_no_noise(self):
        data = generate(case(noise_level=0.0))
        assert np.array_equal(data.noisy, data.clean)

    def test_cartoon_formula(self):
        data = generate(case("cartoon", n=600))
        radii = np.linalg.norm(data.cloud.points, axis=1)
        assert np.array_equal(data.clean, np.where(radii < 0.25, 0.5, 0.0))
        inside = radii < 0.2
        outside = radii > 0.3
        assert inside.any() and np.all(data.clean[inside] == 0.5)
        assert outside.any() and np.all(data.clean[outside] == 0.0)

    def test_spss_normalization(self):
        data = generate(case(noise_level=0.0))
        assert data.clean.max() == pytest.approx(0.5, abs=1e-15)

    def test_noise_norm_exact(self):
        data = generate(case(noise_level=0.05))
        ratio = np.linalg.norm(data.noisy - data.clean) \
            / np.linalg.norm(data.clean)
        assert abs(ratio - 0.05) <= 1e-12

    def test_spms_signal_refused_before_kernel_block(self, monkeypatch):
        # the clean spms signal is summed in grid evaluation's row chunks,
        # under its memory estimate, not as one N x |supp omega| block
        monkeypatch.setattr("sampletbp.geometry.physical_memory", lambda: 1)
        monkeypatch.setattr("sampletbp.bench.cross_matrix",
                            lambda *args: pytest.fail("evaluated"))
        with pytest.raises(BudgetError, match="physical memory"):
            generate(case("spms"))

    def test_determinism(self):
        d1 = generate(case(seed=5))
        d2 = generate(case(seed=5))
        assert np.array_equal(d1.cloud.points, d2.cloud.points)
        assert np.array_equal(d1.noisy, d2.noisy)
        assert np.array_equal(d1.support, d2.support)

    def test_spss_is_sum_of_translates(self):
        data = generate(case(noise_level=0.0))
        x = data.cloud.points
        vals = np.zeros(data.cloud.n)
        kernel = KernelSpec("matern32", length=0.25)
        for c, idx in zip(data.coefficients, data.support):
            for i in range(data.cloud.n):
                vals[i] += c * evaluate(kernel, x[i], x[idx])
        assert np.abs(vals - data.clean).max() <= 1e-12

    def test_spss_exact_solve_recovers_coefficients(self):
        data = generate(case(n=300, noise_level=0.0))
        K = assemble_dense(KernelSpec("matern32", length=0.25), data.cloud)
        alpha = np.linalg.solve(K, data.clean)
        on_support = alpha[data.support]
        assert np.abs(on_support - data.coefficients).max() <= 1e-6
        off = np.delete(alpha, data.support)
        assert np.abs(off).max() <= 1e-6

    def test_spms_is_sum_of_embedded_samplets(self):
        data = generate(case("spms", n=400, noise_level=0.0))
        assert data.support_basis == "samplet"
        sel = np.zeros(400)
        sel[data.support] = data.coefficients
        omega = data.basis.inverse(sel)
        K = assemble_dense(KernelSpec("matern32", length=0.25), data.cloud)
        assert np.abs(K @ omega - data.clean).max() <= 1e-10

    def test_spms_indices_in_window(self):
        data = generate(case("spms", n=2000))
        lo, hi = spms_index_window(2000)
        assert data.support.min() >= lo and data.support.max() < hi
        assert len(set(data.support)) == 10


class TestMetrics:
    def _data(self):
        return generate(case(n=200, noise_level=0.0))

    def test_perfect_reconstruction(self):
        from conftest import dense_op
        data = self._data()
        K = assemble_dense(KernelSpec("matern32", length=0.25), data.cloud)
        op = dense_op(data.basis.forward(data.basis.forward(K.T).T))
        alpha = np.zeros(200)
        alpha[data.support] = data.coefficients
        beta = data.basis.forward(alpha)
        rep = SolveReport(method="mrssn", beta=beta, alpha=alpha,
                          iterations=1, final_active_size=10,
                          residual_inf=0.0, objective=0.0, wall_time=0.0)
        rec = metrics(rep, data, op=op)
        assert rec["rel_l2_error"] <= 1e-10
        assert rec["rel_inf_error"] <= 1e-10
        assert rec["support_recovery"] == 1.0

    def test_zero_solution(self):
        from conftest import dense_op
        data = self._data()
        op = dense_op(np.eye(200))
        rep = SolveReport(method="mrssn", beta=np.zeros(200),
                          alpha=np.zeros(200), iterations=0,
                          final_active_size=0, residual_inf=1.0,
                          objective=0.0, wall_time=0.0)
        rec = metrics(rep, data, op=op)
        assert rec["rel_l2_error"] == pytest.approx(1.0)
        assert rec["beta_nnz"] == 0

    def test_ridge_nnz_uses_drop_threshold(self):
        from conftest import dense_op
        data = self._data()
        beta = np.zeros(200)
        beta[:3] = [1.0, 1e-3, 1e-9]
        rep = SolveReport(method="ridge_cg", beta=beta, alpha=beta,
                          iterations=1, final_active_size=3,
                          residual_inf=0.0, objective=0.0, wall_time=0.0)
        rec = metrics(rep, data, op=dense_op(np.eye(200)))
        assert rec["beta_nnz"] == 2

    def test_operator_required(self):
        # without the operator there is no fit to compare with the data
        data = self._data()
        rep = SolveReport(method="mrssn", beta=np.zeros(200),
                          alpha=np.zeros(200), iterations=0,
                          final_active_size=0, residual_inf=1.0,
                          objective=0.0, wall_time=0.0)
        with pytest.raises(TypeError):
            metrics(rep, data)


class TestGridEval:
    def test_unit_coefficient_is_translate(self, rng):
        cloud = PointCloud(rng.uniform(-0.5, 0.5, (60, 2)))
        kernel = KernelSpec("matern32", length=0.25)
        alpha = np.zeros(60)
        alpha[17] = 1.0
        grid = rng.uniform(-0.5, 0.5, (40, 2))
        field = grid_eval([alpha], [kernel], cloud, grid)
        ref = np.array([evaluate(kernel, g, cloud.points[17]) for g in grid])
        assert np.abs(field - ref).max() <= 1e-14

    def test_zero_coefficients(self, rng):
        cloud = PointCloud(rng.uniform(0, 1, (10, 2)))
        field = grid_eval([np.zeros(10)], [KernelSpec("matern32")], cloud,
                          rng.uniform(0, 1, (5, 2)))
        assert np.array_equal(field, np.zeros(5))

    def test_matches_naive_double_loop(self, rng):
        cloud = PointCloud(rng.uniform(-0.5, 0.5, (256, 2)))
        kernel = KernelSpec("matern32", length=0.25)
        alpha = rng.standard_normal(256)
        grid = cartesian_grid([[-0.5, -0.5], [0.5, 0.5]], (50, 50))
        field = grid_eval([alpha], [kernel], cloud, grid)
        naive = np.zeros(len(grid))
        for g in range(len(grid)):
            for i in range(256):
                naive[g] += alpha[i] * evaluate(kernel, grid[g],
                                                cloud.points[i])
        assert np.abs(field - naive).max() <= 1e-12

    @pytest.mark.parametrize("n_alphas", [1, 3])
    def test_list_lengths_must_match(self, rng, n_alphas):
        cloud = PointCloud(rng.uniform(0, 1, (10, 2)))
        with pytest.raises(BenchError, match=f"{n_alphas} coefficient"):
            grid_eval([np.ones(10)] * n_alphas, [KernelSpec("matern32")] * 2,
                      cloud, rng.uniform(0, 1, (5, 2)))

    def test_budget(self, rng, monkeypatch):
        # the outputs and one chunk's kernel blocks and coordinates must fit
        # in memory; checked before any kernel entry is computed
        cloud = PointCloud(rng.uniform(0, 1, (100, 2)))
        grid = np.zeros((2 * GRID_CHUNK, 2))
        need = 8 * (2 * GRID_CHUNK + GRID_CHUNK * (CROSS_COPIES * 100 + 2)
                    + 100 * 2)
        memory = "sampletbp.geometry.physical_memory"
        monkeypatch.setattr(memory, lambda: need - 1)
        with monkeypatch.context() as m:
            m.setattr("sampletbp.bench.cross_matrix",
                      lambda *args: pytest.fail("evaluated"))
            with pytest.raises(BudgetError, match="physical memory"):
                grid_eval([np.zeros(100)], [KernelSpec("matern32")], cloud,
                          grid)
        monkeypatch.setattr(memory, lambda: need)
        assert grid_eval([np.zeros(100)], [KernelSpec("matern32")], cloud,
                         grid).shape == (2 * GRID_CHUNK,)

    def test_grid_too_large(self, monkeypatch):
        # the points are refused before they are allocated
        monkeypatch.setattr("sampletbp.geometry.physical_memory",
                            lambda: 16 * 20 * 2 - 1)
        with pytest.raises(BudgetError, match="physical memory"):
            cartesian_grid([[0.0, 0.0], [1.0, 1.0]], (4, 5))
        monkeypatch.setattr("sampletbp.geometry.physical_memory",
                            lambda: 16 * 20 * 2)
        assert cartesian_grid([[0.0, 0.0], [1.0, 1.0]], (4, 5)).shape \
            == (20, 2)

    def test_cartesian_grid_shape(self):
        g = cartesian_grid([[0.0, 0.0], [1.0, 2.0]], (3, 5))
        assert g.shape == (15, 2)
        assert g[0].tolist() == [0.0, 0.0]
        assert g[-1].tolist() == [1.0, 2.0]
