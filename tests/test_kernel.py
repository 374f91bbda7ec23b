from math import exp, sqrt

import numpy as np
import pytest
import scipy.linalg
from scipy.spatial.distance import cdist

from conftest import traced_peak
from sampletbp import (BudgetError, KernelSpec, PointCloud, assemble_dense,
                       evaluate, grid_eval)
from sampletbp.bench import GRID_CHUNK
from sampletbp.kernel import (CROSS_COPIES, KernelError, cross_matrix,
                              radial_profile)


RADIAL = [KernelSpec("matern32", length=0.25),
          KernelSpec("exponential", length=0.1),
          KernelSpec("gaussian", length=0.3),
          KernelSpec("periodic", length=1.0)]
TENSOR = KernelSpec("tensor", components=(
    (KernelSpec("matern32", length=0.2), (0, 1)),
    (KernelSpec("periodic", length=1.0, dim_scaling=False), (2,))))


class TestEvaluate:
    def test_unit_diagonal(self, rng):
        x = rng.uniform(-1, 1, 3)
        for spec in RADIAL:
            assert evaluate(spec, x, x) == pytest.approx(1.0, abs=1e-15)

    def test_exponential_section(self):
        # distance l*sqrt(3) in 3-D with dim scaling gives exp(-1)
        spec = KernelSpec("exponential", length=0.03)
        x = np.zeros(3)
        y = np.array([0.03 * sqrt(3), 0.0, 0.0])
        assert evaluate(spec, x, y) == pytest.approx(exp(-1.0), rel=1e-12)

    def test_periodic_unit_shift(self):
        spec = KernelSpec("periodic", length=1.0, periodic_scale=50.0)
        assert evaluate(spec, [0.0], [1.0]) == pytest.approx(1.0, abs=1e-12)
        assert evaluate(spec, [0.25], [1.25]) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self, rng):
        x, y = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        for spec in RADIAL:
            assert evaluate(spec, x, y) == pytest.approx(evaluate(spec, y, x),
                                                         rel=1e-15)

    def test_monotone_decay(self):
        r = np.linspace(0.0, 2.0, 50)
        for spec in RADIAL[:3]:
            vals = radial_profile(spec, r, dim=2)
            assert np.all(np.diff(vals) < 0)

    def test_dimension_mismatch(self):
        with pytest.raises(KernelError):
            evaluate(RADIAL[0], [0.0, 0.0], [0.0])

    def test_tensor_product_equals_component_product(self, rng):
        space = KernelSpec("matern32", length=0.2)
        time = KernelSpec("periodic", length=1.0, dim_scaling=False)
        tensor = KernelSpec("tensor",
                            components=((space, (0, 1)), (time, (2,))))
        x, y = rng.uniform(0, 1, 3), rng.uniform(0, 1, 3)
        expected = evaluate(space, x[:2], y[:2]) * evaluate(time, x[2:], y[2:])
        assert evaluate(tensor, x, y) == pytest.approx(expected, rel=1e-14)

    def test_tensor_slices_must_partition(self):
        spec = KernelSpec("tensor",
                          components=((RADIAL[0], (0,)), (RADIAL[1], (0,))))
        with pytest.raises(KernelError):
            evaluate(spec, [0.0, 0.0], [1.0, 1.0])


class TestAssemble:
    def test_single_point(self):
        K = assemble_dense(RADIAL[0], PointCloud([[0.3, 0.4]]))
        assert K.shape == (1, 1) and K[0, 0] == 1.0

    def test_pair_symmetry(self):
        K = assemble_dense(RADIAL[0], PointCloud([[0.0, 0.0], [0.5, 0.0]]))
        assert K[0, 1] == K[1, 0]

    def test_positive_definite(self, rng):
        cloud = PointCloud(rng.uniform(-0.5, 0.5, (200, 2)))
        K = assemble_dense(KernelSpec("matern32", length=0.25), cloud)
        scipy.linalg.cholesky(K)  # raises if not SPD

    def test_exactly_symmetric(self, rng):
        cloud = PointCloud(rng.uniform(-0.5, 0.5, (150, 3)))
        for spec in RADIAL:
            K = assemble_dense(spec, cloud)
            assert np.array_equal(K, K.T)
            assert np.abs(np.diag(K) - 1.0).max() <= 1e-15

    def test_cross_matrix_matches_pointwise(self, rng):
        xs = rng.uniform(0, 1, (6, 2))
        ys = rng.uniform(0, 1, (4, 2))
        M = cross_matrix(RADIAL[0], xs, ys)
        for i in range(6):
            for j in range(4):
                assert M[i, j] == pytest.approx(
                    evaluate(RADIAL[0], xs[i], ys[j]), rel=1e-14)

    @pytest.mark.parametrize("dim_scaling", [True, False])
    @pytest.mark.parametrize("family",
                             ["matern32", "exponential", "gaussian", "periodic"])
    def test_cross_matrix_is_profile_of_distances(self, rng, family,
                                                  dim_scaling):
        # evaluated in cdist's buffer, bit for bit the closed form
        spec = KernelSpec(family, length=0.3, dim_scaling=dim_scaling,
                          frequency=1.5)
        xs = rng.uniform(-1, 1, (40, 3))
        ys = rng.uniform(-1, 1, (30, 3))
        ys[:5] = xs[:5]  # zero distances
        assert np.array_equal(cross_matrix(spec, xs, ys),
                              radial_profile(spec, cdist(xs, ys), 3))

    def test_tensor_cross_matrix_is_component_product(self, rng):
        space = KernelSpec("matern32", length=0.2)
        time = KernelSpec("periodic", length=1.0, dim_scaling=False)
        tensor = KernelSpec("tensor",
                            components=((space, (0, 1)), (time, (2,))))
        xs = rng.uniform(0, 1, (25, 3))
        ys = rng.uniform(0, 1, (15, 3))
        expected = (cross_matrix(space, xs[:, :2], ys[:, :2])
                    * cross_matrix(time, xs[:, 2:], ys[:, 2:]))
        assert np.array_equal(cross_matrix(tensor, xs, ys), expected)

    def test_cap(self, rng, monkeypatch):
        # the estimate is checked against physical memory before any kernel
        # entry is computed
        cloud = PointCloud(rng.uniform(0, 1, (20, 2)))
        need = 8 * 20 * (CROSS_COPIES * 20 + 2 * 2)
        memory = "sampletbp.geometry.physical_memory"
        monkeypatch.setattr(memory, lambda: need - 1)
        with monkeypatch.context() as m:
            m.setattr("sampletbp.kernel.cross_matrix",
                      lambda *args: pytest.fail("assembled"))
            with pytest.raises(BudgetError, match="physical memory"):
                assemble_dense(RADIAL[0], cloud)
        monkeypatch.setattr(memory, lambda: need)
        assert assemble_dense(RADIAL[0], cloud).shape == (20, 20)

    @pytest.mark.parametrize("spec", [RADIAL[0], TENSOR],
                             ids=["radial", "tensor"])
    def test_peak_memory_within_estimate(self, rng, spec, monkeypatch):
        # dense assembly and grid evaluation (three chunks) peak at or below
        # their estimates: a machine one byte short of the peak is refused
        n, m, d = 600, 2 * GRID_CHUNK + 100, 3
        cloud = PointCloud(rng.uniform(0, 1, (n, d)))
        grid = rng.uniform(0, 1, (m, d))
        alpha = rng.standard_normal(n)
        for run in (lambda: assemble_dense(spec, cloud),
                    lambda: grid_eval([alpha], [spec], cloud, grid)):
            peak = traced_peak(run)
            with monkeypatch.context() as patch:
                patch.setattr("sampletbp.geometry.physical_memory",
                              lambda: peak - 1)
                with pytest.raises(BudgetError):
                    run()


class TestSpecs:
    def test_bad_family(self):
        with pytest.raises(KernelError):
            KernelSpec("cubic")

    def test_bad_length(self):
        with pytest.raises(KernelError):
            KernelSpec("matern32", length=0.0)
