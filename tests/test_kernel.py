from math import exp, sqrt

import numpy as np
import pytest
import scipy.linalg

from sampletbp import (BudgetError, KernelSpec, PointCloud, assemble_dense,
                       evaluate)
from sampletbp.kernel import KernelError, cross_matrix, radial_profile


RADIAL = [KernelSpec("matern32", length=0.25),
          KernelSpec("exponential", length=0.1),
          KernelSpec("gaussian", length=0.3),
          KernelSpec("periodic", length=1.0)]


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

    def test_cap(self, rng):
        cloud = PointCloud(rng.uniform(0, 1, (20, 2)))
        with pytest.raises(BudgetError):
            assemble_dense(RADIAL[0], cloud, cap=10)


class TestSpecs:
    def test_bad_family(self):
        with pytest.raises(KernelError):
            KernelSpec("cubic")

    def test_bad_length(self):
        with pytest.raises(KernelError):
            KernelSpec("matern32", length=0.0)
