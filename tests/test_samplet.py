from math import comb

import numpy as np
import pytest

from sampletbp import (PointCloud, build_cluster_tree, build_samplet_basis,
                       coefficient_l1_profile)
from sampletbp.samplet import moment_matrix, multi_indices


def make_basis(points, q, leaf_capacity=None):
    cloud = PointCloud(points)
    m_q = comb(q + cloud.dim, cloud.dim)
    tree = build_cluster_tree(cloud, leaf_capacity or 2 * m_q)
    return cloud, build_samplet_basis(tree, cloud, q)


class TestMultiIndices:
    def test_counts(self):
        for d in (1, 2, 3):
            for q in range(4):
                assert multi_indices(d, q).shape == (comb(q + d, d), d)

    def test_graded_order_2d(self):
        idx = multi_indices(2, 2)
        assert [tuple(a) for a in idx] == [
            (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


class TestMomentMatrix:
    def test_constant_row(self, rng):
        pts = rng.uniform(-1, 1, (7, 2))
        box = np.vstack([pts.min(0), pts.max(0)])
        M = moment_matrix(pts, box, multi_indices(2, 2))
        assert np.array_equal(M[0], np.ones(7))

    def test_scaled_entries_bounded(self, rng):
        pts = rng.uniform(100.0, 101.0, (5, 2))
        box = np.vstack([pts.min(0), pts.max(0)])
        M = moment_matrix(pts, box, multi_indices(2, 6))
        assert np.abs(M).max() <= 1.0 + 1e-12


class TestConstruction:
    def test_full_leaf_no_samplets(self, rng):
        # N = m_q points in one leaf leave no room for vanishing moments
        q, d = 2, 2
        m_q = comb(q + d, d)
        cloud, basis = make_basis(rng.uniform(-1, 1, (m_q, d)), q,
                                  leaf_capacity=m_q)
        assert basis.n_root_scaling == m_q
        Td = basis.to_dense()
        assert np.abs(Td.T @ Td - np.eye(m_q)).max() <= 1e-12

    def test_1d_order_zero_single_leaf(self):
        _, basis = make_basis([0.0, 1.0, 2.0, 3.0], q=0, leaf_capacity=4)
        Td = basis.to_dense()
        assert np.allclose(Td[0], 0.5)  # normalized constant vector
        for k in range(1, 4):
            assert abs(Td[k].sum()) <= 1e-14  # one vanishing moment

    @pytest.mark.parametrize("d,q,n", [(1, 0, 200), (2, 1, 64), (2, 1, 80),
                                       (2, 1, 256), (2, 1, 300), (2, 3, 500),
                                       (3, 2, 400)])
    def test_orthogonality_dense(self, rng, d, q, n):
        _, basis = make_basis(rng.uniform(-0.5, 0.5, (n, d)), q)
        Td = basis.to_dense()
        assert np.abs(Td.T @ Td - np.eye(n)).max() <= 1e-10

    def test_output_ordering_breadth_first(self, rng):
        _, basis = make_basis(rng.uniform(-1, 1, (400, 2)), q=1)
        assert np.all(np.diff(basis.levels) >= 0)
        assert np.all(basis.levels[: basis.n_root_scaling] == 0)


class TestTransforms:
    def test_zero(self, rng):
        _, basis = make_basis(rng.uniform(-1, 1, (100, 2)), 1)
        assert np.array_equal(basis.forward(np.zeros(100)), np.zeros(100))

    def test_column_of_transpose_maps_to_unit(self, rng):
        _, basis = make_basis(rng.uniform(-1, 1, (150, 2)), 1)
        Td = basis.to_dense()
        for k in (0, 42, 149):
            out = basis.forward(Td.T[:, k])
            e = np.zeros(150)
            e[k] = 1.0
            assert np.abs(out - e).max() <= 1e-12

    def test_matches_dense_matrix(self, rng):
        _, basis = make_basis(rng.uniform(-1, 1, (128, 3)), 1)
        Td = basis.to_dense()
        v = rng.standard_normal(128)
        assert np.abs(basis.forward(v) - Td @ v).max() <= 1e-12
        assert np.abs(basis.inverse(v) - Td.T @ v).max() <= 1e-12

    def test_polynomial_coefficients_vanish(self, rng):
        q, d = 2, 2
        cloud, basis = make_basis(rng.uniform(-0.5, 0.5, (500, d)), q)
        x = cloud.points
        v = 1.0 + 2.0 * x[:, 0] - x[:, 1] + 0.5 * x[:, 0] * x[:, 1] \
            - x[:, 1] ** 2
        w = basis.forward(v)
        tail = w[basis.n_root_scaling:]
        assert np.abs(tail).max() <= 1e-10 * np.linalg.norm(v)

    def test_inverse_of_unit_is_coefficient_vector(self, rng):
        _, basis = make_basis(rng.uniform(-1, 1, (90, 2)), 1)
        T = basis.to_sparse()
        for k in (0, 30, 89):
            e = np.zeros(90)
            e[k] = 1.0
            omega = basis.inverse(e)
            assert np.abs(omega - T[k].toarray().ravel()).max() <= 1e-14

    def test_round_trip(self, rng):
        _, basis = make_basis(rng.uniform(-1, 1, (333, 2)), 3)
        v = rng.standard_normal(333)
        err = np.abs(basis.inverse(basis.forward(v)) - v).max()
        assert err <= 1e-12 * np.abs(v).max()

    def test_round_trip_polynomial(self, rng):
        cloud, basis = make_basis(rng.uniform(-1, 1, (200, 2)), 2)
        v = cloud.points[:, 0] ** 2
        w = basis.forward(v)
        assert np.abs(basis.inverse(w) - v).max() <= 1e-12

    def test_matrix_argument(self, rng):
        _, basis = make_basis(rng.uniform(-1, 1, (64, 2)), 1)
        V = rng.standard_normal((64, 5))
        W = basis.forward(V)
        for j in range(5):
            assert np.abs(W[:, j] - basis.forward(V[:, j])).max() <= 1e-14

    def test_length_mismatch(self, rng):
        from sampletbp.samplet import SampletError
        _, basis = make_basis(rng.uniform(-1, 1, (50, 2)), 1)
        with pytest.raises(SampletError):
            basis.forward(np.zeros(49))
        with pytest.raises(SampletError):
            basis.inverse(np.zeros(51))


class TestInvariants:
    def test_vanishing_moments_all_samplets(self, rng):
        q, d = 3, 2
        cloud, basis = make_basis(rng.uniform(-0.5, 0.5, (600, d)), q)
        T = basis.to_sparse()
        P = moment_matrix(cloud.points, cloud.domain_box, multi_indices(d, q))
        # rows past the root scaling block annihilate every monomial
        moments = T[basis.n_root_scaling:] @ P.T
        norms = np.linalg.norm(P, axis=1)
        assert np.abs(moments / norms[None, :]).max() <= 1e-10

    def test_locality(self, rng):
        _, basis = make_basis(rng.uniform(-1, 1, (300, 2)), 1)
        perm = basis.tree.permutation
        T = basis.to_sparse().tocsr()
        inv_perm = np.empty(300, dtype=int)
        inv_perm[perm] = np.arange(300)
        for blk in basis.blocks_bfs:
            if not blk.n_samplets:
                continue
            for i in range(blk.out_start, blk.out_start + blk.n_samplets):
                cols = T.indices[T.indptr[i]:T.indptr[i + 1]]
                tree_pos = inv_perm[cols]
                assert tree_pos.min() >= blk.node.lo
                assert tree_pos.max() < blk.node.hi

    def test_smooth_data_compresses(self, rng):
        cloud, basis = make_basis(rng.uniform(-0.5, 0.5, (4096, 2)), 3)
        v = np.exp(cloud.points[:, 0])
        w = basis.forward(v)
        big = np.count_nonzero(np.abs(w) > 1e-4 * np.abs(w).max())
        assert big <= 0.05 * 4096

    def test_single_scale_sparsity_transfer(self, rng):
        cloud, basis = make_basis(rng.uniform(-0.5, 0.5, (1024, 2)), 1)
        k = 7
        alpha = np.zeros(1024)
        alpha[rng.choice(1024, k, replace=False)] = 1.0
        beta = basis.forward(alpha)
        J = basis.depth
        m_q = basis.m_q
        nnz = np.count_nonzero(np.abs(beta) > 1e-12)
        # each nonzero touches at most one block of <= 2 m_q outputs per level
        assert nnz <= k * (J + 1) * 2 * m_q + m_q


class TestL1Profile:
    def test_single_leaf_cauchy_schwarz(self, rng):
        _, basis = make_basis(rng.uniform(-1, 1, (8, 1)), 0, leaf_capacity=8)
        prof = coefficient_l1_profile(basis)
        assert max(prof["max_l1"].values()) <= np.sqrt(8) + 1e-12

    def test_uniform_1d_growth(self):
        pts = np.linspace(0.0, 1.0, 256)
        _, basis = make_basis(pts, q=1)
        prof = coefficient_l1_profile(basis)
        assert prof["fitted_c"] < 2.0
        levels = sorted(prof["max_l1"])
        # coarser levels carry larger coefficient mass
        assert prof["max_l1"][levels[0]] >= prof["max_l1"][levels[-1]]

    def test_single_point(self):
        _, basis = make_basis([[0.0]], 0)
        prof = coefficient_l1_profile(basis)
        assert prof["max_l1"] == {0: 1.0}
