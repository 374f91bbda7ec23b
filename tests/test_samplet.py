import tracemalloc
from math import comb

import numpy as np
import pytest

from sampletbp import (PointCloud, build_cluster_tree, build_samplet_basis,
                       coefficient_l1_profile)
from sampletbp.samplet import DENSE, moment_matrix, multi_indices


def make_basis(points, q, leaf_capacity=None):
    cloud = PointCloud(points)
    m_q = comb(q + cloud.dim, cloud.dim)
    tree = build_cluster_tree(cloud, leaf_capacity or 2 * m_q)
    return cloud, build_samplet_basis(tree, cloud, q)


# (dimension, q, N, leaf capacity in units of m_q): 1-, 2- and 3-D with
# q = 0-3; N = 1, where the root is a leaf; a single leaf of fewer than m_q
# points; and leaves of m_q / 2 to m_q points, below the m_q scaling outputs
TRANSFORM_CASES = [(d, q, 128, 2) for d in (1, 2, 3) for q in range(4)] + [
    (2, 1, 64, 2), (1, 0, 1, 2), (3, 2, 1, 2), (3, 3, 7, 2), (1, 2, 60, 1),
    (2, 3, 150, 1), (3, 1, 200, 1)]


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

    def test_samplet_signs_canonical(self, rng):
        # each samplet column's largest-magnitude entry is positive
        _, basis = make_basis(rng.uniform(-1, 1, (300, 2)), q=1)
        for blk in basis.blocks_bfs:
            for col in blk.Q[:, blk.m_scal:].T:
                assert col[np.argmax(np.abs(col))] > 0.0

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

    @pytest.mark.parametrize("d,q,n,leaf", TRANSFORM_CASES)
    def test_matches_dense_matrix(self, rng, d, q, n, leaf):
        # the level-batched transforms against T, formed block by block;
        # a matrix argument against its columns one at a time, which BLAS
        # multiplies by other kernels (gemm, gemv), so not bit for bit
        m_q = comb(q + d, d)
        _, basis = make_basis(rng.uniform(-1, 1, (n, d)), q,
                              leaf_capacity=leaf * m_q)
        Td = basis.to_dense()
        v = rng.standard_normal(n)
        assert np.abs(basis.forward(v) - Td @ v).max() <= 1e-12
        assert np.abs(basis.inverse(v) - Td.T @ v).max() <= 1e-12
        V = rng.standard_normal((n, 3))
        W, U = basis.forward(V), basis.inverse(V)
        assert W.shape == U.shape == (n, 3)
        assert np.abs(W - Td @ V).max() <= 1e-12
        assert np.abs(U - Td.T @ V).max() <= 1e-12
        for j in range(3):
            assert np.abs(W[:, j] - basis.forward(V[:, j])).max() <= 1e-14
            assert np.abs(U[:, j] - basis.inverse(V[:, j])).max() <= 1e-14

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
        # every row of T, formed from the Q blocks, against T^T e_k
        n = 400
        _, basis = make_basis(rng.uniform(-1, 1, (n, 2)), 3)
        assert basis.depth >= 3
        T = basis.to_sparse()
        assert T.has_canonical_format  # sorted columns, no duplicates
        omega = basis.inverse(np.eye(n))  # column k is row k of T
        assert np.abs(omega.T - T.toarray()).max() <= 1e-14

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

    @pytest.mark.parametrize("d,q,n,leaf", TRANSFORM_CASES + [
        (2, 1, 200, 20),  # leaves of 50 points, above DENSE: Q at a leaf
        (2, 2, 96, 2),  # children of exactly DENSE points
        (2, 2, 300, 2)])
    def test_subtree_transform_rows_are_global_rows(self, rng, d, q, n, leaf):
        # below its scaling rows, a subtree's local order lists global
        # samplets, which live on the subtree's points only; every subtree,
        # parents first and then children first, through one cache of dense
        # subtree transforms, which each small subtree fills or reads
        m_q = comb(q + d, d)
        _, basis = make_basis(rng.uniform(-1, 1, (n, d)), q,
                              leaf_capacity=leaf * m_q)
        T = basis.to_dense()
        perm = basis.tree.permutation
        dense = {}
        for blk in basis.blocks_bfs + basis.blocks_bfs[::-1]:
            lo, hi = blk.node.lo, blk.node.hi
            x = rng.standard_normal((hi - lo, 3))
            y = basis.transform_subtree(blk, x, dense)
            ref = T[np.ix_(blk.glob, perm[lo:hi])] @ x
            assert np.abs(y[blk.m_scal:] - ref).max(initial=0) <= 1e-12
        assert set(dense) == {id(b) for b in basis.blocks_bfs
                              if b.node.size <= DENSE}
        root = basis.root_block
        x = rng.standard_normal((n, 2))
        y = basis.transform_subtree(root, x, dense)
        assert np.abs(y - T[basis.local_order][:, perm] @ x).max() <= 1e-12
        assert np.array_equal(root.glob, basis.local_order[root.m_scal:])

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


class TestMemory:
    def test_basis_keeps_q_blocks_only(self, rng):
        # the basis keeps its Q blocks, and the build frees a level's
        # scaling vectors at the next level up: about 390 retained and 860
        # peak bytes per point here; the bounds sit below the 1300 and 2180
        # of a basis that also stores every samplet vector densely
        n = 10_000
        cloud = PointCloud(rng.uniform(-0.5, 0.5, (n, 2)))
        tree = build_cluster_tree(cloud, 20)
        tracemalloc.start()
        try:
            basis = build_samplet_basis(tree, cloud, 3)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert basis.n == n
        assert retained / n <= 700
        assert peak / n <= 1400


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

    def test_matches_row_norms_of_inverse(self, rng):
        # per-level maxima of T's row 1-norms, rows read off T^T e_k and
        # grouped by the level of the block that owns them
        n = 400
        _, basis = make_basis(rng.uniform(-1, 1, (n, 2)), 3)
        l1 = np.abs(basis.inverse(np.eye(n))).sum(axis=0)
        expect = {0: l1[: basis.n_root_scaling].max()}
        for blk in basis.blocks_bfs:
            if blk.n_samplets:
                lvl = blk.node.level
                m = l1[blk.out_start : blk.out_start + blk.n_samplets].max()
                expect[lvl] = max(expect.get(lvl, 0.0), m)
        prof = coefficient_l1_profile(basis)
        assert prof["max_l1"].keys() == expect.keys()
        for lvl, m in expect.items():
            assert abs(prof["max_l1"][lvl] - m) <= 1e-12 * m
        assert prof["depth"] == max(expect)

    def test_single_point(self):
        _, basis = make_basis([[0.0]], 0)
        prof = coefficient_l1_profile(basis)
        assert prof["max_l1"] == {0: 1.0}
