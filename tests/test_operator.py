import os
import struct
import tempfile
import threading
from math import comb

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_op, random_spd, traced_peak, two_sided
from sampletbp import (BudgetError, CompressedOperator, KernelSpec,
                       PointCloud, SolverConfig, assemble_dense,
                       build_cluster_tree, build_samplet_basis, compress,
                       estimate_lipschitz, fista, ir_mrssn)
from sampletbp.kernel import cross_matrix
from sampletbp.operator import (KEPT_BYTES, PANEL, PANEL_COPIES,
                                OperatorError, _mirror, compress_peak_bytes,
                                panel_workers)


MATERN = KernelSpec("matern32", length=0.25)


def make_setup(rng, n, d=2, q=1, leaf_capacity=None):
    cloud = PointCloud(rng.uniform(-0.5, 0.5, (n, d)))
    m_q = comb(q + d, d)
    tree = build_cluster_tree(cloud, leaf_capacity or 2 * m_q)
    return cloud, build_samplet_basis(tree, cloud, q)


def check_against_dense_oracle(cloud, basis):
    """compress at tau 0 and 1e-4 against T K T^T from the dense matrices."""
    K = assemble_dense(MATERN, cloud)
    Td = basis.to_dense()
    dense = Td @ K @ Td.T
    op = compress(basis, MATERN, cloud, tau=0.0)
    assert np.abs(op.to_dense() - dense).max() <= 1e-12
    tau = 1e-4
    op = compress(basis, MATERN, cloud, tau=tau)
    assert (op.matrix != op.matrix.T).nnz == 0
    assert op.matrix.has_canonical_format
    assert np.all(op.matrix.diagonal() != 0.0)
    sym = 0.5 * (dense + dense.T)
    mask = np.abs(sym) >= tau
    np.fill_diagonal(mask, True)
    dropped = sym[~mask]
    oracle = np.sqrt(float(dropped @ dropped) / float(np.sum(sym ** 2)))
    assert abs(op.est_rel_frobenius_error - oracle) <= 1e-12


class TestFromDense:
    def test_tau_zero_keeps_everything(self, rng):
        A = rng.standard_normal((8, 8))
        op = CompressedOperator.from_dense(A, tau=0.0)
        assert np.array_equal(op.to_dense(), A)
        assert op.est_rel_frobenius_error == 0.0

    def test_tau_infinity_diagonal_only(self, rng):
        A = random_spd(6, rng)
        op = CompressedOperator.from_dense(A, tau=np.inf)
        assert np.array_equal(op.to_dense(), np.diag(np.diag(A)))
        off = A - np.diag(np.diag(A))
        expected = np.linalg.norm(off) / np.linalg.norm(A)
        assert op.est_rel_frobenius_error == pytest.approx(expected, abs=1e-14)

    def test_bookkeeping_exact(self, rng):
        A = rng.standard_normal((40, 40))
        tau = 0.8
        op = CompressedOperator.from_dense(A, tau)
        dropped = A - op.to_dense()
        expected = np.linalg.norm(dropped) / np.linalg.norm(A)
        assert abs(op.est_rel_frobenius_error - expected) <= 1e-12

    def test_threshold_monotonicity(self, rng):
        A = random_spd(30, rng)
        taus = [1e-6, 1e-4, 1e-2]
        ops = [CompressedOperator.from_dense(A, t) for t in taus]
        nnzs = [o.nnz for o in ops]
        errs = [o.est_rel_frobenius_error for o in ops]
        assert nnzs[0] >= nnzs[1] >= nnzs[2]
        assert errs[0] <= errs[1] <= errs[2]

    @pytest.mark.parametrize("tau", [np.nan, -1e-4], ids=["nan", "negative"])
    def test_bad_threshold_rejected(self, rng, tau):
        # a NaN tau would fail every comparison and keep only the diagonal
        with pytest.raises(OperatorError, match="tau"):
            CompressedOperator.from_dense(np.eye(4), tau)
        cloud, basis = make_setup(rng, 32)
        with pytest.raises(OperatorError, match="tau"):
            compress(basis, MATERN, cloud, tau)

    def test_nonfinite_rejected(self):
        with pytest.raises(OperatorError):
            CompressedOperator.from_dense([[1.0, np.inf]], 0.0)


class TestCompress:
    def test_matches_dense_transform(self, rng):
        cloud, basis = make_setup(rng, 200)
        K = assemble_dense(MATERN, cloud)
        Td = basis.to_dense()
        dense_ref = Td @ K @ Td.T
        op = compress(basis, MATERN, cloud, tau=0.0)
        assert np.abs(op.to_dense() - dense_ref).max() <= 1e-12

    def test_diagonal_kept(self, rng):
        cloud, basis = make_setup(rng, 256)
        op = compress(basis, MATERN, cloud, tau=1e-1)
        assert np.all(op.matrix.diagonal() != 0.0)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [256, 2 * PANEL + 37])
    def test_exactly_symmetric(self, rng, monkeypatch, n, workers):
        # the CSR arrays are those of the CSC, so the matrix is its own
        # transpose: one leaf pass, and pairs of clusters split by the
        # recursion, run on one or two workers
        monkeypatch.setattr("sampletbp.operator.panel_workers",
                            lambda n: workers)
        cloud, basis = make_setup(rng, n)
        op = compress(basis, MATERN, cloud, tau=1e-4)
        csc = op.matrix.tocsc()
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(op.matrix, part),
                                  getattr(csc, part))

    def test_held_once_through_sparse_solves(self, rng, monkeypatch):
        # the matrix is its own transpose for matvec_transpose and Gram
        # blocks; no CSC copy is made
        cloud, basis = make_setup(rng, 200)
        op = compress(basis, MATERN, cloud, tau=1e-4)

        def tocsc(self, copy=False):
            raise AssertionError("CSC copy made")

        monkeypatch.setattr(scipy.sparse.csr_matrix, "tocsc", tocsc)
        h = basis.forward(rng.standard_normal(200))
        rep = ir_mrssn(op, h, 2e-3)
        assert rep.extras["gram_fetches"] > 0
        fista(op, h, 2e-3, config=SolverConfig(max_iter=50), mode="mr")
        assert op._transpose() is op.matrix

    def test_streamed_matches_dense_oracle(self, rng):
        # several base pairs, of uneven sizes
        n = 2 * PANEL + 37
        check_against_dense_oracle(*make_setup(rng, n))

    @pytest.mark.parametrize("n, q, leaf_capacity", [
        (2 * PANEL + 1, 1, None),  # children of 513 points, split, and 512
        # leaves of 20 points and, a level deeper, of 11 and 10 points,
        # which have no samplets
        (656, 3, 20),
        # the root's children split over two levels in their pair
        (4 * PANEL + 3, 1, None),
    ], ids=["uneven-children", "leaf-depths", "pair-levels"])
    def test_recursion_matches_dense_oracle(self, rng, n, q, leaf_capacity):
        check_against_dense_oracle(*make_setup(rng, n, q=q,
                                               leaf_capacity=leaf_capacity))

    def test_peak_memory_below_dense(self, rng, monkeypatch):
        # the largest buffers are the kernel blocks of at most PANEL x PANEL
        # points and their transforms, not N x N, and the peak is within
        # the estimate: the blocks plus KEPT_BYTES per kept entry; q = 3 as
        # in the benchmarks, where the kept entries are 14 % of N^2
        n = 2 * PANEL + 37
        cloud, basis = make_setup(rng, n, q=3)
        monkeypatch.setattr("sampletbp.operator.panel_workers", lambda n: 1)
        ops = []
        peak = traced_peak(lambda: ops.append(
            compress(basis, MATERN, cloud, tau=1e-4)))
        kept = (ops[0].nnz + n) // 2  # the diagonal and one of each pair
        assert peak < 8 * n * n
        assert peak <= compress_peak_bytes(n) + KEPT_BYTES * kept

    def test_peak_memory_below_root_block(self, rng, monkeypatch):
        # the N/2 x N/2 block between the root's children alone takes 2 N^2
        # bytes; the build holds blocks of pairs of smaller clusters
        n = 8 * PANEL
        cloud, basis = make_setup(rng, n, q=3)
        monkeypatch.setattr("sampletbp.operator.panel_workers", lambda n: 1)
        peak = traced_peak(lambda: compress(basis, MATERN, cloud, tau=1e-4))
        assert peak < 2 * n * n

    def test_parallel_matches_serial(self, rng, monkeypatch):
        # several base pairs: the operator does not depend on the worker
        # count
        n = 2 * PANEL + 37
        cloud, basis = make_setup(rng, n)
        ops = []
        for workers in (1, 3):
            monkeypatch.setattr("sampletbp.operator.panel_workers",
                                lambda n, workers=workers: workers)
            ops.append(compress(basis, MATERN, cloud, tau=1e-4))
        serial, parallel = ops
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(serial.matrix, part),
                                  getattr(parallel.matrix, part))
        assert serial.est_rel_frobenius_error == \
            parallel.est_rel_frobenius_error

    def test_worker_failure_propagates(self, rng, monkeypatch):
        n = 2 * PANEL + 37
        cloud, basis = make_setup(rng, n)
        # the kernel block of one base pair below the root's children, the
        # first child of the left and the second child of the right, which
        # runs on the pool beside its sibling pair; points in tree order
        left, right = basis.tree.root.children
        pts = cloud.points[basis.tree.permutation]
        block = [pts[c.lo:c.hi] for c in (left.children[0],
                                          right.children[1])]

        def is_block(xs, ys):
            return any(np.array_equal(xs, p) and np.array_equal(ys, q)
                       for p, q in (block, block[::-1]))

        def failing(spec, xs, ys):
            if is_block(xs, ys):
                raise RuntimeError("base pair failed")
            return cross_matrix(spec, xs, ys)

        def poisoned(spec, xs, ys):
            K = cross_matrix(spec, xs, ys)
            if is_block(xs, ys):
                K[3, 5] = np.nan
            return K

        monkeypatch.setattr("sampletbp.operator.panel_workers", lambda n: 3)
        threads = threading.active_count()
        monkeypatch.setattr("sampletbp.operator.cross_matrix", failing)
        with pytest.raises(RuntimeError, match="base pair failed"):
            compress(basis, MATERN, cloud, tau=1e-4)
        assert threading.active_count() == threads
        # a NaN kernel entry reaches the samplet entries of its base pair,
        # whose threshold refuses it
        monkeypatch.setattr("sampletbp.operator.cross_matrix", poisoned)
        with pytest.raises(OperatorError, match="non-finite"):
            compress(basis, MATERN, cloud, tau=1e-4)
        assert threading.active_count() == threads

    def test_worker_count(self, monkeypatch):
        n = 8 * PANEL
        memory = "sampletbp.geometry.physical_memory"
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(8)))
        monkeypatch.setattr(memory, lambda: 2**40)
        assert panel_workers(n) == 8  # one per core
        per_worker = 8 * PANEL_COPIES * PANEL * PANEL
        monkeypatch.setattr(memory, lambda: 2 * per_worker + 1)
        assert panel_workers(n) == 2  # as many as memory holds
        assert compress_peak_bytes(n) == 2 * per_worker
        # the blocks of PANEL / 2 points take a quarter as much memory
        assert panel_workers(PANEL // 2) == 8
        monkeypatch.setattr(memory, lambda: 1)
        assert panel_workers(n) == 1
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(memory, lambda: 2**40)
        assert panel_workers(n) == 1

    def test_memory_budget(self, rng, monkeypatch):
        # the estimate is checked before any kernel entry is computed; with
        # one core, as a smaller machine first drops workers
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0})
        cloud, basis = make_setup(rng, 32)
        need = compress_peak_bytes(32)
        memory = "sampletbp.geometry.physical_memory"
        monkeypatch.setattr(memory, lambda: need - 1)
        with monkeypatch.context() as m:
            m.setattr("sampletbp.operator.cross_matrix",
                      lambda *args, **kw: pytest.fail("assembled"))
            with pytest.raises(BudgetError, match="physical memory"):
                compress(basis, MATERN, cloud, tau=1e-4)
        # and the entries it keeps, all 32 * 33 / 2 of them at most
        monkeypatch.setattr(memory, lambda: need + KEPT_BYTES * 32 * 33 // 2)
        assert compress(basis, MATERN, cloud, tau=1e-4).shape == (32, 32)

    @pytest.mark.parametrize("n_cloud", [40, 60])
    def test_cloud_must_match_basis(self, rng, monkeypatch, n_cloud):
        # a cloud of another size is refused before the memory estimate
        _, basis = make_setup(rng, 50)
        cloud = PointCloud(rng.uniform(-0.5, 0.5, (n_cloud, 2)))
        monkeypatch.setattr("sampletbp.operator.compress_peak_bytes",
                            lambda n: pytest.fail("estimated"))
        with pytest.raises(OperatorError, match="sizes differ"):
            compress(basis, MATERN, cloud, tau=1e-4)

    def test_kept_entries_budget(self, rng, monkeypatch):
        # memory for the working buffers and the entries kept at tau 1e-4,
        # but not for the N (N + 1) / 2 entries kept at tau 0: that build
        # is refused while it runs
        n = 2 * PANEL + 37
        cloud, basis = make_setup(rng, n)
        op = compress(basis, MATERN, cloud, tau=1e-4)
        kept = (op.nnz + n) // 2  # the diagonal and one of each mirror pair
        have = compress_peak_bytes(n) + KEPT_BYTES * kept
        monkeypatch.setattr("sampletbp.geometry.physical_memory",
                            lambda: have)
        with pytest.raises(BudgetError, match="tau = 0 needs"):
            compress(basis, MATERN, cloud, tau=0.0)
        assert compress(basis, MATERN, cloud, tau=1e-4).nnz == op.nnz


class TestMirror:
    @pytest.mark.parametrize("cuts", [
        (0, 0, 70, 70, 200, 340),  # empty parts, rows shared across parts
        (0, 340),  # one part
        (0, 300, 340),  # a part of the diagonal alone
    ], ids=["parts", "one-part", "diagonal-only"])
    def test_matches_coo_conversion(self, rng, cuts):
        # distinct off-diagonal pairs, one of each, either way round, some
        # exactly zero, then the diagonal, split into int32 parts; the
        # oracle converts the entries and their off-diagonal mirror images
        # as COO triples
        n, k = 40, 300
        upper = np.triu_indices(n, 1)
        pick = rng.choice(upper[0].size, size=k, replace=False)
        flip = rng.random(k) < 0.5
        d = np.arange(n)
        rows = np.r_[np.where(flip, upper[1][pick], upper[0][pick]), d]
        cols = np.r_[np.where(flip, upper[0][pick], upper[1][pick]), d]
        vals = rng.standard_normal(k + n)
        vals[::50] = 0.0
        parts = [(rows[lo:hi].astype(np.int32), cols[lo:hi].astype(np.int32),
                  vals[lo:hi]) for lo, hi in zip(cuts[:-1], cuts[1:])]
        oracle = scipy.sparse.csr_matrix(
            (np.r_[vals, vals[:k]], (np.r_[rows, cols[:k]],
                                     np.r_[cols, rows[:k]])), shape=(n, n))
        matrix = _mirror(n, parts)
        assert parts == []
        for part in ("indptr", "indices", "data"):
            got, want = getattr(matrix, part), getattr(oracle, part)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert matrix.has_canonical_format


class TestMatvec:
    def test_identity(self, rng):
        op = CompressedOperator.from_dense(np.eye(9), tau=1e-8)
        v = rng.standard_normal(9)
        assert np.array_equal(op.matvec(v), v)
        assert np.array_equal(op.matvec_transpose(v), v)

    def test_zero_vector(self, rng):
        op = dense_op(rng.standard_normal((7, 7)))
        assert np.array_equal(op.matvec(np.zeros(7)), np.zeros(7))
        assert np.array_equal(op.matvec_transpose(np.zeros(7)), np.zeros(7))

    def test_sparse_vs_dense_within_error_bound(self, rng):
        cloud, basis = make_setup(rng, 512)
        K = assemble_dense(MATERN, cloud)
        dense_ref = two_sided(basis, K)
        dense_ref = 0.5 * (dense_ref + dense_ref.T)
        op = CompressedOperator.from_dense(dense_ref, tau=1e-4)
        v = rng.standard_normal(512)
        bound = op.est_rel_frobenius_error * np.linalg.norm(dense_ref) \
            * np.linalg.norm(v)
        assert np.abs(op.matvec(v) - dense_ref @ v).max() <= bound
        assert np.abs(op.matvec_transpose(v) - dense_ref.T @ v).max() <= bound

    def test_transpose_against_dense(self, rng):
        A = rng.standard_normal((12, 12))
        op = dense_op(A)
        v = rng.standard_normal(12)
        assert np.abs(op.matvec_transpose(v) - A.T @ v).max() <= 1e-14

    def test_transpose_bitwise_equals_sparse_transpose(self, rng):
        # the cached transposed CSR sums in the same order as matrix.T @ v,
        # on the first call and on every later one
        cloud, basis = make_setup(rng, 200)
        op = compress(basis, MATERN, cloud, tau=1e-4)
        stack = CompressedOperator.hstack((op, dense_op(
            rng.standard_normal((200, 30)))))
        for K in (op, stack):
            for _ in range(2):
                v = rng.standard_normal(200)
                assert np.array_equal(K.matvec_transpose(v),
                                      K.matrix.T @ v)

    def test_symmetric_operator_self_adjoint(self, rng):
        A = random_spd(20, rng)
        op = dense_op(A)
        v = rng.standard_normal(20)
        assert np.abs(op.matvec(v) - op.matvec_transpose(v)).max() <= 1e-12

    def test_length_mismatch(self, rng):
        op = dense_op(np.eye(5))
        with pytest.raises(OperatorError):
            op.matvec(np.zeros(4))


class TestGram:
    def test_identity_block(self):
        op = dense_op(np.eye(5))
        G = op.gram_submatrix([1, 2], [1, 2])
        assert np.array_equal(G, np.eye(2))

    def test_empty_selection(self):
        op = dense_op(np.eye(5))
        assert op.gram_submatrix([], []).shape == (0, 0)

    def test_matches_dense_gram(self, rng):
        A = rng.standard_normal((64, 64))
        op = dense_op(A)
        idx = rng.choice(64, 10, replace=False)
        G = op.gram_submatrix(idx, idx)
        ref = (A.T @ A)[np.ix_(idx, idx)]
        assert np.abs(G - ref).max() <= 1e-12

    def test_out_of_range(self):
        op = dense_op(np.eye(4))

        def extract():
            raise AssertionError("columns extracted before the range check")

        op._transpose = extract
        for rows, cols in (([0, 4], [0]), ([0], [1, 4]), ([-1], [0]),
                           ([0], [-1])):
            with pytest.raises(OperatorError):
                op.gram_submatrix(rows, cols)

    def test_chunks_equal_one_product(self, rng, monkeypatch):
        # chunks of one column, as GRAM_CHUNK is below a column's entries,
        # sum each entry as one product does
        cloud, basis = make_setup(rng, 300)
        op = compress(basis, MATERN, cloud, tau=1e-4)
        rows = rng.choice(300, 40, replace=False)
        cols = rng.choice(300, 25, replace=False)
        A, B = op.matrix[:, rows], op.matrix[:, cols]
        whole = np.asarray((A.T @ B).todense())
        monkeypatch.setattr("sampletbp.operator.GRAM_CHUNK", 7)
        assert np.array_equal(op.gram_submatrix(rows, cols), whole)

    @pytest.mark.parametrize("chunk", [1, 7, None], ids=["one-column",
                                                         "ragged", "whole"])
    @pytest.mark.parametrize("kind, n_rows, n_cols", [
        ("compress", 40, 25), ("compress", 0, 25), ("compress", 40, 0),
        ("hstack", 40, 25), ("hstack", 450, 30)])
    def test_equals_sparse_product(self, rng, monkeypatch, kind, n_rows,
                                   n_cols, chunk):
        # a symmetric compressed operator and an N x 2N stack, which is not
        # symmetric and can be fetched with more rows than it has; chunks of
        # 1 and 7 of the 25 or 30 columns, and all of them at once
        cloud, basis = make_setup(rng, 300)
        op = compress(basis, MATERN, cloud, tau=1e-4)
        if kind == "hstack":
            op = CompressedOperator.hstack(
                [op, compress(basis, KernelSpec("matern32", length=0.1),
                              cloud, tau=1e-4)])
        rows = rng.choice(op.n_cols, n_rows, replace=False)
        cols = rng.choice(op.n_cols, n_cols, replace=False)
        whole = (op.matrix[:, rows].T @ op.matrix[:, cols]).toarray()
        if chunk is not None:
            monkeypatch.setattr("sampletbp.operator.GRAM_CHUNK",
                                chunk * max(op.n_rows, n_rows))
        G = op.gram_submatrix(rows, cols)
        assert G.shape == (n_rows, n_cols)
        assert np.array_equal(G, whole)


class TestLipschitz:
    def test_identity(self):
        est = estimate_lipschitz(dense_op(np.eye(10)))
        assert est == pytest.approx(1.01, abs=1e-3)

    def test_diagonal(self):
        est = estimate_lipschitz(dense_op(np.diag([3.0, 1.0, 1.0])))
        assert est == pytest.approx(9.0 * 1.01, rel=1e-3)

    def test_matern_operator_matches_eigensolve(self, rng):
        cloud, basis = make_setup(rng, 512)
        op = compress(basis, MATERN, cloud, tau=1e-4)
        est = estimate_lipschitz(op)
        sigma_max = np.abs(np.linalg.eigvalsh(op.to_dense())).max()
        assert est / 1.01 == pytest.approx(sigma_max ** 2, rel=1e-2)

    def test_zero_operator(self):
        with pytest.raises(OperatorError):
            estimate_lipschitz(dense_op(np.zeros((3, 3))))


class TestHstack:
    def test_single_block_identical(self, rng):
        A = rng.standard_normal((16, 16))
        op = dense_op(A)
        blk = CompressedOperator.hstack((op,))
        v = rng.standard_normal(16)
        assert np.array_equal(blk.matvec(v), op.matvec(v))
        assert np.array_equal(blk.matvec_transpose(v), op.matvec_transpose(v))

    def test_zero_second_block(self, rng):
        A = rng.standard_normal((8, 8))
        blk = CompressedOperator.hstack((dense_op(A),
                                         CompressedOperator.from_dense(
                                             np.zeros((8, 8)), 0.0)))
        v = rng.standard_normal(16)
        assert np.abs(blk.matvec(v) - A @ v[:8]).max() <= 1e-14

    def test_matches_concatenated_dense(self, rng):
        A, B = rng.standard_normal((2, 64, 64))
        blk = CompressedOperator.hstack((dense_op(A), dense_op(B)))
        C = np.hstack([A, B])
        v = rng.standard_normal(128)
        u = rng.standard_normal(64)
        assert np.abs(blk.matvec(v) - C @ v).max() <= 1e-12
        assert np.abs(blk.matvec_transpose(u) - C.T @ u).max() <= 1e-12
        # the second set is unsorted, repeats an index and straddles blocks
        for idx in (rng.choice(128, 9, replace=False),
                    np.array([100, 3, 64, 127, 3, 63, 0, 70])):
            ref = (C.T @ C)[np.ix_(idx, idx)]
            assert np.abs(blk.gram_submatrix(idx, idx) - ref).max() <= 1e-12
        assert blk.gram_submatrix([], [3, 100]).shape == (0, 2)

    def test_empty_rejected(self):
        with pytest.raises(OperatorError):
            CompressedOperator.hstack(())

    def test_row_mismatch_rejected(self, rng):
        with pytest.raises(OperatorError):
            CompressedOperator.hstack((dense_op(np.eye(3)),
                                       dense_op(np.eye(4))))

    def test_bookkeeping_is_the_blocks_maximum(self, rng):
        # the first block has the larger error, the second the larger tau
        A, B = rng.standard_normal((2, 12, 12))
        ops = (CompressedOperator.from_dense(0.1 * A, tau=0.2),
               CompressedOperator.from_dense(B, tau=0.5))
        assert ops[0].est_rel_frobenius_error > ops[1].est_rel_frobenius_error
        blk = CompressedOperator.hstack(ops)
        assert blk.threshold == max(op.threshold for op in ops)
        assert blk.est_rel_frobenius_error == \
            max(op.est_rel_frobenius_error for op in ops)


class TestSerialization:
    def test_save_load_round_trip(self, rng, tmp_path):
        A = rng.standard_normal((15, 15))
        op = CompressedOperator.from_dense(A, tau=0.5)
        path = tmp_path / "op.smpk"
        op.save(path)
        back = CompressedOperator.load(path)
        assert np.array_equal(back.to_dense(), op.to_dense())
        assert back.threshold == op.threshold
        assert back.est_rel_frobenius_error == op.est_rel_frobenius_error

    @settings(max_examples=40, deadline=None)
    @given(n_rows=st.integers(1, 20), blocks=st.lists(
        st.tuples(st.integers(1, 20), st.floats(0.0, 1.0),
                  st.floats(0.0, 2.0), st.integers(0, 2**32 - 1)),
        min_size=1, max_size=3))
    def test_save_load_round_trip_property(self, n_rows, blocks):
        # n_rows x n_cols blocks of random density and tau; more than one
        # block gives a non-square stack
        ops = []
        for n_cols, density, tau, seed in blocks:
            rng = np.random.default_rng(seed)
            A = scipy.sparse.random(n_rows, n_cols, density=density,
                                    random_state=rng,
                                    data_rvs=rng.standard_normal)
            ops.append(CompressedOperator.from_dense(A.toarray(), tau=tau))
        op = ops[0] if len(ops) == 1 else CompressedOperator.hstack(ops)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "op.smpk")
            op.save(path)
            back = CompressedOperator.load(path)
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(back.matrix, name),
                                  getattr(op.matrix, name))
        assert back.shape == op.shape
        assert back.threshold == op.threshold
        assert back.est_rel_frobenius_error == op.est_rel_frobenius_error

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.smpk"
        path.write_bytes(b"NOPE!" + b"\0" * 64)
        with pytest.raises(OperatorError):
            CompressedOperator.load(path)

    def test_truncated_file_rejected(self, rng, tmp_path):
        path = tmp_path / "op.smpk"
        CompressedOperator.from_dense(rng.standard_normal((4, 4)),
                                      tau=0.5).save(path)
        raw = path.read_bytes()
        for length in range(len(raw)):
            path.write_bytes(raw[:length])
            with pytest.raises(OperatorError):
                CompressedOperator.load(path)

    def test_oversized_header_rejected(self, rng, tmp_path):
        path = tmp_path / "op.smpk"
        CompressedOperator.from_dense(rng.standard_normal((4, 4)),
                                      tau=0.5).save(path)
        raw = bytearray(path.read_bytes())
        raw[5:13] = struct.pack("<Q", 2**40)  # n_rows
        path.write_bytes(bytes(raw))
        with pytest.raises(OperatorError, match="implies"):
            CompressedOperator.load(path)

    @pytest.mark.parametrize("where, value", [
        (5 + 40 + 8, 7),  # indptr[1] past nnz
        (5 + 40 + 8 * 5, 10**6),  # column index 0 out of range
    ], ids=["row-offset", "column-index"])
    def test_corrupt_arrays_rejected(self, tmp_path, where, value):
        path = tmp_path / "op.smpk"
        CompressedOperator.from_dense(np.eye(4), tau=0.5).save(path)
        raw = bytearray(path.read_bytes())
        raw[where:where + 8] = struct.pack("<Q", value)
        path.write_bytes(bytes(raw))
        with pytest.raises(OperatorError, match="corrupt"):
            CompressedOperator.load(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        # a 6 x 6 operator whose last stored value is replaced in the file
        path = tmp_path / "op.smpk"
        CompressedOperator.from_dense(np.eye(6), tau=0.5).save(path)
        raw = bytearray(path.read_bytes())
        raw[-8:] = struct.pack("<d", value)
        path.write_bytes(bytes(raw))
        with pytest.raises(OperatorError, match="non-finite"):
            CompressedOperator.load(path)
