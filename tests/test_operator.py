import threading
from functools import partial
from math import comb

import numpy as np
import pytest
import scipy.sparse

from conftest import dense_op, random_spd, traced_peak, two_sided
from sampletbp import (BudgetError, CompressedOperator, KernelSpec,
                       PointCloud, SolverConfig, assemble_dense,
                       build_cluster_tree, build_samplet_basis, compress,
                       estimate_lipschitz, fista, ir_mrssn)
from sampletbp.kernel import cross_matrix
from sampletbp.operator import (KEPT_BYTES, PANEL, OperatorError, _mirror,
                                compress_peak_bytes)


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

    @pytest.mark.parametrize("n", [256, 2 * PANEL + 37])
    def test_exactly_symmetric(self, rng, n):
        # the CSR arrays are those of the CSC, so the matrix is its own
        # transpose: one leaf pass, and pairs of clusters split by the
        # recursion
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

    def test_peak_memory_below_dense(self, rng):
        # the largest buffers are the kernel blocks of at most PANEL x PANEL
        # points and their transforms, not N x N, and the peak is within
        # the estimate: the blocks and the dense subtree transforms plus
        # KEPT_BYTES per kept entry; q = 3 as
        # in the benchmarks, where the kept entries are 14 % of N^2
        n = 2 * PANEL + 37
        cloud, basis = make_setup(rng, n, q=3)
        ops = []
        peak = traced_peak(lambda: ops.append(
            compress(basis, MATERN, cloud, tau=1e-4)))
        kept = (ops[0].nnz + n) // 2  # the diagonal and one of each pair
        assert peak < 8 * n * n
        assert peak <= compress_peak_bytes(n) + KEPT_BYTES * kept

    def test_peak_memory_below_root_block(self, rng):
        # the N/2 x N/2 block between the root's children alone takes 2 N^2
        # bytes; the build holds blocks of pairs of smaller clusters
        n = 8 * PANEL
        cloud, basis = make_setup(rng, n, q=3)
        peak = traced_peak(lambda: compress(basis, MATERN, cloud, tau=1e-4))
        assert peak < 2 * n * n

    def test_nonfinite_kernel_entry_refused(self, rng, monkeypatch):
        # a NaN kernel entry in one base pair below the root's children, the
        # first child of the left and the second child of the right, reaches
        # the samplet entries of that pair, whose threshold refuses it;
        # points in tree order
        n = 2 * PANEL + 37
        cloud, basis = make_setup(rng, n)
        left, right = basis.tree.root.children
        pts = cloud.points[basis.tree.permutation]
        block = [pts[c.lo:c.hi] for c in (left.children[0],
                                          right.children[1])]

        def poisoned(spec, xs, ys):
            K = cross_matrix(spec, xs, ys)
            if any(np.array_equal(xs, p) and np.array_equal(ys, q)
                   for p, q in (block, block[::-1])):
                K[3, 5] = np.nan
            return K

        monkeypatch.setattr("sampletbp.operator.cross_matrix", poisoned)
        with pytest.raises(OperatorError, match="non-finite"):
            compress(basis, MATERN, cloud, tau=1e-4)

    def test_compress_starts_no_thread(self, rng, monkeypatch):
        # several base pairs, all built in the calling thread
        def start(self):
            raise AssertionError("thread started")

        monkeypatch.setattr(threading.Thread, "start", start)
        n = 2 * PANEL + 37
        cloud, basis = make_setup(rng, n)
        assert compress(basis, MATERN, cloud, tau=1e-4).shape == (n, n)

    def test_memory_budget(self, rng, monkeypatch):
        # the estimate is checked before any kernel entry is computed
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


def kept_part(rng, rows, cols, density, diagonal=False):
    """A part of kept entries of C[rows][:, cols] as ``_threshold`` returns
    it, drawn at random, some exactly zero: with ``diagonal`` the rows are
    the leading columns, the diagonal is kept and nothing above C's
    diagonal in the leading square."""
    h = rows.size
    keep = rng.random((h, cols.size)) < density
    if diagonal:
        keep[:, :h] &= rows[:, None] >= rows
        keep[np.arange(h), np.arange(h)] = True
    flat = np.flatnonzero(keep).astype(np.int32)
    vals = rng.standard_normal(flat.size)
    vals[::7] = 0.0
    return rows.astype(np.int32), cols.astype(np.int32), flat, vals


def mirror_parts(rng, case):
    """N and parts whose entries are distinct pairs, one of each."""
    n = 2**15 + 40 if case == "wide" else 40
    p = rng.permutation(n)
    a, b, c = p[:12], p[12:30], p[30:40]
    part = partial(kept_part, rng)
    none = np.array([], dtype=np.int32)
    return n, {
        # rows c shared by two parts; b's square with four of c's columns;
        # empty parts, one without columns and one keeping nothing
        "parts": lambda: [
            part(a, a, 0.5, True), part(b, none, 0.5),
            part(b, np.r_[b, c[:4]], 0.4, True), part(c, a[:6], 0.5),
            part(c, a[6:], 0.5), part(c, c, 0.0, True), part(a, b, 0.0)],
        "one-part": lambda: [part(p, p, 0.6, True)],
        "diagonal-only": lambda: [part(a, a, 0.0, True), part(b, a, 0.5)],
        # 2^15 + 40 columns, past the int16 sort keys, with and without a
        # diagonal
        "wide": lambda: [part(p[:3], p, 0.002, True),
                         part(p[3:5], p[5:], 0.002)],
        "empty": lambda: [part(a, b, 0.0), part(none, a, 0.5),
                          part(c, none, 0.5)],
    }[case]()


class TestMirror:
    @pytest.mark.parametrize("case", ["parts", "one-part", "diagonal-only",
                                      "wide", "empty"])
    def test_matches_coo_conversion(self, rng, case):
        # the oracle converts the parts' entries and their off-diagonal
        # mirror images as COO triples
        n, parts = mirror_parts(rng, case)
        kept = [(r[f // c.size], c[f % c.size], v)
                for r, c, f, v in parts if f.size]
        rows, cols, vals = (np.concatenate([np.empty(0, t)]
                                           + [e[i] for e in kept])
                            for i, t in enumerate((np.int32, np.int32, float)))
        off = rows != cols
        oracle = scipy.sparse.csr_matrix(
            (np.r_[vals, vals[off]], (np.r_[rows, cols[off]],
                                      np.r_[cols, rows[off]])),
            shape=(n, n))
        matrix = _mirror(n, parts)
        assert parts == []
        for part in ("indptr", "indices", "data"):
            got, want = getattr(matrix, part), getattr(oracle, part)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert matrix.indices.dtype == scipy.sparse.get_index_dtype(maxval=n)
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
        # 1 and 7 of the 25 or 30 columns, and all of them at once; each
        # chunk multiplies only over the rows of K its columns touch, which
        # is bitwise the product over all of K's rows
        cloud, basis = make_setup(rng, 300)
        op = compress(basis, MATERN, cloud, tau=1e-4)
        if kind == "hstack":
            op = CompressedOperator.hstack(
                [op, compress(basis, KernelSpec("matern32", length=0.1),
                              cloud, tau=1e-4)])
        rows = rng.choice(op.n_cols, n_rows, replace=False)
        cols = rng.choice(op.n_cols, n_cols, replace=False)
        whole = (op.matrix[:, rows].T @ op.matrix[:, cols]).toarray()
        Kt = op._transpose()
        every_row = Kt[rows] @ Kt[cols].T.toarray()
        if chunk is not None:
            monkeypatch.setattr("sampletbp.operator.GRAM_CHUNK",
                                chunk * max(op.n_rows, n_rows))
        G = op.gram_submatrix(rows, cols)
        assert G.shape == (n_rows, n_cols)
        assert np.array_equal(G, whole)
        assert np.array_equal(G, every_row)


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
