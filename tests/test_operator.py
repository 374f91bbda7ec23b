import os
import struct
import tempfile
from math import comb

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_op, random_spd
from sampletbp import (BudgetError, CompressedOperator, KernelSpec,
                       PointCloud, assemble_dense, build_cluster_tree,
                       build_samplet_basis, compress, estimate_lipschitz)
from sampletbp.operator import (PANEL, OperatorError, compress_peak_bytes,
                                transform_two_sided)


MATERN = KernelSpec("matern32", length=0.25)


def make_setup(rng, n, d=2, q=1):
    cloud = PointCloud(rng.uniform(-0.5, 0.5, (n, d)))
    m_q = comb(q + d, d)
    tree = build_cluster_tree(cloud, 2 * m_q)
    return cloud, build_samplet_basis(tree, cloud, q)


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

    def test_two_sided_transform(self, rng):
        cloud, basis = make_setup(rng, 128)
        K = assemble_dense(MATERN, cloud)
        Td = basis.to_dense()
        assert np.abs(transform_two_sided(basis, K) - Td @ K @ Td.T).max() \
            <= 1e-12

    def test_diagonal_kept(self, rng):
        cloud, basis = make_setup(rng, 256)
        op = compress(basis, MATERN, cloud, tau=1e-1)
        assert np.all(op.diagonal() != 0.0)

    def test_pattern_symmetric(self, rng):
        cloud, basis = make_setup(rng, 256)
        op = compress(basis, MATERN, cloud, tau=1e-4)
        pattern = (op.matrix != 0)
        assert (pattern != pattern.T).nnz == 0

    def test_cap(self, rng):
        cloud, basis = make_setup(rng, 32)
        with pytest.raises(BudgetError):
            compress(basis, MATERN, cloud, tau=1e-4, cap=16)

    def test_streamed_matches_dense_oracle(self, rng):
        # several panels, the last one ragged
        n = 2 * PANEL + 37
        cloud, basis = make_setup(rng, n)
        K = assemble_dense(MATERN, cloud)
        Td = basis.to_dense()
        dense = Td @ K @ Td.T
        op = compress(basis, MATERN, cloud, tau=0.0)
        assert np.abs(op.to_dense() - dense).max() <= 1e-12
        tau = 1e-4
        op = compress(basis, MATERN, cloud, tau=tau)
        assert (op.matrix != op.matrix.T).nnz == 0
        assert op.matrix.has_canonical_format
        assert np.all(op.diagonal() != 0.0)
        sym = 0.5 * (dense + dense.T)
        mask = np.abs(sym) >= tau
        np.fill_diagonal(mask, True)
        dropped = sym[~mask]
        oracle = np.sqrt(float(dropped @ dropped) / float(np.sum(sym ** 2)))
        assert abs(op.est_rel_frobenius_error - oracle) <= 1e-12

    def test_memory_budget(self, rng, monkeypatch):
        # the estimate is checked before any kernel entry is computed
        cloud, basis = make_setup(rng, 32)
        need = compress_peak_bytes(32)
        memory = "sampletbp.operator.physical_memory"
        monkeypatch.setattr(memory, lambda: need - 1)
        with monkeypatch.context() as m:
            m.setattr("sampletbp.operator.cross_matrix",
                      lambda *args, **kw: pytest.fail("assembled"))
            with pytest.raises(BudgetError, match="physical memory"):
                compress(basis, MATERN, cloud, tau=1e-4)
        monkeypatch.setattr(memory, lambda: need)
        assert compress(basis, MATERN, cloud, tau=1e-4).shape == (32, 32)


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
        dense_ref = transform_two_sided(basis, K)
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
        with pytest.raises(OperatorError):
            op.gram_submatrix([0, 4], [0])


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
            assert np.array_equal(blk.cols_matrix(idx).toarray(), C[:, idx])
            ref = (C.T @ C)[np.ix_(idx, idx)]
            assert np.abs(blk.gram_submatrix(idx, idx) - ref).max() <= 1e-12
        assert blk.cols_matrix([]).shape == (64, 0)

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
