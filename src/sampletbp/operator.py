"""Kernel operators in samplet coordinates: thresholded sparse storage,
matvecs, column Gram blocks, multi-kernel stacking, Lipschitz estimates."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.io
import scipy.sparse

from .kernel import assemble_dense
from .samplet import SampletBasis


class OperatorError(ValueError):
    pass


_MAGIC = b"SMPK1"


@dataclass
class CompressedOperator:
    """Sparse matrix in samplet coordinates with compression bookkeeping."""

    matrix: scipy.sparse.csr_matrix
    threshold: float
    est_rel_frobenius_error: float
    _csc: scipy.sparse.csc_matrix = field(default=None, repr=False)  # type: ignore

    @property
    def shape(self):
        return self.matrix.shape

    @property
    def n_rows(self):
        return self.matrix.shape[0]

    @property
    def n_cols(self):
        return self.matrix.shape[1]

    @property
    def nnz(self):
        return self.matrix.nnz

    @property
    def nnz_per_row_avg(self):
        return self.matrix.nnz / self.matrix.shape[0]

    def matvec(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.n_cols:
            raise OperatorError("matvec length mismatch")
        return self.matrix @ v

    def matvec_transpose(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.n_rows:
            raise OperatorError("matvec_transpose length mismatch")
        return self._columns() .T @ v

    rmatvec = matvec_transpose

    def diagonal(self):
        return self.matrix.diagonal()

    def _columns(self):
        if self._csc is None:
            self._csc = self.matrix.tocsc()
        return self._csc

    def cols_matrix(self, idx):
        """CSC matrix of the selected columns, in the given order."""
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_cols):
            raise OperatorError("column index out of range")
        return self._columns()[:, idx]

    def gram_submatrix(self, rows_idx, cols_idx):
        """Dense Gram block of selected columns: (a, b) -> col_a . col_b."""
        A = self.cols_matrix(rows_idx)
        B = self.cols_matrix(cols_idx)
        return np.asarray((A.T @ B).todense())

    def to_dense(self):
        return self.matrix.toarray()

    # -- serialization -----------------------------------------------------

    def save(self, path):
        """Binary layout: magic 'SMPK1', then little-endian u64 n_rows,
        n_cols, nnz, f64 threshold, f64 est_rel_frobenius_error, u64 row
        offsets (n_rows + 1), u64 column indices (nnz), f64 values (nnz)."""
        m = self.matrix
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<QQQdd", m.shape[0], m.shape[1], m.nnz,
                                 self.threshold, self.est_rel_frobenius_error))
            fh.write(m.indptr.astype("<u8").tobytes())
            fh.write(m.indices.astype("<u8").tobytes())
            fh.write(m.data.astype("<f8").tobytes())

    @staticmethod
    def load(path):
        with open(path, "rb") as fh:
            if fh.read(5) != _MAGIC:
                raise OperatorError("bad magic bytes in operator file")
            n_rows, n_cols, nnz, tau, est = struct.unpack("<QQQdd", fh.read(40))
            indptr = np.frombuffer(fh.read(8 * (n_rows + 1)), dtype="<u8")
            indices = np.frombuffer(fh.read(8 * nnz), dtype="<u8")
            data = np.frombuffer(fh.read(8 * nnz), dtype="<f8")
        mat = scipy.sparse.csr_matrix(
            (data.copy(), indices.astype(np.int64), indptr.astype(np.int64)),
            shape=(n_rows, n_cols))
        return CompressedOperator(matrix=mat, threshold=tau,
                                  est_rel_frobenius_error=est)

    def export_matrix_market(self, path):
        scipy.io.mmwrite(path, self.matrix)

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_dense(C, tau, chunk=512):
        """Threshold a dense matrix; diagonal entries are always kept."""
        C = np.asarray(C, dtype=float)
        if not np.all(np.isfinite(C)):
            raise OperatorError("non-finite matrix entries")
        n, m = C.shape
        total_sq = 0.0
        dropped_sq = 0.0
        parts = []
        indptr = [0]
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            block = C[lo:hi]
            total_sq += float(np.einsum("ij,ij->", block, block))
            mask = np.abs(block) >= tau
            rows = np.arange(lo, hi)
            diag = rows[rows < m]
            mask[diag - lo, diag] = True
            dropped = block[~mask]
            dropped_sq += float(dropped @ dropped)
            for r in range(lo, hi):
                cols = np.nonzero(mask[r - lo])[0]
                vals = block[r - lo, cols]
                parts.append((cols, vals))
                indptr.append(indptr[-1] + cols.size)
        indices = np.concatenate([p[0] for p in parts]) if parts else np.empty(0, np.int64)
        data = np.concatenate([p[1] for p in parts]) if parts else np.empty(0)
        mat = scipy.sparse.csr_matrix(
            (data, indices.astype(np.int64), np.asarray(indptr, dtype=np.int64)),
            shape=(n, m))
        est = np.sqrt(dropped_sq / total_sq) if total_sq > 0 else 0.0
        return CompressedOperator(matrix=mat, threshold=float(tau),
                                  est_rel_frobenius_error=float(est))


def transform_two_sided(basis: SampletBasis, K):
    """Dense T K T^T via two passes of the fast transform over columns."""
    B = basis.forward(K)            # T K
    C = basis.forward(np.ascontiguousarray(B.T))  # T (T K)^T
    del B
    return np.ascontiguousarray(C.T)


def compress(basis: SampletBasis, spec, cloud, tau, cap=65536):
    """Samplet-compressed kernel operator K^Sigma_eps at desk scale: dense
    assembly, exact two-sided transform, a-posteriori thresholding.

    Buffers are released between the two transform passes so the peak
    memory stays at roughly three N x N arrays.
    """
    if cloud.n > cap:
        raise OperatorError(f"dense compression path capped at N = {cap}")
    K = assemble_dense(spec, cloud, cap=cap)
    B = basis.forward(K)
    del K
    Bt = np.ascontiguousarray(B.T)
    del B
    C = basis.forward(Bt)  # (T K T^T)^T for symmetric K
    del Bt
    # the exact transform of a symmetric matrix is symmetric up to rounding;
    # enforcing it keeps the sparsity pattern symmetric after thresholding
    C += C.T
    C *= 0.5
    return CompressedOperator.from_dense(C, tau)


@dataclass
class BlockOperator:
    """Horizontal stack [K_1, ..., K_L] acting on stacked coefficients."""

    blocks: tuple

    def __post_init__(self):
        if len(self.blocks) < 1:
            raise OperatorError("block operator needs at least one block")
        rows = {b.n_rows for b in self.blocks}
        if len(rows) != 1:
            raise OperatorError("all blocks must share n_rows")

    @property
    def n_rows(self):
        return self.blocks[0].n_rows

    @property
    def n_cols(self):
        return sum(b.n_cols for b in self.blocks)

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    def _offsets(self):
        offs = [0]
        for b in self.blocks:
            offs.append(offs[-1] + b.n_cols)
        return offs

    def split(self, v):
        offs = self._offsets()
        return [np.asarray(v)[offs[i]:offs[i + 1]] for i in range(len(self.blocks))]

    def matvec(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.n_cols:
            raise OperatorError("matvec length mismatch")
        out = np.zeros(self.n_rows)
        for b, part in zip(self.blocks, self.split(v)):
            out += b.matvec(part)
        return out

    def matvec_transpose(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.n_rows:
            raise OperatorError("matvec_transpose length mismatch")
        return np.concatenate([b.matvec_transpose(v) for b in self.blocks])

    rmatvec = matvec_transpose

    def cols_matrix(self, idx):
        """CSC matrix of the selected columns, in the given order."""
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_cols):
            raise OperatorError("column index out of range")
        offs = self._offsets()
        which = np.searchsorted(offs, idx, side="right") - 1
        # one slice per block, then undo the grouping by block
        parts = [b.cols_matrix(idx[which == i] - offs[i])
                 for i, b in enumerate(self.blocks)]
        grouped = scipy.sparse.hstack(parts, format="csc")
        # grouped column k is idx[order[k]]
        order = np.argsort(which, kind="stable")
        return grouped[:, np.argsort(order)]

    def gram_submatrix(self, rows_idx, cols_idx):
        A = self.cols_matrix(rows_idx)
        B = self.cols_matrix(cols_idx)
        return np.asarray((A.T @ B).todense())


def estimate_lipschitz(op, tol=1e-4, max_iter=100, safety=1.01, seed=20240501):
    """sigma_max(op)^2 by power iteration on op^T op, with a safety factor
    so that 1/estimate is a valid proximal-gradient step size."""
    rng = np.random.default_rng(seed)
    n = op.shape[1]
    v = rng.standard_normal(n)
    nv = np.linalg.norm(v)
    if nv == 0:
        raise OperatorError("degenerate start vector")
    v /= nv
    lam = 0.0
    for _ in range(max_iter):
        s = op.matvec_transpose(op.matvec(v))
        ns = np.linalg.norm(s)
        if ns == 0.0:
            raise OperatorError("zero operator in Lipschitz estimate")
        lam_new = float(v @ s)
        v = s / ns
        if lam > 0 and abs(lam_new - lam) <= tol * abs(lam_new):
            lam = lam_new
            break
        lam = lam_new
    return lam * safety
