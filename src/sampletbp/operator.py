"""Kernel operators in samplet coordinates: streamed compression,
thresholded sparse storage, matvecs, column Gram blocks, multi-kernel
stacking, Lipschitz estimates."""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .geometry import BudgetError
# assemble_dense stays importable from here: perfbench's tracer rebinds it
from .kernel import assemble_dense, cross_matrix  # noqa: F401
from .samplet import SampletBasis


class OperatorError(ValueError):
    pass


_MAGIC = b"SMPK1"
_HEADER = struct.Struct("<QQQdd")  # n_rows, n_cols, nnz, threshold, error
THRESHOLD_CHUNK = 512  # rows of the dense matrix thresholded at a time


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
        return self._columns().T @ v

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
            fh.write(_HEADER.pack(m.shape[0], m.shape[1], m.nnz,
                                  self.threshold, self.est_rel_frobenius_error))
            fh.write(m.indptr.astype("<u8").tobytes())
            fh.write(m.indices.astype("<u8").tobytes())
            fh.write(m.data.astype("<f8").tobytes())

    @staticmethod
    def load(path):
        with open(path, "rb") as fh:
            if fh.read(5) != _MAGIC:
                raise OperatorError("bad magic bytes in operator file")
            header = fh.read(_HEADER.size)
            if len(header) != _HEADER.size:
                raise OperatorError("truncated operator file header")
            n_rows, n_cols, nnz, tau, est = _HEADER.unpack(header)
            # check the sizes against the file before allocating anything
            expected = len(_MAGIC) + _HEADER.size + 8 * (n_rows + 1 + 2 * nnz)
            actual = os.fstat(fh.fileno()).st_size
            if actual != expected:
                raise OperatorError(
                    f"operator file has {actual} bytes; its header "
                    f"({n_rows} rows, {nnz} nonzeros) implies {expected}")
            indptr = np.frombuffer(fh.read(8 * (n_rows + 1)), dtype="<u8")
            indices = np.frombuffer(fh.read(8 * nnz), dtype="<u8")
            data = np.frombuffer(fh.read(8 * nnz), dtype="<f8")
        mat = scipy.sparse.csr_matrix(
            (data.copy(), indices.astype(np.int64), indptr.astype(np.int64)),
            shape=(n_rows, n_cols))
        try:
            # an out-of-range index would crash the matvecs later
            mat.check_format(full_check=True)
        except ValueError as exc:
            raise OperatorError(f"corrupt operator file: {exc}") from exc
        return CompressedOperator(matrix=mat, threshold=tau,
                                  est_rel_frobenius_error=est)

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_dense(C, tau):
        """Threshold a dense matrix; diagonal entries are always kept."""
        C = np.asarray(C, dtype=float)
        if not np.all(np.isfinite(C)):
            raise OperatorError("non-finite matrix entries")
        n, m = C.shape
        total_sq = 0.0
        dropped_sq = 0.0
        parts = []
        indptr = [0]
        for lo in range(0, n, THRESHOLD_CHUNK):
            hi = min(lo + THRESHOLD_CHUNK, n)
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

    @staticmethod
    def hstack(ops):
        """Horizontal stack [K_1, ..., K_L] acting on stacked coefficients.

        Every dropped entry lies below the largest block threshold, and the
        stack's squared relative error is a weighted mean of the blocks'
        squared errors, so the largest block estimate bounds it.
        """
        ops = tuple(ops)
        if not ops:
            raise OperatorError("hstack needs at least one block")
        if len({op.n_rows for op in ops}) != 1:
            raise OperatorError("all blocks must share n_rows")
        mat = scipy.sparse.hstack([op.matrix for op in ops], format="csr")
        return CompressedOperator(
            matrix=mat, threshold=max(op.threshold for op in ops),
            est_rel_frobenius_error=max(op.est_rel_frobenius_error
                                        for op in ops))


def transform_two_sided(basis: SampletBasis, K):
    """Dense T K T^T via two passes of the fast transform over columns.

    Takes over K: each pass's input is released before the next pass, so
    the peak stays at roughly three N x N arrays when the caller holds no
    other reference to K.  The result is returned as the transposed view of
    the second pass's output, which holds T K^T T^T.
    """
    B = basis.forward(K)  # T K
    del K
    Bt = np.ascontiguousarray(B.T)
    del B
    C = basis.forward(Bt)  # T (T K)^T
    return C.T


PANEL = 512  # kernel columns assembled and transformed at a time
# peak memory of the streamed build: the one N x N float64 buffer plus about
# PANEL_COPIES float64 N x PANEL panels alive at once during kernel
# assembly and the transforms
PANEL_COPIES = 8


def physical_memory():
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def compress_peak_bytes(n):
    """Estimated peak bytes of ``compress`` at N = n."""
    return 8 * n * (n + PANEL_COPIES * min(PANEL, n))


def compress(basis: SampletBasis, spec, cloud, tau, cap=65536):
    """Samplet-compressed kernel operator K^Sigma_eps: exact two-sided
    transform, a-posteriori thresholding, streamed in two passes over
    column panels so that one N x N buffer is alive.

    Pass 1 assembles K[:, J] a panel J at a time and stores (T K[:, J])^T
    as rows J of the buffer (T K)^T.  Pass 2 transforms the buffer's
    columns J into rows J of C = T K T^T, keeps their lower triangle,
    thresholds it at tau, always keeping the diagonal, and accumulates the
    total and dropped squared mass with off-diagonal entries counted twice.
    The kept strict lower triangle is mirrored into the upper one, so the
    operator is exactly symmetric.

    Raises ``BudgetError`` above N = cap, and before allocating when the
    estimated peak, ``compress_peak_bytes``, exceeds the machine's physical
    memory: the N x N buffer plus the panels of assembly and transform; the
    sparse result is left out."""
    n = cloud.n
    if n > cap:
        raise BudgetError(f"kernel assembly capped at N = {cap}")
    need = compress_peak_bytes(n)
    have = physical_memory()
    if need > have:
        raise BudgetError(
            f"compression at N = {n} needs about {need / 2**30:.1f} GiB; "
            f"physical memory is {have / 2**30:.1f} GiB")
    pts = cloud.points
    Bt = np.empty((n, n))
    for lo in range(0, n, PANEL):
        J = slice(lo, min(lo + PANEL, n))
        Bt[J] = basis.forward(cross_matrix(spec, pts, pts[J])).T
    total_sq = 0.0
    dropped_sq = 0.0
    counts, cols, vals = [], [], []
    for lo in range(0, n, PANEL):
        hi = min(lo + PANEL, n)
        # rows lo:hi, columns :hi of C, which is symmetric up to rounding
        S = np.ascontiguousarray(basis.forward(Bt[:, lo:hi])[:hi].T)
        if not np.all(np.isfinite(S)):
            raise OperatorError("non-finite matrix entries")
        lower = np.tri(hi - lo, hi, lo, dtype=bool)  # column <= row
        diag = (np.arange(hi - lo), np.arange(lo, hi))
        sq = S * S
        keep = np.abs(S) >= tau
        keep &= lower
        keep[diag] = True
        drop = lower & ~keep
        total_sq += 2.0 * float(sq.sum(where=lower)) - float(sq[diag].sum())
        dropped_sq += 2.0 * float(sq.sum(where=drop))
        r, c = np.nonzero(keep)
        counts.append(keep.sum(axis=1))
        cols.append(c)
        vals.append(S[r, c])
    del Bt  # the sparse assembly below runs without the N x N buffer
    matrix = _mirror_lower(n, np.concatenate(counts), np.concatenate(cols),
                           np.concatenate(vals))
    est = np.sqrt(dropped_sq / total_sq) if total_sq > 0 else 0.0
    return CompressedOperator(matrix=matrix, threshold=float(tau),
                              est_rel_frobenius_error=float(est))


def _mirror_lower(n, counts, cols, vals):
    """Symmetric CSR matrix from its lower triangle, given row by row with
    sorted columns and the diagonal last: row i is L[i, :i + 1] followed by
    L[i + 1:, i]."""
    lptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=lptr[1:])
    strict = np.ones(cols.size, dtype=bool)
    strict[lptr[1:] - 1] = False
    # the strict lower triangle by columns is the strict upper one by rows
    upper = scipy.sparse.csr_matrix(
        (vals[strict], cols[strict], lptr - np.arange(n + 1)),
        shape=(n, n)).tocsc()
    uptr = upper.indptr.astype(np.int64)
    indptr = lptr + uptr
    indices = np.empty(indptr[-1], dtype=np.int64)
    data = np.empty(indptr[-1])
    lower_at = np.arange(cols.size) + np.repeat(uptr[:-1], counts)
    upper_at = np.arange(upper.nnz) + np.repeat(lptr[1:], np.diff(uptr))
    indices[lower_at] = cols
    data[lower_at] = vals
    indices[upper_at] = upper.indices
    data[upper_at] = upper.data
    return scipy.sparse.csr_matrix((data, indices, indptr), shape=(n, n))


# power iteration of estimate_lipschitz: relative stopping tolerance,
# iteration cap, safety factor on the result and seed of the start vector
LIPSCHITZ_TOL = 1e-4
LIPSCHITZ_MAX_ITER = 100
LIPSCHITZ_SAFETY = 1.01
LIPSCHITZ_SEED = 20240501


def estimate_lipschitz(op):
    """sigma_max(op)^2 by power iteration on op^T op, with a safety factor
    so that 1/estimate is a valid proximal-gradient step size."""
    rng = np.random.default_rng(LIPSCHITZ_SEED)
    n = op.shape[1]
    v = rng.standard_normal(n)
    nv = np.linalg.norm(v)
    if nv == 0:
        raise OperatorError("degenerate start vector")
    v /= nv
    lam = 0.0
    for _ in range(LIPSCHITZ_MAX_ITER):
        s = op.matvec_transpose(op.matvec(v))
        ns = np.linalg.norm(s)
        if ns == 0.0:
            raise OperatorError("zero operator in Lipschitz estimate")
        lam_new = float(v @ s)
        v = s / ns
        if lam > 0 and abs(lam_new - lam) <= LIPSCHITZ_TOL * abs(lam_new):
            lam = lam_new
            break
        lam = lam_new
    return lam * LIPSCHITZ_SAFETY
