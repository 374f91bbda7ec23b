"""Kernel operators in samplet coordinates: streamed compression,
thresholded sparse storage, matvecs, column Gram blocks, multi-kernel
stacking, Lipschitz estimates."""

from __future__ import annotations

import os
import struct
from concurrent.futures import ThreadPoolExecutor
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
    # K^T as CSR over the CSC arrays, built once for matvec_transpose
    _transposed: scipy.sparse.csr_matrix = field(default=None, repr=False)  # type: ignore

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
        if self._transposed is None:
            self._transposed = self._columns().T
        return self._transposed @ v

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
        _check_threshold(tau)
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


PANEL = 512  # kernel columns assembled and transformed at a time
STRIP = 64  # rows of a transformed panel stored transposed at a time
# peak memory of the streamed build: the one N x N float64 buffer plus, for
# each worker, PANEL_COPIES float64 N x PANEL panels.  A worker holds about
# three at once (kernel panel, permuted copy and transform output); the
# rest covers the interpreter and libraries, so that at N = 10^4 the
# estimate is at or above the measured peak RSS of the whole process with
# one, two or three workers
PANEL_COPIES = 8


def physical_memory():
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def panel_workers(n):
    """Threads of ``compress`` at N = n: one per core this process may run
    on, at most one per panel, and no more than physical memory holds
    beside the N x N buffer; at least one."""
    panels = -(-n // PANEL)
    per_worker = 8 * n * PANEL_COPIES * min(PANEL, n)
    fit = (physical_memory() - 8 * n * n) // per_worker
    return max(1, min(len(os.sched_getaffinity(0)), panels, fit))


def compress_peak_bytes(n):
    """Estimated peak bytes of ``compress`` at N = n."""
    return 8 * n * (n + panel_workers(n) * PANEL_COPIES * min(PANEL, n))


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

    The panels of each pass run on a pool of ``panel_workers(n)`` threads,
    one per available core (numpy, BLAS and cdist release the interpreter
    lock); a single panel runs in the calling thread.  Pass 1 panels write
    disjoint rows of the buffer, pass 2 panels only read it, and their
    results are combined in panel order, so the operator and its error
    estimate do not depend on the number of workers.

    Raises ``BudgetError`` above N = cap, and before allocating when the
    estimated peak, ``compress_peak_bytes``, exceeds the machine's physical
    memory: the N x N buffer plus the panels of every worker; the sparse
    result is left out."""
    _check_threshold(tau)
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

    def transform_panel(J):
        TK = basis.forward(cross_matrix(spec, pts, pts[J]))
        # the transposing store in strips: a source strip and its target
        # stay in cache, where one store of the whole panel does not
        for lo in range(0, n, STRIP):
            Bt[J, lo:lo + STRIP] = TK[lo:lo + STRIP].T

    def threshold_panel(J):
        # C^T[:hi, J], which is C[J, :hi]^T up to rounding
        return _threshold_lower(basis.forward(Bt[:, J])[:J.stop], J.start,
                                tau)

    panels = [slice(lo, min(lo + PANEL, n)) for lo in range(0, n, PANEL)]
    if len(panels) == 1:
        transform_panel(panels[0])
        parts = [threshold_panel(panels[0])]
    else:
        with ThreadPoolExecutor(panel_workers(n)) as pool:
            list(pool.map(transform_panel, panels))
            parts = list(pool.map(threshold_panel, panels))
    del Bt  # the sparse assembly below runs without the N x N buffer
    total, dropped, counts, cols, vals = zip(*parts)  # in panel order
    total_sq, dropped_sq = sum(total), sum(dropped)
    matrix = _mirror_lower(n, np.concatenate(counts), np.concatenate(cols),
                           np.concatenate(vals))
    est = np.sqrt(dropped_sq / total_sq) if total_sq > 0 else 0.0
    return CompressedOperator(matrix=matrix, threshold=float(tau),
                              est_rel_frobenius_error=float(est))


def _check_threshold(tau):
    # a NaN tau fails every comparison and would keep only the diagonal
    if not tau >= 0:
        raise OperatorError(f"threshold tau must be nonnegative, not {tau}")


def _threshold_lower(X, lo, tau):
    """Threshold rows lo:lo + h of the lower triangle of a symmetric matrix
    C, given as X = C[lo:lo + h, :lo + h]^T, and overwrite X.

    Keeps the entries with |C| >= tau and the diagonal.  Returns the total
    and the dropped squared mass of the rows' share of C (off-diagonal
    entries counted twice), the kept count of each row and the kept columns
    and values in row-major order."""
    if not np.all(np.isfinite(X)):
        raise OperatorError("non-finite matrix entries")
    h = X.shape[1]
    upper = np.tril(np.ones((h, h), dtype=bool), -1)  # column of C > row
    X[lo:][upper] = 0.0
    keep = X >= tau
    keep |= X <= -tau
    keep[lo:] &= ~upper  # only for tau <= 0 can a zero pass
    diag = (np.arange(lo, lo + h), np.arange(h))
    keep[diag] = True
    d = X[diag]
    total = 2.0 * float(np.vdot(X, X)) - float(d @ d)
    c, r = np.nonzero(keep)
    order = np.argsort(r, kind="stable")  # by row, then column
    r, c = r[order], c[order]
    vals = X[c, r]
    # the dropped mass is summed directly: total minus kept would cancel
    X[c, r] = 0.0
    dropped = 2.0 * float(np.vdot(X, X))
    return total, dropped, np.bincount(r, minlength=h), c, vals


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
