"""Kernel operators in samplet coordinates: compression by recursion over
the cluster tree, thresholded sparse storage, matvecs, column Gram blocks,
multi-kernel stacking, Lipschitz estimates."""

from __future__ import annotations

import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from . import geometry
# assemble_dense stays importable from here: perfbench's tracer rebinds it
from .kernel import assemble_dense, cross_matrix  # noqa: F401
from .samplet import SampletBasis


class OperatorError(ValueError):
    pass


_MAGIC = b"SMPK1"
_HEADER = struct.Struct("<QQQdd")  # n_rows, n_cols, nnz, threshold, error
GRAM_CHUNK = 256  # rows of a Gram block computed at a time


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
        """Dense Gram block of selected columns: (a, b) -> col_a . col_b.

        Built GRAM_CHUNK rows at a time into the result, so that no sparse
        copy of the whole block exists; a row's sums run in the same order
        as in one product."""
        At = self.cols_matrix(rows_idx).T  # CSR
        B = self.cols_matrix(cols_idx).tocsr()  # as the product converts it
        G = np.empty((At.shape[0], B.shape[1]))
        for lo in range(0, G.shape[0], GRAM_CHUNK):
            (At[lo:lo + GRAM_CHUNK] @ B).toarray(out=G[lo:lo + GRAM_CHUNK])
        return G

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
        keep = np.abs(C) >= tau
        np.fill_diagonal(keep, True)
        rows, cols = np.nonzero(keep)
        mat = scipy.sparse.csr_matrix((C[rows, cols], (rows, cols)),
                                      shape=C.shape)
        total_sq = float(np.einsum("ij,ij->", C, C))
        dropped = C[~keep]
        est = (np.sqrt(float(dropped @ dropped) / total_sq)
               if total_sq > 0 else 0.0)
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
# peak memory of the build: the root's ceil(N/2) x floor(N/2) float64
# buffer plus, for each worker, PANEL_COPIES float64 ceil(N/2) x PANEL
# panels.  A worker holds two at once (the kernel panel beside its profile
# temporary or its transform); the rest covers the kept entries, the
# interpreter and libraries, so that for cartoon at N = 6000 and spss at
# N = 10^4 the estimate is at or above the measured peak RSS of the whole
# process with one or two workers (one worker at N = 6000 needs 11)
PANEL_COPIES = 12


def panel_workers(n):
    """Threads of ``compress`` at N = n: one per core this process may run
    on, at most one per column panel of the root's passes, and no more than
    physical memory holds beside the root's buffer; at least one."""
    half = n - n // 2
    panels = -(-half // PANEL)
    per_worker = 8 * half * PANEL_COPIES * min(PANEL, n)
    fit = (geometry.physical_memory() - 8 * half * (n // 2)) // per_worker
    return max(1, min(len(os.sched_getaffinity(0)), panels, fit))


def compress_peak_bytes(n):
    """Estimated peak bytes of ``compress`` at N = n."""
    half = n - n // 2
    return 8 * half * (n // 2 + panel_workers(n) * PANEL_COPIES
                       * min(PANEL, n))


def compress(basis: SampletBasis, spec, cloud, tau):
    """Samplet-compressed kernel operator K^Sigma_eps: exact two-sided
    transform C = T K T^T, a-posteriori thresholding, built by recursion
    over the cluster tree.

    The transform of a node with children a and b is T_a (+) T_b followed
    by the node's block Q, which mixes only the children's scaling rows.
    So C at the node consists of the children's diagonal blocks, computed
    by recursion, and D = T_a K_ab T_b^T, mixed only in those rows and
    columns.  D is built in two passes over column panels into one |b| x
    |a| buffer: pass 1 assembles K_ab a panel J of b's points at a time and
    stores (T_a K_ab[:, J])^T as rows J of the buffer, pass 2 transforms
    the buffer's columns I into D[I, :]^T.  A node with at most PANEL
    points, or a leaf, transforms its kernel block on both sides at once.
    Kernel entries are evaluated on the points in tree order, each block of
    K once.

    An entry of C between two samplets is final once it is computed, so it
    is thresholded at tau then, always keeping the diagonal; the total and
    dropped squared mass count off-diagonal entries twice.  Only the
    scaling rows of each node travel up; at the root they are thresholded
    too.  The kept entries are mirrored, so the operator is exactly
    symmetric.

    The panels of each pass run on a pool of ``panel_workers(n)`` threads
    (numpy, BLAS and cdist release the interpreter lock); a single panel
    runs in the calling thread.  Pass 1 panels write disjoint rows of the
    buffer, pass 2 panels only read it, and all results are combined in a
    fixed order, so the operator and its error estimate do not depend on
    the number of workers.

    Before allocating, ``require_memory`` checks the estimated peak,
    ``compress_peak_bytes``: the root's buffer plus the panels of every
    worker; the sparse result is left out."""
    _check_threshold(tau)
    n = cloud.n
    geometry.require_memory(compress_peak_bytes(n), f"compression at N = {n}")
    with ThreadPoolExecutor(panel_workers(n)) as pool:
        build = _Build(basis, spec, cloud.points[basis.tree.permutation], tau,
                       pool.map)
        build.node(basis.root_block, root=True)
    # sums and kept entries in a fixed order; _mirror frees the entries
    total_sq = sum(part[0] for part in build.parts)
    dropped_sq = sum(part[1] for part in build.parts)
    kept = [part[2:] for part in build.parts]
    del build
    matrix = _mirror(n, kept)
    est = np.sqrt(dropped_sq / total_sq) if total_sq > 0 else 0.0
    return CompressedOperator(matrix=matrix, threshold=float(tau),
                              est_rel_frobenius_error=float(est))


class _Build:
    """State of one ``compress`` call: its inputs, with the points in tree
    order, the thread pool's ``map`` and the thresholded parts of C, in the
    order they are made."""

    def __init__(self, basis, spec, points, tau, pool_map):
        self.basis, self.spec, self.points, self.tau = basis, spec, points, tau
        self.map = pool_map
        self.parts = []

    def node(self, blk, root=False):
        """Threshold the entries of C between samplets of blk's subtree, or
        all of them at the root, and return C_blk's scaling rows in blk's
        local order."""
        basis = self.basis
        if blk.node.size <= PANEL or not blk.children:
            pts = self.points[blk.node.lo : blk.node.hi]
            C = basis.transform_subtree(  # all of C_blk
                blk, basis.transform_subtree(
                    blk, cross_matrix(self.spec, pts, pts)).T)
        else:
            C = self._split(blk, self.node(blk.children[0]),
                            self.node(blk.children[1]))
        m = blk.m_scal
        k = 0 if root else m  # the first row and column thresholded here
        glob = basis.local_order if root else blk.glob
        self.parts.append(_threshold(C[k:, k:], glob[:C.shape[0] - k],
                                     glob, self.tau, diagonal=True))
        return C[:m].copy()

    def _split(self, blk, S_a, S_b):
        """Rows [scaling, own samplets] of C_blk in blk's local order, from
        the children's scaling rows S_a and S_b; thresholds the entries of
        D between samplets of the two children."""
        a, b = blk.children
        ma, mb = a.m_scal, b.m_scal
        sa, sb = a.node.size, b.node.size
        pts_a = self.points[a.node.lo : a.node.hi]
        pts_b = self.points[b.node.lo : b.node.hi]
        Bt = np.empty((sb, sa))  # D^T before T_b
        basis, spec, tau = self.basis, self.spec, self.tau

        def transform_panel(J):
            TK = basis.transform_subtree(a, cross_matrix(spec, pts_a,
                                                         pts_b[J]))
            # the transposing store in strips: a source strip and its
            # target stay in cache, where one store of the whole panel
            # does not
            for lo in range(0, sa, STRIP):
                Bt[J, lo:lo + STRIP] = TK[lo:lo + STRIP].T

        def threshold_panel(I):
            X = basis.transform_subtree(b, Bt[:, I])  # D[I, :]^T
            scal_cols = X[:mb].copy()  # D[I, :mb]^T
            scal_rows = X[:, :max(ma - I.start, 0)].copy()  # D[:ma, :]^T
            lo = max(I.start, ma)
            part = _threshold(X[mb:, lo - I.start:], b.glob,
                              a.glob[lo - ma:I.stop - ma], tau)
            return part, scal_cols, scal_rows

        self._run(transform_panel, sb)
        results = self._run(threshold_panel, sa)
        del Bt
        parts, scal_cols, scal_rows = zip(*results)
        self.parts.extend(parts)
        # the children's scaling rows of C before blk's block Q, in the
        # order of T_a (+) T_b
        Z = np.empty((ma + mb, sa + sb))
        Z[:ma, :sa] = S_a
        Z[:ma, sa:] = np.concatenate(scal_rows, axis=1).T
        Z[ma:, :sa] = np.concatenate(scal_cols, axis=1)
        Z[ma:, sa:] = S_b
        Y = blk.Q.T @ Z
        W = Y[:, np.r_[:ma, sa:sa + mb]] @ blk.Q
        return np.concatenate([W, Y[:, ma:sa], Y[:, sa + mb:]], axis=1)

    def _run(self, fn, size):
        """fn over the column panels of range(size), results in order."""
        panels = [slice(lo, min(lo + PANEL, size))
                  for lo in range(0, size, PANEL)]
        if len(panels) == 1:
            return [fn(panels[0])]
        return list(self.map(fn, panels))


def _check_threshold(tau):
    # a NaN tau fails every comparison and would keep only the diagonal
    if not tau >= 0:
        raise OperatorError(f"threshold tau must be nonnegative, not {tau}")


def _threshold(X, rows, cols, tau, diagonal=False):
    """Threshold the block X = C[rows][:, cols] of a symmetric matrix C and
    overwrite X.  The rows are none of the block's columns, or with
    ``diagonal`` its leading columns, whose entries above C's diagonal are
    left to their mirror images.

    Keeps the entries with |C| >= tau and the diagonal.  Returns the total
    and the dropped squared mass of the block's share of C (off-diagonal
    entries counted twice) and the rows, columns and values kept."""
    if not np.all(np.isfinite(X)):
        raise OperatorError("non-finite matrix entries")
    keep = X >= tau
    keep |= X <= -tau
    d = 0.0
    if diagonal:
        h = X.shape[0]
        upper = rows[:, None] < rows  # above C's diagonal
        X[:, :h][upper] = 0.0
        keep[:, :h] &= ~upper  # only for tau <= 0 can a zero pass
        diag = (np.arange(h), np.arange(h))
        keep[diag] = True
        d = X[diag]
        d = float(d @ d)
    total = 2.0 * float(np.einsum("ij,ij->", X, X)) - d
    r, c = np.nonzero(keep)
    vals = X[r, c]
    # the dropped mass is summed directly: total minus kept would cancel
    X[r, c] = 0.0
    dropped = 2.0 * float(np.einsum("ij,ij->", X, X))
    return total, dropped, rows[r], cols[c], vals


def _mirror(n, parts):
    """Exactly symmetric canonical CSR matrix from kept entries (rows,
    cols, vals), one of each mirrored pair and the diagonal.  The list of
    parts is emptied before the conversion."""
    # the index type scipy keeps, so that the conversion copies no index
    idx = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    off = [rows != cols for rows, cols, _ in parts]
    rows, cols, vals = (
        np.concatenate([p[i] for p in parts]
                       + [p[j][o] for p, o in zip(parts, off)], dtype=t)
        for i, j, t in ((0, 1, idx), (1, 0, idx), (2, 2, float)))
    parts.clear()
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


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
