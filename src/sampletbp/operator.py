"""Kernel operators in samplet coordinates: compression by recursion over
the cluster tree, thresholded sparse storage, matvecs, column Gram blocks,
multi-kernel stacking, Lipschitz estimates."""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from itertools import starmap

import numpy as np
import scipy.sparse

from . import geometry
# assemble_dense stays importable from here: perfbench's tracer rebinds it
from .kernel import assemble_dense, cross_matrix  # noqa: F401
from .samplet import DENSE, SampletBasis


class OperatorError(ValueError):
    pass


_MAGIC = b"SMPK1"
_HEADER = struct.Struct("<QQQdd")  # n_rows, n_cols, nnz, threshold, error
# entries of the dense chunk of selected columns that a Gram block fetch
# multiplies at a time, and of the chunk's product: 16 GRAM_CHUNK bytes
GRAM_CHUNK = 1 << 19


@dataclass
class CompressedOperator:
    """Sparse matrix in samplet coordinates with compression bookkeeping."""

    matrix: scipy.sparse.csr_matrix
    threshold: float
    est_rel_frobenius_error: float
    # K^T as CSR: the matrix itself for compress, else built on first use
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
        return self._transpose() @ v

    def _transpose(self):
        if self._transposed is None:
            self._transposed = self.matrix.tocsc().T
        return self._transposed

    def _column_indices(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_cols):
            raise OperatorError("column index out of range")
        return idx

    def gram_submatrix(self, rows_idx, cols_idx):
        """Dense Gram block of selected columns: (a, b) -> col_a . col_b.

        The rows of K^T selected by ``rows_idx`` times the columns of K
        selected by ``cols_idx``, both gathered as rows of K^T, the latter
        made dense: one sparse times dense product, taken in column chunks
        of at most GRAM_CHUNK entries, whose products are no larger.  Each
        entry is summed over K's rows in ascending order, as one sparse
        product sums it; the dense chunk's zeros add only zero terms, so
        the block is bitwise that product's.

        A fetch of more than one chunk multiplies each chunk only over the
        rows of K that its columns touch, a sorted index, which drops only
        zero terms.  A random 84 % fetch at spss N = 4000, its columns
        sorted as the Newton solvers fetch them, took 0.29-0.43 s this way
        against 0.47-0.92 s over all of K's rows.  Finding the rows costs
        about 0.2 ms a chunk, more than it saves on the few-column fetches
        of ``ir_mrssn``, which take one chunk."""
        rows = self._column_indices(rows_idx)
        cols = self._column_indices(cols_idx)
        Kt = self._transpose()
        At = Kt[rows]
        step = max(1, GRAM_CHUNK // max(1, self.n_rows, rows.size))
        if cols.size <= step:  # one chunk, whose product is the block
            return At @ Kt[cols].T.toarray()
        G = np.empty((rows.size, cols.size))
        for lo in range(0, cols.size, step):
            B = Kt[cols[lo:lo + step]]
            touched, local = np.unique(B.indices, return_inverse=True)
            B = scipy.sparse.csr_matrix((B.data, local, B.indptr),
                                        shape=(B.shape[0], touched.size))
            G[:, lo:lo + step] = At[:, touched] @ B.T.toarray()
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
        if not np.all(np.isfinite(data)):
            raise OperatorError("non-finite matrix entries in operator file")
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


PANEL = 512  # a cluster of at most PANEL points is not split further
# the kernel block of a pair of clusters of at most PANEL points and its two
# transforms: PANEL_COPIES float64 PANEL x PANEL blocks (tracemalloc peak of
# compress less its dense subtree transforms, in blocks of 512 x 512: 2.4,
# 2.4 and 3.6 at tau = inf, where only the diagonal is kept, for spss at
# N = 2000, cartoon at N = 6000 and spss at N = 10^4; 0.9, 1.9 and 2.8 at
# tau = 1e-4 less KEPT_BYTES per kept entry).  The dense transforms took
# 250, 375 and 313 bytes per point there, within their 8 DENSE.
PANEL_COPIES = 4
# bytes per kept entry at the peak of _mirror: the parts' int32 rows and
# columns and float64 values beside the mirrored triples (tracemalloc: 56.8
# to 58.2 for cartoon at N = 6000 and spss at N = 2000 and 10^4)
KEPT_BYTES = 60


def compress_peak_bytes(n):
    """Estimated peak bytes of the working buffers of ``compress`` at
    N = n: PANEL_COPIES blocks and the dense subtree transforms, at most
    8 DENSE bytes per point.  The scaling rows that travel up, a few times
    8 m_q bytes per point, are left out; each kept entry adds
    KEPT_BYTES."""
    return 8 * (PANEL_COPIES * min(PANEL, n) ** 2 + min(DENSE, n) * n)


def compress(basis: SampletBasis, spec, cloud, tau):
    """Samplet-compressed kernel operator K^Sigma_eps: exact two-sided
    transform C = T K T^T, a-posteriori thresholding, built by recursion
    over the cluster tree.

    The transform of a node with children a and b is T_a (+) T_b followed
    by the node's block Q, which mixes only the children's scaling rows.
    So C at the node consists of the children's diagonal blocks, computed
    by recursion, and D = T_a K_ab T_b^T, mixed only in those rows and
    columns.  D is built by a second recursion, over pairs of clusters:
    the larger of the two is split into its children, and only the
    scaling rows and columns of each half's D travel up, to be mixed by
    that cluster's Q.  A base pair, whose clusters each have at most PANEL
    points or are leaves, and likewise a node of at most PANEL points or a
    leaf, transforms its kernel block on both sides at once.  Kernel
    entries are evaluated on the points in tree order, each block of K
    once.

    An entry of C between two samplets is final once it is computed, so it
    is thresholded at tau then, always keeping the diagonal; the total and
    dropped squared mass count off-diagonal entries twice.  Only the
    scaling rows of each node travel up; at the root they are thresholded
    too.  The kept entries are mirrored, so the operator is exactly
    symmetric.

    The build runs in the calling thread.  A pool of threads made it
    slower from N = 6000 up (README): the transforms' per-block Python work
    holds the interpreter lock.  Each subtree of at most DENSE points is
    transformed as one product with its dense transform, formed once per
    call (``SampletBasis.transform_subtree``).

    ``require_memory`` checks the estimated peak before any kernel entry is
    computed: ``compress_peak_bytes``, the blocks and the dense subtree
    transforms.  Then,
    as entries are kept, it checks that plus KEPT_BYTES per entry kept so
    far, which covers the kept entries until they are mirrored into the
    result: a build that keeps too much is refused while it runs."""
    if cloud.n != basis.n:
        raise OperatorError("basis and cloud sizes differ")
    _check_threshold(tau)
    n = cloud.n
    buffers = compress_peak_bytes(n)
    geometry.require_memory(buffers, f"compression at N = {n}")
    build = _Build(basis, spec, cloud.points[basis.tree.permutation], tau,
                   buffers)
    build.node(basis.root_block, root=True)
    # sums and kept entries in a fixed order; _mirror frees the entries
    total_sq = sum(part[0] for part in build.parts)
    dropped_sq = sum(part[1] for part in build.parts)
    kept = [part[2:] for part in build.parts]
    del build
    matrix = _mirror(n, kept)
    est = np.sqrt(dropped_sq / total_sq) if total_sq > 0 else 0.0
    # exactly symmetric and canonical, so K^T's CSR is K's: held once
    return CompressedOperator(matrix=matrix, threshold=float(tau),
                              est_rel_frobenius_error=float(est),
                              _transposed=matrix)


def _splits(c):
    """Whether a pair may split cluster c: c has children and more than
    PANEL points."""
    return bool(c.children) and c.node.size > PANEL


def _is_base(a, b):
    """Whether pair (a, b) transforms its kernel block whole."""
    return not (_splits(a) or _splits(b))


def _splits_second(a, b):
    """Whether pair (a, b) splits b: b is larger, or a is not split."""
    return not _splits(a) or (_splits(b) and b.node.size > a.node.size)


def _base_pairs(a, b):
    """The base pairs below (a, b), in the order ``_Build._combine`` takes
    them."""
    if _is_base(a, b):
        yield a, b
    elif _splits_second(a, b):
        yield from _base_pairs(b, a)
    else:
        for c in a.children:
            yield from _base_pairs(c, b)


class _Build:
    """State of one ``compress`` call: its inputs, with the points in tree
    order, the bytes of the working buffers, the dense subtree transforms,
    and the thresholded parts of C, in the order they are made, with their
    count of kept entries."""

    def __init__(self, basis, spec, points, tau, buffers):
        self.basis, self.spec, self.points, self.tau = basis, spec, points, tau
        self.buffers = buffers
        self.dense = {}  # id(block) -> its subtree's dense transform
        self.parts = []
        self.kept = 0
        self.what = f"compression at N = {len(points)} with tau = {tau:g}"

    def keep(self, part):
        """Append a thresholded part of C; refuse the build once its kept
        entries would not fit beside the working buffers."""
        self.parts.append(part)
        self.kept += part[4].size
        geometry.require_memory(self.buffers + KEPT_BYTES * self.kept,
                                self.what)

    def node(self, blk, root=False):
        """Threshold the entries of C between samplets of blk's subtree, or
        all of them at the root, and return C_blk's scaling rows in blk's
        local order."""
        basis = self.basis
        if blk.node.size <= PANEL or not blk.children:
            C = self._two_sided(blk, blk)  # all of C_blk, as K is symmetric
        else:
            C = self._split(blk, self.node(blk.children[0]),
                            self.node(blk.children[1]))
        m = blk.m_scal
        k = 0 if root else m  # the first row and column thresholded here
        glob = basis.local_order if root else blk.glob
        self.keep(_threshold(C[k:, k:], glob[:C.shape[0] - k], glob,
                             self.tau, diagonal=True))
        return C[:m].copy()

    def _split(self, blk, S_a, S_b):
        """Rows [scaling, own samplets] of C_blk in blk's local order, from
        the children's scaling rows S_a and S_b; thresholds the entries of
        D between samplets of the two children."""
        a, b = blk.children
        ma, mb = a.m_scal, b.m_scal
        sa, sb = a.node.size, b.node.size
        R, Cs = self.pair(a, b)
        # the children's scaling rows of C before blk's block Q, in the
        # order of T_a (+) T_b
        Z = np.empty((ma + mb, sa + sb))
        Z[:ma, :sa] = S_a
        Z[:ma, sa:] = R
        Z[ma:, :sa] = Cs.T
        Z[ma:, sa:] = S_b
        Y = blk.Q.T @ Z
        W = Y[:, np.r_[:ma, sa:sa + mb]] @ blk.Q
        return np.concatenate([W, Y[:, ma:sa], Y[:, sa + mb:]], axis=1)

    def pair(self, a, b):
        """Scaling rows D[:m_a, :] and scaling columns D[:, :m_b] of
        D = T_a K_ab T_b^T, for clusters a and b with no point in common,
        in a's and b's local order; thresholds the entries of D between
        samplets of a and samplets of b."""
        return self._combine(a, b, starmap(self._base, _base_pairs(a, b)))

    def _combine(self, a, b, results):
        """``pair`` from the results of its base pairs, in order.

        Splits a, the larger cluster on a tie, into its children a_i: the
        rows of D are then Q_a^T [D_1[:m_1]; D_2[:m_2]], which hold a's
        scaling rows and own samplets, followed by the samplet rows of each
        D_i = T_{a_i} K_{a_i b} T_b^T.  Splitting b is splitting the first
        cluster of (b, a), whose D is the transpose."""
        if _is_base(a, b):
            R, Cs, part = next(results)
            self.keep(part)
            return R, Cs
        if _splits_second(a, b):
            R, Cs = self._combine(b, a, results)
            return Cs.T, R.T
        halves = [self._combine(c, b, results) for c in a.children]
        ma, mb = a.m_scal, b.m_scal
        Y = a.Q.T @ np.concatenate([R for R, _ in halves])
        self.keep(_threshold(Y[ma:, mb:], a.glob[:a.n_samplets], b.glob,
                             self.tau))
        return Y[:ma], np.concatenate(
            [Y[:, :mb]] + [Cs[c.m_scal:] for c, (_, Cs) in
                           zip(a.children, halves)])

    def _base(self, a, b):
        """``pair`` from the kernel block of a and b, transformed on both
        sides at once; the thresholded part is returned, not kept."""
        Dt = self._two_sided(a, b)
        ma, mb = a.m_scal, b.m_scal
        part = _threshold(Dt[mb:, ma:], b.glob, a.glob, self.tau)
        # copies, so that the block is freed
        return Dt[:, :ma].T.copy(), Dt[:mb].T.copy(), part

    def _two_sided(self, a, b):
        """(T_a K_ab T_b^T)^T, in b's and a's local order, from the kernel
        block of a and b, which is freed once transformed on a's side."""
        ts, pts = self.basis.transform_subtree, self.points
        TK = ts(a, cross_matrix(self.spec, pts[a.node.lo : a.node.hi],
                                pts[b.node.lo : b.node.hi]), self.dense)
        return ts(b, TK.T, self.dense)


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
    # flat indices in row-major order, as np.nonzero gives them, but faster
    r, c = np.divmod(np.flatnonzero(keep), X.shape[1])
    vals = X[r, c]
    # the dropped mass is summed directly: total minus kept would cancel
    X[r, c] = 0.0
    dropped = 2.0 * float(np.einsum("ij,ij->", X, X))
    return total, dropped, rows[r], cols[c], vals


def _mirror(n, parts):
    """Exactly symmetric canonical CSR matrix from kept entries (rows,
    cols, vals), one of each mirrored pair and the diagonal, indexed in the
    type scipy keeps, so that the conversion copies no index.  The list of
    parts is emptied before the conversion."""
    off = [rows != cols for rows, cols, _ in parts]
    rows, cols, vals = (
        np.concatenate([p[i] for p in parts]
                       + [p[j][o] for p, o in zip(parts, off)])
        for i, j in ((0, 1), (1, 0), (2, 2)))
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
