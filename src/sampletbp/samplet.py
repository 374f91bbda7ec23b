"""Samplet bases: construction, fast transforms, and diagnostics.

The basis is built bottom-up on a cluster tree.  Every cluster carries an
orthogonal block splitting its inputs (point values at leaves, children's
scaling outputs elsewhere) into scaling outputs, which travel up the tree,
and samplet outputs, which are orthogonal to all polynomial moments up to
degree q.  The composite of all blocks together with the tree permutation
is an orthogonal matrix T mapping point coordinates to samplet coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np
import scipy.sparse

from .geometry import ClusterTree, PointCloud


class SampletError(ValueError):
    pass


def multi_indices(dim, q):
    """All multi-indices with |alpha| <= q in graded lexicographic order."""
    out = []
    for total in range(q + 1):
        out.extend(_fixed_degree(dim, total))
    return np.array(out, dtype=np.int64).reshape(-1, dim)


def _fixed_degree(dim, total):
    if dim == 1:
        return [(total,)]
    result = []
    for first in range(total, -1, -1):
        for rest in _fixed_degree(dim - 1, total - first):
            result.append((first,) + rest)
    return result


def moment_matrix(points, bbox, alphas):
    """Monomial evaluations x^alpha, coordinates centered and scaled to bbox.

    Centering at the box midpoint and scaling by the half-widths keeps
    entries O(1) for high orders; vanishing moments are affine invariant.
    """
    mid = 0.5 * (bbox[0] + bbox[1])
    half = 0.5 * (bbox[1] - bbox[0])
    half = np.where(half > 0.0, half, 1.0)
    z = (points - mid) / half  # (n, d)
    n, d = z.shape
    # per-coordinate power tables up to max degree
    qmax = int(alphas.max(initial=0))
    powers = np.ones((qmax + 1, n, d))
    for p in range(1, qmax + 1):
        powers[p] = powers[p - 1] * z
    M = np.ones((alphas.shape[0], n))
    for r, alpha in enumerate(alphas):
        for j in range(d):
            if alpha[j] > 0:
                M[r] *= powers[alpha[j], :, j]
    if not np.all(np.isfinite(M)):
        raise SampletError("non-finite moment matrix entries")
    return M


def _signed_qr(MT):
    """Full QR of MT with nonnegative R diagonal; samplet columns get a
    canonical sign (largest-magnitude entry positive)."""
    Q, R = np.linalg.qr(MT, mode="complete")
    m = min(MT.shape)
    for j in range(m):
        if R[j, j] < 0.0:
            Q[:, j] = -Q[:, j]
            R[j, :] = -R[j, :]
    for j in range(MT.shape[1], Q.shape[1]):
        col = Q[:, j]
        k = int(np.argmax(np.abs(col)))
        if col[k] < 0.0:
            Q[:, j] = -col
    return Q, R


@dataclass
class _Block:
    node: object  # ClusterNode
    Q: np.ndarray  # (n_in, n_in) orthogonal
    m_scal: int
    children: tuple
    out_start: int = -1  # global index of first samplet output
    n_samplets: int = 0
    sam_vectors: np.ndarray = None  # type: ignore  # (node.size, n_samplets)
    sam_l1: np.ndarray = None  # type: ignore


@dataclass
class SampletBasis:
    tree: ClusterTree
    q: int
    m_q: int
    root_block: _Block
    blocks_bfs: list  # breadth-first list of _Block
    n_root_scaling: int
    root_scaling_vectors: np.ndarray  # (N, n_root_scaling), tree order
    levels: np.ndarray  # global output index -> level (root scaling = 0)

    @property
    def n(self):
        return self.tree.n

    @property
    def depth(self):
        return self.tree.depth

    def forward(self, v):
        """Apply T: point order -> samplet order.  v may be (N,) or (N, k)."""
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.n:
            raise SampletError("length mismatch in forward transform")
        w = v[self.tree.permutation]
        out = np.empty_like(w)
        scal = self._fwd(self.root_block, w, out)
        out[: self.n_root_scaling] = scal
        return out

    def _fwd(self, blk, w, out):
        if not blk.children:
            x = w[blk.node.lo : blk.node.hi]
        else:
            parts = [self._fwd(c, w, out) for c in blk.children]
            x = np.concatenate(parts, axis=0)
        y = blk.Q.T @ x
        if blk.n_samplets:
            out[blk.out_start : blk.out_start + blk.n_samplets] = y[blk.m_scal :]
        return y[: blk.m_scal]

    def inverse(self, w):
        """Apply T^T: samplet order -> point order."""
        w = np.asarray(w, dtype=float)
        if w.shape[0] != self.n:
            raise SampletError("length mismatch in inverse transform")
        v = np.empty_like(w)
        scal = w[: self.n_root_scaling]
        self._inv(self.root_block, scal, w, v)
        out = np.empty_like(v)
        out[self.tree.permutation] = v
        return out

    def _inv(self, blk, scal, w, v):
        if blk.n_samplets:
            sam = w[blk.out_start : blk.out_start + blk.n_samplets]
            y = np.concatenate([scal, sam], axis=0)
        else:
            y = scal
        x = blk.Q @ y
        if not blk.children:
            v[blk.node.lo : blk.node.hi] = x
        else:
            off = 0
            for c in blk.children:
                self._inv(c, x[off : off + c.m_scal], w, v)
                off += c.m_scal

    def to_sparse(self):
        """T as a CSR matrix; row i is the coefficient vector of output i
        scattered to original point order.  forward(v) == T @ v."""
        n = self.n
        perm = self.tree.permutation
        rows, cols, vals = [], [], []

        def emit(global_start, lo, vectors):
            # vectors: (size, count), rows indexed in tree order lo..lo+size
            size, count = vectors.shape
            tree_idx = perm[lo : lo + size]
            for j in range(count):
                col = vectors[:, j]
                nz = np.nonzero(col)[0]
                rows.append(np.full(nz.size, global_start + j, dtype=np.int64))
                cols.append(tree_idx[nz])
                vals.append(col[nz])

        emit(0, 0, self.root_scaling_vectors)
        for blk in self.blocks_bfs:
            if blk.n_samplets:
                emit(blk.out_start, blk.node.lo, blk.sam_vectors)
        T = scipy.sparse.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        )
        T.sum_duplicates()
        return T

    def to_dense(self):
        return self.to_sparse().toarray()


def build_samplet_basis(tree: ClusterTree, cloud: PointCloud, q: int) -> SampletBasis:
    """Bottom-up construction of the samplet basis with q+1 vanishing moments."""
    if q < 0:
        raise SampletError("q must be nonnegative")
    if cloud.n != tree.n:
        raise SampletError("tree and cloud sizes differ")
    d = cloud.dim
    m_q = comb(q + d, d)
    alphas = multi_indices(d, q)
    pts_tree = cloud.points[tree.permutation]

    def build(node):
        n = node.size
        if n < 1:
            raise SampletError("leaf with no points")
        P = moment_matrix(pts_tree[node.lo : node.hi], node.bbox, alphas)
        if node.is_leaf:
            M = P  # V = identity
            child_blocks = ()
            V = None
        else:
            child_blocks = tuple(build(c) for c in node.children)
            # stack children's scaling vectors block-diagonally (tree order)
            cols = sum(b.m_scal for b in child_blocks)
            V = np.zeros((n, cols))
            off = 0
            for b in child_blocks:
                lo = b.node.lo - node.lo
                V[lo : lo + b.node.size, off : off + b.m_scal] = b._V_scal
                off += b.m_scal
            M = P @ V
        n_in = M.shape[1]
        Q, _ = _signed_qr(M.T)
        m_scal = min(m_q, n_in)
        n_sam = n_in - m_scal
        if V is None:
            V_scal = Q[:, :m_scal]
            sam_vectors = np.ascontiguousarray(Q[:, m_scal:])
        else:
            V_scal = V @ Q[:, :m_scal]
            sam_vectors = V @ Q[:, m_scal:]
        blk = _Block(node=node, Q=Q, m_scal=m_scal, children=child_blocks,
                     n_samplets=n_sam, sam_vectors=sam_vectors,
                     sam_l1=np.abs(sam_vectors).sum(axis=0))
        blk._V_scal = V_scal
        return blk

    root_blk = build(tree.root)
    root_scaling_vectors = np.ascontiguousarray(root_blk._V_scal)
    n_root_scaling = root_blk.m_scal

    # breadth-first output ordering: root scaling block, then samplets level
    # by level, within a level in tree order, within a node in build order
    blocks_bfs = []
    queue = [root_blk]
    while queue:
        nxt = []
        for blk in queue:
            blocks_bfs.append(blk)
            nxt.extend(blk.children)
        queue = nxt
    levels = np.empty(tree.n, dtype=np.int64)
    levels[:n_root_scaling] = 0
    pos = n_root_scaling
    for blk in blocks_bfs:
        if blk.n_samplets:
            blk.out_start = pos
            levels[pos : pos + blk.n_samplets] = blk.node.level
            pos += blk.n_samplets
    if pos != tree.n:
        raise SampletError("output count does not match N")
    for blk in blocks_bfs:
        del blk._V_scal

    return SampletBasis(tree=tree, q=q, m_q=m_q, root_block=root_blk,
                        blocks_bfs=blocks_bfs, n_root_scaling=n_root_scaling,
                        root_scaling_vectors=root_scaling_vectors, levels=levels)


def coefficient_l1_profile(basis: SampletBasis):
    """Per-level maxima of the coefficient-vector 1-norms and a fitted growth
    constant for the model max_l1(j) ~ c * 2^((J - j) / 2).  Diagnostic."""
    maxima = {}
    root_l1 = np.abs(basis.root_scaling_vectors).sum(axis=0)
    if root_l1.size:
        maxima[0] = float(root_l1.max())
    for blk in basis.blocks_bfs:
        if blk.n_samplets:
            lvl = blk.node.level
            m = float(blk.sam_l1.max())
            maxima[lvl] = max(maxima.get(lvl, 0.0), m)
    J = max(maxima)
    logs = [np.log2(m) - (J - j) / 2.0 for j, m in maxima.items() if m > 0]
    fitted_c = float(2.0 ** np.mean(logs)) if logs else 0.0
    return {"max_l1": maxima, "fitted_c": fitted_c, "depth": J}
