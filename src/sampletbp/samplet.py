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
    # per-coordinate power tables up to max degree, (degree, coordinate, n)
    qmax = int(alphas.max(initial=0))
    powers = np.ones((qmax + 1, d, n))
    for p in range(1, qmax + 1):
        powers[p] = powers[p - 1] * z.T
    # row r is the product over coordinates j of z_j^alpha[r, j], in order j
    M = powers[alphas, np.arange(d)].prod(axis=1)
    if not np.all(np.isfinite(M)):
        raise SampletError("non-finite moment matrix entries")
    return M


def _signed_q(MT):
    """Q factors of the full QR of MT, one matrix or a stack, signed as if R
    had a nonnegative diagonal; samplet columns get a canonical sign
    (largest-magnitude entry positive).  Sign flips are exact, so columns
    are negated bit for bit."""
    Q, R = np.linalg.qr(MT, mode="complete")
    diag = np.diagonal(R, axis1=-2, axis2=-1)
    Q[..., :diag.shape[-1]] *= np.where(diag < 0.0, -1.0, 1.0)[..., None, :]
    sam = Q[..., MT.shape[-1]:]
    top = np.argmax(np.abs(sam), axis=-2)[..., None, :]
    sam *= np.where(np.take_along_axis(sam, top, axis=-2) < 0.0, -1.0, 1.0)
    return Q


@dataclass
class _Block:
    node: object  # ClusterNode
    Q: np.ndarray  # (n_in, n_in) orthogonal
    m_scal: int
    children: tuple
    out_start: int = -1  # global index of first samplet output
    n_samplets: int = 0
    pre: int = -1  # row of the first samplet output in the root's local order
    glob: np.ndarray = None  # type: ignore  # local row m_scal + j -> global


@dataclass
class SampletBasis:
    tree: ClusterTree
    q: int
    m_q: int
    root_block: _Block
    blocks_bfs: list  # breadth-first list of _Block
    n_root_scaling: int
    levels: np.ndarray  # global output index -> level (root scaling = 0)
    local_order: np.ndarray  # the root's local order -> global output index

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
        y = self.transform_subtree(self.root_block, v[self.tree.permutation])
        out = np.empty_like(y)
        out[self.local_order] = y
        return out

    def transform_subtree(self, blk, x):
        """Apply the samplet transform of blk's subtree to x, whose rows are
        the points of blk's node in tree order.  The result's rows are in
        the subtree's local order: blk.m_scal scaling rows, the node's own
        samplets, then the samplets of its children's subtrees, depth first;
        row blk.m_scal + j is global output blk.glob[j]."""
        out = np.empty(x.shape)
        out[: blk.m_scal] = self._fwd(blk, x, out, blk.node.lo,
                                      blk.m_scal - blk.pre)
        return out

    def _fwd(self, blk, x, out, lo, shift):
        if not blk.children:
            y = blk.Q.T @ x[blk.node.lo - lo : blk.node.hi - lo]
        else:
            parts = [self._fwd(c, x, out, lo, shift) for c in blk.children]
            y = blk.Q.T @ np.concatenate(parts, axis=0)
        if blk.n_samplets:
            at = shift + blk.pre
            out[at : at + blk.n_samplets] = y[blk.m_scal :]
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
        scattered to original point order.  forward(v) == T @ v.  Formed
        bottom-up from the Q blocks with the build's products, V Q."""
        n = self.n
        perm = self.tree.permutation
        rows, cols, vals = [], [], []

        def emit(global_start, lo, vectors):
            # vectors: (size, count), rows indexed in tree order lo..lo+size
            j, i = np.nonzero(vectors.T)  # column by column, as T's rows
            rows.append(global_start + j)
            cols.append(perm[lo + i])
            vals.append(vectors[i, j])

        def scaling(blk):
            # emits blk's samplet vectors, returns its scaling vectors
            Q, m = blk.Q, blk.m_scal
            if blk.children:
                V = _stack(blk.node, blk.children,
                           [scaling(c) for c in blk.children])
                sam, scal = V @ Q[:, m:], V @ Q[:, :m]
            else:
                sam, scal = Q[:, m:], Q[:, :m]
            if blk.n_samplets:
                emit(blk.out_start, blk.node.lo, sam)
            return scal

        emit(0, 0, scaling(self.root_block))
        rows, cols, vals = map(np.concatenate, (rows, cols, vals))
        return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))

    def to_dense(self):
        return self.to_sparse().toarray()


def _stack(node, child_blocks, vectors):
    """The children's scaling vectors stacked block-diagonally: rows are the
    node's points in tree order, columns the node's block inputs."""
    V = np.zeros((node.size, sum(b.m_scal for b in child_blocks)))
    off = 0
    for b, W in zip(child_blocks, vectors):
        lo = b.node.lo - node.lo
        V[lo : lo + b.node.size, off : off + b.m_scal] = W
        off += b.m_scal
    return V


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
    scal = {}  # id(node) -> scaling vectors, until the parent's moments

    def moments(node, child_blocks):
        """Moment matrix M = P V of a block's inputs and V, the children's
        scaling vectors stacked (None at a leaf, where V is the identity)."""
        if node.size < 1:
            raise SampletError("leaf with no points")
        P = moment_matrix(pts_tree[node.lo : node.hi], node.bbox, alphas)
        if not child_blocks:
            return P, None
        V = _stack(node, child_blocks,
                   [scal.pop(id(b.node)) for b in child_blocks])
        return P @ V, V

    # bottom-up, a level at a time, so that the QR factorizations of a
    # level's blocks of one shape run as one stacked call
    nodes = list(tree.nodes_breadth_first())
    by_level = {}
    for node in nodes:
        by_level.setdefault(node.level, []).append(node)
    blocks = {}  # id(node) -> _Block
    for level in sorted(by_level, reverse=True):
        work = []
        for node in by_level[level]:
            child_blocks = tuple(blocks[id(c)] for c in node.children)
            work.append((node, child_blocks) + moments(node, child_blocks))
        by_shape = {}
        for i, (_, _, M, _) in enumerate(work):
            by_shape.setdefault(M.shape, []).append(i)
        Qs = {}
        for idx in by_shape.values():
            Qs.update(zip(idx, _signed_q(np.stack([work[i][2].T
                                                   for i in idx]))))
        for i, (node, child_blocks, M, V) in enumerate(work):
            Q = Qs[i].copy()  # its own array, as an unstacked QR gives
            m_scal = min(m_q, M.shape[1])
            scal[id(node)] = Q[:, :m_scal] if V is None else V @ Q[:, :m_scal]
            blocks[id(node)] = _Block(node=node, Q=Q, m_scal=m_scal,
                                      children=child_blocks,
                                      n_samplets=M.shape[1] - m_scal)

    # breadth-first output ordering: root scaling block, then samplets level
    # by level, within a level in tree order, within a node in build order
    blocks_bfs = [blocks[id(node)] for node in nodes]
    root_blk = blocks_bfs[0]
    n_root_scaling = root_blk.m_scal
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
    # depth-first local order: a subtree's samplets are one run of it
    local_order = np.empty(tree.n, dtype=np.int64)
    local_order[:n_root_scaling] = np.arange(n_root_scaling)
    pos = n_root_scaling
    stack = [root_blk]
    while stack:
        blk = stack.pop()
        blk.pre = pos
        local_order[pos : pos + blk.n_samplets] = np.arange(
            blk.out_start, blk.out_start + blk.n_samplets)
        pos += blk.n_samplets
        stack.extend(reversed(blk.children))
    for blk in blocks_bfs:
        blk.glob = local_order[blk.pre : blk.pre + blk.node.size - blk.m_scal]

    return SampletBasis(tree=tree, q=q, m_q=m_q, root_block=root_blk,
                        blocks_bfs=blocks_bfs, n_root_scaling=n_root_scaling,
                        levels=levels, local_order=local_order)


def coefficient_l1_profile(basis: SampletBasis):
    """Per-level maxima of the coefficient-vector 1-norms and a fitted growth
    constant for the model max_l1(j) ~ c * 2^((J - j) / 2).  Diagnostic."""
    l1 = np.asarray(abs(basis.to_sparse()).sum(axis=1)).ravel()
    maxima = {int(j): float(l1[basis.levels == j].max())
              for j in np.unique(basis.levels)}
    J = max(maxima)
    logs = [np.log2(m) - (J - j) / 2.0 for j, m in maxima.items() if m > 0]
    fitted_c = float(2.0 ** np.mean(logs)) if logs else 0.0
    return {"max_l1": maxima, "fitted_c": fitted_c, "depth": J}
