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


# transform_subtree applies a subtree of at most DENSE points as one dense
# product.  compress with DENSE = 16 / 24 / 48 / 96 (medians of alternating
# runs in one process, OPENBLAS_NUM_THREADS=2, 2 cores): cartoon N = 6000
# 0.427 / 0.380 / 0.374 / 0.405 s, spss N = 10^4 0.942 / 1.009 / 0.909 /
# 1.094 s
DENSE = 48


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
    Q: np.ndarray  # (n_in, n_in) orthogonal, a view of its _Group's stack
    m_scal: int
    children: tuple
    out_start: int = -1  # global index of first samplet output
    n_samplets: int = 0
    pre: int = -1  # row of the first samplet output in the root's local order
    glob: np.ndarray = None  # type: ignore  # local row m_scal + j -> global


@dataclass
class _Group:
    """The blocks of one level with one Q shape, whose transforms run as one
    stacked product.  Buffer rows are in tree order.  Block i's inputs are
    rows lo[i] + range(n_in): its points at a leaf, elsewhere its children's
    scaling outputs, which a child keeps at rows at + range(m_scal), packed
    in child order from its parent's lo."""
    Q: np.ndarray  # (blocks, n_in, n_in); each block's Q is a view of it
    m_scal: int
    lo: np.ndarray  # (blocks,) first input row
    at: np.ndarray  # (blocks,) first scaling output row
    out: np.ndarray  # (blocks,) out_start, the first global samplet row


def _rows(starts, count):
    """Row indices starts[i] + range(count), one row of them per block."""
    return starts[:, None] + np.arange(count)


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
    groups: list  # a list of _Group per level, the deepest level first

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
        buf = v[self.tree.permutation].reshape(self.n, -1)
        out = np.empty_like(buf)
        for level in self.groups:
            # every block of a level reads its inputs before any writes,
            # because a block's scaling rows may overlap a sibling's inputs
            ys = [g.Q.transpose(0, 2, 1) @ buf[_rows(g.lo, g.Q.shape[1])]
                  for g in level]
            for g, y in zip(level, ys):
                buf[_rows(g.at, g.m_scal)] = y[:, : g.m_scal]
                out[_rows(g.out, y.shape[1] - g.m_scal)] = y[:, g.m_scal :]
        out[: self.n_root_scaling] = buf[: self.n_root_scaling]
        return out.reshape(v.shape)

    def transform_subtree(self, blk, x, dense):
        """Apply the samplet transform of blk's subtree to x, whose rows are
        the points of blk's node in tree order.  The result's rows are in
        the subtree's local order: blk.m_scal scaling rows, the node's own
        samplets, then the samplets of its children's subtrees, depth first;
        row blk.m_scal + j is global output blk.glob[j].

        A subtree of at most DENSE points is one product with its whole
        transform in local order, which the dict ``dense`` holds by
        id(block) and which is formed on first use by the recursion below
        (``dense`` None: recurse to the leaves); its samplets are one run
        of the local order, so the product writes one slice.  A larger
        subtree recurses a block at a time, mixing its children's scaling
        rows with Q.  ``compress`` passes one dict per call: at most
        8 DENSE bytes per point of the subtrees it transforms.  The 136
        two-sided transforms of cartoon N = 6000 took 0.141 s this way,
        against 0.194 s recursing to the leaves (one thread, medians)."""
        out = np.empty(x.shape)
        out[: blk.m_scal] = self._fwd(blk, x, out, blk.node.lo,
                                      blk.m_scal - blk.pre, dense)
        return out

    def _fwd(self, blk, x, out, lo, shift, dense):
        rows = x[blk.node.lo - lo : blk.node.hi - lo]
        if dense is not None and blk.node.size <= DENSE:
            T = dense.get(id(blk))
            if T is None:
                T = dense[id(blk)] = self.transform_subtree(
                    blk, np.eye(blk.node.size), None)
            y = T @ rows
            count = blk.node.size - blk.m_scal  # the subtree's samplets
        else:
            if blk.children:
                rows = np.concatenate(
                    [self._fwd(c, x, out, lo, shift, dense)
                     for c in blk.children], axis=0)
            y = blk.Q.T @ rows
            count = blk.n_samplets
        if count:
            at = shift + blk.pre
            out[at : at + count] = y[blk.m_scal :]
        return y[: blk.m_scal]

    def inverse(self, w):
        """Apply T^T: samplet order -> point order.  w may be (N,) or
        (N, k)."""
        w = np.asarray(w, dtype=float)
        if w.shape[0] != self.n:
            raise SampletError("length mismatch in inverse transform")
        w2 = w.reshape(self.n, -1)
        buf = np.empty_like(w2)
        buf[: self.n_root_scaling] = w2[: self.n_root_scaling]
        for level in reversed(self.groups):
            # reads before writes: a block's outputs may overlap the
            # scaling inputs of a sibling
            xs = [g.Q @ np.concatenate(
                [buf[_rows(g.at, g.m_scal)],
                 w2[_rows(g.out, g.Q.shape[1] - g.m_scal)]], axis=1)
                  for g in level]
            for g, x in zip(level, xs):
                buf[_rows(g.lo, x.shape[1])] = x
        out = np.empty_like(buf)
        out[self.tree.permutation] = buf
        return out.reshape(w.shape)

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
    stacks = []  # per level, deepest first: (Q stack, its blocks)
    for level in sorted(by_level, reverse=True):
        work = []
        for node in by_level[level]:
            child_blocks = tuple(blocks[id(c)] for c in node.children)
            work.append((node, child_blocks) + moments(node, child_blocks))
        by_shape = {}
        for i, (_, _, M, _) in enumerate(work):
            by_shape.setdefault(M.shape, []).append(i)
        stacks.append([])
        for idx in by_shape.values():
            Qs = _signed_q(np.stack([work[i][2].T for i in idx]))
            for i, Q in zip(idx, Qs):
                node, child_blocks, M, V = work[i]
                m_scal = min(m_q, M.shape[1])
                scal[id(node)] = (Q[:, :m_scal] if V is None
                                  else V @ Q[:, :m_scal])
                blocks[id(node)] = _Block(node=node, Q=Q, m_scal=m_scal,
                                          children=child_blocks,
                                          n_samplets=M.shape[1] - m_scal)
            stacks[-1].append((Qs, [blocks[id(work[i][0])] for i in idx]))

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
    # in the index type of compress's CSR, so kept entries' indices are too
    local_order = np.empty(tree.n,
                           scipy.sparse.get_index_dtype(maxval=tree.n))
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
    # the transforms' scaling rows: a node's children's, packed from its lo
    at = {id(root_blk): 0}
    for blk in blocks_bfs:
        pos = blk.node.lo
        for c in blk.children:
            at[id(c)] = pos
            pos += c.m_scal
    groups = [[_Group(Q=Qs, m_scal=members[0].m_scal,
                      lo=np.array([b.node.lo for b in members]),
                      at=np.array([at[id(b)] for b in members]),
                      out=np.array([b.out_start for b in members]))
               for Qs, members in level] for level in stacks]

    return SampletBasis(tree=tree, q=q, m_q=m_q, root_block=root_blk,
                        blocks_bfs=blocks_bfs, n_root_scaling=n_root_scaling,
                        levels=levels, local_order=local_order, groups=groups)


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
