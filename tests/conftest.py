"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the package's own code paths: lasso problems
are solved by plain coordinate descent on dense matrices, linear systems by
dense factorizations, field evaluations by naive double loops, and the
two-sided samplet transform by products with the explicit matrix T, and
cluster trees by a plain recursion that sorts one node at a time.
"""

import tracemalloc

import numpy as np
import pytest

from sampletbp import CompressedOperator


def dense_op(A):
    """Wrap a dense matrix as an uncompressed operator (tau = 0)."""
    return CompressedOperator.from_dense(np.asarray(A, dtype=float), tau=0.0)


def traced_peak(fn):
    """Peak bytes that tracemalloc sees allocated while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def two_sided(basis, K):
    """T K T^T by sparse-times-dense products with the matrix T of the
    basis, not by its fast transform."""
    T = basis.to_sparse()
    return (T @ (T @ K).T).T


def recursive_cluster_tree(points, leaf_capacity):
    """The permutation, the depth and the nodes (lo, hi, level, bbox) in
    depth-first order of the cardinality-balanced tree: each node of more
    than leaf_capacity points sorts them stably along the longest edge of
    its bounding box, the lowest such axis, and gives the first ceil(n/2)
    to its left child."""
    perm = np.arange(len(points))
    nodes = []

    def split(lo, hi, level):
        pts = points[perm[lo:hi]]
        box = np.array([pts.min(axis=0), pts.max(axis=0)])
        nodes.append((lo, hi, level, box))
        if hi - lo <= leaf_capacity:
            return level
        axis = int(np.argmax(box[1] - box[0]))
        perm[lo:hi] = perm[lo:hi][np.argsort(pts[:, axis], kind="stable")]
        mid = lo + (hi - lo + 1) // 2
        return max(split(lo, mid, level + 1), split(mid, hi, level + 1))

    depth = split(0, len(points), 0)
    return perm, depth, nodes


def cd_lasso(A, h, w, tol=1e-12, max_iter=200000):
    """Coordinate-descent oracle for min 0.5*||h - A b||^2 + sum w_i |b_i|.

    Runs until the largest single-coordinate update falls below tol.
    """
    A = np.asarray(A, dtype=float)
    h = np.asarray(h, dtype=float)
    n = A.shape[1]
    w = np.broadcast_to(np.asarray(w, dtype=float), (n,))
    col_sq = np.einsum("ij,ij->j", A, A)
    b = np.zeros(n)
    r = h.copy()  # r = h - A b
    for _ in range(max_iter):
        delta_max = 0.0
        for j in range(n):
            if col_sq[j] == 0.0:
                continue
            rho = A[:, j] @ r + col_sq[j] * b[j]
            bj = np.sign(rho) * max(0.0, abs(rho) - w[j]) / col_sq[j]
            step = bj - b[j]
            if step != 0.0:
                r -= step * A[:, j]
                b[j] = bj
                delta_max = max(delta_max, abs(step))
        if delta_max < tol:
            break
    return b


def lasso_objective(A, h, b, w):
    r = h - A @ b
    w = np.broadcast_to(np.asarray(w, dtype=float), b.shape)
    return 0.5 * float(r @ r) + float(np.abs(b) @ w)


def kkt_violation(A, h, b, w):
    """Max violation of the weighted-l1 optimality conditions.

    On the support: A^T(h - Ab) = w * sign(b); elsewhere |A^T(h - Ab)| <= w.
    """
    A = np.asarray(A, dtype=float)
    w = np.broadcast_to(np.asarray(w, dtype=float), b.shape)
    g = A.T @ (h - A @ b)
    active = b != 0.0
    v_active = np.abs(g[active] - w[active] * np.sign(b[active]))
    v_inactive = np.maximum(0.0, np.abs(g[~active]) - w[~active])
    parts = np.concatenate([v_active, v_inactive])
    return float(parts.max()) if parts.size else 0.0


def random_spd(n, rng, ridge=0.1):
    M = rng.standard_normal((n, n))
    return M @ M.T / n + ridge * np.eye(n)


@pytest.fixture
def rng():
    return np.random.default_rng(20240612)
