"""Point clouds and cardinality-balanced hierarchical cluster trees."""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field

import numpy as np


class GeometryError(ValueError):
    pass


class BudgetError(ValueError):
    """An estimated peak above physical memory (CLI exit code 4)."""


def physical_memory():
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def require_memory(need, what):
    """Raise ``BudgetError`` if ``what`` needs more than physical memory."""
    have = physical_memory()
    if need > have:
        raise BudgetError(f"{what} needs about {need / 2**30:.1f} GiB; "
                          f"physical memory is {have / 2**30:.1f} GiB")


def pool_workers(worker_bytes, shared_bytes=0):
    """Threads of a pool whose workers each hold ``worker_bytes`` beside
    ``shared_bytes`` held once: one per core this process may run on, and
    no more than physical memory holds; at least one."""
    fit = (physical_memory() - shared_bytes) // max(1, worker_bytes)
    return max(1, min(len(os.sched_getaffinity(0)), fit))


def bounding_box(points):
    """Componentwise min/max box of a nonempty point set, shape (2, d)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.size == 0:
        raise GeometryError("bounding box of empty point set")
    return np.vstack([pts.min(axis=0), pts.max(axis=0)])


@dataclass(frozen=True)
class PointCloud:
    """N points in R^d, row-major, with their axis-aligned bounding box."""

    points: np.ndarray
    domain_box: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise GeometryError("empty point set")
        if not np.all(np.isfinite(pts)):
            raise GeometryError("non-finite coordinates in point cloud")
        object.__setattr__(self, "points", pts)
        if self.domain_box is None:
            object.__setattr__(self, "domain_box", bounding_box(pts))
        else:
            box = np.asarray(self.domain_box, dtype=float)
            if box.shape != (2, pts.shape[1]):
                raise GeometryError("domain_box shape mismatch")
            if np.any(pts < box[0] - 1e-14) or np.any(pts > box[1] + 1e-14):
                raise GeometryError("domain_box does not contain all points")
            object.__setattr__(self, "domain_box", box)

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    @staticmethod
    def from_csv(path, has_values=False):
        """Load `x1,...,xd[,value]` rows; header row is skipped if non-numeric."""
        rows = read_numeric_csv(path)
        if has_values:
            if rows.shape[1] < 2:
                raise GeometryError("need at least one coordinate and one value column")
            return PointCloud(rows[:, :-1]), rows[:, -1]
        return PointCloud(rows)


def read_numeric_csv(path):
    """Numeric CSV rows as a 2-D array; a non-numeric first line is a header.

    Raises ``GeometryError`` for a malformed file or one without data rows."""
    with open(path) as fh:
        first = fh.readline()
    try:
        [float(c) for c in first.strip().split(",")]
        skip = 0
    except ValueError:
        skip = 1  # non-numeric header line
    try:
        with warnings.catch_warnings():
            # a file without data rows is rejected below, not warned about
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    except ValueError as exc:
        raise GeometryError(f"malformed CSV {path}: {exc}") from exc
    if data.size == 0:
        raise GeometryError(f"empty CSV file: {path}")
    return data


@dataclass
class ClusterNode:
    """Node over the half-open index range [lo, hi) of the permuted order."""

    lo: int
    hi: int
    level: int
    bbox: np.ndarray
    children: tuple = ()

    @property
    def size(self):
        return self.hi - self.lo

    @property
    def is_leaf(self):
        return not self.children


@dataclass
class ClusterTree:
    root: ClusterNode
    permutation: np.ndarray  # tree position -> original index
    depth: int

    @property
    def n(self):
        return self.root.size

    def nodes_breadth_first(self):
        """Yield nodes level by level, left to right."""
        queue = [self.root]
        while queue:
            nxt = []
            for node in queue:
                yield node
                nxt.extend(node.children)
            queue = nxt


def build_cluster_tree(cloud: PointCloud, leaf_capacity: int) -> ClusterTree:
    """Binary cardinality-balanced tree; splits along the longest bbox edge.

    Each split puts the lower ceil(n/2) points (by coordinate along the split
    axis, stable order) into the left child.  Deterministic for fixed input.

    Built a level at a time: the bounding boxes of a level's nodes come
    from one ``reduceat`` per bound over their runs of points, and the
    nodes that split are sorted together, by node and then coordinate, in
    one stable ``lexsort``.
    """
    if leaf_capacity < 1:
        raise GeometryError("leaf_capacity must be positive")
    if cloud.n < 1:
        raise GeometryError("empty point set")
    pts = cloud.points
    n = cloud.n
    perm = np.arange(n, dtype=np.int64)
    root = ClusterNode(lo=0, hi=n, level=0, bbox=None)
    nodes, depth = [root], 0
    while True:
        lo = np.array([node.lo for node in nodes])
        hi = np.array([node.hi for node in nodes])
        # runs [lo, hi) of the nodes and the gaps between them, which hold
        # leaves of coarser levels; the last run ends at n by itself
        edges = np.stack([lo, hi], axis=1).ravel()
        if hi[-1] == n:
            edges = edges[:-1]
        at = pts[perm]
        bbox = np.stack([np.minimum.reduceat(at, edges)[::2],
                         np.maximum.reduceat(at, edges)[::2]], axis=1)
        for node, box in zip(nodes, bbox):
            node.bbox = box
        split = np.flatnonzero(hi - lo > leaf_capacity)
        if not split.size:
            return ClusterTree(root=root, permutation=perm, depth=depth)
        # ties -> lowest axis
        axis = np.argmax(bbox[split, 1] - bbox[split, 0], axis=1)
        # the positions of the splitting nodes' points, and their nodes
        size = (hi - lo)[split]
        owner = np.repeat(np.arange(split.size), size)
        pos = np.arange(owner.size) + np.repeat(lo[split] - np.cumsum(size)
                                                + size, size)
        order = np.lexsort((at[pos, axis[owner]], owner))
        perm[pos] = perm[pos[order]]
        depth += 1
        mid = lo[split] + (size + 1) // 2
        children = []
        for i, m in zip(split, mid):
            node = nodes[i]
            node.children = (ClusterNode(lo=node.lo, hi=int(m), level=depth,
                                         bbox=None),
                             ClusterNode(lo=int(m), hi=node.hi, level=depth,
                                         bbox=None))
            children.extend(node.children)
        nodes = children
