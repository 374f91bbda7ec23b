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
    """
    if leaf_capacity < 1:
        raise GeometryError("leaf_capacity must be positive")
    if cloud.n < 1:
        raise GeometryError("empty point set")
    pts = cloud.points
    perm = np.arange(cloud.n, dtype=np.int64)

    def build(lo, hi, level):
        idx = perm[lo:hi]
        bbox = bounding_box(pts[idx])
        node = ClusterNode(lo=lo, hi=hi, level=level, bbox=bbox)
        n = hi - lo
        if n <= leaf_capacity:
            return node, level
        axis = int(np.argmax(bbox[1] - bbox[0]))  # ties -> lowest axis
        order = np.argsort(pts[idx, axis], kind="stable")
        perm[lo:hi] = idx[order]
        mid = lo + (n + 1) // 2
        left, dl = build(lo, mid, level + 1)
        right, dr = build(mid, hi, level + 1)
        node.children = (left, right)
        return node, max(dl, dr)

    root, depth = build(0, cloud.n, 0)
    return ClusterTree(root=root, permutation=perm, depth=depth)
