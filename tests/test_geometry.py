from math import comb

import numpy as np
import pytest

from conftest import recursive_cluster_tree
from sampletbp import PointCloud, bounding_box, build_cluster_tree
from sampletbp.geometry import GeometryError


def leaves(tree):
    return [n for n in tree.nodes_breadth_first() if n.is_leaf]


def depth_first(node):
    yield node
    for child in node.children:
        yield from depth_first(child)


def cloud_points(rng, kind, n, d):
    """Uniform points, points on a line through the cube, or points of the
    lattice {0, 1, 2}^d, where points coincide and box edges tie."""
    if kind == "uniform":
        return rng.uniform(-0.5, 0.5, (n, d))
    if kind == "collinear":
        return np.outer(rng.uniform(-0.5, 0.5, n), rng.uniform(0.5, 1.0, d))
    return rng.integers(0, 3, (n, d)).astype(float)


class TestBoundingBox:
    def test_two_points(self):
        box = bounding_box([(0.0, 0.0), (1.0, 2.0)])
        assert np.array_equal(box, [[0.0, 0.0], [1.0, 2.0]])

    def test_single_point_degenerate(self):
        box = bounding_box([(3.0, -1.0)])
        assert np.array_equal(box, [[3.0, -1.0], [3.0, -1.0]])

    def test_three_points(self):
        box = bounding_box([(-1, 3), (2, -3), (0, 0)])
        assert np.array_equal(box, [[-1.0, -3.0], [2.0, 3.0]])

    def test_empty_raises(self):
        with pytest.raises(GeometryError):
            bounding_box(np.empty((0, 2)))


class TestPointCloud:
    def test_basic(self):
        cloud = PointCloud([[0.0, 0.0], [1.0, 2.0]])
        assert cloud.n == 2 and cloud.dim == 2
        assert np.array_equal(cloud.domain_box, [[0, 0], [1, 2]])

    def test_1d_input_promoted(self):
        cloud = PointCloud([0.0, 1.0, 2.0])
        assert cloud.dim == 1 and cloud.n == 3

    def test_nonfinite_rejected(self):
        with pytest.raises(GeometryError):
            PointCloud([[0.0], [np.nan]])

    def test_box_must_contain_points(self):
        with pytest.raises(GeometryError):
            PointCloud([[0.0], [2.0]], domain_box=[[0.0], [1.0]])

    def test_from_csv(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("x,y\n0.5,1.5\n-0.5,2.0\n")
        cloud = PointCloud.from_csv(p)
        assert cloud.n == 2 and cloud.dim == 2
        assert cloud.points[1, 1] == 2.0

    def test_from_csv_with_values(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("0,0,1\n1,1,-1\n")
        cloud, vals = PointCloud.from_csv(p, has_values=True)
        assert cloud.dim == 2
        assert np.array_equal(vals, [1.0, -1.0])


class TestBuildClusterTree:
    def test_single_point_single_leaf(self):
        tree = build_cluster_tree(PointCloud([[0.3, 0.7]]), leaf_capacity=4)
        assert tree.root.is_leaf
        assert tree.depth == 0
        assert tree.n == 1

    def test_eight_collinear_points(self):
        # shuffled input; sorting along the only axis restores 0..7
        pts = np.array([5.0, 2.0, 7.0, 0.0, 3.0, 6.0, 1.0, 4.0])
        tree = build_cluster_tree(PointCloud(pts), leaf_capacity=2)
        assert tree.depth == 2
        lv = leaves(tree)
        assert len(lv) == 4
        got = [sorted(pts[tree.permutation[n.lo:n.hi]]) for n in lv]
        assert got == [[0, 1], [2, 3], [4, 5], [6, 7]]

    def test_leaf_sizes_and_balance(self, rng):
        cloud = PointCloud(rng.uniform(-1, 1, size=(1000, 2)))
        tree = build_cluster_tree(cloud, leaf_capacity=10)
        for node in tree.nodes_breadth_first():
            if node.is_leaf:
                assert 1 <= node.size <= 10
            else:
                a, b = (c.size for c in node.children)
                assert abs(a - b) <= 1
                assert a + b == node.size
                assert node.children[0].lo == node.lo
                assert node.children[1].hi == node.hi

    def test_bbox_nesting(self, rng):
        cloud = PointCloud(rng.uniform(0, 1, size=(300, 3)))
        tree = build_cluster_tree(cloud, leaf_capacity=8)
        for node in tree.nodes_breadth_first():
            for child in node.children:
                assert np.all(child.bbox[0] >= node.bbox[0] - 1e-15)
                assert np.all(child.bbox[1] <= node.bbox[1] + 1e-15)

    def test_determinism(self, rng):
        pts = rng.uniform(-1, 1, size=(500, 2))
        t1 = build_cluster_tree(PointCloud(pts), 7)
        t2 = build_cluster_tree(PointCloud(pts.copy()), 7)
        assert np.array_equal(t1.permutation, t2.permutation)

    def test_permutation_is_bijection(self, rng):
        cloud = PointCloud(rng.uniform(-1, 1, size=(257, 2)))
        tree = build_cluster_tree(cloud, 5)
        assert np.array_equal(np.sort(tree.permutation), np.arange(257))

    def test_level_counts_double_until_leaves(self, rng):
        cloud = PointCloud(rng.uniform(-1, 1, size=(512, 2)))
        tree = build_cluster_tree(cloud, 4)
        counts = {}
        any_leaf = {}
        for node in tree.nodes_breadth_first():
            counts[node.level] = counts.get(node.level, 0) + 1
            any_leaf[node.level] = any_leaf.get(node.level, False) or node.is_leaf
        for j in sorted(counts):
            assert counts[j] <= 2 ** j
            if j > 0 and not any_leaf[j - 1]:
                assert counts[j] == 2 ** j

    def test_empty_capacity_rejected(self):
        with pytest.raises(GeometryError):
            build_cluster_tree(PointCloud([[0.0]]), 0)

    @pytest.mark.parametrize("kind", ["uniform", "collinear", "duplicates"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_recursive_oracle(self, rng, kind, d):
        # leaf capacities 1, m_q and 2 m_q for q = 3
        m_q = comb(3 + d, d)
        for n in (1, 2, 3, 7, 40, 333, 3000):
            pts = cloud_points(rng, kind, n, d)
            for capacity in (1, m_q, 2 * m_q):
                tree = build_cluster_tree(PointCloud(pts), capacity)
                perm, depth, nodes = recursive_cluster_tree(pts, capacity)
                assert np.array_equal(tree.permutation, perm)
                assert tree.depth == depth
                got = list(depth_first(tree.root))
                assert len(got) == len(nodes)
                for node, (lo, hi, level, box) in zip(got, nodes):
                    assert (node.lo, node.hi, node.level) == (lo, hi, level)
                    assert np.array_equal(node.bbox, box)
