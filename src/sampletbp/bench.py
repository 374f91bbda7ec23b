"""Benchmark data generators, noise model, metrics, and grid evaluation."""

from __future__ import annotations

import resource
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from math import comb, inf, prod
from time import perf_counter

import numpy as np

from .geometry import PointCloud, build_cluster_tree, require_memory
from .kernel import CROSS_COPIES, KernelSpec, cross_matrix
from .samplet import SampletBasis, build_samplet_basis


class BenchError(ValueError):
    pass


GENERATORS = ("spss", "spms", "cartoon")
# a ridge coefficient below this share of the largest one does not count
# towards beta_nnz
RIDGE_DROP_REL = 1e-4
GRID_CHUNK = 256  # grid points evaluated per kernel block in grid_eval


@dataclass
class BenchmarkCase:
    generator: str
    n: int
    seed: int = 1
    noise_level: float = 0.05
    kernel: KernelSpec = field(
        default_factory=lambda: KernelSpec("matern32", length=0.25))
    q: int = 3
    dim: int = 2
    n_translates: int = 10

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise BenchError(f"unknown generator: {self.generator}")
        if not 0 <= self.noise_level < inf:
            raise BenchError("noise_level must be nonnegative and finite")
        if self.generator == "spms" and self.n < 100:
            raise BenchError("spms needs at least 100 points")


@dataclass
class BenchData:
    cloud: PointCloud
    basis: SampletBasis
    clean: np.ndarray
    noisy: np.ndarray
    support: np.ndarray  # ground-truth indices (single-scale or samplet)
    support_basis: str   # "single_scale" | "samplet" | "none"
    coefficients: np.ndarray  # generator coefficients on the support


def default_leaf_capacity(m_q):
    # every leaf can carry the full moment count
    return 2 * m_q


def untimed(name):
    """The stage context of a run that records nothing."""
    return nullcontext()


class StageTimer:
    """Wall time and the process's peak RSS after each stage of a run, in
    run order: ``with timer("tree"): ...`` adds ``timings["tree"]``."""

    def __init__(self):
        self.timings = {}

    @contextmanager
    def __call__(self, name):
        t0 = perf_counter()
        yield
        # ru_maxrss, the process's high-water mark, is in KiB on Linux
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.timings[name] = {"wall_s": perf_counter() - t0,
                              "peak_rss_mb": rss / 1024.0}


def build_basis(cloud, q, stage=untimed):
    """Cluster tree (stage ``tree``) and samplet basis (stage ``basis``) of
    ``cloud`` with the default leaf capacity."""
    m_q = comb(q + cloud.dim, cloud.dim)
    with stage("tree"):
        tree = build_cluster_tree(cloud, default_leaf_capacity(m_q))
    with stage("basis"):
        return build_samplet_basis(tree, cloud, q)


def spms_index_window(n):
    """Low-and-middle-frequency samplet index window, rescaled with N from
    the reference window {1e3, ..., 1e4} at N = 1e6."""
    lo = max(1, n // 1000)
    hi = min(10_000, n)
    if hi <= lo:
        raise BenchError("spms index window empty")
    return lo, hi


def generate(case: BenchmarkCase, stage=untimed):
    """Build the cloud, samplet basis, and noisy benchmark data; ``stage``
    times the steps ``tree``, ``basis`` and ``data`` (see StageTimer)."""
    rng = np.random.default_rng(case.seed)
    cloud = PointCloud(rng.uniform(-0.5, 0.5, size=(case.n, case.dim)))
    basis = build_basis(cloud, case.q, stage)
    with stage("data"):
        return _draw_data(case, cloud, basis, rng)


def _draw_data(case, cloud, basis, rng):
    """The signal of ``case`` on ``cloud`` and its noisy samples, drawn
    from ``rng`` after the points."""
    if case.generator == "spss":
        idx = np.sort(rng.choice(case.n, size=case.n_translates, replace=False))
        Kcols = cross_matrix(case.kernel, cloud.points, cloud.points[idx])
        raw = Kcols.sum(axis=1)
        c = 1.0 / (2.0 * raw.max())
        clean = c * raw
        support = idx
        support_basis = "single_scale"
        coeffs = np.full(idx.size, c)
    elif case.generator == "spms":
        lo, hi = spms_index_window(case.n)
        idx = np.sort(rng.choice(np.arange(lo, hi), size=case.n_translates,
                                 replace=False))
        sel = np.zeros(case.n)
        sel[idx] = 1.0
        omega = basis.inverse(sel)  # summed coefficient vectors, point order
        nz = np.nonzero(omega)[0]   # samplet supports are local
        raw = grid_eval([omega[nz]], [case.kernel],
                        PointCloud(cloud.points[nz]), cloud.points)
        c = 1.0 / (2.0 * raw.max())
        clean = c * raw
        support = idx
        support_basis = "samplet"
        coeffs = np.full(idx.size, c)
    else:  # cartoon
        radii = np.linalg.norm(cloud.points, axis=1)
        clean = np.where(radii < 0.25, 0.5, 0.0)
        support = np.empty(0, dtype=np.int64)
        support_basis = "none"
        coeffs = np.empty(0)

    if case.noise_level > 0:
        eta = rng.standard_normal(case.n)
        eta *= case.noise_level * np.linalg.norm(clean) / np.linalg.norm(eta)
        noisy = clean + eta
    else:
        noisy = clean.copy()
    return BenchData(cloud=cloud, basis=basis, clean=clean, noisy=noisy,
                     support=support, support_basis=support_basis,
                     coefficients=coeffs)


def metrics(report, data: BenchData, op):
    """Table-style metric record for a solve on benchmark data; ``op`` is
    the operator the solve used, so its fit can be compared with the clean
    data."""
    beta = np.asarray(report.beta).ravel()
    alpha = np.asarray(report.alpha).ravel()
    if report.method == "ridge_cg":
        amax = np.abs(beta).max()
        nnz = int(np.count_nonzero(np.abs(beta) > RIDGE_DROP_REL * amax)) \
            if amax > 0 else 0
    else:
        nnz = int(np.count_nonzero(beta))
    clean_sigma = data.basis.forward(data.clean)
    resid = op.matvec(beta) - clean_sigma
    denom = np.linalg.norm(clean_sigma)
    rel_l2 = float(np.linalg.norm(resid) / denom) if denom > 0 else 0.0
    denom_inf = np.abs(clean_sigma).max()
    rel_inf = float(np.abs(resid).max() / denom_inf) if denom_inf > 0 else 0.0
    rec = {
        "method": report.method,
        "iterations": int(report.iterations),
        "wall_time": float(report.wall_time),
        "beta_nnz": nnz,
        "residual_inf": float(report.residual_inf),
        "rel_l2_error": rel_l2,
        "rel_inf_error": rel_inf,
    }
    if data.support.size:
        if data.support_basis == "single_scale":
            coeff = alpha
        else:
            coeff = beta
        cmax = np.abs(coeff).max()
        thresh = 1e-3 * cmax if cmax > 0 else 0.0
        recovered = np.abs(coeff[data.support]) > thresh
        rec["support_recovery"] = float(np.mean(recovered))
    return rec


def grid_eval(alphas, kernels, cloud: PointCloud, grid_points):
    """Direct-summation evaluation of a (multi-kernel) interpolant on a grid.

    alphas and kernels are parallel lists; pass single-element lists for one
    kernel.  grid_points is (M, d).
    """
    if len(alphas) != len(kernels):
        raise BenchError(f"{len(alphas)} coefficient vectors for "
                         f"{len(kernels)} kernels")
    grid_points = np.atleast_2d(np.asarray(grid_points, dtype=float))
    (m, d), n = grid_points.shape, cloud.n
    require_memory(8 * (m + min(m, GRID_CHUNK) * (CROSS_COPIES * n + d)
                        + n * d), f"grid evaluation of {m} points at N = {n}")
    out = np.zeros(m)
    for alpha, spec in zip(alphas, kernels):
        alpha = np.asarray(alpha, dtype=float)
        for lo in range(0, m, GRID_CHUNK):
            hi = min(lo + GRID_CHUNK, m)
            out[lo:hi] += cross_matrix(spec, grid_points[lo:hi],
                                       cloud.points) @ alpha
    return out


def cartesian_grid(box, shape):
    """Regular grid over an axis-aligned box, shape (prod(shape), d)."""
    m = prod(shape)  # the mesh and the stacked points: two such arrays
    require_memory(16 * m * len(shape), f"a grid of {m} points")
    axes = [np.linspace(box[0][j], box[1][j], shape[j])
            for j in range(len(shape))]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)
