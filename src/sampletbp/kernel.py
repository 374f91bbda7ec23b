"""Kernel families, tensor-product kernels, and dense kernel matrices."""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np
from scipy.spatial.distance import cdist

from .geometry import BudgetError, PointCloud


class KernelError(ValueError):
    pass


FAMILIES = ("matern32", "exponential", "gaussian", "periodic", "tensor")


@dataclass(frozen=True)
class KernelSpec:
    """One kernel: radial family + correlation length, or a tensor product.

    With dim_scaling the radial argument is r / (length * sqrt(d)); without
    it the argument is r / length, which lets formulas with baked-in
    constants be expressed directly.  For the periodic family the kernel is
    exp(-periodic_scale * sin^2(pi * frequency * r)).
    """

    family: str
    length: float = 1.0
    dim_scaling: bool = True
    periodic_scale: float = 50.0
    frequency: float = 1.0
    components: tuple = ()  # tensor: ((KernelSpec, coordinate indices), ...)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise KernelError(f"unknown kernel family: {self.family}")
        if self.family != "tensor" and self.length <= 0:
            raise KernelError("correlation length must be positive")
        if self.family == "tensor" and not self.components:
            raise KernelError("tensor kernel needs components")


def radial_profile(spec: KernelSpec, r, dim):
    """Evaluate a radial family on an array of distances."""
    r = np.asarray(r, dtype=float)
    scale = spec.length * sqrt(dim) if spec.dim_scaling else spec.length
    t = r / scale
    if spec.family == "matern32":
        s = sqrt(3.0) * t
        return (1.0 + s) * np.exp(-s)
    if spec.family == "exponential":
        return np.exp(-t)
    if spec.family == "gaussian":
        return np.exp(-0.5 * t * t)
    if spec.family == "periodic":
        s = np.sin(np.pi * spec.frequency * r)
        return np.exp(-spec.periodic_scale * s * s)
    raise KernelError(f"{spec.family} is not a radial family")


def _component_slices(spec, dim):
    slices = []
    covered = []
    for comp, idx in spec.components:
        idx = tuple(int(i) for i in idx)
        covered.extend(idx)
        slices.append((comp, idx))
    if sorted(covered) != list(range(dim)):
        raise KernelError("tensor component slices must partition the coordinates")
    return slices


def evaluate(spec: KernelSpec, x, y):
    """Pointwise kernel value k(x, y)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise KernelError("dimension mismatch between x and y")
    d = x.shape[0]
    if spec.family == "tensor":
        val = 1.0
        for comp, idx in _component_slices(spec, d):
            val *= evaluate(comp, x[list(idx)], y[list(idx)])
        return float(val)
    r = float(np.linalg.norm(x - y))
    return float(radial_profile(spec, r, d))


def cross_matrix(spec: KernelSpec, xs, ys):
    """Kernel evaluations between two point sets, shape (len(xs), len(ys))."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if xs.shape[1] != ys.shape[1]:
        raise KernelError("dimension mismatch between point sets")
    d = xs.shape[1]
    if spec.family == "tensor":
        out = np.ones((xs.shape[0], ys.shape[0]))
        for comp, idx in _component_slices(spec, d):
            out *= cross_matrix(comp, xs[:, list(idx)], ys[:, list(idx)])
        return out
    R = cdist(xs, ys)
    K = radial_profile(spec, R, d)
    if not np.all(np.isfinite(K)):
        raise KernelError("non-finite kernel values")
    return K


def assemble_dense(spec: KernelSpec, cloud: PointCloud, cap=65536):
    """Dense kernel matrix K[i, j] = k(x_i, x_j), symmetrized exactly."""
    if cloud.n > cap:
        raise BudgetError(f"dense assembly capped at N = {cap}")
    K = cross_matrix(spec, cloud.points, cloud.points)
    # in-place symmetrization keeps the peak memory at one extra buffer
    K += K.T
    K *= 0.5
    return K
