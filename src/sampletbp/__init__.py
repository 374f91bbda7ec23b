"""Multiresolution scattered-data approximation with samplets.

Builds orthogonal samplet bases on arbitrary point clouds, compresses
kernel matrices in samplet coordinates, and solves kernel ridge regression
and l1-regularized basis pursuit problems with FISTA and a semi-smooth
Newton active-set method.
"""

__version__ = "0.1.0"

from .bench import BenchmarkCase, generate, grid_eval, metrics
from .geometry import (BudgetError, ClusterTree, PointCloud, bounding_box,
                       build_cluster_tree)
from .kernel import KernelSpec, assemble_dense, evaluate
from .operator import CompressedOperator, compress, estimate_lipschitz
from .samplet import (SampletBasis, build_samplet_basis,
                      coefficient_l1_profile)
from .solver import (SolveReport, SolverConfig, fista, ir_mrssn, mrssn,
                     ridge_cg, soft_shrinkage, solve_multi_kernel)

__all__ = [
    "BenchmarkCase", "BudgetError", "ClusterTree", "CompressedOperator",
    "KernelSpec", "PointCloud", "SampletBasis", "SolveReport", "SolverConfig",
    "assemble_dense", "bounding_box", "build_cluster_tree",
    "build_samplet_basis",
    "coefficient_l1_profile", "compress", "estimate_lipschitz", "evaluate",
    "fista", "generate", "grid_eval", "ir_mrssn", "metrics", "mrssn",
    "ridge_cg", "soft_shrinkage", "solve_multi_kernel",
]
