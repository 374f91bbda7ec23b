"""Solution algorithms: ridge regression by CG, soft-shrinkage, FISTA in
single-scale and multiresolution modes, the semi-smooth Newton active-set
method, and its iteratively regularized continuation."""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from .geometry import require_memory
from .operator import GRAM_CHUNK, CompressedOperator, estimate_lipschitz


class SolverError(RuntimeError):
    pass


MAX_NEWTON = 100  # Newton iterations of a plain solve and of the final stage
STAGE_NEWTON = 10  # Newton iterations of each earlier continuation stage
CD_SWEEPS = 50  # coordinate-descent sweeps per rejected Newton step
CD_STOP = 1e-14  # a burst ends after a sweep with no larger step
CD_CHUNK = 4  # first chunk of sign-preserving sweeps verified together
DAMP_STEPS = 8  # Newton step lengths 1, 1/2, ..., 2**-7 tried before CD
# peak memory of a Newton solve whose Gram cache holds c columns in storage
# of side s: 8 s^2 bytes for the storage plus NEWTON_COPIES float64 c x c
# blocks.  The peak comes in a coordinate-descent fallback: beside the
# storage it holds the swept block, its column-major copy and one sign
# pattern, about five blocks.  The rest covers the interpreter and the
# libraries, so that for mrssn on spss and spms at N = 2000 to 4000 the
# estimate is at or above the measured peak RSS of the whole process (7.9
# blocks at most)
NEWTON_COPIES = 9
# the coarse block of ridge_cg's scaling holds the coarsest whole levels of
# at most COARSE samplets: for q = 3 in 2-D, levels 0-4, 320 coefficients at
# every N.  Caps of 0, 160, 512, 1024 and 2048 (coarse blocks of 0, 160,
# 320, 640 and 1280) took 77, 18, 11, 6 and 4 CG iterations and 59, 33, 25,
# 31 and 75 ms per solve on cartoon at N = 6000, and 62, 13, 9, 5 and 4
# iterations and 95, 49, 46, 50 and 96 ms on spss at N = 10^4 (seed 1,
# lam = 2e-5 N, 2-core host): a larger block costs more to factor than the
# iterations it saves
COARSE = 512
# peak memory of ridge_cg's block scaling: SCALING_COPIES float64 arrays
# as long as the blocks' entries, c^2 for the coarse block plus s^2 for each
# finer one (tracemalloc: 10.0 for the diagonal alone, where every block
# has one index and per-index arrays dominate, at N = 10^5 and 10^6; 2.3 to
# 3.2 with a basis, for spss at N = 2000 and 10^4 and cartoon at N = 6000).
# The search keys of diagonal_blocks, about 1 MiB, are left out
SCALING_COPIES = 12


@dataclass
class SolverConfig:
    tol: float = 9e-7
    max_iter: int = 10000
    lam: float = 0.0  # ridge regularization as lambda / N
    mu0: float = 1.05
    outer_steps: int = 250

    def __post_init__(self):
        # comparisons that NaN fails, so NaN is rejected with the rest
        if not 0 < self.tol < math.inf:
            raise SolverError("tol must be positive and finite")
        if not 0 <= self.lam < math.inf:
            raise SolverError("lam must be nonnegative and finite")
        if not 1 < self.mu0 < math.inf:
            raise SolverError("mu0 must exceed 1 and be finite")
        if self.max_iter < 1:
            raise SolverError("max_iter must be at least 1")
        if self.outer_steps < 0:
            raise SolverError("outer_steps must be nonnegative")
        try:
            math.pow(self.mu0, self.outer_steps)
        except OverflowError:
            raise SolverError("mu0 ** outer_steps, the first weight scale, "
                              "overflows") from None


@dataclass
class SolveReport:
    method: str
    beta: np.ndarray
    alpha: np.ndarray
    iterations: int
    final_active_size: int
    residual_inf: float
    objective: float
    wall_time: float
    history: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def to_dict(self, include_coefficients=True, include_timings=True):
        out = {
            "method": self.method,
            "iterations": int(self.iterations),
            "final_active_size": int(self.final_active_size),
            "residual_inf": float(self.residual_inf),
            "objective": float(self.objective),
            "history": self.history,
            "extras": self.extras,
        }
        if include_timings:
            out["wall_time"] = float(self.wall_time)
        if include_coefficients:
            out["beta"] = [float(x) for x in np.asarray(self.beta).ravel()]
            out["alpha"] = [float(x) for x in np.asarray(self.alpha).ravel()]
        else:
            # identifies beta bit for bit without writing it out
            beta = np.ascontiguousarray(self.beta, dtype="<f8").ravel()
            out["beta_sha256"] = hashlib.sha256(beta.tobytes()).hexdigest()
        return out

    def to_json(self, include_coefficients=True, include_timings=True):
        return json.dumps(
            self.to_dict(include_coefficients=include_coefficients,
                         include_timings=include_timings),
            sort_keys=True)

    def coefficients_csv(self, path):
        beta = np.asarray(self.beta).ravel()
        alpha = np.asarray(self.alpha).ravel()
        with open(path, "w") as fh:
            fh.write("index,beta,alpha\n")
            for i, (b, a) in enumerate(zip(beta, alpha)):
                fh.write(f"{i},{b:.17g},{a:.17g}\n")


def soft_shrinkage(v, w):
    """sign(v) * max(0, |v| - w), coordinate-wise."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if np.any(w < 0):
        raise SolverError("shrinkage weights must be nonnegative")
    return _shrink(v, w)


def _shrink(v, w):
    """soft_shrinkage of float arrays, weights not checked."""
    return np.sign(v) * np.maximum(0.0, np.abs(v) - w)


def _finite_data(h_sigma):
    h = np.asarray(h_sigma, dtype=float)
    if not np.all(np.isfinite(h)):
        raise SolverError("non-finite entries in the data vector h_sigma")
    return h


def _weights(w, n):
    """The weights broadcast to n coordinates, as a writable copy."""
    w = np.broadcast_to(np.asarray(w, dtype=float), (n,)).copy()
    if not np.all((0 <= w) & (w < np.inf)):
        raise SolverError("weights must be nonnegative and finite")
    return w


def _objective(op, h, beta, w):
    r = h - op.matvec(beta)
    return 0.5 * float(r @ r) + float(np.abs(beta) @ np.broadcast_to(w, beta.shape))


def _finish(method, op, h, beta, w, iterations, residual_inf, t0, basis=None,
            history=None, extras=None):
    if basis is not None:
        alpha = basis.inverse(beta)
    else:
        alpha = beta.copy()
    return SolveReport(
        method=method, beta=beta, alpha=alpha, iterations=iterations,
        final_active_size=int(np.count_nonzero(beta)),
        residual_inf=float(residual_inf),
        objective=_objective(op, h, beta, np.asarray(w, dtype=float)),
        wall_time=time.perf_counter() - t0,
        history=history or [], extras=extras or {})


# -- ridge regression -------------------------------------------------------

def _scaling_blocks(basis, n):
    """The diagonal blocks of ridge_cg's scaling as (c, sizes): the coarse
    block [0, c), then consecutive finer blocks of the given sizes.

    With a basis the coarse block holds every samplet of the coarsest
    levels, up to COARSE coefficients, and each finer block one cluster's
    own samplets, a run of the breadth-first output order; without one
    there is no coarse block and every index is a block of its own."""
    if basis is None:
        return 0, np.ones(n, dtype=np.int64)
    ends = np.searchsorted(basis.levels, np.arange(basis.levels[-1] + 1),
                           side="right")
    c = int(ends[ends <= COARSE].max(initial=0))
    cuts = [blk.out_start for blk in basis.blocks_bfs
            if blk.n_samplets and blk.out_start > c]
    return c, np.diff(np.unique([c, *cuts, n]))


def _invert_spd(G):
    """Overwrite a stack of symmetric positive definite matrices with their
    inverses (L^-1)^T L^-1, from their Cholesky factors L.  L^-1 overwrites
    L by forward substitution, a row at a time over the whole stack: row i
    of L^-1 needs row i of L and the rows of L^-1 above it."""
    L = np.linalg.cholesky(G)
    for i in range(L.shape[-1]):
        d = L[:, i, i, None]
        L[:, i, :i] = -(L[:, i, None, :i] @ L[:, :i, :i])[:, 0] / d
        L[:, i, i] = 1.0 / d[:, 0]
    np.matmul(np.swapaxes(L, 1, 2), L, out=G)


def _block_scaling(op, lam, basis):
    """v -> B^-1 v for B the block diagonal of K^Sigma + lam I over the
    blocks of ``_scaling_blocks``: two triangular solves with the coarse
    block's Cholesky factor, and one sparse product with the finer blocks'
    inverses, which are factored together, a stack per block size."""
    n = op.n_cols
    c, sizes = _scaling_blocks(basis, n)
    size_of = np.repeat(sizes, sizes)  # finer index -> size of its block
    fine = int(size_of.sum())  # entries of the finer blocks
    require_memory(8 * SCALING_COPIES * (c * c + fine),
                   f"the block scaling of ridge_cg at N = {n}")
    blocks = op.diagonal_blocks(np.concatenate([[c], sizes]))
    inv = blocks[c * c:]
    offsets = np.cumsum(sizes * sizes) - sizes * sizes
    try:
        for s in np.unique(sizes):
            at = offsets[sizes == s, None] + np.arange(s * s)
            G = inv[at].reshape(-1, s, s)
            G[:, np.arange(s), np.arange(s)] += lam
            _invert_spd(G)
            inv[at] = G.reshape(at.shape)
        if c:
            A = blocks[:c * c].reshape(c, c)
            A[np.diag_indices(c)] += lam
            # U = L^T is column-major, as dtrsv takes it.  numpy factors,
            # not scipy: scipy's first factorization in a process raised
            # cartoon_ridge's peak RSS by 1.6 MB, while numpy's library is
            # already in use by the build
            U = np.linalg.cholesky(A).T
    except np.linalg.LinAlgError:
        raise SolverError("a diagonal block of K + lam I is not positive "
                          "definite; block scaling unusable") from None
    # row i of a block of size s starting at index f holds columns f to
    # f + s - 1: the CSR structure of the finer blocks' inverses
    indptr = np.concatenate([np.zeros(c + 1, np.int64), np.cumsum(size_of)])
    first = np.repeat(np.cumsum(sizes) - sizes, sizes) + c
    indices = np.repeat(first - indptr[c:-1], size_of).astype(
        scipy.sparse.get_index_dtype(maxval=n))
    indices += np.arange(fine, dtype=indices.dtype)
    finer = scipy.sparse.csr_matrix((inv, indices, indptr), shape=(n, n))

    def apply(v):
        z = finer @ v
        if c:
            y = scipy.linalg.blas.dtrsv(U, v[:c], trans=1)  # L y = v
            z[:c] = scipy.linalg.blas.dtrsv(U, y)  # L^T z = y
        return z

    return apply


def ridge_cg(op, h_sigma, lam, tol=9e-7, diagonal_scaling=False, basis=None):
    """CG for (K^Sigma + lam I) beta = h^Sigma; starts from zero and stops
    after at most 10 N iterations.

    ``diagonal_scaling`` preconditions with the block diagonal of
    K^Sigma + lam I (``_scaling_blocks``): with a basis, one dense block over
    the coarsest levels and one block per finer cluster's samplets; without
    one, the diagonal alone, which is Jacobi scaling."""
    t0 = time.perf_counter()
    h = _finite_data(h_sigma)
    n = h.shape[0]
    if not 0 <= lam < np.inf:
        raise SolverError("lam must be nonnegative and finite")

    def apply_A(v):
        return op.matvec(v) + lam * v

    if diagonal_scaling:
        scale = _block_scaling(op, lam, basis)
    else:
        def scale(v):
            return v

    x = np.zeros(n)
    r = h - apply_A(x)
    z = scale(r)
    p = z.copy()
    rz = float(r @ z)
    nh = float(np.linalg.norm(h))
    if nh == 0.0:
        return _finish("ridge_cg", op, h, x, 0.0, 0, 0.0, t0, basis,
                       extras={"relative_residual": 0.0, "lam": float(lam)})
    history = []
    iterations = 0
    for k in range(10 * n):
        if np.linalg.norm(r) / nh <= tol:
            break
        Ap = apply_A(p)
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise SolverError(
                "negative curvature in CG: the regularized system is not "
                "positive definite; lam is too small")
        gamma = rz / pAp
        x += gamma * p
        r -= gamma * Ap
        z = scale(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        iterations = k + 1
        history.append({"iter": iterations,
                        "rel_residual": float(np.linalg.norm(r) / nh)})
    rel = float(np.linalg.norm(h - apply_A(x)) / nh)
    return _finish("ridge_cg", op, h, x, 0.0, iterations, rel, t0, basis,
                   history=history, extras={"relative_residual": rel,
                                            "lam": float(lam)})


# -- FISTA ------------------------------------------------------------------

def fista(op, h_sigma, w, config=None, basis=None, mode="mr"):
    """Fixed-step FISTA from zero, with step 1 / estimate_lipschitz(op).

    mode "single": iterates live in single-scale coordinates, shrinkage is
    applied after mapping back with T^T (requires a basis).  mode "mr":
    samplet coordinates everywhere (MRFISTA).  Stops once the proximal
    gradient map falls below tol in the max norm.
    """
    cfg = config or SolverConfig()
    t0 = time.perf_counter()
    h = _finite_data(h_sigma)
    n = op.shape[1]
    w = _weights(w, n)
    if mode not in ("mr", "single"):
        raise SolverError(f"unknown FISTA mode: {mode}")
    if mode == "single" and basis is None:
        raise SolverError("single-scale FISTA needs the samplet basis")
    delta = 1.0 / estimate_lipschitz(op)

    x_prev = np.zeros(n)
    y = x_prev.copy()
    t = 1.0
    history = []
    d_inf = np.inf
    iterations = 0
    method = "mrfista" if mode == "mr" else "fista"
    for k in range(1, cfg.max_iter + 1):
        if mode == "single":
            eta = basis.forward(y)
            g = op.matvec_transpose(op.matvec(eta) - h)
            x = soft_shrinkage(y - delta * basis.inverse(g), delta * w)
        else:
            g = op.matvec_transpose(op.matvec(y) - h)
            x = soft_shrinkage(y - delta * g, delta * w)
        if not np.all(np.isfinite(x)):
            raise SolverError("divergent FISTA iterate; step size too large")
        d_inf = float(np.abs(y - x).max() / delta)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x + ((t - 1.0) / t_next) * (x - x_prev)
        t = t_next
        x_prev = x
        iterations = k
        history.append({"iter": k, "grad_inf": d_inf,
                        "nnz": int(np.count_nonzero(x))})
        if d_inf < cfg.tol:
            break
    beta = x_prev if mode == "mr" else basis.forward(x_prev)
    report = _finish(method, op, h, beta, w, iterations, d_inf, t0, basis,
                     history=history, extras={"delta": float(delta),
                                       "converged": bool(d_inf < cfg.tol)})
    if mode == "single":
        # shrinkage acts on single-scale coefficients; report them exactly
        report.alpha = x_prev
        report.final_active_size = int(np.count_nonzero(x_prev))
        report.objective = 0.5 * float(np.sum((h - op.matvec(beta)) ** 2)) \
            + float(np.abs(x_prev) @ w)
    return report


# -- semi-smooth Newton -----------------------------------------------------

# The Newton step and the gamma rule call LAPACK directly, with the flags
# and workspace that scipy.linalg's cho_factor, cho_solve and eigvalsh pass:
# the results are bitwise theirs, without their checks and dispatch, which
# cost more than the arithmetic on blocks of a few dozen columns

def _spd_solve(A, b):
    """x with A x = b, for symmetric positive definite A, by dpotrf and
    dpotrs on A's upper triangle; A and b may be overwritten.  Raises
    LinAlgError if the factorization fails."""
    c, info = scipy.linalg.lapack.dpotrf(A, lower=0, clean=0, overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError(f"dpotrf returned info = {info}")
    return scipy.linalg.lapack.dpotrs(c, b, lower=0, overwrite_b=1)[0]


def _smallest_eigenvalue(A, workspace):
    """The smallest eigenvalue of symmetric A, from its lower triangle, by
    dsyevr with the workspace sizes of its query, kept in the dict
    ``workspace`` by order: they set dsytrd's blocking and so the
    rounding."""
    n = A.shape[0]
    if n not in workspace:
        lwork, liwork, _ = scipy.linalg.lapack.dsyevr_lwork(n, lower=1)
        workspace[n] = int(lwork), int(liwork)
    lwork, liwork = workspace[n]
    w, _, _, _, info = scipy.linalg.lapack.dsyevr(
        A, compute_v=0, range="I", il=1, iu=1, lower=1, lwork=lwork,
        liwork=liwork)
    if info:
        raise np.linalg.LinAlgError(f"dsyevr returned info = {info}")
    return float(w[0])


class _GammaState:
    """Gamma starts at 1/L and is re-estimated as the smallest eigenvalue of
    the active-set Gram matrix whenever the active set is nonempty and
    differs from the one of the last estimate, unless the Gram matrix is
    numerically singular."""

    def __init__(self, op):
        self.gamma = 1.0 / estimate_lipschitz(op)
        self._key = None  # active set of the last estimate
        self._workspace = {}  # order -> dsyevr's workspace sizes

    def maybe_update(self, active, M_aa):
        if M_aa.size == 0:
            return
        key = active.tobytes()
        if key == self._key:
            return  # same M_aa, same eigenvalue: gamma already reflects it
        self._key = key
        eig_min = _smallest_eigenvalue(M_aa, self._workspace)
        # at or below the numerical-rank tolerance M_aa is singular and
        # eig_min is rounding noise: gamma keeps its value
        rank_tol = M_aa.shape[0] * np.finfo(float).eps * M_aa.diagonal().max()
        if eig_min > rank_tol:
            self.gamma = eig_min


class _GramCache:
    """Entries of M = K^T K over the set S of column indices seen so far.

    M depends on neither mu nor gamma, so one cache serves every Newton
    iteration and continuation stage of a solve.  Only unseen indices are
    fetched from the operator, one ``gram_submatrix(S, new)`` call each
    time; the storage doubles when full, up to N columns.  A growth whose
    estimated peak, the storage plus NEWTON_COPIES blocks over every cached
    column plus the fetch's dense column chunk and its product (16
    GRAM_CHUNK bytes), exceeds the machine's physical memory raises
    ``BudgetError`` before anything is allocated.
    """

    def __init__(self, op):
        self.op = op
        self.slot = np.full(op.shape[1], -1, dtype=np.int64)  # index -> row
        self.cols = np.empty(0, dtype=np.int64)  # row -> index
        self.M = np.empty((0, 0))
        self.fetches = 0

    @property
    def size(self):
        return self.cols.size

    def block(self, rows, cols=None):
        """Dense Gram block M[rows, cols]; ``cols`` defaults to ``rows``."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = rows if cols is None else np.asarray(cols, dtype=np.int64)
        at_rows, at_cols = self.slot[rows], self.slot[cols]
        if (at_rows < 0).any() or (at_cols < 0).any():
            idx = np.concatenate([rows, cols])
            self._add(np.unique(idx[self.slot[idx] < 0]))
            at_rows, at_cols = self.slot[rows], self.slot[cols]
        return self.M[at_rows[:, None], at_cols]  # np.ix_, without its checks

    def _add(self, new):
        lo, hi = self.size, self.size + new.size
        cap = self.M.shape[0]
        if hi > cap:
            cap = min(self.slot.size, max(hi, 2 * cap))
        require_memory(8 * (cap * cap + NEWTON_COPIES * hi * hi)
                       + 16 * GRAM_CHUNK,
                       f"the Newton system over {hi} columns")
        if cap > self.M.shape[0]:
            M = np.empty((cap, cap))
            M[:lo, :lo] = self.M[:lo, :lo]
            self.M = M
        self.cols = np.concatenate([self.cols, new])
        self.slot[new] = np.arange(lo, hi)
        G = self.op.gram_submatrix(self.cols, new)
        self.fetches += 1
        self.M[:hi, lo:hi] = G
        self.M[lo:hi, :lo] = G[:lo].T


def _cd_sweep(b, g, d, thr, cols):
    """One cyclic coordinate-descent sweep over the list ``b``; ``g`` is the
    negative gradient of the smooth part, updated in place, ``d`` the
    diagonal and ``thr`` the weights divided by it.  Returns the largest
    step."""
    delta_max = 0.0
    for j in range(len(b)):
        z = b[j] + g.item(j) / d[j]
        s = abs(z) - thr[j]
        s = s if s > 0.0 else 0.0
        bj = s if z > 0 else -s if z < 0 else 0.0
        step = bj - b[j]
        if step != 0.0:
            g -= cols[:, j] * step
            b[j] = bj
            delta_max = max(delta_max, abs(step))
    return delta_max


class _SignPattern:
    """Cyclic coordinate-descent sweeps that change no sign, as Gauss-Seidel
    steps.

    Take the support P of b with signs s, c = kth_P - w_P s and the split
    M_PP = L + D + U into strictly lower, diagonal and strictly upper
    parts.  A sweep that moves no coordinate to or from zero and changes no
    sign solves (D + L) b+_P = c - U b_P.  It is valid when every b+_p
    keeps its sign s_p and every zero coordinate j passes the scalar
    sweep's test for staying at zero,
    |kth_j - sum_{p<j} M_jp b+_p - sum_{p>j} M_jp b_p| <= w_j.
    """

    def __init__(self, b, kth, w, M):
        self.support = P = np.flatnonzero(b)
        self.signs = np.sign(b[P])
        zeros = np.flatnonzero(b == 0.0)
        M_pp = M[np.ix_(P, P)]
        self.lower = np.asfortranarray(np.tril(M_pp))  # D + L, for trsv
        self.upper = np.triu(M_pp, 1)
        self.c = kth[P] - w[P] * self.signs
        # M[zeros, P] split into the coordinates swept before and after each
        # zero coordinate: the first meet the new iterate, the rest the old
        M_zp = M[np.ix_(zeros, P)]
        before = P < zeros[:, None]
        self.M_new = np.where(before, M_zp, 0.0)
        self.M_old = np.where(before, 0.0, M_zp)
        self.kth_z, self.w_z = kth[zeros], w[zeros]

    def sweep(self, b_p, m):
        """Up to m sweeps from the support values b_p, verified together.

        Returns the support values after the valid sweeps that come before
        the first invalid one, or up to and including the first whose
        largest step is below CD_STOP, the number of those sweeps, and
        whether that stop was reached."""
        B = np.empty((m + 1, b_p.size))
        B[0] = b_p
        for k in range(m):
            # BLAS trsv itself: solve_triangular's checks cost more than the
            # solve at these sizes, and OpenBLAS runs its LAPACK trtrs on
            # every thread, whose idle spinning then slows this one
            B[k + 1] = scipy.linalg.blas.dtrsv(
                self.lower, self.c - self.upper @ B[k], lower=1)
        new, old = B[1:], B[:-1]
        valid = (new * self.signs > 0.0).all(axis=1)
        rho = self.kth_z[:, None] - self.M_new @ new.T - self.M_old @ old.T
        valid &= (np.abs(rho) <= self.w_z[:, None]).all(axis=0)
        n_valid = m if valid.all() else int(np.argmin(valid))
        small = np.abs(new - old).max(axis=1)[:n_valid] < CD_STOP
        if small.any():
            k = int(np.argmax(small)) + 1
            return B[k], k, True
        return B[n_valid], n_valid, False


def _cd_burst(kth, beta, w, active, M_aa, sweeps):
    """Cyclic coordinate descent on the weighted-l1 problem restricted to the
    active coordinates; every inactive coordinate stays at zero.  ``kth`` is
    K^T h.  Returns the new beta and the number of sweeps run: at most
    ``sweeps``, fewer once a sweep's largest step is below CD_STOP.

    The iterates are those of sweeping one coordinate at a time, up to
    rounding.  Sweeps run one coordinate at a time until one changes no
    sign and moves no coordinate to or from zero.  The following sweeps
    then run as the Gauss-Seidel steps of ``_SignPattern``, in chunks of
    CD_CHUNK, 2 CD_CHUNK, ... sweeps verified together.  The first invalid
    sweep of a chunk runs one coordinate at a time again, and so does the
    whole burst when a diagonal entry of M_aa is not positive.
    """
    kth, w = kth[active], w[active]
    b = beta[active]
    diag = np.diag(M_aa).copy()
    batched = bool(np.all(diag > 0))  # else every sweep stays scalar
    diag[diag <= 0] = 1.0
    cols = np.asfortranarray(M_aa)  # contiguous columns for the updates
    d, thr = diag.tolist(), (w / diag).tolist()
    done, stopped = 0, False
    while done < sweeps and not stopped:
        # negative gradient of the smooth part on the active block
        g = kth - M_aa @ b
        b = b.tolist()
        while done < sweeps and not stopped:
            signs = np.sign(b)
            done += 1
            stopped = _cd_sweep(b, g, d, thr, cols) < CD_STOP
            if batched and np.array_equal(np.sign(b), signs):
                break
        b = np.array(b)
        if done == sweeps or stopped:
            break
        # no sign changed: the following sweeps are Gauss-Seidel steps.
        # the last pattern is dropped before the next one is built
        pattern = None
        pattern = _SignPattern(b, kth, w, M_aa)
        chunk = CD_CHUNK
        while done < sweeps and not stopped:
            m = min(chunk, sweeps - done)
            b_p, k, stopped = pattern.sweep(b[pattern.support], m)
            b[pattern.support] = b_p
            done += k
            if k < m:
                break  # sweep done + 1 changes a sign
            chunk *= 2
    out = np.zeros(beta.shape[0])
    out[active] = b
    return out, done


def _damped_step(res, Kd, beta, d, w, f0):
    """The longest step t = 1, 1/2, ..., 2**(1 - DAMP_STEPS) along d whose
    objective 0.5 ||res - t Kd||^2 + w . |beta + t d| does not exceed f0,
    or 0.0 if there is none; ``res`` is h - K beta and ``Kd`` is K d."""
    t = 1.0
    for _ in range(DAMP_STEPS):
        rt = res - t * Kd
        if 0.5 * float(rt @ rt) + float(np.abs(beta + t * d) @ w) <= f0:
            return t
        t *= 0.5
    return 0.0


def _mrssn_loop(op, h, w, beta, res, g, state, tol, max_newton, counts,
                cache, kth):
    """Newton iterations from beta, whose data residual res = h - K beta and
    gradient g = K^T res come in and go out with it; ``kth`` is K^T h.
    Adds the steps taken, damped and rejected and the fallback sweeps to
    ``counts``."""
    n = op.shape[1]
    iterations = 0
    r_inf = np.inf
    for _ in range(max_newton):
        gamma = state.gamma
        u = beta + gamma * g
        r = beta - _shrink(u, gamma * w)
        r_inf = float(np.abs(r).max()) if n else 0.0
        if r_inf < tol:
            break
        is_active = np.abs(u) > gamma * w
        active = np.nonzero(is_active)[0]
        M_aa = cache.block(active)
        state.maybe_update(active, M_aa)
        if state.gamma != gamma:
            # the active set and residual are tied to gamma; redo both
            gamma = state.gamma
            u = beta + gamma * g
            r = beta - _shrink(u, gamma * w)
            is_active = np.abs(u) > gamma * w
            active = np.nonzero(is_active)[0]
            M_aa = cache.block(active)
        iterations += 1
        if active.size == 0:
            # no coordinate may move; the fixed point is beta = 0
            beta, res, g = np.zeros(n), h, kth
            continue
        # r equals beta off the active set, so M_AI r_I = M[A, S] beta[S]
        # over S = supp(beta) \ A, whose columns the cache already holds
        off = np.nonzero(~is_active & (beta != 0.0))[0]
        rhs = gamma * (cache.block(active, off) @ beta[off]) - r[active]
        f0 = 0.5 * float(res @ res) + float(np.abs(beta) @ w)
        t = 0.0
        try:
            # d is the full Newton step: beta + d is zero off the active set
            d = -beta
            d[active] = _spd_solve(gamma * M_aa, rhs)
            Kd = op.matvec(d)
            t = _damped_step(res, Kd, beta, d, w, f0)
        except np.linalg.LinAlgError:
            pass
        if t > 0.0:
            beta = beta + t * d
            res = res - t * Kd
            counts["newton_accepted"] += 1
            counts["newton_damped"] += t < 1.0
        else:
            # near-singular system or no descent along the Newton direction:
            # fall back to descent sweeps on the active block, which never
            # increase the objective.  the sweep block is widened to cover
            # the current support so the fallback cannot zero a live
            # coordinate and lose monotonicity.  The rejected step's blocks
            # are dropped first: the fallback is the solve's memory peak
            M_aa = None
            cd_active = np.union1d(active, np.nonzero(beta)[0])
            beta, sweeps = _cd_burst(kth, beta, w, cd_active,
                                     cache.block(cd_active), CD_SWEEPS)
            res = h - op.matvec(beta)
            counts["newton_rejected"] += 1
            counts["cd_sweeps"] += sweeps
        g = op.matvec_transpose(res)
    return beta, res, g, iterations, r_inf


def mrssn(op, h_sigma, w, config=None, basis=None):
    """Semi-smooth Newton iteration for the weighted-l1 fixed point problem,
    started from zero: ``ir_mrssn`` with no continuation stage, so one
    solve at mu = 1 with the full Newton budget."""
    return _newton_path("mrssn", op, h_sigma, w, config or SolverConfig(),
                        basis, mu=1.0)


def ir_mrssn(op, h_sigma, w, config=None, basis=None):
    """Continuation from zero over a geometrically decreasing weight scale
    mu, ending with a solve at mu = 1."""
    cfg = config or SolverConfig()
    return _newton_path("ir_mrssn", op, h_sigma, w, cfg, basis,
                        mu=cfg.mu0 ** cfg.outer_steps)


def _newton_path(method, op, h_sigma, w, cfg, basis, mu):
    """Newton stages from zero at the weight scales mu, mu / mu0, ..., down
    to a final stage at mu = 1."""
    t0 = time.perf_counter()
    h = _finite_data(h_sigma)
    n = op.shape[1]
    w = _weights(w, n)
    beta = np.zeros(n)
    state = _GammaState(op)
    history = []
    total_iters = 0
    counts = dict.fromkeys(("newton_accepted", "newton_damped",
                            "newton_rejected", "cd_sweeps"), 0)
    # M = K^T K, K^T h and the residual of beta do not depend on mu: one
    # copy serves every stage
    cache = _GramCache(op)
    kth = op.matvec_transpose(h)
    res, g = h, kth
    while True:
        # continuation stages only need to track the weight path; the full
        # Newton budget is reserved for the final stage at mu = 1
        cap = MAX_NEWTON if mu <= 1.0 else STAGE_NEWTON
        beta, res, g, iters, r_inf = _mrssn_loop(
            op, h, mu * w, beta, res, g, state, cfg.tol, cap, counts, cache,
            kth)
        total_iters += iters
        history.append({"outer": len(history) + 1, "mu": float(mu),
                        "newton_iters": iters, "residual_inf": r_inf,
                        "active": int(np.count_nonzero(beta))})
        if mu <= 1.0:
            break
        mu = max(1.0, mu / cfg.mu0)
    return _finish(method, op, h, beta, w, total_iters, r_inf, t0, basis,
                   history=history,
                   extras={"gamma": state.gamma, "outer_steps": len(history),
                           "converged": bool(r_inf < cfg.tol),
                           "gram_fetches": cache.fetches,
                           "gram_columns": cache.size, **counts})


# solver name -> (op, h_sigma, w, cfg, basis) -> SolveReport; ridge ignores w,
# solves with lam = cfg.lam * N and always uses the block scaling of
# ridge_cg (the diagonal alone where there is no basis)
SOLVERS = {
    "ridge": lambda op, h, w, cfg, basis: ridge_cg(
        op, h, cfg.lam * op.shape[1], tol=cfg.tol, basis=basis,
        diagonal_scaling=True),
    "fista": lambda op, h, w, cfg, basis: fista(
        op, h, w, config=cfg, basis=basis, mode="single"),
    "mrfista": lambda op, h, w, cfg, basis: fista(
        op, h, w, config=cfg, basis=basis, mode="mr"),
    "mrssn": mrssn,
    "ir_mrssn": ir_mrssn,
}


def solve_multi_kernel(ops, h_sigma, w, config=None, bases=None,
                       method="ir_mrssn"):
    """Run a sparse solver on the horizontal stack of the per-kernel
    operators ``ops``; ``bases`` gives each block's back-transform."""
    if method not in ("ir_mrssn", "mrfista"):
        raise SolverError(f"unsupported multi-kernel method: {method}")
    ops = tuple(ops)
    if bases is not None and len(bases) != len(ops):
        raise SolverError(f"{len(bases)} bases for {len(ops)} operators")
    report = SOLVERS[method](CompressedOperator.hstack(ops), h_sigma, w,
                             config or SolverConfig(), None)
    parts = np.split(report.beta, np.cumsum([op.n_cols for op in ops])[:-1])
    if bases is not None:
        report.alpha = np.concatenate(
            [b.inverse(p) for b, p in zip(bases, parts)])
    report.extras["block_nnz"] = [int(np.count_nonzero(p)) for p in parts]
    return report
