"""Solution algorithms: ridge regression by CG, soft-shrinkage, FISTA in
single-scale and multiresolution modes, the semi-smooth Newton active-set
method, and its iteratively regularized continuation."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .operator import estimate_lipschitz


class SolverError(RuntimeError):
    pass


@dataclass
class SolverConfig:
    tol: float = 9e-7
    max_iter: int = 10000
    lam: float = 0.0
    gamma: object = "auto"  # positive float or "auto"
    mu0: float = 1.05
    outer_steps: int = 250
    diagonal_scaling: bool = False
    active_set_cap: int = 20000
    max_newton: int = 100
    stage_newton: int = 10
    cd_sweeps: int = 50

    def __post_init__(self):
        if self.tol <= 0:
            raise SolverError("tol must be positive")
        if self.mu0 <= 1:
            raise SolverError("mu0 must exceed 1")


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
    return np.sign(v) * np.maximum(0.0, np.abs(v) - w)


def _finite_data(h_sigma):
    h = np.asarray(h_sigma, dtype=float)
    if not np.all(np.isfinite(h)):
        raise SolverError("non-finite entries in the data vector h_sigma")
    return h


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

def ridge_cg(op, h_sigma, lam, tol=9e-7, diagonal_scaling=False, basis=None,
             max_iter=None, x0=None):
    """CG for (K^Sigma + lam I) beta = h^Sigma, optional Jacobi scaling."""
    t0 = time.perf_counter()
    h = _finite_data(h_sigma)
    n = h.shape[0]
    if lam < 0:
        raise SolverError("lam must be nonnegative")
    if max_iter is None:
        max_iter = 10 * n

    def apply_A(v):
        return op.matvec(v) + lam * v

    inv_diag = None
    if diagonal_scaling:
        diag = op.diagonal() + lam
        if np.any(diag <= 0):
            raise SolverError("nonpositive diagonal; Jacobi scaling unusable")
        inv_diag = 1.0 / diag

    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    r = h - apply_A(x)
    z = r * inv_diag if inv_diag is not None else r
    p = z.copy()
    rz = float(r @ z)
    nh = float(np.linalg.norm(h))
    if nh == 0.0:
        return _finish("ridge_cg", op, h, x, 0.0, 0, 0.0, t0, basis)
    history = []
    iterations = 0
    for k in range(max_iter):
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
        z = r * inv_diag if inv_diag is not None else r
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

def fista(op, h_sigma, w, config=None, basis=None, x0=None, mode="mr",
          delta=None):
    """Fixed-step FISTA.

    mode "single": iterates live in single-scale coordinates, shrinkage is
    applied after mapping back with T^T (requires a basis).  mode "mr":
    samplet coordinates everywhere (MRFISTA).  Stops once the proximal
    gradient map falls below tol in the max norm.
    """
    cfg = config or SolverConfig()
    t0 = time.perf_counter()
    h = np.asarray(h_sigma, dtype=float)
    n = op.shape[1]
    w = np.broadcast_to(np.asarray(w, dtype=float), (n,))
    if np.any(w < 0):
        raise SolverError("weights must be nonnegative")
    if mode not in ("mr", "single"):
        raise SolverError(f"unknown FISTA mode: {mode}")
    if mode == "single" and basis is None:
        raise SolverError("single-scale FISTA needs the samplet basis")
    if delta is None:
        delta = 1.0 / estimate_lipschitz(op)

    x_prev = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
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

class _GammaState:
    """Re-estimates gamma as the smallest eigenvalue of the active-set Gram
    matrix whenever the active set is nonempty (auto mode only)."""

    def __init__(self, gamma, auto):
        self.gamma = float(gamma)
        self.auto = auto

    def maybe_update(self, M_aa):
        if not self.auto or M_aa.size == 0:
            return
        eig_min = float(scipy.linalg.eigvalsh(M_aa, subset_by_index=[0, 0])[0])
        if eig_min > 0:
            self.gamma = eig_min


class _GramCache:
    """Entries of M = K^T K over the set S of column indices seen so far.

    M depends on neither mu nor gamma, so one cache serves every Newton
    iteration and continuation stage of a solve.  Only unseen indices are
    fetched from the operator, one ``gram_submatrix(S, new)`` call each
    time; the storage doubles when full.
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

    def block(self, idx):
        """Dense Gram block M[idx, idx]."""
        idx = np.asarray(idx, dtype=np.int64)
        new = np.unique(idx[self.slot[idx] < 0])
        if new.size:
            self._add(new)
        pos = self.slot[idx]
        return self.M[np.ix_(pos, pos)]

    def _add(self, new):
        lo, hi = self.size, self.size + new.size
        if hi > self.M.shape[0]:
            cap = max(hi, 2 * self.M.shape[0])
            M = np.empty((cap, cap))
            M[:lo, :lo] = self.M[:lo, :lo]
            self.M = M
        self.cols = np.concatenate([self.cols, new])
        self.slot[new] = np.arange(lo, hi)
        G = self.op.gram_submatrix(self.cols, new)
        self.fetches += 1
        self.M[:hi, lo:hi] = G
        self.M[lo:hi, :lo] = G[:lo].T


def _cd_burst(kth, beta, w, active, M_aa, sweeps):
    """Cyclic coordinate descent on the weighted-l1 problem restricted to the
    active coordinates; every inactive coordinate stays at zero.  ``kth`` is
    K^T h."""
    b = beta[active]
    # negative gradient of the smooth part on the active block
    g = kth[active] - M_aa @ b
    diag = np.diag(M_aa).copy()
    diag[diag <= 0] = 1.0
    cols = np.asfortranarray(M_aa)  # contiguous columns for the updates
    b, d, thr = b.tolist(), diag.tolist(), (w[active] / diag).tolist()
    for _ in range(sweeps):
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
        if delta_max < 1e-14:
            break
    out = np.zeros(beta.shape[0])
    out[active] = b
    return out


def _mrssn_loop(op, h, w, beta, state, tol, max_newton, active_set_cap,
                history, cache, kth, cd_sweeps=50):
    n = op.shape[1]
    iterations = 0
    r_inf = np.inf
    for _ in range(max_newton):
        res = h - op.matvec(beta)
        g = op.matvec_transpose(res)
        gamma = state.gamma
        u = beta + gamma * g
        r = beta - soft_shrinkage(u, gamma * w)
        r_inf = float(np.abs(r).max()) if n else 0.0
        if r_inf < tol:
            break
        active = np.nonzero(np.abs(u) > gamma * w)[0]
        if active.size > active_set_cap:
            raise SolverError(
                f"active set of size {active.size} exceeds the cap "
                f"{active_set_cap}; the dense Newton system is infeasible")
        M_aa = cache.block(active)
        state.maybe_update(M_aa)
        if state.gamma != gamma:
            # the active set and residual are tied to gamma; redo both
            gamma = state.gamma
            u = beta + gamma * g
            r = beta - soft_shrinkage(u, gamma * w)
            active = np.nonzero(np.abs(u) > gamma * w)[0]
            M_aa = cache.block(active)
        if active.size == 0:
            # no coordinate may move; the fixed point is beta = 0
            beta = np.zeros(n)
            iterations += 1
            history.append({"iter": iterations, "residual_inf": r_inf,
                            "active": 0})
            continue
        r_inactive = r.copy()
        r_inactive[active] = 0.0
        m_ai_r = op.matvec_transpose(op.matvec(r_inactive))[active]
        rhs = gamma * m_ai_r - r[active]
        f0 = 0.5 * float(res @ res) + float(np.abs(beta) @ w)
        accepted = False
        try:
            cho = scipy.linalg.cho_factor(gamma * M_aa)
            delta = scipy.linalg.cho_solve(cho, rhs)
            beta_new = np.zeros(n)
            beta_new[active] = beta[active] + delta
            accepted = _objective(op, h, beta_new, w) <= f0
        except np.linalg.LinAlgError:
            pass
        if not accepted:
            # near-singular system or an uphill step: fall back to descent
            # sweeps on the active block, which never increase the objective.
            # the sweep block is widened to cover the current support so the
            # fallback cannot zero a live coordinate and lose monotonicity
            cd_active = np.union1d(active, np.nonzero(beta)[0])
            beta_new = _cd_burst(kth, beta, w, cd_active,
                                 cache.block(cd_active), cd_sweeps)
        beta = beta_new
        iterations += 1
        history.append({"iter": iterations, "residual_inf": r_inf,
                        "active": int(active.size),
                        "newton_step": bool(accepted)})
    return beta, iterations, r_inf


def _ssn_counters(history, cache):
    """Newton steps taken and rejected (coordinate-descent fallbacks), and
    the Gram cache's fetches and columns."""
    steps = [e["newton_step"] for e in history if "newton_step" in e]
    return {"newton_accepted": sum(steps),
            "newton_rejected": len(steps) - sum(steps),
            "gram_fetches": cache.fetches, "gram_columns": cache.size}


def mrssn(op, h_sigma, w, beta0=None, gamma=None, tol=9e-7, config=None,
          basis=None):
    """Semi-smooth Newton iteration for the weighted-l1 fixed point problem."""
    cfg = config or SolverConfig()
    t0 = time.perf_counter()
    h = _finite_data(h_sigma)
    n = op.shape[1]
    w = np.broadcast_to(np.asarray(w, dtype=float), (n,)).copy()
    if np.any(w < 0):
        raise SolverError("weights must be nonnegative")
    beta = np.zeros(n) if beta0 is None else np.asarray(beta0, dtype=float).copy()
    if gamma is None or gamma == "auto":
        state = _GammaState(1.0 / estimate_lipschitz(op), auto=(gamma == "auto"))
    else:
        if gamma <= 0:
            raise SolverError("gamma must be positive")
        state = _GammaState(gamma, auto=False)
    history = []
    cache = _GramCache(op)
    beta, iterations, r_inf = _mrssn_loop(
        op, h, w, beta, state, tol, cfg.max_newton, cfg.active_set_cap,
        history, cache, op.matvec_transpose(h), cd_sweeps=cfg.cd_sweeps)
    return _finish("mrssn", op, h, beta, w, iterations, r_inf, t0, basis,
                   history=history, extras={
                       "gamma": state.gamma, "converged": bool(r_inf < tol),
                       **_ssn_counters(history, cache)})


def ir_mrssn(op, h_sigma, w, config=None, basis=None, beta0=None):
    """Continuation over a geometrically decreasing weight scale mu, ending
    with a solve at mu = 1."""
    cfg = config or SolverConfig()
    t0 = time.perf_counter()
    h = _finite_data(h_sigma)
    n = op.shape[1]
    w = np.broadcast_to(np.asarray(w, dtype=float), (n,)).copy()
    beta = np.zeros(n) if beta0 is None else np.asarray(beta0, dtype=float).copy()
    if cfg.gamma == "auto":
        state = _GammaState(1.0 / estimate_lipschitz(op), auto=True)
    else:
        state = _GammaState(float(cfg.gamma), auto=False)
    mu = cfg.mu0 ** cfg.outer_steps
    history = []
    total_iters = 0
    outer = 0
    r_inf = np.inf
    # M = K^T K and K^T h do not depend on mu: one copy serves every stage
    cache = _GramCache(op)
    kth = op.matvec_transpose(h)
    inner_all = []
    while True:
        inner_hist = []
        # continuation stages only need to track the weight path; the full
        # Newton budget is reserved for the final stage at mu = 1
        cap = cfg.max_newton if mu <= 1.0 else cfg.stage_newton
        try:
            beta, iters, r_inf = _mrssn_loop(
                op, h, mu * w, beta, state, cfg.tol, cap,
                cfg.active_set_cap, inner_hist, cache, kth,
                cd_sweeps=cfg.cd_sweeps)
        except SolverError as exc:
            raise SolverError(f"outer step {outer} (mu={mu:.6g}): {exc}") from exc
        total_iters += iters
        outer += 1
        inner_all += inner_hist
        history.append({"outer": outer, "mu": float(mu), "newton_iters": iters,
                        "residual_inf": r_inf,
                        "active": int(np.count_nonzero(beta))})
        if mu <= 1.0:
            break
        mu = max(1.0, mu / cfg.mu0)
    return _finish("ir_mrssn", op, h, beta, w, total_iters, r_inf, t0, basis,
                   history=history,
                   extras={"gamma": state.gamma, "outer_steps": outer,
                           "converged": bool(r_inf < cfg.tol),
                           **_ssn_counters(inner_all, cache)})


def solve_multi_kernel(block_op, h_sigma, w, config=None, bases=None,
                       method="ir_mrssn"):
    """Run a sparse solver on a stacked multi-kernel operator."""
    cfg = config or SolverConfig()
    if method == "ir_mrssn":
        report = ir_mrssn(block_op, h_sigma, w, config=cfg)
    elif method == "mrfista":
        report = fista(block_op, h_sigma, w, config=cfg, mode="mr")
    else:
        raise SolverError(f"unsupported multi-kernel method: {method}")
    parts = block_op.split(report.beta)
    if bases is not None:
        report.alpha = np.concatenate(
            [b.inverse(p) for b, p in zip(bases, parts)])
    report.extras["block_nnz"] = [int(np.count_nonzero(p)) for p in parts]
    return report
