"""Penalized Gaussian graph learning.

Solves the convex problem

    min_{W > 0}   Tr(S W) - log det W + lambda * ||W||_1

over positive definite matrices, where the l1 norm runs over the
off-diagonal entries by default (``penalize_diagonal=True`` includes the
diagonal); one per-entry penalty weight, built once per solve, carries
that span.  The solver takes orthant-wise Newton steps on the free set, the
entries that are nonzero or whose gradient ``S - W^{-1}`` exceeds their
penalty (QUIC, Hsieh et al. 2014; Oztoprak et al. 2012).  Conjugate
gradients solve ``W^{-1} D W^{-1} = -g`` there, g the minimal-norm
subgradient.  The step ``W + alpha D``, projected onto the orthant of
sign(W) (of -sign(g) where W = 0), is halved from alpha = 1 until it is
positive definite (one Cholesky factorization per trial) and passes an
Armijo test.  This keeps the objective monotone, keeps every iterate
strictly positive definite, and produces exact zeros.

Optimality is certified by :func:`kkt_residual`, the max-norm of the
minimal-norm subgradient of the objective, so any conforming backend can
be swapped in behind :func:`solve_ggl`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# relative slack for the sufficient-decrease test; keeps backtracking from
# stalling on float noise while bounding any objective increase well below
# the 1e-10 monotonicity contract
_DECREASE_SLACK = 1e-13
# Armijo fraction; conjugate-gradient relative residual cap and product budget
_ARMIJO, _CG_RTOL, _CG_MAX_ITER = 1e-4, 0.1, 50


@dataclass
class GGLInstance:
    """One inner problem: cross-product matrix, penalty, solver options."""

    S: np.ndarray
    lam: float
    penalize_diagonal: bool = False
    tol: float = 1e-7
    max_iter: int = 500


@dataclass
class PrecisionEstimate:
    """Solver output: the precision matrix plus convergence diagnostics."""

    W: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int
    converged: bool
    objective_trace: np.ndarray = field(default_factory=lambda: np.empty(0))
    # W's inverse and log det (None for lam == 0), reused by a solve warm started from this estimate
    W_inv: np.ndarray | None = None
    log_det: float | None = None


def log_det_pd(W) -> float:
    """log det of a symmetric positive definite matrix via Cholesky.

    Raises ``ValueError`` iff the Cholesky factorization fails.
    """
    W = np.asarray(W, dtype=float)
    try:
        L = np.linalg.cholesky(W)
    except np.linalg.LinAlgError:
        raise ValueError("matrix is not positive definite") from None
    return float(2.0 * np.sum(np.log(np.diag(L))))


def _penalty_weights(m, lam, penalize_diagonal):
    """Per-entry l1 weight: lam off the diagonal, and on it only when penalized."""
    lamP = np.full((m, m), float(lam))
    if not penalize_diagonal:
        np.fill_diagonal(lamP, 0.0)
    return lamP


def ggl_objective(S, W, lam, penalize_diagonal=False) -> float:
    """Tr(S W) - log det W + lam * l1(W) with the configured penalty span."""
    W = np.asarray(W, dtype=float)
    return _objective(np.asarray(S, dtype=float), W, _penalty_weights(W.shape[0], lam, penalize_diagonal))[0]


def _objective(S, W, lamP, log_det=None):
    """The objective and log det W, factored unless ``log_det`` is given."""
    log_det = log_det_pd(W) if log_det is None else log_det
    return float(np.vdot(S, W)) - log_det + float(np.vdot(lamP, np.abs(W))), log_det


def kkt_residual(S, W, lam, penalize_diagonal=False) -> float:
    """Max-norm of the minimal-norm subgradient of the objective at W.

    Nonzero penalized entries contribute |S - W^{-1} + lam*sign(W)|, zero
    penalized entries max(0, |S - W^{-1}| - lam), unpenalized entries the
    plain residual |S - W^{-1}|.
    """
    S = np.asarray(S, dtype=float)
    W = np.asarray(W, dtype=float)
    log_det_pd(W)  # certify positive definiteness; plain inv would not
    Winv = np.linalg.inv(W)
    R = S - 0.5 * (Winv + Winv.T)
    return float(np.abs(_min_norm_subgradient(R, W, _penalty_weights(W.shape[0], lam, penalize_diagonal))).max())


def _min_norm_subgradient(R, W, lamP):
    """R + lamP sign(W) where W != 0, the soft-threshold of R by lamP where W = 0."""
    return np.where(W == 0.0, R - np.clip(R, -lamP, lamP), R + lamP * np.sign(W))


def _newton_direction(Sigma, g, free):
    """Symmetric D, 0 off ``free``, with (Sigma D Sigma)|_free ~ -g.

    Conjugate gradients by matrix products, preconditioned by the Hessian's
    diagonal Sigma_ii Sigma_jj + Sigma_ij^2, stopped at a residual of
    min(_CG_RTOL, sqrt|g|) |g| (superlinear Newton) or after _CG_MAX_ITER.
    """
    d = np.diag(Sigma)
    Pinv = free / (np.outer(d, d) + Sigma * Sigma)
    gnorm = float(np.sqrt(np.vdot(g, g)))
    stop = min(_CG_RTOL, np.sqrt(gnorm)) * gnorm
    D, r = np.zeros_like(g), -g
    p = z = Pinv * r
    rz = float(np.vdot(r, z))
    for _ in range(_CG_MAX_ITER):
        Hp = free * (Sigma @ p @ Sigma)
        a = rz / float(np.vdot(p, Hp))
        D += a * p
        r -= a * Hp
        if float(np.sqrt(np.vdot(r, r))) <= stop:
            break
        z = Pinv * r
        rz, rz_prev = float(np.vdot(r, z)), rz
        p = z + (rz / rz_prev) * p
    return 0.5 * (D + D.T)


def check_symmetric(W, name, m=None):
    """W as a float array; ``ValueError`` naming ``name`` unless square (m x m if given), finite and
    symmetric to 1e-8 relative."""
    try:
        W = np.asarray(W, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a square matrix of numbers") from None
    if W.ndim != 2 or W.shape[0] != W.shape[1] or m not in (None, W.shape[0]):
        raise ValueError(f"{name} must be a square matrix{'' if m is None else f' of size {m}'}, got shape {W.shape}")
    if not np.all(np.isfinite(W)):
        raise ValueError(f"{name} has non-finite entries")
    if np.max(np.abs(W - W.T)) > 1e-8 * max(1.0, np.max(np.abs(W))):
        raise ValueError(f"{name} must be symmetric")
    return W


def warm_start(W_init, m):
    """W, W^-1 and log det W (None if unknown) to start from: an earlier estimate as it is, an array checked."""
    if isinstance(W_init, PrecisionEstimate):
        return W_init.W, W_init.W_inv, W_init.log_det
    W = check_symmetric(W_init, "W_init", m)
    return 0.5 * (W + W.T), None, None


def _check_instance(inst):
    S = np.asarray(inst.S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("S must be square")
    if not np.all(np.isfinite(S)):
        raise ValueError("S has non-finite entries")
    asym = np.max(np.abs(S - S.T))
    if asym > 1e-12 * max(1.0, np.max(np.abs(S))):
        raise ValueError(f"S is not symmetric (max asymmetry {asym:.3e})")
    if not 0.0 <= inst.lam < np.inf:
        raise ValueError("lambda must be finite and nonnegative")
    if not 0.0 <= inst.tol < np.inf:  # 0 runs max_iter steps
        raise ValueError("tol must be finite and nonnegative")
    if inst.max_iter < 0:
        raise ValueError("max_iter must be nonnegative")
    return 0.5 * (S + S.T)


def solve_ggl(inst: GGLInstance, W_init=None) -> PrecisionEstimate:
    """Minimize the penalized log-det objective to within ``inst.tol`` KKT residual.

    Warm starts from ``W_init`` when given, as :func:`warm_start` reads it
    (an earlier estimate, or a symmetric array; either must be positive
    definite), otherwise from ``diag(1/(S_ii + lam*penalize_diagonal))``.
    With ``lam == 0`` the exact solution ``S^{-1}`` is returned directly,
    requiring S to be nonsingular (``W_init`` is checked, then not used).

    Raises ``ValueError`` on malformed inputs (an S that is not square,
    finite and symmetric, lam or tol outside [0, inf), max_iter below 0, a
    bad ``W_init``) and ``RuntimeError`` when no positive definite descent
    step can be found after step-halving.  When ``max_iter`` is exhausted
    the best iterate is returned flagged ``converged=False``.
    """
    S = _check_instance(inst)
    start = None if W_init is None else warm_start(W_init, S.shape[0])
    lam = float(inst.lam)
    pen = inst.penalize_diagonal

    if lam == 0.0:
        try:
            np.linalg.cholesky(S)
        except np.linalg.LinAlgError:
            raise ValueError("lambda = 0 requires a nonsingular (positive definite) S") from None
        W = np.linalg.inv(S)
        W = 0.5 * (W + W.T)
        obj = ggl_objective(S, W, 0.0, pen)
        kkt = kkt_residual(S, W, 0.0, pen)
        return PrecisionEstimate(W, obj, kkt, 0, True, np.array([obj]))

    lamP = _penalty_weights(S.shape[0], lam, pen)
    diag_target = np.diag(S) + np.diag(lamP)
    if np.any(diag_target <= 0):
        raise ValueError("S has a nonpositive diagonal entry; objective is unbounded")

    W, Winv, log_det = start or (np.diag(1.0 / diag_target), None, None)
    try:
        F, log_det = _objective(S, W, lamP, log_det)
    except ValueError:
        raise ValueError("W_init must be positive definite") from None

    trace = []
    for it in range(inst.max_iter + 1):
        Winv = np.linalg.inv(W) if Winv is None else Winv
        Sigma = 0.5 * (Winv + Winv.T)
        g = _min_norm_subgradient(S - Sigma, W, lamP)
        kkt = float(np.abs(g).max())
        trace.append(F)
        converged = kkt <= inst.tol
        if converged or it == inst.max_iter:
            break

        # sign(W), or -sign(g) where W = 0; 0 off the free set, which stays 0
        orthant = np.where(W != 0.0, np.sign(W), -np.sign(g))
        D = _newton_direction(Sigma, g, orthant != 0.0)
        for alpha in 0.5 ** np.arange(100):
            Wt = W + alpha * D
            Wt = np.where(Wt * orthant > 0.0, Wt, 0.0)
            try:
                F_t, log_det_t = _objective(S, Wt, lamP)  # one Cholesky
            except ValueError:
                F_t = np.inf
            if F_t <= F + _ARMIJO * float(np.vdot(g, Wt - W)) + _DECREASE_SLACK * max(1.0, abs(F)):
                break
        else:
            raise RuntimeError("no positive definite descent step found after step-halving")
        W, F, log_det, Winv = Wt, F_t, log_det_t, None

    return PrecisionEstimate(W, trace[-1], kkt, it, converged, np.asarray(trace), Winv, log_det)
