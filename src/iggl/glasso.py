"""Penalized Gaussian graph learning.

Solves the convex problem

    min_{W > 0}   Tr(S W) - log det W + lambda * ||W||_1

over positive definite matrices, where the l1 norm runs over the
off-diagonal entries by default (``penalize_diagonal=True`` includes the
diagonal).  The solver is a proximal-gradient descent (G-ISTA): a
gradient step on the smooth part ``S - W^{-1}`` followed by entrywise
soft-thresholding.  Both, and the l1 term and the KKT residual, use one
per-entry penalty weight built once per solve: lambda off the diagonal,
and on it only when the diagonal is penalized.  The step size alternates
the long and the short Barzilai-Borwein steps, ``<dW,dW>/<dW,dG>`` and
``<dW,dG>/<dG,dG>``, by iteration parity; the short one is accepted more
often, the long one makes more progress.  It is halved until the trial
iterate is positive definite (one Cholesky factorization per trial) and
satisfies the standard sufficient decrease condition.  This keeps the
objective monotone, keeps every iterate strictly positive definite, and
produces exact zeros.

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
    S = np.asarray(S, dtype=float)
    W = np.asarray(W, dtype=float)
    lamP = _penalty_weights(W.shape[0], lam, penalize_diagonal)
    return float(np.sum(S * W) - log_det_pd(W) + np.vdot(lamP, np.abs(W)))


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
    return _kkt_from_residual(R, W, _penalty_weights(W.shape[0], lam, penalize_diagonal))


def _kkt_from_residual(R, W, lamP):
    """The three cases in one expression: max |R + lamP sign W| - lamP [W = 0].

    A zero penalized entry may come out negative instead of clipped at 0,
    but the diagonal of a positive definite W is nonzero, so the max is the
    same.
    """
    res = np.abs(R + lamP * np.sign(W))
    res -= lamP * (W == 0.0)
    return float(res.max())


def _check_instance(inst):
    S = np.asarray(inst.S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("S must be square")
    asym = np.max(np.abs(S - S.T))
    if asym > 1e-12 * max(1.0, np.max(np.abs(S))):
        raise ValueError(f"S is not symmetric (max asymmetry {asym:.3e})")
    if inst.lam < 0:
        raise ValueError("lambda must be nonnegative")
    return 0.5 * (S + S.T)


def solve_ggl(inst: GGLInstance, W_init=None) -> PrecisionEstimate:
    """Minimize the penalized log-det objective to within ``inst.tol`` KKT residual.

    Warm starts from ``W_init`` when given (must be symmetric positive
    definite), otherwise from ``diag(1/(S_ii + lam*penalize_diagonal))``.
    With ``lam == 0`` the exact solution ``S^{-1}`` is returned directly,
    requiring S to be nonsingular.

    Raises ``ValueError`` on malformed inputs and ``RuntimeError`` when no
    positive definite descent step can be found after step-halving.  When
    ``max_iter`` is exhausted the best iterate is returned flagged
    ``converged=False``.
    """
    S = _check_instance(inst)
    m = S.shape[0]
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

    lamP = _penalty_weights(m, lam, pen)
    diag_target = np.diag(S) + np.diag(lamP)
    if np.any(diag_target <= 0):
        raise ValueError("S has a nonpositive diagonal entry; objective is unbounded")

    if W_init is None:
        W = np.diag(1.0 / diag_target)
    else:
        W = np.asarray(W_init, dtype=float)
        if W.shape != S.shape:
            raise ValueError("W_init has wrong shape")
        if np.max(np.abs(W - W.T)) > 1e-8 * max(1.0, np.max(np.abs(W))):
            raise ValueError("W_init must be symmetric")
        W = 0.5 * (W + W.T)
    try:
        L = np.linalg.cholesky(W)
    except np.linalg.LinAlgError:
        raise ValueError("W_init must be positive definite") from None

    f_smooth = float(np.vdot(S, W)) - 2.0 * float(np.sum(np.log(np.diag(L))))
    trace = []
    for it in range(inst.max_iter + 1):
        Winv = np.linalg.inv(W)
        grad = S - 0.5 * (Winv + Winv.T)
        kkt = _kkt_from_residual(grad, W, lamP)
        trace.append(f_smooth + float(np.vdot(lamP, np.abs(W))))
        converged = kkt <= inst.tol
        if converged or it == inst.max_iter:
            break

        if it == 0:
            # safe initial step: inverse curvature bound of -log det at W
            lmin = float(np.linalg.eigvalsh(W)[0])
            eta = lmin * lmin
        else:
            dW = W - prev_W
            dG = grad - prev_grad
            denom = float(np.vdot(dW, dG))
            if denom <= 0:
                eta *= 2.0
            else:
                # Barzilai-Borwein steps, long and short in turn
                eta = float(np.vdot(dW, dW)) / denom if it % 2 else denom / float(np.vdot(dG, dG))
        eta = min(max(eta, 1e-14), 1e12)

        for _ in range(100):
            # soft-threshold; T and lamP are symmetric, so Wt is exactly symmetric
            T = W - eta * grad
            thresh = eta * lamP
            Wt = T - np.clip(T, -thresh, thresh)
            try:
                Lt = np.linalg.cholesky(Wt)
            except np.linalg.LinAlgError:
                eta *= 0.5
                continue
            f_t = float(np.vdot(S, Wt)) - 2.0 * float(np.sum(np.log(np.diag(Lt))))
            D = Wt - W
            bound = f_smooth + float(np.vdot(grad, D)) + float(np.vdot(D, D)) / (2.0 * eta)
            if f_t <= bound + _DECREASE_SLACK * max(1.0, abs(f_smooth)):
                break
            eta *= 0.5
        else:
            raise RuntimeError("no positive definite descent step found after step-halving")

        prev_W, prev_grad = W, grad
        W, f_smooth = Wt, f_t

    return PrecisionEstimate(W, trace[-1], kkt, it, converged, np.asarray(trace))
