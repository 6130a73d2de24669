"""Outer loop: iterative Gaussian graph learning for arbitrary marginal losses.

The estimator minimizes, over precision matrices W (and an auxiliary shift
that never needs to be materialized), a criterion combining the summed
marginal losses with a log-det term and an l1 penalty.  Each outer
iteration linearizes the loss at the current natural-parameter matrix
Theta, which reduces the step to an ordinary penalized Gaussian graph
learning problem:

    Xi    <- Theta - grad(losses)(Theta)          one unit gradient step
    S     <- (Xi - M)^T (Xi - M) / n              surrogate cross-product
    W     <- argmin  Tr(S W) - log det W + lam*l1(W)
    Theta <- Xi + phi * (M - Xi) W                blend back through W

The unit step is valid because every loss is rescaled to a gradient-
Lipschitz bound of at most one beforehand, and with the inner solver warm
started from the previous W the objective trace is non-increasing.  With
all-quadratic losses Xi stays equal to Y, so the loop degenerates to a
single inner solve plus one confirming pass.

The inner solves are inexact block steps: every accepted step of the
warm-started solver lowers the inner objective, so a partial solve still
lowers the outer one.  Outer iteration k solves to a KKT residual of
``max(inner_tol, rel_{k-1})``, where ``rel_{k-1}`` is the relative
objective change of the previous iteration (0 before it exists, so the
first two solves are always at full tolerance).  When the loop ends, a last
solve whose residual is above ``inner_tol`` is polished: re-solved at
``inner_tol`` from its W on the same S, replacing the last trace entry.
``converged`` therefore means that the objective trace met ``outer_tol``
and that the returned W meets ``inner_tol`` on the returned S.

phi is a small positive constant fixed for the whole run at
``phi_c / ||W0||_2``; it keeps ``I - phi*W`` positive semi-definite, which
every iterate is checked against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .glasso import GGLInstance, PrecisionEstimate, log_det_pd, solve_ggl
from .losses import (
    ColumnLoss,
    batch_grad,
    batch_value,
    check_domain,
    force_unit_lipschitz,
    kernel_value,
    loss_value,
    robust_scale,
    scale_to_unit_lipschitz,
)

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True, eq=False)
class FitProblem:
    """Observations, per-column losses, and solver options for one fit.

    ``M`` is the known mean matrix; ``None`` selects intercept-only mode
    where per-column intercepts are estimated once before the loop.
    """

    Y: np.ndarray
    losses: tuple
    lam: float
    M: np.ndarray | None = None
    phi_c: float = 1e-3
    outer_tol: float = 1e-6
    max_outer: int = 200
    calibrate: bool = False
    equalize_lipschitz: bool = False
    penalize_diagonal: bool = False
    inner_tol: float = 1e-7
    inner_max_iter: int = 500


@dataclass
class IterState:
    """Loop variables of the outer iteration, kept for diagnostics.

    The lists hold one entry per outer iteration: the objective, and the
    inner solve's iteration count, KKT tolerance and final KKT residual.
    """

    Theta: np.ndarray
    Xi: np.ndarray
    W: np.ndarray
    phi: float
    F_trace: list = field(default_factory=list)
    k: int = 0
    inner_iterations: list = field(default_factory=list)
    inner_tols: list = field(default_factory=list)
    inner_kkt: list = field(default_factory=list)


@dataclass(frozen=True)
class PoissonColumn:
    """Reparameterized count column: eliminated intercept and curvature scale."""

    a: float
    count_total: float
    scale: float


@dataclass
class FitResult:
    """Fitted precision estimate plus everything needed downstream."""

    estimate: PrecisionEstimate
    state: IterState
    phi: float
    lam: float
    converged: bool
    intercepts: np.ndarray | None
    M: np.ndarray
    losses: tuple


def spectral_norm(W) -> float:
    """2-norm of a symmetric matrix: its largest eigenvalue magnitude.

    Exact, so a feasibility check against it cannot pass a W whose norm an
    iterative estimate would have understated.
    """
    eig = np.linalg.eigvalsh(np.asarray(W, dtype=float))
    return float(max(-eig[0], eig[-1]))


def choose_phi(W0, c) -> float:
    """phi = c / ||W0||_2, guaranteeing phi * ||W0||_2 = c < 1."""
    if not 0.0 < c < 1.0:
        raise ValueError("c must lie in (0, 1)")
    return c / spectral_norm(W0)


def xi_update(Theta, Y, losses) -> np.ndarray:
    """One unit gradient step on the summed marginal loss: Theta - grad."""
    return np.asarray(Theta, dtype=float) - batch_grad(losses, Theta, Y)


def theta_update(Xi, M, W, phi) -> np.ndarray:
    """Blend the mean into the gradient-step image: M W phi + Xi (I - phi W).

    Requires phi * ||W||_2 <= 1 (so the implicit shift decomposition stays
    valid); violation raises.  No matrix square roots are formed.
    """
    Xi = np.asarray(Xi, dtype=float)
    M = np.asarray(M, dtype=float)
    W = np.asarray(W, dtype=float)
    # cheap Frobenius bound first, exact spectral norm only when needed
    if phi * np.linalg.norm(W) > 1.0 and phi * spectral_norm(W) > 1.0 + 1e-12:
        raise ValueError("feasibility violated: phi * ||W||_2 > 1")
    return Xi + phi * ((M - Xi) @ W)


def outer_objective(S, Theta, W, phi, lam, Y, losses, penalize_diagonal=False) -> float:
    """Value of the full criterion at the current loop variables.

    The auxiliary shift never appears: its quadratic penalty
    Tr{(Xi - M)(I - phi W) W (Xi - M)^T} / 2 equals
    n/2 [tr(SW) - phi tr(SW^2)] with S = (Xi - M)^T (Xi - M) / n, the
    cross-product of the same iteration, so it costs m x m products
    instead of n x m ones.
    """
    n = np.asarray(Y).shape[0]
    SW = np.asarray(S, dtype=float) @ W
    quad = 0.5 * n * float(np.trace(SW) - phi * np.trace(SW @ W))
    pen = np.sum(np.abs(W))
    if not penalize_diagonal:
        pen -= np.sum(np.abs(np.diag(W)))
    lbar = batch_value(losses, Theta, Y)
    return float(lbar / phi + quad - 0.5 * n * log_det_pd(W) + 0.5 * n * lam * pen)


def _golden_section(fun, lo, hi, tol=1e-10):
    a, b = float(lo), float(hi)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fun(x1), fun(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = fun(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = fun(x2)
    return 0.5 * (a + b)


def estimate_intercepts(Y, losses) -> np.ndarray:
    """Per-column intercepts minimizing the column loss at a constant fit.

    Quadratic columns return the mean, count columns the log of the column
    total, and Bernoulli columns the logit of the label mean,
    ``log(ybar) - log1p(-ybar)``, the deviance's exact minimizer; every other
    column is minimized by golden section to an absolute tolerance of 1e-10.
    Margin/deviance columns whose minimizer runs away (separable labels, or
    a Bernoulli column of one label) are clipped to +/- 20 * max(scale, 1)
    with a warning.  Like :func:`batch_value`, the search assumes every
    non-count column lies in its kind's domain; ``fit`` checks each column
    once before calling it.
    """
    Y = np.asarray(Y, dtype=float)
    m = Y.shape[1]
    if len(losses) != m:
        raise ValueError("expected one loss per column")
    alpha = np.empty(m)
    for k, loss in enumerate(losses):
        y = Y[:, k]
        if loss.kind == "quadratic":
            alpha[k] = float(np.mean(y))
            continue
        if loss.kind == "poisson_reparam":
            _check_column("poisson_reparam", y, k)
            alpha[k] = float(np.log(np.sum(y)))
            continue
        if loss.kind == "bernoulli":
            ybar = float(np.mean(y))
            if 0.0 < ybar < 1.0:
                alpha[k] = np.log(ybar) - np.log1p(-ybar)
                continue

        def column_loss(a, y=y, loss=loss):
            return float(np.sum(kernel_value(loss, np.full_like(y, a), y)))

        if loss.kind in ("bernoulli", "huberized_hinge", "lorenz"):
            try:
                sigma = robust_scale(y)
            except ValueError:
                sigma = 0.0
            bound = 20.0 * max(sigma, 1.0)
            lo, hi = -bound, bound
            a_hat = _golden_section(column_loss, lo, hi)
            if min(a_hat - lo, hi - a_hat) < 1e-6 * (hi - lo):
                warnings.warn(
                    f"column {k}: intercept search hit the clipped range [{lo:g}, {hi:g}]; "
                    "the 1-d problem may be unbounded below"
                )
        else:
            lo, hi = float(np.min(y)), float(np.max(y))
            if hi - lo <= 0:
                alpha[k] = lo
                continue
            a_hat = _golden_section(column_loss, lo, hi)
        alpha[k] = a_hat
    return alpha


def poisson_preprocess(Y, columns):
    """Reparameterize count columns, eliminating their intercepts.

    For each requested column the entries must be nonnegative integers with
    a positive total c_k.  Returns ``(infos, losses)`` where ``infos[k]``
    records the optimal eliminated intercept ``a_k = log(c_k)`` and
    ``losses[k]`` is the column-level loss scaled by ``2 / c_k`` so that its
    curvature bound (c_k / 2 for the raw loss) becomes exactly one.
    """
    Y = np.asarray(Y, dtype=float)
    infos, losses = {}, {}
    for k in columns:
        y = Y[:, k]
        _check_column("poisson_reparam", y, k)
        ck = float(np.sum(y))
        scale = 2.0 / ck
        infos[k] = PoissonColumn(a=float(np.log(ck)), count_total=ck, scale=scale)
        losses[k] = ColumnLoss(
            kind="poisson_reparam",
            params={"count_total": ck},
            scale_factor=scale,
            lipschitz=1.0,
        )
    return infos, losses


def _check_column(kind, y, k):
    """:func:`check_domain` with the column index in its message."""
    try:
        check_domain(kind, y)
    except ValueError as exc:
        raise ValueError(f"column {k}: {exc}") from None


def calibrate_losses(losses, alpha, Y, h=1e-4, min_curvature=1e-8):
    """Divide each loss by its curvature at the column intercept.

    The curvature is the per-observation average second difference of the
    scaled loss at ``alpha[k]`` (step ``h``).  Nonpositive or vanishing
    curvature raises a ``ValueError`` naming the column.  Count columns are
    skipped: their reparameterized loss is shift-invariant, so the intercept
    curvature is identically zero and their scale is already pinned by the
    curvature bound.
    """
    Y = np.asarray(Y, dtype=float)
    out = []
    for k, loss in enumerate(losses):
        if loss.kind == "poisson_reparam":
            out.append(loss)
            continue
        y = Y[:, k]
        a = float(alpha[k])
        vp = np.sum(loss_value(loss, np.full_like(y, a + h), y))
        v0 = np.sum(loss_value(loss, np.full_like(y, a), y))
        vm = np.sum(loss_value(loss, np.full_like(y, a - h), y))
        curv = float((vp - 2.0 * v0 + vm) / (h * h) / y.size)
        if not np.isfinite(curv) or curv <= min_curvature:
            raise ValueError(f"calibration failed for column {k}: curvature {curv:.3e} at alpha={a:.6g}")
        out.append(replace(loss, scale_factor=loss.scale_factor / curv, lipschitz=loss.lipschitz / curv))
    return tuple(out)


def _prepare(problem: FitProblem):
    """Validate the problem and resolve losses, mean, W0 and phi."""
    Y = np.asarray(problem.Y, dtype=float)
    if Y.ndim != 2:
        raise ValueError("Y must be a 2-d array")
    n, m = Y.shape
    if n < 2 or m < 2:
        raise ValueError("need at least 2 rows and 2 columns")
    if problem.max_outer < 1:
        raise ValueError("max_outer must be at least 1")
    if not np.all(np.isfinite(Y)):
        raise ValueError("Y contains non-finite entries")
    losses = list(problem.losses)
    if len(losses) != m:
        raise ValueError(f"expected {m} losses, got {len(losses)}")
    # the loop's batch kernels assume in-domain columns and do not check;
    # count columns are checked by poisson_preprocess
    for k, loss in enumerate(losses):
        if loss.kind != "poisson_reparam":
            _check_column(loss.kind, Y[:, k], k)

    poisson_cols = [k for k, l in enumerate(losses) if l.kind == "poisson_reparam"]
    infos = {}
    if poisson_cols:
        infos, pl = poisson_preprocess(Y, poisson_cols)
        for k in poisson_cols:
            losses[k] = pl[k]

    if problem.M is not None:
        M = np.asarray(problem.M, dtype=float)
        if M.shape != Y.shape:
            raise ValueError("M must match Y's shape")
        alpha = None
    else:
        alpha = estimate_intercepts(Y, losses)
        M = np.tile(alpha, (n, 1))
        for k in poisson_cols:
            # the count intercept is eliminated inside the loss; alpha[k]
            # reports it but the mean column stays zero
            M[:, k] = 0.0

    if problem.calibrate:
        base = alpha if alpha is not None else estimate_intercepts(Y, losses)
        losses = list(calibrate_losses(losses, base, Y))

    unit = force_unit_lipschitz if problem.equalize_lipschitz else scale_to_unit_lipschitz
    losses = tuple(unit(l) for l in losses)
    bad = [k for k, l in enumerate(losses) if l.lipschitz > 1.0 + 1e-9]
    if bad:
        raise ValueError(f"columns {bad} have gradient-Lipschitz bound above one after scaling")

    variances = np.var(Y, axis=0, ddof=1)
    low = np.nonzero(variances < 1e-12)[0]
    if low.size:
        raise ValueError(f"column {int(low[0])} has (near-)zero variance")
    W0 = np.diag(1.0 / variances)
    phi = choose_phi(W0, problem.phi_c)
    return Y, losses, M, alpha, infos, W0, phi


def first_iteration_s(problem: FitProblem) -> np.ndarray:
    """Cross-product matrix the first inner solve would see.

    Used to anchor the penalty grid before any fitting happens; it does not
    depend on the penalty itself.
    """
    Y, losses, M, _, _, W0, phi = _prepare(problem)
    n = Y.shape[0]
    Theta0 = Y + phi * ((M - Y) @ W0)
    Xi1 = xi_update(Theta0, Y, losses)
    E = Xi1 - M
    S1 = (E.T @ E) / n
    return 0.5 * (S1 + S1.T)


def fit(problem: FitProblem, W_init=None) -> FitResult:
    """Run the outer loop and return the fitted precision matrix.

    ``W_init`` warm starts the precision iterate (the feasibility scalar phi
    is always taken from the variance-diagonal initializer so warm and cold
    runs optimize the same criterion).  Stops when the relative change of
    the objective trace drops below ``outer_tol`` or after ``max_outer``
    iterations, whichever comes first, then polishes the last inner solve
    to ``inner_tol`` if it was solved more loosely (see the module
    docstring).
    """
    Y, losses, M, alpha, _, W0, phi = _prepare(problem)
    n = Y.shape[0]
    lam = float(problem.lam)
    if lam < 0:
        raise ValueError("lambda must be nonnegative")

    if W_init is not None:
        W = 0.5 * (np.asarray(W_init, dtype=float) + np.asarray(W_init, dtype=float).T)
        if phi * spectral_norm(W) > 1.0:
            raise ValueError("W_init violates feasibility: phi * ||W_init||_2 > 1")
    else:
        W = W0

    Xi = Y.copy()
    Theta = Xi + phi * ((M - Xi) @ W)
    state = IterState(Theta=Theta, Xi=Xi, W=W, phi=phi)

    def block_step(Xi, S, W, tol):
        """Inner solve on S from W to KKT residual ``tol``, then Theta and F."""
        inst = GGLInstance(S, lam, problem.penalize_diagonal, tol, problem.inner_max_iter)
        est = solve_ggl(inst, W_init=W)
        if phi * spectral_norm(est.W) > 1.0 + 1e-12:
            raise RuntimeError(
                "inner solver returned W with phi * ||W||_2 > 1; feasibility of "
                "the shift decomposition is violated (phi stays at its initial value)"
            )
        Theta = theta_update(Xi, M, est.W, phi)
        F = outer_objective(S, Theta, est.W, phi, lam, Y, losses, problem.penalize_diagonal)
        return est, Theta, F

    outer_converged = False
    rel = 0.0
    for k in range(1, problem.max_outer + 1):
        Xi = xi_update(Theta, Y, losses)
        E = Xi - M
        S = (E.T @ E) / n
        S = 0.5 * (S + S.T)
        # inexact block step: solve only as tightly as the objective still moves
        tol = max(problem.inner_tol, rel)
        est, Theta, F = block_step(Xi, S, W, tol)
        W = est.W
        state.F_trace.append(F)
        state.inner_iterations.append(est.iterations)
        state.inner_tols.append(tol)
        state.inner_kkt.append(est.kkt_residual)
        state.Theta, state.Xi, state.W, state.k = Theta, Xi, W, k
        if k >= 2:
            rel = abs(F - F_prev) / (1.0 + abs(F_prev))
            if rel < problem.outer_tol:
                outer_converged = True
                break
        F_prev = F

    if est.kkt_residual > problem.inner_tol:
        # polish: one full-tolerance solve of the last block, a further
        # descent that replaces the last trace entry rather than adding one
        est, Theta, F = block_step(Xi, S, W, problem.inner_tol)
        state.F_trace[-1] = F
        state.inner_iterations[-1] += est.iterations
        state.inner_tols[-1] = problem.inner_tol
        state.inner_kkt[-1] = est.kkt_residual
        state.Theta, state.W = Theta, est.W

    return FitResult(
        estimate=est,
        state=state,
        phi=phi,
        lam=lam,
        converged=outer_converged and est.converged,
        intercepts=alpha,
        M=M,
        losses=losses,
    )
