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
    Theta <- Xi - phi * (Xi - M) W                blend back through W

so the criterion is loss/phi + n/2 (inner objective - phi tr(SW^2)), and
:func:`outer_objective` takes the inner objective from the solve.  The unit
step is valid because ``_prepare`` divides every gradient-Lipschitz bound
above one down to one (a bound below one is kept), and with the inner
solver warm started from the previous W the objective trace is
non-increasing.  A quadratic column of unit scale steps exactly onto its data,
so when every column is one, Xi stays Y and S is its cross-product, which
``_prepare`` computes once for a whole path.  Such a fit takes no gradient
step, and its loss value n phi^2/2 tr(SW^2) cancels the shift term: F = n/2 x
the inner objective, and each fit is one inner solve plus a confirming pass.

The inner solves are inexact block steps: every accepted step of the
warm-started solver lowers the inner objective, so a partial solve still
lowers the outer one.  Outer iteration k solves to a KKT residual of
``max(inner_tol, rel_{k-1})``, where ``rel_{k-1}`` is the relative
objective change of the previous iteration (0 before it exists, so the
first two solves are always at full tolerance).  When the loop ends, a last
solve whose residual is above ``inner_tol`` is polished: re-solved at
``inner_tol`` from its W on the same S, replacing the last trace entry.
``converged`` therefore means that the objective trace met ``outer_tol``
and that the returned W meets ``inner_tol`` on the returned S (kept on the
state).  Everything but the penalty (domain checks, count reparameterization,
intercepts and M, loss scaling, W0, phi) is resolved once, by ``_prepare``,
into a :class:`PreparedProblem` that a whole penalty path shares.

``fit`` is a loop around :func:`outer_step` (the four lines above), the
stopping test and the polish.  A fit with gradient steps allocates four n x m
arrays once, Xi, two scratch arrays and Theta, which every step writes in
place; an all-quadratic fit's loop uses none, and its :class:`IterState`
itself builds Xi = Y and Theta from the prepared Y and M and the returned W
on the first read of either, so the caller must not modify Y (or a given M)
before reading them, and a path builds them for no fit it releases.  Every
inner solve starts from the previous estimate, reusing its inverse and log
det; the first from ``W_init`` or W0.

phi is fixed for the whole run at ``phi_c / ||W0||_2``, the largest entry
of the diagonal W0.  A warm start and every iterate must keep ``I - phi*W``
positive semi-definite; :func:`theta_update` checks this exactly by a
Cholesky factorization of ``(1 + 1e-12)/phi * I - W``.  An all-quadratic fit
factors its warm start and each solve's W once so, and its Theta blends the
last of them without factoring it again.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .glasso import GGLInstance, PrecisionEstimate, solve_ggl, warm_start
from .losses import (
    _KINDS,
    _VALUE,
    _divide_by_bound,
    _scaled_kernel,
    batch_grad,
    batch_value,
    check_domain,
    check_loss,
    loss_value,  # not called here; perfbench/spans.py rebinds core.loss_value to count calls
    make_loss,
    robust_scale,
    scale_to_unit_lipschitz,
)

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True, eq=False)
class FitProblem:
    """Observations, per-column losses, and solver options for one fit.

    ``M`` is the known mean matrix; ``None`` selects intercept-only mode, where
    per-column intercepts are estimated once before the loop and broadcast as one row.
    """

    Y: np.ndarray
    losses: tuple
    lam: float
    M: np.ndarray | None = None
    phi_c: float = 1e-3
    outer_tol: float = 1e-6
    max_outer: int = 200
    penalize_diagonal: bool = False
    inner_tol: float = 1e-7
    inner_max_iter: int = 500


@dataclass(frozen=True, eq=False)
class PreparedProblem:
    """A :class:`FitProblem` (which still gives the options and penalty) resolved by ``_prepare``.

    ``S`` is the read-only cross-product of Y when every column steps exactly onto Y, else ``None``.
    """

    problem: FitProblem
    Y: np.ndarray
    losses: tuple
    M: np.ndarray
    intercepts: np.ndarray | None
    W0: np.ndarray
    phi: float
    S: np.ndarray | None


@dataclass(eq=False)
class IterState:
    """Loop variables of the outer iteration, kept for diagnostics.

    ``S`` is the cross-product on which ``FitResult.estimate`` was solved.
    The lists hold one entry per outer iteration: the objective, and the
    inner solve's iteration count, KKT tolerance and final KKT residual.
    ``Theta`` and ``Xi`` are the fit's own n x m arrays, ``None`` on a path's unselected fits.
    An all-quadratic fit leaves both unset and keeps the prepared Y and M,
    the returned W and phi as ``_blend_args``; the first read of either
    builds both from them (so modify neither Y nor M before reading them),
    and assigning either first releases both unbuilt.  ``repr`` leaves them
    out, and ``==`` is identity.
    """

    Theta: np.ndarray | None = field(repr=False)
    Xi: np.ndarray | None = field(repr=False)
    S: np.ndarray | None = None
    F_trace: list = field(default_factory=list)
    k: int = 0
    inner_iterations: list = field(default_factory=list)
    inner_tols: list = field(default_factory=list)
    inner_kkt: list = field(default_factory=list)

    def __getattr__(self, name):  # reached only for unset attributes: an all-quadratic fit's unbuilt Theta and Xi
        if name not in ("Theta", "Xi") or "_blend_args" not in self.__dict__:
            raise AttributeError(f"'IterState' object has no attribute '{name}'")
        Y, M, W, phi = self.__dict__.pop("_blend_args")
        self.Xi, self.Theta = Y.copy(), _blend(Y, Y - M, W, phi)
        return self.__dict__[name]

    def __setattr__(self, name, value):
        if name in ("Theta", "Xi") and self.__dict__.pop("_blend_args", None) is not None:
            self.Theta = self.Xi = None
        object.__setattr__(self, name, value)


@dataclass(eq=False)
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
    """Exact 2-norm of a symmetric matrix: its largest eigenvalue magnitude."""
    return float(np.max(np.abs(np.linalg.eigvalsh(np.asarray(W, dtype=float)))))


def choose_phi(W0, c) -> float:
    """phi = c / ||W0||_2 for the positive diagonal W0, whose 2-norm is its largest entry."""
    if not 0.0 < c < 1.0:
        raise ValueError("phi_c must lie in (0, 1)")
    return c / float(np.max(np.diag(W0)))


def _exact_columns(losses):  # the columns whose unit step lands exactly on Y
    return [k for k, loss in enumerate(losses) if loss.kind == "quadratic" and loss.scale_factor == 1.0]


def xi_update(Theta, Y, losses, out=None) -> np.ndarray:
    """One unit gradient step on the summed loss: Theta - grad (into ``out``, not Theta); Y on exact columns."""
    G = batch_grad(losses, Theta, Y, out=out)
    Xi = np.subtract(np.asarray(Theta, dtype=float), G, out=G)
    exact = _exact_columns(losses)
    if exact:
        Xi[:, exact] = np.asarray(Y)[:, exact]
    return Xi


def _check_feasible(W, phi):
    try:
        np.linalg.cholesky(((1.0 + 1e-12) / phi) * np.eye(W.shape[0]) - W)
    except np.linalg.LinAlgError:
        raise ValueError("feasibility violated: phi * ||W||_2 > 1") from None


def theta_update(Xi, E, W, phi, out=None) -> np.ndarray:
    """Blend the mean into the gradient-step image: Xi - phi (Xi - M) W = M W phi + Xi (I - phi W).

    ``E`` is Xi - M, the array :func:`cross_product` writes.  Requires
    I - phi W >= 0 (so the implicit shift decomposition stays valid),
    checked exactly by a Cholesky factorization of (1 + 1e-12)/phi I - W;
    violation raises before anything is written.  For a positive definite W
    this is phi * ||W||_2 <= 1.  No matrix square roots are formed.  The
    result goes into ``out`` when given (not Xi or E).
    """
    W = np.asarray(W, dtype=float)
    _check_feasible(W, phi)
    return _blend(np.asarray(Xi, dtype=float), np.asarray(E, dtype=float), W, phi, out)


def _blend(Xi, E, W, phi, out=None):  # theta_update's arithmetic, on a W already checked feasible
    P = np.matmul(E, W, out=out)
    return np.subtract(Xi, np.multiply(P, phi, out=P), out=P)


def outer_objective(S, Theta, est, phi, Y, losses, out=None, work=None) -> float:
    """The criterion at the loop variables: loss/phi + n/2 (inner objective - phi tr(SW^2)).

    ``est`` is the inner solve on S, and its objective tr(SW) - log det W +
    lam l1(W) is used as it is, so nothing is factored.  The shift is never
    formed: its penalty Tr{(Xi - M)(I - phi W) W (Xi - M)^T} / 2 equals
    n/2 [tr(SW) - phi tr(SW^2)], with S = (Xi - M)^T (Xi - M) / n of the same
    iteration.  ``out`` and ``work`` are :func:`batch_value`'s.
    """
    n = np.asarray(Y).shape[0]
    lbar = batch_value(losses, Theta, Y, out=out, work=work)
    return float(lbar / phi + 0.5 * n * (est.objective - phi * np.vdot(S @ est.W, est.W)))


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
    Columns of a kind with a label pair, whose minimizer can run away
    (separable labels, or a Bernoulli column of one label), are clipped to
    +/- 20 * max(scale, 1) with a warning.  Like :func:`batch_value`, it
    assumes every column lies in its kind's domain (count columns:
    nonnegative integers with a positive total); ``_prepare`` checks each
    column once before calling it.
    """
    Y = np.asarray(Y, dtype=float)
    m = Y.shape[1]
    if len(losses) != m:
        raise ValueError("expected one loss per column")
    alpha = np.empty(m)
    quadratic = [k for k, loss in enumerate(losses) if loss.kind == "quadratic"]
    alpha[quadratic] = np.mean(np.ascontiguousarray(Y[:, quadratic].T), axis=1)
    for k, loss in enumerate(losses):
        y = Y[:, k]
        if loss.kind == "quadratic":
            continue
        if loss.kind == "poisson_reparam":
            alpha[k] = float(np.log(np.sum(y)))
            continue
        if loss.kind == "bernoulli":
            ybar = float(np.mean(y))
            if 0.0 < ybar < 1.0:
                alpha[k] = np.log(ybar) - np.log1p(-ybar)
                continue
        clipped = _KINDS[loss.kind].labels is not None
        if clipped:
            try:
                sigma = robust_scale(y)
            except ValueError:
                sigma = 0.0
            bound = 20.0 * max(sigma, 1.0)
            lo, hi = -bound, bound
        else:
            lo, hi = float(np.min(y)), float(np.max(y))
        # the kernel broadcasts the scalar intercept over y; a constant column's bracket has zero width
        alpha[k] = a_hat = lo if hi - lo <= 0 else _golden_section(
            lambda a: float(np.sum(_scaled_kernel(_VALUE, loss, a, y))), lo, hi)
        if clipped and min(a_hat - lo, hi - a_hat) < 1e-6 * (hi - lo):
            warnings.warn(
                f"column {k}: intercept search hit the clipped range [{lo:g}, {hi:g}]; "
                "the 1-d problem may be unbounded below"
            )
    return alpha


def poisson_preprocess(Y, columns):
    """Reparameterized count losses of ``columns``, as ``{column: loss}``.

    Column k's loss has ``count_total`` c_k, the column total, and is scaled
    by ``2 / c_k`` so that its curvature bound c_k / 2 becomes exactly one;
    its eliminated intercept ``log(c_k)`` is reported by
    :func:`estimate_intercepts`.  Assumes checked columns (nonnegative
    integers with a positive total), as ``_prepare`` ensures.
    """
    Y = np.asarray(Y, dtype=float)
    return {k: _divide_by_bound(make_loss("poisson_reparam", count_total=float(np.sum(Y[:, k]))))
            for k in columns}


def _prepare(problem) -> PreparedProblem:
    """Validate the problem and resolve losses, mean, W0 and phi; a prepared one passes through."""
    if isinstance(problem, PreparedProblem):
        return problem
    Y = np.asarray(problem.Y, dtype=float)
    if Y.ndim != 2:
        raise ValueError("Y must be a 2-d array")
    n, m = Y.shape
    if n < 2 or m < 2:
        raise ValueError("need at least 2 rows and 2 columns")
    for name in ("max_outer", "inner_max_iter"):  # counts for range(): a float or a boolean is refused
        count = getattr(problem, name)
        if isinstance(count, bool) or not isinstance(count, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {count!r}")
        if count < 1:
            raise ValueError(f"{name} must be at least 1")
    if not isinstance(problem.penalize_diagonal, (bool, np.bool_)):  # "no" would be truthy
        raise ValueError(f"penalize_diagonal must be a boolean, got {problem.penalize_diagonal!r}")
    if not 0.0 <= problem.outer_tol < np.inf:  # 0 runs to max_outer
        raise ValueError("outer_tol must be finite and nonnegative")
    if not 0.0 < problem.inner_tol < np.inf:
        raise ValueError("inner_tol must be finite and positive")
    if not np.all(np.isfinite(Y)):
        raise ValueError("Y contains non-finite entries")
    losses = list(problem.losses)
    if len(losses) != m:
        raise ValueError(f"expected {m} losses, got {len(losses)}")
    # the only domain check of a fit: everything below assumes in-domain columns
    for k, loss in enumerate(losses):
        try:
            check_domain(loss.kind, Y[:, k])
            if loss.kind == "poisson_reparam":  # the placeholder {} passes; the data's loss replaces it below
                loss = replace(loss, params={"count_total": 1.0, **loss.params})
            check_loss(loss)
        except ValueError as exc:
            raise ValueError(f"column {k}: {exc}") from None
    with np.errstate(over="ignore"):
        variances = np.var(Y, axis=0, ddof=1)  # checked before the intercept search runs away on a constant column
    low = np.nonzero(variances < 1e-12)[0]
    if low.size:
        raise ValueError(f"column {int(low[0])} has (near-)zero variance")
    if not np.all(np.isfinite(variances)):
        raise ValueError(f"column {np.flatnonzero(~np.isfinite(variances))[0]}: sample variance overflows; rescale it")
    W0 = np.diag(1.0 / variances)
    phi = choose_phi(W0, problem.phi_c)
    counts = poisson_preprocess(Y, [k for k, l in enumerate(losses) if l.kind == "poisson_reparam"])
    losses = [counts.get(k, l) for k, l in enumerate(losses)]

    if problem.M is not None:
        M = np.asarray(problem.M, dtype=float)
        if M.shape != Y.shape:
            raise ValueError("M must match Y's shape")
        alpha = None
    else:
        alpha = estimate_intercepts(Y, losses)
        row = alpha.copy()
        # the count intercept is eliminated inside the loss; alpha[k]
        # reports it but the mean column stays zero
        row[list(counts)] = 0.0
        M = np.broadcast_to(row, (n, m))  # a read-only (n, m) view of m floats

    losses = tuple(scale_to_unit_lipschitz(l) for l in losses)
    S = cross_product(Y, M) if len(_exact_columns(losses)) == m else None  # Xi = Y at every step
    if S is not None:
        S.setflags(write=False)
    return PreparedProblem(problem, Y, losses, M, alpha, W0, phi, S)


def cross_product(Xi, M, out=None) -> np.ndarray:
    """The surrogate cross-product S = sym((Xi - M)^T (Xi - M) / n); Xi - M goes into ``out`` when given."""
    E = np.subtract(Xi, M, out=out)
    S = (E.T @ E) / E.shape[0]
    return 0.5 * (S + S.T)


def first_iteration_s(problem) -> np.ndarray:
    """Cross-product matrix the first inner solve would see.

    Used to anchor the penalty grid before any fitting happens; it does not
    depend on the penalty itself.  Takes a problem or a prepared problem, and
    returns a fresh array (a copy of the prepared S, when there is one).
    """
    p = _prepare(problem)
    if p.S is not None:
        return p.S.copy()
    Theta0 = _blend(p.Y, p.Y - p.M, p.W0, p.phi)  # W0 is diagonal and feasible
    return cross_product(xi_update(Theta0, p.Y, p.losses), p.M)


def outer_step(prepared, state, est, tol, work, S=None):
    """One outer step from ``state.Theta`` and the estimate ``est``; returns the new estimate, S and F.

    Writes Xi, then E = Xi - M and S = E^T E / n, using ``work``, two n x m
    scratch arrays it never reads first; solves on S from ``est`` to KKT
    residual ``tol`` and writes Theta'.  Given ``S`` (the polish's), it takes no
    gradient step and rewrites E only.  An all-quadratic problem's step touches
    no n x m array: it checks W's feasibility and returns F = n/2 x the inner objective.
    """
    problem, Y, M, phi = prepared.problem, prepared.Y, prepared.M, prepared.phi
    lam = float(problem.lam)  # checked by solve_ggl
    if S is None:
        xi_update(state.Theta, Y, prepared.losses, out=state.Xi)
        S = cross_product(state.Xi, M, out=work[0])
    elif prepared.S is None:
        np.subtract(state.Xi, M, out=work[0])
    est = solve_ggl(GGLInstance(S, lam, problem.penalize_diagonal, tol, problem.inner_max_iter), W_init=est)
    try:
        if prepared.S is not None:  # the loss value n phi^2/2 tr(SW^2) cancels the shift term
            _check_feasible(est.W, phi)
            return est, S, 0.5 * Y.shape[0] * est.objective
        theta_update(state.Xi, work[0], est.W, phi, out=state.Theta)
    except ValueError:
        raise RuntimeError("inner solver returned W with phi * ||W||_2 > 1; feasibility of the shift "
                           "decomposition is violated (phi stays at its initial value)") from None
    return est, S, outer_objective(S, state.Theta, est, phi, Y, prepared.losses, out=work[0], work=work[1])


def fit(problem, W_init=None) -> FitResult:
    """Run the outer loop and return the fitted precision matrix.

    ``problem`` may be prepared already (the fits of a path share one).
    ``W_init`` warm starts the precision iterate: an earlier estimate, whose
    inverse and log det the first solve reuses, or a finite symmetric m x m
    array (:func:`iggl.glasso.warm_start` reads both); it must keep
    ``I - phi W`` positive semi-definite (phi is always taken from the
    variance-diagonal initializer so warm and cold runs optimize the same
    criterion).  Runs one :func:`outer_step` per iteration until the relative
    change of the objective trace drops below ``outer_tol`` or ``max_outer``
    is reached, then polishes a last inner solve looser than ``inner_tol``.
    Every fit returns a plain :class:`IterState`; an all-quadratic fit's Xi
    and Theta are built on the first read of either, from the prepared Y and
    M, so do not modify Y (or a given M) before reading them.
    """
    prepared = _prepare(problem)
    problem, Y, M, phi = prepared.problem, prepared.Y, prepared.M, prepared.phi

    est = prepared.W0 if W_init is None else W_init
    W_start = warm_start(est, Y.shape[1])[0]  # checks W_init; the blend or _check_feasible checks its feasibility
    state, work = IterState(Theta=None, Xi=None), None
    if prepared.S is None:  # Xi first: allocating it last slowed the next first_iteration_s 10% (binary_chain)
        state.Xi, work, state.Theta = Y.copy(), (np.empty(Y.shape), np.empty(Y.shape)), np.empty(Y.shape)
        theta_update(Y, np.subtract(Y, M, out=work[0]), W_start, phi, out=state.Theta)
    else:
        _check_feasible(W_start, phi)

    rel = 0.0
    for k in range(1, problem.max_outer + 1):
        # inexact block step: solve only as tightly as the objective still moves
        tol = max(problem.inner_tol, rel)
        est, state.S, F = outer_step(prepared, state, est, tol, work, S=prepared.S)
        state.F_trace.append(F)
        state.inner_iterations.append(est.iterations)
        state.inner_tols.append(tol)
        state.inner_kkt.append(est.kkt_residual)
        state.k = k
        if k >= 2:
            rel = abs(F - F_prev) / (1.0 + abs(F_prev))
            if rel < problem.outer_tol:
                break
        F_prev = F
    outer_converged = state.k >= 2 and rel < problem.outer_tol

    if est.kkt_residual > problem.inner_tol:
        # polish: a full-tolerance re-solve of the last block, a further descent that replaces its trace entry
        est, _, F = outer_step(prepared, state, est, problem.inner_tol, work, S=state.S)
        state.F_trace[-1] = F
        state.inner_iterations[-1] += est.iterations
        state.inner_tols[-1] = problem.inner_tol
        state.inner_kkt[-1] = est.kkt_residual
    if prepared.S is not None:  # Xi = Y and Theta = the blend through the returned W, built on first read
        del state.Theta, state.Xi
        state._blend_args = (Y, M, est.W, phi)

    return FitResult(estimate=est, state=state, phi=phi, lam=float(problem.lam),
                     converged=outer_converged and est.converged, intercepts=prepared.intercepts, M=M,
                     losses=prepared.losses)
