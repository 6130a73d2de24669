"""Penalty-path fitting, BIC model selection, and validation metrics."""

from __future__ import annotations

from dataclasses import dataclass, replace
import warnings

import numpy as np

from .core import FitResult, _prepare, fit
from .glasso import log_det_pd

EDGE_EPS = 1e-8


@dataclass(eq=False)
class PathResult:
    """Per-penalty fits with their BIC scores and the selected index, the one fit that keeps Theta and Xi.

    On an all-quadratic problem the selected fit builds them on first read, from the prepared Y.
    """

    lambdas: np.ndarray
    fits: list
    bic: np.ndarray
    selected_index: int
    errors: list


@dataclass(frozen=True)
class EdgeMetrics:
    precision: float
    recall: float
    f1: float
    true_support_size: int


def lambda_grid(S1, n_points=30, ratio=0.01) -> np.ndarray:
    """Log-spaced penalty grid from lambda_max down to lambda_max * ratio.

    lambda_max is the largest off-diagonal magnitude of the first-iteration
    cross-product matrix; above it the solution is exactly diagonal.  A
    matrix with all-zero off-diagonals yields the single-point grid {0}.
    """
    S1 = np.asarray(S1, dtype=float)
    if n_points < 1:
        raise ValueError("n_points must be at least 1")
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie in (0, 1)")
    off = np.abs(S1).copy()
    np.fill_diagonal(off, 0.0)
    lam_max = float(off.max())
    if np.isnan(lam_max):
        raise ValueError("penalty grid is not a number: S1 has a NaN off-diagonal")
    if lam_max <= 0.0:
        warnings.warn("all off-diagonal entries are zero; penalty grid collapses to {0}")
        return np.array([0.0])
    try:
        with np.errstate(over="raise", invalid="raise"):
            return np.geomspace(lam_max, lam_max * ratio, n_points)
    except (ValueError, FloatingPointError):  # lam_max * ratio underflows to 0, or lam_max overflows
        raise ValueError(f"penalty grid {lam_max:g} to {lam_max * ratio:g} is outside the float range") from None


def edge_mask(W, eps=EDGE_EPS) -> np.ndarray:
    """The edges of W: its strictly-upper-triangular entries above ``eps`` (>= 0) in magnitude, as a bool mask."""
    return np.abs(np.triu(W, 1)) > eps


def degrees_of_freedom(W, eps=EDGE_EPS) -> int:
    """m diagonal parameters plus the edges (:func:`edge_mask`)."""
    return int(np.shape(W)[0] + np.count_nonzero(edge_mask(W, eps)))


def bic(result: FitResult) -> float:
    """n * [Tr(S W) - log det W] + log(n) * df.

    S is the cross-product on which the fit's returned W was solved, built
    from its final gradient-step image (the linearized Gaussian proxy), which
    keeps one formula across all loss families.  log det W is the one the
    estimate carries.  It reads no n x m array, so it also scores the fits
    of a path whose Theta and Xi were released.
    """
    W = result.estimate.W
    n = result.M.shape[0]
    ll = float(np.sum(result.state.S * W)) - result.estimate.log_det
    return float(n * ll + np.log(n) * degrees_of_freedom(W))


def fit_path(problem, lambdas) -> PathResult:
    """Fit every penalty in descending order, scoring each with BIC.

    The problem is prepared once, before any fit, and the fits share it.
    Each fit is warm started from the previous estimate and reuses its inverse
    and log det (largest penalty first), without changing solutions.
    Failed fits are recorded and skipped by the selection; ties in BIC
    resolve to the larger penalty.  Each fit is scored as soon as it
    returns, and every fit but the best so far gives up its n x m arrays
    (``state.Theta`` and ``state.Xi`` become ``None``), so a path holds one
    fit's n x m arrays plus the m x m ones of every penalty.  An all-quadratic
    fit builds its two on first read (:class:`iggl.core.IterState`), so such
    a path builds none until its selected fit's are read, from the prepared
    Y: do not modify Y before reading them.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.size == 0:
        raise ValueError("empty penalty grid")
    if not np.all(np.isfinite(lambdas)):
        raise ValueError("penalties must be finite")
    if lambdas.size > 1 and np.any(np.diff(lambdas) >= 0):
        raise ValueError("lambdas must be strictly descending")

    prepared = _prepare(problem)
    fits = [None] * lambdas.size
    errors = [None] * lambdas.size
    scores = np.full(lambdas.size, np.inf)
    first_failure = None
    prev = None
    selected = 0
    for i, lam in enumerate(lambdas):
        try:
            fits[i] = fit(replace(prepared, problem=replace(prepared.problem, lam=float(lam))), W_init=prev)
        except (ValueError, RuntimeError) as exc:
            errors[i] = f"lambda={lam:g}: {exc}"
            first_failure = first_failure or exc
            continue
        prev, scores[i] = fits[i].estimate, bic(fits[i])
        # the argmin can only stay or move to i, so only those two fits can hold arrays
        kept, selected = selected, int(np.argmin(scores))  # first minimum = largest lambda on ties
        for j in {kept, i} - {selected}:
            if fits[j] is not None:
                fits[j].state.Theta = fits[j].state.Xi = None
    if not np.any(np.isfinite(scores)):
        # the problem passed preparation and the first fit is cold started,
        # so a ValueError there rejects the penalty (bad input), not the solver
        failure = type(first_failure) if first_failure else RuntimeError
        raise failure("every path fit failed: " + "; ".join(e for e in errors if e))
    return PathResult(lambdas=lambdas, fits=fits, bic=scores, selected_index=selected, errors=errors)


def bregman(W1, W2) -> float:
    """Divergence of -log det: -log det W1 + log det W2 + <W2^{-1}, W1 - W2>.

    Nonnegative for positive definite arguments, zero iff they coincide.
    """
    W1 = np.asarray(W1, dtype=float)
    W2 = np.asarray(W2, dtype=float)
    if W1.shape != W2.shape:
        raise ValueError("shape mismatch")
    ld1 = log_det_pd(W1)
    ld2 = log_det_pd(W2)
    m = W1.shape[0]
    cross = float(np.trace(np.linalg.solve(W2, W1)))
    return ld2 - ld1 + cross - m


def bregman_sym(W1, W2) -> float:
    """Symmetrized divergence: (D(W1, W2) + D(W2, W1)) / 2."""
    return 0.5 * (bregman(W1, W2) + bregman(W2, W1))


def edge_metrics(W_hat, W_true, eps=EDGE_EPS) -> EdgeMetrics:
    """Support recovery scores over the edges of :func:`edge_mask`.

    With no predicted and no true edges the scores are vacuously one; f1 is
    zero whenever both precision and recall are zero.
    """
    W_hat = np.asarray(W_hat)
    W_true = np.asarray(W_true)
    if W_hat.shape != W_true.shape:
        raise ValueError("shape mismatch")
    if not 0.0 < eps < np.inf:
        raise ValueError("eps must be positive and finite")
    pred, true = edge_mask(W_hat, eps), edge_mask(W_true, eps)
    tp = int(np.count_nonzero(pred & true))
    n_pred = int(np.count_nonzero(pred))
    n_true = int(np.count_nonzero(true))
    if n_pred:
        precision = tp / n_pred
    else:
        precision = 1.0 if n_true == 0 else 0.0
    recall = tp / n_true if n_true else 1.0
    f1 = 0.0 if precision + recall == 0 else 2.0 * precision * recall / (precision + recall)
    return EdgeMetrics(precision=precision, recall=recall, f1=f1, true_support_size=n_true)
