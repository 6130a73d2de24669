"""Synthetic instances with known ground truth.

The generators are pure functions of (pattern, seed) backed by numpy's
PCG64 generator, so reruns are byte-identical.  Draw order is documented
and fixed: the latent Gaussian matrix is drawn first (row-major), then any
per-column observation sampling happens column by column on the same
stream.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

GENERATOR_ID = "numpy-pcg64/latent-then-columns-v1"

PATTERN_KINDS = ("chain", "random", "hub")


@dataclass(frozen=True)
class GraphPattern:
    """Ground-truth precision layout: chain, random, or hub."""

    kind: str
    m: int
    edge_weight: float = -0.4
    diagonal_boost: float = 0.0
    sparsity: float | None = None


def make_precision(pattern: GraphPattern, seed=0) -> np.ndarray:
    """Build the true precision matrix for the requested pattern.

    chain: w_{i,i+1} = edge_weight, diagonal 1 + diagonal_boost.
    random: each off-diagonal entry present independently with probability
    ``sparsity``.  hub: node 0 connected to all others.  In every case the
    diagonal is shifted afterwards if needed so the smallest eigenvalue is
    at least 0.1.
    """
    if pattern.kind not in PATTERN_KINDS:
        raise ValueError(f"unknown pattern kind {pattern.kind!r}")
    m = pattern.m
    if m < 2:
        raise ValueError("need m >= 2")
    W = np.zeros((m, m))
    np.fill_diagonal(W, 1.0 + pattern.diagonal_boost)
    w = pattern.edge_weight
    if pattern.kind == "chain":
        for i in range(m - 1):
            W[i, i + 1] = W[i + 1, i] = w
    elif pattern.kind == "hub":
        W[0, 1:] = W[1:, 0] = w
    else:
        if pattern.sparsity is None or not 0.0 <= pattern.sparsity < 1.0:
            raise ValueError("random pattern needs sparsity in [0, 1)")
        rng = np.random.default_rng(seed)
        iu = np.triu_indices(m, k=1)
        mask = rng.random(iu[0].size) < pattern.sparsity
        W[iu] = np.where(mask, w, 0.0)
        W.T[iu] = W[iu]
    lam_min = float(np.linalg.eigvalsh(W)[0])
    if lam_min < 0.1:
        W += (0.1 - lam_min) * np.eye(m)
    return W


def _latent(n, W_star, mu, rng) -> np.ndarray:
    """n rows from N(mu, W_star^{-1}): one standard normal draw from ``rng``, times the Cholesky factor."""
    W_star = np.asarray(W_star, dtype=float)
    Sigma = np.linalg.inv(W_star)
    L = np.linalg.cholesky(0.5 * (Sigma + Sigma.T))
    return np.asarray(mu) + rng.standard_normal((n, W_star.shape[0])) @ L.T


def sample_gaussian(n, W_star, mu=0.0, seed=0) -> np.ndarray:
    """n iid rows from N(mu, W_star^{-1}), deterministic given the seed."""
    return _latent(n, W_star, mu, np.random.default_rng(seed))


def sample_glm(n, W_star, family, mu=0.0, seed=0) -> np.ndarray:
    """Latent-Gaussian observations: Theta ~ N(mu, W_star^{-1}) rowwise,
    then y | theta from the family with its canonical link.

    The latent construction supports both signs of association, which exact
    count models cannot; recovery is judged against the latent support.
    Poisson rates clip the latent value at 30 (with a warning) to avoid
    overflow.
    """
    if family not in ("bernoulli", "poisson"):
        raise ValueError(f"unknown family {family!r}")
    rng = np.random.default_rng(seed)
    Theta = _latent(n, W_star, mu, rng)
    m = Theta.shape[1]
    Y = np.empty((n, m))
    for k in range(m):
        th = Theta[:, k]
        if family == "bernoulli":
            p = 0.5 * (1.0 + np.tanh(0.5 * th))
            Y[:, k] = (rng.random(n) < p).astype(float)
        else:
            if np.any(th > 30.0):
                warnings.warn(f"column {k}: clipping latent values above 30 before exponentiation")
                th = np.minimum(th, 30.0)
            Y[:, k] = rng.poisson(np.exp(th)).astype(float)
    return Y
