"""A fixed reference computation that gauges the machine's speed.

The shared machines this benchmark runs on change speed by up to half
again, flipping between a fast and a slow state every few seconds to every
few minutes, so a whole run can fall in a slow stretch and the raw time of
a call says as much about the machine as about the program.  Every timed
call is therefore bracketed by reference rounds, and its time is scaled by
``REFERENCE_S / t_ref``, where ``t_ref`` is the mean of the fastest round
just before and just after the call.

A round does the kinds of work a fit of the estimator does, on an n x m
problem of the workload's shape: a loop over the columns with elementwise
logistic gradients and values, the m x m cross-product of an n x m matrix,
small inverses and Cholesky factorizations with soft-thresholding, power
iteration and an n x m by m x m product.  Its speed therefore changes with
the machine's state as the fits' speed does.  It calls nothing in
``iggl`` and never changes, so its time measures only the machine.
"""

from __future__ import annotations

import time

import numpy as np

# seconds of one round on the 2-vCPU virtual Xeon the baseline was taken on,
# the fastest seen there; a call's scaled time is in seconds at that speed
REFERENCE_S = {
    "mixed_inner": 0.0006,
    "binary_chain": 0.0054,
    "gauss_path": 0.0058,
}
ROUNDS = 3


class Reference:
    """Reference rounds on an n x m problem made from a fixed seed."""

    def __init__(self, name, m, n):
        rng = np.random.default_rng(0)
        self.Y = (rng.random((n, m)) < 0.5).astype(float)
        self.seconds = REFERENCE_S[name]

    def round(self, inner=18, power=30):
        Y = self.Y
        n, m = Y.shape
        G = np.empty_like(Y)
        value = 0.0
        for j in range(m):
            t = Y[:, j] - 0.5
            G[:, j] = 1.0 / (1.0 + np.exp(-t)) - Y[:, j]
            value += float(np.sum(np.logaddexp(0.0, t) - Y[:, j] * t))
        Xi = Y - G
        M = Xi.mean(axis=0)
        E = Xi - M
        A = (E.T @ E) / n + np.eye(m)
        W = np.eye(m)
        for _ in range(inner):
            T = W - 0.1 * (A - np.linalg.inv(A))
            W = np.sign(T) * np.maximum(np.abs(T) - 0.01, 0.0)
            W = 0.5 * (W + W.T)
            np.linalg.cholesky(A)
        v = np.full(m, 1.0 / np.sqrt(m))
        for _ in range(power):
            w = A @ v
            v = w / float(np.linalg.norm(w))
        Theta = Xi + (0.5 / np.linalg.norm(A)) * ((M - Xi) @ W)
        return value + float(Theta[0, 0])

    def time(self):
        """Wall seconds of the fastest of ``ROUNDS`` rounds."""
        best = float("inf")
        for _ in range(ROUNDS):
            start = time.perf_counter()
            self.round()
            best = min(best, time.perf_counter() - start)
        return best
