"""Shared test utilities: random instances, loss maps, data synthesis,
closed-form and brute-force inner-solver oracles, an allocating copy of the
inner solver, per-column copies of the fit set-up, a counter of linear
algebra calls, a row-by-row CSV reader, and a strict validator for the DOT
subset the exporter emits."""

import csv
import math
import re
import warnings
from collections import Counter

import numpy as np

from iggl import (
    ColumnLoss,
    GGLInstance,
    GraphPattern,
    kkt_residual,
    make_loss,
    make_precision,
    outer_objective,
    robust_scale,
    sample_gaussian,
    sample_glm,
    solve_ggl,
    xi_update,
)
from iggl.cli import InputError
from iggl.core import _blend, _golden_section, _prepare, cross_product
from iggl.glasso import (
    _ARMIJO,
    _CG_MAX_ITER,
    _CG_RTOL,
    _DECREASE_SLACK,
    PrecisionEstimate,
    _check_instance,
    _min_norm_subgradient,
    _objective,
    _penalty_weights,
    log_det_pd,
    warm_start,
)
from iggl.losses import _KINDS, _VALUE, _scaled_kernel

ALL_KINDS = (
    "quadratic",
    "bernoulli",
    "huber",
    "tukey",
    "hampel",
    "huberized_hinge",
    "lorenz",
    "poisson_reparam",
)


def rand_spd(m, rng, rows=None):
    """Well-conditioned random SPD cross-product matrix."""
    rows = rows or m + 5
    A = rng.standard_normal((rows, m))
    S = A.T @ A / rows
    return 0.5 * (S + S.T)


def count_calls(monkeypatch, module, *names):
    """A Counter of the calls made to each named function of ``module`` from now on (0 for each at first)."""
    counts = Counter(dict.fromkeys(names, 0))
    for name in names:
        def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return counts


def loss_map_for(kind, Y):
    """Per-column losses of one kind, with MAD-based cutoffs where needed."""
    out = []
    for k in range(Y.shape[1]):
        y = Y[:, k]
        if kind == "huber":
            out.append(make_loss("huber", c=1.345 * robust_scale(y)))
        elif kind == "tukey":
            out.append(make_loss("tukey", c=4.685 * robust_scale(y)))
        elif kind == "hampel":
            s = robust_scale(y)
            out.append(make_loss("hampel", a=2 * s, b=4 * s, c=8 * s))
        elif kind == "poisson_reparam":
            out.append(ColumnLoss("poisson_reparam", {}))
        else:
            out.append(make_loss(kind))
    return tuple(out)


def synth_data(kind, m, n, seed, mu=0.0):
    """Data matching a loss kind's domain, from a chain ground truth."""
    W_star = make_precision(GraphPattern("chain", m))
    if kind == "bernoulli":
        return sample_glm(n, W_star, "bernoulli", mu=mu, seed=seed)
    if kind == "poisson_reparam":
        return sample_glm(n, W_star, "poisson", mu=0.5, seed=seed)
    if kind in ("huberized_hinge", "lorenz"):
        return 2.0 * sample_glm(n, W_star, "bernoulli", mu=mu, seed=seed) - 1.0
    return sample_gaussian(n, W_star, mu=mu, seed=seed)

def reference_fit(problem, W_init=None):
    """``fit``'s outer loop written with the allocating public functions.

    Every step returns a fresh array and every inner solve is warm started
    from a plain W, so ``fit`` (which writes into per-fit arrays and reuses
    each solve's inverse and log det) must agree with it bit for bit.
    Returns W, F_trace, Theta, Xi, S, converged and whether the last block
    was polished.
    """
    p = _prepare(problem)
    prob, Y, losses, M, phi = p.problem, p.Y, p.losses, p.M, p.phi
    W = p.W0 if W_init is None else 0.5 * (W_init + W_init.T)
    Theta = Y + phi * ((M - Y) @ W)  # the blend written with M - Xi, not fit's Xi - M
    exact = p.S is not None  # every column steps exactly onto Y, so F is n/2 x the inner objective

    def block(Xi, S, W, tol):
        est = solve_ggl(GGLInstance(S, prob.lam, prob.penalize_diagonal, tol, prob.inner_max_iter), W_init=W)
        Theta = Xi + phi * ((M - Xi) @ est.W)
        return est, Theta, 0.5 * Y.shape[0] * est.objective if exact else outer_objective(S, Theta, est, phi, Y, losses)

    F_trace, rel, outer_converged = [], 0.0, False
    for k in range(1, prob.max_outer + 1):
        Xi = xi_update(Theta, Y, losses)
        S = cross_product(Xi, M)
        est, Theta, F = block(Xi, S, W, max(prob.inner_tol, rel))
        W = est.W
        F_trace.append(F)
        if k >= 2:
            rel = abs(F - F_trace[-2]) / (1.0 + abs(F_trace[-2]))
            if rel < prob.outer_tol:
                outer_converged = True
                break
    polished = est.kkt_residual > prob.inner_tol
    if polished:
        est, Theta, F_trace[-1] = block(Xi, S, W, prob.inner_tol)
    return {"W": est.W, "F_trace": F_trace, "Theta": Theta, "Xi": Xi, "S": S,
            "converged": outer_converged and est.converged, "polished": polished}


def assert_fit_equals_reference(res, ref):
    """Bit-for-bit agreement of a ``fit`` result with :func:`reference_fit`."""
    st = res.state
    got = {"W": res.estimate.W, "F_trace": st.F_trace, "Theta": st.Theta, "Xi": st.Xi, "S": st.S}
    for name, value in got.items():
        assert np.array_equal(np.asarray(value), np.asarray(ref[name])), name
    assert res.converged == ref["converged"]


# the fit set-up one column at a time, with a fresh array for every step; the
# package computes the closed-form intercepts by kind and the first blend as a
# broadcast product into two buffers, and must agree with these bit for bit
def reference_estimate_intercepts(Y, losses) -> np.ndarray:
    """Per-column intercepts minimizing the column loss at a constant fit, one column at a time."""
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


def reference_first_iteration_s(problem) -> np.ndarray:
    """Cross-product matrix the first inner solve would see, blended through W0 by a matrix product."""
    p = _prepare(problem)
    if p.S is not None:
        return p.S.copy()
    Theta0 = _blend(p.Y, p.Y - p.M, p.W0, p.phi)  # W0 is diagonal and feasible
    return cross_product(xi_update(Theta0, p.Y, p.losses), p.M)


# the inner solver with a fresh array for every step; the package's solver
# does the same arithmetic with fewer numpy calls and temporaries
def _reference_newton_direction(Sigma, W, g, free):
    """Symmetric D, 0 off ``free``, with (Sigma D Sigma)|_free ~ -g.

    Conjugate gradients by matrix products, preconditioned by r -> W r W on
    the free set (W = Sigma^{-1}), the exact inverse of the full Hessian
    D -> Sigma D Sigma; when every entry is free the first step is the Newton
    direction -W g W.  Stopped at a residual of min(_CG_RTOL, sqrt|g|) |g|
    (superlinear Newton) or after _CG_MAX_ITER.
    """
    gnorm = float(np.sqrt(np.vdot(g, g)))
    stop = min(_CG_RTOL, np.sqrt(gnorm)) * gnorm
    D, r = np.zeros_like(g), -g
    p = z = free * (W @ r @ W)
    rz = float(np.vdot(r, z))
    for _ in range(_CG_MAX_ITER):
        Hp = free * (Sigma @ p @ Sigma)
        a = rz / float(np.vdot(p, Hp))
        D += a * p
        r -= a * Hp
        if float(np.sqrt(np.vdot(r, r))) <= stop:
            break
        z = free * (W @ r @ W)
        rz, rz_prev = float(np.vdot(r, z)), rz
        p = z + (rz / rz_prev) * p
    return 0.5 * (D + D.T)


def reference_solve_ggl(inst, W_init=None) -> PrecisionEstimate:
    """:func:`iggl.solve_ggl` with a fresh array for every step, so the two must agree bit for bit.

    It tests W == 0 and takes sign(W) twice per iteration, multiplies by the
    step size at alpha = 1 and updates the conjugate-gradient arrays by
    allocating expressions; every difference is exact in IEEE arithmetic.
    """
    S = _check_instance(inst)
    start = None if W_init is None else warm_start(W_init, S.shape[0])
    lam = float(inst.lam)
    if lam == 0.0:
        try:
            np.linalg.cholesky(S)
            W = np.linalg.inv(S)
            W = 0.5 * (W + W.T)
            start = (W, None, log_det_pd(W))
        except ValueError:  # numpy's LinAlgError is one
            raise ValueError("lambda = 0 requires a nonsingular (positive definite) S") from None

    lamP = _penalty_weights(S.shape[0], lam, inst.penalize_diagonal)
    diag_target = np.diag(S) + np.diag(lamP)
    if np.any(diag_target <= 0):
        raise ValueError("S has a nonpositive diagonal entry; objective is unbounded")

    W, Winv, log_det = start or (np.diag(1.0 / diag_target), None, None)
    try:
        F, log_det = _objective(S, W, lamP, log_det)
    except ValueError:
        raise ValueError("W_init must be positive definite") from None

    for it in range(inst.max_iter + 1):
        Winv = np.linalg.inv(W) if Winv is None else Winv
        Sigma = 0.5 * (Winv + Winv.T)
        g = _min_norm_subgradient(S - Sigma, W, lamP)
        kkt = float(np.abs(g).max())
        converged = kkt <= inst.tol
        if converged or it == inst.max_iter:
            break

        # sign(W), or -sign(g) where W = 0; 0 off the free set, which stays 0
        orthant = np.where(W != 0.0, np.sign(W), -np.sign(g))
        D = _reference_newton_direction(Sigma, W, g, orthant != 0.0)
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

    return PrecisionEstimate(W, F, kkt, it, converged, Winv, log_det)


# inner-solver oracles, deliberately independent of the production solver
# so they can certify it

def kkt_three_case(R, W, lam, penalize_diagonal=False) -> float:
    """KKT residual from the gradient R, written out case by case.

    Nonzero penalized entries give |R + lam*sign(W)|, zero penalized entries
    max(0, |R| - lam), unpenalized entries |R|.
    """
    pen = np.ones(W.shape, dtype=bool)
    if not penalize_diagonal:
        np.fill_diagonal(pen, False)
    at_zero = np.maximum(0.0, np.abs(R) - lam)
    off_zero = np.abs(R + lam * np.sign(W))
    return float(np.where(pen, np.where(W != 0.0, off_zero, at_zero), np.abs(R)).max())


def spd_with_zeros(m, rng, keep=0.4):
    """Random SPD matrix whose off-diagonal entries are exactly zero outside a
    random symmetric pattern (about ``keep`` of them nonzero)."""
    A = rng.standard_normal((m, m))
    mask = np.triu(rng.random((m, m)) < keep, 1)
    W = np.where(mask | mask.T, 0.5 * (A + A.T), 0.0)
    np.fill_diagonal(W, np.abs(W).sum(axis=1) + 0.5 + rng.random(m))
    return W


def oracle_ggl_2x2(S, lam, penalize_diagonal=False) -> np.ndarray:
    """Closed-form 2x2 solution: soft-threshold the off-diagonal covariance.

    The optimal covariance has diagonal diag(S) (+lam when the diagonal is
    penalized) and off-diagonal sign(s12) * max(|s12| - lam, 0); the
    precision is its inverse.
    """
    S = np.asarray(S, dtype=float)
    if S.shape != (2, 2):
        raise ValueError("oracle_ggl_2x2 requires a 2x2 matrix")
    d = lam if penalize_diagonal else 0.0
    s12 = float(S[0, 1])
    off = np.sign(s12) * max(abs(s12) - lam, 0.0)
    Sigma = np.array([[S[0, 0] + d, off], [off, S[1, 1] + d]])
    det = Sigma[0, 0] * Sigma[1, 1] - off * off
    if det <= 0 or Sigma[0, 0] <= 0:
        raise ValueError("thresholded covariance is singular")
    return np.array([[Sigma[1, 1], -off], [-off, Sigma[0, 0]]]) / det


def oracle_ggl_dense(S, lam, penalize_diagonal=False, step=1e-4, max_iter=10**6, kkt_target=1e-5):
    """Brute-force reference solver for small problems (m <= 6).

    Two phases, both deliberately independent of the production solver.
    First, plain subgradient descent with a small fixed step (flooring
    eigenvalues at 1e-6 whenever an iterate loses positive definiteness);
    a fixed-step subgradient method leaves should-be-zero entries
    oscillating in a narrow band, so candidate active sets are read off by
    snapping that band to zero and enumerating the ambiguous boundary
    entries.  Second, each candidate is certified by solving the smooth
    problem restricted to its support (penalty signs frozen) with a damped
    Newton method.  The routine only ever returns a matrix whose KKT
    residual is at most ``kkt_target`` and raises otherwise.
    """
    S = np.asarray(S, dtype=float)
    m = S.shape[0]
    if m > 6:
        raise ValueError("dense oracle is limited to m <= 6")
    lam = float(lam)
    d = lam if penalize_diagonal else 0.0
    if np.any(np.diag(S) + d <= 0):
        raise ValueError("S has a nonpositive diagonal entry")
    W = np.diag(1.0 / (np.diag(S) + d))

    pen = np.ones((m, m), dtype=bool)
    if not penalize_diagonal:
        np.fill_diagonal(pen, False)
    # oscillation band of a fixed-step subgradient method around zero
    snap_base = step * (lam + float(np.max(np.abs(S))) + 1.0)
    snap_levels = [50.0 * snap_base, 10.0 * snap_base, 2.0 * snap_base, 0.0]
    check_every = 500
    tried = set()

    for it in range(1, max_iter + 1):
        Winv = np.linalg.inv(W)
        Winv = 0.5 * (Winv + Winv.T)
        G = S - Winv
        sub = np.where(pen & (W != 0.0), lam * np.sign(W), 0.0)
        r_zero = np.where(pen & (W == 0.0), np.sign(G) * np.maximum(np.abs(G) - lam, 0.0), 0.0)
        full = np.where(pen & (W == 0.0), r_zero, G + sub)
        W = W - step * full
        W = 0.5 * (W + W.T)
        try:
            np.linalg.cholesky(W)
        except np.linalg.LinAlgError:
            vals, vecs = np.linalg.eigh(W)
            W = (vecs * np.maximum(vals, 1e-6)) @ vecs.T
        if it % check_every == 0 or it == max_iter:
            Winv = np.linalg.inv(W)
            R = S - 0.5 * (Winv + Winv.T)
            polished = _try_candidates(S, W, R, lam, pen, snap_levels, kkt_target, tried)
            if polished is not None:
                return polished
    raise RuntimeError(f"dense oracle failed to reach KKT residual {kkt_target:g} in {max_iter} iterations")


def _try_candidates(S, W, R, lam, pen, snap_levels, kkt_target, tried, max_enum=8):
    """Guess-and-certify active sets from the current subgradient iterate.

    Base candidates snap the oscillation band of W to zero and add every
    entry whose stationarity at zero is violated (|R| > lam), frozen at its
    descent sign.  Because the certification is cheap, entries sitting close
    to the |R| = lam boundary (the genuinely ambiguous ones) are enumerated
    both in and out of the support, capped at ``max_enum`` entries.  Every
    attempted (support, signs) pair is cached by the caller's ``tried`` set.
    """
    entering = pen & (np.abs(R) > lam * (1.0 + 1e-9))
    iu = np.triu_indices(S.shape[0], k=1)
    band = pen & (np.abs(np.abs(R) - lam) <= 0.5 * lam)
    band_idx = [(i, j) for i, j in zip(*iu) if band[i, j]]
    if len(band_idx) > max_enum:
        slack = [abs(abs(R[i, j]) - lam) for i, j in band_idx]
        order = np.argsort(slack)[:max_enum]
        band_idx = [band_idx[t] for t in order]

    for snap in snap_levels:
        cand = W.copy()
        cand[pen & (np.abs(cand) < snap)] = 0.0
        base_support = (cand != 0.0) | entering | ~pen
        base_signs = np.where(cand != 0.0, np.sign(cand), -np.sign(R))
        for combo in range(2 ** len(band_idx)):
            support = base_support.copy()
            for t, (i, j) in enumerate(band_idx):
                inc = bool((combo >> t) & 1)
                support[i, j] = support[j, i] = inc
            signs = np.where(pen & support, base_signs, 0.0)
            key = (support.tobytes(), signs.tobytes())
            if key in tried:
                continue
            tried.add(key)
            polished = _polish_on_support(S, cand, support, signs, lam, pen, kkt_target)
            if polished is not None:
                return polished
    return None


def _polish_on_support(S, W, support, signs, lam, pen, kkt_target, max_newton=60):
    """Minimize the objective restricted to a support with frozen signs.

    On the support the objective is smooth and strictly convex, and the
    free dimension is tiny (at most 21 for m = 6), so a damped Newton
    method with an explicit Hessian converges to near machine precision in
    a handful of steps; off-support entries stay exactly zero.  Returns the
    polished matrix iff its full KKT residual meets the target, which also
    validates the guessed support and signs.
    """
    m = S.shape[0]
    W = np.where(support, W, 0.0)
    try:
        np.linalg.cholesky(W)
    except np.linalg.LinAlgError:
        return None

    I, J = np.nonzero(np.triu(support))
    mult = np.where(I == J, 1.0, 2.0)

    def assemble(w):
        M = np.zeros((m, m))
        M[I, J] = w
        M[J, I] = w
        return M

    def smooth_value(M):
        L = np.linalg.cholesky(M)
        return float(np.sum(S * M) + lam * np.sum(signs * M)) - 2.0 * float(np.sum(np.log(np.diag(L))))

    w = W[I, J].copy()
    f_cur = smooth_value(W)
    for _ in range(max_newton):
        M = assemble(w)
        K = np.linalg.inv(M)
        K = 0.5 * (K + K.T)
        g = mult * (S[I, J] - K[I, J] + lam * signs[I, J])
        if np.max(np.abs(g)) <= 1e-11 * max(1.0, np.max(np.abs(S))):
            break
        # Hessian of -log det restricted to the symmetric free entries
        H = 0.5 * np.outer(mult, mult) * (
            K[np.ix_(I, I)] * K[np.ix_(J, J)] + K[np.ix_(I, J)] * K[np.ix_(J, I)]
        )
        try:
            d = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            return None
        t = 1.0
        stepped = False
        for _ in range(60):
            w_t = w - t * d
            M_t = assemble(w_t)
            try:
                f_t = smooth_value(M_t)
            except np.linalg.LinAlgError:
                t *= 0.5
                continue
            if f_t <= f_cur + 1e-12 * max(1.0, abs(f_cur)):
                w, f_cur = w_t, f_t
                stepped = True
                break
            t *= 0.5
        if not stepped:
            break
    W_polished = assemble(w)
    try:
        if kkt_residual(S, W_polished, lam, penalize_diagonal=bool(pen[0, 0])) <= kkt_target:
            return W_polished
    except ValueError:
        pass
    return None


def reference_read_csv_matrix(path):
    """The CSV reader as it was before numpy's C reader: ``csv.reader`` and ``float`` on every cell.

    ``iggl.cli.read_csv_matrix`` must return the same names and matrix bits,
    or raise the same error, on every file.
    """
    try:
        fh = open(path, "r", newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            names = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file") from None
        names = [c.strip() for c in names]
        if len(set(names)) != len(names):
            raise InputError(f"{path}: duplicate column names in header")
        rows = []
        for row in reader:
            lineno = reader.line_num  # the physical line on which the record ends
            if not row:
                continue
            if len(row) != len(names):
                raise InputError(f"{path}: line {lineno}: expected {len(names)} fields, got {len(row)}")
            try:
                vals = np.asarray(row, dtype=float)
            except ValueError:
                vals = None
            if vals is None or not np.all(np.isfinite(vals)):
                raise _reference_bad_cell(path, lineno, row, names)
            rows.append(vals)
    if not rows:
        raise InputError(f"{path}: no data rows")
    return names, np.asarray(rows)


def _reference_bad_cell(path, lineno, row, names):
    for cell, name in zip(row, names):
        cell = cell.strip()
        if not cell:
            return InputError(f"{path}: line {lineno}, column {name}: missing value")
        try:
            v = float(cell)
        except ValueError:
            return InputError(f"{path}: line {lineno}, column {name}: not numeric: {cell!r}")
        if not math.isfinite(v):
            return InputError(f"{path}: line {lineno}, column {name}: non-finite value")


_DOT_ID = re.compile(r'^"(?:[^"\\]|\\.)*"$')
_DOT_ATTR = re.compile(r"^\[weight=([^\]\s]+)\]$")


def _dot_unquote(ident):
    return re.sub(r"\\(.)", r"\1", ident[1:-1])


def check_dot_grammar(text):
    """Validate the undirected-graph DOT subset produced by the exporter.

    Grammar: 'graph { (node_stmt | edge_stmt)* }' where node_stmt is a
    quoted identifier and edge_stmt is 'id -- id [weight=float];'.  Returns
    (nodes, edges) on success, raises AssertionError otherwise.
    """
    lines = [ln.strip() for ln in text.strip().splitlines()]
    assert lines[0] == "graph {", f"bad header: {lines[0]!r}"
    assert lines[-1] == "}", f"bad footer: {lines[-1]!r}"
    nodes, edges = [], []
    for ln in lines[1:-1]:
        assert ln.endswith(";"), f"statement missing ';': {ln!r}"
        body = ln[:-1].strip()
        if " -- " in body:
            rest = body.split(" -- ", 1)
            lhs = rest[0].strip()
            rhs_attr = rest[1].rsplit(" ", 1)
            assert len(rhs_attr) == 2, f"edge missing attributes: {ln!r}"
            rhs, attr = rhs_attr[0].strip(), rhs_attr[1].strip()
            assert _DOT_ID.match(lhs), f"bad node id: {lhs!r}"
            assert _DOT_ID.match(rhs), f"bad node id: {rhs!r}"
            mo = _DOT_ATTR.match(attr)
            assert mo, f"bad attribute list: {attr!r}"
            float(mo.group(1))
            edges.append((_dot_unquote(lhs), _dot_unquote(rhs)))
        else:
            assert _DOT_ID.match(body), f"bad node statement: {body!r}"
            nodes.append(_dot_unquote(body))
    return nodes, edges
