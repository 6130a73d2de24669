"""Marginal loss functions for column-wise association graph learning.

Every observed variable carries its own discrepancy measure: a deviance
(quadratic, Bernoulli), a robust location loss built from a psi-function
(Huber, Tukey's bisquare, Hampel's three-part), a margin loss for +/-1
labels (huberized hinge, Lorenz), or the count loss obtained by eliminating
the intercept of a Poisson column.  A loss is an immutable
:class:`ColumnLoss` holding its tuning parameters, a positive multiplier
``scale_factor`` applied to the raw loss, and ``lipschitz``, a certified
upper bound on the Lipschitz constant of the scaled gradient.  The
fixed-unit-step outer solver needs ``lipschitz <= 1``, which
:func:`scale_to_unit_lipschitz` enforces by rescaling losses whose bound
exceeds one.

Each formula is written once, as a per-kind kernel.  The single-column
:func:`loss_value` and :func:`loss_grad` check that the column lies in its
kind's domain (:func:`check_domain`) before calling it.  The whole-matrix
:func:`batch_value` and :func:`batch_grad` make one kernel call per loss
kind and assume in-domain data: ``fit`` checks each column once.  Kernels
that work in place write only into arrays they allocate themselves, so
read-only or shared inputs are never modified.

All operations here are pure functions of their arguments; ``ColumnLoss``
values are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

LOSS_KINDS = (
    "quadratic",
    "bernoulli",
    "huber",
    "tukey",
    "hampel",
    "huberized_hinge",
    "lorenz",
    "poisson_reparam",
)

# psi-type location losses: l(theta, y) = integral of psi over [0, |theta-y|]
PSI_KINDS = ("huber", "tukey", "hampel")
# margin losses for labels in {-1, +1}
MARGIN_KINDS = ("huberized_hinge", "lorenz")

# consistency factor making the MAD unbiased for a Gaussian sigma
MAD_SCALE = 1.4826

# recommended tuning multiples of the robust scale estimate
DEFAULT_TUNING = {
    "huber": {"c_mult": 1.345},
    "tukey": {"c_mult": 4.685},
    "hampel": {"a_mult": 2.0, "b_mult": 4.0, "c_mult": 8.0},
}


@dataclass(frozen=True, eq=False)
class ColumnLoss:
    """One variable's marginal loss.

    Attributes
    ----------
    kind : str
        One of ``LOSS_KINDS``.
    params : dict
        Loss-specific parameters (``c`` for huber/tukey/huberized_hinge,
        ``a``/``b``/``c`` for hampel, ``count_total`` for poisson_reparam).
        Treated as immutable after construction.
    scale_factor : float
        Positive multiplier applied to the raw loss and its gradient.
    lipschitz : float
        Certified bound on the Lipschitz constant of the scaled gradient.
    """

    kind: str
    params: dict
    scale_factor: float = 1.0
    lipschitz: float = 1.0


def make_loss(kind, scale_factor=1.0, **params) -> ColumnLoss:
    """Build a validated :class:`ColumnLoss` with its certified bound.

    Parameters omitted for ``huberized_hinge`` default to ``c=1``.  The
    ``lipschitz`` field is ``scale_factor`` times the raw-gradient bound of
    :func:`default_lipschitz`.
    """
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")
    if scale_factor <= 0:
        raise ValueError("scale_factor must be positive")
    params = dict(params)
    if kind == "huberized_hinge":
        params.setdefault("c", 1.0)
    _validate_params(kind, params)
    lips = scale_factor * default_lipschitz(kind, params)
    return ColumnLoss(kind=kind, params=params, scale_factor=scale_factor, lipschitz=lips)


def _validate_params(kind, params):
    if kind in ("huber", "tukey"):
        if params.get("c", 0.0) <= 0:
            raise ValueError(f"{kind} requires a positive cutoff c")
    elif kind == "hampel":
        a, b, c = params.get("a", 0.0), params.get("b", 0.0), params.get("c", 0.0)
        if not (0 < a <= b < c):
            raise ValueError("hampel requires 0 < a <= b < c")
    elif kind == "huberized_hinge":
        if params.get("c", 0.0) <= 0:
            raise ValueError("huberized_hinge requires a positive c")
    elif kind == "poisson_reparam":
        if params.get("count_total", 0.0) <= 0:
            raise ValueError("poisson_reparam requires a positive count_total")


def default_lipschitz(kind, params=None) -> float:
    """Certified upper bound on the raw (unscaled) gradient's Lipschitz constant.

    quadratic -> 1, bernoulli -> 1/4, lorenz -> 2, huber -> 1,
    huberized_hinge -> 1/c, hampel -> max(1, a/(c-b)), tukey -> 1,
    poisson_reparam -> count_total/2 (curvature bound of the column loss).
    """
    params = params or {}
    if kind == "huberized_hinge":
        return 1.0 / params.get("c", 1.0)
    if kind == "hampel":
        return max(1.0, params["a"] / (params["c"] - params["b"]))
    if kind == "poisson_reparam":
        return params["count_total"] / 2.0
    fixed = {"quadratic": 1.0, "bernoulli": 0.25, "lorenz": 2.0, "huber": 1.0, "tukey": 1.0}
    if kind not in fixed:
        raise ValueError(f"unknown loss kind {kind!r}")
    return fixed[kind]


# ---------------------------------------------------------------------------
# per-kind kernels (raw, unscaled)
# ---------------------------------------------------------------------------
# Each kernel takes ``theta`` and ``y`` of one shape plus the kind's
# parameters: scalars for one column, or row vectors that broadcast over an
# (n, p) block of columns.  All kinds but poisson_reparam are elementwise.

def _huber_value(theta, y, c):
    t = theta - y
    a = np.abs(t)
    return np.where(a <= c, 0.5 * t * t, c * a - 0.5 * c * c)


def _huber_grad(theta, y, c):
    t = theta - y
    return np.where(np.abs(t) <= c, t, c * np.sign(t))


def _tukey_value(theta, y, c):
    u = np.minimum(((theta - y) / c) ** 2, 1.0)
    return (c * c / 6.0) * (1.0 - (1.0 - u) ** 3)


def _tukey_grad(theta, y, c):
    t = theta - y
    u = (t / c) ** 2
    return np.where(np.abs(t) <= c, t * (1.0 - u) ** 2, 0.0)


def _hampel_value(theta, y, a, b, c):
    at = np.abs(theta - y)
    r1 = 0.5 * at * at
    r2 = a * at - 0.5 * a * a
    r3 = a * b - 0.5 * a * a + a * (c * (at - b) - 0.5 * (at * at - b * b)) / (c - b)
    r4 = a * b - 0.5 * a * a + 0.5 * a * (c - b)
    return np.where(at <= a, r1, np.where(at <= b, r2, np.where(at <= c, r3, r4)))


def _hampel_grad(theta, y, a, b, c):
    t = theta - y
    at = np.abs(t)
    s = np.sign(t)
    return np.where(at <= a, t, np.where(at <= b, a * s, np.where(at <= c, a * s * (c - at) / (c - b), 0.0)))


def _hinge_value(theta, y, c):
    v = y * theta
    return np.where(v <= 1.0 - c, 1.0 - 0.5 * c - v, np.where(v <= 1.0, (1.0 - v) ** 2 / (2.0 * c), 0.0))


def _hinge_grad(theta, y, c):
    v = y * theta
    return y * np.where(v <= 1.0 - c, -1.0, np.where(v <= 1.0, -(1.0 - v) / c, 0.0))


def _lorenz_value(theta, y):
    u = y * theta - 1.0
    return np.where(u <= 0.0, np.log1p(u * u), 0.0)


def _lorenz_grad(theta, y):
    u = y * theta - 1.0
    return y * np.where(u <= 0.0, 2.0 * u / (1.0 + u * u), 0.0)


def _bernoulli_value(theta, y):
    # (max(theta, 0) - y theta) + log1p(exp(-|theta|)): the first term is
    # exact for 0/1 labels, so nothing cancels when the deviance is small
    shape = np.broadcast_shapes(np.shape(theta), np.shape(y))
    lin = np.maximum(theta, 0.0, out=np.empty(shape))
    out = np.multiply(y, theta, out=np.empty(shape))
    lin -= out
    np.abs(theta, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += lin
    return out


def _bernoulli_grad(theta, y):
    # 0.5 (1 + tanh(theta / 2)) - y, the sigmoid in an overflow-safe form
    out = np.multiply(theta, 0.5, out=np.empty(np.broadcast_shapes(np.shape(theta), np.shape(y))))
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    out -= y
    return out


# The count loss couples the entries of a column: its kernels take (n, p)
# blocks and reduce over contiguous rows of the transposed block, which sums
# each column in the same order as a reduction over that column alone.

def _poisson_value(theta, y, count_total):
    T = np.ascontiguousarray(theta.T)
    mx = np.max(T, axis=1)
    lse = mx + np.log(np.sum(np.exp(T - mx[:, None]), axis=1))
    return count_total * lse - np.sum(y * theta, axis=0)


def _poisson_grad(theta, y, count_total):
    T = np.ascontiguousarray(theta.T)
    e = np.exp(T - np.max(T, axis=1, keepdims=True))
    return count_total * (e / np.sum(e, axis=1, keepdims=True)).T - y


# kind -> (value kernel, gradient kernel, parameter names)
_KERNELS = {
    "quadratic": (lambda theta, y: 0.5 * (theta - y) ** 2, lambda theta, y: theta - y, ()),
    "bernoulli": (_bernoulli_value, _bernoulli_grad, ()),
    "huber": (_huber_value, _huber_grad, ("c",)),
    "tukey": (_tukey_value, _tukey_grad, ("c",)),
    "hampel": (_hampel_value, _hampel_grad, ("a", "b", "c")),
    "huberized_hinge": (_hinge_value, _hinge_grad, ("c",)),
    "lorenz": (_lorenz_value, _lorenz_grad, ()),
    "poisson_reparam": (_poisson_value, _poisson_grad, ("count_total",)),
}
_VALUE, _GRAD = 0, 1


def check_domain(kind, y):
    """Raise ``ValueError`` unless column ``y`` lies in the domain of ``kind``.

    Bernoulli labels are {0, 1}, margin labels {-1, +1}, and count columns
    nonnegative integers with a positive total; other kinds take any real.
    An unknown kind is rejected.
    """
    y = np.asarray(y)
    if kind == "bernoulli":
        if not np.all((y == 0) | (y == 1)):
            raise ValueError("bernoulli loss requires labels in {0, 1}")
    elif kind in MARGIN_KINDS:
        if not np.all((y == -1) | (y == 1)):
            raise ValueError(f"{kind} loss requires labels in {{-1, +1}}")
    elif kind == "poisson_reparam":
        if np.any(y < 0) or np.any(y != np.floor(y)):
            raise ValueError("count loss requires nonnegative integer entries")
        if np.sum(y) <= 0:
            raise ValueError("count column sums to zero")
    elif kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def loss_value(loss: ColumnLoss, theta, y):
    """Scaled loss value.

    For all kinds except ``poisson_reparam`` this is elementwise in
    ``(theta, y)`` and returns an array of the same shape (a float for
    scalar inputs).  ``poisson_reparam`` is a column-level loss: ``theta``
    and ``y`` must be 1-d vectors for one column and a single float is
    returned.  Raises ``ValueError`` when ``y`` is outside the kind's domain.
    """
    return _column_op(_VALUE, loss, theta, y)


def loss_grad(loss: ColumnLoss, theta, y):
    """Derivative of :func:`loss_value` with respect to ``theta``.

    Elementwise except for ``poisson_reparam``, whose gradient couples all
    entries of the column through a softmax.
    """
    return _column_op(_GRAD, loss, theta, y)


def _column_op(op, loss, theta, y):
    theta = np.asarray(theta, dtype=float)
    y = np.asarray(y, dtype=float)
    if loss.kind == "poisson_reparam":
        if theta.ndim != 1 or y.ndim != 1:
            raise ValueError("poisson_reparam is a column-level loss; pass 1-d vectors")
        out = _block_op(op, (loss,), theta[:, None], y[:, None])
        return float(out[0]) if op == _VALUE else out[:, 0]
    check_domain(loss.kind, y)
    kernel = _KERNELS[loss.kind]
    out = loss.scale_factor * kernel[op](theta, y, *(loss.params[p] for p in kernel[2]))
    return float(out) if out.ndim == 0 else out


def kernel_value(loss: ColumnLoss, theta, y):
    """Elementwise scaled loss values, without :func:`loss_value`'s domain check.

    For callers that have checked the column once and evaluate it many
    times, such as the intercept search of ``fit``.  Not for
    ``poisson_reparam``, whose value is column-level.
    """
    value, _, names = _KERNELS[loss.kind]
    return loss.scale_factor * value(theta, y, *(loss.params[p] for p in names))


def _block_op(op, losses, theta, y):
    """Scaled kernel ``op`` on an (n, p) block of columns of one kind."""
    kernels = _KERNELS[losses[0].kind]
    params = [np.array([loss.params[p] for loss in losses]) for p in kernels[2]]
    scale = np.array([loss.scale_factor for loss in losses])
    return scale * kernels[op](theta, y, *params)


def scale_to_unit_lipschitz(loss: ColumnLoss) -> ColumnLoss:
    """Rescale so the gradient-Lipschitz bound is at most one.

    A loss with ``lipschitz > 1`` is divided by its bound, making the unit
    step size of the outer solver valid.  Losses already at or below one are
    returned unchanged (keeping their native units costs some convergence
    speed but preserves reported loss values).  Idempotent.
    """
    return _divide_by_bound(loss) if loss.lipschitz > 1.0 else loss


def force_unit_lipschitz(loss: ColumnLoss) -> ColumnLoss:
    """Rescale so the certified bound equals one exactly (both directions).

    Used by the ``equalize_lipschitz`` option: losses with a bound below one
    (e.g. the Bernoulli deviance at 1/4) are multiplied up for faster
    convergence, at the price of changing the units of reported objectives.
    """
    return _divide_by_bound(loss) if loss.lipschitz != 1.0 else loss


def _divide_by_bound(loss):
    return replace(loss, scale_factor=loss.scale_factor / loss.lipschitz, lipschitz=1.0)


def robust_scale(residuals) -> float:
    """MAD-based scale estimate: 1.4826 * median(|r - median(r)|).

    Raises ``ValueError`` when fewer than two residuals are given or when
    the median absolute deviation is zero (degenerate scale).
    """
    r = np.asarray(residuals, dtype=float).ravel()
    if r.size < 2:
        raise ValueError("robust_scale needs at least two residuals")
    mad = np.median(np.abs(r - np.median(r)))
    if mad <= 0.0:
        raise ValueError("degenerate scale: median absolute deviation is zero")
    return float(MAD_SCALE * mad)


def loss_from_config(kind, params=None, column=None) -> ColumnLoss:
    """Resolve a config-style loss assignment into a :class:`ColumnLoss`.

    ``params`` may give absolute cutoffs (``c``, or ``a``/``b``/``c`` for
    hampel) or multiples of the robust scale (``c_mult`` etc.), in which
    case the column data must be supplied so the MAD scale can be computed.
    ``poisson_reparam`` assignments are returned as placeholders; the count
    total is filled in by the fit-time preprocessing.
    """
    params = dict(params or {})
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")
    if kind == "poisson_reparam":
        if params:
            raise ValueError("poisson_reparam takes no config parameters")
        return ColumnLoss(kind="poisson_reparam", params={}, scale_factor=1.0, lipschitz=1.0)
    if kind in PSI_KINDS:
        mults = {k: v for k, v in params.items() if k.endswith("_mult")}
        absolutes = {k: v for k, v in params.items() if not k.endswith("_mult")}
        if mults and absolutes:
            raise ValueError(f"{kind}: give either *_mult or absolute cutoffs, not both")
        if not absolutes:
            tuning = dict(DEFAULT_TUNING[kind])
            tuning.update(mults)
            if column is None:
                raise ValueError(f"{kind}: scale-relative cutoffs need column data")
            sigma = robust_scale(np.asarray(column, dtype=float))
            absolutes = {name[:-5]: mult * sigma for name, mult in tuning.items()}
        return make_loss(kind, **absolutes)
    unknown = set(params) - {"c"}
    if unknown:
        raise ValueError(f"{kind}: unknown parameters {sorted(unknown)}")
    return make_loss(kind, **params)


def batch_value(losses, Theta, Y) -> float:
    """Sum of the per-column scaled losses over the whole matrix.

    One kernel call per loss kind.  Unlike :func:`loss_value` this does not
    check that each column of ``Y`` lies in its kind's domain: ``fit``
    checks every column once before its loop.
    """
    Theta, Y, groups = _check_batch(losses, Theta, Y)
    if len(groups) == 1:
        return float(np.sum(_block_op(_VALUE, losses, Theta, Y)))
    return float(sum(np.sum(_block_op(_VALUE, group, Theta[:, cols], Y[:, cols])) for cols, group in groups))


def batch_grad(losses, Theta, Y) -> np.ndarray:
    """Gradient of :func:`batch_value` with respect to ``Theta``.

    Entrywise per column; column-wise for ``poisson_reparam`` columns.  One
    kernel call per loss kind, on data assumed in-domain as for
    :func:`batch_value`.
    """
    Theta, Y, groups = _check_batch(losses, Theta, Y)
    if len(groups) == 1:
        return _block_op(_GRAD, losses, Theta, Y)
    G = np.empty_like(Theta)
    for cols, group in groups:
        G[:, cols] = _block_op(_GRAD, group, Theta[:, cols], Y[:, cols])
    return G


def _check_batch(losses, Theta, Y):
    """Theta and Y as arrays, and (column indices, losses) of each loss kind."""
    Theta = np.asarray(Theta, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Theta.shape != Y.shape or Theta.ndim != 2:
        raise ValueError(f"shape mismatch: Theta {Theta.shape} vs Y {Y.shape}")
    if len(losses) != Theta.shape[1]:
        raise ValueError(f"expected one loss per column: {len(losses)} losses for {Theta.shape[1]} columns")
    groups = {}
    for k, loss in enumerate(losses):
        groups.setdefault(loss.kind, []).append(k)
    return Theta, Y, [(cols, [losses[k] for k in cols]) for cols in groups.values()]
