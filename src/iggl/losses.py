"""Marginal loss functions for column-wise association graph learning.

Every observed variable carries its own discrepancy measure: a deviance
(quadratic, Bernoulli), a robust location loss built from a psi-function
(Huber, Tukey's bisquare, Hampel's three-part), a margin loss for +/-1
labels (huberized hinge, Lorenz), or the count loss obtained by eliminating
the intercept of a Poisson column.  A loss is an immutable
:class:`ColumnLoss` holding its tuning parameters and a finite positive
multiplier ``scale_factor`` applied to the raw loss; its ``lipschitz``, a
certified upper bound on the Lipschitz constant of the scaled gradient, is
computed, not stated: ``scale_factor`` times the kind's raw bound.  The
fixed-unit-step outer solver needs ``lipschitz <= 1``, which
:func:`scale_to_unit_lipschitz` enforces by giving a loss whose bound is
above one the scale one over its raw bound.

Each loss kind is one row of the private table ``_KINDS``: its value and
gradient kernels, parameter names, raw gradient-Lipschitz bound as a
function of the parameters, label pair (or none) and whether its kernels
write in place; one lookup there rejects an unknown kind.  The single-column
:func:`loss_value` and :func:`loss_grad` check the column's domain first.
The whole-matrix :func:`batch_value` and :func:`batch_grad` make one kernel
call per loss kind and assume in-domain data: ``fit`` checks each column
once.  In-place kernels write only into arrays they allocate or that the
caller passes as ``out=`` and ``work=``; inputs are never modified.

All operations here are pure functions of their arguments; ``ColumnLoss``
values are safe to share across threads.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

_FLOAT_MAX = float(np.finfo(float).max)  # a Python float: an integer above it has no float value

# consistency factor making the MAD unbiased for a Gaussian sigma
MAD_SCALE = 1.4826

# the psi-type location losses, l(theta, y) = integral of psi over [0, |theta-y|],
# and their recommended tuning multiples of the robust scale estimate
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
        Multiplier applied to the raw loss and its gradient: a finite
        positive number, which :func:`check_loss` checks.
    lipschitz : float
        Certified bound on the Lipschitz constant of the scaled gradient,
        computed (not settable): ``scale_factor * default_lipschitz(kind, params)``.
        ``fit`` resolves every field of a ``poisson_reparam`` placeholder.
    """

    kind: str
    params: dict
    scale_factor: float = 1.0

    @cached_property  # _prepare reads it for every column of every fit
    def lipschitz(self) -> float:
        return self.scale_factor * default_lipschitz(self.kind, self.params)


def make_loss(kind, scale_factor=1.0, **params) -> ColumnLoss:
    """Build a :class:`ColumnLoss` checked by :func:`check_loss`.

    Parameters omitted for ``huberized_hinge`` default to ``c=1``; a
    parameter the kind does not take is rejected.
    """
    if kind == "huberized_hinge":
        params.setdefault("c", 1.0)
    loss = ColumnLoss(kind, params, scale_factor)
    check_loss(loss)
    return loss


def check_loss(loss):
    """The one loss check, by :func:`make_loss` and ``fit``: valid parameters, finite positive scale, finite bound."""
    check_params(loss.kind, loss.params)
    if not 0 < loss.scale_factor <= _FLOAT_MAX:
        raise ValueError("scale_factor must be positive" if loss.scale_factor <= 0 else
                         f"scale_factor must be finite, got {loss.scale_factor!r}")
    if not loss.lipschitz <= _FLOAT_MAX:  # scaling down by an infinite bound would drop the column from the fit
        raise ValueError(f"{loss.kind}: gradient-Lipschitz bound overflows "
                         f"(scale_factor {loss.scale_factor:g}, params {loss.params})")


def _check_numbers(kind, params):
    for name, value in params.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not abs(value) <= _FLOAT_MAX:
            raise ValueError(f"{kind}: parameter {name!r} must be a finite number, got {value!r}")


def check_params(kind, params):
    """Raise ``ValueError`` unless ``params`` are exactly valid parameters of ``kind``, each a finite number."""
    unknown = set(params) - set(_KINDS[kind].params)
    if unknown:
        raise ValueError(f"{kind}: unknown parameters {sorted(unknown)}")
    _check_numbers(kind, params)
    if kind in ("huber", "tukey", "huberized_hinge"):
        if params.get("c", 0.0) <= 0:
            raise ValueError(f"{kind} requires a positive cutoff c")
    elif kind == "hampel":
        a, b, c = params.get("a", 0.0), params.get("b", 0.0), params.get("c", 0.0)
        if not (0 < a <= b < c):
            raise ValueError("hampel requires 0 < a <= b < c")
    elif kind == "poisson_reparam":
        if params.get("count_total", 0.0) <= 0:
            raise ValueError("poisson_reparam requires a positive count_total")


def default_lipschitz(kind, params=None) -> float:
    """Certified upper bound on the raw (unscaled) gradient's Lipschitz constant, from ``kind``'s row.

    Without ``params``, huberized_hinge takes its default c = 1.
    """
    return _KINDS[kind].bound(params or {})


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


def _quadratic_value(theta, y, out=None, work=None):
    t = np.subtract(theta, y, out=out)
    t *= t
    t *= 0.5
    return t


def _bernoulli_value(theta, y, out=None, work=None):
    # (max(theta, 0) - y theta) + log1p(exp(-|theta|)): the first term is
    # exact for 0/1 labels, so nothing cancels when the deviance is small
    shape = np.broadcast_shapes(np.shape(theta), np.shape(y))
    lin = np.maximum(theta, 0.0, out=np.empty(shape) if work is None else work)
    out = np.multiply(y, theta, out=np.empty(shape) if out is None else out)
    lin -= out
    np.abs(theta, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += lin
    return out


def _bernoulli_grad(theta, y, out=None):
    # 0.5 (1 + tanh(theta / 2)) - y, the sigmoid in an overflow-safe form
    shape = np.broadcast_shapes(np.shape(theta), np.shape(y))
    out = np.multiply(theta, 0.5, out=np.empty(shape) if out is None else out)
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


class _Kind(NamedTuple):
    value: object  # the raw kernels, indexed by _VALUE and _GRAD
    grad: object
    params: tuple  # parameter names, passed to the kernels in this order
    bound: object  # raw gradient-Lipschitz bound as a function of the parameter dict
    labels: tuple | None = None  # the two labels a column may hold, or None for no label check
    in_place: bool = False  # the kernels write into arrays passed as out= (and work= for the value)


class _KindTable(dict):
    def __missing__(self, kind):  # the one place an unknown kind is rejected
        raise ValueError(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")


_KINDS = _KindTable({
    "quadratic": _Kind(_quadratic_value, lambda theta, y, out=None: np.subtract(theta, y, out=out), (),
                       lambda p: 1.0, in_place=True),
    "bernoulli": _Kind(_bernoulli_value, _bernoulli_grad, (), lambda p: 0.25, labels=(0, 1), in_place=True),
    "huber": _Kind(_huber_value, _huber_grad, ("c",), lambda p: 1.0),
    "tukey": _Kind(_tukey_value, _tukey_grad, ("c",), lambda p: 1.0),
    "hampel": _Kind(_hampel_value, _hampel_grad, ("a", "b", "c"), lambda p: max(1.0, p["a"] / (p["c"] - p["b"]))),
    "huberized_hinge": _Kind(_hinge_value, _hinge_grad, ("c",), lambda p: 1.0 / p.get("c", 1.0), labels=(-1, 1)),
    "lorenz": _Kind(_lorenz_value, _lorenz_grad, (), lambda p: 2.0, labels=(-1, 1)),
    "poisson_reparam": _Kind(_poisson_value, _poisson_grad, ("count_total",), lambda p: p["count_total"] / 2.0),
})
LOSS_KINDS = tuple(_KINDS)
_VALUE, _GRAD = 0, 1


def check_domain(kind, y):
    """Raise ``ValueError`` unless column ``y`` lies in the domain of ``kind``.

    A kind with a label pair takes those two labels only (Bernoulli {0, 1},
    margin kinds {-1, +1}), and count columns nonnegative integers with a
    positive total; other kinds take any real.  An unknown kind is rejected.
    """
    labels = _KINDS[kind].labels
    y = np.asarray(y)
    if labels is not None:
        lo, hi = labels
        if not np.all((y == lo) | (y == hi)):  # the message names {0, 1} or {-1, +1}
            raise ValueError(f"{kind} loss requires labels in {{{lo}, {'+' if lo < 0 else ''}{hi}}}")
    elif kind == "poisson_reparam":
        if np.any(y < 0) or np.any(y != np.floor(y)):
            raise ValueError("count loss requires nonnegative integer entries")
        if np.sum(y) <= 0:
            raise ValueError("count column sums to zero")


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
    check_domain(loss.kind, y)
    if loss.kind == "poisson_reparam":
        if theta.ndim != 1 or y.ndim != 1:
            raise ValueError("poisson_reparam is a column-level loss; pass 1-d vectors")
        out = _block_op(op, (loss,), theta[:, None], y[:, None])
        return float(out[0]) if op == _VALUE else out[:, 0]
    out = _scaled_kernel(op, loss, theta, y)
    return float(out) if out.ndim == 0 else out


def _scaled_kernel(op, loss, theta, y):
    """Scaled kernel ``op`` of one elementwise column, with no domain check; the intercept search calls it."""
    row = _KINDS[loss.kind]
    return loss.scale_factor * row[op](theta, y, *(loss.params[p] for p in row.params))


def _block_op(op, losses, theta, y, **buffers):
    """Scaled kernel ``op`` on an (n, p) block of columns of one kind, into ``buffers`` if it writes in place."""
    row = _KINDS[losses[0].kind]
    params = [np.array([loss.params[p] for loss in losses]) for p in row.params]
    scale = np.array([loss.scale_factor for loss in losses])
    r = row[op](theta, y, *params, **(buffers if row.in_place else {}))
    return r if np.all(scale == 1.0) else np.multiply(r, scale, out=r)


def scale_to_unit_lipschitz(loss: ColumnLoss) -> ColumnLoss:
    """Rescale so the gradient-Lipschitz bound is at most one.

    A loss with ``lipschitz > 1`` is divided by its bound (its scale becomes
    one over the raw bound), making the unit step size of the outer solver
    valid.  Losses already at or below one are returned unchanged (keeping
    their native units costs some convergence speed but preserves reported
    loss values).  Idempotent.
    """
    return _divide_by_bound(loss) if loss.lipschitz > 1.0 else loss


def _divide_by_bound(loss):
    return replace(loss, scale_factor=1.0 / default_lipschitz(loss.kind, loss.params))


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
    total is filled in by the fit-time preprocessing.  Every parameter value,
    ``*_mult`` ones too, must be a finite real number (not a boolean); a
    parameter name the kind does not take is rejected by :func:`make_loss`.
    """
    params = dict(params or {})
    _check_numbers(kind, params)
    if kind == "poisson_reparam":
        if params:
            raise ValueError("poisson_reparam takes no config parameters")
        return ColumnLoss("poisson_reparam", {})
    if kind in DEFAULT_TUNING:
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
    return make_loss(kind, **params)


def batch_value(losses, Theta, Y, out=None, work=None) -> float:
    """Sum of the per-column scaled losses over the whole matrix.

    One kernel call per loss kind.  Unlike :func:`loss_value` this does not
    check that each column of ``Y`` lies in its kind's domain: ``fit``
    checks every column once before its loop.  ``out`` and ``work`` (Theta's
    shape) are scratch for the values of an in-place kind spanning every column.
    """
    Theta, Y, groups = _check_batch(losses, Theta, Y, out=out, work=work)
    return float(sum(np.sum(_block_op(_VALUE, group, Theta[:, cols], Y[:, cols], **buffers))
                     for cols, group, buffers in groups))


def batch_grad(losses, Theta, Y, out=None) -> np.ndarray:
    """Gradient of :func:`batch_value` with respect to ``Theta``.

    Entrywise per column; column-wise for ``poisson_reparam`` columns.  One
    kernel call per loss kind, on data assumed in-domain as for
    :func:`batch_value`.  Written into ``out`` when given (not ``Theta``), else into a fresh array.
    """
    G = np.empty_like(Theta, dtype=float) if out is None else out
    Theta, Y, groups = _check_batch(losses, Theta, Y, out=G)
    for cols, group, buffers in groups:
        G[:, cols] = _block_op(_GRAD, group, Theta[:, cols], Y[:, cols], **buffers)
    return G


def _check_batch(losses, Theta, Y, **buffers):
    """Theta and Y as arrays, and (columns, losses, buffers) of each loss kind; a mixed problem's kinds get none."""
    Theta = np.asarray(Theta, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Theta.shape != Y.shape or Theta.ndim != 2:
        raise ValueError(f"shape mismatch: Theta {Theta.shape} vs Y {Y.shape}")
    if len(losses) != Theta.shape[1]:
        raise ValueError(f"expected one loss per column: {len(losses)} losses for {Theta.shape[1]} columns")
    groups = {}
    for k, loss in enumerate(losses):
        groups.setdefault(loss.kind, []).append(k)
    if len(groups) == 1:  # the kind's blocks are Theta and Y themselves, which the caller's buffers fit
        return Theta, Y, [(slice(None), losses, buffers)]
    return Theta, Y, [(cols, [losses[k] for k in cols], {}) for cols in groups.values()]
