import re

import numpy as np
import pytest

from iggl import (
    ColumnLoss,
    batch_grad,
    batch_value,
    default_lipschitz,
    loss_from_config,
    loss_grad,
    loss_value,
    make_loss,
    poisson_preprocess,
    robust_scale,
    scale_to_unit_lipschitz,
)
from iggl.losses import LOSS_KINDS, _VALUE, _scaled_kernel, check_domain, check_params

from helpers import ALL_KINDS

SCALAR_KINDS = [k for k in ALL_KINDS if k != "poisson_reparam"]
UNKNOWN_KIND = f"unknown loss kind 'logistic'; expected one of {LOSS_KINDS}"


def _loss(kind):
    if kind == "huber":
        return make_loss("huber", c=1.345)
    if kind == "tukey":
        return make_loss("tukey", c=4.685)
    if kind == "hampel":
        return make_loss("hampel", a=2.0, b=4.0, c=8.0)
    return make_loss(kind)


def _draw_y(kind, rng, size=None):
    if kind == "bernoulli":
        return rng.integers(0, 2, size=size).astype(float)
    if kind in ("huberized_hinge", "lorenz"):
        return 2.0 * rng.integers(0, 2, size=size) - 1.0
    return 3.0 * rng.standard_normal(size)


class TestValues:
    def test_bernoulli_log2(self):
        assert loss_value(make_loss("bernoulli"), 0.0, 1.0) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_huber_zero_residual(self):
        assert loss_value(make_loss("huber", c=1.345), 0.7, 0.7) == 0.0

    def test_lorenz_log2(self):
        assert loss_value(make_loss("lorenz"), 0.0, 1.0) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_scale_factor_multiplies(self):
        base = make_loss("bernoulli")
        scaled = make_loss("bernoulli", scale_factor=4.0)
        assert loss_value(scaled, 0.3, 1.0) == pytest.approx(4.0 * loss_value(base, 0.3, 1.0))

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            loss_value(make_loss("bernoulli"), 0.0, 2.0)
        with pytest.raises(ValueError):
            loss_value(make_loss("lorenz"), 0.0, 0.0)
        with pytest.raises(ValueError):
            loss_grad(make_loss("huberized_hinge"), 0.0, 0.5)


class TestGradients:
    def test_huber_beyond_cutoff(self):
        assert loss_grad(make_loss("huber", c=1.345), 2.0, 0.0) == pytest.approx(1.345, abs=1e-15)

    def test_huber_inside(self):
        assert loss_grad(make_loss("huber", c=1.345), 0.5, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_tukey_at_zero(self):
        assert loss_grad(make_loss("tukey", c=4.685), 0.0, 0.0) == 0.0

    @pytest.mark.parametrize("kind", SCALAR_KINDS)
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(101)
        loss = _loss(kind)
        h = 1e-6
        for _ in range(100):
            theta = 4.0 * rng.standard_normal()
            y = float(_draw_y(kind, rng))
            g = loss_grad(loss, theta, y)
            fd = (loss_value(loss, theta + h, y) - loss_value(loss, theta - h, y)) / (2 * h)
            assert abs(g - fd) <= 1e-5 * (1.0 + abs(g))

    @pytest.mark.parametrize("kind", SCALAR_KINDS)
    def test_sampled_lipschitz_bound(self, kind):
        rng = np.random.default_rng(7)
        loss = _loss(kind)
        t1 = 6.0 * rng.standard_normal(10_000)
        t2 = 6.0 * rng.standard_normal(10_000)
        y = _draw_y(kind, rng, 10_000)
        g1 = loss_grad(loss, t1, y)
        g2 = loss_grad(loss, t2, y)
        ratios = np.abs(g1 - g2) / np.abs(t1 - t2)
        bound = default_lipschitz(kind, loss.params) * loss.scale_factor + 1e-8
        assert np.max(ratios) <= bound

    @pytest.mark.parametrize("kind", ["tukey", "hampel"])
    def test_redescending_vanishes_beyond_cutoff(self, kind):
        loss = _loss(kind)
        c = loss.params["c"]
        t = np.array([c + 1e-9, 2 * c, 17.0 * c, -c - 1e-9, -40.0 * c])
        assert np.all(loss_grad(loss, t, np.zeros_like(t)) == 0.0)

    @pytest.mark.parametrize("kind", ["huber", "tukey", "hampel"])
    def test_psi_gradient_is_odd(self, kind):
        loss = _loss(kind)
        t = np.linspace(-12, 12, 201)
        g = loss_grad(loss, t, np.zeros_like(t))
        assert np.allclose(g, -g[::-1], atol=1e-14)


class TestLipschitzConstants:
    def test_paper_constants(self):
        assert default_lipschitz("bernoulli") == 0.25
        assert default_lipschitz("lorenz") == 2.0
        assert default_lipschitz("quadratic") == 1.0
        assert default_lipschitz("huber") == 1.0
        assert default_lipschitz("huberized_hinge", {"c": 2.0}) == 0.5
        assert default_lipschitz("huberized_hinge") == 1.0  # make_loss's default c = 1
        assert default_lipschitz("hampel", {"a": 2.0, "b": 4.0, "c": 8.0}) == 1.0
        assert default_lipschitz("hampel", {"a": 3.0, "b": 4.0, "c": 5.0}) == 3.0

    def test_tukey_grid_oracle(self):
        # grid-maximize |psi'| as an independent certificate that L = 1
        c = 4.685
        loss = make_loss("tukey", c=c)
        t = np.linspace(-2 * c, 2 * c, 100_001)
        g = loss_grad(loss, t, np.zeros_like(t))
        slopes = np.abs(np.diff(g) / np.diff(t))
        assert np.max(slopes) <= 1.0 + 1e-6
        assert np.max(slopes) == pytest.approx(1.0, abs=1e-4)  # attained at t=0
        assert default_lipschitz("tukey") == 1.0


class TestDerivedBound:
    @pytest.mark.parametrize("scale", [0.3, 1.0, 7.0])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_hand_built_bound_is_make_loss_bound(self, kind, scale):
        params = {"count_total": 6.0} if kind == "poisson_reparam" else dict(_loss(kind).params)
        made = make_loss(kind, scale_factor=scale, **params)
        assert ColumnLoss(kind, params, scale).lipschitz == made.lipschitz == scale * default_lipschitz(kind, params)

    def test_bound_cannot_be_stated(self):
        with pytest.raises(TypeError, match="lipschitz"):
            ColumnLoss("huber", {"c": 1.0}, 1.0, lipschitz=2.0)
        with pytest.raises(TypeError):
            ColumnLoss("huber", {"c": 1.0}, 1.0, 2.0)


class TestScaling:
    def test_lorenz_halved(self):
        scaled = scale_to_unit_lipschitz(make_loss("lorenz"))
        assert scaled.scale_factor == pytest.approx(0.5)
        assert scaled.lipschitz == 1.0

    def test_quadratic_unchanged(self):
        loss = make_loss("quadratic")
        assert scale_to_unit_lipschitz(loss) is loss

    def test_bernoulli_kept_below_one(self):
        scaled = scale_to_unit_lipschitz(make_loss("bernoulli"))
        assert scaled.scale_factor == 1.0
        assert scaled.lipschitz == 0.25

    def test_idempotent(self):
        for kind in SCALAR_KINDS:
            once = scale_to_unit_lipschitz(_loss(kind))
            twice = scale_to_unit_lipschitz(once)
            assert twice.scale_factor == once.scale_factor
            assert twice.lipschitz == once.lipschitz

    def test_unit_scale_is_idempotent_under_the_derived_bound(self):
        # the unit scale is one over the raw bound, whatever scale it replaces, so a rescaled
        # loss never recomputes a bound above one and is returned as it is
        rng = np.random.default_rng(27)
        for s, c in zip(np.exp(rng.uniform(-5.0, 5.0, 2000)), np.exp(rng.uniform(-5.0, 3.0, 2000))):
            once = scale_to_unit_lipschitz(make_loss("huberized_hinge", scale_factor=float(s), c=float(c)))
            assert scale_to_unit_lipschitz(once) is once
            assert once.lipschitz == once.scale_factor * default_lipschitz(once.kind, once.params) <= 1.0

    def test_small_count_total_scaled_up(self):
        # the one loss scaled up: a count column of total 1 has bound 1/2
        assert make_loss("poisson_reparam", count_total=1.0).lipschitz == 0.5
        loss = poisson_preprocess(np.array([[0.0], [1.0]]), [0])[0]
        assert (loss.scale_factor, loss.lipschitz) == (2.0, 1.0)


class TestRobustScale:
    def test_symmetric_triple(self):
        assert robust_scale([-1.0, 0.0, 1.0]) == pytest.approx(1.4826)

    def test_all_equal_rejected(self):
        with pytest.raises(ValueError):
            robust_scale([5.0, 5.0, 5.0])

    def test_zero_mad_rejected(self):
        with pytest.raises(ValueError):
            robust_scale([0.0, 0.0, 0.0, 10.0])

    def test_too_few(self):
        with pytest.raises(ValueError):
            robust_scale([1.0])

    def test_translation_invariant(self):
        rng = np.random.default_rng(5)
        r = rng.standard_normal(41)
        assert robust_scale(r) == pytest.approx(robust_scale(r + 17.3))


class TestBatchOps:
    def test_quadratic_gradient_is_residual(self):
        rng = np.random.default_rng(0)
        Theta = rng.standard_normal((6, 3))
        Y = rng.standard_normal((6, 3))
        losses = tuple(make_loss("quadratic") for _ in range(3))
        assert np.array_equal(batch_grad(losses, Theta, Y), Theta - Y)

    def test_quadratic_kernels_are_the_literal_forms(self):
        rng = np.random.default_rng(6)
        Theta, Y = rng.standard_normal((50, 3)), rng.standard_normal((50, 3))
        losses = (make_loss("quadratic"), make_loss("quadratic", scale_factor=0.3), make_loss("quadratic"))
        scale = np.array([1.0, 0.3, 1.0])
        assert np.array_equal(batch_grad(losses, Theta, Y), scale * (Theta - Y))
        assert batch_value(losses, Theta, Y) == float(np.sum(scale * (0.5 * (Theta - Y) ** 2)))
        assert np.array_equal(loss_value(losses[1], Theta[:, 1], Y[:, 1]), 0.3 * (0.5 * (Theta[:, 1] - Y[:, 1]) ** 2))

    def test_psi_losses_vanish_at_data(self):
        rng = np.random.default_rng(1)
        Y = rng.standard_normal((5, 3))
        losses = (make_loss("huber", c=1.0), make_loss("tukey", c=2.0), make_loss("hampel", a=1, b=2, c=4))
        assert np.all(batch_grad(losses, Y, Y) == 0.0)

    def test_bernoulli_at_zero(self):
        Y = np.array([[0.0, 1.0], [1.0, 0.0]])
        losses = tuple(make_loss("bernoulli") for _ in range(2))
        G = batch_grad(losses, np.zeros_like(Y), Y)
        assert np.allclose(G, 0.5 - Y, atol=1e-15)

    def test_shape_mismatch(self):
        losses = (make_loss("quadratic"),)
        with pytest.raises(ValueError):
            batch_grad(losses, np.zeros((3, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            batch_grad(losses, np.zeros((3, 1)), np.zeros((4, 1)))

    def test_batch_value_sums_columns(self):
        rng = np.random.default_rng(2)
        Theta = rng.standard_normal((8, 2))
        Y = rng.standard_normal((8, 2))
        losses = (make_loss("quadratic"), make_loss("huber", c=1.0))
        expect = float(np.sum(loss_value(losses[0], Theta[:, 0], Y[:, 0]))
                       + np.sum(loss_value(losses[1], Theta[:, 1], Y[:, 1])))
        assert batch_value(losses, Theta, Y) == pytest.approx(expect, rel=1e-14)


def _all_kinds_instance():
    """One (Theta, Y) holding every loss kind, with per-column parameters that differ."""
    rng = np.random.default_rng(7)
    n = 500

    def labels(low):
        return np.where(rng.integers(0, 2, n) == 1, 1.0, low)

    def counts(mu):
        y = rng.poisson(mu, n).astype(float)
        return ColumnLoss("poisson_reparam", {"count_total": y.sum()}, 2.0 / y.sum()), y

    columns = [
        (make_loss("quadratic"), rng.standard_normal(n)),
        (make_loss("huber", c=0.8), rng.standard_normal(n)),
        (make_loss("bernoulli"), labels(0.0)),
        (make_loss("huber", c=1.7), rng.standard_normal(n)),
        (make_loss("tukey", c=2.0), rng.standard_normal(n)),
        (make_loss("hampel", a=1.0, b=2.0, c=4.0), rng.standard_normal(n)),
        (make_loss("tukey", c=4.685), rng.standard_normal(n)),
        (make_loss("huberized_hinge", c=0.5), labels(-1.0)),
        (make_loss("lorenz"), labels(-1.0)),
        (make_loss("hampel", a=0.5, b=1.5, c=3.0), rng.standard_normal(n)),
        counts(0.2),
        (make_loss("huberized_hinge", c=2.0), labels(-1.0)),
        counts(5.0),
        (make_loss("bernoulli", scale_factor=3.0), labels(0.0)),
    ]
    losses = tuple(loss for loss, _ in columns)
    Y = np.column_stack([y for _, y in columns])
    return losses, 3.0 * rng.standard_normal(Y.shape), Y


class TestBatchParity:
    def test_batch_grad_equals_column_stack(self):
        losses, Theta, Y = _all_kinds_instance()
        assert {loss.kind for loss in losses} == set(ALL_KINDS)
        stack = np.column_stack([loss_grad(loss, Theta[:, k], Y[:, k]) for k, loss in enumerate(losses)])
        assert np.array_equal(batch_grad(losses, Theta, Y), stack)

    def test_batch_value_equals_column_sum(self):
        losses, Theta, Y = _all_kinds_instance()
        expect = sum(float(np.sum(loss_value(loss, Theta[:, k], Y[:, k]))) for k, loss in enumerate(losses))
        assert batch_value(losses, Theta, Y) == pytest.approx(expect, rel=1e-14)

    def test_buffers_give_the_fresh_results(self):
        losses, Theta, Y = _all_kinds_instance()
        for group, T, Yb in _blocks(losses, Theta, Y):
            out, work = np.full(T.shape, np.nan), np.full(T.shape, np.nan)
            assert batch_grad(group, T, Yb, out=out) is out
            assert np.array_equal(out, batch_grad(group, T, Yb))
            assert batch_value(group, T, Yb, out=out, work=work) == batch_value(group, T, Yb)

    def test_single_kind_block_equals_column_stack(self):
        losses, Theta, Y = _all_kinds_instance()
        cols = [k for k, loss in enumerate(losses) if loss.kind == "huber"]
        group = tuple(losses[k] for k in cols)
        stack = np.column_stack([loss_grad(losses[k], Theta[:, k], Y[:, k]) for k in cols])
        assert np.array_equal(batch_grad(group, Theta[:, cols], Y[:, cols]), stack)


def _bernoulli_block():
    """The entries of a random 2000 x 40 block, then +/-1e-300, 1, 40 and 800 with each label."""
    rng = np.random.default_rng(11)
    edges = np.array([1e-300, 1.0, 40.0, 800.0])
    edges = np.concatenate([edges, -edges])
    theta = np.concatenate([5.0 * rng.standard_normal(2000 * 40), edges, edges])
    y = np.concatenate([rng.integers(0, 2, 2000 * 40).astype(float), np.zeros(8), np.ones(8)])
    return theta, y


class TestBernoulliKernels:
    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="longdouble is plain double")
    def test_value_matches_long_double_reference(self):
        theta, y = _bernoulli_block()
        t, yl = theta.astype(np.longdouble), y.astype(np.longdouble)
        ref = (np.maximum(t, 0) - yl * t) + np.log1p(np.exp(-np.abs(t)))
        value = loss_value(make_loss("bernoulli"), theta, y)
        big = np.abs(ref) > 1e-250
        assert np.all(np.abs(value[big] - ref[big]) <= 4.5e-16 * np.abs(ref[big]))

    def test_no_overflow_or_invalid(self):
        theta, y = _bernoulli_block()
        loss = make_loss("bernoulli")
        with np.errstate(over="raise", invalid="raise"):
            loss_value(loss, theta, y)
            loss_grad(loss, theta, y)
            batch_value((loss,), theta[:, None], y[:, None])

    def test_gradient_is_the_tanh_form(self):
        theta, y = _bernoulli_block()
        loss = make_loss("bernoulli")
        expect = 0.5 * (1.0 + np.tanh(0.5 * theta)) - y
        assert np.array_equal(loss_grad(loss, theta, y), expect)
        assert np.array_equal(batch_grad((loss,), theta[:, None], y[:, None])[:, 0], expect)

    def test_scalars_give_python_floats(self):
        loss = make_loss("bernoulli", scale_factor=2.0)
        assert type(loss_value(loss, 0.3, 1.0)) is float
        assert type(loss_grad(loss, 0.3, 1.0)) is float


def _blocks(losses, Theta, Y):
    """The whole mixed instance, then one block per loss kind."""
    blocks = [(losses, Theta, Y)]
    for kind in ALL_KINDS:
        cols = [k for k, loss in enumerate(losses) if loss.kind == kind]
        blocks.append((tuple(losses[k] for k in cols), Theta[:, cols].copy(), Y[:, cols].copy()))
    return blocks


class TestReadOnlyInputs:
    def test_kernels_leave_read_only_inputs_unchanged(self):
        losses, Theta, Y = _all_kinds_instance()
        for group, T, Yb in _blocks(losses, Theta, Y):
            T0, Y0 = T.copy(), Yb.copy()
            T.flags.writeable = False
            Yb.flags.writeable = False
            batch_value(group, T, Yb)
            batch_grad(group, T, Yb)
            batch_value(group, T, Yb, out=np.empty(T.shape), work=np.empty(T.shape))
            batch_grad(group, T, Yb, out=np.empty(T.shape))
            for k, loss in enumerate(group):
                loss_value(loss, T[:, k], Yb[:, k])
                loss_grad(loss, T[:, k], Yb[:, k])
                if loss.kind != "poisson_reparam":
                    _scaled_kernel(_VALUE, loss, T[:, k], Yb[:, k])
            assert np.array_equal(T, T0) and np.array_equal(Yb, Y0)


class TestPoissonColumnLoss:
    def test_requires_vectors(self):
        loss = ColumnLoss("poisson_reparam", {"count_total": 6.0}, scale_factor=2.0 / 6.0)
        with pytest.raises(ValueError):
            loss_value(loss, 1.0, 1.0)

    @pytest.mark.parametrize("y, message", [
        ([-1.0, 0.5], "count loss requires nonnegative integer entries"),
        ([1.5, 0.0], "count loss requires nonnegative integer entries"),
        ([0.0, 0.0], "count column sums to zero"),
    ])
    def test_domain_checked_first(self, y, message):
        loss = ColumnLoss("poisson_reparam", {"count_total": 1.0})
        for op in (loss_value, loss_grad):
            with pytest.raises(ValueError, match=message):
                op(loss, np.zeros(2), np.array(y))

    def test_shift_invariance(self):
        loss = ColumnLoss("poisson_reparam", {"count_total": 6.0}, scale_factor=2.0 / 6.0)
        y = np.array([1.0, 2.0, 3.0])
        th = np.array([0.1, -0.4, 0.2])
        v0 = loss_value(loss, th, y)
        v1 = loss_value(loss, th + 5.0, y)
        assert v1 == pytest.approx(v0, rel=1e-12)


class TestConfigResolution:
    def test_defaults_from_mad(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(50)
        loss = loss_from_config("huber", {}, column=y)
        assert loss.params["c"] == pytest.approx(1.345 * robust_scale(y))
        loss_t = loss_from_config("tukey", {}, column=y)
        assert loss_t.params["c"] == pytest.approx(4.685 * robust_scale(y))
        loss_h = loss_from_config("hampel", {}, column=y)
        s = robust_scale(y)
        assert (loss_h.params["a"], loss_h.params["b"], loss_h.params["c"]) == \
            pytest.approx((2 * s, 4 * s, 8 * s))

    def test_absolute_cutoff_wins(self):
        loss = loss_from_config("huber", {"c": 2.5})
        assert loss.params["c"] == 2.5

    def test_mixing_mult_and_absolute_rejected(self):
        with pytest.raises(ValueError):
            loss_from_config("huber", {"c": 1.0, "c_mult": 2.0}, column=np.arange(5.0))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            loss_from_config("logistic", {})

    @pytest.mark.parametrize("call, message", [
        (lambda: make_loss("huber", scale_factor=0, c=1.0), "scale_factor must be positive"),
        (lambda: make_loss("huber", scale_factor=-1.0, c=1.0), "scale_factor must be positive"),
        (lambda: make_loss("huber", scale_factor=float("nan"), c=1.0), "scale_factor must be finite, got nan"),
        (lambda: make_loss("huber", scale_factor=float("inf"), c=1.0), "scale_factor must be finite, got inf"),
        (lambda: make_loss("poisson_reparam", count_total=0), "poisson_reparam requires a positive count_total"),
        (lambda: make_loss("lorenz", scale_factor=1e308),
         "lorenz: gradient-Lipschitz bound overflows (scale_factor 1e+308, params {})"),
        (lambda: make_loss("huberized_hinge", c=1e-320),
         "huberized_hinge: gradient-Lipschitz bound overflows (scale_factor 1, params {'c': 1e-320})"),
        (lambda: default_lipschitz("logistic"), UNKNOWN_KIND),
        (lambda: check_domain("logistic", np.zeros(3)), UNKNOWN_KIND),
        (lambda: check_params("logistic", {}), UNKNOWN_KIND),
        (lambda: make_loss("logistic"), UNKNOWN_KIND),
        (lambda: check_domain("bernoulli", np.array([0.0, 2.0])), "bernoulli loss requires labels in {0, 1}"),
        (lambda: check_domain("huberized_hinge", np.array([0.0, 1.0])),
         "huberized_hinge loss requires labels in {-1, +1}"),
        (lambda: check_domain("lorenz", np.array([-1.0, 0.5])), "lorenz loss requires labels in {-1, +1}"),
        (lambda: check_domain("poisson_reparam", np.array([1.0, 2.5])),
         "count loss requires nonnegative integer entries"),
        (lambda: check_domain("poisson_reparam", np.array([-1.0, 2.0])),
         "count loss requires nonnegative integer entries"),
        (lambda: check_domain("poisson_reparam", np.zeros(3)), "count column sums to zero"),
        (lambda: loss_from_config("poisson_reparam", {"c": 1.0}), "poisson_reparam takes no config parameters"),
        (lambda: loss_from_config("huber", {"c_mult": 2.0}), "huber: scale-relative cutoffs need column data"),
    ], ids=["zero-scale", "negative-scale", "nan-scale", "infinite-scale", "zero-count-total",
            "overflowing-scaled-bound", "overflowing-raw-bound",
            "lipschitz-of-unknown-kind", "domain-of-unknown-kind", "params-of-unknown-kind", "unknown-kind",
            "bernoulli-labels", "hinge-labels", "lorenz-labels", "fractional-count", "negative-count",
            "zero-count-column", "count-config-parameters", "mult-without-column"])
    def test_rejected_arguments_named(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            make_loss("huber", c=-1.0)
        with pytest.raises(ValueError):
            make_loss("hampel", a=5.0, b=4.0, c=8.0)
        with pytest.raises(ValueError):
            make_loss("nonsense")
