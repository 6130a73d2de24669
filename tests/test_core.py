import copy
import importlib.util
import os
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from iggl import (
    ColumnLoss,
    FitProblem,
    GGLInstance,
    PrecisionEstimate,
    batch_grad,
    choose_phi,
    estimate_intercepts,
    first_iteration_s,
    fit,
    ggl_objective,
    kkt_residual,
    lambda_grid,
    log_det_pd,
    loss_value,
    make_loss,
    outer_objective,
    poisson_preprocess,
    sample_glm,
    solve_ggl,
    theta_update,
    xi_update,
)
import iggl.core
import iggl.select
from iggl.core import IterState, _prepare, cross_product, outer_step, spectral_norm
from iggl.losses import _VALUE, _scaled_kernel, check_domain, robust_scale

from helpers import ALL_KINDS, assert_fit_equals_reference, count_calls, loss_map_for, reference_fit, synth_data


def quad_map(m):
    return tuple(make_loss("quadratic") for _ in range(m))


class TestChoosePhi:
    def test_identity(self):
        assert choose_phi(np.eye(3), 1e-3) == pytest.approx(1e-3, rel=1e-7)

    def test_diagonal(self):
        assert choose_phi(np.diag([4.0, 1.0]), 1e-3) == pytest.approx(2.5e-4, rel=1e-7)

    def test_scaled_identity(self):
        assert choose_phi(2.0 * np.eye(3), 0.5) == pytest.approx(0.25, rel=1e-7)

    def test_rejects_bad_c(self):
        with pytest.raises(ValueError, match=r"^phi_c must lie in \(0, 1\)$"):
            choose_phi(np.eye(2), 1.5)

    @pytest.mark.parametrize("M", [None, np.zeros((3, 2))], ids=["intercepts", "bad-M-shape"])
    def test_phi_c_checked_before_the_intercept_search(self, monkeypatch, M):
        # also ahead of the M shape error
        calls = []
        monkeypatch.setattr(iggl.core, "estimate_intercepts", lambda *a: calls.append(a))
        Y = np.random.default_rng(0).standard_normal((20, 2))
        with pytest.raises(ValueError, match=r"^phi_c must lie in \(0, 1\)$"):
            fit(FitProblem(Y=Y, losses=quad_map(2), lam=0.1, M=M, phi_c=1.5))
        assert calls == []

    def test_spectral_norm_is_exact(self):
        # top eigenvector (1, -1)/sqrt(2) is orthogonal to the ones vector
        W = np.array([[1.0, -0.5], [-0.5, 1.0]])
        assert spectral_norm(W) == pytest.approx(1.5, rel=1e-15)
        # clustered top eigenvalues, the shape of diag(1/var) for 0/1 columns
        W0 = np.diag(np.linspace(0.99, 1.0, 40))
        assert spectral_norm(W0) == 1.0
        # the norm of an indefinite matrix comes from its most negative eigenvalue
        assert spectral_norm(np.diag([-2.0, 1.0])) == 2.0

    def test_phi_meets_its_budget_exactly(self):
        W0 = np.diag(np.linspace(0.99, 1.0, 40))
        c = 1e-3
        assert choose_phi(W0, c) * np.linalg.eigvalsh(W0)[-1] == pytest.approx(c, rel=1e-15)


class TestXiUpdate:
    def test_quadratic_returns_data(self):
        rng = np.random.default_rng(0)
        Y = rng.standard_normal((20, 4))
        Theta = Y + 1e-4 * rng.standard_normal((20, 4))
        Xi = xi_update(Theta, Y, quad_map(4))
        assert np.array_equal(Xi, Y)

    def test_unit_quadratic_column_of_a_mixed_problem_is_its_data(self):
        # far from Y, Theta - (Theta - Y) rounds away from Y; the step writes Y's column instead
        rng = np.random.default_rng(2)
        Yb = synth_data("bernoulli", 2, 60, seed=2)
        Y = np.column_stack([5.0 * rng.standard_normal(60), Yb[:, 0], 5.0 * rng.standard_normal(60), Yb[:, 1]])
        losses = tuple(make_loss(kind) for kind in ("quadratic", "bernoulli", "quadratic", "bernoulli"))
        p = _prepare(FitProblem(Y=Y, losses=losses, lam=0.1))
        assert p.S is None
        Theta = Y + 1e3 * rng.standard_normal(Y.shape)
        Xi = xi_update(Theta, p.Y, p.losses)
        quad, bern = [0, 2], [1, 3]
        assert not np.array_equal(Theta[:, quad] - (Theta[:, quad] - Y[:, quad]), Y[:, quad])
        assert np.array_equal(Xi[:, quad], Y[:, quad])
        G = batch_grad(p.losses[1::2], Theta[:, bern], Y[:, bern])
        assert np.array_equal(Xi[:, bern], Theta[:, bern] - G)

    def test_scaled_quadratic_column_still_moves_with_theta(self):
        # scale 0.5 keeps its bound of 0.5, so its step is not exact; scale 2 is divided down to 1, so it is
        rng = np.random.default_rng(3)
        Y = rng.standard_normal((30, 3))
        losses = tuple(make_loss("quadratic", scale_factor=c) for c in (0.5, 1.0, 2.0))
        p = _prepare(FitProblem(Y=Y, losses=losses, lam=0.1))
        assert [loss.scale_factor for loss in p.losses] == [0.5, 1.0, 1.0]
        assert p.S is None
        Theta = Y + 1e3 * rng.standard_normal(Y.shape)
        Xi = xi_update(Theta, p.Y, p.losses)
        assert np.array_equal(Xi[:, 0], Theta[:, 0] - 0.5 * (Theta[:, 0] - Y[:, 0]))
        assert np.all(Xi[:, 0] != Y[:, 0])
        assert np.array_equal(Xi[:, 1:], Y[:, 1:])

    def test_zero_gradient_fixed_point(self):
        rng = np.random.default_rng(1)
        Y = rng.standard_normal((10, 2))
        losses = (make_loss("huber", c=1.0), make_loss("tukey", c=2.0))
        assert np.array_equal(xi_update(Y, Y, losses), Y)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_out_array_matches_fresh_result(self, kind):
        Y = synth_data(kind, 3, 40, seed=31)
        p = _prepare(FitProblem(Y=Y, losses=loss_map_for(kind, Y), lam=0.1))
        Theta = p.Y + np.random.default_rng(1).standard_normal(Y.shape)
        Theta0 = Theta.copy()
        out = np.full(Y.shape, np.nan)
        assert xi_update(Theta, p.Y, p.losses, out=out) is out
        assert np.array_equal(out, xi_update(Theta, p.Y, p.losses))
        assert np.array_equal(Theta, Theta0)
        assert np.array_equal(cross_product(out, p.M, out=np.empty(Y.shape)), cross_product(out, p.M))

    def test_bernoulli_at_zero(self):
        Y = np.array([[0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        losses = (make_loss("bernoulli"), make_loss("bernoulli"))
        Xi = xi_update(np.zeros_like(Y), Y, losses)
        assert np.allclose(Xi, Y - 0.5, atol=1e-15)


class TestThetaUpdate:
    def test_zero_phi_limit(self):
        rng = np.random.default_rng(2)
        Xi = rng.standard_normal((6, 3))
        M = rng.standard_normal((6, 3))
        W = np.eye(3)
        out = theta_update(Xi, Xi - M, W, 1e-12)
        assert np.allclose(out, Xi, atol=1e-10)

    def test_mean_fixed_point(self):
        rng = np.random.default_rng(3)
        Xi = rng.standard_normal((5, 2))
        W = np.array([[1.0, 0.2], [0.2, 1.0]])
        out = theta_update(Xi, Xi - Xi, W, 0.3)
        assert np.allclose(out, Xi, atol=1e-15)

    def test_half_blend(self):
        Xi = np.zeros((4, 2))
        M = np.ones((4, 2))
        out = theta_update(Xi, Xi - M, np.eye(2), 0.5)
        assert np.allclose(out, 0.5 * M, atol=1e-15)

    def test_out_array_matches_fresh_result(self):
        rng = np.random.default_rng(2)
        Xi, M = rng.standard_normal((30, 4)), rng.standard_normal((30, 4))
        W = np.eye(4) + 0.1 * np.ones((4, 4))
        E = Xi - M
        Xi0, E0, out = Xi.copy(), E.copy(), np.empty((30, 4))
        assert theta_update(Xi, E, W, 0.5, out=out) is out
        assert np.array_equal(out, theta_update(Xi, E, W, 0.5))
        # the same bits as the blend written with M - Xi
        assert np.array_equal(out, Xi + 0.5 * ((M - Xi) @ W))
        assert np.array_equal(Xi, Xi0) and np.array_equal(E, E0)
        # an infeasible W raises before anything is written
        out[:] = 7.0
        with pytest.raises(ValueError, match="feasibility"):
            theta_update(Xi, E, 3.0 * W, 0.5, out=out)
        assert np.all(out == 7.0)

    def test_feasibility_contract(self):
        with pytest.raises(ValueError):
            theta_update(np.zeros((3, 2)), -np.ones((3, 2)), 2.0 * np.eye(2), 0.9)

    def test_feasibility_check_is_exact(self):
        # I - phi W >= 0, not a norm bound: this W has Frobenius norm 4.8 but
        # spectral norm 1, so phi = 1 is feasible and phi = 1 + 1e-9 is not
        Xi, E = np.zeros((3, 40)), -np.ones((3, 40))
        W = np.diag(np.linspace(0.5, 1.0, 40))
        theta_update(Xi, E, W, 1.0)
        with pytest.raises(ValueError, match="feasibility"):
            theta_update(Xi, E, W, 1.0 + 1e-9)
        rng = np.random.default_rng(6)
        Q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        W = (Q * np.linspace(0.1, 2.0, 40)) @ Q.T
        W = 0.5 * (W + W.T)
        theta_update(Xi, E, W, 0.5 * (1.0 - 1e-9))
        with pytest.raises(ValueError, match="feasibility"):
            theta_update(Xi, E, W, 0.5 * (1.0 + 1e-9))


def estimate_at(S, W, lam, penalize_diagonal=False):
    """A :class:`PrecisionEstimate` of W on S whose objective is the inner one, as ``solve_ggl`` would return."""
    return PrecisionEstimate(W, ggl_objective(S, W, lam, penalize_diagonal), 0.0, 0, True, np.linalg.inv(W),
                             log_det_pd(W))


class TestOuterObjective:
    def test_vanishing_trace_terms(self):
        rng = np.random.default_rng(4)
        Y = rng.standard_normal((12, 3))
        W = np.eye(3) * 1.7
        lam = 0.3
        n = Y.shape[0]
        S = (Y - Y).T @ (Y - Y) / n  # Xi = M = Y
        val = outer_objective(S, Y, estimate_at(S, W, lam), 0.01, Y, quad_map(3))
        expect = -0.5 * n * log_det_pd(W)  # off-diagonal penalty is zero for diagonal W
        assert val == pytest.approx(expect, rel=1e-12)

    def test_penalty_term_scales(self):
        rng = np.random.default_rng(5)
        Y = rng.standard_normal((9, 2))
        W = np.array([[1.0, 0.25], [0.25, 1.0]])
        n = Y.shape[0]
        S = (Y - Y).T @ (Y - Y) / n  # Xi = M = Y
        base = outer_objective(S, Y, estimate_at(S, W, 0.0), 0.01, Y, quad_map(2))
        pen = outer_objective(S, Y, estimate_at(S, W, 1.0), 0.01, Y, quad_map(2))
        assert pen - base == pytest.approx(0.5 * n * 2 * 0.25, rel=1e-12)
        diag = outer_objective(S, Y, estimate_at(S, W, 1.0, penalize_diagonal=True), 0.01, Y, quad_map(2))
        assert diag - pen == pytest.approx(0.5 * n * 2 * 1.0, rel=1e-12)

    def test_takes_the_inner_objective_and_factors_nothing(self, monkeypatch):
        rng = np.random.default_rng(6)
        Y = rng.standard_normal((9, 2))
        S = Y.T @ Y / 9
        est = solve_ggl(GGLInstance(S, 0.2))
        counts = count_calls(monkeypatch, np.linalg, "cholesky", "inv", "slogdet", "det", "eigvalsh")
        F = outer_objective(S, Y, est, 0.01, Y, quad_map(2))
        shifted = outer_objective(S, Y, replace(est, objective=est.objective + 1.0), 0.01, Y, quad_map(2))
        assert counts == dict.fromkeys(counts, 0)
        assert shifted == pytest.approx(F + 0.5 * 9, rel=1e-12)


class TestShiftEliminationIdentity:
    def test_literal_vs_reduced_objective(self):
        # the eliminated-shift evaluation must match the direct quadratic form
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(20):
            n, m = int(rng.integers(5, 30)), int(rng.integers(2, 8))
            Y = rng.standard_normal((n, m))
            M = rng.standard_normal((n, m))
            A = rng.standard_normal((m, m))
            W = A @ A.T / m + 0.3 * np.eye(m)
            phi = float(rng.uniform(0.05, 0.95)) / float(np.linalg.eigvalsh(W)[-1])
            lam = float(rng.uniform(0.0, 0.5))
            vals, vecs = np.linalg.eigh(np.eye(m) - phi * W)
            root = (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.T
            C_hat = (Y - M) @ root
            pen = lam * (np.sum(np.abs(W)) - np.sum(np.abs(np.diag(W))))
            resid = Y - M - C_hat @ root
            f1 = (np.sum(resid ** 2) / (2.0 * phi) + 0.5 * np.sum((C_hat @ W) * C_hat)
                  - 0.5 * n * log_det_pd(W) + 0.5 * n * pen)
            E = Y - M
            f2 = 0.5 * np.sum((E @ W) * E) - 0.5 * n * log_det_pd(W) + 0.5 * n * pen
            worst = max(worst, abs(f1 - f2) / abs(f2))
        assert worst <= 1e-8

    def test_outer_objective_matches_literal_form(self):
        # with quadratic losses and Theta consistent with (Xi, W, phi), the
        # C-free evaluation equals the criterion evaluated at the explicit shift
        rng = np.random.default_rng(43)
        n, m = 15, 4
        Y = rng.standard_normal((n, m))
        M = rng.standard_normal((n, m))
        Xi = rng.standard_normal((n, m))
        A = rng.standard_normal((m, m))
        W = A @ A.T / m + 0.4 * np.eye(m)
        phi = 0.5 / float(np.linalg.eigvalsh(W)[-1])
        lam = 0.2
        Theta = theta_update(Xi, Xi - M, W, phi)
        S = (Xi - M).T @ (Xi - M) / n
        got = outer_objective(S, Theta, estimate_at(S, W, lam), phi, Y, quad_map(m))
        vals, vecs = np.linalg.eigh(np.eye(m) - phi * W)
        root = (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.T
        C = (Xi - M) @ root
        loss_term = 0.5 * np.sum((M + C @ root - Y) ** 2) / phi
        pen = lam * (np.sum(np.abs(W)) - np.sum(np.abs(np.diag(W))))
        literal = loss_term + 0.5 * np.sum((C @ W) * C) - 0.5 * n * log_det_pd(W) + 0.5 * n * pen
        assert got == pytest.approx(literal, rel=1e-10)


class TestIntercepts:
    def test_quadratic_mean(self):
        Y = np.array([[1.0, 5.0], [3.0, 7.0]])
        alpha = estimate_intercepts(Y, quad_map(2))
        assert np.allclose(alpha, [2.0, 6.0])

    def test_quadratic_means_match_per_column_means(self):
        rng = np.random.default_rng(3)
        for n, m in ((2, 2), (7, 3), (1000, 60), (333, 5)):
            Y = 10.0 * rng.standard_normal((n, m)) + rng.standard_normal(m)
            for data in (Y, np.asfortranarray(Y)):
                alpha = estimate_intercepts(data, quad_map(m))
                assert np.array_equal(alpha, [np.mean(data[:, k]) for k in range(m)])

    def test_prepared_mean_is_one_broadcast_row(self):
        # intercept mode keeps m floats viewed as n x m, with count columns at zero;
        # a mean matrix given by the caller is used as it is
        counts = synth_data("poisson_reparam", 2, 50, seed=3)[:, :1]
        Y = np.column_stack([synth_data("quadratic", 2, 50, seed=3), counts])
        prob = FitProblem(Y=Y, losses=quad_map(2) + (ColumnLoss("poisson_reparam", {}),), lam=0.1)
        p = _prepare(prob)
        assert p.M.shape == Y.shape and p.M.strides == (0, p.M.itemsize)
        assert not p.M.flags.writeable
        assert np.array_equal(p.M, np.tile([p.intercepts[0], p.intercepts[1], 0.0], (50, 1)))
        M = np.ones_like(Y)
        assert _prepare(replace(prob, M=M)).M is M

    def test_bernoulli_balanced(self):
        Y = np.column_stack([np.array([0.0, 1.0, 0.0, 1.0]), np.array([1.0, 1.0, 0.0, 0.0])])
        losses = (make_loss("bernoulli"), make_loss("bernoulli"))
        alpha = estimate_intercepts(Y, losses)
        assert np.array_equal(alpha, [0.0, 0.0])

    def test_bernoulli_logit_of_mean(self):
        Y = synth_data("bernoulli", 4, 300, seed=5)
        losses = tuple(make_loss("bernoulli") for _ in range(4))
        alpha = estimate_intercepts(Y, losses)
        ybar = np.mean(Y, axis=0)
        assert np.array_equal(alpha, np.log(ybar) - np.log1p(-ybar))
        for k, loss in enumerate(losses):
            y = Y[:, k]
            searched = iggl.core._golden_section(
                lambda a: float(np.sum(_scaled_kernel(_VALUE, loss, a, y))), -20.0, 20.0)
            assert abs(alpha[k] - searched) <= 1e-7

    def test_huber_center_of_symmetry(self):
        y = np.array([-2.0, -1.0, 1.0, 2.0]) + 3.5
        Y = np.column_stack([y, y])
        losses = (make_loss("huber", c=1.0), make_loss("huber", c=1.0))
        alpha = estimate_intercepts(Y, losses)
        assert np.allclose(alpha, 3.5, atol=1e-8)

    def test_separable_column_warns_and_clips(self):
        Y = np.column_stack([np.ones(6), np.zeros(6)])
        losses = (make_loss("bernoulli"), make_loss("bernoulli"))
        with pytest.warns(UserWarning, match="clipped"):
            alpha = estimate_intercepts(Y, losses)
        assert alpha[0] == pytest.approx(20.0, abs=1e-6)
        assert alpha[1] == pytest.approx(-20.0, abs=1e-6)

    def test_kernel_search_matches_loss_value_search(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return loss_value(*args)

        def first_search(y, loss):
            # the search as first written: a full column through loss_value at every step, a search
            # call per bracket kind, and its own exit for a zero-width bracket
            def column_loss(a):
                return float(np.sum(loss_value(loss, np.full_like(y, a), y)))

            if loss.kind in ("bernoulli", "huberized_hinge", "lorenz"):
                try:
                    sigma = robust_scale(y)
                except ValueError:
                    sigma = 0.0
                bound = 20.0 * max(sigma, 1.0)
                return iggl.core._golden_section(column_loss, -bound, bound)
            lo, hi = float(np.min(y)), float(np.max(y))
            if hi - lo <= 0:
                return lo
            return iggl.core._golden_section(column_loss, lo, hi)

        searched = ("huber", "tukey", "hampel", "huberized_hinge", "lorenz")
        for seed, kind in enumerate(ALL_KINDS):
            Y = synth_data(kind, 3, 60, seed=30 + seed)
            losses = loss_map_for(kind, Y)
            with monkeypatch.context() as mp:
                mp.setattr(iggl.core, "loss_value", counted)
                alpha = estimate_intercepts(Y, losses)
            with monkeypatch.context() as mp:
                # the same golden-section search, each step through loss_value
                mp.setattr(iggl.core, "_scaled_kernel", lambda op, loss, theta, y: loss_value(loss, theta, y))
                ref = estimate_intercepts(Y, losses)
            assert np.array_equal(alpha, ref), kind
            if kind in searched:
                assert np.array_equal(alpha, [first_search(Y[:, k], l) for k, l in enumerate(losses)]), kind
        # constant columns, which only a direct call can pass (fit rejects zero variance), and
        # one-label Bernoulli columns, which the search clips
        Y = np.column_stack([np.full(20, 2.5), np.full(20, -1.0), np.full(20, 0.25), np.ones(20), np.zeros(20)])
        losses = (make_loss("huber", c=1.0), make_loss("tukey", c=2.0), make_loss("hampel", a=1.0, b=2.0, c=3.0),
                  make_loss("bernoulli"), make_loss("bernoulli"))
        with pytest.warns(UserWarning, match="clipped"), monkeypatch.context() as mp:
            mp.setattr(iggl.core, "loss_value", counted)
            alpha = estimate_intercepts(Y, losses)
        assert np.array_equal(alpha, [first_search(Y[:, k], l) for k, l in enumerate(losses)])
        assert np.array_equal(alpha[:3], [2.5, -1.0, 0.25])
        # the domain is checked once per fit, not once per search step
        assert calls == []

    def test_one_loss_per_column_required(self):
        with pytest.raises(ValueError, match="^expected one loss per column$"):
            estimate_intercepts(np.ones((3, 2)), quad_map(1))

    def test_count_column_uses_log_total(self):
        Y = np.column_stack([np.array([1.0, 2.0, 3.0]), np.ones(3)])
        losses = (ColumnLoss("poisson_reparam", {"count_total": 6.0}, 2.0 / 6.0), make_loss("quadratic"))
        alpha = estimate_intercepts(Y, losses)
        assert alpha[0] == pytest.approx(np.log(6.0))


class TestPoissonPreprocess:
    def test_intercept_and_scale(self):
        Y = np.column_stack([np.array([1.0, 2.0, 3.0]), np.zeros(3)])
        losses = poisson_preprocess(Y, [0])
        assert estimate_intercepts(Y[:, :1], (losses[0],))[0] == pytest.approx(np.log(6.0))
        assert losses[0].params["count_total"] == 6.0
        assert losses[0].scale_factor == pytest.approx(2.0 / 6.0)
        assert losses[0].lipschitz == 1.0

    def test_uniform_softmax_gradient(self):
        y = np.array([1.0, 2.0, 3.0])
        Y = y[:, None]
        losses = poisson_preprocess(Y, [0])
        from iggl import loss_grad

        g = loss_grad(losses[0], np.zeros(3), y)
        ck = 6.0
        assert np.allclose(g, (2.0 / ck) * (-y + ck / 3.0), atol=1e-12)

    # fit checks every column once, before poisson_preprocess, which assumes checked columns
    @staticmethod
    def fit_count_column(y):
        Y = np.column_stack([y, np.arange(len(y), dtype=float)])
        return fit(FitProblem(Y=Y, losses=(ColumnLoss("poisson_reparam", {}), make_loss("quadratic")), lam=0.1))

    def test_zero_column_rejected(self):
        with pytest.raises(ValueError, match="^column 0: count column sums to zero"):
            self.fit_count_column(np.zeros(4))

    def test_fractional_rejected(self):
        with pytest.raises(ValueError, match="^column 0: .*integer"):
            self.fit_count_column(np.array([0.5, 1.0]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="^column 0: .*integer"):
            self.fit_count_column(np.array([-1.0, 1.0]))

    def test_gradient_matches_finite_differences(self):
        from iggl import loss_grad, loss_value

        rng = np.random.default_rng(14)
        worst = 0.0
        for _ in range(30):
            n = int(rng.integers(4, 20))
            y = rng.poisson(2.0, n).astype(float)
            if y.sum() == 0:
                y[0] = 1.0
            loss = poisson_preprocess(y[:, None], [0])[0]
            th = rng.standard_normal(n)
            g = loss_grad(loss, th, y)
            h = 1e-6
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                fd = (loss_value(loss, th + e, y) - loss_value(loss, th - e, y)) / (2 * h)
                worst = max(worst, abs(g[i] - fd) / (1.0 + abs(g[i])))
        assert worst <= 1e-5

    def test_hessian_curvature_bound(self):
        rng = np.random.default_rng(15)
        worst = 0.0
        for _ in range(30):
            n = int(rng.integers(4, 40))
            y = rng.poisson(3.0, n).astype(float)
            if y.sum() == 0:
                y[0] = 1.0
            losses = poisson_preprocess(y[:, None], [0])
            th = rng.standard_normal(n)
            p = np.exp(th - th.max())
            p /= p.sum()
            H = losses[0].scale_factor * losses[0].params["count_total"] * (np.diag(p) - np.outer(p, p))
            worst = max(worst, float(np.linalg.eigvalsh(H)[-1]))
        assert worst <= 1.0 + 1e-8


class TestFit:
    def test_quadratic_degenerates_to_single_solve(self):
        Y = synth_data("quadratic", 6, 80, seed=5)
        M = np.zeros_like(Y)
        prob = FitProblem(Y=Y, losses=quad_map(6), lam=0.1, M=M)
        res = fit(prob)
        assert res.state.k == 2
        assert res.state.inner_iterations[1] == 0
        n = Y.shape[0]
        S = (Y - M).T @ (Y - M) / n
        S = 0.5 * (S + S.T)
        W0 = np.diag(1.0 / np.var(Y, axis=0, ddof=1))
        ref = solve_ggl(GGLInstance(S, 0.1), W_init=W0)
        assert np.max(np.abs(res.estimate.W - ref.W)) <= 1e-10

    def test_large_penalty_diagonal(self):
        Y = synth_data("quadratic", 5, 60, seed=6)
        prob = FitProblem(Y=Y, losses=quad_map(5), lam=0.0)
        lam_max = float(lambda_grid(first_iteration_s(prob), n_points=1)[0])
        res = fit(FitProblem(Y=Y, losses=quad_map(5), lam=1.1 * lam_max))
        W = res.estimate.W
        off = W - np.diag(np.diag(W))
        assert np.max(np.abs(off)) == 0.0

    def test_feasibility_always_holds(self):
        Y = synth_data("bernoulli", 4, 60, seed=7)
        res = fit(FitProblem(Y=Y, losses=loss_map_for("bernoulli", Y), lam=0.05, max_outer=30))
        assert res.phi * spectral_norm(res.estimate.W) <= 1.0

    def test_no_spectral_norm_in_a_fit(self, monkeypatch):
        # phi comes from W0's largest entry, and W_init and every iterate are
        # checked by the Cholesky test of theta_update
        calls = []
        norm = iggl.core.spectral_norm
        monkeypatch.setattr(iggl.core, "spectral_norm", lambda W: calls.append(1) or norm(W))
        Y = synth_data("bernoulli", 4, 60, seed=7)
        losses = loss_map_for("bernoulli", Y)
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        cold = fit(FitProblem(Y=Y, losses=losses, lam=0.05, max_outer=30))
        warm = fit(FitProblem(Y=Y, losses=losses, lam=0.04, max_outer=30), W_init=cold.estimate.W)
        assert cold.state.k > 1 and warm.state.k > 1
        assert len(calls) == 0

    def test_feasibility_violation_raises(self):
        # nearly collinear unit-variance columns make the unpenalized
        # precision explode past the fixed feasibility budget
        rng = np.random.default_rng(8)
        base = rng.standard_normal(40)
        Y = np.column_stack([base, base + 1e-4 * rng.standard_normal(40)])
        Y /= Y.std(axis=0, ddof=1)
        with pytest.raises(RuntimeError, match="feasibility"):
            fit(FitProblem(Y=Y, losses=quad_map(2), lam=0.0, phi_c=0.9))

    def test_zero_variance_rejected(self):
        Y = np.column_stack([np.ones(10), np.arange(10.0)])
        with pytest.raises(ValueError, match="variance"):
            fit(FitProblem(Y=Y, losses=quad_map(2), lam=0.1))

    @pytest.mark.parametrize("change, message", [
        ({"Y": np.arange(20.0)}, r"^Y must be a 2-d array$"),
        ({"Y": np.ones((1, 3))}, r"^need at least 2 rows and 2 columns$"),
        ({"Y": np.ones((20, 1))}, r"^need at least 2 rows and 2 columns$"),
        ({"max_outer": 0}, r"^max_outer must be at least 1$"),
        ({"losses": quad_map(2)}, r"^expected 3 losses, got 2$"),
        ({"M": np.zeros((20, 2))}, r"^M must match Y's shape$"),
    ], ids=["1-d", "one-row", "one-column", "no-outer-step", "too-few-losses", "M-shape"])
    def test_malformed_problem_rejected(self, change, message):
        prob = replace(FitProblem(Y=synth_data("quadratic", 3, 20, seed=5), losses=quad_map(3), lam=0.1), **change)
        with pytest.raises(ValueError, match=message):
            fit(prob)

    @pytest.mark.parametrize("scale, column", [((1e200,) * 3, 0), ((1e200, 1.0, 1.0), 0), ((1.0, 1.0, 1e155), 2)],
                             ids=["every-column", "first-column", "just-past-the-float-range"])
    @pytest.mark.parametrize("call", [fit, first_iteration_s])
    def test_overflowing_variance_names_its_column(self, scale, column, call):
        # an infinite variance would make W0 zero and phi a division by zero; the column is named before numpy warns
        Y = synth_data("quadratic", 3, 50, seed=5) * np.array(scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^column {column}: sample variance overflows; rescale it$"):
                call(FitProblem(Y=Y, losses=quad_map(3), lam=0.1))

    def test_constant_labels_rejected_before_the_intercept_search(self):
        # the search on a constant Bernoulli column runs to its clipped range and warns
        Y = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^column 0 has \(near-\)zero variance$"):
                fit(FitProblem(Y=Y, losses=(make_loss("bernoulli"),) * 2, lam=0.1))

    def test_nonfinite_rejected(self):
        Y = np.ones((5, 2))
        Y[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            fit(FitProblem(Y=Y, losses=quad_map(2), lam=0.1))

    def test_bernoulli_sign_matches_fixed_point_relation(self):
        # latent positive correlation: the precision off-diagonal must come
        # out negative, in agreement with the stationarity relation solved
        # by brute force from the fitted quantities
        W_star = np.array([[1.0, -0.45], [-0.45, 1.0]])
        Y = sample_glm(3000, W_star, "bernoulli", seed=11)
        losses = (make_loss("bernoulli"), make_loss("bernoulli"))
        res = fit(FitProblem(Y=Y, losses=losses, lam=0.0, max_outer=400, outer_tol=1e-10))
        W_hat = res.estimate.W
        alpha = res.intercepts
        M = res.M
        n = Y.shape[0]

        def bern_curv(a):
            s = 1.0 / (1.0 + np.exp(-a))
            return s * (1.0 - s)

        D = np.diag([bern_curv(alpha[0]), bern_curv(alpha[1])])
        G_M = batch_grad(losses, M, Y)
        G_T = batch_grad(losses, res.state.Theta, Y)
        delta = G_T - G_M - (res.state.Theta - M) @ D
        Sig_n = (G_M + delta).T @ (G_M + delta) / n
        W_relation = D @ np.linalg.inv(Sig_n) @ D
        assert np.sign(W_hat[0, 1]) == np.sign(W_relation[0, 1])
        assert W_hat[0, 1] < 0
        # the full fixed-point relation holds to the outer tolerance scale
        B = D + res.phi * W_hat @ (np.eye(2) - D)
        rhs = B @ np.linalg.inv(W_hat) @ B
        assert np.max(np.abs(Sig_n - rhs)) / np.max(np.abs(Sig_n)) <= 0.05

    def test_poisson_end_to_end(self):
        Y = synth_data("poisson_reparam", 4, 100, seed=9)
        losses = loss_map_for("poisson_reparam", Y)
        res = fit(FitProblem(Y=Y, losses=losses, lam=0.02, max_outer=80))
        assert res.intercepts is not None
        np.testing.assert_allclose(res.intercepts, np.log(Y.sum(axis=0)))
        assert np.allclose(res.M, 0.0)
        log_det_pd(res.estimate.W)  # positive definite

    def test_descent_with_mixed_map(self):
        rng = np.random.default_rng(10)
        Y = np.column_stack([
            synth_data("quadratic", 2, 90, seed=1)[:, 0],
            synth_data("bernoulli", 2, 90, seed=2)[:, 0],
            synth_data("lorenz", 2, 90, seed=3)[:, 0],
            synth_data("poisson_reparam", 2, 90, seed=4)[:, 0],
        ])
        losses = (
            make_loss("quadratic"),
            make_loss("bernoulli"),
            make_loss("lorenz"),
            ColumnLoss("poisson_reparam", {}),
        )
        res = fit(FitProblem(Y=Y, losses=losses, lam=0.05, max_outer=40, outer_tol=0.0))
        F = np.asarray(res.state.F_trace)
        assert np.all(np.diff(F) <= 1e-9 * (1.0 + np.abs(F[:-1])))

    def test_domain_checked_once_per_column(self, monkeypatch):
        calls = []
        monkeypatch.setattr(iggl.core, "check_domain", lambda kind, y: calls.append(kind) or check_domain(kind, y))
        Y = synth_data("poisson_reparam", 4, 100, seed=9)
        fit(FitProblem(Y=Y, losses=loss_map_for("poisson_reparam", Y), lam=0.02, max_outer=5))
        assert calls == ["poisson_reparam"] * 4

    def test_hand_built_loss_gets_the_certified_bound(self):
        # the bound is derived, so a loss built without make_loss fits exactly as its make_loss twin
        Y = synth_data("lorenz", 6, 300, seed=0)
        prob = FitProblem(Y=Y, losses=(), lam=0.05, outer_tol=0.0, max_outer=20)
        for hand, twin in ((ColumnLoss("lorenz", {}), make_loss("lorenz")),
                           (ColumnLoss("huberized_hinge", {"c": 0.1}), make_loss("huberized_hinge", c=0.1))):
            a, b = (fit(replace(prob, losses=(loss,) * 6)) for loss in (hand, twin))
            assert np.array_equal(a.estimate.W, b.estimate.W) and np.array_equal(a.state.Theta, b.state.Theta)
            assert a.state.F_trace == b.state.F_trace
            scales = [[(l.scale_factor, l.lipschitz) for l in res.losses] for res in (a, b)]
            assert scales[0] == scales[1]

    def test_result_losses_accepted_back(self):
        # a result's own losses are accepted back unchanged, rescaled to bound 1.0
        Y = synth_data("lorenz", 6, 300, seed=0)
        prob = FitProblem(Y=Y, losses=(), lam=0.05, outer_tol=0.0, max_outer=20)
        for good in (make_loss("lorenz"), make_loss("huberized_hinge", scale_factor=0.72, c=0.13)):
            res = fit(replace(prob, losses=(good,) * 6))
            assert res.losses[0].lipschitz == 1.0
            again = fit(replace(prob, losses=res.losses))
            assert all(a is b for a, b in zip(again.losses, res.losses))

    @pytest.mark.parametrize("bad, message", [
        (ColumnLoss("huber", {}), "huber requires a positive cutoff c"),
        (ColumnLoss("huber", {"c": -1.0}), "huber requires a positive cutoff c"),
        (ColumnLoss("tukey", {"c": 0.0}), "tukey requires a positive cutoff c"),
        (ColumnLoss("huber", {"c": 1.0, "d": 2.0}), r"huber: unknown parameters \['d'\]"),
    ])
    def test_hand_built_loss_parameters_checked(self, bad, message):
        Y = synth_data("quadratic", 2, 20, seed=4)
        with pytest.raises(ValueError, match=f"^column 1: {message}"):
            fit(FitProblem(Y=Y, losses=(make_loss("quadratic"), bad), lam=0.1))

    @pytest.mark.parametrize("scale, message", [
        (-1.0, "scale_factor must be positive"),
        (0.0, "scale_factor must be positive"),
        (float("nan"), "scale_factor must be finite, got nan"),
        (float("inf"), "scale_factor must be finite, got inf"),
    ])
    def test_hand_built_scale_factor_checked(self, scale, message):
        # a scale of -1 or 0 used to fit to the max_outer cap, a NaN or infinite one to fail later on S
        Y = np.random.default_rng(5).standard_normal((50, 3))
        bad = ColumnLoss("huber", {"c": 1.0}, scale_factor=scale)
        with pytest.raises(ValueError, match=f"^column 2: {message}$"):
            fit(FitProblem(Y=Y, losses=(make_loss("huber", c=1.0),) * 2 + (bad,), lam=0.1))

    @pytest.mark.parametrize("entry", [fit, first_iteration_s], ids=["fit", "first_iteration_s"])
    def test_infinite_bound_rejected(self, entry):
        # dividing the scale by an infinite bound would give the column scale 0.0: the fit would run without it
        Y = np.random.default_rng(5).standard_normal((50, 3))
        Y[:, 2] = np.where(Y[:, 2] > 0, 1.0, -1.0)
        bad = ColumnLoss("lorenz", {}, 1e308)  # bound 2e308 overflows
        with pytest.raises(ValueError, match=r"^column 2: lorenz: gradient-Lipschitz bound overflows "
                                             r"\(scale_factor 1e\+308, params \{\}\)$"):
            entry(FitProblem(Y=Y, losses=(make_loss("huber", c=1.0),) * 2 + (bad,), lam=0.1))

    def test_states_compare_by_identity(self):
        # the dataclass default compared the S arrays inside a tuple, which raised for distinct states
        Y = np.random.default_rng(5).standard_normal((50, 3))
        prob = FitProblem(Y=Y, losses=(make_loss("huber", c=1.0),) * 3, lam=0.1)
        a, b = fit(prob).state, fit(prob).state
        assert np.array_equal(a.S, b.S) and a != b and not a == b and a == a

    def test_out_of_domain_label_names_column(self):
        Y = synth_data("bernoulli", 3, 30, seed=16)
        Y[4, 1] = 2.0
        with pytest.raises(ValueError, match="column 1: bernoulli loss requires labels"):
            fit(FitProblem(Y=Y, losses=loss_map_for("bernoulli", Y), lam=0.1))

    def test_warm_start_feasibility_check(self):
        Y = synth_data("quadratic", 3, 50, seed=12)
        prob = FitProblem(Y=Y, losses=quad_map(3), lam=0.1)
        res = fit(prob)
        phi = res.phi
        bad = (1.5 / phi) * np.eye(3)
        with pytest.raises(ValueError, match="feasibility"):
            fit(prob, W_init=bad)


class TestFirstIterationS:
    def test_quadratic_matches_cross_product(self):
        Y = synth_data("quadratic", 4, 50, seed=13)
        prob = FitProblem(Y=Y, losses=quad_map(4), lam=0.3, M=np.zeros_like(Y))
        S1 = first_iteration_s(prob)
        S = Y.T @ Y / Y.shape[0]
        assert np.max(np.abs(S1 - S)) <= 1e-12

    @pytest.mark.parametrize("given_M", [False, True], ids=["intercepts", "M-given"])
    def test_all_quadratic_is_the_cross_product_of_the_data(self, given_M):
        Y = synth_data("quadratic", 5, 60, seed=15)
        M = 0.3 * np.random.default_rng(15).standard_normal(Y.shape) if given_M else None
        prob = FitProblem(Y=Y, losses=quad_map(5), lam=0.2, M=M)
        p = _prepare(prob)
        assert np.array_equal(first_iteration_s(prob), cross_product(Y, p.M))
        assert np.array_equal(first_iteration_s(p), cross_product(Y, p.M))

    def test_independent_of_lambda(self):
        Y = synth_data("bernoulli", 3, 40, seed=14)
        losses = loss_map_for("bernoulli", Y)
        a = first_iteration_s(FitProblem(Y=Y, losses=losses, lam=0.0))
        b = first_iteration_s(FitProblem(Y=Y, losses=losses, lam=5.0))
        assert np.array_equal(a, b)


class TestInexactInnerSolves:
    def _bernoulli_chain(self):
        Y = synth_data("bernoulli", 8, 300, seed=21)
        prob = FitProblem(Y=Y, losses=loss_map_for("bernoulli", Y), lam=0.0)
        lam_max = float(lambda_grid(first_iteration_s(prob), n_points=1)[0])
        return FitProblem(Y=Y, losses=prob.losses, lam=0.3 * lam_max)

    def test_bernoulli_chain_solves_loosely_then_polishes(self):
        prob = self._bernoulli_chain()
        res = fit(prob)
        st = res.state
        assert max(st.inner_tols) > prob.inner_tol
        assert st.inner_tols[:2] == [prob.inner_tol, prob.inner_tol]
        assert st.inner_tols[-1] == prob.inner_tol
        assert len(st.F_trace) == len(st.inner_iterations) == len(st.inner_tols) == len(st.inner_kkt) == st.k
        F = np.asarray(st.F_trace)
        assert np.all(np.diff(F) <= 1e-10 * (1.0 + np.abs(F[:-1])))
        # the returned W solves the inner problem on S rebuilt from the final Xi
        E = st.Xi - res.M
        S = E.T @ E / E.shape[0]
        S = 0.5 * (S + S.T)
        assert np.array_equal(S, st.S)
        assert kkt_residual(S, res.estimate.W, res.lam) <= prob.inner_tol
        assert st.inner_kkt[-1] == res.estimate.kkt_residual
        assert np.array_equal(st.Theta, theta_update(st.Xi, st.Xi - res.M, res.estimate.W, res.phi))

    def test_all_quadratic_solves_at_full_tolerance(self):
        Y = synth_data("quadratic", 6, 80, seed=5)
        prob = FitProblem(Y=Y, losses=quad_map(6), lam=0.1)
        res = fit(prob)
        assert res.converged
        assert res.state.inner_tols == [prob.inner_tol] * res.state.k
        assert max(res.state.inner_kkt) <= prob.inner_tol

    def test_capped_polish_is_not_converged(self):
        # one Newton step per outer iteration still leaves this fit's final solve short of 1e-7
        Y = synth_data("quadratic", 12, 100, seed=5)
        prob = FitProblem(Y=Y, losses=quad_map(12), lam=0.05, inner_max_iter=1)
        res = fit(prob)
        # the outer trace met outer_tol, but the final solve stopped at its cap
        assert res.state.k < prob.max_outer
        assert res.state.inner_tols[-1] == prob.inner_tol
        assert res.state.inner_kkt[-1] > prob.inner_tol
        assert not res.converged


class TestAgainstReferenceLoop:
    """``fit`` writes into per-fit arrays and reuses each inner solve's factors; the answers do not move."""

    @staticmethod
    def _at_fraction_of_lambda_max(Y, losses, **options):
        prob = FitProblem(Y=Y, losses=losses, lam=0.0, **options)
        lam_max = float(lambda_grid(first_iteration_s(prob), n_points=1)[0])
        return replace(prob, lam=0.3 * lam_max)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_every_kind(self, kind):
        Y = synth_data(kind, 4, 80, seed=41)
        prob = self._at_fraction_of_lambda_max(Y, loss_map_for(kind, Y), max_outer=30)
        assert_fit_equals_reference(fit(prob), reference_fit(prob))

    def test_mixed_kinds(self):
        kinds = ("quadratic", "bernoulli", "poisson_reparam", "lorenz", "huber", "hampel")
        Y = np.column_stack([synth_data(kind, 6, 120, seed=42)[:, k] for k, kind in enumerate(kinds)])
        losses = tuple(loss_map_for(kind, Y[:, [k]])[0] for k, kind in enumerate(kinds))
        prob = self._at_fraction_of_lambda_max(Y, losses, max_outer=40)
        assert_fit_equals_reference(fit(prob), reference_fit(prob))

    @pytest.mark.parametrize("start", ["cold", "array", "estimate"])
    @pytest.mark.parametrize("given_M", [False, True], ids=["intercepts", "M-given"])
    def test_all_quadratic(self, start, given_M):
        Y = synth_data("quadratic", 6, 100, seed=46)
        M = 0.3 * np.random.default_rng(46).standard_normal(Y.shape) if given_M else None
        prob = self._at_fraction_of_lambda_max(Y, quad_map(6), M=M)
        est = None if start == "cold" else fit(replace(prob, lam=2.0 * prob.lam)).estimate
        res = fit(prob, W_init=est.W if start == "array" else est)
        assert res.state.k == 2
        assert_fit_equals_reference(res, reference_fit(prob, W_init=None if est is None else est.W))

    def test_all_quadratic_run_ending_in_a_polish(self):
        Y = synth_data("quadratic", 12, 100, seed=5)
        prob = FitProblem(Y=Y, losses=quad_map(12), lam=0.05, inner_max_iter=1)
        ref = reference_fit(prob)
        assert ref["polished"]
        assert_fit_equals_reference(fit(prob), ref)

    @pytest.mark.parametrize("name", ["half-scale-quadratic", "quadratic-bernoulli"])
    def test_one_inexact_column_evaluates_the_criterion_at_every_step(self, monkeypatch, name):
        # a quadratic column of scale 0.5, or a Bernoulli column, does not step onto Y, so the fit takes gradient steps
        if name == "half-scale-quadratic":
            Y = synth_data("quadratic", 5, 100, seed=48)
            losses = (make_loss("quadratic", scale_factor=0.5),) + quad_map(4)
        else:
            kinds = ("quadratic", "bernoulli", "quadratic", "bernoulli", "quadratic")
            Y = np.column_stack([synth_data(kind, 5, 150, seed=49)[:, k] for k, kind in enumerate(kinds)])
            losses = tuple(make_loss(kind) for kind in kinds)
        prob = self._at_fraction_of_lambda_max(Y, losses, max_outer=30)
        assert _prepare(prob).S is None
        calls = count_calls(monkeypatch, iggl.core, "solve_ggl", "outer_objective", "batch_value")
        res = fit(prob)
        counted = dict(calls)  # reference_fit's own outer_objective calls reach iggl.core.batch_value too
        ref = reference_fit(prob)
        assert res.state.k > 2
        assert counted == dict.fromkeys(counted, res.state.k + ref["polished"])
        assert_fit_equals_reference(res, ref)

    def test_all_quadratic_fit_returns_its_own_theta_and_xi(self):
        Y = synth_data("quadratic", 6, 100, seed=47)
        prob = self._at_fraction_of_lambda_max(Y, quad_map(6))
        res, ref = fit(prob), reference_fit(prob)
        assert np.array_equal(res.state.Theta, ref["Theta"]) and np.array_equal(res.state.Xi, ref["Xi"])
        assert np.array_equal(res.state.Xi, Y)
        assert not any(np.shares_memory(res.state.Xi, a) for a in (Y, _prepare(prob).Y, res.state.Theta))

    def test_run_ending_in_a_polish(self):
        Y = synth_data("bernoulli", 8, 300, seed=21)
        prob = self._at_fraction_of_lambda_max(Y, loss_map_for("bernoulli", Y), max_outer=6)
        ref = reference_fit(prob)
        assert ref["polished"]
        assert_fit_equals_reference(fit(prob), ref)

    def test_warm_started_fit(self):
        Y = synth_data("bernoulli", 5, 200, seed=43)
        prob = self._at_fraction_of_lambda_max(Y, loss_map_for("bernoulli", Y), max_outer=20)
        W_init = fit(replace(prob, lam=2.0 * prob.lam)).estimate.W
        assert_fit_equals_reference(fit(prob, W_init=W_init), reference_fit(prob, W_init=W_init))

    def test_path_fits_keep_their_own_arrays(self):
        Y = synth_data("bernoulli", 5, 200, seed=44)
        prob = FitProblem(Y=Y, losses=loss_map_for("bernoulli", Y), lam=0.0, max_outer=15)
        lambdas = lambda_grid(first_iteration_s(prob), n_points=4)
        path = iggl.fit_path(prob, lambdas)
        W_prev = None
        for i, (lam, res) in enumerate(zip(lambdas, path.fits)):
            # each fit equals its own reference after every later fit of the path has run;
            # only the selected fit keeps its n x m arrays
            ref = reference_fit(replace(prob, lam=float(lam)), W_init=W_prev)
            if i == path.selected_index:
                assert_fit_equals_reference(res, ref)
            else:
                assert res.state.Theta is None and res.state.Xi is None
                for name, value in (("W", res.estimate.W), ("F_trace", res.state.F_trace), ("S", res.state.S)):
                    assert np.array_equal(np.asarray(value), np.asarray(ref[name])), name
                assert res.converged == ref["converged"]
            W_prev = res.estimate.W
        arrays = [a for res in path.fits for a in (res.state.Theta, res.state.Xi, res.estimate.W) if a is not None]
        assert len(arrays) == len(lambdas) + 2
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])


class TestSharedCrossProduct:
    """An all-quadratic problem's S is computed once, by ``_prepare``, and every fit of a path reads it."""

    def test_a_path_makes_one_cross_product_and_no_gradient_step(self, monkeypatch):
        names = ("cross_product", "batch_grad", "xi_update", "theta_update", "outer_objective", "batch_value")
        calls = count_calls(monkeypatch, iggl.core, *names)
        per_fit, original = [], iggl.select.fit

        def counted_fit(*args, **kwargs):
            before = calls["theta_update"]
            res = original(*args, **kwargs)
            per_fit.append(calls["theta_update"] - before)
            return res

        monkeypatch.setattr(iggl.select, "fit", counted_fit)
        Y = synth_data("quadratic", 6, 120, seed=51)
        prepared = _prepare(FitProblem(Y=Y, losses=quad_map(6), lam=0.0))
        path = iggl.fit_path(prepared, lambda_grid(first_iteration_s(prepared), n_points=5))
        # each fit takes F from the inner objective, and no fit forms its Theta until it is read
        assert calls == {"cross_product": 1, "batch_grad": 0, "xi_update": 0, "theta_update": 0,
                         "outer_objective": 0, "batch_value": 0}
        assert per_fit == [0] * 5
        assert all(res.state.k == 2 and res.state.S is prepared.S for res in path.fits)
        sel = path.fits[path.selected_index].state
        assert np.array_equal(sel.Xi, Y) and not np.shares_memory(sel.Xi, prepared.Y)

    def test_a_bernoulli_fit_steps_and_cross_multiplies_every_outer_iteration(self, monkeypatch):
        Y = synth_data("bernoulli", 5, 200, seed=52)
        prepared = _prepare(FitProblem(Y=Y, losses=loss_map_for("bernoulli", Y), lam=0.05, max_outer=20))
        assert prepared.S is None
        calls = count_calls(monkeypatch, iggl.core, "cross_product", "xi_update")
        res = fit(prepared)
        assert res.state.k > 2
        assert calls == {"cross_product": res.state.k, "xi_update": res.state.k}

    def test_shared_s_is_read_only_and_the_anchor_a_copy(self):
        prob = FitProblem(Y=synth_data("quadratic", 5, 80, seed=53), losses=quad_map(5), lam=0.1)
        prepared = _prepare(prob)
        with pytest.raises(ValueError, match="read-only"):
            prepared.S[0, 1] = 1.0
        S1 = first_iteration_s(prepared)
        assert np.array_equal(S1, prepared.S) and not np.shares_memory(S1, prepared.S)
        S1[:] = 0.0
        W = fit(prepared).estimate.W
        assert np.array_equal(W, fit(_prepare(prob)).estimate.W)
        assert np.array_equal(first_iteration_s(prepared), cross_product(prob.Y, prepared.M))


def quadratic_case(case):
    """An all-quadratic problem of :class:`TestAllQuadraticObjective`'s cases, which differ in M and options."""
    m = 12 if case == "polished" else 6
    Y = synth_data("quadratic", m, 100, seed=5 if case == "polished" else 54)
    options = {"polished": {"lam": 0.05, "inner_max_iter": 1}, "penalize-diagonal": {"penalize_diagonal": True},
               "M-given": {"M": 0.3 * np.random.default_rng(54).standard_normal(Y.shape)}}.get(case, {})
    return replace(FitProblem(Y=Y, losses=quad_map(m), lam=0.1), **options)


class TestAllQuadraticObjective:
    """An all-quadratic fit takes F = n/2 x the inner objective, because its loss value cancels the shift term."""

    @pytest.mark.parametrize("case", ["intercepts", "M-given", "penalize-diagonal", "polished"])
    def test_each_trace_entry_is_the_criterion_on_the_returned_arrays(self, monkeypatch, case):
        prob = quadratic_case(case)
        Y = prob.Y
        solves, solve = [], iggl.core.solve_ggl
        monkeypatch.setattr(iggl.core, "solve_ggl", lambda *a, **kw: solves.append(solve(*a, **kw)) or solves[-1])
        res = fit(prob)
        st = res.state
        assert _prepare(prob).S is not None and len(solves) == st.k + (case == "polished")
        for F, est in zip(st.F_trace, solves[:st.k - 1] + solves[-1:]):  # a polish replaces the last entry
            Theta = theta_update(st.Xi, st.Xi - res.M, est.W, res.phi)
            want = outer_objective(st.S, Theta, est, res.phi, Y, res.losses)
            assert abs(F - want) <= 1e-12 * abs(want)
        assert np.array_equal(Theta, st.Theta) and est is res.estimate


class TestThetaXiOnFirstRead:
    """An all-quadratic fit builds its Theta and Xi when either is first read, and never for a released fit."""

    @pytest.mark.parametrize("case", ["intercepts", "M-given", "penalize-diagonal", "polished"])
    @pytest.mark.parametrize("first", ["Theta", "Xi"])
    def test_built_arrays_match_the_reference_loop(self, monkeypatch, case, first):
        prob = quadratic_case(case)
        ref = reference_fit(prob)
        assert ref["polished"] == (case == "polished")
        blends = count_calls(monkeypatch, iggl.core, "_blend", "theta_update")
        res = fit(prob)
        st = res.state
        assert blends == {"_blend": 0, "theta_update": 0}
        built = getattr(st, first)
        assert blends == {"_blend": 1, "theta_update": 0}
        assert_fit_equals_reference(res, ref)
        assert built is getattr(st, first)
        assert st.Theta is st.Theta and st.Xi is st.Xi  # a second read returns the same objects
        assert blends["_blend"] == 1 and type(st) is IterState
        assert not np.shares_memory(st.Xi, prob.Y) and not np.shares_memory(st.Theta, st.Xi)

    def test_repr_and_equality_build_nothing(self, monkeypatch):
        blends = count_calls(monkeypatch, iggl.core, "_blend")
        st = fit(quadratic_case("intercepts")).state
        other = fit(quadratic_case("intercepts")).state
        # == is identity: no array is compared, so distinct states are unequal without raising
        assert "Theta" not in repr(st) and st == st and copy.copy(st) != st and st != other
        assert blends["_blend"] == 0
        assert np.array_equal(st.Xi, copy.copy(st).Xi)

    @pytest.mark.parametrize("name", ["Theta", "Xi"])
    def test_assigning_either_releases_both_unbuilt(self, monkeypatch, name):
        blends = count_calls(monkeypatch, iggl.core, "_blend")
        st = fit(quadratic_case("intercepts")).state
        kept = np.zeros(3)
        setattr(st, name, kept)
        other = {"Theta": "Xi", "Xi": "Theta"}[name]
        assert getattr(st, name) is kept and getattr(st, other) is None
        assert blends["_blend"] == 0 and "_blend_args" not in vars(st) and type(st) is IterState

    def test_released_path_fits_read_none_and_build_nothing(self, monkeypatch):
        blends = count_calls(monkeypatch, iggl.core, "_blend", "theta_update")
        Y = synth_data("quadratic", 6, 120, seed=51)
        prob = FitProblem(Y=Y, losses=quad_map(6), lam=0.0)
        path = iggl.fit_path(prob, lambda_grid(first_iteration_s(prob), n_points=5))
        assert path.selected_index > 0
        for i, res in enumerate(path.fits):
            if i != path.selected_index:
                assert res.state.Theta is None and res.state.Xi is None
        assert blends == {"_blend": 0, "theta_update": 0}
        assert np.array_equal(path.fits[path.selected_index].state.Xi, Y)
        assert blends == {"_blend": 1, "theta_update": 0}

    @pytest.mark.parametrize("case", ["intercepts", "polished"])
    @pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
    def test_feasibility_checked_once_per_w(self, monkeypatch, case, read):
        # the warm start, then each outer step's returned W (the polish's too); the blend factors nothing again
        calls = count_calls(monkeypatch, iggl.core, "_check_feasible", "outer_step")
        res = fit(quadratic_case(case))
        if read:
            assert res.state.Theta is not None
        assert calls["outer_step"] == res.state.k + (case == "polished")
        assert calls["_check_feasible"] == calls["outer_step"] + 1


def step_problem(name):
    """The prepared problem of a contract test of :func:`outer_step`: Bernoulli, mixed, or all quadratic."""
    if name == "bernoulli":
        Y = synth_data("bernoulli", 5, 200, seed=61)
        losses = loss_map_for("bernoulli", Y)
    elif name == "mixed":
        kinds = ("tukey", "tukey", "poisson_reparam", "poisson_reparam", "lorenz", "lorenz")
        Y = np.column_stack([synth_data(kind, 6, 150, seed=62)[:, k] for k, kind in enumerate(kinds)])
        losses = tuple(loss_map_for(kind, Y[:, [k]])[0] for k, kind in enumerate(kinds))
    else:
        Y = synth_data("quadratic", 5, 100, seed=63)
        losses = quad_map(5)
    return _prepare(FitProblem(Y=Y, losses=losses, lam=0.05, max_outer=3))


class TestOuterStep:
    """One outer step is a function of Theta and the estimate alone: scratch contents and earlier calls do not matter."""

    @pytest.mark.parametrize("name", ["bernoulli", "mixed", "all-quadratic"])
    @pytest.mark.parametrize("polish", [False, True], ids=["step", "polish"])
    def test_outputs_depend_only_on_theta_and_the_estimate(self, name, polish):
        prepared = step_problem(name)
        res = fit(prepared)  # a Theta, Xi, S and estimate from the middle of a run
        given = res.state.S.copy() if polish else prepared.S  # the S that fit passes
        outputs = []
        for fill in (0.0, np.nan, np.nan):
            state = IterState(Theta=res.state.Theta.copy(), Xi=res.state.Xi.copy())
            if given is None:  # Xi is an output; otherwise it is read
                state.Xi.fill(fill)
            work = (np.full(prepared.Y.shape, fill), np.full(prepared.Y.shape, fill))
            est, S, F = outer_step(prepared, state, copy.deepcopy(res.estimate), 1e-7, work, S=given)
            assert np.all(np.isfinite(state.Theta)) and np.isfinite(F)
            outputs.append((state.Theta, state.Xi, S, est.W, F))
        for got in outputs[1:]:
            for a, b in zip(got, outputs[0]):
                assert np.array_equal(a, b)
        assert given is None or outputs[0][2] is given
        assert np.array_equal(outputs[0][1], prepared.Y) == (prepared.S is not None)

    def test_prepared_s_gives_the_gradient_steps_answer_on_an_all_quadratic_problem(self):
        # the gradient step keeps Xi = Y there, so skipping it changes no bit
        prepared = step_problem("all-quadratic")
        res = fit(prepared)
        outputs = []
        for given in (None, prepared.S):
            state = IterState(Theta=res.state.Theta.copy(), Xi=np.full(prepared.Y.shape, np.nan))
            if given is not None:
                state.Xi[...] = res.state.Xi
            work = (np.full(prepared.Y.shape, np.nan), np.full(prepared.Y.shape, np.nan))
            est, S, F = outer_step(prepared, state, copy.deepcopy(res.estimate), 1e-7, work, S=given)
            outputs.append((state.Theta, state.Xi, S, est.W, est.iterations, F))
        for a, b in zip(*outputs):
            assert np.array_equal(a, b)


class TestWarmStartHandOff:
    """``fit`` takes an earlier estimate or an array; ``fit_path`` hands over each fit's estimate."""

    @staticmethod
    def _problem():
        Y = synth_data("bernoulli", 5, 200, seed=45)
        prob = FitProblem(Y=Y, losses=loss_map_for("bernoulli", Y), lam=0.0, max_outer=15)
        return prob, lambda_grid(first_iteration_s(prob), n_points=5)

    def test_estimate_and_its_array_give_the_same_fit(self):
        prob, lambdas = self._problem()
        start = fit(replace(prob, lam=float(lambdas[1]))).estimate
        from_estimate = fit(replace(prob, lam=float(lambdas[2])), W_init=start)
        from_array = fit(replace(prob, lam=float(lambdas[2])), W_init=start.W)
        st, ref = from_estimate.state, from_array.state
        for name in ("F_trace", "Theta", "Xi", "S", "inner_iterations", "inner_kkt"):
            assert np.array_equal(np.asarray(getattr(st, name)), np.asarray(getattr(ref, name))), name
        for name in ("W", "W_inv", "log_det", "objective", "kkt_residual"):
            assert np.array_equal(getattr(from_estimate.estimate, name), getattr(from_array.estimate, name)), name
        assert from_estimate.converged == from_array.converged

    def test_path_reuses_each_previous_estimates_factors(self, monkeypatch):
        # the first solve of every fit but the first starts from the previous
        # estimate's inverse and log det instead of inverting and factoring it
        prob, lambdas = self._problem()
        counts, solve = count_calls(monkeypatch, np.linalg, "inv", "cholesky"), iggl.core.solve_ggl
        inside = Counter()

        def counted_solve(*args, **kwargs):
            before = counts.copy()
            est = solve(*args, **kwargs)
            inside.update(counts - before)
            return est

        monkeypatch.setattr(iggl.core, "solve_ggl", counted_solve)

        path = iggl.fit_path(prob, lambdas)
        by_path = inside.copy()
        W_prev = None
        for lam, res in zip(lambdas, path.fits):
            from_array = fit(replace(prob, lam=float(lam)), W_init=W_prev)
            assert np.array_equal(res.estimate.W, from_array.estimate.W)
            W_prev = from_array.estimate.W
        by_arrays = {name: inside[name] - by_path[name] for name in counts}
        assert by_path["inv"] > 0
        assert by_arrays == {name: by_path[name] + len(lambdas) - 1 for name in counts}

    @pytest.mark.parametrize("bad, message", [
        (np.array([[1.0, 0.1, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), "W_init must be symmetric"),
        (np.diag([1.0, np.nan, 1.0]), "W_init has non-finite entries"),
        (np.eye(2), "W_init must be a square matrix of size 3"),
        (np.ones(3), "W_init must be a square matrix of size 3"),
    ])
    def test_bad_array_rejected(self, bad, message):
        Y = synth_data("quadratic", 3, 50, seed=12)
        with pytest.raises(ValueError, match=message):
            fit(FitProblem(Y=Y, losses=quad_map(3), lam=0.1), W_init=bad)

    def test_estimate_of_another_size_rejected(self):
        other = fit(FitProblem(Y=synth_data("quadratic", 4, 50, seed=12), losses=quad_map(4), lam=0.1)).estimate
        Y = synth_data("quadratic", 3, 50, seed=12)
        with pytest.raises(ValueError, match=r"W_init must be an estimate of size 3, got shape \(4, 4\)"):
            fit(FitProblem(Y=Y, losses=quad_map(3), lam=0.1), W_init=other)

    @pytest.mark.parametrize("lam", [-0.1, np.inf, np.nan])
    def test_lambda_checked_by_the_inner_solver(self, lam):
        Y = synth_data("quadratic", 3, 50, seed=12)
        with pytest.raises(ValueError, match="lambda must be finite and nonnegative"):
            fit(FitProblem(Y=Y, losses=quad_map(3), lam=lam))


SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "spans.py")


class TestTracedLayers:
    """The benchmark's tracer (perfbench/spans.py) sees every layer of every outer step.

    It rebinds ``iggl.core``'s module globals, so a step that bound them
    locally would read zero in each per-layer metric.
    """

    def test_span_counts_follow_the_outer_iterations(self):
        spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        Y = synth_data("bernoulli", 6, 300, seed=71)
        binary = FitProblem(Y=Y, losses=loss_map_for("bernoulli", Y), lam=0.02, max_outer=12)
        gauss = FitProblem(Y=synth_data("quadratic", 6, 200, seed=72), losses=quad_map(6), lam=0.0)
        lambdas = lambda_grid(first_iteration_s(gauss), n_points=3, ratio=0.1)
        tracer = spans.Tracer()
        tracer.install()
        try:
            res = iggl.core.fit(binary)
            path = iggl.select.fit_path(gauss, lambdas)
        finally:
            tracer.restore()
        count = tracer.summary()[2]

        # each fit's reference loop says whether its last block was polished
        refs, W_prev = [reference_fit(binary)], None
        for lam, res_i in zip(lambdas, path.fits):
            refs.append(reference_fit(replace(gauss, lam=float(lam)), W_init=W_prev))
            W_prev = res_i.estimate.W
        fits = [res] + path.fits
        assert_fit_equals_reference(res, refs[0])
        solves = sum(f.state.k + r["polished"] for f, r in zip(fits, refs))
        assert res.state.k == 12 and all(f.state.k == 2 for f in path.fits)
        assert count["core.fit"] == 1 and count["select.fit"] == 3
        assert count["glasso.solve"] == solves
        # the Gaussian fits take F from the inner objective and form no Theta inside the traced calls
        binary_solves = res.state.k + refs[0]["polished"]
        assert count["core.objective"] == binary_solves
        assert count["losses.value"] == binary_solves
        assert count["core.theta_update"] == binary_solves + 1  # + the Bernoulli fit's Theta_0
        assert count["losses.grad"] == res.state.k  # the polish and the Gaussian fits take no gradient step
