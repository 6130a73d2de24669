import numpy as np
import pytest

import iggl.core
from iggl import (
    FitProblem,
    GGLInstance,
    GraphPattern,
    first_iteration_s,
    fit_path,
    ggl_objective,
    kkt_residual,
    lambda_grid,
    log_det_pd,
    make_loss,
    make_precision,
    sample_gaussian,
    solve_ggl,
)

from helpers import kkt_three_case, oracle_ggl_2x2, oracle_ggl_dense, rand_spd, spd_with_zeros


class TestLogDet:
    def test_identity(self):
        assert log_det_pd(np.eye(4)) == 0.0

    def test_scaled_identity(self):
        assert log_det_pd(2.0 * np.eye(3)) == pytest.approx(3.0 * np.log(2.0), abs=1e-14)

    def test_det_three(self):
        assert log_det_pd([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx(np.log(3.0), abs=1e-14)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            log_det_pd([[1.0, 2.0], [2.0, 1.0]])


class TestObjective:
    def test_identity_pair(self):
        assert ggl_objective(np.eye(2), np.eye(2), 0.0) == pytest.approx(2.0)

    def test_scaled_precision(self):
        val = ggl_objective(np.eye(2), 2.0 * np.eye(2), 0.0)
        assert val == pytest.approx(4.0 - 2.0 * np.log(2.0), abs=1e-12)

    def test_diagonal_penalty_flag(self):
        assert ggl_objective(np.eye(2), np.eye(2), 1.0, penalize_diagonal=True) == pytest.approx(4.0)
        assert ggl_objective(np.eye(2), np.eye(2), 1.0, penalize_diagonal=False) == pytest.approx(2.0)

    def test_rejects_non_pd(self):
        with pytest.raises(ValueError):
            ggl_objective(np.eye(2), np.zeros((2, 2)), 0.1)

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(12)
        S = rand_spd(4, rng)
        for _ in range(20):
            W1 = rand_spd(4, rng)
            W2 = rand_spd(4, rng)
            mid = ggl_objective(S, 0.5 * (W1 + W2), 0.3)
            chord = 0.5 * (ggl_objective(S, W1, 0.3) + ggl_objective(S, W2, 0.3))
            assert mid <= chord + 1e-10


class TestKKTResidual:
    def test_exact_inverse_no_penalty(self):
        rng = np.random.default_rng(3)
        S = rand_spd(3, rng)
        assert kkt_residual(S, np.linalg.inv(S), 0.0) <= 1e-12

    def test_identity_against_scaled_diag(self):
        assert kkt_residual(np.diag([2.0, 2.0]), np.eye(2), 0.0) == pytest.approx(1.0)

    def test_oracle_solution_stationary(self):
        S = np.array([[1.0, 0.5], [0.5, 1.0]])
        W = oracle_ggl_2x2(S, 0.2)
        assert kkt_residual(S, W, 0.2) <= 1e-8

    def test_rejects_non_pd(self):
        with pytest.raises(ValueError):
            kkt_residual(np.eye(2), -np.eye(2), 0.1)

    @pytest.mark.parametrize("pen", [False, True])
    def test_equals_three_case_form(self, pen):
        # S near the stationary point of W, so that every case can hold the max
        rng = np.random.default_rng(31)
        zero_max = 0
        for _ in range(40):
            m = int(rng.integers(2, 9))
            W = spd_with_zeros(m, rng)
            lam = float(rng.uniform(0.0, 1.0))
            E = rng.uniform(0.0, 2.0) * rng.standard_normal((m, m))
            Winv = np.linalg.inv(W)
            S = 0.5 * (Winv + Winv.T) - lam * np.sign(W) + 0.5 * (E + E.T)
            if not pen:
                np.fill_diagonal(S, np.diag(S) + lam)
            R = S - 0.5 * (Winv + Winv.T)
            assert kkt_residual(S, W, lam, pen) == kkt_three_case(R, W, lam, pen)
            zero_max += np.max(np.where(W == 0.0, np.abs(R) - lam, -np.inf)) == kkt_three_case(R, W, lam, pen)
        assert zero_max > 0


class TestSolve:
    def test_identity(self):
        est = solve_ggl(GGLInstance(np.eye(2), 0.0))
        assert np.allclose(est.W, np.eye(2), atol=1e-12)
        assert est.converged

    def test_diagonal_inversion(self):
        est = solve_ggl(GGLInstance(np.diag([2.0, 4.0]), 0.0))
        assert np.allclose(est.W, np.diag([0.5, 0.25]), atol=1e-12)

    def test_two_by_two_against_closed_form(self):
        S = np.array([[1.0, 0.5], [0.5, 1.0]])
        est = solve_ggl(GGLInstance(S, 0.2))
        assert np.max(np.abs(est.W - oracle_ggl_2x2(S, 0.2))) <= 1e-6
        assert est.kkt_residual <= 1e-7

    def test_large_penalty_gives_diagonal(self):
        rng = np.random.default_rng(8)
        S = rand_spd(4, rng)
        off = np.abs(S).copy()
        np.fill_diagonal(off, 0.0)
        lam = float(off.max())
        for pen in (False, True):
            est = solve_ggl(GGLInstance(S, lam, penalize_diagonal=pen))
            expect = np.diag(1.0 / (np.diag(S) + (lam if pen else 0.0)))
            assert np.allclose(est.W, expect, atol=1e-9)

    def test_monotone_objective_trace(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            S = rand_spd(5, rng)
            for pen in (False, True):
                cold = solve_ggl(GGLInstance(S, 0.1, pen))
                warm = solve_ggl(GGLInstance(S, 0.05, pen), W_init=cold.W)
                for est in (cold, warm):
                    assert est.iterations > 0
                    assert np.all(np.diff(est.objective_trace) <= 1e-10)

    def test_returns_exactly_symmetric_W(self):
        rng = np.random.default_rng(33)
        S = rand_spd(8, rng)
        for pen in (False, True):
            cold = solve_ggl(GGLInstance(S, 0.1, pen))
            # a warm start that is symmetric only to within its tolerance
            W0 = cold.W + 1e-12 * np.triu(rng.standard_normal((8, 8)))
            warm = solve_ggl(GGLInstance(S, 0.05, pen), W_init=W0)
            for est in (cold, warm):
                assert est.iterations > 0
                assert np.array_equal(est.W, est.W.T)

    @pytest.mark.parametrize("pen", [False, True])
    def test_newton_step_stays_in_the_orthant(self, pen):
        # one step from a W with exact zeros: entries outside the free set
        # stay exactly 0, no entry leaves the orthant of sign(W) (of
        # -sign(S - W^{-1}) where W = 0), and the objective falls
        rng = np.random.default_rng(32)
        fixed = entered = 0
        for _ in range(30):
            m = int(rng.integers(2, 9))
            W = spd_with_zeros(m, rng)
            S = rand_spd(m, rng)
            lam = float(rng.uniform(0.05, 0.5))
            est = solve_ggl(GGLInstance(S, lam, pen, tol=0.0, max_iter=1), W_init=W)
            assert est.iterations == 1
            Winv = np.linalg.inv(W)
            R = S - 0.5 * (Winv + Winv.T)
            lamP = np.full((m, m), lam)
            if not pen:
                np.fill_diagonal(lamP, 0.0)
            free = (W != 0.0) | (np.abs(R) > lamP)
            assert np.all(est.W[~free] == 0.0)
            assert np.all(est.W * np.where(W != 0.0, np.sign(W), -np.sign(R)) >= 0.0)
            assert ggl_objective(S, est.W, lam, pen) < ggl_objective(S, W, lam, pen)
            fixed += np.count_nonzero(~free)
            entered += np.count_nonzero(est.W[W == 0.0])
        assert fixed > 0 and entered > 0

    def test_cold_solves_reach_tight_kkt_in_few_iterations(self):
        # Newton steps converge superlinearly; a first-order method needs
        # tens to hundreds of iterations at the smaller penalties
        m, n = 30, 400
        Y = sample_gaussian(n, make_precision(GraphPattern("chain", m)), seed=5)
        prob = FitProblem(Y=Y, losses=tuple(make_loss("quadratic") for _ in range(m)), lam=0.0)
        S = first_iteration_s(prob)
        lam_max = float(lambda_grid(S, n_points=1)[0])
        for frac in (0.5, 0.1, 0.02):
            est = solve_ggl(GGLInstance(S, frac * lam_max, tol=1e-10, max_iter=30))
            assert est.converged
            assert est.kkt_residual <= 1e-10

    def test_cholesky_trials_per_iteration(self, monkeypatch):
        # the full Newton step is accepted at its first trial most of the
        # time; a Barzilai-Borwein proximal-gradient step needs 1.5 to 2
        m, n = 30, 400
        Y = sample_gaussian(n, make_precision(GraphPattern("chain", m)), seed=5)
        prob = FitProblem(Y=Y, losses=tuple(make_loss("quadratic") for _ in range(m)), lam=0.0)
        grid = lambda_grid(first_iteration_s(prob), n_points=10)
        counts = {"chol": 0, "iters": 0, "inside": False}
        cholesky, solve = np.linalg.cholesky, iggl.core.solve_ggl

        def counted_cholesky(a):
            counts["chol"] += counts["inside"]
            return cholesky(a)

        def counted_solve(*args, **kwargs):
            counts["inside"] = True
            try:
                est = solve(*args, **kwargs)
            finally:
                counts["inside"] = False
            counts["iters"] += est.iterations
            return est

        monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
        monkeypatch.setattr(iggl.core, "solve_ggl", counted_solve)
        fit_path(prob, grid)
        assert counts["iters"] > 0
        assert counts["chol"] / counts["iters"] <= 1.7

    def test_warm_start_already_optimal(self):
        S = np.array([[1.0, 0.5], [0.5, 1.0]])
        first = solve_ggl(GGLInstance(S, 0.2))
        again = solve_ggl(GGLInstance(S, 0.2), W_init=first.W)
        assert again.iterations == 0
        assert np.array_equal(again.W, first.W)

    def test_warm_start_from_an_estimate_reuses_its_factors(self, monkeypatch):
        rng = np.random.default_rng(8)
        S1 = rand_spd(6, rng)
        S2 = S1 + 0.05 * rand_spd(6, rng)
        first = solve_ggl(GGLInstance(S1, 0.1))
        assert np.array_equal(first.W, first.W.T)
        assert np.array_equal(first.W_inv, np.linalg.inv(first.W))
        assert first.log_det == log_det_pd(first.W)
        counts = {"inv": 0, "cholesky": 0}
        for name in counts:
            def counted(*args, _original=getattr(np.linalg, name), _name=name):
                counts[_name] += 1
                return _original(*args)
            monkeypatch.setattr(np.linalg, name, counted)
        runs = []
        for start in (first.W, first):
            before = dict(counts)
            runs.append((solve_ggl(GGLInstance(S2, 0.1), W_init=start), {k: counts[k] - before[k] for k in counts}))
        (plain, plain_calls), (reused, reused_calls) = runs
        for name in ("W", "objective", "kkt_residual", "iterations", "objective_trace", "W_inv", "log_det"):
            assert np.array_equal(getattr(plain, name), getattr(reused, name)), name
        assert reused_calls == {"inv": plain_calls["inv"] - 1, "cholesky": plain_calls["cholesky"] - 1}
        # an unpenalized estimate carries no factors; its W is taken like an array
        exact = solve_ggl(GGLInstance(S1, 0.0))
        assert exact.W_inv is None and exact.log_det is None
        assert np.array_equal(solve_ggl(GGLInstance(S2, 0.1), W_init=exact).W,
                              solve_ggl(GGLInstance(S2, 0.1), W_init=exact.W).W)

    def test_agrees_with_dense_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            S = rand_spd(5, rng)
            off = np.abs(S).copy()
            np.fill_diagonal(off, 0.0)
            lam = 0.3 * float(off.max())
            est = solve_ggl(GGLInstance(S, lam, tol=1e-8))
            W_ref = oracle_ggl_dense(S, lam)
            assert np.max(np.abs(est.W - W_ref)) <= 1e-5

    def test_produces_exact_zeros(self):
        rng = np.random.default_rng(4)
        S = rand_spd(6, rng)
        off = np.abs(S).copy()
        np.fill_diagonal(off, 0.0)
        est = solve_ggl(GGLInstance(S, 0.6 * float(off.max())))
        iu = np.triu_indices(6, k=1)
        assert np.any(est.W[iu] == 0.0)

    def test_max_iter_flags_nonconverged(self):
        rng = np.random.default_rng(9)
        S = rand_spd(6, rng)
        est = solve_ggl(GGLInstance(S, 0.05, max_iter=2, tol=1e-14))
        assert not est.converged
        assert est.iterations == 2

    def test_nonsingular_required_at_zero_penalty(self):
        S = np.ones((3, 3))
        with pytest.raises(ValueError):
            solve_ggl(GGLInstance(S, 0.0))

    def test_rejects_asymmetric(self):
        S = np.array([[1.0, 0.2], [0.1, 1.0]])
        with pytest.raises(ValueError):
            solve_ggl(GGLInstance(S, 0.1))

    def test_rejects_bad_warm_start(self):
        S = np.eye(2)
        with pytest.raises(ValueError):
            solve_ggl(GGLInstance(S, 0.1), W_init=-np.eye(2))
        with pytest.raises(ValueError):
            solve_ggl(GGLInstance(S, 0.1), W_init=np.eye(3))

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            solve_ggl(GGLInstance(np.eye(2), -0.1))

    @pytest.mark.parametrize("change, message", [
        ({"lam": np.inf}, "lambda must be finite and nonnegative"),
        ({"lam": np.nan}, "lambda must be finite and nonnegative"),
        ({"S": np.array([[1.0, np.nan], [np.nan, 1.0]])}, "S has non-finite entries"),
        ({"S": np.array([[1.0, 0.0], [0.0, np.inf]])}, "S has non-finite entries"),
        ({"max_iter": -1}, "max_iter must be nonnegative"),
        ({"tol": np.nan}, "tol must be finite and nonnegative"),
        ({"tol": -1.0}, "tol must be finite and nonnegative"),
        ({"tol": np.inf}, "tol must be finite and nonnegative"),
    ])
    def test_rejects_bad_instance(self, change, message):
        inst = GGLInstance(**{"S": np.array([[1.0, 0.3], [0.3, 1.0]]), "lam": 0.1, **change})
        with pytest.raises(ValueError, match=message):
            solve_ggl(inst)

    def test_zero_iterations_accepted(self):
        est = solve_ggl(GGLInstance(np.array([[1.0, 0.3], [0.3, 1.0]]), 0.1, max_iter=0))
        assert est.iterations == 0 and not est.converged

    @pytest.mark.parametrize("bad, message", [
        (np.array([[1.0, 0.1], [0.0, 1.0]]), "W_init must be symmetric"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), "W_init has non-finite entries"),
        (np.eye(3), "W_init must be a square matrix of size 2"),
    ])
    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_bad_warm_start_named(self, bad, message, lam):
        with pytest.raises(ValueError, match=message):
            solve_ggl(GGLInstance(np.array([[1.0, 0.3], [0.3, 1.0]]), lam), W_init=bad)
