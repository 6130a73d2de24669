import numpy as np
import pytest

from iggl import GGLInstance, ggl_objective, kkt_residual, log_det_pd, solve_ggl

from helpers import oracle_ggl_2x2, oracle_ggl_dense, rand_spd


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
            est = solve_ggl(GGLInstance(S, 0.1))
            diffs = np.diff(est.objective_trace)
            assert np.all(diffs <= 1e-10)

    def test_warm_start_already_optimal(self):
        S = np.array([[1.0, 0.5], [0.5, 1.0]])
        first = solve_ggl(GGLInstance(S, 0.2))
        again = solve_ggl(GGLInstance(S, 0.2), W_init=first.W)
        assert again.iterations == 0
        assert np.array_equal(again.W, first.W)

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
