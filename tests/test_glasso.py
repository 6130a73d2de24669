from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import iggl.core
import iggl.glasso
from iggl import (
    FitProblem,
    GGLInstance,
    GraphPattern,
    PrecisionEstimate,
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

from helpers import (
    count_calls,
    kkt_three_case,
    oracle_ggl_2x2,
    oracle_ggl_dense,
    rand_spd,
    reference_solve_ggl,
    spd_with_zeros,
)


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
        # the iterates are deterministic, so solves cut short after 0, 1, ...
        # steps retrace the objective of a full solve
        rng = np.random.default_rng(2)
        for _ in range(5):
            S = rand_spd(5, rng)
            for pen in (False, True):
                cold = solve_ggl(GGLInstance(S, 0.1, pen))
                for inst, start in ((GGLInstance(S, 0.1, pen), None), (GGLInstance(S, 0.05, pen), cold.W)):
                    est = solve_ggl(inst, W_init=start)
                    assert est.iterations > 0
                    trace = [ggl_objective(S, solve_ggl(replace(inst, max_iter=k), W_init=start).W, inst.lam, pen)
                             for k in range(est.iterations + 1)]
                    assert np.all(np.diff(trace) <= 1e-10)
                    assert trace[-1] == est.objective

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
        counts, solve = count_calls(monkeypatch, np.linalg, "cholesky"), iggl.core.solve_ggl
        inside = Counter()

        def counted_solve(*args, **kwargs):
            before = counts["cholesky"]
            est = solve(*args, **kwargs)
            inside.update(chol=counts["cholesky"] - before, iters=est.iterations)
            return est

        monkeypatch.setattr(iggl.core, "solve_ggl", counted_solve)
        fit_path(prob, grid)
        assert inside["iters"] > 0
        assert inside["chol"] / inside["iters"] <= 1.7

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
        counts = count_calls(monkeypatch, np.linalg, "inv", "cholesky")
        for lam in (0.1, 0.0):  # an unpenalized estimate carries its factors too
            first = solve_ggl(GGLInstance(S1, lam))
            assert np.array_equal(first.W, first.W.T)
            assert np.array_equal(first.W_inv, np.linalg.inv(first.W))
            assert first.log_det == log_det_pd(first.W)
            runs = []
            for start in (first.W, first):
                before = counts.copy()
                runs.append((solve_ggl(GGLInstance(S2, 0.1), W_init=start), {k: counts[k] - before[k] for k in counts}))
            (plain, plain_calls), (reused, reused_calls) = runs
            for name in ("W", "objective", "kkt_residual", "iterations", "W_inv", "log_det"):
                assert np.array_equal(getattr(plain, name), getattr(reused, name)), name
            assert reused_calls == {"inv": plain_calls["inv"] - 1, "cholesky": plain_calls["cholesky"] - 1}

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

    def test_zero_penalty_claims_only_the_convergence_it_reached(self):
        # rounding leaves S^{-1} of a condition-1e12 S short of the tolerance
        Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((20, 20)))
        S = Q @ np.diag(np.geomspace(1.0, 1e-12, 20)) @ Q.T
        S = 0.5 * (S + S.T)
        inst = GGLInstance(S, 0.0)
        est = solve_ggl(inst)
        assert est.kkt_residual == kkt_residual(S, est.W, 0.0)
        assert not est.converged or est.kkt_residual <= inst.tol

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
        ({"max_iter": 2.5}, "max_iter must be an integer, got 2.5"),
        ({"max_iter": np.nan}, "max_iter must be an integer, got nan"),
        ({"max_iter": True}, "max_iter must be an integer, got True"),
        ({"penalize_diagonal": "no"}, "penalize_diagonal must be a boolean, got 'no'"),
        ({"penalize_diagonal": 1}, "penalize_diagonal must be a boolean, got 1"),
    ])
    def test_rejects_bad_instance(self, change, message):
        inst = GGLInstance(**{"S": np.array([[1.0, 0.3], [0.3, 1.0]]), "lam": 0.1, **change})
        with pytest.raises(ValueError, match=message):
            solve_ggl(inst)

    @pytest.mark.parametrize("S, message", [
        (np.zeros((2, 3)), "S must be square"),
        (np.array([[0.0, 0.0], [0.0, 1.0]]), "S has a nonpositive diagonal entry; objective is unbounded"),
    ])
    def test_rejects_unsolvable_s(self, S, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            solve_ggl(GGLInstance(S, 0.1))

    def test_no_descent_step_raises(self, monkeypatch):
        # every trial W after the start fails to factor, so step-halving runs out of trials
        calls, objective = [], iggl.glasso._objective

        def start_only(*args):
            calls.append(args)
            if len(calls) > 1:
                raise ValueError("Matrix is not positive definite")
            return objective(*args)

        monkeypatch.setattr(iggl.glasso, "_objective", start_only)
        with pytest.raises(RuntimeError, match="^no positive definite descent step found after step-halving$"):
            solve_ggl(GGLInstance(np.array([[1.0, 0.3], [0.3, 1.0]]), 0.1))
        assert len(calls) == 1 + 100

    def test_numpy_integer_and_boolean_options_accepted(self):
        S = np.array([[1.0, 0.3], [0.3, 1.0]])
        plain = solve_ggl(GGLInstance(S, 0.1, True, max_iter=3))
        typed = solve_ggl(GGLInstance(S, 0.1, np.bool_(True), max_iter=np.int64(3)))
        assert np.array_equal(plain.W, typed.W) and plain.iterations == typed.iterations

    def test_zero_iterations_accepted(self):
        est = solve_ggl(GGLInstance(np.array([[1.0, 0.3], [0.3, 1.0]]), 0.1, max_iter=0))
        assert est.iterations == 0 and not est.converged

    @pytest.mark.parametrize("bad, message", [
        (np.array([[1.0, 0.1], [0.0, 1.0]]), "W_init must be symmetric"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), "W_init has non-finite entries"),
        (np.eye(3), "W_init must be a square matrix of size 2"),
        (PrecisionEstimate(np.eye(3), 3.0, 0.0, 0, True, np.eye(3), 0.0),
         r"W_init must be an estimate of size 2, got shape \(3, 3\)"),
    ])
    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_bad_warm_start_named(self, bad, message, lam):
        with pytest.raises(ValueError, match=message):
            solve_ggl(GGLInstance(np.array([[1.0, 0.3], [0.3, 1.0]]), lam), W_init=bad)


class TestAgainstReferenceSolver:
    """``solve_ggl`` against :func:`helpers.reference_solve_ggl`, its allocating copy, bit for bit."""

    @staticmethod
    def assert_same(inst, W_init=None, ref_init=None):
        est = solve_ggl(inst, W_init=W_init)
        ref = reference_solve_ggl(inst, W_init=W_init if ref_init is None else ref_init)
        for name in ("W", "W_inv", "objective", "log_det", "kkt_residual", "iterations", "converged"):
            assert np.array_equal(getattr(est, name), getattr(ref, name)), name
        return est, ref

    def test_zero_penalty_and_a_penalized_diagonal(self):
        rng = np.random.default_rng(41)
        steps = 0
        for m in (3, 8, 15):
            S = rand_spd(m, rng)
            steps += self.assert_same(GGLInstance(S, 0.0))[0].iterations
            for pen in (False, True):
                steps += self.assert_same(GGLInstance(S, 0.1, pen))[0].iterations
        assert steps > 0

    def test_warm_starts_from_an_array_and_from_an_estimate(self):
        rng = np.random.default_rng(42)
        S1 = rand_spd(12, rng)
        S2 = S1 + 0.05 * rand_spd(12, rng)
        for pen in (False, True):
            first = solve_ggl(GGLInstance(S1, 0.2, pen))
            kept = (first.W.copy(), first.W_inv.copy())
            W0 = first.W + 1e-12 * np.triu(rng.standard_normal((12, 12)))  # symmetric only to its tolerance
            for start in (W0, first):
                est, _ = self.assert_same(GGLInstance(S2, 0.1, pen), W_init=start)
                assert est.iterations > 0
            assert np.array_equal(first.W, kept[0]) and np.array_equal(first.W_inv, kept[1])

    def test_a_max_iter_cap(self):
        S = rand_spd(10, np.random.default_rng(43))
        est, _ = self.assert_same(GGLInstance(S, 0.05, tol=0.0, max_iter=3))
        assert est.iterations == 3 and not est.converged

    def test_a_condition_1e6_s(self):
        Q, _ = np.linalg.qr(np.random.default_rng(44).standard_normal((20, 20)))
        S = Q @ np.diag(np.geomspace(1.0, 1e-6, 20)) @ Q.T  # symmetric only to rounding
        assert not np.array_equal(S, S.T)
        steps = sum(self.assert_same(GGLInstance(S, lam))[0].iterations for lam in (0.0, 1e-4, 1e-2))
        assert steps > 0

    @pytest.mark.parametrize("m", [40, 60])
    def test_warm_started_path_sequences(self, m):
        Y = sample_gaussian(400, make_precision(GraphPattern("chain", m)), seed=m)
        S = first_iteration_s(FitProblem(Y=Y, losses=tuple(make_loss("quadratic") for _ in range(m)), lam=0.0))
        est = ref = None
        for lam in lambda_grid(S, n_points=8):
            est, ref = self.assert_same(GGLInstance(S, float(lam)), W_init=est, ref_init=ref)
        assert np.count_nonzero(est.W) > m


class TestNewtonDirection:
    def test_all_free_first_step_is_exact_newton(self, monkeypatch):
        # a small penalty and a dense W leave every entry free; then one CG
        # step preconditioned by W (x) W gives -W g W, the exact direction
        rng = np.random.default_rng(17)
        S = rand_spd(8, rng)
        W = np.linalg.inv(S + 0.3 * np.eye(8))
        W = 0.5 * (W + W.T)
        assert np.all(W != 0.0)
        Sigma = np.linalg.inv(W)
        Sigma = 0.5 * (Sigma + Sigma.T)
        lamP = iggl.glasso._penalty_weights(8, 1e-3, False)
        g = iggl.glasso._min_norm_subgradient(S - Sigma, W, lamP)
        monkeypatch.setattr(iggl.glasso, "_CG_MAX_ITER", 1)
        D = iggl.glasso._newton_direction(Sigma, W, g, np.ones((8, 8), dtype=bool))
        expect = -W @ g @ W
        assert np.max(np.abs(D - expect)) <= 1e-12 * np.max(np.abs(expect))
