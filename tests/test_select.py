from dataclasses import replace
import tracemalloc

import numpy as np
import pytest

from iggl import (
    FitProblem,
    bic,
    bregman,
    bregman_sym,
    edge_metrics,
    fit,
    fit_path,
    lambda_grid,
    log_det_pd,
    make_loss,
    make_precision,
    GraphPattern,
)
from iggl.cli import fit_result_document, write_table
from iggl.select import EDGE_EPS, degrees_of_freedom

from helpers import count_calls, rand_spd, synth_data


def quad_map(m):
    return tuple(make_loss("quadratic") for _ in range(m))


class TestLambdaGrid:
    def test_identity_collapses(self):
        with pytest.warns(UserWarning):
            grid = lambda_grid(np.eye(3))
        assert np.array_equal(grid, [0.0])

    def test_log_spacing(self):
        S = np.array([[2.0, 1.0], [1.0, 2.0]])
        grid = lambda_grid(S, n_points=3, ratio=0.01)
        assert np.allclose(grid, [1.0, 0.1, 0.01], rtol=1e-12)

    def test_single_point(self):
        S = np.array([[2.0, 0.7], [0.7, 2.0]])
        assert np.array_equal(lambda_grid(S, n_points=1), [0.7])

    @pytest.mark.parametrize("n_points", [1, 2, 30])
    @pytest.mark.parametrize("off", [5e-324, 1e-322, np.finfo(float).max, np.inf])
    def test_grid_outside_the_float_range_named(self, off, n_points):
        # lambda_max * ratio underflows to 0, or lambda_max is too large for geomspace
        S = np.array([[1.0, off], [off, 1.0]])
        with pytest.raises(ValueError, match="^penalty grid .* is outside the float range$"):
            lambda_grid(S, n_points=n_points)

    @pytest.mark.parametrize("off", [5e-322, np.finfo(float).max / 1.0000001])
    def test_grids_at_the_edges_of_the_float_range_are_geomspace(self, off):
        S = np.array([[1.0, off], [off, 1.0]])
        for n_points in (1, 2, 30):
            assert np.array_equal(lambda_grid(S, n_points=n_points), np.geomspace(off, off * 0.01, n_points))

    def test_nan_off_diagonal_named(self):
        # max() of the off-diagonals is NaN, which passes the <= 0 test and geomspace
        with pytest.raises(ValueError, match="^penalty grid is not a number"):
            lambda_grid(np.array([[1.0, np.nan], [np.nan, 1.0]]), n_points=3)

    def test_validation(self):
        with pytest.raises(ValueError):
            lambda_grid(np.eye(2), n_points=0)
        with pytest.raises(ValueError):
            lambda_grid(np.eye(2), ratio=1.5)


class TestBIC:
    def test_dense_unpenalized_formula(self):
        Y = synth_data("quadratic", 4, 60, seed=3)
        M = np.zeros_like(Y)
        res = fit(FitProblem(Y=Y, losses=quad_map(4), lam=0.0, M=M))
        n, m = Y.shape
        S = (Y - M).T @ (Y - M) / n
        expect = n * (m - np.log(np.linalg.det(np.linalg.inv(S)))) + np.log(n) * m * (m + 1) / 2
        assert bic(res) == pytest.approx(expect, rel=1e-6)

    def test_reads_the_fits_log_det(self, monkeypatch):
        Y = synth_data("quadratic", 4, 60, seed=3)
        res = fit(FitProblem(Y=Y, losses=quad_map(4), lam=0.1))
        W, n = res.estimate.W, Y.shape[0]
        expect = n * (float(np.sum(res.state.S * W)) - log_det_pd(W)) + np.log(n) * degrees_of_freedom(W)
        counts = count_calls(monkeypatch, np.linalg, "cholesky")
        assert bic(res) == expect
        assert counts["cholesky"] == 0

    def test_same_score_without_the_n_by_m_arrays(self):
        Y = synth_data("bernoulli", 4, 60, seed=3)
        res = fit(FitProblem(Y=Y, losses=tuple(make_loss("bernoulli") for _ in range(4)), lam=0.1, max_outer=20))
        before = bic(res)
        res.state.Theta = res.state.Xi = None
        assert bic(res) == before

    def test_df_counts_the_upper_triangle(self):
        # the same integers as indexing the strict upper triangle, also at ties, NaN and zero eps
        rng = np.random.default_rng(21)
        for m in (1, 2, 7, 30):
            W = rng.choice([0.0, 1e-8, -1e-8, 2e-8, 0.5, -3.0, np.nan], size=(m, m))
            iu = np.triu_indices(m, k=1)
            for eps in (0.0, 1e-8, 1.0):
                assert degrees_of_freedom(W, eps) == m + np.count_nonzero(np.abs(W[iu]) > eps)

    def test_diagonal_df(self):
        W = np.diag([1.0, 2.0, 3.0])
        assert degrees_of_freedom(W) == 3

    def test_extra_edge_costs_log_n(self):
        # same likelihood term, one extra edge: BIC differs by exactly log n
        n = 50
        W1 = np.eye(3)
        W2 = W1.copy()
        W2[0, 1] = W2[1, 0] = 1e-6
        assert degrees_of_freedom(W2) - degrees_of_freedom(W1) == 1
        assert np.log(n) * (degrees_of_freedom(W2) - degrees_of_freedom(W1)) == pytest.approx(np.log(n))

    def test_increasing_in_df_at_fixed_likelihood(self):
        n = 120
        lls = 7.5
        vals = [n * lls + np.log(n) * df for df in range(3, 10)]
        assert np.all(np.diff(vals) > 0)


class TestFitPath:
    def test_single_lambda(self):
        Y = synth_data("quadratic", 4, 60, seed=4)
        path = fit_path(FitProblem(Y=Y, losses=quad_map(4), lam=0.0), [0.2])
        assert len(path.fits) == 1
        assert path.selected_index == 0

    def test_lambda_max_gives_diagonal(self):
        Y = synth_data("quadratic", 5, 80, seed=5)
        prob = FitProblem(Y=Y, losses=quad_map(5), lam=0.0)
        from iggl import first_iteration_s

        grid = lambda_grid(first_iteration_s(prob), n_points=4, ratio=0.05)
        path = fit_path(prob, grid)
        W_top = path.fits[0].estimate.W
        assert np.max(np.abs(W_top - np.diag(np.diag(W_top)))) == 0.0

    def test_selected_minimizes_bic(self):
        Y = synth_data("quadratic", 4, 100, seed=6)
        prob = FitProblem(Y=Y, losses=quad_map(4), lam=0.0)
        from iggl import first_iteration_s

        grid = lambda_grid(first_iteration_s(prob), n_points=6, ratio=0.05)
        path = fit_path(prob, grid)
        assert path.selected_index == int(np.argmin(path.bic))

    def test_warm_equals_cold(self):
        Y = synth_data("quadratic", 5, 120, seed=7)
        prob = FitProblem(Y=Y, losses=quad_map(5), lam=0.0, inner_tol=1e-9)
        from iggl import first_iteration_s

        grid = lambda_grid(first_iteration_s(prob), n_points=8, ratio=0.02)
        warm = fit_path(prob, grid)
        for lam, fw in zip(grid, warm.fits):
            cold = fit(replace(prob, lam=lam))
            assert np.max(np.abs(fw.estimate.W - cold.estimate.W)) <= 1e-6

    def test_prepares_once(self, monkeypatch):
        import iggl.core

        Y = synth_data("quadratic", 5, 80, seed=9)
        prob = FitProblem(Y=Y, losses=quad_map(5), lam=0.0)
        calls = []
        original = iggl.core.estimate_intercepts
        monkeypatch.setattr(iggl.core, "estimate_intercepts", lambda *a: calls.append(a) or original(*a))
        path = fit_path(prob, np.geomspace(0.5, 0.01, 10))
        assert len(calls) == 1
        assert all(f is not None for f in path.fits)
        assert len({id(f.M) for f in path.fits}) == 1

    def test_retained_memory_does_not_grow_with_the_grid(self):
        # only the selected fit keeps its n x m arrays, built here on first read; each further penalty adds m x m ones
        from iggl import first_iteration_s

        Y = synth_data("quadratic", 4, 5000, seed=10)
        prob = FitProblem(Y=Y, losses=quad_map(4), lam=0.0)
        S1 = first_iteration_s(prob)
        retained = {}
        for n_points in (4, 16):
            grid = lambda_grid(S1, n_points=n_points)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                path = fit_path(prob, grid)
                assert path.fits[path.selected_index].state.Theta is not None
                retained[n_points] = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert all(f is not None for f in path.fits)
            del path
        assert retained[4] > Y.nbytes
        assert retained[16] - retained[4] < Y.nbytes // 4

    def test_an_unread_all_quadratic_path_holds_no_n_by_m_array(self):
        # every fit builds its Theta and Xi on first read, so a path builds none until its selected fit's are read
        from iggl import first_iteration_s

        Y = synth_data("quadratic", 4, 5000, seed=10)
        prob = FitProblem(Y=Y, losses=quad_map(4), lam=0.0)
        grid = lambda_grid(first_iteration_s(prob), n_points=16)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            path = fit_path(prob, grid)
            unread = tracemalloc.get_traced_memory()[0] - before
            assert path.fits[path.selected_index].state.Xi is not None
            read = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert unread < Y.nbytes // 4
        assert read - unread >= 2 * Y.nbytes

    def test_rejected_problem_raises_once(self):
        Y = synth_data("bernoulli", 3, 30, seed=16)
        Y[4, 1] = 2.0
        prob = FitProblem(Y=Y, losses=tuple(make_loss("bernoulli") for _ in range(3)), lam=0.0)
        with pytest.raises(ValueError, match="^column 1: bernoulli loss requires labels") as info:
            fit_path(prob, [0.3, 0.2, 0.1])
        assert str(info.value).count("requires labels") == 1

    def test_requires_descending(self):
        Y = synth_data("quadratic", 3, 30, seed=8)
        prob = FitProblem(Y=Y, losses=quad_map(3), lam=0.0)
        with pytest.raises(ValueError):
            fit_path(prob, [0.1, 0.2])

    def test_empty_grid_rejected(self):
        Y = synth_data("quadratic", 3, 30, seed=8)
        with pytest.raises(ValueError, match="^empty penalty grid$"):
            fit_path(FitProblem(Y=Y, losses=quad_map(3), lam=0.0), [])

    @pytest.mark.parametrize("lambdas", [[np.nan, np.nan], [0.2, np.nan], [np.inf, 0.1]])
    def test_non_finite_penalties_rejected_before_any_fit(self, monkeypatch, lambdas):
        # np.diff(...) >= 0 is False for NaN, so the descending check lets NaN through
        Y = synth_data("quadratic", 3, 30, seed=8)
        prob = FitProblem(Y=Y, losses=quad_map(3), lam=0.0)
        monkeypatch.setattr("iggl.select.fit", lambda *a, **k: pytest.fail("fit called"))
        with pytest.raises(ValueError, match="^penalties must be finite$"):
            fit_path(prob, lambdas)


class TestFailedPathFits:
    """A penalty whose fit raises is recorded, scored inf and skipped by the selection."""

    @staticmethod
    def _problem():
        Y = synth_data("quadratic", 5, 100, seed=17)
        return FitProblem(Y=Y, losses=quad_map(5), lam=0.0), ["x1", "x2", "x3", "x4", "x5"]

    def test_failed_penalty_is_recorded_and_skipped(self, tmp_path):
        prob, names = self._problem()
        path = fit_path(prob, [0.3, 0.1, -0.1])
        assert path.errors == [None, None, "lambda=-0.1: lambda must be finite and nonnegative"]
        assert path.fits[2] is None and path.fits[0] is not None and path.fits[1] is not None
        assert np.isfinite(path.bic[:2]).all() and path.bic[2] == np.inf
        assert path.selected_index == int(np.argmin(path.bic[:2])) == 1
        table = tmp_path / "path.csv"
        write_table(str(table), path)
        assert table.read_text().splitlines()[-1] == "-0.1,,,,failed"
        doc = fit_result_document(path.fits[1], names, EDGE_EPS, path)
        assert doc["selection"]["bic"][2] is None and doc["selection"]["selected_index"] == 1

    def test_every_failure_raises_with_each_error(self):
        prob, _ = self._problem()
        with pytest.raises(ValueError, match=r"^every path fit failed: lambda=-0\.1: lambda must be finite and "
                                             r"nonnegative; lambda=-0\.2: lambda must be finite and nonnegative$"):
            fit_path(prob, [-0.1, -0.2])


class TestBregman:
    def test_zero_at_equal(self):
        rng = np.random.default_rng(0)
        W = rand_spd(4, rng)
        assert bregman(W, W) == pytest.approx(0.0, abs=1e-12)

    def test_two_identity_value(self):
        val = bregman(2.0 * np.eye(2), np.eye(2))
        assert val == pytest.approx(2.0 - 2.0 * np.log(2.0), abs=1e-12)
        back = bregman(np.eye(2), 2.0 * np.eye(2))
        assert back == pytest.approx(2.0 * np.log(2.0) - 1.0, abs=1e-12)

    def test_symmetrized_is_symmetric(self):
        assert bregman_sym(2.0 * np.eye(2), np.eye(2)) == pytest.approx(
            bregman_sym(np.eye(2), 2.0 * np.eye(2)), abs=1e-14
        )

    def test_properties_random_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            W1 = rand_spd(4, rng)
            W2 = rand_spd(4, rng)
            d12 = bregman_sym(W1, W2)
            d21 = bregman_sym(W2, W1)
            assert d12 >= -1e-10
            assert d12 == pytest.approx(d21, abs=1e-10)
            assert d12 > 1e-10  # distinct random pairs are separated
            assert bregman_sym(W1, W1) == pytest.approx(0.0, abs=1e-10)

    def test_rejects_non_pd(self):
        with pytest.raises(ValueError):
            bregman(np.eye(2), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            bregman(np.eye(2), np.eye(3))


class TestEdgeMetrics:
    def test_perfect_recovery(self):
        W = make_precision(GraphPattern("chain", 5))
        em = edge_metrics(W, W)
        assert (em.precision, em.recall, em.f1) == (1.0, 1.0, 1.0)
        assert em.true_support_size == 4

    def test_diagonal_estimate_zero_recall(self):
        W_true = make_precision(GraphPattern("chain", 5))
        em = edge_metrics(np.eye(5), W_true)
        assert em.recall == 0.0
        assert em.f1 == 0.0

    def test_one_extra_edge(self):
        W_true = make_precision(GraphPattern("chain", 5))
        W_hat = W_true.copy()
        W_hat[0, 3] = W_hat[3, 0] = 0.2
        em = edge_metrics(W_hat, W_true)
        assert em.precision == pytest.approx(0.8)
        assert em.recall == 1.0

    def test_both_empty_is_vacuously_perfect(self):
        em = edge_metrics(np.eye(3), np.eye(3))
        assert (em.precision, em.recall, em.f1) == (1.0, 1.0, 1.0)
        assert em.true_support_size == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            edge_metrics(np.eye(3), np.eye(4))

    @pytest.mark.parametrize("eps", [0.0, -1.0, np.inf, np.nan])
    def test_threshold_must_be_positive_and_finite(self, eps):
        W = make_precision(GraphPattern("chain", 5))
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            edge_metrics(W, W, eps=eps)
