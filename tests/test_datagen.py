import numpy as np
import pytest

from iggl import (
    GGLInstance,
    GraphPattern,
    make_precision,
    sample_gaussian,
    sample_glm,
    solve_ggl,
)

from helpers import oracle_ggl_2x2, oracle_ggl_dense, rand_spd


class TestMakePrecision:
    def test_chain_tridiagonal(self):
        W = make_precision(GraphPattern("chain", 3))
        expect = np.array([[1.0, -0.4, 0.0], [-0.4, 1.0, -0.4], [0.0, -0.4, 1.0]])
        assert np.array_equal(W, expect)
        assert np.linalg.eigvalsh(W)[0] == pytest.approx(1.0 - 0.8 * np.cos(np.pi / 4), abs=1e-12)

    def test_sparsity_zero_is_diagonal(self):
        W = make_precision(GraphPattern("random", 2, sparsity=0.0))
        assert np.array_equal(W, np.diag(np.diag(W)))

    def test_hub_edge_count(self):
        W = make_precision(GraphPattern("hub", 4))
        iu = np.triu_indices(4, k=1)
        assert np.count_nonzero(W[iu]) == 3

    def test_chain_edge_count(self):
        for m in (3, 7, 12):
            W = make_precision(GraphPattern("chain", m))
            iu = np.triu_indices(m, k=1)
            assert np.count_nonzero(W[iu]) == m - 1

    def test_always_positive_definite(self):
        for seed in range(5):
            W = make_precision(GraphPattern("random", 8, edge_weight=-0.9, sparsity=0.5), seed=seed)
            assert np.linalg.eigvalsh(W)[0] >= 0.1 - 1e-12
            np.linalg.cholesky(W)

    def test_deterministic(self):
        p = GraphPattern("random", 6, sparsity=0.4)
        assert np.array_equal(make_precision(p, seed=3), make_precision(p, seed=3))

    def test_bad_pattern(self):
        with pytest.raises(ValueError):
            make_precision(GraphPattern("ring", 4))
        with pytest.raises(ValueError):
            make_precision(GraphPattern("random", 4, sparsity=1.5))

    def test_single_node_rejected(self):
        with pytest.raises(ValueError, match="^need m >= 2$"):
            make_precision(GraphPattern("chain", 1))


class TestSamplers:
    def test_gaussian_covariance_concentrates(self):
        Y = sample_gaussian(100_000, np.eye(2), seed=0)
        emp = np.cov(Y, rowvar=False)
        assert np.max(np.abs(emp - np.eye(2))) <= 0.02

    def test_mean_offset(self):
        n = 20_000
        mu = np.array([1.0, -2.0])
        Y = sample_gaussian(n, np.eye(2), mu=mu, seed=1)
        assert np.max(np.abs(Y.mean(axis=0) - mu)) <= 3.0 / np.sqrt(n)

    def test_seed_determinism(self):
        a = sample_gaussian(50, np.eye(3), seed=9)
        b = sample_gaussian(50, np.eye(3), seed=9)
        assert np.array_equal(a, b)
        c = sample_glm(50, np.eye(3), "poisson", seed=9)
        d = sample_glm(50, np.eye(3), "poisson", seed=9)
        assert np.array_equal(c, d)

    def test_bernoulli_balanced_at_zero_mean(self):
        n = 40_000
        Y = sample_glm(n, np.eye(2), "bernoulli", seed=2)
        assert set(np.unique(Y)) <= {0.0, 1.0}
        assert np.max(np.abs(Y.mean(axis=0) - 0.5)) <= 3.0 / (2.0 * np.sqrt(n))

    def test_poisson_mean_tracks_rate(self):
        # huge diagonal precision = tiny latent variance, so the rate is
        # essentially exp(mu) = 2 in every row
        n = 30_000
        Y = sample_glm(n, 1e6 * np.eye(2), "poisson", mu=np.log(2.0), seed=3)
        assert np.all(Y >= 0)
        assert np.array_equal(Y, np.floor(Y))
        assert np.max(np.abs(Y.mean(axis=0) - 2.0)) <= 3.0 * np.sqrt(2.0 / n)

    def test_poisson_overflow_clipped_with_warning(self):
        with pytest.warns(UserWarning, match="clipping"):
            Y = sample_glm(10, 1e6 * np.eye(2), "poisson", mu=40.0, seed=4)
        assert np.all(np.isfinite(Y))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            sample_glm(10, np.eye(2), "gamma")


class TestOracle2x2:
    def test_threshold_to_identity(self):
        S = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert np.array_equal(oracle_ggl_2x2(S, 0.5), np.eye(2))

    def test_zero_penalty_inverse(self):
        rng = np.random.default_rng(5)
        S = rand_spd(2, rng)
        assert np.max(np.abs(oracle_ggl_2x2(S, 0.0) - np.linalg.inv(S))) <= 1e-12

    def test_partial_threshold(self):
        S = np.array([[1.0, 0.5], [0.5, 1.0]])
        W = oracle_ggl_2x2(S, 0.2)
        expect = np.array([[1.0, -0.3], [-0.3, 1.0]]) / 0.91
        assert np.allclose(W, expect, atol=1e-12)

    def test_penalized_diagonal(self):
        S = np.array([[1.0, 0.5], [0.5, 1.0]])
        W = oracle_ggl_2x2(S, 0.2, penalize_diagonal=True)
        Sigma = np.array([[1.2, 0.3], [0.3, 1.2]])
        assert np.allclose(W, np.linalg.inv(Sigma), atol=1e-12)

    def test_singular_rejected(self):
        S = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            oracle_ggl_2x2(S, 0.0)


class TestOracleDense:
    def test_zero_penalty_matches_inverse(self):
        rng = np.random.default_rng(6)
        S = rand_spd(4, rng)
        W = oracle_ggl_dense(S, 0.0)
        assert np.max(np.abs(W - np.linalg.inv(S))) <= 1e-5

    def test_huge_penalty_diagonal(self):
        rng = np.random.default_rng(7)
        S = rand_spd(3, rng)
        W = oracle_ggl_dense(S, 10.0 * float(np.max(np.abs(S))))
        assert np.array_equal(W, np.diag(np.diag(W)))

    def test_cross_oracle_two_by_two(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            S = rand_spd(2, rng)
            lam = float(rng.uniform(0.0, 0.9 * abs(S[0, 1]) + 0.05))
            assert np.max(np.abs(oracle_ggl_dense(S, lam) - oracle_ggl_2x2(S, lam))) <= 1e-5

    def test_meets_kkt_contract(self):
        from iggl import kkt_residual

        rng = np.random.default_rng(9)
        S = rand_spd(5, rng)
        lam = 0.2 * float(np.max(np.abs(S - np.diag(np.diag(S)))))
        W = oracle_ggl_dense(S, lam)
        assert kkt_residual(S, W, lam) <= 1e-5

    def test_size_limit(self):
        with pytest.raises(ValueError):
            oracle_ggl_dense(np.eye(7), 0.1)

    def test_agreement_with_solver(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            m = int(rng.integers(3, 6))
            S = rand_spd(m, rng)
            off = np.abs(S).copy()
            np.fill_diagonal(off, 0.0)
            lam = float(rng.uniform(0.1, 0.5)) * float(off.max())
            est = solve_ggl(GGLInstance(S, lam, tol=1e-8))
            assert np.max(np.abs(est.W - oracle_ggl_dense(S, lam))) <= 1e-5
