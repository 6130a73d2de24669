"""The benchmark workloads: inputs made from a seed, the timed call, and checks.

Every workload is a pool of instances drawn from ``iggl.datagen``.  The
data of instance ``i`` come from a corpus seed (0 unless another corpus is
asked for) and the run seed shuffles their rows.  Time to solution on a
fixed problem size varies a lot between data draws with the current
solvers: on ``mixed_inner`` the inner-solver work differs two-fold, and on
``binary_chain`` one draw in eight takes 1.6 times as long as the others
(the power iteration of ``spectral_norm`` converges more slowly).  Fresh
draws per run seed would make the figures measure the draws; a fixed
corpus makes them measure the program, while the shuffled rows still give
every run seed its own input bytes.

One
operation is one timed call on one instance: a library ``fit`` or an
in-process ``iggl.cli.main(["path", ...])``.  Each operation's output is
checked, and an operation fails if it raises, if the CLI exits with a code
other than 0 or 2, or if a check below does not hold:

- W is symmetric positive definite;
- phi * eigvalsh(W)[-1] <= 1;
- the outer objective trace does not increase, within 1e-10 relative;
- if the fit reports ``converged``, the KKT residual on S rebuilt from the
  final Xi is at most ``inner_tol``;
- on ``gauss_path``, every fit of the path succeeded (no ``failed`` row in
  the path table, no null BIC);
- on ``gauss_path``, the selected W matches a direct ``solve_ggl`` at the
  selected penalty within 1e-10, from the warm start the path used, and
  the S of that direct solve matches (Y - M)^T (Y - M) / n, with M the
  column means, computed here without the package, within 1e-12 relative.

Module attributes are looked up at call time (``iggl.core.fit``, not a
name imported once), so a tracer that rebinds them sees every call.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, replace

import numpy as np

import iggl.cli
import iggl.core
from iggl.core import FitProblem
from iggl.datagen import GraphPattern, make_precision, sample_gaussian, sample_glm
from iggl.glasso import GGLInstance, kkt_residual, solve_ggl
from iggl.losses import ColumnLoss, make_loss, robust_scale
from iggl.select import EDGE_EPS, edge_metrics, fit_path, lambda_grid

MONOTONE_RTOL = 1e-10
DIRECT_SOLVE_ATOL = 1e-10
SAMPLE_COV_RTOL = 1e-12

# instance sizes; the ``pool`` instances are called in turn, each timed call
# followed by ``setup_repeats`` timed set-up calls
SIZES = {
    "mixed_inner": {"m": 12, "n": 100, "pool": 3, "setup_repeats": 3},
    "binary_chain": {"m": 40, "n": 2000, "pool": 3, "setup_repeats": 1},
    "gauss_path": {"m": 60, "n": 1000, "pool": 3, "setup_repeats": 3},
}


def instance_seed(seed, i, part=0):
    """Seed of part ``part`` of pool instance ``i`` under seed ``seed``."""
    return (seed * 1000 + i) * 4 + part


def shuffle_rows(Y, seed, i):
    """Rows of ``Y`` in the order the run seed draws for instance ``i``."""
    return Y[np.random.default_rng(instance_seed(seed, i, 3)).permutation(Y.shape[0])]


@dataclass
class Outcome:
    """What the checks need from one operation's output."""

    W: np.ndarray
    phi: float
    F_trace: list
    converged: bool
    S_final: np.ndarray | None
    lam: float
    inner_tol: float
    W_direct: np.ndarray | None = None
    S_direct: np.ndarray | None = None
    S_sample: np.ndarray | None = None
    failed_fits: int = 0


def check(out: Outcome):
    """Return the list of checks that ``out`` fails (empty when all hold)."""
    problems = []
    W = out.W
    if W.ndim != 2 or W.shape[0] != W.shape[1] or not np.array_equal(W, W.T):
        return ["W is not symmetric"]
    try:
        np.linalg.cholesky(W)
    except np.linalg.LinAlgError:
        return ["W is not positive definite"]
    if out.phi * float(np.linalg.eigvalsh(W)[-1]) > 1.0:
        problems.append("phi * ||W||_2 > 1")
    F = np.asarray(out.F_trace, dtype=float)
    if F.size == 0 or np.any(np.diff(F) > MONOTONE_RTOL * (1.0 + np.abs(F[:-1]))):
        problems.append("objective trace increases")
    if out.converged and kkt_residual(out.S_final, W, out.lam) > out.inner_tol:
        problems.append("converged but the KKT residual exceeds inner_tol")
    if out.W_direct is not None and np.max(np.abs(W - out.W_direct)) > DIRECT_SOLVE_ATOL:
        problems.append("selected W differs from a direct solve_ggl")
    if out.S_direct is not None and (
        np.max(np.abs(out.S_direct - out.S_sample)) > SAMPLE_COV_RTOL * np.max(np.abs(out.S_sample))
    ):
        problems.append("S of the direct solve differs from the sample covariance of Y")
    if out.failed_fits:
        problems.append(f"{out.failed_fits} fits of the path failed")
    return problems


def cross_product(Xi, M):
    E = Xi - M
    S = (E.T @ E) / E.shape[0]
    return 0.5 * (S + S.T)


def sample_covariance(Y):
    """(Y - M)^T (Y - M) / n with M the column means, in plain numpy."""
    E = Y - Y.mean(axis=0)
    S = (E.T @ E) / Y.shape[0]
    return 0.5 * (S + S.T)


def quality(W, W_true, final_objective):
    em = edge_metrics(W, W_true)
    iu = np.triu_indices(W.shape[0], k=1)
    edges = int(np.count_nonzero(np.abs(W[iu]) > EDGE_EPS))
    return {"f1": em.f1, "edges": edges, "final_objective": float(final_objective)}


def _with_auto_lambda(problem):
    """The problem at 0.3 * lambda_max of its first-iteration cross-product."""
    lam_max = float(lambda_grid(iggl.core.first_iteration_s(problem), n_points=1)[0])
    return replace(problem, lam=0.3 * lam_max)


class FitInstance:
    """A library ``fit`` on one problem with a known true graph."""

    def __init__(self, problem, W_true):
        self.problem = _with_auto_lambda(problem)
        self.W_true = W_true

    def setup_call(self):
        return iggl.core.first_iteration_s(self.problem)

    def invoke(self):
        return iggl.core.fit(self.problem)

    def outcome(self, res):
        p = self.problem
        out = Outcome(W=res.estimate.W, phi=res.phi, F_trace=res.state.F_trace, converged=res.converged,
                      S_final=cross_product(res.state.Xi, res.M), lam=res.lam, inner_tol=p.inner_tol)
        return out, quality(out.W, self.W_true, res.state.F_trace[-1])


def mixed_instance(seed, corpus, i, m, n):
    """Chain graph, edge weight -0.3: a third each of Tukey, count and Lorenz columns."""
    W_true = make_precision(GraphPattern("chain", m, edge_weight=-0.3))
    a, b = m // 3, 2 * m // 3
    Yg = sample_gaussian(n, W_true, seed=instance_seed(corpus, i, 0))
    Yp = sample_glm(n, W_true, "poisson", mu=0.5, seed=instance_seed(corpus, i, 1))
    Yb = 2.0 * sample_glm(n, W_true, "bernoulli", seed=instance_seed(corpus, i, 2)) - 1.0
    Y = shuffle_rows(np.column_stack([Yg[:, :a], Yp[:, a:b], Yb[:, b:]]), seed, i)
    losses = tuple(
        make_loss("tukey", c=4.685 * robust_scale(Y[:, k])) if k < a
        else ColumnLoss("poisson_reparam", {}) if k < b
        else make_loss("lorenz")
        for k in range(m)
    )
    problem = FitProblem(Y=Y, losses=losses, lam=0.0, outer_tol=1e-4, max_outer=500)
    return FitInstance(problem, W_true)


def binary_instance(seed, corpus, i, m, n):
    """Chain graph, Bernoulli columns, default options."""
    W_true = make_precision(GraphPattern("chain", m))
    Y = shuffle_rows(sample_glm(n, W_true, "bernoulli", seed=instance_seed(corpus, i)), seed, i)
    problem = FitProblem(Y=Y, losses=tuple(make_loss("bernoulli") for _ in range(m)), lam=0.0)
    return FitInstance(problem, W_true)


class PathInstance:
    """``iggl path`` through the in-process CLI on a Gaussian CSV file.

    Set-up writes the CSV and config, then runs the same path through the
    library once to find the warm start of the selected fit, from which the
    direct ``solve_ggl`` reference is solved.
    """

    def __init__(self, seed, corpus, i, m, n, workdir):
        self.W_true = make_precision(GraphPattern("chain", m))
        Y = shuffle_rows(sample_gaussian(n, self.W_true, seed=instance_seed(corpus, i)), seed, i)
        os.makedirs(workdir, exist_ok=True)
        stem = os.path.join(workdir, f"gauss{i}")
        self.data, self.config = stem + ".csv", stem + ".json"
        self.out, self.table = stem + "-selected.json", stem + "-path.csv"
        with open(self.data, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([f"x{k + 1}" for k in range(m)])
            writer.writerows([repr(float(v)) for v in row] for row in Y)
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump({"losses": "quadratic", "lambda": "auto"}, fh)
        self.problem = FitProblem(Y=Y, losses=tuple(make_loss("quadratic") for _ in range(m)), lam=0.0)
        self._reference()

    def _reference(self):
        """Solve the selected penalty's first inner problem directly.

        With quadratic losses the fit is one inner solve plus a confirming
        pass.  S is rebuilt exactly as the fit's first outer iteration
        builds it, from the same warm start, so the direct solve follows the
        same float trajectory and the two must agree to 1e-10.  That S comes
        from the package's own losses and intercepts, so the checks also
        hold it against the sample covariance of Y (the Gaussian
        degeneration of the estimator), computed without the package.
        """
        p = self.problem
        path = fit_path(p, lambda_grid(iggl.core.first_iteration_s(p)))
        sel = path.selected_index
        res = path.fits[sel]
        if sel > 0:
            W_warm = path.fits[sel - 1].estimate.W
            W_warm = 0.5 * (W_warm + W_warm.T)
        else:
            W_warm = np.diag(1.0 / np.var(p.Y, axis=0, ddof=1))
        Theta = p.Y + res.phi * ((res.M - p.Y) @ W_warm)
        S = cross_product(iggl.core.xi_update(Theta, p.Y, res.losses), res.M)
        inst = GGLInstance(S, res.lam, p.penalize_diagonal, p.inner_tol, p.inner_max_iter)
        self.W_direct = solve_ggl(inst, W_init=W_warm).W
        self.S_direct = S
        self.S_sample = sample_covariance(p.Y)
        self.S_final = cross_product(res.state.Xi, res.M)
        self.lam = res.lam

    def setup_call(self):
        return iggl.core.first_iteration_s(self.problem)

    def invoke(self):
        return iggl.cli.main(["path", "--data", self.data, "--config", self.config,
                              "--out", self.out, "--table", self.table])

    def outcome(self, rc):
        if rc not in (iggl.cli.EXIT_OK, iggl.cli.EXIT_NONCONVERGED):
            raise RuntimeError(f"iggl path exited with code {rc}")
        with open(self.out, encoding="utf-8") as fh:
            doc = json.load(fh)
        W = np.asarray(doc["W"], dtype=float)
        lam = float(doc["lambda"])
        if lam != self.lam:
            raise RuntimeError(f"selected lambda {lam!r} differs from the library path's {self.lam!r}")
        with open(self.table, newline="", encoding="utf-8") as fh:
            failed_rows = sum(row["converged"] == "failed" for row in csv.DictReader(fh))
        failed_fits = max(failed_rows, sum(b is None for b in doc["selection"]["bic"]))
        out = Outcome(W=W, phi=float(doc["phi"]), F_trace=doc["objective_trace"], converged=doc["converged"],
                      S_final=self.S_final, lam=lam, inner_tol=self.problem.inner_tol, W_direct=self.W_direct,
                      S_direct=self.S_direct, S_sample=self.S_sample, failed_fits=failed_fits)
        return out, quality(W, self.W_true, doc["objective_trace"][-1])


def make_pool(name, seed, workdir, sizes=None, corpus=0):
    """The instances of workload ``name`` for run seed ``seed``, and their size."""
    size = dict(SIZES[name], **(sizes or {}))
    m, n = size["m"], size["n"]
    pool = []
    for i in range(size["pool"]):
        if name == "mixed_inner":
            pool.append(mixed_instance(seed, corpus, i, m, n))
        elif name == "binary_chain":
            pool.append(binary_instance(seed, corpus, i, m, n))
        else:
            pool.append(PathInstance(seed, corpus, i, m, n, workdir))
    return pool, size


WORKLOADS = tuple(SIZES)
