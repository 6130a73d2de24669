"""Self-tests of the benchmark at tiny sizes.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run as bench  # pins BLAS threads and puts the checkout's src first on sys.path
import iggl.cli
import iggl.core
import iggl.select
from spans import Tracer
from workloads import Outcome, check, make_pool

TINY = {
    "mixed_inner": {"m": 6, "n": 60, "pool": 2, "setup_repeats": 2},
    "binary_chain": {"m": 5, "n": 200, "pool": 2, "setup_repeats": 2},
    "gauss_path": {"m": 6, "n": 100, "pool": 1, "setup_repeats": 2},
}


def _spec():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _declared(kind):
    return {m["name"]: m["unit"] for m in _spec()[kind]}


def test_listed_workloads_exist():
    assert {w["name"] for w in _spec()["workloads"]} <= set(bench.WORKLOADS)


def _run(name, trace, tmp_path):
    return bench.run_workload(name, seed=3, seconds=0, trace=trace, sizes=TINY[name], out_dir=str(tmp_path))


def _snapshot():
    modules = (iggl.core, iggl.select, iggl.cli, np.linalg)
    return {m.__name__: dict(vars(m)) for m in modules}


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_end_to_end_metrics_printed_with_units(name, tmp_path):
    result, _ = _run(name, False, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= TINY[name]["pool"]
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == bench.END_TO_END == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_traced_run_reports_layers_and_restores_names(name, tmp_path):
    before = _snapshot()
    result, detail = _run(name, True, tmp_path)
    after = _snapshot()
    assert result["correct"]
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == bench.PER_LAYER == _declared("per_layer")
    for module, names in before.items():
        assert after[module].keys() == names.keys(), f"{module}: a rebound name survived"
        changed = [k for k in names if after[module][k] is not names[k]]
        assert not changed, f"{module}: {changed} not restored"
    with open(os.path.join(bench.ROOT, detail["spans_file"]), encoding="utf-8") as fh:
        assert json.loads(fh.readline())["workload"] == name
        assert sum(1 for _ in fh) > 0


def test_calls_are_scaled_by_the_bracketing_reference_timings(tmp_path):
    class FixedReference:
        seconds = 1.0

        def __init__(self):
            self.times = iter([2.0, 4.0, 8.0])

        def time(self):
            return next(self.times)

    pool, _ = make_pool("binary_chain", 3, str(tmp_path), TINY["binary_chain"])
    run = bench.Run(pool)
    bench.measure(run, 0, FixedReference(), setup_repeats=1)
    assert run.ref_times == [2.0, 4.0, 8.0]
    assert run.scaled == [[pytest.approx(run.times[0][0] / 3.0)], [pytest.approx(run.times[1][0] / 6.0)]]
    assert len(run.setup_scaled[0]) == len(run.setup_scaled[1]) == 1


def test_injected_invalid_fit_counts_as_failure(tmp_path, monkeypatch):
    original = iggl.core.fit

    def asymmetric(problem, W_init=None):
        res = original(problem, W_init)
        res.estimate.W[0, 1] += 1e-3
        return res

    monkeypatch.setattr(iggl.core, "fit", asymmetric)
    result, detail = _run("binary_chain", False, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"] == {}
    assert "symmetric" in detail["problems"][0]["problems"][0]


def test_cli_error_exit_counts_as_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(iggl.cli, "main", lambda argv: iggl.cli.EXIT_INPUT)
    result, _ = _run("gauss_path", False, tmp_path)
    assert result["failed"] == result["attempted"] > 0 and not result["correct"]


def test_failed_fit_within_a_path_counts_as_failure(tmp_path, monkeypatch):
    original = iggl.cli.fit_path

    def one_fit_fails(problem, lambdas, **kwargs):
        path = original(problem, lambdas, **kwargs)
        k = 0 if path.selected_index else 1
        path.fits[k] = None
        path.bic[k] = np.inf
        return path

    monkeypatch.setattr(iggl.cli, "fit_path", one_fit_fails)
    result, detail = _run("gauss_path", False, tmp_path)
    assert result["failed"] == result["attempted"] > 0 and not result["correct"]
    assert "fits of the path failed" in detail["problems"][0]["problems"][0]


def test_check_flags_each_violation():
    W = np.array([[2.0, -0.5], [-0.5, 2.0]])
    S = np.linalg.inv(W)
    good = Outcome(W=W, phi=0.1, F_trace=[3.0, 2.0, 2.0], converged=True, S_final=S, lam=0.0, inner_tol=1e-7)
    assert check(good) == []
    bad = [
        dict(W=np.array([[1.0, 2.0], [2.0, 1.0]])),
        dict(phi=1.0),
        dict(F_trace=[2.0, 2.0 + 1e-6]),
        dict(S_final=S + 0.1),
        dict(W_direct=W + 1e-9),
        dict(S_direct=S + 1e-9, S_sample=S),
        dict(failed_fits=1),
    ]
    for change in bad:
        assert check(Outcome(**{**good.__dict__, **change})), change


def test_self_time_subtracts_children():
    tracer = Tracer()
    outer = tracer.begin("core.fit")
    inner = tracer.begin("glasso.solve")
    tracer.end(inner)
    tracer.end(outer)
    incl, self_s, count = tracer.summary()
    spans = tracer.spans
    assert self_s["glasso.solve"] == incl["glasso.solve"] == spans[inner][2] - spans[inner][1]
    assert self_s["core.fit"] == pytest.approx(incl["core.fit"] - incl["glasso.solve"])
    assert count == {"core.fit": 1, "glasso.solve": 1}


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "binary_chain", "--seed", "1", "--seconds", "1",
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
