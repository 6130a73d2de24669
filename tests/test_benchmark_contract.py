"""The benchmark's tracer (perfbench/spans.py) against the package it traces.

The tracer rebinds module-level names of ``iggl.core``, ``iggl.select``,
``iggl.cli`` and ``numpy.linalg`` by name, so deleting or renaming one of
them makes every traced benchmark run fail.  These tests install and
restore a tracer the way a traced run does.
"""

import importlib.util
import os

import numpy as np

import iggl.cli
import iggl.core
import iggl.select
from iggl import FitProblem

from helpers import loss_map_for, synth_data

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_rebinds_names_that_exist_and_restores_them():
    spans = load_spans()
    modules = (iggl.core, iggl.select, iggl.cli, np.linalg)
    before = [dict(vars(module)) for module in modules]
    tracer = spans.Tracer()
    try:
        tracer.install()  # raises AttributeError for a name the package no longer has
        rebound = {(module.__name__, name) for module, old in zip(modules, before)
                   for name in set(vars(module)) | set(old) if vars(module).get(name) is not old.get(name)}
    finally:
        tracer.restore()
    assert {("iggl.core", "poisson_preprocess"), ("iggl.core", "loss_value"), ("iggl.cli", "open")} <= rebound
    for module, old in zip(modules, before):
        assert set(vars(module)) == set(old), module.__name__
        assert all(vars(module)[name] is value for name, value in old.items()), module.__name__


def test_tracer_counts_the_inner_solvers_lapack_calls():
    # the solver must look up np.linalg.inv and np.linalg.cholesky at call
    # time; a name bound once at import would read 0 in both per-layer metrics
    Y = synth_data("bernoulli", 5, 200, seed=74)
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        iggl.core.fit(FitProblem(Y=Y, losses=loss_map_for("bernoulli", Y), lam=0.05, max_outer=3))
    finally:
        tracer.restore()
    assert tracer.counters["glasso.inv_calls"] > 0
    assert tracer.counters["glasso.chol_calls"] > 0


def test_traced_set_up_records_the_prepare_span():
    # core.prepare_s sums the spans of estimate_intercepts, poisson_preprocess and choose_phi, which
    # _prepare must call through iggl.core's globals; a name bound locally would read 0
    Y = synth_data("bernoulli", 5, 200, seed=75)
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        iggl.core.first_iteration_s(FitProblem(Y=Y, losses=loss_map_for("bernoulli", Y), lam=0.05))
    finally:
        tracer.restore()
    assert tracer.summary()[2]["core.prepare"] >= 1
