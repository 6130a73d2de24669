"""The benchmark's tracer (perfbench/spans.py) against the package it traces.

The tracer rebinds module-level names of ``iggl.core``, ``iggl.select``,
``iggl.cli`` and ``numpy.linalg`` by name, so deleting or renaming one of
them makes every traced benchmark run fail.  This test installs and
restores a tracer the way a traced run does.
"""

import importlib.util
import os

import numpy as np

import iggl.cli
import iggl.core
import iggl.select

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "spans.py")


def test_tracer_rebinds_names_that_exist_and_restores_them():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
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
