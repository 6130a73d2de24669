"""Span tracing of the iggl package from outside, by rebinding module names.

The package is never edited.  While a :class:`Tracer` is installed, the
module-level names that each layer calls through (``iggl.core.solve_ggl``,
``iggl.core.batch_grad``, ``iggl.select.fit``, ``iggl.cli.read_csv_matrix``
and so on) point to wrappers that record a span around the original call.
:meth:`Tracer.restore` puts every original object back, so code timed
without tracing runs the unmodified package.

A span is ``(name, start, end, parent, call)``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``call`` numbers the benchmark
operation the span belongs to.  Spans stay in memory until the run ends.
Calls made tens of thousands of times per fit (``numpy.linalg.inv`` and
``cholesky`` inside the inner solver, ``loss_value`` inside the intercept
search) are counted and timed as counters instead of spans.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

import numpy as np

import iggl.cli
import iggl.core
import iggl.select

# span name -> layer, where the layer is not the prefix of the name: the
# fits that the path runs are the core outer loop, called from select
_LAYER_OVERRIDE = {"select.fit": "core"}
LAYERS = ("core", "losses", "glasso", "select", "cli")

# inner-solver spans; numpy.linalg calls are counted only inside them
_GLASSO_SPAN = "glasso.solve"


def layer_of(name):
    return _LAYER_OVERRIDE.get(name, name.split(".", 1)[0])


class _TracedFile:
    """A file opened for writing by the CLI; its span ends when it closes."""

    def __init__(self, fh, tracer, span, path):
        self._fh, self._tracer, self._span, self._path = fh, tracer, span, path

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def close(self):
        if self._span is None:
            return
        self._fh.close()
        self._tracer.counters["cli.write_bytes"] += os.path.getsize(self._path)
        self._tracer.end(self._span)
        self._span = None

    def __getattr__(self, name):
        return getattr(self._fh, name)


class Tracer:
    """In-memory spans and counters for calls into the iggl layers."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.call = 0
        self._stack = []
        self._saved = []
        self._glasso_open = 0

    # -- spans ---------------------------------------------------------

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.call])
        self._stack.append(len(self.spans) - 1)
        self._glasso_open += name == _GLASSO_SPAN
        return len(self.spans) - 1

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")
        self._glasso_open -= self.spans[idx][0] == _GLASSO_SPAN

    def _innermost(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    # -- rebinding -----------------------------------------------------

    def _rebind(self, module, attr, wrapper):
        had = attr in vars(module)
        self._saved.append((module, attr, vars(module).get(attr), had))
        setattr(module, attr, wrapper)

    def _spanned(self, name, original, after=None):
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self.counters[name + ".raised"] += 1
                raise
            finally:
                self.end(idx)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, name, original, glasso_only=False):
        def wrapper(*args, **kwargs):
            if glasso_only and not self._glasso_open:
                return original(*args, **kwargs)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.counters[name + "_s"] += time.perf_counter() - start
                self.counters[name + "_calls"] += 1

        return wrapper

    def install(self):
        """Rebind every traced name; :meth:`restore` undoes it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        core, select, cli = iggl.core, iggl.select, iggl.cli
        c = self.counters

        def after_solve(args, est):
            inst = args[0]
            c["glasso.inner_iters"] += est.iterations
            c["glasso.capped_solves"] += int(not est.converged and est.iterations >= inst.max_iter)
            c["glasso.max_kkt"] = max(c["glasso.max_kkt"], float(est.kkt_residual))

        def after_batch(args, _):
            c["losses.entries"] += np.size(args[1])

        def after_fit(args, res):
            c["core.outer_iters"] += res.state.k
            c["core.fits"] += 1
            c["core.converged_fits"] += int(res.converged)

        def after_select_fit(args, res):
            after_fit(args, res)
            c["select.inner_iters"] += sum(res.state.inner_iterations)

        def after_read(args, _):
            c["cli.read_bytes"] += os.path.getsize(args[0])

        def after_dump(args, _):
            c["cli.write_bytes"] += os.path.getsize(args[1])

        spanned = {
            core: {
                "fit": ("core.fit", after_fit),
                "solve_ggl": ("glasso.solve", after_solve),
                "batch_grad": ("losses.grad", after_batch),
                "batch_value": ("losses.value", after_batch),
                "estimate_intercepts": ("core.prepare", None),
                "poisson_preprocess": ("core.prepare", None),
                "choose_phi": ("core.prepare", None),
                "outer_objective": ("core.objective", None),
                "theta_update": ("core.theta_update", None),
                "spectral_norm": ("core.spectral_norm", None),
            },
            select: {
                "fit": ("select.fit", after_select_fit),
                "bic": ("select.bic", None),
            },
            cli: {
                "main": ("cli.main", None),
                "read_csv_matrix": ("cli.read", after_read),
                "load_config": ("cli.read", after_read),
                "_dump_json": ("cli.write", after_dump),
                "fit_path": ("select.fit_path", None),
                "first_iteration_s": ("core.first_iteration", None),
            },
        }
        for module, names in spanned.items():
            for attr, (name, after) in names.items():
                self._rebind(module, attr, self._spanned(name, getattr(module, attr), after))
        self._rebind(core, "loss_value", self._counted("losses.setup_value", core.loss_value))
        self._rebind(np.linalg, "inv", self._counted("glasso.inv", np.linalg.inv, glasso_only=True))
        self._rebind(np.linalg, "cholesky", self._counted("glasso.chol", np.linalg.cholesky, glasso_only=True))
        # the CLI writes its path table through the builtin ``open``; a
        # module global of that name shadows the builtin inside iggl.cli
        self._rebind(cli, "open", self._traced_open)

    def _traced_open(self, file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        if not any(ch in mode for ch in "wax") or self._innermost() == "cli.write":
            return fh
        return _TracedFile(fh, self, self.begin("cli.write"), file)

    def restore(self):
        """Put back every original object, deleting names that were added."""
        while self._saved:
            module, attr, original, had = self._saved.pop()
            if had:
                setattr(module, attr, original)
            else:
                delattr(module, attr)

    # -- output --------------------------------------------------------

    def write_jsonl(self, path, header):
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for name, start, end, parent, call in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "call": call}) + "\n")

    def summary(self):
        """Per span name: inclusive seconds, self seconds and count."""
        incl = defaultdict(float)
        self_s = defaultdict(float)
        count = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            incl[name] += dur
            self_s[name] += dur
            count[name] += 1
            if parent >= 0:
                self_s[self.spans[parent][0]] -= dur
        return incl, self_s, count
