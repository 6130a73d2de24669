"""Benchmark of the iggl estimator: time to solution and graph quality.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload mixed_inner --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

One run is one process with BLAS pinned to one thread, calling the package
in a closed loop: one fit or CLI call at a time, cycling through the
workload's pool of instances (see ``workloads.py``) until ``--seconds`` have
passed and every instance has run at least once.  Each call is bracketed by
rounds of a fixed reference computation that gauge the machine's speed
(see ``reference.py``).  The instances are built during an untimed set-up:
their data from ``--corpus`` (default 0), the order of their rows from
``--seed``.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones (see
``END_TO_END``).  With ``--trace 1`` each instance is called alternately
without and with the tracer of ``spans.py``, in whole rounds, and the
per-layer metrics are reported per call; the spans are written to
``.perfbench_out/`` under the checkout.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import iggl  # noqa: E402

if not os.path.abspath(iggl.__file__).startswith(SRC + os.sep):
    raise ImportError(f"iggl was imported from {iggl.__file__}, not from {SRC}")

from reference import Reference  # noqa: E402
from spans import LAYERS, Tracer, layer_of  # noqa: E402
from workloads import WORKLOADS, check, make_pool  # noqa: E402

END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "edge_f1": "1",
}

PER_LAYER = {
    "core.outer_iters": "count",
    "core.prepare_s": "s",
    "core.objective_s": "s",
    "core.theta_update_s": "s",
    "core.spectral_norm_s": "s",
    "core.spectral_norm_calls": "count",
    "core.self_s": "s",
    "core.final_objective": "1",
    "core.edges": "count",
    "core.converged_frac": "1",
    "losses.grad_s": "s",
    "losses.value_s": "s",
    "losses.batch_calls": "count",
    "losses.entries_per_s": "1/s",
    "losses.setup_value_calls": "count",
    "glasso.solve_s": "s",
    "glasso.solves": "count",
    "glasso.inner_iters": "count",
    "glasso.s_per_inner_iter": "s",
    "glasso.capped_solves": "count",
    "glasso.max_kkt": "1",
    "glasso.inv_s": "s",
    "glasso.inv_calls": "count",
    "glasso.chol_s": "s",
    "glasso.chol_calls": "count",
    "glasso.chol_per_inner_iter": "1",
    "select.fits": "count",
    "select.failed_fits": "count",
    "select.fit_s": "s",
    "select.bic_s": "s",
    "select.inner_iters_per_fit": "count",
    "cli.read_s": "s",
    "cli.read_bytes": "B",
    "cli.write_s": "s",
    "cli.write_bytes": "B",
    "cli.self_s": "s",
    "failed_frac": "1",
    "trace.overhead_frac": "1",
    "trace.traced_solve_s": "s",
    "trace.untraced_solve_s": "s",
}


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ[k] for k in BLAS_PIN},
        "iggl": iggl.__version__,
    }


class Run:
    """Timed calls on a pool of instances, with their check results."""

    def __init__(self, pool):
        self.pool = pool
        self.times = [[] for _ in pool]
        self.scaled = [[] for _ in pool]
        self.setup_scaled = [[] for _ in pool]
        self.ref_times = []
        self.attempted = 0
        self.failed = 0
        self.converged = 0
        self.problems = []
        self.quality = [None] * len(pool)

    def call(self, i, tracer=None):
        """One operation on instance ``i``; returns its wall seconds or None."""
        inst = self.pool[i]
        self.attempted += 1
        try:
            if tracer is not None:
                tracer.install()
            try:
                start = time.perf_counter()
                raw = inst.invoke()
                elapsed = time.perf_counter() - start
            finally:
                if tracer is not None:
                    tracer.restore()
            out, qual = inst.outcome(raw)
            problems = check(out)
        except Exception:  # any error in an operation counts it as failed
            problems = [traceback.format_exc(limit=-3)]
        if problems:
            self.failed += 1
            self.problems.append({"instance": i, "problems": problems})
            return None
        self.quality[i] = qual
        self.converged += bool(out.converged)
        return elapsed


def mean_of_minima(times):
    """Mean over instances of each instance's fastest call."""
    return statistics.fmean(min(t) for t in times)


def mean_of_medians(times):
    """Mean over instances of each instance's median call."""
    return statistics.fmean(statistics.median(t) for t in times)


def timed_setup(inst):
    """Wall seconds of one ``first_iteration_s`` call on ``inst``."""
    start = time.perf_counter()
    inst.setup_call()
    return time.perf_counter() - start


def measure(run, seconds, ref, setup_repeats):
    """Cycle through the pool for ``seconds``, each instance at least once.

    A call that its instance's last time says would end after the deadline
    is not started.  Each timed call is followed by ``setup_repeats`` timed
    set-up calls on the same instance, and each such group is bracketed by
    reference timings; the group's times are scaled by the reference
    speed, ``ref.seconds`` over the mean of the two bracketing timings.
    """
    run.ref_times.append(ref.time())
    start = time.perf_counter()
    for k in itertools.count():
        i = k % len(run.pool)
        if k >= len(run.pool) and time.perf_counter() - start + (run.times[i] or [0.0])[-1] > seconds:
            return
        t = run.call(i)
        setups = [timed_setup(run.pool[i]) for _ in range(setup_repeats)]
        run.ref_times.append(ref.time())
        scale = ref.seconds / statistics.fmean(run.ref_times[-2:])
        if t is not None:
            run.times[i].append(t)
            run.scaled[i].append(t * scale)
        run.setup_scaled[i].extend(s * scale for s in setups)


def measure_traced(run, seconds, tracer):
    """Whole rounds of one untraced and one traced call per instance.

    The traced call goes second in even rounds and first in odd ones.
    """
    untraced = [[] for _ in run.pool]
    traced = [[] for _ in run.pool]
    start = time.perf_counter()
    for rnd in itertools.count():
        round_start = time.perf_counter()
        for i in range(len(run.pool)):
            for with_trace in (rnd % 2 == 1, rnd % 2 == 0):
                if with_trace:
                    tracer.call += 1
                t = run.call(i, tracer if with_trace else None)
                if t is not None:
                    (traced if with_trace else untraced)[i].append(t)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return untraced, traced


def end_to_end_metrics(run):
    quality = [q for q in run.quality if q is not None]
    return {
        "solve_s": mean_of_medians(run.scaled),
        "setup_s": mean_of_medians(run.setup_scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "edge_f1": statistics.fmean(q["f1"] for q in quality),
    }


def per_layer_metrics(run, tracer, untraced, traced):
    incl, self_s, count = tracer.summary()
    c = tracer.counters
    calls = max(tracer.call, 1)
    inner = c["glasso.inner_iters"]
    batch_s = incl["losses.grad"] + incl["losses.value"]
    quality = [q for q in run.quality if q is not None]
    t_untraced = mean_of_minima(untraced)
    t_traced = mean_of_minima(traced)
    m = {
        "core.outer_iters": c["core.outer_iters"] / calls,
        "core.prepare_s": incl["core.prepare"] / calls,
        "core.objective_s": incl["core.objective"] / calls,
        "core.theta_update_s": incl["core.theta_update"] / calls,
        "core.spectral_norm_s": incl["core.spectral_norm"] / calls,
        "core.spectral_norm_calls": count["core.spectral_norm"] / calls,
        "core.self_s": sum(self_s[k] for k in ("core.fit", "select.fit", "core.first_iteration")) / calls,
        "core.final_objective": statistics.fmean(q["final_objective"] for q in quality),
        "core.edges": statistics.fmean(q["edges"] for q in quality),
        "core.converged_frac": c["core.converged_fits"] / max(c["core.fits"], 1),
        "losses.grad_s": incl["losses.grad"] / calls,
        "losses.value_s": incl["losses.value"] / calls,
        "losses.batch_calls": (count["losses.grad"] + count["losses.value"]) / calls,
        "losses.entries_per_s": c["losses.entries"] / batch_s if batch_s > 0 else 0.0,
        "losses.setup_value_calls": c["losses.setup_value_calls"] / calls,
        "glasso.solve_s": incl["glasso.solve"] / calls,
        "glasso.solves": count["glasso.solve"] / calls,
        "glasso.inner_iters": inner / calls,
        "glasso.s_per_inner_iter": incl["glasso.solve"] / inner if inner else 0.0,
        "glasso.capped_solves": c["glasso.capped_solves"] / calls,
        "glasso.max_kkt": c["glasso.max_kkt"],
        "glasso.inv_s": c["glasso.inv_s"] / calls,
        "glasso.inv_calls": c["glasso.inv_calls"] / calls,
        "glasso.chol_s": c["glasso.chol_s"] / calls,
        "glasso.chol_calls": c["glasso.chol_calls"] / calls,
        "glasso.chol_per_inner_iter": c["glasso.chol_calls"] / inner if inner else 0.0,
        "select.fits": count["select.fit"] / calls,
        "select.failed_fits": c["select.fit.raised"] / calls,
        "select.fit_s": incl["select.fit"] / calls,
        "select.bic_s": incl["select.bic"] / calls,
        "select.inner_iters_per_fit": c["select.inner_iters"] / count["select.fit"] if count["select.fit"] else 0.0,
        "cli.read_s": incl["cli.read"] / calls,
        "cli.read_bytes": c["cli.read_bytes"] / calls,
        "cli.write_s": incl["cli.write"] / calls,
        "cli.write_bytes": c["cli.write_bytes"] / calls,
        "cli.self_s": self_s["cli.main"] / calls,
        "failed_frac": run.failed / run.attempted,
        "trace.overhead_frac": t_traced / t_untraced - 1.0,
        "trace.traced_solve_s": t_traced,
        "trace.untraced_solve_s": t_untraced,
    }
    return m, layer_shares(self_s)


def layer_shares(self_s):
    """Each layer's share of the traced time, from the self time of each span name.

    Inner-solver ``numpy.linalg`` calls are counters, not spans, so they
    stay inside the ``glasso`` layer's self time.
    """
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for name, s in self_s.items():
        by_layer[layer_of(name)] += s
    total = sum(by_layer.values())
    return {k: round(v / total, 4) for k, v in by_layer.items()} if total > 0 else by_layer


def run_workload(name, seed, seconds, trace, sizes=None, out_dir=None, corpus=0):
    """Set up, measure and check one workload; return (result, detail)."""
    workdir = os.path.join(ROOT, ".perfbench_work", f"{name}-{os.getpid()}")
    try:
        pool, size = make_pool(name, seed, workdir, sizes, corpus)
        run = Run(pool)
        detail = {"workload": name, "seed": seed, "corpus": corpus, "env": environment(), "pool": len(pool)}
        metrics = {}
        if not trace:
            units = END_TO_END
            ref = Reference(name, size["m"], size["n"])
            measure(run, seconds, ref, size["setup_repeats"])
            if run.failed == 0:
                metrics = end_to_end_metrics(run)
                detail["wall"] = {"solve_s_fastest": mean_of_minima(run.times),
                                  "solve_s_median": mean_of_medians(run.times),
                                  "reference_s_median": statistics.median(run.ref_times),
                                  "reference_s": ref.seconds,
                                  "timed_calls": sum(map(len, run.scaled)),
                                  "timed_setup_calls": sum(map(len, run.setup_scaled))}
        else:
            units = PER_LAYER
            tracer = Tracer()
            untraced, traced = measure_traced(run, seconds, tracer)
            if run.failed == 0:
                metrics, detail["layer_share"] = per_layer_metrics(run, tracer, untraced, traced)
                path = os.path.join(out_dir or os.path.join(ROOT, ".perfbench_out"),
                                    f"spans-{name}-corpus{corpus}-seed{seed}.jsonl")
                tracer.write_jsonl(path, detail)
                detail["spans_file"] = os.path.relpath(path, ROOT)
        # both read 0 on some workload, which a metric may not, so they are
        # reported here and, per fit, by the traced run
        detail["failed_frac"] = run.failed / run.attempted
        detail["converged_frac"] = run.converged / max(run.attempted - run.failed, 1)
        detail["problems"] = run.problems[:5]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            os.rmdir(os.path.dirname(workdir))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items() if k in metrics},
    }
    return result, detail


def run_all(args):
    """Run every workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--corpus", str(args.corpus)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(json.dumps({"workload": name, "returncode": proc.returncode}))
            status = 1
            continue
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        for key, metric in result["metrics"].items():
            print(f"{name:13s} {key:28s} {metric['value']:.6g} {metric['unit']}")
        for key in ("failed_frac", "converged_frac"):
            print(f"{name:13s} {key:28s} {detail[key]:.6g} 1")
        print(json.dumps({"workload": name, **result}))
        status |= not result["correct"]
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus", type=int, default=0,
                        help="data draws of the instances; 0 is the benchmark's, others are held out")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), corpus=args.corpus)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
