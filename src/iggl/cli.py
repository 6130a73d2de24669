"""Batch command-line interface.

Four subcommands: ``fit`` (one penalty or BIC-selected), ``path`` (full
penalty path with a per-penalty table), ``simulate`` (synthetic data with
known ground truth), and ``metrics`` (compare two precision matrices).
Inputs are headered CSV plus a JSON config; outputs are result JSON, DOT
graphs, and CSV tables.  Exit codes: 0 success, 1 input or config error
or an output that cannot be written, 2 non-convergence (the result file is
still written, flagged), 3 numerical failure of the solver (no result is
written).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import re
import sys
import warnings
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .core import FitProblem, _prepare, fit, first_iteration_s
from .datagen import GENERATOR_ID, GraphPattern, make_precision, sample_gaussian, sample_glm
from .glasso import check_symmetric, log_det_pd
from .losses import LOSS_KINDS, loss_from_config
from .select import EDGE_EPS, bregman_sym, degrees_of_freedom, edge_mask, edge_metrics, fit_path, lambda_grid

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NONCONVERGED = 2
EXIT_NUMERICAL = 3

SCHEMA_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "config.schema.json")
with open(SCHEMA_PATH, "r", encoding="utf-8") as _fh:
    _SCHEMA = json.load(_fh)
_JSON_TYPES = {"string": str, "boolean": bool, "integer": int, "number": (int, float), "object": dict, "array": list}
# the config keys that set FitProblem options; an unset key leaves FitProblem's default
_PROBLEM_KEYS = ("phi_c", "outer_tol", "max_outer", "penalize_diagonal", "inner_tol", "inner_max_iter")


class InputError(ValueError):
    """Bad data, config, or command line; maps to exit code 1."""


# ---------------------------------------------------------------------------
# data and config ingestion
# ---------------------------------------------------------------------------

def read_csv_matrix(path):
    """Read a headered numeric CSV into (names, matrix).

    Missing or non-numeric cells are rejected with a line/column diagnostic;
    imputation is out of scope.  numpy's C reader parses the body in one
    streaming pass, with the correctly rounded conversion of ``float``.  A
    body it rejects, or reads into another shape or with a non-finite value,
    is walked again row by row with ``float`` on each cell: that walk returns
    the matrix for the cells only ``float`` accepts (``1_000``, non-ASCII
    digits) and otherwise names the first bad row or cell.
    """
    try:
        fh = open(path, "r", newline="", encoding="utf-8-sig")  # a byte-order mark is not part of the header
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from None
    with fh:
        reader = _rows(fh, path)
        try:
            _, names = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file") from None
        names = [c.strip() for c in names]
        if len(set(names)) != len(names):
            raise InputError(f"{path}: duplicate column names in header")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # an empty body, which the row walk names
                Y = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=2, dtype=float)
        except ValueError:
            Y = None
        if Y is not None and len(Y) and Y.shape[1] == len(names) and np.all(np.isfinite(Y)):
            return names, Y
        fh.seek(0)
        reader = _rows(fh, path)
        next(reader)
        rows = []
        for lineno, row in reader:
            if not row:
                continue
            if len(row) != len(names):
                raise InputError(f"{path}: line {lineno}: expected {len(names)} fields, got {len(row)}")
            try:
                vals = np.asarray(row, dtype=float)  # float() on each str, as in _bad_cell
            except ValueError:
                vals = None
            if vals is None or not np.all(np.isfinite(vals)):
                raise _bad_cell(path, lineno, row, names)
            rows.append(vals)
    if not rows:
        raise InputError(f"{path}: no data rows")
    return names, np.asarray(rows)


def _rows(fh, path):
    """``csv.reader``'s rows of ``fh``, each with the physical line it ends on; a ``csv.Error`` names its line."""
    reader = csv.reader(fh)
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise InputError(f"{path}: line {reader.line_num}: {exc}") from None


def _bad_cell(path, lineno, row, names):
    """The diagnostic of the row's first missing, non-numeric or non-finite cell."""
    for cell, name in zip(row, names):
        cell = cell.strip()
        if not cell:
            return InputError(f"{path}: line {lineno}, column {name}: missing value")
        try:
            v = float(cell)
        except ValueError:
            return InputError(f"{path}: line {lineno}, column {name}: not numeric: {cell!r}")
        if not math.isfinite(v):
            return InputError(f"{path}: line {lineno}, column {name}: non-finite value")


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from None


def load_config(path):
    cfg = _read_json(path)
    if not isinstance(cfg, dict):
        raise InputError(f"{path}: config must be a JSON object")
    _check_object(cfg, path)
    for key in ("lambda", "mean"):  # the object alternatives of their oneOf
        if isinstance(cfg.get(key), dict):
            _check_object(cfg[key], f"config: {key}", key)
    return cfg


def _check_object(obj, where, *path):
    """Reject keys of config object ``obj`` that its schema object lacks, and values of the wrong type.

    ``path`` names the properties from the schema root down to the object;
    an array stands for its items and a ``oneOf`` for its object alternative.
    A value is checked when its schema node has a plain ``type``: a boolean
    is not a number, an integer must be a JSON integer, and a number is
    stored back as a float.
    """
    node = _SCHEMA
    for name in path:
        node = _schema_object(node)["properties"][name]
    props = _schema_object(node)["properties"]
    unknown = sorted(set(obj) - set(props))
    if unknown:
        raise InputError(f"{where}: unknown config key {', '.join(map(repr, unknown))}")
    for key, value in obj.items():
        kind = props[key].get("type")
        if kind and (not isinstance(value, _JSON_TYPES[kind]) or isinstance(value, bool) != (kind == "boolean")):
            raise InputError(f"{where}: {key!r} must be of type {kind}")
        if kind == "number":
            try:
                obj[key] = float(value)
            except OverflowError:
                raise InputError(f"{where}: {key!r} is out of range") from None


def _schema_object(node):
    node = node.get("items", node)
    return next(alt for alt in node.get("oneOf", [node]) if alt.get("type") == "object")


def _parse_loss_spec(spec, where):
    """A loss spec is either a kind string or a one-key {kind: params} object."""
    if isinstance(spec, str):
        kind, params = spec, {}
    elif isinstance(spec, dict) and len(spec) == 1:
        kind, params = next(iter(spec.items()))
        if not isinstance(params, dict):
            raise InputError(f"{where}: loss parameters must be an object")
    else:
        raise InputError(f"{where}: loss spec must be a kind string or a one-key object")
    if kind not in LOSS_KINDS:
        raise InputError(f"{where}: unknown loss {kind!r}; expected one of {LOSS_KINDS}")
    return kind, params


def _parse_range(text, m, where):
    try:
        start_s, stop_s = text.split(":")
        start, stop = int(start_s), int(stop_s)
    except ValueError:
        raise InputError(f"{where}: column range must look like 'start:stop'") from None
    if not 0 <= start < stop <= m:
        raise InputError(f"{where}: range {text!r} out of bounds for {m} columns")
    return range(start, stop)


def resolve_column_losses(cfg, names, Y):
    """Assign exactly one loss spec per column, then build the losses.

    Precedence: explicit column names, then index ranges (later entries
    win), then the default.  A column is read only for the robust scale of
    ``*_mult`` cutoffs; its domain is checked once, by ``_prepare``.
    """
    m = len(names)
    section = cfg.get("losses", "quadratic")
    if isinstance(section, (str,)) or (isinstance(section, dict) and len(section) == 1 and next(iter(section)) in LOSS_KINDS):
        section = {"default": section}
    if not isinstance(section, dict):
        raise InputError("config: 'losses' must be an object")
    _check_object(section, "config: losses", "losses")
    specs = [None] * m
    default = section.get("default")
    if default is not None:
        kind_params = _parse_loss_spec(default, "losses.default")
        specs = [kind_params] * m
    for i, entry in enumerate(section.get("ranges", [])):
        where = f"losses.ranges[{i}]"
        if not isinstance(entry, dict) or "columns" not in entry or "loss" not in entry:
            raise InputError(f"{where}: need 'columns' and 'loss'")
        _check_object(entry, where, "losses", "ranges")
        kp = _parse_loss_spec(entry["loss"], where)
        for k in _parse_range(entry["columns"], m, where):
            specs[k] = kp
    by_name = section.get("columns", {})
    index = {name: k for k, name in enumerate(names)}
    for name, spec in by_name.items():
        if name not in index:
            raise InputError(f"losses.columns: no such column {name!r}")
        specs[index[name]] = _parse_loss_spec(spec, f"losses.columns[{name}]")
    missing = [names[k] for k in range(m) if specs[k] is None]
    if missing:
        raise InputError(f"no loss assigned to columns {missing} and no default given")

    losses = []
    for k, (kind, params) in enumerate(specs):
        try:
            losses.append(loss_from_config(kind, params, column=Y[:, k]))
        except ValueError as exc:
            raise InputError(f"column {names[k]!r}: {exc}") from None
    return tuple(losses)


def _lambda_plan(cfg):
    lam = cfg.get("lambda", "auto")
    if isinstance(lam, (int, float)) and not isinstance(lam, bool):
        try:
            return ("fixed", float(lam))  # range checked by fit
        except OverflowError:
            raise InputError("config: 'lambda' is out of range") from None
    if lam == "auto":
        return ("grid", {})  # lambda_grid's default grid
    if isinstance(lam, dict):  # keys and types checked by load_config
        return ("grid", lam)
    raise InputError("config: 'lambda' must be a number, \"auto\", or a grid object")


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

def _dump_json(obj, path):
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def edge_list(W, names, eps):
    """The edges of W (:func:`iggl.select.edge_mask`), row by row."""
    return [{"i": i, "j": j, "source": names[i], "target": names[j], "weight": float(W[i, j])}
            for i, j in np.argwhere(edge_mask(W, eps)).tolist()]


def write_dot(path, names, edges, drop_isolated=False):
    """Graphviz undirected graph: each edge once, nodes quoted from the header."""
    connected = set()
    for e in edges:
        connected.add(e["i"])
        connected.add(e["j"])
    lines = ["graph {"]
    for k, name in enumerate(names):
        if drop_isolated and k not in connected:
            continue
        lines.append(f'  {_dot_quote(name)};')
    for e in edges:
        lines.append(f'  {_dot_quote(e["source"])} -- {_dot_quote(e["target"])} [weight={e["weight"]!r}];')
    lines.append("}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_table(out, path):
    """The path table: one row per penalty, ``failed`` where its fit raised; ``df`` is the one its BIC counted."""
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["lambda", "objective", "df", "bic", "converged"])
        for lam, res, score in zip(path.lambdas, path.fits, path.bic):
            if res is None:
                writer.writerow([repr(float(lam)), "", "", "", "failed"])
            else:
                writer.writerow([repr(float(lam)), repr(float(res.state.F_trace[-1])),
                                 degrees_of_freedom(res.estimate.W), repr(float(score)),
                                 str(bool(res.converged)).lower()])


def _dot_quote(name):
    return '"' + str(name).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _loss_public(loss):
    return {"kind": loss.kind, "params": {k: float(v) for k, v in loss.params.items()},
            "scale_factor": float(loss.scale_factor), "lipschitz": float(loss.lipschitz)}


def fit_result_document(result, names, eps, path=None):
    """The result JSON of ``result``; a path's fit also gets the path's penalties, BIC scores and selected index."""
    W = result.estimate.W
    doc = {
        "format": 1,
        "kind": "fit-result",
        "nodes": list(names),
        "lambda": float(result.lam),
        "phi": float(result.phi),
        "converged": bool(result.converged),
        "outer_iterations": int(result.state.k),
        "inner_iterations": [int(v) for v in result.state.inner_iterations],
        "inner_tols": [float(v) for v in result.state.inner_tols],
        "inner_kkt": [float(v) for v in result.state.inner_kkt],
        "kkt_residual": float(result.estimate.kkt_residual),
        "objective_trace": [float(v) for v in result.state.F_trace],
        "intercepts": None if result.intercepts is None else result.intercepts.tolist(),
        "losses": [_loss_public(l) for l in result.losses],
        "edge_threshold": float(eps),
        "edges": edge_list(W, names, eps),
        "W": W.tolist(),
    }
    if path is not None:
        doc["selection"] = {
            "lambdas": path.lambdas.tolist(),
            "bic": [None if not np.isfinite(b) else float(b) for b in path.bic],
            "selected_index": int(path.selected_index),
        }
    return doc


def load_precision_json(path):
    doc = _read_json(path)
    if not isinstance(doc, dict) or "W" not in doc:
        raise InputError(f"{path}: no 'W' entry")
    W = check_symmetric(doc["W"], f"{path}: 'W'")
    try:
        log_det_pd(W)
    except ValueError:
        raise InputError(f"{path}: 'W' is not positive definite") from None
    return W


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load_run(args):
    """Config with the command-line flags applied over it, column names, and the prepared penalty-free problem."""
    cfg = load_config(args.config) if args.config else {}
    cfg.update((key, v) for key, v in vars(args).items() if v is not None and key in _SCHEMA["properties"])
    if not cfg.get("data"):
        raise InputError("no input data: pass --data or set 'data' in the config")
    eps = cfg.setdefault("edge_threshold", EDGE_EPS)  # checked before any fit
    if not 0.0 < eps < math.inf:
        raise InputError("edge_threshold must be finite and positive")
    names, Y = read_csv_matrix(cfg["data"])
    losses = resolve_column_losses(cfg, names, Y)
    M = None
    mean = cfg.get("mean", "intercept")
    if mean != "intercept":
        if not (isinstance(mean, dict) and set(mean) == {"given"}):
            raise InputError("config: 'mean' must be \"intercept\" or {\"given\": \"path.csv\"}")
        _, M = read_csv_matrix(mean["given"])
        if M.shape != Y.shape:
            raise InputError(f"mean matrix shape {M.shape} does not match data shape {Y.shape}")
    problem = FitProblem(Y=Y, losses=losses, lam=0.0, M=M, **{key: cfg[key] for key in _PROBLEM_KEYS if key in cfg})
    try:
        return cfg, names, _prepare(problem)
    except ValueError as exc:  # its column errors start "column k"; name k by its header
        raise InputError(re.sub(r"^column (\d+)", lambda hit: f"column {names[int(hit[1])]!r}", str(exc))) from None


def _file_key(path):
    """What names a file: its (device, inode) when it exists, so hard links match, else its real path."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def cmd_run(args) -> int:
    """``fit`` and ``path``: one penalty (a one-point path under ``path``) or a BIC path, then their outputs."""
    cfg, names, prepared = _load_run(args)
    mode, lam_spec = _lambda_plan(cfg)
    path = None  # the writers below read path and doc when they are called, after the fit
    eps = cfg["edge_threshold"]
    outputs = [(cfg.get("out", args.default_out), lambda out: _dump_json(doc, out))]
    if args.command == "path":
        outputs.insert(0, (cfg.get("table", "path.csv"), lambda out: write_table(out, path)))
    if cfg.get("dot"):
        outputs.append((cfg["dot"], lambda out: write_dot(out, names, doc["edges"], cfg.get("drop_isolated", False))))
    mean = cfg.get("mean")
    taken = [_file_key(f) for f in (cfg["data"], args.config, isinstance(mean, dict) and mean["given"]) if f]
    for out, _ in outputs:
        if _file_key(out) in taken:
            raise InputError(f"output {out} is an input or another output of this run")
        taken.append(_file_key(out))
    if mode == "fixed" and args.command == "fit":
        result = fit(replace(prepared, problem=replace(prepared.problem, lam=lam_spec)))
    else:
        lambdas = [lam_spec] if mode == "fixed" else lambda_grid(first_iteration_s(prepared), **lam_spec)
        path = fit_path(prepared, lambdas)
        result = path.fits[path.selected_index]
    doc = fit_result_document(result, names, eps, path)
    mine = []  # the files this run wrote
    try:
        for out, write in outputs:
            if not os.path.exists(out):  # created by this run, so removed even if its own write fails
                mine.append(out)
            write(out)
            mine.append(out)
    except OSError:  # an output that cannot be written leaves none of this run's outputs behind
        for out in mine:
            with contextlib.suppress(OSError):
                os.remove(out)
        raise
    return EXIT_OK if result.converged else EXIT_NONCONVERGED


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("IGGL_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InputError(f"IGGL_SEED must be an integer, got {env!r}") from None
    return 0


def cmd_simulate(args) -> int:
    if args.n < 2:
        raise InputError("--n must be at least 2")
    for flag in ("mu", "edge_weight", "diagonal_boost"):
        if not math.isfinite(getattr(args, flag)):
            raise InputError(f"--{flag.replace('_', '-')} must be finite")
    seed = _resolve_seed(args)
    pattern = GraphPattern(
        kind=args.pattern,
        m=args.m,
        edge_weight=args.edge_weight,
        diagonal_boost=args.diagonal_boost,
        sparsity=args.sparsity,
    )
    try:
        W_star = make_precision(pattern, seed=seed)
        if args.family == "gaussian":
            Y = sample_gaussian(args.n, W_star, mu=args.mu, seed=seed)
        else:
            Y = sample_glm(args.n, W_star, args.family, mu=args.mu, seed=seed)
    except ValueError as exc:
        raise InputError(str(exc)) from None

    os.makedirs(args.out_dir, exist_ok=True)
    names = [f"x{k + 1}" for k in range(args.m)]
    data_path = os.path.join(args.out_dir, "Y.csv")
    with open(data_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        integral = args.family != "gaussian"
        for row in Y:
            writer.writerow([str(int(v)) if integral else repr(float(v)) for v in row])

    _dump_json(
        {"format": 1, "kind": "precision", "nodes": names, "W": W_star.tolist()},
        os.path.join(args.out_dir, "Wtrue.json"),
    )
    _dump_json(
        {
            "format": 1,
            "kind": "manifest",
            "generator": GENERATOR_ID,
            "version": __version__,
            "pattern": asdict(pattern),
            "n": args.n,
            "family": args.family,
            "mu": args.mu,
            "seed": seed,
            "outputs": {"data": "Y.csv", "precision": "Wtrue.json"},
        },
        os.path.join(args.out_dir, "manifest.json"),
    )
    return EXIT_OK


def cmd_metrics(args) -> int:
    W_hat = load_precision_json(args.estimate)
    W_true = load_precision_json(args.truth)
    if W_hat.shape != W_true.shape:
        raise InputError(f"dimension mismatch: {W_hat.shape} vs {W_true.shape}")
    div = bregman_sym(W_hat, W_true)
    em = edge_metrics(W_hat, W_true, eps=args.eps)
    print(json.dumps(
        {
            "bregman_sym": float(div),
            "precision": em.precision,
            "recall": em.recall,
            "f1": em.f1,
            "true_support_size": em.true_support_size,
        },
        indent=2,
        sort_keys=True,
    ))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is an input error; argparse's own exit 2 means non-convergence here
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(prog="iggl", description="Sparse association graphs from mixed-type data")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--data", help="input CSV (header row = column names)")
    run.add_argument("--config", help="JSON config file")
    run.add_argument("--dot", help="also write a Graphviz DOT file of the (selected) model")
    run.add_argument("--edge-threshold", dest="edge_threshold", type=float)
    run.add_argument("--drop-isolated", dest="drop_isolated", action="store_const", const=True)
    p_fit = sub.add_parser("fit", parents=[run], help="fit at one penalty (or BIC-select with lambda=auto)")
    p_fit.add_argument("--out", help="result JSON path (default result.json)")
    p_fit.set_defaults(func=cmd_run, default_out="result.json")

    p_path = sub.add_parser("path", parents=[run], help="fit a penalty path and select by BIC")
    p_path.add_argument("--out", help="selected-model JSON path (default selected.json)")
    p_path.add_argument("--table", help="per-penalty CSV table (default path.csv)")
    p_path.set_defaults(func=cmd_run, default_out="selected.json")

    p_sim = sub.add_parser("simulate", help="generate synthetic data with known ground truth")
    p_sim.add_argument("--pattern", choices=["chain", "random", "hub"], required=True)
    p_sim.add_argument("--m", type=int, required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--family", choices=["gaussian", "bernoulli", "poisson"], default="gaussian")
    p_sim.add_argument("--edge-weight", dest="edge_weight", type=float, default=-0.4)
    p_sim.add_argument("--diagonal-boost", dest="diagonal_boost", type=float, default=0.0)
    p_sim.add_argument("--sparsity", type=float, default=None)
    p_sim.add_argument("--mu", type=float, default=0.0)
    p_sim.add_argument("--seed", type=int, default=None, help="overrides the IGGL_SEED environment variable")
    p_sim.add_argument("--out-dir", dest="out_dir", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_met = sub.add_parser("metrics", help="compare an estimate against a reference precision matrix")
    p_met.add_argument("--estimate", required=True)
    p_met.add_argument("--truth", required=True)
    p_met.add_argument("--eps", type=float, default=EDGE_EPS)
    p_met.set_defaults(func=cmd_metrics)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # an OSError here is an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
