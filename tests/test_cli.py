import csv
import inspect
import json
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest

import iggl.cli
import iggl.core
import iggl.select
from iggl import FitProblem, lambda_grid
from iggl.cli import _PROBLEM_KEYS, _SCHEMA, main, read_csv_matrix, write_dot
from iggl.losses import check_domain
from iggl.select import EDGE_EPS, degrees_of_freedom

from helpers import check_dot_grammar, count_calls, reference_read_csv_matrix


def write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def simulate(tmp_path, extra=(), m=5):
    out = tmp_path / "sim"
    rc = main([
        "simulate", "--pattern", "chain", "--m", str(m), "--n", "150",
        "--family", "gaussian", "--seed", "3", "--out-dir", str(out), *extra,
    ])
    assert rc == 0
    return out


class TestUsage:
    # argparse exits 2 on a usage error, which here means non-convergence; a usage error is an input error
    @pytest.mark.parametrize("argv, message", [
        (["fit", "--bogus"], "unrecognized arguments: --bogus"),
        (["path", "--equalize-lipschitz"], "unrecognized arguments: --equalize-lipschitz"),
        (["simulate", "--pattern", "chain", "--m", "x", "--n", "5", "--out-dir", "d"], "argument --m: invalid int value: 'x'"),
        (["simulate", "--pattern", "chain", "--n", "5", "--out-dir", "d"], "the following arguments are required: --m"),
    ], ids=["unknown-flag", "removed-flag", "non-integer", "missing-required"])
    def test_usage_error_exits_1(self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: iggl")
        assert message in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--version"], ["fit", "--help"]])
    def test_version_and_help_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("iggl 0" if argv == ["--version"] else "usage: iggl fit")


class TestCsvIngestion:
    def test_missing_cell_diagnosed(self, tmp_path):
        p = tmp_path / "bad.csv"
        write(p, "a,b\n1.0,2.0\n3.0,\n")
        with pytest.raises(ValueError, match=r"line 3, column b"):
            read_csv_matrix(str(p))

    def test_non_numeric_diagnosed(self, tmp_path):
        p = tmp_path / "bad.csv"
        write(p, "a,b\n1.0,x\n")
        with pytest.raises(ValueError, match=r"line 2, column b"):
            read_csv_matrix(str(p))

    def test_nan_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        write(p, "a,b\n1.0,nan\n")
        with pytest.raises(ValueError, match="non-finite"):
            read_csv_matrix(str(p))

    @pytest.mark.parametrize("text, where", [
        ("a,b,c\n1.0,2.0,3.0\n\n4.0,5.0,x\n", "line 4, column c: not numeric: 'x'"),
        ("a,b,c\n1.0,2.0,3.0\n4.0,inf,x\n", "line 3, column b: non-finite value"),
        ("a,b,c\n1.0,2.0,3.0\n4.0, ,nan\n", "line 3, column b: missing value"),
        ("a,b\n1.0,x\n1.0\n", "line 2, column b: not numeric: 'x'"),
    ])
    def test_first_bad_cell_located(self, tmp_path, text, where):
        # the first bad cell in reading order, also ahead of a later ragged row
        p = tmp_path / "bad.csv"
        write(p, text)
        with pytest.raises(ValueError) as info:
            read_csv_matrix(str(p))
        assert str(info.value) == f"{p}: {where}"

    def test_duplicate_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        write(p, "a,a\n1.0,2.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_csv_matrix(str(p))

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        write(p, "a,b\n1.0,2.0,3.0\n")
        with pytest.raises(ValueError, match="expected 2 fields"):
            read_csv_matrix(str(p))

    @pytest.mark.parametrize("text, line", [
        pytest.param("a," + "b" * 200_000 + "\n1,2\n", 1, id="long-header-field"),
        pytest.param("a,b\n1,x" + "0" * 200_000 + "\n", 2, id="long-cell-in-row-walk"),
    ])
    def test_field_over_the_csv_limit_names_its_line(self, tmp_path, capsys, text, line):
        # csv.reader raises csv.Error, not ValueError, on a field over csv.field_size_limit()
        p = tmp_path / "big.csv"
        write(p, text)
        message = f"{p}: line {line}: field larger than field limit ({csv.field_size_limit()})"
        with pytest.raises(ValueError) as info:
            read_csv_matrix(str(p))
        assert str(info.value) == message
        cfg = tmp_path / "cfg.json"
        write(cfg, json.dumps({"losses": "quadratic", "lambda": 0.1}))
        rc = main(["fit", "--data", str(p), "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("n, m", [(1000, 60), (5000, 4)])
    def test_body_is_read_without_a_list_of_rows(self, tmp_path, n, m):
        # tracemalloc peak of one read: under two copies of Y (the row-by-row reader took 2.4 and 6.9)
        Y = np.random.default_rng(4).standard_normal((n, m))
        p = tmp_path / "big.csv"
        write(p, "\n".join([",".join(f"x{k}" for k in range(m))] + [",".join(map(repr, row)) for row in Y.tolist()]))
        read_csv_matrix(str(p))
        tracemalloc.start()
        try:
            _, got = read_csv_matrix(str(p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, Y)
        assert peak < 2 * Y.nbytes


def read_outcome(reader, path):
    """(names, shape, bytes of Y) of a read, or (type, text) of the error it raised."""
    try:
        names, Y = reader(path)
    except Exception as exc:
        return type(exc), str(exc)
    return names, Y.shape, Y.dtype, Y.tobytes()


_FUZZ_TOKENS = list("0123456789.e+-_\", \t\r\n#x") + ["nan", "inf", "\u0661", "\xa0"]


def fuzz_csv(rnd):
    """A small CSV: numbers, tokens drawn from _FUZZ_TOKENS, quoting, mixed line ends, stray tokens."""
    m = rnd.randint(1, 3)
    lines = [",".join(f"c{k}" for k in range(m))]
    for _ in range(rnd.randint(0, 4)):
        cells = []
        for _ in range(m):
            if rnd.random() < 0.8:
                cell = repr(rnd.gauss(0.0, 1.0) * 10.0 ** rnd.randint(-8, 8))
            else:
                cell = "".join(rnd.choices(_FUZZ_TOKENS, k=rnd.randint(0, 4)))
            cells.append(f'"{cell}"' if rnd.random() < 0.1 else cell)
        lines.append(",".join(cells))
    text = "".join(line + rnd.choice(("\n", "\r\n", "\r")) for line in lines)
    for _ in range(rnd.choice((0, 0, 0, 1, 2))):
        at = rnd.randint(0, len(text))
        text = text[:at] + rnd.choice(_FUZZ_TOKENS) + text[at:]
    return text if rnd.random() < 0.9 else text.rstrip("\r\n")


class TestCsvReaderMatchesRowWalk:
    """read_csv_matrix against the row-by-row reader it replaced: same names and bits, or the same error."""

    @pytest.mark.filterwarnings("error")
    def test_fuzzed_files(self, tmp_path):
        rnd = random.Random(20161)
        p = str(tmp_path / "fuzz.csv")
        parsed = 0
        for _ in range(2500):
            text = fuzz_csv(rnd)
            with open(p, "w", newline="", encoding="utf-8") as fh:
                fh.write(text)
            want = read_outcome(reference_read_csv_matrix, p)
            assert read_outcome(read_csv_matrix, p) == want, repr(text)
            parsed += isinstance(want[0], list)
        # both outcomes are well represented
        assert 500 < parsed < 2000

    def test_long_and_halfway_decimals_round_like_float(self, tmp_path):
        # the C reader must give float()'s correctly rounded bits, also where rounding is hardest
        rnd = random.Random(8)
        cells = ["9007199254740993", "9007199254740995", "4.9e-324", "2.4703282292062328e-324",
                 "2.2250738585072011e-308", "1.00000000000000011102230246251565404236316680908203125",
                 "1.7976931348623157e308", "0.1", "-0.0"]
        for _ in range(6000):
            digits = "".join(rnd.choices("0123456789", k=rnd.choice((17, 25, 40))))
            cells.append(f"{rnd.choice(('', '-'))}{digits[0]}.{digits[1:]}e{rnd.randint(-340, 300)}")
        cells = cells[:6000]
        p = tmp_path / "digits.csv"
        write(p, "a,b,c\n" + "\n".join(",".join(cells[i:i + 3]) for i in range(0, len(cells), 3)) + "\n")
        _, got = read_csv_matrix(str(p))
        want = np.array([float(c) for c in cells]).reshape(-1, 3)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("body", [b"1,2\n3,\xff\n", b"4,5\n" * 5000 + b"6,\xfe\n", b"1,x\n2,\xff\n"])
    def test_undecodable_bytes(self, tmp_path, body):
        # the row walk decodes the file again from its start, so the error and its position are the same
        p = tmp_path / "bytes.csv"
        p.write_bytes(b"a,b\n" + body)
        got = read_outcome(read_csv_matrix, str(p))
        assert got == read_outcome(reference_read_csv_matrix, str(p))
        assert got[0] in (UnicodeDecodeError, iggl.cli.InputError)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text, expect", [
        ("a,b\r\n1,2\r\n3,4\r\n", [[1, 2], [3, 4]]),
        ("a,b\r1,2\r3,4\r", [[1, 2], [3, 4]]),
        ('"a\nx",b\n1,2\n3,4\n', [[1, 2], [3, 4]]),
        ('"a\nx",b\n1,2\n3,x\n', "line 4, column b: not numeric: 'x'"),
        ('a,b\n1,"2\n"\n3,x\n', "line 4, column b: not numeric: 'x'"),
        ('a,b\n1,"x\ny"\n', "line 3, column b: not numeric: 'x\\ny'"),
        ("a,b\n\n1,2\n\n\r\n3,4\n\n", [[1, 2], [3, 4]]),
        ("a,b\n1,2\n  \n3,4\n", "line 3: expected 2 fields, got 1"),
        ("a\n1\n\t\n", "line 3, column a: missing value"),
        ("a,b\n1,2,\n", "line 2: expected 2 fields, got 3"),
        ("a,b\n1,2\n3\n", "line 3: expected 2 fields, got 1"),
        ("a,b\n1,#2\n", "line 2, column b: not numeric: '#2'"),
        ("#a,b\n1,2\n", [[1, 2]]),
        ("\ufeffa,b\n1,2\n", [[1, 2]]),
        ("\ufeffprice,b\n1,2\nx,3\n", "line 3, column price: not numeric: 'x'"),
        ("a,b\n\ufeff1,2\n", "line 2, column a: not numeric: '\\ufeff1'"),
        ("a,b\n1,2\n3,4", [[1, 2], [3, 4]]),
        ('a,b\n"1", 2 \n\xa03,"4"""\n', "line 3, column b: not numeric: '4\"'"),
        ("a,b\n1_000,\u0661\n", [[1000, 1]]),
        ("a,b\n1,2\n3,-inf\n", "line 3, column b: non-finite value"),
        ("a,b\n1e400,2\n", "line 2, column a: non-finite value"),
        ("a,b\n\n", "no data rows"),
        ("", "empty file"),
    ], ids=["crlf", "lone-cr", "quoted-header-newline", "quoted-header-newline-bad", "quoted-cell-newline-then-bad",
            "quoted-cell-newline-bad", "blank-lines",
            "whitespace-line", "whitespace-line-one-column", "trailing-delimiter", "short-row", "hash-cell",
            "hash-header", "bom", "bom-then-bad-cell", "bom-in-body", "no-final-newline", "quotes-and-spaces", "float-only-digits",
            "infinite", "overflow", "header-only", "empty"])
    def test_named_cases(self, tmp_path, text, expect):
        p = str(tmp_path / "case.csv")
        with open(p, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        got = read_outcome(read_csv_matrix, p)
        assert got == read_outcome(reference_read_csv_matrix, p)
        if isinstance(expect, str):
            assert got[1].startswith(f"{p}: ") and got[1].endswith(expect)
        else:
            expect = np.asarray(expect, dtype=float)
            assert got[1:] == (expect.shape, np.float64, expect.tobytes())


class TestSimulate:
    def test_outputs_and_shapes(self, tmp_path):
        out = simulate(tmp_path)
        names, Y = read_csv_matrix(str(out / "Y.csv"))
        assert names == ["x1", "x2", "x3", "x4", "x5"]
        assert Y.shape == (150, 5)
        with open(out / "Wtrue.json") as fh:
            doc = json.load(fh)
        assert np.asarray(doc["W"]).shape == (5, 5)
        with open(out / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["seed"] == 3
        assert manifest["pattern"]["kind"] == "chain"

    def test_byte_identical_rerun(self, tmp_path):
        a = simulate(tmp_path)
        b_dir = tmp_path / "sim_b"
        rc = main(["simulate", "--pattern", "chain", "--m", "5", "--n", "150",
                   "--family", "gaussian", "--seed", "3", "--out-dir", str(b_dir)])
        assert rc == 0
        for name in ("Y.csv", "Wtrue.json", "manifest.json"):
            assert (a / name).read_bytes() == (b_dir / name).read_bytes()

    def test_poisson_outputs_integers(self, tmp_path):
        out = tmp_path / "simp"
        rc = main(["simulate", "--pattern", "chain", "--m", "3", "--n", "40",
                   "--family", "poisson", "--seed", "2", "--out-dir", str(out)])
        assert rc == 0
        _, Y = read_csv_matrix(str(out / "Y.csv"))
        assert np.all(Y >= 0)
        assert np.array_equal(Y, np.floor(Y))

    def test_env_seed_and_flag_precedence(self, tmp_path, monkeypatch):
        monkeypatch.setenv("IGGL_SEED", "3")
        env_dir = tmp_path / "sim_env"
        rc = main(["simulate", "--pattern", "chain", "--m", "5", "--n", "150",
                   "--family", "gaussian", "--out-dir", str(env_dir)])
        assert rc == 0
        ref = simulate(tmp_path)
        assert (env_dir / "Y.csv").read_bytes() == (ref / "Y.csv").read_bytes()
        # explicit flag beats the environment
        monkeypatch.setenv("IGGL_SEED", "99")
        flag_dir = tmp_path / "sim_flag"
        rc = main(["simulate", "--pattern", "chain", "--m", "5", "--n", "150",
                   "--family", "gaussian", "--seed", "3", "--out-dir", str(flag_dir)])
        assert rc == 0
        assert (flag_dir / "Y.csv").read_bytes() == (ref / "Y.csv").read_bytes()

    def test_bad_pattern_args(self, tmp_path):
        rc = main(["simulate", "--pattern", "random", "--m", "4", "--n", "10",
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 1

    def test_single_node_rejected(self, tmp_path, capsys):
        out = tmp_path / "x"
        rc = main(["simulate", "--pattern", "chain", "--m", "1", "--n", "10", "--out-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: need m >= 2\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--n", "0"), ("--n", "1"), ("--mu", "nan"), ("--mu", "inf"), ("--edge-weight", "nan"),
        ("--diagonal-boost", "-inf"),
    ])
    def test_bad_argument_writes_nothing(self, tmp_path, capsys, flag, value):
        args = {"--n": "10", "--mu": "0", "--edge-weight": "-0.4", "--diagonal-boost": "0", flag: value}
        out = tmp_path / "x"
        rc = main(["simulate", "--pattern", "chain", "--m", "4", "--seed", "3", "--out-dir", str(out),
                   *(f"{key}={v}" for key, v in args.items())])
        assert rc == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()


class TestFit:
    def test_fixed_lambda_run(self, tmp_path):
        sim = simulate(tmp_path)
        cfg = tmp_path / "cfg.json"
        write(cfg, json.dumps({"losses": "quadratic", "lambda": 0.15}))
        out = tmp_path / "result.json"
        dot = tmp_path / "graph.dot"
        rc = main(["fit", "--data", str(sim / "Y.csv"), "--config", str(cfg),
                   "--out", str(out), "--dot", str(dot)])
        assert rc == 0
        with open(out) as fh:
            doc = json.load(fh)
        assert doc["format"] == 1
        assert doc["lambda"] == 0.15
        W = np.asarray(doc["W"])
        assert np.array_equal(W, W.T)
        np.linalg.cholesky(W)
        nodes, edges = check_dot_grammar(dot.read_text())
        assert nodes == doc["nodes"]
        assert len(edges) == len(doc["edges"])

    def test_auto_lambda_selects(self, tmp_path):
        sim = simulate(tmp_path)
        cfg = tmp_path / "cfg.json"
        write(cfg, json.dumps({"losses": "quadratic", "lambda": "auto"}))
        out = tmp_path / "result.json"
        rc = main(["fit", "--data", str(sim / "Y.csv"), "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            doc = json.load(fh)
        sel = doc["selection"]
        finite = [b for b in sel["bic"] if b is not None]
        assert sel["bic"][sel["selected_index"]] == min(finite)
        assert doc["lambda"] == sel["lambdas"][sel["selected_index"]]

    def test_byte_identical_rerun(self, tmp_path):
        sim = simulate(tmp_path)
        cfg = tmp_path / "cfg.json"
        write(cfg, json.dumps({"losses": "quadratic", "lambda": 0.2}))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["fit", "--data", str(sim / "Y.csv"), "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["fit", "--data", str(sim / "Y.csv"), "--config", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_result_json_round_trip(self, tmp_path):
        sim = simulate(tmp_path)
        cfg = tmp_path / "cfg.json"
        write(cfg, json.dumps({"losses": "quadratic", "lambda": 0.2}))
        out = tmp_path / "result.json"
        assert main(["fit", "--data", str(sim / "Y.csv"), "--config", str(cfg), "--out", str(out)]) == 0
        blob = out.read_bytes()
        doc = json.loads(blob)
        rewritten = (json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()
        assert rewritten == blob

    @pytest.mark.parametrize("command, lam", [("fit", 0.1), ("path", "auto")])
    @pytest.mark.parametrize("loss, data, error", [
        pytest.param("bernoulli", "u,v\n0,1\n1,2\n0,0\n", "column 'v': bernoulli loss requires labels in {0, 1}",
                     id="bernoulli-label"),
        pytest.param("lorenz", "u,v\n1,-1\n0,1\n-1,1\n", "column 'u': lorenz loss requires labels in {-1, +1}",
                     id="margin-label"),
        pytest.param("poisson_reparam", "u,v\n1,2\n3,-1\n0,1\n",
                     "column 'v': count loss requires nonnegative integer entries", id="negative-count"),
        pytest.param("poisson_reparam", "u,v\n1,0\n3,0\n0,0\n", "column 'v': count column sums to zero",
                     id="zero-sum-count"),
        pytest.param("bernoulli", "u,v\n1,0\n1,1\n1,0\n1,1\n", "column 'u' has (near-)zero variance",
                     id="zero-variance"),
        pytest.param("quadratic", "u,v\n1,1e200\n2,-1e200\n0,3e200\n", "column 'v': sample variance overflows; rescale it",
                     id="overflowing-variance"),
        pytest.param("quadratic", "u,v\n1e200,2e200\n-1e200,1e200\n3e200,-1e200\n",
                     "column 'u': sample variance overflows; rescale it", id="every-variance-overflows"),
    ])
    def test_column_error_names_its_header(self, tmp_path, capsys, command, lam, loss, data, error):
        # the library checks each column and reports "column k"; the CLI names k by its header
        write(tmp_path / "Y.csv", data)
        cfg = tmp_path / "cfg.json"
        write(cfg, json.dumps({"losses": loss, "lambda": lam}))
        table = ["--table", str(tmp_path / "t.csv")] if command == "path" else []
        with warnings.catch_warnings():
            # the zero-variance column is rejected before its intercept search, an overflowing one before numpy warns
            warnings.simplefilter("error")
            rc = main([command, "--data", str(tmp_path / "Y.csv"), "--config", str(cfg),
                       "--out", str(tmp_path / "r.json"), *table])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not (tmp_path / "r.json").exists() and not (tmp_path / "t.csv").exists()

    def test_count_loss_parameters_rejected(self, tmp_path, capsys):
        data = tmp_path / "Y.csv"
        write(data, "a,b\n" + "".join(f"{0.1 * i * i},{i % 3}\n" for i in range(8)))
        cfg = tmp_path / "cfg.json"
        write(cfg, json.dumps({"lambda": 0.1, "losses": {"default": "quadratic",
                                                        "columns": {"b": {"poisson_reparam": {"c": 2}}}}}))
        rc = main(["fit", "--data", str(data), "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert capsys.readouterr().err == "error: column 'b': poisson_reparam takes no config parameters\n"
        assert not (tmp_path / "r.json").exists()

    def test_domain_checked_once_per_column(self, tmp_path, monkeypatch):
        # by the library's preparation only; the CLI names its errors by the header
        calls = []
        monkeypatch.setattr(iggl.core, "check_domain", lambda kind, y: calls.append(kind) or check_domain(kind, y))
        assert main(["simulate", "--pattern", "chain", "--m", "4", "--n", "100", "--family", "poisson",
                     "--seed", "2", "--out-dir", str(tmp_path)]) == 0
        cfg = tmp_path / "cfg.json"
        write(cfg, json.dumps({"losses": "poisson_reparam", "lambda": 0.1, "max_outer": 5}))
        rc = main(["fit", "--data", str(tmp_path / "Y.csv"), "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert rc in (0, 2)
        assert calls == ["poisson_reparam"] * 4
        assert not hasattr(iggl.cli, "check_domain")

    @pytest.mark.parametrize("spec, param", [
        ('{"huber": {"c": "2"}}', "c"),
        ('{"huber": {"c": true}}', "c"),
        ('{"huber": {"c": null}}', "c"),
        ('{"huber": {"c": NaN}}', "c"),
        pytest.param('{"huber": {"c": 1' + "0" * 400 + "}}", "c", id="beyond-float-range"),
        ('{"huber": {"c_mult": "2"}}', "c_mult"),
        ('{"bernoulli": {"c": 2}}', "c"),
        ('{"huber": {"c": 1, "d": 5}}', "d"),
    ])
    def test_bad_loss_parameter_rejected(self, tmp_path, capsys, spec, param):
        data = tmp_path / "Y.csv"
        write(data, "a,b\n" + "".join(f"{0.1 * i * i},{i % 2}\n" for i in range(8)))
        cfg = tmp_path / "cfg.json"
        write(cfg, '{"lambda": 0.1, "losses": {"default": "quadratic", "columns": {"b": ' + spec + "}}}")
        rc = main(["fit", "--data", str(data), "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "column 'b'" in err and f"'{param}'" in err
        assert not (tmp_path / "r.json").exists()

    def test_lambda_max_gives_empty_graph(self, tmp_path):
        sim = simulate(tmp_path)
        _, Y = read_csv_matrix(str(sim / "Y.csv"))
        n = Y.shape[0]
        Yc = Y - Y.mean(axis=0)
        S = Yc.T @ Yc / n
        np.fill_diagonal(S, 0.0)
        lam_max = float(np.max(np.abs(S)))
        cfg = tmp_path / "cfg.json"
        write(cfg, json.dumps({"losses": "quadratic", "lambda": 1.05 * lam_max}))
        dot = tmp_path / "g.dot"
        rc = main(["fit", "--data", str(sim / "Y.csv"), "--config", str(cfg),
                   "--out", str(tmp_path / "r.json"), "--dot", str(dot)])
        assert rc == 0
        nodes, edges = check_dot_grammar(dot.read_text())
        assert len(edges) == 0
        assert len(nodes) == 5

    def test_nonconvergence_exit_code(self, tmp_path):
        sim = simulate(tmp_path)
        cfg = tmp_path / "cfg.json"
        write(cfg, json.dumps({"losses": "quadratic", "lambda": 0.1, "max_outer": 1}))
        out = tmp_path / "r.json"
        rc = main(["fit", "--data", str(sim / "Y.csv"), "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        with open(out) as fh:
            assert json.load(fh)["converged"] is False

    def test_capped_final_solve_exit_code(self, tmp_path):
        # one Newton step per outer iteration still leaves this fit's final solve short of 1e-7
        sim = simulate(tmp_path, m=12)
        cfg = tmp_path / "cfg.json"
        write(cfg, json.dumps({"losses": "quadratic", "lambda": 0.05, "inner_max_iter": 1}))
        out = tmp_path / "r.json"
        rc = main(["fit", "--data", str(sim / "Y.csv"), "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        with open(out) as fh:
            doc = json.load(fh)
        # the outer loop met outer_tol; the full-tolerance final solve did not
        assert doc["outer_iterations"] < 200
        assert len(doc["inner_tols"]) == len(doc["inner_kkt"]) == doc["outer_iterations"]
        assert doc["inner_tols"][-1] == 1e-7
        assert doc["inner_kkt"][-1] == doc["kkt_residual"] > 1e-7
        assert doc["converged"] is False

    def test_unknown_loss_rejected_at_parse(self, tmp_path, capsys):
        sim = simulate(tmp_path)
        cfg = tmp_path / "cfg.json"
        write(cfg, json.dumps({"losses": "splines", "lambda": 0.1}))
        rc = main(["fit", "--data", str(sim / "Y.csv"), "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert "splines" in capsys.readouterr().err

    def test_column_assignment_precedence(self, tmp_path):
        sim = simulate(tmp_path)
        cfg = tmp_path / "cfg.json"
        write(cfg, json.dumps({
            "losses": {
                "default": "quadratic",
                "ranges": [{"columns": "0:3", "loss": {"huber": {"c_mult": 1.345}}}],
                "columns": {"x1": {"tukey": {}}},
            },
            "lambda": 0.2,
        }))
        out = tmp_path / "r.json"
        rc = main(["fit", "--data", str(sim / "Y.csv"), "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            kinds = [l["kind"] for l in json.load(fh)["losses"]]
        assert kinds == ["tukey", "huber", "huber", "quadratic", "quadratic"]

    def test_mistyped_config_key_rejected(self, tmp_path, capsys):
        sim = simulate(tmp_path)
        cfg = tmp_path / "cfg.json"
        # "calibrate" and "equalize_lipschitz" were options once; an old config naming them is an error
        for key in ("lamda", "calibrate", "equalize_lipschitz"):
            write(cfg, json.dumps({"losses": "quadratic", "lambda": 0.1, key: 0.1}))
            rc = main(["fit", "--data", str(sim / "Y.csv"), "--config", str(cfg), "--out", str(tmp_path / "r.json")])
            assert rc == 1
            assert f"'{key}'" in capsys.readouterr().err
            assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("members, key", [
        ('"penalize_diagonal": "false"', "penalize_diagonal"),
        ('"drop_isolated": "false"', "drop_isolated"),
        ('"edge_threshold": "0.5"', "edge_threshold"),
        ('"phi_c": "0.5"', "phi_c"),
        ('"inner_tol": true', "inner_tol"),
        ('"max_outer": 2.9', "max_outer"),
        ('"max_outer": 1e999', "max_outer"),
        ('"inner_max_iter": "abc"', "inner_max_iter"),
        pytest.param('"outer_tol": 1' + "0" * 400, "outer_tol", id="outer_tol-beyond-float-range"),
        ('"lambda": {"n_points": 2.5}', "n_points"),
        ('"lambda": {"ratio": "x"}', "ratio"),
        pytest.param('"lambda": 1' + "0" * 400, "lambda", id="lambda-beyond-float-range"),
        ('"mean": {"given": ["M.csv"]}', "given"),
    ])
    def test_mistyped_config_value_rejected(self, tmp_path, capsys, members, key):
        sim = simulate(tmp_path)
        cfg = tmp_path / "cfg.json"
        lam = "" if "lambda" in members else '"lambda": 0.1, '
        write(cfg, '{"losses": "quadratic", ' + lam + members + "}")
        rc = main(["fit", "--data", str(sim / "Y.csv"), "--config", str(cfg), "--out", str(tmp_path / "r.json"),
                   "--dot", str(tmp_path / "g.dot")])
        assert rc == 1
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()
        assert not (tmp_path / "g.dot").exists()

    def test_mistyped_out_path_rejected(self, tmp_path):
        # in a child process: the parent's stdout must survive an "out" of 1 (file descriptor 1)
        sim = simulate(tmp_path)
        cfg = tmp_path / "cfg.json"
        write(cfg, json.dumps({"losses": "quadratic", "lambda": 0.1, "out": 1}))
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run([sys.executable, "-m", "iggl", "fit", "--data", str(sim / "Y.csv"), "--config", str(cfg)],
                              capture_output=True, text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])})
        assert proc.returncode == 1
        assert "'out'" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("command, lam", [("fit", 0.1), ("path", "auto")])
    def test_edge_threshold_checked_before_fitting(self, tmp_path, capsys, monkeypatch, command, lam):
        import iggl.cli
        import iggl.select

        sim = simulate(tmp_path)
        cfg = tmp_path / "cfg.json"
        write(cfg, json.dumps({"losses": "quadratic", "lambda": lam, "edge_threshold": -1}))
        calls = []
        for module in (iggl.cli, iggl.select):
            original = module.fit
            monkeypatch.setattr(module, "fit", lambda *a, original=original, **k: calls.append(a) or original(*a, **k))
        table = ["--table", str(tmp_path / "t.csv")] if command == "path" else []
        rc = main([command, "--data", str(sim / "Y.csv"), "--config", str(cfg), "--out", str(tmp_path / "r.json"), *table])
        assert rc == 1
        assert "edge_threshold" in capsys.readouterr().err
        assert calls == []

    def test_bernoulli_keeps_its_bound(self, tmp_path):
        # a bound below one is kept: the Bernoulli deviance is not reweighted
        sim = simulate(tmp_path, ["--family", "bernoulli"])
        cfg_path = tmp_path / "cfg.json"
        write(cfg_path, json.dumps({"losses": "bernoulli", "lambda": 0.1, "max_outer": 3}))
        out = tmp_path / "r.json"
        rc = main(["fit", "--data", str(sim / "Y.csv"), "--config", str(cfg_path), "--out", str(out)])
        assert rc in (0, 2)
        with open(out) as fh:
            losses = json.load(fh)["losses"]
        assert [(l["scale_factor"], l["lipschitz"]) for l in losses] == [(1.0, 0.25)] * 5

    def test_schema_defaults_match_code(self):
        # the CLI leaves unset options to these defaults; the schema documents them
        props = _SCHEMA["properties"]
        problem = {f.name: f.default for f in fields(FitProblem)}
        assert set(problem) - {"Y", "losses", "lam", "M"} == set(_PROBLEM_KEYS)
        code = {**problem, "edge_threshold": EDGE_EPS, "drop_isolated": False}
        documented = {key: node["default"] for key, node in props.items() if "default" in node}
        assert documented == {key: code[key] for key in documented}
        assert set(documented) == set(_PROBLEM_KEYS) | {"edge_threshold", "drop_isolated"}
        grid = next(alt for alt in props["lambda"]["oneOf"] if alt.get("type") == "object")["properties"]
        params = inspect.signature(lambda_grid).parameters
        assert {key: node["default"] for key, node in grid.items()} == {key: params[key].default for key in grid}

    @pytest.mark.parametrize("command, cfg, key", [
        ("path", {"losses": "quadratic", "lambda": {"n_point": 3}}, "'n_point'"),
        ("fit", {"losses": {"default": "quadratic", "column": {"x1": "huber"}}}, "'column'"),
        ("fit", {"losses": {"default": "quadratic", "ranges": [{"columns": "0:2", "loss": "huber", "los": "x"}]},
                 "lambda": 0.1}, "'los'"),
    ])
    def test_mistyped_nested_config_key_rejected(self, tmp_path, capsys, command, cfg, key):
        sim = simulate(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        write(cfg_path, json.dumps(cfg))
        rc = main([command, "--data", str(sim / "Y.csv"), "--config", str(cfg_path),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("cfg, key", [
        ({"inner_max_iter": -1}, "inner_max_iter"),
        ({"lambda": float("nan")}, "lambda"),
        ({"lambda": float("inf")}, "lambda"),
        ({"edge_threshold": -1}, "edge_threshold"),
        ({"inner_tol": -1}, "inner_tol"),
        ({"outer_tol": float("nan")}, "outer_tol"),
        ({"phi_c": 0}, "phi_c"),
        ({"phi_c": 1}, "phi_c"),
        ({"phi_c": 1.5}, "phi_c"),
    ])
    def test_out_of_range_option_rejected(self, tmp_path, capsys, cfg, key):
        sim = simulate(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        write(cfg_path, json.dumps({"losses": "quadratic", "lambda": 0.1, **cfg}))  # NaN/Infinity as Python's json writes them
        rc = main(["fit", "--data", str(sim / "Y.csv"), "--config", str(cfg_path),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # nearly collinear unit-variance columns: the unpenalized precision
        # breaks the feasibility budget phi * ||W||_2 <= 1 inside the solver
        rng = np.random.default_rng(8)
        base = rng.standard_normal(40)
        Y = np.column_stack([base, base + 1e-4 * rng.standard_normal(40)])
        Y /= Y.std(axis=0, ddof=1)
        data = tmp_path / "Y.csv"
        write(data, "a,b\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in Y))
        cfg = tmp_path / "cfg.json"
        write(cfg, json.dumps({"losses": "quadratic", "lambda": 0, "phi_c": 0.9}))
        rc = main(["fit", "--data", str(data), "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert rc == 3
        assert "feasibility" in capsys.readouterr().err

    def test_mean_given_shape_mismatch(self, tmp_path, capsys):
        sim = simulate(tmp_path)
        m_csv = tmp_path / "M.csv"
        write(m_csv, "a,b\n0,0\n0,0\n")
        cfg = tmp_path / "cfg.json"
        write(cfg, json.dumps({"losses": "quadratic", "lambda": 0.1, "mean": {"given": str(m_csv)}}))
        rc = main(["fit", "--data", str(sim / "Y.csv"), "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert "shape" in capsys.readouterr().err


class TestByteOrderMark:
    """A UTF-8 byte-order mark, which Excel's "CSV UTF-8" writes, is not part of the first name or the config."""

    def bom_data(self, tmp_path):
        text = (simulate(tmp_path) / "Y.csv").read_text(encoding="utf-8")
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbf" + text.replace("x1", "price", 1).encode("utf-8"))
        return p

    def test_named_column_fit(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write(cfg, json.dumps({"losses": {"default": "quadratic", "columns": {"price": "huber"}}, "lambda": 0.15}))
        out, dot = tmp_path / "r.json", tmp_path / "g.dot"
        rc = main(["fit", "--data", str(self.bom_data(tmp_path)), "--config", str(cfg),
                   "--out", str(out), "--dot", str(dot)])
        assert rc == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["nodes"] == ["price", "x2", "x3", "x4", "x5"]
        assert [l["kind"] for l in doc["losses"]] == ["huber"] + ["quadratic"] * 4
        assert check_dot_grammar(dot.read_text(encoding="utf-8"))[0] == doc["nodes"]

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xef\xbb\xbf" + json.dumps({"losses": "quadratic", "lambda": 0.15}).encode("utf-8"))
        assert iggl.cli.load_config(str(cfg)) == {"losses": "quadratic", "lambda": 0.15}
        out = tmp_path / "r.json"
        assert main(["fit", "--data", str(self.bom_data(tmp_path)), "--config", str(cfg), "--out", str(out)]) == 0


class TestPath:
    def test_table_rows_and_selection(self, tmp_path):
        sim = simulate(tmp_path)
        cfg = tmp_path / "cfg.json"
        write(cfg, json.dumps({"losses": "quadratic", "lambda": {"n_points": 3, "ratio": 0.05}}))
        table = tmp_path / "path.csv"
        out = tmp_path / "sel.json"
        rc = main(["path", "--data", str(sim / "Y.csv"), "--config", str(cfg),
                   "--table", str(table), "--out", str(out)])
        assert rc == 0
        lines = table.read_text().strip().splitlines()
        assert lines[0] == "lambda,objective,df,bic,converged"
        assert len(lines) == 4
        bics = [float(ln.split(",")[3]) for ln in lines[1:]]
        with open(out) as fh:
            doc = json.load(fh)
        assert doc["selection"]["bic"][doc["selection"]["selected_index"]] == min(bics)

    def test_table_df_is_the_df_bic_counted(self, tmp_path, monkeypatch):
        # the edge threshold picks the result's edges only: each row's df is the one its BIC score used
        out = tmp_path / "sim"
        assert main(["simulate", "--pattern", "chain", "--m", "8", "--n", "200", "--family", "gaussian",
                     "--seed", "1", "--out-dir", str(out)]) == 0
        cfg = tmp_path / "cfg.json"
        write(cfg, json.dumps({"losses": "quadratic", "lambda": {"n_points": 6}}))
        paths = []
        monkeypatch.setattr(iggl.cli, "fit_path", lambda *a: paths.append(iggl.select.fit_path(*a)) or paths[-1])
        table = tmp_path / "path.csv"
        assert main(["path", "--data", str(out / "Y.csv"), "--config", str(cfg), "--edge-threshold", "0.05",
                     "--table", str(table), "--out", str(tmp_path / "sel.json")]) == 0
        with open(table, newline="") as fh:
            rows = list(csv.DictReader(fh))
        Ws = [res.estimate.W for res in paths[0].fits]
        assert [int(row["df"]) for row in rows] == [degrees_of_freedom(W) for W in Ws]
        assert any(degrees_of_freedom(W) != degrees_of_freedom(W, 0.05) for W in Ws)

    def test_fixed_lambda_input_error_is_not_numerical(self, tmp_path, capsys):
        # preparing the one-point path rejects the zero-variance column
        data = tmp_path / "Y.csv"
        write(data, "a,b\n1,2\n1,3\n1,1\n")
        cfg = tmp_path / "cfg.json"
        write(cfg, json.dumps({"losses": "quadratic", "lambda": 0.1}))
        rc = main(["path", "--data", str(data), "--config", str(cfg),
                   "--table", str(tmp_path / "t.csv"), "--out", str(tmp_path / "s.json")])
        assert rc == 1
        assert "variance" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["fit", "path"])
    @pytest.mark.parametrize("lam, fits", [(0.1, 1), ("auto", 30)], ids=["fixed", "auto"])
    def test_every_run_mode_prepares_once(self, tmp_path, monkeypatch, command, lam, fits):
        sim = simulate(tmp_path)
        cfg = tmp_path / "cfg.json"
        write(cfg, json.dumps({"losses": "quadratic", "lambda": lam}))
        calls = []
        original = iggl.core.choose_phi  # called once by every preparation
        monkeypatch.setattr(iggl.core, "choose_phi", lambda *a: calls.append(a) or original(*a))
        table = ["--table", str(tmp_path / "t.csv")] if command == "path" else []
        rc = main([command, "--data", str(sim / "Y.csv"), "--config", str(cfg),
                   "--out", str(tmp_path / "s.json"), *table])
        assert rc == 0
        assert len(calls) == 1
        if command == "path":
            assert len(open(tmp_path / "t.csv").read().splitlines()) == 1 + fits


    @pytest.mark.parametrize("command, lam", [("fit", 0.1), ("path", "auto")])
    def test_a_gaussian_run_forms_no_theta_or_xi(self, tmp_path, monkeypatch, command, lam):
        # the CLI writes no n x m array, so no all-quadratic fit of a run builds its Theta or copies Y as Xi
        sim = simulate(tmp_path)
        cfg = tmp_path / "cfg.json"
        write(cfg, json.dumps({"losses": "quadratic", "lambda": lam}))
        calls = count_calls(monkeypatch, iggl.core, "outer_step", "theta_update", "_blend")
        table = ["--table", str(tmp_path / "t.csv")] if command == "path" else []
        rc = main([command, "--data", str(sim / "Y.csv"), "--config", str(cfg),
                   "--out", str(tmp_path / "s.json"), *table])
        assert rc == 0
        assert calls["outer_step"] >= (1 if command == "fit" else 30)
        assert calls["theta_update"] == calls["_blend"] == 0


def run_outputs(tmp_path, command, lam, name):
    """Run ``command`` at ``lam`` on simulate()'s data with every output named; the bytes of each file written."""
    paths = {ext: tmp_path / f"{name}.{ext}" for ext in ("json", "dot", "csv")}
    cfg = tmp_path / f"{name}-cfg.json"
    write(cfg, json.dumps({"losses": "quadratic", "lambda": lam, "table": str(paths["csv"])}))
    rc = main([command, "--data", str(tmp_path / "sim" / "Y.csv"), "--config", str(cfg),
               "--out", str(paths["json"]), "--dot", str(paths["dot"])])
    assert rc == 0
    return {ext: p.read_bytes() for ext, p in paths.items() if p.exists()}


class TestRun:
    """``iggl fit`` and ``iggl path`` differ only in the default output name, the table and a fixed lambda."""

    def test_auto_fit_and_path_write_the_same_result(self, tmp_path):
        simulate(tmp_path)
        by_fit = run_outputs(tmp_path, "fit", "auto", "fit")
        by_path = run_outputs(tmp_path, "path", "auto", "path")
        assert by_fit["json"] == by_path["json"]
        assert by_fit["dot"] == by_path["dot"]
        assert "csv" not in by_fit
        assert len(by_path["csv"].splitlines()) == 31

    def test_fixed_lambda(self, tmp_path):
        # one fit under fit; a one-point path, with its selection and a one-row table, under path
        simulate(tmp_path)
        by_fit = run_outputs(tmp_path, "fit", 0.15, "fit")
        by_path = run_outputs(tmp_path, "path", 0.15, "path")
        assert "csv" not in by_fit
        fit_doc, path_doc = json.loads(by_fit["json"]), json.loads(by_path["json"])
        selection = path_doc.pop("selection")
        assert selection["lambdas"] == [0.15] and len(selection["bic"]) == 1 and selection["selected_index"] == 0
        assert path_doc == fit_doc and by_fit["dot"] == by_path["dot"]
        header, row = by_path["csv"].decode().splitlines()
        assert header == "lambda,objective,df,bic,converged"
        assert row.startswith("0.15,") and row.endswith(",true")

    @pytest.mark.parametrize("command, written", [("fit", ["result.json"]), ("path", ["path.csv", "selected.json"])])
    def test_default_output_names(self, tmp_path, monkeypatch, command, written):
        sim = simulate(tmp_path)
        cfg = tmp_path / "cfg.json"
        write(cfg, json.dumps({"losses": "quadratic", "lambda": {"n_points": 3}}))
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        assert main([command, "--data", str(sim / "Y.csv"), "--config", str(cfg)]) == 0
        assert sorted(os.listdir(run_dir)) == written

    @pytest.mark.parametrize("command", ["fit", "path"])
    def test_edge_list_built_once_per_run(self, tmp_path, monkeypatch, command):
        calls = []
        original = iggl.cli.edge_list
        monkeypatch.setattr(iggl.cli, "edge_list", lambda *a: calls.append(a) or original(*a))
        simulate(tmp_path)
        assert "dot" in run_outputs(tmp_path, command, 0.15, command)
        assert len(calls) == 1

    def test_edge_list_matches_a_double_loop(self):
        eps = 1e-3
        rng = np.random.default_rng(19)
        W = rng.choice([-2 * eps, -eps, 0.0, eps, 2 * eps], size=(12, 12)) + rng.choice([0.0, 0.3], size=(12, 12))
        assert np.any(np.triu(W, 1) == eps) and np.any(np.triu(W, 1) == -eps)
        names = [f"n{k}" for k in range(12)]
        want = [{"i": i, "j": j, "source": names[i], "target": names[j], "weight": float(W[i, j])}
                for i in range(12) for j in range(i + 1, 12) if abs(W[i, j]) > eps]
        got = iggl.cli.edge_list(W, names, eps)
        assert got == want
        assert json.dumps(got) == json.dumps(want)

    @pytest.mark.parametrize("command, flag, target", [
        ("fit", "--out", "nodir/r.json"),
        ("path", "--table", "nodir/t.csv"),
        ("fit", "--dot", "nodir/g.dot"),
        ("fit", "--out", "adir"),
    ], ids=["out-in-missing-dir", "table-in-missing-dir", "dot-in-missing-dir", "out-is-a-dir"])
    def test_unwritable_output_exits_1(self, tmp_path, capsys, command, flag, target):
        sim = simulate(tmp_path)
        (tmp_path / "adir").mkdir()
        cfg = tmp_path / "cfg.json"
        write(cfg, json.dumps({"losses": "quadratic", "lambda": 0.15}))
        flags = {"--out": str(tmp_path / "r.json"), flag: str(tmp_path / target)}
        if command == "path":
            flags.setdefault("--table", str(tmp_path / "t.csv"))
        rc = main([command, "--data", str(sim / "Y.csv"), "--config", str(cfg), *(x for kv in flags.items() for x in kv)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path / target) in err and "Traceback" not in err

    @pytest.mark.parametrize("command, outputs, bad", [
        ("path", {"--table": "t.csv", "--out": "nodir/s.json"}, "nodir/s.json"),
        ("fit", {"--out": "r.json", "--dot": "nodir/g.dot"}, "nodir/g.dot"),
        ("path", {"--table": "t.csv", "--out": "s.json", "--dot": "adir"}, "adir"),
    ], ids=["path-out-in-missing-dir", "fit-dot-in-missing-dir", "path-dot-is-a-dir"])
    @pytest.mark.parametrize("stale", [False, True], ids=["new-files", "overwritten-files"])
    def test_unwritable_output_leaves_no_output_behind(self, tmp_path, capsys, command, outputs, bad, stale):
        sim = simulate(tmp_path)
        cfg = tmp_path / "cfg.json"
        write(cfg, json.dumps({"losses": "quadratic", "lambda": 0.15}))
        run_dir = tmp_path / "run"
        (run_dir / "adir").mkdir(parents=True)
        if stale:  # a file this run overwrites is this run's output too
            for name in outputs.values():
                if name != bad:
                    write(run_dir / name, "from an earlier run")
        argv = [x for flag, name in outputs.items() for x in (flag, str(run_dir / name))]
        assert main([command, "--data", str(sim / "Y.csv"), "--config", str(cfg), *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(run_dir / bad) in err
        assert sorted(os.listdir(run_dir)) == ["adir"] and os.listdir(run_dir / "adir") == []

    def test_simulate_into_a_file_exits_1(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        write(blocker, "")
        out_dir = str(blocker / "sub")
        rc = main(["simulate", "--pattern", "chain", "--m", "4", "--n", "10", "--out-dir", out_dir])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and out_dir in err and "Traceback" not in err


class TestOutputCollisions:
    """An output that names an input or another output of the same run is rejected before any fit."""

    @pytest.mark.parametrize("command, outputs, clash", [
        ("fit", {"--out": "d.csv"}, "d.csv"),
        ("fit", {"--out": "r.json", "--dot": "./c.json"}, "./c.json"),
        ("path", {"--out": "s.json", "--table": "sub/../d.csv"}, "sub/../d.csv"),
        ("fit", {"--out": "r.json", "--dot": "mean.csv"}, "mean.csv"),
        ("fit", {"--out": "r.json", "--dot": "link.json"}, "link.json"),
        ("path", {"--out": "s.json", "--table": "s.json", "--dot": "s.json"}, "s.json"),
        ("fit", {"--out": "r.json", "--dot": "./r.json"}, "./r.json"),
        ("fit", {"--out": "h.csv"}, "h.csv"),
    ], ids=["out-is-data", "dot-is-config", "table-is-data", "dot-is-mean", "dot-links-to-config",
            "three-outputs-one-file", "dot-is-out", "out-is-a-hard-link-to-data"])
    def test_rejected_with_the_inputs_unchanged(self, tmp_path, capsys, monkeypatch, command, outputs, clash):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        rng = np.random.default_rng(21)
        write(tmp_path / "d.csv", "a,b,c\n" + "".join(",".join(repr(float(v)) for v in row) + "\n"
                                                  for row in rng.standard_normal((30, 3))))
        write(tmp_path / "mean.csv", "a,b,c\n" + "0,0,0\n" * 30)
        write(tmp_path / "c.json", json.dumps({"losses": "quadratic", "lambda": 0.1, "mean": {"given": "mean.csv"}}))
        os.symlink(tmp_path / "c.json", tmp_path / "link.json")
        os.link(tmp_path / "d.csv", tmp_path / "h.csv")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
        for name in ("fit", "fit_path"):
            monkeypatch.setattr(iggl.cli, name, lambda *a: pytest.fail("fitted"))
        argv = [x for flag, name in outputs.items() for x in (flag, name)]
        assert main([command, "--data", "d.csv", "--config", "c.json", *argv]) == 1
        assert capsys.readouterr().err == f"error: output {clash} is an input or another output of this run\n"
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before
        assert sorted(os.listdir(tmp_path / "sub")) == []


GOOD_DATA = "a,b,c\n" + "".join(f"{0.1 * i * i},{(i * 7) % 5},{i % 3}\n" for i in range(12))


@pytest.mark.parametrize("config, argv, message", [
    ("[1, 2]", ["fit"], "config must be a JSON object"),
    ("{", ["fit"], "invalid JSON"),
    ({"lambda": 0.1}, ["fit", "--data", "missing.csv", "--config", "c.json"], "cannot open missing.csv"),
    (None, ["fit", "--data", "d.csv", "--config", "missing.json"], "cannot open missing.json"),
    ({"losses": 3}, ["fit"], "config: 'losses' must be an object"),
    ({"losses": {"default": 3}}, ["fit"], "losses.default: loss spec must be a kind string or a one-key object"),
    ({"losses": {"default": {"huber": 3}}}, ["fit"], "losses.default: loss parameters must be an object"),
    ({"losses": {"default": "quadratic", "ranges": [{"columns": "0:2"}]}}, ["fit"],
     "losses.ranges[0]: need 'columns' and 'loss'"),
    ({"losses": {"default": "quadratic", "ranges": [{"columns": "0-2", "loss": "huber"}]}}, ["fit"],
     "losses.ranges[0]: column range must look like 'start:stop'"),
    ({"losses": {"default": "quadratic", "ranges": [{"columns": "1:4", "loss": "huber"}]}}, ["fit"],
     "losses.ranges[0]: range '1:4' out of bounds for 3 columns"),
    ({"losses": {"columns": {"a": "huber"}}}, ["fit"], "no loss assigned to columns ['b', 'c'] and no default given"),
    ({"losses": {"default": "quadratic", "columns": {"z": "huber"}}}, ["fit"], "losses.columns: no such column 'z'"),
    ({"lambda": "large"}, ["fit"], 'config: \'lambda\' must be a number, "auto", or a grid object'),
    ({"mean": "zero"}, ["fit"], 'config: \'mean\' must be "intercept" or {"given": "path.csv"}'),
    ({"lambda": 0.1}, ["fit", "--config", "c.json"], "no input data: pass --data or set 'data' in the config"),
    ({"V": 1}, ["metrics", "--estimate", "c.json", "--truth", "c.json"], "c.json: no 'W' entry"),
    (None, ["simulate", "--pattern", "chain", "--m", "3", "--n", "10", "--out-dir", "sim"],
     "IGGL_SEED must be an integer, got 'three'"),
], ids=["config-not-an-object", "config-not-json", "data-missing", "config-missing", "losses-not-an-object",
        "loss-spec-not-a-kind", "loss-params-not-an-object", "range-without-loss", "range-not-start-stop",
        "range-out-of-bounds", "column-without-loss", "unknown-column", "lambda-not-a-number", "mean-unknown",
        "no-data", "metrics-without-W", "seed-not-an-integer"])
def test_input_error_exits_1_with_one_line(tmp_path, capsys, monkeypatch, config, argv, message):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("IGGL_SEED", "three")
    write(tmp_path / "d.csv", GOOD_DATA)
    if config is not None:
        write(tmp_path / "c.json", config if isinstance(config, str) else json.dumps(config))
    if argv == ["fit"]:
        argv = ["fit", "--data", "d.csv", "--config", "c.json"]
    before = sorted(os.listdir(tmp_path))
    assert main([*argv, "--out", "r.json"] if argv[0] == "fit" else argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1 and message in captured.err
    assert captured.out == "" and sorted(os.listdir(tmp_path)) == before


class TestMetrics:
    def test_identical_matrices(self, tmp_path, capsys):
        sim = simulate(tmp_path)
        rc = main(["metrics", "--estimate", str(sim / "Wtrue.json"), "--truth", str(sim / "Wtrue.json")])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bregman_sym"] == pytest.approx(0.0, abs=1e-12)
        assert doc["f1"] == 1.0

    def test_two_identity_pair(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write(a, json.dumps({"W": [[2.0, 0.0], [0.0, 2.0]]}))
        write(b, json.dumps({"W": [[1.0, 0.0], [0.0, 1.0]]}))
        rc = main(["metrics", "--estimate", str(a), "--truth", str(b)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bregman_sym"] == pytest.approx(0.5, abs=1e-12)

    def test_diagonal_vs_chain(self, tmp_path, capsys):
        sim = simulate(tmp_path)
        diag = tmp_path / "diag.json"
        write(diag, json.dumps({"W": np.eye(5).tolist()}))
        rc = main(["metrics", "--estimate", str(diag), "--truth", str(sim / "Wtrue.json")])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["recall"] == 0.0
        assert doc["true_support_size"] == 4

    @pytest.mark.parametrize("W, message", [
        ([[1.0, float("nan")], [float("nan"), 1.0]], "has non-finite entries"),
        ([[1.0, 0.5], [0.1, 1.0]], "must be symmetric"),
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "must be a square matrix"),
        ([[1.0, 0.0], [0.0]], "must be a square matrix of numbers"),
        ({"a": [1.0]}, "must be a square matrix of numbers"),
        ([[1.0, 2.0], [2.0, 1.0]], "is not positive definite"),
    ])
    def test_bad_matrix_names_the_file(self, tmp_path, capsys, W, message):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write(a, json.dumps({"W": W}))  # NaN as Python's json writes it
        write(b, json.dumps({"W": np.eye(2).tolist()}))
        assert main(["metrics", "--estimate", str(a), "--truth", str(b)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{a}: 'W' {message}" in captured.err

    def test_indefinite_truth_names_its_file(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write(a, json.dumps({"W": np.eye(2).tolist()}))
        write(b, json.dumps({"W": [[1.0, 2.0], [2.0, 1.0]]}))
        assert main(["metrics", "--estimate", str(a), "--truth", str(b)]) == 1
        assert f"{b}: 'W' is not positive definite" in capsys.readouterr().err

    def test_dimension_mismatch(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write(a, json.dumps({"W": np.eye(2).tolist()}))
        write(b, json.dumps({"W": np.eye(3).tolist()}))
        assert main(["metrics", "--estimate", str(a), "--truth", str(b)]) == 1
        assert "mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["0", "nan", "inf"])
    def test_bad_threshold_rejected(self, tmp_path, capsys, eps):
        truth = str(simulate(tmp_path) / "Wtrue.json")
        assert main(["metrics", "--estimate", truth, "--truth", truth, "--eps", eps]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "eps must be positive and finite" in captured.err


class TestDotWriter:
    def test_quoting_and_isolation(self, tmp_path):
        path = tmp_path / "g.dot"
        edges = [{"i": 0, "j": 1, "source": 'we"ird', "target": "b", "weight": 0.5}]
        write_dot(str(path), ['we"ird', "b", "lonely"], edges, drop_isolated=False)
        text = path.read_text()
        nodes, parsed = check_dot_grammar(text)
        assert len(nodes) == 3
        assert parsed == [('we"ird', "b")]
        write_dot(str(path), ['we"ird', "b", "lonely"], edges, drop_isolated=True)
        nodes, _ = check_dot_grammar(path.read_text())
        assert "lonely" not in nodes
