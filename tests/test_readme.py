"""README.md's examples run as written (its Python blocks, in order in one namespace, and its JSON config),
and its loss-zoo table agrees with the table of loss kinds in ``iggl.losses``."""

import os
import re
from fractions import Fraction

from iggl.cli import load_config
from iggl.losses import _KINDS, LOSS_KINDS, default_lipschitz

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def fenced_blocks(lang):
    with open(README, encoding="utf-8") as fh:
        return re.findall(rf"^```{lang}\n(.*?)^```$", fh.read(), flags=re.M | re.S)


def test_python_examples_run(capsys):
    blocks = fenced_blocks("python")
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:  # the second example reuses the first one's data and imports
        exec(compile(block, README, "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 and printed[0].startswith("EdgeMetrics(")
    assert len(namespace["losses"]) == 4


def test_json_config_example_loads(tmp_path):
    (text,) = fenced_blocks("json")
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg["losses"]["columns"] == {"price": {"huber": {"c_mult": 1.345}}}
    assert [r["columns"] for r in cfg["losses"]["ranges"]] == ["0:50", "50:100", "100:150"]


def loss_zoo_rows():
    """(kind, data domain, bound) of each row of README's loss-zoo table."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Loss zoo\n", 1)[1]
    table = section.strip().split("\n\n")[0]
    return re.findall(r"^\| `(\w+)` +\| ([^|]+?) +\| ([^|]+?) +\|$", table, flags=re.M)


def test_loss_zoo_lists_the_kinds_in_order():
    assert tuple(kind for kind, _, _ in loss_zoo_rows()) == LOSS_KINDS


def test_loss_zoo_domains_are_the_label_pairs():
    for kind, domain, _ in loss_zoo_rows():
        labels = _KINDS[kind].labels
        if labels is None:
            assert not domain.startswith("{"), kind
        else:
            assert tuple(int(v) for v in domain.strip("{}").split(", ")) == labels, kind


def test_loss_zoo_fixed_bounds_are_default_lipschitz():
    fixed = []
    for kind, _, bound in loss_zoo_rows():
        try:
            value = Fraction(bound.split()[0])
        except ValueError:  # a formula in the parameters, such as 1/c
            assert _KINDS[kind].params, kind
            continue
        assert value == default_lipschitz(kind), kind
        fixed.append(kind)
    assert fixed == ["quadratic", "bernoulli", "huber", "tukey", "lorenz"]
