"""README.md's examples run as written: its Python blocks, in order in one namespace, and its JSON config."""

import os
import re

from iggl.cli import load_config

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
