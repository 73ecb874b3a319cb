"""The README's examples run: every JSON block is a valid config, and the
Python quick start solves."""

import json
import pathlib
import re

import numpy as np

from graphcurv.config import parse_config

README = (pathlib.Path(__file__).parents[1] / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)


def test_readme_json_blocks_are_valid_configs():
    blocks = _blocks("json")
    assert blocks
    for block in blocks:
        parse_config(json.loads(block))


def test_readme_python_quick_start_runs():
    (block,) = _blocks("python")
    ns = {}
    exec(compile(block, "README.md", "exec"), ns)  # noqa: S102 - the README's own code
    f, dom = ns["f"], ns["dom"]
    assert f.shape == (dom.num_nodes,)
    assert np.all(f[dom.interior] < 0.0) and np.all(f[dom.boundary] == 0.0)
