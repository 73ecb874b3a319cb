"""Config schema: defaults, typo rejection, builders, target expressions."""

import json
import pathlib
import re

import numpy as np
import pytest

from graphcurv import config as cfgmod
from graphcurv.charts import EpsilonChart, EuclideanChart, HyperbolicChart
from graphcurv.cli import main
from graphcurv.config import (
    DEFAULTS,
    build_chart,
    build_domain,
    build_target_k,
    load_config,
    parse_config,
    provided,
    require,
)
from graphcurv.errors import ConfigError


MINIMAL = {
    "chart": {"kind": "hyperbolic", "offset": 0.5},
    "domain": {"kind": "ball", "nr": 4, "nphi": 16},
    "problem": {"k": 0.6},
}


def test_defaults_fill_in():
    cfg = parse_config(MINIMAL)
    assert cfg["solver"]["tol"] == 1e-9
    assert cfg["solver"]["mode"] == "continuation"
    assert cfg["output"]["solution"] == "solution.grid"
    assert cfg["problem"]["barrier"]["kind"] == "cap"
    # givens survive merging
    assert cfg["chart"]["offset"] == 0.5
    assert cfg["domain"]["nr"] == 4


def test_unknown_keys_are_hard_errors():
    bad = dict(MINIMAL)
    bad["probelm"] = {"k": 0.6}
    with pytest.raises(ConfigError, match="unknown key 'probelm'"):
        parse_config(bad)
    with pytest.raises(ConfigError, match="problem.barier"):
        parse_config(
            {**MINIMAL, "problem": {"k": 0.6, "barier": {"kind": "cap"}}}
        )
    with pytest.raises(ConfigError, match="solver.init.scael"):
        parse_config({**MINIMAL, "solver": {"init": {"scael": 0.5}}})


def test_null_blocks_are_refused_at_every_depth(tmp_path):
    with pytest.raises(ConfigError, match="^solver must be an object, got NoneType"):
        parse_config({**MINIMAL, "solver": None})
    with pytest.raises(ConfigError, match="^problem.barrier must be an object, got NoneType"):
        parse_config({**MINIMAL, "problem": {"k": 0.6, "barrier": None}})
    with pytest.raises(ConfigError, match="^solver.init must be an object"):
        parse_config({**MINIMAL, "solver": {"init": None}})
    # through the CLI: exit code 2, the dotted key on stderr
    from graphcurv.cli import main

    path = tmp_path / "null.json"
    path.write_text(json.dumps({**MINIMAL, "problem": {"k": 0.6, "barrier": None}}))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_missing_required_keys_report_their_path():
    cfg = parse_config({"chart": {"kind": "hyperbolic"},
                        "domain": {"kind": "ball", "nr": 4, "nphi": 16}})
    with pytest.raises(ConfigError, match="missing required key problem.k"):
        require(cfg, "problem", "k")
    assert provided(cfg, "problem", "k") is None
    assert provided(cfg, "chart", "kind") == "hyperbolic"

    cfg2 = parse_config({"domain": {"kind": "ball", "nr": 4, "nphi": 16}})
    with pytest.raises(ConfigError, match="missing required key chart.kind"):
        build_chart(cfg2)

    cfg3 = parse_config({"chart": {"kind": "euclidean"},
                         "domain": {"kind": "ball", "nphi": 16}})
    with pytest.raises(ConfigError, match="missing required key domain.nr"):
        build_domain(cfg3)


def test_build_chart_kinds():
    assert isinstance(build_chart(parse_config(MINIMAL)), HyperbolicChart)
    assert build_chart(parse_config(MINIMAL)).offset == 0.5
    cfg_e = parse_config({**MINIMAL, "chart": {"kind": "euclidean"}})
    assert isinstance(build_chart(cfg_e), EuclideanChart)
    cfg_eps = parse_config({**MINIMAL, "chart": {"kind": "epsilon", "eps": 0.2}})
    ch = build_chart(cfg_eps)
    assert isinstance(ch, EpsilonChart) and ch.eps == 0.2
    with pytest.raises(ConfigError, match="chart.kind"):
        build_chart(parse_config({**MINIMAL, "chart": {"kind": "spherical"}}))


def test_build_domain_kinds():
    dom = build_domain(parse_config(MINIMAL))
    assert dom.kind == "ball" and dom.shape == (5, 16)

    cfg = parse_config(
        {**MINIMAL, "domain": {"kind": "interval", "cells": 10, "lo": -1.0, "hi": 1.0}}
    )
    dom_i = build_domain(cfg)
    assert dom_i.kind == "interval" and dom_i.num_nodes == 11

    cfg_a = parse_config(
        {**MINIMAL, "domain": {"kind": "annulus", "nr": 4, "nphi": 16, "r0": 0.5}}
    )
    assert build_domain(cfg_a).kind == "annulus"

    cfg_b = parse_config(
        {**MINIMAL,
         "domain": {"kind": "box", "shape": [6, 6],
                    "extent": [[0, 1], [0, 1]], "periodic": [False, False]}}
    )
    assert build_domain(cfg_b).kind == "box"

    with pytest.raises(ConfigError, match="domain.kind"):
        build_domain(parse_config({**MINIMAL, "domain": {"kind": "torus"}}))


def test_target_expression_evaluation():
    cfg = parse_config(
        {**MINIMAL, "problem": {"k": "0.7 + 0.08*s**2*cos(2*phi)"}}
    )
    dom = build_domain(cfg)
    kfn = build_target_k(cfg, dom)
    f = np.zeros(dom.num_nodes)
    vals = kfn(dom.coords, f)
    s, phi = dom.coords[:, 0], dom.coords[:, 1]
    assert np.allclose(vals, 0.7 + 0.08 * s**2 * np.cos(2 * phi))

    # plain numbers come back as floats
    knum = build_target_k(parse_config(MINIMAL), dom)
    assert knum == 0.6 and isinstance(knum, float)

    # f is visible to the expression
    cfg_f = parse_config({**MINIMAL, "problem": {"k": "0.6 - 0.1*f"}})
    kf = build_target_k(cfg_f, dom)
    assert np.allclose(kf(dom.coords, f - 1.0), 0.7)


def test_target_expression_errors():
    dom = build_domain(parse_config(MINIMAL))
    with pytest.raises(ConfigError):
        build_target_k(
            parse_config({**MINIMAL, "problem": {"k": "0.6 +"}}), dom
        )
    with pytest.raises(ConfigError):
        build_target_k(parse_config({**MINIMAL, "problem": {"k": [1, 2]}}), dom)
    bad_name = build_target_k(
        parse_config({**MINIMAL, "problem": {"k": "0.6 + bogus"}}), dom
    )
    with pytest.raises(ConfigError, match="bogus"):
        bad_name(dom.coords, np.zeros(dom.num_nodes))
    # interval grids expose x, not s
    cfg_i = parse_config(
        {**MINIMAL,
         "domain": {"kind": "interval", "cells": 10, "lo": -1.0, "hi": 1.0},
         "problem": {"k": "0.6 + 0.0*s"}}
    )
    dom_i = build_domain(cfg_i)
    kfn = build_target_k(cfg_i, dom_i)
    with pytest.raises(ConfigError, match="'s'"):
        kfn(dom_i.coords, np.zeros(dom_i.num_nodes))


def test_load_config_diagnoses_files(tmp_path):
    good = tmp_path / "run.json"
    good.write_text(json.dumps(MINIMAL))
    cfg = load_config(good)
    assert cfg["problem"]["k"] == 0.6

    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(missing)

    broken = tmp_path / "broken.json"
    broken.write_text('{\n  "chart": {\n')
    with pytest.raises(ConfigError, match="broken.json:3"):
        load_config(broken)

    toplevel = tmp_path / "list.json"
    toplevel.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError, match="top level"):
        load_config(toplevel)


def test_block_type_errors():
    with pytest.raises(ConfigError):
        parse_config({**MINIMAL, "solver": "fast"})


def test_monitor_cutoff_is_an_unknown_key():
    # nothing reads a configured cutoff, so setting one must not pass silently
    with pytest.raises(ConfigError, match="unknown key 'monitor.cutoff'"):
        parse_config({**MINIMAL, "monitor": {"cutoff": None}})


def _with(path, value):
    """MINIMAL with the dotted ``path`` set to ``value``."""
    raw = json.loads(json.dumps(MINIMAL))
    *blocks, key = path.split(".")
    node = raw
    for block in blocks:
        node = node.setdefault(block, {})
    node[key] = value
    return raw


def _cli_solve(tmp_path, raw):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    return main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("path", ["solver.margin_fraction", "solver.dtau_init",
                                  "solver.dtau_max", "solver.easy_iterations",
                                  "monitor.eps_x"])
def test_retired_solver_settings_are_unknown_keys(tmp_path, capsys, path):
    default = {"solver.easy_iterations": 3}.get(path, 0.1)
    with pytest.raises(ConfigError, match=f"^unknown key '{re.escape(path)}'$"):
        parse_config(_with(path, default))
    assert _cli_solve(tmp_path, _with(path, default)) == 2
    assert f"unknown key '{path}'" in capsys.readouterr().err


@pytest.mark.parametrize("path, value", [("chart.n", 2), ("solver.perturb.seed", 5),
                                         ("input.barrier", "barrier.grid")])
def test_settings_another_input_gives_are_unknown_keys(tmp_path, capsys, path, value):
    # the grid's dimension, solver.seed and problem.barrier give these
    with pytest.raises(ConfigError, match=f"^unknown key '{re.escape(path)}'$"):
        parse_config(_with(path, value))
    assert _cli_solve(tmp_path, _with(path, value)) == 2
    assert f"unknown key '{path}'" in capsys.readouterr().err


@pytest.mark.parametrize("path, value, smallest", [
    ("solver.tol", -1.0, 1e-300), ("solver.tol", 0, 1e-300),
    ("solver.max_iter", -1, 1), ("solver.max_iter", 0, 1),
    ("solver.max_halvings", -1, 0),
    ("solver.dtau_min", 0.0, 1e-300), ("solver.dtau_min", -1e-4, 1e-300),
    ("sweep.levels", 0, 1),
])
def test_setting_below_its_least_is_a_config_error_naming_it(tmp_path, capsys, path,
                                                             value, smallest):
    with pytest.raises(ConfigError, match=f"^{re.escape(path)} must be >=? "):
        parse_config(_with(path, value))
    assert _cli_solve(tmp_path, _with(path, value)) == 2
    assert f"ConfigError: {path} must be" in capsys.readouterr().err
    parse_config(_with(path, smallest))  # at (or just above an excluded) least value


@pytest.mark.parametrize("path, value", [
    ("solver.tol", "tight"), ("solver.max_iter", "many"), ("domain.nr", "eight"),
    ("solver.seed", "abc"), ("sweep.levels", "two"), ("problem.barrier.k", "high"),
    ("chart.normalized", "false"),
    # a bool is no number, a count no float, a periodic flag no integer
    ("solver.tol", True), ("domain.shape", [6, 6.0]), ("domain.periodic", [0, 1]),
])
def test_setting_of_a_wrong_type_is_a_config_error_naming_it(tmp_path, capsys, path,
                                                             value):
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}"):
        parse_config(_with(path, value))
    assert _cli_solve(tmp_path, _with(path, value)) == 2
    assert f"ConfigError: {path}" in capsys.readouterr().err


def test_settings_of_their_type_pass():
    raw = _with("solver.tol", 1)  # an integer is a number
    raw["chart"]["normalized"] = False
    raw["solver"].update(delta0=None, seed=3)
    raw["problem"]["barrier"] = {"k": 1}
    raw["domain"] = {"kind": "box", "shape": [6, 6], "periodic": [True, False],
                     "extent": [[0, 1], [0.0, 2.5]]}
    cfg = parse_config(raw)
    assert cfg["solver"]["tol"] == 1 and cfg["problem"]["barrier"]["k"] == 1
    assert parse_config(_with("problem.barrier.k", "auto"))["problem"]["barrier"]["k"] == "auto"


@pytest.mark.parametrize("expr", ["1/0", "'a'", "sqrt"])
def test_target_expression_that_raises_is_a_config_error(tmp_path, capsys, expr):
    dom = build_domain(parse_config(MINIMAL))
    k_fn = build_target_k(parse_config(_with("problem.k", expr)), dom)
    with pytest.raises(ConfigError, match="^problem.k: "):
        k_fn(dom.coords, np.zeros(dom.num_nodes))
    assert _cli_solve(tmp_path, _with("problem.k", expr)) == 2
    assert "ConfigError: problem.k: " in capsys.readouterr().err


def _leaves(tree, path=""):
    for key, val in tree.items():
        sub = f"{path}.{key}" if path else key
        if isinstance(val, dict):
            yield from _leaves(val, sub)
        else:
            yield sub, val


def test_readme_configuration_table_lists_every_setting_with_its_default():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([\w.]+)` \| ([^|]+) \|", section, re.M)
    documented = {key: cell.strip() for key, cell in rows}
    assert len(rows) == len(documented)  # no key listed twice
    settings = dict(_leaves(DEFAULTS))
    assert set(documented) == set(settings)
    for key, default in settings.items():
        cell = documented[key]
        if default is cfgmod._REQUIRED:
            assert cell == "required", key
        else:
            assert json.loads(cell.strip("`")) == default, key
