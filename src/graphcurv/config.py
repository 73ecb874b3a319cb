"""Run configuration: one JSON object per run, validated against a schema.

Every key has a default except ``chart.kind``, the domain shape counts, and
``problem.k`` (the latter only where a solve actually happens).  Unknown keys
anywhere in the tree are a hard error — a typo must never silently fall back
to a default — and so are a block that is not an object (``null`` included),
at any depth, a setting of another JSON type than its default (a bool
takes ``true``/``false``, a float any number, an int or a count an integer),
and a setting below its least value (``_LEAST``).  Command-line flags only
choose the file and override the seed and the output directory.  No setting
repeats another input: the chart's dimension is the grid's (``build_chart``).

The target curvature ``problem.k`` is either a number or a small arithmetic
expression in the base coordinates (``s``/``phi`` on polar grids, ``x``/``y``
on boxes, ``x`` on intervals) plus the current graph values ``f``, evaluated
with numpy under a restricted namespace.  Configs are trusted local input;
the namespace restriction guards against accidents, not adversaries.
"""

from __future__ import annotations

import copy
import json

import numpy as np

from .charts import EpsilonChart, EuclideanChart, HyperbolicChart
from .errors import ConfigError
from .grids import GridDomain

__all__ = [
    "DEFAULTS",
    "load_config",
    "parse_config",
    "check_least",
    "require",
    "provided",
    "build_chart",
    "build_domain",
    "build_target_k",
]

_REQUIRED = object()  # sentinel: no default, must be supplied (when used)

DEFAULTS = {
    "chart": {
        "kind": _REQUIRED,  # euclidean | hyperbolic | epsilon
        "offset": 0.5,  # hyperbolic: distance of the base slice
        "eps": 0.1,  # epsilon family parameter
        "normalized": True,  # epsilon: unit-speed base warp normalization
    },
    "domain": {
        "kind": _REQUIRED,  # ball | annulus | box | interval
        "radius": 1.0,
        "nr": _REQUIRED,
        "nphi": _REQUIRED,
        "r0": 0.5,
        "r1": 1.0,
        "lo": 0.0,
        "hi": 1.0,
        "cells": _REQUIRED,
        "extent": [[0.0, 1.0], [0.0, 1.0]],
        "shape": _REQUIRED,
        "periodic": [False, False],
    },
    "problem": {
        "k": _REQUIRED,  # number or expression string
        "eps_gap": 0.0,  # required clearance phi_hat - max k
        "barrier": {
            "kind": "cap",  # cap | offset | user | none
            "k": "auto",  # cap curvature; 'auto' = slightly above max target
            "depth": 0.25,  # offset barrier depth
            "path": None,  # user barrier grid file
        },
    },
    "solver": {
        "mode": "continuation",  # continuation | newton
        "tol": 1e-9,
        "max_iter": 100,
        "max_halvings": 10,
        "dtau_min": 1e-4,
        "delta0": None,  # None = 0.05 * (phi_hat - phi0)
        "seed": 0,
        "perturb": {"magnitude": 0.0},
        "init": {
            "kind": "auto",  # auto | zeros | paraboloid | scaled_barrier | file
            "scale": 0.9,  # scaled_barrier factor / paraboloid coefficient
            "path": None,
        },
    },
    "output": {
        "dir": ".",
        "solution": "solution.grid",
        "iterations": "iterations.csv",
        "summary": "summary.json",
        "kfield": "kfield.csv",
        "table": "sweep.csv",
    },
    "input": {
        "values": None,  # grid file of f for cmd_curvature
        "solution": None,  # grid file for cmd_validate
    },
    "sweep": {
        "levels": 3,  # number of refinement levels (each halves h)
    },
    "monitor": {
        "alpha": 1.0,
    },
}

# JSON types of the settings whose default does not show one: the required
# ones, those that default to null, and the cap curvature beside its "auto"
# (problem.k, a number or an expression, is checked by build_target_k)
_TYPES = {
    "chart.kind": "", "domain.kind": "", "domain.nr": 0, "domain.nphi": 0,
    "domain.cells": 0, "domain.shape": [0], "problem.barrier.k": 0.0,
    "problem.barrier.path": "", "solver.delta0": 0.0, "solver.init.path": "",
    "input.values": "", "input.solution": "",
}
# least value of each setting that has one, and whether that value is allowed
_LEAST = {"solver.tol": (0, False), "solver.dtau_min": (0, False),
          "solver.max_iter": (1, True), "solver.max_halvings": (0, True),
          "solver.seed": (0, True), "monitor.alpha": (1, True),
          "sweep.levels": (1, True)}
# what a default of each type admits; a bool is a number to Python, not here
_ADMITS = {bool: ("true or false", bool), int: ("an integer", int),
           float: ("a number", (int, float)), str: ("a string", str), list: ("a list", list)}

# keys whose _REQUIRED default only bites for specific domain kinds
_DOMAIN_REQUIRES = {
    "ball": ("nr", "nphi"),
    "annulus": ("nr", "nphi"),
    "box": ("shape",),
    "interval": ("cells",),
}


def _check_type(where, example, val):
    """ConfigError naming ``where`` unless ``val`` has the JSON type of
    ``example`` (each entry of a list that of its first entry)."""
    if type(example) not in _ADMITS:
        return
    what, types = _ADMITS[type(example)]
    if not isinstance(val, types) or isinstance(val, bool) != isinstance(example, bool):
        raise ConfigError(f"{where} must be {what}, got {val!r}")
    for i, item in enumerate(val if isinstance(val, list) else ()):
        _check_type(f"{where}[{i}]", example[0], item)


def _merge(defaults, given, path):
    """Defaults overlaid with ``given``; unknown keys are a hard error."""
    if not isinstance(given, dict):
        raise ConfigError(f"{path or 'config'} must be an object, got {type(given).__name__}")
    out = {}
    for key, dval in defaults.items():
        # the sentinel must keep its identity; everything else is copied so
        # parsed configs never alias the DEFAULTS tree
        out[key] = dval if dval is _REQUIRED else copy.deepcopy(dval)
    for key, val in given.items():
        sub = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown key {sub!r}")
        dval = defaults[key]
        if isinstance(dval, dict):
            val = _merge(dval, val, sub)
        elif (type(val), val) != (type(dval), dval):  # the default always passes
            _check_type(sub, _TYPES.get(sub, dval), val)
            check_least(sub, val)
        out[key] = val
    return out


def check_least(path, val):
    """ConfigError naming the setting ``path`` if ``val`` is below its least value."""
    least, allowed = _LEAST.get(path, (None, True))
    if least is not None and not (val >= least if allowed else val > least):
        raise ConfigError(f"{path} must be {'>=' if allowed else '>'} {least}, got {val!r}")


def parse_config(obj):
    """Validate a raw JSON object against the schema; fill defaults.

    Leaves _REQUIRED sentinels in place for the command layer to demand
    only where actually used (cmd_curvature, say, never needs problem.k).
    """
    cfg = {}
    for block, defaults in DEFAULTS.items():
        cfg[block] = _merge(defaults, obj.get(block, {}), block)
    for key in obj:
        if key not in DEFAULTS:
            raise ConfigError(f"unknown key {key!r}")
    return cfg


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return parse_config(obj)


def require(cfg, block, key):
    val = cfg[block][key]
    if val is _REQUIRED:
        raise ConfigError(f"missing required key {block}.{key}")
    return val


def provided(cfg, block, key):
    """The configured value, or None when a required key was left unset."""
    val = cfg[block][key]
    return None if val is _REQUIRED else val


def build_chart(cfg, n=2):
    """The configured chart over an ``n``-dimensional base: the grid's ``n``."""
    kind = require(cfg, "chart", "kind")
    if kind == "euclidean":
        return EuclideanChart(n=n)
    if kind == "hyperbolic":
        return HyperbolicChart(offset=float(cfg["chart"]["offset"]), n=n)
    if kind == "epsilon":
        return EpsilonChart(
            eps=float(cfg["chart"]["eps"]),
            n=n,
            normalized=bool(cfg["chart"]["normalized"]),
        )
    raise ConfigError(f"chart.kind must be euclidean|hyperbolic|epsilon, got {kind!r}")


def build_domain(cfg):
    kind = require(cfg, "domain", "kind")
    dom = cfg["domain"]
    if kind not in _DOMAIN_REQUIRES:
        raise ConfigError(
            f"domain.kind must be ball|annulus|box|interval, got {kind!r}"
        )
    for key in _DOMAIN_REQUIRES[kind]:
        if dom[key] is _REQUIRED:
            raise ConfigError(f"missing required key domain.{key}")
    if kind == "ball":
        return GridDomain.ball(float(dom["radius"]), int(dom["nr"]), int(dom["nphi"]))
    if kind == "annulus":
        return GridDomain.annulus(
            float(dom["r0"]), float(dom["r1"]), int(dom["nr"]), int(dom["nphi"])
        )
    if kind == "interval":
        return GridDomain.interval(float(dom["lo"]), float(dom["hi"]), int(dom["cells"]))
    extent = tuple(tuple(map(float, ab)) for ab in dom["extent"])
    shape = tuple(int(m) for m in dom["shape"])
    periodic = tuple(bool(p) for p in dom["periodic"])
    return GridDomain.box(extent, shape, periodic)


_EXPR_NAMES = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "log": np.log, "sqrt": np.sqrt, "tanh": np.tanh, "cosh": np.cosh,
    "sinh": np.sinh, "abs": np.abs, "minimum": np.minimum,
    "maximum": np.maximum, "where": np.where, "pi": np.pi, "np": np,
}


def build_target_k(cfg, domain):
    """problem.k as a float or a callable (coords, f) -> array."""
    k = require(cfg, "problem", "k")
    if isinstance(k, (int, float)):
        return float(k)
    if not isinstance(k, str):
        raise ConfigError("problem.k must be a number or an expression string")
    try:
        code = compile(k, "<problem.k>", "eval")
    except SyntaxError as exc:
        raise ConfigError(f"problem.k: {exc.msg}") from exc
    layout = domain.layout

    def k_fn(coords, f):
        ns = dict(_EXPR_NAMES)
        ns["f"] = f
        if layout == "polar":
            ns["s"] = coords[:, 0]
            ns["phi"] = coords[:, 1]
        elif layout == "interval":
            ns["x"] = coords[:, 0]
        else:
            ns["x"] = coords[:, 0]
            ns["y"] = coords[:, 1]
        try:
            out = eval(code, {"__builtins__": {}}, ns)  # noqa: S307 - see module docstring
            return np.broadcast_to(np.asarray(out, dtype=float), f.shape)
        except (ArithmeticError, NameError, TypeError, ValueError) as exc:
            raise ConfigError(f"problem.k: {exc}") from exc

    return k_fn
