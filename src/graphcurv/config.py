"""Run configuration: one JSON object per run, validated against a schema.

Every key has a default except ``chart.kind``, the domain shape counts, and
``problem.k`` (the latter only where a solve actually happens).  Unknown keys
anywhere in the tree are a hard error — a typo must never silently fall back
to a default.  Command-line flags only choose the file and override the seed
and the output directory.

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
        "n": 2,
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
        "margin_fraction": 0.1,
        "dtau_init": 0.2,
        "dtau_min": 1e-4,
        "dtau_max": 0.5,
        "easy_iterations": 3,
        "delta0": None,  # None = 0.05 * (phi_hat - phi0)
        "seed": 0,
        "perturb": {"magnitude": 0.0, "seed": None},
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
        "barrier": None,  # optional barrier grid file for cmd_validate
    },
    "sweep": {
        "levels": 3,  # number of refinement levels (each halves h)
    },
    "monitor": {
        "alpha": 1.0,
        "eps_x": 1e-3,
    },
}

# keys whose _REQUIRED default only bites for specific domain kinds
_DOMAIN_REQUIRES = {
    "ball": ("nr", "nphi"),
    "annulus": ("nr", "nphi"),
    "box": ("shape",),
    "interval": ("cells",),
}


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
        if key not in defaults:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown key {where!r}")
        sub = f"{path}.{key}" if path else key
        if isinstance(defaults[key], dict):
            out[key] = _merge(defaults[key], val if val is not None else {}, sub)
        else:
            out[key] = val
    return out


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


def build_chart(cfg):
    kind = require(cfg, "chart", "kind")
    n = int(cfg["chart"]["n"])
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
        except NameError as exc:
            raise ConfigError(f"problem.k: {exc}") from exc
        return np.broadcast_to(np.asarray(out, dtype=float), f.shape)

    return k_fn
