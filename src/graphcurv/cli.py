"""Command-line front end: ``curvature``, ``solve``, ``validate``, ``sweep``.

One JSON config per run; ``--seed`` and ``--out`` are the only flag overrides
(reproducibility beats convenience).  Every library error class maps to one
documented exit code, listed in EXIT_CODES.  All floating-point output is
written with 17 significant digits, so files round-trip bitwise.

The random generator used anywhere in a run (right-hand-side perturbations,
randomized initial iterates in tests) is numpy's PCG64 via
``numpy.random.default_rng(seed)``; the seed is recorded in the run summary.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import config as cfgmod
from .assembly import assemble_curvature
from .diagnostics import make_barrier_pair, pogorelov_monitor, validate_sandwich
from .errors import (
    ConfigError,
    DomainMismatch,
    GraphCurvError,
    NoConvergence,
    NonAdmissibleInit,
    OutOfRange,
)
from .grids import (
    coarsen_domain,
    export_csv,
    load_grid,
    prolong_values,
    refine_domain,
    restrict_values,
    save_grid,
)
from .linearize import HeldLU, stability_check
from .shape_oracle import curvature_oracle
from .solver import (
    ContinuationOptions,
    NewtonOptions,
    SolveTarget,
    continuation_solve,
    newton_solve,
    rhs_perturbation,
    start_state,
)

__all__ = ["main", "EXIT_CODES", "exit_code_for"]

EXIT_CODES = {
    "ok": 0,
    "unexpected": 1,
    "ConfigError": 2,
    "IOError": 3,
    "OutOfChart": 4,
    "DomainMismatch": 5,
    "DegenerateMetric": 6,
    "NonAdmissible": 7,
    "SingularShapeOperator": 8,
    "SingularLinearSystem": 9,
    "NoConvergence": 10,
    "StepsizeUnderflow": 11,
    "TransversalityFailure": 12,
    "OutOfRange": 13,
    "validation_failed": 14,
}


def exit_code_for(exc):
    """The code of the nearest class of a GraphCurvError named in EXIT_CODES
    (a NonAdmissibleInit exits as a NonAdmissible); 3 for an OSError."""
    if isinstance(exc, GraphCurvError):
        for cls in type(exc).__mro__:
            if cls.__name__ in EXIT_CODES:
                return EXIT_CODES[cls.__name__]
    elif isinstance(exc, OSError):
        return EXIT_CODES["IOError"]
    return EXIT_CODES["unexpected"]


def _out_path(cfg, key):
    return os.path.join(cfg["output"]["dir"], cfg["output"][key])


def _json_default(obj):
    """numpy scalars and arrays as Python values, for ``json.dump``."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_summary(cfg, obj):
    path = _out_path(cfg, "summary")
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    return path


def _write_history(cfg, rows):
    path = _out_path(cfg, "iterations")
    with open(path, "w") as fh:
        fh.write("iter,tau,residual,margin,step\n")
        for row in rows:
            fh.write(
                "%d,%.17g,%.17g,%.17g,%.17g\n"
                % (row["iter"], row.get("tau", 1.0), row["residual"],
                   row["margin"], row["step"])
            )
    return path


def _load_solution(path, cfg, domain=None):
    """(chart, grid, values) of any grid file a config names: the file must be
    written for ``cfg``'s chart over the grid's dimension, on ``domain`` if given."""
    try:
        grid, values, cid = load_grid(path)
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed grid data: {exc}")
    chart = cfgmod.build_chart(cfg, grid.n)
    if cid != chart.chart_id():
        raise DomainMismatch(
            f"file {path} was written for chart {cid}, config says {chart.chart_id()}"
        )
    if domain is not None:
        grid.check_compatible(domain)
    return chart, grid, values


def _build_barrier(cfg, chart, domain, k_ceiling, profiles=None):
    """BarrierPair per problem.barrier, or None for kind 'none'.

    ``profiles`` keeps the radial cap profiles of one command (see
    ``diagnostics.sphere_cap_barrier``)."""
    spec = cfg["problem"]["barrier"]
    kind = spec["kind"]
    if kind == "none":
        return None
    if kind == "cap":
        kb = spec["k"]
        if kb == "auto":
            if k_ceiling is None:
                raise ConfigError("barrier.k 'auto' needs problem.k")
            kb = max(1.05 * k_ceiling, k_ceiling + 0.05)
        return make_barrier_pair(chart, domain, kind="cap", k=float(kb),
                                 profiles=profiles)
    if kind == "offset":
        return make_barrier_pair(chart, domain, kind="offset", depth=float(spec["depth"]))
    if kind == "user":
        if not spec["path"]:
            raise ConfigError("barrier.kind 'user' needs barrier.path")
        fhat = _load_solution(spec["path"], cfg, domain)[2]
        return make_barrier_pair(chart, domain, kind="user", lower=fhat)
    raise ConfigError(f"problem.barrier.kind must be cap|offset|user|none, got {kind!r}")


def _initial_iterate(cfg, chart, domain, barrier, seeded):
    """Initial f for Newton mode / seeded continuation; None = default path.

    ``solver.init`` when ``seeded``, else the default start (kind 'auto').
    """
    spec = cfg["solver"]["init"]
    kind = spec["kind"] if seeded else "auto"
    if kind == "auto":
        if abs(chart.base_hypersurface().a0) > 1e-12:
            return None  # base slice is admissible; the solver starts itself
        if barrier is not None and barrier.tag == "cap":
            kind = "scaled_barrier"
        else:
            kind = "paraboloid"
    if kind == "zeros":
        return np.zeros(domain.num_nodes)
    if kind == "paraboloid":
        a = float(spec["scale"])
        if domain.layout == "polar":
            s = domain.coords[:, 0]
            return a * (s**2 - domain.extent[0][1] ** 2)
        if domain.layout == "interval":
            x = domain.coords[:, 0]
            lo, hi = domain.extent[0]
            return -a * (x - lo) * (hi - x)
        raise ConfigError("paraboloid init needs a polar or interval domain")
    if kind == "scaled_barrier":
        if barrier is None:
            raise ConfigError("scaled_barrier init needs a barrier")
        return float(spec["scale"]) * barrier.lower
    if kind == "file":
        if not spec["path"]:
            raise ConfigError("init.kind 'file' needs init.path")
        return _load_solution(spec["path"], cfg, domain)[2]
    raise ConfigError(
        f"init.kind must be auto|zeros|paraboloid|scaled_barrier|file, got {kind!r}"
    )


def _target_bounds(kval, domain):
    """(min, max) of the target at f = 0 over the interior."""
    vals = SolveTarget(None, domain, kval).evaluate(np.zeros(domain.num_nodes))
    vals = vals[domain.interior]
    return float(np.min(vals)), float(np.max(vals))


def _check_input(cfg, key):
    """(path, chart, domain, f, assembly) of the grid file at ``input.<key>``,
    with K(f) assembled once."""
    src = cfg["input"][key]
    if not src:
        raise ConfigError(f"missing required key input.{key}")
    chart, domain, f = _load_solution(src, cfg)
    return src, chart, domain, f, assemble_curvature(chart, domain, f)


def _oracle_gap(chart, domain, f, asm):
    """(oracle, gap): K(f) from the oracle (one pass) and its largest
    interior difference from the assembled K."""
    data = curvature_oracle(chart, domain, f)
    interior = domain.interior
    return data, float(np.max(np.abs(asm.K[interior] - data.K[interior])))


# ---- commands ------------------------------------------------------------------


def cmd_curvature(cfg):
    t0 = time.perf_counter()
    src, chart, domain, f, asm = _check_input(cfg, "values")
    data, gap = _oracle_gap(chart, domain, f, asm)
    interior = domain.interior
    export_csv(
        _out_path(cfg, "kfield"),
        domain,
        {"f": f, "K": asm.K, "K_oracle": data.K, "norm_A": data.norm_A},
    )
    summary = {
        "command": "curvature",
        "status": "ok",
        "chart": chart.chart_id(),
        "domain": f"{domain.kind}{list(domain.shape)}",
        "input": src,
        "margin": asm.margin,
        "admissible": bool(asm.admissible),
        "K_interior_min": float(np.min(asm.K[interior])),
        "K_interior_max": float(np.max(asm.K[interior])),
        "oracle_gap": gap,
        "elapsed_s": time.perf_counter() - t0,
    }
    _write_summary(cfg, summary)
    print(
        "curvature: K in [%.17g, %.17g], margin %.17g, oracle gap %.17g"
        % (summary["K_interior_min"], summary["K_interior_max"], asm.margin, gap)
    )
    return EXIT_CODES["ok"]


# Coarsest grid of a nested solve: the configured grid is halved while the
# halved grid keeps at least this many cells on its shortest non-periodic axis.
COARSEST_CELLS = 16


@dataclass
class _Solve:
    """One level of a walk, set up but not yet run."""

    sol: dict  # the config's solver block
    target: SolveTarget  # problem.k with the barrier sandwich: the path's goal
    bump: np.ndarray | None  # the seeded perturbation at tau = 1 (None for magnitude 0)
    nopts: NewtonOptions
    f_init: np.ndarray | None
    meta: dict
    lu: HeldLU = field(default_factory=HeldLU)  # the level's held preconditioner
    # newton_total and rejected_trials of a prolonged start that failed
    spent: dict = field(default_factory=lambda: {"newton_total": 0, "rejected_trials": 0})


def _perturbation(cfg, domain):
    """``rhs_perturbation`` of ``solver.perturb`` on ``domain``, seeded by ``solver.seed``."""
    sol = cfg["solver"]
    return rhs_perturbation(domain, float(sol["perturb"]["magnitude"]), int(sol["seed"]))


def _setup_solve(cfg, domain, seeded, profiles):
    """Chart, barrier, targets and options of one solve on ``domain``.

    The initial iterate is ``solver.init``'s when ``seeded``, else the
    default start (kind 'auto').  ``profiles`` is the walk's cache of
    radial cap profiles.
    """
    chart = cfgmod.build_chart(cfg, domain.n)
    kval = cfgmod.build_target_k(cfg, domain)
    kmin, kmax = _target_bounds(kval, domain)
    phi0 = chart.base_hypersurface().phi0
    if kmin <= phi0:
        # diagnose the target placement itself, before a barrier construction
        # can fail on the same root cause with a less useful message
        raise OutOfRange(
            f"target curvature {kmin:.6g} does not exceed the base curvature "
            f"{phi0:.6g}; no admissible graph with zero boundary data solves it"
        )
    barrier = _build_barrier(cfg, chart, domain, kmax, profiles)
    eps_gap = float(cfg["problem"]["eps_gap"])
    if barrier is not None and eps_gap > 0 and barrier.phi_hat < kmax + eps_gap:
        raise OutOfRange(
            f"barrier floor {barrier.phi_hat:.6g} clears the target {kmax:.6g} "
            f"by less than eps_gap {eps_gap:g}"
        )
    target = SolveTarget(
        chart=chart,
        domain=domain,
        k=kval,
        lower=None if barrier is None else barrier.lower,
        upper=None if barrier is None else barrier.upper,
        phi_hat=None if barrier is None else barrier.phi_hat,
    )
    sol = cfg["solver"]
    nopts = NewtonOptions(
        tol=float(sol["tol"]),
        max_iter=int(sol["max_iter"]),
        max_halvings=int(sol["max_halvings"]),
    )
    f_init = _initial_iterate(cfg, chart, domain, barrier, seeded)
    meta = {
        "chart": chart.chart_id(),
        "domain": f"{domain.kind}{list(domain.shape)}",
        "mode": sol["mode"],
        "k_min": kmin,
        "k_max": kmax,
        "phi0": phi0,
        "phi_hat": None if barrier is None else barrier.phi_hat,
        "barrier": "none" if barrier is None else barrier.tag,
        "seed": int(sol["seed"]),
        "perturb_magnitude": float(sol["perturb"]["magnitude"]),
    }
    bump = _perturbation(cfg, domain)
    if bump is not None:
        meta["perturb_seed"] = meta["seed"]
    return _Solve(sol, target, bump, nopts, f_init, meta)


def _progress(exc):
    """The accepted Newton steps and rejected line-search trials ``exc`` carries."""
    return {"newton_total": exc.steps, "rejected_trials": exc.rejected_trials}


def _newton(run, f_init):
    """Newton from ``f_init`` against the tau = 1 target; (f, history), fills meta."""
    res = newton_solve(f_init, run.target.perturbed(run.bump), run.nopts, run.lu)
    run.meta.update(tau=1.0, newton_total=res.iterations,
                    rejected_trials=res.rejected_trials,
                    residual_norm=res.residual_norm, margin=res.margin)
    return res.f, res.history


def _solve(run, below=None):
    """Solve one level on ``run.lu``; returns (f, history), fills meta.

    With ``below`` = (coarser grid, its solution), Newton first starts from
    the prolonged solution (``start`` "prolonged"); if that raises
    NoConvergence or NonAdmissibleInit, ``run.spent`` keeps its progress
    and the level is solved the configured way, on the same HeldLU.
    """
    if below is not None:
        try:
            out = _newton(run, prolong_values(below[0], run.target.domain, below[1]))
        except (NoConvergence, NonAdmissibleInit) as exc:
            run.spent = _progress(exc)
        else:
            run.meta["start"] = "prolonged"
            return out
    sol = run.sol
    run.meta["start"] = sol["mode"]
    if sol["mode"] == "newton":
        f_init = run.f_init
        if f_init is None:
            f_init = np.zeros(run.target.domain.num_nodes)
        return _newton(run, f_init)
    if sol["mode"] != "continuation":
        raise ConfigError(f"solver.mode must be continuation|newton, got {sol['mode']!r}")
    copts = ContinuationOptions(dtau_min=float(sol["dtau_min"]), newton=run.nopts)
    state = start_state(run.target, delta0=sol["delta0"], f_init=run.f_init)
    state.lu = run.lu
    state.perturbation = run.bump
    f = continuation_solve(state, copts)
    run.meta.update(
        tau=state.tau,
        newton_total=state.newton_total,
        rejected_trials=state.rejected_trials,
        residual_norm=state.residual_norm,
        margin=state.margin,
    )
    return f, state.history


def _totals(metas):
    """``newton_total``, ``rejected_trials``, ``grid_s`` and ``linear_solves``
    summed over levels, but the last level's ``fill``."""
    solves = {key: sum(m["linear_solves"][key] for m in metas)
              for key in HeldLU().counters()}
    solves["fill"] = metas[-1]["linear_solves"]["fill"] if metas else 0
    totals = {key: sum(m[key] for m in metas)
              for key in ("newton_total", "rejected_trials", "grid_s")}
    totals["linear_solves"] = solves
    return totals


def _walk(cfg, command, grids):
    """Nested iteration over grids, coarse to fine: the path of solve and sweep.

    ``grids(cfg)`` lists the grids, each the factor-2 refinement of the one
    before.  The first is solved the configured way from ``solver.init``,
    every finer one by ``_solve`` from the solution below.  Each
    level builds its own targets (with the seeded perturbation on its grid)
    and its own HeldLU; the levels share one cache of radial cap profiles,
    since refinements of one ball solve the same radial problem.  Returns
    (domain, f, meta, history) per level; the histories' ``iter`` runs on
    over the levels.  A GraphCurvError writes ``command``'s summary with the
    counters up to the failure and propagates.  The failed level's Newton
    steps, rejected line-search trials, last accepted tau and residual are
    the ones the error carries (see ``newton_solve`` and
    ``continuation_solve``), plus those of a failed prolonged start.
    """
    t0 = time.perf_counter()
    levels, domain, run = [], None, None
    profiles = {}  # radial cap profiles of this walk only
    try:
        for domain in grids(cfg):
            level_t0 = time.perf_counter()
            run = None  # lets the level below release its factors
            run = _setup_solve(cfg, domain, seeded=not levels, profiles=profiles)
            f, history = _solve(run, levels[-1][:2] if levels else None)
            shift = (sum(meta["newton_total"] for _, _, meta, _ in levels)
                     + run.spent["newton_total"])
            for key, count in run.spent.items():
                run.meta[key] += count
            run.meta["linear_solves"] = run.lu.counters()
            run.meta["grid_s"] = domain.build_s
            run.meta["elapsed_s"] = time.perf_counter() - level_t0
            history = [{**row, "iter": row["iter"] + shift} for row in history]
            levels.append((domain, f, run.meta, history))
            domain.drop_caches()  # later levels need only its values
        return levels
    except GraphCurvError as exc:
        metas = [meta for _, _, meta, _ in levels]
        begun = list(metas)
        if run is not None:
            failed = {key: run.spent[key] + count for key, count in _progress(exc).items()}
            failed["linear_solves"] = run.lu.counters()
            failed["grid_s"] = domain.build_s
            begun.append(failed)
        grid = None if domain is None else f"{domain.kind}{list(domain.shape)}"
        _write_summary(cfg, {
            "command": command, "status": type(exc).__name__, "error": str(exc),
            **_totals(begun), "tau": exc.tau, "residual_norm": exc.residual,
            "per_level": metas, "failed_level": len(metas),
            "failed_grid": grid, "elapsed_s": time.perf_counter() - t0,
        })
        raise


def _solve_grids(cfg):
    """The grids of ``solve``, coarsest first, ending on the configured one.

    The configured grid is halved while ``coarsen_domain`` allows it.  A
    ``file`` seed and a ``user`` barrier are read from files written on the
    configured grid, which then stays alone.
    """
    grids = [cfgmod.build_domain(cfg)]
    if (cfg["solver"]["init"]["kind"] != "file"
            and cfg["problem"]["barrier"]["kind"] != "user"):
        while (coarse := coarsen_domain(grids[0], COARSEST_CELLS)) is not None:
            grids.insert(0, coarse)
    return grids


def cmd_solve(cfg):
    """Solve on the configured grid by nested iteration (``_walk``).

    The configured mode runs on the coarsest grid of ``_solve_grids`` and
    Newton from the prolonged solution on every finer one; ``newton_total``
    and ``linear_solves`` are summed over the levels.
    """
    t0 = time.perf_counter()
    levels = _walk(cfg, "solve", _solve_grids)
    domain, f, meta, _ = levels[-1]
    metas = [m for _, _, m, _ in levels]
    save_grid(_out_path(cfg, "solution"), domain, f, meta["chart"])
    _write_history(cfg, [row for *_, history in levels for row in history])
    summary = {"command": "solve", "status": "converged", **meta, **_totals(metas),
               "per_level": metas, "elapsed_s": time.perf_counter() - t0,
               "solution": _out_path(cfg, "solution")}
    _write_summary(cfg, summary)
    print(
        "solve: converged, tau %.3g, %d Newton iterations on %d level(s), "
        "residual %.3e, margin %.6g"
        % (meta["tau"], summary["newton_total"], len(levels), meta["residual_norm"],
           meta["margin"])
    )
    return EXIT_CODES["ok"]


def cmd_validate(cfg):
    t0 = time.perf_counter()
    src, chart, domain, f, asm = _check_input(cfg, "solution")
    interior = domain.interior

    kval = target = None
    checks = {}
    details = {}
    if cfgmod.provided(cfg, "problem", "k") is not None:
        kval = cfgmod.build_target_k(cfg, domain)
        bump = _perturbation(cfg, domain)  # the target solve solved
        target = SolveTarget(chart, domain, kval).perturbed(bump).evaluate(f)
        if bump is not None:
            details.update(perturb_magnitude=float(cfg["solver"]["perturb"]["magnitude"]),
                           perturb_seed=int(cfg["solver"]["seed"]))

    checks["admissible"] = bool(asm.admissible)
    details["margin"] = asm.margin

    # sized by the target at f = 0, as solve sizes it
    kmax = (float(np.max(asm.K[interior])) if kval is None
            else _target_bounds(kval, domain)[1])
    barrier = _build_barrier(cfg, chart, domain, kmax)
    if barrier is not None:
        rep = validate_sandwich(f, barrier, target=target)
        checks["sandwich"] = bool(rep["passed"])
        details["sandwich"] = {
            k: v for k, v in rep.items() if k not in ("above_upper", "below_lower")
        }
        details["sandwich"]["violations"] = (
            len(rep["above_upper"]) + len(rep["below_lower"])
        )
    del barrier

    # the barrier's assembly and the oracle are the two largest transients
    # here, so the oracle runs once the barrier is checked and released
    data, gap = _oracle_gap(chart, domain, f, asm)
    ds = domain.spacing[0]
    gap_tol = 50.0 * ds**2 * (1.0 + float(np.max(np.abs(data.K[interior]))))
    checks["assembly_vs_oracle"] = bool(gap <= gap_tol)
    details["oracle_gap"] = gap
    details["oracle_gap_tol"] = gap_tol

    if target is not None:
        resid = float(np.max(np.abs(np.where(interior, asm.K - target, 0.0))))
        checks["residual"] = bool(resid <= 1e-6)
        details["residual_norm"] = resid

    # the remaining probes need library calls that can refuse bad input;
    # a refusal is a failed check here, never an abort
    mon = cfg["monitor"]
    try:
        po = pogorelov_monitor(chart, domain, f, alpha=float(mon["alpha"]), shape=data)
        checks["transversal"] = True
        details["pogorelov_sup"] = po["sup"]
        details["pogorelov_node"] = po["node"]
        details["x_min"] = po["x_min"]
    except GraphCurvError as exc:
        checks["transversal"] = False
        details["pogorelov_error"] = str(exc)
    # the stability probe builds DK and, off polar grids or where the ring
    # average does not converge, factors it, so it runs last, with the
    # oracle's fields released
    del data
    try:
        stab = stability_check(chart, domain, f, assembly=asm)
        checks["stable"] = bool(stab["stable"])
    except GraphCurvError as exc:
        checks["stable"] = False
        details["stability_error"] = str(exc)

    passed = all(checks.values())
    summary = {
        "command": "validate",
        "status": "passed" if passed else "failed",
        "chart": chart.chart_id(),
        "domain": f"{domain.kind}{list(domain.shape)}",
        "input": src,
        "checks": checks,
        "details": details,
        "elapsed_s": time.perf_counter() - t0,
    }
    _write_summary(cfg, summary)
    for name in sorted(checks):
        print(f"validate: {name}: {'pass' if checks[name] else 'FAIL'}")
    return EXIT_CODES["ok"] if passed else EXIT_CODES["validation_failed"]


def _sweep_grids(cfg):
    """``sweep.levels`` grids: ``refine_domain(base, 2**l)`` of the configured one.

    A ``user`` barrier file holds one grid, so it allows a single level.
    """
    levels = int(cfg["sweep"]["levels"])
    if levels > 1 and cfg["problem"]["barrier"]["kind"] == "user":
        raise ConfigError(
            "barrier.kind 'user' needs sweep.levels = 1: a user barrier is "
            "stored on one grid"
        )
    base = cfgmod.build_domain(cfg)
    return [refine_domain(base, 2**lvl) for lvl in range(levels)]


def cmd_sweep(cfg):
    """Grid-refinement study: the walk of ``solve`` over ``_sweep_grids``.

    Every ``per_level`` entry keeps its own counters and its ``start``:
    ``"prolonged"`` or the solver mode.  The differences between successive
    levels, sampled at the coarser nodes, give the observed orders of
    convergence.
    """
    t0 = time.perf_counter()
    results = _walk(cfg, "sweep", _sweep_grids)
    diffs = []
    for (coarse, f_coarse, _, _), (fine, f_fine, _, _) in zip(results, results[1:]):
        restricted = restrict_values(fine, coarse, f_fine)
        diffs.append(float(np.max(np.abs(f_coarse - restricted)[coarse.interior])))
    orders = [
        float(np.log2(diffs[i] / diffs[i + 1])) for i in range(len(diffs) - 1)
    ]
    table_path = _out_path(cfg, "table")
    with open(table_path, "w") as fh:
        fh.write("level,shape,h,residual,margin,newton_total,diff_to_next,order\n")
        for lvl, (dom, _, meta, _) in enumerate(results):
            cells = [
                str(lvl),
                '"%s"' % "x".join(str(m) for m in dom.shape),
                "%.17g" % dom.spacing[0],
                "%.17g" % meta["residual_norm"],
                "%.17g" % meta["margin"],
                str(meta["newton_total"]),
                "%.17g" % diffs[lvl] if lvl < len(diffs) else "",
                "%.17g" % orders[lvl] if lvl < len(orders) else "",
            ]
            fh.write(",".join(cells) + "\n")
    summary = {
        "command": "sweep",
        "status": "ok",
        "levels": len(results),
        "diffs": diffs,
        "orders": orders,
        "table": table_path,
        "per_level": [meta for _, _, meta, _ in results],
        "elapsed_s": time.perf_counter() - t0,
    }
    _write_summary(cfg, summary)
    for i, o in enumerate(orders):
        print("sweep: order between levels %d-%d-%d: %.3f" % (i, i + 1, i + 2, o))
    if not orders:
        print("sweep: %d level(s), no order estimate" % len(results))
    return EXIT_CODES["ok"]


# ---- entry point ---------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="graphcurv",
        description="Prescribed-curvature graphs over model hypersurfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("curvature", "assemble K(f) for a stored graph and compare to the oracle"),
        ("solve", "solve K(f) = k by damped Newton or curvature continuation"),
        ("validate", "run the diagnostics battery on a stored solution"),
        ("sweep", "grid-refinement convergence study"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override solver.seed")
        p.add_argument("--out", default=None, help="override output.dir")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; no effect (sweep "
                            "levels are solved in order)")
    args = parser.parse_args(argv)
    try:
        cfg = cfgmod.load_config(args.config)
        if args.seed is not None:
            cfgmod.check_least("solver.seed", args.seed)
            cfg["solver"]["seed"] = args.seed
        if args.out is not None:
            cfg["output"]["dir"] = args.out
        os.makedirs(cfg["output"]["dir"], exist_ok=True)
        if args.command == "curvature":
            return cmd_curvature(cfg)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "validate":
            return cmd_validate(cfg)
        return cmd_sweep(cfg)
    except GraphCurvError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except OSError as exc:
        print(f"IO error: {exc}", file=sys.stderr)
        return EXIT_CODES["IOError"]
    except Exception as exc:  # pragma: no cover - last resort
        print(f"unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CODES["unexpected"]


if __name__ == "__main__":
    sys.exit(main())
