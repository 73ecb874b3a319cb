"""Command-line surface: subcommands, exit codes, artifact formats."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from graphcurv import assembly, cli, diagnostics, linearize, solver
from graphcurv import config as cfgmod
from graphcurv import errors as err
from graphcurv.assembly import assemble_curvature
from graphcurv.charts import EuclideanChart, HyperbolicChart
from graphcurv.cli import EXIT_CODES, exit_code_for, main
from graphcurv.diagnostics import make_barrier_pair
from graphcurv.grids import GridDomain, load_grid, restrict_values, save_grid
from graphcurv.shape_oracle import curvature_oracle
from graphcurv.solver import (
    SolveTarget,
    continuation_solve,
    newton_solve,
    smooth_random_field,
    start_state,
)


def write_cfg(tmp_path, name="run.json", **overrides):
    cfg = {
        "chart": {"kind": "hyperbolic", "offset": 0.5},
        "domain": {"kind": "ball", "nr": 8, "nphi": 32},
        "problem": {"k": 0.7},
        "output": {"dir": str(tmp_path / "out")},
    }
    for block, vals in overrides.items():
        if isinstance(vals, dict):
            cfg.setdefault(block, {}).update(vals)
        else:
            cfg[block] = vals
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_summary(tmp_path):
    with open(tmp_path / "out" / "summary.json") as fh:
        return json.load(fh)


# ---- solve ---------------------------------------------------------------------


def test_solve_happy_path(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["solve", "--config", str(cfg)]) == 0
    summary = read_summary(tmp_path)
    assert summary["status"] == "converged"
    assert summary["residual_norm"] <= 1e-9
    assert summary["tau"] == 1.0
    dom, f, cid = load_grid(tmp_path / "out" / "solution.grid")
    assert cid.startswith("hyperbolic")
    assert np.all(f[dom.interior] < 0.0)
    assert np.all(f[dom.boundary] == 0.0)
    with open(tmp_path / "out" / "iterations.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and set(rows[0]) == {"iter", "tau", "residual", "margin", "step"}
    assert float(rows[-1]["residual"]) <= 1e-9
    solves = summary["linear_solves"]
    assert set(solves) == {"factorizations", "ring_averages", "krylov_iterations",
                           "fallbacks", "trisolves", "fill"}
    # the ball's ring average preconditions every solve: no LU is made
    assert solves["factorizations"] == solves["fallbacks"] == solves["fill"] == 0
    assert solves["ring_averages"] == 1
    assert solves["trisolves"] >= summary["newton_total"] + solves["krylov_iterations"]


def test_solve_newton_mode(tmp_path):
    cfg = write_cfg(
        tmp_path,
        chart={"kind": "euclidean"},
        problem={"k": 0.5},
        solver={"mode": "newton", "init": {"kind": "paraboloid", "scale": 0.25}},
    )
    assert main(["solve", "--config", str(cfg)]) == 0
    summary = read_summary(tmp_path)
    assert summary["status"] == "converged"
    assert summary["linear_solves"]["factorizations"] == 0
    assert summary["linear_solves"]["ring_averages"] >= 1
    dom, f, _ = load_grid(tmp_path / "out" / "solution.grid")
    s = dom.coords[:, 0]
    exact = np.sqrt(3.0) - np.sqrt(4.0 - s**2)
    assert np.max(np.abs(f - exact)) < 5e-4


def test_solve_newton_mode_applies_the_perturbation(tmp_path):
    sols = {}
    for mag in (0.0, 1e-3):
        out = tmp_path / f"o{mag}"
        cfg = write_cfg(
            tmp_path,
            name=f"n{mag}.json",
            output={"dir": str(out)},
            problem={"k": 0.6, "barrier": {"kind": "none"}},
            solver={"mode": "newton", "perturb": {"magnitude": mag}},
        )
        assert main(["solve", "--config", str(cfg), "--seed", "3"]) == 0
        sols[mag] = load_grid(out / "solution.grid")
    dom, f, _ = sols[1e-3]
    assert not np.array_equal(f, sols[0.0][1])
    target = 0.6 + 1e-3 * smooth_random_field(dom, np.random.default_rng(3))
    K = assemble_curvature(HyperbolicChart(n=2, offset=0.5), dom, f).K
    assert np.max(np.abs(K - target)[dom.interior]) <= 1e-9


def test_solve_infeasible_target_fails_honestly(tmp_path):
    cfg = write_cfg(
        tmp_path,
        problem={"k": 1.5, "barrier": {"kind": "offset", "depth": 2.0}},
        domain={"kind": "ball", "nr": 6, "nphi": 16},
        solver={"dtau_min": 1e-2},
    )
    rc = main(["solve", "--config", str(cfg)])
    assert rc == EXIT_CODES["StepsizeUnderflow"] == 11
    summary = read_summary(tmp_path)
    assert summary["status"] == "StepsizeUnderflow"


def test_solve_determinism_and_seed_override(tmp_path):
    cfg1 = write_cfg(tmp_path, name="a.json",
                     output={"dir": str(tmp_path / "o1")},
                     solver={"perturb": {"magnitude": 1e-4}})
    cfg2 = write_cfg(tmp_path, name="b.json",
                     output={"dir": str(tmp_path / "o2")},
                     solver={"perturb": {"magnitude": 1e-4}})
    assert main(["solve", "--config", str(cfg1), "--seed", "9"]) == 0
    assert main(["solve", "--config", str(cfg2), "--seed", "9"]) == 0
    b1 = (tmp_path / "o1" / "solution.grid").read_bytes()
    b2 = (tmp_path / "o2" / "solution.grid").read_bytes()
    assert b1 == b2
    with open(tmp_path / "o1" / "summary.json") as fh:
        assert json.load(fh)["seed"] == 9

    cfg3 = write_cfg(tmp_path, name="c.json",
                     output={"dir": str(tmp_path / "o3")},
                     solver={"perturb": {"magnitude": 1e-4}})
    assert main(["solve", "--config", str(cfg3), "--seed", "10"]) == 0
    assert (tmp_path / "o3" / "solution.grid").read_bytes() != b1


# ---- nested solve --------------------------------------------------------------


def solve_summary(tmp_path, name, **overrides):
    out = tmp_path / name
    cfg = write_cfg(tmp_path, name=f"{name}.json", output={"dir": str(out)}, **overrides)
    rc = main(["solve", "--config", str(cfg)])
    with open(out / "summary.json") as fh:
        return rc, json.load(fh)


def test_solve_computes_the_polar_warp_once_per_grid(tmp_path, monkeypatch):
    # each level's assemblies and operators read its grid's cached warp; the
    # cap profile (1025 radii, as many as the 17x64 grid has nodes) reads
    # base_warp on radii of its own, so calls are told apart by their radii
    radii = []
    real = assembly.warp_factors
    monkeypatch.setattr(assembly, "warp_factors",
                        lambda w, wp, s: radii.append(s.copy()) or real(w, wp, s))
    rc, _ = solve_summary(tmp_path, "warp", domain={"kind": "ball", "nr": 32, "nphi": 128})
    assert rc == 0
    grids = [GridDomain.ball(1.0, 16, 64), GridDomain.ball(1.0, 32, 128)]
    assert [sum(np.array_equal(s, g.coords[:, 0]) for s in radii) for g in grids] == [1, 1]
    assert len(radii) == 2


def test_solve_nests_from_the_coarsest_grid(tmp_path):
    rc, summary = solve_summary(tmp_path, "nested",
                                domain={"kind": "ball", "nr": 32, "nphi": 128})
    assert rc == 0
    levels = summary["per_level"]
    assert [m["domain"] for m in levels] == ["ball[17, 64]", "ball[33, 128]"]
    assert [m["start"] for m in levels] == ["continuation", "prolonged"]
    assert summary["residual_norm"] <= 1e-9 and summary["tau"] == 1.0
    assert summary["newton_total"] == sum(m["newton_total"] for m in levels)
    solves = summary["linear_solves"]
    for key in ("factorizations", "krylov_iterations", "fallbacks", "trisolves"):
        assert solves[key] == sum(m["linear_solves"][key] for m in levels)
    assert solves["fill"] == levels[-1]["linear_solves"]["fill"]
    with open(tmp_path / "nested" / "iterations.csv") as fh:
        rows = list(csv.DictReader(fh))
    iters = [int(row["iter"]) for row in rows]
    assert iters == sorted(set(iters)) and iters[-1] == summary["newton_total"]
    fine_rows = rows[-levels[-1]["newton_total"]:]
    assert fine_rows and all(float(row["tau"]) == 1.0 for row in fine_rows)

    dom, f, _ = load_grid(tmp_path / "nested" / "solution.grid")
    chart = HyperbolicChart(n=2, offset=0.5)
    bp = make_barrier_pair(chart, dom, kind="cap", k=0.75)  # barrier.k "auto"
    target = SolveTarget(chart, dom, 0.7, lower=bp.lower, upper=bp.upper,
                         phi_hat=bp.phi_hat)
    plain = continuation_solve(start_state(target))
    assert np.max(np.abs(f - plain)) <= 1e-8


@pytest.mark.parametrize("nr, nphi", [(8, 32), (32, 136), (33, 128)],
                         ids=["4-rings-below", "nphi-68", "odd-nr"])
def test_solve_keeps_one_level_where_the_grid_cannot_be_halved(tmp_path, nr, nphi):
    rc, summary = solve_summary(tmp_path, "one", domain={"kind": "ball", "nr": nr,
                                                         "nphi": nphi})
    assert rc == 0
    assert [m["domain"] for m in summary["per_level"]] == [f"ball[{nr + 1}, {nphi}]"]
    assert summary["start"] == "continuation"


def test_solve_nests_in_newton_mode(tmp_path):
    rc, summary = solve_summary(
        tmp_path, "newton",
        chart={"kind": "euclidean"},
        domain={"kind": "ball", "nr": 32, "nphi": 128},
        problem={"k": 0.5},
        solver={"mode": "newton", "init": {"kind": "paraboloid", "scale": 0.25}},
    )
    assert rc == 0
    assert [m["start"] for m in summary["per_level"]] == ["newton", "prolonged"]
    dom, f, _ = load_grid(tmp_path / "newton" / "solution.grid")
    s = dom.coords[:, 0]
    plain = newton_solve(0.25 * (s**2 - 1.0), SolveTarget(EuclideanChart(n=2), dom, 0.5))
    assert summary["residual_norm"] <= 1e-9
    assert np.max(np.abs(f - plain.f)) <= 1e-8


def test_a_walk_solves_each_radial_cap_profile_once(tmp_path, monkeypatch):
    solved = []
    real = diagnostics._cap_profile
    monkeypatch.setattr(diagnostics, "_cap_profile",
                        lambda *args: solved.append(args[3]) or real(*args))
    for name in ("a", "b"):
        rc, summary = solve_summary(tmp_path, name,
                                    domain={"kind": "ball", "nr": 64, "nphi": 256})
        assert rc == 0 and len(summary["per_level"]) == 3
    # 17x64 reads a 512-cell profile, 33x128 and 65x256 share a 1024-cell
    # one; nothing is kept from one command to the next
    assert solved == [512, 1024, 512, 1024]
    assert ((tmp_path / "a" / "solution.grid").read_bytes()
            == (tmp_path / "b" / "solution.grid").read_bytes())


def test_summary_reports_rejected_line_search_trials(tmp_path, monkeypatch):
    # Newton from f = 0 towards k = 1.35 exhausts its line search; the
    # failure summary carries the trials the library counts
    target = SolveTarget(HyperbolicChart(n=2, offset=0.5), GridDomain.ball(1.0, 8, 32), 1.35)
    with pytest.raises(err.NoConvergence) as info:
        newton_solve(np.zeros(target.domain.num_nodes), target)
    assert info.value.rejected_trials > 0
    rc, summary = solve_summary(tmp_path, "fail", problem={"k": 1.35, "barrier": {"kind": "none"}},
                                solver={"mode": "newton", "init": {"kind": "zeros"}})
    assert rc == EXIT_CODES["NoConvergence"]
    assert summary["rejected_trials"] == info.value.rejected_trials

    # every converged Newton solve (each continuation corrector, each
    # prolonged start) adds its count to its level
    calls = []
    real = solver.newton_solve

    def one_rejected_trial(*args):
        calls.append(args[1].domain.num_nodes)
        return dataclasses.replace(real(*args), rejected_trials=1)

    monkeypatch.setattr(solver, "newton_solve", one_rejected_trial)
    monkeypatch.setattr(cli, "newton_solve", one_rejected_trial)
    rc, summary = solve_summary(tmp_path, "nested", domain={"kind": "ball", "nr": 32,
                                                            "nphi": 128})
    assert rc == 0
    levels = summary["per_level"]
    # 1025 and 4097 nodes: the 17x64 and 33x128 levels
    assert [m["rejected_trials"] for m in levels] == [calls.count(1025), calls.count(4097)]
    assert levels[1]["rejected_trials"] == 1
    assert summary["rejected_trials"] == len(calls)


def test_solve_falls_back_on_the_finest_level(tmp_path, monkeypatch):
    # a concave start is not admissible, so the finest level runs the
    # configured continuation from the default start
    monkeypatch.setattr(
        cli, "prolong_values", lambda coarse, fine, v: 1.0 - fine.coords[:, 0] ** 2
    )
    rc, summary = solve_summary(tmp_path, "fallback",
                                domain={"kind": "ball", "nr": 32, "nphi": 128})
    assert rc == 0
    assert [m["start"] for m in summary["per_level"]] == ["continuation"] * 2
    assert summary["start"] == "continuation"
    assert summary["tau"] == 1.0 and summary["residual_norm"] <= 1e-9


def test_file_seed_is_used_on_its_own_grid_only(tmp_path):
    rc, _ = solve_summary(tmp_path, "seed", domain={"kind": "ball", "nr": 4, "nphi": 16})
    assert rc == 0
    seed = {"kind": "file", "path": str(tmp_path / "seed" / "solution.grid")}
    cfg = write_cfg(tmp_path, domain={"kind": "ball", "nr": 4, "nphi": 16},
                    problem={"k": 0.72}, solver={"init": seed}, sweep={"levels": 2})
    assert main(["sweep", "--config", str(cfg)]) == 0
    summary = read_summary(tmp_path)
    assert [m["start"] for m in summary["per_level"]] == ["continuation", "prolonged"]

    # a file seed keeps solve on the configured grid, which could be halved
    parsed = cfgmod.parse_config(json.loads(
        write_cfg(tmp_path, name="big.json", domain={"kind": "ball", "nr": 32, "nphi": 128},
                  solver={"init": seed}).read_text()))
    assert [d.shape for d in cli._solve_grids(parsed)] == [(33, 128)]
    parsed["solver"]["init"]["kind"] = "auto"
    assert [d.shape for d in cli._solve_grids(parsed)] == [(17, 64), (33, 128)]


def test_user_barrier_keeps_solve_on_its_own_grid(tmp_path):
    big = {"kind": "ball", "nr": 32, "nphi": 128}
    rc, _ = solve_summary(tmp_path, "barrier", domain=big, problem={"k": 0.75})
    assert rc == 0
    barrier = {"kind": "user", "path": str(tmp_path / "barrier" / "solution.grid")}
    rc, summary = solve_summary(tmp_path, "user", domain=big,
                                problem={"k": 0.7, "barrier": barrier})
    assert rc == 0
    assert summary["barrier"] == "user"
    assert [m["domain"] for m in summary["per_level"]] == ["ball[33, 128]"]
    assert summary["residual_norm"] <= 1e-9 and summary["tau"] == 1.0


# traced heap peak of the solve below, in bytes per node, with one copy of
# each operator array and no CSR matrix; caching the 13 combined polar frame
# tables beside the derivative operators adds about 90 bytes per node, and
# keeping an assembly's frame Hessian and Psi beside its M adds 64, each
# past the 5 % allowed
SOLVE_PEAK_PER_NODE = 547.2


def test_solve_heap_peak_per_node_stays_at_its_measured_value(tmp_path):
    cfg = write_cfg(tmp_path, domain={"kind": "ball", "nr": 64, "nphi": 256},
                    problem={"k": 0.9, "barrier": {"kind": "cap", "k": 0.95}})
    tracemalloc.start()
    try:
        assert main(["solve", "--config", str(cfg)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (1 + 64 * 256) <= 1.05 * SOLVE_PEAK_PER_NODE


def _traced_peak(call, *args):
    """(result, traced heap peak in bytes) of ``call(*args)``: the most it
    held at once beyond what was live when it started."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def solved_ball(tmp_path_factory):
    """Solution file of the 65x256 problem the solve guard above traces."""
    tmp_path = tmp_path_factory.mktemp("ball")
    cfg = write_cfg(tmp_path, domain={"kind": "ball", "nr": 64, "nphi": 256},
                    problem={"k": 0.9, "barrier": {"kind": "cap", "k": 0.95}})
    assert main(["solve", "--config", str(cfg)]) == 0
    return tmp_path / "out" / "solution.grid"


# traced heap peak of the oracle on that solution, in bytes per node, with
# the grid's derivative operators already built: X, its first partials, the
# metric and the normal at once, each second partial one component at a
# time.  Holding every component's second partials at once, on one (N, m)
# padded grid, peaks at 475
ORACLE_PEAK_PER_NODE = 189.2


def test_oracle_heap_peak_per_node_stays_at_its_measured_value(solved_ball):
    dom, f, _ = load_grid(solved_ball)
    dom.derivative_ops()
    data, peak = _traced_peak(curvature_oracle, HyperbolicChart(n=2, offset=0.5), dom, f)
    assert np.all(data.vert_align[dom.interior] > 0.0)
    assert peak / dom.num_nodes <= 1.05 * ORACLE_PEAK_PER_NODE


# traced heap peak of validate on that solution, in bytes per node: the
# assembly's fields stay live throughout, and the barrier, the oracle and
# the stability probe each add their transient in turn.  Running the oracle
# beside the barrier's assembly adds about 100 bytes per node, and keeping
# the assembly's frame Hessian and Psi 64
VALIDATE_PEAK_PER_NODE = 439.8


def test_validate_heap_peak_per_node_stays_at_its_measured_value(solved_ball, tmp_path):
    vcfg = write_cfg(tmp_path, domain={"kind": "ball", "nr": 64, "nphi": 256},
                     problem={"k": 0.9, "barrier": {"kind": "cap", "k": 0.95}},
                     input={"solution": str(solved_ball)})
    rc, peak = _traced_peak(main, ["validate", "--config", str(vcfg)])
    assert rc == 0
    assert peak / (1 + 64 * 256) <= 1.05 * VALIDATE_PEAK_PER_NODE


def test_interval_solve_writes_the_chart_of_its_dimension(tmp_path):
    interval = {"kind": "interval", "cells": 32, "lo": -1.0, "hi": 1.0}
    rc, summary = solve_summary(tmp_path, "interval", domain=interval,
                                problem={"k": 0.7, "barrier": {"kind": "none"}})
    assert rc == 0 and summary["chart"] == "hyperbolic:n=1:D=0.5"
    sol = tmp_path / "interval" / "solution.grid"
    assert load_grid(sol)[2] == "hyperbolic:n=1:D=0.5"
    vcfg = write_cfg(tmp_path, name="validate.json", domain=interval,
                     problem={"k": 0.7, "barrier": {"kind": "none"}},
                     input={"solution": str(sol)}, output={"dir": str(tmp_path / "vout")})
    assert main(["validate", "--config", str(vcfg)]) == 0
    with open(tmp_path / "vout" / "summary.json") as fh:
        assert json.load(fh)["status"] == "passed"


def test_auto_start_over_a_flat_interval_is_a_paraboloid(tmp_path):
    # the flat base is degenerate and no cap barrier exists to scale, so
    # init.kind "auto" seeds the continuation with the paraboloid; the
    # solution is the circular arc of curvature k through the end points
    rc, summary = solve_summary(tmp_path, "flat", chart={"kind": "euclidean"},
                                domain={"kind": "interval", "cells": 32, "lo": -1.0, "hi": 1.0},
                                problem={"k": 0.5, "barrier": {"kind": "none"}})
    assert rc == 0 and summary["barrier"] == "none"
    assert [m["start"] for m in summary["per_level"]] == ["continuation", "prolonged"]
    dom, f, _ = load_grid(tmp_path / "flat" / "solution.grid")
    x = dom.coords[:, 0]
    assert np.max(np.abs(f - (np.sqrt(3.0) - np.sqrt(4.0 - x**2)))) < 2e-4


@pytest.mark.parametrize("domain, limit", [
    ({"kind": "box", "shape": [6, 6], "extent": [[0, 1]]}, "2 axes"),
    ({"kind": "box", "shape": [6, 6], "periodic": [False]}, "2 axes"),
    ({"kind": "box", "shape": []}, "2 axes"),
    ({"kind": "box", "shape": [6, 6, 6]}, "2 axes"),
    ({"kind": "ball", "nr": 4, "nphi": 0}, "multiple of 8"),
], ids=["short-extent", "short-periodic", "no-axis", "three-axes", "ball-nphi-0"])
def test_grid_shape_that_cannot_be_built_is_out_of_range(tmp_path, capsys, domain, limit):
    cfg = write_cfg(tmp_path, domain=domain, problem={"barrier": {"kind": "offset"}})
    assert main(["solve", "--config", str(cfg)]) == EXIT_CODES["OutOfRange"]
    err_text = capsys.readouterr().err
    assert err_text.startswith("OutOfRange: ") and limit in err_text


@pytest.mark.parametrize("domain, limit", [
    ({"kind": "annulus", "r0": 0.9, "r1": 0.5, "nr": 8, "nphi": 32}, "0 < r0 < r1"),
    ({"kind": "annulus", "r0": 0.0, "r1": 1.0, "nr": 8, "nphi": 32}, "0 < r0 < r1"),
    ({"kind": "interval", "lo": 1.0, "hi": 0.0, "cells": 32}, "lo < hi"),
    ({"kind": "box", "shape": [9, 9], "extent": [[1.0, 1.0], [0.0, 1.0]]}, "lo < hi"),
    ({"kind": "ball", "radius": -1.0, "nr": 8, "nphi": 32}, "radius > 0"),
], ids=["reversed-annulus", "annulus-at-the-pole", "reversed-interval", "flat-box",
        "negative-ball"])
def test_grid_extent_that_is_empty_or_reversed_is_out_of_range(tmp_path, capsys, domain, limit):
    cfg = write_cfg(tmp_path, domain=domain, problem={"barrier": {"kind": "offset"}})
    assert main(["solve", "--config", str(cfg)]) == EXIT_CODES["OutOfRange"]
    err_text = capsys.readouterr().err
    assert err_text.startswith("OutOfRange: ") and limit in err_text


# ---- failed runs --------------------------------------------------------------


INFEASIBLE = dict(
    problem={"k": 1.5, "barrier": {"kind": "offset", "depth": 2.0}},
    domain={"kind": "ball", "nr": 6, "nphi": 16},
    solver={"dtau_min": 1e-2},
)


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_failed_run_writes_its_counters(tmp_path, command):
    cfg = write_cfg(tmp_path, sweep={"levels": 2}, **INFEASIBLE)
    assert main([command, "--config", str(cfg)]) == EXIT_CODES["StepsizeUnderflow"]
    summary = read_summary(tmp_path)
    assert summary["command"] == command
    assert summary["status"] == "StepsizeUnderflow"
    assert "underflow" in summary["error"]
    assert summary["newton_total"] > 0
    assert 0.0 <= summary["tau"] < 1.0
    assert summary["residual_norm"] <= 1e-9  # of the last accepted corrector
    solves = summary["linear_solves"]
    assert solves["factorizations"] == 0 and solves["ring_averages"] >= 1
    assert solves["trisolves"] >= 1
    assert solves["fill"] == 0
    assert summary["per_level"] == []
    assert summary["failed_level"] == 0
    assert summary["failed_grid"] == "ball[7, 16]"


def test_failed_newton_run_reports_its_last_residual(tmp_path):
    cfg = write_cfg(tmp_path, solver={"mode": "newton", "max_iter": 1})
    assert main(["solve", "--config", str(cfg)]) == EXIT_CODES["NoConvergence"]
    summary = read_summary(tmp_path)
    assert summary["newton_total"] == 1
    assert summary["tau"] is None
    assert summary["residual_norm"] > 1e-9
    solves = summary["linear_solves"]
    assert solves["factorizations"] == 0 and solves["ring_averages"] == 1
    assert solves["trisolves"] == 1 + solves["krylov_iterations"]


def test_failed_newton_run_counts_the_steps_before_a_singular_solve(tmp_path, monkeypatch):
    solve = linearize.EllipticOperator.solve
    calls = []

    def second_solve_fails(op, rhs, held=None):
        calls.append(rhs)
        if len(calls) == 2:
            raise err.SingularLinearSystem("forced on the second Newton step")
        return solve(op, rhs, held)

    monkeypatch.setattr(linearize.EllipticOperator, "solve", second_solve_fails)
    cfg = write_cfg(tmp_path, solver={"mode": "newton"})
    assert main(["solve", "--config", str(cfg)]) == EXIT_CODES["SingularLinearSystem"]
    summary = read_summary(tmp_path)
    assert summary["status"] == "SingularLinearSystem"
    assert summary["newton_total"] == 1
    solves = summary["linear_solves"]
    assert solves["factorizations"] == 0 and solves["ring_averages"] == 1
    assert solves["trisolves"] == 1 + solves["krylov_iterations"]
    # the residual the first step reached is minus the second solve's rhs
    assert summary["residual_norm"] == np.max(np.abs(calls[1]))


# ---- curvature -----------------------------------------------------------------


def test_curvature_command(tmp_path):
    dom = GridDomain.ball(1.0, 8, 32)
    chart = HyperbolicChart(n=2, offset=0.5)
    field = tmp_path / "zero.grid"
    save_grid(field, dom, np.zeros(dom.num_nodes), chart.chart_id())
    cfg = write_cfg(tmp_path, input={"values": str(field)})
    assert main(["curvature", "--config", str(cfg)]) == 0
    summary = read_summary(tmp_path)
    want = np.tanh(0.5)
    assert summary["K_interior_min"] == pytest.approx(want, abs=1e-12)
    assert summary["K_interior_max"] == pytest.approx(want, abs=1e-12)
    assert summary["oracle_gap"] < 5e-3
    with open(tmp_path / "out" / "kfield.csv") as fh:
        header = fh.readline().strip()
    assert header == "s,phi,f,K,K_oracle,norm_A"


def test_curvature_requires_input(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["curvature", "--config", str(cfg)]) == EXIT_CODES["ConfigError"]


def test_curvature_chart_mismatch(tmp_path):
    dom = GridDomain.ball(1.0, 4, 16)
    field = tmp_path / "other.grid"
    save_grid(field, dom, np.zeros(dom.num_nodes), "euclidean:n=2")
    cfg = write_cfg(tmp_path, input={"values": str(field)})
    assert main(["curvature", "--config", str(cfg)]) == EXIT_CODES["DomainMismatch"]


def test_curvature_missing_grid_file(tmp_path):
    cfg = write_cfg(tmp_path, input={"values": str(tmp_path / "absent.grid")})
    assert main(["curvature", "--config", str(cfg)]) == EXIT_CODES["IOError"] == 3


def _grid_with_header(tmp_path, edit):
    """A ball grid file whose JSON header is replaced by ``edit(header)``."""
    dom = GridDomain.ball(1.0, 4, 16)
    path = tmp_path / "field.grid"
    save_grid(path, dom, np.zeros(dom.num_nodes), HyperbolicChart(n=2, offset=0.5).chart_id())
    header, payload = path.read_bytes().split(b"\n", 1)
    path.write_bytes(json.dumps(edit(json.loads(header))).encode() + b"\n" + payload)
    return path


def test_grid_header_that_is_not_an_object_is_a_config_error(tmp_path, capsys):
    path = _grid_with_header(tmp_path, lambda header: list(header.items()))
    cfg = write_cfg(tmp_path, input={"values": str(path)})
    assert main(["curvature", "--config", str(cfg)]) == EXIT_CODES["ConfigError"]
    assert f"ConfigError: {path}: malformed grid header: not a JSON object" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("key", ["layout", "shape", "extent", "spacing", "boundary", "chart",
                                 "encoding"])
def test_grid_header_without_a_key_is_a_config_error(tmp_path, capsys, key):
    path = _grid_with_header(tmp_path, lambda header: {k: v for k, v in header.items()
                                                       if k != key})
    cfg = write_cfg(tmp_path, input={"values": str(path)})
    assert main(["curvature", "--config", str(cfg)]) == EXIT_CODES["ConfigError"]
    assert f"ConfigError: {path}: malformed grid header: missing key {key!r}" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("key,value", [
    ("shape", 5), ("extent", "x"), ("spacing", "a"), ("periodic", 3), ("layout", ["ball"]),
])
def test_grid_header_value_of_a_wrong_type_is_a_config_error(tmp_path, capsys, key, value):
    path = _grid_with_header(tmp_path, lambda header: {**header, key: value})
    cfg = write_cfg(tmp_path, input={"values": str(path)})
    assert main(["curvature", "--config", str(cfg)]) == EXIT_CODES["ConfigError"]
    assert f"ConfigError: {path}: malformed grid header: {key!r}: " in capsys.readouterr().err


def test_grid_payload_of_partial_values_is_a_config_error(tmp_path, capsys):
    path = _grid_with_header(tmp_path, lambda header: header)
    path.write_bytes(path.read_bytes()[:-4])
    cfg = write_cfg(tmp_path, input={"values": str(path)})
    assert main(["curvature", "--config", str(cfg)]) == EXIT_CODES["ConfigError"] == 2
    assert (f"ConfigError: {path}: malformed grid data: {65 * 8 - 4} bytes of values, "
            "not a whole number of 8-byte values") in capsys.readouterr().err


def test_grid_of_an_unknown_encoding_is_a_config_error(tmp_path, capsys):
    path = _grid_with_header(tmp_path, lambda header: {**header, "encoding": "%.17g"})
    cfg = write_cfg(tmp_path, input={"values": str(path)})
    assert main(["curvature", "--config", str(cfg)]) == EXIT_CODES["ConfigError"]
    assert (f"ConfigError: {path}: malformed grid header: 'encoding': '%.17g' is not '<f8'"
            in capsys.readouterr().err)


# ---- validate ------------------------------------------------------------------


def test_validate_solution_roundtrip(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["solve", "--config", str(cfg)]) == 0
    vcfg = write_cfg(
        tmp_path,
        name="validate.json",
        input={"solution": str(tmp_path / "out" / "solution.grid")},
        output={"dir": str(tmp_path / "vout")},
    )
    assert main(["validate", "--config", str(vcfg)]) == 0
    with open(tmp_path / "vout" / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["status"] == "passed"
    assert all(summary["checks"].values())


def test_polar_runs_load_no_scipy_linalg_and_a_box_loads_splu(tmp_path):
    # a fresh interpreter: importing the CLI loads no scipy module, and polar
    # levels make no CSR matrix and no LU, so scipy.sparse does not load
    ball = {"domain": {"nr": 16, "nphi": 64}}
    solve = write_cfg(tmp_path, **ball)
    sweep = write_cfg(tmp_path, name="sweep.json", domain={"nr": 4, "nphi": 16},
                      sweep={"levels": 2}, output={"dir": str(tmp_path / "sout")})
    validate = write_cfg(tmp_path, name="validate.json", **ball,
                         input={"solution": str(tmp_path / "out" / "solution.grid")},
                         output={"dir": str(tmp_path / "vout")})
    box = write_cfg(tmp_path, name="box.json",
                    domain={"kind": "box", "shape": [13, 13], "extent": [[-1, 1], [-1, 1]]},
                    problem={"barrier": {"kind": "offset"}},
                    output={"dir": str(tmp_path / "bout")})
    script = "\n".join([
        "import sys",
        "from graphcurv.cli import main",
        "print([m for m in sys.modules if m.partition('.')[0] == 'scipy'])",
        "SCIPY = ('scipy.sparse', 'scipy.linalg', 'scipy.sparse.linalg')",
        *(f"assert main([{cmd!r}, '--config', {str(path)!r}]) == 0\n"
          "print([m for m in SCIPY if m in sys.modules])"
          for cmd, path in [("solve", solve), ("sweep", sweep), ("validate", validate),
                            ("solve", box)]),
    ])
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    loaded = [line for line in run.stdout.splitlines() if line.startswith("[")]
    assert loaded == ["[]", "[]", "[]", "[]",
                      "['scipy.sparse', 'scipy.linalg', 'scipy.sparse.linalg']"]
    with open(tmp_path / "bout" / "summary.json") as fh:
        assert json.load(fh)["linear_solves"]["factorizations"] >= 1


def test_validate_checks_the_perturbed_target_that_solve_solved(tmp_path):
    # with magnitude 1e-5 the unperturbed residual would be the perturbation
    # itself, ten times validate's threshold of 1e-6
    solver_block = {"perturb": {"magnitude": 1e-5}}
    cfg = write_cfg(tmp_path, domain={"nr": 16, "nphi": 64}, solver=solver_block)
    assert main(["solve", "--config", str(cfg), "--seed", "1"]) == 0
    assert read_summary(tmp_path)["status"] == "converged"
    vcfg = write_cfg(
        tmp_path, name="validate.json", domain={"nr": 16, "nphi": 64}, solver=solver_block,
        input={"solution": str(tmp_path / "out" / "solution.grid")},
        output={"dir": str(tmp_path / "vout")},
    )
    assert main(["validate", "--config", str(vcfg), "--seed", "1"]) == 0
    with open(tmp_path / "vout" / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["checks"]["residual"] and summary["details"]["residual_norm"] <= 1e-9
    assert summary["details"]["perturb_magnitude"] == 1e-5
    assert summary["details"]["perturb_seed"] == 1
    # another seed is another target: the residual is the perturbation's size
    assert main(["validate", "--config", str(vcfg), "--seed", "2"]) == EXIT_CODES["validation_failed"]
    with open(tmp_path / "vout" / "summary.json") as fh:
        assert not json.load(fh)["checks"]["residual"]


def test_validate_reads_a_user_barrier_from_problem_barrier(tmp_path):
    small = {"kind": "ball", "nr": 8, "nphi": 32}
    assert solve_summary(tmp_path, "barrier", domain=small, problem={"k": 0.75})[0] == 0
    assert solve_summary(tmp_path, "solved", domain=small, problem={"k": 0.7})[0] == 0
    barrier = {"kind": "user", "path": str(tmp_path / "barrier" / "solution.grid")}
    vcfg = write_cfg(tmp_path, name="validate.json", domain=small,
                     problem={"k": 0.7, "barrier": barrier},
                     input={"solution": str(tmp_path / "solved" / "solution.grid")},
                     output={"dir": str(tmp_path / "vout")})
    assert main(["validate", "--config", str(vcfg)]) == 0
    with open(tmp_path / "vout" / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["status"] == "passed" and summary["checks"]["sandwich"]
    assert summary["details"]["sandwich"]["tag"] == "user"


def test_validate_rejects_corrupted_solution(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["solve", "--config", str(cfg)]) == 0
    sol = tmp_path / "out" / "solution.grid"
    dom, f, cid = load_grid(sol)
    f = f + np.where(dom.interior, 0.3, 0.0)  # push above the upper barrier
    broken = tmp_path / "broken.grid"
    save_grid(broken, dom, f, cid)
    vcfg = write_cfg(
        tmp_path,
        name="validate.json",
        input={"solution": str(broken)},
        output={"dir": str(tmp_path / "vout")},
    )
    assert main(["validate", "--config", str(vcfg)]) == EXIT_CODES["validation_failed"]
    with open(tmp_path / "vout" / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["status"] == "failed"
    assert not all(summary["checks"].values())


def test_validate_builds_the_oracle_and_the_assembly_once(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path)
    assert main(["solve", "--config", str(cfg)]) == 0
    sol = tmp_path / "out" / "solution.grid"
    _, f_sol, _ = load_grid(sol)
    calls = {"curvature_oracle": 0, "assemble_curvature": 0}

    def counted(name, fn):
        def wrapper(chart, domain, f, *args, **kwargs):
            calls[name] += bool(np.array_equal(f, f_sol))
            return fn(chart, domain, f, *args, **kwargs)
        return wrapper

    for mod in (cli, diagnostics, linearize):
        for name in calls:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    vcfg = write_cfg(tmp_path, name="validate.json", input={"solution": str(sol)},
                     output={"dir": str(tmp_path / "vout")})
    assert main(["validate", "--config", str(vcfg)]) == 0
    assert calls == {"curvature_oracle": 1, "assemble_curvature": 1}


# ---- sweep ----------------------------------------------------------------------


def test_sweep_reports_convergence_order(tmp_path):
    cfg = write_cfg(
        tmp_path,
        domain={"kind": "ball", "nr": 4, "nphi": 16},
        sweep={"levels": 3},
    )
    assert main(["sweep", "--config", str(cfg)]) == 0
    summary = read_summary(tmp_path)
    orders = summary["orders"]
    assert orders and orders[-1] > 1.5
    with open(tmp_path / "out" / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert rows[0]["diff_to_next"] != ""
    starts = [meta["start"] for meta in summary["per_level"]]
    assert starts == ["continuation", "prolonged", "prolonged"]
    assert "jobs" not in summary


@pytest.mark.parametrize("command, nr, nphi", [("solve", 32, 128), ("sweep", 16, 64)])
def test_every_level_reports_the_time_spent_building_its_grid(tmp_path, monkeypatch,
                                                              command, nr, nphi):
    built = {}  # level grid -> names of the operators built on it
    real = GridDomain.cached

    def cached(self, key, build):
        if key not in self._frame_cache and self.kind == "ball":
            built.setdefault(self, set()).add(key if isinstance(key, str) else key[0])
        return real(self, key, build)

    monkeypatch.setattr(GridDomain, "cached", cached)
    cfg = write_cfg(tmp_path, domain={"kind": "ball", "nr": nr, "nphi": nphi},
                    sweep={"levels": 2})
    assert main([command, "--config", str(cfg)]) == 0
    levels = read_summary(tmp_path)["per_level"]
    assert [m["domain"] for m in levels] == ["ball[17, 64]", "ball[33, 128]"]
    grids = [dom for dom in built if dom.shape in ((17, 64), (33, 128))]
    assert len(grids) == 2
    for meta, dom in zip(levels, sorted(grids, key=lambda d: d.num_nodes)):
        assert built[dom] >= {"derivative_ops", "frame"}
        # the dissection order is built for an LU, which the ring average spares
        factored = meta["linear_solves"]["factorizations"] > 0
        assert ("dissection_order" in built[dom]) == factored
        assert meta["grid_s"] == dom.build_s > 0.0


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_every_level_reports_its_wall_time(tmp_path, command):
    cfg = write_cfg(tmp_path, domain={"kind": "ball", "nr": 32, "nphi": 128},
                    sweep={"levels": 2})
    assert main([command, "--config", str(cfg)]) == 0
    summary = read_summary(tmp_path)
    levels = [meta["elapsed_s"] for meta in summary["per_level"]]
    assert len(levels) == 2 and all(t > 0.0 for t in levels)
    assert sum(levels) <= summary["elapsed_s"]


@pytest.mark.parametrize("finest_fails", [False, True], ids=["converged", "failed"])
def test_solve_reports_the_grid_time_of_all_its_levels(tmp_path, monkeypatch, finest_fails):
    # the top-level grid_s is the run's, summed over its levels like
    # newton_total, not the finest level's; a failed level counts its own
    finest = []
    if finest_fails:
        monkeypatch.setattr(
            cli, "prolong_values", lambda coarse, fine, v: 1.0 - fine.coords[:, 0] ** 2
        )
        real = cli.continuation_solve

        def finest_level_fails(state, opts):
            if state.target.domain.shape == (33, 128):
                finest.append(state.target.domain)
                raise err.NoConvergence("forced on the finest level")
            return real(state, opts)

        monkeypatch.setattr(cli, "continuation_solve", finest_level_fails)
    rc, summary = solve_summary(tmp_path, "grid_s",
                                domain={"kind": "ball", "nr": 32, "nphi": 128})
    assert rc == (EXIT_CODES["NoConvergence"] if finest_fails else 0)
    levels = [meta["grid_s"] for meta in summary["per_level"]]
    assert len(levels) == (1 if finest_fails else 2) and len(levels + finest) == 2
    assert summary["grid_s"] == sum(levels + [dom.build_s for dom in finest])


def test_sweep_level_falls_back_to_the_continuation(tmp_path, monkeypatch):
    # a concave start is not admissible, so level 1 must be solved by the
    # full continuation, exactly as a plain solve on that grid would
    monkeypatch.setattr(
        cli, "prolong_values", lambda coarse, fine, v: 1.0 - fine.coords[:, 0] ** 2
    )
    cfg = write_cfg(tmp_path, domain={"kind": "ball", "nr": 4, "nphi": 16},
                    sweep={"levels": 2})
    assert main(["sweep", "--config", str(cfg)]) == 0
    summary = read_summary(tmp_path)
    assert [m["start"] for m in summary["per_level"]] == ["continuation"] * 2

    sols, metas = [], []
    for nr, nphi in [(4, 16), (8, 32)]:
        out = tmp_path / f"solve{nr}"
        solve_cfg = write_cfg(tmp_path, name=f"solve{nr}.json",
                              domain={"kind": "ball", "nr": nr, "nphi": nphi},
                              output={"dir": str(out)})
        assert main(["solve", "--config", str(solve_cfg)]) == 0
        sols.append(load_grid(out / "solution.grid"))
        with open(out / "summary.json") as fh:
            metas.append(json.load(fh))
    for meta, ref in zip(summary["per_level"], metas):
        for key in ("newton_total", "residual_norm", "margin", "linear_solves"):
            assert meta[key] == ref[key]
    (coarse, f0, _), (fine, f1, _) = sols
    diff = np.max(np.abs(f0 - restrict_values(fine, coarse, f1))[coarse.interior])
    assert summary["diffs"] == [diff]


def test_sweep_counts_the_steps_of_a_failed_prolonged_start(tmp_path, monkeypatch):
    def solve_sweep(name):
        cfg = write_cfg(tmp_path, name=f"{name}.json",
                        output={"dir": str(tmp_path / name)},
                        domain={"kind": "ball", "nr": 4, "nphi": 16},
                        sweep={"levels": 2})
        assert main(["sweep", "--config", str(cfg)]) == 0
        with open(tmp_path / name / "summary.json") as fh:
            return json.load(fh)["per_level"][1]

    def prolonged_start_gives_up(f_init, target, opts, lu):
        # in continuation mode the CLI calls newton_solve only for a
        # prolonged start; the continuation calls it through the solver
        exc = err.NoConvergence("line search exhausted", steps=2)
        exc.rejected_trials = 3
        raise exc

    monkeypatch.setattr(
        cli, "prolong_values", lambda coarse, fine, v: 1.0 - fine.coords[:, 0] ** 2
    )
    refused = solve_sweep("refused")
    monkeypatch.setattr(cli, "newton_solve", prolonged_start_gives_up)
    gave_up = solve_sweep("gave_up")
    assert refused["start"] == gave_up["start"] == "continuation"
    assert gave_up["newton_total"] == refused["newton_total"] + 2
    assert gave_up["rejected_trials"] == refused["rejected_trials"] + 3


def test_sweep_refuses_a_user_barrier_on_more_than_one_level(tmp_path, capsys):
    small = {"kind": "ball", "nr": 4, "nphi": 16}
    rc, _ = solve_summary(tmp_path, "barrier", domain=small, problem={"k": 0.75})
    assert rc == 0
    barrier = {"kind": "user", "path": str(tmp_path / "barrier" / "solution.grid")}
    cfg = write_cfg(tmp_path, domain=small, problem={"k": 0.7, "barrier": barrier},
                    sweep={"levels": 2})
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg)]) == EXIT_CODES["ConfigError"]
    assert "a user barrier is stored on one grid" in capsys.readouterr().err
    summary = read_summary(tmp_path)
    assert summary["status"] == "ConfigError"
    assert summary["per_level"] == [] and summary["failed_grid"] is None
    assert summary["newton_total"] == 0
    assert summary["linear_solves"]["factorizations"] == 0

    one = write_cfg(tmp_path, name="one.json", domain=small,
                    problem={"k": 0.7, "barrier": barrier}, sweep={"levels": 1})
    assert main(["sweep", "--config", str(one)]) == 0


def test_sweep_parallel_matches_serial(tmp_path):
    cfg1 = write_cfg(tmp_path, name="s1.json",
                     domain={"kind": "ball", "nr": 4, "nphi": 16},
                     output={"dir": str(tmp_path / "o1")})
    cfg2 = write_cfg(tmp_path, name="s2.json",
                     domain={"kind": "ball", "nr": 4, "nphi": 16},
                     output={"dir": str(tmp_path / "o2")})
    assert main(["sweep", "--config", str(cfg1)]) == 0
    assert main(["sweep", "--config", str(cfg2), "--jobs", "2"]) == 0
    t1 = (tmp_path / "o1" / "sweep.csv").read_bytes()
    t2 = (tmp_path / "o2" / "sweep.csv").read_bytes()
    assert t1 == t2


# ---- config errors through the CLI ------------------------------------------------


def test_cli_config_error_paths(tmp_path):
    missing_k = write_cfg(tmp_path, name="nok.json", problem={})
    (tmp_path / "nok.json").write_text(
        json.dumps(
            {
                "chart": {"kind": "hyperbolic", "offset": 0.5},
                "domain": {"kind": "ball", "nr": 4, "nphi": 16},
                "output": {"dir": str(tmp_path / "out")},
            }
        )
    )
    assert main(["solve", "--config", str(missing_k)]) == EXIT_CODES["ConfigError"]

    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps({"chart": {"kind": "hyperbolic"}, "porblem": {}}))
    assert main(["solve", "--config", str(typo)]) == 2

    assert main(["solve", "--config", str(tmp_path / "ghost.json")]) == 2

    notjson = tmp_path / "bad.json"
    notjson.write_text("{ nope")
    assert main(["solve", "--config", str(notjson)]) == 2


@pytest.mark.parametrize("block,flag,value", [("solver", "--seed", "3"),
                                              ("output", "--out", "elsewhere")])
def test_flag_over_a_non_object_block_is_a_config_error(tmp_path, capsys, block, flag,
                                                        value):
    cfg = write_cfg(tmp_path, **{block: 5})
    assert main(["solve", "--config", str(cfg), flag, value]) == EXIT_CODES["ConfigError"]
    assert f"ConfigError: {block} must be an object" in capsys.readouterr().err


def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.json"
    cfg.write_bytes('{"chart": {"kind": "hyperbolic"}, "problem": {"k": "é"}}'
                    .encode("latin-1"))
    assert main(["solve", "--config", str(cfg)]) == EXIT_CODES["ConfigError"]
    assert "ConfigError: cannot read config" in capsys.readouterr().err


def test_target_below_base_curvature_is_out_of_range(tmp_path):
    cfg = write_cfg(tmp_path, problem={"k": 0.3})
    assert main(["solve", "--config", str(cfg)]) == EXIT_CODES["OutOfRange"] == 13


@pytest.mark.parametrize("eps_gap, code", [(0.06, 13), (0.04, 0)])
def test_eps_gap_demands_that_clearance_of_the_barrier_floor(tmp_path, capsys, eps_gap,
                                                            code):
    # the "auto" cap over k = 0.7 on 8x32 has phi_hat 0.7501: a clearance of 0.0501
    cfg = write_cfg(tmp_path, problem={"eps_gap": eps_gap})
    assert main(["solve", "--config", str(cfg)]) == code
    if code == EXIT_CODES["OutOfRange"]:
        assert "OutOfRange: barrier floor 0.750143 clears the target 0.7 by less " \
               "than eps_gap 0.06" in capsys.readouterr().err
    else:
        summary = read_summary(tmp_path)
        assert summary["status"] == "converged" and summary["phi_hat"] > 0.7 + eps_gap


# ---- exit-code map -----------------------------------------------------------------


@pytest.mark.parametrize(
    "exc,code",
    [
        (err.ConfigError("x"), 2),
        (err.OutOfChart("x"), 4),
        (err.DomainMismatch("x"), 5),
        (err.DegenerateMetric("x"), 6),
        (err.NonAdmissible("x"), 7),
        (err.NonAdmissibleInit("x"), 7),
        (err.SingularShapeOperator("x"), 8),
        (err.SingularLinearSystem("x"), 9),
        (err.NoConvergence("x"), 10),
        (err.StepsizeUnderflow("x"), 11),
        (err.TransversalityFailure("x"), 12),
        (err.OutOfRange("x"), 13),
        (OSError("x"), 3),
        (ValueError("x"), 1),
    ],
)
def test_exit_code_map(exc, code):
    assert exit_code_for(exc) == code


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize("cls", sorted(_subclasses(err.GraphCurvError),
                                       key=lambda c: c.__name__))
def test_every_error_class_maps_to_a_documented_exit_code(cls):
    assert exit_code_for(cls("x")) not in (EXIT_CODES["ok"], EXIT_CODES["unexpected"])
