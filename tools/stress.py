"""Stress grids of solves: proof that a solver change keeps results.

    PYTHONPATH=src python tools/stress.py run OUT.jsonl
    PYTHONPATH=src python tools/stress.py run-nested OUT.jsonl
    python tools/stress.py compare A.jsonl B.jsonl

``run`` solves every case of a fixed grid of 540 hyperbolic-chart problems
with ``continuation_solve`` and writes one JSON line per case: its status,
the error class, the final tau as a hex float, the sha256 of the last
accepted f, the Newton steps and the rejected line-search trials.  The grid
crosses unit-ball grids 8x32, 16x64 and 32x128; offsets D 0.2, 0.5 and 1;
targets k 0.7, 0.9, 0.97, 1.2 and 1.5; a cap barrier of curvature k + 0.05
or none; ``max_iter`` 2, 3 and 5; and a seeded right-hand-side perturbation
of 0 or 1e-3 (seed 1), all with ``dtau_min`` 1e-3.  Many cases fail on
purpose, and each failure is part of the record.

``run-nested`` runs CLI ``solve`` (``graphcurv.cli.main``) on each of 96
problems: unit-ball grids 65x256 and 129x512, so the nested walk runs on
three levels; offsets D 0.2, 0.5 and 1; targets k 0.7, 0.9, 0.97 and 1.2;
a cap barrier of curvature k + 0.05 or none; and a perturbation of 0 or
1e-3 (seed 1).  Each record holds the exit code, the summary's status, each
level's ``start`` and ``newton_total``, and the sha256 of the solution
file.  It takes about 2 min at one BLAS thread.

``compare`` lists each case whose records differ (or that one file lacks)
and exits 1 if any does, else 0.

The tool calls only ``SolveTarget(chart, domain, k, lower=, phi_hat=)``,
``make_barrier_pair``, ``start_state``, ``perturb_rhs`` and
``continuation_solve``, and ``run-nested`` only ``graphcurv.cli.main``, so
the same file runs against an older checkout's ``src``.  A ``run`` takes
about 20 s at one BLAS thread on a 2-core x86-64 VM.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

GRIDS = [(8, 32), (16, 64), (32, 128)]
OFFSETS = [0.2, 0.5, 1.0]
TARGETS = [0.7, 0.9, 0.97, 1.2, 1.5]
CAP_EXCESS = [0.05, None]  # cap barrier at k + 0.05, or no barrier
MAX_ITER = [2, 3, 5]
PERTURB = [0.0, 1e-3]
PERTURB_SEED = 1
DTAU_MIN = 1e-3
NESTED_GRIDS = [(64, 256), (128, 512)]
NESTED_TARGETS = [0.7, 0.9, 0.97, 1.2]


def cases():
    """Every case of the grid, as dicts, in a fixed order."""
    return [
        {"nr": nr, "nphi": nphi, "D": d, "k": k, "cap": cap, "max_iter": mi, "perturb": p}
        for (nr, nphi), d, k, cap, mi, p in itertools.product(
            GRIDS, OFFSETS, TARGETS, CAP_EXCESS, MAX_ITER, PERTURB)
    ]


def label(case):
    """The case's name in a record file and in ``compare``'s report."""
    cap = "none" if case["cap"] is None else f"k+{case['cap']:g}"
    iters = f" max_iter={case['max_iter']}" if "max_iter" in case else ""
    return (f"{case['nr']}x{case['nphi']} D={case['D']:g} k={case['k']:g} cap={cap}{iters} "
            f"perturb={case['perturb']:g}")


def run_case(case):
    """Solve one case; its record (never raises for a failed solve)."""
    # imported here, so that ``compare`` needs no package on the path
    from graphcurv.charts import HyperbolicChart
    from graphcurv.diagnostics import make_barrier_pair
    from graphcurv.grids import GridDomain
    from graphcurv.solver import (
        ContinuationOptions,
        NewtonOptions,
        SolveTarget,
        continuation_solve,
        perturb_rhs,
        start_state,
    )

    chart = HyperbolicChart(n=2, offset=case["D"])
    dom = GridDomain.ball(1.0, case["nr"], case["nphi"])
    opts = ContinuationOptions(dtau_min=DTAU_MIN,
                               newton=NewtonOptions(max_iter=case["max_iter"]))
    state, error = None, None
    # failing cases overflow in the chart's warp by design; that is their record
    with np.errstate(all="ignore"):
        try:
            lower = phi_hat = None
            if case["cap"] is not None:
                bp = make_barrier_pair(chart, dom, kind="cap", k=case["k"] + case["cap"])
                lower, phi_hat = bp.lower, bp.phi_hat
            target = SolveTarget(chart, dom, case["k"], lower=lower, phi_hat=phi_hat)
            state = perturb_rhs(start_state(target), case["perturb"], PERTURB_SEED)
            continuation_solve(state, opts)
        except Exception as exc:  # the sweep goes on; the failure's class is the record
            error = type(exc).__name__
    begun = state is not None and state.f is not None
    return {
        "case": label(case),
        "status": "converged" if error is None else "failed",
        "error": error,
        "tau": float(state.tau).hex() if begun else None,
        "f_sha256": hashlib.sha256(np.ascontiguousarray(state.f).tobytes()).hexdigest()
        if begun else None,
        "newton_steps": None if state is None else state.newton_total,
        "rejected_trials": None if state is None else state.rejected_trials,
    }


def nested_cases():
    """Every case of ``run-nested``, as dicts, in a fixed order."""
    return [
        {"nr": nr, "nphi": nphi, "D": d, "k": k, "cap": cap, "perturb": p}
        for (nr, nphi), d, k, cap, p in itertools.product(
            NESTED_GRIDS, OFFSETS, NESTED_TARGETS, CAP_EXCESS, PERTURB)
    ]


def run_nested_case(case):
    """CLI ``solve`` of one nested case in a temporary directory; its record."""
    from graphcurv.cli import main

    barrier = ({"kind": "none"} if case["cap"] is None
               else {"kind": "cap", "k": case["k"] + case["cap"]})
    cfg = {
        "chart": {"kind": "hyperbolic", "offset": case["D"]},
        "domain": {"kind": "ball", "nr": case["nr"], "nphi": case["nphi"]},
        "problem": {"k": case["k"], "barrier": barrier},
        "solver": {"perturb": {"magnitude": case["perturb"]}},
    }
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "run.json").write_text(json.dumps({**cfg, "output": {"dir": tmp}}))
        quiet = io.StringIO()
        with np.errstate(all="ignore"), contextlib.redirect_stdout(quiet), \
                contextlib.redirect_stderr(quiet):
            code = main(["solve", "--config", str(out / "run.json"),
                         "--seed", str(PERTURB_SEED)])
        summary = (json.loads((out / "summary.json").read_text())
                   if (out / "summary.json").exists() else {})
        solution = out / "solution.grid"
        digest = (hashlib.sha256(solution.read_bytes()).hexdigest()
                  if solution.exists() else None)
    return {
        "case": label(case),
        "exit_code": code,
        "status": summary.get("status"),
        "levels": [{"start": m["start"], "newton_total": m["newton_total"]}
                   for m in summary.get("per_level", [])],
        "solution_sha256": digest,
    }


def read(path):
    """Records of a ``run`` file, by case label."""
    with open(path) as fh:
        return {rec["case"]: rec for rec in map(json.loads, fh)}


def compare(a, b):
    """Labels of the cases whose records differ between two ``read`` results."""
    return [case for case in sorted(a.keys() | b.keys()) if a.get(case) != b.get(case)]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 2 and argv[0] in ("run", "run-nested"):
        records = ([run_case(case) for case in cases()] if argv[0] == "run"
                   else [run_nested_case(case) for case in nested_cases()])
        with open(argv[1], "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
        done = sum(rec["status"] == "converged" for rec in records)
        print(f"{len(records)} cases, {done} converged, written to {argv[1]}")
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        a, b = read(argv[1]), read(argv[2])
        differ = compare(a, b)
        for case in differ:
            print(f"{case}\n  {argv[1]}: {a.get(case)}\n  {argv[2]}: {b.get(case)}")
        print(f"{len(differ)} of {len(a.keys() | b.keys())} cases differ")
        return 1 if differ else 0
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
