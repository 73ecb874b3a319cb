"""The benchmark's workloads: one CLI command each, on fixed grids.

Every workload solves (or checks) the same problem: the hyperbolic chart at
offset D = 0.5, target curvature k = 0.9 on the unit ball, cap barrier of
curvature 0.95, curvature continuation.  The workload seed reaches the
program only through the CLI's ``--seed``, which seeds the right-hand-side
perturbation of ``solver.perturb.magnitude`` where that is not zero.

Standard library only: ``run.py`` imports this module before any child
process exists.
"""

from __future__ import annotations

import copy

# |order - 2| allowed for the sweep's order estimate.
ORDER_BAND = 0.1

_PROBLEM = {
    "chart": {"kind": "hyperbolic", "offset": 0.5},
    "domain": {"kind": "ball", "radius": 1.0},
    "problem": {"k": 0.9, "barrier": {"kind": "cap", "k": 0.95}},
    "solver": {"mode": "continuation"},
}

# command: CLI subcommand; grids: (nr, nphi) of every grid the command
# solves on, for the set-up phase; op_procs: processes the operations of a
# run are split over, with a set-up process before, between and after them;
# setup_reps: timed set-ups per set-up process; perturb:
# solver.perturb.magnitude, the size of the seeded perturbation.
# At 65 537 nodes a nonzero perturbation breaks the rotational symmetry
# that keeps the ring-1 round-off under tol = 1e-9: with 1e-6 the solve ended
# in StepsizeUnderflow after 3 minutes, and with 1e-10 or 1e-13 it had not
# converged after 200 s (unperturbed: about 30 s).  So the 65k workloads run
# the unperturbed problem, and their seed changes nothing.
WORKLOADS = {
    "solve-65k": {
        "command": "solve", "grids": [(128, 512)],
        "op_procs": 1, "setup_reps": 12, "perturb": 0.0,
    },
    "sweep-16k": {
        "command": "sweep", "grids": [(16, 64), (32, 128), (64, 256)],
        "op_procs": 2, "setup_reps": 8, "perturb": 1e-6,
    },
    "check-65k": {
        "command": "validate", "grids": [(128, 512)],
        "op_procs": 2, "setup_reps": 8, "perturb": 0.0,
    },
}

# Seed of the solve that makes check-65k's input solution.
CHECK_INPUT_SEED = 0


def grid_config(nr, nphi):
    """Raw config of the problem on one (nr, nphi) ball grid."""
    cfg = copy.deepcopy(_PROBLEM)
    cfg["domain"].update(nr=nr, nphi=nphi)
    return cfg


def config(workload, out_dir, solution=None):
    """Raw config of ``workload``'s command, writing into ``out_dir``."""
    spec = WORKLOADS[workload]
    cfg = grid_config(*spec["grids"][0])
    cfg["output"] = {"dir": out_dir}
    cfg["solver"]["perturb"] = {"magnitude": spec["perturb"]}
    if spec["command"] == "sweep":
        cfg["sweep"] = {"levels": len(spec["grids"])}
    elif spec["command"] == "validate":
        cfg["input"] = {"solution": solution}
    return cfg


def argv(workload, config_path, seed, out_dir):
    """Arguments to ``graphcurv.cli.main`` for one operation."""
    command = WORKLOADS[workload]["command"]
    args = [command, "--config", config_path, "--seed", str(seed), "--out", out_dir]
    if command == "sweep":
        args += ["--jobs", "1"]
    return args
