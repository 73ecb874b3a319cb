"""One phase of one workload, in a process of its own; started by run.py.

Phases (the last line of standard output is one JSON object):

* ``prepare``: solve check-65k's input solution and write it to ``--out``.
* ``setup``: time the program's set-up for the workload's grids,
  ``--reps`` times after one untimed warm-up.
* ``op``: run the workload's CLI command through ``graphcurv.cli.main``
  until ``--seconds`` of operations are spent (at least one), each into its
  own directory under ``--work``, and report each wall time, exit code and
  the process's peak RSS after the first one.  With ``--trace`` the
  operation runs once with the layer tracer installed, and the per-layer
  metrics are reported as well.
* ``gate``: check the outputs of every operation listed in ``--ops``.

The run's environment (single-threaded BLAS, ``PYTHONPATH``) is set by
run.py before this process starts.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

import workloads


def _import_graphcurv():
    """Import the package from the checkout's ``src``, nowhere else."""
    import graphcurv
    import graphcurv.cli

    src = os.path.realpath(os.environ["GRAPHCURV_SRC"])
    got = os.path.realpath(os.path.dirname(os.path.dirname(graphcurv.__file__)))
    if got != src:
        raise SystemExit(f"graphcurv imported from {got}, expected {src}")


def _write_config(work, name, raw):
    path = os.path.join(work, name)
    with open(path, "w") as fh:
        json.dump(raw, fh, indent=1, sort_keys=True)
    return path


def phase_prepare(args):
    from graphcurv import cli

    out_dir = os.path.join(args.work, "prepare")
    cfg = workloads.config("solve-65k", out_dir)
    path = _write_config(args.work, "prepare.json", cfg)
    rc = cli.main(workloads.argv("solve-65k", path, workloads.CHECK_INPUT_SEED, out_dir))
    if rc != 0:
        raise SystemExit(f"preparing the check input failed with exit code {rc}")
    os.replace(os.path.join(out_dir, "solution.grid"), args.out)
    return {"solution": args.out}


def setup_once(raws):
    """Parse, build domain operators and barrier for every grid config."""
    from graphcurv import config, diagnostics, linearize

    for raw in raws:
        cfg = config.parse_config(raw)
        chart = config.build_chart(cfg)
        domain = config.build_domain(cfg)
        domain.derivative_ops()
        linearize.frame_operators(chart, domain)
        diagnostics.make_barrier_pair(
            chart, domain, kind="cap", k=float(cfg["problem"]["barrier"]["k"])
        )


def phase_setup(args):
    spec = workloads.WORKLOADS[args.workload]
    raws = [workloads.grid_config(nr, nphi) for nr, nphi in spec["grids"]]
    setup_once(raws)  # warm-up: first-call costs inside numpy and scipy
    times = []
    for _ in range(args.reps):
        gc.collect()
        t0 = time.perf_counter()
        setup_once(raws)
        times.append(time.perf_counter() - t0)
    return {"setup_s": times}


def phase_op(args, imported_at):
    from graphcurv import cli

    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
    solution = args.solution and os.path.abspath(args.solution)
    ops = []
    while True:
        out_dir = os.path.join(args.work, f"op{args.tag}{len(ops)}")
        os.makedirs(out_dir)
        cfg_path = _write_config(
            out_dir, "config.json", workloads.config(args.workload, out_dir, solution)
        )
        argv = workloads.argv(args.workload, cfg_path, args.seed, out_dir)
        gc.collect()  # each call starts from a clean heap, as a fresh process does
        t0 = time.perf_counter()
        rc = cli.main(argv)
        elapsed = time.perf_counter() - t0
        ops.append({"dir": out_dir, "rc": rc, "op_s": elapsed})
        if len(ops) == 1:
            # later calls only add allocator fragmentation to the peak
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        spent = sum(op["op_s"] for op in ops)
        typical = statistics.median(op["op_s"] for op in ops)
        if tracer is not None or spent + typical > args.seconds:
            break
    result = {
        "ops": ops,
        "imported_at": imported_at,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.dump(os.path.join(args.work, "spans.jsonl"))
    return result


def _gate_solve(op, seed):
    import numpy as np

    from graphcurv import config, grids, solver
    from graphcurv.assembly import assemble_curvature
    from graphcurv.shape_oracle import curvature_oracle

    with open(os.path.join(op["dir"], "summary.json")) as fh:
        summary = json.load(fh)
    if summary.get("status") != "converged" or summary["tau"] != 1.0:
        return f"solve ended at tau {summary.get('tau')}: {summary.get('status')}"
    if not summary["margin"] > 0:
        return f"solution margin {summary['margin']} is not positive"
    with open(os.path.join(op["dir"], "config.json")) as fh:
        cfg = config.parse_config(json.load(fh))
    chart = config.build_chart(cfg)
    domain, f, _ = grids.load_grid(os.path.join(op["dir"], "solution.grid"))
    # the target the solver saw: k plus the --seed perturbation (perturb_rhs)
    rng = np.random.default_rng(seed)
    target = float(cfg["problem"]["k"]) + float(
        cfg["solver"]["perturb"]["magnitude"]
    ) * solver.smooth_random_field(domain, rng)
    interior = domain.interior
    K = assemble_curvature(chart, domain, f).K
    resid = float(np.max(np.abs(K - target)[interior]))
    if not resid <= float(cfg["solver"]["tol"]):
        return f"re-assembled residual {resid:.3e} above tol {cfg['solver']['tol']}"
    # validate's assembly-vs-oracle tolerance, applied against the target
    K_or = curvature_oracle(chart, domain, f).K
    gap = float(np.max(np.abs(K_or - target)[interior]))
    gap_tol = 50.0 * domain.spacing[0] ** 2 * (1.0 + float(np.max(np.abs(K_or[interior]))))
    if not gap <= gap_tol:
        return f"oracle curvature off the target by {gap:.3e} > {gap_tol:.3e}"
    return None


def _gate_sweep(op, seed):
    with open(os.path.join(op["dir"], "summary.json")) as fh:
        summary = json.load(fh)
    levels = summary.get("per_level", [])
    if len(levels) != len(workloads.WORKLOADS["sweep-16k"]["grids"]):
        return f"sweep solved {len(levels)} levels"
    if any(meta["tau"] != 1.0 for meta in levels):
        return "a sweep level stopped short of tau = 1"
    orders = summary["orders"]
    if len(orders) != 1 or not abs(orders[0] - 2.0) <= workloads.ORDER_BAND:
        return f"order estimate {orders} outside 2 +- {workloads.ORDER_BAND}"
    return None


def _gate_validate(op, seed):
    with open(os.path.join(op["dir"], "summary.json")) as fh:
        summary = json.load(fh)
    checks = summary.get("checks", {})
    if len(checks) != 6 or not all(checks.values()):
        return f"validate checks: {checks}"
    return None


_GATES = {"solve-65k": _gate_solve, "sweep-16k": _gate_sweep, "check-65k": _gate_validate}


def phase_gate(args):
    with open(args.ops) as fh:
        ops = json.load(fh)
    failures = []
    for op in ops:
        why = f"exit code {op['rc']}" if op["rc"] != 0 else None
        if why is None:
            why = _GATES[args.workload](op, args.seed)
        failures.append(why)
    return {"failures": failures}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=["prepare", "setup", "op", "gate"])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--work", required=True, help="directory for outputs")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tag", default="", help="prefix of op directory names")
    parser.add_argument("--solution", help="input solution of check-65k")
    parser.add_argument("--ops", help="JSON list of operations to gate")
    parser.add_argument("--out", help="where prepare writes the solution")
    args = parser.parse_args()
    _import_graphcurv()
    imported_at = time.time()
    if args.phase == "prepare":
        result = phase_prepare(args)
    elif args.phase == "setup":
        result = phase_setup(args)
    elif args.phase == "op":
        result = phase_op(args, imported_at)
    else:
        result = phase_gate(args)
    sys.stdout.write("\n" + json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
