"""graphcurv benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload solve-65k --seed 1 --seconds 20 --trace 0

The checkout is the directory holding ``bench/``; the package is imported
from its ``src``.  ``--trace 0`` reports the end-to-end metrics (op_s,
setup_s, peak_rss_mb); ``--trace 1`` reports the per-layer metrics of one
traced operation.  Every phase runs in a child process (see worker.py) with
BLAS pinned to one thread; outputs go to ``.bench_build/bench``.  The last
line of standard output is the result object; a phase that fails ends the
run with a non-zero exit code and no result.  See README.md for the
workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import workloads  # noqa: E402

# A run must end within this many seconds, child processes included.
RUN_DEADLINE_S = 170.0

END_TO_END = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class PhaseFailed(Exception):
    pass


def _tree_hash(*dirs):
    """Digest of every .py file under ``dirs``."""
    digest = hashlib.sha256()
    for top in dirs:
        for root, subdirs, files in os.walk(top):
            subdirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(root, name)
                    digest.update(os.path.relpath(path, top).encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return digest.hexdigest()[:16]


class Runner:
    def __init__(self, root, work, deadline):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
            PYTHONPATH=os.path.join(root, "src"),
            GRAPHCURV_SRC=os.path.join(root, "src"),
        )

    def phase(self, *args):
        """Run worker.py with ``args``; returns (its result, wall time at start)."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
        started = time.time()
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise PhaseFailed(f"no time left for {args[0]}")
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, capture_output=True,
                text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise PhaseFailed(f"{args[0]} ran out of the run's time") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            raise PhaseFailed(f"{args[0]} exited with code {proc.returncode}")
        return json.loads(lines[-1]), started


def _check_input(runner, path):
    """check-65k's input solution at ``path``, solved there if missing."""
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        runner.phase("prepare", "--workload", "check-65k", "--work", runner.work,
                     "--out", path + ".tmp")
        os.replace(path + ".tmp", path)


def _ops(runner, common, seconds, tag, trace=False):
    extra = ["--trace"] if trace else []
    result, started = runner.phase(
        "op", *common, "--seconds", str(seconds), "--tag", tag, *extra
    )
    result["import_s"] = result["imported_at"] - started
    return result


def _setup(runner, common, spec):
    result, _ = runner.phase("setup", *common, "--reps", str(spec["setup_reps"]))
    return result["setup_s"]


def _gate(runner, args, ops):
    path = os.path.join(runner.work, "ops.json")
    with open(path, "w") as fh:
        json.dump(ops, fh)
    result, _ = runner.phase("gate", "--workload", args.workload, "--work", runner.work,
                             "--seed", str(args.seed), "--ops", path)
    for op, why in zip(ops, result["failures"]):
        op["failure"] = why
        if why is not None:
            sys.stderr.write(f"{args.workload}: operation in {op['dir']} failed: {why}\n")


def _counts_repeat(path, layers):
    """Compare this traced run's counts with an earlier one stored at ``path``."""
    counts = {name: layers[name] for name in layertrace.COUNTS}
    if os.path.exists(path):
        with open(path) as fh:
            earlier = json.load(fh)
        if earlier != counts:
            sys.stderr.write(f"counts differ from an earlier traced run: "
                             f"{earlier} vs {counts}\n")
            return False
        return True
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(counts, fh, sort_keys=True)
    return True


def run(args, root):
    spec = workloads.WORKLOADS[args.workload]
    base = os.path.join(root, ".bench_build", "bench")
    work = os.path.join(base, "runs", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(root, work, time.monotonic() + RUN_DEADLINE_S)
    # outputs that depend only on the code are kept per digest of src/ and bench/
    digest = _tree_hash(os.path.join(root, "src"), HERE)
    common = ["--workload", args.workload, "--work", work, "--seed", str(args.seed)]
    if args.workload == "check-65k":
        solution = os.path.join(base, "cache", f"check-65k-{digest}.grid")
        _check_input(runner, solution)
        common += ["--solution", solution]

    # The operations are split over op_procs processes, and set-up is timed
    # before, between and after them, so that both medians sample the
    # machine over the whole run: its speed drifts on a scale of seconds.
    nprocs = spec["op_procs"]
    setup_times = []
    plain = []
    for i in range(nprocs):
        if not args.trace:
            setup_times += _setup(runner, common, spec)
        plain.append(_ops(runner, common, args.seconds / nprocs, f"{i}-"))
    ops = [op for proc in plain for op in proc["ops"]]
    if args.trace:
        traced = _ops(runner, common, args.seconds, "traced-", trace=True)
        ops = ops + traced["ops"]
    else:
        setup_times += _setup(runner, common, spec)
    _gate(runner, args, ops)
    passed = [op for op in ops if op["failure"] is None]
    correct = len(passed) == len(ops)

    if args.trace:
        layers = traced["layers"]
        counts = os.path.join(base, "counts", f"{args.workload}-{args.seed}-{digest}.json")
        correct = _counts_repeat(counts, layers) and correct
        plain_s = statistics.median(op["op_s"] for proc in plain for op in proc["ops"])
        layers["trace.overhead_s"] = traced["ops"][0]["op_s"] - plain_s
        layers["startup.import_s"] = statistics.median(proc["import_s"] for proc in plain)
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in sorted(layers.items())}
    else:
        timed = passed or ops
        values = {
            "op_s": statistics.median(op["op_s"] for op in timed),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": max(proc["peak_rss_mb"] for proc in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {
        "correct": correct,
        "attempted": len(ops),
        "failed": len(ops) - len(passed),
        "metrics": metrics,
    }


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if "ratio" in name or "per_" in name:
        return "ratio"
    return "count"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="operation time to spend; at least one operation runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "graphcurv", "__init__.py")):
        sys.stderr.write(f"no graphcurv sources in {root}/src: not a checkout\n")
        return 2
    try:
        result = run(args, root)
    except PhaseFailed as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
