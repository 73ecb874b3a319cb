"""Per-layer spans around graphcurv's public functions, installed from outside.

``Tracer.install()`` replaces every public function of the traced modules,
wherever a graphcurv module holds a reference to it, by a wrapper that
records a span (name, parent span, start, end, outcome).  It also wraps
``GridDomain.derivative_ops`` and the sparse LU that ``linearize`` calls,
so factorisations, their L+U fill and each triangular solve are spans too.
Nothing in the package is edited; the wrappers live for the life of the
process.  Spans stay in memory until ``metrics()`` reduces them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time

MODULES = ("config", "grids", "assembly", "linearize", "solver", "diagnostics",
           "shape_oracle", "cli")

# Reported inclusive times: metric name -> span name.
TIMES = {
    "linearize.factor_s": "linearize.factor",
    "linearize.trisolve_s": "linearize.trisolve",
    "linearize.build_DK_s": "linearize.build_DK",
    "assembly.assemble_curvature_s": "assembly.assemble_curvature",
    "shape_oracle.curvature_oracle_s": "shape_oracle.curvature_oracle",
    "diagnostics.pogorelov_monitor_s": "diagnostics.pogorelov_monitor",
    "linearize.stability_check_s": "linearize.stability_check",
    "grids.derivative_ops_s": "grids.derivative_ops",
    "linearize.frame_operators_s": "linearize.frame_operators",
    "diagnostics.make_barrier_pair_s": "diagnostics.make_barrier_pair",
    "grids.save_grid_s": "grids.save_grid",
    "grids.load_grid_s": "grids.load_grid",
    "grids.refine_domain_s": "grids.refine_domain",
    "grids.restrict_values_s": "grids.restrict_values",
}

# Reported call counts: metric name -> span name.
CALLS = {
    "linearize.factor_calls": "linearize.factor",
    "linearize.build_DK_calls": "linearize.build_DK",
    "assembly.assemble_curvature_calls": "assembly.assemble_curvature",
    "solver.newton_solve_calls": "solver.newton_solve",
}

# config.build_s sums these: turning a config into program objects.
CONFIG_BUILD = ("config.parse_config", "config.build_chart", "config.build_domain",
                "config.build_target_k")

# Every count reported by metrics(); two traced runs of one commit must agree.
COUNTS = tuple(CALLS) + (
    "linearize.factor_fill_nnz",
    "linearize.solves_per_factor",
    "solver.newton_solve_failed",
    "solver.corrector_success_ratio",
    "solver.accepted_steps",
    "solver.linesearch_accept_ratio",
)


class _Span:
    __slots__ = ("name", "parent", "start", "end", "error", "nnz")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = time.perf_counter()
        self.end = None
        self.error = None
        self.nnz = 0


class _TracedLU:
    """SuperLU factors whose triangular solves are spans."""

    def __init__(self, tracer, lu):
        self._tracer = tracer
        self._lu = lu

    def solve(self, rhs, *args, **kwargs):
        with self._tracer.span("linearize.trisolve"):
            return self._lu.solve(rhs, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _LinalgProxy:
    """Stands in for ``scipy.sparse.linalg`` inside ``graphcurv.linearize``."""

    def __init__(self, tracer, spla):
        self._tracer = tracer
        self._spla = spla

    def splu(self, *args, **kwargs):
        with self._tracer.span("linearize.factor") as sp:
            lu = self._spla.splu(*args, **kwargs)
        sp.nnz = lu.L.nnz + lu.U.nnz  # outside the span: builds both factors
        return _TracedLU(self._tracer, lu)

    def __getattr__(self, name):
        return getattr(self._spla, name)


class Tracer:
    """The spans of one process, and the wrappers that record them."""

    def __init__(self):
        self.spans = []
        self.stack = []

    @contextlib.contextmanager
    def span(self, name):
        sp = _Span(name, self.stack[-1] if self.stack else None)
        self.stack.append(sp)
        try:
            yield sp
        except BaseException as exc:
            sp.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            sp.end = time.perf_counter()
            self.stack.pop()
            self.spans.append(sp)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self):
        """Wrap the traced modules' public functions in every graphcurv module."""
        import graphcurv
        from graphcurv import grids, linearize

        holders = [graphcurv] + [
            m for n, m in sys.modules.items() if n.startswith("graphcurv.")
        ]
        for modname in MODULES:
            mod = sys.modules[f"graphcurv.{modname}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                traced = self._wrap(f"{modname}.{attr}", fn)
                for holder in holders:
                    for key, val in list(vars(holder).items()):
                        if val is fn:
                            setattr(holder, key, traced)
        grids.GridDomain.derivative_ops = self._wrap(
            "grids.derivative_ops", grids.GridDomain.derivative_ops
        )
        linearize.spla = _LinalgProxy(self, linearize.spla)

    def metrics(self):
        """Per-layer metrics of every span recorded so far."""
        total = {}
        calls = {}
        for sp in self.spans:
            total[sp.name] = total.get(sp.name, 0.0) + (sp.end - sp.start)
            calls[sp.name] = calls.get(sp.name, 0) + 1
        out = {m: total.get(n, 0.0) for m, n in TIMES.items()}
        out.update({m: calls.get(n, 0) for m, n in CALLS.items()})
        out["config.build_s"] = sum(
            sp.end - sp.start for sp in self.spans
            if sp.name in CONFIG_BUILD
            and (sp.parent is None or sp.parent.name not in CONFIG_BUILD)
        )
        factors = [sp.nnz for sp in self.spans if sp.name == "linearize.factor"]
        out["linearize.factor_fill_nnz"] = max(factors, default=0)
        out["linearize.solves_per_factor"] = _ratio(
            calls.get("linearize.trisolve", 0), len(factors)
        )
        out.update(self._newton_metrics())
        return out

    def _newton_metrics(self):
        """Corrector outcomes and line-search acceptance, read off the spans.

        Each Newton iteration builds DK once and then assembles K once per
        line-search trial; an iteration's step was accepted unless the
        corrector raised right after it.
        """
        newton = [sp for sp in self.spans if sp.name == "solver.newton_solve"]
        dk = {id(sp): 0 for sp in newton}
        trials = {id(sp): -1 for sp in newton}  # first assembly is the start
        for sp in self.spans:
            if sp.parent is not None and id(sp.parent) in dk:
                if sp.name == "linearize.build_DK":
                    dk[id(sp.parent)] += 1
                elif sp.name == "assembly.assemble_curvature":
                    trials[id(sp.parent)] += 1
        accepted = 0
        for sp in newton:
            n = dk[id(sp)]
            # only the iteration cap raises after an accepted step
            last_rejected = sp.error is not None and "no convergence in" not in sp.error
            accepted += max(n - 1, 0) if last_rejected else n
        failed = sum(sp.error is not None for sp in newton)
        return {
            "solver.newton_solve_failed": failed,
            "solver.corrector_success_ratio": _ratio(len(newton) - failed, len(newton)),
            "solver.accepted_steps": accepted,
            "solver.linesearch_accept_ratio": _ratio(
                accepted, sum(max(t, 0) for t in trials.values())
            ),
        }

    def dump(self, path):
        """Write every span as one JSON line (times relative to the first)."""
        t0 = min((sp.start for sp in self.spans), default=0.0)
        ids = {id(sp): i for i, sp in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, sp in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i,
                    "name": sp.name,
                    "parent": None if sp.parent is None else ids.get(id(sp.parent)),
                    "start": sp.start - t0,
                    "end": sp.end - t0,
                    "error": sp.error,
                }) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0
