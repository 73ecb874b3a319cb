"""Damped Newton corrector and curvature-homotopy continuation.

The discrete problem is K(f) = phi on the interior with f = 0 on the
boundary, solved only inside the admissible cone (Hess f + Psi positive
definite).  One ``SolveTarget`` holds the whole problem of a solve: phi is
its k plus the seeded bump, and its lower barrier and the base slice f = 0
bound f from below and above.  ``newton_solve`` is a damped Newton iteration
whose line search never leaves the cone: a step is accepted only if the
admissibility margin stays above a fraction of the previous one and the
residual drops.
``continuation_solve`` reaches hard targets by walking a path of targets
gamma(tau) from an achievable start near the base curvature up to the goal,
with secant prediction and automatic step halving/doubling.

Linear systems: every Newton step builds DK exactly at the current iterate
and solves DK delta = -r through a ``linearize.HeldLU`` (GMRES
preconditioned by a held ring average on polar grids or a held sparse LU;
DK is factorized afresh only when GMRES misses its tolerance).  DK is
dropped once its step is solved, so at most one DK is alive at a time.
``newton_solve`` takes the held preconditioner and updates it in place;
``continuation_solve`` keeps one on the state, so one preconditioner can
serve the start step, later Newton steps and later tau-steps, failed
correctors included.  The line search, the admissibility and barrier
tests and ``tol`` see only the resulting step.  No assembly passes between
solves: each ``newton_solve`` assembles its own initial iterate.

Determinism: everything here is sequential and seed-driven; the only random
ingredient is ``rhs_perturbation`` / ``smooth_random_field``, which draw from
``numpy.random.default_rng(seed)`` (PCG64) so identical seeds give bitwise
identical perturbations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .assembly import assemble_curvature
from .charts import _base_cartesian
from .errors import (
    GraphCurvError,
    NoConvergence,
    NonAdmissibleInit,
    OutOfRange,
    SingularLinearSystem,
    StepsizeUnderflow,
)
from .linearize import HeldLU, build_DK

__all__ = [
    "SolveTarget",
    "NewtonOptions",
    "NewtonResult",
    "newton_solve",
    "ContinuationOptions",
    "ContinuationState",
    "start_state",
    "continuation_solve",
    "perturb_rhs",
    "rhs_perturbation",
    "smooth_random_field",
    "uniqueness_probe",
]


@dataclass
class SolveTarget:
    """The problem of one solve: K(f) = k + bump, f = 0 on the boundary.

    ``k`` may be a scalar, a per-node array, or a callable (coords, f) ->
    array for f-dependent targets (those are treated as lagged in the Newton
    matrix: the residual sees k(x, f) but DK does not differentiate through
    it, which is adequate for the small perturbations it exists for).
    ``bump`` is an optional fixed node vector added to k: the seeded
    right-hand-side perturbation (``perturb_rhs``).  With ``lower`` set, the
    line search keeps lower <= f <= 0 at every interior node: the lower
    barrier below, the base slice f = 0 above.  ``phi_hat`` optionally
    records the barrier's curvature floor for path placement.
    """

    chart: object
    domain: object
    k: object
    bump: np.ndarray | None = None
    lower: np.ndarray | None = None
    phi_hat: float | None = None

    def k_at(self, f):
        """k at the iterate f, without the bump."""
        if callable(self.k):
            out = np.asarray(self.k(self.domain.coords, f), dtype=float)
        else:
            out = np.broadcast_to(
                np.asarray(self.k, dtype=float), (self.domain.num_nodes,)
            ).astype(float)
        return self.domain.check_values(out)

    def evaluate(self, f):
        """The right-hand side at the iterate f: k plus the bump."""
        out = self.k_at(f)
        return out if self.bump is None else out + self.bump

    def gap(self):
        """min k - base curvature (at f = 0, without the bump); must be > 0."""
        phi0 = self.chart.base_hypersurface().phi0
        k0 = self.k_at(np.zeros(self.domain.num_nodes))
        return float(np.min(k0[self.domain.interior]) - phi0)


@dataclass
class NewtonOptions:
    tol: float = 1e-9
    max_iter: int = 100
    max_halvings: int = 10


@dataclass
class NewtonResult:
    """A solve's last accepted iterate, with one history row per accepted step."""

    f: np.ndarray
    converged: bool
    iterations: int
    residual_norm: float
    margin: float
    history: list = field(default_factory=list)
    rejected_trials: int = 0  # line-search trials assembled and rejected
    start_residual: float = np.inf  # the residual norm of the initial iterate


def _residual(asm, target_values, interior):
    return np.where(interior, asm.K - target_values, 0.0)


def _inside_barriers(f, lower, interior):
    """lower <= f <= 0 at every interior node (always True without ``lower``)."""
    if lower is None:
        return True
    return bool(np.all(f[interior] <= 0.0) and np.all(f[interior] >= lower[interior]))


_MARGIN_FRACTION = 0.1  # a step keeps this share of the admissibility margin


def newton_solve(f_init, target, opts=None, lu=None):
    """Damped Newton for K(f) = target with zero Dirichlet data.

    Solves DK * delta = target - K(f) each iteration through the held
    preconditioner ``lu`` (a fresh ``HeldLU`` when None; updated in place)
    and takes the largest step s in {1, 1/2, ..., 2^-max_halvings} whose
    iterate (a) keeps the admissibility margin >= 0.1 * (current margin),
    (b) drops the residual to <= (1 - s/4) * current, and (c) keeps
    lower <= f <= 0 when the target has a lower barrier.  Converged means
    residual <= ``opts.tol`` after at most ``opts.max_iter`` steps; this is
    the only convergence test of a solve.  Every solve assembles its own
    initial iterate, so it makes 1 + (accepted steps) + (rejected trials)
    assemblies.  Raises NonAdmissibleInit,
    NoConvergence (iteration cap or exhausted line search) or
    SingularLinearSystem, or the assembly's errors; every error raised here
    carries ``steps`` (the accepted steps), ``rejected_trials`` (line-search
    trials assembled and rejected) and ``residual`` (the last accepted
    iterate's residual norm).
    """
    opts = opts or NewtonOptions()
    lu = HeldLU() if lu is None else lu
    history, rnorm, rejected = [], None, 0
    try:
        chart, domain = target.chart, target.domain
        interior = domain.interior
        f = domain.check_values(f_init).copy()
        f[domain.boundary] = 0.0
        asm = assemble_curvature(chart, domain, f)
        if not asm.admissible:
            raise NonAdmissibleInit(
                f"initial iterate is not admissible: margin = {asm.margin:.3e}"
            )
        if not _inside_barriers(f, target.lower, interior):
            raise NonAdmissibleInit("initial iterate violates the barrier sandwich")
        kvals = target.evaluate(f)
        r = _residual(asm, kvals, interior)
        rnorm = start = float(np.max(np.abs(r)))
        for it in range(opts.max_iter + 1):
            if rnorm <= opts.tol:
                return NewtonResult(f, True, it, rnorm, asm.margin, history, rejected,
                                    start)
            if it == opts.max_iter:
                raise NoConvergence(
                    f"no convergence in {opts.max_iter} iterations (residual {rnorm:.3e})"
                )
            delta = build_DK(chart, domain, f, assembly=asm).solve(-r, held=lu)
            accepted = False
            for k in range(opts.max_halvings + 1):
                s = 2.0**-k
                f_new = f + s * delta
                asm_new = assemble_curvature(chart, domain, f_new)
                if not asm_new.margin >= _MARGIN_FRACTION * asm.margin:  # NaN fails
                    continue
                if not _inside_barriers(f_new, target.lower, interior):
                    continue
                k_new = target.evaluate(f_new)
                r_new = _residual(asm_new, k_new, interior)
                rnorm_new = float(np.max(np.abs(r_new)))
                if not rnorm_new <= (1.0 - s / 4.0) * rnorm:
                    continue
                f, asm, r, rnorm = f_new, asm_new, r_new, rnorm_new
                history.append(
                    {"iter": it + 1, "residual": rnorm, "margin": asm.margin, "step": s}
                )
                accepted = True
                break
            rejected += k if accepted else opts.max_halvings + 1
            if not accepted:
                raise NoConvergence(
                    f"line search exhausted at iteration {it + 1} "
                    f"(residual {rnorm:.3e}, margin {asm.margin:.3e})"
                )
    except GraphCurvError as exc:
        exc.steps, exc.residual, exc.rejected_trials = len(history), rnorm, rejected
        raise


_DTAU_INIT = 0.2  # the first tau-step tried
_DTAU_MAX = 0.5  # the largest tau-step
_EASY_ITERATIONS = 3  # a corrector of at most this many Newton steps doubles dtau


@dataclass
class ContinuationOptions:
    dtau_min: float = 1e-4
    newton: NewtonOptions = field(default_factory=NewtonOptions)


@dataclass
class ContinuationState:
    """Walk state for the target path gamma(tau) = gamma0 + tau*(k - gamma0).

    ``target`` is the goal; its bump and lower barrier hold on the whole
    path.  ``history`` collects one row per accepted Newton step as dicts
    with keys iter/tau/residual/margin/step, where ``iter`` is the running
    ``newton_total``; ``newton_total`` counts accepted Newton steps across
    all correctors, including those of rejected tau-steps (which add no
    history rows).  ``rejected_trials`` counts the line-search trials all
    correctors assembled and rejected.  ``residual_norm`` and ``margin`` are
    those of ``f``, the last accepted iterate.  ``lu`` is the preconditioner
    held across the whole walk.
    """

    target: SolveTarget
    gamma0: float
    tau: float = 0.0
    f: np.ndarray | None = None
    dtau: float = _DTAU_INIT
    seed_iterate: np.ndarray | None = None
    residual_norm: float = np.inf
    margin: float | None = None
    history: list = field(default_factory=list)
    newton_total: int = 0
    rejected_trials: int = 0
    lu: HeldLU = field(default_factory=HeldLU)

    def path_target(self, tau):
        """The goal with k moved to gamma(tau); the bump and barrier stay."""
        base = self.target

        def k_tau(coords, f):
            return self.gamma0 + tau * (base.k_at(f) - self.gamma0)

        return replace(base, k=k_tau)


def start_state(target, *, delta0=None, f_init=None):
    """Continuation state at an achievable start level gamma(0).

    Without ``f_init`` the start iterate is one full Newton step off f = 0
    (the base itself solves only the degenerate target phi0, so it must be
    left first) and gamma(0) = phi0 + delta0, with delta0 defaulting to
    0.05 * (phi_hat - phi0) when the target records a barrier curvature
    floor, else 0.05 * (min target - phi0).  Over a totally geodesic base
    (flat or epsilon-family charts) f = 0 is degenerate, so an admissible
    ``f_init`` must be supplied; gamma(0) then defaults to the smallest
    assembled curvature of that seed.  The first tau-step tried is 0.2.
    """
    phi0 = target.chart.base_hypersurface().phi0
    gap = target.gap()
    if gap <= 0:
        raise OutOfRange(
            f"target does not exceed the base curvature (gap = {gap:.3e})"
        )
    if f_init is not None:
        asm = assemble_curvature(target.chart, target.domain, f_init)
        if not asm.admissible:
            raise NonAdmissibleInit(
                f"continuation seed is not admissible: margin = {asm.margin:.3e}"
            )
        if delta0 is None:
            gamma0 = float(np.min(asm.K[target.domain.interior]))
        else:
            gamma0 = phi0 + delta0
        if gamma0 <= phi0:
            raise OutOfRange(
                f"seed curvature floor {gamma0:.3e} does not exceed phi0"
            )
        return ContinuationState(
            target=target,
            gamma0=gamma0,
            seed_iterate=target.domain.check_values(f_init).copy(),
        )
    if delta0 is None:
        ceiling = target.phi_hat if target.phi_hat is not None else phi0 + gap
        delta0 = 0.05 * (ceiling - phi0)
    if not 0 < delta0 <= gap:
        raise OutOfRange(f"start increment delta0 = {delta0:.3e} not in (0, gap]")
    return ContinuationState(target=target, gamma0=phi0 + delta0)


def _step_off_base(state):
    """One undamped Newton step off f = 0 toward the tau = 0 target."""
    chart, domain = state.target.chart, state.target.domain
    f0 = np.zeros(domain.num_nodes)
    asm0 = assemble_curvature(chart, domain, f0)
    if not asm0.admissible:
        raise NonAdmissibleInit(
            "base slice is not admissible (totally geodesic base?); "
            "supply a seed iterate via start_state(f_init=...)"
        )
    r0 = _residual(asm0, state.path_target(0.0).evaluate(f0), domain.interior)
    return f0 + build_DK(chart, domain, f0, assembly=asm0).solve(-r0, held=state.lu)


def continuation_solve(state, opts=None):
    """Predictor-corrector walk of the target path; returns f at tau = 1.

    The start corrector runs once, from the seed iterate or from one
    undamped Newton step off f = 0; its failure ends the walk.  Every
    corrector is one ``newton_solve`` from its predicted start.  Only
    ``newton_solve`` tests convergence: a start level that already sits on
    the goal walks to tau = 1 through correctors of zero steps.  A failed
    tau-step corrector (NoConvergence, NonAdmissibleInit) is not re-run from
    another start: dtau halves at once, down to ``opts.dtau_min``, below
    which StepsizeUnderflow reports the last good (tau, f); correctors
    finishing in <= 3 Newton steps double dtau up to 0.5.
    SingularLinearSystem propagates with tau context (the remedy is
    ``perturb_rhs``).  ``state`` is updated in place.  Every error raised
    here carries ``steps`` (``state.newton_total``), ``rejected_trials``
    (``state.rejected_trials``) and the ``residual`` and ``tau`` of the last
    accepted corrector (None before the start corrector finishes).
    """
    opts = opts or ContinuationOptions()

    def correct(tau, f_start):
        tgt = state.path_target(tau)
        try:
            res = newton_solve(f_start, tgt, opts.newton, state.lu)
        except GraphCurvError as exc:
            state.newton_total += exc.steps
            state.rejected_trials += exc.rejected_trials
            raise
        state.rejected_trials += res.rejected_trials
        for row in res.history:
            state.newton_total += 1
            state.history.append({**row, "iter": state.newton_total, "tau": tau})
        return res

    try:
        if state.f is None:
            if state.seed_iterate is not None:
                res = correct(0.0, state.seed_iterate)
            else:
                res = correct(0.0, _step_off_base(state))
            state.f = res.f
            state.tau = 0.0
            state.residual_norm, state.margin = res.residual_norm, res.margin
        tau_prev = None
        f_prev = None
        while state.tau < 1.0:
            dtau = min(state.dtau, 1.0 - state.tau)
            if dtau < opts.dtau_min:
                raise StepsizeUnderflow(
                    f"continuation step underflow at tau = {state.tau:.6f} "
                    f"(dtau = {dtau:.2e}); last good iterate kept on the state"
                )
            tau_try = state.tau + dtau
            if tau_prev is not None and state.tau > tau_prev:
                f_pred = state.f + (tau_try - state.tau) / (state.tau - tau_prev) * (
                    state.f - f_prev
                )
            else:
                f_pred = state.f
            try:
                res = correct(tau_try, f_pred)
            except (NoConvergence, NonAdmissibleInit):
                state.dtau = dtau / 2.0
                continue
            except SingularLinearSystem as exc:
                raise SingularLinearSystem(
                    f"singular linearization at tau = {tau_try:.6f}: {exc}"
                ) from exc
            tau_prev, f_prev = state.tau, state.f
            state.tau, state.f = tau_try, res.f
            state.residual_norm, state.margin = res.residual_norm, res.margin
            if res.iterations <= _EASY_ITERATIONS:
                state.dtau = min(2.0 * dtau, _DTAU_MAX)
            else:
                state.dtau = dtau
        return state.f
    except GraphCurvError as exc:
        begun = state.f is not None
        exc.steps = state.newton_total
        exc.rejected_trials = state.rejected_trials
        exc.residual = state.residual_norm if begun else None
        exc.tau = state.tau if begun else None
        raise


def smooth_random_field(domain, rng, modes=6):
    """Smooth pseudo-random grid function with ∞-norm exactly 1.

    Built from a fixed number of low-frequency waves in the Cartesian
    coordinates of the base (so it is smooth across a polar pole), with
    amplitudes, frequencies, and phases drawn from ``rng``.
    """
    xy = _base_cartesian(domain.coords, domain.layout)
    x = xy[:, 0]
    y = xy[:, 1] if domain.n == 2 else np.zeros_like(x)
    span = max(np.ptp(x), np.ptp(y), 1e-30)
    out = np.zeros(domain.num_nodes)
    for _ in range(modes):
        amp = rng.standard_normal()
        kx, ky = rng.uniform(0.5, 2.5, size=2)
        px, py = rng.uniform(0.0, 2.0 * np.pi, size=2)
        out += amp * np.sin(np.pi * kx * x / span + px) * np.cos(
            np.pi * ky * y / span + py
        )
    return out / np.max(np.abs(out))


def rhs_perturbation(domain, magnitude, seed):
    """Reproducible smooth node vector of ∞-norm = magnitude (None for 0).

    The same seed yields the same vector bit-exactly.
    """
    if magnitude < 0:
        raise OutOfRange("perturbation magnitude must be >= 0")
    if magnitude == 0:
        return None
    rng = np.random.default_rng(seed)
    return smooth_random_field(domain, rng) * magnitude


def perturb_rhs(state, magnitude, seed):
    """Add ``rhs_perturbation(domain, magnitude, seed)`` to the whole path.

    The vector joins the bump of ``state.target``, which is replaced, not
    changed in place, so other states on the same target keep theirs.
    Magnitude 0 leaves the state unchanged.  Returns the state.
    """
    bump = rhs_perturbation(state.target.domain, magnitude, seed)
    if bump is None:
        return state
    if state.target.bump is not None:
        bump = state.target.bump + bump
    state.target = replace(state.target, bump=bump)
    return state


def uniqueness_probe(target, inits, opts=None):
    """Solve from several inits and report pairwise ∞-distances.

    Returns {'results': [...], 'pairwise': [(i, j, dist), ...],
    'max_distance': float or None}; a failing branch is recorded with its
    error and excluded from the comparison.
    """
    opts = opts or NewtonOptions()
    results = []
    for f0 in inits:
        try:
            res = newton_solve(f0, target, opts)
            results.append({"status": "converged", "result": res})
        except (NoConvergence, NonAdmissibleInit, SingularLinearSystem) as exc:
            results.append({"status": type(exc).__name__, "error": str(exc)})
    pairwise = []
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            if results[i]["status"] == "converged" == results[j]["status"]:
                d = float(
                    np.max(
                        np.abs(results[i]["result"].f - results[j]["result"].f)
                    )
                )
                pairwise.append((i, j, d))
    max_d = max((d for _, _, d in pairwise), default=None)
    return {"results": results, "pairwise": pairwise, "max_distance": max_d}
