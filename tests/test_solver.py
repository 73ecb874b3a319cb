"""Newton corrector and curvature-path continuation."""

import gc
import weakref

import numpy as np
import pytest

from graphcurv import linearize, solver
from graphcurv.assembly import assemble_curvature
from graphcurv.charts import EpsilonChart, EuclideanChart, HyperbolicChart
from graphcurv.diagnostics import make_barrier_pair, pogorelov_monitor
from graphcurv.errors import (
    NoConvergence,
    NonAdmissibleInit,
    OutOfRange,
    SingularLinearSystem,
    StepsizeUnderflow,
)
from graphcurv.grids import GridDomain
from graphcurv.solver import (
    ContinuationOptions,
    NewtonOptions,
    SolveTarget,
    continuation_solve,
    newton_solve,
    perturb_rhs,
    smooth_random_field,
    start_state,
    uniqueness_probe,
)

D = 0.5


def hyper_target(dom, k, with_barrier=False):
    chart = HyperbolicChart(n=2, offset=D)
    lower = phi_hat = None
    if with_barrier:
        bp = make_barrier_pair(chart, dom, kind="cap", k=1.1 * k)
        lower, phi_hat = bp.lower, bp.phi_hat
    return SolveTarget(chart, dom, k, lower=lower, phi_hat=phi_hat)


# ---- Newton corrector ----------------------------------------------------------


def test_newton_flat_chart_cap_is_second_order():
    # K = 1/2 over the unit disk has the radius-2 spherical cap as exact
    # solution; the discrete solution converges at second order to it
    chart = EuclideanChart(n=2)
    errs = []
    for nr, nphi in [(8, 32), (16, 64), (32, 128)]:
        dom = GridDomain.ball(1.0, nr, nphi)
        s = dom.coords[:, 0]
        exact = np.sqrt(3.0) - np.sqrt(4.0 - s**2)
        res = newton_solve(0.3 * (s**2 - 1.0), SolveTarget(chart, dom, 0.5))
        assert res.converged and res.residual_norm <= 1e-9
        errs.append(np.max(np.abs(res.f - exact)))
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(orders) > 1.8
    assert errs[-1] < 1e-4


def test_newton_reports_progress_history():
    dom = GridDomain.ball(1.0, 8, 32)
    res = newton_solve(np.zeros(dom.num_nodes), hyper_target(dom, 0.6))
    assert res.converged
    assert res.iterations == len(res.history)
    resids = [row["residual"] for row in res.history]
    assert all(a > b for a, b in zip(resids, resids[1:]))
    assert all(row["step"] <= 1.0 for row in res.history)
    assert res.margin > 0


def test_newton_rejects_inadmissible_init():
    chart = EuclideanChart(n=2)
    dom = GridDomain.ball(1.0, 8, 32)
    with pytest.raises(NonAdmissibleInit):
        newton_solve(np.zeros(dom.num_nodes), SolveTarget(chart, dom, 0.5))


def test_newton_rejects_init_outside_sandwich():
    dom = GridDomain.ball(1.0, 8, 32)
    target = hyper_target(dom, 0.6, with_barrier=True)
    f0 = target.lower * 2.0  # admissible shape but below the lower barrier
    with pytest.raises(NonAdmissibleInit, match="sandwich"):
        newton_solve(f0, target)


def test_newton_iteration_cap():
    dom = GridDomain.ball(1.0, 8, 32)
    with pytest.raises(NoConvergence):
        newton_solve(
            np.zeros(dom.num_nodes),
            hyper_target(dom, 0.9),
            NewtonOptions(max_iter=1),
        )


def test_newton_failure_reports_accepted_steps():
    dom = GridDomain.ball(1.0, 8, 32)
    with pytest.raises(NoConvergence) as info:
        newton_solve(
            np.zeros(dom.num_nodes),
            hyper_target(dom, 0.9),
            NewtonOptions(max_iter=2),
        )
    assert info.value.steps == 2


def test_every_newton_error_reports_its_accepted_steps(monkeypatch):
    dom = GridDomain.ball(1.0, 8, 32)
    with pytest.raises(NoConvergence) as one_step:
        newton_solve(np.zeros(dom.num_nodes), hyper_target(dom, 0.9),
                     NewtonOptions(max_iter=1))
    solve = linearize.EllipticOperator.solve
    calls = []

    def second_solve_fails(op, rhs, held=None):
        calls.append(rhs)
        if len(calls) == 2:
            raise SingularLinearSystem("forced")
        return solve(op, rhs, held)

    monkeypatch.setattr(linearize.EllipticOperator, "solve", second_solve_fails)
    with pytest.raises(SingularLinearSystem) as info:
        newton_solve(np.zeros(dom.num_nodes), hyper_target(dom, 0.9))
    assert info.value.steps == 1
    assert info.value.residual == one_step.value.residual


def test_newton_counts_its_rejected_line_search_trials(monkeypatch):
    assembled = []
    real = solver.assemble_curvature
    monkeypatch.setattr(solver, "assemble_curvature",
                        lambda *args: assembled.append(1) or real(*args))
    dom = GridDomain.ball(1.0, 8, 32)
    # k = 1.4 from f = 0: halved steps, then an exhausted line search
    with pytest.raises(NoConvergence) as info:
        newton_solve(np.zeros(dom.num_nodes), hyper_target(dom, 1.4))
    exc = info.value
    # one assembly of the start, then one per trial, accepted or rejected
    assert exc.rejected_trials == len(assembled) - 1 - exc.steps
    assert exc.rejected_trials > NewtonOptions().max_halvings + 1
    assembled.clear()
    res = newton_solve(np.zeros(dom.num_nodes), hyper_target(dom, 0.9))
    assert res.rejected_trials == len(assembled) - 1 - res.iterations == 0


def test_continuation_counts_rejected_trials_of_every_corrector(monkeypatch):
    counted = []

    def recording(*args, **kwargs):
        try:
            res = newton_solve(*args, **kwargs)
        except (NoConvergence, NonAdmissibleInit) as exc:
            counted.append(exc.rejected_trials)
            raise
        counted.append(res.rejected_trials)
        return res

    monkeypatch.setattr(solver, "newton_solve", recording)
    dom = GridDomain.ball(1.0, 8, 32)
    state = start_state(hyper_target(dom, 1.4))
    with pytest.raises(StepsizeUnderflow) as info:
        continuation_solve(state, ContinuationOptions(dtau_min=1e-2))
    assert sum(counted) > 0
    assert info.value.rejected_trials == state.rejected_trials == sum(counted)


def test_newton_solution_stays_inside_sandwich():
    dom = GridDomain.ball(1.0, 8, 32)
    target = hyper_target(dom, 0.7, with_barrier=True)
    res = newton_solve(np.zeros(dom.num_nodes), target)
    assert res.converged
    inner = dom.interior
    assert np.all(res.f[inner] <= 0.0)
    assert np.all(res.f[inner] >= target.lower[inner])
    assert np.all(res.f[dom.boundary] == 0.0)


# ---- continuation ---------------------------------------------------------------


def test_continuation_reaches_target():
    dom = GridDomain.ball(1.0, 16, 64)
    target = hyper_target(dom, 0.9, with_barrier=True)
    state = start_state(target)
    f = continuation_solve(state)
    assert state.tau == 1.0
    assert state.residual_norm <= 1e-9
    assert state.newton_total <= 40
    asm = assemble_curvature(target.chart, dom, f)
    assert asm.admissible
    inner = dom.interior
    assert np.all(f[inner] < 0.0)
    assert np.max(np.abs(asm.K[inner] - 0.9)) <= 1e-9
    taus = [row["tau"] for row in state.history]
    assert all(a <= b for a, b in zip(taus, taus[1:]))


def test_continuation_counts_steps_of_failed_correctors(monkeypatch):
    # two Newton steps are too few for most correctors, so many tau-steps
    # are rejected after accepting steps; newton_total must include them
    failed = []

    def recording(*args, **kwargs):
        try:
            return newton_solve(*args, **kwargs)
        except NoConvergence as exc:
            failed.append(exc.steps)
            raise

    monkeypatch.setattr(solver, "newton_solve", recording)
    dom = GridDomain.ball(1.0, 8, 32)
    state = start_state(hyper_target(dom, 0.9, with_barrier=True))
    continuation_solve(state, ContinuationOptions(newton=NewtonOptions(max_iter=2)))
    assert state.tau == 1.0
    assert failed and sum(failed) > 0
    assert state.newton_total == len(state.history) + sum(failed)
    assert state.history[-1]["iter"] == state.newton_total


def test_failed_tau_step_runs_one_corrector(monkeypatch):
    # a failed corrector halves dtau at once: each tau-step, accepted or
    # failed, runs newton_solve once, after the one start corrector.  A
    # tau-step is told apart by the walk's (tau, dtau) when it is tried,
    # which only a second corrector on the same step would repeat
    calls = []

    def recording(*args, **kwargs):
        step = (state.f is None, state.tau, state.dtau)
        try:
            res = newton_solve(*args, **kwargs)
        except NoConvergence:
            calls.append((step, False))
            raise
        calls.append((step, True))
        return res

    monkeypatch.setattr(solver, "newton_solve", recording)
    dom = GridDomain.ball(1.0, 8, 32)
    state = start_state(hyper_target(dom, 0.9, with_barrier=True))
    continuation_solve(state, ContinuationOptions(newton=NewtonOptions(max_iter=2)))
    assert state.tau == 1.0
    outcome = dict(calls)  # each tau-step's last corrector
    accepted = sum(ok for (start, _, _), ok in outcome.items() if not start)
    failed = sum(not ok for (start, _, _), ok in outcome.items() if not start)
    assert accepted == len({row["tau"] for row in state.history} - {0.0})
    assert failed > 0
    assert len(calls) == 1 + accepted + failed


def test_newton_reports_the_residual_of_its_initial_iterate():
    dom = GridDomain.ball(1.0, 8, 32)
    target = hyper_target(dom, 0.7)
    res = newton_solve(np.zeros(dom.num_nodes), target)
    assert res.start_residual > res.history[0]["residual"]
    done = newton_solve(res.f, target)
    assert done.iterations == 0 and done.start_residual == res.residual_norm


def test_every_corrector_assembles_its_start_and_each_trial(monkeypatch):
    # each newton_solve makes 1 + (accepted steps) + (rejected trials)
    # assemblies, the first of them its start's: the benchmark tracer reads
    # a solve's spans by this count
    assembled, counts = [], []
    real_assemble, real_newton = solver.assemble_curvature, solver.newton_solve

    def counting(*args):
        before = len(assembled)
        res = real_newton(*args)
        counts.append((len(assembled) - before, 1 + res.iterations + res.rejected_trials))
        return res

    monkeypatch.setattr(solver, "assemble_curvature",
                        lambda *args: assembled.append(1) or real_assemble(*args))
    monkeypatch.setattr(solver, "newton_solve", counting)
    dom = GridDomain.ball(1.0, 8, 32)
    chart = HyperbolicChart(n=2, offset=D)
    bp = make_barrier_pair(chart, dom, kind="cap", k=0.95)
    state = start_state(SolveTarget(chart, dom, 0.9, lower=bp.lower, phi_hat=bp.phi_hat))
    continuation_solve(state)
    assert state.tau == 1.0 and len(counts) > 2
    assert all(made == expected for made, expected in counts), counts


# traced heap peak of a warm continuation on the full 33x128 grid, in bytes
# per node, the walk's first corrector warming the grid's caches.  Keeping
# the base slice's assembly alive through the walk adds about 96, and a
# corrector's final assembly alive through the next corrector 72
CONTINUATION_PEAK_PER_NODE = 410.8


def test_continuation_heap_peak_per_node_stays_at_its_measured_value():
    import tracemalloc

    dom = GridDomain.ball(1.0, 32, 128)
    target = hyper_target(dom, 0.9, with_barrier=True)
    continuation_solve(start_state(target))
    tracemalloc.start()
    try:
        continuation_solve(start_state(target))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / dom.num_nodes <= 1.05 * CONTINUATION_PEAK_PER_NODE


def test_continuation_reuses_factorizations(monkeypatch):
    # the acceptance-battery continuation to k = 0.9, on a 33x33 box: the
    # held LU preconditions solves on Cartesian grids (polar ones start from
    # a ring average), and cap barriers are defined over balls only
    dom = GridDomain.box(((-1.0, 1.0), (-1.0, 1.0)), (33, 33))
    chart = HyperbolicChart(n=2, offset=D)
    target = SolveTarget(chart, dom, 0.9)
    factorized = []
    splu = linearize.spla.splu
    monkeypatch.setattr(
        linearize.spla, "splu", lambda *a, **kw: factorized.append(1) or splu(*a, **kw)
    )
    state = start_state(target, delta0=0.05)
    f = continuation_solve(state)
    assert state.tau == 1.0
    asm = assemble_curvature(chart, dom, f)
    assert np.max(np.abs(asm.K[dom.interior] - 0.9)) <= 1e-9
    # every factorization, the start step's included, goes through the
    # held one and is counted there
    assert len(factorized) == state.lu.factorizations
    assert 1 <= state.lu.factorizations < state.newton_total
    assert state.lu.krylov_iterations > 0


def test_newton_holds_one_DK_at_a_time(monkeypatch):
    # every DK is dropped once its step is solved (the held preconditioner
    # keeps an LU or a ring average, not the operator), so no earlier DK is
    # alive when the next one is built
    alive, at_call = set(), []
    real = solver.build_DK

    def counted(*args, **kwargs):
        at_call.append(len(alive))
        op = real(*args, **kwargs)
        alive.add(id(op))
        weakref.finalize(op, alive.discard, id(op))
        return op

    monkeypatch.setattr(solver, "build_DK", counted)
    gc.disable()  # no cycle collection: DKs must die by reference counting
    try:
        state = start_state(hyper_target(GridDomain.ball(1.0, 16, 64), 0.9, with_barrier=True))
        continuation_solve(state)
    finally:
        gc.enable()
    assert state.tau == 1.0
    assert len(at_call) > 5 and at_call == [0] * len(at_call)


def test_continuation_needs_positive_gap():
    dom = GridDomain.ball(1.0, 8, 32)
    # tanh(0.5) = 0.4621...; a target below the base curvature has no path
    with pytest.raises(OutOfRange):
        start_state(hyper_target(dom, 0.3))


def test_continuation_from_seed_iterate():
    chart = EpsilonChart(n=2, eps=0.1)
    dom = GridDomain.ball(1.0, 8, 32)
    s = dom.coords[:, 0]
    seed = 0.3 * (s**2 - 1.0)
    target = SolveTarget(chart, dom, 0.5)
    state = start_state(target, f_init=seed)
    asm = assemble_curvature(chart, dom, seed)
    assert state.gamma0 == pytest.approx(np.min(asm.K[dom.interior]))
    f = continuation_solve(state)
    assert state.tau == 1.0
    final = assemble_curvature(chart, dom, f)
    assert np.max(np.abs(final.K[dom.interior] - 0.5)) <= 1e-9


def test_continuation_geodesic_base_needs_seed():
    chart = EuclideanChart(n=2)
    dom = GridDomain.ball(1.0, 8, 32)
    state = start_state(SolveTarget(chart, dom, 0.5), delta0=0.025)
    with pytest.raises(NonAdmissibleInit, match="seed iterate"):
        continuation_solve(state)


def test_continuation_step_underflow_keeps_last_iterate():
    # a target curvature too large for the domain: the path stalls and the
    # state keeps the deepest solved level
    chart = HyperbolicChart(n=2, offset=D)
    dom = GridDomain.ball(1.0, 8, 32)
    depth_barrier = np.full(dom.num_nodes, -2.0)
    target = SolveTarget(chart, dom, 1.5, lower=depth_barrier)
    state = start_state(target)
    with pytest.raises(StepsizeUnderflow):
        continuation_solve(state, ContinuationOptions(dtau_min=1e-2))
    assert 0.0 <= state.tau < 1.0
    assert state.f is not None
    assert assemble_curvature(chart, dom, state.f).admissible


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the trials that overflow
def test_line_search_rejects_a_trial_whose_assembly_is_nan():
    # near tau = 0.85 a full step lands at f ~ -4e3, where the chart's cosh
    # overflows and K is NaN on hundreds of nodes; that trial must be
    # rejected like any other, so the corrector fails and dtau halves,
    # instead of taking the NaN iterate into the next DK build
    dom = GridDomain.ball(1.0, 16, 64)
    state = start_state(SolveTarget(HyperbolicChart(n=2, offset=0.2), dom, 1.5))
    perturb_rhs(state, 1e-3, seed=1)
    opts = ContinuationOptions(dtau_min=1e-3, newton=NewtonOptions(max_iter=5))
    with pytest.raises(StepsizeUnderflow):
        continuation_solve(state, opts)
    assert 0.85 < state.tau < 1.0
    assert assemble_curvature(state.target.chart, dom, state.f).admissible


def test_continuation_underflow_carries_the_walk_progress():
    chart = HyperbolicChart(n=2, offset=D)
    dom = GridDomain.ball(1.0, 8, 32)
    target = SolveTarget(chart, dom, 1.5, lower=np.full(dom.num_nodes, -2.0))
    state = start_state(target)
    with pytest.raises(StepsizeUnderflow) as info:
        continuation_solve(state, ContinuationOptions(dtau_min=1e-2))
    assert info.value.steps == state.newton_total > 0
    assert info.value.residual == state.residual_norm
    assert info.value.tau == state.tau


def test_failed_start_corrector_carries_no_iterate():
    dom = GridDomain.ball(1.0, 8, 32)
    state = start_state(hyper_target(dom, 0.7, with_barrier=True))
    with pytest.raises(NoConvergence) as info:
        continuation_solve(state, ContinuationOptions(newton=NewtonOptions(max_iter=1)))
    assert state.f is None
    assert info.value.steps == state.newton_total > 0
    assert info.value.tau is None and info.value.residual is None


def test_failed_start_corrector_is_not_retried(monkeypatch):
    # the corrector from the undamped first step is the only start attempt
    calls = []

    def recording(*args, **kwargs):
        calls.append(1)
        return newton_solve(*args, **kwargs)

    monkeypatch.setattr(solver, "newton_solve", recording)
    dom = GridDomain.ball(1.0, 8, 32)
    state = start_state(hyper_target(dom, 0.7, with_barrier=True))
    with pytest.raises(NoConvergence) as info:
        continuation_solve(state, ContinuationOptions(newton=NewtonOptions(max_iter=1)))
    assert len(calls) == 1
    assert info.value.steps == state.newton_total == 1


@pytest.mark.parametrize("at_goal", [False, True])
def test_continuation_keeps_the_margin_of_its_last_iterate(at_goal):
    # delta0 = gap puts the start level on the goal, so after the start
    # corrector the walk reaches tau = 1 through correctors of zero steps
    dom = GridDomain.ball(1.0, 8, 32)
    target = hyper_target(dom, 0.6, with_barrier=True)
    state = start_state(target, delta0=target.gap() if at_goal else None)
    f = continuation_solve(state)
    assert state.tau == 1.0
    assert ({row["tau"] for row in state.history} == {0.0}) == at_goal
    assert state.margin == assemble_curvature(target.chart, dom, f).margin


def test_start_state_delta0_guard():
    dom = GridDomain.ball(1.0, 8, 32)
    target = hyper_target(dom, 0.6)
    with pytest.raises(OutOfRange):
        start_state(target, delta0=10.0)
    with pytest.raises(OutOfRange):
        start_state(target, delta0=-0.1)
    st = start_state(target, delta0=0.05)
    assert st.gamma0 == pytest.approx(np.tanh(D) + 0.05)


@pytest.mark.parametrize("call", [
    lambda: NewtonOptions(margin_fraction=0.1),
    lambda: ContinuationOptions(dtau_init=0.2),
    lambda: ContinuationOptions(dtau_max=0.5),
    lambda: ContinuationOptions(easy_iterations=3),
    lambda: start_state(None, ContinuationOptions()),
    lambda: pogorelov_monitor(None, None, None, eps_x=1e-3),
], ids=["margin_fraction", "dtau_init", "dtau_max", "easy_iterations", "start_opts",
        "eps_x"])
def test_fixed_step_control_and_transversality_floor_are_no_options(call):
    with pytest.raises(TypeError, match="argument"):
        call()


def test_seeded_start_takes_delta0_over_the_seed_floor():
    # with f_init, delta0 places gamma(0) at phi0 + delta0, not at the seed's
    # smallest curvature, and must still clear phi0
    chart = EuclideanChart(n=2)
    dom = GridDomain.ball(1.0, 8, 32)
    seed = 0.25 * (dom.coords[:, 0] ** 2 - 1.0)
    target = SolveTarget(chart, dom, 0.5)
    state = start_state(target, f_init=seed, delta0=0.3)
    assert state.gamma0 == 0.3  # phi0 = 0 over the flat base
    assert np.array_equal(state.seed_iterate, seed)
    with pytest.raises(OutOfRange, match="does not exceed phi0"):
        start_state(target, f_init=seed, delta0=0.0)
    f = continuation_solve(state)
    assert state.tau == 1.0
    assert np.max(np.abs(assemble_curvature(chart, dom, f).K[dom.interior] - 0.5)) <= 1e-9


def test_start_state_rejects_inadmissible_seed():
    chart = EuclideanChart(n=2)
    dom = GridDomain.ball(1.0, 8, 32)
    with pytest.raises(NonAdmissibleInit):
        start_state(SolveTarget(chart, dom, 0.5), f_init=np.zeros(dom.num_nodes))


# ---- perturbations and probes -----------------------------------------------------


def test_smooth_random_field_is_normalized_and_reproducible():
    dom = GridDomain.ball(1.0, 8, 32)
    u1 = smooth_random_field(dom, np.random.default_rng(11))
    u2 = smooth_random_field(dom, np.random.default_rng(11))
    u3 = smooth_random_field(dom, np.random.default_rng(12))
    assert np.max(np.abs(u1)) == 1.0
    assert np.array_equal(u1, u2)
    assert not np.array_equal(u1, u3)


def test_perturb_rhs_contract():
    dom = GridDomain.ball(1.0, 8, 32)
    target = hyper_target(dom, 0.6)

    st = start_state(target)
    perturb_rhs(st, 1e-3, seed=5)
    assert np.max(np.abs(st.target.bump)) == 1e-3

    st2 = start_state(target)
    perturb_rhs(st2, 1e-3, seed=5)
    assert np.array_equal(st.target.bump, st2.target.bump)

    st3 = start_state(target)
    perturb_rhs(st3, 0.0, seed=5)
    assert st3.target.bump is None

    with pytest.raises(OutOfRange):
        perturb_rhs(st, -1e-3, seed=5)

    # perturbations accumulate
    perturb_rhs(st, 1e-4, seed=6)
    assert np.max(np.abs(st.target.bump)) <= 1e-3 + 1e-4 + 1e-16


def test_the_bump_rides_on_the_target_and_its_whole_path():
    dom = GridDomain.ball(1.0, 8, 32)
    bump = solver.rhs_perturbation(dom, 1e-3, seed=3)
    target = SolveTarget(HyperbolicChart(n=2, offset=D), dom, 0.6, bump=bump)
    f = -0.05 * (1.0 - dom.coords[:, 0] ** 2)
    assert np.array_equal(target.evaluate(f), 0.6 + bump)
    # gamma0 lies within a factor 2 of k, so gamma0 + (k - gamma0) is k exactly
    state = start_state(target)
    assert np.array_equal(state.path_target(1.0).evaluate(f), 0.6 + bump)


def test_perturbed_path_still_converges_deterministically():
    dom = GridDomain.ball(1.0, 8, 32)

    def run():
        state = start_state(hyper_target(dom, 0.8, with_barrier=True))
        perturb_rhs(state, 1e-4, seed=21)
        return continuation_solve(state)

    f1, f2 = run(), run()
    assert np.array_equal(f1, f2)


def test_uniqueness_probe_distinct_inits_agree():
    dom = GridDomain.ball(1.0, 8, 32)
    target = hyper_target(dom, 0.6)
    s = dom.coords[:, 0]
    inits = [np.zeros(dom.num_nodes), -0.08 * (1 - s**2)]
    rep = uniqueness_probe(target, inits)
    assert [r["status"] for r in rep["results"]] == ["converged", "converged"]
    assert rep["max_distance"] is not None
    assert rep["max_distance"] <= 1e-8


def test_uniqueness_probe_records_failing_branch():
    dom = GridDomain.ball(1.0, 8, 32)
    target = hyper_target(dom, 0.6)
    s = dom.coords[:, 0]
    # a steep upward bulge: its concavity overwhelms the slice term, so the
    # frame matrix is indefinite and the branch must report NonAdmissibleInit
    bad = 2.0 * (1 - s**2)
    bad[dom.boundary] = 0.0
    inits = [np.zeros(dom.num_nodes), bad]
    rep = uniqueness_probe(target, inits)
    statuses = [r["status"] for r in rep["results"]]
    assert statuses[0] == "converged"
    assert statuses[1] != "converged"
    assert rep["pairwise"] == []
    assert rep["max_distance"] is None
