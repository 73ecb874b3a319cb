"""Acceptance battery: eleven go/no-go checks with one printed verdict line each.

Run ``pytest tests/test_acceptance.py -s`` to see the AC1..AC11 lines; each
test prints its line (with the measured numbers) before asserting, so a red
test still shows what was measured.  Grid shorthand: the canonical disk at
"65^2" resolution is ``GridDomain.ball(1.0, 32, 128)``, its coarse and fine
siblings halve/double both counts.
"""

import csv
import filecmp
import json
import time

import numpy as np
import pytest

from graphcurv.assembly import assemble_curvature, order_compare
from graphcurv.charts import EpsilonChart, EuclideanChart, HyperbolicChart
from graphcurv.cli import main
from graphcurv.diagnostics import (
    make_barrier_pair,
    pogorelov_monitor,
    validate_sandwich,
)
from graphcurv.grids import GridDomain, load_grid
from graphcurv.linearize import build_DK, build_JK, stability_check
from graphcurv.riemann import sectional_spread
from graphcurv.shape_oracle import curvature_oracle
from graphcurv.solver import (
    SolveTarget,
    continuation_solve,
    smooth_random_field,
    start_state,
    uniqueness_probe,
)

D = 0.5
TANH = np.tanh(D)


def ball65():
    return GridDomain.ball(1.0, 32, 128)


def verdict(n, ok, detail):
    print(f"AC{n}: {'PASS' if ok else 'FAIL'} — {detail}")


# ---- AC1: constant curvature of the zero graph ----------------------------------


def test_ac01_equidistant_constant_curvature():
    """f = 0 over the offset-D slice has curvature tanh(D), exactly and by oracle."""
    t0 = time.perf_counter()
    chart = HyperbolicChart(n=2, offset=D)
    dom = ball65()
    asm = assemble_curvature(chart, dom, np.zeros(dom.num_nodes))
    rel = float(np.max(np.abs(asm.K[dom.interior] - TANH)) / TANH)
    errs = []
    for nr in (16, 32):
        d = GridDomain.ball(1.0, nr, 4 * nr)
        sd = curvature_oracle(chart, d, np.zeros(d.num_nodes))
        errs.append(float(np.max(np.abs(sd.K[d.interior] - TANH))))
    ratio = errs[0] / errs[1]
    dt = time.perf_counter() - t0
    ok = rel <= 1e-12 and 3.4 <= ratio <= 4.6 and dt < 10.0
    verdict(1, ok, f"assembled rel err {rel:.2e} (<= 1e-12), "
                   f"oracle h-halving ratio {ratio:.2f} (in [3.4, 4.6]), {dt:.2f}s (< 10s)")
    assert rel <= 1e-12
    assert 3.4 <= ratio <= 4.6
    assert dt < 10.0


# ---- AC2: flat-chart cap, solved end to end through the CLI ---------------------


def test_ac02_flat_cap_second_order(tmp_path):
    """solve with k = 1/2 on the unit disk reproduces the spherical cap at O(h^2)."""
    t0 = time.perf_counter()
    errs = []
    for nr in (16, 32, 64):
        cfg = {
            "chart": {"kind": "euclidean"},
            "domain": {"kind": "ball", "nr": nr, "nphi": 4 * nr},
            "problem": {"k": 0.5},
            "solver": {"mode": "newton", "init": {"kind": "paraboloid", "scale": 0.25}},
            "output": {"dir": str(tmp_path / f"out{nr}")},
        }
        p = tmp_path / f"cap{nr}.json"
        p.write_text(json.dumps(cfg))
        assert main(["solve", "--config", str(p)]) == 0
        dom, f, _ = load_grid(tmp_path / f"out{nr}" / "solution.grid")
        s = dom.coords[:, 0]
        exact = np.sqrt(3.0) - np.sqrt(4.0 - s * s)
        errs.append(float(np.max(np.abs(f - exact))))
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    c_h2 = max(e * nr**2 for e, nr in zip(errs, (16, 32, 64)))
    dt = time.perf_counter() - t0
    ok = min(orders) >= 1.8 and dt < 60.0
    verdict(2, ok, f"max errors {errs[0]:.2e}/{errs[1]:.2e}/{errs[2]:.2e} <= {c_h2:.3f}·h², "
                   f"orders {orders[0]:.2f}, {orders[1]:.2f} (>= 1.8), {dt:.1f}s (< 60s)")
    assert min(orders) >= 1.8
    for e, nr in zip(errs, (16, 32, 64)):
        assert e <= c_h2 / nr**2 * (1 + 1e-12)
    assert dt < 60.0


# ---- AC3: linearization against the Gateaux difference quotient -----------------


def test_ac03_linearization_matches_gateaux_oracle():
    """DK applied to v agrees with (K(f+tv) - K(f-tv)) / 2t on random pairs."""
    t0 = time.perf_counter()
    dom = GridDomain.ball(1.0, 16, 64)
    s = dom.coords[:, 0]
    ph = dom.coords[:, 1]
    bowl = -0.05 * (1 - s**2) - 0.008 * s**3 * np.cos(3 * ph) * (1 - s**2)
    flat_bowl = 0.3 * (s**2 - 1.0)
    cases = [
        ("hyperbolic", HyperbolicChart(n=2, offset=D), bowl, 0.02),
        ("euclidean", EuclideanChart(n=2), flat_bowl, 0.01),
        ("epsilon", EpsilonChart(n=2, eps=0.1), flat_bowl, 0.01),
    ]
    rng = np.random.default_rng(31)
    step = 1e-5
    worst = {}
    for name, chart, base, amp in cases:
        wrel = 0.0
        for _ in range(20):
            # rejection-style sampling: shrink the perturbation until the
            # draw is safely admissible (the frozen seed never needs it)
            a = amp
            for _ in range(7):
                f = base + a * smooth_random_field(dom, rng)
                asm = assemble_curvature(chart, dom, f)
                if asm.margin > 1e-3:
                    break
                a /= 2.0
            assert asm.admissible
            v = smooth_random_field(dom, rng)
            got = build_DK(chart, dom, f, assembly=asm).apply(v)
            kp = assemble_curvature(chart, dom, f + step * v).K
            km = assemble_curvature(chart, dom, f - step * v).K
            fd = (kp - km) / (2.0 * step)
            idx = dom.interior
            rel = float(np.max(np.abs(got[idx] - fd[idx])) / np.max(np.abs(fd[idx])))
            wrel = max(wrel, rel)
        worst[name] = wrel
    dt = time.perf_counter() - t0
    wmax = max(worst.values())
    ok = wmax <= 1e-6 and dt < 60.0
    verdict(3, ok, "worst rel gap " + ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
                   + f" (<= 1e-6, 20 pairs each), {dt:.1f}s (< 60s)")
    assert wmax <= 1e-6
    assert dt < 60.0


# ---- AC4: inverse negativity of the linearization at the zero graph -------------


def test_ac04_stability_witness_and_source_battery():
    """DK_0^{-1} maps positive sources to interior-negative solutions."""
    t0 = time.perf_counter()
    chart = HyperbolicChart(n=2, offset=D)
    dom = ball65()
    chk = stability_check(chart, dom, np.zeros(dom.num_nodes))
    wmax = float(np.max(chk["witness"][dom.interior]))
    op = build_DK(chart, dom, np.zeros(dom.num_nodes))
    rng = np.random.default_rng(4)
    passed = 0
    for _ in range(20):
        g = 1.0 + 0.5 * smooth_random_field(dom, rng)
        assert np.all(g[dom.interior] > 0.0)
        w = op.solve(np.where(dom.interior, g, 0.0))
        passed += bool(np.all(w[dom.interior] < 0.0))
    dt = time.perf_counter() - t0
    ok = chk["stable"] and passed == 20 and dt < 30.0
    verdict(4, ok, f"witness max {wmax:.2e} (< 0 interior), "
                   f"random positive-source battery {passed}/20, {dt:.2f}s (< 30s)")
    assert chk["stable"]
    assert passed == 20
    assert dt < 30.0


# ---- AC5: curvature continuation to k = 0.9 --------------------------------------


@pytest.fixture(scope="module")
def ac5_run():
    chart = HyperbolicChart(n=2, offset=D)
    dom = ball65()
    barrier = make_barrier_pair(chart, dom, kind="cap", k=0.95)
    target = SolveTarget(
        chart, dom, 0.9,
        lower=barrier.lower, phi_hat=barrier.phi_hat,
    )
    state = start_state(target, delta0=0.05)
    t0 = time.perf_counter()
    f = continuation_solve(state)
    dt = time.perf_counter() - t0
    return {"chart": chart, "dom": dom, "barrier": barrier, "state": state,
            "f": f, "dt": dt}


def test_ac05_continuation_path(ac5_run):
    """Path from tanh(D) + 0.05 up to k = 0.9 inside the cap sandwich."""
    chart, dom = ac5_run["chart"], ac5_run["dom"]
    state, f = ac5_run["state"], ac5_run["f"]
    asm = assemble_curvature(chart, dom, f)
    res = float(np.max(np.abs(asm.K[dom.interior] - 0.9)))
    margins = [row["margin"] for row in state.history]
    sand = validate_sandwich(f, ac5_run["barrier"], target=0.9)
    dt = ac5_run["dt"]
    ok = (state.tau == 1.0 and state.newton_total <= 40 and res <= 1e-9
          and min(margins) > 0.0 and sand["passed"] and dt < 120.0)
    verdict(5, ok, f"start {state.gamma0:.6f} = tanh(0.5)+0.05, tau {state.tau}, "
                   f"{state.newton_total} Newton steps (<= 40), residual {res:.1e} (<= 1e-9), "
                   f"min accepted margin {min(margins):.3f} (> 0), sandwich "
                   f"{'ok' if sand['passed'] else 'VIOLATED'}, {dt:.1f}s (< 120s)")
    assert state.gamma0 == pytest.approx(TANH + 0.05, abs=1e-15)
    assert state.tau == 1.0
    assert state.newton_total <= 40
    assert res <= 1e-9
    # every accepted corrector iterate was admissible (recorded margin) and
    # line-search steps outside the sandwich are rejected by construction
    assert min(margins) > 0.0
    assert sand["passed"]
    assert dt < 120.0


# ---- AC6: solutions order oppositely to their curvatures -------------------------


def test_ac06_comparison_ordering():
    """The k = 0.8 solution lies strictly below the k = 0.6 one in the interior."""
    chart = HyperbolicChart(n=2, offset=D)
    dom = ball65()
    sols = {}
    for k in (0.6, 0.8):
        bp = make_barrier_pair(chart, dom, kind="cap", k=k + 0.05)
        tgt = SolveTarget(chart, dom, k, lower=bp.lower, phi_hat=bp.phi_hat)
        sols[k] = continuation_solve(start_state(tgt))
    relation = order_compare(dom, sols[0.8], sols[0.6])
    margin = float(np.min((sols[0.6] - sols[0.8])[dom.interior]))
    ok = relation == "less" and margin > 0.0
    verdict(6, ok, f"f_0.8 vs f_0.6 relation '{relation}' (want strict 'less'), "
                   f"interior ordering margin {margin:.3e}")
    assert relation == "less"
    assert margin > 0.0


# ---- AC7: independence from the initial iterate ----------------------------------


def test_ac07_uniqueness_across_inits():
    """Two distinct admissible starts reach the same k = 0.6 solution."""
    chart = HyperbolicChart(n=2, offset=D)
    dom = ball65()
    target = SolveTarget(chart, dom, 0.6)
    s = dom.coords[:, 0]
    inits = [np.zeros(dom.num_nodes), -0.08 * (1 - s**2)]
    rep = uniqueness_probe(target, inits)
    statuses = [r["status"] for r in rep["results"]]
    dist = rep["max_distance"]
    ok = statuses == ["converged", "converged"] and dist is not None and dist <= 1e-8
    verdict(7, ok, f"branch statuses {statuses}, pairwise ∞-distance "
                   f"{dist if dist is None else format(dist, '.2e')} (<= 1e-8)")
    assert statuses == ["converged", "converged"]
    assert dist <= 1e-8


# ---- AC8: sign of the comparison operator's zeroth coefficient -------------------


def test_ac08_jacobi_zeroth_coefficient_sign():
    """h = tr(A0^-1 W) - tr(A0) >= 0 across offsets, with W measured not assumed."""
    t0 = time.perf_counter()
    dom = GridDomain.ball(1.0, 4, 16)
    offsets = np.linspace(0.1, 5.0, 50)
    hs = []
    for off in offsets:
        jk = build_JK(HyperbolicChart(n=2, offset=float(off)).base_hypersurface(), dom)
        hs.append(float(np.min(jk.zeroth[dom.interior])))
    hs = np.array(hs)
    exact = 2.0 * (1.0 / np.tanh(offsets) - np.tanh(offsets))
    gap = float(np.max(np.abs(hs - exact)))
    dt = time.perf_counter() - t0
    ok = bool(np.all(hs >= 0.0))
    verdict(8, ok, f"min h {hs.min():.3e} over 50 offsets in (0, 5] (>= 0; tightest at "
                   f"offset 5 where 2(coth-tanh) = {exact[-1]:.3e}), "
                   f"measured-vs-closed gap {gap:.1e}, {dt:.2f}s")
    assert np.all(hs >= 0.0)
    # the coefficient came from the finite-difference curvature oracle: it
    # tracks the closed form instead of matching it to roundoff
    assert 0.0 < gap < 1e-4


# ---- AC9: constant sectional curvature of the eps-family -------------------------


def test_ac09_epsilon_family_sectional_constant():
    """Normalized eps = 0.1 metric: sampled sectional curvature is one constant."""
    chart = EpsilonChart(n=2, eps=0.1, normalized=True)
    vals = sectional_spread(
        chart.metric_at,
        [(0.3, 1.2), (0.3, 6.0), (-0.3, 0.3)],
        n_samples=100, seed=9, h=1e-3, big_h=2e-3,
    )
    mean = float(np.mean(vals))
    spread = float((np.max(vals) - np.min(vals)) / abs(mean))
    ok = spread <= 1e-6
    verdict(9, ok, f"100 point/plane samples: K = {mean:.10e}, rel spread {spread:.1e} "
                   f"(<= 1e-6); recorded constant is -eps^2 = -0.01, not -eps")
    assert spread <= 1e-6
    assert mean == pytest.approx(-0.01, rel=1e-6)


# ---- AC10: interior-estimate monitor is grid-stable ------------------------------


def test_ac10_pogorelov_sup_stable_under_refinement(ac5_run):
    """sup of the Pogorelov-type monitor moves < 2% when the grid is halved."""
    chart = ac5_run["chart"]
    sup65 = pogorelov_monitor(chart, ac5_run["dom"], ac5_run["f"])["sup"]
    dom129 = GridDomain.ball(1.0, 64, 256)
    bp = make_barrier_pair(chart, dom129, kind="cap", k=0.95)
    tgt = SolveTarget(chart, dom129, 0.9, lower=bp.lower, phi_hat=bp.phi_hat)
    f129 = continuation_solve(start_state(tgt, delta0=0.05))
    sup129 = pogorelov_monitor(chart, dom129, f129)["sup"]
    diff = abs(sup65 - sup129) / abs(sup65)
    ok = diff <= 0.02
    verdict(10, ok, f"sup Φ = {sup65:.6f} at 65², {sup129:.6f} at 129², "
                    f"relative difference {diff:.2e} (<= 2e-2)")
    assert diff <= 0.02


# ---- AC11: bitwise reproducibility of a full run ----------------------------------


def test_ac11_repeat_run_is_bitwise_identical(tmp_path):
    """Re-running the continuation with the same seed reproduces the files."""
    cfg = {
        "chart": {"kind": "hyperbolic", "offset": D},
        "domain": {"kind": "ball", "nr": 32, "nphi": 128},
        "problem": {"k": 0.9},
        "solver": {"delta0": 0.05},
    }
    outs = []
    for run in ("a", "b"):
        c = dict(cfg)
        c["output"] = {"dir": str(tmp_path / run)}
        p = tmp_path / f"run_{run}.json"
        p.write_text(json.dumps(c))
        assert main(["solve", "--config", str(p), "--seed", "7"]) == 0
        outs.append(tmp_path / run)
    same_grid = filecmp.cmp(outs[0] / "solution.grid", outs[1] / "solution.grid",
                            shallow=False)
    same_iters = filecmp.cmp(outs[0] / "iterations.csv", outs[1] / "iterations.csv",
                             shallow=False)
    nbytes = (outs[0] / "solution.grid").stat().st_size
    ok = same_grid and same_iters
    verdict(11, ok, f"two seed-7 runs: solution.grid identical={same_grid} "
                    f"({nbytes} bytes), iterations.csv identical={same_iters}")
    assert same_grid
    assert same_iters
