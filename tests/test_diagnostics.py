"""Barriers, sandwich validation, curvature-norm reports, interior monitor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcurv.assembly import assemble_curvature, order_compare
from graphcurv.charts import EpsilonChart, EuclideanChart, HyperbolicChart
from graphcurv.diagnostics import (
    curvature_norm_report,
    make_barrier_pair,
    offset_barrier,
    pogorelov_monitor,
    sphere_cap_barrier,
    square_split,
    validate_sandwich,
)
from graphcurv.errors import NonAdmissible, OutOfRange, TransversalityFailure
from graphcurv.grids import GridDomain
from graphcurv.shape_oracle import curvature_oracle

D = 0.5
TANH = np.tanh(D)


def ball(nr=8, nphi=32):
    return GridDomain.ball(1.0, nr, nphi)


# ---- spherical-cap barrier -------------------------------------------------------


def test_flat_chart_cap_matches_closed_form():
    dom = GridDomain.ball(1.0, 16, 64)
    s = dom.coords[:, 0]
    exact = np.sqrt(3.0) - np.sqrt(4.0 - s**2)
    got = sphere_cap_barrier(EuclideanChart(n=2), dom, 0.5)
    # solved on a 32x-refined radial line, so well below grid truncation
    assert np.max(np.abs(got - exact)) < 1e-6
    assert np.all(got[dom.boundary] == 0.0)


def test_cap_barrier_curvature_is_second_order():
    chart = HyperbolicChart(n=2, offset=D)

    def oracle_err(nr, nphi):
        dom = GridDomain.ball(1.0, nr, nphi)
        cap = sphere_cap_barrier(chart, dom, 1.0)
        sd = curvature_oracle(chart, dom, cap)
        return np.max(np.abs(sd.K[dom.interior] - 1.0))

    e16 = oracle_err(16, 64)
    e32 = oracle_err(32, 128)
    assert e16 < 5e-3
    assert 3.4 < e16 / e32 < 4.6


def test_caps_order_strictly_with_curvature():
    chart = HyperbolicChart(n=2, offset=D)
    dom = ball()
    shallow = sphere_cap_barrier(chart, dom, 0.6)
    deep = sphere_cap_barrier(chart, dom, 0.8)
    assert order_compare(dom, deep, shallow) == "less"


def test_cap_barrier_infeasibility_and_guards():
    dom = ball()
    chart = EuclideanChart(n=2)
    # no sphere of curvature 1.2 spans a unit disk in flat space (radius 5/6)
    with pytest.raises(OutOfRange):
        sphere_cap_barrier(chart, dom, 1.2)
    with pytest.raises(OutOfRange):
        sphere_cap_barrier(chart, dom, -0.5)
    with pytest.raises(OutOfRange):
        sphere_cap_barrier(chart, GridDomain.interval(0.0, 1.0, 8), 0.5)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the trials that overflow
def test_cap_line_search_rejects_a_trial_whose_curvature_is_nan():
    # no curvature-2 cap spans the ball over the D = 0.05 slice: a damped
    # step lands where K is NaN, and the line search must refuse it rather
    # than take it into a Jacobian with a zero pivot
    with pytest.raises(OutOfRange, match="no curvature-2 cap over this ball"):
        sphere_cap_barrier(HyperbolicChart(n=2, offset=0.05), ball(), 2.0)


# ---- barrier pairs ------------------------------------------------------------------


def test_make_barrier_pair_cap():
    chart = HyperbolicChart(n=2, offset=D)
    dom = ball()
    bp = make_barrier_pair(chart, dom, kind="cap", k=1.0)
    assert bp.tag == "cap"
    assert bp.phi0 == pytest.approx(TANH, abs=1e-14)
    # phi_hat is measured from the assembled barrier, so it sits at the cap
    # curvature up to grid truncation
    assert bp.phi_hat == pytest.approx(1.0, abs=5e-3)
    assert np.all(bp.upper == 0.0)
    assert np.all(bp.lower[dom.interior] < 0.0)


def test_make_barrier_pair_offset_waives_boundary_equality():
    chart = HyperbolicChart(n=2, offset=D)
    dom = ball()
    bp = make_barrier_pair(chart, dom, kind="offset", depth=0.25)
    assert bp.tag == "offset"
    assert np.all(bp.lower == -0.25)
    # the constant slice has curvature tanh(D + 0.25)
    assert bp.phi_hat == pytest.approx(np.tanh(D + 0.25), abs=1e-12)


def test_make_barrier_pair_user_invariants():
    chart = HyperbolicChart(n=2, offset=D)
    dom = ball()
    s = dom.coords[:, 0]
    good = -0.1 * (1 - s**2)
    bp = make_barrier_pair(chart, dom, kind="user", lower=good)
    assert bp.tag == "user"
    assert bp.phi_hat > bp.phi0

    flat_spot = good.copy()
    flat_spot[dom.node_index(2, 5)] = 0.0  # zero in the interior
    with pytest.raises(NonAdmissible, match="strictly negative"):
        make_barrier_pair(chart, dom, kind="user", lower=flat_spot)

    hanging = good - 0.05  # nonzero at the boundary
    with pytest.raises(NonAdmissible, match="boundary"):
        make_barrier_pair(chart, dom, kind="user", lower=hanging)

    with pytest.raises(NonAdmissible, match="admissible"):
        make_barrier_pair(EuclideanChart(n=2), dom, kind="offset", depth=0.25)

    with pytest.raises(OutOfRange):
        make_barrier_pair(chart, dom, kind="wedge")
    with pytest.raises(OutOfRange):
        make_barrier_pair(chart, dom, kind="cap")  # k missing
    with pytest.raises(OutOfRange):
        offset_barrier(chart, dom, 0.0)


def test_validate_sandwich_reports():
    chart = HyperbolicChart(n=2, offset=D)
    dom = ball()
    bp = make_barrier_pair(chart, dom, kind="cap", k=1.0)
    f = 0.5 * bp.lower
    rep = validate_sandwich(f, bp)
    assert rep["passed"]
    assert rep["above_upper"] == [] and rep["below_lower"] == []

    poke_up = f.copy()
    k1 = dom.node_index(3, 7)
    poke_up[k1] = 0.01
    rep_up = validate_sandwich(poke_up, bp)
    assert not rep_up["passed"] and rep_up["above_upper"] == [k1]

    poke_dn = f.copy()
    poke_dn[k1] = 2.0 * bp.lower[k1] - 1.0
    rep_dn = validate_sandwich(poke_dn, bp)
    assert not rep_dn["passed"] and rep_dn["below_lower"] == [k1]
    # a generous tolerance can absorb the dip
    assert validate_sandwich(poke_dn, bp, tol=2.0)["passed"]

    band = validate_sandwich(f, bp, target=0.8)
    assert band["target_in_band"]
    assert band["target_low_margin"] == pytest.approx(0.8 - TANH, abs=1e-12)
    out_band = validate_sandwich(f, bp, target=0.2)
    assert not out_band["target_in_band"] and not out_band["passed"]


# ---- curvature-norm reports -----------------------------------------------------------


def test_norm_report_constant_slice():
    chart = HyperbolicChart(n=2, offset=D)
    dom = GridDomain.ball(1.0, 16, 64)
    rep = curvature_norm_report(chart, dom, np.zeros(dom.num_nodes))
    # |A| = tanh(D) everywhere on the slice, up to oracle truncation
    assert rep.sup_A == pytest.approx(TANH, abs=2e-3)
    assert rep.interior_sup_A == pytest.approx(TANH, abs=2e-3)
    assert rep.boundary_sup_A == pytest.approx(TANH, abs=2e-3)
    assert rep.lambda_min == pytest.approx(TANH, abs=2e-3)
    assert rep.lambda_max == pytest.approx(TANH, abs=2e-3)
    assert rep.lipschitz == 0.0
    assert rep.delta_weight[rep.delta_point] == 0.0
    assert np.all(rep.delta_weight >= 0.0)


def test_norm_report_flat_cap():
    chart = EuclideanChart(n=2)
    dom = GridDomain.ball(1.0, 16, 64)
    s = dom.coords[:, 0]
    f = np.sqrt(3.0) - np.sqrt(4.0 - s**2)
    rep = curvature_norm_report(chart, dom, f)
    assert rep.lambda_min == pytest.approx(0.5, abs=5e-3)
    assert rep.lambda_max == pytest.approx(0.5, abs=5e-3)
    # slope of the cap at the rim: s / sqrt(4 - s^2) = 1/sqrt(3)
    assert rep.lipschitz == pytest.approx(1 / np.sqrt(3), abs=5e-2)


# ---- interior monitor ---------------------------------------------------------------


def test_pogorelov_monitor_constant_slice():
    chart = HyperbolicChart(n=2, offset=D)
    dom = GridDomain.ball(1.0, 16, 64)
    f = np.zeros(dom.num_nodes)
    ones = np.ones(dom.num_nodes)
    rep = pogorelov_monitor(chart, dom, f, cutoff=ones)
    # Phi = log(1) - 0 + log|A| = log(tanh D) everywhere... shifted by the
    # vertical-alignment term; with f = 0 the alignment is 1, so
    # sup Phi = log(tanh D) - 1 after the -x_n normalization
    want = np.log(TANH) - 1.0
    assert rep["sup"] == pytest.approx(want, abs=5e-3)
    vals = rep["values"]
    spread = np.ptp(vals[dom.interior])
    assert spread < 5e-3
    assert rep["x_min"] > 0.9


def test_pogorelov_monitor_guards():
    chart = HyperbolicChart(n=2, offset=D)
    dom = ball()
    f = np.zeros(dom.num_nodes)
    with pytest.raises(OutOfRange):
        pogorelov_monitor(chart, dom, f, alpha=0.5)
    # flip the reference direction: transversality fails immediately
    sd = curvature_oracle(chart, dom, f)
    with pytest.raises(TransversalityFailure):
        pogorelov_monitor(chart, dom, f, x_field=-sd.normal)


def test_pogorelov_monitor_reuses_given_shape_data_bitwise():
    chart = HyperbolicChart(n=2, offset=D)
    dom = GridDomain.ball(1.0, 16, 64)
    s, phi = dom.coords[:, 0], dom.coords[:, 1]
    f = -0.05 * (1 - s**2) - 0.008 * s**3 * np.cos(3 * phi) * (1 - s**2)
    fresh = pogorelov_monitor(chart, dom, f, alpha=1.5)
    shared = pogorelov_monitor(chart, dom, f, alpha=1.5,
                               shape=curvature_oracle(chart, dom, f))
    assert shared["values"].tobytes() == fresh["values"].tobytes()
    for key in ("sup", "node", "alpha", "x_min"):
        assert shared[key] == fresh[key]


def test_pogorelov_default_cutoff_vanishes_near_rim():
    chart = HyperbolicChart(n=2, offset=D)
    dom = GridDomain.ball(1.0, 16, 64)
    rep = pogorelov_monitor(chart, dom, np.zeros(dom.num_nodes))
    vals = rep["values"]
    rim_adjacent = dom.node_index(15, 0)
    assert vals[rim_adjacent] == -np.inf or vals[rim_adjacent] < vals[rep["node"]]
    assert dom.interior[rep["node"]]


# ---- elementary split inequality -------------------------------------------------------


def test_square_split_vectorized_battery():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(10_000)
    b = rng.standard_normal(10_000)
    lam = rng.uniform(0.01, 100.0, size=10_000)
    lhs, rhs = square_split(a, b, lam)
    assert np.all(lhs <= rhs * (1 + 1e-12) + 1e-12)
    # equality exactly when b = lam * a
    lhs_eq, rhs_eq = square_split(a, lam * a, lam)
    assert np.allclose(lhs_eq, rhs_eq, rtol=1e-10, atol=1e-10)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.floats(1e-3, 1e3, allow_nan=False),
)
def test_square_split_inequality_holds(a, b, lam):
    lhs, rhs = square_split(a, b, lam)
    assert lhs <= rhs * (1 + 1e-9) + 1e-9


def test_square_split_rejects_bad_weight():
    with pytest.raises(OutOfRange):
        square_split(1.0, 2.0, 0.0)
    with pytest.raises(OutOfRange):
        square_split(1.0, 2.0, -3.0)


def test_cap_profiles_are_solved_once_per_fine_grid(monkeypatch):
    import graphcurv.diagnostics as diag

    chart = HyperbolicChart(n=2, offset=D)
    grids = [ball(16, 64), ball(32, 128), ball(64, 256)]  # fine grids 512, 1024, 1024
    want = [sphere_cap_barrier(chart, dom, 0.95) for dom in grids]
    solved = []
    real = diag._cap_profile
    monkeypatch.setattr(diag, "_cap_profile",
                        lambda *args: solved.append(args[3]) or real(*args))
    profiles = {}
    got = [sphere_cap_barrier(chart, dom, 0.95, profiles=profiles) for dom in grids]
    assert solved == [512, 1024]
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    # another curvature, chart or dimension is another profile
    sphere_cap_barrier(chart, grids[2], 0.9, profiles=profiles)
    sphere_cap_barrier(HyperbolicChart(n=2, offset=0.4), grids[2], 0.95, profiles=profiles)
    assert solved == [512, 1024, 1024, 1024]
    pair = make_barrier_pair(chart, grids[1], kind="cap", k=0.95, profiles=profiles)
    assert len(solved) == 4 and pair.lower.tobytes() == want[1].tobytes()


def _band_entries(cols, dr, m):
    """(rows, cols, values) of the nonzero tridiagonal entries in ``cols``.

    ``dr`` is the finite-difference derivative of the residual along a bump
    of the columns ``cols`` (one color of a 3-coloring), so column j owns
    rows j-1, j, j+1; entries come column by column in that row order, rows
    outside 0..m-1 and exact zeros dropped.
    """
    i = (cols[:, None] + np.arange(-1, 2)).ravel()
    j = np.repeat(cols, 3)
    inside = (i >= 0) & (i < m)
    i, j = i[inside], j[inside]
    keep = dr[i] != 0.0
    return i[keep], j[keep], dr[i[keep]]


def ref_cap_profile(chart, k, R, m, n, tol, max_iter):
    """The radial cap solved from the Euclidean curvature-k seed with a
    3-colored central-difference Jacobian and a sparse LU, its probes
    evaluated one call each in the loop over the three colors."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    from graphcurv.diagnostics import _radial_curvature

    h1 = R / m
    svals = h1 * np.arange(m + 1)
    rs = max(1.0 / k, 1.05 * R)
    f = np.sqrt(rs**2 - R**2) - np.sqrt(rs**2 - svals**2)
    f[-1] = 0.0
    w, wp = chart.base_warp(np.maximum(svals, h1))

    def resid(fv):
        K, m1, m2 = _radial_curvature(chart, wp / w, fv, h1, n)
        return K[:-1] - k, float(np.min(np.minimum(m1[:-1], m2[:-1])))

    r, margin = resid(f)
    rnorm, r2 = float(np.max(np.abs(r))), float(np.linalg.norm(r))
    goal = max(tol, 1e3 * np.finfo(float).eps * (1.0 + float(np.max(np.abs(f)))) / h1**2)
    eps = 1e-9
    for _ in range(max_iter):
        if rnorm <= goal:
            break
        bands = []
        for color in range(3):
            bump = np.zeros(m + 1)
            idx = np.arange(color, m, 3)
            bump[idx] = eps
            rp, _ = resid(f + bump)
            rm, _ = resid(f - bump)
            bands.append(_band_entries(idx, (rp - rm) / (2.0 * eps), m))
        rows, colids, data = (np.concatenate(part) for part in zip(*bands))
        jac = sp.csc_matrix((data, (rows, colids)), shape=(m, m))
        step = np.concatenate([spla.splu(jac).solve(-r), [0.0]])
        for kk in range(11):
            s = 2.0**-kk
            f_new = f + s * step
            r_new, margin_new = resid(f_new)
            if margin_new < 0.1 * margin:
                continue
            rn2 = float(np.linalg.norm(r_new))
            if rn2 > (1.0 - s / 8.0) * r2:
                continue
            f, r, rnorm, r2, margin = f_new, r_new, float(np.max(np.abs(r_new))), rn2, margin_new
            break
        else:
            break
    return f


def cap_residual(chart, k, f, n=2):
    """max |K - k| off the rim of the radial profile f over the unit ball."""
    from graphcurv.diagnostics import _radial_curvature

    m = len(f) - 1
    h1 = 1.0 / m
    w, wp = chart.base_warp(np.maximum(h1 * np.arange(m + 1), h1))
    K, _, _ = _radial_curvature(chart, wp / w, f, h1, n)
    return float(np.max(np.abs(K[:-1] - k)))


@pytest.mark.parametrize("m", [512, 1024])
def test_cap_profile_agrees_with_the_finite_difference_reference(m):
    # the exact banded Jacobian and the excess-curvature seed reach the cap
    # of the colored finite-difference route, and a smaller residual
    import graphcurv.diagnostics as diag

    chart = HyperbolicChart(n=2, offset=D)
    want = ref_cap_profile(chart, 0.95, 1.0, m, 2, 1e-10, 60)
    got = diag._cap_profile(chart, 0.95, 1.0, m, 2, 1e-10, 60)
    assert np.max(np.abs(got - want)) <= 2e-7
    assert cap_residual(chart, 0.95, got) < cap_residual(chart, 0.95, want)


@pytest.mark.parametrize("chart", [
    EuclideanChart(n=2), HyperbolicChart(n=2, offset=D), EpsilonChart(eps=0.1, n=2),
], ids=["euclidean", "hyperbolic", "epsilon"])
@pytest.mark.parametrize("m", [64, 512])
def test_radial_jacobian_matches_central_differences(chart, m):
    import graphcurv.diagnostics as diag

    k = 0.95 if isinstance(chart, HyperbolicChart) else 0.5
    h1 = 1.0 / m
    s = h1 * np.arange(m + 1)
    w, wp = chart.base_warp(np.maximum(s, h1))
    ratio = wp / w
    f = diag._cap_profile(chart, k, 1.0, m, 2, 1e-10, 60)
    f = f + 0.01 * np.cos(0.5 * np.pi * s) * np.sin(3.0 * s)  # zero at the rim
    parts = diag._radial_curvature(chart, ratio, f, h1, 2)
    assert np.min(np.minimum(parts[1][:-1], parts[2][:-1])) > 0.0
    lower, middle, upper = diag._radial_jacobian(chart, ratio, f, h1, 2, *parts)
    exact = np.diag(middle) + np.diag(upper[:-1], 1) + np.diag(lower[1:], -1)
    # 1e-7 at m = 64, shrunk with h^2 so that the bump moves f'' (and the
    # truncation error of the central difference) equally on every grid
    step = 1e-7 * (64 / m) ** 2
    fd = np.empty((m, m))
    for j in range(m):
        bump = np.zeros(m + 1)
        bump[j] = step
        up, _, _ = diag._radial_curvature(chart, ratio, f + bump, h1, 2)
        down, _, _ = diag._radial_curvature(chart, ratio, f - bump, h1, 2)
        fd[:, j] = (up[:-1] - down[:-1]) / (2.0 * step)
    band = np.abs(np.subtract.outer(np.arange(m), np.arange(m))) <= 1
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(fd - exact)[band]) <= 1e-6 * scale
    assert np.all(fd[~band] == 0.0)


@pytest.mark.parametrize("m", [512, 1024])
def test_cap_profile_takes_few_curvature_evaluations(monkeypatch, m):
    import graphcurv.diagnostics as diag

    chart = HyperbolicChart(n=2, offset=D)
    calls = []
    real = diag._radial_curvature
    monkeypatch.setattr(diag, "_radial_curvature",
                        lambda *args: calls.append(1) or real(*args))
    f = diag._cap_profile(chart, 0.95, 1.0, m, 2, 1e-10, 60)
    assert len(calls) <= 6
    assert cap_residual(chart, 0.95, f) <= 1e-8


def test_singular_cap_jacobian_is_out_of_range(monkeypatch):
    import graphcurv.diagnostics as diag

    monkeypatch.setattr(diag, "_radial_jacobian", lambda *args: np.zeros((3, 64)))
    with pytest.raises(OutOfRange, match="lost ellipticity"):
        diag._cap_profile(HyperbolicChart(n=2, offset=D), 0.95, 1.0, 64, 2, 1e-10, 60)


def test_cap_at_or_below_the_base_curvature_is_refused():
    chart = HyperbolicChart(n=2, offset=D)
    dom = ball()
    # k == phi0 seeds from the curvature-k cap (no division by k - phi0)
    for k in (chart.base_hypersurface().phi0, 0.4):
        with pytest.raises(NonAdmissible):
            make_barrier_pair(chart, dom, kind="cap", k=k)


def test_band_entries_match_the_loop_reference():
    m = 40
    dr = np.random.default_rng(4).standard_normal(m)
    dr[[0, 7, 8, 39]] = 0.0  # exact zeros are dropped
    for color in range(3):
        cols = np.arange(color, m, 3)
        want = ([], [], [])
        for j in cols:
            for i in (j - 1, j, j + 1):
                if 0 <= i < m and dr[i] != 0.0:
                    want[0].append(i)
                    want[1].append(j)
                    want[2].append(dr[i])
        got = _band_entries(cols, dr, m)
        for g, w in zip(got, want):
            assert np.array_equal(g, np.array(w, dtype=g.dtype))
