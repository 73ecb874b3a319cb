"""Curvature assembly: closed forms, generic cross-route, admissibility."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcurv.assembly import (
    _generic_psi_Psi,
    assemble_curvature,
    closed_psi_Psi,
    conformal_graph_curvature,
    frame_quantities,
    order_compare,
    require_admissible,
    signed_root_det,
    sym_eig_bounds,
)
from graphcurv.charts import EpsilonChart, EuclideanChart, HyperbolicChart
from graphcurv.errors import NonAdmissible, OutOfRange
from graphcurv.grids import GridDomain


D = 0.5


def ball(nr=8, nphi=32):
    return GridDomain.ball(1.0, nr, nphi)


def safe_ball_field(dom):
    """An admissible hyperbolic-chart test graph with comfortable margin."""
    s, phi = dom.coords[:, 0], dom.coords[:, 1]
    return -0.05 * (1 - s**2) - 0.008 * s**3 * np.cos(3 * phi) * (1 - s**2)


# ---- constant slices ---------------------------------------------------------


def test_equidistant_slice_curvature_is_exact():
    chart = HyperbolicChart(n=2, offset=D)
    dom = ball()
    f = np.zeros(dom.num_nodes)
    asm = assemble_curvature(chart, dom, f)
    want = np.tanh(D)
    inner = dom.interior
    # the zero graph sits on the equidistant slice: every stencil sees a
    # constant, so the assembled curvature carries no truncation error at all
    assert np.max(np.abs(asm.K[inner] - want)) < 1e-14
    assert asm.margin == pytest.approx(np.tanh(D), abs=1e-14)
    assert asm.admissible

    gen = assemble_curvature(chart, dom, f, method="generic")
    assert np.max(np.abs(gen.K[inner] - want)) < 1e-12


def test_equidistant_slice_interval():
    chart = HyperbolicChart(n=1, offset=D)
    dom = GridDomain.interval(-1.0, 1.0, 32)
    asm = assemble_curvature(chart, dom, np.zeros(dom.num_nodes))
    assert np.max(np.abs(asm.K[dom.interior] - np.tanh(D))) < 1e-14


@pytest.mark.parametrize("chart", [EuclideanChart(n=2), EpsilonChart(n=2, eps=0.1)])
def test_flat_slice_is_not_admissible(chart):
    dom = ball()
    asm = assemble_curvature(chart, dom, np.zeros(dom.num_nodes))
    # Psi vanishes on the zero slice of these charts, so M = 0: margin 0
    assert abs(asm.margin) < 1e-14
    assert not asm.admissible
    assert np.max(np.abs(asm.K[dom.interior])) < 1e-14


# ---- dual-route agreement ------------------------------------------------------


def _cases():
    dom2 = ball()
    s = dom2.coords[:, 0]
    dom1 = GridDomain.interval(-1.0, 1.0, 32)
    x = dom1.coords[:, 0]
    return [
        (HyperbolicChart(n=2, offset=D), dom2, safe_ball_field(dom2)),
        (EuclideanChart(n=2), dom2, 0.3 * (s**2 - 1.0)),
        (EpsilonChart(n=2, eps=0.1), dom2, 0.3 * (s**2 - 1.0)),
        (
            HyperbolicChart(n=1, offset=D),
            dom1,
            -0.1 * (1 - x**2) - 0.02 * np.sin(2 * x) * (1 - x**2),
        ),
    ]


@pytest.mark.parametrize(
    "chart,dom,f", _cases(), ids=["hyperbolic", "euclidean", "epsilon", "interval"]
)
def test_generic_route_matches_closed_forms(chart, dom, f):
    a = assemble_curvature(chart, dom, f, method="closed")
    b = assemble_curvature(chart, dom, f, method="generic")
    assert a.admissible
    inner = dom.interior
    assert np.max(np.abs(a.K[inner] - b.K[inner])) < 1e-12
    assert np.max(np.abs(a.psi[inner] - b.psi[inner])) < 1e-12
    # the generic route's own nodes: the interior without the ball's pole
    nodes = np.flatnonzero(inner)
    nodes = nodes[nodes != dom.pole] if dom.pole is not None else nodes
    p, _ = frame_quantities(chart, dom, f)
    for c, g in zip(closed_psi_Psi(chart, f, p), _generic_psi_Psi(chart, dom, f, p, nodes)):
        assert np.max(np.abs(c[nodes] - g)) < 1e-12


def test_unknown_method_rejected():
    chart = EuclideanChart(n=2)
    dom = ball(4, 16)
    with pytest.raises(OutOfRange):
        assemble_curvature(chart, dom, np.zeros(dom.num_nodes), method="magic")


# ---- flat-chart paraboloid closed path -----------------------------------------


def test_euclidean_paraboloid_curvature_closed_form():
    # f = a(s^2 - R^2): Hess f = 2a Id exactly (quadratic), Psi = 0, so
    # K = 2a / (1 + 4 a^2 s^2) with no discretization error anywhere
    a = 0.35
    chart = EuclideanChart(n=2)
    dom = ball(8, 32)
    s = dom.coords[:, 0]
    f = a * (s**2 - 1.0)
    asm = assemble_curvature(chart, dom, f)
    want = 2 * a / (1.0 + 4 * a * a * s**2)
    inner = dom.interior
    assert np.max(np.abs(asm.K[inner] - want[inner])) < 1e-13
    assert asm.margin == pytest.approx(2 * a, abs=1e-13)


# ---- conformal-representation cross-check ---------------------------------------


def test_conformal_representation_agrees_at_second_order():
    chart = HyperbolicChart(n=2, offset=D)

    def gap(nr, nphi):
        dom = GridDomain.ball(1.0, nr, nphi)
        f = safe_ball_field(dom)
        k1 = assemble_curvature(chart, dom, f).K
        k2 = conformal_graph_curvature(chart, dom, f)
        return np.max(np.abs((k1 - k2)[dom.interior]))

    g16 = gap(16, 64)
    g32 = gap(32, 128)
    assert g16 < 5e-5
    # both routes are second order; their O(h^2) disagreement quarters
    assert 3.0 < g16 / g32 < 5.0


def test_conformal_representation_agrees_at_second_order_on_an_interval():
    chart = HyperbolicChart(n=1, offset=D)

    def gap(cells):
        dom = GridDomain.interval(-1.0, 1.0, cells)
        x = dom.coords[:, 0]
        f = -0.05 * (1 - x**2) - 0.01 * x * (1 - x**2)
        k1 = assemble_curvature(chart, dom, f).K
        k2 = conformal_graph_curvature(chart, dom, f)
        return np.max(np.abs((k1 - k2)[dom.interior]))

    g32 = gap(32)
    g64 = gap(64)
    assert g32 < 2e-5
    assert 3.0 < g32 / g64 < 5.0


def test_conformal_representation_guards():
    dom = ball(4, 16)
    with pytest.raises(OutOfRange):
        conformal_graph_curvature(EuclideanChart(n=2), dom, np.zeros(dom.num_nodes))
    box = GridDomain.box(((0.0, 1.0), (0.0, 1.0)), (6, 6))
    with pytest.raises(OutOfRange):
        conformal_graph_curvature(
            HyperbolicChart(n=2, offset=D), box, np.zeros(box.num_nodes)
        )


# ---- ordering and admissibility helpers ------------------------------------------


def test_order_compare_outcomes():
    dom = ball(4, 16)
    f = safe_ball_field(dom)
    bump = np.where(dom.interior, 0.01, 0.0)
    assert order_compare(dom, f, f) == "equal"
    assert order_compare(dom, f - bump, f) == "less"
    assert order_compare(dom, f + bump, f) == "greater"
    mixed = f + bump * np.where(dom.coords[:, 0] > 0.5, 1.0, -1.0)
    assert order_compare(dom, mixed, f) == "incomparable"
    # boundary values never participate in the comparison
    g = f.copy()
    g[dom.boundary] = 5.0
    assert order_compare(dom, g, f) == "equal"


def test_require_admissible_raises_with_context():
    chart = EuclideanChart(n=2)
    dom = ball(4, 16)
    asm = assemble_curvature(chart, dom, np.zeros(dom.num_nodes))
    with pytest.raises(NonAdmissible, match="initial guess"):
        require_admissible(asm, "initial guess")
    good = assemble_curvature(chart, dom, 0.3 * (dom.coords[:, 0] ** 2 - 1.0))
    require_admissible(good)  # no raise


# ---- matrix helpers (property tests) ----------------------------------------------


sym2 = st.tuples(
    st.floats(-10, 10, allow_nan=False),
    st.floats(-10, 10, allow_nan=False),
    st.floats(-10, 10, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(sym2)
def test_sym_eig_bounds_matches_eigvalsh(abc):
    a, b, c = abc
    mat = np.array([[[a, b], [b, c]]])
    lo, hi = sym_eig_bounds(mat)
    ev = np.linalg.eigvalsh(mat[0])
    assert lo[0] == pytest.approx(ev[0], abs=1e-10)
    assert hi[0] == pytest.approx(ev[1], abs=1e-10)


@settings(max_examples=200, deadline=None)
@given(sym2)
def test_signed_root_det_sign_and_value(abc):
    a, b, c = abc
    mat = np.array([[[a, b], [b, c]]])
    det = a * c - b * b
    got = signed_root_det(mat)[0]
    assert got == pytest.approx(np.sign(det) * np.sqrt(abs(det)), rel=1e-12, abs=1e-12)


def test_signed_root_det_positive_on_spd():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((50, 2, 2))
    spd = g @ np.swapaxes(g, -1, -2) + 0.1 * np.eye(2)
    vals = signed_root_det(spd)
    assert np.all(vals > 0)
    assert np.allclose(vals, np.sqrt(np.linalg.det(spd)), rtol=1e-12)
    lo, _ = sym_eig_bounds(spd)
    assert np.all(lo > 0)


def test_scalar_case_trivially_consistent():
    mat = np.array([[[-2.5]], [[3.0]]])
    lo, hi = sym_eig_bounds(mat)
    assert np.array_equal(lo, hi)
    assert np.array_equal(lo, np.array([-2.5, 3.0]))
    assert np.array_equal(signed_root_det(mat), np.array([-2.5, 3.0]))
