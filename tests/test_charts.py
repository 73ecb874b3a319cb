import numpy as np
import pytest

from graphcurv.charts import (
    EpsilonChart,
    EuclideanChart,
    HyperbolicChart,
    alpha_of_theta,
    equidistant_curvature,
    theta_of_alpha,
)
from graphcurv.errors import OutOfChart

D = 0.5
CHARTS = [
    EuclideanChart(n=2),
    HyperbolicChart(n=2, offset=D),
    EpsilonChart(n=2, eps=0.1, normalized=True),
]


def test_warp_closed_forms():
    eu, hy, ep = CHARTS
    c, cp, cpp = eu.warp(0.37)
    assert c == 1.0 and cp == 0.0 and cpp == 0.0
    c, cp, cpp = hy.warp(0.0)
    assert c == pytest.approx(np.cosh(D), rel=1e-15)
    assert cp == pytest.approx(-np.sinh(D), rel=1e-15)
    assert cpp == pytest.approx(np.cosh(D), rel=1e-15)
    c, cp, cpp = ep.warp(0.0)
    assert c == 1.0 and cp == 0.0
    assert cpp == pytest.approx(0.01, rel=1e-15)  # eps^2 * cosh(0)


def test_base_shape_coefficients():
    eu, hy, ep = CHARTS
    assert eu.base_hypersurface().a0 == 0.0
    assert ep.base_hypersurface().a0 == 0.0
    bh = hy.base_hypersurface()
    assert bh.a0 == pytest.approx(np.tanh(D), rel=1e-15)
    assert bh.phi0 == bh.a0


def test_constant_slice_curvature_is_equidistant_curvature():
    hy = HyperbolicChart(n=2, offset=D)
    for fbar in (-0.3, -0.1, 0.0, 0.2):
        # slice at height fbar sits at distance D - fbar from the mirror slice
        assert hy.constant_slice_curvature(fbar) == pytest.approx(
            equidistant_curvature(D - fbar), rel=1e-14
        )


def test_conformal_angle_roundtrip():
    alpha = np.linspace(-2.0, 2.0, 41)
    back = alpha_of_theta(theta_of_alpha(alpha))
    assert np.max(np.abs(back - alpha)) < 1e-12
    with pytest.raises(OutOfChart):
        alpha_of_theta(1.6)


def test_vertical_is_unit():
    base_polar = np.array([[0.3, 0.7], [0.9, 2.0], [0.0, 0.0]])
    for chart in CHARTS:
        v = chart.vertical(base_polar, np.array([-0.2, 0.1, 0.0]), "polar")
        sq = np.sum(v**2, axis=-1)
        if chart.minkowski:
            sq = sq - 2.0 * v[..., 0] ** 2
        assert np.max(np.abs(sq - 1.0)) < 1e-12


@pytest.mark.parametrize("chart", CHARTS, ids=lambda c: c.chart_id().split(":")[0])
def test_graph_metric_matches_warped_product(chart):
    """Graph-coordinate metric must be diag(rho^2, rho^2 W^2, 1) in grid order."""
    s = np.array([0.2, 0.55, 0.9])
    phi = np.array([0.1, 2.2, 4.0])
    t = np.array([-0.15, -0.02, 0.1])
    base = np.stack([s, phi], axis=-1)
    g = chart.graph_metric_at(base, t, "polar")
    c, _, _ = chart.warp(t)
    rho2 = (c / chart.c0) ** 2
    w, _ = chart.base_warp(s)
    expect = np.zeros((3, 3, 3))
    expect[:, 0, 0] = rho2
    expect[:, 1, 1] = rho2 * w**2
    expect[:, 2, 2] = 1.0
    assert np.max(np.abs(g - expect)) < 1e-12


def test_graph_connection_vertical_component():
    """Omega(d_t, d_i) = (c'/c) d_i and Omega(d_s, d_s) -> -cc'/c0^2 d_t."""
    hy = HyperbolicChart(n=2, offset=D)
    base = np.array([[0.4, 1.0]])
    t = np.array([-0.1])
    om = hy.graph_connection_form_at(base, t, "polar")[0]
    c, cp, _ = hy.warp(-0.1)
    assert om[2, 0, 0] == pytest.approx(-c * cp / hy.c0**2, rel=1e-13)
    w, _ = hy.base_warp(0.4)
    assert om[2, 1, 1] == pytest.approx(-c * cp * w**2 / hy.c0**2, rel=1e-13)
    assert om[0, 0, 2] == pytest.approx(cp / c, rel=1e-13)
    assert om[0, 2, 0] == pytest.approx(cp / c, rel=1e-13)
    assert om[1, 1, 2] == pytest.approx(cp / c, rel=1e-13)
    # no purely horizontal mixing
    assert abs(om[0, 1, 1]) < 1e-14
    assert abs(om[1, 0, 1]) < 1e-14


def test_metric_at_is_spd():
    rng = np.random.default_rng(3)
    for chart in CHARTS:
        pts = np.stack(
            [0.1 + 0.8 * rng.random(8), 6.0 * rng.random(8), 0.3 * rng.random(8) - 0.15],
            axis=-1,
        )
        if chart.chart_id().startswith("hyperbolic"):
            # conformal chart: vertical coordinate is the angle, keep it small
            pts[:, 2] *= 0.5
        g = chart.metric_at(chart.graph_coords(pts[:, :2], pts[:, 2], "polar"))
        eig = np.linalg.eigvalsh(g)
        assert np.min(eig) > 0


def test_frame_coefficients_layouts():
    eu = EuclideanChart(n=2)
    s = np.array([[0.5, 1.0], [1.0, 2.0]])
    kappa = eu.frame_coefficients(s, "polar")
    assert kappa[0, 0] == 1.0
    assert kappa[0, 1] == pytest.approx(1.0 / 0.5)
    assert kappa[1, 1] == pytest.approx(1.0 / 1.0)
    hy1 = HyperbolicChart(n=1, offset=D)
    kap = hy1.frame_coefficients(np.array([[0.3]]), "interval")
    assert kap.shape == (1, 1) and kap[0, 0] == 1.0


def test_base_distance_basic_properties():
    hy = HyperbolicChart(n=2, offset=D)
    a = np.array([[0.3, 0.2]])
    b = np.array([[0.7, 0.2]])
    # radial separation along the same ray is the coordinate difference
    assert hy.base_distance(a, b, "polar")[0] == pytest.approx(0.4, rel=1e-12)
    # arccosh near 1 only resolves sqrt(eps); coincident points read as ~1e-8
    assert hy.base_distance(a, a, "polar")[0] == pytest.approx(0.0, abs=1e-7)
    ab = hy.base_distance(a, b, "polar")
    ba = hy.base_distance(b, a, "polar")
    assert ab[0] == pytest.approx(ba[0], rel=1e-13)
