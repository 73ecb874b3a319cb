"""Embedding-based curvature oracle: checks against closed-form geometry."""

import numpy as np
import pytest

from graphcurv.assembly import assemble_curvature
from graphcurv.charts import EpsilonChart, EuclideanChart, HyperbolicChart
from graphcurv.grids import GridDomain
from graphcurv.shape_oracle import _euclid_cross, _inner, curvature_oracle


def test_constant_slice_oracle_is_second_order():
    chart = HyperbolicChart(n=2, offset=0.5)
    want = np.tanh(0.5)

    def err(nr, nphi):
        dom = GridDomain.ball(1.0, nr, nphi)
        sd = curvature_oracle(chart, dom, np.zeros(dom.num_nodes))
        return np.max(np.abs(sd.K[dom.interior] - want))

    e8 = err(8, 32)
    e16 = err(16, 64)
    assert e8 < 5e-3
    assert 3.4 < e8 / e16 < 4.6


def test_euclidean_sphere_cap_principal_curvatures():
    # the graph of sqrt(3) - sqrt(4 - s^2) over the unit disk is a piece of a
    # radius-2 sphere: both principal curvatures are 1/2
    dom = GridDomain.ball(1.0, 16, 64)
    s = dom.coords[:, 0]
    f = np.sqrt(3.0) - np.sqrt(4.0 - s**2)
    sd = curvature_oracle(EuclideanChart(n=2), dom, f)
    inner = dom.interior
    assert np.max(np.abs(sd.lambdas[inner] - 0.5)) < 5e-3
    assert np.max(np.abs(sd.K[inner] - 0.5)) < 5e-3
    assert np.max(np.abs(sd.norm_A[inner] - 0.5)) < 5e-3
    # convex bowl: the normal fixed against the vertical points into t > 0
    assert np.all(sd.vert_align[inner] > 0.5)


def test_oracle_agrees_with_assembly_at_second_order():
    chart = HyperbolicChart(n=2, offset=0.5)

    def gap(nr, nphi):
        dom = GridDomain.ball(1.0, nr, nphi)
        sph, phi = dom.coords[:, 0], dom.coords[:, 1]
        f = -0.05 * (1 - sph**2) - 0.008 * sph**3 * np.cos(3 * phi) * (1 - sph**2)
        asm = assemble_curvature(chart, dom, f)
        sd = curvature_oracle(chart, dom, f)
        return np.max(np.abs((asm.K - sd.K)[dom.interior]))

    g8 = gap(8, 32)
    g16 = gap(16, 64)
    assert g8 < 5e-3
    assert 3.2 < g8 / g16 < 4.8


def test_epsilon_zero_slice_is_totally_geodesic():
    dom = GridDomain.ball(1.0, 8, 32)
    sd = curvature_oracle(EpsilonChart(n=2, eps=0.1), dom, np.zeros(dom.num_nodes))
    # the zero slice of the epsilon family is totally geodesic, and the
    # embedded stencil contractions vanish identically, not just to O(h^2)
    assert np.max(np.abs(sd.norm_A[dom.interior])) < 1e-12
    assert np.max(np.abs(sd.K[dom.interior])) < 1e-12


def test_oracle_boundary_rows_are_zero():
    chart = HyperbolicChart(n=2, offset=0.5)
    dom = GridDomain.ball(1.0, 8, 32)
    s = dom.coords[:, 0]
    sd = curvature_oracle(chart, dom, 0.1 * (s**2 - 1.0))
    bdy = dom.boundary
    assert np.all(sd.K[bdy] == 0.0)
    assert np.all(sd.norm_A[bdy] == 0.0)
    assert np.all(sd.lambdas[bdy] == 0.0)
    assert np.all(sd.g[bdy] == 0.0)
    assert np.all(sd.A[bdy] == 0.0)


def test_oracle_interval_case():
    chart = HyperbolicChart(n=1, offset=0.5)
    dom = GridDomain.interval(-1.0, 1.0, 64)
    sd = curvature_oracle(chart, dom, np.zeros(dom.num_nodes))
    assert np.max(np.abs(sd.K[dom.interior] - np.tanh(0.5))) < 1e-3


def _cross_by_minors(rows):
    """(-1)^l det(rows without column l), by LU determinants."""
    cols = np.arange(4)
    return np.stack(
        [(-1.0) ** l * np.linalg.det(rows[..., :, cols != l]) for l in range(4)],
        axis=-1,
    )


def test_minkowski_normal_matches_the_determinants_of_minors():
    rows = np.random.default_rng(7).standard_normal((2000, 3, 4))
    got = _euclid_cross(rows)
    want = _cross_by_minors(rows)
    scale = np.prod(np.linalg.norm(rows, axis=-1), axis=-1)
    assert np.max(np.abs(got - want) / scale[:, None]) <= 1e-13


@pytest.mark.parametrize("m", [2, 3, 4])
def test_euclid_cross_is_orthogonal_to_its_rows(m):
    rows = np.random.default_rng(m).standard_normal((500, m - 1, m))
    nu = _euclid_cross(rows)
    scale = np.prod(np.linalg.norm(rows, axis=-1), axis=-1)[:, None]
    assert np.max(np.abs(np.einsum("xkm,xm->xk", rows, nu)) / scale) <= 1e-14
    # with the time component negated, Minkowski-orthogonal instead
    mink = nu * np.where(np.arange(m) == 0, -1.0, 1.0)
    assert np.max(np.abs(_inner(rows, mink[:, None, :], True)) / scale) <= 1e-14


# ---- the flat component sums against the stacked einsum forms -----------------


def ref_curvature_oracle(chart, domain, f):
    """The oracle's interior fields from (N, n, n, m) stacks of partials and
    einsums, with the normal from LU determinants of minors (orientation
    fixed against the vertical as the oracle fixes it).  The partials are
    the oracle's own slot products: near the pole a change of their summation
    order moves K by more than the bound below, which checks what is formed
    from them."""
    mink = chart.minkowski
    X = chart.embed(domain.coords, f, domain.layout)
    st, d1, d2 = domain.derivative_ops()
    n = domain.n
    num, m = X.shape
    eta = np.where(np.arange(m) == 0, -1.0, 1.0) if mink else np.ones(m)
    Xa = np.stack([st.apply(d1[a], X) for a in range(n)], axis=1)
    Xab = np.zeros((num, n, n, m))
    for (a, b), op in d2.items():
        Xab[:, a, b] = Xab[:, b, a] = st.apply(op, X)
    g = np.einsum("xam,xbm,m->xab", Xa, Xa, eta)
    rows = np.concatenate([X[:, None, :], Xa], axis=1) if mink else Xa
    cols = np.arange(m)
    nu = np.stack(
        [(-1.0) ** l * np.linalg.det(rows[..., cols != l]) for l in range(m)], axis=-1
    ) * eta
    nn = np.einsum("xm,xm,m->x", nu, nu, eta)
    nu = nu / np.sqrt(np.where(nn > 0, nn, 1.0))[:, None]
    align = np.einsum("xm,xm,m->x", nu, chart.vertical(domain.coords, f, domain.layout), eta)
    flip = np.where(align < 0.0, -1.0, 1.0)
    nu, align = nu * flip[:, None], align * flip
    A = np.einsum("xabm,xm,m->xab", Xab, nu, eta)
    inner = domain.interior
    g, A, nu, align = g[inner], A[inner], nu[inner], align[inner]
    if n == 1:
        lam = A[:, 0, 0] / g[:, 0, 0]
        lambdas, K = lam[:, None], lam
    else:
        a = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] ** 2
        b = A[:, 0, 0] * g[:, 1, 1] + A[:, 1, 1] * g[:, 0, 0] - 2.0 * A[:, 0, 1] * g[:, 0, 1]
        c = A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] ** 2
        root = np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0))
        lambdas = np.stack([(b - root) / (2.0 * a), (b + root) / (2.0 * a)], axis=-1)
        K = np.sign(c / a) * np.sqrt(np.abs(c / a))
    return {
        "g": g, "A": A, "normal": nu, "vert_align": align, "K": K, "lambdas": lambdas,
        "norm_A": np.max(np.abs(lambdas), axis=-1),
    }


def _wiggled_bowl(dom):
    s = dom.coords[:, 0]
    if dom.n == 1:
        return -0.05 * (1 - s**2) - 0.01 * s**3
    phi = dom.coords[:, 1]
    return -0.05 * (1 - s**2) - 0.008 * s**3 * np.cos(3 * phi) * (1 - s**2)


@pytest.mark.parametrize("chart", [
    HyperbolicChart(n=2, offset=0.5), EuclideanChart(n=2), EpsilonChart(n=2, eps=0.1),
    HyperbolicChart(n=1, offset=0.5), EuclideanChart(n=1),
], ids=lambda c: c.chart_id())
def test_flat_oracle_matches_the_einsum_stacks(chart):
    dom = (GridDomain.ball(1.0, 16, 64) if chart.n == 2
           else GridDomain.interval(-1.0, 1.0, 64))
    sd = curvature_oracle(chart, dom, _wiggled_bowl(dom))
    inner = dom.interior
    for name, want in ref_curvature_oracle(chart, dom, _wiggled_bowl(dom)).items():
        got = getattr(sd, name)[inner]
        assert got.shape == want.shape, name
        # the discriminant of the principal curvatures cancels at
        # near-umbilic nodes, so they get the looser bound
        rtol = 1e-9 if name in ("lambdas", "norm_A") else 1e-13
        assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want)), name
    assert sd.g.shape == (dom.num_nodes, dom.n, dom.n) == sd.A.shape
    assert sd.normal.shape == (dom.num_nodes, dom.n + (2 if chart.minkowski else 1))
