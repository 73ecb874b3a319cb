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
