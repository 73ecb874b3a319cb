"""Flat per-component kernels against the (N, n, n) matrix formulas they replace.

The assembly and the DK coefficients are computed one flat (N,) entry at a
time.  The reference copies below are the broadcast formulas those kernels
replaced; every output must match them byte for byte (signed zeros
included), and the Krylov path must return the minimum-residual solution
over its right-preconditioned Krylov space.
"""

import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from graphcurv.assembly import (
    _raw_partials,
    assemble_curvature,
    closed_psi_Psi,
    frame_quantities,
    signed_root_det,
    sym_eig_bounds,
)
from graphcurv.charts import EpsilonChart, EuclideanChart, HyperbolicChart
from graphcurv.grids import GridDomain
from graphcurv.linearize import (
    HeldLU,
    _derivative_coefficients,
    _operator,
    build_DK,
)

# ---- reference copies of the broadcast formulas -----------------------------


def ref_sym_inverse(mat):
    n = mat.shape[-1]
    if n == 1:
        return 1.0 / mat
    inv_det = 1.0 / (mat[..., 0, 0] * mat[..., 1, 1] - mat[..., 0, 1] ** 2)
    out = np.empty_like(mat)
    out[..., 0, 0] = mat[..., 1, 1] * inv_det
    out[..., 1, 1] = mat[..., 0, 0] * inv_det
    out[..., 0, 1] = out[..., 1, 0] = -mat[..., 0, 1] * inv_det
    return out


def ref_frame_quantities(chart, domain, f):
    d1, d2 = _raw_partials(domain, f)
    if domain.n == 1:
        return d1[0][:, None], d2[(0, 0)][:, None, None]
    if domain.layout == "cartesian":
        p = np.stack(d1, axis=-1)
        hess = np.stack(
            [np.stack([d2[(0, 0)], d2[(0, 1)]], -1), np.stack([d2[(0, 1)], d2[(1, 1)]], -1)],
            axis=-2,
        )
        return p, hess
    s = domain.coords[:, 0]
    w, wp = chart.base_warp(s)
    radial = s > 0
    wf = np.where(radial, w, 1.0)
    wpf = np.where(radial, wp, 0.0)
    p = np.stack([d1[0], d1[1] / wf], axis=-1)
    h00 = d2[(0, 0)]
    h01 = (d2[(0, 1)] - (wpf / wf) * d1[1]) / wf
    h11 = d2[(1, 1)] / wf**2 + (wpf / wf) * d1[0]
    hess = np.stack([np.stack([h00, h01], -1), np.stack([h01, h11], -1)], axis=-2)
    return p, hess


def ref_closed_psi_Psi(chart, f, p):
    n = p.shape[-1]
    c, cp, _ = chart.warp(f)
    c0 = chart.c0
    rho = c / c0
    q = np.sum(p * p, axis=-1)
    psi = rho ** ((n - 2.0) / n) * (rho**2 + q) ** ((n + 2.0) / (2.0 * n))
    sigma = -(c * cp) / c0**2
    tau = -2.0 * cp / c
    Psi = sigma[..., None, None] * np.eye(n) + tau[..., None, None] * (
        p[..., :, None] * p[..., None, :]
    )
    return psi, Psi


def ref_assembly(chart, domain, f):
    p, hess = ref_frame_quantities(chart, domain, f)
    psi, Psi = ref_closed_psi_Psi(chart, f, p)
    M = hess + Psi
    lam_min, _ = sym_eig_bounds(M)
    K = signed_root_det(M) / psi
    outside = ~domain.interior
    for arr in (p, M):
        arr[outside] = 0.0
    return {
        "grad": p, "M": M,
        "psi": np.where(outside, 1.0, psi),
        "K": np.where(outside, 0.0, K),
        "lambda_min": np.where(outside, 0.0, lam_min),
    }


def ref_derivative_coefficients(chart, domain, assembly):
    n = domain.n
    idx = np.flatnonzero(domain.interior)
    K = assembly.K[idx]
    psi = assembly.psi[idx]
    p = assembly.grad[idx]
    Minv = ref_sym_inverse(assembly.M[idx])
    c, cp, cpp = chart.warp(assembly.f[idx])
    c0 = chart.c0
    rho = c / c0
    rho_t = cp / c0
    q = np.sum(p * p, axis=-1)
    sig_t = -(cp * cp + c * cpp) / c0**2
    tau = -2.0 * cp / c
    tau_t = -2.0 * (cpp / c - (cp / c) ** 2)
    denom = rho * rho + q
    dtpsi = psi * ((n - 2.0) * rho_t / (n * rho) + (n + 2.0) * rho * rho_t / (n * denom))
    dppsi = psi[..., None] * (n + 2.0) * p / (n * denom[..., None])
    Minv_p = np.einsum("xab,xb->xa", Minv, p)
    c2_i = (K / n)[:, None, None] * Minv
    drift_i = (2.0 * K * tau / n)[:, None] * Minv_p
    tr_Minv = np.trace(Minv, axis1=1, axis2=2)
    c0_i = (K / n) * (sig_t * tr_Minv + tau_t * np.sum(p * Minv_p, axis=-1))
    drift_i = drift_i - (K / psi)[:, None] * dppsi
    c0_i = c0_i - K * dtpsi / psi
    N = domain.num_nodes
    c2 = np.zeros((N, n, n))
    drift = np.zeros((N, n))
    zeroth = np.zeros(N)
    c2[idx] = c2_i
    drift[idx] = drift_i
    zeroth[idx] = c0_i
    return c2, drift, zeroth


# ---- cases --------------------------------------------------------------------

DOMAINS = {
    "ball": lambda: GridDomain.ball(1.0, 8, 32),
    "annulus": lambda: GridDomain.annulus(0.5, 1.0, 8, 32),
    "box": lambda: GridDomain.box(((-1.0, 1.0), (-1.0, 1.0)), (13, 13)),
    "periodic": lambda: GridDomain.box(((-1.0, 1.0), (0.0, 2.0)), (13, 16), (False, True)),
    "interval": lambda: GridDomain.interval(-1.0, 1.0, 32),
}

CHARTS = {
    "hyperbolic": lambda n: HyperbolicChart(n=n, offset=0.5),
    "euclidean": lambda n: EuclideanChart(n=n),
    "epsilon": lambda n: EpsilonChart(n=n, eps=0.1),
}


def plane_xy(dom):
    c = dom.coords
    if dom.layout == "polar":
        return c[:, 0] * np.cos(c[:, 1]), c[:, 0] * np.sin(c[:, 1])
    if dom.layout == "cartesian":
        return c[:, 0], c[:, 1]
    return c[:, 0], np.zeros(dom.num_nodes)


def fields(dom):
    """A symmetric convex bowl (exact zeros in its gradient) and a wiggled one.

    On the y-periodic box the bowl is in x alone and the wiggle has period 2
    in y.
    """
    x, y = plane_xy(dom)
    if any(dom.periodic):
        return [0.3 * (x**2 - 2.0), 0.3 * (x**2 - 2.0) + 0.02 * np.sin(2 * x) * np.cos(np.pi * y)]
    bowl = 0.3 * (x**2 + y**2 - 2.0)
    return [bowl, bowl + 0.02 * np.sin(2 * x + 0.3) * np.cos(3 * y + 0.2)]


def bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


CASES = [(d, c) for d in sorted(DOMAINS) for c in sorted(CHARTS)]


@pytest.mark.parametrize("domain_kind,chart_kind", CASES)
def test_flat_kernels_match_the_matrix_formulas_bitwise(domain_kind, chart_kind):
    dom = DOMAINS[domain_kind]()
    chart = CHARTS[chart_kind](dom.n)
    for f in fields(dom):
        p, hess = frame_quantities(chart, dom, f)
        ref_p, ref_hess = ref_frame_quantities(chart, dom, f)
        assert bitwise_equal(p, ref_p) and bitwise_equal(hess, ref_hess)
        for got, want in zip(closed_psi_Psi(chart, f, p), ref_closed_psi_Psi(chart, f, p)):
            assert bitwise_equal(got, want)
        asm = assemble_curvature(chart, dom, f)
        for name, want in ref_assembly(chart, dom, f).items():
            assert bitwise_equal(getattr(asm, name), want), name
        if not asm.admissible:
            # flat in y, so only the hyperbolic chart's Psi makes M definite
            assert any(dom.periodic) and chart_kind != "hyperbolic"
            continue
        op = build_DK(chart, dom, f, assembly=asm)
        coefs = ref_derivative_coefficients(chart, dom, asm)
        for got, want in zip((op.second_order, op.drift, op.zeroth), coefs):
            assert bitwise_equal(got, want)
        want = _operator(chart, dom, *coefs).matrix
        for part in ("data", "indices", "indptr"):
            assert bitwise_equal(getattr(op.matrix, part), getattr(want, part))


@pytest.mark.parametrize("domain_kind,chart_kind", CASES)
def test_dk_coefficients_raise_no_floating_point_warnings(domain_kind, chart_kind):
    # boundary rows hold M = 0, so their expressions are inf or nan until
    # they are zeroed; interior rows of an admissible point are finite
    dom = DOMAINS[domain_kind]()
    chart = CHARTS[chart_kind](dom.n)
    for f in fields(dom):
        asm = assemble_curvature(chart, dom, f)
        if not asm.admissible:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coefs = _derivative_coefficients(chart, dom, asm)
        for coef in coefs:
            assert np.all(coef[dom.boundary] == 0.0)


def test_flat_coefficients_keep_the_signed_zeros_of_the_reductions():
    # a gradient of -0.0 makes every product in M^(-1) p a signed zero,
    # where the reductions of the matrix formulas return +0.0
    dom = DOMAINS["ball"]()
    chart = CHARTS["hyperbolic"](2)
    asm = assemble_curvature(chart, dom, fields(dom)[1])
    asm.grad[::3] = -0.0
    got = _derivative_coefficients(chart, dom, asm)
    want = ref_derivative_coefficients(chart, dom, asm)
    for g, w in zip(got, want):
        assert bitwise_equal(g, w)


# ---- the Krylov path -------------------------------------------------------------


def assert_one_application_per_iteration_plus_one(dom, preconditioner, rhs, bowl):
    """A Krylov call on ``dom`` that ends within one restart cycle applies
    ``preconditioner(held)`` 1 + k times and returns the minimum-residual
    solution over the right-preconditioned Krylov space of dimension k."""
    chart = HyperbolicChart(n=2, offset=0.5)
    held = HeldLU()
    build_DK(chart, dom, 0.9 * bowl).solve(rhs, held=held)
    op = build_DK(chart, dom, bowl)
    precond = preconditioner(held)
    products = []  # one per iteration, and one for the true residual
    matrix = spla.LinearOperator(
        op.matrix.shape, matvec=lambda v: products.append(1) or op.matrix @ v, dtype=float
    )
    before = dict(held.counters())
    got = held._krylov(matrix, rhs)
    iterations = held.krylov_iterations - before["krylov_iterations"]
    assert 0 < iterations < HeldLU.RESTART
    assert len(products) == iterations + 1  # one restart cycle
    assert held.trisolves - before["trisolves"] == 1 + iterations
    # reference: x = M^-1 K c with K = [b, A M^-1 b, ...] and c the dense
    # least-squares fit of b by A M^-1 K
    basis = [rhs / np.linalg.norm(rhs)]
    for _ in range(iterations - 1):
        v = op.matrix @ precond.solve(basis[-1])
        basis.append(v / np.linalg.norm(v))
    K = np.array(basis).T
    AMK = np.array([op.matrix @ precond.solve(v) for v in basis]).T
    c = np.linalg.lstsq(AMK, rhs, rcond=None)[0]
    want = precond.solve(K @ c)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
    assert np.linalg.norm(rhs - op.matrix @ got) <= HeldLU.RTOL * np.linalg.norm(rhs)


def test_krylov_call_applies_the_factors_once_per_iteration_plus_one(monkeypatch):
    # the held LU preconditions solves on Cartesian grids
    dom = DOMAINS["box"]()
    rhs = np.where(dom.interior, np.sin(3 * dom.coords[:, 0]) + 0.2, 0.0)
    assert_one_application_per_iteration_plus_one(dom, lambda held: held.lu, rhs,
                                                  fields(dom)[1])


def test_krylov_call_applies_the_ring_average_once_per_iteration_plus_one():
    dom = DOMAINS["ball"]()
    rhs = np.where(dom.interior, np.random.default_rng(3).standard_normal(dom.num_nodes), 0.0)
    assert_one_application_per_iteration_plus_one(dom, lambda held: held.ring, rhs,
                                                  fields(dom)[0])
