"""Linearized curvature operators: coefficients, Gateaux check, comparison op."""

import types

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from graphcurv.assembly import assemble_curvature, frame_quantities
from graphcurv.charts import EpsilonChart, EuclideanChart, HyperbolicChart
from graphcurv.errors import (
    NonAdmissible,
    SingularLinearSystem,
    SingularShapeOperator,
)
from graphcurv.grids import GridDomain
from graphcurv.linearize import (
    EllipticOperator,
    HeldLU,
    _operator,
    _PermutedLU,
    _refined,
    _RingAverage,
    build_DK,
    build_JK,
    frame_operators,
    measured_normal_curvature,
    stability_check,
)

D = 0.5


def ball(nr=8, nphi=32):
    return GridDomain.ball(1.0, nr, nphi)


def box(m=13):
    return GridDomain.box(((-1.0, 1.0), (-1.0, 1.0)), (m, m))


def box_field(dom):
    """The box's analogue of ``safe_field``: a shallow bowl with an odd wiggle."""
    x, y = dom.coords[:, 0], dom.coords[:, 1]
    return -0.05 * (1 - x**2) * (1 - y**2) - 0.008 * x**3 * (1 - x**2) * (1 - y**2)


def safe_field(dom):
    s, phi = dom.coords[:, 0], dom.coords[:, 1]
    return -0.05 * (1 - s**2) - 0.008 * s**3 * np.cos(3 * phi) * (1 - s**2)


def smooth_direction(dom):
    s, phi = dom.coords[:, 0], dom.coords[:, 1]
    return np.sin(2 * s) * (1 - s**2) * (0.5 + s**2 * np.cos(2 * phi))


# ---- coefficient identities ---------------------------------------------------


def test_weight_matrix_requires_admissible_point():
    chart = EuclideanChart(n=2)
    dom = ball(4, 16)
    with pytest.raises(NonAdmissible):
        build_DK(chart, dom, np.zeros(dom.num_nodes))


def test_frame_operators_reproduce_frame_quantities():
    chart = HyperbolicChart(n=2, offset=D)
    dom = ball()
    f = safe_field(dom)
    P, H = frame_operators(chart, dom)
    p, hess = frame_quantities(chart, dom, f)
    idx = np.flatnonzero(dom.interior)
    for a in range(2):
        assert np.max(np.abs((P[a] @ f - p[:, a])[idx])) < 1e-13
        for b in range(a, 2):
            assert np.max(np.abs((H[(a, b)] @ f - hess[:, a, b])[idx])) < 1e-13


# ---- Gateaux derivative cross-check ---------------------------------------------


@pytest.mark.parametrize(
    "chart",
    [HyperbolicChart(n=2, offset=D), EuclideanChart(n=2), EpsilonChart(n=2, eps=0.1)],
    ids=["hyperbolic", "euclidean", "epsilon"],
)
def test_gateaux_derivative_matches_central_difference(chart):
    dom = ball(8, 32)
    s = dom.coords[:, 0]
    if isinstance(chart, HyperbolicChart):
        f = safe_field(dom)
    else:
        f = 0.3 * (s**2 - 1.0)
    v = smooth_direction(dom)
    op = build_DK(chart, dom, f)
    got = op.apply(v)
    eps = 1e-5
    kp = assemble_curvature(chart, dom, f + eps * v).K
    km = assemble_curvature(chart, dom, f - eps * v).K
    fd = (kp - km) / (2 * eps)
    idx = dom.interior
    scale = np.max(np.abs(fd[idx]))
    assert np.max(np.abs(got[idx] - fd[idx])) / scale < 1e-6


def test_operator_rows_vanish_on_boundary():
    chart = HyperbolicChart(n=2, offset=D)
    dom = ball()
    op = build_DK(chart, dom, safe_field(dom))
    v = np.ones(dom.num_nodes)
    # identity rows at the boundary: (A v)|_bdy = v|_bdy
    assert np.allclose(op.apply(v)[dom.boundary], 1.0)


# ---- comparison operator ---------------------------------------------------------


def test_measured_normal_curvature_is_minus_ambient_kappa():
    dom = ball()
    W_h = measured_normal_curvature(HyperbolicChart(n=2, offset=D), dom)
    assert np.max(np.abs(W_h - np.eye(2))) < 5e-6  # kappa = -1
    W_e = measured_normal_curvature(EuclideanChart(n=2), dom)
    assert np.max(np.abs(W_e)) < 5e-6  # kappa = 0
    W_eps = measured_normal_curvature(EpsilonChart(n=2, eps=0.1), dom)
    assert np.max(np.abs(W_eps - 0.01 * np.eye(2))) < 5e-6  # kappa = -eps^2


def test_comparison_operator_zeroth_coefficient():
    chart = HyperbolicChart(n=2, offset=D)
    dom = ball()
    jk = build_JK(chart.base_hypersurface(), dom)
    # h = tr(A0^-1 W) - tr(A0) = n (coth D - tanh D) for the offset slice
    want = 2 * (1.0 / np.tanh(D) - np.tanh(D))
    h = jk.zeroth[dom.interior]
    assert np.allclose(h, h[0])
    assert h[0] == pytest.approx(want, abs=1e-4)
    assert h[0] >= 0.0
    assert jk.normal_curvature is not None


def test_comparison_coefficient_positive_and_decreasing_in_offset():
    dom = ball(4, 16)
    vals = []
    for off in (0.3, 0.8, 1.5, 3.0):
        jk = build_JK(HyperbolicChart(n=2, offset=off).base_hypersurface(), dom)
        vals.append(jk.zeroth[dom.interior][0])
    assert all(v >= 0.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_comparison_operator_rejects_geodesic_slice():
    dom = ball(4, 16)
    with pytest.raises(SingularShapeOperator):
        build_JK(EuclideanChart(n=2).base_hypersurface(), dom)


def test_linearization_at_zero_is_scaled_comparison_operator():
    chart = HyperbolicChart(n=2, offset=D)
    dom = ball()
    dk = build_DK(chart, dom, np.zeros(dom.num_nodes))
    jk = build_JK(chart.base_hypersurface(), dom)
    a0 = np.tanh(D)
    gap = dk.matrix + (a0 / 2.0) * jk.matrix
    inner = np.flatnonzero(dom.interior)
    # boundary rows are identity in both, so compare interior rows only
    dense = np.abs(gap.toarray()[inner])
    assert dense.max() < 1e-5


# ---- inverse-negativity and linear algebra ----------------------------------------


def test_stability_witness_is_negative():
    chart = HyperbolicChart(n=2, offset=D)
    dom = ball()
    res = stability_check(chart, dom, np.zeros(dom.num_nodes))
    assert res["stable"]
    w = res["witness"]
    assert np.all(w[dom.interior] < 0.0)
    assert np.all(w[dom.boundary] == 0.0)


def test_stability_check_reuses_a_given_assembly_bitwise():
    chart = HyperbolicChart(n=2, offset=D)
    dom = ball()
    f = safe_field(dom)
    asm = assemble_curvature(chart, dom, f)
    fresh = stability_check(chart, dom, f)
    shared = stability_check(chart, dom, f, assembly=asm)
    assert shared["stable"] == fresh["stable"]
    assert shared["witness"].tobytes() == fresh["witness"].tobytes()


def test_stability_check_factors_without_the_grid_caches(monkeypatch):
    # the LU is the probe's memory peak; when it starts, the domain's cached
    # operators and DK's coefficients are released
    import tracemalloc

    real = spla.splu
    at_entry = []

    def spy(*args, **kwargs):
        at_entry.append(tracemalloc.get_traced_memory()[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    tracemalloc.start()
    try:
        dom = box(129)  # the LU runs on Cartesian grids
        f = np.zeros(dom.num_nodes)
        start = tracemalloc.get_traced_memory()[0]
        res = stability_check(HyperbolicChart(n=2, offset=D), dom, f)
    finally:
        tracemalloc.stop()
    assert res["stable"] and len(at_entry) == 1
    # left: the matrix and its permuted CSC copy (about 9 entries a row at
    # 12 bytes, twice), the order and two right-hand sides, about 246 bytes
    # a node; DK's coefficients would add 56, the grid caches about 540
    assert at_entry[0] - start < 275 * dom.num_nodes
    assert set(dom._frame_cache) == {"dissection_order"}


def test_stability_check_without_caches_matches_the_cached_probe_bitwise():
    chart = HyperbolicChart(n=2, offset=D)
    dom = ball(16, 64)
    f = safe_field(dom)
    rhs = np.where(dom.interior, 1.0, 0.0)
    want = build_DK(chart, dom, f).solve(rhs)  # the operators stay cached
    assert "derivative_ops" in dom._frame_cache
    assert np.all(want[dom.interior] < 0.0)
    for _ in range(2):  # with the caches, then rebuilt after the first drop
        res = stability_check(chart, dom, f)
        assert res["stable"]
        assert res["witness"].tobytes() == want.tobytes()
        assert "derivative_ops" not in dom._frame_cache


def test_solve_enforces_exact_dirichlet_zero():
    chart = HyperbolicChart(n=2, offset=D)
    dom = ball()
    op = build_DK(chart, dom, safe_field(dom))
    rhs = np.sin(3 * dom.coords[:, 0]) + 0.2
    w = op.solve(rhs)
    assert np.all(w[dom.boundary] == 0.0)
    # residual of the solve on the interior
    r = op.apply(w) - np.where(dom.interior, rhs, 0.0)
    assert np.max(np.abs(r[dom.interior])) < 1e-10


def test_singular_system_is_reported():
    chart = HyperbolicChart(n=2, offset=D)
    dom = ball(4, 16)
    op = build_DK(chart, dom, np.zeros(dom.num_nodes))
    k = dom.node_index(2, 3)
    mat = op.matrix.tolil()
    mat[k, :] = 0.0  # knock out one row entirely
    op.matrix = mat.tocsr()
    with pytest.raises(SingularLinearSystem):
        op.solve(np.ones(dom.num_nodes))


# ---- held factorization ----------------------------------------------------------


def test_held_lu_preconditions_a_neighbouring_operator():
    chart = HyperbolicChart(n=2, offset=D)
    dom = box()
    held = HeldLU()
    rhs = np.sin(3 * dom.coords[:, 0]) + 0.2
    build_DK(chart, dom, np.zeros(dom.num_nodes)).solve(rhs, held=held)
    op = build_DK(chart, dom, box_field(dom))
    w = op.solve(rhs, held=held)
    assert held.factorizations == 1
    assert held.fallbacks == 0 and held.krylov_iterations > 0
    assert op._lu is None  # the new operator was never factorized
    b = np.where(dom.interior, rhs, 0.0)
    assert np.linalg.norm(op.apply(w) - b) <= HeldLU.RTOL * np.linalg.norm(b)
    assert np.all(w[dom.boundary] == 0.0)


def test_held_lu_counts_every_application_of_its_factors(monkeypatch):
    applied = []
    real = _PermutedLU.solve
    monkeypatch.setattr(_PermutedLU, "solve",
                        lambda self, rhs: applied.append(1) or real(self, rhs))
    chart = HyperbolicChart(n=2, offset=D)
    dom = box()
    held = HeldLU()
    rhs = np.sin(3 * dom.coords[:, 0]) + 0.2
    build_DK(chart, dom, np.zeros(dom.num_nodes)).solve(rhs, held=held)
    assert held.trisolves == len(applied) == 1
    build_DK(chart, dom, box_field(dom)).solve(rhs, held=held)
    assert held.krylov_iterations > 0 and held.factorizations == 1
    assert held.counters()["trisolves"] == len(applied) > 1 + held.krylov_iterations


def test_held_lu_of_a_distant_operator_falls_back_to_direct():
    # the diagonal of DK carries none of its coupling, so GMRES preconditioned
    # by it misses the tolerance and the solve factorizes DK itself
    chart = HyperbolicChart(n=2, offset=D)
    dom = box(65)
    op = build_DK(chart, dom, box_field(dom))
    diag = EllipticOperator(dom, op.stencils, {4: op.weights[4]},  # the middle slot
                            op.second_order, op.drift, op.zeroth)
    rhs = np.random.default_rng(3).standard_normal(dom.num_nodes)
    held = HeldLU()
    diag.solve(rhs, held=held)
    w = op.solve(rhs, held=held)
    assert held.fallbacks == 1
    assert held.factorizations == 2
    assert held.krylov_iterations == HeldLU.RESTART * HeldLU.MAXITER
    assert held.lu is op._lu
    direct = EllipticOperator(dom, op.stencils, op.weights, op.second_order, op.drift,
                              op.zeroth).solve(rhs)
    assert np.max(np.abs(w - direct)) <= 1e-13 * np.max(np.abs(direct))


def test_held_lu_is_never_applied_on_another_domain():
    chart = HyperbolicChart(n=2, offset=D)
    dom_a, dom_b = box(), box()  # same grid, distinct domains
    held = HeldLU()
    rhs = np.ones(dom_a.num_nodes)
    build_DK(chart, dom_a, np.zeros(dom_a.num_nodes)).solve(rhs, held=held)

    class Poisoned:
        def solve(self, _):
            raise AssertionError("factors of another domain were applied")

    held.lu = Poisoned()
    op_b = build_DK(chart, dom_b, np.zeros(dom_b.num_nodes))
    w = op_b.solve(rhs, held=held)
    assert held.counters() == {
        "factorizations": 2, "ring_averages": 0, "krylov_iterations": 0, "fallbacks": 0,
        "trisolves": 2, "fill": op_b._lu.nnz,
    }
    assert held.domain is dom_b and held.lu is op_b._lu
    assert np.array_equal(w, build_DK(chart, dom_b, np.zeros(dom_b.num_nodes)).solve(rhs))


def test_krylov_of_a_zero_right_hand_side_applies_nothing():
    held = HeldLU()
    held.ring = types.SimpleNamespace(solve=lambda v: v.copy())
    w = held._krylov(2.0 * sp.identity(10, format="csr"), np.zeros(10))
    assert np.array_equal(w, np.zeros(10))
    assert held.krylov_iterations == held.trisolves == 0


def test_krylov_breakdown_with_a_zero_subdiagonal_has_converged():
    # (2 I) P^-1 e0 = 2 e0 exactly for P = I, so the first Arnoldi vector
    # leaves nothing to orthogonalize: H[1, 0] = 0 and the estimate is 0
    held = HeldLU()
    held.ring = types.SimpleNamespace(solve=lambda v: v.copy())
    rhs = np.zeros(10)
    rhs[3] = 3.0
    w = held._krylov(2.0 * sp.identity(10, format="csr"), rhs)
    assert np.array_equal(w, 0.5 * rhs)
    assert held.krylov_iterations == 1 and held.trisolves == 2


@pytest.mark.parametrize("apply", ["zeros", "nan", "nan_update"])
def test_krylov_miss_on_a_zero_or_non_finite_pivot_or_iterate_falls_back(apply):
    # zeros: the first Givens pivot is zero; nan: it is not finite; nan_update:
    # the Arnoldi steps are finite and only the update P^-1 V y is not
    chart = HyperbolicChart(n=2, offset=D)
    dom = ball()
    op = build_DK(chart, dom, safe_field(dom))
    ring = _RingAverage(op)

    def solve(v):
        if apply == "zeros":
            return np.zeros_like(v)
        if apply == "nan_update" and abs(np.linalg.norm(v) - 1.0) <= 1e-12:
            return ring.solve(v)  # a unit Arnoldi vector
        return np.full_like(v, np.nan)

    held = HeldLU()
    held.domain, held.ring = dom, types.SimpleNamespace(solve=solve)
    rhs = np.where(dom.interior, np.sin(3 * dom.coords[:, 0]) + 0.2, 0.0)
    w = held.solve(op, rhs)
    assert (held.krylov_iterations > 0) == (apply == "nan_update")  # pivots end at once
    assert held.fallbacks == 1 and held.factorizations == 1
    assert held.lu is op._lu and held.ring is None
    assert np.array_equal(w, op._lu.solve(rhs))


@pytest.mark.parametrize("shape", [(8, 32), (16, 64)])
def test_ring_average_preconditioned_gmres_ends_in_one_restart_cycle(shape):
    # DK at a field preconditioned by the ring average of DK at 0.9 x field;
    # scipy's left-preconditioned GMRES took a second cycle in 12 of these 16
    chart = HyperbolicChart(n=2, offset=D)
    dom = ball(*shape)
    s, phi = dom.coords[:, 0], dom.coords[:, 1]
    x, y = s * np.cos(phi), s * np.sin(phi)
    wiggled = 0.3 * (x**2 + y**2 - 2.0) + 0.02 * np.sin(2 * x + 0.3) * np.cos(3 * y + 0.2)
    for f in (wiggled, safe_field(dom)):
        for r in (np.sin(3 * s) + 0.2, np.ones_like(s), smooth_direction(dom), x + 0.5 * y * y):
            rhs = np.where(dom.interior, r, 0.0)
            held = HeldLU()
            build_DK(chart, dom, 0.9 * f).solve(rhs, held=held)
            op = build_DK(chart, dom, f)
            before = held.counters()
            w = op.solve(rhs, held=held)
            k = held.krylov_iterations - before["krylov_iterations"]
            assert 0 < k < HeldLU.RESTART and held.fallbacks == 0
            assert held.trisolves - before["trisolves"] == 1 + k
            assert np.linalg.norm(op.apply(w) - rhs) <= HeldLU.RTOL * np.linalg.norm(rhs)


# ---- ring average ----------------------------------------------------------------


POLAR = {  # a domain and a rotationally symmetric admissible field on it
    "ball": (lambda: GridDomain.ball(1.0, 8, 32), lambda s: -0.05 * (1 - s**2)),
    "annulus": (lambda: GridDomain.annulus(0.5, 1.0, 8, 32),
                lambda s: -0.05 * (1 - s) * (s - 0.5)),
}


def circulant_average(dom, matrix):
    """``matrix`` with every ring-to-ring block replaced by the circulant of
    its averaged diagonals and each ring's pole column by its mean; the pole
    row is kept."""
    A = matrix.toarray()
    nphi = dom.shape[1]
    start = int(dom.pole is not None)
    rings = [start + (i - start) * nphi + np.arange(nphi) for i in range(start, dom.shape[0])]
    j = np.arange(nphi)
    offset = (j[None, :] - j[:, None]) % nphi  # angular offset of (row j, column k)
    out = A.copy()
    for rows in rings:
        for cols in rings:
            block = A[np.ix_(rows, cols)]
            out[np.ix_(rows, cols)] = np.array(
                [block[j, (j + b) % nphi].mean() for b in range(nphi)]
            )[offset]
        if start:
            out[rows, 0] = A[rows, 0].mean()
    return out


@pytest.mark.parametrize("layout", sorted(POLAR))
def test_ring_average_is_exact_on_rotationally_symmetric_operators(layout):
    make, radial = POLAR[layout]
    dom = make()
    op = build_DK(HyperbolicChart(n=2, offset=D), dom, radial(dom.coords[:, 0]))
    x = np.random.default_rng(7).standard_normal(dom.num_nodes)
    got = _RingAverage(op).solve(op.matrix @ x)
    assert np.max(np.abs(got - x)) <= 1e-10 * np.max(np.abs(x))


@pytest.mark.parametrize("layout", sorted(POLAR))
def test_ring_average_solves_the_assembled_circulant_average(layout):
    make, radial = POLAR[layout]
    dom = make()
    s, phi = dom.coords[:, 0], dom.coords[:, 1]
    op = build_DK(HyperbolicChart(n=2, offset=D), dom, radial(s) * (1 + 0.2 * s * np.cos(3 * phi)))
    averaged = circulant_average(dom, op.matrix)
    assert np.max(np.abs(averaged - op.matrix.toarray())) > 1e-3  # not circulant itself
    b = np.random.default_rng(11).standard_normal(dom.num_nodes)
    want = spla.spsolve(sp.csc_matrix(averaged), b)
    got = _RingAverage(op).solve(b)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def csr_ring_means(dom, matrix):
    """Per-ring slot means of ``matrix``'s stored entries, each placed by the
    ring and angle of its row and column; ring 1's couplings to the ball's
    pole all count on slot (-1, 0)."""
    rings, nphi = dom.shape
    start = int(dom.pole is not None)
    node = np.arange(dom.num_nodes)
    ring, angle = (node - start) // nphi + start, (node - start) % nphi
    skip = matrix.indptr[start]  # the pole row's entries are kept apart
    rows = np.repeat(node, np.diff(matrix.indptr))[skip:]
    cols = matrix.indices[skip:]
    to_ring, from_ring = ring[cols], ring[rows]
    b = angle[cols] - angle[rows]
    b[b > 1] = -1  # across phi = 0
    b[b < -1] = 1
    b[to_ring == 0] = 0
    return np.bincount(
        (from_ring - start) * 9 + (to_ring - from_ring) * 3 + b + 4,
        weights=matrix.data[skip:], minlength=(rings - start) * 9,
    ).reshape(rings - start, 3, 3) / nphi


@pytest.mark.parametrize("layout", sorted(POLAR))
def test_ring_means_average_the_stored_entries(layout):
    make, radial = POLAR[layout]
    dom = make()
    chart = HyperbolicChart(n=2, offset=D)
    s, phi = dom.coords[:, 0], dom.coords[:, 1]
    for op in (build_DK(chart, dom, radial(s) * (1 + 0.2 * s * np.cos(3 * phi))),
               build_JK(chart.base_hypersurface(), dom)):
        means = _RingAverage(op).means
        want = csr_ring_means(dom, op.matrix)
        assert means.shape == want.shape
        assert np.max(np.abs(means - want)) <= 1e-15 * np.max(np.abs(op.matrix.data))


def test_an_operator_off_polar_grids_has_no_ring_average_and_goes_to_the_lu():
    chart = HyperbolicChart(n=2, offset=D)
    dom = box()
    op = build_DK(chart, dom, box_field(dom))
    assert _RingAverage.of(op) is None
    held = HeldLU()
    rhs = np.sin(3 * dom.coords[:, 0]) + 0.2
    w = op.solve(rhs, held=held)
    assert held.ring_averages == 0 and held.factorizations == 1
    assert held.krylov_iterations == 0 and held.lu is op._lu
    direct = EllipticOperator(dom, op.stencils, op.weights, op.second_order, op.drift,
                              op.zeroth).solve(rhs)
    assert np.array_equal(w, direct)


def test_first_solve_on_a_polar_grid_is_preconditioned_by_the_ring_average():
    chart = HyperbolicChart(n=2, offset=D)
    dom = ball()
    held = HeldLU()
    rhs = np.sin(3 * dom.coords[:, 0]) + 0.2
    op = build_DK(chart, dom, safe_field(dom))
    w = op.solve(rhs, held=held)
    k = held.krylov_iterations
    assert k > 0
    assert held.counters() == {
        "factorizations": 0, "ring_averages": 1, "krylov_iterations": k,
        "fallbacks": 0, "trisolves": held.trisolves, "fill": 0,
    }
    assert held.lu is None and op._lu is None
    b = np.where(dom.interior, rhs, 0.0)
    assert np.linalg.norm(op.apply(w) - b) <= HeldLU.RTOL * np.linalg.norm(b)
    assert np.all(w[dom.boundary] == 0.0)
    # a later operator of the domain is preconditioned by the same average
    build_DK(chart, dom, 0.5 * safe_field(dom)).solve(rhs, held=held)
    assert held.ring_averages == 1 and held.factorizations == 0 and held.fallbacks == 0


def anisotropic_operator(dom, eps=1e-3):
    """c2 : Hess v for c2 = diag(1, eps) in the plane's (x, y) axes, which
    turns with phi in the polar frames."""
    chart = HyperbolicChart(n=2, offset=D)
    c, s = np.cos(dom.coords[:, 1]), np.sin(dom.coords[:, 1])
    c2 = np.zeros((dom.num_nodes, 2, 2))
    c2[:, 0, 0] = c * c + eps * s * s
    c2[:, 1, 1] = s * s + eps * c * c
    c2[:, 0, 1] = c2[:, 1, 0] = (eps - 1.0) * c * s
    c2[dom.boundary] = 0.0
    drift, zeroth = np.zeros((dom.num_nodes, 2)), np.zeros(dom.num_nodes)
    return _operator(chart, dom, c2, drift, zeroth)


def test_ring_average_of_a_strongly_phi_dependent_operator_falls_back_to_the_lu():
    dom = ball(32, 128)
    op = anisotropic_operator(dom)
    c2, drift, zeroth = op.second_order, op.drift, op.zeroth
    rhs = np.random.default_rng(3).standard_normal(dom.num_nodes)
    held = HeldLU()
    w = op.solve(rhs, held=held)
    assert held.ring_averages == 1
    assert held.fallbacks == 1 and held.factorizations == 1
    assert held.krylov_iterations == HeldLU.RESTART * HeldLU.MAXITER
    assert held.lu is op._lu and held.ring is None
    assert held.counters()["fill"] == op._lu.nnz
    direct = EllipticOperator(dom, op.stencils, op.weights, c2, drift, zeroth).solve(rhs)
    assert np.max(np.abs(w - direct)) <= 1e-13 * np.max(np.abs(direct))


def test_a_singular_operator_on_a_polar_grid_is_still_reported():
    # the ring average of a ring of zero rows is singular, so the solve goes
    # to the LU, which reports the singular system
    chart = HyperbolicChart(n=2, offset=D)
    dom = ball(4, 16)
    dk = build_DK(chart, dom, np.zeros(dom.num_nodes))
    c2, drift, zeroth = dk.second_order, dk.drift, dk.zeroth
    for coef in (c2, drift, zeroth):
        coef[1 + dom.shape[1] + np.arange(dom.shape[1])] = 0.0  # ring 2
    op = _operator(chart, dom, c2, drift, zeroth)
    with pytest.raises(SingularLinearSystem):
        _RingAverage(op)
    assert _RingAverage.of(op) is None
    held = HeldLU()
    with pytest.raises(SingularLinearSystem):
        op.solve(np.ones(dom.num_nodes), held=held)
    assert held.ring_averages == 0 and held.krylov_iterations == 0


def test_refinement_gives_up_on_a_stall_or_after_four_corrections():
    dom = ball(32, 128)
    rhs = np.where(dom.interior, 1.0, 0.0)
    assert _refined(anisotropic_operator(dom), rhs) is None  # the third correction does not halve
    # a mildly phi-dependent DK contracts, but needs more than 4 corrections
    op = build_DK(HyperbolicChart(n=2, offset=D), dom, safe_field(dom))
    assert _refined(op, rhs) is None
    radial = build_DK(HyperbolicChart(n=2, offset=D), dom, -0.05 * (1 - dom.coords[:, 0] ** 2))
    assert _refined(radial, rhs) is not None


def test_stability_check_on_a_polar_grid_refines_without_a_factorization(monkeypatch):
    chart = HyperbolicChart(n=2, offset=D)
    dom = ball(64, 256)
    f = -0.05 * (1 - dom.coords[:, 0] ** 2)  # rotationally symmetric, like the solution
    want = build_DK(chart, dom, f).solve(np.where(dom.interior, 1.0, 0.0))
    factored = []
    real = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a, **kw: factored.append(1) or real(*a, **kw))
    res = stability_check(chart, dom, f)
    w = res["witness"]
    assert factored == []
    assert res["stable"] and np.array_equal(np.sign(w), np.sign(want))
    assert np.max(np.abs(w - want)) <= 1e-9 * np.max(np.abs(want))
    assert np.all(w[dom.boundary] == 0.0)


# ---- operator rows and dissection ordering ------------------------------------


LAYOUTS = {
    "ball": lambda: GridDomain.ball(1.0, 8, 32),
    "annulus": lambda: GridDomain.annulus(0.5, 1.0, 8, 32),
    "box": lambda: GridDomain.box(((-1.0, 1.0), (-1.0, 1.0)), (13, 13)),
    "interval": lambda: GridDomain.interval(-1.0, 1.0, 32),
}


def plane_xy(dom):
    """Cartesian position of every node (y = 0 on an interval)."""
    c = dom.coords
    if dom.layout == "polar":
        return c[:, 0] * np.cos(c[:, 1]), c[:, 0] * np.sin(c[:, 1])
    if dom.layout == "cartesian":
        return c[:, 0], c[:, 1]
    return c[:, 0], np.zeros(dom.num_nodes)


def convex_field(dom, wiggle=0.0):
    """0.3 (|x|^2 - 2) plus a smooth bump with no rotational symmetry."""
    x, y = plane_xy(dom)
    return 0.3 * (x**2 + y**2 - 2.0) + wiggle * np.sin(2 * x + 0.3) * np.cos(3 * y + 0.2)


def summed_operator_matrix(chart, op):
    """The matrix of op as a sum of diags(coef) @ H and diags(coef) @ P products."""
    dom = op.domain
    P, H = frame_operators(chart, dom)
    mat = sp.diags(op.zeroth)
    for a in range(dom.n):
        for b in range(dom.n):
            mat = mat + sp.diags(op.second_order[:, a, b]) @ H[(min(a, b), max(a, b))]
        mat = mat + sp.diags(op.drift[:, a]) @ P[a]
    keep = sp.diags(dom.interior.astype(float))
    return (keep @ mat + sp.diags(dom.boundary.astype(float))).toarray()


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_operator_pattern_is_fixed_per_domain(layout):
    dom = LAYOUTS[layout]()
    chart = HyperbolicChart(n=dom.n, offset=D)
    for f in [np.zeros(dom.num_nodes), convex_field(dom), convex_field(dom, 0.02)]:
        op = build_DK(chart, dom, f)
        got = op.matrix.toarray()
        want = summed_operator_matrix(chart, op)
        row_scale = np.max(np.abs(want), axis=1)
        assert np.all(np.max(np.abs(got - want), axis=1) <= 1e-12 * row_scale)
        # boundary rows are exact identity rows, stored as the diagonal alone
        bnd = np.flatnonzero(dom.boundary)
        assert np.array_equal(got[bnd], np.eye(dom.num_nodes)[bnd])
        assert np.all(np.diff(op.matrix.indptr)[bnd] == 1)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize(
    "chart_of",
    [lambda n: HyperbolicChart(n=n, offset=D), lambda n: EpsilonChart(n=n, eps=0.1)],
    ids=["hyperbolic", "epsilon"],
)
def test_dissection_solve_matches_plain_sparse_lu(layout, chart_of):
    dom = LAYOUTS[layout]()
    op = build_DK(chart_of(dom.n), dom, convex_field(dom, 0.02))
    rhs = np.where(dom.interior, np.random.default_rng(5).standard_normal(dom.num_nodes), 0.0)
    want = spla.splu(op.matrix.tocsc()).solve(rhs)
    got = op.solve(rhs)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_dissection_fill_is_below_colamd():
    chart = HyperbolicChart(n=2, offset=D)
    dom = ball(64, 256)
    op = build_DK(chart, dom, safe_field(dom))
    assert op.factor().nnz < spla.splu(op.matrix.tocsc()).nnz
