"""Grid operators built from stencil tables against the sparse-algebra builds.

The derivative operators, frame operators and nested-dissection order of a
grid are built by index arithmetic on stencil slots, and a DK is filled by
adding coefficients times slot weights up per slot, the polar warp folded
into the coefficients of the derivative operators.  The reference copies
below are the constructions they replaced: COO -> CSR conversions,
Kronecker products, ``sp.diags(x) @ A`` products, a pattern of sorted entry
keys filled by one scatter-add per derivative operator, and a recursive
dissection.  Every output must match them exactly: the CSR arrays of the
derivative operators, each frame operator's entries (which entries exist
included, as the sparse products drop exact zeros), the DK matrices without
their zero entries, and the order.  The slot products every solve runs
must equal the CSR products on every row whose slots are in column order.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from graphcurv.assembly import assemble_curvature
from graphcurv.charts import EpsilonChart, EuclideanChart, HyperbolicChart
from graphcurv import grids
from graphcurv.grids import GridDomain, _boundary_rle
from graphcurv.linearize import (
    _operator,
    build_DK,
    build_JK,
    frame_operators,
)

# ---- reference copies of the sparse-algebra constructions ---------------------


def ref_1d_stencil(m, weights, periodic):
    rows = np.arange(m) if periodic else np.arange(1, m - 1)
    mat = sp.coo_matrix(
        (
            np.concatenate([np.full(len(rows), w) for w in weights.values()]),
            (
                np.tile(rows, len(weights)),
                np.concatenate([(rows + k) % m for k in weights]),
            ),
        ),
        shape=(m, m),
    )
    return mat.tocsr()


def ref_central(h):
    c = 1.0 / (h * h)
    return {1: 0.5 / h, -1: -0.5 / h}, {1: c, 0: -2 * c, -1: c}


def ref_interval_ops(dom):
    (m,) = dom.shape
    (h,) = dom.spacing
    d1, d2 = (ref_1d_stencil(m, w, False) for w in ref_central(h))
    return (d1,), {(0, 0): d2}


def ref_box_ops(dom):
    m0, m1 = dom.shape
    h0, h1 = dom.spacing
    p0, p1 = dom.periodic
    i0 = sp.identity(m0, format="csr")
    i1 = sp.identity(m1, format="csr")
    a1, a2 = (ref_1d_stencil(m0, w, p0) for w in ref_central(h0))
    b1, b2 = (ref_1d_stencil(m1, w, p1) for w in ref_central(h1))
    d1 = (sp.kron(a1, i1).tocsr(), sp.kron(i0, b1).tocsr())
    d2 = {
        (0, 0): sp.kron(a2, i1).tocsr(),
        (0, 1): sp.kron(a1, b1).tocsr(),
        (1, 1): sp.kron(i0, b2).tocsr(),
    }
    return d1, d2


def ref_ball_ops(dom):
    nr = dom.shape[0] - 1
    nphi = dom.shape[1]
    ds, dphi = dom.spacing
    num = dom.num_nodes

    def idx(i, j):
        j = np.asarray(j) % nphi
        i = np.asarray(i)
        return np.where(i == 0, 0, 1 + (i - 1) * nphi + j)

    ii, jj = np.meshgrid(np.arange(1, nr), np.arange(nphi), indexing="ij")
    ii = ii.ravel()
    jj = jj.ravel()
    rows = idx(ii, jj)

    def build(entries, pole_entries):
        r, c, v = [], [], []
        for di, dj, w in entries:
            r.append(rows)
            c.append(idx(ii + di, jj + dj))
            v.append(np.full(rows.shape, w))
        for col, w in pole_entries:
            r.append(np.array([0]))
            c.append(np.array([col]))
            v.append(np.array([w]))
        mat = sp.coo_matrix(
            (np.concatenate(v), (np.concatenate(r), np.concatenate(c))),
            shape=(num, num),
        )
        return mat.tocsr()

    q = nphi // 4
    e = nphi // 8
    d_s = build(
        [(1, 0, 0.5 / ds), (-1, 0, -0.5 / ds)],
        [(idx(1, 0), 0.5 / ds), (idx(1, 2 * q), -0.5 / ds)],
    )
    iiA, jjA = np.meshgrid(np.arange(1, nr + 1), np.arange(nphi), indexing="ij")
    iiA = iiA.ravel()
    jjA = jjA.ravel()
    rowsA = idx(iiA, jjA)
    d_phi_ring = sp.coo_matrix(
        (
            np.concatenate(
                [np.full(rowsA.shape, 0.5 / dphi), np.full(rowsA.shape, -0.5 / dphi)]
            ),
            (
                np.concatenate([rowsA, rowsA]),
                np.concatenate([idx(iiA, jjA + 1), idx(iiA, jjA - 1)]),
            ),
        ),
        shape=(num, num),
    ).tocsr()
    pole_xi2 = sp.coo_matrix(
        ([0.5 / ds, -0.5 / ds], ([0, 0], [idx(1, q), idx(1, 3 * q)])),
        shape=(num, num),
    ).tocsr()
    d_phi = d_phi_ring + pole_xi2
    c2 = 1.0 / (ds * ds)
    d_ss = build(
        [(1, 0, c2), (0, 0, -2 * c2), (-1, 0, c2)],
        [(idx(1, 0), c2), (0, -2 * c2), (idx(1, 2 * q), c2)],
    )
    cp2 = 1.0 / (dphi * dphi)
    d_pp = build(
        [(0, 1, cp2), (0, 0, -2 * cp2), (0, -1, cp2)],
        [(idx(1, q), c2), (0, -2 * c2), (idx(1, 3 * q), c2)],
    )
    d_sp = d_s @ d_phi_ring
    d_sp.sort_indices()
    cut = d_sp.indptr[1]
    half = 0.5 / (ds * ds)
    pole_cols = idx(1, np.array([e, 3 * e, 5 * e, 7 * e]))
    d_sp = sp.csr_matrix(
        (
            np.concatenate([[half, -half, half, -half], d_sp.data[cut:]]),
            np.concatenate([pole_cols, d_sp.indices[cut:]]),
            np.concatenate([[0], d_sp.indptr[1:] - cut + 4]),
        ),
        shape=(num, num),
    )
    return (d_s, d_phi), {(0, 0): d_ss, (0, 1): d_sp, (1, 1): d_pp}


def ref_derivative_ops(dom):
    if dom.kind == "ball":
        return ref_ball_ops(dom)
    if dom.kind == "interval":
        return ref_interval_ops(dom)
    return ref_box_ops(dom)


def ref_frame_operators(chart, dom):
    d1, d2 = ref_derivative_ops(dom)
    if dom.n == 1:
        return (d1[0],), {(0, 0): d2[(0, 0)]}
    if dom.layout == "cartesian":
        return tuple(d1), dict(d2)
    s = dom.coords[:, 0]
    w, wp = chart.base_warp(s)
    radial = s > 0
    wf = np.where(radial, w, 1.0)
    wpf = np.where(radial, wp, 0.0)
    p1 = sp.diags(1.0 / wf) @ d1[1]
    h01 = sp.diags(1.0 / wf) @ (d2[(0, 1)] - sp.diags(wpf / wf) @ d1[1])
    h11 = sp.diags(1.0 / wf**2) @ d2[(1, 1)] + sp.diags(wpf / wf) @ d1[0]
    return (d1[0], p1.tocsr()), {(0, 0): d2[(0, 0)], (0, 1): h01.tocsr(), (1, 1): h11.tocsr()}


def ref_operator_pattern(dom):
    """(derivative operators, indptr, indices, term positions, diagonal) by
    sorting entry keys; the operators in term order, d2[(a, b)] then d1[a]."""
    d1, d2 = ref_derivative_ops(dom)
    n = dom.n
    N = dom.num_nodes
    ops = [d2[(a, b)] for a in range(n) for b in range(a, n)] + list(d1)
    inner = dom.interior
    rows, keys = [], []
    for op in ops:
        op.sum_duplicates()
        rows.append(np.repeat(np.arange(N, dtype=np.int64), np.diff(op.indptr)))
        keys.append(rows[-1] * N + op.indices)
    diag = np.arange(N, dtype=np.int64) * (N + 1)
    union = np.sort(np.concatenate([k[inner[r]] for r, k in zip(rows, keys)] + [diag]))
    union = union[np.diff(union, prepend=-1) != 0]
    indptr = np.searchsorted(union, np.arange(N + 1, dtype=np.int64) * N).astype(np.int32)
    indices = (union % N).astype(np.int32)
    positions = [
        np.where(inner[r], np.searchsorted(union, k), len(union)).astype(np.int32)
        for r, k in zip(rows, keys)
    ]
    return ops, indptr, indices, positions, np.searchsorted(union, diag)


def ref_term_coefficients(chart, dom, c2, drift):
    """The coefficients of the derivative operators in DK, in term order:
    those of the frame operators, on polar grids with the warp of
    ``ref_frame_operators`` folded in (sum_k c_k diag(1/w) @ D_k as the
    sum of diag(c_k / w) @ D_k)."""
    n = dom.n
    if dom.layout != "polar":
        return [
            c2[:, a, a] if a == b else c2[:, a, b] + c2[:, b, a]
            for a in range(n) for b in range(a, n)
        ] + [drift[:, a] for a in range(n)]
    s = dom.coords[:, 0]
    w, wp = chart.base_warp(s)
    radial = s > 0
    wf = np.where(radial, w, 1.0)
    ratio = np.where(radial, wp, 0.0) / wf
    mixed = c2[:, 0, 1] + c2[:, 1, 0]
    return [c2[:, 0, 0], mixed / wf, c2[:, 1, 1] / wf**2,
            drift[:, 0] + ratio * c2[:, 1, 1], (drift[:, 1] - ratio * mixed) / wf]


def ref_operator_matrix(chart, dom, pattern, c2, drift, zeroth):
    """The DK-shaped matrix of these coefficients, one scatter-add of each
    derivative operator's entries times its coefficient into their
    positions in ``pattern``, without the entries that come out zero."""
    ops, indptr, indices, positions, diagonal = pattern
    coefs = ref_term_coefficients(chart, dom, c2, drift)
    data = np.zeros(len(indices) + 1)  # the last slot collects boundary rows
    for op, pos, coef in zip(ops, positions, coefs):
        np.add.at(data, pos, np.repeat(coef, np.diff(op.indptr)) * op.data)
    data = data[:-1]
    data[diagonal] += zeroth
    data[diagonal[dom.boundary]] = 1.0
    N = dom.num_nodes
    out = sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(N, N))
    out.eliminate_zeros()
    return out


def ref_dissect(block, out):
    rows, cols = block.shape
    if block.size <= 16:
        out.append(block.ravel())
    elif rows >= cols:
        mid = rows // 2
        ref_dissect(block[:mid], out)
        ref_dissect(block[mid + 1:], out)
        out.append(block[mid])
    else:
        mid = cols // 2
        ref_dissect(block[:, :mid], out)
        ref_dissect(block[:, mid + 1:], out)
        out.append(block[:, mid])


def ref_dissection_order(dom):
    if dom.kind == "interval":
        return np.arange(dom.num_nodes)
    if dom.kind == "ball":
        ids = 1 + np.arange(dom.num_nodes - 1).reshape(dom.shape[0] - 1, dom.shape[1])
    else:
        ids = np.arange(dom.num_nodes).reshape(dom.shape)
    blocks, cuts = [ids], []
    for ax, per in enumerate(dom.periodic):
        if per:
            m = ids.shape[ax]
            halves = (np.arange(1, m // 2), np.arange(m // 2 + 1, m))
            cuts += [np.take(b, [0, m // 2], axis=ax).ravel() for b in blocks]
            blocks = [np.take(b, h, axis=ax) for b in blocks for h in halves]
    out = []
    for b in blocks:
        ref_dissect(b, out)
    out += cuts
    if dom.pole is not None:
        out.append(np.array([dom.pole]))
    return np.concatenate(out)


def ref_boundary_rle(mask):
    runs = []
    i = 0
    n = len(mask)
    while i < n:
        if mask[i]:
            j = i
            while j < n and mask[j]:
                j += 1
            runs.append(f"{i}:{j - i}")
            i = j
        else:
            i += 1
    return ",".join(runs)


# ---- cases --------------------------------------------------------------------

DOMAINS = {
    "ball8": lambda: GridDomain.ball(1.0, 8, 32),
    "ball16": lambda: GridDomain.ball(1.0, 16, 64),
    "ball128": lambda: GridDomain.ball(1.0, 128, 512),
    "annulus": lambda: GridDomain.annulus(0.5, 1.0, 8, 32),
    "box": lambda: GridDomain.box(((-1.0, 1.0), (-1.0, 1.0)), (13, 13)),
    "periodic": lambda: GridDomain.box(((-1.0, 1.0), (0.0, 2.0)), (13, 16), (False, True)),
    "torus": lambda: GridDomain.box(((0.0, 1.0), (0.0, 2.0)), (10, 12), (True, True)),
    "interval": lambda: GridDomain.interval(-1.0, 1.0, 32),
}

CHARTS = {
    "hyperbolic": lambda n: HyperbolicChart(n=n, offset=0.5),
    "euclidean": lambda n: EuclideanChart(n=n),
    "epsilon": lambda n: EpsilonChart(n=n, eps=0.1),
}


def fields(dom):
    """A symmetric convex bowl and a wiggled one.  On the cartesian grids
    with a periodic axis the bowl is in x alone and the wiggle has period 2
    in y; on the torus (period 1 in x) the bowl is flat."""
    c = dom.coords
    if dom.layout == "polar":
        x, y = c[:, 0] * np.cos(c[:, 1]), c[:, 0] * np.sin(c[:, 1])
    elif dom.layout == "cartesian":
        x, y = c[:, 0], c[:, 1]
    else:
        x, y = c[:, 0], np.zeros(dom.num_nodes)
    if dom.periodic == (True, True):
        return [0.0 * x, 0.005 * np.sin(2 * np.pi * x) * np.cos(np.pi * y)]
    if dom.layout == "cartesian" and any(dom.periodic):
        bowl = 0.3 * (x**2 - 2.0)
        return [bowl, bowl + 0.02 * np.sin(2 * x) * np.cos(np.pi * y)]
    bowl = 0.3 * (x**2 + y**2 - 2.0)
    return [bowl, bowl + 0.02 * np.sin(2 * x + 0.3) * np.cos(3 * y + 0.2)]


def built_operators(chart, dom):
    """DK of each field, and with a gradient of signed zeros, where it is
    admissible, and JK on the hyperbolic chart."""
    ops = []
    for f in fields(dom):
        for signed_zeros in (False, True):
            asm = assemble_curvature(chart, dom, f)
            if signed_zeros:
                asm.grad[::3] = -0.0
            if asm.admissible:
                ops.append(build_DK(chart, dom, f, assembly=asm))
            else:
                # not convex along a periodic axis, so only the hyperbolic
                # chart's Psi makes M definite
                assert dom.layout == "cartesian" and any(dom.periodic)
                assert not isinstance(chart, HyperbolicChart)
    if isinstance(chart, HyperbolicChart):
        ops.append(build_JK(chart.base_hypersurface(), dom))
    return ops


def bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_entries(got, want):
    """Equal stored entries, value bytes included, each stored once."""
    keys = []
    for mat in (got, want):
        coo = mat.tocoo()
        key = coo.row.astype(np.int64) * mat.shape[1] + coo.col
        order = np.argsort(key, kind="stable")
        assert np.all(np.diff(key[order]) > 0)  # no entry stored twice
        keys.append((key[order], coo.data[order]))
    (k1, v1), (k2, v2) = keys
    return np.array_equal(k1, k2) and bitwise_equal(v1, v2)


@pytest.mark.parametrize("domain_kind", sorted(DOMAINS))
def test_derivative_ops_match_the_sparse_algebra_bitwise(domain_kind):
    dom = DOMAINS[domain_kind]()
    d1, d2 = ref_derivative_ops(dom)
    st, got1, got2 = dom.derivative_ops()
    pairs = [(st.csr(op), want) for op, want in zip(got1, d1)]
    pairs += [(st.csr(got2[k]), d2[k]) for k in d2]
    assert len(got1) == len(d1) and sorted(got2) == sorted(d2)
    for got, want in pairs:
        assert isinstance(got, sp.csr_matrix) and got.shape == want.shape
        for part in ("data", "indices", "indptr"):
            assert bitwise_equal(getattr(got, part), getattr(want, part)), part


@pytest.mark.parametrize("chart_kind", sorted(CHARTS))
@pytest.mark.parametrize("domain_kind", sorted(DOMAINS))
def test_frame_operators_and_pattern_match_the_sparse_algebra(domain_kind, chart_kind):
    dom = DOMAINS[domain_kind]()
    chart = CHARTS[chart_kind](dom.n)
    P, H = frame_operators(chart, dom)
    refP, refH = ref_frame_operators(chart, dom)
    assert sorted(H) == sorted(refH)
    for got, want in list(zip(P, refP)) + [(H[k], refH[k]) for k in refH]:
        assert same_entries(got, want)
    ref = ref_operator_pattern(dom)
    # every DK matrix is the scatter-add fill without its zeros, byte for
    # byte; random coefficients with signed zeros also cover the cases no
    # field is admissible on
    rng = np.random.default_rng(7)
    N, n = dom.num_nodes, dom.n
    coefs = [rng.standard_normal(shape) for shape in ((N, n, n), (N, n), (N,))]
    for arr in coefs:
        arr[::5] = -0.0
    cases = [(_operator(chart, dom, *coefs, "DK").matrix, coefs)] + [
        (op.matrix, (op.second_order, op.drift, op.zeroth)) for op in built_operators(chart, dom)
    ]
    for got, coefficients in cases:
        want = ref_operator_matrix(chart, dom, ref, *coefficients)
        for part in ("data", "indices", "indptr"):
            assert bitwise_equal(getattr(got, part), getattr(want, part)), part


@pytest.mark.parametrize("chart_kind", sorted(CHARTS))
@pytest.mark.parametrize("domain_kind", sorted(DOMAINS))
def test_slot_products_match_the_csr_products(domain_kind, chart_kind):
    # equal on every row whose slots ascend in column; on the others (the
    # pole and the edges of the index grid) the sums run in another order,
    # so they agree to 8 ulps of the row's absolute sum
    dom = DOMAINS[domain_kind]()
    chart = CHARTS[chart_kind](dom.n)
    st, d1, d2 = dom.derivative_ops()
    rng = np.random.default_rng(3)
    N, n = dom.num_nodes, dom.n
    coefs = [rng.standard_normal(shape) for shape in ((N, n, n), (N, n), (N,))]
    built = [_operator(chart, dom, *coefs, "DK"), *built_operators(chart, dom)]
    cases = [(op, st.csr(op)) for op in list(d1) + list(d2.values())]
    cases += [(op.weights, op.matrix) for op in built]
    edge = np.ones(dom.shape, dtype=bool)
    edge[(slice(1, -1),) * n] = False
    if dom.kind == "ball":  # index row 0 is the pole alone
        fix = np.concatenate([[0], 1 + np.flatnonzero(edge[1:])])
    else:
        fix = np.flatnonzero(edge)
    in_order = np.ones(N, dtype=bool)
    in_order[fix] = False
    for v in (rng.standard_normal(N), rng.standard_normal((N, 3))):  # the oracle's (N, 3)
        for weights, matrix in cases:
            got, want = st.apply(weights, v), matrix @ v
            assert got.shape == want.shape
            assert np.array_equal(got[in_order], want[in_order])
            bound = 8 * np.spacing(abs(matrix) @ np.abs(v))
            assert np.all(np.abs(got - want)[fix] <= bound[fix])


@pytest.mark.parametrize("domain", [
    GridDomain.ball(1.0, 7, 24),  # odd nr
    GridDomain.ball(1.0, 129, 512),
    GridDomain.annulus(0.5, 1.0, 9, 40),
    GridDomain.box(((0.0, 1.0), (0.0, 1.0)), (37, 23)),  # no periodic axis
    GridDomain.box(((0.0, 1.0), (0.0, 1.0)), (5, 41)),
    GridDomain.box(((0.0, 1.0), (0.0, 1.0)), (17, 30), (False, True)),
    GridDomain.box(((0.0, 1.0), (0.0, 1.0)), (21, 26), (True, True)),
    GridDomain.interval(0.0, 1.0, 40),
], ids=["ball-odd", "ball129", "annulus", "box", "thin-box", "periodic", "torus", "interval"])
def test_dissection_order_matches_the_recursion(domain):
    assert bitwise_equal(domain.dissection_order(), ref_dissection_order(domain))


@pytest.mark.parametrize("domain_kind", sorted(DOMAINS))
def test_boundary_runs_match_the_scan(domain_kind):
    dom = DOMAINS[domain_kind]()
    assert _boundary_rle(dom.boundary) == ref_boundary_rle(dom.boundary)
    for mask in (np.zeros(7, bool), np.ones(7, bool), np.array([1, 0, 1, 1, 0, 0, 1], bool)):
        assert _boundary_rle(mask) == ref_boundary_rle(mask)


def test_build_time_adds_up_once_per_build(monkeypatch):
    ticks = iter(range(1, 100))
    monkeypatch.setattr(grids.time, "perf_counter", lambda: next(ticks))
    dom = GridDomain.ball(1.0, 8, 32)
    chart = HyperbolicChart(n=2, offset=0.5)
    assert dom.build_s == 0.0
    # the frame build (ticks 1 and 4) holds the derivative operators' (2 and 3)
    frame_operators(chart, dom)
    assert dom.build_s == 3
    dom.derivative_ops()
    assert dom.build_s == 3  # cache hits cost nothing
    dom.dissection_order()  # ticks 5 and 6
    assert dom.build_s == 4


def test_one_stencil_build_per_grid_serves_every_operator(monkeypatch):
    built = []
    real = grids.derivative_stencils
    monkeypatch.setattr(grids, "derivative_stencils", lambda dom: built.append(dom) or real(dom))
    chart = HyperbolicChart(n=2, offset=0.5)
    dom = GridDomain.ball(1.0, 8, 32)
    build_DK(chart, dom, fields(dom)[1])
    assert built == [dom]

    def snapshot(ops):
        _, d1, d2 = ops
        tables = list(d1) + [d2[k] for k in sorted(d2)]
        arrays = [w for t in tables for w in t.values()]
        return [sorted(t) for t in tables], [(a.dtype, a.shape, a.tobytes()) for a in arrays]

    # DK's build and the frame operators read the cached weights without writing to them
    dom = GridDomain.ball(1.0, 8, 32)
    ops = dom.derivative_ops()
    before = snapshot(ops)
    build_DK(chart, dom, fields(dom)[1])
    frame_operators(chart, dom)
    assert len(built) == 2 and dom.derivative_ops() is ops
    assert snapshot(ops) == before
