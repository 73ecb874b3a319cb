"""Finite-difference grids: stencils, file I/O, refinement plumbing."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcurv.errors import ConfigError, DomainMismatch, OutOfRange
from graphcurv.grids import (
    GridDomain,
    coarsen_domain,
    export_csv,
    load_grid,
    prolong_values,
    refine_domain,
    restrict_values,
    save_grid,
)


# ---- constructors and basic invariants --------------------------------------


def test_constructor_rejections():
    with pytest.raises(OutOfRange):
        GridDomain.interval(0.0, 1.0, 3)
    with pytest.raises(OutOfRange):
        GridDomain.box(((0, 1), (0, 1)), (4, 9))
    with pytest.raises(OutOfRange):
        GridDomain.ball(1.0, 8, 12)  # nphi not divisible by 8
    with pytest.raises(OutOfRange):
        GridDomain.ball(1.0, 2, 16)  # too few rings
    with pytest.raises(OutOfRange):
        GridDomain.annulus(0.0, 1.0, 8, 16)


def test_ball_layout_invariants():
    dom = GridDomain.ball(1.0, 5, 16)
    assert dom.num_nodes == 1 + 5 * 16
    assert dom.shape == (6, 16)
    assert dom.pole == 0
    assert dom.layout == "polar"
    # rim ring is the boundary, everything else (pole included) is interior
    assert dom.boundary.sum() == 16
    assert dom.boundary[dom.node_index(5, 3)]
    assert not dom.boundary[0]
    assert dom.interior[0]
    # node_index wraps the angular index
    assert dom.node_index(2, 16) == dom.node_index(2, 0)
    assert dom.node_index(2, -1) == dom.node_index(2, 15)
    # coordinates: radius and angle of a known node
    k = dom.node_index(3, 4)
    assert dom.coords[k, 0] == pytest.approx(3 * 0.2)
    assert dom.coords[k, 1] == pytest.approx(4 * 2 * np.pi / 16)


def test_box_layout_invariants():
    dom = GridDomain.box(((0.0, 1.0), (0.0, 2.0)), (6, 9))
    assert dom.num_nodes == 54
    assert dom.layout == "cartesian"
    assert dom.boundary.sum() == 2 * 6 + 2 * 9 - 4
    assert dom.node_index(2, 3) == 2 * 9 + 3
    # periodic axis contributes no boundary nodes
    per = GridDomain.box(((0.0, 1.0), (0.0, 2.0)), (6, 8), periodic=(False, True))
    assert per.boundary.sum() == 2 * 8


def test_check_values_shape_guard():
    dom = GridDomain.interval(0.0, 1.0, 8)
    with pytest.raises(DomainMismatch):
        dom.check_values(np.zeros(7))
    with pytest.raises(DomainMismatch):
        dom.check_values(np.zeros((9, 1)))


def test_check_compatible():
    a = GridDomain.ball(1.0, 4, 16)
    b = GridDomain.ball(1.0, 4, 16)
    a.check_compatible(b)
    c = GridDomain.ball(1.0, 5, 16)
    with pytest.raises(DomainMismatch):
        a.check_compatible(c)


# ---- differentiation: exactness on polynomials / trig -----------------------


def test_interval_ops_exact_on_quadratics():
    dom = GridDomain.interval(-1.0, 2.0, 24)
    x = dom.coords[:, 0]
    f = 0.5 - 1.5 * x + 2.25 * x**2
    ops = dom.derivative_ops()
    d1 = ops.d1[0] @ f
    d2 = ops.d2[(0, 0)] @ f
    inner = dom.interior
    assert np.allclose(d1[inner], (-1.5 + 4.5 * x)[inner], atol=1e-12)
    assert np.allclose(d2[inner], 4.5, atol=1e-11)
    # boundary rows are left empty
    assert d1[0] == d1[-1] == 0.0
    assert d2[0] == d2[-1] == 0.0


def test_box_ops_exact_on_quadratics():
    dom = GridDomain.box(((0.0, 1.0), (0.0, 1.0)), (9, 9))
    x, y = dom.coords[:, 0], dom.coords[:, 1]
    f = x**2 + 3 * x * y + 2 * y**2
    ops = dom.derivative_ops()
    inner = dom.interior
    assert np.allclose((ops.d1[0] @ f)[inner], (2 * x + 3 * y)[inner], atol=1e-12)
    assert np.allclose((ops.d1[1] @ f)[inner], (3 * x + 4 * y)[inner], atol=1e-12)
    assert np.allclose((ops.d2[(0, 0)] @ f)[inner], 2.0, atol=1e-10)
    assert np.allclose((ops.d2[(0, 1)] @ f)[inner], 3.0, atol=1e-10)
    assert np.allclose((ops.d2[(1, 1)] @ f)[inner], 4.0, atol=1e-10)


def test_annulus_angular_ops_reproduce_trig_symbol():
    # on a uniform periodic grid the centered stencils act on cos(phi)
    # exactly as multiplication by their Fourier symbols
    dom = GridDomain.annulus(0.5, 1.0, 8, 32)
    phi = dom.coords[:, 1]
    f = np.cos(phi)
    ops = dom.derivative_ops()
    dphi = dom.spacing[1]
    d1 = ops.d1[1] @ f
    d2 = ops.d2[(1, 1)] @ f
    inner = dom.interior
    assert np.allclose(d1[inner], -np.sin(phi[inner]) * np.sin(dphi) / dphi, atol=1e-13)
    sym2 = 2.0 * (np.cos(dphi) - 1.0) / dphi**2
    assert np.allclose(d2[inner], sym2 * np.cos(phi[inner]), atol=1e-12)


def test_ball_ring_rows_exact_on_radial_quadratic():
    dom = GridDomain.ball(1.0, 8, 16)
    s = dom.coords[:, 0]
    f = s**2
    ops = dom.derivative_ops()
    rings = dom.interior.copy()
    rings[0] = False  # pole row means Cartesian derivatives; checked separately
    d_s = ops.d1[0] @ f
    d_ss = ops.d2[(0, 0)] @ f
    assert np.allclose(d_s[rings], 2 * s[rings], atol=1e-12)
    assert np.allclose(d_ss[rings], 2.0, atol=1e-11)


def test_ball_pole_rows_are_local_cartesian_derivatives():
    dom = GridDomain.ball(1.0, 8, 16)
    s, phi = dom.coords[:, 0], dom.coords[:, 1]
    x = s * np.cos(phi)
    y = s * np.sin(phi)
    ops = dom.derivative_ops()
    # first derivatives at the pole pick out the xi1 / xi2 components
    assert (ops.d1[0] @ x)[0] == pytest.approx(1.0, abs=1e-12)
    assert (ops.d1[0] @ y)[0] == pytest.approx(0.0, abs=1e-12)
    assert (ops.d1[1] @ x)[0] == pytest.approx(0.0, abs=1e-12)
    assert (ops.d1[1] @ y)[0] == pytest.approx(1.0, abs=1e-12)
    # pure second derivatives: f = x^2 and f = y^2
    assert (ops.d2[(0, 0)] @ (x * x))[0] == pytest.approx(2.0, abs=1e-11)
    assert (ops.d2[(0, 0)] @ (y * y))[0] == pytest.approx(0.0, abs=1e-11)
    assert (ops.d2[(1, 1)] @ (y * y))[0] == pytest.approx(2.0, abs=1e-11)
    assert (ops.d2[(1, 1)] @ (x * x))[0] == pytest.approx(0.0, abs=1e-11)
    # mixed derivative: f = x*y has d2/dxdy = 1
    assert (ops.d2[(0, 1)] @ (x * y))[0] == pytest.approx(1.0, abs=1e-11)
    assert (ops.d2[(0, 1)] @ (x * x))[0] == pytest.approx(0.0, abs=1e-11)


def test_ball_mixed_derivative_exact_on_separable_field():
    dom = GridDomain.ball(1.0, 8, 32)
    s, phi = dom.coords[:, 0], dom.coords[:, 1]
    dphi = dom.spacing[1]
    f = s**2 * np.sin(phi)
    ops = dom.derivative_ops()
    got = ops.d2[(0, 1)] @ f
    rings = dom.interior.copy()
    rings[0] = False
    # radial differencing is exact on s^2; angular differencing of sin has
    # symbol sin(dphi)/dphi, so the discrete mixed derivative is known exactly
    want = 2 * s * np.cos(phi) * np.sin(dphi) / dphi
    assert np.allclose(got[rings], want[rings], atol=1e-11)


@pytest.mark.parametrize("nr, nphi", [(4, 16), (16, 64), (64, 256)])
def test_ball_mixed_pole_row_matches_lil_rewrite(nr, nphi):
    # the mixed operator's pole row used to be rewritten through LIL; the
    # current construction must reproduce that route to the bit
    dom = GridDomain.ball(1.0, nr, nphi)
    ops = dom.derivative_ops()
    ds = dom.spacing[0]
    d_phi_ring = ops.d1[1].tolil()
    d_phi_ring[0, :] = 0.0
    old = (ops.d1[0] @ d_phi_ring.tocsr()).tolil()
    old[0, :] = 0.0
    half = 0.5 / (ds * ds)
    e = nphi // 8
    for j, w in [(e, half), (5 * e, half), (3 * e, -half), (7 * e, -half)]:
        old[0, dom.node_index(1, j)] += w
    old = old.tocsr()
    new = ops.d2[(0, 1)]
    assert new.format == "csr"
    for name in ("indptr", "indices", "data"):
        got, want = getattr(new, name), getattr(old, name)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


# ---- grid file round trip ----------------------------------------------------


def _domains_for_io():
    return [
        GridDomain.interval(0.0, 1.0, 12),
        GridDomain.box(((0.0, 1.0), (0.0, 2.0)), (6, 7)),
        GridDomain.box(((0.0, 1.0), (0.0, 2.0)), (6, 8), periodic=(False, True)),
        GridDomain.annulus(0.5, 1.5, 6, 16),
        GridDomain.ball(1.0, 4, 16),
    ]


@pytest.mark.parametrize("dom", _domains_for_io(), ids=lambda d: d.kind + str(d.shape))
def test_save_load_roundtrip_bitwise(tmp_path, dom):
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(dom.num_nodes)
    path = tmp_path / "field.grid"
    save_grid(path, dom, vals, "hyperbolic:n=2:D=0.5")
    dom2, vals2, cid = load_grid(path)
    assert cid == "hyperbolic:n=2:D=0.5"
    dom.check_compatible(dom2)
    assert np.array_equal(dom2.boundary, dom.boundary)
    # the raw float64 payload reproduces every double exactly
    assert np.array_equal(vals2, vals)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.floats(
            allow_nan=False, allow_infinity=False, min_value=-1e30, max_value=1e30
        ),
        min_size=13,
        max_size=13,
    )
)
def test_save_load_value_fidelity(tmp_path_factory, xs):
    dom = GridDomain.interval(0.0, 1.0, 12)
    path = tmp_path_factory.mktemp("io") / "v.grid"
    vals = np.array(xs)
    save_grid(path, dom, vals, "euclidean:n=2")
    _, back, _ = load_grid(path)
    assert np.array_equal(back, vals)


def test_load_keeps_special_values(tmp_path):
    dom = GridDomain.interval(0.0, 1.0, 12)
    vals = np.array([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                     1.0 / 3.0, -1e-300, np.pi, -np.e, 1e22, 2.0**-1074 * 3, -np.inf, np.inf])
    path = tmp_path / "v.grid"
    save_grid(path, dom, vals, "euclidean:n=2")
    _, back, _ = load_grid(path)
    assert back.tobytes() == vals.tobytes()  # -0 stays -0
    # NaNs keep their sign and payload bits
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0x7FF4000000000ABC, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64).view(float)
    vals[:5] = nans
    save_grid(path, dom, vals, "euclidean:n=2")
    _, back, _ = load_grid(path)
    assert back.tobytes() == vals.tobytes()
    assert back.flags.writeable and back.dtype == np.float64
    # no values at all is a count mismatch
    empty = tmp_path / "empty.grid"
    empty.write_bytes(path.read_bytes().split(b"\n", 1)[0] + b"\n")
    with pytest.raises(DomainMismatch, match="0 values"):
        load_grid(empty)


def test_save_grid_writes_the_bytes_of_the_per_value_loop(tmp_path):
    dom = GridDomain.interval(0.0, 1.0, 12)
    vals = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-300, -1e-300, -1.0 / 3.0, -7.0,
                     -2.2250738585072014e-308, -np.pi, 1e22, -1.7976931348623157e308, 0.1])
    path = tmp_path / "v.grid"
    save_grid(path, dom, vals, "euclidean:n=2")
    _, values = path.read_bytes().split(b"\n", 1)
    assert values == vals.astype("<f8").tobytes()


def _edited(path, tmp_path, name, header=None, payload=None):
    """A copy of grid file ``path`` with its header or payload replaced."""
    head, body = path.read_bytes().split(b"\n", 1)
    if header is not None:
        head = json.dumps(header(json.loads(head))).encode()
    out = tmp_path / name
    out.write_bytes(head + b"\n" + (body if payload is None else payload(body)))
    return out


def test_load_rejects_corruption(tmp_path):
    dom = GridDomain.ball(1.0, 4, 16)
    path = tmp_path / "f.grid"
    save_grid(path, dom, np.zeros(dom.num_nodes), "euclidean:n=2")

    # a value block one value too long, or one or three too short
    for edit, found in [(lambda b: b + b[:8], 66), (lambda b: b[:-8], 64),
                        (lambda b: b[:-3 * 8], 62)]:
        with pytest.raises(DomainMismatch, match=f"^{found} values for 65 nodes$"):
            load_grid(_edited(path, tmp_path, "count.grid", payload=edit))

    # header spacing inconsistent with the declared layout
    def spacing(header):
        header["spacing"][0] *= 1.5
        return header

    with pytest.raises(DomainMismatch):
        load_grid(_edited(path, tmp_path, "spacing.grid", header=spacing))

    # boundary mask that does not match the layout
    with pytest.raises(DomainMismatch):
        load_grid(_edited(path, tmp_path, "mask.grid", header=lambda h: {**h, "boundary": "0:1"}))

    # unknown layout tag
    with pytest.raises(DomainMismatch):
        load_grid(_edited(path, tmp_path, "layout.grid", header=lambda h: {**h, "layout": "moebius"}))


@pytest.mark.parametrize("cut", [1, 7, 9])
def test_load_refuses_a_payload_of_partial_values(tmp_path, cut):
    dom = GridDomain.ball(1.0, 4, 16)
    path = tmp_path / "f.grid"
    save_grid(path, dom, np.zeros(dom.num_nodes), "euclidean:n=2")
    bad = _edited(path, tmp_path, "partial.grid", payload=lambda b: b[:-cut])
    with pytest.raises(ValueError, match=f"^{65 * 8 - cut} bytes of values, not a whole number"):
        load_grid(bad)


@pytest.mark.parametrize("encoding", [">f8", "%.17g", None])
def test_load_refuses_an_unknown_encoding(tmp_path, encoding):
    dom = GridDomain.ball(1.0, 4, 16)
    path = tmp_path / "f.grid"
    save_grid(path, dom, np.zeros(dom.num_nodes), "euclidean:n=2")
    bad = _edited(path, tmp_path, "encoding.grid", header=lambda h: {**h, "encoding": encoding})
    with pytest.raises(ConfigError, match=f"malformed grid header: 'encoding': {encoding!r} "
                                          "is not '<f8'"):
        load_grid(bad)


def test_load_refuses_a_text_grid_file(tmp_path):
    # the text form of earlier versions: the header without `encoding`,
    # then one %.17g value per line
    dom = GridDomain.ball(1.0, 4, 16)
    path = tmp_path / "f.grid"
    save_grid(path, dom, np.zeros(dom.num_nodes), "euclidean:n=2")
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    del header["encoding"]
    text = tmp_path / "text.grid"
    text.write_text(json.dumps(header, sort_keys=True) + "\n" + "0\n" * dom.num_nodes)
    with pytest.raises(ConfigError, match="missing key 'encoding'"):
        load_grid(text)


# traced heap peaks of grid-file I/O on a 65x256 ball, in bytes per node.
# save_grid writes the values' own buffer, so its peak is the header's
# boundary encoding; formatting the values as text held a Python float per
# node (61 B/node).  load_grid's peak is rebuilding the grid from the header:
# the payload and its array are read after that
SAVE_PEAK_PER_NODE = 2.08
LOAD_PEAK_PER_NODE = 44.46


def test_grid_io_heap_peak_per_node_stays_at_its_measured_value(tmp_path):
    dom = GridDomain.ball(1.0, 64, 256)
    vals = np.random.default_rng(3).standard_normal(dom.num_nodes)
    path = tmp_path / "f.grid"
    peaks = []
    for call, args in [(save_grid, (path, dom, vals, "euclidean:n=2")), (load_grid, (path,))]:
        tracemalloc.start()
        try:
            call(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] / dom.num_nodes)
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 1.05 * SAVE_PEAK_PER_NODE
    assert peaks[1] <= 1.05 * LOAD_PEAK_PER_NODE


def test_export_csv_format(tmp_path):
    dom = GridDomain.ball(1.0, 3, 8)
    f = np.linspace(0.0, 1.0, dom.num_nodes)
    path = tmp_path / "out.csv"
    export_csv(path, dom, {"f": f, "g": 2 * f})
    lines = path.read_text().splitlines()
    assert lines[0] == "s,phi,f,g"
    assert len(lines) == 1 + dom.num_nodes
    row = lines[1 + dom.node_index(2, 3)].split(",")
    assert float(row[0]) == pytest.approx(2 / 3)
    assert float(row[2]) == f[dom.node_index(2, 3)]
    assert float(row[3]) == 2 * f[dom.node_index(2, 3)]


@pytest.mark.parametrize("dom", [
    GridDomain.ball(1.0, 4, 16),
    GridDomain.box(((-1.0, 1.0), (0.0, 2.0)), (7, 9)),
    GridDomain.interval(-1.0, 1.0, 12),
], ids=lambda d: d.kind)
def test_export_csv_writes_the_bytes_of_the_per_row_loop(tmp_path, dom):
    rng = np.random.default_rng(5)
    columns = {"f": -rng.random(dom.num_nodes) / 3.0, "K": rng.standard_normal(dom.num_nodes),
               "zero": np.where(dom.boundary, -0.0, 0.0)}
    path = tmp_path / "out.csv"
    export_csv(path, dom, columns)
    _, body = path.read_bytes().split(b"\n", 1)
    want = "".join(",".join(["%.17g" % c for c in dom.coords[i]]
                            + ["%.17g" % a[i] for a in columns.values()]) + "\n"
                   for i in range(dom.num_nodes))
    assert body == want.encode()


# ---- refinement / restriction -------------------------------------------------


@pytest.mark.parametrize("dom", _domains_for_io(), ids=lambda d: d.kind + str(d.shape))
def test_refine_then_restrict_recovers_nodal_values(dom):
    fine = refine_domain(dom, 2)
    assert fine.kind == dom.kind
    assert np.allclose(np.asarray(fine.extent), np.asarray(dom.extent))

    def field(coords):
        return np.sin(coords[:, 0]) + (coords[:, -1] if coords.shape[1] > 1 else 0.0)

    restricted = restrict_values(fine, dom, field(fine.coords))
    # coarse nodes coincide with fine nodes, so sampling is exact
    assert np.array_equal(restricted, field(dom.coords))


def test_restrict_factor_four():
    dom = GridDomain.ball(1.0, 4, 16)
    fine = refine_domain(dom, 4)
    vals = fine.coords[:, 0] ** 2
    back = restrict_values(fine, dom, vals)
    assert np.array_equal(back, dom.coords[:, 0] ** 2)


def test_refine_rejects_bad_factor():
    dom = GridDomain.interval(0.0, 1.0, 8)
    with pytest.raises(OutOfRange):
        refine_domain(dom, 3)
    with pytest.raises(OutOfRange):
        refine_domain(dom, 0)


def test_restrict_rejects_non_refinements():
    coarse = GridDomain.ball(1.0, 4, 16)
    with pytest.raises(DomainMismatch):
        restrict_values(GridDomain.ball(1.0, 6, 16), coarse,
                        np.zeros(1 + 6 * 16))
    with pytest.raises(DomainMismatch):
        restrict_values(GridDomain.ball(2.0, 8, 32), coarse,
                        np.zeros(1 + 8 * 32))
    with pytest.raises(DomainMismatch):
        restrict_values(GridDomain.interval(0.0, 1.0, 6),
                        GridDomain.interval(0.0, 1.0, 4), np.zeros(7))
    with pytest.raises(DomainMismatch):
        restrict_values(GridDomain.interval(0.0, 1.0, 8), coarse, np.zeros(9))


@pytest.mark.parametrize(
    "dom",
    [
        GridDomain.interval(0.0, 1.0, 12),
        GridDomain.box(((0.0, 1.0), (0.0, 2.0)), (6, 7)),
        GridDomain.box(((0.0, 1.0), (0.0, 2.0)), (6, 8), periodic=(False, True)),
        GridDomain.box(((0.0, 1.0), (0.0, 2.0)), (10, 12), periodic=(True, True)),
        GridDomain.annulus(0.5, 1.5, 6, 16),
        GridDomain.ball(1.0, 16, 64),
    ],
    ids=["interval", "box", "periodic-box", "torus", "annulus", "ball"],
)
def test_dissection_order_is_a_permutation(dom):
    order = dom.dissection_order()
    assert np.array_equal(np.sort(order), np.arange(dom.num_nodes))
    assert dom.dissection_order() is order
    if dom.pole is not None:
        assert order[-1] == dom.pole


def test_drop_caches_forgets_and_rebuilds_the_operators():
    from graphcurv.charts import HyperbolicChart
    from graphcurv.linearize import build_DK

    dom = GridDomain.ball(1.0, 8, 32)
    dk = build_DK(HyperbolicChart(n=2, offset=0.5), dom, np.zeros(dom.num_nodes))
    ops, order = dom.derivative_ops(), dom.dissection_order()
    assert dom._frame_cache
    dom.drop_caches()
    assert not dom._frame_cache
    assert dom.derivative_ops() is not ops and dom.dissection_order() is not order
    assert np.array_equal(dom.dissection_order(), order)
    for new, old in zip(dom.derivative_ops().d1, ops.d1):
        assert (new != old).nnz == 0
    again = build_DK(HyperbolicChart(n=2, offset=0.5), dom, np.zeros(dom.num_nodes))
    assert (again.matrix != dk.matrix).nnz == 0


# ---- prolongation --------------------------------------------------------------


_PROLONG_DOMAINS = [
    GridDomain.ball(1.0, 4, 16),
    GridDomain.annulus(0.5, 1.5, 6, 16),
    GridDomain.interval(0.0, 1.0, 6),
    GridDomain.box(((0.0, 1.0), (0.0, 2.0)), (6, 7)),
    GridDomain.box(((0.0, 1.0), (0.0, 2.0)), (6, 8), periodic=(True, True)),
]


@pytest.mark.parametrize(
    "dom", _PROLONG_DOMAINS,
    ids=["ball", "annulus", "interval", "box", "periodic-box"],
)
def test_restrict_undoes_prolong_bitwise(dom):
    fine = refine_domain(dom, 2)
    vals = np.random.default_rng(3).standard_normal(dom.num_nodes)
    prolonged = prolong_values(dom, fine, vals)
    assert prolonged.shape == (fine.num_nodes,)
    assert np.array_equal(restrict_values(fine, dom, prolonged), vals)


@pytest.mark.parametrize(
    "dom",
    [GridDomain.interval(-1.0, 2.0, 6), GridDomain.box(((0.0, 1.0), (-1.0, 2.0)), (5, 7))],
    ids=["interval", "box"],
)
def test_prolong_is_exact_on_cubics(dom):
    def cubic(coords):
        x = coords[:, 0]
        out = 1.0 + 2.0 * x - 3.0 * x**2 + 0.7 * x**3
        if coords.shape[1] > 1:
            y = coords[:, 1]
            out = out * (2.0 - y + 0.5 * y**2 - 0.3 * y**3)
        return out

    fine = refine_domain(dom, 2)
    got = prolong_values(dom, fine, cubic(dom.coords))
    assert np.allclose(got, cubic(fine.coords), rtol=0.0, atol=1e-13)


def test_prolong_on_the_ball_is_fourth_order_through_the_pole():
    def field(dom):
        s, phi = dom.coords[:, 0], dom.coords[:, 1]
        x, y = s * np.cos(phi), s * np.sin(phi)
        return np.exp(0.7 * x - 0.4 * y) * np.cos(1.3 * x * y + 0.5 * y)

    errs, ring1 = [], []
    for nr, nphi in [(8, 32), (16, 64), (32, 128)]:
        coarse = GridDomain.ball(1.0, nr, nphi)
        fine = refine_domain(coarse, 2)
        err = np.abs(prolong_values(coarse, fine, field(coarse)) - field(fine))
        errs.append(err.max())
        ring1.append(err[1:1 + fine.shape[1]].max())
    assert ring1[0] > 0.0
    for a, b in zip(errs, errs[1:]):
        assert a >= 10.0 * b
    for a, b in zip(ring1, ring1[1:]):
        assert a >= 10.0 * b


def test_prolong_rejects_anything_but_a_factor_two_refinement():
    coarse = GridDomain.ball(1.0, 4, 16)
    vals = np.zeros(coarse.num_nodes)
    with pytest.raises(DomainMismatch):
        prolong_values(coarse, refine_domain(coarse, 4), vals)
    with pytest.raises(DomainMismatch):
        prolong_values(coarse, coarse, vals)
    with pytest.raises(DomainMismatch):
        prolong_values(coarse, GridDomain.ball(1.0, 6, 16), vals)
    with pytest.raises(DomainMismatch):
        prolong_values(coarse, GridDomain.ball(2.0, 8, 32), vals)
    with pytest.raises(DomainMismatch):
        prolong_values(coarse, GridDomain.interval(0.0, 1.0, 8), vals)
    with pytest.raises(DomainMismatch):
        prolong_values(coarse, refine_domain(coarse, 2), np.zeros(5))


# ---- coarsening ------------------------------------------------------------------


def test_coarsen_halves_the_ball_down_to_16_rings():
    dom = GridDomain.ball(1.0, 128, 512)
    shapes = [dom.shape]
    while (dom := coarsen_domain(dom, 16)) is not None:
        shapes.append(dom.shape)
    assert shapes == [(129, 512), (65, 256), (33, 128), (17, 64)]


@pytest.mark.parametrize(
    "dom",
    [
        GridDomain.ball(1.0, 32, 128),
        GridDomain.annulus(0.5, 1.5, 32, 64),
        GridDomain.interval(0.0, 1.0, 64),
        GridDomain.box(((0.0, 1.0), (0.0, 2.0)), (33, 65)),
        GridDomain.box(((0.0, 1.0), (0.0, 2.0)), (33, 64), periodic=(False, True)),
    ],
    ids=["ball", "annulus", "interval", "box", "periodic-box"],
)
def test_coarsen_undoes_one_refinement(dom):
    coarse = coarsen_domain(dom, 16)
    assert coarse.kind == dom.kind
    fine = refine_domain(coarse, 2)
    assert fine.shape == dom.shape
    assert np.array_equal(fine.coords, dom.coords)
    assert np.array_equal(fine.boundary, dom.boundary)


@pytest.mark.parametrize(
    "dom",
    [
        GridDomain.ball(1.0, 8, 32),  # 4 rings would be left
        GridDomain.ball(1.0, 32, 136),  # nphi / 2 = 68 is not divisible by 8
        GridDomain.ball(1.0, 33, 128),  # odd number of rings
        GridDomain.interval(0.0, 1.0, 31),
        GridDomain.box(((0.0, 1.0), (0.0, 2.0)), (33, 63), periodic=(False, True)),
        GridDomain.box(((0.0, 1.0), (0.0, 2.0)), (64, 64), periodic=(True, True)),
    ],
    ids=["ball-4-rings", "ball-nphi", "ball-odd", "interval-odd", "box-odd-period",
         "torus"],
)
def test_coarsen_refuses_grids_it_cannot_halve(dom):
    assert coarsen_domain(dom, 16) is None
