"""Finite-difference domains over the model bases.

Supported node layouts:

* ``interval`` — 1-D segment, endpoints are boundary.
* ``box`` — tensor grid, optionally periodic per axis (an ``annulus`` is a box
  with a periodic angular axis and a radial segment that excludes the pole).
* ``ball`` — geodesic polar grid for disk domains: a single pole node plus
  ``nr`` rings of ``nphi`` nodes; the rim ring lies exactly on the boundary
  circle, so Dirichlet data needs no interpolation.

Derivative operators are sparse matrices over flat node vectors.  They return
*coordinate* partials; rows at the ball pole instead hold derivatives in the
local Cartesian chart (xi1, xi2) aligned with the rays phi = 0 and phi = pi/2
(that chart is what both the curvature assembly and the embedding oracle want
at the pole, where polar frames degenerate).  Rows where no centered stencil
fits (rim/endpoint nodes) are zero; consumers only read interior rows.

All stencils are second-order centered; the node conventions above are chosen
so one-sided differencing is never needed.

Node vectors move between a grid and its ``refine_domain`` refinement by
injection (``restrict_values``) and cubic interpolation (``prolong_values``);
``coarsen_domain`` undoes one factor-2 refinement.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DomainMismatch, OutOfRange

__all__ = [
    "GridDomain",
    "DerivOps",
    "save_grid",
    "load_grid",
    "export_csv",
    "refine_domain",
    "coarsen_domain",
    "restrict_values",
    "prolong_values",
]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class DerivOps:
    """Coordinate-partial operators: d1[a] and d2[(a, b)] with a <= b."""

    d1: tuple
    d2: dict


@dataclass(eq=False)
class GridDomain:
    kind: str  # 'interval' | 'box' | 'annulus' | 'ball'
    shape: tuple
    spacing: tuple
    extent: tuple  # ((lo, hi), ...) per axis
    periodic: tuple
    coords: np.ndarray  # (N, n)
    boundary: np.ndarray  # (N,) bool
    pole: int | None = None
    _ops: DerivOps | None = field(default=None, repr=False, compare=False)
    _order: np.ndarray | None = field(default=None, repr=False, compare=False)
    _frame_cache: dict = field(default_factory=dict, repr=False, compare=False)

    # ---- constructors ----------------------------------------------------

    @staticmethod
    def interval(lo, hi, cells):
        if cells < 4:
            raise OutOfRange("interval grid needs at least 4 cells")
        h = (hi - lo) / cells
        coords = (lo + h * np.arange(cells + 1))[:, None]
        boundary = np.zeros(cells + 1, dtype=bool)
        boundary[0] = boundary[-1] = True
        return GridDomain(
            kind="interval",
            shape=(cells + 1,),
            spacing=(h,),
            extent=((float(lo), float(hi)),),
            periodic=(False,),
            coords=coords,
            boundary=boundary,
        )

    @staticmethod
    def box(extent, shape, periodic=(False, False)):
        extent = tuple((float(a), float(b)) for a, b in extent)
        shape = tuple(int(m) for m in shape)
        periodic = tuple(bool(p) for p in periodic)
        axes = []
        spacing = []
        for (lo, hi), m, per in zip(extent, shape, periodic):
            if m < 5:
                raise OutOfRange("box grid needs at least 5 nodes per axis")
            if per:
                h = (hi - lo) / m
                axes.append(lo + h * np.arange(m))
            else:
                h = (hi - lo) / (m - 1)
                axes.append(lo + h * np.arange(m))
            spacing.append(h)
        grids = np.meshgrid(*axes, indexing="ij")
        coords = np.stack([g.ravel() for g in grids], axis=-1)
        boundary = np.zeros(coords.shape[0], dtype=bool)
        for ax, per in enumerate(periodic):
            if per:
                continue
            idx = grids[ax].ravel()
            boundary |= np.isclose(idx, extent[ax][0]) | np.isclose(idx, extent[ax][1])
        return GridDomain(
            kind="box",
            shape=shape,
            spacing=tuple(spacing),
            extent=extent,
            periodic=periodic,
            coords=coords,
            boundary=boundary,
        )

    @staticmethod
    def annulus(r0, r1, nr, nphi):
        if r0 <= 0:
            raise OutOfRange("annulus inner radius must be positive")
        dom = GridDomain.box(((r0, r1), (0.0, TWO_PI)), (nr + 1, nphi),
                             periodic=(False, True))
        dom.kind = "annulus"
        return dom

    @staticmethod
    def ball(radius, nr, nphi):
        """Polar disk grid: pole node + nr rings of nphi nodes, rim on boundary."""
        if nphi % 8 != 0:
            raise OutOfRange("ball grid needs nphi divisible by 8")
        if nr < 3:
            raise OutOfRange("ball grid needs at least 3 rings")
        ds = radius / nr
        dphi = TWO_PI / nphi
        num = 1 + nr * nphi
        coords = np.zeros((num, 2))
        ii, jj = np.meshgrid(np.arange(1, nr + 1), np.arange(nphi), indexing="ij")
        coords[1:, 0] = (ii * ds).ravel()
        coords[1:, 1] = (jj * dphi).ravel()
        boundary = np.zeros(num, dtype=bool)
        boundary[1 + (nr - 1) * nphi:] = True
        return GridDomain(
            kind="ball",
            shape=(nr + 1, nphi),
            spacing=(ds, dphi),
            extent=((0.0, float(radius)), (0.0, TWO_PI)),
            periodic=(False, True),
            coords=coords,
            boundary=boundary,
            pole=0,
        )

    # ---- basic queries ----------------------------------------------------

    @property
    def n(self):
        return len(self.shape)

    @property
    def num_nodes(self):
        return self.coords.shape[0]

    @property
    def layout(self):
        if self.kind == "interval":
            return "interval"
        if self.kind == "box":
            return "cartesian"
        return "polar"

    @property
    def interior(self):
        return ~self.boundary

    def node_index(self, i, j=None):
        if self.kind == "ball":
            if i == 0:
                return 0
            return 1 + (i - 1) * self.shape[1] + (j % self.shape[1])
        if j is None:
            return i
        return i * self.shape[1] + j

    def check_compatible(self, other):
        same = (
            self.kind == other.kind
            and self.shape == other.shape
            and np.allclose(self.spacing, other.spacing)
            and np.allclose(np.asarray(self.extent), np.asarray(other.extent))
        )
        if not same:
            raise DomainMismatch(
                f"grids differ: {self.kind}{self.shape} vs {other.kind}{other.shape}"
            )

    def check_values(self, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (self.num_nodes,):
            raise DomainMismatch(
                f"value vector has shape {values.shape}, expected ({self.num_nodes},)"
            )
        return values

    # ---- derivative operators ---------------------------------------------

    def derivative_ops(self):
        if self._ops is None:
            if self.kind == "ball":
                self._ops = _ball_ops(self)
            elif self.kind == "interval":
                self._ops = _interval_ops(self)
            else:
                self._ops = _box_ops(self)
        return self._ops

    def dissection_order(self):
        """Nested-dissection elimination order of the nodes (computed once).

        ``order[k]`` is the node eliminated k-th.  The index grid is cut
        recursively by single grid lines (each derivative stencil reaches one
        line to either side, so one line separates) across its longer side,
        each half ordered before its separator, down to blocks of at most
        16 nodes kept in natural order.  A periodic axis is first cut at
        index 0 and at its midpoint, the ball pole, which couples to the
        whole first ring, comes last, and an interval keeps its natural
        (already fill-free) order.
        """
        if self._order is None:
            self._order = _dissection_order(self)
        return self._order

    def drop_caches(self):
        """Forget the cached derivative operators, ordering and frame data."""
        self._ops, self._order, self._frame_cache = None, None, {}


def _dissection_order(dom):
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
        _dissect(b, out)
    out += cuts
    if dom.pole is not None:
        out.append(np.array([dom.pole]))
    return np.concatenate(out)


_DISSECTION_LEAF = 16


def _dissect(block, out):
    """Append the nested-dissection order of a 2-D block of node ids to out."""
    rows, cols = block.shape
    if block.size <= _DISSECTION_LEAF:
        out.append(block.ravel())
    elif rows >= cols:
        mid = rows // 2
        _dissect(block[:mid], out)
        _dissect(block[mid + 1:], out)
        out.append(block[mid])
    else:
        mid = cols // 2
        _dissect(block[:, :mid], out)
        _dissect(block[:, mid + 1:], out)
        out.append(block[:, mid])


def _1d_stencil(m, weights, periodic):
    """m x m CSR matrix applying ``weights`` ({offset: weight}) along one axis.

    Periodic axes wrap every row around; otherwise rows 0 and m-1 stay zero.
    """
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


def _central(h):
    """{offset: weight} of the central first and second differences at spacing h."""
    c = 1.0 / (h * h)
    return {1: 0.5 / h, -1: -0.5 / h}, {1: c, 0: -2 * c, -1: c}


def _interval_ops(dom):
    (m,) = dom.shape
    (h,) = dom.spacing
    d1, d2 = (_1d_stencil(m, w, False) for w in _central(h))
    return DerivOps(d1=(d1,), d2={(0, 0): d2})


def _box_ops(dom):
    m0, m1 = dom.shape
    h0, h1 = dom.spacing
    p0, p1 = dom.periodic
    i0 = sp.identity(m0, format="csr")
    i1 = sp.identity(m1, format="csr")
    a1, a2 = (_1d_stencil(m0, w, p0) for w in _central(h0))
    b1, b2 = (_1d_stencil(m1, w, p1) for w in _central(h1))
    d1 = (sp.kron(a1, i1).tocsr(), sp.kron(i0, b1).tocsr())
    d2 = {
        (0, 0): sp.kron(a2, i1).tocsr(),
        (0, 1): sp.kron(a1, b1).tocsr(),
        (1, 1): sp.kron(i0, b2).tocsr(),
    }
    return DerivOps(d1=d1, d2=d2)


def _ball_ops(dom):
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
        r = []
        c = []
        v = []
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
    # radial first derivative; pole row = d/dxi1 along the phi = 0 axis
    d_s = build(
        [(1, 0, 0.5 / ds), (-1, 0, -0.5 / ds)],
        [(idx(1, 0), 0.5 / ds), (idx(1, 2 * q), -0.5 / ds)],
    )
    # angular first derivative on rings (no pole row yet); rows exist on the
    # rim ring too, because the mixed product needs them there
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
    # consumer-facing angular derivative: pole row = d/dxi2 along phi = pi/2
    pole_xi2 = sp.coo_matrix(
        (
            [0.5 / ds, -0.5 / ds],
            ([0, 0], [idx(1, q), idx(1, 3 * q)]),
        ),
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
    # mixed derivative: radial-centered composition of the ring angular
    # derivative (the pole column contributes zero, as d_phi vanishes there),
    # with the product's pole row replaced by a 45-degree pole stencil for
    # the xi1-xi2 derivative
    d_sp = d_s @ d_phi_ring
    d_sp.sort_indices()
    cut = d_sp.indptr[1]  # end of the product's pole row
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

    return DerivOps(d1=(d_s, d_phi), d2={(0, 0): d_ss, (0, 1): d_sp, (1, 1): d_pp})


# ---- grid file I/O ---------------------------------------------------------


def _boundary_rle(mask):
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


def save_grid(path, domain, values, chart_id):
    """Write a grid file: one JSON header line + one %.17g value per line."""
    values = domain.check_values(values)
    header = {
        "shape": list(domain.shape),
        "spacing": list(domain.spacing),
        "chart": chart_id,
        "boundary": _boundary_rle(domain.boundary),
        "layout": domain.kind,
        "extent": [list(ab) for ab in domain.extent],
        "periodic": [int(p) for p in domain.periodic],
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for v in values:
            fh.write("%.17g\n" % v)


def load_grid(path):
    """Read a grid file; returns (domain, values, chart_id).

    The domain is rebuilt from the header and cross-checked against the
    stored boundary mask; any inconsistency raises DomainMismatch.  The
    values are parsed in one call; blank lines are skipped, and a line that
    is not one number raises ValueError.
    """
    with open(path) as fh:
        header = json.loads(fh.readline())
        with warnings.catch_warnings():
            # a file without values is reported below, as a count mismatch
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            values = np.loadtxt(fh, dtype=float, comments=None, ndmin=2)
    if values.shape[1] != 1:
        raise ValueError(f"{values.shape[1]} values on a line, expected one")
    values = values[:, 0]
    kind = header["layout"]
    shape = tuple(int(m) for m in header["shape"])
    extent = tuple(tuple(ab) for ab in header["extent"])
    if kind == "ball":
        dom = GridDomain.ball(extent[0][1], shape[0] - 1, shape[1])
    elif kind == "annulus":
        dom = GridDomain.annulus(extent[0][0], extent[0][1], shape[0] - 1, shape[1])
    elif kind == "box":
        periodic = tuple(bool(p) for p in header.get("periodic", [0] * len(shape)))
        dom = GridDomain.box(extent, shape, periodic)
    elif kind == "interval":
        dom = GridDomain.interval(extent[0][0], extent[0][1], shape[0] - 1)
    else:
        raise DomainMismatch(f"unknown grid layout {kind!r}")
    if not np.allclose(dom.spacing, header["spacing"]):
        raise DomainMismatch("grid spacing in header does not match layout")
    if _boundary_rle(dom.boundary) != header["boundary"]:
        raise DomainMismatch("boundary mask in header does not match layout")
    if values.shape[0] != dom.num_nodes:
        raise DomainMismatch(
            f"{values.shape[0]} values for {dom.num_nodes} nodes"
        )
    return dom, values, header["chart"]


def _cells(domain):
    """Cells per axis: nodes on a periodic axis, nodes - 1 on any other."""
    return [m if per else m - 1 for m, per in zip(domain.shape, domain.periodic)]


def _with_cells(domain, cells):
    """A grid of ``domain``'s kind and extent with ``cells`` cells per axis."""
    if domain.kind == "ball":
        return GridDomain.ball(domain.extent[0][1], *cells)
    if domain.kind == "annulus":
        (r0, r1), _ = domain.extent
        return GridDomain.annulus(r0, r1, *cells)
    if domain.kind == "interval":
        (lo, hi), = domain.extent
        return GridDomain.interval(lo, hi, *cells)
    shape = [c if per else c + 1 for c, per in zip(cells, domain.periodic)]
    return GridDomain.box(domain.extent, shape, domain.periodic)


def refine_domain(domain, factor=2):
    """Same extent, mesh halved ``factor`` must be a power of 2 >= 1."""
    if factor < 1 or factor & (factor - 1):
        raise OutOfRange("refinement factor must be a power of two")
    return _with_cells(domain, [factor * c for c in _cells(domain)])


def coarsen_domain(domain, min_cells):
    """The grid whose ``refine_domain(., 2)`` is ``domain``, or None.

    None when an axis has an odd number of cells, when the halved grid is
    not a valid grid (a ball needs nphi divisible by 8), or when its
    shortest non-periodic axis would keep fewer than ``min_cells`` cells.
    """
    cells = _cells(domain)
    spans = [c for c, per in zip(cells, domain.periodic) if not per]
    if any(c % 2 for c in cells) or min(spans, default=0) < 2 * min_cells:
        return None
    try:
        return _with_cells(domain, [c // 2 for c in cells])
    except OutOfRange:
        return None


def _refinement_ratio(fine, coarse):
    """k with ``fine`` shaped as ``refine_domain(coarse, k)``; else DomainMismatch."""
    if fine.kind != coarse.kind:
        raise DomainMismatch(f"cannot map {fine.kind} onto {coarse.kind}")
    ratios = {f // c for f, c in zip(_cells(fine), _cells(coarse))}
    ratio = ratios.pop()
    try:
        ok = not ratios and ratio >= 1 and refine_domain(coarse, ratio).shape == fine.shape
    except OutOfRange:
        ok = False
    if not ok or not np.allclose(np.asarray(fine.extent), np.asarray(coarse.extent)):
        raise DomainMismatch(
            f"{fine.kind}{fine.shape} is not a refinement of {coarse.shape}"
        )
    return ratio


def restrict_values(fine, coarse, values):
    """Sample a fine-grid node vector at the coarse grid's nodes (injection).

    The fine grid must be ``refine_domain(coarse, 2**k)`` for some k; every
    coarse node then coincides with a fine node and the restriction copies
    its value exactly, with no averaging.  The partner of
    :func:`prolong_values`: restricting a prolonged vector gives the coarse
    vector back bitwise.
    """
    values = fine.check_values(values)
    ratio = _refinement_ratio(fine, coarse)
    if coarse.kind == "ball":
        rings = values[1:].reshape(fine.shape[0] - 1, fine.shape[1])
        return np.concatenate([values[:1], rings[ratio - 1::ratio, ::ratio].ravel()])
    return values.reshape(fine.shape)[(slice(None, None, ratio),) * fine.n].ravel()


def _refine_axis(v, axis, periodic):
    """Nodes of ``v`` along ``axis`` interleaved with cubic midpoint values.

    Interior midpoints take the centered weights (-1, 9, 9, -1)/16; a
    periodic axis wraps, and the first and last midpoints of a non-periodic
    one take the one-sided cubic (5, 15, -5, 1)/16 and its mirror image.
    """
    v = np.moveaxis(v, axis, 0)
    if periodic:
        a, b, c, d = np.roll(v, 1, 0), v, np.roll(v, -1, 0), np.roll(v, -2, 0)
        mid = (9.0 * (b + c) - (a + d)) / 16.0
    else:
        mid = np.empty((v.shape[0] - 1,) + v.shape[1:])
        mid[1:-1] = (9.0 * (v[1:-2] + v[2:-1]) - (v[:-3] + v[3:])) / 16.0
        mid[0] = (5.0 * v[0] + 15.0 * v[1] - 5.0 * v[2] + v[3]) / 16.0
        mid[-1] = (5.0 * v[-1] + 15.0 * v[-2] - 5.0 * v[-3] + v[-4]) / 16.0
    out = np.empty((v.shape[0] + mid.shape[0],) + v.shape[1:])
    out[0::2] = v
    out[1::2] = mid
    return np.moveaxis(out, 0, axis)


def prolong_values(coarse, fine, values):
    """Cubic interpolation of a coarse-grid node vector onto ``fine``.

    ``fine`` must be ``refine_domain(coarse, 2)`` (else DomainMismatch).
    Coarse nodes are copied exactly; the new nodes are filled axis by axis
    with 4-point cubic midpoint weights (see ``_refine_axis``), so the result
    is exact for polynomials of degree 3 in each Cartesian grid coordinate.
    On the ball the radial stencil of each ray continues through the pole
    onto the opposite ray (ring 1 rotated by pi); the angular axis wraps.
    """
    values = coarse.check_values(values)
    if _refinement_ratio(fine, coarse) != 2:
        raise DomainMismatch(
            f"{fine.kind}{fine.shape} is not the factor-2 refinement of {coarse.shape}"
        )
    if coarse.kind == "ball":
        nphi = coarse.shape[1]
        rings = values[1:].reshape(coarse.shape[0] - 1, nphi)
        # one ray through the pole: ring 1 at phi + pi, pole, rings 1..nr at phi
        ray = np.concatenate(
            [np.roll(rings[:1], -nphi // 2, axis=1), np.full((1, nphi), values[0]), rings]
        )
        radial = _refine_axis(ray, 0, False)[3:]  # fine rings 1..2 nr
        return np.concatenate([values[:1], _refine_axis(radial, 1, True).ravel()])
    out = values.reshape(coarse.shape)
    for axis, per in enumerate(coarse.periodic):
        out = _refine_axis(out, axis, per)
    return out.ravel()


def export_csv(path, domain, columns):
    """Write per-node columns (dict name -> array) with coordinates, as CSV."""
    names = list(columns)
    arrs = [domain.check_values(columns[k]) for k in names]
    coord_names = {"interval": ["s"], "cartesian": ["x", "y"], "polar": ["s", "phi"]}[
        domain.layout
    ]
    with open(path, "w") as fh:
        fh.write(",".join(coord_names + names) + "\n")
        for i in range(domain.num_nodes):
            cells = ["%.17g" % c for c in domain.coords[i]]
            cells += ["%.17g" % a[i] for a in arrs]
            fh.write(",".join(cells) + "\n")
