"""Finite-difference domains over the model bases.

Supported node layouts:

* ``interval`` — 1-D segment, endpoints are boundary.
* ``box`` — tensor grid, optionally periodic per axis (an ``annulus`` is a box
  with a periodic angular axis and a radial segment that excludes the pole).
* ``ball`` — geodesic polar grid for disk domains: a single pole node plus
  ``nr`` rings of ``nphi`` nodes; the rim ring lies exactly on the boundary
  circle, so Dirichlet data needs no interpolation.

Derivative operators act on flat node vectors.  They return *coordinate*
partials; rows at the ball pole instead hold derivatives in the local
Cartesian chart (xi1, xi2) aligned with the rays phi = 0 and phi = pi/2 (that
chart is what both the curvature assembly and the embedding oracle want at
the pole, where polar frames degenerate).  Rows where no centered stencil
fits (rim/endpoint nodes) are zero; consumers only read interior rows.  An
operator is its weights on every node's 3**n neighbour slots (``Stencils``),
applied by shifted views of the input on the index grid, or as CSR.

All stencils are second-order centered; the node conventions above are chosen
so one-sided differencing is never needed.

Node vectors move between a grid and its ``refine_domain`` refinement by
injection (``restrict_values``) and cubic interpolation (``prolong_values``);
``coarsen_domain`` undoes one factor-2 refinement.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainMismatch, OutOfRange

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
    """Coordinate-partial operators d1[a] and d2[(a, b)], a <= b: as slot
    weights in ``stencils``, ``derivative_stencils``' (Stencils, d1, d2),
    and as the CSR matrices ``d1`` and ``d2``, made on first access."""

    stencils: tuple  # not to be modified

    @functools.cached_property
    def d1(self):
        st, d1, _ = self.stencils
        return tuple(map(st.csr, d1))

    @functools.cached_property
    def d2(self):
        st, _, d2 = self.stencils
        return {ab: st.csr(op) for ab, op in d2.items()}


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
    build_s: float = field(default=0.0, repr=False, compare=False)  # see ``cached``
    _frame_cache: dict = field(default_factory=dict, repr=False, compare=False)

    # ---- constructors ----------------------------------------------------

    @staticmethod
    def interval(lo, hi, cells):
        if cells < 4 or not lo < hi:
            raise OutOfRange("interval grid needs at least 4 cells and lo < hi")
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
        if not len(extent) == len(shape) == len(periodic) == 2 or any(
                len(ab) != 2 for ab in extent):
            raise OutOfRange("box grid needs 2 axes, each with [lo, hi] in extent, "
                             "a node count in shape and a flag in periodic")
        extent = tuple((float(a), float(b)) for a, b in extent)
        shape = tuple(int(m) for m in shape)
        periodic = tuple(bool(p) for p in periodic)
        axes = []
        spacing = []
        for (lo, hi), m, per in zip(extent, shape, periodic):
            if m < 5 or not lo < hi:
                raise OutOfRange("box grid needs at least 5 nodes and lo < hi on every axis")
            h = (hi - lo) / (m if per else m - 1)
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
        if not 0 < r0 < r1:
            raise OutOfRange("annulus grid needs radii 0 < r0 < r1")
        dom = GridDomain.box(((r0, r1), (0.0, TWO_PI)), (nr + 1, nphi),
                             periodic=(False, True))
        dom.kind = "annulus"
        return dom

    @staticmethod
    def ball(radius, nr, nphi):
        """Polar disk grid: pole node + nr rings of nphi nodes, rim on boundary."""
        if nphi < 8 or nphi % 8 != 0:
            raise OutOfRange("ball grid needs nphi a positive multiple of 8")
        if nr < 3 or not radius > 0:
            raise OutOfRange("ball grid needs at least 3 rings and radius > 0")
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

    def cached(self, key, build):
        """``build()``, made on the first call for ``key`` and kept until
        ``drop_caches``.  ``build_s`` adds up the wall time of the builds; a
        build nested in another counts once, inside the outer one.
        """
        hit = self._frame_cache.get(key)
        if hit is None:
            t0, before = time.perf_counter(), self.build_s
            hit = self._frame_cache[key] = build()
            self.build_s = before + (time.perf_counter() - t0)
        return hit

    def derivative_ops(self):
        return self.cached("derivative_ops", lambda: DerivOps(derivative_stencils(self)))

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
        return self.cached("dissection_order", lambda: _dissection_order(self))

    def drop_caches(self):
        """Forget the cached derivative operators, ordering and frame data."""
        self._frame_cache = {}


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
    memo = {}  # the order within a block depends on its shape alone
    out = [b.ravel()[_block_order(b.shape, memo)] for b in blocks] + cuts
    if dom.pole is not None:
        out.append(np.array([dom.pole]))
    return np.concatenate(out)


_DISSECTION_LEAF = 16


def _block_order(shape, memo):
    """Nested-dissection order of a rows x cols block, as row-major positions.

    A block of at most 16 nodes keeps its natural order; a larger one is cut
    by its middle row (or column, when it is wider than tall) into two
    halves, ordered before the cut line.  ``memo`` holds the orders of the
    shapes seen so far.
    """
    if shape not in memo:
        rows, cols = shape
        if rows * cols <= _DISSECTION_LEAF:
            order = np.arange(rows * cols)
        elif rows >= cols:
            mid = rows // 2
            order = np.concatenate([
                _block_order((mid, cols), memo),
                (mid + 1) * cols + _block_order((rows - mid - 1, cols), memo),
                mid * cols + np.arange(cols),
            ])
        else:
            mid, rest = cols // 2, cols - cols // 2 - 1
            left = _block_order((rows, mid), memo)
            right = _block_order((rows, rest), memo)
            order = np.concatenate([
                left // mid * cols + left % mid,
                right // rest * cols + right % rest + mid + 1,
                np.arange(rows) * cols + mid,
            ])
        memo[shape] = order
    return memo[shape]


def _central(h):
    """{offset: weight} of the central first and second differences at spacing h."""
    c = 1.0 / (h * h)
    return {1: 0.5 / h, -1: -0.5 / h}, {1: c, 0: -2 * c, -1: c}


def _axis_weights(weights):
    """{offset: weight} as a (3,) array over the offsets -1, 0, 1."""
    return np.array([weights.get(k, 0.0) for k in (-1, 0, 1)])


_IDENTITY = np.array([0.0, 1.0, 0.0])  # the weights of no difference along an axis


class Stencils:
    """The 3**n-point neighbourhoods of a grid's nodes, and operators on them.

    Slot s of node r is the node at index offset s in {-1, 0, 1}**n
    (row-major; the middle slot is r itself), every axis wrapping around:
    on a non-periodic axis a wrapped slot is never used.  On the ball, ring
    index 0 is the pole, so on ring 1 the three offsets -1 all name the
    pole, as do the rim's unused offsets +1, and the pole's own slots are
    its neighbours in the local Cartesian chart (xi1, xi2): slot (a, b) is
    the ring-1 node in the direction of a xi1 + b xi2 (``pole_cols``).  An
    operator is a dict {slot: (N,) weights}, zero where the slot is not in a
    node's stencil, so operators combine slot by slot.  ``apply`` sums a row
    in slot order, a CSR product in column order; the two differ, at the
    rounding level, only on an edge of the index grid and at the pole.
    """

    def __init__(self, shape, periodic, pole=False):
        self.shape = shape
        self.pole = pole
        # on the ball, ring i >= 1 at angle j is node i * nphi + j - start
        self.start = shape[1] - 1 if pole else 0
        # index-grid slices of the nodes where an axis's differences fit, and
        # of all nodes
        self.fits = [slice(None) if per else slice(1, m - 1) for m, per in zip(shape, periodic)]
        self.whole = [slice(None)] * len(shape)
        # per slot, where apply's rows (from ring 1 on the ball) read ``padded``
        first = [int(pole)] + [0] * (len(shape) - 1)
        self.views = [tuple(slice(a + o, o + m) for a, o, m in zip(first, offset, shape))
                      for offset in itertools.product(range(3), repeat=len(shape))]
        if pole:
            nphi = shape[1]
            eighth = np.array([5, 4, 3, 6, 0, 2, 7, 0, 1])  # slot -> angle / (pi / 4)
            self.pole_cols = np.where(np.arange(9) == 4, 0, 1 + nphi // 8 * eighth)
            self.whole[0] = slice(1, None)

    def stencil(self, weights):
        """(S,) weights of the weights[a] ((3,) arrays) along each axis a of
        ``weights``, no difference along the others."""
        along = [weights.get(a, _IDENTITY) for a in range(len(self.shape))]
        return functools.reduce(np.multiply.outer, along).ravel()

    def op(self, weights, pole=None):
        """The operator of ``stencil(weights)`` on every node where all axes
        of ``weights`` fit (all nodes of a periodic axis, else the inner
        ones); ``pole`` is the (S,) stencil of the ball pole's row."""
        stencil = self.stencil(weights)
        slots = [int(s) for s in np.flatnonzero(stencil)]
        at = tuple(self.fits[a] if a in weights else whole for a, whole in enumerate(self.whole))
        out = np.zeros((len(slots), np.prod(self.shape)))
        out.reshape((len(slots),) + self.shape)[(slice(None),) + at] = (
            stencil[slots].reshape((-1,) + (1,) * len(self.shape)))
        out = out[:, self.start:]
        if pole is not None:
            out[:, 0] = pole[slots]
        return dict(zip(slots, out))

    def padded(self, v):
        """(N,) or (N, k) values ``v`` on the index grid, wrapped one node
        past both ends of every axis; on the ball, index row 0 holds the
        pole's value, so the slots that name the pole read it."""
        grid = np.empty(tuple(m + 2 for m in self.shape) + v.shape[1:])
        inner = grid[(slice(1, -1),) * len(self.shape)]
        if self.pole:
            inner[0] = v[0]
            inner, v = inner[1:], v[1:]
        inner[...] = v.reshape(inner.shape)
        for ax, m in enumerate(self.shape):  # the wrapped ends of earlier axes too
            lead = (slice(None),) * ax
            grid[lead + (0,)] = grid[lead + (m,)]
            grid[lead + (m + 1,)] = grid[lead + (1,)]
        return grid

    def apply(self, op, v, padded=None):
        """op @ v for (N,) or (N, k) values ``v``: per row, weight times value
        summed over the slots of ``op`` in ascending order, the first term
        assigned rather than added to 0; the ball pole's row is a dot over
        ``pole_cols``.  ``padded`` is ``padded(v)`` when the caller has it."""
        grid = self.padded(v) if padded is None else padded
        rows = slice(int(self.pole), None)
        out = np.empty(v.shape)
        body = out[rows].reshape(grid[self.views[0]].shape)
        shape = body.shape[:len(self.shape)] + (1,) * (v.ndim - 1)
        first, *rest = slots = sorted(op)
        np.multiply(op[first][rows].reshape(shape), grid[self.views[first]], out=body)
        for s in rest:
            body += op[s][rows].reshape(shape) * grid[self.views[s]]
        if self.pole:
            terms = [op[s][0] * v[self.pole_cols[s]] for s in slots]
            out[0] = sum(terms[1:], terms[0])
        return out

    def csr(self, op):
        """The CSR matrix of ``op``: its nonzero weights, each row's in
        column order, a slot's column being the node ``apply`` reads there."""
        import scipy.sparse as sp  # only a CSR needs scipy

        slots = sorted(op)
        weights = np.stack([op[s] for s in slots], axis=1)
        num, k = weights.shape
        nodes = self.padded(np.arange(num, dtype=float))
        cols = np.empty((num, k), dtype=np.int32)
        for i, s in enumerate(slots):
            cols[int(self.pole):, i] = nodes[self.views[s]].ravel()
        if self.pole:
            cols[0] = self.pole_cols[slots]
        indptr = np.arange(0, num * k + 1, k, dtype=np.int32)
        out = sp.csr_matrix((weights.ravel(), cols.ravel(), indptr), shape=(num, num))
        out.eliminate_zeros()
        out.sort_indices()
        return out


def derivative_stencils(dom):
    """(stencils, d1, d2): the derivative operators as ``Stencils`` operators.

    Central differences along each axis and their products for the mixed
    derivative.  On the ball the angular second derivative stops short of
    the rim and the mixed one skips the pole (d/dphi vanishes there); the
    pole row holds Cartesian differences of spacing ds in (xi1, xi2), the
    mixed one over the four 45-degree neighbours.
    """
    ball = dom.kind == "ball"
    st = Stencils(dom.shape, dom.periodic, pole=ball)
    first, second = zip(*([_axis_weights(w) for w in _central(h)] for h in dom.spacing))
    axes = range(dom.n)
    pole = {}
    if ball:
        ds = dom.spacing[0]
        sign = np.array([-1.0, 0.0, 1.0])
        pole = {0: st.stencil({0: first[0]}), 1: st.stencil({1: first[0]}),
                (0, 0): st.stencil({0: second[0]}), (1, 1): st.stencil({1: second[0]}),
                (0, 1): 0.5 / (ds * ds) * st.stencil({0: sign, 1: sign})}
    d1 = [st.op({a: first[a]}, pole.get(a)) for a in axes]
    d2 = {(a, b): st.op({a: first[a], b: first[b]} if a < b else {a: second[a]},
                        pole.get((a, b)))
          for a in axes for b in axes if a <= b}
    if ball:
        nphi = dom.shape[1]
        for w in d2[(1, 1)].values():
            w[-nphi:] = 0.0
        for s in (0, 2):  # ring 1, slots (-1, -1) and (-1, 1)
            d2[(0, 1)][s][1:1 + nphi] = 0.0
    return st, d1, d2


# ---- grid file I/O ---------------------------------------------------------


def _boundary_rle(mask):
    """'start:length' of every run of True in ``mask``, comma-separated."""
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    return ",".join(f"{i}:{j - i}" for i, j in zip(edges[::2], edges[1::2]))


_ENCODING = "<f8"  # the values: raw little-endian float64, in node order


def save_grid(path, domain, values, chart_id):
    """Write a grid file: one JSON header line, then the values as raw
    little-endian float64 (header key ``encoding``), so each value, NaN
    payloads and -0 included, reads back bitwise."""
    values = domain.check_values(values)
    header = {
        "shape": list(domain.shape),
        "spacing": list(domain.spacing),
        "chart": chart_id,
        "boundary": _boundary_rle(domain.boundary),
        "layout": domain.kind,
        "extent": [list(ab) for ab in domain.extent],
        "periodic": [int(p) for p in domain.periodic],
        "encoding": _ENCODING,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(np.ascontiguousarray(values, dtype=_ENCODING))


def load_grid(path):
    """Read a grid file; returns (domain, values, chart_id).

    A header that is not one JSON object holding the keys ``save_grid``
    writes (``periodic`` may be left out) with values of their types, or
    whose ``encoding`` is not "<f8", raises ConfigError; so does a text grid
    file, which has no ``encoding``.  The domain is rebuilt from the header
    and cross-checked against the stored boundary mask; any inconsistency
    raises DomainMismatch.  A payload that is not a whole number of 8-byte
    values raises ValueError, and one of another number of values than the
    grid has nodes raises DomainMismatch.
    """
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}: malformed grid header: {exc.msg}")
        if not isinstance(header, dict):
            raise ConfigError(f"{path}: malformed grid header: not a JSON object")
        for key in ("layout", "shape", "extent", "spacing", "boundary", "chart", "encoding"):
            if key not in header:
                raise ConfigError(f"{path}: malformed grid header: missing key {key!r}")
        if header["encoding"] != _ENCODING:
            raise ConfigError(f"{path}: malformed grid header: 'encoding': "
                              f"{header['encoding']!r} is not {_ENCODING!r}")

        def field(key, convert, default=None):
            try:
                return convert(header.get(key, default))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{path}: malformed grid header: {key!r}: {exc}") from None

        shape = field("shape", lambda v: tuple(int(m) for m in v))
        periodic = field("periodic", lambda v: tuple(bool(p) for p in v), [0] * len(shape))
        extent = field("extent", lambda v: tuple((float(a), float(b)) for a, b in v))
        dom = _grid(field("layout", str.__str__), extent, shape, periodic)  # str or TypeError
        if not np.allclose(dom.spacing, field("spacing", lambda v: np.array(v, dtype=float))):
            raise DomainMismatch("grid spacing in header does not match layout")
        if _boundary_rle(dom.boundary) != header["boundary"]:
            raise DomainMismatch("boundary mask in header does not match layout")
        # read only now, so the payload is not held while the grid is built
        payload = fh.read()
    if len(payload) % 8:
        raise ValueError(f"{len(payload)} bytes of values, not a whole number of 8-byte values")
    values = np.frombuffer(payload, dtype=_ENCODING).astype(float)
    if values.shape[0] != dom.num_nodes:
        raise DomainMismatch(
            f"{values.shape[0]} values for {dom.num_nodes} nodes"
        )
    return dom, values, header["chart"]


def _cells(domain):
    """Cells per axis: nodes on a periodic axis, nodes - 1 on any other."""
    return [m if per else m - 1 for m, per in zip(domain.shape, domain.periodic)]


def _grid(kind, extent, shape, periodic):
    """The grid of ``kind`` over ``extent`` with ``shape`` nodes per axis;
    only a box reads ``periodic``."""
    if kind == "ball":
        return GridDomain.ball(extent[0][1], shape[0] - 1, shape[1])
    if kind == "annulus":
        return GridDomain.annulus(*extent[0], shape[0] - 1, shape[1])
    if kind == "interval":
        return GridDomain.interval(*extent[0], shape[0] - 1)
    if kind == "box":
        return GridDomain.box(extent, shape, periodic)
    raise DomainMismatch(f"unknown grid layout {kind!r}")


def _with_cells(domain, cells):
    """A grid of ``domain``'s kind and extent with ``cells`` cells per axis."""
    shape = [c if per else c + 1 for c, per in zip(cells, domain.periodic)]
    return _grid(domain.kind, domain.extent, shape, domain.periodic)


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
    table = np.column_stack([domain.coords, *arrs])
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(coord_names + names) + "\n")
        fh.write((row * len(table)) % tuple(table.ravel().tolist()))
