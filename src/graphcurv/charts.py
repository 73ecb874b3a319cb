"""Model charts: flat slab, hyperbolic equidistant family, warped epsilon family.

A chart packages everything the rest of the library needs to know about the
ambient model space seen by graphs over a fixed base hypersurface:

* the warped profile c(t) — the slice at graph height t carries the metric
  c(t)^2 g_N, and the base (t = 0) carries h = c(0)^2 g_N;
* ambient coordinates with ``metric_at`` / ``connection_form_at``;
* an isometric embedding into the flat (or Minkowski) model space, used by the
  independent curvature oracle;
* base hypersurface data: shape coefficient a0 and base curvature phi0.

Conventions
-----------
Graphs are functions f <= 0 over the base with f = 0 on the boundary; the
graph point over x at value t sits on the slice with warp c(t).  The
orientation field V_t = dX/dt (chart vertical along the embedding) selects the
unit normal via <nu, V_t> > 0; with that normal, admissible graphs
(Hess f + Psi positive definite) have positive extrinsic curvature.

Frame quantities (gradient p, Hessian H) are always taken in h-orthonormal
frames of the base.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfChart, OutOfRange

__all__ = [
    "alpha_of_theta",
    "theta_of_alpha",
    "equidistant_curvature",
    "ConnectionForm",
    "BaseHypersurface",
    "EuclideanChart",
    "HyperbolicChart",
    "EpsilonChart",
]


def alpha_of_theta(theta):
    """Signed normal height of the conformal slice at angle theta.

    The conformal vertical coordinate theta in (-pi/2, pi/2) and the signed
    geodesic height alpha of the corresponding equidistant slice are related
    by cos(theta) * cosh(alpha) = 1 with matching signs.
    """
    theta = np.asarray(theta, dtype=float)
    if np.any(np.abs(theta) >= 0.5 * np.pi):
        raise OutOfChart("conformal angle must lie in (-pi/2, pi/2)")
    return np.sign(theta) * np.arccosh(1.0 / np.cos(theta))


def theta_of_alpha(alpha):
    """Inverse of :func:`alpha_of_theta`."""
    alpha = np.asarray(alpha, dtype=float)
    return np.sign(alpha) * np.arccos(1.0 / np.cosh(alpha))


def equidistant_curvature(dist):
    """Extrinsic curvature of the equidistant hypersurface at height dist."""
    return np.tanh(dist)


@dataclass(frozen=True)
class ConnectionForm:
    """Difference tensor Omega between the ambient and product connections.

    ``tensor[..., k, i, j]`` is the k-th coordinate component of
    Omega(d_i, d_j) at the evaluation point(s); the vertical coordinate is
    always the last index.
    """

    tensor: np.ndarray


@dataclass(frozen=True)
class BaseHypersurface:
    """Base hypersurface data: isotropic shape coefficient and curvature.

    The shape operator of every model base is a0 * Id in h-orthonormal
    frames, so its extrinsic curvature is phi0 = a0 (n-th root of det).
    """

    chart: "Chart"
    a0: float
    phi0: float


class Chart:
    """Common behaviour for the model charts."""

    n: int

    # ---- warped profile -------------------------------------------------

    def warp(self, t):
        """Return (c, c', c'') of the slice warp at graph height t."""
        raise NotImplementedError

    @property
    def c0(self):
        c, _, _ = self.warp(0.0)
        return float(c)

    def base_warp(self, s):
        """Polar warp (W, W') of the base metric ds^2 + W(s)^2 dphi^2."""
        raise NotImplementedError

    # ---- ambient coordinates --------------------------------------------

    def metric_at(self, points):
        """Ambient metric matrix at chart coordinates, shape (..., m, m)."""
        raise NotImplementedError

    def connection_form_at(self, points):
        """Connection difference :class:`ConnectionForm` at chart coordinates."""
        raise NotImplementedError

    def graph_coords(self, base, t, layout):
        """Chart coordinates of the graph point over ``base`` at height t."""
        raise NotImplementedError

    def frame_coefficients(self, base, layout):
        """Per-node kappa_a with E_a = kappa_a * d/d(grid coordinate a).

        The h-orthonormal base frames are axis-aligned in grid coordinates
        for every supported layout: kappa = 1 on Cartesian/interval axes and
        (1, 1/W) on polar grids.
        """
        base = np.asarray(base, dtype=float)
        if layout in ("cartesian", "interval"):
            return np.ones(base.shape[:-1] + (self.n,))
        if layout == "polar":
            w, _ = self.base_warp(base[..., 0])
            return np.stack([np.ones_like(w), 1.0 / w], axis=-1)
        raise OutOfRange(f"unsupported base layout {layout!r}")

    # ---- graph (Fermi) coordinates ---------------------------------------
    #
    # Grid coordinates plus the graph height t as the last coordinate.  The
    # warped structure gives closed forms; the epsilon chart overrides these
    # to route through its own metric_at / connection_form_at instead, so its
    # curvature assembly is built numerically from the coordinate API.

    def graph_metric_at(self, base, t, layout):
        """Ambient metric in graph coordinates (grid axes..., t), vertical last."""
        base = np.asarray(base, dtype=float)
        t = np.asarray(t, dtype=float)
        c, _, _ = self.warp(t)
        rho2 = (c / self.c0) ** 2
        one = np.ones_like(rho2)
        if layout == "interval":
            return _diag_metric([rho2, one])
        if layout == "polar":
            w, _ = self.base_warp(base[..., 0])
            return _diag_metric([rho2, rho2 * w * w, one])
        if layout == "cartesian":
            return _diag_metric([rho2] * self.n + [one])
        raise OutOfRange(f"unsupported base layout {layout!r}")

    def graph_connection_form_at(self, base, t, layout):
        """Connection difference in graph coordinates, vertical last."""
        base = np.asarray(base, dtype=float)
        t = np.asarray(t, dtype=float)
        c, cp, _ = self.warp(t)
        c02 = self.c0**2
        m = self.n + 1
        om = np.zeros(np.asarray(t).shape + (m, m, m))
        ccp = c * cp / c02
        rat = cp / c
        if layout == "polar":
            w, _ = self.base_warp(base[..., 0])
            om[..., m - 1, 0, 0] = -ccp
            om[..., m - 1, 1, 1] = -ccp * w * w
        else:
            for i in range(self.n):
                om[..., m - 1, i, i] = -ccp
        for i in range(self.n):
            om[..., i, i, m - 1] = rat
            om[..., i, m - 1, i] = rat
        return ConnectionForm(om)

    # ---- model embedding -------------------------------------------------

    minkowski: bool = False

    def embed(self, base, t, layout):
        """Embed graph points into the flat/Minkowski model, shape (N, m)."""
        raise NotImplementedError

    def vertical(self, base, t, layout):
        """Unit vector field dX/dt along the embedded graph."""
        raise NotImplementedError

    # ---- base hypersurface ------------------------------------------------

    def base_hypersurface(self):
        a0 = float(self.constant_slice_curvature(0.0))
        return BaseHypersurface(chart=self, a0=a0, phi0=a0)

    def constant_slice_curvature(self, fbar):
        """Extrinsic curvature of the constant graph f = fbar."""
        c, cp, _ = self.warp(fbar)
        return -cp / c

    def base_distance(self, a, b, layout):
        """Geodesic distance between two base points (grid coordinates)."""
        raise NotImplementedError

    def chart_id(self):
        raise NotImplementedError

    def __repr__(self):  # pragma: no cover - cosmetic
        return self.chart_id()


def _diag_metric(entries):
    """Stack per-point diagonal entries into (..., m, m) matrices."""
    entries = [np.asarray(e, dtype=float) for e in entries]
    shape = np.broadcast_shapes(*(e.shape for e in entries))
    m = len(entries)
    out = np.zeros(shape + (m, m))
    for k, e in enumerate(entries):
        out[..., k, k] = np.broadcast_to(e, shape)
    return out


@dataclass(frozen=True)
class EuclideanChart(Chart):
    """Flat slab over a Euclidean base plane (or line for n = 1)."""

    n: int = 2

    def warp(self, t):
        t = np.asarray(t, dtype=float)
        one = np.ones_like(t)
        zero = np.zeros_like(t)
        return one, zero, zero

    def base_warp(self, s):
        s = np.asarray(s, dtype=float)
        return s, np.ones_like(s)

    def metric_at(self, points):
        points = np.asarray(points, dtype=float)
        m = self.n + 1
        return np.broadcast_to(np.eye(m), points.shape[:-1] + (m, m)).copy()

    def graph_coords(self, base, t, layout):
        base = np.asarray(base, dtype=float)
        t = np.asarray(t, dtype=float)
        xy = _base_cartesian(base, layout)
        return np.concatenate([xy, t[..., None]], axis=-1)

    def embed(self, base, t, layout):
        return np.concatenate(
            [_base_cartesian(np.asarray(base, float), layout),
             -np.asarray(t, float)[..., None]],
            axis=-1,
        )

    def vertical(self, base, t, layout):
        base = np.asarray(base, dtype=float)
        out = np.zeros(base.shape[:-1] + (self.n + 1,))
        out[..., -1] = -1.0
        return out

    def base_distance(self, a, b, layout):
        xa = _base_cartesian(np.asarray(a, float), layout)
        xb = _base_cartesian(np.asarray(b, float), layout)
        return np.sqrt(np.sum((xa - xb) ** 2, axis=-1))

    def chart_id(self):
        return f"euclidean:n={self.n}"


def _base_cartesian(base, layout):
    if layout in ("cartesian", "interval"):
        return base
    if layout == "polar":
        s = base[..., 0]
        phi = base[..., 1]
        return np.stack([s * np.cos(phi), s * np.sin(phi)], axis=-1)
    raise OutOfRange(f"unsupported base layout {layout!r}")


class _HyperboloidChart(Chart):
    """A chart whose slices are equidistants in a Minkowski hyperboloid.

    Subclasses supply two hooks: ``_model(s, t)`` returns the geodesic
    radius of base radius s, the signed height of slice t and the model
    scale (the hyperboloid has radius 1/scale), and ``_from_model(dist)``
    turns a distance on the model's totally geodesic slice back into a base
    distance.
    """

    minkowski = True

    @staticmethod
    def _base_unit(rho, base, layout):
        """Unit-hyperboloid image of a base point at geodesic radius rho."""
        if layout == "interval":
            cols = [np.cosh(rho), np.sinh(rho)]
        elif layout == "polar":
            phi = base[..., 1]
            cols = [np.cosh(rho), np.sinh(rho) * np.cos(phi), np.sinh(rho) * np.sin(phi)]
        else:
            raise OutOfRange(f"unsupported base layout {layout!r}")
        return np.stack(cols + [np.zeros_like(cols[0])], axis=-1)

    def embed(self, base, t, layout):
        base = np.asarray(base, dtype=float)
        rho, sigma, scale = self._model(base[..., 0], np.asarray(t, dtype=float))
        xhat = self._base_unit(rho, base, layout)
        out = (np.cosh(sigma) / scale)[..., None] * xhat
        out[..., -1] += np.sinh(sigma) / scale
        return out

    def vertical(self, base, t, layout):
        base = np.asarray(base, dtype=float)
        rho, sigma, _ = self._model(base[..., 0], np.asarray(t, dtype=float))
        xhat = self._base_unit(rho, base, layout)
        out = np.sinh(sigma)[..., None] * xhat
        out[..., -1] += np.cosh(sigma)
        return out

    def base_distance(self, a, b, layout):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        ra, rb = self._model(a[..., 0])[0], self._model(b[..., 0])[0]
        if layout == "interval":
            return np.abs(a[..., 0] - b[..., 0])
        arg = np.cosh(ra) * np.cosh(rb) - np.sinh(ra) * np.sinh(rb) * np.cos(
            a[..., 1] - b[..., 1]
        )
        return self._from_model(np.arccosh(np.maximum(arg, 1.0)))


@dataclass(frozen=True)
class HyperbolicChart(_HyperboloidChart):
    """Equidistant family over the base at geodesic depth D below the
    totally geodesic hypersurface of hyperbolic space.

    Ambient conformal coordinates are (rho, phi, theta) for n = 2 (geodesic
    polar coordinates of the totally geodesic slice plus the conformal
    vertical angle theta) and (x, theta) for n = 1.  The warped graph
    parametrisation uses c(t) = cosh(D - t), so the slice at graph height t
    is the equidistant at depth D - t.
    """

    offset: float = 0.5
    n: int = 2

    def warp(self, t):
        v = self.offset - np.asarray(t, dtype=float)
        return np.cosh(v), -np.sinh(v), np.cosh(v)

    def base_warp(self, s):
        s = np.asarray(s, dtype=float)
        cd = np.cosh(self.offset)
        return cd * np.sinh(s / cd), np.cosh(s / cd)

    def theta_of_height(self, t):
        """Conformal angle of the slice holding graph value t."""
        return theta_of_alpha(np.asarray(t, dtype=float) - self.offset)

    def metric_at(self, points):
        points = np.asarray(points, dtype=float)
        theta = points[..., -1]
        cos = np.cos(theta)
        if np.any(np.abs(theta) >= 0.5 * np.pi) or np.any(cos <= 1e-8):
            raise OutOfChart("conformal angle too close to the ideal boundary")
        sec2 = 1.0 / cos**2
        if self.n == 1:
            return _diag_metric([sec2, sec2])
        rho = points[..., 0]
        if np.any(rho < 1e-8):
            raise OutOfChart("polar coordinates degenerate at the pole")
        return _diag_metric([sec2, np.sinh(rho) ** 2 * sec2, sec2])

    def graph_coords(self, base, t, layout):
        base = np.asarray(base, dtype=float)
        t = np.asarray(t, dtype=float)
        theta = self.theta_of_height(t)
        cd = np.cosh(self.offset)
        if layout == "interval":
            x = base[..., 0] / cd
            return np.stack([x, theta], axis=-1)
        if layout == "polar":
            rho = base[..., 0] / cd
            return np.stack([rho, base[..., 1], theta], axis=-1)
        raise OutOfRange(f"unsupported base layout {layout!r}")

    def _model(self, s, t=0.0):
        return s / np.cosh(self.offset), t - self.offset, 1.0

    def _from_model(self, dist):
        return np.cosh(self.offset) * dist

    def chart_id(self):
        return f"hyperbolic:n={self.n}:D={self.offset:.17g}"


@dataclass(frozen=True)
class EpsilonChart(_HyperboloidChart):
    """Warped family cosh^2(eps*t) * base ⊕ dt^2 over a polar base.

    ``normalized`` selects the base warp sinh(eps*r)/eps (constant sectional
    curvature -eps^2, embeds in the model hyperboloid of radius 1/eps);
    the literal warp sinh(eps*r) is kept for comparison but has no
    constant-curvature model, so the embedding oracle declines it.

    Ambient coordinate order is (phi, r, t) for n = 2 and (r, t) for n = 1.
    """

    eps: float = 0.1
    n: int = 2
    normalized: bool = True

    def warp(self, t):
        et = self.eps * np.asarray(t, dtype=float)
        e = self.eps
        return np.cosh(et), e * np.sinh(et), e * e * np.cosh(et)

    def base_warp(self, r):
        r = np.asarray(r, dtype=float)
        e = self.eps
        if self.normalized:
            return np.sinh(e * r) / e, np.cosh(e * r)
        return np.sinh(e * r), e * np.cosh(e * r)

    def metric_at(self, points):
        points = np.asarray(points, dtype=float)
        c, _, _ = self.warp(points[..., -1])
        c2 = c * c
        if self.n == 1:
            return _diag_metric([c2, np.ones_like(c2)])
        r = points[..., 1]
        if np.any(r < 1e-8):
            raise OutOfChart("polar coordinates degenerate at the pole")
        w, _ = self.base_warp(r)
        return _diag_metric([c2 * w * w, c2, np.ones_like(c2)])

    def connection_form_at(self, points):
        points = np.asarray(points, dtype=float)
        c, cp, _ = self.warp(points[..., -1])
        m = self.n + 1
        om = np.zeros(points.shape[:-1] + (m, m, m))
        ccp = c * cp
        rat = cp / c
        if self.n == 2:
            w, _ = self.base_warp(points[..., 1])
            om[..., m - 1, 0, 0] = -ccp * w * w
            om[..., m - 1, 1, 1] = -ccp
        else:
            om[..., m - 1, 0, 0] = -ccp
        for i in range(self.n):
            om[..., i, i, m - 1] = rat
            om[..., i, m - 1, i] = rat
        return ConnectionForm(om)

    def graph_coords(self, base, t, layout):
        base = np.asarray(base, dtype=float)
        t = np.broadcast_to(np.asarray(t, dtype=float), base.shape[:-1])
        if layout == "interval":
            return np.stack([base[..., 0], t], axis=-1)
        if layout == "polar":
            return np.stack([base[..., 1], base[..., 0], t], axis=-1)
        raise OutOfRange(f"unsupported base layout {layout!r}")

    def _graph_axis_permutation(self, layout):
        """Chart coordinate index of each graph coordinate (grid axes..., t)."""
        if self.n == 2 and layout == "polar":
            return (1, 0, 2)  # graph (r, phi, t) reads chart (phi, r, t)
        return tuple(range(self.n + 1))

    def graph_metric_at(self, base, t, layout):
        # Built numerically from the coordinate API rather than from the warp
        # closed forms: this family's curvature assembly is defined through
        # metric_at / connection_form_at.
        pts = self.graph_coords(np.asarray(base, float), np.asarray(t, float), layout)
        idx = np.asarray(self._graph_axis_permutation(layout))
        return self.metric_at(pts)[..., idx[:, None], idx[None, :]]

    def graph_connection_form_at(self, base, t, layout):
        pts = self.graph_coords(np.asarray(base, float), np.asarray(t, float), layout)
        om = self.connection_form_at(pts).tensor
        idx = np.asarray(self._graph_axis_permutation(layout))
        return ConnectionForm(
            om[..., idx[:, None, None], idx[None, :, None], idx[None, None, :]]
        )

    def _require_model(self):
        if not self.normalized:
            raise OutOfRange(
                "literal warp sinh(eps*r) has no constant-curvature model; "
                "use normalized=True for embedding-based computations"
            )

    def _model(self, s, t=0.0):
        self._require_model()
        e = self.eps
        return e * s, e * t, e

    def _from_model(self, dist):
        return dist / self.eps

    def chart_id(self):
        return (
            f"epsilon:n={self.n}:eps={self.eps:.17g}:"
            f"normalized={int(self.normalized)}"
        )

