"""Curvature assembly for graphs over model bases.

The extrinsic curvature of the graph of f is

    K(f) = det(M)^(1/n) / psi(x, f, grad f),    M = Hess f + Psi(x, f, grad f),

with all tensors in h-orthonormal frames of the base.  The graph is
*admissible* iff M is positive definite; ``margin`` is the smallest eigenvalue
of M over the interior.

Two independent constructions of (psi, Psi) are provided:

* ``method='closed'`` uses the warped-profile closed forms: with
  rho(t) = c(t)/c(0) and q = |p|^2,

      psi    = rho^((n-2)/n) * (rho^2 + q)^((n+2)/(2n)),
      Psi_ab = -(c c' / c(0)^2) delta_ab - 2 (c'/c) p_a p_b.

* ``method='generic'`` contracts the chart's graph-coordinate connection
  difference with the graph tangents T_a = E_a + p_a d_t and the conormal
  du = dt - df, and measures psi as |du|_g * det(g(T_a, T_b))^(1/n) from the
  graph-coordinate metric.  For the epsilon family those graph-coordinate
  tensors come numerically from ``metric_at``/``connection_form_at``, making
  this the construction of record there; elsewhere it is a cross-check
  (the two methods agree to rounding).

On a polar grid the frame is the coordinate frame scaled by the warp
W(s), which ``_frame`` computes once per (chart, grid).  Its ``fold``, the
transpose of ``_polar_frame``, takes the linearization's coefficients of
the frame derivatives onto the grid's derivative operators.

``conformal_graph_curvature`` evaluates hyperbolic-chart curvature a third
way, through the conformal-angle representation, for use as an independent
consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import HyperbolicChart, theta_of_alpha
from .errors import DegenerateMetric, NonAdmissible, OutOfRange

__all__ = [
    "CurvatureAssembly",
    "assemble_curvature",
    "order_compare",
    "conformal_graph_curvature",
    "frame_quantities",
]


# ---- frame calculus ---------------------------------------------------------


def _raw_partials(domain, f):
    st, d1, d2 = domain.derivative_ops()
    grid = st.padded(f)
    return (tuple(st.apply(op, f, grid) for op in d1),
            {ab: st.apply(op, f, grid) for ab, op in d2.items()})


def _sym_stack(parts, n):
    """(N, n, n) symmetric matrices from their entries ``parts[(a, b)]``, a <= b."""
    entries = [parts[(min(a, b), max(a, b))] for a in range(n) for b in range(n)]
    return np.stack(entries, axis=-1).reshape(np.shape(entries[0]) + (n, n))


def warp_factors(w, wp, s):
    """(wf, ratio): the polar warp W and W'/W at radius s > 0, 1 and 0 at the
    pole, where the operators already produced local-Cartesian values."""
    radial = s > 0
    wf = np.where(radial, w, 1.0)
    return wf, np.where(radial, wp, 0.0) / wf


def _polar_frame(d1, d2, wf, ratio):
    """Frame gradient/Hessian from coordinate partials on a warped polar grid,
    with the ``warp_factors`` (wf, ratio); pole rows pass through unchanged."""
    p = np.stack([d1[0], d1[1] / wf], axis=-1)
    hess = _sym_stack({
        (0, 0): d2[(0, 0)],
        (0, 1): (d2[(0, 1)] - ratio * d1[1]) / wf,
        (1, 1): d2[(1, 1)] / wf**2 + ratio * d1[0],
    }, 2)
    return p, hess


@dataclass
class _Frame:
    """The frame of a (chart, grid), built once per pair (``_frame``)."""

    derivs: tuple  # the domain's ``derivative_ops()``: (Stencils, d1, d2)
    warp: tuple | None  # the polar grid's (wf, ratio) of ``warp_factors``, else None

    def fold(self, c2, drift):
        """(derivative operator, coefficient) pairs, d2 then d1, that sum,
        coefficient times operator, to sum_ab c2[:, a, b] H[(a, b)] + sum_a
        drift[:, a] P[a] for the frame operators H and P; each coefficient
        is formed when its pair is reached."""
        _, d1, d2 = self.derivs
        if self.warp is None:
            for (a, b), op in d2.items():
                yield op, c2[:, a, a] if a == b else c2[:, a, b] + c2[:, b, a]
            for a, op in enumerate(d1):
                yield op, drift[:, a]
            return
        wf, ratio = self.warp
        mixed = c2[:, 0, 1] + c2[:, 1, 0]
        yield d2[(0, 0)], c2[:, 0, 0]
        yield d2[(0, 1)], mixed / wf
        yield d2[(1, 1)], c2[:, 1, 1] / wf**2
        yield d1[0], drift[:, 0] + ratio * c2[:, 1, 1]
        yield d1[1], (drift[:, 1] - ratio * mixed) / wf


def _frame(chart, domain):
    def build():
        s = domain.coords[:, 0]
        warp = warp_factors(*chart.base_warp(s), s) if domain.layout == "polar" else None
        return _Frame(domain.derivative_ops(), warp)

    return domain.cached(("frame", chart.chart_id()), build)


def frame_quantities(chart, domain, f):
    """h-orthonormal frame gradient p (N, n) and Hessian H (N, n, n) of f."""
    f = domain.check_values(f)
    d1, d2 = _raw_partials(domain, f)
    warp = _frame(chart, domain).warp
    if warp is None:
        return np.stack(d1, axis=-1), _sym_stack(d2, domain.n)
    return _polar_frame(d1, d2, *warp)


# ---- eigenvalue helpers -----------------------------------------------------


def sym_eig_bounds(mat):
    """(lambda_min, lambda_max) of symmetric (N, n, n) matrices, closed form."""
    n = mat.shape[-1]
    if n == 1:
        lam = mat[..., 0, 0]
        return lam, lam
    a = mat[..., 0, 0]
    b = mat[..., 0, 1]
    c = mat[..., 1, 1]
    mean = 0.5 * (a + c)
    with np.errstate(over="ignore"):  # see signed_root_det
        rad = np.sqrt(0.25 * (a - c) ** 2 + b * b)
    return mean - rad, mean + rad


def signed_root_det(mat):
    """sign(det) * |det|^(1/n) for (N, n, n) matrices."""
    n = mat.shape[-1]
    if n == 1:
        return mat[..., 0, 0]
    # overshooting line-search probes can overflow to inf here; that is a
    # valid answer (the step gets rejected on its infinite residual)
    with np.errstate(over="ignore"):
        det = mat[..., 0, 0] * mat[..., 1, 1] - mat[..., 0, 1] * mat[..., 1, 0]
    return np.sign(det) * np.sqrt(np.abs(det))


def sym_inverse_parts(mat):
    """Entries {(a, b): (N,)}, a <= b, of the inverses of symmetric (N, n, n)
    matrices, closed form."""
    if mat.shape[-1] == 1:
        return {(0, 0): 1.0 / mat[..., 0, 0]}
    a = mat[..., 0, 0]
    b = mat[..., 0, 1]
    c = mat[..., 1, 1]
    inv_det = 1.0 / (a * c - b**2)
    return {(0, 0): c * inv_det, (0, 1): -b * inv_det, (1, 1): a * inv_det}


# ---- assembly ---------------------------------------------------------------


@dataclass
class CurvatureAssembly:
    """What DK and the margin read of K(f) at f: M = Hess f + Psi, not its
    two terms (``frame_quantities`` and ``closed_psi_Psi`` give those)."""

    domain: object
    f: np.ndarray
    grad: np.ndarray  # (N, n) frame gradient
    psi: np.ndarray  # (N,)
    M: np.ndarray  # (N, n, n)
    K: np.ndarray  # (N,) signed curvature; boundary rows zero
    lambda_min: np.ndarray  # (N,) smallest eigenvalue of M; boundary rows zero

    @property
    def margin(self):
        return float(np.min(self.lambda_min[self.domain.interior]))

    @property
    def admissible(self):
        return self.margin > 0.0


def closed_psi_Psi(chart, f, p):
    """Warped-profile closed forms of (psi, Psi) at values f, frame gradient p."""
    n = p.shape[-1]
    c, cp, _ = chart.warp(f)
    c0 = chart.c0
    rho = c / c0
    q = sum(p[..., a] * p[..., a] for a in range(n))
    psi = rho ** ((n - 2.0) / n) * (rho**2 + q) ** ((n + 2.0) / (2.0 * n))
    sigma = -(c * cp) / c0**2
    tau = -2.0 * cp / c
    # Psi = sigma Id + tau p p^T entry by entry; sigma * 0.0 keeps the sign
    # of zero the matrix form gives off the diagonal
    Psi = _sym_stack({
        (a, b): sigma * float(a == b) + tau * (p[..., a] * p[..., b])
        for a in range(n) for b in range(a, n)
    }, n)
    return psi, Psi


def _generic_psi_Psi(chart, domain, f, p, nodes):
    """(psi, Psi) from graph-coordinate metric/connection contractions."""
    layout = domain.layout
    base = domain.coords[nodes]
    fv = f[nodes]
    pv = p[nodes]
    n = domain.n
    m = n + 1
    gmat = chart.graph_metric_at(base, fv, layout)
    om = chart.graph_connection_form_at(base, fv, layout)
    kappa = chart.frame_coefficients(base, layout)
    nn = len(fv)
    tang = np.zeros((nn, n, m))
    for a in range(n):
        tang[:, a, a] = kappa[:, a]
        tang[:, a, m - 1] = pv[:, a]
    du = np.zeros((nn, m))
    du[:, m - 1] = 1.0
    du[:, :n] = -pv / kappa
    gram = np.einsum("xai,xij,xbj->xab", tang, gmat, tang)
    detg = np.linalg.det(gram)
    if np.any(detg <= 0):
        raise DegenerateMetric("graph Gram matrix is not positive definite")
    du_norm2 = np.einsum("xi,xi->x", du, np.linalg.solve(gmat, du[..., None])[..., 0])
    psi = np.sqrt(du_norm2) * detg ** (1.0 / n)
    Psi = np.einsum("xk,xkij,xai,xbj->xab", du, om, tang, tang)
    return psi, Psi


def assemble_curvature(chart, domain, f, method="closed"):
    """Assemble K(f), M, psi and the admissibility margin over a grid.

    Boundary rows of all per-node outputs are zero; only interior rows carry
    meaning.  ``method='generic'`` builds (psi, Psi) from the chart's metric
    and connection difference instead of the warp closed forms (at a ball
    pole node, where polar chart coordinates degenerate, the closed forms are
    used either way; the two paths agree to rounding wherever both apply).
    """
    f = domain.check_values(f)
    p, hess = frame_quantities(chart, domain, f)
    psi, Psi = closed_psi_Psi(chart, f, p)
    if method == "generic":
        nodes = np.flatnonzero(domain.interior)
        if domain.pole is not None:
            nodes = nodes[nodes != domain.pole]
        psi_g = psi.copy()
        Psi_g = Psi.copy()
        psi_g[nodes], Psi_g[nodes] = _generic_psi_Psi(chart, domain, f, p, nodes)
        psi, Psi = psi_g, Psi_g
    elif method != "closed":
        raise OutOfRange(f"unknown assembly method {method!r}")
    M = np.add(hess, Psi, out=hess)  # in place: the floats of hess + Psi
    lam_min, _ = sym_eig_bounds(M)
    K = signed_root_det(M) / psi
    outside = ~domain.interior
    for arr in (p, M):
        arr[outside] = 0.0
    K = np.where(outside, 0.0, K)
    lam_min = np.where(outside, 0.0, lam_min)
    psi = np.where(outside, 1.0, psi)
    return CurvatureAssembly(
        domain=domain,
        f=f,
        grad=p,
        psi=psi,
        M=M,
        K=K,
        lambda_min=lam_min,
    )


def require_admissible(asm, context=""):
    if not asm.admissible:
        where = f" ({context})" if context else ""
        raise NonAdmissible(
            f"graph is not admissible{where}: margin = {asm.margin:.3e}"
        )


def order_compare(domain, f, g):
    """Nodewise order of two graph functions on the interior.

    Returns 'equal' (identical), 'less'/'greater' (strict at every interior
    node), or 'incomparable'.
    """
    f = domain.check_values(f)
    g = domain.check_values(g)
    d = (f - g)[domain.interior]
    if np.all(d == 0.0):
        return "equal"
    if np.all(d < 0.0):
        return "less"
    if np.all(d > 0.0):
        return "greater"
    return "incomparable"


# ---- conformal-representation cross-check -----------------------------------


def conformal_graph_curvature(chart, domain, f):
    """Hyperbolic-chart curvature through the conformal-angle representation.

    Writes the graph as the conformal angle u = theta(f - D) over the totally
    geodesic copy (metric g0) and evaluates

        K = cos(u) (1 + |grad u|^2)^(-(n+2)/(2n))
            * det(Hess u - tan(u) (grad u grad u^T + g0))^(1/n)

    with gradient/Hessian in g0-orthonormal frames.  Interior rows only.
    """
    if not isinstance(chart, HyperbolicChart):
        raise OutOfRange("conformal representation applies to hyperbolic charts")
    f = domain.check_values(f)
    u = np.asarray(theta_of_alpha(f - chart.offset))
    d1, d2 = _raw_partials(domain, u)
    kap = np.cosh(chart.offset)
    n = domain.n
    if n == 1:
        du = kap * d1[0]
        duu = kap**2 * d2[(0, 0)]
        p = du[:, None]
        hess = duu[:, None, None]
    else:
        if domain.layout != "polar":
            raise OutOfRange("conformal cross-check expects a polar domain")
        s = domain.coords[:, 0]
        pole = ~(s > 0)
        a0 = kap * d1[0]
        a1 = np.where(pole, kap * d1[1], d1[1])
        b00 = kap**2 * d2[(0, 0)]
        b01 = np.where(pole, kap**2 * d2[(0, 1)], kap * d2[(0, 1)])
        b11 = np.where(pole, kap**2 * d2[(1, 1)], d2[(1, 1)])
        rho = s / kap
        p, hess = _polar_frame((a0, a1), {(0, 0): b00, (0, 1): b01, (1, 1): b11},
                               *warp_factors(np.sinh(rho), np.cosh(rho), s))
    q = np.sum(p * p, axis=-1)
    tanu = np.tan(u)
    mat = hess - tanu[:, None, None] * (
        p[..., :, None] * p[..., None, :] + np.eye(n)
    )
    k = np.cos(u) * (1.0 + q) ** (-(n + 2.0) / (2.0 * n)) * signed_root_det(mat)
    return np.where(domain.interior, k, 0.0)
