"""Independent curvature oracle through model-space embeddings.

The oracle never touches the warped-profile closed forms or the connection
difference: it embeds graph points into the flat model (Euclidean chart) or
the Minkowski hyperboloid (hyperbolic and normalized epsilon charts), where
the ambient covariant derivative is plain componentwise differentiation, so

    g_ab = <X_a, X_b>,      A_ab = <X_ab, nu>,

with X_a, X_ab coordinate partials of the position map taken by the same
stencils the rest of the library uses, and nu the unit normal fixed by
<nu, V_t> > 0 against the chart vertical V_t.  (On the hyperboloid the
curvature correction of the Gauss formula is proportional to the position
vector and dies against nu.)  Principal curvatures solve det(A - lambda g) = 0
and K is the signed n-th root of their product.

Every inner product above, and the cofactor expansion of nu, is a sum of
flat (N,) component products: no (N, n, n, m) stack of second partials is
formed, and X with its first partials is stored component-major, so each
component is one contiguous array.  Only the returned fields are stacked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import _sym_stack
from .errors import DegenerateMetric

__all__ = ["ShapeData", "curvature_oracle"]


def _inner(x, y, minkowski):
    """<x, y> over the last axis, summed one flat component product at a
    time; on Minkowski space component 0 is the timelike one."""
    first = 1 if minkowski else 0
    out = x[..., first] * y[..., first]
    for k in range(first + 1, x.shape[-1]):
        out += x[..., k] * y[..., k]
    if minkowski:
        out -= x[..., 0] * y[..., 0]
    return out


def _euclid_cross(rows):
    """Vector orthogonal (Euclidean) to the m-1 vectors rows[..., i, :],
    shape (..., m), built one flat component at a time."""
    m = rows.shape[-1]
    r = [rows[..., i, :] for i in range(m - 1)]
    if m == 2:
        out = [-r[0][..., 1], r[0][..., 0]]
    elif m == 3:
        x, y = r
        out = [x[..., 1] * y[..., 2] - x[..., 2] * y[..., 1],
               x[..., 2] * y[..., 0] - x[..., 0] * y[..., 2],
               x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0]]
    elif m == 4:
        # (-1)^l det(rows without column l), each 3x3 determinant expanded
        # along the first row over the 2x2 minors of the other two
        x, y, z = r
        minor2 = {(i, j): y[..., i] * z[..., j] - y[..., j] * z[..., i]
                  for i in range(4) for j in range(i + 1, 4)}
        out = []
        for l in range(4):
            a, b, c = (k for k in range(4) if k != l)
            det = (x[..., a] * minor2[b, c] - x[..., b] * minor2[a, c]
                   + x[..., c] * minor2[a, b])
            out.append(-det if l % 2 else det)
    else:
        raise ValueError(f"unsupported ambient dimension {m}")
    return np.moveaxis(np.stack(out), 0, -1)  # stored component-major


@dataclass
class ShapeData:
    """First/second fundamental forms and principal curvatures of a graph."""

    g: np.ndarray  # (N, n, n) induced metric
    A: np.ndarray  # (N, n, n) second fundamental form
    lambdas: np.ndarray  # (N, n) principal curvatures, ascending
    K: np.ndarray  # (N,) signed n-th root of det(shape operator)
    norm_A: np.ndarray  # (N,) largest |principal curvature|
    vert_align: np.ndarray  # (N,) <nu, V_t> after orientation
    normal: np.ndarray  # (N, m) oriented unit normal


def curvature_oracle(chart, domain, f):
    """Evaluate ShapeData for the graph of f; interior rows only (rest zero)."""
    f = domain.check_values(f)
    coords = domain.coords
    layout = domain.layout
    mink = chart.minkowski
    X = chart.embed(coords, f, layout)
    st, d1, d2 = domain.derivative_ops().stencils
    grid = st.padded(X)  # with a trailing axis of X's m components
    n = domain.n
    num, m = X.shape
    # X and its first partials, stored component-major: every component
    # rows[:, i, k] is one contiguous (N,) array
    rows = np.empty((n + 1, m, num)).transpose(2, 0, 1)
    rows[:, 0] = X
    for a in range(n):
        rows[:, a + 1] = st.apply(d1[a], X, grid)
    Xa = rows[:, 1:]
    g = {(a, b): _inner(Xa[:, a], Xa[:, b], mink) for a in range(n) for b in range(a, n)}

    nu = _euclid_cross(rows if mink else Xa)
    if mink:
        nu[:, 0] = -nu[:, 0]

    interior = domain.interior
    nn = _inner(nu, nu, mink)
    if np.any(nn[interior] <= 0.0):
        raise DegenerateMetric("embedded graph normal is not spacelike")
    safe = np.where(nn > 0, nn, 1.0)
    nu = nu / np.sqrt(safe)[:, None]
    vt = chart.vertical(coords, f, layout)
    align = _inner(nu, vt, mink)
    flip = np.where(align < 0.0, -1.0, 1.0)
    nu = nu * flip[:, None]
    align = align * flip

    A = {ab: _inner(st.apply(op, X, grid), nu, mink) for ab, op in d2.items()}

    if n == 1:
        gg = g[0, 0]
        if np.any(gg[interior] <= 0.0):
            raise DegenerateMetric("induced metric is degenerate")
        lam = np.where(gg > 0, A[0, 0] / np.where(gg > 0, gg, 1.0), 0.0)
        lambdas = lam[:, None]
        K = lam
        norm_A = np.abs(lam)
    else:
        a = g[0, 0] * g[1, 1] - g[0, 1] ** 2
        if np.any(a[interior] <= 0.0):
            raise DegenerateMetric("induced metric is degenerate")
        asafe = np.where(a > 0, a, 1.0)
        b = A[0, 0] * g[1, 1] + A[1, 1] * g[0, 0] - 2.0 * A[0, 1] * g[0, 1]
        c = A[0, 0] * A[1, 1] - A[0, 1] ** 2
        disc = np.maximum(b * b - 4.0 * a * c, 0.0)
        root = np.sqrt(disc)
        lam_lo = (b - root) / (2.0 * asafe)
        lam_hi = (b + root) / (2.0 * asafe)
        lambdas = np.stack([lam_lo, lam_hi], axis=-1)
        ratio = c / asafe
        K = np.sign(ratio) * np.sqrt(np.abs(ratio))
        norm_A = np.maximum(np.abs(lam_lo), np.abs(lam_hi))

    g, A = _sym_stack(g, n), _sym_stack(A, n)
    out = ~interior
    for arr in (g, A, lambdas, nu):
        arr[out] = 0.0
    K = np.where(out, 0.0, K)
    norm_A = np.where(out, 0.0, norm_A)
    align = np.where(out, 0.0, align)
    return ShapeData(
        g=g, A=A, lambdas=lambdas, K=K, norm_A=norm_A, vert_align=align, normal=nu
    )
