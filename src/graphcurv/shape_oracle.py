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
flat (N,) component products, and X with its first partials is stored
component-major, so each component is one contiguous array.  The oracle
holds few of them at once: X, its first partials, the metric and the
normal, then, once the partials are released, the second fundamental form
summed one component of one second partial at a time, each slot product
reading only that component's padded grid.  The cofactor expansion forms
one 2x2 minor at a time, and the chart's vertical is evaluated after the
first partials are released.  On the 129x512 hyperboloid ball its traced
peak is 23 arrays of N floats (12.2 MB, 186 bytes a node); it returns 17.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetric

__all__ = ["ShapeData", "curvature_oracle"]


def _component_order(m, minkowski):
    """The components of <x, y> in the order ``_inner`` sums them: on
    Minkowski space the timelike component 0 comes last, subtracted."""
    first = 1 if minkowski else 0
    return list(range(first, m)) + ([0] if minkowski else [])


def _inner(x, y, minkowski, out=None):
    """<x, y> over the last axis, summed one flat component product at a
    time (into ``out`` when given)."""
    first, *rest = _component_order(x.shape[-1], minkowski)
    out = np.multiply(x[..., first], y[..., first], out=out)
    for k in rest:
        if k == 0:
            out -= x[..., k] * y[..., k]
        else:
            out += x[..., k] * y[..., k]
    return out


def _euclid_cross(rows, out=None):
    """Vector orthogonal (Euclidean) to the m-1 vectors rows[..., i, :] (or
    the sequence of (..., m) vectors rows[i]), shape (..., m), written one
    flat component at a time into ``out`` (allocated component-major when
    None)."""
    if isinstance(rows, np.ndarray):
        rows = [rows[..., i, :] for i in range(rows.shape[-2])]
    m = rows[0].shape[-1]
    if out is None:
        out = np.moveaxis(np.empty((m,) + rows[0].shape[:-1]), 0, -1)
    if m == 2:
        (x,) = rows
        np.negative(x[..., 1], out=out[..., 0])
        out[..., 1] = x[..., 0]
    elif m == 3:
        x, y = rows
        for l, (i, j) in enumerate([(1, 2), (2, 0), (0, 1)]):
            np.multiply(x[..., i], y[..., j], out=out[..., l])
            out[..., l] -= x[..., j] * y[..., i]
    elif m == 4:
        # (-1)^l det(rows without column l), each 3x3 determinant expanded
        # along x over the 2x2 minors M of y and z: x_a M_bc - x_b M_ac +
        # x_c M_ab for a < b < c the columns other than l.  The minors are
        # formed one at a time, in descending order, which reaches every
        # determinant's three terms in that order
        x, y, z = rows
        for i, j in reversed(list(itertools.combinations(range(4), 2))):
            minor = y[..., i] * z[..., j]
            minor -= y[..., j] * z[..., i]
            for k in {0, 1, 2, 3} - {i, j}:  # the column of x it multiplies
                (l,) = {0, 1, 2, 3} - {i, j, k}
                place = (i < k) + (j < k)  # k's place among the columns but l
                if place == 0:
                    np.multiply(x[..., k], minor, out=out[..., l])
                elif place == 1:
                    out[..., l] -= x[..., k] * minor
                else:
                    out[..., l] += x[..., k] * minor
        for l in (1, 3):
            np.negative(out[..., l], out=out[..., l])
    else:
        raise ValueError(f"unsupported ambient dimension {m}")
    return out


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
    coords, layout, mink = domain.coords, domain.layout, chart.minkowski
    st, d1, d2 = domain.derivative_ops()
    n, num = domain.n, domain.num_nodes
    # X and its first partials, stored component-major: every component
    # X[:, k], Xa[:, a, k] is one contiguous (N,) array.  The slot products
    # run one component at a time, on that component's padded grid
    X = np.ascontiguousarray(chart.embed(coords, f, layout).T).T
    m = X.shape[1]
    Xa = np.empty((n, m, num)).transpose(2, 0, 1)
    for k in range(m):
        grid = st.padded(X[:, k])
        for a in range(n):
            Xa[:, a, k] = st.apply(d1[a], X[:, k], grid)
    del grid
    g = np.empty((num, n, n))
    for a in range(n):
        for b in range(a, n):
            g[:, b, a] = _inner(Xa[:, a], Xa[:, b], mink, out=g[:, a, b])

    rows = [X] + [Xa[:, a] for a in range(n)] if mink else Xa
    nu = _euclid_cross(rows, out=np.empty((m, num)).T)
    del rows, Xa
    if mink:
        nu[:, 0] = -nu[:, 0]

    interior = domain.interior
    nn = _inner(nu, nu, mink)
    if np.any(nn[interior] <= 0.0):
        raise DegenerateMetric("embedded graph normal is not spacelike")
    nn[~(nn > 0)] = 1.0
    nu /= np.sqrt(nn, out=nn)[:, None]
    del nn
    vt = chart.vertical(coords, f, layout)
    align = _inner(nu, vt, mink)
    del vt
    flip = np.where(align < 0.0, -1.0, 1.0)
    nu *= flip[:, None]
    align *= flip
    del flip

    # A_ab = <X_ab, nu>, each second partial formed one component at a time
    # and summed in _inner's order
    A = np.empty((num, n, n))
    order = _component_order(m, mink)
    for k in order:
        grid = st.padded(X[:, k])
        for (a, b), op in d2.items():
            term = st.apply(op, X[:, k], grid)
            term *= nu[:, k]
            if k == order[0]:
                A[:, a, b] = term
            elif k == 0:
                A[:, a, b] -= term
            else:
                A[:, a, b] += term
    del X, grid, term
    for a, b in d2:
        A[:, b, a] = A[:, a, b]

    if n == 1:
        gg = g[:, 0, 0]
        if np.any(gg[interior] <= 0.0):
            raise DegenerateMetric("induced metric is degenerate")
        lam = np.where(gg > 0, A[:, 0, 0] / np.where(gg > 0, gg, 1.0), 0.0)
        lambdas = lam[:, None]
        K = lam.copy()
        norm_A = np.abs(lam)
    else:
        g00, g01, g11 = g[:, 0, 0], g[:, 0, 1], g[:, 1, 1]
        A00, A01, A11 = A[:, 0, 0], A[:, 0, 1], A[:, 1, 1]
        a = g00 * g11
        a -= g01**2
        if np.any(a[interior] <= 0.0):
            raise DegenerateMetric("induced metric is degenerate")
        b = A00 * g11
        b += A11 * g00
        b -= 2.0 * A01 * g01
        c = A00 * A11
        c -= A01**2
        root = b * b
        root -= 4.0 * a * c
        np.maximum(root, 0.0, out=root)
        np.sqrt(root, out=root)
        a[~(a > 0)] = 1.0
        lambdas = np.empty((num, 2))
        np.subtract(b, root, out=lambdas[:, 0])
        np.add(b, root, out=lambdas[:, 1])
        del b, root
        lambdas /= (2.0 * a)[:, None]
        c /= a  # the ratio det(A) / det(g)
        K = np.sign(c)
        K *= np.sqrt(np.abs(c, out=c), out=c)
        del a, c
        norm_A = np.abs(lambdas[:, 0])
        np.maximum(norm_A, np.abs(lambdas[:, 1]), out=norm_A)

    out = ~interior
    for arr in (g, A, lambdas, nu, K, norm_A, align):
        arr[out] = 0.0
    return ShapeData(
        g=g, A=A, lambdas=lambdas, K=K, norm_A=norm_A, vert_align=align, normal=nu
    )
