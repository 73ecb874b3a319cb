"""Barriers, maximum-principle validation, and interior-estimate monitors.

A barrier pair sandwiches solutions between a lower graph f_hat of known
curvature floor phi_hat and the zero function (the base slice): solutions of
K(f) = phi with phi0 <= phi <= phi_hat satisfy f_hat <= f <= 0, and the
solver's line search can enforce exactly that nodewise.

``sphere_cap_barrier`` builds the rotationally symmetric constant-curvature
cap over a polar ball domain by solving the radial two-point reduction of the
graph-curvature equation on a refined 1-D grid, then restricting to the
domain's radii, which the refined grid contains exactly.  The solve is damped
Newton with the same admissibility-margin safeguard as the full solver; each
step solves the exact tridiagonal Jacobian of the radial curvature by Thomas
elimination (``linearize._Tridiagonal``), starting from the Euclidean cap of
the excess curvature k - phi0.

``pogorelov_monitor`` evaluates the interior-estimate test function

    Phi = alpha * log(phi_cut) - <X, N> + log(|A|)

over the support of the cutoff, with X defaulting to the chart vertical and
|A| taken from the embedding-based curvature oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import assemble_curvature, frame_quantities
from .errors import NonAdmissible, OutOfRange, SingularLinearSystem, TransversalityFailure
from .linearize import _Tridiagonal, _warp_derivative_fields
from .shape_oracle import _inner, curvature_oracle

__all__ = [
    "BarrierPair",
    "EstimateReport",
    "sphere_cap_barrier",
    "offset_barrier",
    "make_barrier_pair",
    "validate_sandwich",
    "curvature_norm_report",
    "pogorelov_monitor",
    "square_split",
]


# ---- barriers ----------------------------------------------------------------


@dataclass
class BarrierPair:
    """Lower barrier f_hat with curvature floor phi_hat, upper barrier 0.

    ``tag`` records the construction: 'cap' (sphere cap through the boundary
    circle), 'offset' (constant-depth slice; exempt from the zero-boundary
    invariant since it is nowhere zero), or 'user' (supplied grid function).
    """

    chart: object
    domain: object
    lower: np.ndarray
    phi_hat: float
    phi0: float
    tag: str = "cap"

    @property
    def upper(self):
        return np.zeros(self.domain.num_nodes)


def _radial_slope(f, h1):
    """Central-difference f' at the nodes of each row; 0 at the pole and rim."""
    p = np.zeros_like(f)
    p[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2.0 * h1)
    return p


def _radial_curvature(chart, ratio, f, h1, n):
    """Curvature, margin pieces of rotationally symmetric graphs (1-D grid).

    ``f`` holds one profile per row, node 0 the pole (even symmetry), the
    last node the rim; ``ratio`` is W'/W of the base warp at the nodes (its
    pole entry is unused).  Returns (K, M1, M2) shaped like ``f``; rim
    values are garbage and never read.
    """
    p = _radial_slope(f, h1)
    fpp = np.zeros_like(f)
    fpp[..., 0] = 2.0 * (f[..., 1] - f[..., 0]) / h1**2
    fpp[..., 1:-1] = (f[..., 2:] - 2.0 * f[..., 1:-1] + f[..., :-2]) / h1**2
    hphi = ratio * p
    hphi[..., 0] = fpp[..., 0]
    c, cp, _ = chart.warp(f)
    c0 = chart.c0
    rho = c / c0
    sig = -(c * cp) / c0**2
    tau = -2.0 * cp / c
    m1 = fpp + sig + tau * p * p
    m2 = hphi + sig
    psi = rho ** ((n - 2.0) / n) * (rho**2 + p * p) ** ((n + 2.0) / (2.0 * n))
    det = m1 * m2
    K = np.sign(det) * np.abs(det) ** (1.0 / n) / psi
    return K, m1, m2


def _radial_jacobian(chart, ratio, f, h1, n, K, m1, m2):
    """Exact Jacobian of K[:-1] in f[:-1] (the rim value is fixed).

    ``K, m1, m2`` are ``_radial_curvature(chart, ratio, f, h1, n)`` at an
    admissible profile (m1, m2 > 0 off the rim), so K = (m1 m2)^(1/n) / psi
    and dK = K (dm1/m1 + dm2/m2) / n - K dpsi/psi.  Row j reaches f[j-1],
    f[j], f[j+1] through the warp at t = f[j], through p and through f'';
    on the pole row p = 0 and f'' = 2 (f1 - f0) / h^2 enters m1 and m2
    alike.  Returns (lower, diag, upper) as ``_Tridiagonal`` reads them:
    row j's coefficients of f[j-1], f[j] and f[j+1].
    """
    K, m1, m2 = K[:-1], m1[:-1], m2[:-1]
    p = _radial_slope(f, h1)[:-1]
    # with psi = 1 the psi derivatives come back as those of log psi
    sig_t, tau_t, tau, dlpsi_t, (dlpsi_p,) = _warp_derivative_fields(
        chart, f[:-1], [p], 1.0, n
    )
    k1, k2 = K / (n * m1), K / (n * m2)
    k_t = k1 * (sig_t + tau_t * p * p) + k2 * sig_t - K * dlpsi_t
    k_p = k1 * 2.0 * tau * p + k2 * ratio[:-1] - K * dlpsi_p
    lap = k1 / h1**2
    lap[0] += k2[0] / h1**2
    grad = k_p / (2.0 * h1)
    upper = lap + grad
    upper[0] = 2.0 * lap[0]
    return lap - grad, k_t - 2.0 * lap, upper


# Fine radius cells per domain cell.  The radial profile is resolved well
# before a thousand cells; past that only the eps/h^2 noise floor and the
# Jacobian's conditioning grow, so the fine grid stops at 1024 cells.
_CAP_REFINE = 32
_CAP_TOL = 1e-10
_CAP_MAX_ITER = 60


def sphere_cap_barrier(chart, domain, k, profiles=None):
    """Constant-curvature-k cap over a polar ball, as a grid function.

    Solves the radial two-point problem K(f) = k, f'(0) = 0, f(R) = 0 on a
    ``_CAP_REFINE``-times finer radius grid with damped Newton on the exact
    tridiagonal Jacobian (one tridiagonal solve a step), then reads off the
    domain's radii.  Raises OutOfRange when no cap with that curvature
    exists over the ball (Newton leaves the admissible cone or stalls).

    The fine grid has at most 1024 cells, so the refinements of one ball
    share it.  ``profiles``, a dict the caller owns, keeps each radial
    profile solved through it and hands it to later calls with the same
    chart, k, radius, fine grid and dimension.
    """
    if domain.kind != "ball":
        raise OutOfRange("sphere-cap barriers are defined over ball domains")
    if k <= 0:
        raise OutOfRange("cap curvature must be positive")
    nr = domain.shape[0] - 1
    R = domain.extent[0][1]
    m = max(1, min(_CAP_REFINE, 1024 // nr)) * nr  # read off at domain radii exactly
    key = (chart.chart_id(), k, R, m, domain.n)
    f = None if profiles is None else profiles.get(key)
    if f is None:
        f = _cap_profile(chart, k, R, m, domain.n, _CAP_TOL, _CAP_MAX_ITER)
        if profiles is not None:
            f.flags.writeable = False
            profiles[key] = f
    jj = np.rint(domain.coords[:, 0] / (R / m)).astype(int)
    out = f[np.clip(jj, 0, m)]
    out[domain.boundary] = 0.0
    return out


def _cap_profile(chart, k, R, m, n, tol, max_iter):
    """Values at s = j R / m, j = 0..m, of the radial curvature-k cap.

    Damped Newton: each step solves the exact tridiagonal Jacobian
    (``_radial_jacobian``) by Thomas elimination.  The seed is the Euclidean
    cap of the curvature k - phi0 that the graph adds to the base slice's
    phi0 when 0 < phi0 < k, and of curvature k otherwise, with its sphere
    radius at least 1.05 R.  Second differences on the fine grid put an
    evaluation-noise floor of order machine-eps / h^2 under the discrete
    residual; convergence is declared at ``tol`` or at that floor,
    whichever is larger.
    """
    h1 = R / m
    svals = h1 * np.arange(m + 1)
    phi0 = chart.base_hypersurface().phi0
    excess = k - phi0 if 0.0 < phi0 < k else k
    rs = max(1.0 / excess, 1.05 * R)
    f = np.sqrt(rs**2 - R**2) - np.sqrt(rs**2 - svals**2)
    f[-1] = 0.0

    w, wp = chart.base_warp(np.maximum(svals, h1))
    ratio = wp / w

    def resid(fv):
        K, m1, m2 = _radial_curvature(chart, ratio, fv, h1, n)
        margin = float(np.min(np.minimum(m1[:-1], m2[:-1])))
        return K[:-1] - k, margin, (K, m1, m2)

    r, margin, parts = resid(f)
    if margin <= 0:
        raise OutOfRange(f"cap seed is not admissible (margin {margin:.3e})")
    rnorm = float(np.max(np.abs(r)))
    r2 = float(np.linalg.norm(r))
    floor = 1e3 * np.finfo(float).eps * (1.0 + float(np.max(np.abs(f)))) / h1**2
    goal = max(tol, floor)
    for _ in range(max_iter):
        if rnorm <= goal:
            break
        try:
            delta = _Tridiagonal(*_radial_jacobian(chart, ratio, f, h1, n, *parts)).solve(-r)
        except SingularLinearSystem as exc:
            raise OutOfRange(f"cap continuation lost ellipticity: {exc}") from exc
        step = np.concatenate([delta, [0.0]])
        accepted = False
        for kk in range(11):
            s = 2.0**-kk
            f_new = f + s * step
            r_new, margin_new, parts_new = resid(f_new)
            if not margin_new >= 0.1 * margin:  # NaN fails
                continue
            # Sufficient decrease is judged in the 2-norm: a Newton step
            # often just moves the residual peak to another node, so the
            # max norm can report 7% progress on a step that removed a
            # quarter of the residual mass.  (Convergence below is still
            # declared on the max norm.)
            rn2 = float(np.linalg.norm(r_new))
            if not rn2 <= (1.0 - s / 8.0) * r2:
                continue
            rn = float(np.max(np.abs(r_new)))
            f, r, rnorm, r2, margin, parts = f_new, r_new, rn, rn2, margin_new, parts_new
            accepted = True
            break
        if not accepted:
            raise OutOfRange(
                f"no curvature-{k:g} cap over this ball (residual {rnorm:.3e})"
            )
    if rnorm > goal:
        raise OutOfRange(
            f"cap solve did not converge (residual {rnorm:.3e} > {goal:g})"
        )
    return f


def offset_barrier(chart, domain, depth):
    """Constant-depth slice f = -depth (curvature floor, not a solve barrier)."""
    if depth <= 0:
        raise OutOfRange("offset depth must be positive")
    return np.full(domain.num_nodes, -float(depth))


def make_barrier_pair(chart, domain, kind="cap", k=None, depth=None, lower=None,
                      profiles=None):
    """Build and validate a BarrierPair.

    kind 'cap' solves ``sphere_cap_barrier`` for curvature ``k``; 'offset'
    uses the constant slice of the given ``depth``; 'user' takes ``lower``
    as supplied.  phi_hat is the smallest assembled interior curvature of
    the lower barrier — checked, not assumed, for every construction.
    ``profiles`` is handed to ``sphere_cap_barrier``.
    """
    if kind == "cap":
        if k is None:
            raise OutOfRange("cap barrier needs a curvature k")
        f_hat = sphere_cap_barrier(chart, domain, k, profiles=profiles)
    elif kind == "offset":
        if depth is None:
            raise OutOfRange("offset barrier needs a depth")
        f_hat = offset_barrier(chart, domain, depth)
    elif kind == "user":
        if lower is None:
            raise OutOfRange("user barrier needs the lower grid function")
        f_hat = domain.check_values(lower).copy()
    else:
        raise OutOfRange(f"unknown barrier kind {kind!r}")
    interior = domain.interior
    if kind != "offset":
        if np.any(f_hat[interior] >= 0.0):
            raise NonAdmissible(
                "lower barrier must be strictly negative on the interior"
            )
        if np.any(f_hat[domain.boundary] != 0.0):
            raise NonAdmissible("lower barrier must vanish on the boundary")
    asm = assemble_curvature(chart, domain, f_hat)
    if not asm.admissible:
        raise NonAdmissible(
            f"lower barrier is not admissible (margin {asm.margin:.3e})"
        )
    phi_hat = float(np.min(asm.K[interior]))
    phi0 = chart.base_hypersurface().phi0
    return BarrierPair(chart, domain, f_hat, phi_hat, phi0, tag=kind)


def validate_sandwich(f, barrier, target=None, tol=0.0):
    """Report-only check of f_hat - tol <= f <= 0 (+ target band if given).

    Returns a dict with pass flags and the violating node indices; never
    raises.  When ``target`` (the curvature being solved for) is given, the
    band phi0 <= target <= phi_hat is reported as well.
    """
    domain = barrier.domain
    f = domain.check_values(f)
    interior = domain.interior
    above = np.flatnonzero(interior & (f > 0.0))
    below = np.flatnonzero(interior & (f < barrier.lower - tol))
    report = {
        "passed": len(above) == 0 and len(below) == 0,
        "above_upper": above.tolist(),
        "below_lower": below.tolist(),
        "tol": float(tol),
        "tag": barrier.tag,
        "phi_hat": barrier.phi_hat,
        "phi0": barrier.phi0,
    }
    if target is not None:
        tvals = np.broadcast_to(np.asarray(target, float), f.shape)[interior]
        report["target_low_margin"] = float(np.min(tvals) - barrier.phi0)
        report["target_high_margin"] = float(barrier.phi_hat - np.max(tvals))
        report["target_in_band"] = bool(
            report["target_low_margin"] > 0 and report["target_high_margin"] >= 0
        )
        report["passed"] = report["passed"] and report["target_in_band"]
    return report


# ---- curvature-norm estimates --------------------------------------------------


@dataclass
class EstimateReport:
    sup_A: float
    interior_sup_A: float
    boundary_sup_A: float
    lambdas: np.ndarray  # (N, n) principal curvatures from the oracle
    lambda_min: float
    lambda_max: float
    lipschitz: float  # max frame gradient norm
    delta_weight: np.ndarray  # d(x, P)^2 for a fixed boundary node P
    delta_point: int


def _boundary_adjacent(domain):
    """Interior nodes one grid step from the boundary."""
    out = np.zeros(domain.num_nodes, dtype=bool)
    if domain.kind == "interval":
        out[1] = out[-2] = True
        return out
    if domain.kind == "ball":
        nr = domain.shape[0] - 1
        nphi = domain.shape[1]
        ring = 1 + (nr - 2) * nphi
        out[ring : ring + nphi] = True
        return out
    m0, m1 = domain.shape
    idx = np.arange(domain.num_nodes)
    i, j = idx // m1, idx % m1
    if not domain.periodic[0]:
        out |= (i == 1) | (i == m0 - 2)
    if not domain.periodic[1]:
        out |= (j == 1) | (j == m1 - 2)
    return out & domain.interior


def curvature_norm_report(chart, domain, f):
    """Second-fundamental-form norms, principal curvatures, Lipschitz bound.

    Norms come from the embedding-based oracle (independent of the
    assembly); sup |A| is split between the boundary-adjacent ring and the
    rest of the interior.  The reporting weight delta(x) = d(x, P)^2 is
    evaluated for the first boundary node P.
    """
    data = curvature_oracle(chart, domain, f)
    interior = domain.interior
    norm_a = data.norm_A
    adj = _boundary_adjacent(domain)
    inner = interior & ~adj
    boundary_sup = float(np.max(norm_a[adj])) if np.any(adj) else 0.0
    interior_sup = float(np.max(norm_a[inner])) if np.any(inner) else 0.0
    p, _ = frame_quantities(chart, domain, f)
    lip = float(np.max(np.linalg.norm(p[interior], axis=-1)))
    pnode = int(np.flatnonzero(domain.boundary)[0])
    dist = chart.base_distance(
        domain.coords, domain.coords[pnode][None, :], domain.layout
    )
    lam = data.lambdas[interior]
    return EstimateReport(
        sup_A=max(interior_sup, boundary_sup),
        interior_sup_A=interior_sup,
        boundary_sup_A=boundary_sup,
        lambdas=data.lambdas,
        lambda_min=float(np.min(lam)),
        lambda_max=float(np.max(lam)),
        lipschitz=lip,
        delta_weight=dist**2,
        delta_point=pnode,
    )


def _default_cutoff(domain):
    """((1 - (d/(0.8 d_max))^2)_+)^2 in base-Cartesian distance from center."""
    if domain.layout == "polar":
        d = domain.coords[:, 0]
    elif domain.n == 1:
        lo, hi = domain.extent[0]
        d = np.abs(domain.coords[:, 0] - 0.5 * (lo + hi))
    else:
        mid = np.array([0.5 * (lo + hi) for lo, hi in domain.extent])
        d = np.linalg.norm(domain.coords - mid, axis=-1)
    dmax = float(np.max(d[domain.interior]))
    u = d / (0.8 * dmax)
    return np.maximum(0.0, 1.0 - u * u) ** 2


_EPS_X = 1e-3  # transversality floor of <X, N>


def pogorelov_monitor(chart, domain, f, alpha=1.0, cutoff=None, x_field=None,
                      shape=None):
    """sup of Phi = alpha log(phi_cut) - <X, N> + log |A| over the cutoff support.

    X defaults to the chart's unit vertical along the graph; the inner
    product comes from the embedding model through the curvature oracle.
    ``shape`` is ``curvature_oracle(chart, domain, f)`` when the caller
    already has it (computed here when None).  Raises TransversalityFailure
    when <X, N> < 1e-3 somewhere on the support.  Returns {'sup': float,
    'node': int, 'alpha': alpha, 'x_min': float, 'values': masked array of
    Phi}.
    """
    if alpha < 1.0:
        raise OutOfRange("pogorelov exponent alpha must be >= 1")
    f = domain.check_values(f)
    data = curvature_oracle(chart, domain, f) if shape is None else shape
    phi_cut = _default_cutoff(domain) if cutoff is None else domain.check_values(cutoff)
    if np.any(phi_cut < 0):
        raise OutOfRange("cutoff must be non-negative")
    support = (phi_cut > 0.0) & domain.interior
    if not np.any(support):
        raise OutOfRange("cutoff support does not meet the interior")
    if x_field is None:
        xn = data.vert_align
    else:
        x_field = np.asarray(x_field, dtype=float)
        xn = _inner(x_field, data.normal, chart.minkowski)
    xmin = float(np.min(xn[support]))
    if xmin < _EPS_X:
        raise TransversalityFailure(
            f"<X, N> = {xmin:.3e} < {_EPS_X:g} on the cutoff support"
        )
    vals = np.full(domain.num_nodes, -np.inf)
    vals[support] = (
        alpha * np.log(phi_cut[support])
        - xn[support]
        + np.log(data.norm_A[support])
    )
    node = int(np.argmax(vals))
    return {
        "sup": float(vals[node]),
        "node": node,
        "alpha": float(alpha),
        "x_min": xmin,
        "values": vals,
    }


def square_split(a, b, lam):
    """Split-square bound: returns ((a+b)^2, (1+lam) a^2 + (1+1/lam) b^2)."""
    if np.any(np.asarray(lam) <= 0):
        raise OutOfRange("splitting weight lambda must be positive")
    lhs = (a + b) ** 2
    rhs = (1.0 + lam) * a**2 + (1.0 + 1.0 / lam) * b**2
    return lhs, rhs
