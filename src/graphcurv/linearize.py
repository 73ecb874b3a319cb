"""Linearized curvature operators over grid domains.

For K(f) = det(M)^(1/n) / psi with M = Hess f + Psi(x, f, grad f), the
derivative at an admissible f in a direction v vanishing on the boundary is

    DK(f) v = c2 : Hess v + drift . grad v + c0 * v,

        c2      = (K/n) M^(-1)
        drift_k = (K/n) tr(M^(-1) d_pk Psi) - K (d_pk psi) / psi
        c0      = (K/n) tr(M^(-1) d_t  Psi) - K (d_t  psi) / psi,

everything in h-orthonormal frames.

``build_JK`` assembles the comparison (Jacobi) operator of the totally
umbilic zero-height slice,

    JK phi = h * phi - (1/a0) Lap phi,   h = tr(A0^(-1) W) - tr(A0),

with shape operator A0 = a0 * Id and the ambient normal-curvature
endomorphism W measured by the finite-difference Riemann oracle rather than
assumed from a constant-curvature identity (sign conventions are the dominant
bug class, so W is always measured).  At f = 0 over an offset-D slice the two
operators obey DK = -(a0/n) JK, which the tests check matrix-to-matrix.

All operators carry identity rows at boundary nodes, so ``solve`` enforces
zero Dirichlet values.

Storage: an operator is its weights on the grid's stencil slots
(``grids.Stencils``), one (N,) array per slot, and ``op @ v`` applies them
through shifted views of v laid out on the index grid.  A build adds the
derivative operators' weights (``GridDomain.derivative_ops``, built once),
times their coefficients (``assembly._Frame.fold``: those of the frame
operators with the polar warp folded in), up per slot in term order, then
the zeroth-order term, and makes every boundary row the identity on the
middle slot.  Its CSR ``matrix`` is made on demand.

Factorization: a direct LU takes rows and columns in the domain's
nested-dissection order (``GridDomain.dissection_order``) and SuperLU keeps
that order (``permc_spec='NATURAL'``, symmetric mode) and pivots on the
diagonal unless it is exactly zero, which suits an elliptic operator whose
diagonal dominates.  On the 129x512 ball the factors hold about half the
entries a COLAMD order gives (4.7 M against 9.7 M for L + U of DK at f = 0).

Ring average: on polar grids (ball and annulus) the model problem's
solution is rotationally symmetric, so DK is nearly circulant in phi.
``_RingAverage`` averages each ring's slot weights over phi and solves the
system of these means by FFT in phi and one tridiagonal solve in the
radius per Fourier mode, with the ball's pole row kept exactly.  It is
exact for a rotationally symmetric operator.  For DK on the 129x512 ball
(2-core VM, one BLAS thread) a build took about 3 ms against about 0.3 s
for the LU, and an application 1.5 ms against 14 ms for the LU's
triangular solves.

Preconditioner reuse: a sparse LU of DK costs tens of triangular solves,
and DK moves little between Newton steps and between neighbouring
continuation levels.  ``HeldLU`` keeps one preconditioner per domain and
solves a later operator's system with GMRES right-preconditioned by it
(restart 20, at most 3 restart cycles, stop when the true 2-norm residual
falls to 1e-3 of the right-hand side's: a loose inexact-Newton forcing
term, Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996).  On a polar grid
the first solve builds and holds the ring average of its operator;
elsewhere the first solve factorizes.  When GMRES misses its tolerance,
the operator is factorized directly, exactly as a plain ``solve`` does,
and that factorization is held from then on.  A preconditioner is never
applied to an operator over another domain.  A GMRES cycle of k
iterations applies the held preconditioner 1 + k times.
``stability_check`` refines its polar-grid solve on the ring average the
same way and falls back to the LU when the refinement stalls.  Only a CSR
matrix imports scipy.sparse, and only a factorization scipy.sparse.linalg
(``spla``, loaded on first use), so a run with no LU loads no scipy module.

Coefficients: the DK coefficients, like the assembly they are built
from, are computed one flat (N,) entry of each 2x2 (or 1x1) matrix at a
time, with the operations of the matrix formulas in the same order, so the
results are those of the (N, n, n) broadcast forms bit for bit.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass, field

import numpy as np

from .assembly import _frame, assemble_curvature, require_admissible, sym_inverse_parts
from .errors import SingularLinearSystem, SingularShapeOperator
from .riemann import normal_curvature_endomorphism

__all__ = [
    "EllipticOperator",
    "HeldLU",
    "frame_operators",
    "build_DK",
    "build_JK",
    "measured_normal_curvature",
    "stability_check",
]


def __getattr__(name):
    """``spla`` is scipy.sparse.linalg, imported with the first LU (PEP 562)."""
    if name != "spla":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return importlib.import_module("scipy.sparse.linalg")


def frame_operators(chart, domain):
    """Sparse maps v -> frame gradient / Hessian components of v.

    Returns (P, H) with P[a] and H[(a, b)] (a <= b) CSR matrices of shape
    (N, N), made on each call and kept nowhere: the derivative operators,
    but on polar grids P[1], H[(0, 1)] and H[(1, 1)] combine their weights
    slot by slot with the operations of the sparse products and sums of
    ``diag(1/w) @ D``.  Interior rows reproduce ``assembly.frame_quantities``
    to rounding, not exactly: on polar grids the warp factors scale the
    weights here but the differences there (on H[(1, 1)] of a smooth field
    with |H| <= 0.9, hyperbolic chart: 4.5e-12 on a 17x64 ball, growing as
    1/h^2 to 1.4e-9 on 65x256).
    """
    frame = _frame(chart, domain)
    st, d1, d2 = frame.derivs
    P, H = list(d1), dict(d2)
    if frame.warp is not None:
        wf, ratio = frame.warp
        inv, inv2 = 1.0 / wf, 1.0 / wf**2

        def combined(fn, *ops):
            return {s: fn(*(op.get(s, 0.0) for op in ops)) for s in set().union(*ops)}

        H[(0, 1)] = combined(lambda a, b: inv * (a - ratio * b), d2[(0, 1)], d1[1])
        H[(1, 1)] = combined(lambda a, b: inv2 * a + ratio * b, d2[(1, 1)], d1[0])
        P[1] = combined(lambda a: inv * a, d1[1])
    return tuple(map(st.csr, P)), {ab: st.csr(op) for ab, op in H.items()}


@dataclass
class EllipticOperator:
    """Discrete second-order operator with identity rows on the boundary.

    ``op @ v`` (``apply``) reads ``weights``, {slot: (N,) weights} on the
    ``grids.Stencils`` ``stencils``; ``matrix``, its CSR matrix, is made on
    first access.  ``second_order`` / ``drift`` / ``zeroth`` hold the
    per-node coefficients of the frame derivatives (boundary rows zero),
    which the build folds onto the derivative operators to form
    ``weights``; ``kind`` names the construction and ``normal_curvature``
    stores the measured ambient W for the comparison operator.
    """

    domain: object
    stencils: object  # the domain's grids.Stencils
    weights: dict
    second_order: np.ndarray  # (N, n, n)
    drift: np.ndarray  # (N, n)
    zeroth: np.ndarray  # (N,)
    kind: str = "DK"
    normal_curvature: np.ndarray | None = None
    _lu: object = field(default=None, repr=False, compare=False)

    def apply(self, v):
        return self.stencils.apply(self.weights, self.domain.check_values(v))

    __matmul__ = apply

    @functools.cached_property
    def matrix(self):
        return self.stencils.csr(self.weights)

    def factor(self):
        """Sparse LU factors of ``matrix``, computed once and cached.

        The rows and columns are taken in the domain's nested-dissection
        order and SuperLU keeps it (no column reordering) and pivots on the
        diagonal unless that is exactly zero.
        """
        if self._lu is None:
            perm = self.domain.dissection_order()
            if not np.all(np.diff(self.matrix.indptr)):  # SuperLU can crash on one
                raise SingularLinearSystem("sparse factorization failed: an empty row")
            try:
                lu = importlib.import_module(__name__).spla.splu(  # lazy, replaceable
                    self.matrix[perm][:, perm].tocsc(), permc_spec="NATURAL",
                    diag_pivot_thresh=0.0, options={"SymmetricMode": True},
                )
            except RuntimeError as exc:
                raise SingularLinearSystem(f"sparse factorization failed: {exc}") from exc
            self._lu = _PermutedLU(lu, perm)
        return self._lu

    def solve(self, rhs, held=None):
        """Solve (this operator) w = rhs with zero Dirichlet values.

        Boundary entries of ``rhs`` are ignored (forced to the zero Dirichlet
        data).  Without ``held`` the system is solved directly with this
        operator's cached sparse LU; with a ``HeldLU`` it is solved by
        ``held.solve`` (preconditioned GMRES, direct on failure).
        """
        rhs = self.domain.check_values(rhs).copy()
        rhs[self.domain.boundary] = 0.0
        w = self.factor().solve(rhs) if held is None else held.solve(self, rhs)
        if not np.all(np.isfinite(w)):
            raise SingularLinearSystem("linear solve produced non-finite values")
        w[self.domain.boundary] = 0.0  # exact Dirichlet data, no rounding dust
        return w


class _PermutedLU:
    """LU factors of ``matrix[perm][:, perm]`` that solve systems of ``matrix``."""

    def __init__(self, lu, perm):
        self.lu = lu
        self.perm = perm

    @property
    def nnz(self):
        """Stored entries of both factors."""
        return self.lu.nnz

    def solve(self, rhs):
        y = self.lu.solve(rhs[self.perm])
        out = np.empty_like(y)
        out[self.perm] = y
        return out


class _Tridiagonal:
    """Tridiagonal systems along axis 0, row i reading lower[i] x[i - 1] +
    diag[i] x[i] + upper[i] x[i + 1] (a trailing axis holds independent
    systems), factored once by Thomas elimination in the order of LAPACK's
    gtsv when it swaps no rows.  A 1-D system runs on Python floats, a few
    times faster than on numpy scalars.  Raises SingularLinearSystem when a
    pivot is zero or not finite."""

    def __init__(self, lower, diag, upper):
        lower, diag, self.upper = _rows(lower), _rows(diag), _rows(upper)
        p = diag[0]
        mult, pivot = self.mult, self.pivot = [0.0], [p]
        try:
            with np.errstate(divide="ignore", invalid="ignore"):  # checked below
                for low, d, up in zip(lower[1:], diag[1:], self.upper):
                    m = low / p
                    p = d - m * up
                    mult.append(m)
                    pivot.append(p)
        except ZeroDivisionError:  # a float pivot is 0.0: raised below
            pass
        pivot = np.array(pivot)
        if not np.all(np.isfinite(pivot) & (pivot != 0.0)):
            raise SingularLinearSystem("tridiagonal system has a zero pivot")

    def solve(self, rhs):
        x = _rows(rhs)
        for i in range(1, len(x)):
            x[i] = x[i] - self.mult[i] * x[i - 1]
        x[-1] = x[-1] / self.pivot[-1]
        for i in range(len(x) - 2, -1, -1):
            x[i] = (x[i] - self.upper[i] * x[i + 1]) / self.pivot[i]
        return np.array(x)


def _rows(a):
    """``a`` as a list of its rows: floats for a 1-D array."""
    return a.tolist() if a.ndim == 1 else list(a)


class _RingAverage:
    """The ring average of a polar-grid operator, solved by FFT in phi.

    ``means[i, a + 1, b + 1]`` is the mean over phi of ring i's weights on
    slot (a, b), from ring 1 on the ball.  Their operator is circulant in
    phi (T. Chan's optimal circulant approximation, SIAM J. Sci. Stat.
    Comput. 9, 1988), so Fourier mode k of its rings obeys a tridiagonal
    system in the radius, ring i's symbols sum_b mean(i, a, b) exp(i k b
    dphi) for a = -1, 0, 1 (Swarztrauber & Sweet, SIAM J. Numer. Anal. 10,
    1973), all factored once (``_Tridiagonal``).  On the ball the pole row
    (its slots) is kept exactly: it and ring 1's couplings to the pole
    (slots a = -1) border the ring system, which a rank-one Schur complement
    eliminates.  Raises SingularLinearSystem when a pivot is zero or not
    finite.
    """

    def __init__(self, op):
        rings, nphi = op.domain.shape
        self.start = start = int(op.domain.pole is not None)  # the pole is ring 0
        self.shape = (rings - start, nphi)
        self.means = np.array([op.weights[s][start:].reshape(-1, nphi).mean(-1)
                               for s in range(9)]).T.reshape(-1, 3, 3)
        turn = np.exp(1j * np.arange(nphi // 2 + 1) * op.domain.spacing[1])
        symbols = self.means @ np.array([turn.conj(), np.ones_like(turn), turn])
        self.tri = _Tridiagonal(*np.moveaxis(symbols, 1, 0))  # lower[0] is not read
        if start:
            cols0 = op.stencils.pole_cols  # of the pole row's slots
            vals0 = np.array([op.weights[s][0] for s in range(len(cols0))])
            on_ring = cols0 != 0  # ring 1 at angle j is node 1 + j
            self.pole_row = np.bincount(cols0[on_ring] - 1, vals0[on_ring], minlength=nphi)
            border = np.zeros(self.shape)
            border[0] = self.means[0, 0].sum()  # ring 1's couplings to the pole
            self.border = self._rings(border)[:, 0]  # constant in phi
            self.schur = vals0[~on_ring].sum() - self.pole_row.sum() * self.border[0]
            if not (np.isfinite(self.schur) and self.schur != 0.0):
                raise SingularLinearSystem("ring-averaged system is singular at the pole")

    @classmethod
    def of(cls, op):
        """The ring average of ``op``, or None off polar grids or when singular."""
        if op.domain.layout != "polar":
            return None
        try:
            return cls(op)
        except SingularLinearSystem:
            return None

    def _rings(self, x):
        """The averaged ring system's solution for (rings, nphi) values ``x``."""
        return np.fft.irfft(self.tri.solve(np.fft.rfft(x, axis=1)), self.shape[1], axis=1)

    def solve(self, rhs):
        y = self._rings(rhs[self.start:].reshape(self.shape))
        if not self.start:
            return y.ravel()
        pole = (rhs[0] - self.pole_row @ y[0]) / self.schur
        return np.concatenate([[pole], (y - self.border[:, None] * pole).ravel()])


class HeldLU:
    """One held preconditioner, reused for later solves on its domain.

    ``solve(op, rhs)`` runs GMRES on ``op`` right-preconditioned by
    what is held for ``op``'s domain.  The first solve on a polar domain
    (ball or annulus) holds the ring average of its operator (``_RingAverage``);
    elsewhere nothing is held before the first factorization.  If GMRES
    misses its tolerance, or nothing usable is held, ``op`` is factorized,
    that LU is held in place of any ring average, and the system is solved
    directly.  Counters: ``factorizations`` (direct factorizations made
    here), ``ring_averages`` (ring averages built), ``krylov_iterations``
    (inner GMRES iterations over all attempts), ``fallbacks`` (GMRES
    attempts that ended in a factorization), ``trisolves`` (applications of
    the held preconditioner, LU factors or ring average: one per direct
    solve and per preconditioned vector, see ``_krylov``) and ``fill``
    (stored entries of the held LU factors, 0 while none are held).
    """

    RTOL = 1e-3  # against the 2-norm of the right-hand side; atol = 0
    RESTART = 20
    MAXITER = 3  # restart cycles

    def __init__(self):
        self.domain = None
        self.lu = None  # held LU factors
        self.ring = None  # held ring average, while no LU is held
        self.factorizations = 0
        self.ring_averages = 0
        self.krylov_iterations = 0
        self.fallbacks = 0
        self.trisolves = 0

    def counters(self):
        return {
            "factorizations": self.factorizations,
            "ring_averages": self.ring_averages,
            "krylov_iterations": self.krylov_iterations,
            "fallbacks": self.fallbacks,
            "trisolves": self.trisolves,
            "fill": 0 if self.lu is None else self.lu.nnz,
        }

    def solve(self, op, rhs):
        """w with op @ w = rhs (rhs already carries the boundary data)."""
        if self.domain is not op.domain:
            self.domain, self.lu, self.ring = op.domain, None, _RingAverage.of(op)
            self.ring_averages += self.ring is not None
        if self.lu is not None or self.ring is not None:
            w = self._krylov(op, rhs)
            if w is not None:
                return w
            self.fallbacks += 1
        self.factorizations += op._lu is None
        self.lu, self.ring = op.factor(), None
        return self._apply(rhs)

    def _apply(self, rhs):
        """The held preconditioner's solution of ``rhs`` (counted in ``trisolves``)."""
        self.trisolves += 1
        return (self.ring if self.lu is None else self.lu).solve(rhs)

    def _krylov(self, op, rhs):
        """Restarted GMRES on op P^-1 from x0 = 0 for the held P, or None
        on a miss (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986; Saad,
        Iterative Methods for Sparse Linear Systems, 2003, sec. 9.3.2).  A
        cycle of k modified Gram-Schmidt Arnoldi steps ends when the Givens
        residual estimate reaches RTOL of |rhs| (a breakdown makes it zero),
        then adds P^-1 V y to x: k + 1 applications of P, k + 1 products.
        x is returned once its true residual is within RTOL.  A zero ``rhs``
        gives zeros without applying P; a zero or non-finite Givens pivot,
        or a non-finite x, is a miss.
        """
        x, r, beta, m = np.zeros_like(rhs), rhs, np.linalg.norm(rhs), self.RESTART
        tol = self.RTOL * beta
        if beta == 0.0:
            return x
        H = np.zeros((m + 1, m))
        with np.errstate(all="ignore"):  # non-finite values end in a miss
            for _ in range(self.MAXITER):
                V, g, rot = [r / beta], np.zeros(m + 1), []
                g[0] = beta
                for j in range(m):
                    w, col = op @ self._apply(V[j]), H[:, j]
                    for i in range(j + 1):
                        col[i] = w @ V[i]
                        w -= col[i] * V[i]
                    col[j + 1] = h = np.linalg.norm(w)
                    for i, (c, s) in enumerate(rot):  # the earlier rotations
                        col[i:i + 2] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
                    rho = np.hypot(col[j], h)
                    if not 0.0 < rho < np.inf:
                        return None
                    c, s = col[j] / rho, h / rho
                    col[j], col[j + 1] = rho, 0.0
                    rot.append((c, s))
                    g[j], g[j + 1] = c * g[j], -s * g[j]
                    self.krylov_iterations += 1
                    if abs(g[j + 1]) <= tol:
                        break
                    V.append(w / h)
                x += self._apply(np.linalg.solve(H[:j + 1, :j + 1], g[:j + 1]) @ V[:j + 1])
                beta = np.linalg.norm(r := rhs - op @ x)
                if beta <= tol:
                    return x
        return None


def _operator(chart, domain, c2, drift, zeroth, kind, normal_curvature=None):
    """The ``EllipticOperator`` of per-node coefficients, identity rows on
    the boundary: the slot sums of module docstring, "Storage"."""
    frame = _frame(chart, domain)
    acc = np.zeros((3**domain.n, domain.num_nodes))  # (slots, nodes)
    for table, coef in frame.fold(c2, drift):
        for s, w in table.items():
            acc[s] += coef * w
    acc[len(acc) // 2] += zeroth  # the middle slot: the node itself
    acc[:, domain.boundary] = 0.0
    acc[len(acc) // 2, domain.boundary] = 1.0
    return EllipticOperator(domain, frame.derivs[0], dict(enumerate(acc)), c2, drift,
                            zeroth, kind, normal_curvature)


def _warp_derivative_fields(chart, f, p, psi, n):
    """(sigma_t, tau_t, tau, d_t psi, d_p psi) of the closed (psi, Psi) forms.

    ``p`` and d_p psi are lists of the n flat (N,) components.  d_t Psi =
    sigma_t Id + tau_t p p^T, so tr(X d_t Psi) is formed from tr X and
    p^T X p without the (N, n, n) tensor.
    """
    c, cp, cpp = chart.warp(f)
    c0 = chart.c0
    rho = c / c0
    rho_t = cp / c0
    q = sum(pa * pa for pa in p)
    sig_t = -(cp * cp + c * cpp) / c0**2
    tau = -2.0 * cp / c
    tau_t = -2.0 * (cpp / c - (cp / c) ** 2)
    denom = rho * rho + q
    dtpsi = psi * ((n - 2.0) * rho_t / (n * rho) + (n + 2.0) * rho * rho_t / (n * denom))
    psi_scaled = psi * (n + 2.0)
    n_denom = n * denom
    dppsi = [psi_scaled * pa / n_denom for pa in p]
    return sig_t, tau_t, tau, dtpsi, dppsi


def _derivative_coefficients(chart, domain, assembly):
    """(c2, drift, zeroth) of DK.

    Every entry is a flat (N,) expression over all nodes, with the
    operations, and their order, of the (N, n, n) matrix formulas; boundary
    rows, where M = 0 makes them inf or nan, are then set to zero.  The
    builtin ``sum`` starts from 0, as numpy's reductions (``np.sum``,
    ``np.trace``, ``np.einsum``) do, so even signed zeros agree.
    """
    n = domain.n
    interior = domain.interior
    K = assembly.K
    psi = assembly.psi
    p = [assembly.grad[:, a] for a in range(n)]

    def minv(a, b):
        return Minv[(min(a, b), max(a, b))]

    with np.errstate(divide="ignore", invalid="ignore"):  # boundary rows only
        Minv = sym_inverse_parts(assembly.M)
        sig_t, tau_t, tau, dtpsi, dppsi = _warp_derivative_fields(
            chart, assembly.f, p, psi, n
        )
        Minv_p = [sum(minv(a, b) * p[b] for b in range(n)) for a in range(n)]
        K_n = K / n
        drift_scale = 2.0 * K * tau / n
        tr_Minv = sum(minv(a, a) for a in range(n))
        c0 = K_n * (sig_t * tr_Minv + tau_t * sum(pa * mp for pa, mp in zip(p, Minv_p)))
        c0 = c0 - K * dtpsi / psi
        k_psi = K / psi
        c2 = np.empty((domain.num_nodes, n, n))
        for (a, b), m_ab in Minv.items():
            c2[:, a, b] = c2[:, b, a] = np.where(interior, K_n * m_ab, 0.0)
        drift = np.stack([
            np.where(interior, drift_scale * Minv_p[a] - k_psi * dppsi[a], 0.0)
            for a in range(n)
        ], axis=1)
    return c2, drift, np.where(interior, c0, 0.0)


def build_DK(chart, domain, f, assembly=None):
    """Derivative of the curvature map f -> K(f) at an admissible f."""
    if assembly is None:
        assembly = assemble_curvature(chart, domain, f)
    require_admissible(assembly, "linearization point")
    c2, drift, zeroth = _derivative_coefficients(chart, domain, assembly)
    return _operator(chart, domain, c2, drift, zeroth, "DK")


def measured_normal_curvature(chart, domain):
    """Ambient normal-curvature endomorphism W at a representative base point.

    <W X, Y> = <R(X, N0) Y, N0> for the unit normal N0 of the zero-height
    slice, evaluated with the finite-difference Riemann oracle on the
    graph-coordinate metric (grid axes plus height).  Graph coordinates keep
    the metric entries O(1) at every slice offset, so the oracle's fixed
    steps stay inside the chart; the conformal representation, by contrast,
    compresses the whole domain below the stencil width once the offset is
    large.  For a constant-curvature ambient of curvature kappa the result
    is -kappa * Id, but the value is measured, never assumed.
    """
    ii = np.flatnonzero(domain.interior)
    coords = domain.coords[ii]
    if domain.layout == "polar":
        smid = 0.5 * (domain.extent[0][0] + domain.extent[0][1])
        pick = ii[int(np.argmin(np.abs(coords[:, 0] - smid)))]
    else:
        pick = ii[len(ii) // 2]
    layout = domain.layout

    def metric_fn(q):
        q = np.asarray(q, dtype=float)
        return chart.graph_metric_at(q[..., :-1], q[..., -1], layout)

    pt = np.concatenate([domain.coords[pick], [0.0]])
    g = metric_fn(pt)
    m = g.shape[-1]
    frame = []
    for k in range(m):
        v = np.eye(m)[k]
        for u in frame:
            v = v - (u @ g @ v) * u
        frame.append(v / np.sqrt(v @ g @ v))
    tangent = np.array(frame[:-1])
    normal = frame[-1]
    return normal_curvature_endomorphism(metric_fn, pt, tangent, normal)


def build_JK(base, domain):
    """Comparison (Jacobi) operator of the zero-height slice of ``base``.

    JK phi = h * phi - (1/a0) Lap phi with h = tr(A0^(-1) W) - tr(A0); raises
    SingularShapeOperator when the slice is totally geodesic (a0 = 0).
    """
    chart = base.chart
    a0 = float(base.a0)
    n = domain.n
    if abs(a0) < 1e-12:
        raise SingularShapeOperator(
            "base shape operator is zero (totally geodesic slice)"
        )
    W = measured_normal_curvature(chart, domain)
    h = float(np.trace(W)) / a0 - n * a0
    N = domain.num_nodes
    interior = domain.interior
    c2 = np.zeros((N, n, n))
    c2[interior] = -(1.0 / a0) * np.eye(n)
    drift = np.zeros((N, n))
    zeroth = np.where(interior, h, 0.0)
    return _operator(chart, domain, c2, drift, zeroth, "JK", normal_curvature=W)


def stability_check(chart, domain, f, assembly=None):
    """Inverse-negativity probe of the linearized operator at f.

    Solves DK(f) w = 1 (interior source) with zero Dirichlet data; ``stable``
    is true iff w < 0 at every interior node, and w is returned as the
    witness.  ``assembly`` is ``assemble_curvature(chart, domain, f)`` when
    the caller already has it, handed on to ``build_DK``.

    On polar grids w is found by iterative refinement on the ring average of
    DK (``_refined``), which is exact when DK is rotationally symmetric.
    Otherwise, or when the refinement does not converge, DK's sparse LU
    solves the system directly.  That factorization is the probe's memory
    peak, so once DK is built the probe releases what it does not read:
    ``domain`` is left without cached operators (``drop_caches``; they
    rebuild on the next call that needs them) and DK without its coefficient
    arrays and, once its CSR matrix is made, its slot weights.  The LU then
    holds the matrix, its dissection-order copy and the right-hand side, and
    the witness is the one the cached operators give, bit for bit.
    """
    op = build_DK(chart, domain, f, assembly=assembly)
    domain.drop_caches()
    op.second_order = op.drift = op.zeroth = None
    rhs = np.where(domain.interior, 1.0, 0.0)
    w = _refined(op, rhs)
    if w is None:
        op.matrix  # made now: all the LU reads
        op.weights = None
        w = op.solve(rhs)
    stable = bool(np.all(w[domain.interior] < 0.0))
    return {"stable": stable, "witness": w}


_REFINE_TOL = 1e-10  # on max|correction| / max|w|
_REFINE_STEPS = 4


def _refined(op, rhs):
    """w with op @ w = rhs by iterative refinement, or None.

    w <- w + P^-1 (rhs - op @ w) from w = 0, with P the ring average
    of ``op``, until a correction is at most ``_REFINE_TOL`` of w in the max
    norm: an error-oriented stop (Deuflhard, Newton Methods for Nonlinear
    Problems, 2004, sec. 2.1), since the residual stalls at the operator's
    round-off floor.  None off polar grids, when P is singular, when a
    correction does not at least halve the one before, or after
    ``_REFINE_STEPS`` corrections.
    """
    ring = _RingAverage.of(op)
    if ring is None:
        return None
    w, last = np.zeros_like(rhs), np.inf
    for _ in range(_REFINE_STEPS):
        delta = ring.solve(rhs - op @ w)
        size = np.max(np.abs(delta))
        if not (np.isfinite(size) and size <= 0.5 * last):
            return None
        w += delta
        if size <= _REFINE_TOL * np.max(np.abs(w)):
            return w
        last = size
    return None
