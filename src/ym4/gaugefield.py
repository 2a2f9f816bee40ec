"""Connections, curvature, gauge transformations, energies, topology.

Array layout: a connection is a (4, n, n, n, n, d) array (component j-1
first), a curvature is (6, n, n, n, n, d) over the ordered index pairs
PAIRS = [(1,2), (1,3), (1,4), (2,3), (2,4), (3,4)], and electric fields are
(4, n, n, n, n, d).  The orientation is the right-handed (x1, x2, x3, x4)
frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import algebra
from .algebra import LieGroupSpec, quat_conj, quat_mul, quat_rotation_matrix
from .grid import Grid4

PAIRS = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
_PAIR_INDEX = {p: k for k, p in enumerate(PAIRS)}

# (*f)_{ij} = (1/2) eps_{ijkl} f_{kl}, eps_{1234} = +1; per stored pair:
# index k of PAIRS maps to (source index, sign)
_HODGE = [(5, 1.0), (4, -1.0), (3, 1.0), (2, 1.0), (1, -1.0), (0, 1.0)]

# relative residual at which the covariant CG solve stops, and its
# iteration budget
CG_TOL = 1e-12
CG_MAX_ITER = 400


class FieldError(ValueError):
    pass


def pair_component(f: np.ndarray, i: int, j: int) -> np.ndarray:
    """f_{ij} for any i != j from the i<j storage."""
    if i == j:
        return np.zeros_like(f[0])
    if i < j:
        return f[_PAIR_INDEX[(i, j)]]
    return -f[_PAIR_INDEX[(j, i)]]


@dataclass
class ConnectionField:
    """Spatial connection 1-form a_j, units 1/length."""

    grid: Grid4
    spec: LieGroupSpec
    a: np.ndarray  # (4, n, n, n, n, d)

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        want = (4,) + self.grid.shape + (self.spec.dim,)
        if self.a.shape != want:
            raise FieldError(f"connection shape {self.a.shape}, expected {want}")


def zero_connection(grid: Grid4, spec: LieGroupSpec) -> ConnectionField:
    return ConnectionField(grid, spec, np.zeros((4,) + grid.shape + (spec.dim,)))


@dataclass
class CurvatureField:
    """Magnetic components f_{ij} (i<j) and optional electric f_{0j}."""

    grid: Grid4
    spec: LieGroupSpec
    f: np.ndarray  # (6, n, n, n, n, d)
    e: Optional[np.ndarray] = None  # (4, n, n, n, n, d)


@dataclass
class InitialDataSet:
    """Pair (a_j, e_j) with the recorded Gauss-constraint residual."""

    a: ConnectionField
    e: np.ndarray
    constraint_residual: float = field(default=np.nan)


@dataclass
class GaugeTransformField:
    """Per-site su(2) group element stored as a unit quaternion field."""

    grid: Grid4
    spec: LieGroupSpec
    q: np.ndarray  # (n, n, n, n, 4)

    def __post_init__(self):
        if not self.spec.is_su2:
            raise FieldError("field-level gauge transforms are su(2) only")
        self.q = np.asarray(self.q, dtype=float)
        if self.q.shape != self.grid.shape + (4,):
            raise FieldError("quaternion field shape mismatch")

    def inverse(self) -> "GaugeTransformField":
        return GaugeTransformField(self.grid, self.spec, quat_conj(self.q))


# -- differential operations -------------------------------------------------


def covariant_derivative(a: ConnectionField, B: np.ndarray, j: int) -> np.ndarray:
    """D_j B = partial_j B + [a_j, B] for an algebra-valued field B."""
    return algebra.bracket_arr(a.spec, a.a[j - 1], B, acc=a.grid.partial(B, j))


def curvature(a: ConnectionField) -> CurvatureField:
    """f_{ij} = partial_i a_j - partial_j a_i + [a_i, a_j]."""
    g = a.grid
    f = np.empty((6,) + g.shape + (a.spec.dim,))
    for k, (i, j) in enumerate(PAIRS):
        np.subtract(g.partial(a.a[j - 1], i), g.partial(a.a[i - 1], j), out=f[k])
        algebra.bracket_arr(a.spec, a.a[i - 1], a.a[j - 1], acc=f[k])
    return CurvatureField(g, a.spec, f)


def curvature_tension(
    a: ConnectionField,
    F: Optional[CurvatureField] = None,
    kick: Optional[tuple] = None,
) -> np.ndarray:
    """T_k = Sum_l D_l f_{lk}: the static Yang-Mills tension, shape (4,...,d).

    For l > k the stored pair is f_{kl} = -f_{lk}, and D_l f_{kl} is
    subtracted; IEEE negation is exact, so this equals adding D_l f_{lk}.
    Each row T_k is summed onto zeros in a buffer of its own.

    With kick = (c, v), v (shape (4,...,d)) gets v + c * T in place and is
    returned, with no connection-sized T held: each row is built in one
    component-sized buffer, scaled by c and added into v[k-1].  That is
    bitwise stepping.axpy(c, T, v) with T the default result, since IEEE
    addition commutes.
    """
    if F is None:
        F = curvature(a)
    out = np.empty_like(a.a) if kick is None else kick[1]
    row = None if kick is None else np.empty_like(a.a[0])
    for k in range(1, 5):
        t = out[k - 1] if kick is None else row
        t.fill(0.0)
        for l in range(1, 5):
            if l == k:
                continue
            if l < k:
                t += covariant_derivative(a, F.f[_PAIR_INDEX[(l, k)]], l)
            else:
                t -= covariant_derivative(a, F.f[_PAIR_INDEX[(k, l)]], l)
        if kick is not None:
            t *= kick[0]
            out[k - 1] += t
    return out


def covariant_divergence(a: ConnectionField, v: np.ndarray) -> np.ndarray:
    """Sum_j D_j v_j for a 4-vector of algebra-valued fields (4,...,d)."""
    out = np.zeros(a.grid.shape + (a.spec.dim,))
    for j in range(1, 5):
        out += covariant_derivative(a, v[j - 1], j)
    return out


# -- gauge transformations ---------------------------------------------------


def transform_coefficients(O: GaugeTransformField, B: np.ndarray) -> np.ndarray:
    """Ad(O) applied pointwise to an algebra-valued field (any leading axes)."""
    r = quat_rotation_matrix(O.q)
    return np.einsum("...ab,...b->...a", r, B)


def maurer_cartan(O: GaugeTransformField, j: int) -> np.ndarray:
    """Algebra coefficients of O_{;j} = (partial_j O) O^{-1}."""
    dq = O.grid.partial(O.q, j)
    p = quat_mul(dq, quat_conj(O.q))
    return 2.0 * p[..., 1:]


def gauge_transform(a: ConnectionField, O: GaugeTransformField) -> ConnectionField:
    """a_j -> Ad(O) a_j - (partial_j O) O^{-1}."""
    if a.grid != O.grid:
        raise FieldError("gauge transform grid mismatch")
    out = np.empty_like(a.a)
    for j in range(1, 5):
        out[j - 1] = transform_coefficients(O, a.a[j - 1]) - maurer_cartan(O, j)
    return ConnectionField(a.grid, a.spec, out)


# -- energies and topology ---------------------------------------------------


def energy_density(F: CurvatureField) -> np.ndarray:
    """Pointwise Sum_{i<j}|f_{ij}|^2 (+ Sum_j |e_j|^2 when present)."""
    dens = np.einsum("k...a,k...a->...", F.f, F.f)
    if F.e is not None:
        dens = dens + np.einsum("k...a,k...a->...", F.e, F.e)
    return dens


def static_energy(F: CurvatureField) -> float:
    return F.grid.integrate(energy_density(F))


def hodge_dual(F: CurvatureField) -> CurvatureField:
    dual = np.empty_like(F.f)
    for k, (src, sign) in enumerate(_HODGE):
        dual[k] = sign * F.f[src]
    return CurvatureField(F.grid, F.spec, dual, e=None)


def chi_density(F: CurvatureField) -> np.ndarray:
    """Topological charge density Sum_{i<j} <f_ij, (*f)_ij>."""
    dual = hodge_dual(F)
    return np.einsum("k...a,k...a->...", F.f, dual.f)


def chi(F: CurvatureField) -> float:
    """Characteristic number; positive for the shipped self-dual generator."""
    return F.grid.integrate(chi_density(F))


def self_dual_residual(F: CurvatureField) -> float:
    """|f - *f|_2 / |f|_2."""
    dual = hodge_dual(F)
    return float(np.linalg.norm(F.f - dual.f) / np.linalg.norm(F.f))


# -- constraint handling -----------------------------------------------------


def gauss_residual(a: ConnectionField, e: np.ndarray) -> float:
    """|D^j e_j|_2: the Gauss-constraint residual of an electric field at a."""
    return a.grid.l2norm(covariant_divergence(a, e))


def _pcg(apply_op, apply_pre, b):
    """Preconditioned CG on a flat-indexed SPD operator; plain numpy sums."""
    x = np.zeros_like(b)
    r = b.copy()
    z = apply_pre(r)
    p = z.copy()
    rz = float(np.sum(r * z))
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return x, 0.0
    for _ in range(CG_MAX_ITER):
        Ap = apply_op(p)
        alpha = rz / float(np.sum(p * Ap))
        x += alpha * p
        r -= alpha * Ap
        res = float(np.linalg.norm(r)) / bnorm
        if res <= CG_TOL:
            return x, res
        z = apply_pre(r)
        rz_new = float(np.sum(r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, float(np.linalg.norm(r)) / bnorm


def covariant_poisson(a: ConnectionField, rhs: np.ndarray, deflate: bool = False) -> np.ndarray:
    """Solve D^j D_j phi = rhs for an algebra-valued potential phi.

    Preconditioned conjugate gradient on the (negated, positive) covariant
    Laplacian.  The flat stencil Laplacian is exactly singular on the 2^4
    modes whose per-axis symbol vanishes (mean and Nyquist checkerboards),
    but the covariant operator still moves them through the brackets, so
    the flat preconditioner is shifted by mu ~ mean |a|^2 (the scale of the
    bracket coupling) rather than deflated; a tiny grid-scale floor keeps
    the shift positive for flat connections.

    With deflate=True the solve is restricted (Galerkin) to the complement
    of those flat-kernel modes.  On a small connection the covariant
    operator is nearly singular there (eigenvalue ~ |a|^2), so an
    unrestricted solve pollutes phi with large near-kernel components;
    deflation matches the convention of the spectral inverse Laplacian,
    which zeroes exactly those modes.
    """
    g = a.grid

    lap = -g.laplace_symbol()  # >= 0
    kernel = lap == 0.0
    if rhs.ndim > 4:
        kernel = kernel.reshape(kernel.shape + (1,) * (rhs.ndim - 4))

    def project(x):
        xhat = g.fft(x)
        return np.real(g.ifft(np.where(kernel, 0.0, xhat)))

    def apply_op(phi):
        # -Sum_j D_j D_j phi (positive semidefinite away from the kernel)
        out = np.zeros_like(phi)
        for j in range(1, 5):
            out += covariant_derivative(a, covariant_derivative(a, phi, j), j)
        return project(-out) if deflate else -out

    kmin2 = (2.0 * np.pi / g.extent) ** 2
    mu = float(np.mean(np.einsum("k...a,k...a->...", a.a, a.a))) + 1e-6 * kmin2
    denom = lap + mu
    if rhs.ndim > 4:
        denom = denom.reshape(denom.shape + (1,) * (rhs.ndim - 4))

    def apply_pre(r):
        rhat = g.fft(r) / denom
        if deflate:
            rhat = np.where(kernel, 0.0, rhat)
        return np.real(g.ifft(rhat))

    b_vec = project(-rhs) if deflate else -rhs
    phi, res = _pcg(apply_op, apply_pre, b_vec)
    if res > 1e-8:
        raise FieldError(f"covariant elliptic solve stalled at relative residual {res:.3e}")
    return phi


def gauss_project(a: ConnectionField, e_raw: np.ndarray) -> InitialDataSet:
    """Project e_raw onto the Gauss-constraint surface.

    Solves D^j D_j phi = D^j e_raw_j and returns e = e_raw - D phi.
    """
    div_e = covariant_divergence(a, e_raw)
    scale = a.grid.l2norm(e_raw)
    if a.grid.l2norm(div_e) <= 1e-9 * scale:
        # already on the constraint surface to better than the advertised
        # tolerance; solving would chase arithmetic noise (the CG residual is
        # relative to a right-hand side that is itself round-off)
        e = np.array(e_raw, dtype=float, copy=True)
    else:
        phi = covariant_poisson(a, div_e)
        e = np.empty_like(e_raw)
        for j in range(1, 5):
            e[j - 1] = e_raw[j - 1] - covariant_derivative(a, phi, j)
    return InitialDataSet(a, e, gauss_residual(a, e))


# -- concentration scales ----------------------------------------------------


def _radius_ladder(grid: Grid4) -> list:
    r = grid.h
    ladder = []
    while r <= grid.extent / 4.0 + 1e-12:
        ladder.append(r)
        r *= 2.0
    return ladder


def _ball_energy_max(grid: Grid4, dens_hat: np.ndarray, r: float) -> float:
    """max over grid centers of the sharp-ball energy integral; dens_hat is
    the Fourier transform of the energy density."""
    ind = (grid.radius() <= r).astype(float)
    conv = np.real(grid.ifft(dens_hat * grid.fft(ind))) * grid.h**4
    return float(np.max(conv))


def concentration_scale(d: InitialDataSet, threshold: float, F: CurvatureField) -> float:
    """Largest dyadic ladder radius r with sup_x (ball-r energy) <= threshold.

    The threshold is the caller's choice of eps or eps^2; both conventions
    appear in the definition's uses and are not reconciled here.  F is the
    curvature of d.a; the energy takes its electric part from d.e.
    """
    dens_hat = d.a.grid.fft(energy_density(CurvatureField(F.grid, F.spec, F.f, e=d.e)))
    best = 0.0
    for r in _radius_ladder(d.a.grid):
        if _ball_energy_max(d.a.grid, dens_hat, r) <= threshold:
            best = r
    return best
