"""Energy-momentum tensor, null decomposition, and the hyperboloidal
weighted-energy monotonicity diagnostics.

Conventions: Minkowski signature (-, +, +, +, +); temporal-gauge states
supply F_{0j} = adot_j.  The multiplier vector field is

    X_eps = (1 / rho_eps) ((t + eps) dt + x . dx),
    rho_eps = sqrt((t + eps)^2 - r^2),

whose contracted momentum P_alpha = T_{alpha beta} X^beta satisfies the
divergence identity with nonnegative bulk density (2 / rho_eps)|iota_X F|^2.
The names keep the curvature null component (varrho) and the hyperboloidal
weight (rho_eps) fully spelled out.

The pointwise formulas (T, iota_X F, the null frame and its components)
act on any trailing site shape.  The public full-grid functions apply them
to whole grids.  The identity assembly applies them only to the sites it
integrates, gathered as e[:, sel], f[:, sel], x[:, sel]: the cone interior
for the dissipation, the one-cell shell r ~ t for the lateral flux, and the
ball r <= t at the two end snapshots for the weighted energy.  It builds
the curvature once per snapshot and hands it to each per-snapshot helper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .gaugefield import CurvatureField, FieldError, curvature, pair_component
from .wave import WaveState


@dataclass
class NullFrame:
    """Per-site radial direction, tangential triad, and validity mask."""

    nhat: np.ndarray  # (4, ...)
    tangent: np.ndarray  # (3, 4, ...)
    mask: np.ndarray  # (...) bool, True where r >= 2h


@dataclass
class NullComponents:
    alpha: np.ndarray  # (3, ..., d)
    alphabar: np.ndarray  # (3, ..., d)
    varrho: np.ndarray  # (..., d)
    sigma: np.ndarray  # (3, ..., d): tangent pairs (1,2), (1,3), (2,3)
    mask: np.ndarray


def _offsets(grid, center) -> np.ndarray:
    """Coordinates relative to a spatial center, shape (4, n, n, n, n)."""
    return np.stack([grid.coordinate_field(j) - center[j - 1] for j in range(1, 5)])


def _contract(v: np.ndarray, f: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """u_k = Sum_{j != k} v^j f_{jk}, added onto out (zeros if None).

    v is (4, ...) and f the (6, ..., d) pair storage; returns (4, ..., d).
    """
    if out is None:
        out = np.zeros((4,) + f.shape[1:])
    for k in range(1, 5):
        for j in range(1, 5):
            if j != k:
                out[k - 1] += v[j - 1][..., None] * pair_component(f, j, k)
    return out


def _sq(v: np.ndarray) -> np.ndarray:
    """Per-site squared norm over a leading component axis and the algebra axis."""
    return np.einsum("a...c,a...c->...", v, v)


# -- null frame and components ----------------------------------------------


def _frame(x: np.ndarray, h: float) -> NullFrame:
    """Null frame at sites with coordinates x (4, ...) relative to the center.

    The tangential triad comes from Gram-Schmidt on the coordinate axes
    with the axis of largest |nhat| component dropped; sites with r < 2h
    are masked out.
    """
    r = np.sqrt(np.einsum("j...,j...->...", x, x))
    mask = r >= 2.0 * h - 1e-12
    nhat = x / np.where(r > 0.0, r, 1.0)

    drop = np.argmax(np.abs(nhat), axis=0)
    tangent = np.zeros((3,) + x.shape)
    for m in range(4):
        sel = drop == m
        if not np.any(sel):
            continue
        axes = [ax for ax in range(4) if ax != m]
        prev = [nhat[:, sel]]  # list of (4, nsel) unit vectors
        for slot, ax in enumerate(axes):
            v = np.zeros((4, int(sel.sum())))
            v[ax] = 1.0
            for u in prev:
                v -= np.einsum("js,js->s", u, v) * u
            v /= np.sqrt(np.einsum("js,js->s", v, v))
            prev.append(v)
            tangent[slot, :, sel] = v.T
    return NullFrame(nhat, tangent, mask)


def null_frame(grid, center=(0.0, 0.0, 0.0, 0.0)) -> NullFrame:
    """Radial/tangential orthonormal frame about a spatial center, whole grid."""
    return _frame(_offsets(grid, center), grid.h)


def rotate_frame(frame: NullFrame, theta: float) -> NullFrame:
    """Rotate the tangential triad by theta in the (e_1, e_2) plane.

    The null norms reported downstream are frame-covariant, so this only
    exists to verify that invariance.
    """
    c, s = np.cos(theta), np.sin(theta)
    tangent = frame.tangent.copy()
    tangent[0] = c * frame.tangent[0] + s * frame.tangent[1]
    tangent[1] = -s * frame.tangent[0] + c * frame.tangent[1]
    return NullFrame(frame.nhat, tangent, frame.mask)


def _null_components(e: np.ndarray, f: np.ndarray, frame: NullFrame):
    """(alpha, alphabar, varrho, sigma) of (e, f) in the frame, unmasked."""
    b = _contract(frame.nhat, f)  # b_k = nhat^j f_{jk}
    alpha = np.einsum("ak...,k...c->a...c", frame.tangent, e + b)
    alphabar = np.einsum("ak...,k...c->a...c", frame.tangent, e - b)
    varrho = -np.einsum("k...,k...c->...c", frame.nhat, e)
    # sigma_ab = f_{jk} e_a^j e_b^k for tangent pairs (1,2), (1,3), (2,3)
    f_on_tangent = [_contract(frame.tangent[a], f) for a in range(2)]
    sigma = np.stack(
        [
            np.einsum("k...,k...c->...c", frame.tangent[b], f_on_tangent[a])
            for a, b in ((0, 1), (0, 2), (1, 2))
        ]
    )
    return alpha, alphabar, varrho, sigma


def null_decompose(
    w: WaveState, center=(0.0, 0.0, 0.0, 0.0), frame: Optional[NullFrame] = None
) -> NullComponents:
    """Contract the curvature with the null frame (L, Lbar, e_a)."""
    if frame is None:
        frame = null_frame(w.a.grid, center)
    parts = _null_components(w.adot, curvature(w.a).f, frame)
    m = frame.mask[..., None]
    return NullComponents(*(p * m for p in parts), frame.mask)


# -- energy-momentum tensor -------------------------------------------------


def _stress(e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """T_{alpha beta} from e (4, ..., d) and f (6, ..., d); shape (5, 5, ...)."""
    T = np.zeros((5, 5) + e.shape[1:-1])
    e2 = _sq(e)
    f2 = _sq(f)
    ff = 2.0 * f2 - 2.0 * e2  # <F, F> = F_{ab} F^{ab}
    T[0, 0] = e2 + f2
    for j in range(1, 5):
        acc = np.zeros(e.shape[1:-1])
        for k in range(1, 5):
            if k == j:
                continue
            acc += np.einsum("...a,...a->...", e[k - 1], pair_component(f, j, k))
        T[0, j] = 2.0 * acc
        T[j, 0] = T[0, j]
    for i in range(1, 5):
        for j in range(i, 5):
            acc = -np.einsum("...a,...a->...", e[i - 1], e[j - 1])
            for k in range(1, 5):
                acc += np.einsum(
                    "...a,...a->...", pair_component(f, i, k), pair_component(f, j, k)
                )
            T[i, j] = 2.0 * acc - (0.5 * ff if i == j else 0.0)
            T[j, i] = T[i, j]
    return T


def energy_momentum(w: WaveState) -> np.ndarray:
    """T_{alpha beta}, shape (5, 5, n, n, n, n), symmetric in (alpha, beta)."""
    return _stress(w.adot, curvature(w.a).f)


# -- the X_eps multiplier machinery -----------------------------------------


def _cone_geometry(w: WaveState, vertex, eps: float):
    g = w.a.grid
    t = w.t - vertex[0]
    x = _offsets(g, vertex[1:])
    r = np.sqrt(np.einsum("j...,j...->...", x, x))
    rho2 = (t + eps) ** 2 - r**2
    mask = rho2 >= (2.0 * g.h) ** 2
    rho = np.sqrt(np.where(mask, rho2, 1.0))
    return t, x, r, rho, mask


def _iota(e: np.ndarray, f: np.ndarray, x: np.ndarray, tau: float, rho: np.ndarray) -> np.ndarray:
    """X^alpha F_{alpha beta} at sites x with tau = t + eps; shape (5, ..., d)."""
    out = np.empty((5,) + e.shape[1:])
    out[0] = -np.einsum("j...,j...c->...c", x, e) / rho[..., None]
    out[1:] = _contract(x, f, tau * e) / rho[..., None]
    return out


def iota_xf(w: WaveState, eps: float, vertex=(0.0, 0.0, 0.0, 0.0, 0.0)) -> np.ndarray:
    """(iota_X F)_beta = X^alpha F_{alpha beta}, shape (5, ..., d).

    Component 0 is temporal; sites with rho_eps < 2h are zeroed.
    """
    t, x, r, rho, mask = _cone_geometry(w, vertex, eps)
    return _iota(w.adot, curvature(w.a).f, x, t + eps, rho) * mask[..., None]


def interior_dissipation(
    w: WaveState, eps: float, vertex, gamma: float = 1.0, F: Optional[CurvatureField] = None
) -> float:
    """Integral over the cone section of (2 / rho_eps)|iota_X F|^2.

    F, the curvature of w.a, is built when not given.
    """
    t, x, r, rho, mask = _cone_geometry(w, vertex, eps)
    inside = mask & (r <= gamma * abs(t))
    if F is None:
        F = curvature(w.a)
    rho = rho[inside]
    iota = _iota(w.adot[:, inside], F.f[:, inside], x[:, inside], t + eps, rho)
    return w.a.grid.integrate(2.0 * _sq(iota) / rho)


def weighted_energy(w: WaveState, vertex, eps: float, F: Optional[CurvatureField] = None) -> float:
    """The hyperboloidal weighted energy over the cone section S_t.

    Integrand (1/2) w+ (|alpha|^2 + |varrho|^2 + |sigma|^2)
            + (1/2) w- (|alphabar|^2 + |varrho|^2 + |sigma|^2),
    w+- = ((t + eps +- r) / (t + eps -+ r))^{1/2}; sites masked out of the
    null frame contribute the plain energy density with the mean weight.
    F, the curvature of w.a, is built when not given.
    """
    g = w.a.grid
    t0, x0 = vertex[0], vertex[1:]
    t = w.t - t0
    if t <= 0:
        raise FieldError("cone section requires t > vertex time")
    if max(abs(c) for c in x0) + t > g.extent / 4.0 + 1e-12:
        raise FieldError("cone section leaves the inner half-box validity region")
    r = g.radius(center=x0)
    inside = r <= t
    r = r[inside]
    if not np.all(r < t + eps):
        raise FieldError("cone section touches the characteristic r = t + eps")
    if F is None:
        F = curvature(w.a)
    e, f = w.adot[:, inside], F.f[:, inside]
    frame = _frame(_offsets(g, x0)[:, inside], g.h)
    alpha, alphabar, varrho, sigma = _null_components(e, f, frame)
    wp = np.sqrt((t + eps + r) / np.maximum(t + eps - r, 1e-300))
    wm = 1.0 / wp
    good = np.einsum("...c,...c->...", varrho, varrho) + _sq(sigma)
    integrand = 0.5 * wp * (_sq(alpha) + good) + 0.5 * wm * (_sq(alphabar) + good)
    # masked (small-r) sites: null frame unavailable; reconstruction identity
    # lets the plain density stand in, with the mean weight
    dens = _sq(f) + _sq(e)
    return g.integrate(np.where(frame.mask, integrand, 0.5 * (wp + wm) * dens))


@dataclass
class MorawetzReport:
    t: float
    eps: float
    weighted_energy_start: float
    weighted_energy: float
    interior_dissipation_accum: float
    boundary_term: float
    identity_residual: float


def _boundary_flux(w: WaveState, vertex, eps: float, F: Optional[CurvatureField] = None) -> float:
    """Lateral cone-boundary integrand: shell sum of P_0 + nhat^j P_j.

    P_alpha = T_{alpha beta} X^beta, formed on the shell only; the shell is
    one cell thick around r = t - t0, volume-summed and divided by the
    thickness h.  F, the curvature of w.a, is built when not given.
    """
    g = w.a.grid
    t0, x0 = vertex[0], vertex[1:]
    t = w.t - t0
    r = g.radius(center=x0)
    shell = np.abs(r - t) <= 0.5 * g.h
    r = r[shell]
    x = _offsets(g, x0)[:, shell]
    if F is None:
        F = curvature(w.a)
    T = _stress(w.adot[:, shell], F.f[:, shell])
    rho = np.sqrt(np.maximum((t + eps) ** 2 - r**2, 1e-300))
    X = np.concatenate([((t + eps) / rho)[None], x / rho])
    P = np.einsum("ab...,b...->a...", T, X)
    nhat = x / np.where(r > 0.0, r, 1.0)
    flux = P[0] + np.einsum("j...,j...->...", nhat, P[1:])
    return g.integrate(flux) / g.h


def morawetz_identity_residual(
    snapshots: List[WaveState],
    vertex,
    eps: float,
    t1: float,
    t2: float,
) -> MorawetzReport:
    """Assemble both sides of the integrated monotonicity identity.

    LHS: weighted energy at t2 plus the time-integrated interior
    dissipation; RHS: weighted energy at t1 plus the time-integrated
    lateral boundary flux.  Time integrals by the trapezoid rule over the
    snapshots falling in [t1, t2], whose times must strictly increase.
    Each snapshot's curvature is built once and shared by its integrands.
    """
    if not 0.0 < eps < np.inf:
        raise FieldError(f"eps must be finite and positive, got {eps!r}")
    sel = [w for w in snapshots if t1 - 1e-12 <= w.t <= t2 + 1e-12]
    if len(sel) < 2:
        raise FieldError("need at least two snapshots in [t1, t2]")
    times = np.array([w.t for w in sel])
    if not np.all(np.diff(times) > 0.0):
        raise FieldError("snapshot times in [t1, t2] must be strictly increasing")
    diss, flux, we = [], [], []
    for i, w in enumerate(sel):
        F = curvature(w.a)
        if i in (0, len(sel) - 1):
            we.append(weighted_energy(w, vertex, eps, F))
        diss.append(interior_dissipation(w, eps, vertex, F=F))
        flux.append(_boundary_flux(w, vertex, eps, F))
    diss_int = float(np.trapezoid(diss, times))
    flux_int = float(np.trapezoid(flux, times))
    we1, we2 = we
    lhs = we2 + diss_int
    rhs = we1 + flux_int
    residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return MorawetzReport(
        t=sel[-1].t,
        eps=eps,
        weighted_energy_start=we1,
        weighted_energy=we2,
        interior_dissipation_accum=diss_int,
        boundary_term=flux_int,
        identity_residual=residual,
    )
