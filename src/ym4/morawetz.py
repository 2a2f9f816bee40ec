"""Energy-momentum tensor and the hyperboloidal weighted-energy
monotonicity diagnostics.

Conventions: Minkowski signature (-, +, +, +, +); temporal-gauge states
supply F_{0j} = adot_j.  The multiplier vector field is

    X_eps = (1 / rho_eps) ((t + eps) dt + x . dx),
    rho_eps = sqrt((t + eps)^2 - r^2),

whose contracted momentum P_alpha = T_{alpha beta} X^beta satisfies the
divergence identity with nonnegative bulk density (2 / rho_eps)|iota_X F|^2.
Both boundary terms of the integrated identity come from that one P: the
weighted energy of a cone section is the integral of P_0 over the ball
r <= t, and the lateral flux the integral of P_0 + nhat^j P_j over the
one-cell shell r ~ t, divided by h.  The null components of F, in which
the weighted energy is usually written, are not needed; they live in
tests/oracles.py, where a test checks that their weighted integrand is P_0.
The names keep the hyperboloidal weight (rho_eps) fully spelled out.

The pointwise formulas (T, P and iota_X F) act on any trailing site shape.
The identity assembly is the only place they are evaluated, and only on
the sites it integrates, gathered as e[:, sel], f[:, sel], x[:, sel]: the
cone interior for the dissipation, the shell for the lateral flux, and the
ball at the two end snapshots for the weighted energy.

Those sites all lie within r <= t + h/2 of the vertex, so each snapshot is
first cut to its cone window: the smallest even cube, at least 8 points
wide, holding them plus the two stencil planes a first derivative reads
beyond them (the whole grid when that cube does not fit inside it, or when
derivatives are spectral and so not local).  The window's curvature, built
once per snapshot and shared by its integrands, equals the whole grid's
bit for bit on those sites; its coordinates are the parent's, sliced, and
the validity region is the parent's.  So the gathered arrays, and the
report, are the same as on the whole grid.

MorawetzAccumulator takes the snapshots one at a time, so a wave run can
feed it through run_wave's observer.  Per snapshot it keeps three scalars
(time, dissipation, flux); beyond them it holds the first weighted energy
and the latest snapshot's cone window, whose weighted energy it takes when
the report is asked for, since only then is that snapshot known to be the
last.  A window smaller than the grid owns copies of its fields, so it
keeps none of its snapshot's arrays alive.  morawetz_identity_residual
feeds it a list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .gaugefield import ConnectionField, CurvatureField, FieldError, curvature, pair_component
from .grid import Grid4
from .wave import WaveState


_WHOLE = (slice(None),) * 4


def _offsets(grid, center, cut) -> np.ndarray:
    """Coordinates relative to a spatial center at the sites grid[cut],
    shape (4, ...); the whole grid gives (4, n, n, n, n)."""
    return np.stack([grid.coordinate_field(j)[cut] - center[j - 1] for j in range(1, 5)])


def _radius(x: np.ndarray) -> np.ndarray:
    """|x| per site, summed over the axes onto zeros as Grid4.radius sums it."""
    r2 = np.zeros(x.shape[1:])
    for xj in x:
        r2 += xj**2
    return np.sqrt(r2)


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


# -- the X_eps multiplier machinery -----------------------------------------


def _cone_geometry(t: float, x: np.ndarray, h: float, eps: float):
    """r, rho_eps and the mask rho_eps >= 2h at sites x, t after the vertex."""
    r = np.sqrt(np.einsum("j...,j...->...", x, x))
    rho2 = (t + eps) ** 2 - r**2
    mask = rho2 >= (2.0 * h) ** 2
    rho = np.sqrt(np.where(mask, rho2, 1.0))
    return r, rho, mask


def _iota(e: np.ndarray, f: np.ndarray, x: np.ndarray, tau: float, rho: np.ndarray) -> np.ndarray:
    """X^alpha F_{alpha beta} at sites x with tau = t + eps; shape (5, ..., d)."""
    out = np.empty((5,) + e.shape[1:])
    out[0] = -np.einsum("j...,j...c->...c", x, e) / rho[..., None]
    out[1:] = _contract(x, f, tau * e) / rho[..., None]
    return out


# -- the cone window --------------------------------------------------------


def _window(g: Grid4, center, radius: float) -> Optional[tuple]:
    """Numpy-axis slices of the cone window, or None for the whole grid.

    The window is the smallest even cube, at least 8 points wide, holding
    every site within radius of center along each axis plus the two planes
    beyond them that the central stencil reads.  None when no such site or
    cube fits strictly inside the grid, or when derivatives are spectral.
    """
    if g.deriv != "stencil4":
        return None
    c = g.coords1d()
    spans = []
    for j in range(1, 5):
        near = np.flatnonzero(np.abs(c - center[j - 1]) <= radius + 1e-9 * g.h)
        if near.size == 0:
            return None
        spans.append((int(near[0]) - 2, int(near[-1]) + 2))
    m = max(8, max(hi - lo + 1 for lo, hi in spans))
    m += m % 2
    if m >= g.n or min(lo for lo, _ in spans) < 0 or max(hi for _, hi in spans) >= g.n:
        return None
    cut = [None] * 4
    for j, (lo, hi) in enumerate(spans, start=1):
        start = min(max(lo - (m - (hi - lo + 1)) // 2, 0), g.n - m)
        cut[g.axis(j)] = slice(start, start + m)
    return tuple(cut)


@dataclass
class _Cone:
    """One snapshot on its cone window, with the window's curvature.

    t is the time since the vertex; x holds the parent grid's coordinates
    minus the vertex's spatial center and r their norm, summed as
    Grid4.radius sums it; grid is the snapshot's own grid, whose spacing,
    integral and validity region the integrands use.
    """

    t: float
    grid: Grid4
    e: np.ndarray  # (4, m, m, m, m, d)
    F: CurvatureField  # (6, m, m, m, m, d)
    x: np.ndarray  # (4, m, m, m, m)
    r: np.ndarray  # (m, m, m, m)


def cone_time(g: Grid4, vertex, t: float) -> float:
    """Time since the vertex of the cone section at time t.

    The section must start after the vertex and stay inside the inner
    half-box validity region of g.
    """
    t = t - vertex[0]
    if t <= 0:
        raise FieldError("cone section requires t > vertex time")
    if max(abs(c) for c in vertex[1:]) + t > g.extent / 4.0 + 1e-12:
        raise FieldError("cone section leaves the inner half-box validity region")
    return t


def _cone(w: WaveState, vertex) -> _Cone:
    """Cut w to the cone window of radius t + h/2 and build its curvature."""
    g = w.a.grid
    t = cone_time(g, vertex, w.t)
    cut = _window(g, vertex[1:], t + 0.5 * g.h)
    if cut is None:
        a, e, cut = w.a, w.adot, _WHOLE
    else:
        sub = (slice(None),) + cut
        win = Grid4.window(cut[0].stop - cut[0].start, g.h)
        a = ConnectionField(win, w.a.spec, np.ascontiguousarray(w.a.a[sub]))
        # a copy, not a view: a view would keep all of w.adot alive as long
        # as the cone, which the accumulator holds until the next snapshot
        e = np.ascontiguousarray(w.adot[sub])
    x = _offsets(g, vertex[1:], cut)
    return _Cone(t, g, e, curvature(a), x, _radius(x))


def interior_dissipation(cone: _Cone, eps: float) -> float:
    """Integral over the cone section r <= t of (2 / rho_eps)|iota_X F|^2."""
    t = cone.t
    r, rho, mask = _cone_geometry(t, cone.x, cone.grid.h, eps)
    inside = mask & (r <= t)
    rho = rho[inside]
    iota = _iota(cone.e[:, inside], cone.F.f[:, inside], cone.x[:, inside], t + eps, rho)
    return cone.grid.integrate(2.0 * _sq(iota) / rho)


def _momentum(cone: _Cone, eps: float, sel: np.ndarray) -> np.ndarray:
    """P_alpha = T_{alpha beta} X^beta at the cone sites sel; shape (5, nsel)."""
    t, r = cone.t, cone.r[sel]
    T = _stress(cone.e[:, sel], cone.F.f[:, sel])
    rho = np.sqrt(np.maximum((t + eps) ** 2 - r**2, 1e-300))
    X = np.concatenate([((t + eps) / rho)[None], cone.x[:, sel] / rho])
    return np.einsum("ab...,b...->a...", T, X)


def weighted_energy(cone: _Cone, eps: float) -> float:
    """The hyperboloidal weighted energy over the cone section S_t: the
    integral of P_0 = T_{0 beta} X^beta over the ball r <= t."""
    inside = cone.r <= cone.t
    if not np.all(cone.r[inside] < cone.t + eps):
        raise FieldError("cone section touches the characteristic r = t + eps")
    return cone.grid.integrate(_momentum(cone, eps, inside)[0])


@dataclass
class MorawetzReport:
    t: float
    eps: float
    weighted_energy_start: float
    weighted_energy: float
    interior_dissipation_accum: float
    boundary_term: float
    identity_residual: float


def _boundary_flux(cone: _Cone, eps: float) -> float:
    """Lateral cone-boundary integrand: shell sum of P_0 + nhat^j P_j.

    The shell is one cell thick around r = t - t0, volume-summed and
    divided by the thickness h.
    """
    g = cone.grid
    shell = np.abs(cone.r - cone.t) <= 0.5 * g.h
    P = _momentum(cone, eps, shell)
    r, x = cone.r[shell], cone.x[:, shell]
    nhat = x / np.where(r > 0.0, r, 1.0)
    flux = P[0] + np.einsum("j...,j...->...", nhat, P[1:])
    return g.integrate(flux) / g.h


def in_window(t: float, t1: float, t2: float) -> bool:
    """Whether a snapshot at time t falls in the report window [t1, t2]."""
    return t1 - 1e-12 <= t <= t2 + 1e-12


class MorawetzAccumulator:
    """Both sides of the integrated monotonicity identity, assembled from
    the snapshots of one run fed in time order.

    LHS: weighted energy at t2 plus the time-integrated interior
    dissipation; RHS: weighted energy at t1 plus the time-integrated
    lateral boundary flux.  Time integrals by the trapezoid rule over the
    snapshots falling in [t1, t2], whose times must strictly increase; all
    snapshots must share one grid.  Each snapshot in the window is cut to
    its cone window once, and the window's one curvature is shared by its
    integrands.
    """

    def __init__(self, vertex, eps: float, t1: float, t2: float):
        if not 0.0 < eps < np.inf:
            raise FieldError(f"eps must be finite and positive, got {eps!r}")
        self.vertex, self.eps, self.t1, self.t2 = vertex, eps, t1, t2
        self.grid: Optional[Grid4] = None
        self.times: List[float] = []
        self.diss: List[float] = []
        self.flux: List[float] = []
        self.we_start = np.nan
        self.last: Optional[_Cone] = None  # the latest snapshot in the window

    def add(self, w: WaveState) -> None:
        """Take the next snapshot; one outside [t1, t2] only has its grid checked."""
        if self.grid is None:
            self.grid = w.a.grid
        elif w.a.grid != self.grid:
            raise FieldError("snapshots must share one grid")
        if not in_window(w.t, self.t1, self.t2):
            return
        if self.times and not w.t > self.times[-1]:
            raise FieldError("snapshot times in [t1, t2] must be strictly increasing")
        cone = _cone(w, self.vertex)
        if not self.times:
            self.we_start = weighted_energy(cone, self.eps)
        self.diss.append(interior_dissipation(cone, self.eps))
        self.flux.append(_boundary_flux(cone, self.eps))
        self.times.append(w.t)
        self.last = cone

    def report(self) -> MorawetzReport:
        """The identity over the snapshots taken so far in [t1, t2]."""
        if len(self.times) < 2:
            raise FieldError("need at least two snapshots in [t1, t2]")
        times = np.array(self.times)
        diss_int = float(np.trapezoid(self.diss, times))
        flux_int = float(np.trapezoid(self.flux, times))
        we1, we2 = self.we_start, weighted_energy(self.last, self.eps)
        lhs = we2 + diss_int
        rhs = we1 + flux_int
        residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
        return MorawetzReport(
            t=self.times[-1],
            eps=self.eps,
            weighted_energy_start=we1,
            weighted_energy=we2,
            interior_dissipation_accum=diss_int,
            boundary_term=flux_int,
            identity_residual=residual,
        )


def morawetz_identity_residual(
    snapshots: List[WaveState],
    vertex,
    eps: float,
    t1: float,
    t2: float,
) -> MorawetzReport:
    """The MorawetzAccumulator report over a list of snapshots."""
    acc = MorawetzAccumulator(vertex, eps, t1, t2)
    for w in snapshots:
        acc.add(w)
    return acc.report()
