"""Temporal-gauge hyperbolic evolution and cone-energy accounting.

With a vanishing temporal component the spatial connection obeys

    dtt A_j = D^k F_{kj},

integrated by kick-drift-kick leapfrog on (a, adot), where adot_j is the
electric field F_{0j}.  The Gauss residual |D^j adot_j|_2 is recorded at
every accepted step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from . import algebra
from .errors import BlowUpError
from .gaugefield import (
    ConnectionField,
    CurvatureField,
    FieldError,
    GaugeTransformField,
    InitialDataSet,
    covariant_divergence,
    curvature,
    curvature_tension,
    energy_density,
)
from .stepping import march

MAX_CFL = 0.4
BLOWUP_DENSITY_FACTOR = 1e6


@dataclass
class WaveParams:
    dt: float
    t_end: float
    snapshot_stride: int = 1

    def __post_init__(self):
        if not (0.0 < self.dt < np.inf and 0.0 < self.t_end < np.inf):
            raise ValueError("dt and t_end must be finite and positive")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")

    def check_cfl(self, h: float) -> None:
        if self.dt > MAX_CFL * h * (1.0 + 1e-12):
            raise ValueError(f"cfl = {self.dt / h:.3f} exceeds the budget {MAX_CFL}")


@dataclass
class WaveState:
    t: float
    a: ConnectionField
    adot: np.ndarray  # (4, n, n, n, n, d): electric components F_{0j}
    gauss_residual: float = field(default=np.nan)
    # total energy, recorded by run_wave for the states it returns
    energy: float = field(default=np.nan)

    def curvature(self) -> CurvatureField:
        F = curvature(self.a)
        F.e = self.adot
        return F


def _gauss(a: ConnectionField, adot: np.ndarray) -> float:
    return a.grid.l2norm(covariant_divergence(a, adot))


def wave_step(w: WaveState, dt: float) -> WaveState:
    """One kick-drift-kick leapfrog step (time-reversible); the acceleration
    dtt A_j = D^k F_{kj} is the curvature tension."""
    half = w.adot + 0.5 * dt * curvature_tension(w.a)
    a_new = ConnectionField(w.a.grid, w.a.spec, w.a.a + dt * half)
    adot_new = half + 0.5 * dt * curvature_tension(a_new)
    if not (np.all(np.isfinite(a_new.a)) and np.all(np.isfinite(adot_new))):
        raise BlowUpError("wave step produced non-finite values", last_state=w)
    out = WaveState(w.t + dt, a_new, adot_new)
    out.gauss_residual = _gauss(a_new, adot_new)
    return out


def _energy_and_peak(w: WaveState) -> tuple:
    """Total energy and peak energy density of a state, from one density."""
    dens = energy_density(w.curvature())
    return w.a.grid.integrate(dens), float(np.max(dens))


def run_wave(d: InitialDataSet, p: WaveParams) -> List[WaveState]:
    """Evolve to t_end, returning snapshots every snapshot_stride steps,
    each with its energy recorded from the density the blow-up check uses.
    The first snapshot shares d.a and d.e, which no step writes.

    Raises a blow-up signal (with the partial snapshot list attached) on
    non-finite values or an energy-density peak that is NaN or beyond 1e6
    times the initial peak.
    """
    g = d.a.grid
    p.check_cfl(g.h)
    w = WaveState(0.0, d.a, np.asarray(d.e, dtype=float))
    w.gauss_residual = _gauss(w.a, w.adot)
    w.energy, peak0 = _energy_and_peak(w)
    snapshots = []
    try:
        for k, w, last in march(w, lambda w: wave_step(w, p.dt), p.dt, p.t_end):
            if k > 0:
                w.energy, peak = _energy_and_peak(w)
                if peak0 > 0.0 and not peak <= BLOWUP_DENSITY_FACTOR * peak0:
                    raise BlowUpError(
                        f"energy density blow-up at t = {w.t:.6g} "
                        f"(peak ratio {peak / peak0:.3e})",
                        last_state=w,
                    )
            if k % p.snapshot_stride == 0 or last:
                snapshots.append(w)
    except BlowUpError as err:
        err.partial = snapshots
        raise
    return snapshots


# -- cone energies -----------------------------------------------------------


def cone_energy(w: WaveState, vertex, gamma: float = 1.0) -> float:
    """Energy in the ball |x - x0| <= gamma |t - t0| of the cone section."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    g = w.a.grid
    t0, x0 = vertex[0], vertex[1:]
    r = gamma * abs(w.t - t0)
    if max(abs(c) for c in x0) + r > g.extent / 4.0 + 1e-12:
        raise FieldError("cone section leaves the inner half-box validity region")
    dens = energy_density(w.curvature())
    mask = g.radius(center=x0) <= r
    return g.integrate(dens * mask)


# -- gauge transport ---------------------------------------------------------


def temporal_gauge_transport(
    a0_series: List[np.ndarray],
    O_init: GaugeTransformField,
    dt: float,
) -> List[GaugeTransformField]:
    """Integrate dO/dt = O * A0 per site by classical RK4.

    a0_series must be sampled at spacing dt/2 (t, t + dt/2, t + dt, ...);
    each RK4 step consumes three consecutive samples.  Returns the group
    field at every full node, unitarity-renormalized.
    """
    if len(a0_series) < 3 or len(a0_series) % 2 == 0:
        raise ValueError("a0_series must hold 2*n_steps + 1 half-step samples")
    g = O_init.grid
    spec = O_init.spec

    def times_algebra(q, a0):
        # right-multiply by the algebra element: q * (0, a0 / 2)
        half = np.concatenate([np.zeros(a0.shape[:-1] + (1,)), 0.5 * a0], axis=-1)
        return algebra.quat_mul(q, half)

    out = [O_init]
    q = O_init.q
    for a0_0, a0_m, a0_1 in zip(a0_series[:-1:2], a0_series[1::2], a0_series[2::2]):
        k1 = times_algebra(q, a0_0)
        k2 = times_algebra(q + 0.5 * dt * k1, a0_m)
        k3 = times_algebra(q + 0.5 * dt * k2, a0_m)
        k4 = times_algebra(q + dt * k3, a0_1)
        q = q + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        q = algebra.quat_normalize(q)
        out.append(GaugeTransformField(g, spec, q))
    return out
