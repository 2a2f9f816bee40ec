"""Temporal-gauge hyperbolic evolution.

With a vanishing temporal component the spatial connection obeys

    dtt A_j = D^k F_{kj},

integrated by kick-drift-kick leapfrog on (a, adot), where adot_j is the
electric field F_{0j}.  The Gauss residual |D^j adot_j|_2 is recorded at
every accepted step; run_wave records the energy of every snapshot_stride-th
state and of the last, and raises a blow-up signal on non-finite values or
a runaway energy-density peak.  It either returns those states as a list or
streams them, one at a time, to an observer and keeps only the last, so a
streamed run holds a few states whatever t_end is.  The Morawetz identity
over these states is assembled in ym4.morawetz, also one state at a time.
Working set: a step holds the state, its half kick, the new connection and
the curvature and tension being built; the closing kick adds each tension
row into the half kick as it is built, so no whole closing tension is held.
A step's peak allocation, the new state included, is a few connection-sized
arrays; tests/test_working_set.py holds it to its bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional

import numpy as np

from .errors import BlowUpError
from .gaugefield import (
    ConnectionField,
    InitialDataSet,
    curvature,
    curvature_tension,
    energy_density,
    gauss_residual,
)
from .stepping import axpy, march

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


def wave_step(w: WaveState, dt: float) -> WaveState:
    """One kick-drift-kick leapfrog step (time-reversible); the acceleration
    dtt A_j = D^k F_{kj} is the curvature tension."""
    half = axpy(0.5 * dt, curvature_tension(w.a), w.adot)
    drift = dt * half
    drift += w.a.a  # w.a.a + dt * half, in one buffer
    a_new = ConnectionField(w.a.grid, w.a.spec, drift)
    adot_new = curvature_tension(a_new, kick=(0.5 * dt, half))  # in half's buffer
    if not (np.all(np.isfinite(a_new.a)) and np.all(np.isfinite(adot_new))):
        raise BlowUpError("wave step produced non-finite values", last_state=w)
    return WaveState(w.t + dt, a_new, adot_new, gauss_residual(a_new, adot_new))


def _energy_and_peak(w: WaveState) -> tuple:
    """Total energy and peak energy density of a state, from one density."""
    F = curvature(w.a)
    F.e = w.adot
    dens = energy_density(F)
    return w.a.grid.integrate(dens), float(np.max(dens))


def kept_times(p: WaveParams) -> Iterator[float]:
    """The times of the states run_wave keeps, from the march its loop runs:
    every snapshot_stride-th step and the last."""
    for k, t, last in march(0.0, lambda t: t + p.dt, p.dt, p.t_end):
        if k % p.snapshot_stride == 0 or last:
            yield t


def run_wave(
    d: InitialDataSet,
    p: WaveParams,
    observer: Optional[Callable[[WaveState], None]] = None,
) -> List[WaveState]:
    """Evolve to t_end, keeping every snapshot_stride-th state and the last,
    each with its energy recorded from the density the blow-up check uses.
    The first kept state shares d.a and d.e, which no step writes.  No name
    here holds d once the loop has the first state, so d's arrays are freed
    when step 1 returns, unless the caller, the observer or the returned
    list keeps them.

    Without an observer, returns the kept states.  With one, calls
    observer(w) on each kept state in time order as the loop reaches it,
    holds none of them, and returns [last state].

    Raises a blow-up signal on non-finite values or an energy-density peak
    that is NaN or beyond 1e6 times the initial peak.  Without an observer
    the signal carries the states kept before it as its partial list; with
    one, the observer has had them and the partial list stays None.
    """
    g = d.a.grid
    p.check_cfl(g.h)
    w = WaveState(0.0, d.a, np.asarray(d.e, dtype=float))
    del d
    w.gauss_residual = gauss_residual(w.a, w.adot)
    w.energy, peak0 = _energy_and_peak(w)
    snapshots = []
    keep = snapshots.append if observer is None else observer
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
                keep(w)
    except BlowUpError as err:
        if observer is None:
            err.partial = snapshots
        raise
    return snapshots if observer is None else [w]
