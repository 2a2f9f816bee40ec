"""Initial-data factory: instantons, pure gauges, seeded random data.

The instanton is the regular-gauge su(2) field

    a_j^b(x) = 2 eta^b_{j nu} (x - c)_nu / (|x - c|^2 + lambda^2)

built from the 't Hooft symbols eta^b_{jk} = eps_{bjk} (j, k <= 3),
eta^b_{b4} = +1, eta^b_{4b} = -1.  It is sampled as a whole-space field, so
instanton grids use the open-boundary derivative mode; torus-native data
(random, pure gauge) keeps the periodic default.
"""

from __future__ import annotations

import numpy as np

from . import algebra
from .gaugefield import (
    ConnectionField,
    FieldError,
    GaugeTransformField,
    InitialDataSet,
    gauss_project,
    gauss_residual,
    maurer_cartan,
    transform_coefficients,
)
from .grid import Grid4


def thooft_symbols() -> np.ndarray:
    """eta[b, j, nu] with b in 0..2 (algebra), j, nu in 0..3 (axes 1..4)."""
    eta = np.zeros((3, 4, 4))
    eps3 = np.zeros((3, 3, 3))
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps3[a, b, c] = 1.0
        eps3[a, c, b] = -1.0
    for b in range(3):
        eta[b, :3, :3] = eps3[b]
        eta[b, b, 3] = 1.0
        eta[b, 3, b] = -1.0
    return eta


def bpst(
    grid: Grid4,
    spec,
    center=(0.0, 0.0, 0.0, 0.0),
    lam: float = 1.0,
    orientation: int = +1,
) -> ConnectionField:
    """Regular-gauge unit instanton of scale lam at the given center.

    orientation +1 gives the self-dual field (positive characteristic
    number under the shipped conventions); -1 mirrors x4 to produce the
    anti-self-dual partner.
    """
    if not spec.is_su2:
        raise FieldError("the instanton generator is su(2) specific")
    if lam < 4.0 * grid.h:
        raise FieldError(f"scale {lam} under-resolved: need lam >= 4h = {4 * grid.h}")
    if lam > grid.extent / 4.0:
        raise FieldError(f"scale {lam} too wide for the box (need lam <= L/4)")
    if orientation not in (+1, -1):
        raise FieldError("orientation must be +1 or -1")
    eta = thooft_symbols()
    # x_nu - c_nu as a 1-D array along its own axis; the numerators
    # broadcast against denom, element for element the full-grid operations
    # (0.0 + eta x included, which is +0.0 where x = 0)
    x = []
    for j in range(1, 5):
        shape = [1, 1, 1, 1]
        shape[grid.axis(j)] = grid.n
        x.append((grid.coords1d() - center[j - 1]).reshape(shape))
    if orientation < 0:
        x[3] = -x[3]
    r2 = sum(c**2 for c in x)
    denom = r2 + lam**2
    a = np.empty((4,) + grid.shape + (3,))
    for j in range(4):
        for b in range(3):
            num = 0.0
            for nu in range(4):
                if eta[b, j, nu] != 0.0:
                    num = num + eta[b, j, nu] * x[nu]
            np.divide(2.0 * num, denom, out=a[j, ..., b])
    if orientation < 0:
        a[3] = -a[3]
    return ConnectionField(grid, spec, a)


def pure_gauge(O: GaugeTransformField) -> ConnectionField:
    """The flat connection a_j = O^{-1} partial_j O."""
    g = O.grid
    Oinv = O.inverse()
    a = np.empty((4,) + g.shape + (3,))
    for j in range(1, 5):
        # O^{-1} dO = -(d O^{-1}) O = -Ad(O^{-1}) ((dO) O^{-1}) ... computed
        # directly as the Maurer-Cartan form of O^{-1}, negated and rotated:
        # coefficients of O^{-1} dO equal Ad(O^{-1}) applied to (dO) O^{-1}
        a[j - 1] = transform_coefficients(Oinv, maurer_cartan(O, j))
    return ConnectionField(g, O.spec, a)


def smooth_transform(grid: Grid4, spec, seed: int = 0) -> GaugeTransformField:
    """A smooth, localized gauge transformation exp of a bump-shaped
    algebra field of width L/8 (deterministic in the seed)."""
    rng = np.random.default_rng(seed)
    width = grid.extent / 8.0
    r2 = grid.radius() ** 2
    bump = np.exp(-r2 / (2.0 * width**2))
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    phases = rng.uniform(0, 2 * np.pi, size=3)
    ks = 2.0 * np.pi / grid.extent
    wave = sum(
        np.cos(ks * grid.coordinate_field(j + 1) + phases[j]) for j in range(3)
    )
    coeffs = 0.5 * bump[..., None] * wave[..., None] * direction
    return GaugeTransformField(grid, spec, algebra.quat_exp(coeffs))


def _cosine_window(grid: Grid4) -> np.ndarray:
    """Compactly supported cosine window: 1 inside 0.55*(L/4), 0 outside L/4."""
    r = grid.radius()
    r1 = grid.extent / 4.0
    r0 = 0.55 * r1
    prof = np.clip((r - r0) / (r1 - r0), 0.0, 1.0)
    # cos(pi/2) rounds to ~1e-17, not 0; force exact compact support
    return np.where(prof >= 1.0, 0.0, np.cos(0.5 * np.pi * prof) ** 2)


def _band_limited_field(grid: Grid4, rng, k_band: int, shape_tail, window=None) -> np.ndarray:
    """Gaussian random field with modes |xi_int| <= k_band, zero mean;
    multiplied by window (a _cosine_window) unless window is None.

    The complex noise is drawn on the whole grid, so the seeded stream
    advances as for a full spectrum, but only its (2 k_band + 1)^4 band block
    is transformed: axis by axis, last axis first as np.fft.ifftn goes, each
    axis zero-padded to n just before its 1-D inverse FFT.  Every line left
    out is all zeros in ifftn's pass too and transforms to zeros, and every
    line transformed carries the same values, so the field is byte-equal to
    ifftn of the zero-filled spectrum.
    """
    n = grid.n
    band = np.flatnonzero(np.abs(np.fft.fftfreq(n, d=1.0 / n)) <= k_band)
    block = np.ix_(band, band, band, band)
    noise = rng.normal(size=grid.shape + shape_tail)[block]
    spec = noise + 1j * rng.normal(size=grid.shape + shape_tail)[block]
    for ax in (3, 2, 1, 0):
        padded = np.zeros(spec.shape[:ax] + (n,) + spec.shape[ax + 1 :], dtype=complex)
        padded[(slice(None),) * ax + (band,)] = spec
        spec = np.fft.ifft(padded, axis=ax)
    raw = np.real(spec)
    raw /= np.max(np.abs(raw))  # unit sup norm; the caller sets the scale
    if window is None:
        raw -= raw.mean(axis=(0, 1, 2, 3), keepdims=True)
        return raw
    window = window.reshape(grid.shape + (1,) * len(shape_tail))
    # windowed mean removal keeps the field exactly zero-mean and compactly
    # supported (constant modes do not decay under the heat flow)
    c = np.sum(window * raw, axis=(0, 1, 2, 3), keepdims=True) / np.sum(window)
    return window * (raw - c)


def random_data(
    grid: Grid4,
    spec,
    seed: int,
    amplitude: float = 0.1,
    k_band: int = 2,
    project: bool = True,
    window: bool = True,
) -> InitialDataSet:
    """Seeded band-limited random data with the constraint restored.

    Stream order: connection components a_1..a_4, then raw electric
    e_1..e_4, each drawn as an independent band-limited Gaussian field.
    """
    rng = np.random.default_rng(seed)
    d = spec.dim
    win = _cosine_window(grid) if window else None
    a_arr = np.stack(
        [amplitude * _band_limited_field(grid, rng, k_band, (d,), win) for _ in range(4)]
    )
    e_raw = np.stack(
        [amplitude * _band_limited_field(grid, rng, k_band, (d,), win) for _ in range(4)]
    )
    a = ConnectionField(grid, spec, a_arr)
    if not project:
        return InitialDataSet(a, e_raw, gauss_residual(a, e_raw))
    return gauss_project(a, e_raw)


def random_connection(grid: Grid4, spec, seed: int, amplitude: float = 0.1, k_band: int = 2, window: bool = True) -> ConnectionField:
    rng = np.random.default_rng(seed)
    win = _cosine_window(grid) if window else None
    arr = np.stack(
        [amplitude * _band_limited_field(grid, rng, k_band, (spec.dim,), win) for _ in range(4)]
    )
    return ConnectionField(grid, spec, arr)

