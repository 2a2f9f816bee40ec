"""Fourier-side diagnostics: Littlewood-Paley blocks, energy dispersion,
the bilinear null-form symbol Q, and the quadratic temporal-potential
consistency check.

lp_block_sups transforms the curvature components two at a time, as the
real and imaginary parts of one complex field c1 + i c2 (the "two real
FFTs for one complex" of Numerical Recipes, section 12.3).  Every window
psi_k is real and even in the mode (it depends on |kappa| alone, and the
Nyquist index is its own mirror), so it keeps the Hermitian symmetry of
each real component's transform, and the inverse transform of
(c1 + i c2)^ psi_k is P_k c1 + i P_k c2: the pairing is exact, and only
the rounding differs from transforming each component alone.  That
rounding is relative to the field, so a row with content agrees with the
one-component loop of tests/oracles.py to 1e-14 of itself, and a block
left at the rounding level of the field agrees, as 2^{2k} times its row,
to 1e-14 of the largest such figure.  lp_block_sups holds one transform
per pair, one inverse transform at a time and one per-site accumulator of
Re^2 + Im^2: half the transforms of the one-component loop, and no copy of
the component stack.

The Q form acts on two 4-vectors of algebra-valued fields as the bilinear
multiplier

    Q(A, B)(x) = Sum_{xi + eta = zeta} m(xi, eta) [Ahat^l(xi), Bhat_l(eta)]
    m(xi, eta) = (xi^2 - eta^2) / (2 (xi^2 + eta^2))

computed by a direct double Fourier sum; grids larger than n = 8 are
rejected (the sum is a correctness check, not a production kernel).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List

import numpy as np

from . import algebra
from .gaugefield import ConnectionField, CurvatureField, covariant_divergence, covariant_poisson
from .grid import Grid4

Q_MAX_N = 8


class SpectralError(ValueError):
    pass


# -- Littlewood-Paley blocks -------------------------------------------------


def _taper(x: np.ndarray) -> np.ndarray:
    """Radial low-pass profile: 1 for x <= 1, 0 for x >= sqrt(2), cosine
    taper across the half octave in between."""
    out = np.ones_like(x)
    out[x >= np.sqrt(2.0)] = 0.0
    mid = (x > 1.0) & (x < np.sqrt(2.0))
    out[mid] = np.cos(np.pi * np.log2(x[mid])) ** 2
    return out


@dataclass(frozen=True)
class LPBlockSet:
    """Dyadic annular windows psi_k on the grid's Fourier modes.

    k indexes the absolute dyadic ladder |kappa| ~ 2^k (kappa in radians per
    length), so rescaling a field by a factor of two shifts content by one
    index.  The lowest block is the full low-pass; the windows telescope to
    an exact partition of unity on all resolvable modes.
    """

    grid: Grid4
    k_min: int
    k_max: int

    def window(self, k: int) -> np.ndarray:
        if not self.k_min <= k <= self.k_max:
            raise SpectralError(f"block index {k} outside [{self.k_min}, {self.k_max}]")
        r = self._mode_radius
        if k == self.k_min:
            return _taper(r / 2.0**k)
        return _taper(r / 2.0**k) - _taper(r / 2.0 ** (k - 1))

    @cached_property
    def _mode_radius(self) -> np.ndarray:
        """|kappa| of every mode, built on the first window and shared."""
        g = self.grid
        kap = g.wavenumbers1d()
        r2 = np.zeros(g.shape)
        for j in range(1, 5):
            shape = [1, 1, 1, 1]
            shape[g.axis(j)] = g.n
            r2 = r2 + (kap**2).reshape(shape)
        return np.sqrt(r2)


def make_blocks(grid: Grid4) -> LPBlockSet:
    kappa_min = 2.0 * np.pi / grid.extent
    r_max = float(np.sqrt(4.0) * np.pi / grid.h)
    k_min = int(np.floor(np.log2(kappa_min)))
    k_max = int(np.ceil(np.log2(r_max)))
    return LPBlockSet(grid, k_min, k_max)


def lp_block_sups(F: CurvatureField) -> list:
    """[(k, 2^{-2k} |P_k F|_Linf)] for every block k of the field's grid,
    with the pointwise inner-product norm; the components are transformed
    in pairs c1 + i c2, once, and each window multiplies each pair's
    transform once."""
    g = F.grid
    blocks = make_blocks(g)
    # six magnetic and four electric components: an even count
    comps = list(F.f) if F.e is None else list(F.f) + list(F.e)
    hats = [g.fft(c1 + 1j * c2) for c1, c2 in zip(comps[0::2], comps[1::2], strict=True)]
    acc = np.empty(g.shape)
    rows = []
    for k in range(blocks.k_min, blocks.k_max + 1):
        w = blocks.window(k)[..., None]
        acc[...] = 0.0
        for hat in hats:
            # P_k c1 and P_k c2 interleaved as the real and imaginary parts:
            # Re^2 + Im^2 summed over the algebra index
            p = g.ifft(hat * w).view(float)
            acc += np.einsum("...a,...a->...", p, p)
            del p  # freed before the next pair's transform
        rows.append((k, 2.0 ** (-2 * k) * float(np.sqrt(np.max(acc)))))
    return rows


def sup_above(rows: list, m: float) -> float:
    """Largest weighted block sup among the rows with index k > m (0 if none)."""
    return max([0.0] + [sup for k, sup in rows if k > m])


def ed_norm(F: CurvatureField) -> float:
    """sup_k 2^{-2k} |P_k F|_Linf with the pointwise inner-product norm."""
    return sup_above(lp_block_sups(F), -np.inf)


# -- the Q bilinear form -----------------------------------------------------


def _check_small_grid(g: Grid4) -> None:
    if g.n > Q_MAX_N:
        raise SpectralError(
            f"the mode-pair double sum is restricted to n <= {Q_MAX_N}; "
            "use the small-grid pathway"
        )


def q_symbol_value(xi2: np.ndarray, eta2: np.ndarray) -> np.ndarray:
    """m(xi, eta) = (xi^2 - eta^2) / (2 (xi^2 + eta^2)), 0 at xi = eta = 0."""
    denom = xi2 + eta2
    return np.where(denom > 0.0, (xi2 - eta2) / np.where(denom > 0.0, 2.0 * denom, 1.0), 0.0)


def q_bilinear(g: Grid4, spec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The null-form bilinear Q(A, B) by a direct double Fourier sum.

    A, B: (4, n,n,n,n, d); the symbol m is evaluated on the grid's squared
    derivative-symbol magnitudes.  Contraction over the vector index:
    Sum_l [Ahat^l(xi), Bhat_l(eta)].
    """
    _check_small_grid(g)
    n = g.n
    Ahat = np.stack([g.fft(A[l]) for l in range(4)]) / n**4
    Bhat = np.stack([g.fft(B[l]) for l in range(4)]) / n**4
    s2 = -g.laplace_symbol()  # squared derivative-symbol magnitude per mode
    chat = np.zeros(g.shape + (spec.dim,), dtype=complex)
    # iterate over the active xi modes of A; for each, eta = zeta - xi is a
    # lattice shift, realized by rolling the B arrays.  The activity cut is
    # relative: FFT round-off populates every mode at ~1e-16 of the peak,
    # and those must not count as sources.
    amps = np.einsum("l...a->...", np.abs(Ahat))
    active = np.argwhere(amps > 1e-13 * max(float(amps.max()), 1e-300))
    for idx in active:
        idx = tuple(idx)
        xi2 = s2[idx]
        eta2 = np.roll(s2, idx, axis=(0, 1, 2, 3))
        m = q_symbol_value(xi2, eta2)
        acc = np.zeros(g.shape + (spec.dim,), dtype=complex)
        for l in range(4):
            b_shift = np.roll(Bhat[l], idx, axis=(0, 1, 2, 3))
            acc += algebra.bracket_arr(spec, np.broadcast_to(Ahat[l][idx], b_shift.shape), b_shift)
        chat += m[..., None] * acc
    return np.real(g.ifft(chat * n**4))


def a0_quadratic_form(g: Grid4, spec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A0^2(A, B) = Lap^{-1}[A^l, B_l] + 2 Lap^{-1} Q(A, B)."""
    bracket = np.zeros(g.shape + (spec.dim,))
    for l in range(4):
        bracket += algebra.bracket_arr(spec, A[l], B[l])
    q = q_bilinear(g, spec, A, B)
    return g.laplace_inverse(bracket + 2.0 * q)


def tangency_enforce(g: Grid4, spec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Adjust b so the discrete divergence relation div b = 2 Q(a, b) holds.

    One fixed-point sweep: strip the gradient part of b, then graft on the
    gradient whose divergence equals twice the bilinear form of the
    divergence-free remainder.  The relation's defect after the sweep is
    cubic in the field size; the construction is exact at the level of the
    grid's own derivative symbols (kernel modes of the symbol excluded on
    both sides).
    """
    phi = g.laplace_inverse(g.divergence(b))
    b0 = np.stack([b[j - 1] - g.partial(phi, j) for j in range(1, 5)])
    psi = g.laplace_inverse(2.0 * q_bilinear(g, spec, a, b0))
    return np.stack([b0[j - 1] + g.partial(psi, j) for j in range(1, 5)])


def a0_quadratic_check(a_shape: ConnectionField, b_shape: np.ndarray, eps_sweep: List[float]):
    """Cubic-remainder check for the quadratic temporal potential.

    For each amplitude eps the tangent field is renormalized so the pair
    (eps*a, b_eps) satisfies the divergence relation div b = 2 Q(a, b) --
    plain scaling leaves an order-eps^2 divergence mismatch that floors
    the slope at 2.  The temporal potential solves the covariant elliptic
    equation

        D^j D_j A0 = D^j B_j

    (divergence source included: it is quadratically small by the enforced
    relation, and cancels the Q part of the bilinear form).  Returns
    (slope, eps list, residual list) where residual = |A0 - A0^2(a, b)|_2.
    """
    _check_small_grid(a_shape.grid)
    g = a_shape.grid
    spec = a_shape.spec
    residuals = []
    for eps in eps_sweep:
        a_eps = ConnectionField(g, spec, eps * a_shape.a)
        b_eps = tangency_enforce(g, spec, a_eps.a, eps * b_shape)
        # deflated solve: on the torus the covariant Laplacian is nearly
        # singular on the flat-kernel modes, and the explicit bilinear form
        # is built from the spectral inverse which zeroes exactly those
        a0 = covariant_poisson(a_eps, covariant_divergence(a_eps, b_eps), deflate=True)
        form = a0_quadratic_form(g, spec, a_eps.a, b_eps)
        residuals.append(g.l2norm(a0 - form))
    eps_arr = np.asarray(eps_sweep, dtype=float)
    res_arr = np.asarray(residuals)
    if np.all(res_arr == 0.0):
        return float("nan"), list(eps_arr), residuals
    slope = float(np.polyfit(np.log(eps_arr), np.log(np.maximum(res_arr, 1e-300)), 1)[0])
    return slope, list(eps_arr), residuals
