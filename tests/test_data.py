"""Unit tests for the initial-data factory."""

import numpy as np
import pytest

from ym4 import algebra, data
from ym4.gaugefield import (
    FieldError,
    chi,
    curvature,
    gauss_residual,
    self_dual_residual,
    static_energy,
)
from ym4.grid import Grid4

from oracles import band_limited_field, bpst, identity_transform

SU2 = algebra.su2()


def test_thooft_symbols_self_dual_antisymmetric():
    eta = data.thooft_symbols()
    # antisymmetric in the two vector indices
    assert np.max(np.abs(eta + np.swapaxes(eta, 1, 2))) == 0.0
    # self-dual: eta_{jk} = (1/2) eps_{jklm} eta_{lm}
    eps = np.zeros((4, 4, 4, 4))
    for p in (
        (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2),
        (1, 0, 3, 2), (1, 2, 0, 3), (1, 3, 2, 0),
        (2, 0, 1, 3), (2, 1, 3, 0), (2, 3, 0, 1),
        (3, 0, 2, 1), (3, 1, 0, 2), (3, 2, 1, 0),
    ):
        eps[p] = 1.0
        eps[p[0], p[1], p[3], p[2]] = -1.0
    dual = 0.5 * np.einsum("jklm,blm->bjk", eps, eta)
    assert np.max(np.abs(dual - eta)) <= 1e-14


def test_bpst_self_dual_refinement():
    errs = {}
    for n in (16, 32):
        g = Grid4(n, 8.0 / n, boundary="open")
        a = data.bpst(g, SU2, lam=2.0)
        F = curvature(a)
        errs[n] = self_dual_residual(F) / static_energy(F) ** 0.5
    assert errs[32] <= errs[16] / 8.0


def test_bpst_orientation_flips_chi():
    g = Grid4(16, 0.5, boundary="open")
    Fp = curvature(data.bpst(g, SU2, lam=2.0, orientation=+1))
    Fm = curvature(data.bpst(g, SU2, lam=2.0, orientation=-1))
    cp, cm = chi(Fp), chi(Fm)
    assert cp > 0.0
    assert abs(cp + cm) <= 1e-6 * abs(cp)


@pytest.mark.parametrize("n, h, boundary", [(16, 0.25, "periodic"), (24, 0.25, "open")])
@pytest.mark.parametrize("center", [(0.0, 0.0, 0.0, 0.0), (0.25, -0.5, 0.1, 0.75)])
@pytest.mark.parametrize("orientation", [+1, -1])
def test_bpst_is_byte_equal_to_the_full_grid_loop(n, h, boundary, center, orientation):
    """Broadcast 1-D coordinates give the bytes of the full-grid build, the
    signed zeros of 0.0 + eta x at x = 0 included (n = 16 is the smallest
    grid whose scale window 4h <= lam <= L/4 is not empty)."""
    g = Grid4(n, h, boundary=boundary)
    got = data.bpst(g, SU2, center=center, lam=1.0, orientation=orientation).a
    assert got.tobytes() == bpst(g, center, 1.0, orientation).tobytes()


def test_bpst_guards():
    g = Grid4(16, 0.5)
    with pytest.raises(FieldError):
        data.bpst(g, SU2, lam=0.5)  # under-resolved: lam < 4h
    with pytest.raises(FieldError):
        data.bpst(g, SU2, lam=3.0)  # wider than L/4
    with pytest.raises(FieldError):
        data.bpst(g, SU2, lam=2.0, orientation=0)
    with pytest.raises(FieldError):
        data.bpst(g, algebra.abelian(), lam=2.0)


def test_pure_gauge_identity_is_zero():
    g = Grid4(8, 0.5)
    a = data.pure_gauge(identity_transform(g, SU2))
    assert np.max(np.abs(a.a)) == 0.0


def test_smooth_transform_deterministic_and_unitary():
    g = Grid4(8, 0.5)
    O1 = data.smooth_transform(g, SU2, seed=3)
    O2 = data.smooth_transform(g, SU2, seed=3)
    assert np.array_equal(O1.q, O2.q)
    assert np.max(np.abs(np.linalg.norm(O1.q, axis=-1) - 1.0)) <= 1e-12


def test_random_data_constraint_and_determinism():
    g = Grid4(8, 0.5)
    d1 = data.random_data(g, SU2, seed=7, amplitude=0.1)
    d2 = data.random_data(g, SU2, seed=7, amplitude=0.1)
    assert np.array_equal(d1.e, d2.e)
    assert np.array_equal(d1.a.a, d2.a.a)
    scale = max(g.l2norm(d1.e), 1e-300)
    assert gauss_residual(d1.a, d1.e) <= 1e-8 * scale
    d3 = data.random_data(g, SU2, seed=8, amplitude=0.1)
    assert not np.array_equal(d1.a.a, d3.a.a)


def test_random_data_band_limit_and_window_support():
    g = Grid4(16, 0.5)
    d = data.random_data(g, SU2, seed=9, amplitude=0.1, k_band=2, project=False, window=False)
    fhat = np.abs(g.fft(d.a.a[0][..., 0]))
    freqs = np.fft.fftfreq(g.n, d=1.0 / g.n)
    far = np.abs(freqs) > 2
    mask = np.zeros(g.shape, dtype=bool)
    for j in range(1, 5):
        shape = [1, 1, 1, 1]
        shape[g.axis(j)] = g.n
        mask |= np.broadcast_to(far.reshape(shape), g.shape)
    assert np.max(fhat[mask]) <= 1e-10 * np.max(fhat)
    # windowed fields vanish outside radius L/4
    dw = data.random_data(g, SU2, seed=9, amplitude=0.1, project=False, window=True)
    outside = g.radius() > g.extent / 4.0 + 1e-9
    assert np.max(np.abs(d.a.a)) > 0.0
    assert np.max(np.abs(dw.a.a[:, outside])) == 0.0


def test_band_limited_field_is_byte_equal_to_the_full_grid_transform():
    """Transforming only the band gives the bytes of ifftn on the whole
    zero-filled spectrum and leaves the seeded stream where that leaves it."""
    for n in (8, 10, 12, 16, 18):
        g = Grid4(n, 0.5)
        win = data._cosine_window(g)
        for k_band in (1, 2, 3):
            if 2 * k_band + 1 > n:
                continue
            for tail in ((1,), (3,)):
                for window in (True, False):
                    for seed in (0, 2027):
                        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                        got = data._band_limited_field(g, rng, k_band, tail, win if window else None)
                        want = band_limited_field(g, ref_rng, k_band, tail, window)
                        case = (n, k_band, tail, window, seed)
                        assert got.shape == want.shape == g.shape + tail, case
                        assert got.tobytes() == want.tobytes(), case
                        assert rng.bit_generator.state == ref_rng.bit_generator.state, case
