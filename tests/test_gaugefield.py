"""Unit tests for the static gauge-geometry layer."""

import numpy as np

from ym4 import algebra, data
from ym4.gaugefield import (
    ConnectionField,
    InitialDataSet,
    chi,
    concentration_scale,
    covariant_derivative,
    covariant_divergence,
    covariant_poisson,
    curvature,
    energy_density,
    gauge_transform,
    gauss_project,
    gauss_residual,
    hodge_dual,
    pair_component,
    static_energy,
    zero_connection,
)
from ym4.grid import Grid4

from oracles import identity_transform, inner_arr

SU2 = algebra.su2()


def small_grid(n=8, h=0.5):
    return Grid4(n, h)


def rand_conn(g, seed=0, amp=0.2, k_band=1, window=True):
    return data.random_connection(g, SU2, seed=seed, amplitude=amp, k_band=k_band, window=window)


def cosine_coeffs(g, seed, amp=0.3):
    """A fixed low-mode trigonometric algebra field, identical as a continuum
    function across grids (for refinement-ratio tests)."""
    rng = np.random.default_rng(seed)
    ks = 2.0 * np.pi / g.extent
    out = np.zeros(g.shape + (3,))
    for _ in range(4):
        kvec = rng.integers(-1, 2, size=4)
        phase = rng.uniform(0, 2 * np.pi)
        direction = rng.normal(size=3)
        wave = np.cos(
            ks * sum(kvec[j - 1] * g.coordinate_field(j) for j in range(1, 5)) + phase
        )
        out += amp * wave[..., None] * direction
    return out


def cosine_connection(g, seed, amp=0.3):
    arr = np.stack([cosine_coeffs(g, seed + 10 * j, amp) for j in range(4)])
    return ConnectionField(g, SU2, arr)


def cosine_transform(g, seed, amp=0.5):
    from ym4.gaugefield import GaugeTransformField

    return GaugeTransformField(g, SU2, algebra.quat_exp(cosine_coeffs(g, seed, amp)))


def test_curvature_zero():
    g = small_grid()
    F = curvature(zero_connection(g, SU2))
    assert np.max(np.abs(F.f)) == 0.0


def test_curvature_pure_gauge_refinement():
    errs = {}
    for n in (16, 32):
        g = Grid4(n, 4.0 / n)
        O = cosine_transform(g, seed=1)
        F = curvature(data.pure_gauge(O))
        errs[n] = np.max(np.abs(F.f))
    assert 8.0 <= errs[16] / errs[32] <= 40.0


def test_covariant_derivative_flat_and_leibniz():
    g = small_grid()
    rng = np.random.default_rng(2)
    B = rng.normal(size=g.shape + (3,))
    flat = covariant_derivative(zero_connection(g, SU2), B, 1)
    assert np.max(np.abs(flat - g.partial(B, 1))) == 0.0
    # Leibniz needs a frequency-additive derivative symbol: use the spectral
    # backend with band-limited factors whose product stays resolvable
    gs = Grid4(8, 0.5, deriv="spectral")
    a = data.random_connection(gs, SU2, seed=3, amplitude=0.2, k_band=1, window=False)
    C = data.random_connection(gs, SU2, seed=4, amplitude=0.2, k_band=1, window=False).a[0]
    lhs = gs.partial(inner_arr(a.a[0], C), 2)
    rhs = inner_arr(covariant_derivative(a, a.a[0], 2), C) + inner_arr(
        a.a[0], covariant_derivative(a, C, 2)
    )
    assert np.max(np.abs(lhs - rhs)) <= 1e-11


def test_gauge_transform_identity_and_round_trip():
    g = small_grid()
    a = rand_conn(g, seed=5)
    same = gauge_transform(a, identity_transform(g, SU2))
    assert np.max(np.abs(same.a - a.a)) <= 1e-14
    O = data.smooth_transform(g, SU2, seed=6)
    moved = gauge_transform(zero_connection(g, SU2), O)
    back = gauge_transform(moved, O.inverse())
    assert np.max(np.abs(back.a)) <= 1e-9


def test_gauge_transform_energy_invariance_refinement():
    errs = {}
    for n in (8, 16):
        g = Grid4(n, 4.0 / n)
        a = rand_conn(g, seed=7, amp=0.3)
        O = data.smooth_transform(g, SU2, seed=8)
        e0 = static_energy(curvature(a))
        e1 = static_energy(curvature(gauge_transform(a, O)))
        errs[n] = abs(e1 - e0) / e0
    assert errs[16] < errs[8]
    assert errs[16] <= 1e-3


def test_pointwise_density_gauge_invariance():
    errs = {}
    for n in (16, 32):
        g = Grid4(n, 4.0 / n)
        a = cosine_connection(g, seed=9)
        O = cosine_transform(g, seed=10)
        d0 = energy_density(curvature(a))
        d1 = energy_density(curvature(gauge_transform(a, O)))
        errs[n] = np.max(np.abs(d1 - d0)) / np.max(d0)
    assert 8.0 <= errs[16] / errs[32]
    assert errs[32] <= 1e-2


def test_bianchi_cyclic_sum():
    errs = {}
    for n in (8, 16):
        g = Grid4(n, 4.0 / n)
        a = cosine_connection(g, seed=11)
        F = curvature(a)
        worst = 0.0
        for i, j, k in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)):
            s = (
                covariant_derivative(a, pair_component(F.f, j, k), i)
                + covariant_derivative(a, pair_component(F.f, k, i), j)
                + covariant_derivative(a, pair_component(F.f, i, j), k)
            )
            worst = max(worst, np.max(np.abs(s)))
        errs[n] = worst
    assert 8.0 <= errs[8] / errs[16] <= 40.0


def test_hodge_dual_involution_and_pairing():
    g = small_grid()
    F = curvature(rand_conn(g, seed=12))
    FF = hodge_dual(hodge_dual(F))
    assert np.max(np.abs(FF.f - F.f)) == 0.0
    G = curvature(rand_conn(g, seed=13))
    lhs = g.integrate(np.einsum("k...a,k...a->...", F.f, hodge_dual(G).f))
    rhs = g.integrate(np.einsum("k...a,k...a->...", hodge_dual(F).f, G.f))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_chi_zero_and_energy_bound():
    g = small_grid()
    assert chi(curvature(zero_connection(g, SU2))) == 0.0
    F = curvature(rand_conn(g, seed=14, amp=0.4))
    assert static_energy(F) >= abs(chi(F))


def test_gauss_residual_trivial_and_curl_field():
    g = small_grid()
    a = rand_conn(g, seed=17)
    d = InitialDataSet(a, np.zeros((4,) + g.shape + (3,)))
    assert gauss_residual(d.a, d.e) == 0.0
    # flat-connection divergence-free construction: e1 = d2 phi, e2 = -d1 phi
    phi = data.random_connection(g, SU2, seed=18, amplitude=1.0).a[0]
    e = np.zeros((4,) + g.shape + (3,))
    e[0] = g.partial(phi, 2)
    e[1] = -g.partial(phi, 1)
    d0 = InitialDataSet(zero_connection(g, SU2), e)
    assert gauss_residual(d0.a, d0.e) <= 1e-11


def test_covariant_poisson_flat_matches_spectral():
    g = small_grid()
    rng = np.random.default_rng(19)
    rhs = rng.normal(size=g.shape + (3,))
    rhs -= rhs.mean(axis=(0, 1, 2, 3), keepdims=True)
    sym = g.laplace_symbol()[..., None]
    rhs = np.real(g.ifft(np.where(sym != 0.0, g.fft(rhs), 0.0)))
    a0 = zero_connection(g, SU2)
    got = covariant_poisson(a0, rhs)
    want = g.laplace_inverse(rhs)
    assert g.l2norm(got - want) <= 1e-9 * max(1.0, g.l2norm(want))


def test_gauss_project_flat_leray_oracle():
    g = small_grid()
    e_raw = data.random_data(g, SU2, seed=20, amplitude=0.1, k_band=1, project=False).e
    out = gauss_project(zero_connection(g, SU2), e_raw)
    # spectral Helmholtz oracle with the grid's own symbols
    div = sum(g.partial(e_raw[j - 1], j) for j in range(1, 5))
    phi = g.laplace_inverse(div)
    want = np.stack([e_raw[j - 1] - g.partial(phi, j) for j in range(1, 5)])
    assert g.l2norm(out.e - want) <= 1e-9 * max(1.0, g.l2norm(want))


def test_gauss_project_residual_and_idempotence():
    g = small_grid()
    a = rand_conn(g, seed=21, amp=0.2)
    e_raw = data.random_data(g, SU2, seed=22, amplitude=0.1, k_band=1, project=False).e
    out = gauss_project(a, e_raw)
    scale = g.l2norm(e_raw)
    assert out.constraint_residual <= 1e-8 * scale
    again = gauss_project(a, out.e)
    assert g.l2norm(again.e - out.e) <= 1e-8 * scale
    # already-satisfying input passes through
    third = gauss_project(a, out.e)
    assert g.l2norm(third.e - out.e) <= 1e-8 * scale


def test_concentration_scale_trivials():
    g = small_grid()
    d = InitialDataSet(zero_connection(g, SU2), np.zeros((4,) + g.shape + (3,)))
    assert concentration_scale(d, 1e-3, curvature(d.a)) == g.extent / 4.0
    dd = data.random_data(g, SU2, seed=23, amplitude=0.2, k_band=1)
    total = static_energy(curvature(dd.a)) + g.l2norm(dd.e) ** 2
    assert concentration_scale(dd, 2.0 * total, curvature(dd.a)) == g.extent / 4.0


def test_concentration_scale_bump_width():
    # bump of width lam: the concentration scale tracks lam
    g = Grid4(16, 0.5)
    lam_scales = {}
    for lam in (0.5, 1.0):
        r2 = g.radius() ** 2
        arr = np.zeros((4,) + g.shape + (3,))
        arr[0, ..., 0] = 2.0 * np.exp(-r2 / (2.0 * lam**2))
        ds = InitialDataSet(ConnectionField(g, SU2, arr), np.zeros((4,) + g.shape + (3,)))
        total = static_energy(curvature(ds.a))
        lam_scales[lam] = concentration_scale(ds, 0.2 * total, curvature(ds.a))
    ratio = lam_scales[1.0] / max(lam_scales[0.5], 1e-300)
    assert 1.5 <= ratio <= 2.5


def test_covariant_divergence_matches_componentwise():
    g = small_grid()
    a = rand_conn(g, seed=25)
    v = data.random_connection(g, SU2, seed=26, amplitude=0.2).a
    got = covariant_divergence(a, v)
    want = sum(covariant_derivative(a, v[j - 1], j) for j in range(1, 5))
    assert np.max(np.abs(got - want)) <= 1e-13
