"""Unit tests for the Fourier-side diagnostics."""

import numpy as np
import pytest

from ym4 import algebra, data, spectral
from ym4.gaugefield import ConnectionField, CurvatureField, curvature
from ym4.grid import Grid4
from ym4.spectral import SpectralError

from oracles import laplacian, lp_block_sups, q_bilinear_oracle

SU2 = algebra.su2()


def small_grid(n=8, h=0.5):
    return Grid4(n, h)


def single_mode_field(g, idx, seed=0):
    """Real 4-vector algebra field supported on one conjugate mode pair."""
    rng = np.random.default_rng(seed)
    fhat = np.zeros((4,) + g.shape + (3,), dtype=complex)
    nidx = tuple((-i) % g.n for i in idx)
    amp = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    for l in range(4):
        fhat[(l,) + idx] = amp[l]
        fhat[(l,) + nidx] = np.conj(amp[l])
    return np.real(np.fft.ifftn(fhat, axes=(1, 2, 3, 4)))


def test_blocks_partition_of_unity_and_support():
    g = small_grid()
    blocks = spectral.make_blocks(g)
    total = np.zeros(g.shape)
    for k in range(blocks.k_min, blocks.k_max + 1):
        total += blocks.window(k)
    assert np.max(np.abs(total - 1.0)) <= 1e-12
    with pytest.raises(SpectralError):
        blocks.window(blocks.k_max + 1)


def project(blocks, f, k):
    """P_k f of a scalar field: the window psi_k multiplies its transform."""
    g = blocks.grid
    return np.real(g.ifft(g.fft(f) * blocks.window(k)))


def test_lp_blocks_single_mode_localization():
    g = Grid4(16, 0.25)
    blocks = spectral.make_blocks(g)
    kap = g.wavenumbers1d()[2]  # |kappa| = 2 * 2pi/L
    k0 = int(np.round(np.log2(kap)))
    f = np.cos(kap * g.coordinate_field(1))
    comps = np.zeros((6,) + g.shape + (3,))
    comps[0, ..., 0] = f
    rows = spectral.lp_block_sups(CurvatureField(g, SU2, comps))
    assert [k for k, _ in rows] == list(range(blocks.k_min, blocks.k_max + 1))
    for k, sup in rows:
        want = 2.0 ** (-2 * k) * np.max(np.abs(project(blocks, f, k)))
        assert abs(sup - want) <= 1e-12 * max(want, 2.0 ** (-2 * k))
        if abs(k - k0) >= 2:
            assert sup <= 1e-12 * 2.0 ** (-2 * k)
    # windows telescope: the full sum returns the field
    total = sum(project(blocks, f, k) for k in range(blocks.k_min, blocks.k_max + 1))
    assert np.max(np.abs(total - f)) <= 1e-11


def test_lp_plancherel_near_unity():
    g = small_grid()
    rng = np.random.default_rng(1)
    f = rng.normal(size=g.shape)
    blocks = spectral.make_blocks(g)
    total = sum(
        g.l2norm(project(blocks, f, k)) ** 2
        for k in range(blocks.k_min, blocks.k_max + 1)
    )
    ref = g.l2norm(f) ** 2
    assert 0.5 * ref <= total <= 1.5 * ref


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("with_e", [False, True])
@pytest.mark.parametrize("window", [True, False])
def test_paired_block_sups_equal_the_one_component_loop(n, with_e, window, monkeypatch):
    """Transforming the components in pairs c1 + i c2 changes only the
    rounding of the rows, and makes half the transforms.

    Rounding is relative to the field: a windowed field has content in
    every block, and each row matches to 1e-14 of itself; the unwindowed
    k_band = 1 field leaves its top block at the rounding level of the
    field (about 1e-19 against rows near 0.1 at n = 12, in both loops), so
    there each unweighted row 2^{2k} sup matches to 1e-14 of the largest."""
    g = Grid4(n, 0.5)
    d = data.random_data(g, SU2, seed=n, amplitude=0.3, k_band=1, project=False, window=window)
    F = curvature(d.a)
    if with_e:
        F.e = d.e
    want = lp_block_sups(F)
    calls = []
    for name in ("fft", "ifft"):
        real = getattr(Grid4, name)
        monkeypatch.setattr(
            Grid4, name, lambda grid, x, real=real: calls.append(None) or real(grid, x)
        )
    got = spectral.lp_block_sups(F)
    monkeypatch.undo()
    assert [k for k, _ in got] == [k for k, _ in want]
    scale = max(2.0 ** (2 * k) * ref for k, ref in want)
    for (k, sup), (_, ref) in zip(got, want):
        if window:
            assert abs(sup - ref) <= 1e-14 * ref, (k, sup, ref)
        else:
            assert 2.0 ** (2 * k) * abs(sup - ref) <= 1e-14 * scale, (k, sup, ref)
    pairs = (10 if with_e else 6) // 2
    assert len(calls) == pairs * (1 + len(want))


def test_ed_norm_zero_single_mode_and_truncation():
    g = Grid4(16, 0.25)
    zero = CurvatureField(g, SU2, np.zeros((6,) + g.shape + (3,)))
    assert spectral.ed_norm(zero) == 0.0
    # single mode |kappa| = 2^k0 with unit amplitude
    kap = g.wavenumbers1d()[2]
    k0 = int(np.round(np.log2(kap)))
    f = np.zeros((6,) + g.shape + (3,))
    f[0, ..., 0] = np.cos(kap * g.coordinate_field(1))
    F = CurvatureField(g, SU2, f)
    blocks = spectral.make_blocks(g)
    val = spectral.ed_norm(F)
    assert abs(val - 2.0 ** (-2 * k0)) <= 0.1 * 2.0 ** (-2 * k0)
    # truncation: below the ladder it is the full norm, above it vanishes,
    # and it never increases in m
    rows = spectral.lp_block_sups(F)
    assert spectral.sup_above(rows, blocks.k_min - 1) == val
    assert spectral.sup_above(rows, blocks.k_max) == 0.0
    prev = np.inf
    for m in range(blocks.k_min - 1, blocks.k_max + 1):
        cur = spectral.sup_above(rows, m)
        assert cur <= prev + 1e-15
        prev = cur


def test_ed_norm_paired_grid_scale_step():
    # a'(y) = 2 a(2y) on the half-extent grid reuses the same samples, the
    # blocks shift one index, and 2^{-2k} compensates exactly
    g1 = Grid4(16, 0.5)
    a1 = data.random_connection(g1, SU2, seed=5, amplitude=0.3, k_band=2, window=True)
    g2 = Grid4(16, 0.25)
    a2 = ConnectionField(g2, SU2, 2.0 * a1.a)
    e1 = spectral.ed_norm(curvature(a1))
    e2 = spectral.ed_norm(curvature(a2))
    assert abs(e2 - e1) <= 0.05 * e1


def test_q_symbol_antisymmetry_and_zero_diagonal():
    xi2 = np.array([1.0, 4.0, 0.0])
    eta2 = np.array([4.0, 1.0, 0.0])
    m1 = spectral.q_symbol_value(xi2, eta2)
    m2 = spectral.q_symbol_value(eta2, xi2)
    assert np.max(np.abs(m1 + m2)) <= 1e-15
    assert spectral.q_symbol_value(np.asarray(0.0), np.asarray(0.0)) == 0.0


def test_q_bilinear_matches_mode_pair_oracle():
    g = small_grid()
    A = single_mode_field(g, (1, 0, 0, 0), seed=3) + single_mode_field(g, (0, 2, 0, 0), seed=4)
    B = single_mode_field(g, (0, 0, 1, 0), seed=5) + single_mode_field(g, (1, 0, 0, 1), seed=6)
    fast = spectral.q_bilinear(g, SU2, A, B)
    oracle = q_bilinear_oracle(g, SU2, A, B)
    scale = max(g.l2norm(oracle), 1e-300)
    assert g.l2norm(fast - oracle) <= 1e-12 * scale


def test_q_bilinear_same_mode_vanishes():
    g = small_grid()
    X = single_mode_field(g, (1, 0, 0, 2), seed=7)
    qxx = spectral.q_bilinear(g, SU2, X, X)
    assert np.max(np.abs(qxx)) <= 1e-18


def test_q_bilinear_rejects_large_grid():
    g = Grid4(16, 0.25)
    v = np.zeros((4,) + g.shape + (3,))
    with pytest.raises(SpectralError):
        spectral.q_bilinear(g, SU2, v, v)


def test_tangency_enforce_divergence_relation():
    g = small_grid()
    a = data.random_connection(g, SU2, seed=5, amplitude=0.2, k_band=1, window=False).a
    b_raw = data.random_connection(g, SU2, seed=6, amplitude=0.2, k_band=1, window=False).a
    b = spectral.tangency_enforce(g, SU2, a, b_raw)
    div_b = sum(g.partial(b[j - 1], j) for j in range(1, 5))
    q = 2.0 * spectral.q_bilinear(g, SU2, a, b)
    # compare on the range of the symbol (kernel modes are excluded on both
    # sides by construction)
    q = -laplacian(g, g.laplace_inverse(-q))
    defect = g.l2norm(div_b - q)
    assert defect <= 1e-2 * max(g.l2norm(div_b), 1e-300)  # cubic vs quadratic


def test_a0_quadratic_check_slope_cubic():
    g = small_grid()
    a_shape = data.random_connection(g, SU2, seed=5, amplitude=1.0, k_band=1, window=False)
    b_shape = data.random_connection(g, SU2, seed=6, amplitude=1.0, k_band=1, window=False).a
    slope, eps, res = spectral.a0_quadratic_check(a_shape, b_shape, [0.2, 0.1, 0.05])
    assert 2.7 <= slope <= 3.5
    assert all(r > 0 for r in res)


def test_a0_quadratic_check_zero_tangent_reported_exact():
    g = small_grid()
    a_shape = data.random_connection(g, SU2, seed=5, amplitude=1.0, k_band=1, window=False)
    b0 = np.zeros((4,) + g.shape + (3,))
    slope, eps, res = spectral.a0_quadratic_check(a_shape, b0, [0.2, 0.1])
    assert np.isnan(slope)
    assert all(r == 0.0 for r in res)


def test_a0_quadratic_check_abelian_residual_zero():
    # commutative algebra: Q and the bracket vanish, the tangent field is
    # projected divergence-free, so A0 = 0 = A0^2 at every epsilon
    g = small_grid()
    ab = algebra.abelian()
    a_shape = data.random_connection(g, ab, seed=5, amplitude=1.0, k_band=1, window=False)
    b_shape = data.random_connection(g, ab, seed=6, amplitude=1.0, k_band=1, window=False).a
    slope, eps, res = spectral.a0_quadratic_check(a_shape, b_shape, [0.2, 0.1])
    assert max(res) <= 1e-12
