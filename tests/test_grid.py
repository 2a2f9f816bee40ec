"""Unit tests for the periodic 4D grid kernel."""

import numpy as np
import pytest
import scipy.fft

from ym4.grid import Grid4, GridError

from oracles import laplacian


def test_grid_validation():
    with pytest.raises(GridError):
        Grid4(6, 0.5)
    with pytest.raises(GridError):
        Grid4(9, 0.5)
    with pytest.raises(GridError):
        Grid4(8, -1.0)
    with pytest.raises(GridError):
        Grid4(8, 0.5, boundary="weird")
    with pytest.raises(GridError):
        Grid4(8, 0.5, boundary="open", deriv="spectral")


@pytest.mark.parametrize("h", [float("nan"), float("inf"), 0.0])
def test_grid_rejects_non_finite_spacing(h):
    with pytest.raises(GridError):
        Grid4(8, h)


@pytest.mark.parametrize("n", [8, 12, 16, 18, 20, 24, 32])
@pytest.mark.parametrize("h", [0.5, 0.25, 0.1, 1.0 / 3.0])
def test_wavenumbers_equal_scipy_fftfreq_bitwise(n, h):
    """numpy's fftfreq gives the kappas scipy.fft's did, to the bit, so the
    spectral symbols need no scipy.fft import."""
    got = Grid4(n, h).wavenumbers1d()
    want = 2.0 * np.pi * scipy.fft.fftfreq(n, d=h)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_coordinates_and_extent():
    g = Grid4(8, 0.5)
    assert g.extent == 4.0
    c = g.coords1d()
    assert c[0] == -2.0
    assert c[-1] == 1.5
    x1 = g.coordinate_field(1)
    # axis 1 is the fastest (last numpy) axis
    assert np.allclose(x1[0, 0, 0, :], c)
    x4 = g.coordinate_field(4)
    assert np.allclose(x4[:, 0, 0, 0], c)


def test_partial_constant_is_zero():
    g = Grid4(8, 0.5)
    f = np.full(g.shape, 3.7)
    assert np.max(np.abs(g.partial(f, 2))) == 0.0


@pytest.mark.parametrize("deriv", ["stencil4", "spectral"])
def test_partial_sine_fourth_order(deriv):
    errs = {}
    for n in (16, 32):
        g = Grid4(n, 8.0 / n, deriv=deriv)
        k = 2.0 * np.pi / g.extent
        x = g.coordinate_field(1)
        got = g.partial(np.sin(k * x), 1)
        errs[n] = np.max(np.abs(got - k * np.cos(k * x)))
    if deriv == "stencil4":
        assert 12.0 <= errs[16] / errs[32] <= 20.0
    else:
        assert errs[32] <= 1e-12


def test_partials_commute():
    g = Grid4(8, 0.5)
    rng = np.random.default_rng(0)
    f = rng.normal(size=g.shape)
    d12 = g.partial(g.partial(f, 1), 2)
    d21 = g.partial(g.partial(f, 2), 1)
    assert np.max(np.abs(d12 - d21)) <= 1e-12


def test_deriv_symbol_matches_stencil():
    # the advertised symbol must be the exact eigenvalue of the stencil
    g = Grid4(8, 0.5)
    s = g.deriv_symbol1d()
    kap = g.wavenumbers1d()
    for m in range(g.n):
        x1 = g.coordinate_field(1)
        mode = np.cos(kap[m] * x1)
        got = g.partial(mode, 1)
        want = -s[m] * np.sin(kap[m] * x1)
        assert np.max(np.abs(got - want)) <= 1e-12, f"mode {m}"
    # Nyquist entry snapped to exactly zero
    assert s[g.n // 2] == 0.0


def test_laplace_inverse_round_trip():
    g = Grid4(8, 0.5)
    rng = np.random.default_rng(1)
    f = rng.normal(size=g.shape)
    f -= f.mean()
    # remove the stencil-null modes (mean done; Nyquist via symbol mask)
    sym = g.laplace_symbol()
    fhat = g.fft(f)
    f = np.real(g.ifft(np.where(sym != 0.0, fhat, 0.0)))
    back = laplacian(g, g.laplace_inverse(f))
    assert np.max(np.abs(back - f)) <= 1e-10 * max(1.0, np.max(np.abs(f)))


def test_laplace_inverse_single_mode_eigenfunction():
    g = Grid4(8, 0.5)
    kap = g.wavenumbers1d()[1]
    s = g.deriv_symbol1d()[1]
    x = g.coordinate_field(3)
    f = np.cos(kap * x)
    got = g.laplace_inverse(f)
    assert np.max(np.abs(got - (-f / s**2))) <= 1e-12


def test_laplace_inverse_zero_and_trailing_axes():
    g = Grid4(8, 0.5)
    assert np.max(np.abs(g.laplace_inverse(np.zeros(g.shape)))) == 0.0
    rng = np.random.default_rng(2)
    f = rng.normal(size=g.shape + (3,))
    out = g.laplace_inverse(f)
    assert out.shape == f.shape


def test_integrate_constant_and_periodic():
    g = Grid4(8, 0.5)
    assert abs(g.integrate(np.ones(g.shape)) - g.extent**4) <= 1e-12
    x = g.coordinate_field(1)
    assert abs(g.integrate(np.sin(2.0 * np.pi * x / g.extent))) <= 1e-12


def test_integrate_gaussian_bump():
    g = Grid4(16, 0.5)
    sigma = 0.7
    r2 = g.radius() ** 2
    amp = 2.3
    val = g.integrate(amp * np.exp(-r2 / (2.0 * sigma**2)))
    want = amp * (2.0 * np.pi) ** 2 * sigma**4
    assert abs(val - want) <= 0.01 * want


def test_summation_by_parts():
    g = Grid4(8, 0.5)
    k = 2.0 * np.pi / g.extent
    f = np.sin(k * g.coordinate_field(1)) * np.cos(k * g.coordinate_field(2))
    h = np.cos(2 * k * g.coordinate_field(1))
    total = g.integrate(g.partial(f, 1) * h) + g.integrate(f * g.partial(h, 1))
    assert abs(total) <= 1e-11


def test_fft_round_trip():
    g = Grid4(8, 0.5)
    rng = np.random.default_rng(3)
    f = rng.normal(size=g.shape)
    back = np.real(g.ifft(g.fft(f)))
    assert np.max(np.abs(back - f)) <= 1e-12 * np.max(np.abs(f))


@pytest.mark.parametrize(
    "boundary, deriv", [("periodic", "stencil4"), ("open", "stencil4"), ("periodic", "spectral")]
)
def test_divergence_bitwise_equals_explicit_loop(boundary, deriv):
    g = Grid4(8, 0.5, boundary=boundary, deriv=deriv)
    v = np.random.default_rng(5).normal(size=(4,) + g.shape + (3,))
    want = np.zeros(g.shape + (3,))
    for j in range(1, 5):
        want += g.partial(v[j - 1], j)
    got = g.divergence(v)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_open_boundary_polynomial_exact():
    # the one-sided fourth-order closures differentiate cubics exactly
    g = Grid4(8, 0.5, boundary="open")
    x = g.coordinate_field(2)
    got = g.partial(x**3, 2)
    assert np.max(np.abs(got - 3.0 * x**2)) <= 1e-10


def test_open_boundary_blocks_spectral_ops():
    g = Grid4(8, 0.5, boundary="open")
    with pytest.raises(GridError):
        g.fft(np.zeros(g.shape))
    with pytest.raises(GridError):
        g.laplace_inverse(np.zeros(g.shape))


def test_reductions_deterministic_repeat():
    g = Grid4(8, 0.5)
    rng = np.random.default_rng(4)
    f = rng.normal(size=g.shape)
    vals = {g.integrate(f) for _ in range(5)}
    assert len(vals) == 1
