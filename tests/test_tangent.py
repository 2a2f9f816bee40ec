"""Unit tests for the linearized flow and the div-curl decomposition."""

import numpy as np
import pytest

from ym4 import algebra, data, gaugefield, heatflow, tangent
from ym4.errors import BlowUpError
from ym4.gaugefield import ConnectionField, curvature, curvature_tension
from ym4.grid import Grid4
from ym4.heatflow import HeatParams, run_heat

from oracles import laplacian, linearized_rhs

SU2 = algebra.su2()


def small_grid(n=8, h=0.5):
    return Grid4(n, h)


def zero_conn(g):
    return ConnectionField(g, SU2, np.zeros((4,) + g.shape + (3,)))


def test_linearized_rhs_flat_reduces_to_hodge_laplacian():
    g = small_grid()
    B = data.random_connection(g, SU2, seed=1, amplitude=0.3).a
    a0 = zero_conn(g)
    got = tangent.linearized_rhs(B, a0, curvature(a0))
    div_B = sum(g.partial(B[j - 1], j) for j in range(1, 5))
    want = np.stack(
        [laplacian(g, B[k - 1]) - g.partial(div_B, k) for k in range(1, 5)]
    )
    assert np.max(np.abs(got - want)) <= 1e-11


def test_linearized_rhs_matches_finite_difference_jacobian():
    # central finite difference of the nonlinear tension in the direction B
    g = small_grid()
    a = data.random_connection(g, SU2, seed=2, amplitude=0.3, k_band=1)
    B = data.random_connection(g, SU2, seed=3, amplitude=1.0, k_band=1).a
    lin = tangent.linearized_rhs(B, a, curvature(a))
    diffs = {}
    for eps in (1e-3, 5e-4):
        plus = curvature_tension(ConnectionField(g, SU2, a.a + eps * B))
        minus = curvature_tension(ConnectionField(g, SU2, a.a - eps * B))
        fd = (plus - minus) / (2.0 * eps)
        diffs[eps] = g.l2norm(fd - lin)
    scale = max(g.l2norm(lin), 1e-300)
    assert diffs[1e-3] <= 1e-4 * scale
    # central difference: the defect is quadratic in eps
    assert 3.0 <= diffs[1e-3] / max(diffs[5e-4], 1e-300) <= 5.0


def test_linearized_rhs_is_byte_equal_to_the_pairwise_loop():
    # each g_jk built once and negated for g_kj: the same bytes as building
    # it at both uses
    for boundary in ("periodic", "open"):
        g = Grid4(12, 0.5, boundary=boundary)
        a = data.random_connection(g, SU2, seed=2, amplitude=0.3, k_band=1)
        B = data.random_connection(g, SU2, seed=3, amplitude=1.0, k_band=1).a
        F = curvature(a)
        got = tangent.linearized_rhs(B, a, F)
        assert got.tobytes() == linearized_rhs(B, a, F).tobytes(), boundary


def test_electric_rhs_flat_is_componentwise_laplacian():
    g = small_grid()
    E = data.random_connection(g, SU2, seed=4, amplitude=0.2).a
    a0 = zero_conn(g)
    got = tangent.electric_rhs(E, a0, curvature(a0))
    want = np.stack([laplacian(g, E[j - 1]) for j in range(1, 5)])
    assert np.max(np.abs(got - want)) <= 1e-11


def test_tangent_residual_solenoidal_decays_gradient_persists():
    g = small_grid()
    a0 = zero_conn(g)
    kap = g.wavenumbers1d()[1]
    x1, x2 = g.coordinate_field(1), g.coordinate_field(2)
    # solenoidal: b1 = d2 phi, b2 = -d1 phi
    phi = np.cos(kap * x1) * np.cos(kap * x2)
    sol = np.zeros((4,) + g.shape + (3,))
    sol[0, ..., 0] = g.partial(phi, 2)
    sol[1, ..., 0] = -g.partial(phi, 1)
    grad = np.stack([g.partial(phi, j)[..., None] * np.array([1.0, 0, 0]) for j in range(1, 5)])
    p = HeatParams(ds=0.0125, s_max=3.0, integrator="rk2", stop_F_tol=1e-9)
    r_sol = tangent.tangent_residual(sol, a0, p)
    r_grad = tangent.tangent_residual(grad, a0, p)
    assert r_sol <= 1e-3
    assert r_grad >= 0.9


def test_tangent_residual_step_loop_matches_closed_form():
    # on a periodic zero background the closed form evaluates the same RK2
    # iteration the co-evolution loop steps through
    g = small_grid()
    a0 = zero_conn(g)
    b = data.random_connection(g, SU2, seed=5, amplitude=0.2, k_band=2).a
    p = HeatParams(ds=0.0125, s_max=0.25)
    loop = tangent.tangent_residual(b, a0, p, fast_flat=False)
    closed = tangent.tangent_residual(b, a0, p)
    assert 0.0 < closed < 1.0
    assert abs(loop - closed) <= 1e-12 * closed


def test_div_curl_flat_matches_helmholtz_oracle():
    g = small_grid()
    a0 = zero_conn(g)
    e = data.random_data(g, SU2, seed=5, amplitude=0.02, k_band=1, project=False, window=False).e
    # the flat background takes the closed-form pathway, so a fine ds and a
    # long flow are free; this pushes the quadrature defect well below tol
    p = HeatParams(ds=1e-3, s_max=8.0, integrator="rk2", stop_F_tol=1e-8)
    cal = tangent.div_curl_decompose(a0, e, p)
    div_e = sum(g.partial(e[j - 1], j) for j in range(1, 5))
    a0_or = -g.laplace_inverse(div_e)
    b_or = np.stack([e[j - 1] + g.partial(a0_or, j) for j in range(1, 5)])
    scale = g.l2norm(e)
    assert g.l2norm(cal.a0 - a0_or) <= 1e-3 * scale
    assert g.l2norm(cal.b.b - b_or) <= 1e-3 * scale
    # reconstruction e = b - D a0 holds identically by construction
    recon = np.stack(
        [cal.b.b[j - 1] - g.partial(cal.a0, j) for j in range(1, 5)]
    )
    assert g.l2norm(recon - e) <= 1e-12 * scale


def test_div_curl_zero_field_trivial():
    g = small_grid()
    a0 = zero_conn(g)
    e = np.zeros((4,) + g.shape + (3,))
    p = HeatParams(ds=0.0125, s_max=0.1, integrator="rk2", stop_F_tol=1e-8)
    cal = tangent.div_curl_decompose(a0, e, p)
    assert np.max(np.abs(cal.a0)) == 0.0
    assert np.max(np.abs(cal.b.b)) == 0.0
    assert cal.b.tangent_residual == 0.0


def test_a_coevolved_step_builds_two_curvatures(monkeypatch):
    # one per midpoint-rule stage, shared by the tension and the rhs
    g = small_grid()
    a = data.random_connection(g, SU2, seed=2, amplitude=0.3, k_band=1)
    b = data.random_connection(g, SU2, seed=3, amplitude=1.0, k_band=1).a
    real, calls = gaugefield.curvature, []

    def counting(a):
        calls.append(None)
        return real(a)

    for module in (gaugefield, heatflow):
        monkeypatch.setattr(module, "curvature", counting)
    ds = 0.05 * g.h**2
    counts = []
    for steps in (1, 2):
        calls.clear()
        tangent.tangent_residual(b, a, HeatParams(ds=ds, s_max=steps * ds))
        counts.append(len(calls))
    assert counts[1] - counts[0] == 2, counts


@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_coevolved_background_is_the_heat_flow_to_the_byte(boundary):
    g = Grid4(8, 0.5, boundary=boundary)
    a = data.random_connection(g, SU2, seed=2, amplitude=0.3, k_band=1)
    b = data.random_connection(g, SU2, seed=3, amplitude=1.0, k_band=1).a
    ds = 0.05 * g.h**2
    p = HeatParams(ds=ds, s_max=3 * ds)
    for a_s, _ in heatflow.coevolve(a, b, p, tangent.linearized_rhs):
        pass
    assert a_s.a.tobytes() == run_heat(a, p).terminal.a.tobytes()


def test_a_coevolved_blow_up_keeps_the_last_finite_background():
    g = small_grid()
    a = data.random_connection(g, SU2, seed=2, amplitude=0.3, k_band=1)
    b = data.random_connection(g, SU2, seed=3, amplitude=1.0, k_band=1).a
    b[1, 2, 3, 4, 5, 0] = np.inf
    ds = 0.05 * g.h**2
    with np.errstate(invalid="ignore"), pytest.raises(BlowUpError) as err:
        tangent.tangent_residual(b, a, HeatParams(ds=ds, s_max=2 * ds))
    assert err.value.last_state is a


def test_div_curl_converges_at_second_order():
    g = small_grid()
    d = data.random_data(g, SU2, seed=3, amplitude=0.1, k_band=1, window=False)
    ds = 0.05 * g.h**2

    def decompose(step):
        return tangent.div_curl_decompose(d.a, d.e, HeatParams(ds=step, s_max=4 * ds))

    ref = decompose(ds / 8)
    errors = []
    for step in (ds, ds / 2):
        cal = decompose(step)
        errors.append((g.l2norm(cal.a0 - ref.a0), g.l2norm(cal.b.b - ref.b.b)))
    (a0_coarse, b_coarse), (a0_fine, b_fine) = errors
    assert a0_coarse >= 3.5 * a0_fine, errors
    assert b_coarse >= 3.5 * b_fine, errors
