"""Unit tests for the gradient-flow integrators and caloric machinery."""

import weakref

import numpy as np
import pytest

from ym4 import algebra, data, heatflow
from ym4.errors import BlowUpError
from ym4.gaugefield import ConnectionField, FieldError, curvature, gauge_transform
from ym4.grid import Grid4
from ym4.heatflow import (
    HeatParams,
    caloric_divergence,
    caloric_project,
    flat_trivialize,
    run_heat,
)
from ym4.stepping import march

SU2 = algebra.su2()
AB = algebra.abelian()


def small_grid(n=8, h=0.5):
    return Grid4(n, h)


def params(g, s_max=0.5, ds=None, **kw):
    if ds is None:
        ds = 0.1 * g.h**2
    return HeatParams(ds=ds, s_max=s_max, **kw)


def test_params_validation_and_stability():
    with pytest.raises(ValueError):
        HeatParams(ds=-0.1, s_max=1.0)
    with pytest.raises(ValueError):
        HeatParams(ds=0.01, s_max=1.0, integrator="rk9")
    with pytest.raises(ValueError, match="rk2"):
        HeatParams(ds=0.01, s_max=1.0, integrator="euler")
    p = HeatParams(ds=0.1, s_max=1.0)
    with pytest.raises(ValueError):
        p.check_stability(0.5)  # 0.1 > 0.2 * 0.25
    p2 = HeatParams(ds=0.04, s_max=1.0)
    p2.check_stability(0.5)


@pytest.mark.parametrize("ds, s_max", [(np.nan, 1.0), (np.inf, 1.0), (0.01, np.nan), (0.01, np.inf)])
def test_params_reject_non_finite(ds, s_max):
    with pytest.raises(ValueError, match="finite"):
        HeatParams(ds=ds, s_max=s_max)


def test_abelian_single_mode_decays_at_symbol_rate():
    # divergence-free single mode: the flow reduces to componentwise heat
    # with the exact discrete rate s(kappa)^2
    g = small_grid()
    kap = g.wavenumbers1d()[1]
    sym = g.deriv_symbol1d()[1]
    arr = np.zeros((4,) + g.shape + (3,))
    arr[0, ..., 0] = 0.1 * np.cos(kap * g.coordinate_field(2))
    a = ConnectionField(g, AB, arr)
    p = params(g, s_max=0.5, ds=0.0125)
    traj = run_heat(a, p)
    got = traj.terminal.a
    want = arr * np.exp(-(sym**2) * 0.5)
    # RK2 defect ~ s_max * (lam*ds)^2 * lam / 6 ~ 6e-5 at these parameters
    assert np.max(np.abs(got - want)) <= 1e-4 * np.max(np.abs(arr))


def test_energy_monotone_and_dissipation_identity():
    g = small_grid()
    a = data.random_connection(g, SU2, seed=1, amplitude=0.3, k_band=1)
    # the trapezoid/RK2 defect in the identity is O((ds * rate)^2) of the
    # drop; the top mode rate here is ~10, so keep ds small
    p = params(g, s_max=0.4, ds=0.0025)
    traj = run_heat(a, p)
    en = np.asarray(traj.energy_series)
    assert np.all(np.diff(en) <= 1e-12)
    drop = en[0] - en[-1]
    assert drop > 0.0
    assert abs(traj.dissipation_accum - drop) <= 2e-3 * drop


def test_stop_tolerance_and_tail_flag():
    g = small_grid()
    # unwindowed band-1 data, small amplitude: the local flow freezes pure-
    # gradient components, whose bracket curvature leaves a persistent
    # |F|_inf floor scaling like amplitude^2 (~2.5e-6 here, below the stop)
    a = data.random_connection(g, SU2, seed=2, amplitude=0.02, k_band=1, window=False)
    p_long = params(g, s_max=6.0, ds=0.025, stop_F_tol=1e-5)
    traj = run_heat(a, p_long)
    assert traj.reached_tolerance
    assert not traj.tail_flagged
    p_short = params(g, s_max=0.05, ds=0.0125, stop_F_tol=1e-12)
    traj2 = run_heat(a, p_short)
    assert traj2.tail_flagged


SERIES = ("energy_series", "tension_l2_series", "caloric_size_series", "dissipation_series")


@pytest.mark.parametrize("s_max, stop_F_tol", [(0.25, 1e-12), (6.0, 3e-5)])
def test_sample_stride_keeps_every_third_step_the_last_and_the_stop(s_max, stop_F_tol):
    # 10 steps ending short of a multiple of 3; then an early stop at a
    # step that is not a multiple of 3 either
    g = small_grid()
    a = data.random_connection(g, SU2, seed=2, amplitude=0.02, k_band=1, window=False)
    ds = 0.025
    every = run_heat(a, params(g, s_max=s_max, ds=ds, stop_F_tol=stop_F_tol))
    third = run_heat(a, params(g, s_max=s_max, ds=ds, stop_F_tol=stop_F_tol, sample_stride=3))
    last = round(every.s_samples[-1] / ds)
    assert every.s_samples == [k * ds for k in range(last + 1)]
    assert last % 3 != 0
    assert every.reached_tolerance == third.reached_tolerance == (stop_F_tol > 1e-12)
    keep = sorted(set(range(0, last + 1, 3)) | {last})
    assert third.s_samples == [k * ds for k in keep]
    for name in SERIES:
        full = getattr(every, name)
        assert getattr(third, name) == [full[k] for k in keep]
    assert np.array_equal(third.terminal.a, every.terminal.a)


def test_blow_up_attaches_partial_trajectory_ending_at_last_finite_state():
    g = small_grid()
    a = data.random_connection(g, SU2, seed=1, amplitude=30.0, k_band=1, window=False)
    p = params(g, s_max=1.0, ds=0.2 * g.h**2)
    with np.errstate(all="ignore"):
        with pytest.raises(BlowUpError) as info:
            run_heat(a, p)
        partial = info.value.partial
        assert isinstance(partial, heatflow.HeatTrajectory)
        assert partial.terminal is info.value.last_state
        assert np.all(np.isfinite(partial.terminal.a))
        steps = round(partial.s_samples[-1] / p.ds)
        assert partial.s_samples == [k * p.ds for k in range(steps + 1)]
        # the same flow stopped before the failing step ends on that state
        before = run_heat(a, params(g, s_max=steps * p.ds, ds=p.ds))
    assert np.array_equal(before.terminal.a, partial.terminal.a)
    for name in SERIES:
        assert np.array_equal(getattr(before, name), getattr(partial, name), equal_nan=True)


def test_non_finite_energy_is_blow_up_with_the_last_finite_state():
    # the connection stays finite while its curvature overflows: the energy
    # runs 3.0e4, 5.6e16, 7.0e136 and then NaN at the third step
    g = small_grid()
    a = data.random_data(g, SU2, seed=1, amplitude=30.0, k_band=1).a
    p = params(g, s_max=3 * 0.2 * g.h**2, ds=0.2 * g.h**2)
    with np.errstate(all="ignore"):
        with pytest.raises(BlowUpError, match="energy not finite") as info:
            run_heat(a, p)
        before = run_heat(a, params(g, s_max=2 * p.ds, ds=p.ds))
    partial = info.value.partial
    assert partial.s_samples == [0.0, p.ds, 2 * p.ds]
    assert np.all(np.isfinite(partial.energy_series))
    assert partial.terminal is info.value.last_state
    assert np.array_equal(partial.terminal.a, before.terminal.a)
    assert partial.energy_series == before.energy_series


def test_de_turck_energy_agrees_with_local_flow():
    # the two flows differ by a gauge motion, so the energy at matched s
    # must agree up to discretization
    g = small_grid()
    a = data.random_connection(g, SU2, seed=3, amplitude=0.1, k_band=1)
    p = params(g, s_max=0.2, ds=0.0125)
    t1 = run_heat(a, p, de_turck=False)
    t2 = run_heat(a, p, de_turck=True)
    e1, e2 = t1.energy_series[-1], t2.energy_series[-1]
    assert abs(e1 - e2) <= 5e-3 * max(e1, e2)


def test_caloric_size_zero_and_positive():
    g = small_grid()
    zero = ConnectionField(g, SU2, np.zeros((4,) + g.shape + (3,)))
    assert run_heat(zero, params(g, s_max=0.1, ds=0.0125)).caloric_size_accum == 0.0
    a = data.random_connection(g, SU2, seed=4, amplitude=0.2, k_band=1)
    assert run_heat(a, params(g, s_max=0.5, ds=0.0125)).caloric_size_accum > 0.0


@pytest.mark.parametrize("de_turck", [False, True])
def test_zero_connection_stays_exactly_zero(de_turck):
    # the zero connection takes the same RK2 step as any other; the step
    # must leave it +0.0 at every site, so its energy is exactly 0.0
    g = small_grid()
    zero = ConnectionField(g, SU2, np.zeros((4,) + g.shape + (3,)))
    p = params(g, s_max=0.1, ds=0.0125)
    traj = run_heat(zero, p, de_turck=de_turck)
    assert traj.terminal.a.tobytes() == zero.a.tobytes()
    assert traj.energy_series and all(e == 0.0 for e in traj.energy_series)
    # run_heat stops after one step here (|F| = 0 is below stop_F_tol), so
    # march the step itself through the whole interval
    step = lambda a: heatflow._step(a, p.ds, de_turck)
    states = list(march(zero, step, p.ds, p.s_max))
    assert len(states) == 9
    for _, a_s, _ in states:
        assert a_s.a.tobytes() == zero.a.tobytes()
        assert not curvature(a_s).f.any()


def test_flat_trivialize_pure_gauge_roundtrip():
    g = small_grid()
    O = data.smooth_transform(g, SU2, seed=5)
    a = data.pure_gauge(O)
    O_rec = flat_trivialize(a)
    # a = O^{-1} dO, and gauge_transform(a, V) = Ad(V) a - (dV) V^{-1},
    # so transforming by the recovered O itself flattens the field
    back = gauge_transform(a, O_rec)
    scale = max(np.max(np.abs(a.a)), 1e-300)
    assert np.max(np.abs(back.a)) <= 1e-3 * scale


def test_flat_trivialize_rejects_curved_input():
    g = small_grid()
    a = data.random_connection(g, SU2, seed=6, amplitude=0.5, k_band=1)
    with pytest.raises(FieldError, match="input not flat"):
        flat_trivialize(a)


def test_caloric_project_reflows_to_flat():
    g = small_grid()
    amp = 0.02
    a = data.random_connection(g, SU2, seed=7, amplitude=amp, k_band=1)
    p = params(g, s_max=4.0, ds=0.0125, stop_F_tol=1e-7)
    a_cal, O, traj = caloric_project(a, p)
    # gauge-equivalent: energies agree up to the O(h^4) covariance defect of
    # the discrete curvature under a gridded transform
    e0 = g.integrate(np.einsum("k...a,k...a->...", curvature(a).f, curvature(a).f))
    e1 = g.integrate(np.einsum("k...a,k...a->...", curvature(a_cal).f, curvature(a_cal).f))
    assert abs(e1 - e0) <= 1e-4 * max(e0, 1e-300)
    # the caloric representative re-flows to (numerically) zero
    t2 = run_heat(a_cal, p)
    term = np.max(np.abs(t2.terminal.a))
    assert term <= 0.1 * amp


def test_caloric_divergence_quadratic_in_amplitude():
    g = small_grid()
    p = params(g, s_max=4.0, ds=0.0125, stop_F_tol=1e-7)
    vals = {}
    for amp in (0.04, 0.02):
        a = data.random_connection(g, SU2, seed=8, amplitude=amp, k_band=1)
        a_cal, _, _ = caloric_project(a, p)
        div, sq = caloric_divergence(a_cal)
        vals[amp] = div
    ratio = vals[0.04] / max(vals[0.02], 1e-300)
    assert 3.0 <= ratio <= 5.5


def test_run_heat_frees_the_initial_connection_before_step_two():
    g = small_grid()
    refs, alive = [], []

    def held_only_by_the_call():
        a = data.random_connection(g, SU2, seed=2, amplitude=0.1, k_band=1, window=False)
        refs.append(weakref.ref(a.a))
        return a

    p = params(g, s_max=3 * 0.1 * g.h**2)
    run_heat(held_only_by_the_call(), p, observer=lambda k, s, a, F: alive.append(refs[0]() is not None))
    # the initial state stays the last finite one until step 1's is checked
    assert alive == [True, True, False, False]
