"""Unit tests for the temporal-gauge wave evolution."""

import weakref

import numpy as np
import pytest

from ym4 import algebra, data
from ym4.errors import BlowUpError
from ym4.gaugefield import ConnectionField, InitialDataSet, zero_connection
from ym4.grid import Grid4
from ym4.wave import WaveParams, WaveState, kept_times, run_wave, wave_step

SU2 = algebra.su2()
AB = algebra.abelian()


def small_grid(n=8, h=0.5):
    return Grid4(n, h)


def test_params_validation_and_cfl():
    with pytest.raises(ValueError):
        WaveParams(dt=-0.1, t_end=1.0)
    p = WaveParams(dt=0.3, t_end=1.0)
    with pytest.raises(ValueError):
        p.check_cfl(0.5)  # 0.3 > 0.4 * 0.5
    WaveParams(dt=0.1, t_end=1.0).check_cfl(0.5)


@pytest.mark.parametrize("dt, t_end", [(np.nan, 1.0), (np.inf, 1.0), (0.1, np.nan), (0.1, np.inf)])
def test_params_reject_non_finite(dt, t_end):
    # nan used to pass check_cfl and fail later in ceil; inf overflowed there
    with pytest.raises(ValueError, match="finite"):
        WaveParams(dt=dt, t_end=t_end)


def test_zero_data_stays_zero():
    g = small_grid()
    d = InitialDataSet(zero_connection(g, SU2), np.zeros((4,) + g.shape + (3,)))
    snaps = run_wave(d, WaveParams(dt=0.1, t_end=0.5))
    assert np.max(np.abs(snaps[-1].a.a)) == 0.0
    assert snaps[-1].t == pytest.approx(0.5)


def test_abelian_plane_wave_dispersion_oracle():
    # abelian + divergence-free single mode: a(t) = cos(s(kappa) t) a(0)
    # with s the grid's own first-derivative symbol
    g = small_grid()
    kap = g.wavenumbers1d()[1]
    sym = g.deriv_symbol1d()[1]
    arr = np.zeros((4,) + g.shape + (3,))
    arr[0, ..., 0] = 0.1 * np.cos(kap * g.coordinate_field(2))
    d = InitialDataSet(ConnectionField(g, AB, arr), np.zeros_like(arr))
    t_end = 1.0
    dt = 0.02
    snaps = run_wave(d, WaveParams(dt=dt, t_end=t_end, snapshot_stride=50))
    want = np.cos(sym * t_end) * arr
    err = np.max(np.abs(snaps[-1].a.a - want))
    assert err <= 1e-3 * np.max(np.abs(arr))


def test_energy_conservation_and_gauss_drift():
    g = small_grid()
    d = data.random_data(g, SU2, seed=1, amplitude=0.05, k_band=1)
    # leapfrog conserves a shadow energy offset by O((dt/h)^2); keep dt small
    snaps = run_wave(d, WaveParams(dt=0.04, t_end=1.0))
    e0 = snaps[0].energy
    e1 = snaps[-1].energy
    assert abs(e1 - e0) <= 5e-3 * e0
    # the Gauss residual picks up the discrete-Leibniz defect, which is
    # quadratic in the amplitude and independent of dt
    scale = g.l2norm(d.e) + g.l2norm(d.a.a)
    r1 = snaps[-1].gauss_residual
    assert r1 <= 1e-2 * max(scale, 1e-300)
    d2 = data.random_data(g, SU2, seed=1, amplitude=0.025, k_band=1)
    r2 = run_wave(d2, WaveParams(dt=0.04, t_end=1.0))[-1].gauss_residual
    assert 3.0 <= r1 / max(r2, 1e-300) <= 5.0


def test_leapfrog_time_reversible():
    g = small_grid()
    d = data.random_data(g, SU2, seed=2, amplitude=0.05, k_band=1)
    w0 = WaveState(0.0, d.a, np.array(d.e))
    w1 = wave_step(w0, 0.1)
    back = wave_step(WaveState(w1.t, w1.a, -w1.adot), 0.1)
    assert np.max(np.abs(back.a.a - w0.a.a)) <= 1e-12
    assert np.max(np.abs(back.adot + w0.adot)) <= 1e-12


def test_blow_up_signal_carries_partial_history():
    g = small_grid()
    d = data.random_data(g, SU2, seed=9, amplitude=400.0, k_band=1, project=False)
    with pytest.raises(BlowUpError) as err:
        run_wave(d, WaveParams(dt=0.2, t_end=5.0))
    assert err.value.partial is not None
    assert len(err.value.partial) >= 1
    # streamed, the observer has had those states and the signal keeps none
    seen = []
    with pytest.raises(BlowUpError) as streamed:
        run_wave(d, WaveParams(dt=0.2, t_end=5.0), observer=seen.append)
    assert str(streamed.value) == str(err.value) and streamed.value.partial is None
    assert [_kept(w) for w in seen] == [_kept(w) for w in err.value.partial]


def test_nan_energy_density_peak_is_blow_up(nan_density_peak):
    g = small_grid()
    d = data.random_data(g, SU2, seed=2, amplitude=0.05, k_band=1)
    with pytest.raises(BlowUpError, match="blow-up") as err:
        run_wave(d, WaveParams(dt=0.1, t_end=0.3))
    assert [w.t for w in err.value.partial] == [0.0]


def test_finite_speed_exterior_leak():
    # compactly supported data: after time t the field outside r = R + t
    # plus a dispersive skirt (~8h for the fourth-order stencil) vanishes
    # at the 1e-10 level; at the bare stencil width (4h) the quartic
    # dispersion still leaves a visible Airy-type tail
    g = Grid4(24, 0.25)
    r = g.radius()
    R0 = 1.5
    x = np.clip(r / R0, 0.0, 1.0)
    prof = np.where(x >= 1.0, 0.0, np.cos(0.5 * np.pi * x) ** 16)
    arr = np.zeros((4,) + g.shape + (3,))
    arr[0, ..., 0] = 0.05 * prof
    arr[1, ..., 1] = 0.05 * prof * np.cos(2.0 * np.pi / g.extent * g.coordinate_field(1))
    d = InitialDataSet(ConnectionField(g, SU2, arr), np.zeros_like(arr))
    scale = np.max(np.abs(arr))
    R = np.max(r[np.any(np.abs(arr) > 0, axis=(0, 5))])
    t_end = 0.5
    w = run_wave(d, WaveParams(dt=0.0625, t_end=t_end))[-1]
    amp = np.maximum(np.max(np.abs(w.a.a), axis=(0, 5)), np.max(np.abs(w.adot), axis=(0, 5)))
    near = r > R + t_end + 4.0 * g.h
    far = r > R + t_end + 8.0 * g.h
    assert np.max(amp[near]) <= 1e-3 * scale
    assert np.max(amp[far]) <= 1e-10 * scale


def test_run_wave_shares_and_leaves_the_initial_electric_field():
    d = data.random_data(small_grid(), SU2, seed=3, amplitude=0.05, k_band=1)
    before = d.e.tobytes()
    snaps = run_wave(d, WaveParams(dt=0.1, t_end=0.2))
    assert len(snaps) == 3 and d.e.tobytes() == before
    assert snaps[0].a is d.a and np.shares_memory(snaps[0].adot, d.e)


def _kept(w):
    """Everything run_wave records of a kept state, bit for bit."""
    return (w.t, w.energy, w.gauss_residual, w.a.a.tobytes(), w.adot.tobytes())


@pytest.mark.parametrize("stride", [1, 3])
def test_run_wave_observer_sees_the_kept_states(stride):
    d = data.random_data(small_grid(), SU2, seed=4, amplitude=0.05, k_band=1)
    p = WaveParams(dt=0.1, t_end=0.7, snapshot_stride=stride)
    kept = run_wave(d, p)
    seen = []
    out = run_wave(d, p, observer=seen.append)
    assert [_kept(w) for w in seen] == [_kept(w) for w in kept]
    assert len(out) == 1 and out[0] is seen[-1]
    # every stride-th step and the last: 0, 3, 6 and 7 at stride 3
    assert [w.t for w in kept] == list(kept_times(p))
    assert len(kept) == {1: 8, 3: 4}[stride]


def _data_held_only_by_the_call(refs):
    """Random data for a call to take over; refs gets weak references to
    its arrays, and nothing else keeps them."""
    d = data.random_data(small_grid(), SU2, seed=5, amplitude=0.05, k_band=1)
    refs += [weakref.ref(d.a.a), weakref.ref(d.e)]
    return d


def test_run_wave_frees_the_initial_data_when_step_one_returns():
    refs, alive = [], []
    run_wave(
        _data_held_only_by_the_call(refs),
        WaveParams(dt=0.1, t_end=0.3),
        observer=lambda w: alive.append([r() is not None for r in refs]),
    )
    assert alive == [[True, True]] + [[False, False]] * 3
