"""A constant gauge transformation commutes with the discrete curvature.

For a gauge transformation O equal to one su(2) element at every site the
Maurer-Cartan term (partial_j O) O^{-1} vanishes, so gauge_transform(a, O)
rotates every a_j by Ad(O).  The stencil derivative is linear and the
bracket is Ad-equivariant, so on the grid, up to rounding,

    curvature(gauge_transform(a, O)) = Ad(O) curvature(a),

and the energy density, a sum of squared norms, is unchanged.  For the
same reason the covariant derivatives D_j = partial_j + [a_j, .] commute
with Ad(O): the Yang-Mills tension and the covariant divergence of an
Ad(O)-rotated field are rotated by Ad(O), and the topological charge
density, a pairing of f with its Hodge dual, is unchanged.  A whole step
of either flow is built from these and from linear combinations, so one
leapfrog wave step maps (Ad(O) a, Ad(O) adot) to the rotated step of
(a, adot), and one RK2 heat step maps Ad(O) a to the rotated step of a.
These are exact identities of the discrete scheme, checked on random
connections on periodic and open n = 8 grids.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ym4 import algebra
from ym4.gaugefield import (
    ConnectionField,
    GaugeTransformField,
    chi_density,
    covariant_divergence,
    curvature,
    curvature_tension,
    energy_density,
    gauge_transform,
)
from ym4.grid import Grid4
from ym4.heatflow import HeatParams, run_heat
from ym4.wave import WaveState, wave_step

SU2 = algebra.su2()
SETTINGS = settings(max_examples=20, deadline=None)

cases = st.fixed_dictionaries(
    {
        "boundary": st.sampled_from(["periodic", "open"]),
        "h": st.floats(0.1, 1.0),
        "amplitude": st.floats(1e-3, 3.0),
        "seed": st.integers(0, 2**32 - 1),
    }
)


def _transformed(boundary, h, amplitude, seed):
    """(a, O's rotation matrix, gauge_transform(a, O)) for a random
    connection a and a random constant transform O."""
    g = Grid4(8, h, boundary=boundary)
    rng = np.random.default_rng(seed)
    a = ConnectionField(g, SU2, amplitude * rng.normal(size=(4,) + g.shape + (3,)))
    q = algebra.quat_exp(rng.normal(size=3) * rng.uniform(0.0, np.pi))
    O = GaugeTransformField(g, SU2, np.tile(q, g.shape + (1,)))
    return a, algebra.quat_rotation_matrix(q), gauge_transform(a, O)


def _rotate(rot, v):
    return np.einsum("ab,...b->...a", rot, v)


@SETTINGS
@given(case=cases)
def test_curvature_is_gauge_covariant(case):
    a, rot, moved = _transformed(**case)
    want = _rotate(rot, curvature(a).f)
    got = curvature(moved).f
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@SETTINGS
@given(case=cases)
def test_energy_density_is_gauge_invariant(case):
    a, _, moved = _transformed(**case)
    want = energy_density(curvature(a))
    got = energy_density(curvature(moved))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)


@SETTINGS
@given(case=cases)
def test_curvature_tension_is_gauge_covariant(case):
    a, rot, moved = _transformed(**case)
    want = _rotate(rot, curvature_tension(a))
    got = curvature_tension(moved)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@SETTINGS
@given(case=cases)
def test_covariant_divergence_is_gauge_covariant(case):
    a, rot, moved = _transformed(**case)
    v = np.random.default_rng(case["seed"] + 1).normal(size=a.a.shape)
    want = _rotate(rot, covariant_divergence(a, v))
    got = covariant_divergence(moved, _rotate(rot, v))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@SETTINGS
@given(case=cases)
def test_chi_density_is_gauge_invariant(case):
    a, _, moved = _transformed(**case)
    F = curvature(a)
    want = chi_density(F)
    got = chi_density(curvature(moved))
    # |<f, *f>| <= |f|^2 sitewise, so the energy density bounds the scale
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(energy_density(F))


@SETTINGS
@given(case=cases)
def test_wave_step_is_gauge_covariant(case):
    a, rot, moved = _transformed(**case)
    adot = np.random.default_rng(case["seed"] + 1).normal(size=a.a.shape)
    dt = 0.25 * a.grid.h
    want = wave_step(WaveState(0.0, a, adot), dt)
    got = wave_step(WaveState(0.0, moved, _rotate(rot, adot)), dt)
    for moved_out, out in ((got.a.a, want.a.a), (got.adot, want.adot)):
        out = _rotate(rot, out)
        assert np.max(np.abs(moved_out - out)) <= 1e-12 * np.max(np.abs(out))


@SETTINGS
@given(case=cases, de_turck=st.booleans())
def test_heat_step_is_gauge_covariant(case, de_turck):
    a, rot, moved = _transformed(**case)
    ds = 0.05 * a.grid.h**2
    p = HeatParams(ds=ds, s_max=ds)
    traj = run_heat(a, p, de_turck)
    got = run_heat(moved, p, de_turck).terminal
    assert traj.s_samples == [0.0, ds]
    want = _rotate(rot, traj.terminal.a)
    assert np.max(np.abs(got.a - want)) <= 1e-12 * np.max(np.abs(want))
