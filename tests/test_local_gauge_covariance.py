"""A site-dependent gauge transformation commutes with the discrete scheme
up to its truncation error.

For O = exp psi with psi varying from site to site, gauge_transform(a, O)
subtracts the Maurer-Cartan term (partial_j O) O^{-1}, built with the
stencil derivative.  The continuum identities

    F(O a) = Ad(O) F(a),   D^k F_{kj}(O a) = Ad(O) D^k F_{kj}(a),
    D^j(Ad(O) e_j) at O a = Ad(O) D^j e_j at a,

and the flows built from them, then hold on the grid only up to the
fourth-order truncation error of the stencil.  Every field here is a sum of
sines of period L sampled on periodic grids of extent L, so n = 8 and
n = 16 sample the same smooth fields, and each defect must fall by at least
8 per halving of h (the stencil's order is 4, so 16 asymptotically).  A
wrong sign of the Maurer-Cartan term, or of the bracket in the covariant
derivative, leaves an O(1) defect at every n.
"""

import numpy as np
import pytest

from ym4 import algebra
from ym4.gaugefield import (
    ConnectionField,
    GaugeTransformField,
    covariant_divergence,
    curvature,
    curvature_tension,
    gauge_transform,
    transform_coefficients,
)
from ym4.grid import Grid4
from ym4.heatflow import HeatParams, run_heat
from ym4.wave import WaveState, wave_step

SU2 = algebra.su2()
L = 4.0
AMPLITUDE = 0.1
MIN_REDUCTION = 8.0


def periodic_field(g, seed, lead=()):
    """AMPLITUDE Sum_m c_m sin(2 pi x_m / L + phi_m) in each component,
    shape lead + g.shape + (3,); the coefficients depend on the seed alone,
    so every n samples the same field."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=lead + (3, 4))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=lead + (3, 4))
    x = [2.0 * np.pi / L * g.coordinate_field(m) for m in range(1, 5)]
    out = np.empty(lead + g.shape + (3,))
    for idx in np.ndindex(lead + (3,)):
        terms = (c[idx][m] * np.sin(x[m] + phase[idx][m]) for m in range(4))
        out[idx[:-1] + (Ellipsis, idx[-1])] = AMPLITUDE * sum(terms)
    return out


@pytest.fixture(scope="module")
def cases():
    """n -> (a, O, gauge_transform(a, O), e) on the periodic n-grid of extent L."""
    out = {}
    for n in (8, 16):
        g = Grid4(n, L / n)
        a = ConnectionField(g, SU2, periodic_field(g, 1, (4,)))
        O = GaugeTransformField(g, SU2, algebra.quat_exp(periodic_field(g, 2)))
        out[n] = (a, O, gauge_transform(a, O), periodic_field(g, 3, (4,)))
    return out


def relative_defect(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def assert_order(defect, cases):
    """defect(a, O, moved, e) falls by MIN_REDUCTION from n = 8 to n = 16."""
    coarse, fine = (defect(*cases[n]) for n in (8, 16))
    assert coarse >= MIN_REDUCTION * fine, (coarse, fine)


def test_curvature_is_gauge_covariant_to_fourth_order(cases):
    def defect(a, O, moved, e):
        return relative_defect(curvature(moved).f, transform_coefficients(O, curvature(a).f))

    assert_order(defect, cases)


def test_curvature_tension_is_gauge_covariant_to_fourth_order(cases):
    def defect(a, O, moved, e):
        want = transform_coefficients(O, curvature_tension(a))
        return relative_defect(curvature_tension(moved), want)

    assert_order(defect, cases)


def test_covariant_divergence_is_gauge_covariant_to_fourth_order(cases):
    def defect(a, O, moved, e):
        got = covariant_divergence(moved, transform_coefficients(O, e))
        return relative_defect(got, transform_coefficients(O, covariant_divergence(a, e)))

    assert_order(defect, cases)


@pytest.mark.parametrize("part", ["a", "adot"])
def test_wave_step_is_gauge_covariant_to_fourth_order(cases, part):
    def defect(a, O, moved, e):
        dt = 0.25 * a.grid.h
        w = wave_step(WaveState(0.0, a, e), dt)
        got = wave_step(WaveState(0.0, moved, transform_coefficients(O, e)), dt)
        if part == "a":
            return relative_defect(got.a.a, gauge_transform(w.a, O).a)
        return relative_defect(got.adot, transform_coefficients(O, w.adot))

    assert_order(defect, cases)


def test_heat_step_is_gauge_covariant_to_fourth_order(cases):
    def defect(a, O, moved, e):
        ds = 0.05 * a.grid.h**2
        p = HeatParams(ds=ds, s_max=ds)
        want = gauge_transform(run_heat(a, p).terminal, O).a
        return relative_defect(run_heat(moved, p).terminal.a, want)

    assert_order(defect, cases)
