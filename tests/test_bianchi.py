"""The discrete curvature satisfies the Bianchi identity D_i f_jk + cyclic = 0.

For a commutative algebra D_i is the stencil derivative and f_jk =
partial_j a_k - partial_k a_j.  Stencil derivatives along different axes
commute (on open grids too: each one-sided face closure acts along its own
axis), so the cyclic sum cancels up to rounding, whatever the field.  For
su(2) the stencil derivative of a bracket differs from the Leibniz rule by
O(h^4), and so does the cyclic sum: on a fixed smooth periodic field it
falls like h^4 as the grid is refined at fixed extent.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ym4 import algebra
from ym4.gaugefield import ConnectionField, covariant_derivative, curvature, pair_component
from ym4.grid import Grid4

TRIPLES = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]


def bianchi_residual(a: ConnectionField) -> tuple:
    """(max |D_i f_jk + D_j f_ki + D_k f_ij| over triples and sites, max |f|)."""
    f = curvature(a).f
    worst = 0.0
    for i, j, k in TRIPLES:
        cyc = (
            covariant_derivative(a, pair_component(f, j, k), i)
            + covariant_derivative(a, pair_component(f, k, i), j)
            + covariant_derivative(a, pair_component(f, i, j), k)
        )
        worst = max(worst, float(np.max(np.abs(cyc))))
    return worst, float(np.max(np.abs(f)))


@settings(max_examples=20, deadline=None)
@given(
    boundary=st.sampled_from(["periodic", "open"]),
    amplitude=st.floats(1e-3, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_abelian_bianchi_vanishes_to_rounding(boundary, amplitude, seed):
    g = Grid4(8, 0.5, boundary=boundary)
    rng = np.random.default_rng(seed)
    a = ConnectionField(g, algebra.abelian(), amplitude * rng.normal(size=(4,) + g.shape + (3,)))
    resid, f_max = bianchi_residual(a)
    assert resid <= 1e-13 * f_max, (resid, f_max)


def smooth_su2_connection(n: int, extent: float = 4.0) -> ConnectionField:
    """One fixed smooth periodic su(2) connection, sampled on an n^4 grid."""
    g = Grid4(n, extent / n)
    rng = np.random.default_rng(2024)
    modes = rng.integers(-1, 2, size=(4, 3, 4))  # (component, algebra, axis)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(4, 3))
    x = [g.coordinate_field(j) for j in range(1, 5)]
    arr = np.empty((4,) + g.shape + (3,))
    for c in range(4):
        for b in range(3):
            theta = sum(2.0 * np.pi * modes[c, b, j] * x[j] / extent for j in range(4))
            arr[c, ..., b] = 0.5 * np.sin(theta + phases[c, b])
    return ConnectionField(g, algebra.su2(), arr)


def test_su2_bianchi_residual_converges_at_fourth_order():
    coarse, _ = bianchi_residual(smooth_su2_connection(8))
    fine, _ = bianchi_residual(smooth_su2_connection(16))
    assert fine > 0.0
    assert coarse / fine >= 8.0, (coarse, fine)
