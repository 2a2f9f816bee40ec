"""The stencil, bracket and tension kernels equal their plain formulas bit
for bit.

The references below are the straightforward forms of each kernel: the
np.roll stencil, the moveaxis open stencil, np.cross and the tension loop
over pair_component.  The kernels in ym4 reorganise memory traffic but
must round every operation exactly as these do, so the comparison is on
the bytes, signed zeros included.

The bracket and the flat stencil pass run over blocks of
algebra._BLOCK_SITES sites, spread over algebra._WORKERS threads.  Every
test here but the last shrinks the block to 7 sites, so each field crosses
many block boundaries and ends on a ragged block, and compares each kernel
run on the calling thread alone and on three threads, more than the CPUs
of a small host, so blocks finish out of order; the last runs at the real
block size and the default thread count on an n = 24 grid.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ym4 import algebra, data
from ym4.gaugefield import (
    PAIRS,
    ConnectionField,
    covariant_derivative,
    curvature,
    curvature_tension,
    pair_component,
)
from ym4.grid import Grid4
from ym4.stepping import axpy

SU2 = algebra.su2()
BLOCK_SITES = algebra._BLOCK_SITES
# the block size is patched once per test and is the same for every example
SETTINGS = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    monkeypatch.setattr(algebra, "_BLOCK_SITES", 7)


@pytest.fixture
def thread_counts(monkeypatch):
    """Iterates over the thread counts 1 and 3, the kernels running on that
    many threads, from a fresh pool, during each iteration."""

    def counts():
        for workers in (1, 3):
            monkeypatch.setattr(algebra, "_WORKERS", workers)
            monkeypatch.setattr(algebra, "_pool", None)
            yield workers

    return counts


def roll_stencil(f, ax, h):
    return (
        8.0 * (np.roll(f, -1, axis=ax) - np.roll(f, 1, axis=ax))
        - (np.roll(f, -2, axis=ax) - np.roll(f, 2, axis=ax))
    ) / (12.0 * h)


def open_stencil(f, ax, h):
    g = np.moveaxis(f, ax, 0)
    out = np.empty_like(g)
    out[2:-2] = (8.0 * (g[3:-1] - g[1:-3]) - (g[4:] - g[:-4])) / (12.0 * h)
    c0 = np.array([-25.0 / 12.0, 4.0, -3.0, 4.0 / 3.0, -0.25]) / h
    c1 = np.array([-0.25, -5.0 / 6.0, 1.5, -0.5, 1.0 / 12.0]) / h
    out[0] = np.tensordot(c0, g[:5], axes=(0, 0))
    out[1] = np.tensordot(c1, g[:5], axes=(0, 0))
    out[-1] = -np.tensordot(c0, g[-5:][::-1], axes=(0, 0))
    out[-2] = -np.tensordot(c1, g[-5:][::-1], axes=(0, 0))
    return np.moveaxis(out, 0, ax)


def ref_partial(g, f, j):
    if g.deriv == "spectral":
        return g.partial(f, j)  # not blocked
    ref = roll_stencil if g.boundary == "periodic" else open_stencil
    return ref(f, g.axis(j), g.h)


def ref_bracket(spec, x, y):
    if spec.is_su2:
        return np.cross(x, y)
    return np.einsum("...a,...b,abk->...k", x, y, spec.structure_constants)


def ref_covariant_derivative(a, B, j):
    return ref_partial(a.grid, B, j) + ref_bracket(a.spec, a.a[j - 1], B)


def tension_loop(a, F):
    out = np.zeros_like(a.a)
    for k in range(1, 5):
        for l in range(1, 5):
            if l == k:
                continue
            out[k - 1] += ref_covariant_derivative(a, pair_component(F.f, l, k), l)
    return out


def curvature_formula(a):
    g = a.grid
    return np.stack(
        [
            ref_partial(g, a.a[j - 1], i)
            - ref_partial(g, a.a[i - 1], j)
            + ref_bracket(a.spec, a.a[i - 1], a.a[j - 1])
            for i, j in PAIRS
        ]
    )


def field(seed, shape, zeros, scale=1.0):
    """Normal samples; with zeros, about a third of the entries are 0.0
    or -0.0, so signed-zero handling shows in the bytes."""
    rng = np.random.default_rng(seed)
    f = scale * rng.standard_normal(shape)
    if zeros:
        f[rng.random(shape) < 0.2] = 0.0
        f[rng.random(shape) < 0.1] = -0.0
    return f


def same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@SETTINGS
@given(
    n=st.sampled_from([8, 10, 12]),
    trailing=st.sampled_from([(), (3,), (4,)]),
    h=st.floats(0.05, 2.0),
    scale=st.sampled_from([1e-8, 1.0, 1e6]),
    zeros=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_partial_equals_roll_and_moveaxis_stencils(
    thread_counts, n, trailing, h, scale, zeros, seed
):
    f = field(seed, (n,) * 4 + trailing, zeros, scale)
    for boundary, ref in (("periodic", roll_stencil), ("open", open_stencil)):
        g = Grid4(n, h, boundary=boundary)
        for j in range(1, 5):
            want = ref(f, g.axis(j), h)
            for workers in thread_counts():
                got = g.partial(f, j)
                assert np.array_equal(got, want) and same_bits(got, want), (boundary, j, workers)


def test_partial_accepts_a_non_contiguous_field(thread_counts):
    g = Grid4(8, 0.5)
    f = field(1, (3,) + g.shape, zeros=False)
    view = np.moveaxis(f, 0, -1)
    for workers in thread_counts():
        for j in range(1, 5):
            assert same_bits(g.partial(view, j), roll_stencil(view, g.axis(j), g.h)), workers


@SETTINGS
@given(
    lead=st.lists(st.integers(1, 6), min_size=0, max_size=4),
    complex_x=st.booleans(),
    complex_y=st.booleans(),
    broadcast=st.sampled_from(["none", "x", "y", "both"]),
    strided=st.booleans(),
    into=st.booleans(),
    zeros=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_bracket_equals_np_cross(
    thread_counts, lead, complex_x, complex_y, broadcast, strided, into, zeros, seed
):
    shape = tuple(lead) + (3,)
    rng = np.random.default_rng(seed)

    def arr(cplx, shape=shape):
        x = field(int(rng.integers(2**32)), shape, zeros)
        if cplx:
            x = x + 1j * field(int(rng.integers(2**32)), shape, zeros)
        return x

    x, y = arr(complex_x), arr(complex_y)
    if strided:
        # a non-contiguous operand: the algebra axis moved last from first
        x = np.moveaxis(arr(complex_x, (3,) + tuple(lead)), 0, -1)
    # a broadcast operand has size-1 leading axes (or none at all)
    if broadcast in ("x", "both") and lead:
        x = x[(0,) * len(lead)]
    if broadcast in ("y", "both") and lead:
        y = y[(slice(0, 1),) * len(lead)]
    want = np.cross(x, y)
    if into:
        # added into an accumulator of the broadcast shape, in place
        acc0 = arr(complex_x or complex_y, np.broadcast_shapes(x.shape, y.shape))
        want = acc0 + want
    for workers in thread_counts():
        if into:
            acc = acc0.copy()
            got = algebra.bracket_arr(SU2, x, y, acc=acc)
            assert got is acc
        else:
            got = algebra.bracket_arr(SU2, x, y)
        assert np.array_equal(got, want) and same_bits(got, want), workers


def test_bracket_equals_np_cross_on_a_broadcast_view(thread_counts):
    # spectral.bilinear_multiplier passes np.broadcast_to of one mode
    rng = np.random.default_rng(3)
    y = rng.standard_normal((8, 8, 8, 8, 3)) + 1j * rng.standard_normal((8, 8, 8, 8, 3))
    x = np.broadcast_to(y[1, 2, 3, 4], y.shape)
    for workers in thread_counts():
        assert same_bits(algebra.bracket_arr(SU2, x, y), np.cross(x, y)), workers


@SETTINGS
@given(
    n=st.sampled_from([8, 10]),
    grid=st.sampled_from(["periodic", "open", "spectral"]),
    spec=st.sampled_from(["su2", "abelian"]),
    zeros=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_curvature_and_tension_equal_the_pair_component_loop(
    thread_counts, n, grid, spec, zeros, seed
):
    if grid == "spectral":
        g = Grid4(n, 0.5, deriv="spectral")
    else:
        g = Grid4(n, 0.5, boundary=grid)
    spec = SU2 if spec == "su2" else algebra.abelian()
    a = ConnectionField(g, spec, field(seed, (4,) + g.shape + (3,), zeros))
    for _ in thread_counts():
        assert_kernels_match_references(a, field(seed + 1, g.shape + (3,), zeros))


def assert_kernels_match_references(a, B):
    g = a.grid
    for j in range(1, 5):
        assert same_bits(g.partial(B, j), ref_partial(g, B, j)), j
        assert same_bits(covariant_derivative(a, B, j), ref_covariant_derivative(a, B, j)), j
        acc = ref_partial(g, B, j)
        want = acc + ref_bracket(a.spec, a.a[j - 1], B)
        assert same_bits(algebra.bracket_arr(a.spec, a.a[j - 1], B, acc=acc), want), j
    F = curvature(a)
    assert same_bits(F.f, curvature_formula(a))
    got = curvature_tension(a, F)
    want = tension_loop(a, F)
    assert np.array_equal(got, want) and same_bits(got, want)


@pytest.mark.parametrize("n, boundary", [(8, "periodic"), (12, "open")])
def test_tension_kick_equals_axpy_of_the_tension(thread_counts, n, boundary):
    g = Grid4(n, 0.5, boundary=boundary)
    d = data.random_data(g, SU2, seed=n, amplitude=0.5, k_band=1, project=False)
    assert np.signbit(d.a.a[d.a.a == 0.0]).any() and np.signbit(d.e[d.e == 0.0]).any()
    c = 0.5 * 0.25 * g.h
    for workers in thread_counts():
        want = axpy(c, curvature_tension(d.a), d.e.copy())
        v = d.e.copy()
        got = curvature_tension(d.a, kick=(c, v))
        assert got is v and same_bits(got, want), workers


def test_kernels_at_the_real_block_size_on_an_open_n24_grid(monkeypatch):
    # 24^4 sites are 20.25 blocks of 16384: many full blocks and a ragged one
    monkeypatch.setattr(algebra, "_BLOCK_SITES", BLOCK_SITES)
    g = Grid4(24, 0.25, boundary="open")
    a = ConnectionField(g, SU2, field(5, (4,) + g.shape + (3,), zeros=True))
    assert g.shape[0] ** 4 % BLOCK_SITES
    assert_kernels_match_references(a, field(6, g.shape + (3,), zeros=True))
