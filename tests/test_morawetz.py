"""Unit tests for the energy-momentum tensor, the null frame and the
Morawetz identity assembly.

The pointwise forms are tested on random sites of random shape; the
full-grid forms that the assembly is checked against live here, as
reference forms, not in the package.
"""

import gc
import weakref
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ym4 import algebra, data, morawetz, wave
from ym4.gaugefield import ConnectionField, FieldError, InitialDataSet, curvature, energy_density
from ym4.grid import Grid4
from ym4.wave import WaveParams, WaveState

from oracles import radius_about

SU2 = algebra.su2()


def make_state(n=8, h=0.5, seed=1, amp=0.05, t=0.0):
    g = Grid4(n, h)
    d = data.random_data(g, SU2, seed=seed, amplitude=amp, k_band=1)
    return WaveState(t, d.a, np.array(d.e))


# -- the pointwise forms on random sites --------------------------------------

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def sites(draw):
    """Coordinates x (4, ...), electric field e (4, ..., d) and pair-stored
    magnetic field f (6, ..., d) on a random trailing site shape."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    d = draw(st.sampled_from([1, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.floats(0.1, 4.0))
    x = scale * rng.uniform(-1.0, 1.0, (4,) + shape)
    e = rng.standard_normal((4,) + shape + (d,))
    f = rng.standard_normal((6,) + shape + (d,))
    return x, e, f


def rotate_frame(frame, theta):
    """The frame with its tangential triad rotated by theta in the (e_1, e_2)
    plane; the null norms do not depend on that choice."""
    c, s = np.cos(theta), np.sin(theta)
    tangent = frame.tangent.copy()
    tangent[0] = c * frame.tangent[0] + s * frame.tangent[1]
    tangent[1] = -s * frame.tangent[0] + c * frame.tangent[1]
    return morawetz.NullFrame(frame.nhat, tangent, frame.mask)


def plain_density(e, f):
    """|e|^2 + |f|^2 per site, summed over components and the algebra axis."""
    return np.sum(e**2, axis=(0, -1)) + np.sum(f**2, axis=(0, -1))


@SETTINGS
@given(site=sites(), h=st.floats(0.05, 1.0))
def test_null_frame_orthonormal_and_mask(site, h):
    x = site[0]
    fr = morawetz._frame(x, h)
    r = np.sqrt(np.sum(x**2, axis=0))
    assert np.array_equal(fr.mask, r >= 2 * h - 1e-12)
    # nhat is the unit radial direction; the tangent triad is orthonormal
    # and orthogonal to nhat
    m = fr.mask
    assert np.max(np.abs(fr.nhat * r - x)[:, m], initial=0.0) <= 1e-12 * max(np.max(r), 1.0)
    basis = np.concatenate([fr.nhat[None], fr.tangent])
    gram = np.einsum("aj...,bj...->ab...", basis, basis)
    assert np.max(np.abs(gram - np.eye(4).reshape((4, 4) + (1,) * r.ndim))[:, :, m], initial=0.0) <= 1e-12


@SETTINGS
@given(site=sites(), h=st.floats(0.05, 1.0))
def test_null_decompose_reconstructs_energy_density(site, h):
    # |alpha|^2/2 + |alphabar|^2/2 + |varrho|^2 + |sigma|^2 equals the
    # temporal-temporal energy density on unmasked sites
    x, e, f = site
    fr = morawetz._frame(x, h)
    alpha, alphabar, varrho, sigma = morawetz._null_components(e, f, fr)
    sq = morawetz._sq
    got = 0.5 * sq(alpha) + 0.5 * sq(alphabar) + np.sum(varrho**2, axis=-1) + sq(sigma)
    dens = plain_density(e, f)
    m = fr.mask
    assert np.max(np.abs(got - dens)[m], initial=0.0) <= 1e-12 * np.max(dens)


@SETTINGS
@given(site=sites(), h=st.floats(0.05, 1.0), theta=st.floats(-np.pi, np.pi))
def test_null_norms_frame_rotation_invariant(site, h, theta):
    x, e, f = site
    fr = morawetz._frame(x, h)
    n1 = morawetz._null_components(e, f, fr)
    n2 = morawetz._null_components(e, f, rotate_frame(fr, theta))
    scale = np.max(plain_density(e, f))
    for v1, v2 in zip(n1[:2] + n1[3:], n2[:2] + n2[3:]):  # alpha, alphabar, sigma
        assert np.max(np.abs(morawetz._sq(v1) - morawetz._sq(v2))) <= 1e-12 * scale
    # varrho reads only nhat, which the rotation leaves alone
    assert np.array_equal(n1[2], n2[2])


@SETTINGS
@given(site=sites())
def test_energy_momentum_symmetric_traceless_and_energy(site):
    _, e, f = site
    T = morawetz._stress(e, f)
    assert T.shape == (5, 5) + e.shape[1:-1]
    assert np.array_equal(T, np.swapaxes(T, 0, 1))
    # T00 is the energy density; the Minkowski trace -T00 + Sum_j T_jj is
    # -<F, F>/2 = |e|^2 - |f|^2, which in 4+1 dimensions does not vanish
    dens = plain_density(e, f)
    assert np.max(np.abs(T[0, 0] - dens)) <= 1e-12 * np.max(dens)
    trace = -T[0, 0] + sum(T[j, j] for j in range(1, 5))
    want = np.sum(e**2, axis=(0, -1)) - np.sum(f**2, axis=(0, -1))
    assert np.max(np.abs(trace - want)) <= 1e-12 * np.max(dens)


# -- test-local full-grid reference forms ---------------------------------------


def offsets(g, center):
    return np.stack([g.coordinate_field(j) - center[j - 1] for j in range(1, 5)])


def energy_momentum(w):
    """T_{alpha beta} on the whole grid, shape (5, 5, n, n, n, n)."""
    return morawetz._stress(w.adot, curvature(w.a).f)


def iota_xf(w, eps, vertex):
    """iota_X F on the whole grid, shape (5, n, n, n, n, d); sites with
    rho_eps < 2h are zeroed."""
    g = w.a.grid
    t, x = w.t - vertex[0], offsets(g, vertex[1:])
    _, rho, mask = morawetz._cone_geometry(t, x, g.h, eps)
    return morawetz._iota(w.adot, curvature(w.a).f, x, t + eps, rho) * mask[..., None]


def null_decompose(w, center):
    """(alpha, alphabar, varrho, sigma) on the whole grid, zeroed where the
    frame is masked, and the mask."""
    frame = morawetz._frame(offsets(w.a.grid, center), w.a.grid.h)
    parts = morawetz._null_components(w.adot, curvature(w.a).f, frame)
    return tuple(p * frame.mask[..., None] for p in parts), frame.mask


def test_energy_momentum_divergence_refinement():
    # on-shell states satisfy div T = 0 up to discretization; off-shell
    # random states do not, so check the identity along the wave flow:
    # d/dt Integral T00 = 0 is energy conservation (covered elsewhere); here
    # check spatial divergence of the momentum row integrates to zero
    w = make_state(seed=4)
    g = w.a.grid
    T = energy_momentum(w)
    for alpha in range(5):
        div = sum(g.partial(T[alpha, j], j) for j in range(1, 5))
        assert abs(g.integrate(div)) <= 1e-10 * max(np.max(np.abs(T)), 1e-300)


def test_iota_xf_masked_and_dissipation_nonnegative():
    w = make_state(seed=5, t=0.5)
    g = w.a.grid
    vertex, eps = (0.0, 0.0, 0.0, 0.0, 0.0), 0.5
    iota = iota_xf(w, eps, vertex)
    # sites inside the 2h hyperboloid collar are zeroed
    r, rho, mask = morawetz._cone_geometry(w.t, offsets(g, vertex[1:]), g.h, eps)
    assert np.max(np.abs(iota[:, ~mask])) == 0.0
    val = morawetz.interior_dissipation(morawetz._cone(w, vertex), eps)
    want = g.integrate(np.where(mask & (r <= w.t), 2.0 * morawetz._sq(iota) / rho, 0.0))
    assert val >= 0.0
    assert abs(val - want) <= 1e-12 * want


def test_cone_section_guards():
    origin = (0.0, 0.0, 0.0, 0.0, 0.0)
    # the 8^4 grid at h = 0.5 has extent 4, so the validity region is |x| + t <= 1
    cases = [
        (0.0, origin, "requires t > vertex time"),
        (-0.5, origin, "requires t > vertex time"),
        (1.5, origin, "inner half-box"),
        (0.5, (0.0, 0.0, 0.0, 0.75, 0.0), "inner half-box"),
    ]
    for t, vertex, match in cases:
        with pytest.raises(FieldError, match=match):
            morawetz._cone(make_state(seed=6, t=t), vertex)
    # the assembly checks every snapshot it selects, the end ones included
    for times, match in (((0.0, 0.5), "vertex time"), ((0.5, 1.5), "half-box")):
        snaps = [make_state(seed=6, t=t) for t in times]
        with pytest.raises(FieldError, match=match):
            morawetz.morawetz_identity_residual(snaps, origin, eps=0.5, t1=times[0], t2=times[1])
    morawetz._cone(make_state(seed=6, t=1.0), origin)  # on the boundary of the region


def test_cone_time_is_the_time_since_the_vertex():
    g = Grid4(8, 0.5)  # extent 4: the validity region is |x| + t <= 1
    assert morawetz.cone_time(g, (0.25, 0.0, 0.0, 0.0, 0.0), 0.75) == 0.5
    # the box check uses the time since the vertex, not t itself
    assert morawetz.cone_time(g, (0.5, 0.0, 0.0, 0.5, 0.0), 1.0) == 0.5
    assert morawetz.cone_time(g, (-0.5, 0.0, -0.5, 0.0, 0.0), 0.0) == 0.5
    with pytest.raises(FieldError, match="inner half-box"):
        morawetz.cone_time(g, (-0.5, 0.0, 0.0, 0.0, 0.0), 0.75)
    with pytest.raises(FieldError, match="requires t > vertex time"):
        morawetz.cone_time(g, (0.75, 0.0, 0.0, 0.0, 0.0), 0.75)


def test_morawetz_identity_residual_small_on_wave_solution():
    g = Grid4(16, 0.25)
    d = data.random_data(g, SU2, seed=7, amplitude=0.02, k_band=1)
    snaps = wave.run_wave(d, WaveParams(dt=0.0625, t_end=0.75))
    rep = morawetz.morawetz_identity_residual(
        snaps, (-0.25, 0.0, 0.0, 0.0, 0.0), eps=0.5, t1=0.25, t2=0.75
    )
    assert rep.interior_dissipation_accum >= 0.0
    assert rep.identity_residual <= 0.1


# -- the gathered identity assembly ------------------------------------------

VERTEX = (-0.75, 0.0, 0.0, 0.0, 0.0)


def bpst_flow():
    """An open-boundary BPST run at n = 16 over two steps: (data, params).

    The electric field starts nonzero so the e-terms of every integrand are
    exercised; the comparisons below are pointwise algebra, so the Gauss
    constraint plays no part.
    """
    g = Grid4(16, 0.25, boundary="open")
    a = data.bpst(g, SU2, lam=1.0)
    dt = 0.25 * g.h
    return InitialDataSet(a, 0.1 * a.a), WaveParams(dt=dt, t_end=2 * dt)


@pytest.fixture(scope="module")
def bpst_run():
    """The three snapshots of bpst_flow."""
    return wave.run_wave(*bpst_flow())


def _reference_report(snaps, vertex, eps):
    """The identity assembled from the full-grid reference forms."""
    g = snaps[0].a.grid
    t0, x0 = vertex[0], vertex[1:]
    x = offsets(g, x0)
    r = radius_about(g, x0)

    def dissipation(w):
        t = w.t - t0
        rc, rho, mask = morawetz._cone_geometry(t, x, g.h, eps)
        iota = iota_xf(w, eps, vertex)
        dens = np.einsum("b...c,b...c->...", iota, iota)
        return g.integrate(np.where(mask & (rc <= abs(t)), 2.0 * dens / rho, 0.0))

    def flux(w):
        t = w.t - t0
        rho = np.sqrt(np.maximum((t + eps) ** 2 - r**2, 1e-300))
        X = np.concatenate([((t + eps) / rho)[None], x / rho])
        P = np.einsum("ab...,b...->a...", energy_momentum(w), X)
        nhat = x / np.where(r > 0.0, r, 1.0)
        dens = P[0] + np.einsum("j...,j...->...", nhat, P[1:])
        return g.integrate(np.where(np.abs(r - t) <= 0.5 * g.h, dens, 0.0)) / g.h

    def weighted(w):
        t = w.t - t0
        inside = r <= t
        wp = np.sqrt(np.where(inside, (t + eps + r) / np.maximum(t + eps - r, 1e-300), 1.0))
        wm = 1.0 / wp
        (alpha, alphabar, varrho, sigma), mask = null_decompose(w, x0)
        sq = lambda v: np.einsum("a...c,a...c->...", v, v)  # noqa: E731
        good = np.einsum("...c,...c->...", varrho, varrho) + sq(sigma)
        dens = 0.5 * wp * (sq(alpha) + good) + 0.5 * wm * (sq(alphabar) + good)
        dens = np.where(mask, dens, 0.5 * (wp + wm) * energy_density(w.curvature()))
        return g.integrate(np.where(inside, dens, 0.0))

    times = [w.t for w in snaps]
    diss = float(np.trapezoid([dissipation(w) for w in snaps], times))
    bdry = float(np.trapezoid([flux(w) for w in snaps], times))
    we1, we2 = weighted(snaps[0]), weighted(snaps[-1])
    lhs, rhs = we2 + diss, we1 + bdry
    return we1, we2, diss, bdry, abs(lhs - rhs) / max(abs(lhs), abs(rhs))


def test_identity_assembly_matches_full_grid_reference(bpst_run):
    rep = morawetz.morawetz_identity_residual(bpst_run, VERTEX, eps=0.5, t1=0.0, t2=1.0)
    got = (
        rep.weighted_energy_start,
        rep.weighted_energy,
        rep.interior_dissipation_accum,
        rep.boundary_term,
        rep.identity_residual,
    )
    want = _reference_report(bpst_run, VERTEX, 0.5)
    assert min(abs(v) for v in want) > 0.0
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * abs(w)


def test_identity_assembly_builds_curvature_once_per_snapshot(bpst_run, monkeypatch):
    calls = []
    build = morawetz.curvature

    def counted(a):
        calls.append(a)
        return build(a)

    monkeypatch.setattr(morawetz, "curvature", counted)
    morawetz.morawetz_identity_residual(bpst_run, VERTEX, eps=0.5, t1=0.0, t2=1.0)
    # t - t0 = 0.75, 0.8125, 0.875: sites within t + h/2 of the center span
    # 7, 7 and 9 planes per axis, plus two stencil planes on each side
    windows = [slice(3, 15), slice(3, 15), slice(2, 16)]
    assert len(calls) == len(bpst_run)
    for a, w, s in zip(calls, bpst_run, windows):
        cut = np.ascontiguousarray(w.a.a[:, s, s, s, s])
        assert a.grid.n == s.stop - s.start and a.grid.h == w.a.grid.h
        assert a.a.tobytes() == cut.tobytes()
    calls.clear()
    # an interval [t1, t2] holding two of the three snapshots builds two
    morawetz.morawetz_identity_residual(bpst_run, VERTEX, eps=0.5, t1=bpst_run[1].t, t2=1.0)
    assert len(calls) == 2


def test_streamed_report_equals_the_list_form(bpst_run):
    want = morawetz.morawetz_identity_residual(bpst_run, VERTEX, eps=0.5, t1=0.0, t2=1.0)
    acc = morawetz.MorawetzAccumulator(VERTEX, eps=0.5, t1=0.0, t2=1.0)
    (last,) = wave.run_wave(*bpst_flow(), observer=acc.add)
    got = acc.report()
    assert [v.hex() for v in astuple(got)] == [v.hex() for v in astuple(want)]
    assert got.t == last.t == bpst_run[-1].t
    # only the latest snapshot's cone window is held
    assert acc.last.t == last.t - VERTEX[0] and acc.times == [w.t for w in bpst_run]


def test_streamed_accumulator_holds_no_array_of_a_snapshot(bpst_run):
    # the latest cone window is cut out of its snapshot, not a view into
    # it, so no fed state outlives the run that streamed it
    acc = morawetz.MorawetzAccumulator(VERTEX, eps=0.5, t1=0.0, t2=1.0)
    fed = []

    def add(w):
        fed.append((weakref.ref(w.a.a), weakref.ref(w.adot)))
        acc.add(w)

    wave.run_wave(*bpst_flow(), observer=add)  # the returned last state is dropped
    gc.collect()
    assert len(fed) == 3 and all(ref() is None for refs in fed for ref in refs)
    assert acc.last.e.flags.owndata and acc.last.e.shape[1] < 16
    want = morawetz.morawetz_identity_residual(bpst_run, VERTEX, eps=0.5, t1=0.0, t2=1.0)
    assert [v.hex() for v in astuple(acc.report())] == [v.hex() for v in astuple(want)]


def _moved(w):
    other = Grid4(w.a.grid.n, w.a.grid.h)  # periodic, where the run is open
    return WaveState(w.t, ConnectionField(other, SU2, w.a.a), w.adot)


@pytest.mark.parametrize(
    "pick, raised_at, match",
    [
        (lambda run: run[::-1], 1, "strictly increasing"),  # trapezoid over unsorted times
        (lambda run: [run[0], run[0], run[1]], 1, "strictly increasing"),
        (lambda run: [run[0], _moved(run[1]), run[2]], 1, "one grid"),
        (lambda run: run[:1], None, "at least two"),
    ],
    ids=["unsorted", "repeated", "two-grids", "one-snapshot"],
)
def test_identity_assembly_guards(bpst_run, pick, raised_at, match):
    snaps = pick(bpst_run)
    with pytest.raises(FieldError, match=match) as listed:
        morawetz.morawetz_identity_residual(snaps, VERTEX, eps=0.5, t1=0.0, t2=1.0)
    # streamed, a bad snapshot is rejected as it is fed, a short window at the report
    acc = morawetz.MorawetzAccumulator(VERTEX, eps=0.5, t1=0.0, t2=1.0)
    for i, w in enumerate(snaps):
        if i == raised_at:
            with pytest.raises(FieldError) as streamed:
                acc.add(w)
            break
        acc.add(w)
    else:
        with pytest.raises(FieldError) as streamed:
            acc.report()
    assert str(streamed.value) == str(listed.value)


def test_identity_assembly_eps_and_cone_guards_when_streamed(bpst_run):
    for eps in (0.0, -0.5, np.nan, np.inf):
        with pytest.raises(FieldError, match="eps must be finite and positive"):
            morawetz.morawetz_identity_residual(bpst_run, VERTEX, eps=eps, t1=0.0, t2=1.0)
        with pytest.raises(FieldError, match="eps must be finite and positive"):
            morawetz.MorawetzAccumulator(VERTEX, eps=eps, t1=0.0, t2=1.0)
    # a cone section the list form rejects stops the streamed run at its state:
    # the first at the vertex time, the second past the half-box (extent 4)
    cases = (((0.0,) * 5, "vertex time", 1), ((-1.0, 0.0, 0.0, 0.0, 0.0), "half-box", 2))
    for vertex, match, fed in cases:
        with pytest.raises(FieldError, match=match) as listed:
            morawetz.morawetz_identity_residual(bpst_run, vertex, eps=0.5, t1=0.0, t2=1.0)
        seen = []

        def feed(w):
            seen.append(w.t)
            acc.add(w)

        acc = morawetz.MorawetzAccumulator(vertex, eps=0.5, t1=0.0, t2=1.0)
        with pytest.raises(FieldError) as streamed:
            wave.run_wave(*bpst_flow(), observer=feed)
        assert str(streamed.value) == str(listed.value)
        assert seen == [w.t for w in bpst_run[:fed]]


# -- the cone window against the whole grid ----------------------------------


def _full_grid_report(snaps, vertex, eps):
    """The identity assembled from whole-grid curvatures, coordinates and
    radii, gathering the same sites as the windowed assembly."""
    g = snaps[0].a.grid
    t0, x0 = vertex[0], vertex[1:]
    x = offsets(g, x0)
    r = radius_about(g, x0)
    sq = morawetz._sq

    def dissipation(w, f, t):
        rc, rho, mask = morawetz._cone_geometry(t, x, g.h, eps)
        inside = mask & (rc <= abs(t))
        rho = rho[inside]
        iota = morawetz._iota(w.adot[:, inside], f[:, inside], x[:, inside], t + eps, rho)
        return g.integrate(2.0 * sq(iota) / rho)

    def flux(w, f, t):
        shell = np.abs(r - t) <= 0.5 * g.h
        rs, xs = r[shell], x[:, shell]
        T = morawetz._stress(w.adot[:, shell], f[:, shell])
        rho = np.sqrt(np.maximum((t + eps) ** 2 - rs**2, 1e-300))
        X = np.concatenate([((t + eps) / rho)[None], xs / rho])
        P = np.einsum("ab...,b...->a...", T, X)
        nhat = xs / np.where(rs > 0.0, rs, 1.0)
        return g.integrate(P[0] + np.einsum("j...,j...->...", nhat, P[1:])) / g.h

    def weighted(w, f, t):
        inside = r <= t
        rb = r[inside]
        e, fb = w.adot[:, inside], f[:, inside]
        frame = morawetz._frame(x[:, inside], g.h)
        alpha, alphabar, varrho, sigma = morawetz._null_components(e, fb, frame)
        wp = np.sqrt((t + eps + rb) / np.maximum(t + eps - rb, 1e-300))
        wm = 1.0 / wp
        good = np.einsum("...c,...c->...", varrho, varrho) + sq(sigma)
        dens = 0.5 * wp * (sq(alpha) + good) + 0.5 * wm * (sq(alphabar) + good)
        plain = 0.5 * (wp + wm) * (sq(fb) + sq(e))
        return g.integrate(np.where(frame.mask, dens, plain))

    diss, bdry, we = [], [], []
    for i, w in enumerate(snaps):
        f, t = curvature(w.a).f, w.t - t0
        if i in (0, len(snaps) - 1):
            we.append(weighted(w, f, t))
        diss.append(dissipation(w, f, t))
        bdry.append(flux(w, f, t))
    times = [w.t for w in snaps]
    diss, bdry = float(np.trapezoid(diss, times)), float(np.trapezoid(bdry, times))
    lhs, rhs = we[1] + diss, we[0] + bdry
    residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return we[0], we[1], diss, bdry, residual


def _random_snapshots(g, times, seed):
    """States with random connection and electric field; no wave run."""
    rng = np.random.default_rng(seed)
    shape = (4,) + g.shape + (SU2.dim,)
    return [
        WaveState(t, ConnectionField(g, SU2, 0.3 * rng.standard_normal(shape)), rng.standard_normal(shape))
        for t in times
    ]


@pytest.mark.parametrize(
    "grid, vertex, windowed",
    [
        (Grid4(16, 0.25, boundary="open"), (-0.5, 0.25, -0.1, 0.0, 0.3), True),
        (Grid4(20, 0.25), (-0.8, 0.0, 0.1, -0.2, 0.0), True),
        # the cube (10 points wide) does not fit inside 8 points
        (Grid4(8, 0.5), (-0.5, 0.0, 0.0, 0.0, 0.0), False),
        # spectral derivatives are not local, so no window is cut
        (Grid4(16, 0.25, deriv="spectral"), (-0.5, 0.25, 0.0, 0.0, 0.0), False),
    ],
    ids=["open", "periodic", "fallback", "spectral"],
)
def test_windowed_report_equals_full_grid_report(grid, vertex, windowed):
    snaps = _random_snapshots(grid, (0.0, 0.05, 0.1), seed=11)
    for w in snaps:
        cut = morawetz._window(grid, vertex[1:], abs(w.t - vertex[0]) + 0.5 * grid.h)
        assert (cut is not None) == windowed
        if windowed:
            assert cut[0].stop - cut[0].start < grid.n
    rep = morawetz.morawetz_identity_residual(snaps, vertex, eps=0.5, t1=0.0, t2=0.1)
    got = (
        rep.weighted_energy_start,
        rep.weighted_energy,
        rep.interior_dissipation_accum,
        rep.boundary_term,
        rep.identity_residual,
    )
    want = _full_grid_report(snaps, vertex, 0.5)
    assert min(abs(v) for v in want) > 0.0
    assert got == want
