"""Unit tests for the energy-momentum tensor and null-frame diagnostics."""

import numpy as np
import pytest

from ym4 import algebra, data, morawetz, wave
from ym4.gaugefield import ConnectionField, FieldError, InitialDataSet, curvature, energy_density
from ym4.grid import Grid4
from ym4.wave import WaveParams, WaveState

SU2 = algebra.su2()


def make_state(n=8, h=0.5, seed=1, amp=0.05, t=0.0):
    g = Grid4(n, h)
    d = data.random_data(g, SU2, seed=seed, amplitude=amp, k_band=1)
    return WaveState(t, d.a, np.array(d.e))


def test_null_frame_orthonormal_and_mask():
    g = Grid4(8, 0.5)
    fr = morawetz.null_frame(g)
    m = fr.mask
    assert not m[0, 0, 0, 0] or g.radius()[0, 0, 0, 0] >= 2 * g.h - 1e-12
    # nhat unit where defined, tangent triad orthonormal and orthogonal to nhat
    nn = np.einsum("j...,j...->...", fr.nhat, fr.nhat)
    assert np.max(np.abs(nn[m] - 1.0)) <= 1e-12
    for a in range(3):
        ta = fr.tangent[a]
        assert np.max(np.abs(np.einsum("j...,j...->...", ta, ta)[m] - 1.0)) <= 1e-12
        assert np.max(np.abs(np.einsum("j...,j...->...", ta, fr.nhat)[m])) <= 1e-12
        for b in range(a + 1, 3):
            dot = np.einsum("j...,j...->...", ta, fr.tangent[b])
            assert np.max(np.abs(dot[m])) <= 1e-12


def test_null_decompose_reconstructs_energy_density():
    # |alpha|^2/2 + |alphabar|^2/2 + |varrho|^2 + |sigma|^2 equals the
    # temporal-temporal energy density on unmasked sites
    w = make_state()
    nc = morawetz.null_decompose(w)
    dens = energy_density(w.curvature())
    got = (
        0.5 * np.einsum("a...c,a...c->...", nc.alpha, nc.alpha)
        + 0.5 * np.einsum("a...c,a...c->...", nc.alphabar, nc.alphabar)
        + np.einsum("...c,...c->...", nc.varrho, nc.varrho)
        + np.einsum("a...c,a...c->...", nc.sigma, nc.sigma)
    )
    m = nc.mask
    assert np.max(np.abs(got[m] - dens[m])) <= 1e-10 * max(np.max(dens), 1e-300)


def test_null_norms_frame_rotation_invariant():
    w = make_state(seed=2)
    g = w.a.grid
    fr = morawetz.null_frame(g)
    rot = morawetz.rotate_frame(fr, 0.7)
    n1 = morawetz.null_decompose(w, frame=fr)
    n2 = morawetz.null_decompose(w, frame=rot)

    def norms(nc):
        return (
            np.einsum("a...c,a...c->...", nc.alpha, nc.alpha),
            np.einsum("a...c,a...c->...", nc.alphabar, nc.alphabar),
            np.einsum("a...c,a...c->...", nc.sigma, nc.sigma),
        )

    for v1, v2 in zip(norms(n1), norms(n2)):
        assert np.max(np.abs(v1 - v2)) <= 1e-12 * max(np.max(np.abs(v1)), 1e-300)
    assert np.max(np.abs(n1.varrho - n2.varrho)) <= 1e-14


def test_energy_momentum_symmetric_traceless_and_energy():
    w = make_state(seed=3)
    g = w.a.grid
    T = morawetz.energy_momentum(w)
    assert np.max(np.abs(T - np.swapaxes(T, 0, 1))) <= 1e-13
    # Minkowski trace -T00 + sum T_jj vanishes for the 4+1 dimensional... no:
    # the trace is (1 - (d+1)/4) <F,F>; in 4+1 dimensions it is nonzero, but
    # T00 must match the energy density
    dens = energy_density(w.curvature())
    assert np.max(np.abs(T[0, 0] - dens)) <= 1e-12 * max(np.max(dens), 1e-300)


def test_energy_momentum_divergence_refinement():
    # on-shell states satisfy div T = 0 up to discretization; off-shell
    # random states do not, so check the identity along the wave flow:
    # d/dt Integral T00 = 0 is energy conservation (covered elsewhere); here
    # check spatial divergence of the momentum row integrates to zero
    w = make_state(seed=4)
    g = w.a.grid
    T = morawetz.energy_momentum(w)
    for alpha in range(5):
        div = sum(g.partial(T[alpha, j], j) for j in range(1, 5))
        assert abs(g.integrate(div)) <= 1e-10 * max(np.max(np.abs(T)), 1e-300)


def test_iota_xf_masked_and_dissipation_nonnegative():
    w = make_state(seed=5, t=0.5)
    iota = morawetz.iota_xf(w, eps=0.5)
    g = w.a.grid
    # sites inside the 2h hyperboloid collar are zeroed
    x = morawetz._offsets(g, (0.0, 0.0, 0.0, 0.0))
    r, rho, mask = morawetz._cone_geometry(w.t, x, g.h, 0.5)
    assert np.max(np.abs(iota[:, ~mask])) == 0.0
    val = morawetz.interior_dissipation(w, 0.5, (0.0, 0.0, 0.0, 0.0, 0.0))
    assert val >= 0.0


def test_weighted_energy_guards():
    w = make_state(seed=6, t=0.0)
    with pytest.raises(FieldError):
        morawetz.weighted_energy(w, (0.0, 0.0, 0.0, 0.0, 0.0), 0.5)  # t == t0
    w2 = make_state(seed=6, t=10.0)
    with pytest.raises(FieldError):
        morawetz.weighted_energy(w2, (0.0, 0.0, 0.0, 0.0, 0.0), 0.5)  # leaves box


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


@pytest.fixture(scope="module")
def bpst_run():
    """Three snapshots of an open-boundary BPST run at n = 16.

    The electric field starts nonzero so the e-terms of every integrand are
    exercised; the comparisons below are pointwise algebra, so the Gauss
    constraint plays no part.
    """
    g = Grid4(16, 0.25, boundary="open")
    a = data.bpst(g, SU2, lam=1.0)
    dt = 0.25 * g.h
    return wave.run_wave(InitialDataSet(a, 0.1 * a.a), WaveParams(dt=dt, t_end=2 * dt))


def _reference_report(snaps, vertex, eps):
    """The identity assembled from the full-grid public functions."""
    g = snaps[0].a.grid
    t0, x0 = vertex[0], vertex[1:]
    x = np.stack([g.coordinate_field(j) - x0[j - 1] for j in range(1, 5)])
    r = g.radius(center=x0)

    def dissipation(w):
        t = w.t - t0
        rc, rho, mask = morawetz._cone_geometry(t, x, g.h, eps)
        iota = morawetz.iota_xf(w, eps, vertex)
        dens = np.einsum("b...c,b...c->...", iota, iota)
        return g.integrate(np.where(mask & (rc <= abs(t)), 2.0 * dens / rho, 0.0))

    def flux(w):
        t = w.t - t0
        rho = np.sqrt(np.maximum((t + eps) ** 2 - r**2, 1e-300))
        X = np.concatenate([((t + eps) / rho)[None], x / rho])
        P = np.einsum("ab...,b...->a...", morawetz.energy_momentum(w), X)
        nhat = x / np.where(r > 0.0, r, 1.0)
        dens = P[0] + np.einsum("j...,j...->...", nhat, P[1:])
        return g.integrate(np.where(np.abs(r - t) <= 0.5 * g.h, dens, 0.0)) / g.h

    def weighted(w):
        t = w.t - t0
        inside = r <= t
        wp = np.sqrt(np.where(inside, (t + eps + r) / np.maximum(t + eps - r, 1e-300), 1.0))
        wm = 1.0 / wp
        nc = morawetz.null_decompose(w, center=x0)
        sq = lambda v: np.einsum("a...c,a...c->...", v, v)  # noqa: E731
        good = np.einsum("...c,...c->...", nc.varrho, nc.varrho) + sq(nc.sigma)
        dens = 0.5 * wp * (sq(nc.alpha) + good) + 0.5 * wm * (sq(nc.alphabar) + good)
        dens = np.where(nc.mask, dens, 0.5 * (wp + wm) * energy_density(w.curvature()))
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


def test_identity_assembly_guards(bpst_run):
    for eps in (0.0, -0.5, np.nan, np.inf):
        with pytest.raises(FieldError):
            morawetz.morawetz_identity_residual(bpst_run, VERTEX, eps=eps, t1=0.0, t2=1.0)
    with pytest.raises(FieldError):  # trapezoid over unsorted times
        morawetz.morawetz_identity_residual(bpst_run[::-1], VERTEX, eps=0.5, t1=0.0, t2=1.0)
    with pytest.raises(FieldError):  # repeated time
        snaps = [bpst_run[0], bpst_run[0], bpst_run[1]]
        morawetz.morawetz_identity_residual(snaps, VERTEX, eps=0.5, t1=0.0, t2=1.0)
    with pytest.raises(FieldError):
        morawetz.morawetz_identity_residual(bpst_run[:1], VERTEX, eps=0.5, t1=0.0, t2=1.0)


def test_identity_assembly_rejects_snapshots_on_two_grids(bpst_run):
    w = bpst_run[1]
    other = Grid4(w.a.grid.n, w.a.grid.h)  # periodic, where the run is open
    moved = WaveState(w.t, ConnectionField(other, SU2, w.a.a), w.adot)
    with pytest.raises(FieldError, match="one grid"):
        morawetz.morawetz_identity_residual([bpst_run[0], moved, bpst_run[2]], VERTEX, eps=0.5, t1=0.0, t2=1.0)


# -- the cone window against the whole grid ----------------------------------


def _full_grid_report(snaps, vertex, eps):
    """The identity assembled from whole-grid curvatures, coordinates and
    radii, gathering the same sites as the windowed assembly."""
    g = snaps[0].a.grid
    t0, x0 = vertex[0], vertex[1:]
    x = np.stack([g.coordinate_field(j) - x0[j - 1] for j in range(1, 5)])
    r = g.radius(center=x0)
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
