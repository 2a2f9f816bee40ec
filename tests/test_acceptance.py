"""Acceptance battery: one test per headline capability.

Each test prints a single machine-readable pass/fail line; tolerances and
budgets are stated inline.  Heavy shared runs are module-scoped fixtures.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from ym4 import algebra, data, heatflow, morawetz, spectral, tangent, wave
from ym4.gaugefield import (
    ConnectionField,
    InitialDataSet,
    chi,
    curvature,
    self_dual_residual,
    static_energy,
)
from ym4.grid import Grid4
from ym4.heatflow import HeatParams, caloric_divergence, caloric_project, run_heat
from ym4.tangent import div_curl_decompose
from ym4.wave import WaveParams, run_wave

from oracles import q_bilinear_oracle

SU2 = algebra.su2()


def _report(num, name, ok, detail):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# -- shared heavy runs ---------------------------------------------------------


@pytest.fixture(scope="module")
def heat_battery():
    """Five seeded heat-flow runs at n = 16, ds = 0.05 h^2 (runs, elapsed)."""
    t0 = time.time()
    g = Grid4(16, 0.5)
    out = []
    for seed in range(5):
        # unwindowed: the window's high-mode tail inflates the trapezoid
        # quadrature error of the dissipation integral at this ds
        a = data.random_connection(g, SU2, seed=seed, amplitude=0.3, k_band=1, window=False)
        p = HeatParams(ds=0.05 * g.h**2, s_max=0.2, integrator="rk2")
        out.append(run_heat(a, p))
    return out, time.time() - t0


def _static_instanton(g):
    a = data.bpst(g, SU2, lam=1.0)
    return InitialDataSet(a, np.zeros_like(a.a))


@pytest.fixture(scope="module")
def morawetz_runs():
    """Static-instanton wave runs with identity reports at n = 24 and 32.

    Two legs: evolve to t = 0.5 keeping only the final state, then stream
    every step over the report window into the identity's accumulator
    (dense snapshots for the trapezoid time integrals, one held at a time).
    """
    t0 = time.time()
    out = {}
    for n in (24, 32):
        g = Grid4(n, 6.0 / n, boundary="open")
        steps = int(round(0.5 / (0.25 * g.h)))
        dt = 0.5 / steps
        mid = run_wave(_static_instanton(g), WaveParams(dt=dt, t_end=0.5, snapshot_stride=steps))[-1]
        # leg2 times run 0..0.5; the original vertex t0 = -0.5 sits at -1.0
        acc = morawetz.MorawetzAccumulator((-1.0, 0.0, 0.0, 0.0, 0.0), eps=0.5, t1=0.0, t2=0.5)
        run_wave(
            InitialDataSet(mid.a, np.array(mid.adot)),
            WaveParams(dt=dt, t_end=0.5, snapshot_stride=1),
            observer=acc.add,
        )
        out[n] = acc.report()
    return out, time.time() - t0


# -- criteria ------------------------------------------------------------------


def test_criterion_1_instanton_identity():
    t0 = time.time()
    g32 = Grid4(32, 0.25, boundary="open")
    F32 = curvature(data.bpst(g32, SU2, lam=1.0))
    ratio = static_energy(F32) / abs(chi(F32))
    sd32 = self_dual_residual(F32) / static_energy(F32) ** 0.5
    # halving study at lam = 2 (lam = 1 is under-resolved at h = 0.5)
    sd = {}
    for n in (16, 32):
        g = Grid4(n, 8.0 / n, boundary="open")
        F = curvature(data.bpst(g, SU2, lam=2.0))
        sd[n] = self_dual_residual(F) / static_energy(F) ** 0.5
    halving = sd[16] / sd[32]
    el = time.time() - t0
    ok = 0.98 <= ratio <= 1.02 and sd32 <= 0.02 and halving >= 8.0 and el <= 60.0
    _report(
        1,
        "instanton energy/charge identity",
        ok,
        f"energy/|charge| {ratio:.6f}, self-duality {sd32:.2e}, halving ratio {halving:.1f}, {el:.0f}s",
    )


def test_criterion_2_heat_energy_identity(heat_battery):
    runs, el = heat_battery
    worst = 0.0
    for traj in runs:
        en = np.asarray(traj.energy_series)
        defect = abs(en[0] - en[-1] - traj.dissipation_accum) / en[0]
        worst = max(worst, defect)
    ok = worst <= 5e-3 and el <= 120.0
    _report(2, "heat-flow dissipation identity", ok, f"worst defect {worst:.2e} of E(0), {el:.0f}s")


def test_criterion_3_monotonicity_everywhere(heat_battery, morawetz_runs):
    worst_rise = 0.0
    for traj in heat_battery[0]:
        en = np.asarray(traj.energy_series)
        worst_rise = max(worst_rise, float(np.max(np.diff(en))) / en[0])
    min_diss = min(rep.interior_dissipation_accum for rep in morawetz_runs[0].values())
    ok = worst_rise <= 1e-10 and min_diss >= 0.0
    _report(
        3,
        "monotonicity across the matrix",
        ok,
        f"max energy rise {worst_rise:.2e} of E(0), min interior dissipation {min_diss:.3e}",
    )


def test_criterion_4_caloric_projection():
    t0 = time.time()
    g = Grid4(8, 0.5)
    # unwindowed small-amplitude band-1 data: the window carries Nyquist
    # content and the projection's nonlinear terms leave a frozen
    # zero-symbol residue quadratic in the amplitude (~0.025 * amp * scale)
    a = data.random_connection(g, SU2, seed=3, amplitude=0.002, k_band=1, window=False)
    scale = g.l2norm(a.a)
    p = HeatParams(ds=0.0125, s_max=4.0, integrator="rk2", stop_F_tol=1e-7)
    proj, _, _ = caloric_project(a, p)
    reflow = run_heat(proj, p)
    terminal = g.l2norm(reflow.terminal.a)
    # amplitude sweep of the divergence smallness
    amps = (0.04, 0.02)
    divs = []
    for amp in amps:
        aa = data.random_connection(g, SU2, seed=4, amplitude=amp, k_band=1, window=False)
        pa, _, _ = caloric_project(aa, p)
        divs.append(caloric_divergence(pa)[0])
    slope = float(np.log(divs[0] / divs[1]) / np.log(amps[0] / amps[1]))
    el = time.time() - t0
    ok = terminal <= 1e-4 * scale and 1.8 <= slope <= 2.5 and el <= 180.0
    _report(
        4,
        "caloric projection",
        ok,
        f"reflow terminal {terminal:.2e} (scale {scale:.2e}), divergence slope {slope:.2f}, {el:.0f}s",
    )


def test_criterion_5_div_curl_flat_oracle():
    t0 = time.time()
    g = Grid4(12, 0.5)
    flat = ConnectionField(g, SU2, np.zeros((4,) + g.shape + (3,)))
    e = data.random_data(g, SU2, seed=11, amplitude=0.05, k_band=1, project=False, window=False).e
    scale = g.l2norm(e)
    div_e = sum(g.partial(e[j - 1], j) for j in range(1, 5))
    a0_or = -g.laplace_inverse(div_e)
    b_or = np.stack([e[j - 1] + g.partial(a0_or, j) for j in range(1, 5)])
    p = HeatParams(ds=2e-4, s_max=40.0, integrator="rk2", stop_F_tol=1e-9)
    cal = div_curl_decompose(flat, e, p)
    da0 = g.l2norm(cal.a0 - a0_or) / scale
    db = g.l2norm(cal.b.b - b_or) / scale
    recon = np.stack([cal.b.b[j - 1] - g.partial(cal.a0, j) for j in range(1, 5)])
    drec = g.l2norm(recon - e) / scale
    # the mode-wise closed form is certified against the generic step loop
    pc = HeatParams(ds=0.02, s_max=0.5, integrator="rk2", stop_F_tol=1e-9)
    fast = div_curl_decompose(flat, e, pc)
    loop = div_curl_decompose(flat, e, pc, fast_flat=False)
    cross = max(g.l2norm(fast.a0 - loop.a0), g.l2norm(fast.b.b - loop.b.b)) / scale
    el = time.time() - t0
    ok = (
        da0 <= 1e-6
        and db <= 1e-6
        and drec <= 1e-10
        and cal.b.tangent_residual <= 1e-3
        and cross <= 1e-12
        and el <= 120.0
    )
    _report(
        5,
        "div-curl flat Helmholtz match",
        ok,
        f"a0 {da0:.2e}, b {db:.2e}, reconstruction {drec:.2e}, "
        f"residual {cal.b.tangent_residual:.2e}, loop cross-check {cross:.2e}, {el:.0f}s",
    )


def _discard(w):
    """A run_wave observer for runs read only at their last state: with an
    observer the flow holds none of its kept states."""


def test_criterion_6_wave_evolution():
    t0 = time.time()
    g = Grid4(16, 0.5)
    dt = 0.25 * g.h
    d = data.random_data(g, SU2, seed=2, amplitude=3e-4, k_band=1, window=False)
    scale = g.l2norm(d.e) + g.l2norm(d.a.a)
    snaps = run_wave(d, WaveParams(dt=dt, t_end=2.0, snapshot_stride=8))
    energies = [w.energy for w in snaps]
    e_dev = max(abs(e - energies[0]) for e in energies) / energies[0]
    gauss = max(w.gauss_residual for w in snaps) / scale

    # finite speed: compactly supported smooth bump, skirt measured at the
    # dispersive allowance (8h) established for the fourth-order stencil
    gl = Grid4(24, 0.25)
    r = gl.radius()
    x = np.clip(r / 1.5, 0.0, 1.0)
    prof = np.where(x >= 1.0, 0.0, np.cos(0.5 * np.pi * x) ** 16)
    arr = np.zeros((4,) + gl.shape + (3,))
    arr[0, ..., 0] = 0.05 * prof
    arr[1, ..., 1] = 0.05 * prof * np.cos(2.0 * np.pi / gl.extent * gl.coordinate_field(1))
    dl = InitialDataSet(ConnectionField(gl, SU2, arr), np.zeros_like(arr))
    R = np.max(r[np.any(np.abs(arr) > 0, axis=(0, 5))])
    t_end = 0.5
    (wl,) = run_wave(dl, WaveParams(dt=0.0625, t_end=t_end), observer=_discard)
    amp = np.maximum(np.max(np.abs(wl.a.a), axis=(0, 5)), np.max(np.abs(wl.adot), axis=(0, 5)))
    leak = np.max(amp[r > R + t_end + 8.0 * gl.h]) / np.max(np.abs(arr))

    # static instanton: drift shrinks under joint (h, dt) halving at a rate
    # consistent with an O(h^4 + dt^2) scheme (between 4x and 16x)
    drifts = {}
    for n in (16, 32):
        go = Grid4(n, 8.0 / n, boundary="open")
        ao = data.bpst(go, SU2, lam=2.0)
        do = InitialDataSet(ao, np.zeros_like(ao.a))
        (wo,) = run_wave(do, WaveParams(dt=0.25 * go.h, t_end=0.5), observer=_discard)
        drifts[n] = go.l2norm(wo.a.a - ao.a) / go.l2norm(ao.a)
    drift_ratio = drifts[16] / max(drifts[32], 1e-300)
    el = time.time() - t0
    ok = (
        e_dev <= 5e-3
        and gauss <= 1e-5
        and leak <= 1e-10
        and 3.5 <= drift_ratio <= 20.0
        and el <= 300.0
    )
    _report(
        6,
        "wave evolution",
        ok,
        f"energy dev {e_dev:.2e}, gauss {gauss:.2e}, leak {leak:.2e}, "
        f"instanton drift {drifts[16]:.2e}->{drifts[32]:.2e} (ratio {drift_ratio:.1f}), {el:.0f}s",
    )


def test_criterion_7_morawetz_identity(morawetz_runs):
    runs, el = morawetz_runs
    r24 = runs[24].identity_residual
    r32 = runs[32].identity_residual
    order = float(np.log(r24 / r32) / np.log(32.0 / 24.0))
    ok = r24 <= 0.03 and r32 <= 0.01 and order >= 1.5 and el <= 600.0
    _report(
        7,
        "interaction-identity residual",
        ok,
        f"residual n=24 {r24:.4f}, n=32 {r32:.4f}, order {order:.2f}, {el:.0f}s",
    )


def test_criterion_8_null_structure():
    t0 = time.time()
    g = Grid4(8, 0.5)

    def single_mode(idx, seed):
        r2 = np.random.default_rng(seed)
        fhat = np.zeros((4,) + g.shape + (3,), dtype=complex)
        nidx = tuple((-i) % g.n for i in idx)
        amp = r2.normal(size=(4, 3)) + 1j * r2.normal(size=(4, 3))
        for l in range(4):
            fhat[(l,) + idx] = amp[l]
            fhat[(l,) + nidx] = np.conj(amp[l])
        return np.real(np.fft.ifftn(fhat, axes=(1, 2, 3, 4)))

    A = single_mode((1, 0, 0, 0), 3) + single_mode((0, 2, 0, 0), 4)
    B = single_mode((0, 0, 1, 0), 5) + single_mode((1, 0, 0, 1), 6)
    fast = spectral.q_bilinear(g, SU2, A, B)
    oracle = q_bilinear_oracle(g, SU2, A, B)
    q_err = g.l2norm(fast - oracle) / max(g.l2norm(oracle), 1e-300)
    X = single_mode((1, 0, 0, 2), 7)
    q_diag = np.max(np.abs(spectral.q_bilinear(g, SU2, X, X)))

    a_shape = data.random_connection(g, SU2, seed=5, amplitude=1.0, k_band=1, window=False)
    b_shape = data.random_connection(g, SU2, seed=6, amplitude=1.0, k_band=1, window=False).a
    slope, _, res = spectral.a0_quadratic_check(a_shape, b_shape, [0.2, 0.1, 0.05])
    el = time.time() - t0
    ok = q_err <= 1e-10 and q_diag <= 1e-18 and 2.7 <= slope <= 3.5 and el <= 60.0
    _report(
        8,
        "null-structure checks",
        ok,
        f"bilinear vs oracle {q_err:.2e}, diagonal {q_diag:.2e}, "
        f"quadratic-potential slope {slope:.2f} (residuals {['%.2e' % v for v in res]}), {el:.0f}s",
    )


def test_criterion_9_energy_dispersion():
    t0 = time.time()
    g1 = Grid4(16, 0.5)
    a1 = data.random_connection(g1, SU2, seed=5, amplitude=0.3, k_band=2, window=True)
    g2 = Grid4(16, 0.25)
    a2 = ConnectionField(g2, SU2, 2.0 * a1.a)
    e1 = spectral.ed_norm(curvature(a1))
    e2 = spectral.ed_norm(curvature(a2))
    step_dev = abs(e2 - e1) / e1
    blocks = spectral.make_blocks(g1)
    rows = spectral.lp_block_sups(curvature(a1))
    prev = np.inf
    mono = True
    for m in range(blocks.k_min - 1, blocks.k_max + 1):
        cur = spectral.sup_above(rows, m)
        mono = mono and cur <= prev + 1e-15
        prev = cur
    el = time.time() - t0
    ok = step_dev <= 0.05 and mono and el <= 30.0
    _report(
        9,
        "energy-dispersion scale step",
        ok,
        f"paired-grid deviation {step_dev:.2e}, truncation monotone {mono}, {el:.0f}s",
    )


# a ym4 CLI run whose CPU affinity is set before ym4 loads, which fixes its
# kernel thread count
_PINNED_CLI = (
    "import os, sys\n"
    "os.sched_setaffinity(0, {cpus!r})\n"
    "from ym4.workbench.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "[grid]\nn = 8\nh = 0.5\n[data]\nkind = random\nseed = 7\namplitude = 0.05\n"
        "k_band = 1\n[heat]\nds_factor = 0.05\ns_max = 0.2\n[wave]\ncfl = 0.25\nt_end = 0.5\n"
    )
    usable = sorted(os.sched_getaffinity(0))
    blobs = {}
    for label, cpus in (("one", usable[:1]), ("all", usable)):
        outs = {}
        for cmd in ("gen-data", "heat", "wave"):
            out = tmp_path / f"{cmd}-{label}"
            proc = subprocess.run(
                [sys.executable, "-c", _PINNED_CLI.format(cpus=set(cpus)), cmd, str(cfg), "--out", str(out)],
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            report = json.loads((out / "report.json").read_text())
            assert report["kernel_threads"] == len(cpus), (label, report["kernel_threads"])
            for f in sorted(out.iterdir()):
                if f.suffix in (".ymf", ".csv"):
                    outs[f"{cmd}/{f.name}"] = f.read_bytes()
        blobs[label] = outs
    same = blobs["one"] == blobs["all"]
    el = time.time() - t0
    ok = same and len(blobs["one"]) >= 4
    _report(
        10,
        "thread-count determinism",
        ok,
        f"{len(blobs['one'])} artifacts bitwise-identical: {same}, {el:.0f}s",
    )
