"""The three benchmark workloads: inputs from a seed, one timed pass, checks.

Each workload has ``setup(seed, workdir) -> inputs`` (timed as set-up) and
``run(inputs, rec)``, one pass, timed as ``wall_s`` together with its
correctness checks.  A pass calls only ym4's public functions; it reuses the
inputs and does the same work every time, so every pass of a run must give
bitwise-identical outputs.  Why each workload exists is in README.md.

Tolerances are the acceptance battery's (tests/test_acceptance.py) or the
ones ym4 advertises; none is looser.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import numpy as np

from ym4 import algebra, data, heatflow, morawetz, tangent, wave
from ym4.gaugefield import InitialDataSet, covariant_derivative
from ym4.grid import Grid4
from ym4.workbench import cli, snapshot

SU2 = algebra.su2()


class Record:
    """What one pass leaves behind: checks, outputs to digest, step marks."""

    def __init__(self):
        self.checks = []
        self.outputs = []  # arrays or file paths, digested after the timed region
        self.heat_marks = []  # per run_heat call: perf_counter at each observer call
        self.stage_s = {}  # CLI subcommand -> seconds

    def check(self, name, ok, detail):
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def observer(self):
        """A run_heat observer that timestamps every step boundary."""
        marks = []
        self.heat_marks.append(marks)
        return lambda k, s, a, F: marks.append(time.perf_counter())

    def digest(self):
        h = hashlib.sha256()
        for out in self.outputs:
            if isinstance(out, Path):
                h.update(out.name.encode())
                h.update(out.read_bytes())
            else:
                arr = np.ascontiguousarray(out, dtype="<f8")
                h.update(repr(arr.shape).encode())
                h.update(arr.tobytes())
        return h.hexdigest()


def _seeds(seed, k):
    """k independent integer seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(k)]


# -- heat-caloric --------------------------------------------------------------


def heat_setup(seed, workdir):
    s = _seeds(seed, 5)
    g16, g8, g12 = Grid4(16, 0.5), Grid4(8, 0.5), Grid4(12, 0.5)
    return {
        # unwindowed band-1 data at amplitude 0.3: the heat_battery fixture
        "flows": [
            data.random_connection(g16, SU2, seed=k, amplitude=0.3, k_band=1, window=False)
            for k in s[:3]
        ],
        "flow_params": heatflow.HeatParams(ds=0.05 * g16.h**2, s_max=0.05, integrator="rk2"),
        # small-amplitude band-1 data: criterion 4's caloric projection
        "caloric": data.random_connection(g8, SU2, seed=s[3], amplitude=0.002, k_band=1, window=False),
        "caloric_params": heatflow.HeatParams(ds=0.0125, s_max=1.0, integrator="rk2", stop_F_tol=1e-7),
        # constraint-satisfying data on a non-flat background for div-curl
        "div_curl": data.random_data(g12, SU2, seed=s[4], amplitude=0.05, k_band=1, window=False),
        "div_curl_params": heatflow.HeatParams(ds=0.05 * g12.h**2, s_max=0.05, integrator="rk2"),
    }


def heat_run(inp, rec):
    for i, a in enumerate(inp["flows"]):
        traj = heatflow.run_heat(a, inp["flow_params"], observer=rec.observer())
        en = np.asarray(traj.energy_series)
        defect = abs(en[0] - en[-1] - traj.dissipation_accum) / en[0]
        rise = float(np.max(np.diff(en))) / en[0]
        rec.check(f"flow{i} energy identity defect <= 5e-3 E(0)", defect <= 5e-3, defect)
        rec.check(f"flow{i} energy rise <= 1e-10 E(0)", rise <= 1e-10, rise)
        rec.outputs.append(traj.terminal.a)

    a_cal, O, traj = heatflow.caloric_project(inp["caloric"], inp["caloric_params"])
    done = bool(np.all(np.isfinite(a_cal.a)) and np.all(np.isfinite(O.q)))
    rec.check("caloric projection completes with finite output", done, len(traj.s_samples) - 1)
    rec.outputs += [a_cal.a, O.q]

    d = inp["div_curl"]
    cal = tangent.div_curl_decompose(d.a, d.e, inp["div_curl_params"])
    g = d.a.grid
    recon = np.stack([cal.b.b[j - 1] - covariant_derivative(d.a, cal.a0, j) for j in range(1, 5)])
    drec = g.l2norm(recon - d.e) / g.l2norm(d.e)
    rec.check("div-curl reconstruction <= 1e-10 |e|", drec <= 1e-10, drec)
    rec.outputs += [cal.b.b, cal.a0]


# -- wave-morawetz -------------------------------------------------------------


# the fixture takes 8 steps in each leg
WAVE_SKIP_STEPS = 1
WAVE_DENSE_STEPS = 2


def wave_setup(seed, workdir):
    # the n = 24 leg of the morawetz_runs fixture; no random input, so the
    # seed has no effect on this workload
    g = Grid4(24, 6.0 / 24, boundary="open")
    a = data.bpst(g, SU2, lam=1.0)
    return {"data": InitialDataSet(a, np.zeros_like(a.a)), "dt": 0.25 * g.h}


def wave_run(inp, rec):
    dt = inp["dt"]
    window = WAVE_DENSE_STEPS * dt
    # two legs as in the fixture: keep only the final state, then every step
    # over the report window
    leg1 = wave.run_wave(
        inp["data"],
        wave.WaveParams(dt=dt, t_end=WAVE_SKIP_STEPS * dt, snapshot_stride=WAVE_SKIP_STEPS),
    )
    mid = leg1[-1]
    leg2 = wave.run_wave(
        InitialDataSet(mid.a, np.array(mid.adot)),
        wave.WaveParams(dt=dt, t_end=window, snapshot_stride=1),
    )
    rep = morawetz.morawetz_identity_residual(leg2, (-1.0, 0.0, 0.0, 0.0, 0.0), eps=0.5, t1=0.0, t2=window)
    rec.check("identity residual <= 0.03", rep.identity_residual <= 0.03, rep.identity_residual)
    rec.check("interior dissipation >= 0", rep.interior_dissipation_accum >= 0.0, rep.interior_dissipation_accum)
    rec.outputs += [leg2[-1].a.a, leg2[-1].adot]


# -- cli-pipeline --------------------------------------------------------------

CLI_CONFIG = """\
[grid]
n = 18
h = 0.5
[data]
kind = random
seed = {seed}
amplitude = 0.1
k_band = 1
[heat]
ds_factor = 0.05
s_max = 0.025
[wave]
cfl = 0.25
t_end = 0.25
"""


def cli_setup(seed, workdir):
    cfg = Path(workdir) / "exp.cfg"
    cfg.write_text(CLI_CONFIG.format(seed=_seeds(seed, 1)[0] % 2**31))
    return {"config": cfg, "dir": Path(workdir)}


def cli_run(inp, rec):
    cfg, base = str(inp["config"]), inp["dir"]
    data_file = base / "gen" / "data.ymf"
    stages = [
        ("gen-data", ["gen-data", cfg, "--out", str(base / "gen")]),
        ("ed-norm", ["ed-norm", cfg, "--input", str(data_file), "--out", str(base / "ed")]),
        ("heat", ["heat", cfg, "--input", str(data_file), "--out", str(base / "heat")]),
        ("wave", ["wave", cfg, "--input", str(data_file), "--out", str(base / "wave")]),
    ]
    for name, argv in stages:
        t0 = time.perf_counter()
        code = cli.main(argv)
        rec.stage_s[name] = time.perf_counter() - t0
        rec.check(f"{name} exits 0", code == 0, code)
        if code != 0:
            return

    gen = json.loads((base / "gen" / "report.json").read_text())
    head, state = snapshot.read_snapshot(data_file)
    e_norm = float(np.sqrt(np.sum(state[4:] ** 2) * head.h**4))
    # gauss_project's advertised tolerance: |D.e| <= 1e-9 |e|
    rel = gen["gauss_residual"] / e_norm
    rec.check("gen-data Gauss residual <= 1e-9 |e|", rel <= 1e-9, rel)
    heat = json.loads((base / "heat" / "report.json").read_text())
    e0 = heat["energy_initial"]
    defect = abs(e0 - heat["energy_final"] - heat["dissipation"]) / e0
    rec.check("heat energy identity defect <= 5e-3 E(0)", defect <= 5e-3, defect)
    rec.outputs += [data_file, base / "heat" / "terminal.ymf", base / "wave" / "final.ymf"]


WORKLOADS = {
    "heat-caloric": (heat_setup, heat_run),
    "wave-morawetz": (wave_setup, wave_run),
    "cli-pipeline": (cli_setup, cli_run),
}
