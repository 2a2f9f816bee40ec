"""ym4 imports scipy.fft only for runs that transform.

That import takes about 0.4 s, most of it scipy.special.  The open-grid
wave flow and the Morawetz identity never transform, so neither loading
ym4 nor running them may import it; a periodic CLI run does, as soon as
its grid is built.  The pytest process imported scipy.fft long ago, so
each check runs in a fresh interpreter under ``-X importtime``, which
logs every module the run imports.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# an open n = 16 grid: the cone window of each snapshot is a strict
# sub-cube, so the Morawetz pass builds its periodic window Grid4
OPEN_CONFIG = """\
[grid]
n = 16
h = 0.25
boundary = open
[data]
kind = bpst
lambda = 1.0
[wave]
cfl = 0.25
t_end = 0.5
[diagnostics]
vertex = -0.25, 0, 0, 0, 0
t1 = 0
t2 = 0.5
"""

PERIODIC_CONFIG = """\
[grid]
n = 8
h = 0.5
[data]
kind = random
seed = 7
amplitude = 0.05
k_band = 1
"""

IN_PROCESS = """\
import numpy as np
import ym4.workbench.cli
from ym4 import algebra, data, morawetz, wave
from ym4.gaugefield import InitialDataSet
from ym4.grid import Grid4

g = Grid4(16, 0.25, boundary="open")
a = data.bpst(g, algebra.su2(), lam=1.0)
acc = morawetz.MorawetzAccumulator((-0.25, 0.0, 0.0, 0.0, 0.0), eps=1.0, t1=0.0, t2=0.5)
wave.run_wave(InitialDataSet(a, np.zeros_like(a.a)), wave.WaveParams(dt=0.25 * g.h, t_end=0.5), acc.add)
assert acc.last.F.grid.boundary == "periodic", "the cone window spans the grid"
print(acc.report().identity_residual)
"""


def _imported(args, cwd):
    """The modules a fresh ``python -X importtime <args>`` imports."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], cwd=cwd, env=env, capture_output=True, text=True
    )
    lines = proc.stderr.splitlines()
    log = [line for line in lines if line.startswith("import time:")]
    assert proc.returncode == 0, "\n".join(line for line in lines if line not in log)
    return {line.rsplit("|", 1)[1].strip() for line in log}


def test_open_grid_wave_and_morawetz_in_process_do_not_import_scipy_fft(tmp_path):
    mods = _imported(["-c", IN_PROCESS], tmp_path)
    assert "ym4.workbench.cli" in mods
    assert "scipy.fft" not in mods


def test_open_grid_cli_wave_and_morawetz_do_not_import_scipy_fft(tmp_path):
    cfg = tmp_path / "open.cfg"
    cfg.write_text(OPEN_CONFIG)
    for command in ("wave", "morawetz"):
        out = tmp_path / command
        mods = _imported(["-m", "ym4.workbench.cli", command, str(cfg), "--out", str(out)], tmp_path)
        assert (out / "report.json").is_file()
        assert "scipy.fft" not in mods, command


def test_periodic_gen_data_imports_scipy_fft(tmp_path):
    cfg = tmp_path / "periodic.cfg"
    cfg.write_text(PERIODIC_CONFIG)
    out = tmp_path / "gen"
    mods = _imported(["-m", "ym4.workbench.cli", "gen-data", str(cfg), "--out", str(out)], tmp_path)
    assert (out / "data.ymf").is_file()
    assert "scipy.fft" in mods
