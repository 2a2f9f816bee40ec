"""The tracer sees every kernel call, whichever ym4 namespace makes it.

Per-step counts are the difference between a two-step and a one-step run,
which cancels the work done once per run (initial diagnostics, Gauss
residual, blow-up reference).
"""

import os
import sys
from collections import Counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from tracer import Tracer, aggregate, select  # noqa: E402

from ym4 import algebra, data, gaugefield, heatflow, wave  # noqa: E402
from ym4.grid import Grid4  # noqa: E402

KERNELS = (
    "gaugefield.curvature",
    "gaugefield.curvature_tension",
    "gaugefield.covariant_divergence",
    "grid.partial",
    "algebra.bracket_arr",
)


def _counts(run):
    with Tracer() as tr:
        run()
    return Counter(s[0] for s in tr.spans)


def _per_step(run_steps):
    one, two = _counts(lambda: run_steps(1)), _counts(lambda: run_steps(2))
    return {k: two[k] - one[k] for k in KERNELS}


def test_wave_step_counts():
    g = Grid4(8, 0.5)
    d = data.random_data(g, algebra.su2(), seed=1, amplitude=0.01, k_band=1, window=False)
    dt = 0.25 * g.h
    per = _per_step(lambda k: wave.run_wave(d, wave.WaveParams(dt=dt, t_end=k * dt)))
    assert per == {
        "gaugefield.curvature": 3,
        "gaugefield.curvature_tension": 2,
        "gaugefield.covariant_divergence": 1,
        "grid.partial": 64,
        "algebra.bracket_arr": 46,
    }


def test_rk2_heat_step_counts():
    g = Grid4(8, 0.5)
    a = data.random_connection(g, algebra.su2(), seed=1, amplitude=0.01, k_band=1, window=False)
    ds = 0.05 * g.h**2
    per = _per_step(lambda k: heatflow.run_heat(a, heatflow.HeatParams(ds=ds, s_max=k * ds)))
    assert per == {
        "gaugefield.curvature": 3,
        "gaugefield.curvature_tension": 3,
        "gaugefield.covariant_divergence": 0,
        "grid.partial": 72,
        "algebra.bracket_arr": 54,
    }


def test_uninstall_restores_every_binding():
    before = (gaugefield.curvature, heatflow.curvature, wave.curvature, Grid4.partial)
    with Tracer():
        assert heatflow.curvature is not before[1]
        assert wave.curvature is gaugefield.curvature
    assert (gaugefield.curvature, heatflow.curvature, wave.curvature, Grid4.partial) == before


def test_steps_and_self_time():
    g = Grid4(8, 0.5)
    a = data.random_connection(g, algebra.su2(), seed=2, amplitude=0.01, k_band=1, window=False)
    p = heatflow.HeatParams(ds=0.05 * g.h**2, s_max=3 * 0.05 * g.h**2)
    with Tracer() as tr:
        tr.run_id = "pass"
        heatflow.run_heat(a, p)
    agg = aggregate(tr.spans, select(tr.spans, "pass"))
    run = agg["heatflow.run_heat"]
    assert run["calls"] == 1 and run["value"] == 3
    covered = sum(row["self_s"] for row in agg.values())
    assert np.isclose(covered, run["total_s"], rtol=1e-9, atol=1e-9)
    assert agg["grid.partial"]["value"] == 2 * agg["grid.partial"]["calls"] * a.a[0].nbytes
