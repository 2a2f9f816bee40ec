"""Working sets of the flows, in connection-sized arrays.

Each figure is the tracemalloc peak of one call, counting only what the call
allocates (its inputs are built before tracing starts), over the nbytes of
one connection (4 x n^4 x 3 doubles).  A flow should hold a few field
states, and no step should keep an array the next step does not read.  Each
call runs once untraced first, so one-time allocations (thread pools, FFT
plans) are not counted.  tracemalloc counts what every thread allocates, so
the heat and wave-step bounds run again at n = 16, where curvature and
curvature_tension build their components on more than one thread.  A CLI
stage's figure includes its input snapshot, which the stage reads inside
the call; the stages that consume their input free it after its first use.
"""

import gc
import tracemalloc

import pytest

from ym4 import algebra, data, heatflow, tangent, wave
from ym4.grid import Grid4
from ym4.workbench import cli

SU2 = algebra.su2()
G = Grid4(12, 0.5)
CONNECTION_BYTES = 4 * G.n**4 * SU2.dim * 8
FOUR_STEPS = heatflow.HeatParams(ds=0.05 * G.h**2, s_max=4 * 0.05 * G.h**2)


def peak_in_connections(call, connection_bytes=CONNECTION_BYTES):
    call()
    gc.collect()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / connection_bytes


@pytest.fixture(scope="module")
def d():
    return data.random_data(G, SU2, seed=3, amplitude=0.05, k_band=1, window=False)


def test_run_heat_holds_at_most_six_connections(d):
    peak = peak_in_connections(lambda: heatflow.run_heat(d.a, FOUR_STEPS))
    assert peak <= 6.0, peak


def test_div_curl_decompose_holds_at_most_eleven_connections(d):
    peak = peak_in_connections(lambda: tangent.div_curl_decompose(d.a, d.e, FOUR_STEPS))
    assert peak <= 11.0, peak


def test_wave_step_holds_at_most_five_and_a_half_connections(d):
    w = wave.WaveState(0.0, d.a, d.e)
    peak = peak_in_connections(lambda: wave.wave_step(w, 0.25 * G.h))
    assert peak <= 5.5, peak


def test_wave_step_holds_at_most_four_point_six_connections(d):
    # the closing kick adds each tension row into the half kick as it is built
    w = wave.WaveState(0.0, d.a, d.e)
    peak = peak_in_connections(lambda: wave.wave_step(w, 0.25 * G.h))
    assert peak <= 4.6, peak


def test_heat_and_wave_step_bounds_hold_where_components_split():
    # at n = 16 the pairs and rows run on several threads at once, each
    # with its own temporaries; the kick, with its curvature, on one
    g = Grid4(16, 0.5)
    d = data.random_data(g, SU2, seed=3, amplitude=0.05, k_band=1, window=False)
    connection = 4 * g.n**4 * SU2.dim * 8
    steps = heatflow.HeatParams(ds=0.05 * g.h**2, s_max=4 * 0.05 * g.h**2)
    peak = peak_in_connections(lambda: heatflow.run_heat(d.a, steps), connection)
    assert peak <= 6.0, peak
    w = wave.WaveState(0.0, d.a, d.e)
    peak = peak_in_connections(lambda: wave.wave_step(w, 0.25 * g.h), connection)
    assert peak <= 4.6, peak  # the tighter wave-step bound; the other is 5.5


@pytest.fixture(scope="module")
def cli_input(tmp_path_factory):
    """(config, wave-state snapshot) of n = 12 random data, from gen-data."""
    tmp = tmp_path_factory.mktemp("cli")
    cfg = tmp / "exp.cfg"
    cfg.write_text(
        f"[grid]\nn = {G.n}\nh = {G.h}\n"
        "[data]\nkind = random\nseed = 3\namplitude = 0.05\nk_band = 1\n"
        "[heat]\nds_factor = 0.05\ns_max = 0.025\n"
        "[wave]\ncfl = 0.25\nt_end = 0.25\n"
    )
    assert cli.main(["gen-data", str(cfg), "--out", str(tmp / "gen")]) == 0
    return cfg, tmp / "gen" / "data.ymf"


# the input is 2 connections (8 components); each bound fails if the stage
# holds its input to the end
@pytest.mark.parametrize("stage, bound", [("wave", 7.0), ("ed-norm", 5.0), ("heat", 6.8)])
def test_cli_stage_frees_its_input_once_read(cli_input, tmp_path, stage, bound):
    cfg, snapshot = cli_input
    argv = [stage, str(cfg), "--input", str(snapshot), "--out", str(tmp_path)]

    def run():
        assert cli.main(argv) == 0

    peak = peak_in_connections(run)
    assert peak <= bound, peak
