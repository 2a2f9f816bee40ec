"""Unit tests for the config parser, snapshot format, and CLI workbench."""

import ast
import csv
import json
import os
import struct
import subprocess
import sys
import tracemalloc
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from ym4 import algebra, data, gaugefield, heatflow, spectral, wave
from ym4.gaugefield import ConnectionField, curvature
from ym4.grid import Grid4
from ym4.workbench import cli
from ym4.workbench import snapshot as snap
from ym4.workbench.cli import main
from ym4.workbench.config import SCHEMA, ConfigError, parse_config

from oracles import write_snapshot_whole

SU2 = algebra.su2()


# -- config -------------------------------------------------------------------


def test_parse_config_roundtrip_and_defaults():
    cfg = parse_config(
        """
        # a comment
        [grid]
        n = 8
        h = 0.5
        [data]
        kind = random
        seed = 3
        """
    )
    assert cfg.get("grid", "n", cast=int) == 8
    assert cfg.get("grid", "h", cast=float) == 0.5
    assert cfg.get("grid", "boundary", default="periodic") == "periodic"
    assert cfg.get("data", "seed", cast=int) == 3


def test_parse_config_rejects_unknown_and_malformed():
    with pytest.raises(ConfigError):
        parse_config("[nosuch]\nx = 1\n")
    with pytest.raises(ConfigError):
        parse_config("[grid]\nwidth = 1\n")
    with pytest.raises(ConfigError):
        parse_config("n = 8\n")
    with pytest.raises(ConfigError):
        parse_config("[grid]\nn 8\n")
    with pytest.raises(ConfigError):
        parse_config("[grid]\nn = 8\nn = 9\n")


def test_config_typed_accessors():
    cfg = parse_config("[diagnostics]\nvertex = 0 0 0 0 0\n[heat]\nde_turck = yes\n")
    assert cfg.get_floats("diagnostics", "vertex") == (0.0,) * 5
    assert cfg.get_bool("heat", "de_turck") is True
    with pytest.raises(ConfigError):
        cfg.get("grid", "n")
    with pytest.raises(ConfigError):
        parse_config("[heat]\nde_turck = maybe\n").get_bool("heat", "de_turck")


# -- snapshots ----------------------------------------------------------------


def test_snapshot_roundtrip(tmp_path):
    g = Grid4(8, 0.5)
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(8,) + g.shape + (3,))
    path = tmp_path / "state.ymf"
    snap.write_snapshot(path, arr, g, SU2, snap.KIND_WAVE_STATE, 1.25)
    head, back = snap.read_snapshot(path)
    assert head.n == 8 and head.h == 0.5
    assert head.kind == snap.KIND_WAVE_STATE
    assert head.components == 8
    assert head.time == 1.25
    assert back.tobytes() == arr.tobytes()
    assert back.dtype == np.float64
    assert back.flags.c_contiguous and back.flags.writeable


def test_snapshot_corruption_detected(tmp_path):
    g = Grid4(8, 0.5)
    arr = np.zeros((4,) + g.shape + (3,))
    path = tmp_path / "state.ymf"
    snap.write_snapshot(path, arr, g, SU2, snap.KIND_CONNECTION, 0.0)
    blob = bytearray(path.read_bytes())
    blob[8] ^= 0xFF  # flip a header byte
    (tmp_path / "bad.ymf").write_bytes(bytes(blob))
    with pytest.raises(snap.SnapshotError):
        snap.read_snapshot(tmp_path / "bad.ymf")
    (tmp_path / "short.ymf").write_bytes(path.read_bytes()[:-16])
    with pytest.raises(snap.SnapshotError):
        snap.read_snapshot(tmp_path / "short.ymf")
    (tmp_path / "long.ymf").write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(snap.SnapshotError, match="trailing bytes"):
        snap.read_snapshot(tmp_path / "long.ymf")
    # cut inside the header checksum, which follows the header
    for extra in range(4):
        cut = tmp_path / f"crc{extra}.ymf"
        cut.write_bytes(path.read_bytes()[: snap._HEADER.size + extra])
        with pytest.raises(snap.SnapshotError, match="truncated header"):
            snap.read_snapshot(cut)


def test_snapshot_payload_checksum(tmp_path, capsys):
    g = Grid4(8, 0.5)
    arr = np.zeros((4,) + g.shape + (3,))
    path = tmp_path / "state.ymf"
    snap.write_snapshot(path, arr, g, SU2, snap.KIND_CONNECTION, 0.0)
    blob = bytearray(path.read_bytes())
    assert len(blob) == snap._HEADER.size + 4 + arr.nbytes + 4
    blob[snap._HEADER.size + 4 + arr.nbytes // 2] ^= 0x01  # flip a payload bit
    (tmp_path / "bad.ymf").write_bytes(bytes(blob))
    with pytest.raises(snap.SnapshotError, match="payload checksum mismatch"):
        snap.read_snapshot(tmp_path / "bad.ymf")
    (tmp_path / "short.ymf").write_bytes(path.read_bytes()[:-2])
    with pytest.raises(snap.SnapshotError, match="truncated payload checksum"):
        snap.read_snapshot(tmp_path / "short.ymf")
    argv = ["wave", write_cfg(tmp_path), "--input", str(tmp_path / "bad.ymf"), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert "payload checksum mismatch" in capsys.readouterr().err


def test_snapshot_version_1_still_loads(tmp_path):
    # version 1: the same header, then the payload with no checksum after it
    g = Grid4(8, 0.5)
    arr = np.random.default_rng(1).normal(size=(4,) + g.shape + (3,))
    head = snap._HEADER.pack(snap.MAGIC, 1, snap.GROUP_SU2, 8, 0.5, snap.KIND_CONNECTION, 4, 0.75)
    payload = np.ascontiguousarray(np.moveaxis(arr, 0, 4), dtype="<f8").tobytes()
    path = tmp_path / "v1.ymf"
    path.write_bytes(head + struct.pack("<I", zlib.crc32(head)) + payload)
    head_back, back = snap.read_snapshot(path)
    assert (head_back.kind, head_back.components, head_back.time) == (snap.KIND_CONNECTION, 4, 0.75)
    assert back.tobytes() == arr.tobytes()
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(snap.SnapshotError, match="trailing bytes"):
        snap.read_snapshot(path)


@pytest.mark.parametrize("spec", [SU2, algebra.abelian()], ids=["su2", "abelian"])
@pytest.mark.parametrize("comps", [1, 4, 8])
def test_slab_writer_equals_the_whole_payload_writer(tmp_path, comps, spec):
    g = Grid4(8, 0.5)
    rng = np.random.default_rng(comps)
    arr = rng.normal(size=(comps,) + g.shape + (3,))
    arr[:, 1, 2] = -0.0
    # a non-contiguous field: the form index moved first from inside the sites
    view = np.moveaxis(rng.normal(size=g.shape + (comps, 3)), 4, 0)
    for field in (arr, view):
        snap.write_snapshot(tmp_path / "slab.ymf", field, g, spec, snap.KIND_CONNECTION, 0.5)
        write_snapshot_whole(tmp_path / "whole.ymf", field, g, spec, snap.KIND_CONNECTION, 0.5)
        assert (tmp_path / "slab.ymf").read_bytes() == (tmp_path / "whole.ymf").read_bytes()
        assert snap.read_snapshot(tmp_path / "slab.ymf")[1].tobytes() == field.tobytes()


def test_write_snapshot_allocates_at_most_a_quarter_of_the_payload(tmp_path):
    g = Grid4(12, 0.5)
    arr = np.random.default_rng(0).normal(size=(8,) + g.shape + (3,))
    write_snapshot_whole(tmp_path / "whole.ymf", arr, g, SU2, snap.KIND_WAVE_STATE, 0.0)
    # one array, and a wave state's connection and electric field as Blocks
    for payload in (arr, snap.Blocks((arr[:4].copy(), arr[4:].copy()))):
        path = tmp_path / "state.ymf"
        snap.write_snapshot(path, payload, g, SU2, snap.KIND_WAVE_STATE, 0.0)
        tracemalloc.start()
        try:
            snap.write_snapshot(path, payload, g, SU2, snap.KIND_WAVE_STATE, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert payload.nbytes == arr.nbytes
        assert peak <= arr.nbytes / 4, peak / arr.nbytes
        assert path.read_bytes() == (tmp_path / "whole.ymf").read_bytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_snapshot_with_a_non_finite_entry_is_rejected(tmp_path, capsys, bad):
    g = Grid4(8, 0.5)
    arr = np.zeros((4,) + g.shape + (3,))
    arr[2, 5, 1, 0, 3, 1] = bad
    path = tmp_path / "state.ymf"
    snap.write_snapshot(path, arr, g, SU2, snap.KIND_CONNECTION, 0.0)  # valid CRCs
    with pytest.raises(snap.SnapshotError, match="non-finite payload entry in x4 slab 5"):
        snap.read_snapshot(path)
    out = tmp_path / "o"
    assert main(["heat", write_cfg(tmp_path), "--input", str(path), "--out", str(out)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


# -- CLI ----------------------------------------------------------------------


BASE_CFG = """
[grid]
n = 8
h = 0.5
[data]
kind = random
seed = 7
amplitude = 0.05
k_band = 1
[heat]
ds_factor = 0.05
s_max = 0.2
[wave]
cfl = 0.25
t_end = 0.5
"""


def write_cfg(tmp_path, extra=""):
    path = tmp_path / "exp.cfg"
    path.write_text(BASE_CFG + extra)
    return str(path)


def test_cli_gen_data_and_heat_and_wave(tmp_path):
    cfg = write_cfg(tmp_path)
    out1 = tmp_path / "gen"
    assert main(["gen-data", cfg, "--out", str(out1)]) == 0
    report = json.loads((out1 / "report.json").read_text())
    assert report["gauss_residual"] <= 1e-8
    assert report["kernel_threads"] == algebra._WORKERS
    assert (out1 / "data.ymf").exists()
    assert (out1 / "config.resolved").exists()

    out2 = tmp_path / "heat"
    assert main(["heat", cfg, "--input", str(out1 / "data.ymf"), "--out", str(out2)]) == 0
    rep2 = json.loads((out2 / "report.json").read_text())
    assert rep2["energy_final"] <= rep2["energy_initial"]
    assert (out2 / "heat.csv").read_text().splitlines()[0].startswith("s [len^2]")

    out3 = tmp_path / "wave"
    assert main(["wave", cfg, "--input", str(out1 / "data.ymf"), "--out", str(out3)]) == 0
    head, arr = snap.read_snapshot(out3 / "final.ymf")
    assert head.components == 8
    rep3 = json.loads((out3 / "report.json").read_text())
    for key in ("t_final", "steps", "energy_initial", "energy_final", "gauss_residual_max"):
        assert key in rep3
    assert rep3["t_final"] == head.time
    assert rep3["steps"] == 4  # t_end 0.5 at dt = 0.25 h


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[grid]\nn = 8\n")  # missing h
    assert main(["gen-data", str(bad), "--out", str(tmp_path / "o")]) == 2
    missing = tmp_path / "nosuch.cfg"
    assert main(["gen-data", str(missing), "--out", str(tmp_path / "o")]) == 2
    worse = tmp_path / "worse.cfg"
    worse.write_text("[grid]\nn = 7\nh = 0.5\n[data]\nkind = zero\n")
    assert main(["gen-data", str(worse), "--out", str(tmp_path / "o")]) == 2


WAVE_BLOWUP_CFG = """
[grid]
n = 8
h = 0.5
[data]
kind = random
seed = 1
amplitude = 30.0
k_band = 1
[wave]
cfl = 0.2
t_end = 4.0
"""


def test_cli_blowup_exit_code(tmp_path):
    cfg = tmp_path / "blow.cfg"
    cfg.write_text(WAVE_BLOWUP_CFG)
    code = main(["wave", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 4


def test_cli_morawetz_blowup_writes_report(tmp_path, capsys):
    cfg = tmp_path / "blow.cfg"
    # a cone inside the inner half-box, so the flow runs (to [wave] t_end)
    diagnostics = "[diagnostics]\nvertex = -0.5, 0, 0, 0, 0\nt1 = 0\nt2 = 0.5\n"
    cfg.write_text(WAVE_BLOWUP_CFG + diagnostics)
    out = tmp_path / "o"
    with np.errstate(all="ignore"):
        assert main(["morawetz", str(cfg), "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith("blow-up: ")
    report = strict_json(out / "report.json")
    with open(out / "wave.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    assert report["blow_up"] and report["last_time"] == float(rows[-1][0])
    assert report["energy_initial"] == float(rows[0][1])
    assert not (out / "morawetz.csv").exists()


def test_cli_heat_blowup_writes_partial_csv(tmp_path, capsys):
    path = tmp_path / "blow.cfg"
    path.write_text(
        BASE_CFG.replace("amplitude = 0.05", "amplitude = 30.0").replace(
            "ds_factor = 0.05", "ds_factor = 0.2"
        )
    )
    out = tmp_path / "o"
    with np.errstate(all="ignore"):
        assert main(["heat", str(path), "--out", str(out)]) == 4
    assert "blow-up" in capsys.readouterr().err
    with open(out / "heat.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "s [len^2]"
    assert [float(row[0]) for row in rows[1:]] == [k * (0.2 * 0.5**2) for k in range(len(rows) - 1)]
    assert len(rows) >= 3  # s = 0 and at least one accepted step
    assert not (out / "terminal.ymf").exists()


def strict_json(path):
    """The parsed file; NaN and Infinity, which are not JSON, fail."""

    def reject(token):
        raise AssertionError(f"{path.name} holds bare {token}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_cli_heat_non_finite_energy_is_blow_up(tmp_path, capsys):
    # finite connections whose curvature overflows at the third step
    path = tmp_path / "blow.cfg"
    path.write_text(
        BASE_CFG.replace("seed = 7", "seed = 1")
        .replace("amplitude = 0.05", "amplitude = 30")
        .replace("ds_factor = 0.05", "ds_factor = 0.2")
        .replace("s_max = 0.2", "s_max = 0.15")
    )
    out = tmp_path / "o"
    with np.errstate(all="ignore"):
        assert main(["heat", str(path), "--out", str(out)]) == 4
    assert "energy not finite" in capsys.readouterr().err
    report = strict_json(out / "report.json")
    assert report["last_time"] == 2 * 0.05
    with open(out / "heat.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    assert report["energy_initial"] == float(rows[0][1])
    assert report["energy_last"] == float(rows[-1][1])
    assert len(rows) == 3 and all(np.isfinite(float(v)) for row in rows for v in row)


def test_cli_wave_nan_peak_is_blow_up(tmp_path, nan_density_peak):
    out = tmp_path / "o"
    assert main(["wave", write_cfg(tmp_path), "--out", str(out)]) == 4
    report = strict_json(out / "report.json")
    assert "blow-up" in report["blow_up"]
    assert report["last_time"] == 0.0
    assert report["energy_initial"] == report["energy_last"] > 0.0


def test_cli_input_requires_a_connection_or_wave_state_kind(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    g = Grid4(8, 0.5)
    four = np.zeros((4,) + g.shape + (3,))
    eight = np.zeros((8,) + g.shape + (3,))
    for name, arr, kind in [
        ("electric.ymf", four, snap.KIND_ELECTRIC),
        ("wave4.ymf", four, snap.KIND_WAVE_STATE),
        ("conn8.ymf", eight, snap.KIND_CONNECTION),
        ("curv.ymf", eight, snap.KIND_CURVATURE),
    ]:
        snap.write_snapshot(tmp_path / name, arr, g, SU2, kind)
        argv = ["heat", cfg, "--input", str(tmp_path / name), "--out", str(tmp_path / "o")]
        assert main(argv) == 2, name
        assert "neither a connection" in capsys.readouterr().err
    snap.write_snapshot(tmp_path / "conn.ymf", four, g, SU2, snap.KIND_CONNECTION)
    argv = ["heat", cfg, "--input", str(tmp_path / "conn.ymf"), "--out", str(tmp_path / "o")]
    assert main(argv) == 0


def test_cli_input_with_trailing_bytes_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    g = Grid4(8, 0.5)
    path = tmp_path / "conn.ymf"
    snap.write_snapshot(path, np.zeros((4,) + g.shape + (3,)), g, SU2, snap.KIND_CONNECTION)
    path.write_bytes(path.read_bytes() + b"junk")
    assert main(["wave", cfg, "--input", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "trailing bytes" in capsys.readouterr().err


def test_cli_input_cut_inside_the_header_checksum_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    g = Grid4(8, 0.5)
    path = tmp_path / "conn.ymf"
    snap.write_snapshot(path, np.zeros((4,) + g.shape + (3,)), g, SU2, snap.KIND_CONNECTION)
    path.write_bytes(path.read_bytes()[: snap._HEADER.size + 2])
    assert main(["wave", cfg, "--input", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "truncated header" in capsys.readouterr().err


@pytest.mark.parametrize("n, h", [(100, 0.5), (65536, 0.5), (8, float("nan"))])
def test_cli_input_with_a_corrupt_header_is_config_error(tmp_path, capsys, n, h):
    # the header checksum holds, but the header claims more payload than the
    # file has, or a grid spacing that is not a number
    g = Grid4(8, 0.5)
    head = snap._HEADER.pack(snap.MAGIC, snap.VERSION, snap.GROUP_SU2, n, h, snap.KIND_CONNECTION, 4, 0.0)
    payload = np.zeros((8, 8, 8, 8, 4, 3)).tobytes()
    path = tmp_path / "bad.ymf"
    path.write_bytes(head + struct.pack("<I", zlib.crc32(head)) + payload + struct.pack("<I", zlib.crc32(payload)))
    out = tmp_path / "o"
    assert main(["wave", write_cfg(tmp_path), "--input", str(path), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_wave_takes_its_energies_from_the_step_loop(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path)
    real_curvature, real_run_wave = gaugefield.curvature, wave.run_wave
    returned, late = [], []

    def counting(a):
        if returned:
            late.append(None)
        return real_curvature(a)

    def run_wave(d, p, observer=None):
        out = real_run_wave(d, p, observer=observer)
        returned.append(None)
        return out

    for module in (gaugefield, wave):
        monkeypatch.setattr(module, "curvature", counting)
    monkeypatch.setattr(wave, "run_wave", run_wave)
    out = tmp_path / "wave"
    assert main(["wave", cfg, "--out", str(out)]) == 0
    assert returned and not late
    monkeypatch.undo()
    # the last row's energy is the final state's, built afresh
    with open(out / "wave.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    head, arr = snap.read_snapshot(out / "final.ymf")
    F = curvature(ConnectionField(Grid4(8, 0.5), SU2, arr[:4]))
    F.e = arr[4:]
    assert float(rows[-1][1]) == Grid4(8, 0.5).integrate(gaugefield.energy_density(F))
    assert len(rows) == 5


def test_cli_wave_memory_does_not_grow_with_t_end(tmp_path):
    # one state, a and adot, is 2 * 4 * 8^4 * 3 float64s (786 kB); holding
    # every kept state would add 28 of them between 4 and 32 steps
    state_bytes = 2 * 4 * 8**4 * 3 * 8
    assert main(["wave", write_cfg(tmp_path), "--out", str(tmp_path / "warm")]) == 0
    peaks = {}
    for steps in (4, 32):
        path = tmp_path / f"{steps}.cfg"
        path.write_text(BASE_CFG.replace("t_end = 0.5", f"t_end = {steps * 0.125}"))
        tracemalloc.start()
        try:
            assert main(["wave", str(path), "--out", str(tmp_path / str(steps))]) == 0
            peaks[steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert json.loads((tmp_path / str(steps) / "report.json").read_text())["steps"] == steps
    assert peaks[32] - peaks[4] < state_bytes, peaks


def test_cli_gen_data_builds_the_curvature_once(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path)
    real, calls = gaugefield.curvature, []

    def counting(a):
        calls.append(None)
        return real(a)

    monkeypatch.setattr(gaugefield, "curvature", counting)
    out = tmp_path / "gen"
    assert main(["gen-data", cfg, "--out", str(out)]) == 0
    assert len(calls) == 1
    monkeypatch.undo()
    # the same figures as building it for each use
    report = json.loads((out / "report.json").read_text())
    d = cli.build_data(cli.load_config(cfg), Grid4(8, 0.5), SU2)
    F = curvature(d.a)
    F.e = d.e
    assert report["energy"] == gaugefield.static_energy(F)
    assert report["chi"] == gaugefield.chi(curvature(d.a))
    assert report["concentration_scale"] == gaugefield.concentration_scale(d, 0.01, curvature(d.a))


def test_cli_malformed_group_spec_is_config_error(tmp_path, capsys):
    spec = tmp_path / "group.spec"
    spec.write_text('{"dim": 2}\n')
    path = tmp_path / "exp.cfg"
    path.write_text(BASE_CFG + f"[group]\nname = file\nfile = {spec}\n")
    for command in ("gen-data", "heat"):
        assert main([command, str(path), "--out", str(tmp_path / command)]) == 2
        assert "config error" in capsys.readouterr().err


def test_cli_regress_golden_cycle(tmp_path):
    work1 = tmp_path / "w1"
    golden = tmp_path / "gold"
    assert main(["regress", str(work1), "--golden", str(golden), "--update"]) == 0
    work2 = tmp_path / "w2"
    assert main(["regress", str(work2), "--golden", str(golden)]) == 0
    # a corrupted golden file is flagged
    (golden / "wave.csv").write_text("tampered\n")
    work3 = tmp_path / "w3"
    assert main(["regress", str(work3), "--golden", str(golden)]) == 3


# runs the CLI with the CPU affinity given as its first argument, which
# must be set before ym4 is imported: the kernels take their thread count
# from it at import
AFFINE_CLI = (
    "import os, sys; os.sched_setaffinity(0, {int(c) for c in sys.argv[1].split(',')}); "
    "from ym4.workbench.cli import main; sys.exit(main(sys.argv[2:]))"
)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this OS")
def test_cli_kernel_threads_follow_cpu_affinity(tmp_path):
    cfg = write_cfg(tmp_path)
    cpus = sorted(os.sched_getaffinity(0))
    outs = {}
    for allowed in (cpus[:1], cpus):
        out = tmp_path / f"t{len(allowed)}"
        proc = subprocess.run(
            [sys.executable, "-c", AFFINE_CLI, ",".join(map(str, allowed))]
            + ["gen-data", cfg, "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert strict_json(out / "report.json")["kernel_threads"] == len(allowed)
        outs[len(allowed)] = (out / "data.ymf").read_bytes()
    assert outs[1] == outs[len(cpus)]


# a periodic grid of n = 16, where a component covers 4 blocks and
# run_components hands pairs and rows to a pool thread, or of n = 20, where
# it covers 10 blocks and run_blocks hands blocks to one
THREADS_CFG = """
[grid]
n = {n}
h = 0.5
[data]
kind = random
seed = 3
amplitude = 0.05
k_band = 1
[heat]
ds_factor = 0.05
s_max = 0.05
[wave]
cfl = 0.25
t_end = 0.5
"""


def test_cli_outputs_equal_on_one_and_two_kernel_threads(tmp_path, monkeypatch):
    assert_outputs_equal_on_one_and_two_kernel_threads(tmp_path, monkeypatch, 20)


def test_cli_outputs_equal_on_one_and_two_kernel_threads_at_a_split_size(tmp_path, monkeypatch):
    assert_outputs_equal_on_one_and_two_kernel_threads(tmp_path, monkeypatch, 16)


def assert_outputs_equal_on_one_and_two_kernel_threads(tmp_path, monkeypatch, n):
    handed = []

    class CountingPool(ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            handed.append(None)  # a count: fn's closure holds its arrays
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(algebra, "ThreadPoolExecutor", CountingPool)
    path = tmp_path / "exp.cfg"
    path.write_text(THREADS_CFG.format(n=n))
    outs, handoffs = {}, {}
    for workers in (1, 2):
        monkeypatch.setattr(algebra, "_WORKERS", workers)
        monkeypatch.setattr(algebra, "_pool", None)
        handed.clear()
        files = {}
        given = ["--input", str(tmp_path / f"gen-data-{workers}" / "data.ymf")]
        for command, source in [("gen-data", []), ("heat", given), ("wave", given)]:
            out = tmp_path / f"{command}-{workers}"
            assert main([command, str(path), "--out", str(out)] + source) == 0
            assert strict_json(out / "report.json")["kernel_threads"] == workers
            for f in sorted(out.iterdir()):
                if f.suffix in (".csv", ".ymf"):
                    files[f"{command}/{f.name}"] = f.read_bytes()
        if algebra._pool is not None:
            algebra._pool.shutdown()
        outs[workers], handoffs[workers] = files, len(handed)
    assert handoffs[1] == 0 and handoffs[2] > 0
    assert len(outs[1]) == 5 and outs[1] == outs[2]


@pytest.mark.parametrize(
    "command, old, new, reason",
    [
        ("wave", "t_end = 0.5", "t_end = nan", "finite"),
        ("wave", "cfl = 0.25", "cfl = 0.5", "cfl"),
        ("heat", "ds_factor = 0.05", "ds_factor = 0.5", "stability"),
        ("heat", "s_max = 0.2", "s_max = 0.2\nintegrator = euler", "integrator"),
    ],
)
def test_cli_bad_flow_parameters_are_config_errors(tmp_path, capsys, command, old, new, reason):
    path = tmp_path / "exp.cfg"
    path.write_text(BASE_CFG.replace(old, new))
    assert main([command, str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and reason in err


# BASE_CFG's [data] keys, all of which only kind = random reads
RANDOM_DATA = "kind = random\nseed = 7\namplitude = 0.05\nk_band = 1"

MORAWETZ_DIAGNOSTICS = """[diagnostics]
eps = 0.5
vertex = -0.25, 0, 0, 0, 0
t1 = 0
t2 = 0.5
"""


@pytest.mark.parametrize(
    "command", ["gen-data", "heat", "wave", "caloric", "div-curl", "ed-norm", "morawetz"]
)
def test_cli_every_subcommand_writes_its_record(tmp_path, command):
    text = BASE_CFG + MORAWETZ_DIAGNOSTICS
    if command == "caloric":  # the flow must reach a flat connection
        text = text.replace("s_max = 0.2", "s_max = 0.3")
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    out = tmp_path / "o"
    assert main([command, str(path), "--out", str(out)]) == 0
    assert (out / "config.resolved").read_text() == text
    report = strict_json(out / "report.json")
    assert report["kernel_threads"] == algebra._WORKERS


def test_cli_rejected_parameter_leaves_no_output_directory(tmp_path):
    path = tmp_path / "exp.cfg"
    out = tmp_path / "o"
    for command, old, new in [
        ("heat", "ds_factor = 0.05", "ds_factor = 0.5"),
        ("morawetz", "cfl = 0.25", "cfl = 0.5"),
        ("gen-data", "k_band = 1", "k_band = x"),
    ]:
        path.write_text(BASE_CFG.replace(old, new))
        assert main([command, str(path), "--out", str(out)]) == 2
        assert not out.exists()


def _no_flow(*args, **kwargs):
    raise AssertionError("a flow ran on a rejected config")


@pytest.mark.parametrize(
    "command, old, new, reason",
    [
        ("gen-data", "amplitude = 0.05", "amplitude = nan", "amplitude is not finite"),
        ("heat", "s_max = 0.2", "s_max = inf", "s_max is not finite"),
        ("gen-data", RANDOM_DATA, "kind = bpst\ncenter = 0, 0, inf, 0", "not finite"),
        ("gen-data", RANDOM_DATA, "kind = bpst\ncenter = 0, 0, 0", "takes 4 numbers"),
        ("morawetz", "[wave]", "[diagnostics]\nt1 = 0\nt2 = 0.5\nvertex = -1, 0, 0\n[wave]", "takes 5"),
        ("morawetz", "[wave]", "[diagnostics]\nt1 = 0\nt2 = 0.5\neps = -1\n[wave]", "eps"),
        (
            "morawetz",
            "[wave]",
            "[diagnostics]\nt1 = 0\nt2 = 0.5\nvertex = 0, 0, 0, 0, 0\n[wave]",
            "cone section requires t > vertex time",
        ),
        (
            "morawetz",
            "[wave]",
            "[diagnostics]\nt1 = 0\nt2 = 0.5\nvertex = -1, 0, 0, 0, 0\n[wave]",
            "cone section leaves the inner half-box validity region",
        ),
        (
            "morawetz",
            "[wave]",
            "[diagnostics]\nt1 = 0.2\nt2 = 0.1\nvertex = -0.2, 0, 0, 0, 0\n[wave]",
            "t1 = 0.2 is not before t2 = 0.1",
        ),
        (
            "morawetz",
            "[wave]",
            "[diagnostics]\nt1 = 0\nt2 = 0.7\nvertex = -0.2, 0, 0, 0, 0\n[wave]",
            "t2 = 0.7 is after [wave] t_end = 0.5",
        ),
        (
            # dt = 0.125 over 4 steps: the kept states sit at t = 0 and 0.5
            "morawetz",
            "[wave]",
            "[diagnostics]\nt1 = 0.1\nt2 = 0.2\nvertex = -0.2, 0, 0, 0, 0\n[wave]\nsnapshot_stride = 4",
            "window [0.1, 0.2] holds 0 of the wave states kept (every 4 steps and the last)",
        ),
        ("gen-data", "[wave]", "[diagnostics]\neps = -1\n[wave]", "eps"),
        ("gen-data", "[wave]", "[diagnostics]\neps = nan\n[wave]", "eps"),
        ("heat", "[heat]", "[heat]\nde_turck = maybe", "bad boolean for [heat] de_turck"),
        ("ed-norm", "[wave]", "[diagnostics]\ned_truncation = x\n[wave]", "ed_truncation"),
        ("gen-data", "seed = 7", "seed = -1", "bad value for [data] seed: '-1'"),
        ("gen-data", "k_band = 1", "k_band = -1", "bad value for [data] k_band: '-1'"),
        ("gen-data", RANDOM_DATA, "kind = bpst\nlambda = 0.1", "scale 0.1 under-resolved"),
        (
            # lambda = 1 fits an n = 16, h = 0.25 box, so the orientation is checked
            "gen-data",
            "n = 8\nh = 0.5\n[data]\n" + RANDOM_DATA,
            "n = 16\nh = 0.25\n[data]\nkind = bpst\norientation = 2",
            "orientation must be +1 or -1",
        ),
        ("gen-data", RANDOM_DATA, "kind = pure-gauge\nseed = -1", "bad value for [data] seed"),
        (
            "gen-data",
            "[data]\n" + RANDOM_DATA,
            "[group]\nname = abelian\n[data]\nkind = bpst",
            "[data] the instanton generator is su(2) specific",
        ),
        (
            "gen-data",
            "[data]\n" + RANDOM_DATA,
            "[group]\nname = abelian\n[data]\nkind = pure-gauge",
            "[data] field-level gauge transforms are su(2) only",
        ),
        ("caloric", "[wave]", "[group]\nname = abelian\n[wave]", "caloric needs an su(2) group"),
        (
            "ed-norm",
            "h = 0.5\n[data]\n" + RANDOM_DATA,
            "h = 0.5\nboundary = open\n[data]\nkind = zero",
            "ed-norm needs a periodic grid",
        ),
    ],
)
def test_cli_bad_config_numbers_are_config_errors(
    tmp_path, capsys, monkeypatch, command, old, new, reason
):
    for module, flow in [(wave, "run_wave"), (heatflow, "run_heat")]:
        monkeypatch.setattr(module, flow, _no_flow)
    path = tmp_path / "exp.cfg"
    path.write_text(BASE_CFG.replace(old, new))
    assert main([command, str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and reason in err
    assert not (tmp_path / "o").exists()


# zero data reads no [data] key but kind
ZERO_DATA_WITH_STRAY_KEYS = "kind = zero\nseed = 7\nk_band = 1\nlambda = 3"


@pytest.mark.parametrize(
    "command, old, new, unread",
    [
        ("gen-data", RANDOM_DATA, ZERO_DATA_WITH_STRAY_KEYS, "k_band, lambda, seed"),
        ("wave", RANDOM_DATA, ZERO_DATA_WITH_STRAY_KEYS, "k_band, lambda, seed"),
        ("gen-data", "k_band = 1", "k_band = 1\ncenter = 0, 0, 0, 0", "center"),
        ("heat", RANDOM_DATA, "kind = bpst\namplitude = 0.05", "amplitude"),
        ("gen-data", RANDOM_DATA, "kind = pure-gauge\nseed = 2\norientation = -1", "orientation"),
        ("morawetz", "[data]", "[group]\nname = su2\nfile = su2.spec\n[data]", "[group] file"),
        ("gen-data", "[data]", "[group]\nname = abelian\nfile = su2.spec\n[data]", "[group] file"),
    ],
)
def test_cli_unread_data_and_group_keys_are_config_errors(
    tmp_path, capsys, monkeypatch, command, old, new, unread
):
    for module, flow in [(wave, "run_wave"), (heatflow, "run_heat")]:
        monkeypatch.setattr(module, flow, _no_flow)
    path = tmp_path / "exp.cfg"
    path.write_text(BASE_CFG.replace(old, new) + MORAWETZ_DIAGNOSTICS)
    assert main([command, str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"{unread}: not read given the other" in err
    assert not (tmp_path / "o").exists()


def test_cli_input_leaves_the_data_keys_unchecked(tmp_path):
    # gen-data and heat --input share one config, and heat reads no [data]
    cfg = write_cfg(tmp_path)
    assert main(["gen-data", cfg, "--out", str(tmp_path / "gen")]) == 0
    zero = tmp_path / "zero.cfg"
    zero.write_text(BASE_CFG.replace(RANDOM_DATA, "kind = zero\nseed = 7"))
    for command in ("heat", "wave"):
        argv = [command, str(zero), "--input", str(tmp_path / "gen" / "data.ymf")]
        assert main(argv + ["--out", str(tmp_path / command)]) == 0


# twice the su(2) structure constants: a Lie algebra, but neither su(2) nor
# abelian, so the .ymf format has no group id for it
SO3_SPEC = """name = so3
dim = 3
c = 0 0 0  0 0 2  0 -2 0
    0 0 -2  0 0 0  2 0 0
    0 2 0  -2 0 0  0 0 0
"""


def test_cli_group_without_snapshot_id_only_where_no_snapshot_is_written(
    tmp_path, capsys, monkeypatch
):
    spec = tmp_path / "so3.spec"
    spec.write_text(SO3_SPEC)
    path = tmp_path / "exp.cfg"
    path.write_text(BASE_CFG + MORAWETZ_DIAGNOSTICS + f"[group]\nname = file\nfile = {spec}\n")
    for command in ("ed-norm", "morawetz"):
        assert main([command, str(path), "--out", str(tmp_path / command)]) == 0
    for module, flow in [(wave, "run_wave"), (heatflow, "run_heat")]:
        monkeypatch.setattr(module, flow, _no_flow)
    for command in ("gen-data", "heat", "wave", "div-curl"):
        out = tmp_path / f"o-{command}"
        assert main([command, str(path), "--out", str(out)]) == 2
        assert "config error: no snapshot group id registered for 'so3'" in capsys.readouterr().err
        assert not out.exists()


def test_cli_heat_energy_rise_is_invariant_violation(tmp_path, capsys, monkeypatch):
    real = heatflow.run_heat

    def rising(a, p, de_turck=False):
        traj = real(a, p, de_turck=de_turck)
        traj.energy_series[-1] = 2.0 * traj.energy_series[0]
        return traj

    monkeypatch.setattr(heatflow, "run_heat", rising)
    out = tmp_path / "o"
    assert main(["heat", write_cfg(tmp_path), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "invariant violation: energy increased along the heat flow\n"
    report = strict_json(out / "report.json")
    assert report["invariant_violation"] == "energy increased along the heat flow"
    assert report["energy_final"] == 2.0 * report["energy_initial"]
    assert (out / "heat.csv").exists() and (out / "terminal.ymf").exists()


def _keys_read_by_cli():
    """(section, key) pairs the CLI reads through cfg.get/get_floats/get_bool."""
    tree = ast.parse(Path(cli.__file__).read_text())
    pairs = {("output", "dir")}  # _outdir reads it through cfg.sections
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("get", "get_floats", "get_bool")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "cfg"
        ):
            section, key = (arg.value for arg in node.args[:2])
            pairs.add((section, key))
    return pairs


def test_every_schema_key_is_read():
    schema = {(section, key) for section, keys in SCHEMA.items() for key in keys}
    assert _keys_read_by_cli() == schema


def test_cli_ed_norm_one_window_per_block(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, "[diagnostics]\ned_truncation = 2\n")
    # every window application builds its window through LPBlockSet.window
    calls = []
    window = spectral.LPBlockSet.window

    def counted(blocks, k):
        calls.append(k)
        return window(blocks, k)

    monkeypatch.setattr(spectral.LPBlockSet, "window", counted)
    out = tmp_path / "ed"
    assert main(["ed-norm", cfg, "--out", str(out)]) == 0
    monkeypatch.undo()

    g = Grid4(8, 0.5)
    blocks = spectral.make_blocks(g)
    assert calls == list(range(blocks.k_min, blocks.k_max + 1))
    d = data.random_data(g, SU2, seed=7, amplitude=0.05, k_band=1)
    F = curvature(d.a)
    with open(out / "ed.csv") as fh:
        rows = [(int(k), float(v)) for k, v in list(csv.reader(fh))[1:]]
    assert rows == spectral.lp_block_sups(F)
    report = json.loads((out / "report.json").read_text())
    assert report["truncation_index"] == 2
    assert report["ed_norm"] == spectral.ed_norm(F)
    assert report["ed_norm_truncated"] == spectral.sup_above(rows, 2)
    assert 0.0 < report["ed_norm_truncated"] < report["ed_norm"]
