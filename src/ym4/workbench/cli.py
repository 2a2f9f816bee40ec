"""Command-line workbench: one binary, subcommands for data generation,
flows, and diagnostics.

Each subcommand but regress runs in one frame.  It loads the config, builds
the grid, group and input data, resolves every other config value the
subcommand uses into its parameters, and only then makes the output
directory, so a rejected config, input or parameter leaves none.  The
subcommand writes its .csv and .ymf files, and the frame writes report.json.

Exit codes: 0 ok, 2 configuration error (among them a number that is not
finite, a vector of the wrong length, a Morawetz window with t1 >= t2,
with t2 after [wave] t_end or holding fewer than two of the states the wave
flow keeps, a Morawetz vertex at or after t1 or whose cone at t2 leaves
the inner half-box, a [data] value the data factories reject, a [data] or
[group] key the chosen kind or name does not read, a group the .ymf format
has no id for in a subcommand that writes .ymf files, caloric on a group
other than su(2) and ed-norm on an open grid), 3 invariant violation
(among them a Gauss projection whose solve stalls), 4 blow-up signal.
On exit 3 or 4 once the output directory exists, report.json carries the
message under invariant_violation or blow_up; after a blow-up the flow's
CSV holds the rows it sampled before the signal.

wave, morawetz and regress stream the wave flow through run_wave's
observer: each kept state gives its wave.csv row (and its Morawetz terms)
as the flow reaches it, and only the last state is held, so memory does
not grow with [wave] t_end.  wave, morawetz, heat and ed-norm hand their
input to the flow or curvature that consumes it and keep no reference, so
the input is freed once it is no longer read (after the flow's first step).

The blocked stencil and su(2) bracket kernels run on one thread per CPU
the process may run on, recorded in reports as kernel_threads, so CPU
affinity (taskset -c 0 ym4 ..., say) sets that count.  Each site is
computed by one thread in a fixed order; FFTs run on one worker and BLAS
threading is left as it is.  So every .csv and .ymf output is bitwise
independent of both thread counts.

scipy.fft is imported by build_grid when the config's grid is periodic,
before any field is read or generated; a run on an open grid never
transforms and never imports it.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .. import algebra, data, gaugefield, heatflow, morawetz, spectral, tangent, wave
from ..errors import BlowUpError, InvariantError
from ..gaugefield import ConnectionField, FieldError, InitialDataSet
from ..grid import Grid4, GridError, fft_backend
from .config import ConfigError, ExperimentConfig, int_at_least, load_config, positive_float
from . import snapshot as snap

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_BLOWUP = 4


# -- builders ----------------------------------------------------------------


def build_grid(cfg: ExperimentConfig) -> Grid4:
    """The [grid].  A periodic grid loads the FFT backend here, before any
    field is read or generated, so that the import's allocations do not
    land between the field arrays of the first transform."""
    grid = Grid4(
        n=cfg.get("grid", "n", cast=int),
        h=cfg.get("grid", "h", cast=float),
        boundary=cfg.get("grid", "boundary", default="periodic"),
        deriv=cfg.get("grid", "deriv", default="stencil4"),
    )
    if grid.boundary == "periodic":
        fft_backend()
    return grid


def build_spec(cfg: ExperimentConfig):
    """The [group]; a key the chosen name does not read is a ConfigError."""
    name = cfg.get("group", "name", default="su2")
    if name == "file":
        path = cfg.get("group", "file")
    elif name not in ("su2", "abelian"):
        raise ConfigError(f"unknown group name {name!r}")
    cfg.reject_unread("group")
    if name == "su2":
        return algebra.su2()
    if name == "abelian":
        return algebra.abelian()
    try:
        return algebra.load_spec(path)
    except ValueError as err:  # AlgebraError, or a non-numeric entry
        raise ConfigError(f"[group] file {path}: {err}") from err


def build_data(cfg: ExperimentConfig, grid: Grid4, spec) -> InitialDataSet:
    """The [data] fields.  A key the chosen kind does not read, or a value
    the factories reject (a negative seed, a k_band below 1, an instanton
    scale or orientation the grid or group cannot hold, su(2)-only data on
    another group), is a ConfigError; a stalled Gauss projection of random
    data stays a FieldError."""
    kind = cfg.get("data", "kind", default="zero")
    kwargs = {}
    if kind in ("random", "pure-gauge"):
        kwargs["seed"] = cfg.get("data", "seed", default=0, cast=int_at_least(0))
    if kind == "random":
        kwargs.update(
            amplitude=cfg.get("data", "amplitude", default=0.1, cast=float),
            k_band=cfg.get("data", "k_band", default=2, cast=int_at_least(1)),
        )
    elif kind == "bpst":
        kwargs.update(
            center=cfg.get_floats("data", "center", default=(0.0, 0.0, 0.0, 0.0), length=4),
            lam=cfg.get("data", "lambda", default=1.0, cast=float),
            orientation=cfg.get("data", "orientation", default=1, cast=int),
        )
    elif kind not in ("zero", "pure-gauge"):
        raise ConfigError(f"unknown data kind {kind!r}")
    cfg.reject_unread("data")
    if kind == "random":
        return data.random_data(grid, spec, **kwargs)
    try:
        if kind == "zero":
            a = gaugefield.zero_connection(grid, spec)
        elif kind == "bpst":
            a = data.bpst(grid, spec, **kwargs)
        else:
            a = data.pure_gauge(data.smooth_transform(grid, spec, **kwargs))
    except FieldError as err:
        raise ConfigError(f"[data] {err}") from err
    # static data: a zero electric field satisfies the Gauss constraint exactly
    return InitialDataSet(a, np.zeros_like(a.a), constraint_residual=0.0)


def build_heat_params(cfg: ExperimentConfig, grid: Grid4) -> heatflow.HeatParams:
    kwargs = dict(
        ds=cfg.get("heat", "ds_factor", default=0.1, cast=float) * grid.h**2,
        s_max=cfg.get("heat", "s_max", default=1.0, cast=float),
        stop_F_tol=cfg.get("heat", "stop_F_tol", default=1e-6, cast=float),
        sample_stride=cfg.get("heat", "sample_stride", default=1, cast=int),
    )
    try:
        p = heatflow.HeatParams(**kwargs)
        p.check_stability(grid.h)
    except ValueError as err:
        raise ConfigError(f"[heat] {err}") from err
    return p


def build_wave_params(cfg: ExperimentConfig, grid: Grid4) -> wave.WaveParams:
    kwargs = dict(
        dt=cfg.get("wave", "cfl", default=0.25, cast=float) * grid.h,
        t_end=cfg.get("wave", "t_end", default=1.0, cast=float),
        snapshot_stride=cfg.get("wave", "snapshot_stride", default=1, cast=int),
    )
    try:
        p = wave.WaveParams(**kwargs)
        p.check_cfl(grid.h)
    except ValueError as err:
        raise ConfigError(f"[wave] {err}") from err
    return p


def _gen_data_params(cfg: ExperimentConfig, grid: Grid4) -> float:
    """The energy threshold of gen-data's concentration scale."""
    return cfg.get("diagnostics", "eps", default=0.01, cast=positive_float)


def _heat_params(cfg: ExperimentConfig, grid: Grid4) -> tuple:
    """(HeatParams, whether the flow takes the DeTurck gauge term)."""
    return build_heat_params(cfg, grid), cfg.get_bool("heat", "de_turck")


def _caloric_params(cfg: ExperimentConfig, grid: Grid4) -> heatflow.HeatParams:
    """The heat flow's parameters, on an su(2) group only: the projection
    ends with the su(2) flat trivialization."""
    if not build_spec(cfg).is_su2:
        raise ConfigError("caloric needs an su(2) group: the flat trivialization is su(2) only")
    return build_heat_params(cfg, grid)


def _ed_norm_params(cfg: ExperimentConfig, grid: Grid4) -> int:
    """The block index the truncated norm starts above, on a periodic grid
    only: the Littlewood-Paley blocks are Fourier windows."""
    if grid.boundary != "periodic":
        raise ConfigError("ed-norm needs a periodic grid: its blocks are Fourier windows")
    k_min = spectral.make_blocks(grid).k_min
    return cfg.get("diagnostics", "ed_truncation", default=k_min, cast=int)


def _morawetz_params(cfg: ExperimentConfig, grid: Grid4) -> tuple:
    """(WaveParams, vertex, eps, t1, t2): a window [t1, t2] inside the
    flow's time span that holds at least two of the states the flow keeps
    and whose cone sections start after the vertex and stay in the inner
    half-box."""
    p = build_wave_params(cfg, grid)
    eps = cfg.get("diagnostics", "eps", default=1.0, cast=positive_float)
    vertex = cfg.get_floats("diagnostics", "vertex", default=(0.0, 0.0, 0.0, 0.0, 0.0), length=5)
    t1 = cfg.get("diagnostics", "t1", cast=float)
    t2 = cfg.get("diagnostics", "t2", cast=float)
    if not t1 < t2:
        raise ConfigError(f"[diagnostics] t1 = {t1} is not before t2 = {t2}")
    if t2 > p.t_end:
        raise ConfigError(f"[diagnostics] t2 = {t2} is after [wave] t_end = {p.t_end}")
    held = sum(morawetz.in_window(t, t1, t2) for t in wave.kept_times(p))
    if held < 2:
        raise ConfigError(
            f"[diagnostics] window [{t1}, {t2}] holds {held} of the wave states kept "
            f"(every {p.snapshot_stride} steps and the last), fewer than two"
        )
    try:
        for t in (t1, t2):
            morawetz.cone_time(grid, vertex, t)
    except FieldError as err:
        raise ConfigError(str(err)) from err
    return p, vertex, eps, t1, t2


def _outdir(cfg: ExperimentConfig, args) -> Path:
    out = args.out or cfg.sections.get("output", {}).get("dir")
    if out is None:
        raise ConfigError("no output directory: set [output] dir or pass --out")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_resolved(cfg: ExperimentConfig, outdir: Path) -> None:
    (outdir / "config.resolved").write_text(cfg.source_text)


def _write_report(outdir: Path, payload: dict) -> None:
    payload = dict(payload)
    payload["kernel_threads"] = algebra._WORKERS
    with open(outdir / "report.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _dump_heat_csv(outdir: Path, traj) -> list:
    """Write heat.csv; returns its (s, energy, ...) rows."""
    columns = [
        ("s [len^2]", traj.s_samples),
        ("energy [1]", traj.energy_series),
        ("tension_l2 [1/len]", traj.tension_l2_series),
        ("caloric_size [1]", traj.caloric_size_series),
        ("dissipation [1]", traj.dissipation_series),
    ]
    rows = list(zip(*(series for _, series in columns)))
    _write_csv(outdir / "heat.csv", [name for name, _ in columns], rows)
    return rows


def _write_wave_csv(outdir: Path, rows) -> None:
    """Write wave.csv from (t, energy, gauss_residual) rows."""
    _write_csv(outdir / "wave.csv", ["t [len]", "energy [1]", "gauss_residual [1/len^3]"], rows)


def _stream_wave(slot: list, p: wave.WaveParams, observer=None) -> tuple:
    """Run the wave flow from the data popped from the one-slot list slot,
    passing each kept state to observer as it comes; returns (last state,
    wave.csv rows).  No name here holds the data, so run_wave frees it
    after its first step.  A blow-up signal leaves with the rows taken
    before it as its partial record."""
    rows = []

    def record(w):
        rows.append((w.t, w.energy, w.gauss_residual))
        if observer is not None:
            observer(w)

    try:
        (last,) = wave.run_wave(slot.pop(), p, observer=record)
    except BlowUpError as err:
        err.partial = rows
        raise
    return last, rows


def _write_wave_state(path: Path, a: ConnectionField, e, t: float) -> None:
    snap.write_snapshot(path, snap.Blocks((a.a, e)), a.grid, a.spec, snap.KIND_WAVE_STATE, t)


def _load_state(path, grid: Grid4, spec):
    head, arr = snap.read_snapshot(path)
    if head.n != grid.n or abs(head.h - grid.h) > 1e-12:
        raise ConfigError(
            f"snapshot grid ({head.n}, {head.h}) incompatible with config grid "
            f"({grid.n}, {grid.h})"
        )
    if head.group != snap.group_id(spec):
        raise ConfigError("snapshot group incompatible with config group")
    return head, arr


def _input_data(args, cfg, grid, spec) -> InitialDataSet:
    """The --input snapshot, or the config's [data] when there is none."""
    path = getattr(args, "input", None)
    if path is None:
        return build_data(cfg, grid, spec)
    head, arr = _load_state(path, grid, spec)
    if (head.kind, head.components) == (snap.KIND_WAVE_STATE, 8):
        a = ConnectionField(grid, spec, arr[:4])
        return InitialDataSet(a, arr[4:], constraint_residual=np.nan)
    if (head.kind, head.components) == (snap.KIND_CONNECTION, 4):
        a = ConnectionField(grid, spec, arr)
        return InitialDataSet(a, np.zeros_like(arr), constraint_residual=0.0)
    raise ConfigError(
        f"snapshot of kind {head.kind} with {head.components} components is "
        "neither a connection (kind 0, 4 components) nor a wave state (kind 2, 8)"
    )


# -- the command frame -------------------------------------------------------


def _frame(args) -> int:
    """Run one subcommand: resolve its inputs, make the output directory,
    call its body and write report.json.

    Everything that can reject the config, the input or the flow parameters
    runs before the output directory exists.  Once it exists, a blow-up or
    an invariant violation still leaves a report.json with the message, and
    a blow-up the CSV rows its flow sampled before the signal.

    The body owns the input: the frame hands it over in a one-slot list and
    keeps no name for it.  A body whose flow consumes the input pops it
    straight into the flow's call, so the flow can free it after its first
    step; a body that reads it to the end pops it at entry.
    """
    cfg = load_config(args.config)
    grid = build_grid(cfg)
    spec = build_spec(cfg)
    if args.writes_ymf:
        snap.group_id(spec)  # a SnapshotError for a group no .ymf file can name
    slot = [_input_data(args, cfg, grid, spec)]
    p = args.params(cfg, grid)
    outdir = _outdir(cfg, args)
    _write_resolved(cfg, outdir)
    report = None
    try:
        report = args.body(grid, spec, slot, p, outdir)
    except BlowUpError as err:
        rows = []
        if isinstance(err.partial, heatflow.HeatTrajectory):
            rows = _dump_heat_csv(outdir, err.partial)
        elif err.partial is not None:
            rows = err.partial
            _write_wave_csv(outdir, rows)
        report = {"blow_up": str(err)}
        if rows:
            report.update(last_time=rows[-1][0], energy_initial=rows[0][1], energy_last=rows[-1][1])
        raise
    except (InvariantError, FieldError) as err:
        report = {**getattr(err, "report", {}), "invariant_violation": str(err)}
        raise
    finally:
        if report is not None:
            _write_report(outdir, report)
    return EXIT_OK


# -- subcommand bodies -------------------------------------------------------
#
# A body takes what the frame resolved from the config: the grid, the group,
# a one-slot list holding the input data, the parameters its builder
# returned and the output directory.  It writes its own .csv and .ymf files
# and returns its report.  It signals exit 3 by raising InvariantError, with
# its report, once its files are written.


def cmd_gen_data(grid, spec, slot, eps, outdir) -> dict:
    d = slot.pop()
    _write_wave_state(outdir / "data.ymf", d.a, d.e, 0.0)
    F = gaugefield.curvature(d.a)
    F.e = d.e
    report = {
        "n": grid.n,
        "h": grid.h,
        "energy": gaugefield.static_energy(F),
        "chi": gaugefield.chi(F),
        "gauss_residual": float(d.constraint_residual),
    }
    if grid.boundary == "periodic":
        report["concentration_scale"] = gaugefield.concentration_scale(d, eps, F=F)
    return report


def cmd_heat(grid, spec, slot, params, outdir) -> dict:
    p, de_turck = params
    traj = heatflow.run_heat(slot.pop().a, p, de_turck=de_turck)
    _dump_heat_csv(outdir, traj)
    snap.write_snapshot(
        outdir / "terminal.ymf",
        traj.terminal.a,
        grid,
        spec,
        snap.KIND_CONNECTION,
        traj.s_samples[-1],
    )
    report = {
        "energy_initial": traj.energy_series[0],
        "energy_final": traj.energy_series[-1],
        "caloric_size": traj.caloric_size_accum,
        "dissipation": traj.dissipation_accum,
        "reached_tolerance": traj.reached_tolerance,
        "tail_flagged": traj.tail_flagged,
    }
    drops = np.diff(np.asarray(traj.energy_series))
    if np.any(drops > 1e-10 * max(traj.energy_series[0], 1e-300)):
        raise InvariantError("energy increased along the heat flow", report)
    return report


def cmd_wave(grid, spec, slot, p, outdir) -> dict:
    last, rows = _stream_wave(slot, p)
    _write_wave_csv(outdir, rows)
    _write_wave_state(outdir / "final.ymf", last.a, last.adot, last.t)
    return {
        "t_final": last.t,
        "steps": int(round(last.t / p.dt)),
        "energy_initial": rows[0][1],
        "energy_final": rows[-1][1],
        "gauss_residual_max": max(row[2] for row in rows),
    }


def cmd_caloric(grid, spec, slot, p, outdir) -> dict:
    d = slot.pop()
    a_cal, O, traj = heatflow.caloric_project(d.a, p)
    snap.write_snapshot(outdir / "caloric.ymf", a_cal.a, grid, spec, snap.KIND_CONNECTION, 0.0)
    div_norm, a_sq = heatflow.caloric_divergence(a_cal)
    retraj = heatflow.run_heat(a_cal, p)
    return {
        "divergence_l2": div_norm,
        "amplitude_sq": a_sq,
        "reflow_terminal_l2": grid.l2norm(retraj.terminal.a),
        "initial_l2": grid.l2norm(a_cal.a),
    }


def cmd_div_curl(grid, spec, slot, p, outdir) -> dict:
    d = slot.pop()
    cal = tangent.div_curl_decompose(d.a, d.e, p)
    snap.write_snapshot(outdir / "tangent_b.ymf", cal.b.b, grid, spec, snap.KIND_ELECTRIC, 0.0)
    snap.write_snapshot(outdir / "a0.ymf", cal.a0[None], grid, spec, snap.KIND_SCALARSET, 0.0)
    recon = np.empty_like(d.e)
    for j in range(1, 5):
        recon[j - 1] = cal.b.b[j - 1] - gaugefield.covariant_derivative(d.a, cal.a0, j)
    return {
        "tangent_residual": cal.b.tangent_residual,
        "reconstruction_residual": grid.l2norm(recon - d.e),
        "tail_flagged": cal.tail_flagged,
    }


def cmd_ed_norm(grid, spec, slot, m, outdir) -> dict:
    F = gaugefield.curvature(slot.pop().a)
    rows = spectral.lp_block_sups(F)
    _write_csv(outdir / "ed.csv", ["k [dyadic]", "weighted_block_sup [1/len^2]"], rows)
    return {
        "ed_norm": spectral.sup_above(rows, -np.inf),
        "ed_norm_truncated": spectral.sup_above(rows, m),
        "truncation_index": m,
    }


def cmd_morawetz(grid, spec, slot, params, outdir) -> dict:
    p, vertex, eps, t1, t2 = params
    acc = morawetz.MorawetzAccumulator(vertex, eps, t1, t2)
    _stream_wave(slot, p, observer=acc.add)
    m = acc.report()
    columns = [
        ("t [len]", m.t),
        ("eps [len]", m.eps),
        ("weighted_energy [1]", m.weighted_energy),
        ("dissipation [1]", m.interior_dissipation_accum),
        ("boundary [1]", m.boundary_term),
        ("residual [rel]", m.identity_residual),
    ]
    _write_csv(outdir / "morawetz.csv", [name for name, _ in columns], [[v for _, v in columns]])
    report = {
        "weighted_energy_start": m.weighted_energy_start,
        "weighted_energy_end": m.weighted_energy,
        "dissipation": m.interior_dissipation_accum,
        "boundary": m.boundary_term,
        "identity_residual": m.identity_residual,
    }
    if m.interior_dissipation_accum < 0:
        raise InvariantError("negative interior dissipation", report)
    return report


def cmd_regress(args) -> int:
    """Run the fixed miniature battery; compare or update golden outputs."""
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    names = _regress_battery(workdir)
    if args.golden:
        golden = Path(args.golden)
        if args.update:
            golden.mkdir(parents=True, exist_ok=True)
            for name in names:
                (golden / name).write_bytes((workdir / name).read_bytes())
            return EXIT_OK
        for name in names:
            ref = golden / name
            if not ref.exists():
                print(f"golden file missing: {name}", file=sys.stderr)
                return EXIT_INVARIANT
            if ref.read_bytes() != (workdir / name).read_bytes():
                print(f"golden mismatch: {name}", file=sys.stderr)
                return EXIT_INVARIANT
    return EXIT_OK


def _regress_battery(workdir: Path) -> list:
    """Small deterministic end-to-end runs; returns the names of the files
    they write to workdir."""
    grid = Grid4(n=8, h=0.5)
    d = data.random_data(grid, algebra.su2(), seed=7, amplitude=0.05, k_band=1)
    p = heatflow.HeatParams(ds=0.02 * grid.h**2, s_max=0.2)
    traj = heatflow.run_heat(d.a, p)
    _dump_heat_csv(workdir, traj)
    wp = wave.WaveParams(dt=0.25 * grid.h, t_end=0.5)
    last, rows = _stream_wave([d], wp)
    _write_wave_csv(workdir, rows)
    _write_wave_state(workdir / "final.ymf", last.a, last.adot, last.t)
    return ["heat.csv", "wave.csv", "final.ymf"]


# -- entry point -------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ym4", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, body, params, needs_input, writes_ymf in [
        ("gen-data", cmd_gen_data, _gen_data_params, False, True),
        ("heat", cmd_heat, _heat_params, True, True),
        ("wave", cmd_wave, build_wave_params, True, True),
        ("caloric", cmd_caloric, _caloric_params, True, True),
        ("div-curl", cmd_div_curl, build_heat_params, True, True),
        ("ed-norm", cmd_ed_norm, _ed_norm_params, True, False),
        ("morawetz", cmd_morawetz, _morawetz_params, True, False),
    ]:
        sp = sub.add_parser(name)
        sp.add_argument("config")
        sp.add_argument("--out", default=None)
        if needs_input:
            sp.add_argument("--input", default=None, help="input snapshot file")
        sp.set_defaults(fn=_frame, body=body, params=params, writes_ymf=writes_ymf)
    rp = sub.add_parser("regress")
    rp.add_argument("workdir")
    rp.add_argument("--golden", default=None)
    rp.add_argument("--update", action="store_true")
    rp.set_defaults(fn=cmd_regress)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, GridError, FileNotFoundError, snap.SnapshotError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (InvariantError, FieldError) as err:
        print(f"invariant violation: {err}", file=sys.stderr)
        return EXIT_INVARIANT
    except BlowUpError as err:
        print(f"blow-up: {err}", file=sys.stderr)
        return EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())
