"""Command-line workbench: one binary, subcommands for data generation,
flows, and diagnostics.

Exit codes: 0 ok, 2 configuration error, 3 invariant violation,
4 blow-up signal.  The environment variable YM4_THREADS is accepted and
recorded in reports, but ym4 does not read it for computation.  The
blocked stencil and su(2) bracket kernels run on one thread per usable CPU,
recorded in reports as kernel_threads, and each site is computed by one
thread in a fixed order; FFTs run on one worker and BLAS threading is left
as it is.  So every .csv and .ymf output is bitwise independent of both
thread counts.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from .. import algebra, data, gaugefield, heatflow, morawetz, spectral, tangent, wave
from ..errors import BlowUpError, InvariantError
from ..gaugefield import ConnectionField, FieldError, InitialDataSet
from ..grid import Grid4, GridError
from .config import ConfigError, ExperimentConfig, load_config
from . import snapshot as snap

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_BLOWUP = 4


# -- builders ----------------------------------------------------------------


def build_grid(cfg: ExperimentConfig) -> Grid4:
    return Grid4(
        n=cfg.get("grid", "n", cast=int),
        h=cfg.get("grid", "h", cast=float),
        boundary=cfg.get("grid", "boundary", default="periodic"),
        deriv=cfg.get("grid", "deriv", default="stencil4"),
    )


def build_spec(cfg: ExperimentConfig):
    name = cfg.get("group", "name", default="su2")
    if name == "su2":
        return algebra.su2()
    if name == "abelian":
        return algebra.abelian(3)
    if name == "file":
        path = cfg.get("group", "file")
        try:
            return algebra.load_spec(path)
        except ValueError as err:  # AlgebraError, or a non-numeric entry
            raise ConfigError(f"[group] file {path}: {err}") from err
    raise ConfigError(f"unknown group name {name!r}")


def build_data(cfg: ExperimentConfig, grid: Grid4, spec) -> InitialDataSet:
    kind = cfg.get("data", "kind", default="zero")
    if kind == "random":
        return data.random_data(
            grid,
            spec,
            seed=cfg.get("data", "seed", default=0, cast=int),
            amplitude=cfg.get("data", "amplitude", default=0.1, cast=float),
            k_band=cfg.get("data", "k_band", default=2, cast=int),
        )
    if kind == "zero":
        a = gaugefield.zero_connection(grid, spec)
    elif kind == "bpst":
        a = data.bpst(
            grid,
            spec,
            center=cfg.get_floats("data", "center", default=(0.0, 0.0, 0.0, 0.0)),
            lam=cfg.get("data", "lambda", default=1.0, cast=float),
            orientation=cfg.get("data", "orientation", default=1, cast=int),
        )
    elif kind == "pure-gauge":
        O = data.smooth_transform(
            grid, spec, seed=cfg.get("data", "seed", default=0, cast=int)
        )
        a = data.pure_gauge(O)
    else:
        raise ConfigError(f"unknown data kind {kind!r}")
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


def _outdir(cfg: ExperimentConfig, args) -> Path:
    out = args.out or cfg.sections.get("output", {}).get("dir")
    if out is None:
        raise ConfigError("no output directory: set [output] dir or pass --out")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_resolved(cfg: ExperimentConfig, outdir: Path) -> None:
    (outdir / "config.resolved").write_text(cfg.source_text)


def _write_report(outdir: Path, name: str, payload: dict) -> None:
    payload = dict(payload)
    payload["threads_env"] = os.environ.get("YM4_THREADS", "")
    payload["kernel_threads"] = algebra._WORKERS
    with open(outdir / name, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_blowup_report(outdir: Path, err: BlowUpError, times, energies) -> None:
    """report.json of a flow that blew up: the signal and, when the partial
    record has samples, its first and last energy and last flow time."""
    payload = {"blow_up": str(err)}
    if times:
        payload.update(last_time=times[-1], energy_initial=energies[0], energy_last=energies[-1])
    _write_report(outdir, "report.json", payload)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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


# -- subcommands -------------------------------------------------------------


def cmd_gen_data(args) -> int:
    cfg = load_config(args.config)
    grid = build_grid(cfg)
    spec = build_spec(cfg)
    d = build_data(cfg, grid, spec)
    outdir = _outdir(cfg, args)
    _write_resolved(cfg, outdir)
    state = np.concatenate([d.a.a, d.e], axis=0)
    snap.write_snapshot(outdir / "data.ymf", state, grid, spec, snap.KIND_WAVE_STATE, 0.0)
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
        eps = cfg.get("diagnostics", "eps", default=0.01, cast=float)
        report["concentration_scale"] = gaugefield.concentration_scale(d, eps, F=F)
    _write_report(outdir, "report.json", report)
    return EXIT_OK


def _input_data(args, cfg, grid, spec) -> InitialDataSet:
    if args.input:
        head, arr = _load_state(args.input, grid, spec)
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
    return build_data(cfg, grid, spec)


def cmd_heat(args) -> int:
    cfg = load_config(args.config)
    grid = build_grid(cfg)
    spec = build_spec(cfg)
    d = _input_data(args, cfg, grid, spec)
    p = build_heat_params(cfg, grid)
    outdir = _outdir(cfg, args)
    _write_resolved(cfg, outdir)
    de_turck = cfg.get_bool("heat", "de_turck", default=False)
    try:
        traj = heatflow.run_heat(d.a, p, de_turck=de_turck)
    except BlowUpError as err:
        _dump_heat_csv(outdir, err.partial)
        _write_blowup_report(outdir, err, err.partial.s_samples, err.partial.energy_series)
        print(f"blow-up: {err}", file=sys.stderr)
        return EXIT_BLOWUP
    _dump_heat_csv(outdir, traj)
    snap.write_snapshot(
        outdir / "terminal.ymf",
        traj.terminal.a,
        grid,
        spec,
        snap.KIND_CONNECTION,
        traj.s_samples[-1],
    )
    _write_report(
        outdir,
        "report.json",
        {
            "energy_initial": traj.energy_series[0],
            "energy_final": traj.energy_series[-1],
            "caloric_size": traj.caloric_size_accum,
            "dissipation": traj.dissipation_accum,
            "reached_tolerance": traj.reached_tolerance,
            "tail_flagged": traj.tail_flagged,
        },
    )
    drops = np.diff(np.asarray(traj.energy_series))
    if np.any(drops > 1e-10 * max(traj.energy_series[0], 1e-300)):
        print("invariant violation: energy increased along the heat flow", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _dump_heat_csv(outdir: Path, traj) -> None:
    _write_csv(
        outdir / "heat.csv",
        ["s [len^2]", "energy [1]", "tension_l2 [1/len]", "caloric_size [1]", "dissipation [1]"],
        zip(
            traj.s_samples,
            traj.energy_series,
            traj.tension_l2_series,
            traj.caloric_size_series,
            traj.dissipation_series,
        ),
    )


def cmd_wave(args) -> int:
    cfg = load_config(args.config)
    grid = build_grid(cfg)
    spec = build_spec(cfg)
    d = _input_data(args, cfg, grid, spec)
    p = build_wave_params(cfg, grid)
    outdir = _outdir(cfg, args)
    _write_resolved(cfg, outdir)
    try:
        snapshots = wave.run_wave(d, p)
    except BlowUpError as err:
        rows = _dump_wave_csv(outdir, err.partial)
        _write_blowup_report(outdir, err, [row[0] for row in rows], [row[1] for row in rows])
        print(f"blow-up: {err}", file=sys.stderr)
        return EXIT_BLOWUP
    rows = _dump_wave_csv(outdir, snapshots)
    last = snapshots[-1]
    state = np.concatenate([last.a.a, last.adot], axis=0)
    snap.write_snapshot(outdir / "final.ymf", state, grid, spec, snap.KIND_WAVE_STATE, last.t)
    _write_report(
        outdir,
        "report.json",
        {
            "t_final": last.t,
            "steps": int(round(last.t / p.dt)),
            "energy_initial": rows[0][1],
            "energy_final": rows[-1][1],
            "gauss_residual_max": max(row[2] for row in rows),
        },
    )
    return EXIT_OK


def _dump_wave_csv(outdir: Path, snapshots) -> list:
    """Write wave.csv; returns its (t, energy, gauss_residual) rows."""
    rows = [(w.t, w.energy, w.gauss_residual) for w in snapshots]
    _write_csv(outdir / "wave.csv", ["t [len]", "energy [1]", "gauss_residual [1/len^3]"], rows)
    return rows


def cmd_caloric(args) -> int:
    cfg = load_config(args.config)
    grid = build_grid(cfg)
    spec = build_spec(cfg)
    d = _input_data(args, cfg, grid, spec)
    p = build_heat_params(cfg, grid)
    outdir = _outdir(cfg, args)
    _write_resolved(cfg, outdir)
    a_cal, O, traj = heatflow.caloric_project(d.a, p)
    snap.write_snapshot(outdir / "caloric.ymf", a_cal.a, grid, spec, snap.KIND_CONNECTION, 0.0)
    div_norm, a_sq = heatflow.caloric_divergence(a_cal)
    retraj = heatflow.run_heat(a_cal, p)
    _write_report(
        outdir,
        "report.json",
        {
            "divergence_l2": div_norm,
            "amplitude_sq": a_sq,
            "reflow_terminal_l2": grid.l2norm(retraj.terminal.a),
            "initial_l2": grid.l2norm(a_cal.a),
        },
    )
    return EXIT_OK


def cmd_div_curl(args) -> int:
    cfg = load_config(args.config)
    grid = build_grid(cfg)
    spec = build_spec(cfg)
    d = _input_data(args, cfg, grid, spec)
    p = build_heat_params(cfg, grid)
    outdir = _outdir(cfg, args)
    _write_resolved(cfg, outdir)
    cal = tangent.div_curl_decompose(d.a, d.e, p)
    snap.write_snapshot(outdir / "tangent_b.ymf", cal.b.b, grid, spec, snap.KIND_ELECTRIC, 0.0)
    snap.write_snapshot(outdir / "a0.ymf", cal.a0[None], grid, spec, snap.KIND_SCALARSET, 0.0)
    recon = np.empty_like(d.e)
    for j in range(1, 5):
        recon[j - 1] = cal.b.b[j - 1] - gaugefield.covariant_derivative(d.a, cal.a0, j)
    _write_report(
        outdir,
        "report.json",
        {
            "tangent_residual": cal.b.tangent_residual,
            "reconstruction_residual": grid.l2norm(recon - d.e),
            "tail_flagged": cal.tail_flagged,
        },
    )
    return EXIT_OK


def cmd_ed_norm(args) -> int:
    cfg = load_config(args.config)
    grid = build_grid(cfg)
    spec = build_spec(cfg)
    d = _input_data(args, cfg, grid, spec)
    outdir = _outdir(cfg, args)
    _write_resolved(cfg, outdir)
    F = gaugefield.curvature(d.a)
    blocks = spectral.make_blocks(grid)
    rows = spectral.lp_block_sups(F, blocks)
    _write_csv(outdir / "ed.csv", ["k [dyadic]", "weighted_block_sup [1/len^2]"], rows)
    m = cfg.get("diagnostics", "ed_truncation", default=blocks.k_min, cast=int)
    _write_report(
        outdir,
        "report.json",
        {
            "ed_norm": spectral.sup_above(rows, -np.inf),
            "ed_norm_truncated": spectral.sup_above(rows, m),
            "truncation_index": m,
        },
    )
    return EXIT_OK


def cmd_morawetz(args) -> int:
    cfg = load_config(args.config)
    grid = build_grid(cfg)
    spec = build_spec(cfg)
    d = _input_data(args, cfg, grid, spec)
    p = build_wave_params(cfg, grid)
    outdir = _outdir(cfg, args)
    _write_resolved(cfg, outdir)
    eps = cfg.get("diagnostics", "eps", default=1.0, cast=float)
    vertex = cfg.get_floats("diagnostics", "vertex", default=(0.0, 0.0, 0.0, 0.0, 0.0))
    t1 = cfg.get("diagnostics", "t1", cast=float)
    t2 = cfg.get("diagnostics", "t2", cast=float)
    snapshots = wave.run_wave(d, p)
    report = morawetz.morawetz_identity_residual(snapshots, vertex, eps, t1, t2)
    _write_csv(
        outdir / "morawetz.csv",
        [
            "t [len]",
            "eps [len]",
            "weighted_energy [1]",
            "dissipation [1]",
            "boundary [1]",
            "residual [rel]",
        ],
        [
            (
                report.t,
                report.eps,
                report.weighted_energy,
                report.interior_dissipation_accum,
                report.boundary_term,
                report.identity_residual,
            )
        ],
    )
    _write_report(
        outdir,
        "report.json",
        {
            "weighted_energy_start": report.weighted_energy_start,
            "weighted_energy_end": report.weighted_energy,
            "dissipation": report.interior_dissipation_accum,
            "boundary": report.boundary_term,
            "identity_residual": report.identity_residual,
        },
    )
    if report.interior_dissipation_accum < 0:
        print("invariant violation: negative interior dissipation", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_regress(args) -> int:
    """Run the fixed miniature battery; compare or update golden outputs."""
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    battery = _regress_battery(workdir)
    if args.golden:
        golden = Path(args.golden)
        if args.update:
            golden.mkdir(parents=True, exist_ok=True)
            for name, path in battery:
                (golden / name).write_bytes(path.read_bytes())
            return EXIT_OK
        for name, path in battery:
            ref = golden / name
            if not ref.exists():
                print(f"golden file missing: {name}", file=sys.stderr)
                return EXIT_INVARIANT
            if ref.read_bytes() != path.read_bytes():
                print(f"golden mismatch: {name}", file=sys.stderr)
                return EXIT_INVARIANT
    return EXIT_OK


def _regress_battery(workdir: Path):
    """Small deterministic end-to-end runs; returns (name, path) pairs."""
    grid = Grid4(n=8, h=0.5)
    spec = algebra.su2()
    d = data.random_data(grid, spec, seed=7, amplitude=0.05, k_band=1)
    p = heatflow.HeatParams(ds=0.02 * grid.h**2, s_max=0.2)
    traj = heatflow.run_heat(d.a, p)
    _dump_heat_csv(workdir, traj)
    wp = wave.WaveParams(dt=0.25 * grid.h, t_end=0.5)
    snaps = wave.run_wave(d, wp)
    _dump_wave_csv(workdir, snaps)
    state = np.concatenate([snaps[-1].a.a, snaps[-1].adot], axis=0)
    snap.write_snapshot(workdir / "final.ymf", state, grid, spec, snap.KIND_WAVE_STATE, snaps[-1].t)
    return [
        ("heat.csv", workdir / "heat.csv"),
        ("wave.csv", workdir / "wave.csv"),
        ("final.ymf", workdir / "final.ymf"),
    ]


# -- entry point -------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ym4", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, needs_input in [
        ("gen-data", cmd_gen_data, False),
        ("heat", cmd_heat, True),
        ("wave", cmd_wave, True),
        ("caloric", cmd_caloric, True),
        ("div-curl", cmd_div_curl, True),
        ("ed-norm", cmd_ed_norm, True),
        ("morawetz", cmd_morawetz, True),
    ]:
        sp = sub.add_parser(name)
        sp.add_argument("config")
        sp.add_argument("--out", default=None)
        if needs_input:
            sp.add_argument("--input", default=None, help="input snapshot file")
        sp.set_defaults(fn=fn)
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
