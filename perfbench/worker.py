"""One benchmark process: build a workload's inputs, then time passes of it.

Started by run.py.  It prints ``READY <CLOCK_MONOTONIC seconds>`` once the
inputs are built (run.py turns that into a set-up time) and, unless
``--probe``, a JSON line with every pass's wall time, checks and output
digest, the process peak RSS and, with ``--trace 1``, the per-layer metrics.

With ``--trace 1`` untraced and traced passes alternate (at least one of
each), the set-up is traced too, and per-layer figures are one set-up plus
the mean of the traced passes.  The end-to-end metrics always come from
untraced passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracer as tr  # noqa: E402
import workloads  # noqa: E402

RUN_DIR = HERE / "_run"


def percentiles(samples):
    """(p50, tail): the tail is the highest whole percentile with at least
    ten samples beyond it, or the median below twenty samples."""
    if not samples:
        return 0.0, 0.0
    q = int(np.floor(100.0 * (1.0 - 10.0 / len(samples)))) if len(samples) >= 20 else 50
    return float(np.percentile(samples, 50)), float(np.percentile(samples, q))


def cpu_seconds():
    t = os.times()
    return t.user + t.system


def environment():
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "caches_per_core": caches,
        "threads_env": {
            k: os.environ.get(k, "")
            for k in ("YM4_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def layer_metrics(spans, traced, untraced):
    """Per-layer metrics from the set-up spans plus the mean traced pass."""
    setup_idx = tr.select(spans, "setup")
    runs = [tr.select(spans, p["run_id"]) for p in traced]

    def over(fn):
        """fn(span indices) for the set-up plus its mean over traced passes."""
        return fn(setup_idx) + statistics.fmean(fn(idx) for idx in runs)

    setup = tr.aggregate(spans, setup_idx)
    per_pass = [tr.aggregate(spans, idx) for idx in runs]

    def total(name, field="self_s"):
        return setup.get(name, {}).get(field, 0) + statistics.fmean(
            a.get(name, {}).get(field, 0) for a in per_pass
        )

    m = {}
    for name in ("grid.partial", "algebra.bracket_arr", "gaugefield.curvature",
                 "gaugefield.curvature_tension", "gaugefield.covariant_divergence",
                 "gaugefield.covariant_poisson", "wave.run_wave", "wave.wave_step",
                 "workbench.snapshot.write_snapshot", "workbench.snapshot.read_snapshot"):
        m[f"{name}.calls"] = total(name, "calls")
        m[f"{name}.self_s"] = total(name)
    m["grid.partial.bytes"] = total("grid.partial", "value")
    m["grid.fft.calls"] = total("grid.fft", "calls") + total("grid.ifft", "calls")
    m["grid.fft.self_s"] = total("grid.fft") + total("grid.ifft")
    for name in ("grid.laplace_inverse", "gaugefield.gauss_project", "gaugefield.concentration_scale",
                 "data.random_data", "data.random_connection", "data.bpst",
                 "heatflow.run_heat", "heatflow.caloric_project", "heatflow.flat_trivialize",
                 "tangent.div_curl_decompose", "tangent.tangent_residual",
                 "morawetz.morawetz_identity_residual", "morawetz.interior_dissipation",
                 "morawetz.weighted_energy", "morawetz.energy_momentum",
                 "morawetz.null_decompose", "morawetz.iota_xf",
                 "spectral.ed_norm", "spectral.lp_project", "workbench.config.load_config"):
        m[f"{name}.self_s"] = total(name)
    for name in ("workbench.snapshot.write_snapshot", "workbench.snapshot.read_snapshot"):
        m[f"{name}.bytes"] = total(name, "value")

    # gauss_project solves without deflation, where PCG applies its FFT
    # preconditioner once per iteration: iterations = forward FFTs made
    # directly inside covariant_poisson
    m["gaugefield.covariant_poisson.cg_iters"] = over(
        lambda idx: sum(
            1
            for i in idx
            if spans[i][tr.NAME] == "grid.fft"
            and spans[i][tr.PARENT] >= 0
            and spans[spans[i][tr.PARENT]][tr.NAME] == "gaugefield.covariant_poisson"
        )
    )

    heat_steps = total("heatflow.run_heat", "value")
    heat_curv = over(lambda idx: tr.count_under(spans, idx, "gaugefield.curvature", "heatflow.run_heat"))
    m["heatflow.steps"] = heat_steps
    m["heatflow.curvature_per_step"] = heat_curv / heat_steps if heat_steps else 0.0
    heat_dt = [b - a for p in traced for marks in p["heat_marks"] for a, b in zip(marks, marks[1:])]
    p50, tail = percentiles(heat_dt)
    m.update({"heatflow.step_s.p50": p50, "heatflow.step_s.tail": tail,
              "heatflow.step_s.n": len(heat_dt)})

    wave_dt = []
    for idx in runs:
        starts = {}
        for i in idx:
            if spans[i][tr.NAME] == "wave.wave_step":
                starts.setdefault(spans[i][tr.PARENT], []).append(spans[i][tr.START])
        for parent, marks in starts.items():
            # the last step ends where run_wave returns
            marks = sorted(marks) + [spans[parent][tr.END]]
            wave_dt += [b - a for a, b in zip(marks, marks[1:])]
    p50, tail = percentiles(wave_dt)
    m.update({"wave.step_s.p50": p50, "wave.step_s.tail": tail, "wave.step_s.n": len(wave_dt)})
    wave_steps = m["wave.wave_step.calls"]
    wave_curv = over(lambda idx: tr.count_under(spans, idx, "gaugefield.curvature", "wave.run_wave"))
    m["wave.curvature_per_step"] = wave_curv / wave_steps if wave_steps else 0.0
    m["wave.snapshots_held"] = total("wave.run_wave", "value")

    for stage in ("gen-data", "ed-norm", "heat", "wave"):
        m[f"workbench.cli.{stage}.s"] = statistics.fmean(p["stage_s"].get(stage, 0.0) for p in traced)
    m["process.cpu_s"] = statistics.median(p["cpu_s"] for p in untraced)
    m["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                             - statistics.median(p["wall_s"] for p in untraced))
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="exit once the inputs are built")
    args = ap.parse_args(argv)

    setup, run = workloads.WORKLOADS[args.workload]
    tracer = tr.Tracer() if args.trace else None
    RUN_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR)
    try:
        if tracer:
            with tracer:
                inputs = setup(args.seed, workdir)
        else:
            inputs = setup(args.seed, workdir)
        print(f"READY {time.monotonic()!r}", flush=True)
        if args.probe:
            return 0

        passes = []
        deadline = time.monotonic() + args.seconds
        while True:
            traced = bool(tracer) and len(passes) % 2 == 1
            rec = workloads.Record()
            run_id = f"pass{len(passes)}"
            if traced:
                tracer.run_id = run_id
                tracer.install()
            c0, t0 = cpu_seconds(), time.perf_counter()
            try:
                run(inputs, rec)
                raised = None
            except Exception as err:  # a failing pass is reported, not fatal
                raised = err
                rec.check("pass completes", False, f"{type(err).__name__}: {err}")
            finally:
                t1, c1 = time.perf_counter(), cpu_seconds()
                if traced:
                    tracer.uninstall()
            passes.append({
                "run_id": run_id, "traced": traced, "wall_s": t1 - t0, "cpu_s": c1 - c0,
                "checks": rec.checks, "digest": None if raised else rec.digest(),
                "heat_marks": rec.heat_marks, "stage_s": rec.stage_s,
            })
            if raised is not None:
                break
            kinds = {p["traced"] for p in passes}
            if (not tracer or len(kinds) == 2) and time.monotonic() + statistics.median(
                p["wall_s"] for p in passes
            ) > deadline:
                break

        first = passes[0]["digest"]
        for p in passes[1:]:
            if p["digest"] is not None:
                p["checks"].append({"name": "output bitwise equal to the first pass",
                                    "ok": p["digest"] == first, "detail": p["digest"]})
        result = {
            "passes": [{k: p[k] for k in ("traced", "wall_s", "cpu_s", "checks", "digest", "stage_s")}
                       for p in passes],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "env": environment(),
        }
        traced_passes = [p for p in passes if p["traced"]]
        if traced_passes:  # absent only when the first pass raised
            untraced = [p for p in passes if not p["traced"]]
            result["per_layer"] = layer_metrics(tracer.spans, traced_passes, untraced)
        if tracer:
            spans_file = RUN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            tracer.write(spans_file, args.workload, args.seed)
            result["spans_file"] = str(spans_file.relative_to(ROOT))
            result["spans"] = len(tracer.spans)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
