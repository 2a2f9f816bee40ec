"""ym4 benchmark entry point: one workload, closed loop, one client.

    python3 perfbench/run.py --workload heat-caloric --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Every measurement runs in a fresh worker process (worker.py) started from
the root of the checkout, which imports ym4 from ``src/``.  Set-up time is
measured several times, by probe workers that build the inputs and exit
plus the measuring worker itself, and reported as the median.  The
measuring worker then repeats passes of the workload for ``--seconds``
seconds, starting no pass that it expects to end after that, and always
making at least one.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s`` (median
pass), ``setup_s`` and ``peak_rss_mb``.  With ``--trace 1`` they are the
per-layer ones from a traced run.  Lines before the last give each metric
with its unit, quartiles and sample count, the checks (``checks_failed``)
and a JSON record with the environment, check details and output digests.
The last line is the result: ``{"correct", "attempted", "failed",
"metrics"}``.

BLAS/OpenMP thread counts default to 1 and are capped at the CPUs this
process may use; the FFTs in ym4 run single-threaded whatever is set.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("heat-caloric", "wave-morawetz", "cli-pipeline")
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PROBES = 4  # extra set-ups per run, on top of the measuring worker's own
RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            want = int(env.get(var, "1"))
        except ValueError:
            want = 1
        env[var] = str(min(max(want, 1), nproc))
    env.pop("PYTHONPATH", None)  # ym4 comes from this checkout's src/ only
    return env


def spawn(args, env, timeout):
    """Run one worker; returns (set-up seconds, its JSON line or None)."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker exceeded {timeout:.0f} s: {' '.join(args)}") from err
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(args)}")
    lines = proc.stdout.splitlines()
    ready = [float(line.split()[1]) for line in lines if line.startswith("READY ")]
    if not ready:
        raise BenchError("worker never reported its inputs ready")
    payload = json.loads(lines[-1]) if lines[-1].startswith("{") else None
    return ready[0] - t0, payload


def spread(xs):
    """(median, q1, q3, n)."""
    xs = sorted(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return statistics.median(xs), q1, q3, len(xs)


def run_workload(workload, seed, seconds, trace, started):
    env = worker_env()
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(PROBES):
            setups.append(spawn(base + ["--seconds", "0", "--probe"], env, 60.0)[0])
    left = RUN_LIMIT_S - (time.monotonic() - started)
    setup, res = spawn(base + ["--seconds", str(seconds), "--trace", str(trace)], env, left)
    if res is None:
        raise BenchError("worker printed no result")
    setups.append(setup)
    checks = [c for p in res["passes"] for c in p["checks"]]
    failed = sum(1 for c in checks if not c["ok"])
    untraced = [p["wall_s"] for p in res["passes"] if not p["traced"]]
    stats = {"wall_s": spread(untraced), "setup_s": spread(setups), "peak_rss_mb": spread([res["peak_rss_mb"]])}
    if trace:
        del stats["setup_s"]  # the traced run's one set-up is traced, so not comparable
    for name, (med, q1, q3, n) in stats.items():
        print(f"{workload}  {name:<12} {med:12.6f} {UNITS[name]:<5} q1 {q1:.6f}  q3 {q3:.6f}  n {n}")
    print(f"{workload}  checks_failed {failed / len(checks):11.6f} share ({failed} of {len(checks)})")
    for c in checks:
        if not c["ok"]:
            print(f"{workload}  FAILED {c['name']}: {c['detail']}")
    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in res.get("per_layer", {}).items()}
    else:
        metrics = {k: {"value": v[0], "unit": UNITS[k]} for k, v in stats.items()}
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "stats": {k: dict(zip(("median", "q1", "q3", "n"), v)) for k, v in stats.items()},
        "setup_samples": setups,
        **res,
    }
    print(json.dumps({"record": record}))
    return {"correct": failed == 0, "attempted": len(checks), "failed": failed, "metrics": metrics}


def layer_unit(name):
    if name.endswith((".calls", ".steps", ".n", ".cg_iters", ".snapshots_held")):
        return "count"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_per_step"):
        return "ratio"
    return "s"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    started = time.monotonic()
    if not (ROOT / "src" / "ym4" / "__init__.py").is_file():
        print(f"no ym4 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {}
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, started)
            if args.workload == "all":
                started = time.monotonic()
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    if len(results) == 1:
        out = results[names[0]]
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
