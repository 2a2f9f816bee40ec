"""Outputs pinned to the byte: the ym4 regress files and one pass of each
benchmark workload.

tests/digests.json records, for one build (the Python, numpy and scipy
versions and platform.machine()):

- the sha256 of each file that ``ym4 regress`` writes;
- the output digest of one seed-1 pass of each workload of the benchmark
  (heat-caloric, cli-pipeline, wave-morawetz), computed by the pass code of
  perfbench/workloads.py, which is loaded from its file and not changed.

A change meant to keep every output byte keeps these digests.  Bits are
promised for one build of the libraries only, so on another build the tests
skip and name what differs.  After a change that moves outputs on purpose,
rewrite the file with

    PYTHONPATH=src python tests/test_digests.py
"""

import hashlib
import importlib.util
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from ym4.workbench import cli

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("digests.json")
PASS_SEED = 1
WORKLOADS = ("heat-caloric", "cli-pipeline", "wave-morawetz")


def build():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def regress_digests(workdir):
    """sha256 of every file ``ym4 regress workdir`` writes, by name."""
    assert cli.main(["regress", str(workdir)]) == 0
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(workdir.iterdir())
    }


def pass_digest(name, workdir):
    """Output digest of one pass of the named benchmark workload at PASS_SEED."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    setup, run = workloads.WORKLOADS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    rec = workloads.Record()
    run(setup(PASS_SEED, workdir), rec)
    assert [c["name"] for c in rec.checks if not c["ok"]] == []
    return rec.digest()


@pytest.fixture(scope="module")
def recorded():
    want = json.loads(DIGESTS.read_text())
    here = build()
    diff = [f"{k} {v} (recorded {want['build'][k]})" for k, v in here.items() if v != want["build"][k]]
    if diff:
        pytest.skip("digests were recorded on another build; here " + ", ".join(diff))
    return want


def test_regress_files_match_recorded_digests(recorded, tmp_path):
    assert regress_digests(tmp_path) == recorded["regress"]


def test_heat_caloric_pass_matches_recorded_digest(recorded, tmp_path):
    assert pass_digest("heat-caloric", tmp_path) == recorded["passes_seed1"]["heat-caloric"]


def test_cli_pipeline_pass_matches_recorded_digest(recorded, tmp_path):
    assert pass_digest("cli-pipeline", tmp_path) == recorded["passes_seed1"]["cli-pipeline"]


def test_wave_morawetz_pass_matches_recorded_digest(recorded, tmp_path):
    assert pass_digest("wave-morawetz", tmp_path) == recorded["passes_seed1"]["wave-morawetz"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {
            "build": build(),
            "regress": regress_digests(Path(tmp) / "regress"),
            "passes_seed1": {
                name: pass_digest(name, Path(tmp) / name) for name in WORKLOADS
            },
        }
    DIGESTS.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {DIGESTS}")
