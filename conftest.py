"""Session settings that must be in place before numpy is imported.

pytest loads this file before it collects any test module, and so before
perfbench/test_tracer.py or tests/conftest.py import numpy.  BLAS gets one
thread per call unless the environment already says otherwise: the kernels
spread their own work over the usable CPUs, and OpenBLAS threads on top of
that oversubscribe them (the morawetz_runs fixture and acceptance
criterion 6 ran about 27 % faster on a 2-core host with BLAS on one
thread than with BLAS threading at its default).

At the end of the session it prints the peak resident set size of the
pytest process and of the largest child process it waited for.  With
--tier1-record PATH it also writes them to PATH as JSON, with each test's
duration in seconds (set-up, call and tear-down summed):

    {"peak_rss_mib": {"pytest": ..., "largest_child": ...},
     "duration_s": {"<node id>": ..., ...}}
"""

import json
import os
import resource

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

_durations = {}  # node id -> seconds


def pytest_addoption(parser):
    parser.addoption(
        "--tier1-record",
        metavar="PATH",
        default=None,
        help="write each test's duration and the session's peak RSS to PATH as JSON",
    )


def pytest_runtest_logreport(report):
    _durations[report.nodeid] = _durations.get(report.nodeid, 0.0) + report.duration


def pytest_terminal_summary(terminalreporter, config):
    # ru_maxrss is in KiB on Linux
    own, child = (
        resource.getrusage(who).ru_maxrss / 1024
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    terminalreporter.write_line(
        f"peak RSS: pytest process {own:.0f} MiB, largest child {child:.0f} MiB"
    )
    path = config.getoption("tier1_record")
    if path:
        record = {"peak_rss_mib": {"pytest": own, "largest_child": child}, "duration_s": _durations}
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
