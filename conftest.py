"""Session settings that must be in place before numpy is imported.

pytest loads this file before it collects any test module, and so before
perfbench/test_tracer.py or tests/conftest.py import numpy.  BLAS gets one
thread per call unless the environment already says otherwise: the kernels
spread their own work over the usable CPUs, and OpenBLAS threads on top of
that oversubscribe them (the morawetz_runs fixture and acceptance
criterion 6 ran about 27 % faster on a 2-core host with BLAS on one
thread than with BLAS threading at its default).

At the end of the session it prints the peak resident set size of the
pytest process and of the largest child process it waited for.
"""

import os
import resource

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def pytest_terminal_summary(terminalreporter):
    # ru_maxrss is in KiB on Linux
    own, child = (
        resource.getrusage(who).ru_maxrss / 1024
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    terminalreporter.write_line(
        f"peak RSS: pytest process {own:.0f} MiB, largest child {child:.0f} MiB"
    )
