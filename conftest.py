"""Session settings that must be in place before numpy is imported.

pytest loads this file before it collects any test module, and so before
perfbench/test_tracer.py or tests/conftest.py import numpy.  BLAS gets one
thread per call unless the environment already says otherwise: the kernels
spread their own work over the usable CPUs, and OpenBLAS threads on top of
that oversubscribe them (the morawetz_runs fixture and acceptance
criterion 6 ran about 27 % faster on a 2-core host with BLAS on one
thread than with BLAS threading at its default).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
