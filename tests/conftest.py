"""One BLAS thread for the whole test run, set before any test module
imports numpy, as ``tada`` itself and the benchmark do: training then forks
its shard worker here as it does in ``tada train``."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
