"""One BLAS thread for the whole test run, set before any test module
imports numpy, as ``tada`` itself and the benchmark do: training then forks
its shard worker here as it does in ``tada train``.

Every test must also leave no ``multiprocessing`` child running: a shard
worker that outlives its step is a leak in training and in evaluation, so
a test that leaves one fails, and the child is ended so it cannot fail the
tests after it."""

import multiprocessing
import os

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


@pytest.fixture(autouse=True)
def no_child_left_running():
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    if left:
        pytest.fail(f"test left {len(left)} process(es) running: "
                    + ", ".join(f"{c.name} (pid {c.pid})" for c in left), pytrace=False)
