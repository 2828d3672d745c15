"""One BLAS thread for the whole test run, set before any test module
imports numpy, as ``tada`` itself and the benchmark do: training then forks
its shard worker here as it does in ``tada train``.

Every test must also leave no ``multiprocessing`` child running and, where
the platform has an affinity call, this process on the CPUs it started on:
a shard worker that outlives its step, or a parent still pinned to its half
after one, is a leak in training and in evaluation.  A test that leaves
either fails, and the child is ended or the CPU set given back, so it
cannot fail the tests after it."""

import multiprocessing
import os

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


@pytest.fixture(autouse=True)
def no_child_or_pin_left():
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    yield
    leaks = []
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    if left:
        leaks.append(f"test left {len(left)} process(es) running: "
                     + ", ".join(f"{c.name} (pid {c.pid})" for c in left))
    if cpus is not None and os.sched_getaffinity(0) != cpus:
        leaks.append(f"test left this process pinned to CPUs {sorted(os.sched_getaffinity(0))}"
                     f", not {sorted(cpus)}")
        os.sched_setaffinity(0, cpus)
    if leaks:
        pytest.fail("; ".join(leaks), pytrace=False)
