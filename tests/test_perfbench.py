"""The benchmark's hooks and checks run against this tree.

perfbench wraps tada's functions by name and checks gradients, losses and
streamed outputs; a refactor that breaks either shows here, not only in a
benchmark run.
"""

import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads
    return workloads


def assert_clean(out):
    """No failed check or operation, and every metric a finite number:
    ``perfbench/run.py`` exits 1 on any of these."""
    import run
    assert out.problems == []
    assert out.attempted > 0 and out.failed == 0
    assert run._non_finite(out.metrics) == []


def test_traced_eval_stream_runs_clean(workloads, tmp_path):
    out = workloads.run("eval_stream", 0, 1, str(tmp_path), trace=True)
    assert_clean(out)
    assert out.metrics["dla.forward_calls"][0] > 0
    assert out.metrics["embedding.te_forward_calls"][0] > 0


def test_traced_train_short_runs_clean(workloads, tmp_path):
    # the first-batch checks: batch_loss against the mean sample_loss,
    # batch gradients against the mean per-sample gradients, and the
    # directional finite-difference check
    out = workloads.run("train_short", 0, 1, str(tmp_path), trace=True)
    assert_clean(out)
    assert out.metrics["tensor.backward_calls"][0] > 0


def test_train_long_runs_clean(workloads, tmp_path):
    # the benchmark's correctness checks on the long-series workload: a
    # failed check makes perfbench/run.py exit 1
    out = workloads.run("train_long", 9, 1, str(tmp_path), trace=False)
    assert_clean(out)
