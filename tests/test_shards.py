"""The two-shard gradient step against one graph over the whole batch, and
the shard worker's lifecycle: training is byte-identical on one or two
processes, no worker outlives ``train``, and a worker's error is raised in
the parent.  Tests that need the worker force the process count through
``shard_processes``; they run on any host with fork, one CPU included.
"""

import multiprocessing
import os

import numpy as np
import pytest

import reference
import tada.shards
from helpers import random_series, redraw_params, tiny_config, tiny_model
from tada.errors import DataError, TrainingError
from tada.model import TadaModel
from tada.optim import Adam
from tada.shards import ShardedStep, shard_processes, split_batch
from tada.training import train
from test_training import small_data

TOL = 1e-12

needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="no fork on this platform")

MODES = {"sequence": ("sequence", {}), "step": ("step", {}),
         "setting1": ("sequence", {"keyvalue_variant": "setting1"}),
         "setting2": ("sequence", {"keyvalue_variant": "setting2"}),
         "no_dla": ("sequence", {"no_dla": True}),
         "hard": ("sequence", {"window_mode": "hard"})}


@pytest.fixture
def processes(monkeypatch):
    """Force the process count; a worker also needs one-thread BLAS."""
    def force(n):
        monkeypatch.setattr(tada.shards, "shard_processes", lambda: n)
        for var in tada.shards.BLAS_THREAD_VARS:
            monkeypatch.setenv(var, "1")
    return force


def test_split_batch_puts_the_larger_half_first():
    assert [list(s) for s in split_batch(np.arange(7))] == [[0, 1, 2, 3], [4, 5, 6]]
    assert [list(s) for s in split_batch(np.arange(6))] == [[0, 1, 2], [3, 4, 5]]
    assert [list(s) for s in split_batch(np.array([5]))] == [[5]]


@pytest.mark.parametrize("n_procs", [1, pytest.param(2, marks=needs_fork)])
@pytest.mark.parametrize("mode", list(MODES))
def test_combined_shard_gradient_matches_one_graph(mode, n_procs, processes):
    processes(n_procs)
    task, flags = MODES[mode]
    model = tiny_model(n_features=3, task=task, **flags)
    redraw_params(model, seed=1)
    rng = np.random.default_rng(3)
    series = []
    for i in range(7):
        n = int(rng.integers(2, 12))
        label = tuple(int(y) for y in rng.integers(0, 2, size=n)) if task == "step" else i % 2
        series.append(random_series(rng, n, 3, sid=f"s{i}", label=label))
    preps = [model.prepare(s) for s in series]
    # shuffled and odd: shards of four and three samples of unequal lengths
    indices = np.array([4, 0, 6, 2, 5, 1, 3])
    want_loss, want = reference.one_graph_gradients(model, [preps[i] for i in indices])
    with ShardedStep(model, preps) as step:
        loss = step(indices)
    assert abs(loss - want_loss) <= TOL * abs(want_loss)
    for k, p in model.trainable().items():
        if want[k] is None:
            assert p.grad is None, k
            continue
        scale = np.abs(want[k]).max()
        assert scale > 0.0, k
        assert np.abs(p.grad - want[k]).max() <= TOL * scale, k


@needs_fork
def test_train_is_byte_identical_on_one_or_two_processes(processes, monkeypatch):
    train_samples, val_samples = small_data()
    # batches of 5, 5, 5 and 1: odd shards, and a batch of one, one shard
    cfg = tiny_config(max_epochs=3, patience=0, batch_size=5)
    children = []
    adam_step = Adam.step

    def counting_step(opt):
        children.append(len(multiprocessing.active_children()))
        adam_step(opt)

    monkeypatch.setattr(Adam, "step", counting_step)
    runs = {}
    for n in (1, 2):
        processes(n)
        children.clear()
        runs[n] = train(cfg, train_samples, val_samples, 2, 2, "sequence")
        assert set(children) == {n - 1}
    one, two = runs[1], runs[2]
    assert one.history == two.history
    assert one.best_epoch == two.best_epoch
    for k, p in one.model.params.items():
        assert p.data.tobytes() == two.model.params[k].data.tobytes(), k


def test_process_count_is_at_most_two_and_starts_nothing(monkeypatch):
    def no_process(*args, **kwargs):
        raise AssertionError("counting started a process")

    monkeypatch.setattr(os, "fork", no_process)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
    for cpus, want in ((64, 2), (2, 2), (1, 1), (0, 1)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: set(range(c)),
                            raising=False)
        assert shard_processes() == want
    # where the platform has no affinity call, the CPU count stands in
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert shard_processes() == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert shard_processes() == 1
    assert multiprocessing.active_children() == []


def test_no_worker_without_one_thread_blas(processes, monkeypatch):
    processes(2)
    monkeypatch.setenv("OMP_NUM_THREADS", "4")
    model = tiny_model()
    with ShardedStep(model, []) as step:
        assert step._proc is None


@needs_fork
@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs and an affinity call")
def test_parent_and_worker_run_on_disjoint_cpus(processes, monkeypatch):
    processes(2)
    before = os.sched_getaffinity(0)
    seen = []
    adam_step = Adam.step

    def recording_step(opt):
        (worker,) = multiprocessing.active_children()
        seen.append((os.sched_getaffinity(0), os.sched_getaffinity(worker.pid)))
        adam_step(opt)

    monkeypatch.setattr(Adam, "step", recording_step)
    train_samples, val_samples = small_data()
    train(tiny_config(max_epochs=1, batch_size=8), train_samples, val_samples,
          2, 2, "sequence")
    assert seen
    for parent_cpus, worker_cpus in seen:
        assert parent_cpus and worker_cpus and not parent_cpus & worker_cpus
        assert parent_cpus | worker_cpus == before
    # the caller gets its own CPU set back
    assert os.sched_getaffinity(0) == before


@needs_fork
def test_no_worker_outlives_train(processes, monkeypatch):
    processes(2)
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    train_samples, val_samples = small_data()
    train(tiny_config(max_epochs=1, batch_size=8), train_samples, val_samples,
          2, 2, "sequence")
    assert multiprocessing.active_children() == []

    with np.errstate(all="ignore"), pytest.raises(TrainingError, match="epoch 0"):
        train(tiny_config(lr=float("inf"), max_epochs=5, batch_size=8),
              train_samples, val_samples, 2, 2, "sequence")
    assert multiprocessing.active_children() == []

    # Ctrl-C in the second step of the first epoch
    workers = []
    adam_step = Adam.step

    def interrupted_step(opt):
        workers.append(len(multiprocessing.active_children()))
        if len(workers) == 2:
            raise KeyboardInterrupt
        adam_step(opt)

    monkeypatch.setattr(Adam, "step", interrupted_step)
    with pytest.raises(KeyboardInterrupt):
        train(tiny_config(max_epochs=2, batch_size=4), train_samples, val_samples,
              2, 2, "sequence")
    assert workers == [1, 1]
    assert multiprocessing.active_children() == []
    if hasattr(os, "sched_getaffinity"):
        assert os.sched_getaffinity(0) == cpus


def in_worker(parent_pid, action):
    """``TadaModel.batch_loss`` that runs ``action`` first in the worker only."""
    batch_loss = TadaModel.batch_loss

    def patched(self, preps):
        if os.getpid() != parent_pid:
            action()
        return batch_loss(self, preps)
    return patched


@needs_fork
def test_worker_tada_error_is_raised_in_the_parent(processes, monkeypatch, capfd):
    processes(2)

    def refuse():
        raise DataError("shard 1 refused")

    monkeypatch.setattr(TadaModel, "batch_loss", in_worker(os.getpid(), refuse))
    train_samples, val_samples = small_data()
    with pytest.raises(DataError, match="^shard 1 refused$"):
        train(tiny_config(max_epochs=1, batch_size=8), train_samples, val_samples,
              2, 2, "sequence")
    assert multiprocessing.active_children() == []
    assert "Traceback" not in capfd.readouterr().err


@needs_fork
def test_worker_bug_is_raised_in_the_parent_with_its_traceback(processes, monkeypatch):
    processes(2)

    def fail():
        raise ZeroDivisionError("in the worker")

    monkeypatch.setattr(TadaModel, "batch_loss", in_worker(os.getpid(), fail))
    train_samples, val_samples = small_data()
    with pytest.raises(RuntimeError, match="(?s)shard worker failed:.*ZeroDivisionError"):
        train(tiny_config(max_epochs=1, batch_size=8), train_samples, val_samples,
              2, 2, "sequence")
    assert multiprocessing.active_children() == []


@needs_fork
def test_worker_death_is_a_training_error_naming_the_epoch(processes, monkeypatch):
    processes(2)
    monkeypatch.setattr(TadaModel, "batch_loss", in_worker(os.getpid(), lambda: os._exit(7)))
    train_samples, val_samples = small_data()
    with pytest.raises(TrainingError, match=r"shard worker died \(exit code 7\) at epoch 0"):
        train(tiny_config(max_epochs=1, batch_size=8), train_samples, val_samples,
              2, 2, "sequence")
    assert multiprocessing.active_children() == []
