"""The two-shard gradient step against one graph over the whole batch,
validation chunks on the shard worker, evaluation outside ``train`` on a
worker of its own past the fork rule, and the worker's lifecycle: training
and every evaluation are byte-identical on one or two processes, no worker
outlives ``train`` or an evaluation, and a worker's error is raised in the
parent, in a step, in validation or in evaluation.  Tests that need the
worker force the process count through ``shard_processes``, and lower
``CHUNK_STEPS`` so that small data crosses the rule; they run on any host
with fork, one CPU included.
"""

import dataclasses
import multiprocessing
import os

import numpy as np
import pytest

import reference
import tada.shards
from helpers import random_series, redraw_params, tiny_config, tiny_model
from hypothesis import given, settings
from hypothesis import strategies as st
from tada.errors import DataError, TrainingError
from tada.metrics import softmax_rows
from tada.model import TadaModel
from tada.optim import Adam
from tada.shards import (ShardedStep, padded_steps, shard_processes, split_batch,
                         split_chunks)
from tada.training import _chunks, evaluate_preps, train
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


def test_split_chunks_balances_padded_steps():
    # train_long's validation chunks: alternation would give 9170 and 7871
    assert split_chunks([4020, 4035, 3960, 3836, 1190]) == [[1, 3, 4], [0, 2]]
    assert split_chunks([64 * 30] * 8) == [[0, 2, 4, 6], [1, 3, 5, 7]]
    assert split_chunks([100]) == [[0], []]
    assert split_chunks([]) == [[], []]


@settings(deadline=None, max_examples=100, derandomize=True)
@given(st.lists(st.integers(1, 4096), max_size=12))
def test_split_chunks_covers_every_chunk_once(steps):
    here, there = split_chunks(steps)
    assert sorted(here + there) == list(range(len(steps)))
    assert here == sorted(here) and there == sorted(there)
    loads = [sum(steps[i] for i in side) for side in (here, there)]
    # each chunk went to the lighter side, so the sides differ by at most one chunk
    assert abs(loads[0] - loads[1]) <= max(steps, default=0)


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


def in_worker(parent_pid, action, method="batch_loss"):
    """``TadaModel.<method>`` that runs ``action`` first in the worker only.
    Training steps never call ``batch_logits``; validation does."""
    original = getattr(TadaModel, method)

    def patched(self, preps):
        if os.getpid() != parent_pid:
            action()
        return original(self, preps)
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


# validation on the worker ------------------------------------------------------


def recording(path, method):
    """``method`` that first appends the calling pid and the chunk's first
    sample id to ``path``, from either process."""
    def patched(self, preps):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()} {preps[0].sample_id}\n")
        return method(self, preps)
    return patched


def computed_by(path):
    """{pid: [first sample id of each chunk it computed]} from ``recording``."""
    by_pid = {}
    with open(path) as fh:
        for line in fh:
            pid, sid = line.split()
            by_pid.setdefault(int(pid), []).append(sid)
    return by_pid


def one_class(samples):
    return [dataclasses.replace(s, label=0) for s in samples]


@needs_fork
@pytest.mark.parametrize("selection", ["auprc", "neg_val_loss"])
def test_validation_is_byte_identical_on_one_or_two_processes(selection, processes,
                                                              monkeypatch, tmp_path):
    train_samples, val_samples = small_data()
    method = "batch_logits"
    if selection == "neg_val_loss":
        val_samples, method = one_class(val_samples), "batch_loss_value"
    # 8 validation samples in chunks of 3: chunks of 3, 3 and 2
    cfg = tiny_config(max_epochs=3, patience=0, batch_size=3)
    probe = tmp_path / "calls"
    monkeypatch.setattr(TadaModel, method, recording(probe, getattr(TadaModel, method)))
    runs, workers = {}, {}
    for n in (1, 2):
        processes(n)
        probe.write_text("")
        runs[n] = train(cfg, train_samples, val_samples, 2, 2, "sequence")
        workers[n] = {pid: sids for pid, sids in computed_by(probe).items()
                      if pid != os.getpid()}
    assert [r["selection"] for r in runs[1].history] == [selection] * 3
    assert repr(runs[1].history) == repr(runs[2].history)
    for k, p in runs[1].model.params.items():
        assert p.data.tobytes() == runs[2].model.params[k].data.tobytes(), k
    assert workers[1] == {}
    # each epoch the worker computed split_chunks's second set; only calls
    # on validation samples count
    chunks = _chunks(val_samples, 3)
    there = split_chunks([len(c) * max(len(s.times) for s in c) for c in chunks])[1]
    assert there
    (worker_sids,) = workers[2].values()
    val_ids = {s.sample_id for s in val_samples}
    assert [s for s in worker_sids if s in val_ids] == [chunks[i][0].sample_id
                                                       for i in there] * 3


@needs_fork
def test_validation_metric_keeps_its_arithmetic(processes):
    # one epoch keeps its own parameters, so the recorded metrics are those
    # of the final model, computed chunk by chunk in this process
    processes(2)
    train_samples, val_samples = small_data()
    cfg = tiny_config(max_epochs=1, batch_size=3)
    result = train(cfg, train_samples, val_samples, 2, 2, "sequence")
    model = result.model
    preps = [model.prepare(s) for s in val_samples]
    chunks = _chunks(preps, 3)
    rows = np.concatenate([softmax_rows(model.batch_logits(c)) for c in chunks])
    report = evaluate_preps(model, preps)
    assert result.history[0]["val_metric"] == report.auprc
    assert result.history[0]["val_accuracy"] == report.accuracy
    assert report.accuracy == np.mean(rows.argmax(axis=1) == [s.label for s in val_samples])

    val_samples = one_class(val_samples)
    result = train(cfg, train_samples, val_samples, 2, 2, "sequence")
    preps = [result.model.prepare(s) for s in val_samples]
    total = sum(result.model.batch_loss(c).item() * len(c) for c in _chunks(preps, 3))
    assert result.history[0]["val_metric"] == -(total / len(preps))


def no_process(*args, **kwargs):
    raise AssertionError("evaluation started a process")


@needs_fork
def test_evaluation_off_the_held_list_stays_in_process(processes, monkeypatch):
    processes(2)
    train_samples, val_samples = small_data()
    model = tiny_model(batch_size=3)
    redraw_params(model, seed=2)
    train_preps = [model.prepare(s) for s in train_samples]
    val_preps = [model.prepare(s) for s in val_samples]
    want = np.concatenate([softmax_rows(model.batch_logits(c)) for c in _chunks(val_preps, 3)])
    rows = []
    monkeypatch.setattr(tada.training, "softmax_rows",
                        lambda z: rows.append(softmax_rows(z)) or rows[-1])

    def evaluated(preps):
        rows.clear()
        evaluate_preps(model, preps)
        return np.concatenate(rows)

    monkeypatch.setattr(ShardedStep, "_send", no_process)
    # outside any step
    with monkeypatch.context() as m:
        m.setattr(os, "fork", no_process)
        m.setattr(multiprocessing.process.BaseProcess, "start", no_process)
        assert np.array_equal(evaluated(val_preps), want)
    with ShardedStep(model, train_preps, val_preps) as step:
        assert step._proc is not None
        # an equal list the worker does not hold, and the held list for
        # another model
        assert np.array_equal(evaluated(list(val_preps)), want)
        other = tiny_model(batch_size=3)
        evaluate_preps(other, val_preps)
    assert tada.shards._entered is None
    assert multiprocessing.active_children() == []


def train_with_validation_chunks():
    train_samples, val_samples = small_data()
    return train(tiny_config(max_epochs=2, batch_size=4), train_samples, val_samples,
                 2, 2, "sequence")


@needs_fork
def test_worker_tada_error_in_validation_is_raised_in_the_parent(processes, monkeypatch,
                                                                 capfd):
    processes(2)

    def refuse():
        raise DataError("validation refused")

    monkeypatch.setattr(TadaModel, "batch_logits", in_worker(os.getpid(), refuse, "batch_logits"))
    with pytest.raises(DataError, match="^validation refused$"):
        train_with_validation_chunks()
    assert multiprocessing.active_children() == []
    assert "Traceback" not in capfd.readouterr().err


@needs_fork
def test_worker_bug_in_validation_is_raised_with_its_traceback(processes, monkeypatch):
    processes(2)

    def fail():
        raise ZeroDivisionError("in validation")

    monkeypatch.setattr(TadaModel, "batch_logits", in_worker(os.getpid(), fail, "batch_logits"))
    with pytest.raises(RuntimeError,
                       match="(?s)shard worker failed:.*ZeroDivisionError: in validation"):
        train_with_validation_chunks()
    assert multiprocessing.active_children() == []


@needs_fork
def test_worker_death_in_validation_names_the_epoch(processes, monkeypatch):
    processes(2)
    monkeypatch.setattr(TadaModel, "batch_logits",
                        in_worker(os.getpid(), lambda: os._exit(9), "batch_logits"))
    with pytest.raises(TrainingError, match=r"^shard worker died \(exit code 9\) at epoch 0$"):
        train_with_validation_chunks()
    assert multiprocessing.active_children() == []


@needs_fork
def test_ctrl_c_in_validation_leaves_no_worker(processes, monkeypatch):
    processes(2)
    parent = os.getpid()
    workers = []
    batch_logits = TadaModel.batch_logits

    def interrupted(self, preps):
        # the parent's first chunk, while the worker computes its own
        if os.getpid() == parent:
            workers.append(len(multiprocessing.active_children()))
            raise KeyboardInterrupt
        return batch_logits(self, preps)

    monkeypatch.setattr(TadaModel, "batch_logits", interrupted)
    with pytest.raises(KeyboardInterrupt):
        train_with_validation_chunks()
    assert workers == [1]
    assert multiprocessing.active_children() == []
    assert tada.shards._entered is None


# evaluation outside a step ---------------------------------------------------


def eval_data():
    """A tiny model and 24 prepared samples, in chunks of three."""
    train_samples, val_samples = small_data()
    model = tiny_model(batch_size=3)
    redraw_params(model, seed=2)
    return model, [model.prepare(s) for s in train_samples + val_samples]


def worker_share(preps, batch_size):
    steps = padded_steps(_chunks(preps, batch_size))
    return sum(steps[i] for i in split_chunks(steps)[1])


def cross_the_rule(monkeypatch, preps, batch_size):
    """Lower CHUNK_STEPS to the longest chunk's padded steps: the chunks
    stay as they are, and the worker's share now holds a full chunk."""
    monkeypatch.setattr(tada.training, "CHUNK_STEPS",
                        max(padded_steps(_chunks(preps, batch_size))))
    assert worker_share(preps, batch_size) >= tada.training.CHUNK_STEPS


def rows_of(model, preps, monkeypatch):
    """evaluate_preps's softmax rows, in chunk order."""
    rows = []
    with monkeypatch.context() as m:
        m.setattr(tada.training, "softmax_rows", lambda z: rows.append(softmax_rows(z)) or rows[-1])
        report = evaluate_preps(model, preps)
    return np.concatenate(rows), report


@needs_fork
def test_evaluation_past_the_rule_forks_one_worker_for_the_call(processes, monkeypatch,
                                                                tmp_path):
    model, preps = eval_data()
    cross_the_rule(monkeypatch, preps, 3)
    processes(1)
    want, want_report = rows_of(model, preps, monkeypatch)
    processes(2)
    starts = []
    start = multiprocessing.process.BaseProcess.start
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        lambda self: starts.append(self.name) or start(self))
    probe = tmp_path / "calls"
    probe.write_text("")
    monkeypatch.setattr(TadaModel, "batch_logits",
                        recording(probe, TadaModel.batch_logits))
    got, report = rows_of(model, preps, monkeypatch)
    assert starts == ["tada-shard-1"]
    assert np.array_equal(got, want)
    assert report == want_report
    # the worker computed split_chunks's second set, the parent the first
    chunks = _chunks(preps, 3)
    here, there = split_chunks(padded_steps(chunks))
    by_pid = computed_by(probe)
    assert by_pid.pop(os.getpid()) == [chunks[i][0].sample_id for i in here]
    assert list(by_pid.values()) == [[chunks[i][0].sample_id for i in there]]
    assert tada.shards._entered is None
    assert multiprocessing.active_children() == []


@needs_fork
def test_evaluation_below_the_rule_or_without_a_worker_starts_nothing(processes,
                                                                      monkeypatch):
    model, preps = eval_data()
    want, _ = rows_of(model, preps, monkeypatch)
    processes(2)
    monkeypatch.setattr(os, "fork", no_process)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
    # the real rule: a worker's share of these chunks is far below a full chunk
    assert 0 < worker_share(preps, 3) < tada.training.CHUNK_STEPS
    assert np.array_equal(rows_of(model, preps, monkeypatch)[0], want)
    # one chunk more than the rule allows for
    monkeypatch.setattr(tada.training, "CHUNK_STEPS", worker_share(preps, 3) + 1)
    assert worker_share(preps, 3) < tada.training.CHUNK_STEPS
    assert np.array_equal(rows_of(model, preps, monkeypatch)[0], want)
    # past the rule, where no worker may run: one CPU, or multi-threaded BLAS
    cross_the_rule(monkeypatch, preps, 3)
    processes(1)
    assert np.array_equal(rows_of(model, preps, monkeypatch)[0], want)
    processes(2)
    monkeypatch.setenv("OMP_NUM_THREADS", "4")
    assert np.array_equal(rows_of(model, preps, monkeypatch)[0], want)
    assert multiprocessing.active_children() == []


def evaluate_past_the_rule(monkeypatch):
    model, preps = eval_data()
    cross_the_rule(monkeypatch, preps, 3)
    return evaluate_preps(model, preps)


@needs_fork
def test_evaluation_worker_failures_map_as_in_training(processes, monkeypatch, capfd):
    processes(2)
    parent = os.getpid()

    def refuse():
        raise DataError("evaluation refused")

    def fail():
        raise ZeroDivisionError("in evaluation")

    for action, error, message in (
            (refuse, DataError, "^evaluation refused$"),
            (fail, RuntimeError, "(?s)shard worker failed:.*ZeroDivisionError: in evaluation"),
            (lambda: os._exit(9), TrainingError, r"^shard worker died \(exit code 9\)$")):
        with monkeypatch.context() as m:
            m.setattr(TadaModel, "batch_logits", in_worker(parent, action, "batch_logits"))
            with pytest.raises(error, match=message):
                evaluate_past_the_rule(m)
        assert multiprocessing.active_children() == []
        assert tada.shards._entered is None
    assert "Traceback" not in capfd.readouterr().err


@needs_fork
def test_ctrl_c_in_evaluation_leaves_no_worker(processes, monkeypatch):
    processes(2)
    parent = os.getpid()
    workers = []
    batch_logits = TadaModel.batch_logits

    def interrupted(self, preps):
        # the parent's first chunk, while the worker computes its own
        if os.getpid() == parent:
            workers.append(len(multiprocessing.active_children()))
            raise KeyboardInterrupt
        return batch_logits(self, preps)

    monkeypatch.setattr(TadaModel, "batch_logits", interrupted)
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    with pytest.raises(KeyboardInterrupt):
        evaluate_past_the_rule(monkeypatch)
    assert workers == [1]
    assert multiprocessing.active_children() == []
    assert tada.shards._entered is None
    if cpus is not None:
        assert os.sched_getaffinity(0) == cpus
