"""The two-shard gradient step against one graph over the whole batch,
validation chunks on the shard worker, evaluation outside ``train`` on a
worker of its own past the fork rule, and the worker's lifecycle: training
and every evaluation are byte-identical on one or two processes, no worker
outlives ``train`` or an evaluation, and a worker's error is raised in the
parent, in a step, in validation or in evaluation.  Tests that need the
worker force it through ``_cpu_halves`` (``helpers.allow_worker``), and shape
chunks through ``n_queries`` and a lowered ``CHUNK_STEPS`` so that small
data crosses the rule; they run on any host with fork and an affinity call,
one CPU included.
"""

import dataclasses
import json
import multiprocessing
import os

import numpy as np
import pytest

import reference
import tada.shards
import tada.training
from helpers import (WORKER_POSSIBLE, allow_worker, build_series, random_series, redraw_params,
                     tiny_config, tiny_model)
from hypothesis import given, settings
from hypothesis import strategies as st
from tada.cli import _train_single
from tada.config import RunConfig
from tada.data import SynthConfig, synth_generate
from tada.errors import DataError, TrainingError
from tada.metrics import softmax_rows
from tada.model import TadaModel
from tada.optim import Adam
from tada.shards import (ShardedStep, _chunks, _cpu_halves, _length_order, split_batch,
                         split_chunks)
from tada.training import evaluate_preps, train
from test_training import small_data

TOL = 1e-12

needs_worker = pytest.mark.skipif(not WORKER_POSSIBLE,
                                  reason="no fork or no affinity call on this platform")

# anchors at least as many as any ``small_data`` series has steps: every
# sample pads to Q rows, so a CHUNK_STEPS of 3 * Q cuts runs of three
Q = 16

MODES = {"sequence": ("sequence", {}), "step": ("step", {}),
         "setting1": ("sequence", {"keyvalue_variant": "setting1"}),
         "setting2": ("sequence", {"keyvalue_variant": "setting2"}),
         "no_dla": ("sequence", {"no_dla": True}),
         "hard": ("sequence", {"window_mode": "hard"})}


@pytest.fixture
def processes(monkeypatch):
    """Force one process, or two: the parent and the shard worker."""
    return lambda n: allow_worker(monkeypatch, n == 2)


@pytest.fixture
def chunks_of_three(monkeypatch):
    """Cut every evaluated list of a model with ``n_queries=Q`` into runs of three."""
    monkeypatch.setattr(tada.shards, "CHUNK_STEPS", 3 * Q)


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


@pytest.mark.parametrize("n_procs", [1, pytest.param(2, marks=needs_worker)])
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
        scale = np.abs(want[k]).max()
        assert scale > 0.0, k
        assert np.abs(p.grad - want[k]).max() <= TOL * scale, k


@needs_worker
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
    # two disjoint halves of the CPU set, the parent's and the worker's, or
    # None: one process
    def no_process(*args, **kwargs):
        raise AssertionError("counting started a process")

    monkeypatch.setattr(os, "fork", no_process)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
    for cpus, want in ((64, (set(range(32)), set(range(32, 64)))), (5, ({0, 1}, {2, 3, 4})),
                       (2, ({0}, {1})), (1, None), (0, None)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: set(range(c)),
                            raising=False)
        assert _cpu_halves() == want
    # where the platform has no affinity call, a run uses one process
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert _cpu_halves() is None
    with ShardedStep(tiny_model(), []) as step:
        assert step.cpus is None and step._proc is None
    assert multiprocessing.active_children() == []


def test_no_worker_without_one_thread_blas(processes, monkeypatch):
    processes(2)
    monkeypatch.setenv("OMP_NUM_THREADS", "4")
    model = tiny_model()
    with ShardedStep(model, []) as step:
        assert step.cpus is None and step._proc is None


@needs_worker
@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs and an affinity call")
def test_parent_and_worker_run_on_disjoint_cpus(processes, monkeypatch):
    # at every Adam step of a two-process train, and at every chunk the
    # parent computes in an evaluation past the fork rule
    processes(2)
    before = os.sched_getaffinity(0)
    seen = []

    def record():
        (worker,) = multiprocessing.active_children()
        seen.append((os.sched_getaffinity(0), os.sched_getaffinity(worker.pid)))

    adam_step = Adam.step
    monkeypatch.setattr(Adam, "step", lambda opt: record() or adam_step(opt))
    train_samples, val_samples = small_data()
    train(tiny_config(max_epochs=1, batch_size=8), train_samples, val_samples,
          2, 2, "sequence")
    assert os.sched_getaffinity(0) == before
    steps = len(seen)
    parent, batch_logits = os.getpid(), TadaModel.batch_logits

    def recording_logits(self, preps):
        if os.getpid() == parent:
            record()
        return batch_logits(self, preps)

    monkeypatch.setattr(TadaModel, "batch_logits", recording_logits)
    evaluate_past_the_rule(monkeypatch)
    assert 0 < steps < len(seen)
    for parent_cpus, worker_cpus in seen:
        assert parent_cpus and worker_cpus and not parent_cpus & worker_cpus
        assert parent_cpus | worker_cpus == before
    # the caller gets its own CPU set back
    assert os.sched_getaffinity(0) == before


@needs_worker
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


@needs_worker
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


@needs_worker
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


@needs_worker
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
    """{pid: [what it recorded of each chunk it computed]} from ``recording``
    or ``chunk_recording``."""
    by_pid = {}
    with open(path) as fh:
        for line in fh:
            pid, chunk = line.split()
            by_pid.setdefault(int(pid), []).append(chunk)
    return by_pid


def one_class(samples):
    return [dataclasses.replace(s, label=0) for s in samples]


def test_length_order_sorts_by_padded_steps_then_observations():
    # padded steps max(T, n_queries = 4) first, then observation count; the
    # tie of b and e keeps list order
    model = tiny_model(n_features=2)
    per_step = {"a": (6, 1), "b": (2, 2), "c": (3, 1), "d": (6, 2), "e": (4, 1), "f": (5, 1)}
    preps = [model.prepare(build_series([(k / T, [(f, 1.0) for f in range(n)]) for k in range(T)],
                                        sid=sid))
             for sid, (T, n) in per_step.items()]
    assert [p.sample_id for p in _length_order(preps, 4)] == list("cbefad")


def chunk_recording(path):
    """``ShardedStep._chunk_rows`` that first appends the calling pid and the
    chunk's index to ``path``, from either process."""
    chunk_rows = ShardedStep._chunk_rows

    def patched(self, i):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()} {i}\n")
        return chunk_rows(self, i)
    return patched


def planned_chunks(preps, n_queries):
    """The chunks and padded steps ``train`` plans for ``preps``."""
    return _chunks(_length_order(preps, n_queries), n_queries)


@needs_worker
@pytest.mark.parametrize("selection", ["auprc", "neg_val_loss"])
def test_validation_is_byte_identical_on_one_or_two_processes(selection, processes,
                                                              chunks_of_three, monkeypatch,
                                                              tmp_path):
    train_samples, val_samples = small_data()
    if selection == "neg_val_loss":
        val_samples = one_class(val_samples)
    # 8 validation samples in chunks of 3: chunks of 3, 3 and 2
    cfg = tiny_config(max_epochs=3, patience=0, batch_size=3, n_queries=Q)
    probe = tmp_path / "calls"
    monkeypatch.setattr(ShardedStep, "_chunk_rows", chunk_recording(probe))
    runs, workers = {}, {}
    for n in (1, 2):
        processes(n)
        probe.write_text("")
        runs[n] = train(cfg, train_samples, val_samples, 2, 2, "sequence")
        workers[n] = {pid: chunks for pid, chunks in computed_by(probe).items()
                      if pid != os.getpid()}
    assert [r["selection"] for r in runs[1].history] == [selection] * 3
    assert repr(runs[1].history) == repr(runs[2].history)
    for k, p in runs[1].model.params.items():
        assert p.data.tobytes() == runs[2].model.params[k].data.tobytes(), k
    assert workers[1] == {}
    # each epoch the worker computed split_chunks's second set of the plan
    model = runs[1].model
    chunks, steps = planned_chunks([model.prepare(s) for s in val_samples], Q)
    assert [len(c) for c in chunks] == [3, 3, 2] and steps == [3 * Q, 3 * Q, 2 * Q]
    there = split_chunks(steps)[1]
    assert there
    (worker_chunks,) = workers[2].values()
    assert worker_chunks == [str(i) for i in there] * 3


@needs_worker
def test_validation_metric_keeps_its_arithmetic(processes, chunks_of_three):
    # one epoch keeps its own parameters, so the recorded metrics are those
    # of the final model, computed over the plan's chunks in this process
    processes(2)
    train_samples, val_samples = small_data()
    cfg = tiny_config(max_epochs=1, batch_size=3, n_queries=Q)
    result = train(cfg, train_samples, val_samples, 2, 2, "sequence")
    model = result.model
    preps = [model.prepare(s) for s in val_samples]
    chunks, _ = planned_chunks(preps, Q)
    assert len(chunks) == 3
    rows = np.concatenate([softmax_rows(model.batch_logits(c)) for c in chunks])
    report = evaluate_preps(model, preps)
    assert result.history[0]["val_metric"] == report.auprc
    assert result.history[0]["val_accuracy"] == report.accuracy
    assert report.accuracy == np.mean(rows.argmax(axis=1) == [p.labels[0] for c in chunks
                                                             for p in c])

    val_samples = one_class(val_samples)
    result = train(cfg, train_samples, val_samples, 2, 2, "sequence")
    preps = [result.model.prepare(s) for s in val_samples]
    total = sum(result.model.batch_loss(c).item() * len(c) for c in planned_chunks(preps, Q)[0])
    assert result.history[0]["val_metric"] == -(total / len(preps))


@pytest.mark.parametrize("n_procs", [1, pytest.param(2, marks=needs_worker)])
def test_each_validation_chunk_is_collated_once_per_process(n_procs, processes,
                                                            chunks_of_three, monkeypatch,
                                                            tmp_path):
    # three epochs: each process collates each chunk it computes at its
    # first use, and never again
    processes(n_procs)
    train_samples, val_samples = small_data()
    probe = tmp_path / "collated"
    probe.write_text("")
    collate = tada.shards.collate

    def counting(preps):
        with open(probe, "a") as fh:
            fh.write(f"{os.getpid()} {preps[0].sample_id}\n")
        return collate(preps)

    monkeypatch.setattr(tada.shards, "collate", counting)
    result = train(tiny_config(max_epochs=3, patience=0, batch_size=3, n_queries=Q),
                   train_samples, val_samples, 2, 2, "sequence")
    assert len(result.history) == 3
    chunks, steps = planned_chunks([result.model.prepare(s) for s in val_samples], Q)
    here, there = split_chunks(steps) if n_procs == 2 else (range(len(chunks)), [])
    assert len(chunks) == 3 and (there or n_procs == 1)
    by_pid = computed_by(probe)
    assert by_pid.pop(os.getpid()) == [chunks[i][0].sample_id for i in here]
    assert list(by_pid.values()) == ([[chunks[i][0].sample_id for i in there]] if there else [])


def step_labels(samples):
    """The samples with one label per step, so label counts differ."""
    return [dataclasses.replace(s, label=tuple((k + s.label) % 2 for k in range(len(s))))
            for s in samples]


@pytest.mark.parametrize("n_procs", [1, pytest.param(2, marks=needs_worker)])
@pytest.mark.parametrize("task", ["sequence", "step"])
def test_shuffled_validation_leaves_the_run_byte_identical(task, n_procs, processes,
                                                           monkeypatch, tmp_path):
    # the plan sorts the validation samples, and no metric depends on their
    # order: history, model.bin and manifest.json keep their bytes
    processes(n_procs)
    monkeypatch.setattr(tada.shards, "CHUNK_STEPS", 48)
    train_samples, val_samples = small_data()
    if task == "step":
        train_samples, val_samples = step_labels(train_samples), step_labels(val_samples)
    cfg = tiny_config(max_epochs=3, patience=0, batch_size=4, n_queries=8)
    model = tiny_model(n_features=2, task=task, n_queries=8)
    chunks, _ = planned_chunks([model.prepare(s) for s in val_samples], 8)
    assert len({len(c) for c in chunks}) > 1
    shuffled = [val_samples[i] for i in np.random.default_rng(5).permutation(len(val_samples))]
    assert shuffled != val_samples
    manifest = {"D": 2, "n_classes": 2, "task": task}
    files = {}
    for name, val in (("listed", val_samples), ("shuffled", shuffled)):
        splits = {"train": train_samples, "val": val, "test": val_samples}
        _train_single(cfg, manifest, splits, str(tmp_path / name), verbose=False)
        files[name] = [(tmp_path / name / f).read_bytes() for f in ("model.bin", "manifest.json")]
    assert files["listed"] == files["shuffled"]
    assert json.loads(files["listed"][1])["history"][0]["selection"] == (
        "auprc" if task == "sequence" else "accuracy")


def synth_preps(model, n, scale, seed):
    samples, _ = synth_generate(SynthConfig(n_samples=n, seed=seed,
                                            rates=tuple(r * scale for r in (2.0, 4.0, 8.0, 16.0))))
    return [model.prepare(s) for s in samples]


def rows_by_sample(chunked):
    return {p.sample_id: z for chunk, rows in chunked for p, z in zip(chunk, rows)}


@pytest.mark.parametrize("scale, chunk_steps, tol", [(1.0, 1024, 0.0), (8.0, 4096, 1e-14)])
def test_plan_rows_match_list_order_rows(scale, chunk_steps, tol, processes, monkeypatch):
    # the plan's chunks hold other samples than list-order chunks.  At T~30
    # each sample's rows keep their bits; at T~240 a chunk's padded
    # observation count moves the GEMM blocking, and the rows move within
    # ``tol`` of the largest logit (8.6e-16 of it here).  The chunk-order
    # loss sum moves with the chunks, by 2.1e-16 of the loss here at T~30.
    processes(1)
    monkeypatch.setattr(tada.shards, "CHUNK_STEPS", chunk_steps)
    model = TadaModel(RunConfig(), 4, 2, "sequence")
    redraw_params(model, seed=6)
    preps = synth_preps(model, 96 if scale == 1.0 else 40, scale, seed=6)
    listed = tada.shards.chunk_logits(model, preps)
    listed_loss = tada.training._mean_loss(model, preps)
    listed_report = evaluate_preps(model, preps)
    with ShardedStep(model, [], preps) as step:
        planned = tada.shards.chunk_logits(model, preps)
        assert [c for c, _ in planned] == step.val_chunks
        planned_loss = tada.training._mean_loss(model, preps)
        planned_report = evaluate_preps(model, preps)
    assert len(listed) > 2
    assert [[p.sample_id for p in c] for c, _ in listed] != \
        [[p.sample_id for p in c] for c, _ in planned]
    want, got = rows_by_sample(listed), rows_by_sample(planned)
    assert got.keys() == want.keys()
    largest = max(np.abs(z).max() for z in want.values())
    assert max(np.abs(got[k] - want[k]).max() for k in want) <= tol * largest
    if tol == 0.0:
        assert planned_report == listed_report
    assert abs(planned_loss - listed_loss) <= max(tol, 1e-15) * abs(listed_loss)


def no_process(*args, **kwargs):
    raise AssertionError("evaluation started a process")


@needs_worker
def test_evaluation_off_the_held_list_stays_in_process(processes, chunks_of_three,
                                                       monkeypatch):
    processes(2)
    train_samples, val_samples = small_data()
    model = tiny_model(n_queries=Q)
    redraw_params(model, seed=2)
    train_preps = [model.prepare(s) for s in train_samples]
    val_preps = [model.prepare(s) for s in val_samples]
    want = np.concatenate([softmax_rows(model.batch_logits(c))
                           for c in _chunks(val_preps, Q)[0]])
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
        other = tiny_model(n_queries=Q)
        evaluate_preps(other, val_preps)
    assert tada.shards._entered is None
    assert multiprocessing.active_children() == []


def train_with_validation_chunks(monkeypatch):
    """Training whose 8 validation samples make two chunks of four."""
    monkeypatch.setattr(tada.shards, "CHUNK_STEPS", 4 * Q)
    train_samples, val_samples = small_data()
    return train(tiny_config(max_epochs=2, batch_size=4, n_queries=Q), train_samples,
                 val_samples, 2, 2, "sequence")


@needs_worker
def test_worker_tada_error_in_validation_is_raised_in_the_parent(processes, monkeypatch,
                                                                 capfd):
    processes(2)

    def refuse():
        raise DataError("validation refused")

    monkeypatch.setattr(TadaModel, "batch_logits", in_worker(os.getpid(), refuse, "batch_logits"))
    with pytest.raises(DataError, match="^validation refused$"):
        train_with_validation_chunks(monkeypatch)
    assert multiprocessing.active_children() == []
    assert "Traceback" not in capfd.readouterr().err


@needs_worker
def test_worker_bug_in_validation_is_raised_with_its_traceback(processes, monkeypatch):
    processes(2)

    def fail():
        raise ZeroDivisionError("in validation")

    monkeypatch.setattr(TadaModel, "batch_logits", in_worker(os.getpid(), fail, "batch_logits"))
    with pytest.raises(RuntimeError,
                       match="(?s)shard worker failed:.*ZeroDivisionError: in validation"):
        train_with_validation_chunks(monkeypatch)
    assert multiprocessing.active_children() == []


@needs_worker
def test_worker_death_in_validation_names_the_epoch(processes, monkeypatch):
    processes(2)
    monkeypatch.setattr(TadaModel, "batch_logits",
                        in_worker(os.getpid(), lambda: os._exit(9), "batch_logits"))
    with pytest.raises(TrainingError, match=r"^shard worker died \(exit code 9\) at epoch 0$"):
        train_with_validation_chunks(monkeypatch)
    assert multiprocessing.active_children() == []


@needs_worker
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
        train_with_validation_chunks(monkeypatch)
    assert workers == [1]
    assert multiprocessing.active_children() == []
    assert tada.shards._entered is None


# evaluation outside a step ---------------------------------------------------

# anchors for ``eval_data``: at the real CHUNK_STEPS, 4096 // 512 = 8 samples a chunk
EVAL_Q = 512


def eval_data():
    """A tiny model and 24 prepared samples, each padding to ``EVAL_Q`` rows."""
    train_samples, val_samples = small_data()
    model = tiny_model(n_queries=EVAL_Q)
    redraw_params(model, seed=2)
    return model, [model.prepare(s) for s in train_samples + val_samples]


def worker_share(model, preps):
    steps = _chunks(preps, model.cfg.n_queries)[1]
    return sum(steps[i] for i in split_chunks(steps)[1])


def cross_the_rule(monkeypatch, model, preps):
    """Lower CHUNK_STEPS to three samples' padded steps: eight chunks of
    three, and the worker's share holds four."""
    monkeypatch.setattr(tada.shards, "CHUNK_STEPS", 3 * EVAL_Q)
    assert worker_share(model, preps) == 2 * tada.shards.CHUNK_STEPS + 2 * 3 * EVAL_Q


def rows_of(model, preps, monkeypatch):
    """evaluate_preps's softmax rows, in chunk order."""
    rows = []
    with monkeypatch.context() as m:
        m.setattr(tada.training, "softmax_rows", lambda z: rows.append(softmax_rows(z)) or rows[-1])
        report = evaluate_preps(model, preps)
    return np.concatenate(rows), report


def test_chunks_never_read_the_training_batch_size(processes, chunks_of_three, monkeypatch):
    # a chunk's size follows from the samples and n_queries alone
    processes(1)
    train_samples, val_samples = small_data()
    batch_logits = TadaModel.batch_logits
    seen, out = {}, {}
    for batch_size in (1, 64):
        model = tiny_model(n_queries=Q, batch_size=batch_size)
        redraw_params(model, seed=2)
        preps = [model.prepare(s) for s in train_samples + val_samples]
        calls = seen[batch_size] = []
        monkeypatch.setattr(TadaModel, "batch_logits", lambda self, chunk, calls=calls: (
            calls.append([p.sample_id for p in chunk]) or batch_logits(self, chunk)))
        rows, report = rows_of(model, preps, monkeypatch)
        out[batch_size] = rows.tobytes(), report.csv_line()
    assert [len(c) for c in seen[1]] == [3] * 8
    assert seen[1] == seen[64]
    assert out[1] == out[64]


@needs_worker
def test_evaluation_past_the_rule_forks_one_worker_for_the_call(processes, monkeypatch,
                                                                tmp_path):
    model, preps = eval_data()
    cross_the_rule(monkeypatch, model, preps)
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
    chunks, steps = _chunks(preps, EVAL_Q)
    here, there = split_chunks(steps)
    by_pid = computed_by(probe)
    assert by_pid.pop(os.getpid()) == [chunks[i][0].sample_id for i in here]
    assert list(by_pid.values()) == [[chunks[i][0].sample_id for i in there]]
    assert tada.shards._entered is None
    assert multiprocessing.active_children() == []


@needs_worker
def test_evaluation_below_the_rule_or_without_a_worker_starts_nothing(processes,
                                                                      monkeypatch):
    model, preps = eval_data()

    def in_order():
        chunks, _ = _chunks(preps, EVAL_Q)
        return np.concatenate([softmax_rows(model.batch_logits(c)) for c in chunks])

    processes(2)
    monkeypatch.setattr(os, "fork", no_process)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
    # the real rule: three chunks of eight, and the worker's share of one
    # chunk is half of two full chunks
    assert 0 < worker_share(model, preps) < 2 * tada.shards.CHUNK_STEPS
    assert np.array_equal(rows_of(model, preps, monkeypatch)[0], in_order())
    # two padded steps short of the rule: four chunks of six, two of them
    # the worker's
    monkeypatch.setattr(tada.shards, "CHUNK_STEPS", 6 * EVAL_Q + 1)
    assert worker_share(model, preps) == 2 * tada.shards.CHUNK_STEPS - 2
    assert np.array_equal(rows_of(model, preps, monkeypatch)[0], in_order())
    # past the rule, where no worker may run: one CPU, or multi-threaded BLAS
    cross_the_rule(monkeypatch, model, preps)
    processes(1)
    assert np.array_equal(rows_of(model, preps, monkeypatch)[0], in_order())
    processes(2)
    monkeypatch.setenv("OMP_NUM_THREADS", "4")
    assert np.array_equal(rows_of(model, preps, monkeypatch)[0], in_order())
    assert multiprocessing.active_children() == []


@needs_worker
@pytest.mark.parametrize("last, workers", [(9, 0), (10, 1)])
def test_fork_rule_sits_at_two_full_chunks(last, workers, processes, monkeypatch):
    # one-sample chunks of 10, 10, 10 and ``last`` padded steps (each series
    # longer than n_queries): split_chunks gives the worker the second and
    # the last, a share of 19 or 20 against 2 * CHUNK_STEPS = 20
    monkeypatch.setattr(tada.shards, "CHUNK_STEPS", 10)
    rng = np.random.default_rng(3)
    model = tiny_model()
    assert model.cfg.n_queries < 9
    preps = [model.prepare(random_series(rng, n, 3, sid=f"b{i}", label=i % 2))
             for i, n in enumerate([10, 10, 10, last])]
    assert worker_share(model, preps) == 2 * tada.shards.CHUNK_STEPS - 1 + workers
    processes(1)
    want, _ = rows_of(model, preps, monkeypatch)
    processes(2)
    starts = []
    start = multiprocessing.process.BaseProcess.start
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        lambda self: starts.append(self.name) or start(self))
    assert np.array_equal(rows_of(model, preps, monkeypatch)[0], want)
    assert starts == ["tada-shard-1"] * workers
    assert multiprocessing.active_children() == []


def evaluate_past_the_rule(monkeypatch):
    model, preps = eval_data()
    cross_the_rule(monkeypatch, model, preps)
    return evaluate_preps(model, preps)


@needs_worker
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


@needs_worker
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
