"""Training loop determinism, selection, ablations, and run manifests."""

import dataclasses
import json
import multiprocessing
import os
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import reference
import tada.model
import tada.shards
import tada.training
from helpers import random_series, redraw_params, tiny_config, tiny_model
from tada.data import SynthConfig, synth_generate
from tada.errors import EvaluationError, TrainingError
from tada.metrics import accuracy, auprc, auroc, softmax_rows
from tada.model import TadaModel
from tada.tensor import _node
from tada.training import (
    MetricsReport,
    evaluate,
    evaluate_preps,
    run_manifest,
    selection_metric,
    train,
)

SMALL_SYNTH = SynthConfig(n_samples=24, n_features=2, rates=(3.0, 6.0),
                          noise=0.05, seed=1)


def small_data():
    samples, _ = synth_generate(SMALL_SYNTH)
    return samples[:16], samples[16:]


def stub_model(logits_by_id, task="sequence", n_classes=2):
    # batches of 4, so six samples take a full and a partial chunk
    return SimpleNamespace(
        task=task, n_classes=n_classes, cfg=SimpleNamespace(batch_size=4),
        batch_logits=lambda preps: np.concatenate(
            [np.asarray(logits_by_id[p.sample_id], dtype=float) for p in preps]))


def stub_prep(sid, labels):
    return SimpleNamespace(sample_id=sid, labels=np.asarray(labels),
                           times=np.zeros(np.size(labels)))


# evaluation ------------------------------------------------------------------


def test_evaluate_perfectly_separable_scores():
    logits = {f"p{i}": [[0.0, 4.0]] for i in range(3)}
    logits.update({f"n{i}": [[4.0, 0.0]] for i in range(3)})
    preps = [stub_prep(f"p{i}", [1]) for i in range(3)] + \
        [stub_prep(f"n{i}", [0]) for i in range(3)]
    report = evaluate_preps(stub_model(logits), preps)
    assert report.auroc == 1.0 and report.auprc == 1.0 and report.accuracy == 1.0


def test_evaluate_constant_scores_on_balanced_labels():
    logits = {f"s{i}": [[0.0, 0.0]] for i in range(6)}
    preps = [stub_prep(f"s{i}", [i % 2]) for i in range(6)]
    report = evaluate_preps(stub_model(logits), preps)
    assert report.auroc == 0.5
    assert 0.0 <= report.auprc <= 1.0 and 0.0 <= report.accuracy <= 1.0


def test_evaluate_multiclass_uses_macro_averages():
    rng = np.random.default_rng(40)
    raw = {f"s{i}": rng.normal(size=(1, 3)) for i in range(9)}
    labels = [i % 3 for i in range(9)]
    preps = [stub_prep(f"s{i}", [labels[i]]) for i in range(9)]
    report = evaluate_preps(stub_model(raw, n_classes=3), preps)
    assert 0.0 <= report.auroc <= 1.0 and 0.0 <= report.auprc <= 1.0


def test_evaluate_step_task_flattens_steps():
    logits = {"a": [[2.0, 0.0], [0.0, 2.0]], "b": [[2.0, 0.0], [2.0, 0.0]]}
    preps = [stub_prep("a", [0, 1]), stub_prep("b", [0, 0])]
    report = evaluate_preps(stub_model(logits, task="step"), preps)
    assert report.accuracy == 1.0


def test_evaluate_empty_set_raises():
    with pytest.raises(EvaluationError, match="empty"):
        evaluate_preps(stub_model({}), [])
    with pytest.raises(EvaluationError, match="empty"):
        evaluate(tiny_model(), [])


def per_sample_report(model, preps):
    """evaluate_preps's metrics from the per-sample reference, one sample a chunk."""
    stub = SimpleNamespace(task=model.task, n_classes=model.n_classes,
                           cfg=SimpleNamespace(batch_size=1),
                           batch_logits=lambda chunk: reference.forward(model, chunk[0])[0].data)
    # the stub holds no parameters a shard worker could be sent
    with mock.patch.object(tada.shards, "shard_processes", lambda: 1):
        return evaluate_preps(stub, preps)


@pytest.mark.parametrize("task", ["sequence", "step"])
def test_chunked_evaluation_matches_the_per_sample_path(task, monkeypatch):
    # 13 samples in batches of 5, with a step cap that splits the long ones
    monkeypatch.setattr(tada.training, "CHUNK_STEPS", 24)
    rng = np.random.default_rng(8)
    model = tiny_model(n_features=3, task=task, batch_size=5)
    redraw_params(model, seed=8)
    preps = []
    for i, n in enumerate([2, 3, 1, 9, 4, 2, 12, 5, 3, 3, 7, 1, 2]):
        s = random_series(rng, n, 3, sid=f"c{i}", label=i % 2)
        if task == "step":
            s = dataclasses.replace(s, label=tuple(int(k) for k in rng.integers(0, 2, n)))
        preps.append(model.prepare(s))
    calls = []
    monkeypatch.setattr(tada.training, "softmax_rows",
                        lambda z: calls.append(softmax_rows(z)) or calls[-1])
    got = evaluate_preps(model, preps)
    chunks = tada.training._chunks(preps, 5)
    assert len(calls) == len(chunks) > 13 // 5 + 1
    assert [p for c in chunks for p in c] == preps
    assert all(len(c) <= 5 and (len(c) == 1 or len(c) * max(len(p.times) for p in c) <= 24)
               for c in chunks)
    want_rows = np.concatenate([softmax_rows(reference.forward(model, p)[0].data)
                                for p in preps])
    assert np.abs(np.concatenate(calls) - want_rows).max() <= 1e-12
    want = per_sample_report(model, preps)
    for key, value in want.as_dict().items():
        assert abs(got.as_dict()[key] - value) <= 1e-12, key
    loss = tada.training._mean_loss(model, preps)
    assert abs(loss - reference.batch_loss(model, preps).item()) <= 1e-12 * abs(loss)


def test_one_class_validation_loss_builds_no_graph(monkeypatch):
    # a detached forward: equal to batch_loss's value, bit for bit, with no
    # node of the loss requiring a gradient
    train_samples, val_samples = small_data()
    model = tiny_model(n_features=2, batch_size=3)
    redraw_params(model, seed=4)
    preps = [model.prepare(s) for s in train_samples + val_samples]
    want = sum(model.batch_loss(c).item() * len(c)
               for c in tada.training._chunks(preps, 3)) / len(preps)
    losses = []
    cross_entropy = tada.model.cross_entropy_with_logits
    monkeypatch.setattr(tada.model, "cross_entropy_with_logits",
                        lambda *args: losses.append(cross_entropy(*args)) or losses[-1])
    assert tada.training._mean_loss(model, preps) == want
    assert len(losses) == len(tada.training._chunks(preps, 3))
    assert not any(loss.requires_grad for loss in losses)


def test_evaluate_real_model_matches_manual_metrics():
    train_samples, val_samples = small_data()
    model = tiny_model(n_features=2)
    report = evaluate(model, val_samples)
    probs = []
    labels = []
    for s in val_samples:
        prep = model.prepare(s)
        z = model.logits(prep)[0]
        e = np.exp(z - z.max())
        probs.append((e / e.sum())[1])
        labels.append(s.label)
    probs, labels = np.array(probs), np.array(labels)
    assert report.auroc == auroc(probs, labels)
    assert report.auprc == auprc(probs, labels)
    assert report.accuracy == accuracy((probs > 0.5).astype(int), labels)


def test_selection_metric_rule():
    report = MetricsReport(auroc=0.7, auprc=0.6, accuracy=0.9)
    assert selection_metric(tiny_model(), report) == ("auprc", 0.6)
    assert selection_metric(tiny_model(n_classes=3), report) == ("accuracy", 0.9)


# training --------------------------------------------------------------------


def test_same_seed_gives_bit_identical_runs():
    train_samples, val_samples = small_data()
    cfg = tiny_config(max_epochs=3, patience=0, batch_size=8)
    a = train(cfg, train_samples, val_samples, 2, 2, "sequence")
    b = train(cfg, train_samples, val_samples, 2, 2, "sequence")
    assert a.history == b.history
    assert a.best_epoch == b.best_epoch
    for name, p in a.model.params.items():
        np.testing.assert_array_equal(p.data, b.model.params[name].data)


def test_history_records_epoch_loss_and_validation():
    train_samples, val_samples = small_data()
    cfg = tiny_config(max_epochs=3, patience=0, batch_size=8)
    res = train(cfg, train_samples, val_samples, 2, 2, "sequence")
    assert [h["epoch"] for h in res.history] == [0, 1, 2]
    for h in res.history:
        assert set(h) == {"epoch", "train_loss", "val_metric", "selection",
                          "val_accuracy"}
        assert h["selection"] == "auprc"
        assert np.isfinite(h["train_loss"])
    best = max(h["val_metric"] for h in res.history)
    assert res.best_val_metric == best


def test_best_epoch_parameters_are_restored():
    train_samples, val_samples = small_data()
    cfg = tiny_config(max_epochs=4, patience=0, batch_size=8)
    res = train(cfg, train_samples, val_samples, 2, 2, "sequence")
    # the returned model must reproduce the best recorded validation metric
    report = evaluate(res.model, val_samples)
    assert selection_metric(res.model, report) == ("auprc", res.best_val_metric)
    assert res.history[res.best_epoch]["val_metric"] == res.best_val_metric


def test_patience_stops_after_plateau():
    train_samples, val_samples = small_data()
    base = dict(max_epochs=8, batch_size=8, lr=1e-5)  # tiny lr: metric plateaus
    cfg = tiny_config(patience=2, **base)
    res = train(cfg, train_samples, val_samples, 2, 2, "sequence")
    if len(res.history) < 8:
        tail = res.history[res.best_epoch + 1:]
        assert len(tail) >= 2
        assert all(h["val_metric"] <= res.best_val_metric for h in tail)
    full = train(tiny_config(patience=0, **base), train_samples, val_samples,
                 2, 2, "sequence")
    assert len(full.history) == 8


def test_loss_non_increasing_over_first_steps_for_most_seeds():
    train_samples, _ = small_data()
    ok = 0
    trials = 20
    for seed in range(trials):
        cfg = tiny_config(seed=seed, lr=1e-3, max_epochs=1, batch_size=4)
        # fixed batch: five manual steps on the same four samples
        from tada.model import TadaModel
        from tada.optim import Adam
        model = TadaModel(cfg, 2, 2, "sequence", np.random.default_rng(seed))
        preps = [model.prepare(s) for s in train_samples[:4]]
        opt = Adam(model.trainable(), lr=cfg.lr)
        losses = []
        for _ in range(6):
            loss = model.batch_loss(preps)
            losses.append(loss.item())
            opt.zero_grad()
            loss.backward()
            opt.step()
        if all(b <= a + 1e-12 for a, b in zip(losses[:5], losses[1:6])):
            ok += 1
    assert ok >= 0.95 * trials, f"{ok}/{trials} monotone trials"


def test_divergent_run_raises_training_error_with_epoch(monkeypatch):
    train_samples, val_samples = small_data()
    # an infinite step blows the parameters up in the first update; the
    # error must name the epoch and come before validation scores a model
    finite_scores = []

    def spy(metric):
        def wrapped(scores, labels):
            finite_scores.append(bool(np.isfinite(scores).all()))
            return metric(scores, labels)
        return wrapped

    for name in ("auroc", "auprc", "macro_auroc", "macro_auprc"):
        monkeypatch.setattr(tada.training, name, spy(getattr(tada.training, name)))
    cfg = tiny_config(lr=float("inf"), max_epochs=5, batch_size=16)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(TrainingError, match="after epoch 0"):
            train(cfg, train_samples, val_samples, 2, 2, "sequence")
    assert all(finite_scores)


@pytest.mark.parametrize("where", ["parent", "worker"])
def test_non_finite_gradient_names_its_epoch(where, monkeypatch):
    # from epoch 1 on, each poisoned shard adds a zero to its loss whose
    # gradient for head.b is infinite; as the worker's shard, only the
    # worker poisons
    if where == "worker" and "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork on this platform")
    train_samples, val_samples = small_data()
    monkeypatch.setattr(tada.shards, "shard_processes", lambda: 1 + (where == "worker"))
    for var in tada.shards.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    parent = os.getpid()
    # 16 samples in batches of 8: two steps of two shards per epoch
    first_poisoned = 2 if where == "worker" else 4
    calls = []
    batch_loss = TadaModel.batch_loss

    def poisoned(self, preps):
        loss = batch_loss(self, preps)
        if (os.getpid() != parent) != (where == "worker"):
            return loss
        calls.append(None)
        if len(calls) <= first_poisoned:
            return loss
        b = self.params["head.b"]
        return loss + _node(np.zeros(()), (b,), lambda g: (np.full(b.shape, np.inf),))

    monkeypatch.setattr(TadaModel, "batch_loss", poisoned)
    cfg = tiny_config(max_epochs=3, patience=0, batch_size=8)
    with pytest.raises(TrainingError,
                       match="^non-finite gradient for parameter 'head.b' at epoch 1$"):
        train(cfg, train_samples, val_samples, 2, 2, "sequence")


def overflowing_logits(self, preps):
    # what finite parameters give once a logit overflows float64
    return np.tile([np.inf, 0.0], (len(preps), 1))


def test_validation_overflow_raises_training_error_with_epoch(monkeypatch):
    # the metrics refuse non-finite scores with EvaluationError (exit 2);
    # a run whose validation overflows failed numerically, so exit 3
    train_samples, val_samples = small_data()
    monkeypatch.setattr(TadaModel, "batch_logits", overflowing_logits)
    cfg = tiny_config(max_epochs=3, batch_size=8)
    with np.errstate(invalid="ignore"):
        with pytest.raises(TrainingError, match="validation at epoch 0: auroc"):
            train(cfg, train_samples, val_samples, 2, 2, "sequence")


def test_non_finite_validation_loss_raises_training_error_with_epoch(monkeypatch):
    # a one-class validation split selects by its loss, which must be finite
    train_samples, val_samples = small_data()
    negatives = [s for s in train_samples + val_samples if s.label == 0]
    monkeypatch.setattr(tada.training, "_mean_loss", lambda model, preps: float("nan"))
    cfg = tiny_config(max_epochs=3, batch_size=8)
    with pytest.raises(TrainingError, match="non-finite validation neg_val_loss at epoch 0"):
        train(cfg, train_samples, negatives, 2, 2, "sequence")


def test_single_class_validation_selects_by_validation_loss():
    train_samples, val_samples = small_data()
    negatives = [s for s in train_samples + val_samples if s.label == 0]
    cfg = tiny_config(max_epochs=3, patience=0, batch_size=8)
    res = train(cfg, train_samples, negatives, 2, 2, "sequence")
    assert [h["selection"] for h in res.history] == ["neg_val_loss"] * 3
    # the restored parameters are the best epoch's: their validation loss
    # is the recorded metric
    preps = [res.model.prepare(s) for s in negatives]
    val_loss = np.mean([res.model.sample_loss(p).item() for p in preps])
    assert res.best_val_metric == max(h["val_metric"] for h in res.history)
    assert res.best_val_metric == pytest.approx(-val_loss, rel=1e-12)


def test_no_validation_split_selects_by_training_loss():
    train_samples, _ = small_data()
    cfg = tiny_config(max_epochs=1, patience=0, batch_size=8)
    res = train(cfg, train_samples, [], 2, 2, "sequence")
    assert res.history[0]["selection"] == "neg_train_loss"


def test_empty_training_set_raises():
    with pytest.raises(TrainingError, match="empty"):
        train(tiny_config(), [], [], 2, 2, "sequence")


def test_frozen_range_never_moves_during_training():
    train_samples, val_samples = small_data()
    base = dict(max_epochs=2, patience=0, batch_size=8)
    frozen = train(tiny_config(no_learnable_range=True, **base),
                   train_samples, val_samples, 2, 2, "sequence")
    fresh = tiny_model(n_features=2, no_learnable_range=True, **base)
    np.testing.assert_array_equal(frozen.model.params["dla.range_raw"].data,
                                  fresh.params["dla.range_raw"].data)
    # without the ablation the radii drift away from their init
    free = train(tiny_config(gate_temperature=0.05, **base),
                 train_samples, val_samples, 2, 2, "sequence")
    assert np.any(free.model.params["dla.range_raw"].data
                  != fresh.params["dla.range_raw"].data)


def test_ablation_variants_train_and_evaluate():
    train_samples, val_samples = small_data()
    base = dict(max_epochs=1, patience=0, batch_size=8)
    for flags in ({"no_dla": True}, {"no_mixer": True},
                  {"keyvalue_variant": "setting1"},
                  {"keyvalue_variant": "setting2"},
                  {"window_mode": "hard"}):
        cfg = tiny_config(**base, **flags)
        res = train(cfg, train_samples, val_samples, 2, 2, "sequence")
        report = evaluate(res.model, val_samples)
        assert 0.0 <= report.accuracy <= 1.0
        if flags.get("no_dla"):
            assert res.model.radii() is None
            assert "dla.queries" not in res.model.params


# manifests -------------------------------------------------------------------


def test_run_manifest_is_deterministic_json():
    train_samples, val_samples = small_data()
    cfg = tiny_config(max_epochs=2, patience=0, batch_size=8)
    res = train(cfg, train_samples, val_samples, 2, 2, "sequence")
    report = evaluate(res.model, val_samples)
    counts = {"n_train": len(train_samples), "n_val": len(val_samples), "n_test": 0}
    man = run_manifest(cfg, res.model, res, report, counts)
    blob = json.dumps(man, sort_keys=True)
    assert json.loads(blob) == man
    assert man["config_hash"] == cfg.config_hash()
    assert man["epochs_run"] == len(res.history) == 2
    assert man["dataset"]["n_train"] == 16
    assert man["metrics"] == report.as_dict()
    assert len(man["window_radii"]) == 2
    # reruns must hash identically, so no wall-clock fields may appear
    assert not [k for k in man if "time" in k or "wall" in k]
    again = train(cfg, train_samples, val_samples, 2, 2, "sequence")
    man2 = run_manifest(cfg, again.model, again,
                        evaluate(again.model, val_samples), counts)
    assert json.dumps(man2, sort_keys=True) == blob


def test_manifest_radii_none_without_dla():
    train_samples, val_samples = small_data()
    cfg = tiny_config(no_dla=True, max_epochs=1, patience=0, batch_size=8)
    res = train(cfg, train_samples, val_samples, 2, 2, "sequence")
    man = run_manifest(cfg, res.model, res, evaluate(res.model, val_samples),
                       {"n_train": 16, "n_val": 8, "n_test": 0})
    assert man["window_radii"] is None


def test_metrics_report_csv_round_trips():
    report = MetricsReport(auroc=1 / 3, auprc=2 / 7, accuracy=0.875)
    parts = report.csv_line().split(",")
    assert [float(p) for p in parts] == [1 / 3, 2 / 7, 0.875]
