"""Acceptance suite: every release criterion, one printed pass/fail line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines.  Criteria 6 and
7 train real models and dominate the runtime (roughly four minutes combined);
everything else finishes in seconds.  Criterion 8 needs the activity corpus
and is skipped with a notice when TADA_UCI_ACTIVITY is unset.
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from helpers import build_series, observed_pairs, random_series, redraw_params, tiny_model, tsum
from tada.cli import gradcheck_setup, main, small_gradcheck_config
from tada.config import RunConfig
from tada.data import SynthConfig, split_dataset, synth_generate
from tada.dla import anchor_times, attention_maps, dla_forward
from tada.embedding import te_forward
from tada.gradcheck import grad_check
from tada.metrics import auprc, auroc
from tada.mixer import classify, fuse, mixer_block, run_mixer
from tada.model import collate
from tada.tensor import Tensor, mul
from tada.training import evaluate, train
from tada.uci import convert_uci_activity
from test_metrics import pair_counting_auroc, threshold_sweep_auprc


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


# 1: gradient correctness -----------------------------------------------------

def _te_check():
    worst = 0.0
    for mode, seed in (("embedding", 1), ("literal", 3)):
        model = tiny_model(n_features=4, te_mode=mode)
        redraw_params(model, seed=seed)
        rng = np.random.default_rng(seed + 10)
        prep = model.prepare(random_series(rng, n_steps=6, n_features=4))
        coeff = rng.normal(size=(6, model.cfg.embed_dim))
        params = {k: p for k, p in model.params.items() if k.startswith("te.")}
        rep = grad_check(
            lambda: tsum(mul(te_forward(model.params, prep, model.cfg), coeff)),
            params, eps=1e-5)
        worst = max(worst, rep.max_rel_error)
    return worst


def _dla_check():
    # moderate gate temperature: sharper gates saturate the sigmoid and push
    # its gradient under the difference-quotient noise floor
    model = tiny_model(n_features=3, window_mode="soft", gate_temperature=0.05)
    redraw_params(model, seed=4)
    rng = np.random.default_rng(12)
    prep = model.prepare(random_series(rng, n_steps=7, n_features=3))
    coeff = rng.normal(size=(model.cfg.n_queries, model.cfg.patch_channels))
    x_hat = model._dla_keys(model.params, prep)
    params = {k: p for k, p in model.params.items() if k.startswith("dla.")}
    rep = grad_check(
        lambda: tsum(mul(dla_forward(model.params, collate([prep]), model.cfg, x_hat), coeff)),
        params, eps=3e-5)
    return rep.max_rel_error


def _mixer_block_check():
    rng = np.random.default_rng(23)
    x = Tensor(rng.uniform(0.2, 1.0, size=(2, 2, 3)))
    params = {"w_in": Tensor(rng.uniform(-0.5, 0.5, size=(3, 3)), requires_grad=True),
              "w_across": Tensor(rng.uniform(-0.5, 0.5, size=(2, 2)), requires_grad=True),
              "w_out": Tensor(rng.uniform(-0.5, 0.5, size=(3, 3)), requires_grad=True)}
    coeff = rng.normal(size=(2, 2, 3))
    rep = grad_check(lambda: tsum(mul(mixer_block(x, **params), coeff)), params)
    return rep.max_rel_error


def _stack_check():
    model = tiny_model(n_queries=8, patch_size=2, merge_factor=2, n_layers=2,
                       patch_channels=4, n_features=3)
    redraw_params(model, seed=6)
    rng = np.random.default_rng(32)
    grid = Tensor(rng.uniform(0.2, 1.0, size=(1, 8, 4)))
    params = {k: model.params[k] for k in model.params
              if k.startswith(("mixer.", "fusion.", "head."))}
    coeff = rng.normal(size=(1, 1, 2))

    def fn():
        outs = run_mixer(grid, model.params, model.cfg)
        logits = classify(fuse(outs, model.params, model.cfg), model.params, [1])
        return tsum(mul(logits, coeff))

    rep = grad_check(fn, params)
    mixer_err = max(e for k, e in rep.per_param.items() if k.startswith("mixer."))
    fusion_err = max(e for k, e in rep.per_param.items()
                     if k.startswith(("fusion.", "head.")))
    return mixer_err, fusion_err


def test_1_gradient_correctness():
    t0 = time.monotonic()
    model, preps = gradcheck_setup(small_gradcheck_config())
    e2e = grad_check(lambda: model.batch_loss(preps), model.params, eps=3e-5)
    mixer_err, fusion_err = _stack_check()
    modules = {"temporal-embedding": _te_check(),
               "local-attention": _dla_check(),
               "mixer": max(mixer_err, _mixer_block_check()),
               "fusion-classifier": fusion_err}
    wall = time.monotonic() - t0
    ok = (e2e.max_rel_error < 1e-4
          and all(v < 1e-6 for v in modules.values())
          and wall < 120)
    parts = ", ".join(f"{k} {v:.2e}" for k, v in modules.items())
    report(1, ok, f"end-to-end max rel err {e2e.max_rel_error:.2e} < 1e-4; "
                  f"per module < 1e-6 ({parts}); wall {wall:.0f}s < 120s")


# 2: hard-window locality -----------------------------------------------------

def test_2_hard_window_locality():
    rng = np.random.default_rng(202)
    for trial in range(100):
        n_feat = int(rng.integers(2, 6))
        model = tiny_model(n_features=n_feat, window_mode="hard")
        redraw_params(model, seed=trial)
        model.params["dla.range_raw"].data = rng.uniform(-3.0, 0.5, size=n_feat)
        s = random_series(rng, n_steps=int(rng.integers(1, 15)),
                          n_features=n_feat, sid=f"acc2-{trial}")
        prep = model.prepare(s)
        x_hat = model._dla_keys(model.params, prep)
        w = attention_maps(model.params, collate([prep]), model.cfg, x_hat)[0]
        radii = model.radii()
        for i, anchor in enumerate(anchor_times(model.cfg.n_queries)):
            lo = np.maximum(0.0, anchor - radii)
            hi = np.minimum(1.0, anchor + radii)
            inside = (prep.times[:, None] >= lo) & (prep.times[:, None] <= hi) \
                & observed_pairs(s, n_feat)
            sums = w[:, i].sum(axis=1)
            empty = ~inside.any(axis=0)
            if not (np.all(w[:, i][:, ~inside] == 0.0)
                    and np.all(sums[:, empty] == 0.0)
                    and np.all(np.abs(sums[:, ~empty] - 1.0) < 1e-12)):
                report(2, False, f"instance {trial} anchor {i} leaks weight "
                                 f"outside its window")
    report(2, True, "100 random hard-window instances: weights outside every "
                    "window exactly 0, in-window sums 1 (0 when empty)")


# 3: per-step permutation invariance -------------------------------------------

def test_3_permutation_invariance():
    rng = np.random.default_rng(303)
    model = tiny_model(n_features=6)
    base = random_series(rng, n_steps=100, n_features=6)
    shuffled = build_series([
        (step.time, [(o.feature, o.value)
                     for o in (step.observations[j]
                               for j in rng.permutation(len(step.observations)))])
        for step in base.steps])
    out_a = te_forward(model.params, model.prepare(base), model.cfg).data
    out_b = te_forward(model.params, model.prepare(shuffled), model.cfg).data
    diff = float(np.abs(out_a - out_b).max())
    report(3, diff < 1e-12, f"100 timesteps with shuffled observations: "
                            f"max embedding deviation {diff:.2e} < 1e-12")


# 4: zero-weight mixer identity --------------------------------------------------

def test_4_zero_weight_mixer_identity():
    rng = np.random.default_rng(404)
    x = Tensor(rng.uniform(0.0, 2.0, size=(4, 3, 5)))
    w_in, w_across, w_out = (Tensor(np.zeros((5, 5))), Tensor(np.zeros((4, 4))),
                             Tensor(np.zeros((5, 5))))
    out, ok = x, True
    for depth in (1, 2, 3):
        out = mixer_block(out, w_in, w_across, w_out)
        ok = ok and np.array_equal(out.data, x.data)
    report(4, ok, "zero-weight blocks of depth 1-3 reproduce a nonnegative "
                  "input bitwise")


# 5: ranking metric oracles -------------------------------------------------------

def test_5_metric_oracles():
    rng = np.random.default_rng(505)
    done = 0
    while done < 1000:
        n = int(rng.integers(2, 9))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        scores = rng.integers(0, 5, size=n) / 4.0  # quarter grid forces ties
        if not (auroc(scores, labels) == pair_counting_auroc(scores, labels)
                and auprc(scores, labels) == threshold_sweep_auprc(scores, labels)):
            report(5, False, f"oracle mismatch on scores={scores.tolist()} "
                             f"labels={labels.tolist()}")
        done += 1
    report(5, True, "1000 random instances (n <= 8, tie-heavy): auroc and "
                    "auprc equal both brute-force oracles exactly")


# 6: synthetic frequency discrimination --------------------------------------------

def test_6_synthetic_discrimination():
    t0 = time.monotonic()
    synth = SynthConfig(n_samples=700, n_features=4, rates=(2.0, 4.0, 8.0, 16.0),
                        n_classes=2, noise=0.1, seed=0)
    samples, _ = synth_generate(synth)
    tr, va, te = split_dataset(samples, (500 / 700, 100 / 700, 100 / 700),
                               seed=0, stratify=True)
    assert (len(tr), len(va), len(te)) == (500, 100, 100)
    full_accs, ablated_accs = [], []
    for seed in (0, 1, 2):
        cfg = RunConfig(seed=seed).validate()
        full_accs.append(evaluate(train(cfg, tr, va, 4, 2, "sequence").model,
                                  te).accuracy)
        no_dla = dataclasses.replace(cfg, no_dla=True).validate()
        ablated_accs.append(evaluate(train(no_dla, tr, va, 4, 2, "sequence").model,
                                     te).accuracy)
    full, ablated = float(np.mean(full_accs)), float(np.mean(ablated_accs))
    wall = time.monotonic() - t0
    ok = full >= 0.95 and ablated <= 0.65 and wall < 600
    report(6, ok, f"frequency task over seeds 0-2: full model mean accuracy "
                  f"{full:.4f} >= 0.95, no_dla mean {ablated:.4f} <= 0.65, "
                  f"wall {wall:.0f}s < 600s")


# 7: memorization sanity ---------------------------------------------------------

def test_7_memorization():
    synth = SynthConfig(n_samples=48, n_features=4, rates=(2.0, 4.0, 8.0, 16.0),
                        n_classes=2, noise=0.1, seed=3)
    samples, _ = synth_generate(synth)
    tr, _, _ = split_dataset(samples, (32 / 48, 8 / 48, 8 / 48), seed=3,
                             stratify=True)
    assert len(tr) == 32
    cfg = RunConfig(max_epochs=200, patience=0).validate()
    res = train(cfg, tr, tr, 4, 2, "sequence")
    first = next((h["epoch"] for h in res.history if h["val_accuracy"] == 1.0),
                 None)
    report(7, first is not None,
           f"32-sample memorization: train accuracy 1.0 first reached at "
           f"epoch {first} (limit 200)")


# 8: activity corpus reproduction (needs the raw CSV) ------------------------------

def test_8_activity_reproduction():
    path = os.environ.get("TADA_UCI_ACTIVITY", "")
    if not path or not os.path.exists(path):
        print("[criterion 8] SKIP activity corpus not present; set "
              "TADA_UCI_ACTIVITY to the raw recording CSV to enable")
        pytest.skip("activity corpus not available in this environment")
    t0 = time.monotonic()
    samples, manifest = convert_uci_activity(path, window=50)
    tr, va, te = split_dataset(samples, (0.8, 0.1, 0.1), seed=0, stratify=False)
    full_accs, frozen_accs = [], []
    for seed in (0, 1, 2):
        cfg = RunConfig(seed=seed).validate()
        full_accs.append(evaluate(
            train(cfg, tr, va, manifest["D"], manifest["n_classes"],
                  manifest["task"]).model, te).accuracy)
        frozen = dataclasses.replace(cfg, no_learnable_range=True).validate()
        frozen_accs.append(evaluate(
            train(frozen, tr, va, manifest["D"], manifest["n_classes"],
                  manifest["task"]).model, te).accuracy)
    full, froz = float(np.mean(full_accs)), float(np.mean(frozen_accs))
    wall = time.monotonic() - t0
    ok = full >= 0.85 and froz < full and wall < 1800
    report(8, ok, f"activity step task over seeds 0-2: mean accuracy "
                  f"{full:.4f} >= 0.85, frozen-radius {froz:.4f} < full, "
                  f"wall {wall:.0f}s < 1800s")


# 9: determinism -----------------------------------------------------------------

def test_9_determinism(tmp_path):
    synth_args = ["--counts", "24,8,8", "--features", "2", "--rates", "3,6",
                  "--seed", "7"]
    train_args = []
    for s in ("te_feature_dim=3", "embed_dim=5", "n_queries=4",
              "attn_dim=4", "patch_channels=6", "patch_size=2", "n_layers=1",
              "max_epochs=3", "batch_size=16", "patience=0"):
        train_args += ["--set", s]
    for tag in ("a", "b"):
        base = tmp_path / tag
        assert main(["synth", "--out", str(base / "data")] + synth_args) == 0
        assert main(["train", "--data", str(base / "data"),
                     "--out", str(base / "run")] + train_args) == 0
    tracked = ("data/train.jsonl", "data/val.jsonl", "data/test.jsonl",
               "data/manifest.json", "data/gen_meta.json",
               "run/model.bin", "run/manifest.json", "run/metrics.csv")
    differing = [f for f in tracked
                 if (tmp_path / "a" / f).read_bytes() != (tmp_path / "b" / f).read_bytes()]
    report(9, not differing,
           "repeated synth + train with equal seeds: datasets, manifests, "
           "metrics, and model files all byte-identical"
           + (f" (differs: {differing})" if differing else ""))
