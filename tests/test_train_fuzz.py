"""Every legal configuration trains or fails as TrainingError naming its epoch.

Hypothesis draws legal ``RunConfig``s and edge datasets and trains for one
or two epochs, with the shard worker forced where fork exists, so steps and
validation chunks also run sharded.  Success, or a TrainingError that names
the epoch (exit 3), are the only allowed outcomes: a traceback, another
TadaError (exit 2) or a numpy warning, in either process, is a hole.
"""

import multiprocessing
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tada.shards
from helpers import build_series
from tada.config import RunConfig
from tada.errors import TrainingError
from tada.training import train

N_FEATURES = 3


def series(rng, sid, n_steps, label, features=(0, 1), step_task=False, at_once=False):
    """A series over ``features``; ``at_once`` puts every observation on one step."""
    if at_once:
        spec = [(0.5, [(f, float(rng.normal())) for f in features])]
    else:
        times = np.cumsum(rng.uniform(0.1, 1.0, size=n_steps))
        spec = [(t, [(int(rng.choice(features)), float(rng.normal()))]) for t in times]
    if step_task:
        label = tuple(int(k) for k in rng.integers(0, 2, size=len(spec)))
    return build_series(spec, sid=sid, label=label)


def edge_dataset(kind, seed):
    """(task, train, val) for one edge case; every split holds both classes
    unless the case says otherwise."""
    rng = np.random.default_rng(seed)

    def split(prefix, n, n_steps=None, **kw):
        return [series(rng, f"{prefix}{i}", n_steps or int(rng.integers(2, 6)), i % 2, **kw)
                for i in range(n)]

    if kind == "one_step":
        return "sequence", split("t", 8, n_steps=1), split("v", 5, n_steps=1)
    if kind == "one_time":
        return "sequence", split("t", 8, at_once=True), split("v", 5, at_once=True)
    if kind == "unseen_feature":
        # feature 2 appears in validation only
        return "sequence", split("t", 8), split("v", 5, features=(0, 1, 2))
    if kind == "step_task":
        return "step", split("t", 8, step_task=True), split("v", 5, step_task=True)
    if kind == "padded":
        # one long series pads every batch it joins far past its mates
        train_s = split("t", 7, n_steps=2) + [series(rng, "long", 60, 1)]
        return "sequence", train_s, split("v", 4, n_steps=2) + [series(rng, "vlong", 50, 0)]
    if kind == "one_class_val":
        return "sequence", split("t", 8), [series(rng, f"v{i}", 3, 0) for i in range(5)]
    raise AssertionError(kind)


EDGE_KINDS = ["one_step", "one_time", "unseen_feature", "step_task", "padded",
              "one_class_val"]


@st.composite
def legal_configs(draw):
    patch_size = draw(st.sampled_from([1, 2, 4]))
    merge_factor = draw(st.sampled_from([m for m in (1, 2, 4) if patch_size % m == 0]))
    n_layers = draw(st.integers(1, 3))
    no_mixer = draw(st.booleans())
    patches = 1 if no_mixer else merge_factor ** n_layers
    if patches * patch_size > 32:
        n_layers, patches = 1, merge_factor
    return RunConfig(
        te_mode=draw(st.sampled_from(["embedding", "literal"])),
        te_feature_dim=draw(st.integers(1, 4)),
        embed_dim=draw(st.integers(1, 6)),
        n_queries=patches * patch_size,
        n_heads=draw(st.integers(1, 3)),
        attn_dim=draw(st.integers(1, 4)),
        window_mode=draw(st.sampled_from(["soft", "hard"])),
        gate_temperature=draw(st.sampled_from([0.01, 0.5])),
        keyvalue_variant=draw(st.sampled_from(["default", "setting1", "setting2"])),
        patch_channels=draw(st.integers(1, 6)),
        patch_size=patch_size,
        merge_factor=merge_factor,
        n_layers=n_layers,
        fusion_mode=draw(st.sampled_from(["multiply", "add", "concat"])),
        no_dla=draw(st.booleans()),
        no_learnable_range=draw(st.booleans()),
        no_mixer=no_mixer,
        lr=draw(st.sampled_from([1e-3, 0.1, 10.0, 1e6, float("inf")])),
        beta1=draw(st.sampled_from([0.0, 0.9])),
        beta2=draw(st.sampled_from([0.0, 0.5, 0.999])),
        adam_eps=draw(st.sampled_from([1e-8, 1.0])),
        batch_size=draw(st.integers(1, 6)),
        max_epochs=draw(st.integers(1, 2)),
        patience=draw(st.integers(0, 1)),
        seed=draw(st.integers(0, 3)),
    ).validate()


@pytest.fixture
def sharded(monkeypatch):
    """The shard worker wherever fork exists, one CPU included."""
    if "fork" in multiprocessing.get_all_start_methods():
        monkeypatch.setattr(tada.shards, "shard_processes", lambda: 2)
        for var in tada.shards.BLAS_THREAD_VARS:
            monkeypatch.setenv(var, "1")


@settings(deadline=None, max_examples=150, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(cfg=legal_configs(), kind=st.sampled_from(EDGE_KINDS), data_seed=st.integers(0, 3))
def test_legal_configs_train_or_fail_naming_the_epoch(sharded, capfd, cfg, kind, data_seed):
    task, train_samples, val_samples = edge_dataset(kind, data_seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = train(cfg, train_samples, val_samples, N_FEATURES, 2, task)
        except TrainingError as e:
            assert re.search(r"epoch \d+", str(e)), str(e)
        else:
            assert 1 <= len(result.history) <= cfg.max_epochs
    assert multiprocessing.active_children() == []
    # the worker's warnings would reach stderr, not the warnings filter
    assert "Warning" not in capfd.readouterr().err
