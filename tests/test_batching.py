"""One graph per mini-batch: the batched model against the per-sample reference.

Ragged batches (single-step samples, steps without observations, very
unequal lengths) must give each sample the logits and the loss gradients of
the dense per-sample model in ``reference``, in every model variant and for
both tasks, and a sample's logits must not depend on the other samples it
is batched with.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference
from helpers import DLA_KERNELS, build_series, force_dla_kernel, redraw_params, tiny_model
from tada.model import collate

N_FEATURES = 3
TOL = 1e-12
# Gradients that vanish in exact arithmetic (te's, when every sample has one
# step) are rounding noise on both paths, so no array's bound drops below
# NOISE_EPS float64 eps of the largest gradient entry: over redraw seeds
# 0-15 the two paths differed by at most 27 such eps on any array.
NOISE_EPS = 128

MODES = {"soft": {"gate_temperature": 0.05}, "hard": {"window_mode": "hard"},
         "setting1": {"keyvalue_variant": "setting1"},
         "setting2": {"keyvalue_variant": "setting2"}, "literal": {"te_mode": "literal"},
         "no_dla": {"no_dla": True}, "no_mixer": {"no_mixer": True},
         "concat": {"fusion_mode": "concat", "n_layers": 2, "n_queries": 8},
         "frozen-radii": {"no_learnable_range": True}}


@st.composite
def ragged_series(draw, sid, task):
    """A series of 1 to 14 steps, each with 0 to N_FEATURES observations."""
    n_steps = draw(st.one_of(st.just(1), st.integers(1, 3), st.integers(9, 14)))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=n_steps, max_size=n_steps))
    spec = []
    for t in np.cumsum(gaps):
        feats = draw(st.lists(st.integers(0, N_FEATURES - 1), max_size=N_FEATURES,
                              unique=True))
        spec.append((t, [(f, draw(st.floats(-2.0, 2.0))) for f in sorted(feats)]))
    if task == "step":
        label = tuple(draw(st.lists(st.integers(0, 1), min_size=n_steps, max_size=n_steps)))
    else:
        label = draw(st.integers(0, 1))
    return build_series(spec, sid=sid, label=label)


def ragged_batch(task, min_size=1):
    return st.integers(min_size, 4).flatmap(lambda n: st.tuples(
        *[ragged_series(f"s{i}", task) for i in range(n)]))


def model_for(mode, task, seed=0):
    model = tiny_model(n_features=N_FEATURES, task=task, **MODES[mode])
    redraw_params(model, seed=seed)
    return model


def relative_error(got, want):
    scale = np.abs(want).max()
    return np.abs(got - want).max() / scale if scale > 0.0 else np.abs(got).max()


def loss_gradients(model, loss):
    for p in model.params.values():
        p.grad = None
    loss.backward()
    return {k: p.grad for k, p in model.params.items() if p.grad is not None}


@pytest.mark.parametrize("task", ["sequence", "step"])
@pytest.mark.parametrize("mode", sorted(MODES))
def test_ragged_batches_match_the_per_sample_reference(mode, task):
    model = model_for(mode, task)

    @settings(deadline=None, max_examples=12, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ragged_batch(task))
    def check(series):
        preps = [model.prepare(s) for s in series]
        logits = model.batch_logits(preps)
        want = np.concatenate([reference.forward(model, p)[0].data for p in preps])
        assert logits.shape == want.shape
        assert relative_error(logits, want) <= TOL
        grads = loss_gradients(model, model.batch_loss(preps))
        want_grads = loss_gradients(model, reference.batch_loss(model, preps))
        assert grads.keys() == want_grads.keys()
        floor = NOISE_EPS * np.finfo(float).eps * max(np.abs(g).max() for g in want_grads.values())
        for k in grads:
            bound = max(TOL * np.abs(want_grads[k]).max(), floor)
            assert np.abs(grads[k] - want_grads[k]).max() <= bound, k

    check()


@pytest.mark.parametrize("task", ["sequence", "step"])
@pytest.mark.parametrize("mode", sorted(MODES))
def test_a_longer_batch_mate_leaves_logits_unchanged(mode, task):
    model = model_for(mode, task, seed=1)

    @settings(deadline=None, max_examples=8, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ragged_batch(task))
    def check(series):
        preps = [model.prepare(s) for s in series]
        n = max(len(p.times) for p in preps) + 3
        long = model.prepare(build_series(
            [(float(k), [(k % N_FEATURES, 0.5)]) for k in range(n)], sid="long",
            label=(0,) * n if task == "step" else 0))
        alone = model.batch_logits(preps)
        padded = model.batch_logits(preps + [long])[:len(alone)]
        assert relative_error(padded, alone) <= TOL

    check()


def test_attention_maps_are_trimmed_to_each_sample(monkeypatch):
    model = model_for("soft", "sequence")
    rng = np.random.default_rng(5)
    series = [build_series([(t, [(0, rng.normal()), (2, rng.normal())])
                            for t in np.sort(rng.uniform(size=n))], sid=f"s{n}")
              for n in (1, 6, 3)]
    preps = [model.prepare(s) for s in series]
    for kernel in DLA_KERNELS:
        force_dla_kernel(monkeypatch, kernel)
        for prep, att in zip(preps, model.attention_maps(collate(preps))):
            _, want = reference.forward(model, prep, dense=True)
            assert att.shape == want.shape
            assert relative_error(att, want) <= TOL
