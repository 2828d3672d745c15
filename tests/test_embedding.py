"""Per-timestep feature attention: hand cases and invariances."""

import dataclasses
import math

import numpy as np

from helpers import build_series, random_series, redraw_params, tiny_model
from tada.embedding import encode_observations, te_forward
from tada.gradcheck import grad_check
from tada.tensor import (Tensor, concat, gather, matmul, mul, relu, reshape,
                         tsum)


def te_params(model):
    return {k: v for k, v in model.params.items() if k.startswith("te.")}


def test_output_shape_and_exact_time_column():
    model = tiny_model()
    s = build_series([(0.0, [(0, 1.0)]),
                      (5.0, [(1, 2.0), (2, -1.0)]),
                      (10.0, [(0, 0.5), (1, 1.5), (2, 2.5)])])
    prep = model.prepare(s)
    out = te_forward(model.params, prep, model.cfg)
    # fixed width no matter how many observations each step has
    assert out.shape == (3, model.cfg.embed_dim + 1)
    np.testing.assert_array_equal(out.data[:, 0], [0.0, 0.5, 1.0])


def test_single_step_series():
    model = tiny_model()
    prep = model.prepare(build_series([(7.0, [(0, 1.0), (2, -2.0)])]))
    out = te_forward(model.params, prep, model.cfg)
    assert out.shape == (1, model.cfg.embed_dim + 1)
    assert out.data[0, 0] == 0.0


def test_single_observation_gets_full_weight():
    model = tiny_model()
    s = build_series([(0.0, [(1, 0.7)]), (1.0, [(0, -0.3), (2, 1.1)])])
    prep = model.prepare(s)
    x_enc = encode_observations(model.params, prep, model.cfg).data
    out = te_forward(model.params, prep, model.cfg).data
    # softmax over one candidate is exactly 1: the row is that value vector
    want = x_enc[0] @ model.params["te.value.w"].data
    np.testing.assert_allclose(out[0, 1:], want, atol=1e-12)


def test_identical_observations_average_to_the_shared_value():
    model = tiny_model()
    # prepare refuses a step that repeats a feature, so the first step's
    # observation is doubled in the prepared arrays te reads
    prep = model.prepare(build_series([(0.0, [(1, 0.7)]), (1.0, [(0, 1.0)])]))
    prep = dataclasses.replace(prep, feat_idx=prep.feat_idx[[0, 0, 1]],
                               step_of=prep.step_of[[0, 0, 1]],
                               values_col=prep.values_col[[0, 0, 1]])
    x_enc = encode_observations(model.params, prep, model.cfg).data
    out = te_forward(model.params, prep, model.cfg).data
    want = x_enc[0] @ model.params["te.value.w"].data
    np.testing.assert_allclose(out[0, 1:], want, atol=1e-12)


def test_zero_query_attends_uniformly():
    model = tiny_model()
    model.params["te.query"].data = np.zeros_like(model.params["te.query"].data)
    s = build_series([(0.0, [(0, 1.0), (1, -2.0), (2, 0.5)]),
                      (1.0, [(0, 2.0), (1, 1.0)])])
    prep = model.prepare(s)
    x_enc = encode_observations(model.params, prep, model.cfg).data
    vals = x_enc @ model.params["te.value.w"].data
    out = te_forward(model.params, prep, model.cfg).data
    np.testing.assert_allclose(out[0, 1:], vals[:3].mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(out[1, 1:], vals[3:].mean(axis=0), atol=1e-12)


def test_permutation_invariance_within_steps():
    rng = np.random.default_rng(5)
    model = tiny_model(n_features=6)
    base = random_series(rng, n_steps=20, n_features=6)
    shuffled = build_series([
        (step.time, [(o.feature, o.value)
                     for o in (step.observations[j]
                               for j in rng.permutation(len(step.observations)))])
        for step in base.steps])
    out_a = te_forward(model.params, model.prepare(base), model.cfg).data
    out_b = te_forward(model.params, model.prepare(shuffled), model.cfg).data
    assert np.abs(out_a - out_b).max() < 1e-12


def test_later_steps_never_change_earlier_rows():
    model = tiny_model()
    prefix = [(0.0, [(0, 1.0)]), (4.0, [(1, 2.0), (2, -1.0)]), (10.0, [(2, 0.3)])]
    extended = prefix + [(25.0, [(0, -0.7), (1, 0.2)])]
    out_a = te_forward(model.params, model.prepare(build_series(prefix)),
                       model.cfg).data
    out_b = te_forward(model.params, model.prepare(build_series(extended)),
                       model.cfg).data
    # attended columns are per-step; only the normalized time column rescales
    assert np.abs(out_a[:, 1:] - out_b[:3, 1:]).max() < 1e-12
    np.testing.assert_allclose(out_b[:, 0], [0.0, 4 / 25, 10 / 25, 1.0])


def test_literal_encoding_is_value_then_feature_index():
    model = tiny_model(n_features=4, te_mode="literal")
    prep = model.prepare(build_series([(0.0, [(3, 0.5)]), (1.0, [(0, 2.0)])]))
    x_enc = encode_observations(model.params, prep, model.cfg).data
    np.testing.assert_array_equal(x_enc, [[0.5, 3.0], [2.0, 0.0]])


def test_embedding_encoding_appends_feature_table_row():
    model = tiny_model()
    prep = model.prepare(build_series([(0.0, [(0, 0.0)]), (1.0, [(2, 1.5)])]))
    x_enc = encode_observations(model.params, prep, model.cfg).data
    table = model.params["te.embed"].data
    np.testing.assert_array_equal(x_enc[0], np.concatenate([[0.0], table[0]]))
    np.testing.assert_array_equal(x_enc[1], np.concatenate([[1.5], table[2]]))
    # same feature index always encodes identically
    prep2 = model.prepare(build_series([(0.0, [(2, 1.5)]), (1.0, [(2, 1.5)])]))
    x2 = encode_observations(model.params, prep2, model.cfg).data
    np.testing.assert_array_equal(x2[0], x2[1])


def test_with_time_false_drops_the_time_column():
    model = tiny_model()
    prep = model.prepare(build_series([(0.0, [(0, 1.0)]), (1.0, [(1, 2.0)])]))
    full = te_forward(model.params, prep, model.cfg)
    bare = te_forward(model.params, prep, model.cfg, with_time=False)
    assert bare.shape == (2, model.cfg.embed_dim)
    np.testing.assert_array_equal(full.data[:, 1:], bare.data)


def test_te_gradients_match_finite_differences():
    for mode, seed in (("embedding", 1), ("literal", 3)):
        model = tiny_model(n_features=4, te_mode=mode)
        redraw_params(model, seed=seed)
        rng = np.random.default_rng(seed + 10)
        prep = model.prepare(random_series(rng, n_steps=6, n_features=4))
        coeff = rng.normal(size=(6, model.cfg.embed_dim + 1))
        fn = lambda: tsum(mul(te_forward(model.params, prep, model.cfg), coeff))
        rep = grad_check(fn, te_params(model), eps=1e-5)
        assert rep.max_rel_error < 1e-6, (mode, rep.worst())


def tiled_masked_softmax(scores, seg_mask):
    """The earlier step softmax: (N,) scores tiled to a contiguous (T, N)
    array, softmaxed over each step's observations, gradients summed back
    over the tiled rows."""
    S = np.ascontiguousarray(np.broadcast_to(scores.data.reshape(1, -1), seg_mask.shape))
    shifted = np.where(seg_mask, S, -np.inf)
    c = shifted.max(axis=-1, keepdims=True, initial=-np.inf)
    c = np.where(np.isfinite(c), c, 0.0)
    e = np.exp(np.where(seg_mask, S - c, -np.inf))
    z = e.sum(axis=-1, keepdims=True)
    w = np.divide(e, z, out=np.zeros_like(e), where=z > 0.0)

    def backward(g):
        dot = (g * w).sum(axis=-1, keepdims=True)
        return ((w * (g - dot)).sum(axis=(0,), keepdims=True).reshape(scores.shape),)

    return Tensor(w, requires_grad=True, parents=(scores,), backward=backward)


def summary_params(rng, enc, embed_dim, width=6):
    """Weights of the earlier per-step summary MLP and its key rows."""
    shapes = {"w1": (enc, width), "b1": (width,), "w2": (width, width), "b2": (width,),
              "key": (width, embed_dim)}
    return {k: Tensor(rng.normal(0.0, 3.0, size=v), requires_grad=True)
            for k, v in shapes.items()}


def reference_te_forward(params, summary, prep, cfg):
    """The earlier te: every key also carries an MLP summary of its step,
    mean-pooled through a dense (T, N) matrix, and the step softmax is the
    tiled one.  The summary is shared by all of a step's observations, so
    it cancels in the softmax."""
    seg_mask = prep.step_of[None, :] == np.arange(len(prep.times))[:, None]
    seg_mean = seg_mask / seg_mask.sum(axis=1, keepdims=True)
    x_enc = encode_observations(params, prep, cfg)
    h = relu(matmul(x_enc, summary["w1"]) + summary["b1"])
    h = matmul(h, summary["w2"]) + summary["b2"]
    step_summary = matmul(Tensor(seg_mean), h)
    key_w = concat([summary["key"], params["te.key.w"]], axis=0)
    keys = matmul(concat([gather(step_summary, prep.step_of), x_enc], axis=1), key_w)
    scores = mul(matmul(keys, params["te.query"]), 1.0 / math.sqrt(cfg.embed_dim))
    weights = tiled_masked_softmax(scores, seg_mask)
    attended = matmul(weights, matmul(x_enc, params["te.value.w"]))
    return concat([Tensor(prep.times[:, None]), attended], axis=1)


def max_rel_diff(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def test_te_matches_the_reference_with_step_summary():
    multi_obs_steps = 0
    for mode in ("embedding", "literal"):
        for seed in range(4):
            model = tiny_model(n_features=4, te_mode=mode)
            redraw_params(model, seed=seed)
            rng = np.random.default_rng(seed + 20)
            prep = model.prepare(random_series(rng, n_steps=int(rng.integers(1, 12)),
                                               n_features=4))
            multi_obs_steps += int((np.bincount(prep.step_of) > 1).sum())
            enc = encode_observations(model.params, prep, model.cfg).shape[1]
            summary = summary_params(rng, enc, model.cfg.embed_dim)
            coeff = rng.normal(size=(len(prep.times), model.cfg.embed_dim + 1))
            results = []
            for forward in (lambda: te_forward(model.params, prep, model.cfg),
                            lambda: reference_te_forward(model.params, summary, prep,
                                                         model.cfg)):
                for p in model.params.values():
                    p.grad = None
                out = forward()
                tsum(mul(out, coeff)).backward()
                results.append((out.data, {k: p.grad for k, p in te_params(model).items()}))
            (out, grads), (want, want_grads) = results
            assert max_rel_diff(out, want) <= 1e-12, (mode, seed)
            assert grads.keys() == want_grads.keys()
            for k in grads:
                assert max_rel_diff(grads[k], want_grads[k]) <= 1e-12, (mode, seed, k)
    assert multi_obs_steps > 0
