"""Mixer hierarchy: patching, merging, fusion, and the classifier head."""

import numpy as np
import pytest

import tada.mixer
import tada.model
from helpers import random_series, redraw_params, tiny_model, tsum
from tada.config import RunConfig
from tada.errors import ConfigError, DimensionError
from tada.gradcheck import grad_check
from tada.mixer import (
    adaptive_pool_matrix,
    classify,
    fuse,
    mixer_block,
    patch_merge,
    patchify,
    run_mixer,
)
from tada.model import collate
from tada.tensor import Tensor, mul


def leaf(rng, shape):
    return Tensor(rng.uniform(-0.5, 0.5, size=shape), requires_grad=True)


# pooling and patching ---------------------------------------------------------


def test_adaptive_pool_matrix_rows_average_input_bins():
    mat = adaptive_pool_matrix(6, 3)
    np.testing.assert_array_equal(mat, [[0.5, 0.5, 0, 0, 0, 0],
                                        [0, 0, 0.5, 0.5, 0, 0],
                                        [0, 0, 0, 0, 0.5, 0.5]])
    np.testing.assert_allclose(adaptive_pool_matrix(5, 2).sum(axis=1), 1.0)
    np.testing.assert_array_equal(adaptive_pool_matrix(4, 4), np.eye(4))
    # upsampling repeats bins, rows stay stochastic
    np.testing.assert_allclose(adaptive_pool_matrix(2, 4).sum(axis=1), 1.0)


def test_patchify_shapes():
    grid = Tensor(np.arange(12.0).reshape(6, 2))
    out = patchify(grid, 2)
    assert out.shape == (3, 2, 2)
    np.testing.assert_array_equal(out.data[1], [[4.0, 5.0], [6.0, 7.0]])
    assert patchify(grid, 6).shape == (1, 6, 2)
    assert patchify(grid, 1).shape == (6, 1, 2)
    with pytest.raises(DimensionError, match="patchify"):
        patchify(grid, 4)


# mixer blocks ------------------------------------------------------------------


def test_zero_weight_block_is_identity_on_nonnegative_input():
    rng = np.random.default_rng(20)
    x = Tensor(rng.uniform(0.0, 2.0, size=(3, 2, 4)))
    zeros4 = Tensor(np.zeros((4, 4)))
    zeros3 = Tensor(np.zeros((3, 3)))
    out = mixer_block(x, zeros4, zeros3, zeros4)
    np.testing.assert_array_equal(out.data, x.data)


def test_zero_input_stays_zero():
    shapes = dict(w_in=Tensor(np.ones((4, 4))), w_across=Tensor(np.ones((3, 3))),
                  w_out=Tensor(np.ones((4, 4))))
    out = mixer_block(Tensor(np.zeros((3, 2, 4))), **shapes)
    np.testing.assert_array_equal(out.data, 0.0)


def test_zero_weight_blocks_compose_to_identity_across_depths():
    rng = np.random.default_rng(21)
    for depth in (1, 2, 3):
        cfg = RunConfig(n_queries=16, patch_size=2, merge_factor=2,
                        n_layers=depth, patch_channels=4).validate()
        params = {}
        patches = cfg.n_queries // cfg.patch_size
        for layer in range(depth):
            params[f"mixer.l{layer}.mix_in.w"] = Tensor(np.zeros((4, 4)))
            params[f"mixer.l{layer}.across.w"] = Tensor(np.zeros((patches, patches)))
            params[f"mixer.l{layer}.mix_out.w"] = Tensor(np.zeros((4, 4)))
            params[f"mixer.l{layer}.pool.w"] = Tensor(
                np.eye(2)[:, :1])  # keep the first token of each pair
            patches //= cfg.merge_factor
        grid = Tensor(rng.uniform(0.0, 1.0, size=(16, 4)))
        outs = run_mixer(grid, params, cfg)
        assert len(outs) == depth
        np.testing.assert_array_equal(
            outs[0].data, grid.data.reshape(8, 2, 4))


def test_mixer_block_matches_manual_computation():
    rng = np.random.default_rng(22)
    x = rng.normal(size=(3, 2, 4))
    w_in = rng.normal(size=(4, 4))
    w_across = rng.normal(size=(3, 3))
    w_out = rng.normal(size=(4, 4))
    out = mixer_block(Tensor(x), Tensor(w_in), Tensor(w_across), Tensor(w_out))
    t = x @ w_in
    t = (w_across @ t.reshape(3, 8)).reshape(3, 2, 4)
    want = np.maximum(x + t @ w_out, 0.0)
    np.testing.assert_allclose(out.data, want, atol=1e-14)


def test_mixer_block_gradients():
    rng = np.random.default_rng(23)
    x = Tensor(rng.uniform(0.2, 1.0, size=(2, 2, 3)))
    params = {"w_in": leaf(rng, (3, 3)), "w_across": leaf(rng, (2, 2)),
              "w_out": leaf(rng, (3, 3))}
    coeff = rng.normal(size=(2, 2, 3))
    fn = lambda: tsum(mul(mixer_block(x, **params), coeff))
    rep = grad_check(fn, params)
    assert rep.max_rel_error < 1e-6, rep.worst()


# patch merging -------------------------------------------------------------------


def test_patch_merge_bookkeeping():
    rng = np.random.default_rng(24)
    x = rng.normal(size=(4, 2, 3))
    w = np.eye(2)[:, :1]  # pick each patch's first token
    out = patch_merge(Tensor(x), Tensor(w), 2)
    assert out.shape == (2, 2, 3)
    # merged patch 0 concatenates the shrunk patches 0 and 1
    np.testing.assert_array_equal(out.data[0], [x[0, 0], x[1, 0]])
    np.testing.assert_array_equal(out.data[1], [x[2, 0], x[3, 0]])


def test_patch_merge_factor_one_keeps_token_count():
    rng = np.random.default_rng(25)
    x = rng.normal(size=(3, 2, 4))
    w = rng.normal(size=(2, 2))
    out = patch_merge(Tensor(x), Tensor(w), 1)
    assert out.shape == (3, 2, 4)
    with pytest.raises(DimensionError, match="patch_merge"):
        patch_merge(Tensor(x), Tensor(w), 2)


def test_token_count_shrinks_by_merge_factor_per_layer():
    model = tiny_model(n_queries=16, patch_size=4, merge_factor=2, n_layers=2)
    rng = np.random.default_rng(26)
    grid = Tensor(rng.normal(size=(16, model.cfg.patch_channels)))
    outs = run_mixer(grid, model.params, model.cfg)
    tokens = [int(np.prod(o.shape[:2])) for o in outs]
    assert tokens == [16, 8]


def merging_every_layer(grid, params, cfg):
    """``run_mixer`` as it was: the last layer merges too, into nothing."""
    x = patchify(grid, cfg.patch_size)
    outs = []
    for layer in range(cfg.n_layers):
        x_out = mixer_block(x, params[f"mixer.l{layer}.mix_in.w"],
                            params[f"mixer.l{layer}.across.w"],
                            params[f"mixer.l{layer}.mix_out.w"])
        outs.append(x_out)
        x = patch_merge(x_out, params[f"mixer.l{layer}.pool.w"], cfg.merge_factor)
    return outs


def test_the_last_merge_is_skipped(monkeypatch):
    # the model declares no merge weight for the last layer: a merge built
    # and left dangling would not show in the logits' graph, so every merge
    # the forward builds is counted, and a merge of the last layer into
    # nothing, under any weight, leaves the logits as they are
    model = tiny_model(n_queries=16, patch_size=4, merge_factor=2, n_layers=2)
    redraw_params(model, seed=7)
    rng = np.random.default_rng(7)
    X = collate([model.prepare(random_series(rng, 6, 3, sid=f"s{b}")) for b in range(2)])
    merged = []
    monkeypatch.setattr(tada.mixer, "patch_merge",
                        lambda x, w, m: merged.append(w) or patch_merge(x, w, m))
    logits = model.forward(X)
    assert len(merged) == 1 and merged[0] is model.params["mixer.l0.pool.w"]
    assert "mixer.l1.pool.w" not in model.params
    monkeypatch.setattr(tada.model, "run_mixer", merging_every_layer)
    last = Tensor(rng.uniform(-0.5, 0.5, size=(4, 2)))
    assert np.array_equal(model.forward(X, {**model.params, "mixer.l1.pool.w": last}).data,
                          logits.data)


def test_patches_need_only_merge_between_layers():
    # 2 patches merge once, between the two layers; the last layer's one
    # patch merges no further
    model = tiny_model(n_queries=8, patch_size=4, merge_factor=2, n_layers=2)
    rng = np.random.default_rng(3)
    loss = model.batch_loss([model.prepare(random_series(rng, 5, 3, sid=f"s{b}"))
                             for b in range(2)])
    loss.backward()
    assert np.isfinite(loss.data)
    assert model.params["mixer.l1.across.w"].shape == (1, 1)
    with pytest.raises(ConfigError, match="1 patches cannot merge by 2 between 3 layers"):
        tiny_model(n_queries=4, patch_size=4, merge_factor=2, n_layers=3)


# fusion and head -------------------------------------------------------------------


def fusion_params(rng, channels, n_scales=1, mode="multiply"):
    fuse_in = channels * n_scales if mode == "concat" else channels
    return {
        "fusion.w1": leaf(rng, (fuse_in, channels)),
        "fusion.b1": leaf(rng, (channels,)),
        "fusion.w2": leaf(rng, (channels, channels)),
        "fusion.b2": leaf(rng, (channels,)),
    }


def test_single_scale_fusion_is_pool_plus_mlp():
    rng = np.random.default_rng(27)
    cfg = RunConfig(patch_channels=4, fusion_mode="multiply").validate()
    params = fusion_params(rng, 4)
    x = rng.normal(size=(2, 2, 3, 4))
    out = fuse([Tensor(x)], params, cfg)
    flat = x.reshape(2, 6, 4)
    h = np.maximum(flat @ params["fusion.w1"].data + params["fusion.b1"].data, 0.0)
    want = h @ params["fusion.w2"].data + params["fusion.b2"].data
    np.testing.assert_allclose(out.data, want, atol=1e-14)
    assert out.shape == (2, 6, 4)


def test_multiply_by_all_ones_scale_is_identity():
    rng = np.random.default_rng(28)
    cfg = RunConfig(patch_channels=4, fusion_mode="multiply").validate()
    params = fusion_params(rng, 4)
    x = rng.normal(size=(1, 1, 4, 4))
    ones = np.ones((1, 1, 4, 4))
    with_ones = fuse([Tensor(x), Tensor(ones)], params, cfg).data
    alone = fuse([Tensor(x)], params, cfg).data
    np.testing.assert_allclose(with_ones, alone, atol=1e-14)


def test_fusion_modes_agree_in_shape_but_not_value():
    rng = np.random.default_rng(29)
    scales = [Tensor(rng.normal(size=(1, 4, 2, 5))), Tensor(rng.normal(size=(1, 2, 2, 5)))]
    outs = {}
    for mode in ("multiply", "add", "concat"):
        cfg = RunConfig(patch_channels=5, fusion_mode=mode).validate()
        params = fusion_params(rng, 5, n_scales=2, mode=mode)
        outs[mode] = fuse(scales, params, cfg).data
        # pooled to the deepest scale's token count by default
        assert outs[mode].shape == (1, 4, 5)
    assert not np.allclose(outs["multiply"], outs["add"])


def test_classify_pools_to_task_length():
    rng = np.random.default_rng(31)
    params = {"head.w": Tensor(rng.normal(size=(4, 2))),
              "head.b": Tensor(rng.normal(size=(2,)))}
    fused = Tensor(rng.normal(size=(3, 6, 4)))
    seq = classify(fused, params, [1, 1, 1])
    assert seq.shape == (3, 1, 2)
    np.testing.assert_allclose(
        seq.data[:, 0],
        fused.data.mean(axis=1) @ params["head.w"].data + params["head.b"].data,
        atol=1e-14)
    params7 = {"head.w": Tensor(rng.normal(size=(4, 7))),
               "head.b": Tensor(rng.normal(size=(7,)))}
    tokens = Tensor(rng.normal(size=(2, 50, 4)))
    step = classify(tokens, params7, [50, 20])
    assert step.shape == (2, 50, 7)
    # each sample pools to its own length; the rows after it are padding
    np.testing.assert_allclose(step.data[1, :20], classify(tokens, params7, [20, 20]).data[1],
                               atol=1e-14)
    np.testing.assert_array_equal(step.data[1, 20:], np.broadcast_to(params7["head.b"].data,
                                                                     (30, 7)))
    # purity: identical input gives identical logits
    np.testing.assert_array_equal(
        classify(fused, params, [1] * 3).data, classify(fused, params, [1] * 3).data)


def test_mixer_stack_gradients_through_fusion_and_head():
    model = tiny_model(n_queries=8, patch_size=2, merge_factor=2, n_layers=2,
                       patch_channels=4, n_features=3)
    redraw_params(model, seed=6)
    rng = np.random.default_rng(32)
    grid = Tensor(rng.uniform(0.2, 1.0, size=(2, 8, 4)))
    names = [k for k in model.params
             if k.startswith(("mixer.", "fusion.", "head."))]
    params = {k: model.params[k] for k in names}
    coeff = rng.normal(size=(2, 3, 2))

    def fn():
        outs = run_mixer(grid, model.params, model.cfg)
        logits = classify(fuse(outs, model.params, model.cfg), model.params, [1, 3])
        return tsum(mul(logits, coeff))

    rep = grad_check(fn, params)
    assert rep.max_rel_error < 1e-6, rep.worst()
