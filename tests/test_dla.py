"""Dynamic local attention: windows, locality, and the anchor grid."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
import tada.dla
import tada.embedding
import tada.mixer
import tada.model
import tada.tensor
from helpers import (DLA_KERNELS, block_gates, build_series, force_dla_kernel, graph_nodes,
                     mask_observations, observation_gates, observed_pairs, random_series,
                     redraw_params, tiny_model, tsum)
from reference import dense_te_forward
from tada.cli import gradcheck_setup, small_gradcheck_config
from tada.config import RunConfig
from tada.dla import anchor_times, attention_maps, dla_forward, pools_by_observation
from tada.gradcheck import grad_check
from tada.model import TadaModel, collate
from tada.tensor import Tensor, mul, reshape


def raw_radius(r):
    # inverse softplus so the model's radii() lands exactly on r
    return math.log(math.expm1(r))


def identity_head_model(n_features=4, **overrides):
    """One head projected by the identity: grid equals the head output."""
    model = tiny_model(n_features=n_features, n_heads=1,
                       patch_channels=n_features, patch_size=2, **overrides)
    model.params["dla.out.w"].data = np.eye(n_features)
    model.params["dla.out.b"].data = np.zeros(n_features)
    return model


def gate_row(anchor, times, radius, mode, tau):
    """The model's gate for one (anchor, radius) pair, all steps observed."""
    times = np.asarray(times, dtype=np.float64)
    cfg = SimpleNamespace(window_mode=mode, gate_temperature=tau)
    gates = block_gates(np.array([radius]), times[None], np.array([anchor]), cfg,
                        np.ones((1, 1, 1, len(times)), dtype=bool))
    return gates[0, 0, 0]


def sample_dla(model, prep, x_hat):
    """DLA on a batch of one, as that sample's (L, C) grid."""
    grid = dla_forward(model.params, collate([prep]), model.cfg, x_hat)
    return reshape(grid, grid.shape[1:])


def sample_maps(model, prep, x_hat):
    """That sample's (H, L, T, D) attention map."""
    return attention_maps(model.params, collate([prep]), model.cfg, x_hat)[0]


def dla_inputs(model, series):
    prep = model.prepare(series)
    return prep, model._dla_keys(model.params, prep)


def forward_grid(model, series):
    return sample_dla(model, *dla_inputs(model, series))


def forward_maps(model, series):
    return sample_maps(model, *dla_inputs(model, series))


# anchors and window gates -----------------------------------------------------


def test_anchor_times_formula():
    np.testing.assert_allclose(anchor_times(4), [0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(anchor_times(1), [1.0])
    np.testing.assert_array_equal(anchor_times(7), np.arange(1, 8) * (1.0 / 7))


def test_hard_window_membership():
    times = np.array([0.1, 0.3, 0.5])
    np.testing.assert_array_equal(
        gate_row(0.3, times, 0.15, "hard", 0.05), [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(
        gate_row(0.3, times, 0.25, "hard", 0.05), [1.0, 1.0, 1.0])


def test_hard_window_clips_to_the_observation_span():
    # anchor near the edge: the window reaches past 0, inside points still count
    times = np.array([0.0, 0.05, 0.9])
    np.testing.assert_array_equal(
        gate_row(0.1, times, 0.3, "hard", 0.05), [1.0, 1.0, 0.0])


def test_soft_gate_is_half_at_the_boundary():
    # dyadic times keep |t - anchor| - r exactly zero at the boundary
    times = np.array([0.25, 0.5, 0.75])
    gate = gate_row(0.5, times, 0.25, "soft", 0.05)
    assert gate[0] == 0.5 and gate[2] == 0.5
    assert gate[1] == 1.0 / (1.0 + math.exp(-5.0))


def test_soft_gate_converges_to_the_hard_indicator():
    rng = np.random.default_rng(6)
    times = np.sort(rng.uniform(0.0, 1.0, size=30))
    for anchor, r in [(0.3, 0.12), (0.8, 0.3), (0.05, 0.07)]:
        hard = gate_row(anchor, times, r, "hard", 0.05)
        soft = gate_row(anchor, times, r, "soft", 1e-4)
        np.testing.assert_allclose(soft, hard, atol=1e-9)


def test_window_support_grows_monotonically_with_radius():
    rng = np.random.default_rng(7)
    times = np.sort(rng.uniform(0.0, 1.0, size=25))
    for _ in range(50):
        anchor = rng.uniform(0.0, 1.0)
        r1 = rng.uniform(0.01, 0.5)
        r2 = r1 + rng.uniform(0.0, 0.5)
        for mode in ("hard", "soft"):
            g1 = gate_row(anchor, times, r1, mode, 0.05)
            g2 = gate_row(anchor, times, r2, mode, 0.05)
            assert np.all(g2 >= g1)


@st.composite
def gate_inputs(draw):
    """(B, T) sorted times in [0, 1], (D,) radii, a (B, 1, D or 1, T) mask and
    the anchors of 1 to 8 queries; a one-feature mask is setting2's."""
    B, T, D = draw(st.integers(1, 3)), draw(st.integers(1, 9)), draw(st.integers(1, 4))
    d_mask = draw(st.sampled_from([1, D]))
    unit = st.floats(0.0, 1.0)
    times = np.sort(np.array(draw(st.lists(unit, min_size=B * T, max_size=B * T))).reshape(B, T))
    radii = np.array(draw(st.lists(unit, min_size=D, max_size=D)))
    mask = np.array(draw(st.lists(st.booleans(), min_size=B * d_mask * T,
                                  max_size=B * d_mask * T))).reshape(B, 1, d_mask, T)
    return times, radii, mask, anchor_times(draw(st.integers(1, 8)))


@settings(deadline=None, max_examples=80)
@given(gate_inputs(), st.sampled_from(["hard", "soft"]), st.sampled_from([0.01, 0.05]))
def test_gates_are_the_chain_gates_at_observed_entries(inputs, mode, tau):
    # the gates evaluated at the observed entries only equal, bit for bit, the
    # dense chain that evaluated every entry and multiplied by the mask
    times, radii, mask, anchors = inputs
    cfg = SimpleNamespace(window_mode=mode, gate_temperature=tau)
    got = block_gates(radii, times, anchors, cfg, mask)
    want = reference.chain_gates(Tensor(radii), times, anchors, cfg, mask).data
    assert got.dtype == np.float64 and np.array_equal(got, want)
    if mask.shape[2] == len(radii):
        # one gate per observation, the same bits, and zero at padding slots
        (B, T), D = times.shape, len(radii)
        obs = mask_observations(mask[:, 0].transpose(0, 2, 1), np.zeros((B, T, D)))
        per_obs = observation_gates(radii, times.reshape(-1), obs, anchors, cfg)
        for b in range(B):
            live = obs.live[b]
            assert np.array_equal(per_obs[b][:, live],
                                  want[b][:, obs.feat[b, live], obs.step[b, live] - b * T])
            assert np.all(per_obs[b][:, ~live] == 0.0)


@settings(deadline=None, max_examples=80)
@given(gate_inputs(), st.sampled_from(["hard", "soft"]), st.sampled_from([0.01, 0.05]))
def test_gates_are_the_earlier_window_expression(inputs, mode, tau):
    # formed in place in one buffer, the gates keep the bits of the
    # expression that made a fresh array per step: for the block's
    # (B, L, D, T) broadcast, setting2's (B, 1, 1, T) mask among them, and
    # for one gate per observation
    times, radii, mask, anchors = inputs
    cfg = SimpleNamespace(window_mode=mode, gate_temperature=tau)
    want = reference.window(times[:, None, None], radii[:, None], anchors[:, None, None], cfg)
    assert np.array_equal(block_gates(radii, times, anchors, cfg, mask), want * mask)
    (B, T), D = times.shape, len(radii)
    obs = mask_observations(np.broadcast_to(mask[:, 0], (B, D, T)).transpose(0, 2, 1),
                            np.zeros((B, T, D)))
    want = reference.window(times.reshape(-1)[obs.step][:, None], radii[obs.feat][:, None],
                            anchors[:, None], cfg) * obs.live[:, None]
    assert np.array_equal(observation_gates(radii, times.reshape(-1), obs, anchors, cfg), want)


# grid construction -------------------------------------------------------------


def test_grid_shape_fixed_regardless_of_series_length():
    model = tiny_model(n_features=3)
    rng = np.random.default_rng(8)
    for n_steps in (1, 4, 9):
        grid = forward_grid(model, random_series(rng, n_steps, 3))
        assert grid.shape == (model.cfg.n_queries, model.cfg.patch_channels)
        assert np.all(np.diff(anchor_times(model.cfg.n_queries)) > 0)
        assert np.all(np.isfinite(grid.data))


def test_radii_reported_as_softplus_of_raw():
    model = tiny_model(n_features=3)
    model.params["dla.range_raw"].data = np.array([raw_radius(0.1),
                                                   raw_radius(0.25),
                                                   raw_radius(0.7)])
    np.testing.assert_allclose(model.radii(), [0.1, 0.25, 0.7], atol=1e-15)


def test_single_point_window_reproduces_the_raw_value():
    model = identity_head_model(window_mode="hard")
    model.params["dla.range_raw"].data = np.full(4, raw_radius(0.1))
    s = build_series([(0.0, [(0, -0.4)]), (0.5, [(2, 1.7)]), (1.0, [(0, 0.9)])])
    grid = forward_grid(model, s).data
    # anchor 0.5, feature 2: exactly one in-window observed point
    assert grid[1, 2] == 1.7
    # anchor 0.25 sees nothing of feature 2; feature 3 is never observed
    assert grid[0, 2] == 0.0
    np.testing.assert_array_equal(grid[:, 3], 0.0)


def test_unobserved_feature_stays_zero_in_every_mode():
    for mode in ("hard", "soft"):
        model = identity_head_model(window_mode=mode)
        s = build_series([(0.0, [(0, 1.0)]), (0.5, [(1, -2.0)]), (1.0, [(0, 0.3)])])
        grid = forward_grid(model, s).data
        np.testing.assert_array_equal(grid[:, 2], 0.0)
        np.testing.assert_array_equal(grid[:, 3], 0.0)


def test_uniform_scores_average_the_window():
    # zero query projection makes scores uniform: each cell is the plain
    # mean of the observed values inside its window
    model = identity_head_model(window_mode="hard")
    model.params["dla.q.w"].data = np.zeros_like(model.params["dla.q.w"].data)
    rng = np.random.default_rng(9)
    model.params["dla.range_raw"].data = rng.uniform(-3.0, 0.0, size=4)
    s = random_series(rng, n_steps=12, n_features=4)
    prep = model.prepare(s)
    grid = forward_grid(model, s).data
    radii = model.radii()
    for i, anchor in enumerate(anchor_times(model.cfg.n_queries)):
        for d in range(4):
            lo = max(0.0, anchor - radii[d])
            hi = min(1.0, anchor + radii[d])
            member = (prep.times >= lo) & (prep.times <= hi) & observed_pairs(s, 4)[:, d]
            want = prep.values[member, d].mean() if member.any() else 0.0
            assert abs(grid[i, d] - want) < 1e-12, (i, d)


def test_hard_window_locality_and_weight_sums():
    # smaller version of the acceptance sweep: exact zeros outside R(i,d),
    # in-window weight sums exactly 0 or 1.  A soft gate is never zero, so
    # under soft windows every row of an observed feature sums to 1, also at
    # anchors whose window holds none of its observations
    rng = np.random.default_rng(10)
    soft_empty_rows = 0
    for trial in range(10):
        hard = tiny_model(n_features=3, window_mode="hard")
        soft = tiny_model(n_features=3)
        raw = rng.uniform(-3.0, 0.5, size=3)
        for model in (hard, soft):
            redraw_params(model, seed=trial)
            model.params["dla.range_raw"].data = raw
        s = random_series(rng, n_steps=int(rng.integers(2, 12)), n_features=3,
                          sid=f"loc-{trial}")
        prep = hard.prepare(s)
        w, w_soft = forward_maps(hard, s), forward_maps(soft, s)    # (heads, L, T, D)
        radii = hard.radii()
        observed = observed_pairs(s, 3)
        for i, anchor in enumerate(anchor_times(hard.cfg.n_queries)):
            lo = np.maximum(0.0, anchor - radii)
            hi = np.minimum(1.0, anchor + radii)
            inside = (prep.times[:, None] >= lo) & (prep.times[:, None] <= hi) & observed
            assert np.all(w[:, i][:, ~inside] == 0.0)
            sums = w[:, i].sum(axis=1)         # (heads, D)
            empty = ~inside.any(axis=0)
            assert np.all(sums[:, empty] == 0.0)
            np.testing.assert_allclose(sums[:, ~empty], 1.0, atol=1e-12)
            seen = observed.any(axis=0)
            soft_sums = w_soft[:, i].sum(axis=1)
            np.testing.assert_allclose(soft_sums[:, seen], 1.0, atol=1e-12)
            assert np.all(soft_sums[:, ~seen] == 0.0)
            soft_empty_rows += np.count_nonzero(empty & seen)
    assert soft_empty_rows > 0


def test_fully_masked_insertion_leaves_other_features_alone():
    for mode in ("hard", "soft"):
        model = identity_head_model(window_mode=mode)
        base = [(0.0, [(0, 1.0), (2, -0.5)]), (0.4, [(1, 2.0)]), (1.0, [(0, 0.3)])]
        extended = base[:2] + [(0.7, [(3, 9.9)])] + base[2:]
        g_base = forward_grid(model, build_series(base)).data
        g_ext = forward_grid(model, build_series(extended)).data
        # features 0..2 never observe the inserted step: their columns hold
        assert np.abs(g_base[:, :3] - g_ext[:, :3]).max() < 1e-12
        assert np.abs(g_ext[:, 3]).max() > 0.0


def test_attention_maps_shape_and_retention(monkeypatch):
    model = tiny_model(n_features=3)
    s = build_series([(0.0, [(0, 1.0)]), (1.0, [(1, 2.0)])])
    for kernel in DLA_KERNELS:
        force_dla_kernel(monkeypatch, kernel)
        maps = forward_maps(model, s)
        assert maps.shape == (model.cfg.n_heads, model.cfg.n_queries, 2, 3)


def test_frozen_radii_keep_their_windows(monkeypatch):
    # no_learnable_range stops the radii from training; the windows stay, so
    # the forward pass equals the learnable model's in both gate modes
    rng = np.random.default_rng(13)
    s = random_series(rng, n_steps=9, n_features=3)
    for kernel, mode in [(k, m) for k in DLA_KERNELS for m in ("hard", "soft")]:
        force_dla_kernel(monkeypatch, kernel)
        learnable = tiny_model(n_features=3, window_mode=mode)
        frozen = tiny_model(n_features=3, window_mode=mode, no_learnable_range=True)
        for model in (learnable, frozen):
            redraw_params(model, seed=5)
            model.params["dla.range_raw"].data = np.full(3, raw_radius(0.1))
        maps = forward_maps(frozen, s)
        np.testing.assert_array_equal(maps, forward_maps(learnable, s))
        np.testing.assert_array_equal(forward_grid(frozen, s).data,
                                      forward_grid(learnable, s).data)
        if mode == "hard":
            prep = frozen.prepare(s)
            anchors = anchor_times(frozen.cfg.n_queries)
            outside = np.abs(prep.times[None, :] - anchors[:, None]) > 0.1
            assert outside.any() and np.all(maps[:, outside] == 0.0)


def per_head_reference(model, prep, x_hat, observed):
    """Head-by-head DLA in plain numpy from the column blocks of dla.q.w and
    dla.k.w, on the (T, embed_dim + 1) projected keys ``x_hat`` and with the
    sample's (T, D) ``observed`` mask; returns the (L, patch_channels) grid
    and (H, L, T, D_eff) maps."""
    cfg = model.cfg
    p = {k: v.data for k, v in model.params.items()}
    if cfg.keyvalue_variant == "setting1":
        keys, values, mask = prep.values, prep.values, observed
    elif cfg.keyvalue_variant == "setting2":
        keys = values = x_hat
        mask = np.ones(x_hat.shape, dtype=bool)
    else:
        keys, values, mask = x_hat, prep.values, observed
    radii = model.radii()
    t = prep.times[None, :, None]
    a = anchor_times(model.cfg.n_queries)[:, None, None]
    if cfg.window_mode == "hard":
        gates = ((t >= a - radii) & (t <= a + radii)).astype(np.float64)
    else:
        gates = 1.0 / (1.0 + np.exp(-(radii - np.abs(t - a)) / cfg.gate_temperature))
    gates = gates * mask                                       # (L, T, D_eff)
    A = cfg.attn_dim
    heads, maps = [], []
    for h in range(cfg.n_heads):
        cols = slice(h * A, (h + 1) * A)
        q = p["dla.queries"] @ p["dla.q.w"][:, cols]
        k = keys @ p["dla.k.w"][:, cols]
        scores = (q @ k.T / math.sqrt(A))[:, :, None]          # (L, T, 1)
        u = gates * np.exp(scores - scores.max(axis=1, keepdims=True))
        z = u.sum(axis=1, keepdims=True)
        w = np.divide(u, z, out=np.zeros_like(u), where=z > 0.0)
        heads.append((w * values[None]).sum(axis=1))           # (L, D_eff)
        maps.append(w)
    grid = np.concatenate(heads, axis=1) @ p["dla.out.w"] + p["dla.out.b"]
    return grid, np.stack(maps)


def test_stacked_heads_match_the_per_head_reference(monkeypatch):
    for kernel in DLA_KERNELS:
        force_dla_kernel(monkeypatch, kernel)
        stacked_heads_match_the_per_head_reference()


def stacked_heads_match_the_per_head_reference():
    rng = np.random.default_rng(14)
    variants = [{"window_mode": "soft", "gate_temperature": 0.05},
                {"window_mode": "hard"},
                {"keyvalue_variant": "setting1"},
                {"keyvalue_variant": "setting2", "gate_temperature": 0.05}]
    for v, overrides in enumerate(variants):
        model = tiny_model(n_features=3, n_heads=3, **overrides)
        redraw_params(model, seed=v)
        model.params["dla.range_raw"].data = rng.uniform(-3.0, 0.5, size=model.radii().size)
        for trial in range(5):
            s = random_series(rng, int(rng.integers(1, 12)), 3)
            prep, z = dla_inputs(model, s)
            got = sample_dla(model, prep, z).data, sample_maps(model, prep, z)
            x_hat = None if z is None else \
                reference.dla_keys(reference.te_rows, model.params, prep, model.cfg).data
            want = per_head_reference(model, prep, x_hat, observed_pairs(s, 3))
            for out, ref in zip(got, want):
                assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max(), (overrides, trial)


# key/value variants -------------------------------------------------------------


def test_setting1_skips_the_embedding_stage():
    model = tiny_model(n_features=3, keyvalue_variant="setting1")
    # key projection takes raw (T, D) values
    assert model.params["dla.k.w"].data.shape[0] == 3
    s = build_series([(0.0, [(0, 1.0)]), (0.5, [(1, -1.0)]), (1.0, [(2, 2.0)])])
    grid = forward_grid(model, s)
    assert grid.shape == (model.cfg.n_queries, model.cfg.patch_channels)
    assert model.logits(model.prepare(s)).shape == (1, 2)


def test_setting2_attends_over_embeddings():
    model = tiny_model(n_features=3, keyvalue_variant="setting2")
    s = build_series([(0.0, [(0, 1.0)]), (1.0, [(2, 2.0)])])
    assert forward_grid(model, s).shape == (model.cfg.n_queries, model.cfg.patch_channels)
    maps = forward_maps(model, s)
    # effective channels are the embedding plus its time column
    assert maps.shape[-1] == model.cfg.embed_dim + 1
    # no observation mask in this variant: every step can win weight
    sums = maps.sum(axis=2)
    np.testing.assert_allclose(sums, np.where(sums > 0.5, 1.0, sums), atol=1e-12)


# gradients -----------------------------------------------------------------------


def dla_params(model):
    return {k: v for k, v in model.params.items() if k.startswith("dla.")}


def test_range_gradient_nonzero_in_soft_mode_only():
    rng = np.random.default_rng(11)
    s = random_series(rng, n_steps=8, n_features=3)
    model = tiny_model(n_features=3, window_mode="soft", gate_temperature=0.05)
    model.batch_loss([model.prepare(s)]).backward()
    g = model.params["dla.range_raw"].grad
    assert g is not None and np.any(g != 0.0)

    hard = tiny_model(n_features=3, window_mode="hard")
    hard.batch_loss([hard.prepare(s)]).backward()
    assert hard.params["dla.range_raw"].grad is None
    assert "dla.range_raw" not in hard.trainable()

    frozen = tiny_model(n_features=3, no_learnable_range=True)
    frozen.batch_loss([frozen.prepare(s)]).backward()
    assert frozen.params["dla.range_raw"].grad is None
    assert "dla.range_raw" not in frozen.trainable()
    assert "dla.range_raw" in frozen.params


@pytest.mark.parametrize("variant", ["default", "setting2"])
def test_soft_batch_graph_has_no_gate_shaped_node(variant):
    # the window gates are a plain array and the radii get their gradient
    # inside the pool, so no (B, L, D_eff, T_max) node is built or backpropagated
    model, preps = gradcheck_setup(small_gradcheck_config(keyvalue_variant=variant))
    loss = model.batch_loss(preps)
    gate_shape = (len(preps), model.cfg.n_queries, model.radii().size,
                  collate(preps).t_max)
    assert all(n.shape != gate_shape for n in graph_nodes(loss))
    loss.backward()
    assert np.all(model.params["dla.range_raw"].grad != 0.0)


def test_dla_gradients_match_finite_differences():
    # gate temperature kept moderate: sharper gates saturate the sigmoid and
    # push its gradient under the difference-quotient noise floor
    model = tiny_model(n_features=3, window_mode="soft", gate_temperature=0.05)
    redraw_params(model, seed=4)
    rng = np.random.default_rng(12)
    prep = model.prepare(random_series(rng, n_steps=7, n_features=3))
    coeff = rng.normal(size=(model.cfg.n_queries, model.cfg.patch_channels))
    x_hat_const = model._dla_keys(model.params, prep)

    def fn():
        grid = dla_forward(model.params, collate([prep]), model.cfg, x_hat_const)
        return tsum(mul(grid, coeff))

    rep = grad_check(fn, dla_params(model), eps=3e-5)
    assert rep.max_rel_error < 1e-6, rep.worst()


# the per-sample dense reference ------------------------------------------------------

MODES = {"soft": {}, "soft-sharp": {"gate_temperature": 0.01}, "hard": {"window_mode": "hard"},
         "setting1": {"keyvalue_variant": "setting1"},
         "setting2": {"keyvalue_variant": "setting2"}, "literal": {"te_mode": "literal"},
         "no_dla": {"no_dla": True}, "frozen-radii": {"no_learnable_range": True}}


def batched_outputs(model, preps):
    """te output, logits and attention map of every sample from one batched
    forward, and every parameter gradient of the batch loss."""
    for p in model.params.values():
        p.grad = None
    model.batch_loss(preps).backward()
    grads = {k: p.grad for k, p in model.params.items() if p.grad is not None}
    X = collate(preps)
    logits = model.forward(X)
    maps = None if model.cfg.no_dla else model.attention_maps(X)
    te_rows = None
    if "te.value.w" in model.params:      # setting1 runs no te and has no te weights
        te_rows = reference.te_rows(model.params, X, model.cfg).data
        te_rows = te_rows.reshape(len(preps), X.t_max, -1)
    arrays = []
    for b, prep in enumerate(preps):
        if te_rows is not None:
            arrays.append(te_rows[b, :X.lengths[b]])
        arrays.append(logits.data[b, :len(prep.labels)])
        if maps is not None:
            arrays.append(maps[b])
    return arrays, grads


def reference_outputs(model, preps):
    """The same, one dense per-sample graph at a time."""
    for p in model.params.values():
        p.grad = None
    reference.batch_loss(model, preps, dense=True).backward()
    grads = {k: p.grad for k, p in model.params.items() if p.grad is not None}
    arrays = []
    for prep in preps:
        logits, maps = reference.forward(model, prep, dense=True)
        if "te.value.w" in model.params:
            arrays.append(dense_te_forward(model.params, prep, model.cfg).data)
        arrays.append(logits.data)
        if maps is not None:
            arrays.append(maps)
    return arrays, grads


def assert_matches_reference(model, preps, tag):
    arrays, grads = batched_outputs(model, preps)
    want_arrays, want_grads = reference_outputs(model, preps)
    assert len(arrays) == len(want_arrays) and grads.keys() == want_grads.keys(), tag
    for got, want in zip(arrays, want_arrays):
        assert got.shape == want.shape, tag
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), tag
    for k in grads:
        assert np.abs(grads[k] - want_grads[k]).max() \
            <= 1e-12 * np.abs(want_grads[k]).max(), (tag, k)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_model_matches_the_dense_reference_path(mode, monkeypatch):
    # steps with several observations, so te's softmax does real work; both
    # DLA pools (setting2 always takes the block)
    for kernel in DLA_KERNELS:
        force_dla_kernel(monkeypatch, kernel)
        for seed in range(3):
            model, preps = gradcheck_setup(small_gradcheck_config(seed=seed, **MODES[mode]))
            assert_matches_reference(model, preps, (mode, kernel, seed))


# the pool choice ------------------------------------------------------------------


def pool_calls(monkeypatch):
    """Names of the pools DLA calls, in order."""
    calls = []
    for name in ("observation_pool", "gated_attention_pool"):
        def spy(*args, _name=name, _op=getattr(tada.dla, name), **kwargs):
            calls.append(_name)
            return _op(*args, **kwargs)
        monkeypatch.setattr(tada.dla, name, spy)
    return calls


def test_pool_rule_sits_at_equal_weight_and_gate_counts():
    # the observation pool while n_heads * N_max < D_eff * T_max
    assert pools_by_observation(2, 59, 4, 30) and pools_by_observation(1, 119, 4, 30)
    assert not pools_by_observation(2, 60, 4, 30) and not pools_by_observation(1, 120, 4, 30)
    assert pools_by_observation(2, 0, 1, 1) and not pools_by_observation(3, 12, 12, 3)


def test_a_batch_takes_the_pool_its_sizes_choose(monkeypatch):
    # two heads and four features: two observations on each of T steps give
    # 2 * 2T = 4T, the boundary, where the gate block wins; one observation
    # fewer moves the batch onto the observation pool
    calls = pool_calls(monkeypatch)
    model = tiny_model(n_features=4, n_heads=2)
    T = 6
    full = [(k / T, [(k % 4, 1.0), ((k + 1) % 4, -1.0)]) for k in range(T)]
    for spec, want in ((full, "gated_attention_pool"),
                       (full[:-1] + [(1.0, [(0, 0.5)])], "observation_pool")):
        prep = model.prepare(build_series(spec))
        assert (len(prep.feat_idx), prep.t_max) == (2 * T - (want == "observation_pool"), T)
        model.batch_loss([prep, prep])
        assert calls.pop() == want and not calls
    # setting2 pools its step embeddings on the block however sparse the batch
    model = tiny_model(n_features=4, n_heads=2, keyvalue_variant="setting2")
    model.batch_loss([model.prepare(build_series([(0.0, [(0, 1.0)]), (1.0, [(1, 1.0)])]))])
    assert calls == ["gated_attention_pool"]


def test_a_batch_without_observations_pools_zero_rows(monkeypatch):
    # every step empty, as a series built in code may be: N_max = 0 on the
    # observation pool, zero pooled rows on both pools, so the grid is dla.out.b
    model = tiny_model(n_features=3)
    redraw_params(model, seed=3)
    empty = [model.prepare(build_series([(t, []) for t in times], sid=f"e{i}"))
             for i, times in enumerate(([0.0, 0.5, 1.0], [0.0, 1.0]))]
    X = collate(empty)
    assert len(X.feat_idx) == 0
    calls = pool_calls(monkeypatch)
    for kernel in DLA_KERNELS:
        force_dla_kernel(monkeypatch, kernel)
        x_hat = model._dla_keys(model.params, X)
        grid = dla_forward(model.params, X, model.cfg, x_hat)
        want = np.broadcast_to(model.params["dla.out.b"].data, grid.shape)
        np.testing.assert_array_equal(grid.data, want)
        maps = attention_maps(model.params, X, model.cfg, x_hat)
        assert all(np.all(m == 0.0) for m in maps)
        assert [m.shape[2] for m in maps] == [3, 2]
        for p in model.params.values():
            p.grad = None
        model.batch_loss(empty).backward()
        assert np.all(np.isfinite(model.params["dla.k.w"].grad))
    assert calls == ["observation_pool", "observation_pool",
                     "gated_attention_pool", "gated_attention_pool"]


def test_a_batched_forward_forms_no_key_rows(monkeypatch):
    # DLA scores each step's (1 + enc)-wide key input through one folded
    # weight: no step or observation row meets dla.k.w's embed_dim + 1 rows,
    # and no (B * T_max, n_heads * attn_dim) key rows are written
    calls = []

    def spy(a, b, _op=tada.tensor.matmul):
        out = _op(a, b)
        calls.append((np.shape(getattr(a, "data", a)), np.shape(getattr(b, "data", b)),
                      out.shape))
        return out

    for module in (tada.dla, tada.embedding, tada.model, tada.mixer):
        if getattr(module, "matmul", None) is tada.tensor.matmul:
            monkeypatch.setattr(module, "matmul", spy)
    model = TadaModel(RunConfig(), 4, 2, "sequence")
    rng = np.random.default_rng(8)
    preps = [model.prepare(random_series(rng, n, 4, sid=f"s{n}")) for n in (5, 12, 9)]
    X = collate(preps)
    cfg, rows = model.cfg, len(X.times)
    assert rows not in (cfg.n_queries, cfg.embed_dim + 1, cfg.te_feature_dim + 1)
    for kernel in DLA_KERNELS:
        force_dla_kernel(monkeypatch, kernel)
        calls.clear()
        model.forward(X)
        assert calls
        for a, b, out in calls:
            assert not (len(b) > 1 and b[-2] == cfg.embed_dim + 1 and a[0] >= rows), \
                (kernel, a, b)
            assert out != (rows, cfg.n_heads * cfg.attn_dim), (kernel, a, b)
