"""The dense attention path, kept as a reference for the sparse ops.

``weighted_masked_softmax`` is the earlier gated softmax over a last axis.
``dense_te_forward`` runs the step attention through it with (T, N) 0/1
step gates, and ``dense_dla_forward`` pools with (H, L, D, T) weights.
Each (h, l, d) row is shifted by its own live maximum.  They are slow and
quadratic, and exist only so tests can compare the model against them.
"""

import math

import numpy as np

from tada.dla import RegularizedGrid, _gates, anchor_times
from tada.embedding import encode_observations
from tada.errors import DimensionError
from tada.tensor import (Tensor, _lift, _node, _unbroadcast, add, concat, matmul, mul,
                         reshape, softplus, transpose, tsum)


def weighted_masked_softmax(scores, gates) -> Tensor:
    """Softmax over the last axis with multiplicative gates in [0, 1].

    out_j = gates_j * exp(scores_j) / sum_j' gates_j' * exp(scores_j').
    Rows whose gates are all zero yield all-zero rows.  Scores and gates
    share the last axis and broadcast over the others.  Constant gates get
    no gradient.
    """
    s, g_in = _lift(scores), _lift(gates)
    S, G = s.data, g_in.data
    live = G > 0.0
    try:
        if S.shape[-1:] != G.shape[-1:]:
            raise ValueError
        shifted = np.where(live, S, -np.inf)
    except ValueError:
        raise DimensionError(f"weighted_masked_softmax: gates shape {G.shape} "
                             f"does not fit scores shape {S.shape}") from None
    c = shifted.max(axis=-1, keepdims=True, initial=-np.inf)
    c = np.where(np.isfinite(c), c, 0.0)
    e = np.exp(np.where(live, S - c, -np.inf))
    u = G * e
    z = u.sum(axis=-1, keepdims=True)
    w = np.divide(u, z, out=np.zeros_like(u), where=z > 0.0)
    ez = np.divide(e, z, out=np.zeros_like(e), where=z > 0.0) if g_in.requires_grad else None
    s_shape, g_shape = S.shape, G.shape

    def backward(g):
        centered = g - (g * w).sum(axis=-1, keepdims=True)
        g_gates = None if ez is None else _unbroadcast(ez * centered, g_shape)
        return _unbroadcast(w * centered, s_shape), g_gates

    return _node(w, (s, g_in), backward)


def dense_pool(scores, gates, values) -> Tensor:
    """(H, L, D) pool of (H, L, T) scores under (L, D, T) gates over (1, D, T)
    values, through the full (H, L, D, T) weights."""
    H, L, T = scores.shape
    weights = weighted_masked_softmax(reshape(scores, (H, L, 1, T)), gates)
    return tsum(mul(weights, values), axis=3)


def dense_te_forward(params, prep, cfg, with_time=True):
    x_enc = encode_observations(params, prep, cfg)
    keys = matmul(x_enc, params["te.key.w"])
    scores = mul(matmul(keys, params["te.query"]), 1.0 / math.sqrt(cfg.embed_dim))
    step_gates = Tensor(prep.step_of[None, :] == np.arange(len(prep.times))[:, None])
    weights = weighted_masked_softmax(reshape(scores, (1, -1)), step_gates)
    attended = matmul(weights, matmul(x_enc, params["te.value.w"]))
    if not with_time:
        return attended
    return concat([Tensor(prep.times[:, None]), attended], axis=1)


def dense_dla_forward(params, prep, cfg, x_hat, keep_attention=False):
    L, H, A = cfg.n_queries, cfg.n_heads, cfg.attn_dim
    T = len(prep.times)
    if cfg.keyvalue_variant == "setting1":
        keys = Tensor(prep.values)
        values3 = Tensor(prep.values.T[None, :, :])
        obs_mask3 = prep.mask3
    elif cfg.keyvalue_variant == "setting2":
        keys = x_hat
        values3 = reshape(transpose(x_hat), (1, cfg.embed_dim + 1, T))
        obs_mask3 = np.ones((1, cfg.embed_dim + 1, T))
    else:
        keys = x_hat
        values3 = Tensor(prep.values.T[None, :, :])
        obs_mask3 = prep.mask3
    range_raw = params["dla.range_raw"]
    if cfg.no_learnable_range:
        range_raw = range_raw.detach()
    radii = softplus(range_raw)
    anchors = anchor_times(L)
    gates = _gates(radii, prep.times, anchors, cfg, obs_mask3)
    q = transpose(reshape(matmul(params["dla.queries"], params["dla.q.w"]), (L, H, A)),
                  (1, 0, 2))
    k = transpose(reshape(matmul(keys, params["dla.k.w"]), (T, H, A)), (1, 2, 0))
    scores = mul(matmul(q, k), 1.0 / math.sqrt(A))
    weights = weighted_masked_softmax(reshape(scores, (H, L, 1, T)), gates)
    head_outs = tsum(mul(weights, values3), axis=3)
    stacked = reshape(transpose(head_outs, (1, 0, 2)), (L, -1))
    out = add(matmul(stacked, params["dla.out.w"]), params["dla.out.b"])
    return RegularizedGrid(
        grid=out, anchors=anchors, radii=radii.data,
        attention=np.transpose(weights.data, (0, 1, 3, 2)) if keep_attention else None)
