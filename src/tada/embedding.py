"""Per-timestep feature attention.

Each timestep's observed (value, feature) pairs are encoded, summarized by
a mean-pooled MLP, and aggregated by attention into one vector per step.
The step attention is ``weighted_masked_softmax`` with 0/1 gates marking
which observations belong to which step, the same rule the local-attention
stage applies with window gates.
The step's time is prepended unchanged, so row k of the output is
``[t_k, attended features]``.  The result is permutation invariant in the
order of a step's observations.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import (Tensor, concat, gather, matmul, mul, relu, reshape,
                     weighted_masked_softmax)


def encode_observations(params: dict, prep, cfg) -> Tensor:
    """(N, enc) [value, feature code] rows for all observations of a sample.

    The feature code is a learned embedding, or the bare feature index in
    literal mode.
    """
    if cfg.te_mode == "embedding":
        code = gather(params["te.embed"], prep.feat_idx)
    else:
        code = Tensor(prep.feat_idx[:, None])
    return concat([Tensor(prep.values_col), code], axis=1)


def te_forward(params: dict, prep, cfg, with_time: bool = True) -> Tensor:
    """Embed one sample's steps; returns (T, embed_dim + 1).

    with_time=False skips the time column and returns the bare attended
    feature embeddings (T, embed_dim); the time concat belongs to the
    key construction of the local-attention stage.
    """
    x_enc = encode_observations(params, prep, cfg)
    h = relu(matmul(x_enc, params["te.fit.w1"]) + params["te.fit.b1"])
    h = matmul(h, params["te.fit.w2"]) + params["te.fit.b2"]
    step_summary = matmul(Tensor(prep.seg_mean), h)            # (T, summary_dim)
    per_obs_summary = gather(step_summary, prep.step_of)       # (N, summary_dim)
    keys = matmul(concat([per_obs_summary, x_enc], axis=1), params["te.key.w"])
    scores = mul(matmul(keys, params["te.query"]), 1.0 / math.sqrt(cfg.embed_dim))
    step_gates = Tensor(prep.seg_mean > 0.0)                   # (T, N) 0/1
    weights = weighted_masked_softmax(reshape(scores, (1, -1)), step_gates)  # rows sum to 1
    attended = matmul(weights, matmul(x_enc, params["te.value.w"]))
    if not with_time:
        return attended
    return concat([Tensor(prep.times[:, None]), attended], axis=1)
