"""Per-timestep feature attention.

Each timestep's observed (value, feature) pairs are encoded and aggregated
by attention into one fixed-size vector per step.  An observation's score
is a learned query against a linear key of its own encoding.  The step
attention is a segment softmax over each step's own observations, and the
step's vector is the segment sum of its weighted encodings, projected by
the value matrix.  Only steps holding two or more observations compute
keys, scores and a softmax: an observation alone in its step has weight
exactly 1, so it enters its step's sum as it is.  On a batch without a
shared step the score chain is empty, and the key and query weights still
get exact zero gradients.  Both cost O(N) in the N observations; no (T, N)
array is formed.  A batch's observations are concatenated, and ``step_of``
numbers each one's step by its row in the batch's (B, T_max) padded
layout, so the output has one row per padded step and zeros at padding.
The step's time is not part of the output: DLA prepends it to its keys.
The result is permutation invariant in the order of a step's observations.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor, concat, gather, matmul, mul, segment_softmax, segment_sum


def encode_observations(params: dict, prep, cfg) -> Tensor:
    """(N, enc) [value, feature code] rows for all observations of a batch.

    The feature code is a learned embedding, or the bare feature index in
    literal mode.
    """
    if cfg.te_mode == "embedding":
        code = gather(params["te.embed"], prep.feat_idx)
    else:
        code = Tensor(prep.feat_idx[:, None])
    return concat([Tensor(prep.values_col), code], axis=1)


def te_forward(params: dict, prep, cfg) -> Tensor:
    """Embed the steps of a ``Batch``; returns (B * T_max, embed_dim), one
    row per step of its padded layout, with exact zeros at padding."""
    T = len(prep.times)
    shared = np.flatnonzero(np.bincount(prep.step_of, minlength=T)[prep.step_of] > 1)
    x_enc = encode_observations(params, prep, cfg)
    keys = matmul(gather(x_enc, shared), params["te.key.w"])
    scores = mul(matmul(keys, params["te.query"]), 1.0 / math.sqrt(cfg.embed_dim))
    weights = segment_softmax(scores, prep.step_of[shared], T)   # sum to 1 per shared step
    pooled = segment_sum(x_enc, prep.step_of, T, weights, shared)
    return matmul(pooled, params["te.value.w"])
