"""Dynamic local attention: irregular steps onto a regular anchor grid.

Sample times lie in [0, 1]; L anchor queries sit at i / L (i = 1..L).
Each feature d attends only inside a window of learnable radius
softplus(range_raw[d]) around every anchor, so sparsely observed features
can learn wider windows.  Scaled dot-product scores are shared across
features; the window gate and the observation mask select which steps a
given (anchor, feature) pair may attend to.  ``gated_attention_pool``
contracts each head's (L, T) scores with the (L, D, T) gates and values
directly, so the (heads, L, D, T) attention weights are formed only when
``keep_attention`` asks for them.  Head outputs concatenate and project to
the mixer's channel width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import (Tensor, add, gated_attention_pool, gated_attention_weights,
                     matmul, mul, reshape, sigmoid, softplus, transpose)


@dataclass
class RegularizedGrid:
    grid: Tensor                      # (L, patch_channels)
    anchors: np.ndarray               # (L,)
    radii: np.ndarray                 # (D_eff,) current window radii
    attention: np.ndarray | None      # (heads, L, T, D_eff) when retained


def anchor_times(n_queries: int) -> np.ndarray:
    """Evenly spaced anchor times i / L for i = 1..L."""
    return np.arange(1, n_queries + 1) * (1.0 / n_queries)


def _gates(radii: Tensor, times: np.ndarray, anchors: np.ndarray, cfg,
           obs_mask3: np.ndarray) -> Tensor:
    """(L, D_eff, T) window gate x observation mask for (D_eff,) radii,
    (T,) step times and (L,) anchors.

    Hard mode is the indicator of anchor - radius <= t <= anchor + radius,
    a constant.  Soft mode is sigmoid((radius - |t - anchor|) / tau) and
    stays connected to the radii so they can train.
    """
    if cfg.window_mode == "hard":
        a = anchors[:, None, None]
        r = radii.data[None, :, None]
        return Tensor(((times >= a - r) & (times <= a + r)) * obs_mask3)
    dt3 = np.abs(times[None, :] - anchors[:, None])[:, None, :]      # (L, 1, T)
    arg = mul(add(reshape(radii, (1, -1, 1)), Tensor(-dt3)), 1.0 / cfg.gate_temperature)
    return mul(sigmoid(arg), Tensor(obs_mask3))


def dla_forward(params: dict, prep, cfg, x_hat: Tensor | None,
                keep_attention: bool = False) -> RegularizedGrid:
    """Aggregate one sample onto the anchor grid; returns (L, patch_channels).

    All heads run at once: dla.q.w and dla.k.w hold one column block of
    width attn_dim per head.
    """
    L, H, A = cfg.n_queries, cfg.n_heads, cfg.attn_dim
    T = len(prep.times)
    if cfg.keyvalue_variant == "setting1":
        keys = Tensor(prep.values)            # masked raw values as keys
        values3 = Tensor(prep.values.T[None, :, :])
        obs_mask3 = prep.mask3
    elif cfg.keyvalue_variant == "setting2":
        keys = x_hat                          # step embeddings as keys and values
        values3 = reshape(transpose(x_hat), (1, cfg.embed_dim + 1, T))
        obs_mask3 = np.ones((1, cfg.embed_dim + 1, T))
    else:
        keys = x_hat
        values3 = Tensor(prep.values.T[None, :, :])
        obs_mask3 = prep.mask3

    range_raw = params["dla.range_raw"]
    if cfg.no_learnable_range:
        range_raw = range_raw.detach()    # frozen radii keep their windows
    radii = softplus(range_raw)
    anchors = anchor_times(L)
    gates = _gates(radii, prep.times, anchors, cfg, obs_mask3)
    q = transpose(reshape(matmul(params["dla.queries"], params["dla.q.w"]), (L, H, A)),
                  (1, 0, 2))                                          # (H, L, A)
    k = transpose(reshape(matmul(keys, params["dla.k.w"]), (T, H, A)),
                  (1, 2, 0))                                          # (H, A, T)
    scores = mul(matmul(q, k), 1.0 / math.sqrt(A))                    # (H, L, T)
    head_outs = gated_attention_pool(scores, gates, values3)          # (H, L, D_eff)
    stacked = reshape(transpose(head_outs, (1, 0, 2)), (L, -1))       # (L, H * D_eff)
    out = add(matmul(stacked, params["dla.out.w"]), params["dla.out.b"])
    return RegularizedGrid(
        grid=out,
        anchors=anchors,
        radii=radii.data,
        attention=np.transpose(gated_attention_weights(scores.data, gates.data), (0, 1, 3, 2))
        if keep_attention else None,
    )
