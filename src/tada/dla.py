"""Dynamic local attention: irregular steps onto a regular anchor grid.

Sample times lie in [0, 1]; L anchor queries sit at i / L (i = 1..L).
Each feature d attends only inside a window of learnable radius
softplus(range_raw[d]) around every anchor, so sparsely observed features
can learn wider windows.  Scaled dot-product scores are shared across
features; the window gate and the observation mask select which steps a
given (anchor, feature) pair may attend to.  A batch runs at once on the
(B, T_max) padded layout of its ``Batch`` rows and te's output: padded
steps get a zero gate, which masks them out of every sample's softmax.
The gates are one plain (B, L, D, T) array, evaluated only at the observed
(b, d, t) entries; they build no graph node.  ``gated_attention_pool``
contracts each head's (B, L, T) scores with those gates and the values
directly and forms the radii's gradient itself, so neither the
(B, heads, L, D, T) attention weights nor a (B, L, D, T) gate gradient
exists; the weights are formed only when ``keep_attention`` asks for them.
Head outputs concatenate and project to the mixer's channel width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import (Tensor, _sigmoid, add, gated_attention_pool, gated_attention_weights,
                     matmul, mul, reshape, softplus, transpose)


@dataclass
class RegularizedGrid:
    grid: Tensor                        # (B, L, patch_channels)
    anchors: np.ndarray                 # (L,)
    radii: np.ndarray                   # (D_eff,) current window radii
    attention: list[np.ndarray] | None  # per sample (heads, L, T_b, D_eff), if retained


def anchor_times(n_queries: int) -> np.ndarray:
    """Evenly spaced anchor times i / L for i = 1..L."""
    return np.arange(1, n_queries + 1) * (1.0 / n_queries)


def _gates(radii: np.ndarray, times: np.ndarray, anchors: np.ndarray, cfg,
           obs_mask: np.ndarray) -> np.ndarray:
    """(B, L, D_eff, T) window gate x observation mask for (D_eff,) radii,
    (B, T) step times, (L,) anchors and a (B, 1, D_eff or 1, T) mask.

    Hard mode is the indicator of anchor - radius <= t <= anchor + radius;
    soft mode is sigmoid((radius - |t - anchor|) / tau).  Either is
    evaluated only at the (b, d, t) entries the mask keeps, for all anchors
    at once; every other entry is zero.  A plain array: the pool gives the
    radii their gradient.
    """
    (B, T), L, D = times.shape, len(anchors), len(radii)
    b, d, t = np.nonzero(obs_mask[:, 0] & np.ones((D, 1), dtype=bool))   # mask to D_eff
    tt, r, a = times[b, t], radii[d], anchors[:, None]                # (K,), (K,), (L, 1)
    if cfg.window_mode == "hard":
        kept = (tt >= a - r) & (tt <= a + r)
    else:
        kept = _sigmoid((r + (-np.abs(tt - a))) * (1.0 / cfg.gate_temperature))
    G = np.zeros((B, L, D * T))
    G[b, :, d * T + t] = kept.T
    return G.reshape(B, L, D, T)


def dla_forward(params: dict, X, cfg, x_hat: Tensor | None,
                keep_attention: bool = False) -> RegularizedGrid:
    """Aggregate a batch onto the anchor grid; returns (B, L, patch_channels).

    ``X`` is a ``Batch`` and ``x_hat`` te's (B * T_max, embed_dim + 1) step
    rows on its padded layout, so keys and values are (B, T_max, ...)
    reshapes.  A padded step gets a zero gate in every mode, so each sample
    pools over its own steps only.  All heads run at once: dla.q.w and
    dla.k.w hold one column block of width attn_dim per head.
    """
    L, H, A = cfg.n_queries, cfg.n_heads, cfg.attn_dim
    B, T = len(X.lengths), X.t_max
    if cfg.keyvalue_variant == "setting2":
        keys = values = reshape(x_hat, (B, T, -1))   # step embeddings as keys and values
        # every step of a sample, observed or not
        obs_mask = (np.arange(T) < X.lengths[:, None])[:, None, None]   # (B, 1, 1, T)
    else:
        values = Tensor(X.values.reshape(B, T, -1))
        # setting1 keys are the masked raw values
        keys = values if cfg.keyvalue_variant == "setting1" else reshape(x_hat, (B, T, -1))
        obs_mask = X.mask.reshape(B, T, -1).transpose(0, 2, 1)[:, None]  # (B, 1, D_eff, T)
    values4 = transpose(values, (0, 2, 1))
    values4 = reshape(values4, (B, 1) + values4.shape[1:])           # (B, 1, D_eff, T)

    range_raw = params["dla.range_raw"]
    if cfg.no_learnable_range:
        range_raw = range_raw.detach()    # frozen radii keep their windows
    radii = softplus(range_raw)
    anchors = anchor_times(L)
    gates = _gates(radii.data, X.times.reshape(B, T), anchors, cfg, obs_mask)
    q = transpose(reshape(matmul(params["dla.queries"], params["dla.q.w"]), (L, H, A)),
                  (1, 0, 2))                                          # (H, L, A)
    k = transpose(reshape(matmul(keys, params["dla.k.w"]), (B, T, H, A)),
                  (0, 2, 3, 1))                                       # (B, H, A, T)
    scores = mul(matmul(q, k), 1.0 / math.sqrt(A))                    # (B, H, L, T)
    tau = None if cfg.window_mode == "hard" else cfg.gate_temperature
    head_outs = gated_attention_pool(scores, gates, values4, radii, tau)  # (B, H, L, D_eff)
    stacked = reshape(transpose(head_outs, (0, 2, 1, 3)), (B, L, -1))  # (B, L, H * D_eff)
    out = add(matmul(stacked, params["dla.out.w"]), params["dla.out.b"])
    attention = None
    if keep_attention:
        weights = gated_attention_weights(scores.data, gates)         # (B, H, L, D, T)
        attention = [np.transpose(w[..., :n], (0, 1, 3, 2))
                     for w, n in zip(weights, X.lengths)]
    return RegularizedGrid(grid=out, anchors=anchors, radii=radii.data, attention=attention)
