"""Dynamic local attention: irregular steps onto a regular anchor grid.

Sample times lie in [0, 1]; L anchor queries sit at i / L (i = 1..L).
Each feature d attends through a window of learnable radius
softplus(range_raw[d]) around every anchor, so sparsely observed features
can learn wider windows.  A hard window attends only inside its radius.  A
soft window's sigmoid gate is never zero, so an anchor whose window holds
none of a feature's observations still pools them, under gates that decay
as exp(-|t - anchor| / tau) beyond the window.  Scaled dot-product scores
are shared across features; the window gate and the observed (step,
feature) pairs select which recordings a given (anchor, feature) pair may
attend to.  The gates
are plain arrays outside the autodiff graph, and the pools form the radii's
gradient themselves, so the forward builds no gate gradient and no
(B, heads, L, D, T) attention weights.  Radii that do not learn
(``learns_radii``) enter detached and get none.  ``attention_maps`` forms
those weights apart from the forward, for attention export.

A step's key is linear in its key input z = [t, u], the step's time and
te's pooled row (the raw values under setting1), and every map from z to
the scores is linear: te's value matrix, the key projection and each head's
queries.  ``_projections`` folds them into one (heads * L, k_in) weight F
per forward, so each sample's scores are one product F @ z_b^T on rows of
width k_in = 1 + enc, and no key row is formed.

A batch pools in one of two layouts, chosen per batch from its sizes by
``pools_by_observation``:

- over its observations: each sample's observations, in step order,
  padded to the batch's N_max.  Key input rows are gathered by each
  observation's step, the scores are (B, heads, L, N_max) and the gates
  (B, L, N_max), one per observation and zero at padding slots.
  ``observation_pool`` takes every normalizer and numerator from one
  batched product, so the cost follows the observations, not features x
  steps;
- over the (B, T_max) padded steps, with (B, heads, L, T_max) scores and a
  (B, L, D_eff, T_max) gate block, zero at unobserved entries and padded
  steps: ``gated_attention_pool``.  A batch observing most features at most
  steps pools here, and so does setting2, whose D_eff = embed_dim + 1
  windows over the step embeddings are live at every step.

Head outputs concatenate and project to the mixer's channel width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import (Tensor, _masked_exp, _sigmoid, add, concat, gated_attention_pool,
                     gather, matmul, mul, observation_pool, reshape, softplus, transpose)


def anchor_times(n_queries: int) -> np.ndarray:
    """Evenly spaced anchor times i / L for i = 1..L."""
    return np.arange(1, n_queries + 1) * (1.0 / n_queries)


def learns_radii(cfg) -> bool:
    """Whether the radii learn: under soft windows unless frozen (a hard
    window's edge has no derivative in its radius)."""
    return cfg.window_mode == "soft" and not cfg.no_learnable_range


def _window(t: np.ndarray, r: np.ndarray, a: np.ndarray, live: np.ndarray, cfg) -> np.ndarray:
    """Window gates of step times ``t`` under radii ``r`` at anchor times
    ``a``, all three broadcast against each other, times the 0/1 ``live``
    mask, which broadcasts into their shape.

    Hard mode is the indicator of anchor - radius <= t <= anchor + radius;
    soft mode is sigmoid((radius - |t - anchor|) / tau), formed in place in
    one array of the full broadcast shape, which |t - anchor| alone may not
    have: the block pool's radii add the feature axis.
    """
    if cfg.window_mode == "hard":
        G = ((t >= a - r) & (t <= a + r)).astype(np.float64)
    else:
        x = t - a
        np.abs(x, out=x)
        x = np.subtract(r, x, out=x if x.shape == np.broadcast_shapes(x.shape, r.shape) else None)
        x *= 1.0 / cfg.gate_temperature
        G = _sigmoid(x, overwrite=True)
    G *= live
    return G


@dataclass
class ObservationSlots:
    """A batch's observations on a (B, N_max) layout: sample b's observations
    fill its first slots in step order, and the slots after them are padding
    (``live`` False, step row 0, feature 0, value 0)."""
    step: np.ndarray      # (B, N_max) row of each observation's step in the (B * T_max) layout
    feat: np.ndarray      # (B, N_max) feature index
    values: np.ndarray    # (B, N_max) observed value
    live: np.ndarray      # (B, N_max) bool, False at padding


def observation_slots(X) -> ObservationSlots:
    """The observations of a ``Batch``, whose samples hold consecutive runs of
    its observation arrays, padded per sample to the batch's longest run."""
    B = len(X.lengths)
    sample = X.step_of // X.t_max
    counts = np.bincount(sample, minlength=B)
    n_max = int(counts.max()) if len(sample) else 0
    slot = sample * n_max + np.arange(len(sample)) - (np.cumsum(counts) - counts)[sample]
    step = np.zeros(B * n_max, dtype=np.int64)
    feat = np.zeros(B * n_max, dtype=np.int64)
    values = np.zeros(B * n_max)
    live = np.zeros(B * n_max, dtype=bool)
    step[slot], feat[slot], values[slot], live[slot] = \
        X.step_of, X.feat_idx, X.values_col[:, 0], True
    return ObservationSlots(*(a.reshape(B, n_max) for a in (step, feat, values, live)))


def pools_by_observation(n_heads: int, n_max: int, d_eff: int, t_max: int) -> bool:
    """Whether a batch pools over its observations rather than over the
    (B, L, D_eff, T_max) gate block: the observation pool's weights hold
    n_heads * N_max entries per (b, l) against the block's D_eff * T_max
    gates.  Measured training steps tie where the two counts are equal and
    favour the smaller side on either side of that."""
    return n_heads * n_max < d_eff * t_max


def _projections(params: dict, X, cfg, z: Tensor | None):
    """DLA's key input rows z, its score weight F, setting2's value map P and
    the (D_eff,) radii as a Tensor.

    z (B * T_max, k_in) is the raw values under setting1, else each step's
    time followed by te's row ``u``, and P is blockdiag(1, te.value.w), which
    maps z to [t, u @ te.value.w].  F (H * L, k_in) folds P, dla.k.w and
    each head's scaled queries into one matrix: head h's score at anchor l
    on row z_t is F[h * L + l] . z_t.  dla.q.w and dla.k.w hold one column
    block of width attn_dim per head.
    """
    L, H, A = cfg.n_queries, cfg.n_heads, cfg.attn_dim
    range_raw = params["dla.range_raw"]
    if not learns_radii(cfg):
        range_raw = range_raw.detach()
    if cfg.keyvalue_variant == "setting1":
        z, P, keys_w = Tensor(X.values), None, params["dla.k.w"]
    else:
        value_w = params["te.value.w"]
        enc, E = value_w.shape
        P = concat([Tensor(np.eye(1, 1 + E)),
                    concat([Tensor(np.zeros((enc, 1))), value_w], axis=1)], axis=0)
        keys_w = matmul(P, params["dla.k.w"])
    k_in = keys_w.shape[0]
    q = transpose(reshape(matmul(params["dla.queries"], params["dla.q.w"]), (L, H, A)),
                  (1, 0, 2))
    k = transpose(reshape(keys_w, (k_in, H, A)), (1, 2, 0))          # (H, A, k_in)
    F = reshape(matmul(mul(q, 1.0 / math.sqrt(A)), k), (H * L, k_in))
    return z, F, P, softplus(range_raw)


def _scores(F: Tensor, rows: Tensor, B: int, n: int, cfg) -> Tensor:
    """(B, H, L, n) scores of (B * n, k_in) key input rows: one contiguous
    (B, H * L, n) product F @ z_b^T per sample."""
    rows_t = transpose(reshape(rows, (B, n, F.shape[1])), (0, 2, 1))
    return reshape(matmul(F, rows_t), (B, cfg.n_heads, cfg.n_queries, n))


def _step_scores_and_gates(F: Tensor, z: Tensor, radii: np.ndarray, X, cfg):
    """(B, H, L, T_max) scores and the (B, L, D_eff, T_max) gate block on the
    padded step layout, zero at unobserved entries and padded steps; setting2
    observes every step of a sample, any other mode the (step, feature)
    pairs of its observations."""
    B, T = len(X.lengths), X.t_max
    if cfg.keyvalue_variant == "setting2":
        obs_mask = (np.arange(T) < X.lengths[:, None])[:, None, None]     # (B, 1, 1, T)
    else:
        obs_mask = np.zeros((B, 1, len(radii), T), dtype=bool)         # (B, 1, D, T)
        obs_mask[X.step_of // T, 0, X.feat_idx, X.step_of % T] = True
    gates = _window(X.times.reshape(B, T)[:, None, None], radii[:, None],
                    anchor_times(cfg.n_queries)[:, None, None], obs_mask, cfg)
    return _scores(F, z, B, T, cfg), gates


def dla_forward(params: dict, X, cfg, z: Tensor | None) -> Tensor:
    """Aggregate a batch onto the anchor grid: the (B, L, patch_channels) grid.

    ``X`` is a ``Batch`` and ``z`` the (B * T_max, 1 + enc) key input rows
    of its padded layout: each step's time, then te's row ``u`` for the
    step (None under setting1, which keys on the raw values).  All heads
    score at once through the folded weight of ``_projections``.  A batch
    sparse enough for ``pools_by_observation`` gathers each observation's
    key input row by its step and pools over (B, H, L, N_max) scores with
    one gate per observation; any other batch, and setting2 (whose values
    are the step embeddings [t, u @ te.value.w]), pools over (B, H, L, T_max)
    scores and the (B, L, D_eff, T_max) gate block.
    Padding slots and padded steps get a zero gate in every mode, so each
    sample pools over its own observations or steps only.
    """
    L = cfg.n_queries
    B, T = len(X.lengths), X.t_max
    setting2 = cfg.keyvalue_variant == "setting2"
    z, F, P, radii = _projections(params, X, cfg, z)
    d_eff = radii.shape[0]
    obs = None if setting2 else observation_slots(X)
    if obs is not None and pools_by_observation(cfg.n_heads, obs.feat.shape[1], d_eff, T):
        N = obs.feat.shape[1]
        gates = _window(X.times[obs.step][:, None], radii.data[obs.feat][:, None],
                        anchor_times(L)[:, None], obs.live[:, None], cfg)  # (B, L, N_max)
        scores = _scores(F, gather(z, obs.step.reshape(-1)), B, N, cfg)  # (B, H, L, N_max)
        head_outs = observation_pool(scores, gates, obs.feat, obs.values, d_eff,
                                     radii, cfg.gate_temperature)
    else:
        values = reshape(matmul(z, P), (B, T, d_eff)) if setting2 \
            else Tensor(X.values.reshape(B, T, d_eff))
        values4 = transpose(values, (0, 2, 1))
        values4 = reshape(values4, (B, 1) + values4.shape[1:])        # (B, 1, D_eff, T)
        scores, gates = _step_scores_and_gates(F, z, radii.data, X, cfg)
        head_outs = gated_attention_pool(scores, gates, values4, radii, cfg.gate_temperature)
    stacked = reshape(transpose(head_outs, (0, 2, 1, 3)), (B, L, -1))  # (B, L, H * D_eff)
    return add(matmul(stacked, params["dla.out.w"]), params["dla.out.b"])


def attention_maps(params: dict, X, cfg, z: Tensor | None) -> list[np.ndarray]:
    """Each sample's (H, L, T_b, D_eff) attention weights, on ``dla_forward``'s
    inputs: the weight of step t in the (h, l, d) row, whose weighted sum of
    feature d's values is that head's pooled output at anchor l.

    Formed on the padded step layout whichever pool the batch's forward
    takes, with each (b, h, l, d) row shifted by the maximum of its own live
    scores, so no row underflows.  Builds the dense (B, H, L, D_eff, T_max)
    array, which the forward never does.
    """
    z, F, _, radii = _projections(params, X, cfg, z)
    scores, gates = _step_scores_and_gates(F, z, radii.data, X, cfg)
    G = gates[:, None]                                                # (B, 1, L, D, T)
    S = scores.data[:, :, :, None]
    S = np.broadcast_to(S, np.broadcast_shapes(S.shape, G.shape))    # (B, H, L, D, T)
    u = _masked_exp(S, G > 0.0) * G
    den = u.sum(axis=-1, keepdims=True)
    w = np.divide(u, den, out=np.zeros_like(u), where=den > 0.0)
    return [np.transpose(w_b[..., :n], (0, 1, 3, 2)) for w_b, n in zip(w, X.lengths)]
