"""The per-sample model, kept as a reference for the batched one.

``forward``, ``sample_loss`` and ``batch_loss`` build one graph per sample,
with the mixer on an unbatched grid, as the model did before it took whole
batches.  te and DLA run on the sample alone: by default through the
segment ops and ``sample_gated_attention_pool`` (the pool's one-sample
form), with ``dense=True`` through the dense path instead.  The dense path
is ``dense_te_forward``, whose step attention runs through
``weighted_masked_softmax`` with (T, N) 0/1 step gates, and DLA pooled
with (H, L, D, T) weights, each (h, l, d) row shifted by its own live
maximum.  ``reference_backward`` and ``reference_sigmoid`` are the earlier
gradient accumulation and sigmoid, and ``window`` the earlier soft gate
expression.  ``chain_gates`` and
``chain_gated_attention_pool`` are DLA's window gates as a graph chain
through the ``sigmoid`` op and the batched pool that gave such gates a
gradient, on its own copy of the pool's exponents (``pool_exponents``).
``prepare_by_steps`` is ``TadaModel.prepare`` as it was, one ``TimeStep``
and one observation at a time, into a ``Batch`` of one.  ``parse_events``,
``serialize_steps`` and ``observation_arrays`` are the loader as it was,
one event and one observation at a time, on a ``StepSeries``: a sample
held as ``TimeStep`` objects.  All of it is slow and exists only so tests
can compare the model against it.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from helpers import tmean, tsum
from tada.data import Observation, TimeStep
from tada.dla import anchor_times
from tada.embedding import encode_observations, te_forward
from tada.errors import DataError, DimensionError
from tada.mixer import adaptive_pool_matrix, run_mixer
from tada.model import Batch
from tada.tensor import (Tensor, _lift, _node, _sigmoid, _unbroadcast, add, concat,
                         cross_entropy_with_logits, matmul, mul, relu, reshape, softplus,
                         transpose)


def reference_backward(root: Tensor) -> None:
    """``Tensor.backward`` as it was: zero-filled buffers, and every
    intermediate node keeps its gradient."""
    topo, seen, stack = [], set(), [(root, False)]
    while stack:
        node, finished = stack.pop()
        if finished:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._backward is None or node.grad is None:
            continue
        for parent, g in zip(node._parents, node._backward(node.grad)):
            if g is None or not parent.requires_grad:
                continue
            if parent.grad is None:
                parent.grad = np.zeros_like(parent.data)
            parent.grad += g


def reference_sigmoid(x: np.ndarray) -> np.ndarray:
    """The sigmoid by boolean-mask indexing, as it was."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(x) -> Tensor:
    """The sigmoid op the gate chain used."""
    x = _lift(x)
    y = _sigmoid(x.data)

    def backward(g):
        return (g * y * (1.0 - y),)

    return _node(y, (x,), backward)


def window(t, r, a, cfg):
    """``dla._window`` as it was: the soft gate as one expression, each step
    on a fresh array."""
    if cfg.window_mode == "hard":
        return ((t >= a - r) & (t <= a + r)).astype(np.float64)
    return _sigmoid((r + (-np.abs(t - a))) * (1.0 / cfg.gate_temperature))


def chain_gates(radii, times, anchors, cfg, obs_mask) -> Tensor:
    """(B, L, D_eff, T) gates as a graph chain from the radii Tensor, as the
    model built them before the pool formed the radius gradient: every
    entry evaluated, masked entries included, and the radii's gradient taken
    through ``sigmoid``, ``mul`` and ``add``."""
    t = times[:, None, None, :]
    if cfg.window_mode == "hard":
        a = anchors[:, None, None]
        r = radii.data[:, None]
        return Tensor(((t >= a - r) & (t <= a + r)) * obs_mask)
    dt = np.abs(t - anchors[:, None, None])
    arg = mul(add(reshape(radii, (-1, 1)), Tensor(-dt)), 1.0 / cfg.gate_temperature)
    return mul(sigmoid(arg), Tensor(obs_mask))


# Below this a normalizer may hold subnormal terms whose rounding, up to
# 2^-1075 each, reaches its last bit.
_POOL_UNDERFLOW = np.finfo(np.float64).tiny / np.finfo(np.float64).eps


def pool_exponents(S, G):
    """Shifted exponents and normalizers of the batched gated attention pool.

    e = exp(S - c) with one shift c per (b, h, l): the maximum score over
    the steps any of the anchor's gates leaves live.  The normalizers are
    den[b, h, l, d] = sum_t e[b, h, l, t] G[b, l, d, t].  A row whose own
    live scores all sit far below c underflows there, so every row with a
    live gate and a normalizer under ``_POOL_UNDERFLOW`` is redone with its
    own shift: ``redo`` indexes those (b, h, l, d) rows, ``e_redo`` (R, T)
    holds their exponents, and ``den`` their normalizers.
    """
    live = G > 0.0                                               # (B, L, D, T)
    step_live = live.any(axis=2)[:, None]                        # (B, 1, L, T)
    c = np.where(step_live, S, -np.inf).max(axis=-1, keepdims=True)
    c = np.where(np.isfinite(c), c, 0.0)
    e = np.exp(np.where(step_live, S - c, -np.inf))             # (B, H, L, T)
    den = np.matmul(e.transpose(0, 2, 1, 3), G.transpose(0, 1, 3, 2)).transpose(0, 2, 1, 3)
    redo = np.nonzero((den < _POOL_UNDERFLOW) & live.any(axis=-1)[:, None])
    b, h, l, d = redo
    s_redo = np.where(live[b, l, d], S[b, h, l], -np.inf)        # (R, T)
    e_redo = np.exp(s_redo - s_redo.max(axis=-1, keepdims=True))
    den[redo] = (e_redo * G[b, l, d]).sum(axis=-1)
    return e, den, redo, e_redo


def chain_gated_attention_pool(scores, gates, values) -> Tensor:
    """The pool as it was, taking a gate Tensor and giving it a gradient.

    out[b, h, l, d] = sum_t e G V / sum_t e G with e = exp(scores[b, h, l, t]),
    gates G (B, L, D, T) in [0, 1] and values V (B, 1, D, T): each
    (b, h, l, d) row is a softmax of the anchor's scores, tilted by that
    row's gates, applied to that feature's values.  Rows whose gates are
    all zero give 0, and zero gates act as masks: they get no gradient, so
    a padded step with zero gates adds nothing.  Both sums are batched
    contractions over t, so no (B, H, L, D, T) array exists in forward or
    backward.  Scores always get a gradient; gates and values get one only
    when they require it.
    """
    s, gt, v = _lift(scores), _lift(gates), _lift(values)
    S, G, V = s.data, gt.data, v.data
    if S.ndim != 4 or G.ndim != 4 or S.shape[0] != G.shape[0] \
            or S.shape[2:] != (G.shape[1], G.shape[3]) \
            or V.shape != (G.shape[0], 1) + G.shape[2:]:
        raise DimensionError(f"gated_attention_pool: scores {S.shape}, gates {G.shape} "
                             f"and values {V.shape} are not (B, H, L, T), (B, L, D, T), "
                             f"(B, 1, D, T)")
    D = G.shape[2]
    e, den, redo, e_redo = pool_exponents(S, G)
    b, h, l, d = redo
    GV = G * V
    eL = e.transpose(0, 2, 1, 3)                                  # (B, L, H, T)
    num = np.matmul(eL, GV.transpose(0, 1, 3, 2)).transpose(0, 2, 1, 3)
    num[redo] = (e_redo * GV[b, l, d]).sum(axis=-1)
    out = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)

    def backward(g):
        # d out / d e[b, h, l, t] G[b, l, d, t] = (V[b, d, t] - out[b, h, l, d]) / den
        ga = np.divide(g, den, out=np.zeros_like(g), where=den > 0.0)
        gb = ga * out
        a_redo, b_redo = ga[redo][:, None], gb[redo][:, None]
        ga[redo] = 0.0
        gb[redo] = 0.0
        aL, bL = ga.transpose(0, 2, 1, 3), gb.transpose(0, 2, 1, 3)   # (B, L, H, D)
        g_s = eL * (np.matmul(aL, GV) - np.matmul(bL, G))             # (B, L, H, T)
        g_s = g_s.transpose(0, 2, 1, 3)
        np.add.at(g_s, (b, h, l), e_redo * (a_redo * GV[b, l, d] - b_redo * G[b, l, d]))
        g_g = g_v = None
        if gt.requires_grad or v.requires_grad:
            both = np.matmul(np.concatenate([aL, bL], axis=3).transpose(0, 1, 3, 2), eL)
            sum_ae, sum_be = both[:, :, :D], both[:, :, D:]     # (B, L, D, T) sums over h
        if gt.requires_grad:
            g_g = sum_ae * V
            g_g -= sum_be
            g_g *= G > 0.0                                      # zero gates are masks
            np.add.at(g_g, (b, l, d), e_redo * (a_redo * V[b, 0, d] - b_redo))
        if v.requires_grad:
            g_v = (sum_ae * G).sum(axis=1, keepdims=True)
            np.add.at(g_v, (b, 0, d), a_redo * e_redo * G[b, l, d])
        return g_s, g_g, g_v

    return _node(out, (s, gt, v), backward)


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
    """(B, H, L, D) pool of (B, H, L, T) scores under (B, L, D, T) gates over
    (B, 1, D, T) values, through the full (B, H, L, D, T) weights."""
    B, H, L, T = scores.shape
    weights = weighted_masked_softmax(reshape(scores, (B, H, L, 1, T)),
                                      reshape(gates, (B, 1) + gates.shape[1:]))
    return tsum(mul(weights, reshape(values, (B, 1) + values.shape[1:])), axis=4)


def dense_te_forward(params, prep, cfg):
    x_enc = encode_observations(params, prep, cfg)
    keys = matmul(x_enc, params["te.key.w"])
    scores = mul(matmul(keys, params["te.query"]), 1.0 / math.sqrt(cfg.embed_dim))
    step_gates = Tensor(prep.step_of[None, :] == np.arange(len(prep.times))[:, None])
    weights = weighted_masked_softmax(reshape(scores, (1, -1)), step_gates)
    return matmul(weights, matmul(x_enc, params["te.value.w"]))


def dla_keys(te, params, prep, cfg):
    """One sample's ``te`` rows with each step's time prepended: DLA's keys."""
    return concat([Tensor(prep.times[:, None]), te(params, prep, cfg)], axis=1)


def sample_gates(radii, times, anchors, cfg, obs_mask3):
    """(L, D_eff, T) window gates of one sample with a (1, D_eff, T) mask."""
    if cfg.window_mode == "hard":
        a = anchors[:, None, None]
        r = radii.data[None, :, None]
        return Tensor(((times >= a - r) & (times <= a + r)) * obs_mask3)
    dt3 = np.abs(times[None, :] - anchors[:, None])[:, None, :]
    arg = mul(add(reshape(radii, (1, -1, 1)), Tensor(-dt3)), 1.0 / cfg.gate_temperature)
    return mul(sigmoid(arg), Tensor(obs_mask3))


# One sample's gated attention pool, as the model ran it before it took
# whole batches: (H, L, T) scores, (L, D, T) gates, (1, D, T) values.


def sample_pool_exponents(S, G):
    """Shifted exponents and normalizers of a gated attention pool.

    e = exp(S - c) with one shift c per (h, l): the maximum score over the
    steps any of the anchor's gates leaves live.  The normalizers are
    den[h, l, d] = sum_t e[h, l, t] G[l, d, t].  A row (h, l, d) whose own
    live scores all sit far below c underflows there, so every row with a
    live gate and a normalizer under ``_POOL_UNDERFLOW`` is redone with its
    own shift: ``redo`` indexes those rows, ``e_redo`` (R, T) holds their
    exponents, and ``den`` their normalizers.
    """
    live = G > 0.0                                               # (L, D, T)
    step_live = live.any(axis=1)                                 # (L, T)
    c = np.where(step_live, S, -np.inf).max(axis=-1, keepdims=True)
    c = np.where(np.isfinite(c), c, 0.0)
    e = np.exp(np.where(step_live, S - c, -np.inf))             # (H, L, T)
    den = np.matmul(e.transpose(1, 0, 2), G.transpose(0, 2, 1)).transpose(1, 0, 2)
    redo = np.nonzero((den < _POOL_UNDERFLOW) & live.any(axis=-1))
    h, l, d = redo
    s_redo = np.where(live[l, d], S[h, l], -np.inf)              # (R, T)
    e_redo = np.exp(s_redo - s_redo.max(axis=-1, keepdims=True))
    den[redo] = (e_redo * G[l, d]).sum(axis=-1)
    return e, den, redo, e_redo


def sample_gated_attention_pool(scores, gates, values) -> Tensor:
    """Attention pooling of shared scores under per-row gates.

    out[h, l, d] = sum_t e G V / sum_t e G with e = exp(scores[h, l, t]),
    gates G (L, D, T) in [0, 1] and values V (1, D, T): each (h, l, d) row
    is a softmax of the anchor's scores, tilted by that row's gates, applied
    to that feature's values.  Rows whose gates are all zero give 0, and
    zero gates act as masks: they get no gradient.  Both sums are batched
    contractions over t, so no (H, L, D, T) array exists in forward or
    backward.  Scores always get a gradient; gates and values get one only
    when they require it.
    """
    s, gt, v = _lift(scores), _lift(gates), _lift(values)
    S, G, V = s.data, gt.data, v.data
    if S.ndim != 3 or G.ndim != 3 or S.shape[1:] != (G.shape[0], G.shape[2]) \
            or V.shape != (1,) + G.shape[1:]:
        raise DimensionError(f"gated_attention_pool: scores {S.shape}, gates {G.shape} "
                             f"and values {V.shape} are not (H, L, T), (L, D, T), (1, D, T)")
    D = G.shape[1]
    e, den, redo, e_redo = sample_pool_exponents(S, G)
    h, l, d = redo
    GV = G * V
    eL = e.transpose(1, 0, 2)                                     # (L, H, T)
    num = np.matmul(eL, GV.transpose(0, 2, 1)).transpose(1, 0, 2)
    num[redo] = (e_redo * GV[l, d]).sum(axis=-1)
    out = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)

    def backward(g):
        # d out / d e[h, l, t] G[l, d, t] = (V[d, t] - out[h, l, d]) / den[h, l, d]
        a = np.divide(g, den, out=np.zeros_like(g), where=den > 0.0)
        b = a * out
        a_redo, b_redo = a[redo][:, None], b[redo][:, None]
        a[redo] = 0.0
        b[redo] = 0.0
        aL, bL = a.transpose(1, 0, 2), b.transpose(1, 0, 2)     # (L, H, D)
        g_s = eL * (np.matmul(aL, GV) - np.matmul(bL, G))        # (L, H, T)
        g_s = g_s.transpose(1, 0, 2)
        np.add.at(g_s, (h, l), e_redo * (a_redo * GV[l, d] - b_redo * G[l, d]))
        g_g = g_v = None
        if gt.requires_grad or v.requires_grad:
            both = np.matmul(np.concatenate([aL, bL], axis=2).transpose(0, 2, 1), eL)
            sum_ae, sum_be = both[:, :D], both[:, D:]           # (L, D, T) sums over h
        if gt.requires_grad:
            g_g = sum_ae * V
            g_g -= sum_be
            g_g *= G > 0.0                                      # zero gates are masks
            np.add.at(g_g, (l, d), e_redo * (a_redo * V[0, d] - b_redo))
        if v.requires_grad:
            g_v = (sum_ae * G).sum(axis=0, keepdims=True)
            np.add.at(g_v[0], d, a_redo * e_redo * G[l, d])
        return g_s, g_g, g_v

    return _node(out, (s, gt, v), backward)


def sample_dla_forward(params, prep, cfg, x_hat, dense=False):
    """One sample onto the anchor grid: its (L, C) grid, pooled by
    ``sample_gated_attention_pool`` or, with ``dense``, by the full attention
    weights, and with ``dense`` also those weights as (H, L, T, D_eff) maps
    (None without)."""
    L, H, A = cfg.n_queries, cfg.n_heads, cfg.attn_dim
    T = len(prep.times)
    mask3 = np.zeros((1, prep.values.shape[1], T))
    mask3[0, prep.feat_idx, prep.step_of] = 1.0
    if cfg.keyvalue_variant == "setting1":
        keys = Tensor(prep.values)
        values3 = Tensor(prep.values.T[None, :, :])
        obs_mask3 = mask3
    elif cfg.keyvalue_variant == "setting2":
        keys = x_hat
        values3 = reshape(transpose(x_hat, (1, 0)), (1, cfg.embed_dim + 1, T))
        obs_mask3 = np.ones((1, cfg.embed_dim + 1, T))
    else:
        keys = x_hat
        values3 = Tensor(prep.values.T[None, :, :])
        obs_mask3 = mask3
    range_raw = params["dla.range_raw"]
    if cfg.no_learnable_range:
        range_raw = range_raw.detach()
    radii = softplus(range_raw)
    gates = sample_gates(radii, prep.times, anchor_times(L), cfg, obs_mask3)
    q = transpose(reshape(matmul(params["dla.queries"], params["dla.q.w"]), (L, H, A)),
                  (1, 0, 2))
    k = transpose(reshape(matmul(keys, params["dla.k.w"]), (T, H, A)), (1, 2, 0))
    scores = mul(matmul(q, k), 1.0 / math.sqrt(A))
    maps = None
    if dense:
        w = weighted_masked_softmax(reshape(scores, (H, L, 1, T)), gates)
        head_outs = tsum(mul(w, values3), axis=3)
        maps = np.transpose(w.data, (0, 1, 3, 2))
    else:
        head_outs = sample_gated_attention_pool(scores, gates, values3)
    stacked = reshape(transpose(head_outs, (1, 0, 2)), (L, -1))
    return add(matmul(stacked, params["dla.out.w"]), params["dla.out.b"]), maps


def sample_fuse(outs, params, cfg):
    """Fusion of one sample's (P, p, C) scales (or its (L, C) grid)."""
    flats = [reshape(x, (-1, x.shape[-1])) for x in outs]
    l_c = flats[-1].shape[0]
    pooled = [f if f.shape[0] == l_c
              else matmul(Tensor(adaptive_pool_matrix(f.shape[0], l_c)), f)
              for f in flats]
    if cfg.fusion_mode == "concat":
        combined = concat(pooled, axis=1)
    else:
        combined = pooled[0]
        for q in pooled[1:]:
            combined = mul(combined, q) if cfg.fusion_mode == "multiply" else add(combined, q)
    h = relu(add(matmul(combined, params["fusion.w1"]), params["fusion.b1"]))
    return add(matmul(h, params["fusion.w2"]), params["fusion.b2"])


def forward(model, prep, dense=False):
    """One sample's (R, n_classes) logits, and with ``dense`` its DLA maps
    (None without DLA or without ``dense``).

    te and DLA run on the sample alone through the segment ops and
    ``sample_gated_attention_pool``, or with ``dense`` through the dense
    attention weights.
    """
    cfg, params = model.cfg, model.params
    te = dense_te_forward if dense else te_forward
    maps = None
    if cfg.no_dla:
        embeds = te(params, prep, cfg)
        pool = adaptive_pool_matrix(len(prep.times), cfg.n_queries)
        grid = matmul(Tensor(pool), embeds)
        grid = add(matmul(grid, params["grid.proj.w"]), params["grid.proj.b"])
    else:
        x_hat = None
        if cfg.keyvalue_variant != "setting1":
            x_hat = dla_keys(te, params, prep, cfg)
        grid, maps = sample_dla_forward(params, prep, cfg, x_hat, dense)
    outs = [grid] if cfg.no_mixer else run_mixer(grid, params, cfg)
    fused = sample_fuse(outs, params, cfg)
    pooled = matmul(Tensor(adaptive_pool_matrix(fused.shape[0], len(prep.labels))), fused)
    logits = add(matmul(pooled, params["head.w"]), params["head.b"])
    return logits, maps


def sample_loss(model, prep, dense=False):
    logits, _ = forward(model, prep, dense=dense)
    return cross_entropy_with_logits(reshape(logits, (1,) + logits.shape), prep.labels,
                                     [len(prep.labels)])


def batch_loss(model, preps, dense=False):
    """The mean of the per-sample losses, one graph per sample."""
    return tmean(concat([reshape(sample_loss(model, p, dense), (1,)) for p in preps], axis=0))


def one_graph_gradients(model, preps):
    """The batch's loss and trainable gradients from one ``batch_loss`` graph
    over the whole batch, as a training step formed them before it split
    the batch into shards."""
    params = model.trainable()
    for p in params.values():
        p.grad = None
    loss = model.batch_loss(preps)
    loss.backward()
    return loss.item(), {k: p.grad for k, p in params.items()}


@dataclass(frozen=True)
class StepSeries:
    """A sample as ``TimeStep`` objects, the form the loader built before a
    loaded sample became arrays."""
    sample_id: str
    steps: tuple
    label: object

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.steps], dtype=np.float64)

    def __len__(self) -> int:
        return len(self.steps)


def _is_finite_number(x) -> bool:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def parse_events(line: str, n_features: int, line_no: int = 0) -> StepSeries:
    """``tada.data.parse_events`` as it was: every event checked in a Python
    loop, merged last-wins in a dict and grouped by time in another."""
    where = f"line {line_no}" if line_no else "line"
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise DataError(f"{where}: invalid JSON ({e.msg})") from None
    except (ValueError, RecursionError) as e:
        raise DataError(f"{where}: invalid JSON ({e})") from None
    if not isinstance(obj, dict) or set(obj) != {"id", "label", "events"}:
        raise DataError(f"{where}: expected keys id/label/events")
    sid = obj["id"]
    if not isinstance(sid, str) or not sid:
        raise DataError(f"{where}: id must be a non-empty string")
    events = obj["events"]
    if not isinstance(events, list) or not events:
        raise DataError(f"{where}: events must be a non-empty list")

    merged = {}
    for k, ev in enumerate(events):
        if (not isinstance(ev, (list, tuple))) or len(ev) != 3:
            raise DataError(f"{where}: event {k} must be [time, feature, value]")
        t, f, v = ev
        if not _is_finite_number(t):
            raise DataError(f"{where}: event {k} has non-finite time")
        if isinstance(f, bool) or not isinstance(f, int) or not (0 <= f < n_features):
            raise DataError(
                f"{where}: event {k} feature index {f!r} outside [0, {n_features})")
        if not _is_finite_number(v):
            raise DataError(f"{where}: event {k} has non-finite value")
        merged[(float(t), f)] = float(v)

    by_time = {}
    for (t, f), v in merged.items():
        by_time.setdefault(t, {})[f] = v
    steps = tuple(
        TimeStep(time=t, observations=tuple(
            Observation(feature=f, value=v) for f, v in sorted(by_time[t].items())))
        for t in sorted(by_time)
    )

    label = obj["label"]
    if isinstance(label, bool):
        raise DataError(f"{where}: label must be an integer or list of integers")
    if isinstance(label, int):
        parsed_label = label
    elif isinstance(label, list) and label and all(
            isinstance(x, int) and not isinstance(x, bool) for x in label):
        if len(label) != len(steps):
            raise DataError(
                f"{where}: {len(label)} step labels for {len(steps)} grouped steps")
        parsed_label = tuple(label)
    else:
        raise DataError(f"{where}: label must be an integer or list of integers")
    return StepSeries(sample_id=sid, steps=steps, label=parsed_label)


def serialize_steps(series) -> str:
    """``tada.data.serialize_events`` as it was, over a series' steps."""
    events = [[s.time, o.feature, o.value] for s in series.steps for o in s.observations]
    label = list(series.label) if isinstance(series.label, tuple) else series.label
    return json.dumps({"id": series.sample_id, "label": label, "events": events},
                      sort_keys=True)


def observation_arrays(series, n_features: int):
    """``tada.data.observation_arrays`` as it was, for a well-formed series:
    (step_of, feat_idx, values) (N,) arrays gathered one observation at a
    time, plus the dense (T, D) value matrix."""
    obs = [o for step in series.steps for o in step.observations]
    step_of = np.repeat(np.arange(len(series.steps), dtype=np.int64),
                        [len(step.observations) for step in series.steps])
    feat_idx = np.array([o.feature for o in obs]).astype(np.int64, copy=False)
    vals = np.fromiter((o.value for o in obs), dtype=np.float64, count=len(obs))
    values = np.zeros((len(series.steps), n_features))
    values[step_of, feat_idx] = vals
    return step_of, feat_idx, vals, values


def prepare_by_steps(model, series):
    """``TadaModel.prepare`` as it was, for a well-formed series (an
    ``IrregularSeries``, through its ``steps``, or a ``StepSeries``): new
    normalized ``TimeStep`` objects, then the observation arrays and the
    dense value matrix filled one observation at a time."""
    steps = series.steps
    if len(steps) == 1:
        steps = (TimeStep(time=0.0, observations=steps[0].observations),)
    else:
        t0 = steps[0].time
        span = steps[-1].time - t0
        steps = tuple(TimeStep(time=(s.time - t0) / span, observations=s.observations)
                      for s in steps)
    series = StepSeries(series.sample_id, steps, series.label)
    obs = [(k, o.feature, o.value) for k, step in enumerate(series.steps)
           for o in step.observations]
    values = np.zeros((len(steps), model.n_features))
    for k, f, v in obs:
        values[k, f] = v
    labels = series.label if model.task == "step" else (series.label,)
    return Batch(
        times=series.times,
        values_col=np.array([v for _, _, v in obs])[:, None].copy(),
        feat_idx=np.array([f for _, f, _ in obs], dtype=np.int64),
        step_of=np.array([k for k, _, _ in obs], dtype=np.int64),
        values=values,
        lengths=np.array([len(steps)]),
        t_max=len(steps),
        labels=np.array(labels, dtype=np.int64),
        label_counts=np.array([len(labels)]),
        sample_id=series.sample_id,
    )
