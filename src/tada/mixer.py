"""Hierarchical MLP mixer over the anchor grid.

Every stage carries a leading batch axis: the (B, L, C) grids of a batch
go through the same weights at once.  Each (L, C) grid splits into L/p
patches of p tokens.  Each layer mixes channels, then patch positions,
then channels again around a residual, and finally shrinks every patch by
the merge factor m before regrouping m adjacent patches into one, halving
(for m=2) the token count per layer.  Every layer's pre-merge activations
feed the fusion block, which pools each scale to a common token length,
combines them, and maps through an MLP.  Nothing reads the last layer's
merge, so it is skipped, and the model declares no merge weight for it.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .tensor import Tensor, add, concat, matmul, mul, relu, reshape, transpose

_POOL_CACHE: dict[tuple[int, int], np.ndarray] = {}


def adaptive_pool_matrix(n_in: int, n_out: int) -> np.ndarray:
    """(n_out, n_in) row-stochastic matrix averaging input bins per output slot."""
    key = (n_in, n_out)
    mat = _POOL_CACHE.get(key)
    if mat is None:
        mat = np.zeros((n_out, n_in))
        for i in range(n_out):
            lo = (i * n_in) // n_out
            hi = -(-((i + 1) * n_in) // n_out)  # ceil
            mat[i, lo:hi] = 1.0 / (hi - lo)
        _POOL_CACHE[key] = mat
    return mat


def pool_stack(shapes: list[tuple[int, int]]) -> np.ndarray:
    """(B, max n_out, max n_in) stack of ``adaptive_pool_matrix(n_in, n_out)``
    for each sample's (n_in, n_out), zero-padded: per-sample pools for a
    padded batch."""
    out = np.zeros((len(shapes), max(o for _, o in shapes), max(i for i, _ in shapes)))
    for mat, (i, o) in zip(out, shapes):
        mat[:o, :i] = adaptive_pool_matrix(i, o)
    return out


def patchify(grid: Tensor, patch_size: int) -> Tensor:
    """(..., L, C) -> (..., L / patch_size, patch_size, C), consecutive rows
    per patch."""
    L, C = grid.shape[-2:]
    if L % patch_size != 0:
        raise DimensionError(f"patchify: {L} rows not divisible by patch size {patch_size}")
    return reshape(grid, grid.shape[:-2] + (L // patch_size, patch_size, C))


def mixer_block(x: Tensor, w_in: Tensor, w_across: Tensor, w_out: Tensor) -> Tensor:
    """relu(x + mix(x)) on (..., P, p, C): channel mix, patch-axis mix,
    channel mix, residual.

    With all three weights zero this is the identity on non-negative input.
    """
    lead, (P, p, C) = x.shape[:-3], x.shape[-3:]
    t = matmul(x, w_in)                                   # channels
    t = reshape(matmul(w_across, reshape(t, lead + (P, p * C))), x.shape)  # across patches
    t = matmul(t, w_out)                                  # channels
    return relu(add(x, t))


def patch_merge(x: Tensor, w_pool: Tensor, merge_factor: int) -> Tensor:
    """Shrink each patch p -> p/m, then regroup m adjacent patches into one.

    (..., P, p, C) -> (..., P/m, p, C); token count drops by the merge factor.
    """
    lead, (P, p, C) = x.shape[:-3], x.shape[-3:]
    if P % merge_factor != 0:
        raise DimensionError(
            f"patch_merge: {P} patches not divisible by merge factor {merge_factor}")
    swap = tuple(range(x.ndim - 2)) + (x.ndim - 1, x.ndim - 2)
    t = matmul(transpose(x, swap), w_pool)                # (..., P, C, p/m)
    t = transpose(t, swap)                                # (..., P, p/m, C)
    return reshape(t, lead + (P // merge_factor, p, C))


def run_mixer(grid: Tensor, params: dict, cfg) -> list[Tensor]:
    """Apply the layer stack to a (..., L, C) grid; returns each layer's
    pre-merge activations.  The last layer merges nothing: no later layer
    would read it."""
    x = patchify(grid, cfg.patch_size)
    outs = []
    for layer in range(cfg.n_layers):
        x_out = mixer_block(x, params[f"mixer.l{layer}.mix_in.w"],
                            params[f"mixer.l{layer}.across.w"],
                            params[f"mixer.l{layer}.mix_out.w"])
        outs.append(x_out)
        if layer + 1 < cfg.n_layers:
            x = patch_merge(x_out, params[f"mixer.l{layer}.pool.w"], cfg.merge_factor)
    return outs


def fuse(outs: list[Tensor], params: dict, cfg) -> Tensor:
    """Pool every scale to the deepest layer's token count l_c and combine.

    Each scale is a (B, P, p, C) mixer output or a (B, L, C) grid; (B, l_c, C)
    out.
    """
    flats = [x if x.ndim == 3 else reshape(x, x.shape[:-3] + (-1, x.shape[-1]))
             for x in outs]
    l_c = flats[-1].shape[-2]
    # the deepest scale already has l_c rows; its pool would be the identity
    pooled = [f if f.shape[-2] == l_c
              else matmul(Tensor(adaptive_pool_matrix(f.shape[-2], l_c)), f)
              for f in flats]
    if cfg.fusion_mode == "concat":
        combined = concat(pooled, axis=-1)
    else:
        combined = pooled[0]
        for q in pooled[1:]:
            combined = mul(combined, q) if cfg.fusion_mode == "multiply" else add(combined, q)
    h = relu(add(matmul(combined, params["fusion.w1"]), params["fusion.b1"]))
    return add(matmul(h, params["fusion.w2"]), params["fusion.b2"])


def classify(fused: Tensor, params: dict, out_lens) -> Tensor:
    """Pool each sample's (l_c, C) fused tokens to its own row count and
    apply the linear head: (B, max out_lens, n_classes), zero-pooled padding
    rows after each sample's own."""
    l_c = fused.shape[-2]
    pool = pool_stack([(l_c, int(n)) for n in out_lens])
    pooled = matmul(Tensor(pool), fused)
    return add(matmul(pooled, params["head.w"]), params["head.b"])
