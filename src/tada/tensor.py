"""Reverse-mode automatic differentiation over dense float64 arrays.

Every op builds a graph node holding a backward closure; calling
``backward()`` on a scalar output accumulates gradients into the ``grad``
buffers of the leaves in reverse topological order, freeing each
intermediate gradient once used.  A backward never returns two gradients
that share memory, so a parent adopts its first gradient without a copy.
An op on operands that need no gradient builds no node.  Arrays are always
float64 and row-major.  Ops never mutate their inputs.  Ops are functions
called by name, each taking only the operand forms the model passes.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError

Array = np.ndarray


class Tensor:
    """Dense float64 array plus an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward=None,
                 name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self._parents = parents
        self._backward = backward
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def backward(self) -> None:
        """Run reverse-mode accumulation from this scalar output.

        Leaves (tensors no op produced) accumulate into ``grad``; every
        intermediate gradient is dropped once its node's backward has run.
        """
        if self.data.size != 1:
            raise DimensionError(
                f"backward: output must be a scalar, got shape {self.data.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
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
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            grads = node._backward(node.grad)
            node.grad = None            # only leaves keep their gradient
            for parent, g in zip(node._parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = g     # adopted: no two returned gradients share memory
                else:
                    parent.grad += g

    def __repr__(self):
        tag = f" name={self.name}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}{tag})"


def _lift(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _node(data: Array, parents: Sequence[Tensor], backward) -> Tensor:
    for p in parents:
        if p.requires_grad:
            return Tensor(data, requires_grad=True, parents=tuple(parents), backward=backward)
    return Tensor(data)


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Reduce a broadcast gradient back to the original operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# elementwise ---------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    try:
        out = a.data + b.data
    except ValueError:
        raise DimensionError(
            f"add: shapes {a.data.shape} and {b.data.shape} do not broadcast") from None

    def backward(g):
        ga = _unbroadcast(g, a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(g, b.data.shape) if b.requires_grad else None
        if ga is not None and gb is not None and np.may_share_memory(ga, gb):
            gb = gb.copy()      # backward adopts each parent's first gradient
        return ga, gb

    return _node(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    try:
        out = a.data * b.data
    except ValueError:
        raise DimensionError(
            f"mul: shapes {a.data.shape} and {b.data.shape} do not broadcast") from None

    def backward(g):
        return (_unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None)

    return _node(out, (a, b), backward)


def relu(x) -> Tensor:
    x = _lift(x)
    keep = x.data > 0.0
    out = np.where(keep, x.data, 0.0)

    def backward(g):
        return (g * keep,)

    return _node(out, (x,), backward)


def _sigmoid(x: Array, overwrite: bool = False) -> Array:
    """1 / (1 + e) for x >= 0 and e / (1 + e) below, with e = exp(-|x|).

    e never overflows, and nothing is clipped, so tiny gates stay nonzero.
    Computed in place: gate arrays are large.  With ``overwrite`` e takes
    x's own buffer, and x is lost.
    """
    positive = x >= 0
    e = np.abs(x, out=x if overwrite else np.empty_like(x))
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(positive, 1.0, e)
    e += 1.0
    out /= e
    return out


def softplus(x) -> Tensor:
    x = _lift(x)
    y = np.logaddexp(0.0, x.data)
    s = _sigmoid(x.data)

    def backward(g):
        return (g * s,)

    return _node(y, (x,), backward)


# shape ops -----------------------------------------------------------------

def reshape(x, shape) -> Tensor:
    x = _lift(x)
    try:
        out = x.data.reshape(shape)
    except ValueError:
        raise DimensionError(
            f"reshape: cannot view shape {x.data.shape} as {shape}") from None
    orig = x.data.shape

    def backward(g):
        return (g.reshape(orig),)

    return _node(out, (x,), backward)


def transpose(x, axes) -> Tensor:
    x = _lift(x)
    axes = tuple(axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise DimensionError(f"transpose: axes {axes} invalid for ndim {x.data.ndim}")
    out = x.data.transpose(axes)
    inv = tuple(sorted(range(len(axes)), key=axes.__getitem__))

    def backward(g):
        return (g.transpose(inv),)

    return _node(out, (x,), backward)


def concat(tensors: Iterable, axis: int = 0) -> Tensor:
    ts = [_lift(t) for t in tensors]
    if not ts:
        raise DimensionError("concat: need at least one input")
    try:
        out = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError:
        raise DimensionError(
            f"concat: shapes {[t.data.shape for t in ts]} incompatible on axis {axis}") from None
    sizes = [t.data.shape[axis] for t in ts]
    cuts = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.ascontiguousarray(p) if t.requires_grad else None
                     for t, p in zip(ts, np.split(g, cuts, axis=axis)))

    return _node(out, ts, backward)


# linear algebra ------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Matrix product under numpy's rules: a 1D right operand is a column
    vector, and leading axes broadcast, as in
    (H, L, A) @ (B, H, A, T) -> (B, H, L, T).  The left operand is at least
    2D."""
    a, b = _lift(a), _lift(b)
    A, B = a.data, b.data
    if A.ndim < 2 or B.ndim < 1:
        raise DimensionError(
            f"matmul: unsupported operand shapes {A.shape} and {B.shape}")
    if A.shape[-1] != B.shape[-2 if B.ndim > 1 else 0]:
        raise DimensionError(
            f"matmul: inner axes disagree, {A.shape} @ {B.shape}")
    try:
        out = np.matmul(A, B)
    except ValueError:
        raise DimensionError(
            f"matmul: leading axes of {A.shape} and {B.shape} do not broadcast") from None

    def backward(g):
        # a vector on the right as a (k, 1) column
        B2 = B[:, None] if B.ndim == 1 else B
        g2 = g[..., None] if B.ndim == 1 else g
        ga = gb = None
        if B2.ndim == 2:
            # a shared right matrix: one product over all rows of A
            if a.requires_grad:
                ga = g2 @ B2.T
            if b.requires_grad:
                rows = math.prod(A.shape[:-1])
                gb = A.reshape(rows, A.shape[-1]).T @ g2.reshape(rows, B2.shape[1])
        else:
            if a.requires_grad:
                ga = g2 @ np.swapaxes(B2, -1, -2)
            if b.requires_grad:
                gb = np.swapaxes(A, -1, -2) @ g2
        return (None if ga is None else _unbroadcast(ga, A.shape),
                None if gb is None else _unbroadcast(gb, B2.shape).reshape(B.shape))

    return _node(out, (a, b), backward)


def _scatter_rows(rows: Array, index: Array, n: int) -> Array:
    """(n, k) sums of the (R, k) ``rows`` by their targets ``index`` in [0, n),
    each target's rows added in index order, from zero, by one bincount."""
    k = rows.shape[1]
    flat = (index[:, None] * k + np.arange(k)).reshape(-1)
    out = np.bincount(flat, weights=rows.reshape(-1), minlength=n * k)
    return out.reshape(n, k).astype(np.float64, copy=False)     # int64 when empty


def gather(x, index) -> Tensor:
    """Rows of a 2D ``x`` by a 1D integer index in [0, n) (duplicates allowed)."""
    x = _lift(x)
    idx = np.asarray(index, dtype=np.int64)
    if x.data.ndim != 2 or idx.ndim != 1:
        raise DimensionError(f"gather: need 2D rows and a 1D index, got shapes "
                             f"{x.data.shape} and {idx.shape}")
    n = x.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise DimensionError(f"gather: index out of range for {n} rows")

    def backward(g):
        return (_scatter_rows(g, idx, n),)

    return _node(np.take(x.data, idx, axis=0), (x,), backward)


# attention aggregation -------------------------------------------------------

def _segments(step_of, n_steps: int, n: int, op: str) -> Array:
    seg = np.asarray(step_of, dtype=np.int64)
    if seg.shape != (n,):
        raise DimensionError(f"{op}: step_of shape {seg.shape} does not fit {n} rows")
    if n and (seg.min() < 0 or seg.max() >= n_steps):
        raise DimensionError(f"{op}: step index out of range for {n_steps} steps")
    return seg


def segment_softmax(scores, step_of, n_steps: int) -> Tensor:
    """Softmax of (N,) scores over each step's observations.

    ``step_of[i]`` names the step of observation i; the weights of every
    step's observations sum to 1.  Each step is shifted by its own maximum.
    """
    s = _lift(scores)
    if s.data.ndim != 1:
        raise DimensionError(f"segment_softmax: scores must be 1D, got {s.data.shape}")
    seg = _segments(step_of, n_steps, s.data.size, "segment_softmax")
    c = np.full(n_steps, -np.inf)
    np.maximum.at(c, seg, s.data)
    e = np.exp(s.data - c[seg])
    w = e / np.bincount(seg, weights=e, minlength=n_steps)[seg]

    def backward(g):
        gw = g * w
        return (gw - w * np.bincount(seg, weights=gw, minlength=n_steps)[seg],)

    return _node(w, (s,), backward)


def segment_sum(x, step_of, n_steps: int, weights=(), rows=()) -> Tensor:
    """(T, k) sums of the (N, k) rows of ``x`` per step; empty steps give zero rows.

    With (R,) ``weights`` and R distinct row indices ``rows``, row rows[j]
    enters its step's sum scaled by weights[j]; every other row enters as
    it is, with weight exactly 1.
    """
    x = _lift(x)
    w = _lift(weights)
    if x.data.ndim != 2:
        raise DimensionError(f"segment_sum: x must be 2D, got {x.data.shape}")
    rows = np.asarray(rows, dtype=np.int64)
    if w.data.ndim != 1 or rows.shape != w.data.shape:
        raise DimensionError(f"segment_sum: weights {w.data.shape} and rows "
                             f"{rows.shape} are not two (R,) arrays")
    n = x.data.shape[0]
    seg = _segments(step_of, n_steps, n, "segment_sum")
    scale = np.ones((n, 1))
    scale[rows, 0] = w.data
    out = _scatter_rows(x.data * scale if rows.size else x.data, seg, n_steps)

    def backward(g):
        gx = g[seg]
        if not rows.size:
            return gx, np.zeros(0)
        gw = (gx * x.data).sum(axis=1)[rows]
        gx *= scale
        return gx, gw

    return _node(out, (x, w), backward)


# Below this a normalizer may hold subnormal terms whose rounding, up to
# 2^-1075 each, reaches its last bit.
_POOL_UNDERFLOW = np.finfo(np.float64).tiny / np.finfo(np.float64).eps


def _masked_exp(S: Array, live: Array) -> Array:
    """exp(S - c) where ``live`` (broadcast against S), 0 elsewhere, with one
    shift c per row along the last axis: the row's largest live score, or 0
    for a row with none."""
    E = np.where(live, S, -np.inf)
    c = E.max(axis=-1, keepdims=True, initial=-np.inf)
    c[~np.isfinite(c)] = 0.0
    E -= c
    return np.exp(E, out=E)


def _pool_radii(radii, temperature, D: int, op: str) -> Tensor | None:
    """The (D,) radii a pool differentiates: those that require a gradient,
    which need the soft windows' temperature; None for any others."""
    r = None if radii is None else _lift(radii)
    if r is not None and r.data.shape != (D,):
        raise DimensionError(f"{op}: radii {r.data.shape} do not fit {D} features")
    if r is not None and r.requires_grad and not temperature:
        raise DimensionError(f"{op}: radii that learn need a gate temperature > 0")
    return r if r is not None and r.requires_grad else None


def _pool_grad_coefs(g: Array, den: Array, out: Array, redo):
    """A pool's backward coefficients ga = g / den (0 where den is 0) and
    gb = ga out, with the redone rows' entries moved out into (R, 1)
    columns (None when no row was redone)."""
    ga = np.divide(g, den, out=np.zeros_like(g), where=den > 0.0)
    gb = ga * out
    if redo is None:
        return ga, gb, None, None
    a_redo, b_redo = ga[redo][:, None], gb[redo][:, None]
    ga[redo] = 0.0
    gb[redo] = 0.0
    return ga, gb, a_redo, b_redo


def _pool_exponents(S: Array, G: Array):
    """Shifted exponents and normalizers of a gated attention pool.

    e = exp(S - c) with one shift c per (b, h, l): the maximum score over
    the steps any of the anchor's gates leaves live.  The normalizers are
    den[b, h, l, d] = sum_t e[b, h, l, t] G[b, l, d, t].  A row whose own
    live scores all sit far below c underflows there, so every row with a
    live gate and a normalizer under ``_POOL_UNDERFLOW`` is redone with its
    own shift: ``redo`` indexes those (b, h, l, d) rows, ``e_redo`` (R, T)
    holds their exponents, and ``den`` their normalizers; both are None
    when no row underflows.
    """
    live = G > 0.0                                               # (B, L, D, T)
    e = _masked_exp(S, live.any(axis=2)[:, None])               # (B, H, L, T)
    den = np.matmul(e.transpose(0, 2, 1, 3), G.transpose(0, 1, 3, 2)).transpose(0, 2, 1, 3)
    redo = np.nonzero((den < _POOL_UNDERFLOW) & live.any(axis=-1)[:, None])
    if not redo[0].size:
        return e, den, None, None
    b, h, l, d = redo
    e_redo = _masked_exp(S[b, h, l], live[b, l, d])              # (R, T)
    den[redo] = (e_redo * G[b, l, d]).sum(axis=-1)
    return e, den, redo, e_redo


def gated_attention_pool(scores, gates: Array, values, radii=None,
                         temperature: float | None = None) -> Tensor:
    """Attention pooling of shared scores under per-row gates, per sample.

    out[b, h, l, d] = sum_t e G V / sum_t e G with e = exp(scores[b, h, l, t]),
    gates G (B, L, D, T) in [0, 1], a plain array, and values V (B, 1, D, T):
    each (b, h, l, d) row is a softmax of the anchor's scores, tilted by that
    row's gates, applied to that feature's values.  Rows whose gates are all
    zero give 0, and zero gates act as masks, so a padded step with zero
    gates adds nothing.  Both sums are batched contractions over t, so no
    (B, H, L, D, T) array exists in forward or backward.

    Soft windows pass the (D,) ``radii`` the gates were built from and their
    ``temperature`` tau: G = sigmoid((r_d - |t - a_l|) / tau) m with a 0/1
    mask m, so dG / dr_d = G' / tau with G' = G (1 - G) exactly.  Radii that
    require a gradient get it here, by two more contractions over t:
    g_r[d] = sum over b, h, l of (ga (e @ (G' V)^T) - ga out (e @ G'^T)) / tau
    with ga = g / den, and no gradient of G is formed; without a temperature
    they raise DimensionError.  Scores always get a gradient; values and
    radii only when they require one, so hard or frozen radii get none.

    This is DLA's block pool, for setting2 and for batches too dense for
    ``observation_pool``, whose cost follows the observations instead.
    """
    s, v = _lift(scores), _lift(values)
    S, G, V = s.data, np.asarray(gates, dtype=np.float64), v.data
    if S.ndim != 4 or G.ndim != 4 or S.shape[0] != G.shape[0] \
            or S.shape[2:] != (G.shape[1], G.shape[3]) \
            or V.shape != (G.shape[0], 1) + G.shape[2:]:
        raise DimensionError(f"gated_attention_pool: scores {S.shape}, gates {G.shape} "
                             f"and values {V.shape} are not (B, H, L, T), (B, L, D, T), "
                             f"(B, 1, D, T)")
    D = G.shape[2]
    r = _pool_radii(radii, temperature, D, "gated_attention_pool")
    e, den, redo, e_redo = _pool_exponents(S, G)
    GV = G * V
    eL = e.transpose(0, 2, 1, 3)                                  # (B, L, H, T)
    num = np.matmul(eL, GV.transpose(0, 1, 3, 2)).transpose(0, 2, 1, 3)
    if redo is not None:
        b, h, l, d = redo
        num[redo] = (e_redo * GV[b, l, d]).sum(axis=-1)
    out = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)

    def backward(g):
        # d out / d e[b, h, l, t] G[b, l, d, t] = (V[b, d, t] - out[b, h, l, d]) / den
        ga, gb, a_redo, b_redo = _pool_grad_coefs(g, den, out, redo)
        aL, bL = ga.transpose(0, 2, 1, 3), gb.transpose(0, 2, 1, 3)   # (B, L, H, D)
        g_s = eL * (np.matmul(aL, GV) - np.matmul(bL, G))             # (B, L, H, T)
        g_s = g_s.transpose(0, 2, 1, 3)
        g_v = g_r = None
        if v.requires_grad:
            sum_ae = np.matmul(aL.transpose(0, 1, 3, 2), eL)          # (B, L, D, T)
            g_v = (sum_ae * G).sum(axis=1, keepdims=True)
        if r is not None:
            slope = 1.0 - G
            slope *= G                                            # G' = G (1 - G)
            den_r = np.matmul(eL, slope.transpose(0, 1, 3, 2))    # (B, L, H, D)
            slope *= V
            num_r = np.matmul(eL, slope.transpose(0, 1, 3, 2))
            g_r = (aL * num_r).sum(axis=(0, 1, 2)) - (bL * den_r).sum(axis=(0, 1, 2))
        if redo is not None:        # the redone rows, from their own exponents
            b, h, l, d = redo
            G_r = G[b, l, d]
            np.add.at(g_s, (b, h, l), e_redo * (a_redo * GV[b, l, d] - b_redo * G_r))
            if g_v is not None:
                np.add.at(g_v, (b, 0, d), a_redo * e_redo * G_r)
            if g_r is not None:
                rows = e_redo * ((1.0 - G_r) * G_r) * (a_redo * V[b, 0, d] - b_redo)
                g_r += np.bincount(d, weights=rows.sum(axis=-1), minlength=D)
        return (g_s, g_v) if r is None else (g_s, g_v, g_r * (1.0 / temperature))

    return _node(out, (s, v) if r is None else (s, v, r), backward)


def _observation_exponents(S: Array, G: Array, M: Array, D: int):
    """Gated exponents and column sums of an observation pool.

    W = e G (B, H, L, N) with e = exp(S - c) at the observations the
    anchor's gates leave live, 0 elsewhere, and one shift c per (b, h, l):
    the maximum live score.  ``sums`` (B, H, L, 2D) = W @ M for the
    per-sample (N, 2D) matrix M of ``_observation_matrix``: its first D
    columns are the normalizers, its last D the numerators.  Rows that
    underflow are redone as in ``_pool_exponents``: ``redo`` indexes them,
    ``w_redo`` (R, N) holds their gated exponents, zero off feature d, and
    ``sums`` their two column sums; both are None when no row underflows.
    """
    B, H, L, N = S.shape
    live = G > 0.0                                               # (B, L, N)
    W = _masked_exp(S, live[:, None])
    W *= G[:, None]
    sums = np.matmul(W.reshape(B, H * L, N), M).reshape(B, H, L, -1)
    row_live = np.matmul(G, M[..., :D]) > 0.0                    # (B, L, D)
    redo = np.nonzero((sums[..., :D] < _POOL_UNDERFLOW) & row_live[:, None])
    if not redo[0].size:
        return W, sums, None, None
    b, h, l, d = redo
    w_redo = _masked_exp(S[b, h, l], live[b, l] & (M[b, :, d] > 0.0)) * G[b, l]
    sums[b, h, l, d] = (w_redo * M[b, :, d]).sum(axis=-1)
    sums[b, h, l, D + d] = (w_redo * M[b, :, D + d]).sum(axis=-1)
    return W, sums, redo, w_redo


def _observation_matrix(feat: Array, values: Array, D: int) -> Array:
    """(B, N, 2D) [one-hot(feature) | one-hot(feature) * value]."""
    B, N = feat.shape
    k = 2 * D
    M = np.zeros((B, N, k))
    at = np.arange(0, B * N * k, k) + feat.reshape(-1)
    M.reshape(-1)[at] = 1.0
    M.reshape(-1)[at + D] = values.reshape(-1)
    return M


def observation_pool(scores, gates: Array, feat: Array, values: Array, n_features: int,
                     radii=None, temperature: float | None = None) -> Tensor:
    """``gated_attention_pool`` over each sample's observations.

    Sample b's observations fill the first slots of an (N_max,) axis:
    (B, H, L, N) scores at the observations, (B, L, N) gates, one per
    observation and zero at padding slots, and (B, N) feature indices and
    values, plain arrays.  out[b, h, l, d] = sum_n W V / sum_n W over b's
    observations of feature d, with W = exp(scores) G; a feature without a
    live gate gives 0.  Both sums come from one batched product of W, as
    (B, H L, N), with the per-sample (N, 2D) matrix
    M = [one-hot(feature) | one-hot(feature) * value], and the backward is
    one product the other way.  The cost follows the observations, not
    features x steps.

    Soft windows pass the (D,) ``radii`` the gates were built from and their
    ``temperature`` tau: dG / dr = G (1 - G) / tau at an observation of
    feature d, and the score gradient is g_S = W dL/dW, so
    g_r[d] = sum of g_S (1 - G) / tau over b, h, l and d's observations.
    As in ``gated_attention_pool``, radii get a gradient only when they
    require one, and then need the temperature.  The values get none.
    """
    s = _lift(scores)
    S, G, D = s.data, np.asarray(gates, dtype=np.float64), n_features
    feat = np.asarray(feat, dtype=np.int64)
    V = np.asarray(values, dtype=np.float64)
    if S.ndim != 4 or G.shape != (S.shape[0],) + S.shape[2:] \
            or feat.shape != (S.shape[0], S.shape[3]) or V.shape != feat.shape:
        raise DimensionError(f"observation_pool: scores {S.shape}, gates {G.shape}, "
                             f"features {feat.shape} and values {V.shape} are not "
                             f"(B, H, L, N), (B, L, N), (B, N), (B, N)")
    if feat.size and (feat.min() < 0 or feat.max() >= D):
        raise DimensionError(f"observation_pool: feature index out of range for {D}")
    r = _pool_radii(radii, temperature, D, "observation_pool")
    B, H, L, N = S.shape
    M = _observation_matrix(feat, V, D)
    W, sums, redo, w_redo = _observation_exponents(S, G, M, D)
    den = sums[..., :D]
    out = np.divide(sums[..., D:], den, out=np.zeros_like(den), where=den > 0.0)

    def backward(g):
        # d out[d] / d W[n] = onehot[n, d] (V[n] - out[d]) / den[d]
        ga, gb, a_redo, b_redo = _pool_grad_coefs(g, den, out, redo)
        np.negative(gb, out=gb)
        coef = np.concatenate([gb, ga], axis=-1).reshape(B, H * L, 2 * D)
        g_s = np.matmul(coef, M.transpose(0, 2, 1)).reshape(B, H, L, N)
        g_s *= W
        if redo is not None:
            b, h, l, d = redo
            np.add.at(g_s, (b, h, l), w_redo * (a_redo * M[b, :, D + d] - b_redo))
        if r is None:
            return (g_s,)
        per_obs = g_s.sum(axis=1)                                   # (B, L, N)
        per_obs *= 1.0 - G
        g_r = np.bincount(feat.reshape(-1), weights=per_obs.sum(axis=1).reshape(-1),
                          minlength=D)
        return g_s, g_r * (1.0 / temperature)

    return _node(out, (s,) if r is None else (s, r), backward)


def cross_entropy_with_logits(logits, labels, counts) -> Tensor:
    """Mean cross-entropy of a padded batch's logit rows against integer labels.

    Takes (B, R, C) logits, (B, R) or flat (B * R,) labels and (B,) row
    counts: the loss is the mean over samples b of the mean over b's first
    ``counts[b]`` rows, and the padding rows after them get no gradient.
    Stabilized by per-row max subtraction.
    """
    x = _lift(logits)
    z = x.data
    if z.ndim != 3:
        raise DimensionError(f"cross_entropy: logits must be (B, R, C), got {z.shape}")
    n_b, n_r, n_c = z.shape
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if y.shape != (n_b * n_r,):
        raise DimensionError(
            f"cross_entropy: {n_b * n_r} logit rows but labels shape {np.shape(labels)}")
    if y.size and (y.min() < 0 or y.max() >= n_c):
        raise DimensionError(
            f"cross_entropy: label out of range for {n_c} classes")
    n = np.asarray(counts, dtype=np.int64)
    if n.shape != (n_b,) or np.any(n < 1) or np.any(n > n_r):
        raise DimensionError(f"cross_entropy: row counts {n} do not fit {n_b} x {n_r} rows")
    y = y.reshape(n_b, n_r)
    live = np.arange(n_r) < n[:, None]                          # (B, R)
    m = z.max(axis=2, keepdims=True)
    zs = z - m
    lse = np.log(np.exp(zs).sum(axis=2))
    picked = np.take_along_axis(zs, y[..., None], axis=2)[..., 0]
    out = np.asarray((np.where(live, lse - picked, 0.0).sum(axis=1) / n).mean())

    def backward(g):
        p = np.exp(zs - lse[..., None])
        np.put_along_axis(p, y[..., None], np.take_along_axis(p, y[..., None], axis=2) - 1.0,
                          axis=2)
        return (np.where(live[..., None], float(g) * p / (n_b * n)[:, None, None], 0.0),)

    return _node(out, (x,), backward)
