"""Reverse-mode automatic differentiation over dense float64 arrays.

Every op builds a graph node holding a backward closure; calling
``backward()`` on a scalar output accumulates gradients into ``grad``
buffers in reverse topological order.  Arrays are always float64 and
row-major.  Ops never mutate their inputs.
"""

from __future__ import annotations

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
        """Run reverse-mode accumulation from this scalar output."""
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
            for parent, g in zip(node._parents, node._backward(node.grad)):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.data)
                parent.grad += g

    # operator sugar -------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def reshape(self, shape):
        return reshape(self, shape)

    def transpose(self, axes=None):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis, keepdims)

    def __repr__(self):
        tag = f" name={self.name}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}{tag})"


def _lift(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _node(data: Array, parents: Sequence[Tensor], backward) -> Tensor:
    if any(p.requires_grad for p in parents):
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
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _node(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    try:
        out = a.data * b.data
    except ValueError:
        raise DimensionError(
            f"mul: shapes {a.data.shape} and {b.data.shape} do not broadcast") from None

    def backward(g):
        return (_unbroadcast(g * b.data, a.data.shape),
                _unbroadcast(g * a.data, b.data.shape))

    return _node(out, (a, b), backward)


def relu(x) -> Tensor:
    x = _lift(x)
    keep = x.data > 0.0
    out = np.where(keep, x.data, 0.0)

    def backward(g):
        return (g * keep,)

    return _node(out, (x,), backward)


def _sigmoid(x: Array) -> Array:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(x) -> Tensor:
    x = _lift(x)
    y = _sigmoid(x.data)

    def backward(g):
        return (g * y * (1.0 - y),)

    return _node(y, (x,), backward)


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


def transpose(x, axes=None) -> Tensor:
    x = _lift(x)
    if axes is None:
        axes = tuple(reversed(range(x.data.ndim)))
    axes = tuple(axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise DimensionError(f"transpose: axes {axes} invalid for ndim {x.data.ndim}")
    out = np.transpose(x.data, axes)
    inv = tuple(np.argsort(axes))

    def backward(g):
        return (np.transpose(g, inv),)

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
        return tuple(np.ascontiguousarray(p) for p in np.split(g, cuts, axis=axis))

    return _node(out, ts, backward)


# reductions ----------------------------------------------------------------

def tsum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _lift(x)
    out = x.data.sum(axis=axis, keepdims=keepdims)
    shape = x.data.shape

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape).copy(),)

    return _node(out, (x,), backward)


def tmean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _lift(x)
    out = x.data.mean(axis=axis, keepdims=keepdims)
    shape = x.data.shape
    n = x.data.size if axis is None else np.prod([shape[a] for a in np.atleast_1d(axis)])

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, shape) / n,)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape) / n,)

    return _node(out, (x,), backward)


# linear algebra ------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Matrix product; a 3D right operand needs a 3D left one with the same
    leading (batch) size, as in (H, L, a) @ (H, a, T)."""
    a, b = _lift(a), _lift(b)
    A, B = a.data, b.data
    batched = A.ndim == 3 and B.ndim == 3 and A.shape[0] == B.shape[0]
    if A.ndim < 1 or B.ndim < 1 or (B.ndim > 2 and not batched):
        raise DimensionError(
            f"matmul: unsupported operand shapes {A.shape} and {B.shape}")
    if A.shape[-1] != B.shape[-2 if B.ndim > 1 else 0]:
        raise DimensionError(
            f"matmul: inner axes disagree, {A.shape} @ {B.shape}")
    out = A @ B

    def backward(g):
        if batched:
            return g @ B.transpose(0, 2, 1), A.transpose(0, 2, 1) @ g
        if A.ndim == 1 and B.ndim == 1:
            return g * B, g * A
        if A.ndim == 1:  # (k,) @ (k,n) -> (n,)
            return B @ g, np.outer(A, g)
        if B.ndim == 1:  # (..,m,k) @ (k,) -> (..,m)
            ga = g[..., None] * B
            gb = A.reshape(-1, A.shape[-1]).T @ g.reshape(-1)
            return ga, gb
        ga = g @ B.T
        gb = A.reshape(-1, A.shape[-1]).T @ g.reshape(-1, B.shape[1])
        return ga, gb

    return _node(out, (a, b), backward)


def gather(x, index, axis: int = 0) -> Tensor:
    """Select slices along `axis` by a 1D integer index (duplicates allowed)."""
    x = _lift(x)
    idx = np.asarray(index, dtype=np.int64)
    if idx.ndim != 1:
        raise DimensionError(f"gather: index must be 1D, got shape {idx.shape}")
    n = x.data.shape[axis]
    if idx.size and (idx.min() < -n or idx.max() >= n):
        raise DimensionError(
            f"gather: index out of range for axis {axis} with length {n}")
    out = np.take(x.data, idx, axis=axis)
    shape = x.data.shape

    def backward(g):
        buf = np.zeros(shape)
        np.add.at(np.moveaxis(buf, axis, 0), idx % n, np.moveaxis(g, axis, 0))
        return (buf,)

    return _node(out, (x,), backward)


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


def segment_sum(x, step_of, n_steps: int) -> Tensor:
    """(T, k) sums of the (N, k) rows of ``x`` per step; empty steps give zero rows."""
    x = _lift(x)
    if x.data.ndim != 2:
        raise DimensionError(f"segment_sum: x must be 2D, got {x.data.shape}")
    n, k = x.data.shape
    seg = _segments(step_of, n_steps, n, "segment_sum")
    flat = (seg[:, None] * k + np.arange(k)).reshape(-1)
    out = np.bincount(flat, weights=x.data.reshape(-1), minlength=n_steps * k)

    def backward(g):
        return (g[seg],)

    return _node(out.reshape(n_steps, k), (x,), backward)


# Below this a normalizer may hold subnormal terms whose rounding, up to
# 2^-1075 each, reaches its last bit.
_POOL_UNDERFLOW = np.finfo(np.float64).tiny / np.finfo(np.float64).eps


def _pool_exponents(S: Array, G: Array):
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


def gated_attention_pool(scores, gates, values) -> Tensor:
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
    e, den, redo, e_redo = _pool_exponents(S, G)
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


def gated_attention_weights(scores: Array, gates: Array) -> Array:
    """(H, L, D, T) weights of ``gated_attention_pool``: its output is the
    weighted sum of the values over t.  Builds the dense map; only attention
    export needs it."""
    e, den, redo, e_redo = _pool_exponents(scores, gates)
    u = e[:, :, None, :] * gates
    u[redo] = e_redo * gates[redo[1], redo[2]]
    return np.divide(u, den[..., None], out=np.zeros_like(u), where=den[..., None] > 0.0)


def cross_entropy_with_logits(logits, labels) -> Tensor:
    """Mean cross-entropy between rows of logits and integer labels.

    Accepts (n, C) logits with (n,) labels, or a single (C,) row with a
    scalar label.  Stabilized by per-row max subtraction.
    """
    x = _lift(logits)
    z = x.data.reshape(1, -1) if x.data.ndim == 1 else x.data
    if z.ndim != 2:
        raise DimensionError(f"cross_entropy: logits must be 1D or 2D, got {x.data.shape}")
    y = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    if y.shape != (z.shape[0],):
        raise DimensionError(
            f"cross_entropy: {z.shape[0]} logit rows but labels shape {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= z.shape[1]):
        raise DimensionError(
            f"cross_entropy: label out of range for {z.shape[1]} classes")
    m = z.max(axis=1, keepdims=True)
    zs = z - m
    lse = np.log(np.exp(zs).sum(axis=1))
    picked = zs[np.arange(z.shape[0]), y]
    out = np.asarray((lse - picked).mean())
    orig_shape = x.data.shape

    def backward(g):
        p = np.exp(zs - lse[:, None])
        p[np.arange(z.shape[0]), y] -= 1.0
        return ((float(g) * p / z.shape[0]).reshape(orig_shape),)

    return _node(out, (x,), backward)

