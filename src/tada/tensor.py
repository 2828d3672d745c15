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


# softmax family ------------------------------------------------------------

def weighted_masked_softmax(scores, gates) -> Tensor:
    """Softmax over the last axis with multiplicative gates in [0, 1].

    out_j = gates_j * exp(scores_j) / sum_j' gates_j' * exp(scores_j').
    Rows whose gates are all zero yield all-zero rows.  Scores and gates
    share the last axis and broadcast over the others, so (H, L, 1, T)
    scores with (L, D, T) gates give (H, L, D, T) weights, and (1, N)
    scores with (T, N) 0/1 gates give a masked softmax per row.
    Differentiable in both scores and gates, which lets soft window gates
    learn their width; constant gates get no gradient.
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

