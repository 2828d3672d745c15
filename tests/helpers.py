"""Shared builders for model-level tests."""

import multiprocessing
import os
from types import SimpleNamespace

import numpy as np

import tada.dla
import tada.shards
from tada.config import RunConfig
from tada.data import IrregularSeries
from tada.dla import _window, observation_slots
from tada.model import TadaModel
from tada.tensor import _lift, _node


def tsum(x, axis=None, keepdims: bool = False):
    """Sum as a graph op; tests reduce model outputs to a scalar with it."""
    x = _lift(x)
    out = x.data.sum(axis=axis, keepdims=keepdims)
    shape = x.data.shape

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape).copy(),)

    return _node(out, (x,), backward)


def tmean(x, axis=None, keepdims: bool = False):
    """Mean as a graph op."""
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


def build_series(steps_spec, sid="s", label=0):
    """steps_spec: [(time, [(feature, value), ...]), ...], held as given:
    nothing is sorted, merged or checked, so a test can also build a series
    that ``series_from_events`` would never give."""
    obs = [(k, int(f), float(v)) for k, (_, pairs) in enumerate(steps_spec) for f, v in pairs]
    return IrregularSeries(sid, np.array([float(t) for t, _ in steps_spec]),
                           np.array([k for k, _, _ in obs], dtype=np.int64),
                           np.array([f for _, f, _ in obs], dtype=np.int64),
                           np.array([v for _, _, v in obs], dtype=np.float64), label)


def random_series(rng, n_steps, n_features, sid="s", label=0):
    """Strictly increasing times in (0, 1), 1..n_features observations per step."""
    times = (np.arange(n_steps) + rng.uniform(0.2, 0.8, size=n_steps)) / n_steps
    spec = []
    for t in times:
        feats = rng.choice(n_features, size=rng.integers(1, n_features + 1),
                           replace=False)
        spec.append((t, [(int(f), float(rng.normal())) for f in sorted(feats)]))
    return build_series(spec, sid=sid, label=label)


def observed_pairs(series, n_features):
    """(T, D) bool mask of the (step, feature) pairs a series observes, read
    from its own arrays."""
    mask = np.zeros((len(series), n_features), dtype=bool)
    mask[series.step_of, series.feat] = True
    return mask


def tiny_config(**overrides):
    base = dict(te_feature_dim=3, embed_dim=5,
                n_queries=4, n_heads=2, attn_dim=4,
                patch_channels=6, patch_size=2, merge_factor=2, n_layers=1,
                seed=0)
    base.update(overrides)
    return RunConfig(**base).validate()


def tiny_model(n_features=3, n_classes=2, task="sequence", **overrides):
    return TadaModel(tiny_config(**overrides), n_features, n_classes, task)


def redraw_params(model, seed=0, keep=("dla.range_raw",)):
    """Move weights to a generic O(1) point for finite-difference checks.

    Fresh models start with zero biases and near-zero queries, leaving some
    analytic gradients below the difference-quotient noise floor.
    """
    rng = np.random.default_rng(seed)
    for name, p in model.params.items():
        if name in keep:
            continue
        p.data = rng.uniform(-0.5, 0.5, size=p.data.shape)


def graph_nodes(root):
    """Every tensor of the graph behind ``root``, ``root`` included."""
    seen, stack, nodes = {id(root)}, [root], []
    while stack:
        node = stack.pop()
        nodes.append(node)
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return nodes


DLA_KERNELS = ("observation", "block")


def force_dla_kernel(monkeypatch, kernel):
    """Put every batch on one DLA pool, "observation" or "block", whatever
    its sizes."""
    monkeypatch.setattr(tada.dla, "pools_by_observation",
                        lambda *sizes: kernel == "observation")


def mask_observations(mask, values):
    """The ``ObservationSlots`` of a (B, T, D) bool mask and its values, in
    step order, on the (B * T) step layout."""
    B, T, D = mask.shape
    b, t, d = np.nonzero(mask)
    return observation_slots(SimpleNamespace(
        step_of=b * T + t, feat_idx=d, values_col=values[b, t, d][:, None],
        lengths=np.full(B, T), t_max=T))


def block_gates(radii, times, anchors, cfg, mask):
    """DLA's (B, L, D, T) gate block, as its forward broadcasts ``_window``:
    (D,) radii, (B, T) times, (L,) anchors and a (B, 1, D or 1, T) mask."""
    return _window(times[:, None, None], radii[:, None], anchors[:, None, None], mask, cfg)


def observation_gates(radii, times, obs, anchors, cfg):
    """DLA's (B, L, N_max) gates, one per observation of ``obs`` and zero at
    padding, as its forward broadcasts ``_window``: (D,) radii, (B * T_max,)
    step times and (L,) anchors."""
    return _window(times[obs.step][:, None], radii[obs.feat][:, None], anchors[:, None],
                   obs.live[:, None], cfg)


# a shard worker runs only where fork and an affinity call exist
WORKER_POSSIBLE = ("fork" in multiprocessing.get_all_start_methods()
                   and hasattr(os, "sched_getaffinity"))
HOST_CPU_HALVES = tada.shards._cpu_halves


def allow_worker(monkeypatch, allow=True):
    """Let a shard step fork its worker (``allow``) or keep every step in
    one process, on any host where ``WORKER_POSSIBLE``, one CPU included:
    the halves are the host's where it has two CPUs, else the whole CPU set
    twice, so pinning changes nothing.  A worker also needs one-thread BLAS."""
    halves = None
    if allow:
        cpus = os.sched_getaffinity(0)
        halves = HOST_CPU_HALVES() or (cpus, cpus)
    monkeypatch.setattr(tada.shards, "_cpu_halves", lambda: halves)
    for var in tada.shards.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
