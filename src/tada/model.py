"""Model assembly: parameters, per-sample arrays, batching, forward pass,
file format.

The forward pass takes a mini-batch and builds one autodiff graph for it;
a single sample is a batch of one.  Every stage works on the one
(B, T_max) padded step layout ``collate`` builds: te writes one pooled row
per step, zero at padding, which the no_dla pool projects by te's value
matrix and reshapes to (B, T_max, ...); DLA scores those rows with the
step's time prepended through one folded weight and either gathers them by
observation or reshapes them, padding getting zero gates either way; the
mixer, fusion and head carry a leading batch axis.

Weight init (seeded, recorded in run manifests): weight matrices draw from
Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) with fan_in the input width;
attention query parameters draw from Normal(0, 0.02^2); biases start at 0;
window radii start at one anchor spacing, 1 / n_queries, because prepared
times lie in [0, 1].

Model files: magic ``TADA1``, little-endian uint32 header length, UTF-8
JSON header (format version, config, dataset dims, parameter names and
shapes in declaration order), then each parameter's float64 values,
little-endian, row-major, in that same order.  Loading rejects any other
format version, any config key the current model does not know, and any
parameter list but the model's own, with DataError.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .config import RunConfig, coerce_fields
from .data import IrregularSeries, observation_arrays, unit_times
from .dla import attention_maps, dla_forward, learns_radii
from .embedding import te_forward
from .errors import ConfigError, DataError
from .mixer import classify, fuse, pool_stack, run_mixer
from .tensor import Tensor, add, concat, cross_entropy_with_logits, matmul, reshape

MAGIC = b"TADA1"
FORMAT = 3


@dataclass
class Batch:
    """Prepared samples on one padded step layout: sample b's step k is row
    b * T_max + k of ``times`` and ``values``, and the rows past each
    sample's own steps are zeros.  ``step_of`` numbers every
    observation's step by that row, so te writes each step's vector straight
    into this layout, the no_dla pool takes it as (B, T_max, ...) by a
    reshape, and DLA gathers it by observation or reshapes it likewise.
    Each sample's observations are one consecutive run of the observation
    arrays, which alone record the observed (step, feature) slots.
    ``prepare`` builds a batch of one, whose arrays depend on the sample
    alone; ``collate`` stacks such batches.
    """
    times: np.ndarray          # (B * T_max,) step times normalized onto [0, 1]
    values_col: np.ndarray     # (N, 1) observation values, flattened step order
    feat_idx: np.ndarray       # (N,) feature index per observation
    step_of: np.ndarray        # (N,) row of each observation's step
    values: np.ndarray         # (B * T_max, D) zeros where unobserved
    lengths: np.ndarray        # (B,) steps per sample
    t_max: int                 # longest sample's step count
    labels: np.ndarray         # (B * R_max,) labels, zero-padded per sample
    label_counts: np.ndarray   # (B,) label rows per sample: 1, or T_b for steps
    sample_id: str | None = None


def _stacked(arrays: list[np.ndarray], rows: int) -> np.ndarray:
    """The arrays one after another, each zero-padded to ``rows`` rows."""
    out = np.zeros((len(arrays), rows) + arrays[0].shape[1:], dtype=arrays[0].dtype)
    for block, a in zip(out, arrays):
        block[:len(a)] = a
    return out.reshape((-1,) + out.shape[2:])


def collate(preps: list[Batch]) -> Batch:
    """Stack prepared samples (batches of one) into one ``Batch``, in list
    order; a single sample is already its own batch and comes back as is."""
    if not preps:
        raise DataError("batch: no samples")
    if len(preps) == 1:
        return preps[0]
    lengths = np.concatenate([p.lengths for p in preps])
    counts = np.concatenate([p.label_counts for p in preps])
    t_max = int(lengths.max())
    return Batch(
        times=_stacked([p.times for p in preps], t_max),
        values_col=np.concatenate([p.values_col for p in preps]),
        feat_idx=np.concatenate([p.feat_idx for p in preps]),
        step_of=np.concatenate([p.step_of + b * t_max for b, p in enumerate(preps)]),
        values=_stacked([p.values for p in preps], t_max),
        lengths=lengths,
        t_max=t_max,
        labels=_stacked([p.labels for p in preps], int(counts.max())),
        label_counts=counts,
    )


def label_rows(series: IrregularSeries, task: str, n_classes: int) -> tuple:
    """A sample's label rows: its one label under the sequence task, one per
    step under the step task.  DataError for a label kind the task does not
    take, a step-label count other than the sample's steps, or a label
    outside [0, n_classes)."""
    if task == "step":
        if not isinstance(series.label, tuple):
            raise DataError(f"sample {series.sample_id}: step task needs step labels")
        if len(series.label) != len(series.times):
            raise DataError(f"sample {series.sample_id}: {len(series.label)} step labels "
                            f"for {len(series.times)} steps")
        rows = series.label
    else:
        if isinstance(series.label, tuple):
            raise DataError(f"sample {series.sample_id}: sequence task got step labels")
        rows = (series.label,)
    if not all(0 <= y < n_classes for y in rows):
        raise DataError(f"sample {series.sample_id}: label outside [0, {n_classes})")
    return rows


def _layout_mismatch(layout, want: list) -> str | None:
    """None when a header's params list is the model's own ``want`` list of
    [name, shape] pairs, else the first place it departs from it."""
    if layout == want:
        return None
    if not isinstance(layout, list):
        return "params must be a list of [name, shape] pairs"
    for got, (name, shape) in zip(layout, want):
        if got != [name, shape]:
            shown = " ".join(map(str, got)) if isinstance(got, list) else repr(got)
            return f"unexpected parameter {shown}, expected {name} {shape}"
    return f"{len(layout)} parameters, expected {len(want)}"


class TadaModel:
    def __init__(self, cfg: RunConfig, n_features: int, n_classes: int, task: str,
                 rng: np.random.Generator | None = None):
        cfg.validate()
        if task not in ("sequence", "step"):
            raise ConfigError(f"model: task {task!r} unknown")
        if n_features < 1 or n_classes < 2:
            raise ConfigError(
                f"model: need n_features >= 1 and n_classes >= 2, "
                f"got {n_features}/{n_classes}")
        self.cfg = cfg
        self.n_features = n_features
        self.n_classes = n_classes
        self.task = task
        self.params: dict[str, Tensor] = {}
        try:
            self._build_params(rng or np.random.default_rng(cfg.seed))
        except (MemoryError, ValueError):   # numpy refuses arrays past its size limits
            dims = ", ".join(f"{k} {getattr(cfg, k)}" for k in ("te_feature_dim", "embed_dim",
                             "n_queries", "n_heads", "attn_dim", "patch_channels", "patch_size"))
            raise ConfigError(f"model: the weights for {n_features} features, {n_classes} "
                              f"classes, {dims} do not fit in memory") from None

    # parameter construction -------------------------------------------------

    def _add(self, name: str, data: np.ndarray) -> None:
        self.params[name] = Tensor(data, requires_grad=True, name=name)

    def _uniform(self, rng, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
        bound = 1.0 / math.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    def _query_init(self, rng, shape: tuple[int, ...]) -> np.ndarray:
        return rng.normal(0.0, 0.02, size=shape)

    def _build_params(self, rng) -> None:
        cfg = self.cfg
        d_e = cfg.embed_dim
        setting1 = cfg.keyvalue_variant == "setting1"
        if cfg.no_dla or not setting1:      # setting1 keys DLA on the raw values: no te
            enc = 1 + cfg.te_feature_dim if cfg.te_mode == "embedding" else 2
            if cfg.te_mode == "embedding":
                self._add("te.embed", self._uniform(
                    rng, (self.n_features, cfg.te_feature_dim), cfg.te_feature_dim))
            self._add("te.key.w", self._uniform(rng, (enc, d_e), enc))
            self._add("te.value.w", self._uniform(rng, (enc, d_e), enc))
            self._add("te.query", self._query_init(rng, (d_e,)))

        if cfg.no_dla:
            self._add("grid.proj.w", self._uniform(rng, (d_e, cfg.patch_channels), d_e))
            self._add("grid.proj.b", np.zeros(cfg.patch_channels))
        else:
            d_eff = d_e + 1 if cfg.keyvalue_variant == "setting2" else self.n_features
            key_dim = self.n_features if setting1 else d_e + 1
            self._add("dla.queries", self._query_init(rng, (cfg.n_queries, d_e + 1)))
            # softplus(range_raw) = 1 / n_queries
            self._add("dla.range_raw", np.full(d_eff, math.log(math.expm1(1.0 / cfg.n_queries))))
            # one column block per head, drawn head by head
            blocks = [(self._uniform(rng, (d_e + 1, cfg.attn_dim), d_e + 1),
                       self._uniform(rng, (key_dim, cfg.attn_dim), key_dim))
                      for _ in range(cfg.n_heads)]
            self._add("dla.q.w", np.concatenate([q for q, _ in blocks], axis=1))
            self._add("dla.k.w", np.concatenate([k for _, k in blocks], axis=1))
            self._add("dla.out.w", self._uniform(rng, (cfg.n_heads * d_eff, cfg.patch_channels),
                                                 cfg.n_heads * d_eff))
            self._add("dla.out.b", np.zeros(cfg.patch_channels))

        if not cfg.no_mixer:
            patches = cfg.n_queries // cfg.patch_size
            C = cfg.patch_channels
            for layer in range(cfg.n_layers):
                self._add(f"mixer.l{layer}.mix_in.w", self._uniform(rng, (C, C), C))
                self._add(f"mixer.l{layer}.across.w",
                          self._uniform(rng, (patches, patches), patches))
                self._add(f"mixer.l{layer}.mix_out.w", self._uniform(rng, (C, C), C))
                if layer + 1 < cfg.n_layers:    # the last layer merges nothing
                    self._add(f"mixer.l{layer}.pool.w", self._uniform(
                        rng, (cfg.patch_size, cfg.patch_size // cfg.merge_factor), cfg.patch_size))
                patches //= cfg.merge_factor

        n_scales = 1 if cfg.no_mixer else cfg.n_layers
        fuse_in = cfg.patch_channels * (n_scales if cfg.fusion_mode == "concat" else 1)
        self._add("fusion.w1", self._uniform(rng, (fuse_in, cfg.patch_channels), fuse_in))
        self._add("fusion.b1", np.zeros(cfg.patch_channels))
        self._add("fusion.w2", self._uniform(rng, (cfg.patch_channels, cfg.patch_channels),
                                             cfg.patch_channels))
        self._add("fusion.b2", np.zeros(cfg.patch_channels))
        self._add("head.w", self._uniform(rng, (cfg.patch_channels, self.n_classes),
                                          cfg.patch_channels))
        self._add("head.b", np.zeros(self.n_classes))

    def trainable(self) -> dict[str, Tensor]:
        """Parameters the forward differentiates: all but radii that do not learn."""
        learns = learns_radii(self.cfg)
        return {k: v for k, v in self.params.items() if learns or k != "dla.range_raw"}

    def radii(self) -> np.ndarray | None:
        raw = self.params.get("dla.range_raw")
        return None if raw is None else np.logaddexp(0.0, raw.data)

    # per-sample preparation ---------------------------------------------------

    def prepare(self, series: IrregularSeries) -> Batch:
        """Normalize times onto [0, 1] and build the sample's own arrays: a
        ``Batch`` of one, reused across epochs."""
        times = unit_times(series)
        step_of, feat_idx, vals, values = observation_arrays(series, self.n_features)
        T = len(times)
        raw_labels = label_rows(series, self.task, self.n_classes)
        return Batch(
            times=times,
            values_col=vals[:, None],
            feat_idx=feat_idx,
            step_of=step_of,
            values=values,
            lengths=np.array([T]),
            t_max=T,
            labels=np.array(raw_labels, dtype=np.int64),
            label_counts=np.array([len(raw_labels)]),
            sample_id=series.sample_id,
        )

    # forward ------------------------------------------------------------------

    def _dla_keys(self, params: dict, X: Batch) -> Tensor | None:
        """DLA's key input: te's pooled step rows with each step's time
        prepended, (B * T_max, 1 + enc); setting1 keys on the raw values and
        runs no te."""
        if self.cfg.keyvalue_variant == "setting1":
            return None
        return concat([Tensor(X.times[:, None]), te_forward(params, X, self.cfg)], axis=1)

    def forward(self, X: Batch, params: dict | None = None) -> Tensor:
        """One graph for the whole batch: (B, R_max, n_classes) logits, where
        sample b's rows past ``X.label_counts[b]`` are padding.

        ``params`` replaces the model's own parameters, as detached copies
        do for inference.
        """
        cfg = self.cfg
        params = self.params if params is None else params
        if cfg.no_dla:
            # Mixer directly over the per-step feature embeddings, pooled to a
            # fixed token count.
            embeds = reshape(matmul(te_forward(params, X, cfg), params["te.value.w"]),
                             (len(X.lengths), X.t_max, cfg.embed_dim))
            pool = Tensor(pool_stack([(int(n), cfg.n_queries) for n in X.lengths]))
            grid = add(matmul(matmul(pool, embeds), params["grid.proj.w"]),
                       params["grid.proj.b"])
        else:
            grid = dla_forward(params, X, cfg, self._dla_keys(params, X))
        outs = [grid] if cfg.no_mixer else run_mixer(grid, params, cfg)
        return classify(fuse(outs, params, cfg), params, X.label_counts)

    def attention_maps(self, X: Batch) -> list[np.ndarray]:
        """Each sample's (n_heads, L, T_b, D_eff) DLA attention weights, from
        the model's parameters as constants."""
        params = self.detached()
        return attention_maps(params, X, self.cfg, self._dla_keys(params, X))

    def batch_loss(self, preps: list[Batch]) -> Tensor:
        """Mean over the samples of each sample's mean cross-entropy."""
        X = collate(preps)
        logits = self.forward(X)
        return cross_entropy_with_logits(logits, X.labels, X.label_counts)

    def sample_loss(self, prep: Batch) -> Tensor:
        return self.batch_loss([prep])

    def detached(self) -> dict[str, Tensor]:
        """The parameters as constants: a forward on them builds no graph, so
        each intermediate array is freed as soon as the next op has used it."""
        return {k: p.detach() for k, p in self.params.items()}

    def batch_logits(self, preps: list[Batch]) -> np.ndarray:
        """Every sample's logit rows, stacked in list order, from a forward
        that builds no graph."""
        X = collate(preps)
        out = self.forward(X, params=self.detached())
        return out.data[np.arange(out.shape[1]) < X.label_counts[:, None]]

    def logits(self, prep: Batch) -> np.ndarray:
        return self.batch_logits([prep])

    # serialization --------------------------------------------------------------

    def save(self, path: str) -> None:
        header = {
            "format": FORMAT,
            "config": self.cfg.to_dict(),
            "n_features": self.n_features,
            "n_classes": self.n_classes,
            "task": self.task,
            "params": [[name, list(t.data.shape)] for name, t in self.params.items()],
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            for t in self.params.values():
                fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path: str) -> "TadaModel":
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as e:
            raise DataError(f"cannot read model file {path}: {e}") from None
        if len(raw) < len(MAGIC) + 4 or raw[:len(MAGIC)] != MAGIC:
            raise DataError(f"{path}: not a model file (bad magic)")
        off = len(MAGIC)
        (hlen,) = struct.unpack_from("<I", raw, off)
        off += 4
        try:
            header = json.loads(raw[off:off + hlen].decode("utf-8"))
        except (ValueError, RecursionError):    # not UTF-8, not JSON, deep nesting
            raise DataError(f"{path}: corrupt model header") from None
        off += hlen
        try:
            if header["format"] != FORMAT:
                raise DataError(f"{path}: invalid model header: format "
                                f"{header['format']!r}, expected {FORMAT}")
            cfg = RunConfig(**coerce_fields(header["config"], "model config"))
            model = cls(cfg, header["n_features"], header["n_classes"], header["task"])
            mismatch = _layout_mismatch(header["params"], [
                [name, list(t.data.shape)] for name, t in model.params.items()])
        except (ConfigError, KeyError, TypeError) as e:
            raise DataError(f"{path}: invalid model header: {e!r}") from None
        if mismatch is not None:
            raise DataError(f"{path}: invalid model header: {mismatch}")
        for t in model.params.values():
            size = t.data.size * 8
            if off + size > len(raw):
                raise DataError(f"{path}: truncated parameter data")
            t.data = np.frombuffer(raw[off:off + size], dtype="<f8").reshape(t.data.shape).copy()
            off += size
        if off != len(raw):
            raise DataError(f"{path}: trailing bytes after parameters")
        return model
