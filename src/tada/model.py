"""Model assembly: parameters, per-sample arrays, batching, forward pass,
file format.

The forward pass takes a mini-batch and builds one autodiff graph for it;
a single sample is a batch of one.  te runs on the batch's observations
concatenated, DLA and the pools on a (B, T_max) padded layout whose padded
steps get zero gates, and the mixer, fusion and head carry a leading batch
axis.

Weight init (seeded, recorded in run manifests): weight matrices draw from
Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) with fan_in the input width;
attention query parameters draw from Normal(0, 0.02^2); biases start at 0;
window radii start at one anchor spacing, 1 / n_queries, because prepared
times lie in [0, 1].

Model files: magic ``TADA1``, little-endian uint32 header length, UTF-8
JSON header (format version, config, dataset dims, parameter names and
shapes in declaration order), then each parameter's float64 values,
little-endian, row-major, in that same order.  Loading rejects any other
format version, and any config key or parameter the current model does not
declare, with DataError.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .config import RunConfig, coerce_fields
from .data import IrregularSeries, observation_arrays, unit_times
from .dla import RegularizedGrid, dla_forward
from .embedding import te_forward
from .errors import ConfigError, DataError
from .mixer import classify, fuse, pool_stack, run_mixer
from .tensor import Tensor, cross_entropy_with_logits, matmul, reshape, segment_sum

MAGIC = b"TADA1"
FORMAT = 1


@dataclass
class SamplePrep:
    """One sample's own arrays, built once and reused across epochs.

    Everything here depends on the sample alone; what the model owns or
    derives (anchors, window distances, step gates) is computed in the
    forward pass.
    """
    sample_id: str
    times: np.ndarray          # (T,) step times normalized onto [0, 1]
    values_col: np.ndarray     # (N, 1) observation values, flattened step order
    feat_idx: np.ndarray       # (N,) feature index per observation
    step_of: np.ndarray        # (N,) step index per observation
    values: np.ndarray         # (T, D) zeros where unobserved
    mask: np.ndarray           # (T, D) bool observation mask
    labels: np.ndarray         # (1,) sequence label or (T,) step labels


@dataclass
class Batch:
    """A mini-batch of prepared samples in the two layouts the forward uses.

    Ragged: the samples' steps and observations are concatenated, so
    ``times``, ``values`` and ``mask`` hold S = sum T_b rows and
    ``step_of`` numbers every observation's step across the whole batch.
    te runs on this layout as if the batch were one long sample.  Padded:
    DLA, the no_dla pool and the step-task head work on (B, T_max) arrays,
    and ``slot`` maps ragged row k of sample b to b * T_max + k.
    """
    times: np.ndarray          # (S,)
    values_col: np.ndarray     # (N, 1)
    feat_idx: np.ndarray       # (N,)
    step_of: np.ndarray        # (N,) global step index
    values: np.ndarray         # (S, D)
    mask: np.ndarray           # (S, D) bool
    lengths: np.ndarray        # (B,) steps per sample
    t_max: int                 # longest sample's step count
    slot: np.ndarray           # (S,) padded position of each step
    labels: np.ndarray         # (B, R_max) labels, zero-padded
    label_counts: np.ndarray   # (B,) label rows per sample: 1, or T_b for steps

    def padded(self, rows: np.ndarray) -> np.ndarray:
        """(S, ...) ragged rows as (B, T_max, ...), zeros after each sample."""
        shape = (len(self.lengths), self.t_max) + rows.shape[1:]
        out = np.zeros((shape[0] * shape[1],) + shape[2:], dtype=rows.dtype)
        out[self.slot] = rows
        return out.reshape(shape)


def collate(preps: list[SamplePrep]) -> Batch:
    """Stack prepared samples into one ``Batch``, in list order."""
    if not preps:
        raise DataError("batch: no samples")
    lengths = np.array([len(p.times) for p in preps], dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    t_max = int(lengths.max())
    steps = np.arange(int(starts[-1] + lengths[-1]))
    counts = np.array([len(p.labels) for p in preps], dtype=np.int64)
    labels = np.zeros((len(preps), int(counts.max())), dtype=np.int64)
    for row, p in zip(labels, preps):
        row[:len(p.labels)] = p.labels
    return Batch(
        times=np.concatenate([p.times for p in preps]),
        values_col=np.concatenate([p.values_col for p in preps]),
        feat_idx=np.concatenate([p.feat_idx for p in preps]),
        step_of=np.concatenate([p.step_of + s for p, s in zip(preps, starts)]),
        values=np.concatenate([p.values for p in preps]),
        mask=np.concatenate([p.mask for p in preps]),
        lengths=lengths,
        t_max=t_max,
        slot=steps + np.repeat(np.arange(len(preps)) * t_max - starts, lengths),
        labels=labels,
        label_counts=counts,
    )


def _is_layout_entry(entry) -> bool:
    """A model-header params entry: [name, shape] with non-negative int dims."""
    return (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
            and isinstance(entry[1], list)
            and all(type(n) is int and n >= 0 for n in entry[1]))


def _inverse_softplus(y: float) -> float:
    return math.log(math.expm1(y))


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
        self._build_params(rng or np.random.default_rng(cfg.seed))

    # parameter construction -------------------------------------------------

    def _add(self, name: str, data: np.ndarray) -> None:
        self.params[name] = Tensor(data, requires_grad=True, name=name)

    def _uniform(self, rng, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
        bound = 1.0 / math.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    def _query_init(self, rng, shape: tuple[int, ...]) -> np.ndarray:
        return rng.normal(0.0, 0.02, size=shape)

    def _enc_dim(self) -> int:
        return 1 + self.cfg.te_feature_dim if self.cfg.te_mode == "embedding" else 2

    def _value_channels(self) -> int:
        return self.cfg.embed_dim + 1 if self.cfg.keyvalue_variant == "setting2" \
            else self.n_features

    def _key_dim(self) -> int:
        return self.n_features if self.cfg.keyvalue_variant == "setting1" \
            else self.cfg.embed_dim + 1

    def _build_params(self, rng) -> None:
        cfg = self.cfg
        enc = self._enc_dim()
        d_e = cfg.embed_dim
        if cfg.te_mode == "embedding":
            self._add("te.embed", self._uniform(rng, (self.n_features, cfg.te_feature_dim),
                                                cfg.te_feature_dim))
        self._add("te.key.w", self._uniform(rng, (enc, d_e), enc))
        self._add("te.value.w", self._uniform(rng, (enc, d_e), enc))
        self._add("te.query", self._query_init(rng, (d_e,)))

        if cfg.no_dla:
            self._add("grid.proj.w", self._uniform(rng, (d_e, cfg.patch_channels), d_e))
            self._add("grid.proj.b", np.zeros(cfg.patch_channels))
        else:
            d_eff = self._value_channels()
            key_dim = self._key_dim()
            self._add("dla.queries", self._query_init(rng, (cfg.n_queries, d_e + 1)))
            self._add("dla.range_raw",
                      np.full(d_eff, _inverse_softplus(1.0 / cfg.n_queries)))
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
                self._add(f"mixer.l{layer}.pool.w",
                          self._uniform(rng, (cfg.patch_size,
                                              cfg.patch_size // cfg.merge_factor),
                                        cfg.patch_size))
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
        """Parameters the optimizer may update (radii drop out when frozen)."""
        skip = {"dla.range_raw"} if self.cfg.no_learnable_range else set()
        return {k: v for k, v in self.params.items() if k not in skip}

    def radii(self) -> np.ndarray | None:
        raw = self.params.get("dla.range_raw")
        return None if raw is None else np.logaddexp(0.0, raw.data)

    # per-sample preparation ---------------------------------------------------

    def prepare(self, series: IrregularSeries) -> SamplePrep:
        """Normalize times onto [0, 1] and build the sample's own arrays."""
        times = unit_times(series)
        step_of, feat_idx, vals, values, mask = observation_arrays(series, self.n_features)
        T = len(times)
        if self.task == "step":
            if not isinstance(series.label, tuple):
                raise DataError(f"sample {series.sample_id}: step task needs step labels")
            raw_labels = series.label
            if len(raw_labels) != T:
                raise DataError(
                    f"sample {series.sample_id}: {len(raw_labels)} step labels for {T} steps")
        else:
            if isinstance(series.label, tuple):
                raise DataError(f"sample {series.sample_id}: sequence task got step labels")
            raw_labels = (series.label,)
        if not all(0 <= y < self.n_classes for y in raw_labels):
            raise DataError(
                f"sample {series.sample_id}: label outside [0, {self.n_classes})")
        labels = np.array(raw_labels, dtype=np.int64)
        return SamplePrep(
            sample_id=series.sample_id,
            times=times,
            values_col=vals[:, None],
            feat_idx=feat_idx,
            step_of=step_of,
            values=values,
            mask=mask,
            labels=labels,
        )

    # forward ------------------------------------------------------------------

    def forward(self, X: Batch, keep_attention: bool = False, params: dict | None = None
                ) -> tuple[Tensor, RegularizedGrid | None]:
        """One graph for the whole batch: (B, R_max, n_classes) logits, where
        sample b's rows past ``X.label_counts[b]`` are padding.

        ``params`` replaces the model's own parameters, as detached copies
        do for inference.
        """
        cfg = self.cfg
        params = self.params if params is None else params
        if cfg.no_dla:
            # Mixer directly over the per-step feature embeddings, pooled to a
            # fixed token count.  The time concat is part of the local-attention
            # key construction and goes away with that stage.
            embeds = te_forward(params, X, cfg, with_time=False)
            B, T = len(X.lengths), X.t_max
            padded = reshape(segment_sum(embeds, X.slot, B * T), (B, T, -1))
            pool = Tensor(pool_stack([(int(n), cfg.n_queries) for n in X.lengths]))
            grid_tensor = matmul(matmul(pool, padded), params["grid.proj.w"]) \
                + params["grid.proj.b"]
            grid = None
        else:
            x_hat = None
            if cfg.keyvalue_variant != "setting1":
                x_hat = te_forward(params, X, cfg)
            grid = dla_forward(params, X, cfg, x_hat, keep_attention)
            grid_tensor = grid.grid
        outs = [grid_tensor] if cfg.no_mixer else run_mixer(grid_tensor, params, cfg)
        fused = fuse(outs, params, cfg)
        logits = classify(fused, params, X.label_counts)
        return logits, grid

    def batch_loss(self, preps: list[SamplePrep]) -> Tensor:
        """Mean over the samples of each sample's mean cross-entropy."""
        X = collate(preps)
        logits, _ = self.forward(X)
        return cross_entropy_with_logits(logits, X.labels, X.label_counts)

    def sample_loss(self, prep: SamplePrep) -> Tensor:
        return self.batch_loss([prep])

    def detached(self) -> dict[str, Tensor]:
        """The parameters as constants: a forward on them builds no graph, so
        each intermediate array is freed as soon as the next op has used it."""
        return {k: p.detach() for k, p in self.params.items()}

    def _detached_forward(self, preps: list[SamplePrep]) -> tuple[Batch, Tensor]:
        X = collate(preps)
        out, _ = self.forward(X, params=self.detached())
        return X, out

    def batch_logits(self, preps: list[SamplePrep]) -> np.ndarray:
        """Every sample's logit rows, stacked in list order."""
        X, out = self._detached_forward(preps)
        return out.data[np.arange(out.shape[1]) < X.label_counts[:, None]]

    def batch_loss_value(self, preps: list[SamplePrep]) -> float:
        """``batch_loss``'s value, from a forward that builds no graph."""
        X, out = self._detached_forward(preps)
        return cross_entropy_with_logits(out, X.labels, X.label_counts).item()

    def logits(self, prep: SamplePrep) -> np.ndarray:
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
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise DataError(f"{path}: corrupt model header") from None
        off += hlen
        try:
            if header["format"] != FORMAT:
                raise DataError(f"{path}: invalid model header: format "
                                f"{header['format']!r}, expected {FORMAT}")
            cfg = RunConfig(**coerce_fields(header["config"], "model config"))
            model = cls(cfg, header["n_features"], header["n_classes"], header["task"])
            layout = header["params"]
        except (ConfigError, KeyError, TypeError) as e:
            raise DataError(f"{path}: invalid model header: {e!r}") from None
        if not isinstance(layout, list) or not all(map(_is_layout_entry, layout)):
            raise DataError(f"{path}: invalid model header: params must be a list of "
                            f"[name, shape] pairs")
        for name, shape in layout:
            if name not in model.params or list(model.params[name].data.shape) != shape:
                raise DataError(f"{path}: unexpected parameter {name} {shape}")
            size = int(np.prod(shape)) * 8
            if off + size > len(raw):
                raise DataError(f"{path}: truncated parameter data")
            model.params[name].data = np.frombuffer(
                raw[off:off + size], dtype="<f8").reshape(shape).copy()
            off += size
        if off != len(raw):
            raise DataError(f"{path}: trailing bytes after parameters")
        return model
