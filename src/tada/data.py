"""Event-stream data model for irregularly sampled multivariate series.

On-disk sample format is JSON Lines, one object per sample:
``{"id": str, "label": int | [int, ...], "events": [[time, feature, value], ...]}``
A dataset directory holds ``train.jsonl`` / ``val.jsonl`` / ``test.jsonl``
plus ``manifest.json`` with ``{"D": int, "task": "sequence"|"step",
"n_classes": int}``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError


@dataclass(frozen=True)
class Observation:
    feature: int
    value: float


@dataclass(frozen=True)
class TimeStep:
    time: float
    observations: tuple[Observation, ...]


@dataclass(frozen=True)
class IrregularSeries:
    sample_id: str
    steps: tuple[TimeStep, ...]
    # int for a sequence-level label, tuple[int, ...] (one per step) for a
    # step-level task
    label: int | tuple[int, ...]

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.steps], dtype=np.float64)

    def __len__(self) -> int:
        return len(self.steps)


@dataclass
class ParseStats:
    duplicates: int = 0
    lines: int = 0


def _is_finite_number(x) -> bool:
    """A JSON number that is a finite float64; bools and huge ints are not."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def parse_events(line: str, n_features: int, line_no: int = 0,
                 stats: ParseStats | None = None) -> IrregularSeries:
    """Parse one JSON line into an IrregularSeries.

    Duplicate (time, feature) pairs resolve last-wins and bump
    ``stats.duplicates``.  Events sharing an identical time value are
    grouped into one step.
    """
    where = f"line {line_no}" if line_no else "line"
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise DataError(f"{where}: invalid JSON ({e.msg})") from None
    except (ValueError, RecursionError) as e:   # an over-long integer, deep nesting
        raise DataError(f"{where}: invalid JSON ({e})") from None
    if not isinstance(obj, dict) or set(obj) != {"id", "label", "events"}:
        raise DataError(f"{where}: expected keys id/label/events")
    sid = obj["id"]
    if not isinstance(sid, str) or not sid:
        raise DataError(f"{where}: id must be a non-empty string")
    events = obj["events"]
    if not isinstance(events, list) or not events:
        raise DataError(f"{where}: events must be a non-empty list")

    merged: dict[tuple[float, int], float] = {}
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
        key = (float(t), f)
        if key in merged and stats is not None:
            stats.duplicates += 1
        merged[key] = float(v)

    by_time: dict[float, dict[int, float]] = {}
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
        parsed_label: int | tuple[int, ...] = label
    elif isinstance(label, list) and label and all(
            isinstance(x, int) and not isinstance(x, bool) for x in label):
        if len(label) != len(steps):
            raise DataError(
                f"{where}: {len(label)} step labels for {len(steps)} grouped steps")
        parsed_label = tuple(label)
    else:
        raise DataError(f"{where}: label must be an integer or list of integers")
    if stats is not None:
        stats.lines += 1
    return IrregularSeries(sample_id=sid, steps=steps, label=parsed_label)


def serialize_events(series: IrregularSeries) -> str:
    """Inverse of parse_events for well-formed series (no duplicates)."""
    events = [[s.time, o.feature, o.value] for s in series.steps for o in s.observations]
    label = list(series.label) if isinstance(series.label, tuple) else series.label
    return json.dumps({"id": series.sample_id, "label": label, "events": events},
                      sort_keys=True)


def load_dataset(path: str, n_features: int,
                 stats: ParseStats | None = None) -> list[IrregularSeries]:
    """Read a JSONL file; result is sorted by sample_id for determinism."""
    samples = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for i, line in enumerate(fh, start=1):
                if line.strip():
                    samples.append(parse_events(line, n_features, line_no=i, stats=stats))
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    samples.sort(key=lambda s: s.sample_id)
    return samples


def write_dataset(path: str, samples: Sequence[IrregularSeries]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            fh.write(serialize_events(s) + "\n")


def read_data_manifest(data_dir: str) -> dict:
    path = os.path.join(data_dir, "manifest.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            man = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise DataError(f"cannot read dataset manifest {path}: {e}") from None
    for key in ("D", "task", "n_classes"):
        if key not in man:
            raise DataError(f"dataset manifest missing key '{key}'")
    if man["task"] not in ("sequence", "step"):
        raise DataError(f"dataset manifest task must be sequence or step, got {man['task']!r}")
    return man


def write_data_manifest(data_dir: str, n_features: int, task: str, n_classes: int) -> None:
    with open(os.path.join(data_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"D": n_features, "task": task, "n_classes": n_classes},
                  fh, sort_keys=True)
        fh.write("\n")


def unit_times(series: IrregularSeries) -> np.ndarray:
    """The step times of one sample, affinely mapped onto [0, 1].

    A single-step series maps to time 0.  Ordering is preserved, and the
    first and last steps land exactly on 0 and 1.  Step times that repeat,
    fall or are NaN, and a span too wide for a float, raise DataError.
    """
    times = series.times
    if len(times) == 0:
        raise DataError(f"sample {series.sample_id}: no steps")
    if len(times) == 1:
        return np.zeros(1)
    if not np.all(times[1:] > times[:-1]):
        raise DataError(f"sample {series.sample_id}: step times must increase strictly")
    span = float(times[-1]) - float(times[0])     # a Python float: overflow is inf, unwarned
    if not math.isfinite(span):
        raise DataError(f"sample {series.sample_id}: time span {span} is not finite")
    return (times - times[0]) / span


def normalize_times(series: IrregularSeries) -> IrregularSeries:
    """The series with its step times mapped onto [0, 1] by ``unit_times``."""
    steps = tuple(TimeStep(time=float(t), observations=s.observations)
                  for t, s in zip(unit_times(series), series.steps))
    return IrregularSeries(series.sample_id, steps, series.label)


def observation_arrays(series: IrregularSeries, n_features: int):
    """Every observation in step order as (step_of, feat_idx, values) (N,)
    arrays, plus the dense (T, D) value matrix with zeros at unobserved
    slots and its bool mask.

    A feature index that is not an integer, lies outside [0, n_features)
    or repeats within a step raises DataError.
    """
    obs = [o for step in series.steps for o in step.observations]
    step_of = np.repeat(np.arange(len(series.steps), dtype=np.int64),
                        [len(step.observations) for step in series.steps])
    feat_idx = np.array([o.feature for o in obs])
    if obs and feat_idx.dtype.kind not in "iu":
        raise DataError(f"sample {series.sample_id}: feature indices must be integers "
                        f"in [0, {n_features})")
    feat_idx = feat_idx.astype(np.int64, copy=False)
    vals = np.fromiter((o.value for o in obs), dtype=np.float64, count=len(obs))
    outside = (feat_idx < 0) | (feat_idx >= n_features)
    if outside.any():
        raise DataError(f"sample {series.sample_id}: feature index "
                        f"{obs[int(outside.argmax())].feature} outside [0, {n_features})")
    T = len(series.steps)
    values = np.zeros((T, n_features))
    mask = np.zeros((T, n_features), dtype=bool)
    values[step_of, feat_idx] = vals
    mask[step_of, feat_idx] = True
    if np.count_nonzero(mask) < len(obs):
        k = next(k for k, step in enumerate(series.steps)
                 if len({o.feature for o in step.observations}) < len(step.observations))
        raise DataError(f"sample {series.sample_id}: step {k} repeats a feature")
    return step_of, feat_idx, vals, values, mask


def build_value_mask(series: IrregularSeries, n_features: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense (T, D) value matrix with zeros at unobserved slots, plus bool
    mask, from ``observation_arrays``."""
    return observation_arrays(series, n_features)[3:]


# splitting -------------------------------------------------------------------

def _largest_remainder(n: int, ratios: Sequence[float]) -> list[int]:
    exact = [n * r for r in ratios]
    sizes = [int(math.floor(x)) for x in exact]
    rem = n - sum(sizes)
    order = sorted(range(len(ratios)), key=lambda i: (-(exact[i] - sizes[i]), i))
    for i in order[:rem]:
        sizes[i] += 1
    return sizes


def split_dataset(samples: Sequence[IrregularSeries], ratios: Sequence[float],
                  seed: int, stratify: bool = True) -> tuple[list, list, list]:
    """Deterministic train/val/test split.

    Stratified mode keeps per-class proportions (largest-remainder per
    class), which holds the positive fraction of each split within rounding
    of the pool's.  Requires sequence-level integer labels.
    """
    if len(ratios) != 3:
        raise ConfigError(f"split requires 3 ratios, got {len(ratios)}")
    if any(r < 0 for r in ratios):
        raise ConfigError(f"split ratios must be non-negative: {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must sum to 1, got {sum(ratios)!r}")
    rng = np.random.default_rng(seed)
    splits: tuple[list, list, list] = ([], [], [])

    if stratify:
        if any(not isinstance(s.label, int) for s in samples):
            raise DataError("stratified split requires sequence-level integer labels")
        by_class: dict[int, list[int]] = {}
        for i, s in enumerate(samples):
            by_class.setdefault(s.label, []).append(i)
        n_parts = sum(1 for r in ratios if r > 0)
        groups = [idx for _, idx in sorted(by_class.items())]
        for label, idx in sorted(by_class.items()):
            if len(idx) < n_parts:
                raise DataError(
                    f"class {label} has {len(idx)} samples, fewer than {n_parts} splits")
    else:
        groups = [list(range(len(samples)))]
    for idx in groups:
        order = rng.permutation(len(idx))
        pos = 0
        for part, size in enumerate(_largest_remainder(len(idx), ratios)):
            splits[part].extend(samples[idx[j]] for j in order[pos:pos + size])
            pos += size

    out = []
    for part in splits:
        shuffled = [part[j] for j in rng.permutation(len(part))]
        out.append(shuffled)
    return out[0], out[1], out[2]


# synthetic frequency task ----------------------------------------------------

# A sample draws about sum(rates) events, already seconds of generation per
# sample at this rate.
MAX_SYNTH_RATE = 1e6
MAX_SYNTH_REDRAWS = 10_000


@dataclass
class SynthConfig:
    """Sinusoid frequency discrimination with per-feature Poisson sampling.

    Class c emits sin(2*pi*freq_c*t); feature d observes it at Poisson
    arrival times with its own rate, shifted by a per-feature offset and
    corrupted by Gaussian noise.  Recovering the class therefore needs the
    per-feature value streams, not just pooled summary statistics.
    """
    n_samples: int = 700
    n_features: int = 4
    rates: tuple[float, ...] = (2.0, 4.0, 8.0, 16.0)
    n_classes: int = 2
    noise: float = 0.1
    seed: int = 0
    freqs: tuple[float, ...] | None = None  # default: 3 + 2c per class c
    offset_scale: float = 2.0

    def validate(self) -> "SynthConfig":
        """Refuse settings the generator cannot finish on, with ConfigError."""
        for ok, problem in (
                (self.n_samples >= 1, f"need n_samples >= 1, got {self.n_samples}"),
                (self.n_features >= 1, f"need n_features >= 1, got {self.n_features}"),
                (len(self.rates) == self.n_features,
                 f"{len(self.rates)} rates for {self.n_features} features"),
                (all(0.0 < r <= MAX_SYNTH_RATE for r in self.rates),
                 f"rates must lie in (0, {MAX_SYNTH_RATE:g}], got {self.rates}"),
                (self.n_classes >= 2, "need at least 2 classes"),
                (math.isfinite(self.noise) and self.noise >= 0.0,
                 f"noise must be finite and >= 0, got {self.noise}"),
                (all(map(math.isfinite, self.resolved_freqs())), f"freqs {self.freqs} not finite"),
                (math.isfinite(self.offset_scale), f"offset_scale {self.offset_scale} not finite")):
            if not ok:
                raise ConfigError(f"synth: {problem}")
        return self

    def resolved_freqs(self) -> tuple[float, ...]:
        if self.freqs is not None:
            if len(self.freqs) != self.n_classes:
                raise ConfigError(
                    f"synth: {len(self.freqs)} freqs for {self.n_classes} classes")
            return tuple(float(f) for f in self.freqs)
        # Fast enough that pooled step order carries no usable phase, slow
        # enough that per-feature local windows still resolve the sinusoid.
        return tuple(3.0 + 2.0 * c for c in range(self.n_classes))


def synth_generate(cfg: SynthConfig) -> tuple[list[IrregularSeries], dict]:
    """Generate the synthetic task; bit-identical for a fixed seed.

    A sample whose features all draw no event in [0, 1) is redrawn, at most
    ``MAX_SYNTH_REDRAWS`` times.
    """
    freqs = cfg.validate().resolved_freqs()
    rng = np.random.default_rng(cfg.seed)
    samples: list[IrregularSeries] = []
    meta: dict = {"freqs": list(freqs), "config": dataclasses.asdict(cfg),
                  "per_sample": {}}
    for i in range(cfg.n_samples):
        label = i % cfg.n_classes
        f = freqs[label]
        events: list[tuple[float, int, float]] = []
        for _ in range(MAX_SYNTH_REDRAWS):
            for d in range(cfg.n_features):
                t = rng.exponential(1.0 / cfg.rates[d])
                while t < 1.0:
                    v = math.sin(2.0 * math.pi * f * t) + cfg.offset_scale * d
                    if cfg.noise > 0:
                        v += rng.normal(0.0, cfg.noise)
                    events.append((t, d, v))
                    t += rng.exponential(1.0 / cfg.rates[d])
            if events:
                break
        else:
            raise ConfigError(f"synth: no events in [0, 1) after {MAX_SYNTH_REDRAWS} draws; "
                              f"rates {cfg.rates} are too low")
        events.sort(key=lambda e: e[0])
        by_time: dict[float, list[Observation]] = {}
        for t, d, v in events:
            by_time.setdefault(t, []).append(Observation(feature=d, value=v))
        steps = tuple(TimeStep(time=t, observations=tuple(by_time[t]))
                      for t in sorted(by_time))
        sid = f"synth-{i:05d}"
        samples.append(IrregularSeries(sample_id=sid, steps=steps, label=label))
        meta["per_sample"][sid] = {"label": label, "freq": f}
    return samples, meta
