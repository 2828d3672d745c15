"""Event-stream data model for irregularly sampled multivariate series.

On-disk sample format is JSON Lines, one object per sample:
``{"id": str, "label": int | [int, ...], "events": [[time, feature, value], ...]}``
A dataset directory holds ``train.jsonl`` / ``val.jsonl`` / ``test.jsonl``
plus ``manifest.json`` with ``{"D": int, "task": "sequence"|"step",
"n_classes": int}``.

A loaded sample is arrays (``IrregularSeries``): its step times, and each
observation's step, feature and value, in step order and in feature order
within a step.  ``series_from_events`` is the one place events become a
series: it checks every event and groups them into steps with numpy, with
no Python work per event unless an event is bad, where a walk over the
events finds the first one to name.  ``TimeStep`` and ``Observation``
objects exist only as the read-only ``IrregularSeries.steps`` view.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
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


@dataclass(frozen=True, eq=False)
class IrregularSeries:
    """One sample as arrays.  ``times`` (T,) holds the step times, increasing;
    ``step_of``, ``feat`` and ``values`` (N,) hold each observation's step,
    feature index and value, in step order and in feature order within a
    step.  Build one from events with ``series_from_events``."""
    sample_id: str
    times: np.ndarray       # (T,) float64
    step_of: np.ndarray     # (N,) int64
    feat: np.ndarray        # (N,) int64
    values: np.ndarray      # (N,) float64
    # int for a sequence-level label, tuple[int, ...] (one per step) for a
    # step-level task
    label: int | tuple[int, ...]

    def __len__(self) -> int:
        return len(self.times)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IrregularSeries):
            return NotImplemented
        return (self.sample_id == other.sample_id and self.label == other.label
                and all(np.array_equal(getattr(self, k), getattr(other, k))
                        for k in ("times", "step_of", "feat", "values")))

    @property
    def steps(self) -> tuple[TimeStep, ...]:
        """The series as ``TimeStep`` objects, built anew on each call: a view
        for reading, which nothing on the load or prepare path calls."""
        bounds = np.searchsorted(self.step_of, np.arange(len(self.times) + 1)).tolist()
        feats, vals = self.feat.tolist(), self.values.tolist()
        return tuple(TimeStep(t, tuple(map(Observation, feats[a:b], vals[a:b])))
                     for t, a, b in zip(self.times.tolist(), bounds, bounds[1:]))


def _is_finite_number(x) -> bool:
    """A JSON number that is a finite float64; bools and huge ints are not."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _event_problem(k: int, ev, n_features: int) -> str | None:
    """What is wrong with event ``k``, or None."""
    if (not isinstance(ev, (list, tuple))) or len(ev) != 3:
        return f"event {k} must be [time, feature, value]"
    t, f, v = ev
    if not _is_finite_number(t):
        return f"event {k} has non-finite time"
    if isinstance(f, bool) or not isinstance(f, int) or not (0 <= f < n_features):
        return f"event {k} feature index {f!r} outside [0, {n_features})"
    if not _is_finite_number(v):
        return f"event {k} has non-finite value"
    return None


_NUMBER = {int, float}


def _event_columns(events: list, n_features: int):
    """The (time, feature, value) columns of ``events`` as float64, int64
    and float64 arrays, or None where an event is not exactly a 3-list or
    3-tuple of an int or float time, an int feature in [0, n_features) and
    an int or float value, all finite.  Types are checked before any
    conversion, which would turn bools and numeric strings into numbers."""
    if not set(map(type, events)) <= {list, tuple} or set(map(len, events)) != {3}:
        return None
    ts, fs, vs = zip(*events)
    if not (set(map(type, ts)) <= _NUMBER and set(map(type, fs)) == {int}
            and set(map(type, vs)) <= _NUMBER):
        return None
    try:
        t = np.array(ts, dtype=np.float64)
        f = np.array(fs, dtype=np.int64)
        v = np.array(vs, dtype=np.float64)
    except OverflowError:       # an int beyond float64 or int64
        return None
    if not (np.isfinite(t).all() and np.isfinite(v).all()
            and f.min() >= 0 and f.max() < n_features):
        return None
    return t, f, v


def series_from_events(sample_id: str, events, label, n_features: int,
                       where: str | None = None) -> IrregularSeries:
    """The series of a non-empty list of [time, feature, value] events.

    Events at equal times (int 5 and float 5.0 included) form one step,
    which keeps the time of its first event; steps are sorted by time and
    observations by feature within a step; a repeated (time, feature) pair
    resolves last-wins.  ``label`` is an int, or a list or tuple of ints with
    one per step once grouped.  A bad event or label raises DataError
    prefixed with ``where`` (default ``sample <id>``), naming the first bad
    event by its index.
    """
    where = where or f"sample {sample_id}"
    if not isinstance(events, list) or not events:
        raise DataError(f"{where}: events must be a non-empty list")
    columns = _event_columns(events, n_features)
    if columns is None:     # the error path: name the first bad event
        for k, ev in enumerate(events):
            problem = _event_problem(k, ev, n_features)
            if problem:
                raise DataError(f"{where}: {problem}")
        # every event is valid, some through a subclass of int, float or list
        columns = _event_columns([(float(t), int(f), float(v)) for t, f, v in events],
                                 n_features)
    t, f, v = columns
    # by time, then feature; the sort is stable, so the last event of a
    # (time, feature) pair ends its run
    order = np.lexsort((f, t))
    t_s, f_s = t[order], f[order]
    new_step = np.ones(len(t), dtype=bool)
    new_step[1:] = t_s[1:] != t_s[:-1]
    last = np.ones(len(t), dtype=bool)
    last[:-1] = new_step[1:] | (f_s[1:] != f_s[:-1])
    starts = np.flatnonzero(new_step)
    # the time of each step's first event, which keeps the sign of a zero
    times = t[np.minimum.reduceat(order, starts)]
    step_of = np.cumsum(new_step)[last] - 1
    kept = order[last]

    if isinstance(label, bool):
        raise DataError(f"{where}: label must be an integer or list of integers")
    if isinstance(label, int):
        parsed_label: int | tuple[int, ...] = label
    elif isinstance(label, (list, tuple)) and label and all(
            isinstance(x, int) and not isinstance(x, bool) for x in label):
        if len(label) != len(times):
            raise DataError(
                f"{where}: {len(label)} step labels for {len(times)} grouped steps")
        parsed_label = tuple(label)
    else:
        raise DataError(f"{where}: label must be an integer or list of integers")
    return IrregularSeries(sample_id, times, step_of, f[kept], v[kept], parsed_label)


def parse_events(line: str, n_features: int, line_no: int = 0) -> IrregularSeries:
    """Parse one JSON line into an IrregularSeries by ``series_from_events``."""
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
    return series_from_events(sid, obj["events"], obj["label"], n_features, where)


def serialize_events(series: IrregularSeries) -> str:
    """Inverse of parse_events for well-formed series (no duplicates)."""
    events = list(zip(series.times[series.step_of].tolist(), series.feat.tolist(),
                      series.values.tolist()))
    label = list(series.label) if isinstance(series.label, tuple) else series.label
    return json.dumps({"id": series.sample_id, "label": label, "events": events},
                      sort_keys=True)


def text_lines(path: str):
    """The lines of a UTF-8 text file; a file that cannot be opened or
    decoded raises DataError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield from fh
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    except OSError as e:
        raise DataError(f"cannot read {path}: {e.strerror or e}") from None


def load_dataset(path: str, n_features: int) -> list[IrregularSeries]:
    """Read a JSONL file; result is sorted by sample_id for determinism."""
    samples = [parse_events(line, n_features, line_no=i)
               for i, line in enumerate(text_lines(path), start=1) if line.strip()]
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
    except (OSError, ValueError, RecursionError) as e:  # also not UTF-8, nested too deep
        raise DataError(f"cannot read dataset manifest {path}: {e}") from None
    if not isinstance(man, dict):
        raise DataError(f"dataset manifest {path} must be a JSON object")
    for key in ("D", "task", "n_classes"):
        if key not in man:
            raise DataError(f"dataset manifest missing key '{key}'")
    if man["task"] not in ("sequence", "step"):
        raise DataError(f"dataset manifest task must be sequence or step, got {man['task']!r}")
    for key, low in (("D", 1), ("n_classes", 2)):
        if type(man[key]) is not int or man[key] < low:
            raise DataError(f"dataset manifest {key} must be an integer >= {low}, "
                            f"got {man[key]!r}")
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
    return dataclasses.replace(series, times=unit_times(series))


def observation_arrays(series: IrregularSeries, n_features: int):
    """The series' (step_of, feat_idx, values) (N,) arrays, plus the dense
    (T, D) value matrix with zeros at unobserved slots.

    Observations whose steps are not numbered in order within [0, T), a
    feature index that is not an integer, lies outside [0, n_features) or
    repeats within a step raise DataError.
    """
    step_of, feat_idx = series.step_of, series.feat
    vals = series.values.astype(np.float64, copy=False)
    T, N = len(series.times), len(step_of)
    if not (len(feat_idx) == len(vals) == N and step_of.dtype.kind in "iu"
            and (N == 0 or (step_of[0] >= 0 and step_of[-1] < T
                            and (step_of[1:] >= step_of[:-1]).all()))):
        raise DataError(f"sample {series.sample_id}: observations must number their "
                        f"steps in order within [0, {T})")
    if N and feat_idx.dtype.kind not in "iu":
        raise DataError(f"sample {series.sample_id}: feature indices must be integers "
                        f"in [0, {n_features})")
    feat_idx = feat_idx.astype(np.int64, copy=False)
    outside = (feat_idx < 0) | (feat_idx >= n_features)
    if outside.any():
        raise DataError(f"sample {series.sample_id}: feature index "
                        f"{feat_idx[outside.argmax()]} outside [0, {n_features})")
    values = np.zeros((T, n_features))
    values[step_of, feat_idx] = vals
    if N:
        repeats = np.bincount(step_of * n_features + feat_idx) > 1
        if repeats.any():
            raise DataError(f"sample {series.sample_id}: step "
                            f"{repeats.argmax() // n_features} repeats a feature")
    return step_of, feat_idx, vals, values


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
    if seed < 0:
        raise ConfigError(f"split seed must be >= 0, got {seed}")
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
                (self.seed >= 0, f"need seed >= 0, got {self.seed}"),
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
        sid = f"synth-{i:05d}"
        samples.append(series_from_events(sid, events, label, cfg.n_features))
        meta["per_sample"][sid] = {"label": label, "freq": f}
    return samples, meta
