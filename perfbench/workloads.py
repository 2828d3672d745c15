"""The three benchmark workloads and their correctness checks.

Each workload is a closed loop with one caller.  The benchmark generates
its inputs from the seed (excluded from every timing), hands the program
only JSONL files and a model file, and then measures through tada's public
functions:

- ``train_short``: ``tada.training.train`` on synth at the default rates
  (T~30), where per-graph-node Python overhead dominates;
- ``train_long``: the same at rates x8 (T~240), where the dense (T, N)
  segment matrices of te and the (L, D, T) arrays of DLA dominate;
- ``eval_stream``: a saved and reloaded hard-window model classifying one
  sample at a time over lengths T~30..240, then ``evaluate_preps``.

The amount of work is a fixed function of ``seconds`` (sized for about that
many seconds on a 2-core host), never of elapsed time, so equal seeds give
equal work and a faster program simply finishes sooner.  Throughputs are
medians over equal-work chunks (a training epoch, a pass over the held-out
set, one ``evaluate_preps`` call) and latencies are quantiles over many
operations, which keeps short bursts of host contention out of the figures.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import resource
from dataclasses import dataclass, field
from unittest import mock

import numpy as np

import tada.data
import tada.training
from tada.config import RunConfig
from tada.data import (SynthConfig, split_dataset, synth_generate, write_data_manifest,
                       write_dataset)
from tada.errors import TadaError
from tada.model import TadaModel
from tada.optim import Adam

from tracing import StepClock, Tracer, layer_metrics, now

BATCH = 64              # tada's default batch size; every training batch is full
SETUP_REPS = 9          # set-ups per run; setup_s is their median
EVAL_REPS = 5           # evaluate_preps calls spread over eval_stream's loop
OVERHEAD_PAIRS = 21     # untraced/traced pairs the tracing overhead is measured on
OVERHEAD_BATCH = 16     # samples in the optimizer step those pairs time in training
BASE_RATES = (2.0, 4.0, 8.0, 16.0)   # tada synth defaults: 30 events per series
N_FEATURES = 4
N_CLASSES = 2
T_TOLERANCE = 0.10      # realized mean T may drift this share from nominal
CHECK_TOL = 1e-12       # losses and softmax rows computed two ways
GRAD_TOL = 1e-10        # batch gradient vs mean of the per-sample gradients
FD_JITTER = 0.05        # parameter jitter that moves the check off ReLU kinks
FD_EPS = 1e-7           # central-difference step along a unit-variance direction
FD_TOL = 1e-6           # relative error of the directional derivative
FD_DIRECTIONS = 5       # the median error over these directions is checked


@dataclass(frozen=True)
class TrainSpec:
    scale: float        # synth rate multiplier; T~30 * scale
    n_train: int        # a multiple of BATCH
    n_val: int
    epoch_s: float      # nominal seconds per epoch, training plus validation

    @property
    def nominal_T(self) -> float:
        return sum(BASE_RATES) * self.scale


@dataclass(frozen=True)
class EvalSpec:
    scales: tuple[float, ...]   # two held-out samples (one per class) per scale
    rate: float                 # nominal requests per second

    @property
    def nominal_T(self) -> float:
        return sum(BASE_RATES) * float(np.mean(self.scales))


# Why each workload exists is in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    # The large validation set gives evaluate_preps enough work to time.
    "train_short": TrainSpec(scale=1.0, n_train=256, n_val=512, epoch_s=2.0),
    # A small validation set leaves more of the run to timed steps.
    "train_long": TrainSpec(scale=8.0, n_train=128, n_val=64, epoch_s=1.6),
    # Lengths spread evenly in log T rather than over a few discrete values,
    # so latency quantiles never fall into a gap between length groups.
    "eval_stream": EvalSpec(scales=tuple(2.0 ** (3.0 * k / 99) for k in range(100)),
                            rate=380.0),
}


@dataclass
class Outcome:
    """What one run of a workload measured and checked."""
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    tracer: Tracer | None = None


# inputs ---------------------------------------------------------------------

def synth(n: int, scale: float, seed: int, prefix: str = ""):
    """``tada synth`` samples at the default rates times ``scale``."""
    cfg = SynthConfig(n_samples=n, n_features=N_FEATURES, n_classes=N_CLASSES,
                      rates=tuple(r * scale for r in BASE_RATES), seed=seed)
    samples, _ = synth_generate(cfg)
    return [dataclasses.replace(s, sample_id=prefix + s.sample_id) for s in samples]


def make_inputs(spec, seed: int, workdir: str) -> dict:
    """Write the workload's JSONL files (and eval_stream's model file)."""
    write_data_manifest(workdir, N_FEATURES, "sequence", N_CLASSES)
    paths = {}
    if isinstance(spec, TrainSpec):
        n = spec.n_train + spec.n_val
        tr, va, _ = split_dataset(synth(n, spec.scale, seed),
                                  (spec.n_train / n, spec.n_val / n, 0.0), seed=seed)
        for split, samples in (("train", tr), ("val", va)):
            paths[split] = os.path.join(workdir, f"{split}.jsonl")
            write_dataset(paths[split], samples)
        return paths
    held = []
    for k, scale in enumerate(spec.scales):
        held += synth(N_CLASSES, scale, seed * len(spec.scales) + k, f"s{k:03d}-")
    paths["heldout"] = os.path.join(workdir, "heldout.jsonl")
    write_dataset(paths["heldout"], held)
    paths["model"] = os.path.join(workdir, "model.bin")
    TadaModel(_eval_config(), N_FEATURES, N_CLASSES, "sequence").save(paths["model"])
    return paths


def input_shape(spec, samples) -> tuple[dict, list[str]]:
    """Realized T, N and D of the loaded samples, and any drift from the spec."""
    T = np.array([len(s) for s in samples])
    N = np.array([sum(len(step.observations) for step in s.steps) for s in samples])
    features = {o.feature for s in samples for step in s.steps for o in step.observations}
    shape = {"samples": len(samples), "T_mean": float(T.mean()), "T_max": int(T.max()),
             "N_mean": float(N.mean()), "N_max": int(N.max()), "D": len(features)}
    problems = []
    if abs(shape["T_mean"] / spec.nominal_T - 1.0) > T_TOLERANCE:
        problems.append(f"mean T {shape['T_mean']:.1f} drifted from nominal "
                        f"{spec.nominal_T:.1f}")
    if shape["D"] != N_FEATURES:
        problems.append(f"{shape['D']} features observed, expected {N_FEATURES}")
    return shape, problems


# shared helpers -----------------------------------------------------------------

def _grads(params: dict) -> dict[str, np.ndarray]:
    """Copies of the parameters' gradients, zeros where none arrived."""
    return {k: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
            for k, p in params.items()}


def _fd_error(model: TadaModel, prep) -> float:
    """Median relative error of one sample's gradient against central
    differences of its loss along ``FD_DIRECTIONS`` seeded random directions.

    The check runs at a seeded jitter of the parameters, because at tada's
    initial point the fusion ReLUs sit at their kink (zero bias, inputs zero
    or within rounding of it), where a gradient and a central difference
    disagree by design.  The median keeps a direction whose step happens to
    cross a ReLU kink or a hard-window edge from failing the check.
    """
    params = model.trainable()
    base = {k: p.data for k, p in params.items()}
    rng = np.random.default_rng(0)
    point = {k: v + FD_JITTER * rng.standard_normal(v.shape) for k, v in base.items()}
    errors = []
    try:
        for k, p in params.items():
            p.data = point[k]
            p.grad = None
        model.sample_loss(prep).backward()
        grad = _grads(params)
        for _ in range(FD_DIRECTIONS):
            d = {k: rng.standard_normal(v.shape) for k, v in base.items()}
            side = []
            for sign in (1.0, -1.0):
                for k, p in params.items():
                    p.data = point[k] + sign * FD_EPS * d[k]
                side.append(model.sample_loss(prep).item())
            fd = (side[0] - side[1]) / (2 * FD_EPS)
            gd = sum(float(np.sum(grad[k] * d[k])) for k in base)
            errors.append(abs(fd - gd) / max(abs(fd), abs(gd), 1e-300))
    finally:
        for k, p in params.items():
            p.data = base[k]
            p.grad = None
    return float(np.median(errors))


def first_step(model: TadaModel, batch, region) -> tuple[float, dict]:
    """One optimizer step on ``batch``: (loss, the gradients it applied)."""
    cfg = model.cfg
    params = model.trainable()
    opt = Adam(params, lr=cfg.lr, betas=(cfg.beta1, cfg.beta2), eps=cfg.adam_eps)
    with region("training.step", "check"):
        loss = model.batch_loss(batch)
        opt.zero_grad()
        loss.backward()
        grad = _grads(params)
        opt.step()
    return loss.item(), grad


def check_first_batch(model: TadaModel, preps, out: Outcome) -> None:
    """One optimizer step on the first batch, checked against the per-sample path.

    - ``batch_loss`` equals the mean of ``sample_loss`` to 1e-12 and its
      gradient equals the mean of the per-sample gradients to 1e-10, both
      relative;
    - one sample's gradient matches central differences of its loss
      (``_fd_error``, 1e-6 relative), so a backward pass that drops or
      flips gradients fails even where both paths share it;
    - the Adam step moves no parameter along its gradient;
    - the loss, every gradient and every updated parameter are finite.

    Counts as one attempted operation.
    """
    batch = preps[:BATCH]
    params = model.trainable()
    ref_loss = 0.0
    ref_grad = {k: np.zeros_like(p.data) for k, p in params.items()}
    for prep in batch:
        for p in params.values():
            p.grad = None
        loss = model.sample_loss(prep)
        loss.backward()
        ref_loss += loss.item() / len(batch)
        g = _grads(params)
        for k in ref_grad:
            ref_grad[k] += g[k] / len(batch)
    fd = _fd_error(model, batch[0])
    if not fd <= FD_TOL:
        out.problems.append(f"first sample gradient differs from central differences "
                            f"by {fd:.3g} (relative)")
    before = {k: p.data for k, p in params.items()}
    out.attempted += 1
    try:
        value, grad = first_step(model, batch, _no_region)
    except TadaError as e:
        out.failed += 1
        out.problems.append(f"first batch step raised {type(e).__name__}: {e}")
        return
    if not math.isfinite(value):
        out.failed += 1
        out.problems.append(f"first batch loss is {value}")
        return
    if abs(value - ref_loss) > CHECK_TOL * max(1.0, abs(ref_loss)):
        out.problems.append(f"batch_loss {value!r} != mean sample_loss {ref_loss!r}")
    scale = max(float(np.max(np.abs(g))) for g in ref_grad.values())
    for k, g in grad.items():
        diff = float(np.max(np.abs(g - ref_grad[k])))
        if not diff <= GRAD_TOL * scale:
            out.problems.append(f"batch gradient of {k} differs from the mean per-sample "
                                f"gradient by {diff:.3g} (scale {scale:.3g})")
    if scale == 0.0:
        out.problems.append("no gradient reached any parameter")
    for k, p in params.items():
        if np.any((p.data - before[k]) * grad[k] > 0.0):
            out.problems.append(f"the Adam step moved {k} along its gradient")
        if not np.all(np.isfinite(p.data)):
            out.problems.append(f"{k} is non-finite after one Adam step")


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _ms_quantiles(seconds) -> tuple[float, float]:
    ms = np.asarray(seconds) * 1e3
    if ms.size == 0:
        return float("nan"), float("nan")
    return float(np.percentile(ms, 50)), float(np.percentile(ms, 90))


def _median(values) -> float:
    return float(np.median(values)) if len(values) else float("nan")


def _median_time(setup, reps: int):
    """Run ``setup`` ``reps`` times; return (median seconds, last result)."""
    times = []
    result = None
    for _ in range(reps):
        result = None           # let the previous set-up be freed first
        t0 = now()
        result = setup()
        times.append(now() - t0)
    return float(np.median(times)), result


def _no_region(name, item=None):
    return contextlib.nullcontext()


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _overhead_share(unit) -> float:
    """Median share by which tracing slows ``unit``, over pairs of an
    untraced and a traced run of it in alternating order.

    A single traced and untraced pass of the whole loop, minutes apart on a
    shared host, cannot resolve a cost of a few percent; adjacent short
    pairs can.
    """
    tracer = Tracer("overhead")
    shares = []
    for k in range(OVERHEAD_PAIRS):
        seconds = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            with tracer if traced else contextlib.nullcontext():
                t0 = now()
                unit()
                seconds[traced] = now() - t0
        shares.append(seconds[True] / seconds[False] - 1.0)
    return float(np.median(shares))


def _finish_trace(tracer: Tracer, traced_wall: float, unit, out: Outcome) -> None:
    """Replace the end-to-end metrics with the traced pass's per-layer ones.

    ``unit`` is a short piece of the workload's work that the tracing
    overhead is measured on (``_overhead_share``); ``trace.overhead_ms``
    applies that share to the untraced loop.  ``trace.wall_diff_ms`` is the
    traced minus the untraced loop wall: host noise swamps it, and a
    negative value means it did not resolve the overhead.
    """
    untraced = out.detail["loop_wall_s"]
    share = _overhead_share(unit)
    out.detail["traced_loop_wall_s"] = traced_wall
    out.detail["spans"] = tracer.summary()
    out.detail["end_to_end"] = out.metrics
    out.metrics = dict(layer_metrics(tracer, BATCH))
    out.metrics["trace.overhead_ms"] = (share * untraced * 1e3, "ms")
    out.metrics["trace.overhead_pct"] = (share * 100.0, "%")
    out.metrics["trace.wall_diff_ms"] = ((traced_wall - untraced) * 1e3, "ms")
    out.tracer = tracer


# training workloads -------------------------------------------------------------

def _train_config(spec: TrainSpec, seconds: int) -> RunConfig:
    # tada's default config, init seed 0 included: only the data follow --seed
    epochs = max(2, round(seconds / spec.epoch_s))
    return RunConfig(max_epochs=epochs, patience=0).validate()


def _train_setup(paths: dict, cfg: RunConfig):
    tr = tada.data.load_dataset(paths["train"], N_FEATURES)
    va = tada.data.load_dataset(paths["val"], N_FEATURES)
    model = TadaModel(cfg, N_FEATURES, N_CLASSES, "sequence")
    preps = [model.prepare(s) for s in tr + va]
    return tr, va, model, preps


def _train_loop(cfg: RunConfig, tr, va, out: Outcome, region):
    """``train`` under a StepClock; returns (clock, result or None, wall s, region span)."""
    clock = StepClock()
    result = None
    t0 = now()
    with region("bench.train") as rec, clock:
        try:
            result = tada.training.train(cfg, tr, va, N_FEATURES, N_CLASSES, "sequence")
        except TadaError as e:
            out.failed += 1
            out.problems.append(f"train raised {type(e).__name__}: {e}")
    wall = now() - t0
    # a step that raised never completed, so it adds one to the attempts
    out.attempted += clock.completed + (result is None)
    return clock, result, wall, rec


def _epoch_times(clock: StepClock, steps_per_epoch: int) -> list[float]:
    """Training time of every epoch whose steps were all timed."""
    per_epoch: dict[int, list[float]] = {}
    for index, t0, t1 in clock.steps:
        per_epoch.setdefault(index // steps_per_epoch, []).append(t1 - t0)
    return [sum(v) for v in per_epoch.values() if len(v) == steps_per_epoch]


def run_train(spec: TrainSpec, name: str, seed: int, seconds: int, paths: dict,
              trace: bool) -> Outcome:
    out = Outcome()
    cfg = _train_config(spec, seconds)
    setup_s, (tr, va, model, preps) = _median_time(lambda: _train_setup(paths, cfg), SETUP_REPS)
    shape, drift = input_shape(spec, tr + va)
    out.problems += drift
    check_first_batch(model, preps, out)
    del model, preps

    clock, result, wall, _ = _train_loop(cfg, tr, va, out, _no_region)
    losses = [h["train_loss"] for h in result.history] if result else []
    if result is not None and not all(math.isfinite(h["train_loss"])
                                      and math.isfinite(h["val_metric"])
                                      for h in result.history):
        out.problems.append("non-finite train loss or validation metric in history")
    # the first epoch is warm-up: its steps run slower while the heap grows
    steps_per_epoch = spec.n_train // BATCH
    step_s = [t1 - t0 for index, t0, t1 in clock.steps if index >= steps_per_epoch]
    epoch_s = _epoch_times(clock, steps_per_epoch)
    p50, p90 = _ms_quantiles(step_s)
    out.metrics = {
        "setup_s": (setup_s, "s"),
        "samples_per_s": (spec.n_train / _median(epoch_s), "1/s"),
        "latency_ms_p50": (p50, "ms"),
        "latency_ms_p90": (p90, "ms"),
        "eval_samples_per_s": (_median([n / (t1 - t0) for t0, t1, n in clock.evals]), "1/s"),
        "peak_rss_mb": (_peak_rss_mib(), "MiB"),
        "loss": (losses[-1] if losses else float("nan"), "nats"),
    }
    out.detail = {"shape": shape, "epochs": cfg.max_epochs, "timed_steps": len(step_s),
                  "timed_epochs": len(epoch_s), "validations": len(clock.evals),
                  "loop_wall_s": wall, "loss_by_epoch": losses}
    if trace:
        _trace_train(name, paths, cfg, out)
    return out


def _trace_train(name: str, paths: dict, cfg: RunConfig, out: Outcome) -> None:
    traced_out = Outcome()
    tracer = Tracer(name)
    with tracer:
        with tracer.span("bench.setup"):
            tr, va, model, preps = _train_setup(paths, cfg)
        with tracer.span("bench.check"):
            first_step(model, preps[:BATCH], tracer.span)
        del model, preps
        clock, _, wall, region = _train_loop(cfg, tr, va, traced_out, tracer.span)
    tracer.adopt_steps(clock, region)
    model = TadaModel(cfg, N_FEATURES, N_CLASSES, "sequence")
    batch = [model.prepare(s) for s in tr[:OVERHEAD_BATCH]]
    _finish_trace(tracer, wall, lambda: first_step(model, batch, _no_region), out)


# eval_stream ----------------------------------------------------------------------

def _eval_config() -> RunConfig:
    # default init seed: the stream's inputs and order follow --seed
    return RunConfig(window_mode="hard").validate()


def _eval_setup(paths: dict):
    model = TadaModel.load(paths["model"])
    samples = tada.data.load_dataset(paths["heldout"], N_FEATURES)
    return model, samples


def _stream(model: TadaModel, samples, order, rows: dict, out: Outcome, region) -> list:
    """Classify one sample per request, in ``order``.

    Returns each request's latency in seconds (NaN where it failed) and
    records each sample index's softmax row in ``rows``.
    """
    lat = []
    for i in order:
        i = int(i)
        sid = samples[i].sample_id
        out.attempted += 1
        try:
            with region("bench.request", sid):
                t0 = now()
                logits = model.logits(model.prepare(samples[i]))
                t1 = now()
        except TadaError as e:
            out.failed += 1
            out.problems.append(f"request {sid} raised {type(e).__name__}: {e}")
            lat.append(float("nan"))
            continue
        if not np.all(np.isfinite(logits)):
            out.failed += 1
            out.problems.append(f"request {sid} gave non-finite logits")
            lat.append(float("nan"))
            continue
        lat.append(t1 - t0)
        row = _softmax(logits.reshape(-1))
        if i not in rows:
            rows[i] = row
        elif np.max(np.abs(rows[i] - row)) > CHECK_TOL:
            out.problems.append(f"repeated request {sid} changed its output")
    return lat


def _evaluate(model: TadaModel, preps, capture: bool):
    """One timed ``evaluate_preps`` call: (rate, report, softmax rows or None).

    With ``capture`` the rows are recorded where ``evaluate_preps`` calls
    ``softmax_rows``.
    """
    captured: list[np.ndarray] = []
    orig = tada.training.softmax_rows

    def record(logits):
        r = orig(logits)
        captured.append(np.atleast_2d(r))
        return r

    patch = (mock.patch.object(tada.training, "softmax_rows", record) if capture
             else contextlib.nullcontext())
    with patch:
        t0 = now()
        report = tada.training.evaluate_preps(model, preps)
        rate = len(preps) / (now() - t0)
    return rate, report, np.concatenate(captured, axis=0) if capture else None


def _serve(model: TadaModel, samples, passes: int, seed: int, out: Outcome, region):
    """The measured loop: ``passes`` seeded passes of one-at-a-time requests,
    with an ``evaluate_preps`` call over every sample after each
    ``passes // EVAL_REPS`` passes, so both sample the whole run.

    Returns (latencies s, softmax rows by index, [(rate, report, rows)]).
    """
    n = len(samples)
    preps = [model.prepare(s) for s in samples]
    order = _stream_order(n, passes, seed)
    stride = max(1, passes // EVAL_REPS)
    lat, rows, evals = [], {}, []
    for p in range(passes):
        lat += _stream(model, samples, order[p * n:(p + 1) * n], rows, out, region)
        if (p + 1) % stride == 0 and len(evals) < EVAL_REPS:
            evals.append(_evaluate(model, preps, capture=not evals))
    return np.array(lat), rows, evals


def _stream_order(n: int, passes: int, seed: int) -> np.ndarray:
    """``passes`` seeded permutations of the held-out set, back to back."""
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.permutation(n) for _ in range(passes)])


def _check_eval(samples, rows, eval_rows, report, out: Outcome) -> None:
    """Streamed softmax rows must match evaluate_preps's rows and accuracy."""
    n = len(samples)
    if len(rows) != n or eval_rows.shape[0] != n:
        out.problems.append(f"{len(rows)} streamed and {eval_rows.shape[0]} evaluated rows "
                            f"for {n} samples")
        return
    stream = np.stack([rows[i] for i in range(n)])
    diff = float(np.max(np.abs(stream - eval_rows)))
    if diff > CHECK_TOL:
        out.problems.append(f"streamed softmax rows differ from evaluate_preps by {diff:.3g}")
    labels = np.array([s.label for s in samples])
    acc = float(np.mean(stream.argmax(axis=1) == labels))
    if abs(acc - report.accuracy) > CHECK_TOL:
        out.problems.append(f"accuracy {report.accuracy!r} != streamed accuracy {acc!r}")


def _check_copy(paths: dict, samples):
    """A second copy of the model and its first batch, so the served model
    stays as loaded while a step is taken on the copy."""
    model = TadaModel.load(paths["model"])
    return model, [model.prepare(s) for s in samples[:BATCH]]


def run_eval(spec: EvalSpec, name: str, seed: int, seconds: int, paths: dict,
             trace: bool) -> Outcome:
    out = Outcome()
    setup_s, (model, samples) = _median_time(lambda: _eval_setup(paths), SETUP_REPS)
    shape, drift = input_shape(spec, samples)
    out.problems += drift
    check_first_batch(*_check_copy(paths, samples), out)

    n = len(samples)
    passes = max(3, round(seconds * spec.rate / n))
    t0 = now()
    lat, rows, evals = _serve(model, samples, passes, seed, out, _no_region)
    wall = now() - t0
    report = evals[-1][1]
    _check_eval(samples, rows, evals[0][2], report, out)

    ok = lat[np.isfinite(lat)]
    p50, p90 = _ms_quantiles(ok)
    pass_s = lat.reshape(passes, n).sum(axis=1)       # NaN for a pass with a failure
    labels = [s.label for s in samples]
    loss = -float(np.mean([math.log(rows[i][labels[i]]) for i in rows])) if rows else float("nan")
    out.metrics = {
        "setup_s": (setup_s, "s"),
        "samples_per_s": (n / _median(pass_s), "1/s"),
        "latency_ms_p50": (p50, "ms"),
        "latency_ms_p90": (p90, "ms"),
        "eval_samples_per_s": (_median([rate for rate, _, _ in evals]), "1/s"),
        "peak_rss_mb": (_peak_rss_mib(), "MiB"),
        "loss": (loss, "nats"),
    }
    out.detail = {"shape": shape, "requests": len(lat), "passes": passes, "loop_wall_s": wall,
                  "latency_ms_p99": float(np.percentile(ok * 1e3, 99)) if ok.size else None,
                  "accuracy": report.accuracy, "auroc": report.auroc}
    if trace:
        _trace_eval(name, paths, passes, seed, out)
    return out


def _trace_eval(name: str, paths: dict, passes: int, seed: int, out: Outcome) -> None:
    traced_out = Outcome()
    tracer = Tracer(name)
    with tracer:
        with tracer.span("bench.setup"):
            model, samples = _eval_setup(paths)
        with tracer.span("bench.check"):
            first_step(*_check_copy(paths, samples), tracer.span)
        t0 = now()
        with tracer.span("bench.stream"):
            _serve(model, samples, passes, seed, traced_out, tracer.span)
        wall = now() - t0
    _finish_trace(tracer, wall, lambda: [model.logits(model.prepare(s)) for s in samples[::2]],
                  out)


def run(name: str, seed: int, seconds: int, workdir: str, trace: bool) -> Outcome:
    spec = WORKLOADS[name]
    paths = make_inputs(spec, seed, workdir)
    runner = run_train if isinstance(spec, TrainSpec) else run_eval
    return runner(spec, name, seed, seconds, paths, trace)
