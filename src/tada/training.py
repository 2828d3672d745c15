"""Mini-batch training with per-epoch validation and early stopping."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .data import IrregularSeries
from .errors import EvaluationError, TrainingError
from .metrics import (accuracy, auprc, auroc, macro_auprc, macro_auroc,
                      softmax_rows)
from .model import SamplePrep, TadaModel
from .optim import Adam
from .shards import ShardedStep, chunk_values


@dataclass
class MetricsReport:
    auroc: float
    auprc: float
    accuracy: float

    def as_dict(self) -> dict:
        return {"auroc": self.auroc, "auprc": self.auprc, "accuracy": self.accuracy}

    def csv_line(self) -> str:
        return f"{self.auroc!r},{self.auprc!r},{self.accuracy!r}"


@dataclass
class TrainResult:
    model: TadaModel
    history: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_val_metric: float = float("-inf")


def _binary_sequence(model: TadaModel) -> bool:
    return model.task == "sequence" and model.n_classes == 2


# Padded steps per evaluation chunk.  A batch's forward holds a few
# (B, L, D, T_max) arrays, so its memory follows B * T_max, not B alone.
CHUNK_STEPS = 4096


def _chunks(preps: list[SamplePrep], size: int) -> list[list[SamplePrep]]:
    """Consecutive runs of at most ``size`` samples that pad to at most
    ``CHUNK_STEPS`` steps (a longer sample goes alone): evaluation memory
    stays bounded however large the split and however long its series."""
    chunks: list[list[SamplePrep]] = []
    t_max = 0
    for p in preps:
        t = len(p.times)
        if chunks and len(chunks[-1]) < size \
                and (len(chunks[-1]) + 1) * max(t_max, t) <= CHUNK_STEPS:
            chunks[-1].append(p)
            t_max = max(t_max, t)
        else:
            chunks.append([p])
            t_max = t
    return chunks


def _mean_loss(model: TadaModel, preps: list[SamplePrep]) -> float:
    """Mean per-sample loss over ``preps``, one batch at a time, from
    forwards that build no graph."""
    chunks = _chunks(preps, model.cfg.batch_size)
    losses = chunk_values(model, preps, chunks, "loss", CHUNK_STEPS)
    total = sum(loss * len(chunk) for chunk, loss in zip(chunks, losses))
    return total / len(preps)


def evaluate_preps(model: TadaModel, preps: list[SamplePrep]) -> MetricsReport:
    """Metrics over prepared samples.

    Binary sequence tasks report AUROC/AUPRC of the positive-class
    probability plus argmax accuracy.  Step and multiclass tasks report
    accuracy plus macro one-vs-rest AUROC/AUPRC over flattened predictions.

    The chunks' logits come from ``shards.chunk_values``: inside ``train``
    the step's worker computes about half of the validation chunks; outside
    it, a worker is forked for this call when its share would hold at least
    ``CHUNK_STEPS`` padded steps and the host allows one.  The report is
    the same bytes on one process or two.
    """
    if not preps:
        raise EvaluationError("evaluate: empty evaluation set")
    chunks = _chunks(preps, model.cfg.batch_size)
    rows = [softmax_rows(z) for z in chunk_values(model, preps, chunks, "logits", CHUNK_STEPS)]
    probs = np.concatenate(rows, axis=0)
    y = np.concatenate([p.labels for p in preps])
    preds = probs.argmax(axis=1)
    acc = accuracy(preds, y)
    if _binary_sequence(model):
        return MetricsReport(auroc=auroc(probs[:, 1], (y == 1).astype(np.int64)),
                             auprc=auprc(probs[:, 1], (y == 1).astype(np.int64)),
                             accuracy=acc)
    return MetricsReport(auroc=macro_auroc(probs, y),
                         auprc=macro_auprc(probs, y),
                         accuracy=acc)


def evaluate(model: TadaModel, samples: list[IrregularSeries]) -> MetricsReport:
    """``evaluate_preps`` over the prepared samples."""
    return evaluate_preps(model, [model.prepare(s) for s in samples])


def selection_metric(model: TadaModel, report: MetricsReport) -> tuple[str, float]:
    """Model-selection criterion as (name, value): AUPRC for binary
    sequences, else accuracy."""
    if _binary_sequence(model):
        return "auprc", report.auprc
    return "accuracy", report.accuracy


def train(cfg: RunConfig, train_samples: list[IrregularSeries],
          val_samples: list[IrregularSeries], n_features: int, n_classes: int,
          task: str, log=None) -> TrainResult:
    """Adam training, keeping the best validation epoch's parameters.

    Selection follows ``selection_metric``.  A validation split whose
    labels hold one class leaves AUROC undefined, so it selects by the
    negated validation loss instead; without validation samples, by the
    negated summed training loss.  Each history record names its metric.

    Each step's loss and gradient combine the batch's two shards
    (``ShardedStep``), with a forked worker computing the second where the
    host allows; the same worker computes about half of each epoch's
    validation chunks, found by ``evaluate_preps`` and ``_mean_loss``
    because ``val_preps`` is the list it holds.  Fully deterministic for a
    fixed config, and byte-identical on one or two processes: one seeded
    generator drives init and batch order, the shards combine in a fixed
    order, and every validation chunk comes from the same call wherever it
    runs, back in chunk order.  A numerical failure raises TrainingError
    naming the epoch, and numpy prints no warnings on the way.
    """
    if not train_samples:
        raise TrainingError("train: empty training set")
    rng = np.random.default_rng(cfg.seed)
    model = TadaModel(cfg, n_features, n_classes, task, rng)
    train_preps = [model.prepare(s) for s in train_samples]
    val_preps = [model.prepare(s) for s in val_samples]
    one_class = len({int(c) for p in val_preps for c in p.labels}) == 1
    opt = Adam(model.trainable(), lr=cfg.lr, betas=(cfg.beta1, cfg.beta2),
               eps=cfg.adam_eps)
    result = TrainResult(model=model)
    best_state: dict[str, np.ndarray] | None = None
    bad_epochs = 0
    n = len(train_preps)
    # every loss, gradient, parameter and validation metric is checked
    # below, so numpy's warnings on a diverging run would only print ahead
    # of the TrainingError; the worker forks inside and inherits the state
    with np.errstate(all="ignore"), ShardedStep(model, train_preps, val_preps) as step:
        for epoch in range(cfg.max_epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, cfg.batch_size):
                indices = order[start:start + cfg.batch_size]
                try:
                    value = step(indices)
                    if not math.isfinite(value):
                        raise TrainingError("non-finite loss")
                    opt.step()
                except TrainingError as e:
                    raise TrainingError(f"{e} at epoch {epoch}") from None
                epoch_loss += value * len(indices)
            for name, t in model.params.items():
                if not np.isfinite(t.data).all():
                    raise TrainingError(
                        f"non-finite parameter '{name}' after epoch {epoch}")
            val_report = None
            try:
                if not val_preps:
                    selection, metric = "neg_train_loss", -epoch_loss
                elif one_class:
                    selection, metric = "neg_val_loss", -_mean_loss(model, val_preps)
                else:
                    val_report = evaluate_preps(model, val_preps)
                    selection, metric = selection_metric(model, val_report)
            except TrainingError as e:      # the shard worker died
                raise TrainingError(f"{e} at epoch {epoch}") from None
            except EvaluationError as e:
                # with two classes present, the metrics fail only on
                # non-finite scores: finite parameters whose logits overflow
                raise TrainingError(f"validation at epoch {epoch}: {e}") from None
            if not math.isfinite(metric):
                raise TrainingError(f"non-finite validation {selection} at epoch {epoch}")
            record = {
                "epoch": epoch,
                "train_loss": epoch_loss / n,
                "val_metric": metric,
                "selection": selection,
            }
            if val_report is not None:
                record["val_accuracy"] = val_report.accuracy
            result.history.append(record)
            if log:
                log(f"epoch {epoch}: train_loss {epoch_loss / n:.4f} val {metric:.4f}")
            if metric > result.best_val_metric:
                result.best_val_metric = metric
                result.best_epoch = epoch
                best_state = {k: t.data.copy() for k, t in model.params.items()}
                bad_epochs = 0
            else:
                bad_epochs += 1
                # patience 0 disables early stopping
                if cfg.patience > 0 and bad_epochs >= cfg.patience:
                    break
    if best_state is not None:
        for k, t in model.params.items():
            t.data = best_state[k]
    return result


def run_manifest(cfg: RunConfig, model: TadaModel, result: TrainResult,
                 test_report: MetricsReport, counts: dict[str, int]) -> dict:
    """Deterministic description of one training run.

    Wall time deliberately stays out so reruns with equal inputs produce
    byte-identical files; the CLI reports timing on stdout instead.
    """
    radii = model.radii()
    return {
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "init_scheme": "uniform(-1/sqrt(fan_in)) matrices, normal(0, 0.02) queries",
        "dataset": {
            "task": model.task,
            "D": model.n_features,
            "n_classes": model.n_classes,
            **counts,
        },
        "best_epoch": result.best_epoch,
        "epochs_run": len(result.history),
        "history": result.history,
        "metrics": test_report.as_dict(),
        "window_radii": None if radii is None else [float(r) for r in radii],
    }
