"""Ranking and classification metrics."""

from __future__ import annotations

import numpy as np

from .errors import EvaluationError


def _check_binary(scores: np.ndarray, labels: np.ndarray, what: str) -> tuple[int, int]:
    if scores.shape != labels.shape or scores.ndim != 1:
        raise EvaluationError(f"{what}: scores and labels must be matching 1D arrays")
    if not np.isfinite(scores).all():
        raise EvaluationError(f"{what}: scores must be finite")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos + n_neg != labels.size:
        raise EvaluationError(f"{what}: labels must be 0/1")
    return n_pos, n_neg


def auroc(scores, labels) -> float:
    """P(score+ > score-) + 0.5 * P(tie), via average ranks."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos, n_neg = _check_binary(scores, labels, "auroc")
    if n_pos == 0 or n_neg == 0:
        raise EvaluationError("auroc undefined: needs at least one positive and one negative")
    # each tie group takes the mean of the 1-based ranks it spans
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    last = np.cumsum(counts) - 1
    first = last - counts + 1
    ranks = (0.5 * (first + last) + 1.0)[group]
    r_pos = float(ranks[labels == 1].sum())
    return (r_pos - 0.5 * n_pos * (n_pos + 1)) / (n_pos * n_neg)


def auprc(scores, labels) -> float:
    """Average precision with step interpolation; ties share one threshold."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos, _ = _check_binary(scores, labels, "auprc")
    if n_pos == 0:
        raise EvaluationError("auprc undefined: needs at least one positive")
    # thresholds in descending score order; cumsum accumulates sequentially
    _, group = np.unique(-scores, return_inverse=True)
    tp = np.cumsum(np.bincount(group, weights=labels == 1))
    seen = np.cumsum(np.bincount(group))
    recall = tp / n_pos
    return float(np.cumsum(np.diff(recall, prepend=0.0) * (tp / seen))[-1])


def accuracy(predictions, labels) -> float:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape or predictions.size == 0:
        raise EvaluationError("accuracy: predictions and labels must match and be non-empty")
    return float((predictions == labels).mean())


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def macro_auprc(probs: np.ndarray, labels: np.ndarray) -> float:
    """Unweighted one-vs-rest mean over classes that have positives."""
    vals = []
    for c in range(probs.shape[1]):
        pos = (labels == c).astype(np.int64)
        if pos.sum() == 0:
            continue
        vals.append(auprc(probs[:, c], pos))
    if not vals:
        raise EvaluationError("macro auprc undefined: no class has positives")
    return float(np.mean(vals))


def macro_auroc(probs: np.ndarray, labels: np.ndarray) -> float:
    """Unweighted one-vs-rest mean over classes with both outcomes present."""
    vals = []
    for c in range(probs.shape[1]):
        pos = (labels == c).astype(np.int64)
        if pos.sum() == 0 or pos.sum() == pos.size:
            continue
        vals.append(auroc(probs[:, c], pos))
    if not vals:
        raise EvaluationError("macro auroc undefined: every class is single-valued")
    return float(np.mean(vals))
