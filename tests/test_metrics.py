"""Ranking metrics against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tada.errors import EvaluationError
from tada.metrics import (
    accuracy,
    auprc,
    auroc,
    macro_auprc,
    macro_auroc,
    softmax_rows,
)


def pair_counting_auroc(scores, labels):
    """O(n^2) oracle: P(score+ > score-) + 0.5 P(tie) over all pairs."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def threshold_sweep_auprc(scores, labels):
    """Oracle: sweep every distinct score as a threshold, descending; step
    interpolation sum of (recall gain) * precision at each threshold."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    ap = 0.0
    prev_recall = 0.0
    for thr in sorted(set(scores.tolist()), reverse=True):
        taken = scores >= thr
        tp = int((labels[taken] == 1).sum())
        precision = tp / int(taken.sum())
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


# hand values -----------------------------------------------------------------


def test_auroc_hand_values():
    assert auroc([0.9, 0.1], [1, 0]) == 1.0
    assert auroc([0.1, 0.9], [1, 0]) == 0.0
    assert auroc([0.5, 0.5], [1, 0]) == 0.5
    assert auroc([0.8, 0.8, 0.2], [1, 0, 0]) == 0.75


def test_auprc_hand_values():
    assert auprc([0.9, 0.1], [1, 0]) == 1.0
    # single positive ranked last among n: AP = 1/n
    assert auprc([0.1, 0.5, 0.9, 0.7], [1, 0, 0, 0]) == 0.25
    # all scores tied: one threshold, precision = prevalence
    assert auprc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5


def test_accuracy_values_and_errors():
    assert accuracy([0, 1, 1], [0, 1, 0]) == pytest.approx(2 / 3)
    assert accuracy([1], [1]) == 1.0
    with pytest.raises(EvaluationError):
        accuracy([], [])
    with pytest.raises(EvaluationError):
        accuracy([0, 1], [0])


def test_single_class_inputs_are_undefined():
    with pytest.raises(EvaluationError, match="auroc"):
        auroc([0.5, 0.7], [1, 1])
    with pytest.raises(EvaluationError, match="auroc"):
        auroc([0.5, 0.7], [0, 0])
    with pytest.raises(EvaluationError, match="auprc"):
        auprc([0.5, 0.7], [0, 0])
    with pytest.raises(EvaluationError, match="0/1"):
        auroc([0.5, 0.7], [0, 2])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ranking_metrics_reject_non_finite_scores(bad):
    # a NaN used to rank as one tie group and still return a number
    for metric in (auroc, auprc):
        with pytest.raises(EvaluationError, match=f"{metric.__name__}: scores must be finite"):
            metric([0.2, bad, 0.7], [0, 1, 1])


def test_softmax_rows_normalizes_and_is_stable():
    probs = softmax_rows(np.array([[1000.0, 999.0], [0.0, 0.0]]))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0)
    np.testing.assert_allclose(probs[1], [0.5, 0.5])
    assert np.all(np.isfinite(probs))


# oracle equality ---------------------------------------------------------------


def test_matches_oracles_on_small_instances_with_ties():
    # discretized scores force frequent ties; equality must be exact
    rng = np.random.default_rng(33)
    checked = 0
    while checked < 500:
        n = int(rng.integers(2, 9))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        scores = rng.integers(0, 4, size=n) / 4.0
        assert auroc(scores, labels) == pair_counting_auroc(scores, labels)
        assert auprc(scores, labels) == threshold_sweep_auprc(scores, labels)
        checked += 1


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1)),
                min_size=2, max_size=8))
def test_oracle_equality_property(pairs):
    scores = np.array([s for s, _ in pairs], dtype=np.float64)
    labels = np.array([y for _, y in pairs])
    if labels.min() == labels.max():
        return
    assert auroc(scores, labels) == pair_counting_auroc(scores, labels)
    assert auprc(scores, labels) == threshold_sweep_auprc(scores, labels)


def test_auroc_invariant_under_monotone_transforms():
    rng = np.random.default_rng(34)
    for _ in range(50):
        n = int(rng.integers(4, 12))
        labels = np.concatenate([[0, 1], rng.integers(0, 2, size=n - 2)])
        scores = rng.normal(size=n)
        base = auroc(scores, labels)
        assert auroc(3.0 * scores + 7.0, labels) == base
        assert auroc(np.tanh(scores), labels) == pytest.approx(base, abs=1e-12)


# macro averaging ------------------------------------------------------------------


def test_macro_metrics_average_one_vs_rest():
    probs = np.array([[0.7, 0.2, 0.1],
                      [0.1, 0.8, 0.1],
                      [0.2, 0.2, 0.6],
                      [0.5, 0.3, 0.2]])
    labels = np.array([0, 1, 2, 0])
    want_roc = np.mean([auroc(probs[:, c], (labels == c).astype(int))
                        for c in range(3)])
    want_prc = np.mean([auprc(probs[:, c], (labels == c).astype(int))
                        for c in range(3)])
    assert macro_auroc(probs, labels) == want_roc
    assert macro_auprc(probs, labels) == want_prc


def test_macro_metrics_skip_absent_classes():
    probs = np.array([[0.9, 0.05, 0.05], [0.2, 0.7, 0.1], [0.6, 0.3, 0.1]])
    labels = np.array([0, 1, 0])  # class 2 never occurs
    want = np.mean([auroc(probs[:, c], (labels == c).astype(int))
                    for c in range(2)])
    assert macro_auroc(probs, labels) == want
    with pytest.raises(EvaluationError, match="macro"):
        macro_auroc(probs, np.array([0, 0, 0]))
    with pytest.raises(EvaluationError, match="macro"):
        macro_auprc(np.zeros((0, 3)), np.zeros(0, dtype=int))
