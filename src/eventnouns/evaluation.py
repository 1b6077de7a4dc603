"""Cross-validation, precision curves, and confidence filtering.

Evaluation pools held-out predictions across folds: every gold lemma is
predicted exactly once, by the model of the fold that held it out. The
precision curve measures the positive (EVENT) class only, at a grid of
confidence thresholds, and partitioning by a confidence threshold splits
the output lexicon into an accepted part and a part needing review.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .dtree import ColumnIndex, Prediction, TreeParams, predict, train_rows
from .features import Dataset, EVENT, normalize_label, read_csv_rows, write_csv

DEFAULT_THRESHOLDS = tuple(i / 20 for i in range(21))


@dataclass(frozen=True)
class CurvePoint:
    threshold: float
    precision: float | None  # None when nothing is retained
    retained: int


@dataclass
class EvalReport:
    fold_accuracies: list[float]
    mean_accuracy: float
    predictions: list[Prediction]
    confusion: dict[str, dict[str, int]]


def stratified_folds(dataset: Dataset, k: int, seed: int) -> list[list[int]]:
    """Split dataset indices into k folds with near-equal class proportions.

    Each class is shuffled with the seeded RNG and dealt round-robin; the
    dealing position carries over between classes so fold sizes stay within
    one of each other. Classes smaller than k simply spread one per fold
    until exhausted. Deterministic for a fixed seed.
    """
    if dataset.labels is None:
        raise ValueError("stratified_folds needs a labeled dataset")
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > len(dataset):
        raise ValueError(f"k={k} exceeds dataset size {len(dataset)}")
    labels = [dataset.labels[v.lemma] for v in dataset.vectors]
    rng = random.Random(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    position = 0
    for label in sorted(set(labels)):
        indices = [i for i, l in enumerate(labels) if l == label]
        rng.shuffle(indices)
        for index in indices:
            folds[position % k].append(index)
            position += 1
    return [sorted(fold) for fold in folds]


def cross_validate(dataset: Dataset, params: TreeParams | None = None,
                   k: int = 10, seed: int = 0) -> EvalReport:
    """k-fold cross-validation over a labeled dataset.

    Returns per-fold accuracies, the pooled accuracy over all held-out
    predictions, the pooled predictions themselves (sorted by lemma, gold
    labels attached), and a confusion matrix keyed gold -> predicted.
    """
    params = params or TreeParams()
    if dataset.labels is None:
        raise ValueError("cross_validate needs a labeled dataset")
    folds = stratified_folds(dataset, k, seed)
    vectors = dataset.vectors
    golds = [dataset.labels[v.lemma] for v in vectors]
    # one index for every fold: a fold trains on the rows outside its mask
    index = ColumnIndex([v.counts for v in vectors], golds)
    pooled: list[Prediction] = []
    fold_accuracies = []
    for fold in folds:
        tree = train_rows(index, index.rows & ~sum(1 << i for i in fold), params)
        correct = 0
        for i in fold:
            vector, gold = vectors[i], golds[i]
            predicted, confidence = predict(tree, vector, laplace=params.laplace_confidence)
            pooled.append(Prediction(vector.lemma, predicted, confidence, gold))
            correct += predicted == gold
        fold_accuracies.append(correct / len(fold))
    pooled.sort(key=lambda p: p.lemma)
    total_correct = sum(1 for p in pooled if p.predicted == p.gold)
    labels = sorted({p.gold for p in pooled} | {p.predicted for p in pooled})
    confusion = {gold: {predicted: 0 for predicted in labels} for gold in labels}
    for p in pooled:
        confusion[p.gold][p.predicted] += 1
    return EvalReport(fold_accuracies, total_correct / len(pooled),
                      pooled, confusion)


def precision_curve(predictions: Sequence[Prediction],
                    thresholds: Iterable[float] | None = None) -> list[CurvePoint]:
    """Positive-class (EVENT) precision at each confidence threshold.

    At threshold t the retained set is every prediction with
    ``predicted == EVENT`` and ``confidence >= t`` (inclusive, so
    t=1.0 still captures fully confident decisions). Precision is None when
    the retained set is empty, never a made-up 0 or 1.
    """
    grid = DEFAULT_THRESHOLDS if thresholds is None else tuple(thresholds)
    positives = [p for p in predictions if p.predicted == EVENT]
    for p in positives:
        if p.gold is None:
            raise ValueError(f"prediction for {p.lemma!r} has no gold label")
    points = []
    for threshold in grid:
        retained = [p for p in positives if p.confidence >= threshold]
        if retained:
            correct = sum(1 for p in retained if p.gold == EVENT)
            precision = correct / len(retained)
        else:
            precision = None
        points.append(CurvePoint(threshold, precision, len(retained)))
    return points


def filter_by_confidence(predictions: Sequence[Prediction],
                         threshold: float) -> tuple[list[Prediction], list[Prediction]]:
    """Partition predictions into (accepted, to_review) at a threshold.

    Accepted means ``confidence >= threshold`` regardless of the predicted
    class; the two lists together are exactly the input.
    """
    if not 0 <= threshold <= 1:
        raise ValueError("threshold must be in [0, 1]")
    accepted = [p for p in predictions if p.confidence >= threshold]
    to_review = [p for p in predictions if p.confidence < threshold]
    return accepted, to_review


# --- report output ----------------------------------------------------------

def format_report(report: EvalReport, k: int) -> str:
    lines = []
    lines.append(f"examples: {len(report.predictions)}")
    lines.append(f"folds: {k}")
    lines.append("fold accuracies: "
                 + ", ".join(f"{a:.4f}" for a in report.fold_accuracies))
    lines.append(f"mean accuracy: {report.mean_accuracy:.4f}")
    lines.append("")
    labels = sorted(report.confusion)
    width = max(len(l) for l in labels) + 2
    lines.append("confusion matrix (rows gold, columns predicted):")
    lines.append(" " * width + "".join(f"{l:>{width}}" for l in labels))
    for gold in labels:
        row = "".join(f"{report.confusion[gold][p]:>{width}}" for p in labels)
        lines.append(f"{gold:<{width}}" + row)
    return "\n".join(lines) + "\n"


_PREDICTIONS_HEADER = ["lemma", "gold", "predicted", "confidence"]


def write_predictions_csv(predictions: Sequence[Prediction], path: str) -> None:
    write_csv(path, _PREDICTIONS_HEADER, (
        [p.lemma, p.gold if p.gold is not None else "", p.predicted, str(p.confidence)]
        for p in predictions))


def read_predictions_csv(path: str) -> list[Prediction]:
    """Read a predictions file; labels are case-insensitive, the gold cell
    may be empty and the confidence must lie in [0, 1]."""
    rows = read_csv_rows(path)
    _, header = next(rows, (0, None))
    if header != _PREDICTIONS_HEADER:
        raise ValueError(f"{path}: bad predictions header {header!r}")
    predictions = []
    for row_number, row in rows:
        try:
            if len(row) != 4:
                raise ValueError(f"expected 4 fields, got {len(row)}")
            lemma, gold, predicted, confidence = row
            value = float(confidence)
            if not 0 <= value <= 1:  # NaN fails too
                raise ValueError(f"confidence {confidence!r} is not in [0, 1]")
            predictions.append(Prediction(lemma, normalize_label(predicted), value,
                                          normalize_label(gold) if gold else None))
        except ValueError as exc:
            raise ValueError(f"{path}:{row_number}: {exc}") from None
    return predictions


def write_curve_csv(points: Sequence[CurvePoint], path: str) -> None:
    write_csv(path, ["threshold", "precision", "retained"], (
        [str(point.threshold),
         "NA" if point.precision is None else str(point.precision), point.retained]
        for point in points))


def write_confusion_csv(confusion: dict[str, dict[str, int]], path: str) -> None:
    labels = sorted(confusion)
    write_csv(path, ["gold\\predicted", *labels],
              ([gold, *(confusion[gold][p] for p in labels)] for gold in labels))


def write_lexicon_csv(predictions: Sequence[Prediction], path: str) -> None:
    """Production output: lemma,predicted,confidence sorted by confidence."""
    ordered = sorted(predictions, key=lambda p: (-p.confidence, p.lemma))
    write_csv(path, ["lemma", "predicted", "confidence"],
              ([p.lemma, p.predicted, str(p.confidence)] for p in ordered))
