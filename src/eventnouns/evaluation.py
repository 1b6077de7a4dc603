"""Cross-validation, precision curves, and confidence filtering.

Evaluation pools held-out predictions across folds: every gold lemma is
predicted exactly once, by the model of the fold that held it out. The
precision curve measures the positive (EVENT) class only, at a grid of
confidence thresholds, and partitioning by a confidence threshold splits
the output lexicon into an accepted part and a part needing review.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .dtree import LabeledExample, Prediction, TreeParams, classify, train
from .features import Dataset, EVENT

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
    pooled: list[Prediction] = []
    fold_accuracies = []
    for fold in folds:
        held_out = set(fold)
        training = [LabeledExample(v, dataset.labels[v.lemma])
                    for i, v in enumerate(dataset.vectors) if i not in held_out]
        tree = train(training, params)
        correct = 0
        for i in fold:
            vector = dataset.vectors[i]
            gold = dataset.labels[vector.lemma]
            prediction = replace(
                classify(tree, vector, laplace=params.laplace_confidence),
                gold=gold)
            pooled.append(prediction)
            if prediction.predicted == gold:
                correct += 1
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


def write_predictions_csv(predictions: Sequence[Prediction], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lemma", "gold", "predicted", "confidence"])
        for p in predictions:
            writer.writerow([p.lemma, p.gold if p.gold is not None else "",
                             p.predicted, str(p.confidence)])


def read_predictions_csv(path: str) -> list[Prediction]:
    predictions = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["lemma", "gold", "predicted", "confidence"]:
            raise ValueError(f"{path}: bad predictions header {header!r}")
        for row in reader:
            if not row:
                continue
            lemma, gold, predicted, confidence = row
            predictions.append(Prediction(lemma, predicted, float(confidence),
                                          gold or None))
    return predictions


def write_curve_csv(points: Sequence[CurvePoint], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "precision", "retained"])
        for point in points:
            precision = "NA" if point.precision is None else str(point.precision)
            writer.writerow([str(point.threshold), precision, point.retained])


def write_confusion_csv(confusion: dict[str, dict[str, int]], path: str) -> None:
    labels = sorted(confusion)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gold\\predicted", *labels])
        for gold in labels:
            writer.writerow([gold, *(confusion[gold][p] for p in labels)])


def write_lexicon_csv(predictions: Sequence[Prediction], path: str) -> None:
    """Production output: lemma,predicted,confidence sorted by confidence."""
    ordered = sorted(predictions, key=lambda p: (-p.confidence, p.lemma))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lemma", "predicted", "confidence"])
        for p in ordered:
            writer.writerow([p.lemma, p.predicted, str(p.confidence)])
