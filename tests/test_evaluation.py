import random

import pytest

from eventnouns.dtree import Prediction, TreeParams
from eventnouns.evaluation import (
    cross_validate,
    filter_by_confidence,
    format_report,
    precision_curve,
    read_predictions_csv,
    stratified_folds,
    write_curve_csv,
    write_predictions_csv,
)
from eventnouns.features import Dataset, EVENT, FeatureVector, NON_EVENT


def zero_dataset(n_event, n_non_event, counts=(0,)):
    vectors = []
    labels = {}
    for i in range(n_event):
        lemma = f"e{i:03d}"
        vectors.append(FeatureVector(lemma, tuple(counts), 0))
        labels[lemma] = EVENT
    for i in range(n_non_event):
        lemma = f"n{i:03d}"
        vectors.append(FeatureVector(lemma, tuple(counts), 0))
        labels[lemma] = NON_EVENT
    return Dataset(tuple(f"C-{i}" for i in range(len(counts))),
                   tuple(vectors), labels)


def separable_dataset(n_event=30, n_non_event=30):
    vectors = []
    labels = {}
    for i in range(n_event):
        lemma = f"e{i:03d}"
        vectors.append(FeatureVector(lemma, (1 + i % 3, i % 2), 5))
        labels[lemma] = EVENT
    for i in range(n_non_event):
        lemma = f"n{i:03d}"
        vectors.append(FeatureVector(lemma, (0, i % 2), 5))
        labels[lemma] = NON_EVENT
    return Dataset(("C-0", "C-1"), tuple(vectors), labels)


# --- stratified folds ---------------------------------------------------------

def test_exact_stratification():
    folds = stratified_folds(zero_dataset(10, 10), k=10, seed=1)
    for fold in folds:
        assert len(fold) == 2
        labels = {"e" if i < 10 else "n" for i in fold}
        assert labels == {"e", "n"}


def test_folds_deterministic_for_seed():
    dataset = zero_dataset(13, 17)
    assert stratified_folds(dataset, 5, seed=42) == stratified_folds(dataset, 5, seed=42)
    assert stratified_folds(dataset, 5, seed=42) != stratified_folds(dataset, 5, seed=43)


def test_folds_partition_dataset():
    dataset = zero_dataset(23, 31)
    folds = stratified_folds(dataset, 7, seed=3)
    flat = sorted(i for fold in folds for i in fold)
    assert flat == list(range(len(dataset)))


def test_spanish_sized_fold_shape():
    # 100 + 99 items in 10 folds: nine folds of 20 and one of 19,
    # class split 10/10 or 10/9
    dataset = zero_dataset(100, 99)
    folds = stratified_folds(dataset, 10, seed=0)
    sizes = sorted(len(fold) for fold in folds)
    assert sizes == [19] + [20] * 9
    for fold in folds:
        events = sum(1 for i in fold if i < 100)
        assert events == 10
        assert len(fold) - events in (9, 10)


def test_small_class_spreads_one_per_fold():
    dataset = zero_dataset(3, 17)
    folds = stratified_folds(dataset, 10, seed=5)
    for fold in folds:
        assert sum(1 for i in fold if i < 3) <= 1
        assert len(fold) >= 1


def test_fold_errors():
    dataset = zero_dataset(3, 3)
    with pytest.raises(ValueError):
        stratified_folds(dataset, 1, seed=0)
    with pytest.raises(ValueError):
        stratified_folds(dataset, 7, seed=0)
    with pytest.raises(ValueError):
        stratified_folds(Dataset(("C-0",), (FeatureVector("a", (0,), 0),)), 2, 0)


# --- cross validation -----------------------------------------------------------

def test_cross_validate_needs_labels():
    unlabeled = Dataset(("C-0",), (FeatureVector("a", (0,), 0), FeatureVector("b", (1,), 1)))
    with pytest.raises(ValueError) as exc:
        cross_validate(unlabeled, TreeParams(), k=2, seed=0)
    assert str(exc.value) == "cross_validate needs a labeled dataset"


def test_separable_dataset_scores_perfectly():
    report = cross_validate(separable_dataset(), TreeParams(), k=10, seed=0)
    assert report.mean_accuracy == 1.0
    assert all(a == 1.0 for a in report.fold_accuracies)


def test_all_zero_vectors_fall_back_to_majority():
    report = cross_validate(zero_dataset(40, 60), TreeParams(), k=10, seed=0)
    assert report.mean_accuracy == pytest.approx(0.6)
    assert all(p.predicted == NON_EVENT for p in report.predictions)


def test_lowercase_labels_cross_validate_like_canonical_ones():
    vectors = tuple(FeatureVector(f"w{i}", (i % 3, i), 5) for i in range(6))
    labels = {v.lemma: ("event" if i < 3 else "non_event") for i, v in enumerate(vectors)}
    lower = Dataset(("C-0", "C-1"), vectors, labels)
    upper = Dataset(("C-0", "C-1"), vectors,
                    {lemma: label.upper() for lemma, label in labels.items()})
    assert lower.labels == upper.labels
    params = TreeParams(min_leaf=1)
    assert cross_validate(lower, params, k=3, seed=0) == \
        cross_validate(upper, params, k=3, seed=0)


def test_pooled_predictions_cover_each_lemma_once():
    dataset = separable_dataset(21, 17)
    report = cross_validate(dataset, TreeParams(), k=5, seed=9)
    assert sorted(p.lemma for p in report.predictions) == \
        sorted(v.lemma for v in dataset.vectors)
    assert all(p.gold is not None for p in report.predictions)


def test_confusion_matrix_totals():
    # the second dataset holds one class, so every fold tree is one leaf
    for dataset in (separable_dataset(12, 14), separable_dataset(12, 0)):
        report = cross_validate(dataset, TreeParams(), k=4, seed=2)
        total = sum(c for row in report.confusion.values() for c in row.values())
        assert total == len(dataset)
        correct = sum(report.confusion[label][label] for label in report.confusion)
        assert correct / total == pytest.approx(report.mean_accuracy)
        labels = sorted({p.gold for p in report.predictions}
                        | {p.predicted for p in report.predictions})
        recount = {gold: {predicted: 0 for predicted in labels} for gold in labels}
        for p in report.predictions:
            recount[p.gold][p.predicted] += 1
        assert report.confusion == recount
        assert report.mean_accuracy == \
            sum(p.predicted == p.gold for p in report.predictions) / len(report.predictions)


# --- precision curve --------------------------------------------------------------

def fixture_predictions():
    return [Prediction("a", EVENT, 0.9, EVENT),
            Prediction("b", EVENT, 0.6, NON_EVENT),
            Prediction("c", EVENT, 0.7, EVENT)]


def test_curve_point_at_midrange_threshold():
    points = {p.threshold: p for p in
              precision_curve(fixture_predictions(), thresholds=[0.65])}
    assert points[0.65].precision == pytest.approx(1.0)
    assert points[0.65].retained == 2


def test_curve_at_zero_is_overall_precision():
    (point,) = precision_curve(fixture_predictions(), thresholds=[0.0])
    assert point.retained == 3
    assert point.precision == pytest.approx(2 / 3)


def test_curve_threshold_comparison_is_inclusive():
    (point,) = precision_curve(fixture_predictions(), thresholds=[0.9])
    assert point.retained == 1
    assert point.precision == pytest.approx(1.0)


def test_curve_undefined_precision_is_none():
    (point,) = precision_curve(fixture_predictions(), thresholds=[0.95])
    assert point.precision is None
    assert point.retained == 0


def test_curve_default_grid():
    points = precision_curve(fixture_predictions())
    assert len(points) == 21
    assert points[0].threshold == 0.0
    assert points[-1].threshold == 1.0


def test_curve_ignores_non_positive_predictions():
    predictions = fixture_predictions() + [Prediction("d", NON_EVENT, 0.99, EVENT)]
    (point,) = precision_curve(predictions, thresholds=[0.0])
    assert point.retained == 3


def test_curve_requires_gold():
    with pytest.raises(ValueError):
        precision_curve([Prediction("a", EVENT, 0.9)], thresholds=[0.0])


def test_retained_non_increasing_random():
    rng = random.Random(123)
    for _ in range(50):
        predictions = [
            Prediction(f"w{i}", rng.choice([EVENT, NON_EVENT]),
                       round(rng.random(), 3), rng.choice([EVENT, NON_EVENT]))
            for i in range(rng.randint(0, 40))]
        points = precision_curve(predictions)
        retained = [p.retained for p in points]
        assert retained == sorted(retained, reverse=True)
        for point in points:
            if point.retained == 0:
                assert point.precision is None


# --- confidence filtering -----------------------------------------------------------

def test_filter_all_accepted_at_zero():
    predictions = fixture_predictions()
    accepted, to_review = filter_by_confidence(predictions, 0.0)
    assert accepted == predictions and to_review == []


def test_filter_none_above_max():
    predictions = fixture_predictions()
    accepted, to_review = filter_by_confidence(predictions, 0.91)
    assert accepted == [] and to_review == predictions


def test_filter_partition_exact_random():
    rng = random.Random(321)
    for _ in range(50):
        predictions = [
            Prediction(f"w{i}", EVENT, rng.random(), EVENT)
            for i in range(rng.randint(0, 30))]
        threshold = rng.random()
        accepted, to_review = filter_by_confidence(predictions, threshold)
        assert len(accepted) + len(to_review) == len(predictions)
        assert all(p.confidence >= threshold for p in accepted)
        assert all(p.confidence < threshold for p in to_review)
        assert sorted(p.lemma for p in accepted + to_review) == \
            sorted(p.lemma for p in predictions)


def test_filter_threshold_range():
    with pytest.raises(ValueError):
        filter_by_confidence([], 1.5)


# --- report output -------------------------------------------------------------------

def test_report_and_csv_roundtrip(tmp_path):
    report = cross_validate(separable_dataset(8, 8), TreeParams(), k=4, seed=0)
    text = format_report(report, 4)
    assert "mean accuracy: 1.0000" in text
    assert "confusion matrix" in text

    path = tmp_path / "predictions.csv"
    write_predictions_csv(report.predictions, str(path))
    assert read_predictions_csv(str(path)) == report.predictions


def test_curve_csv_uses_na_marker(tmp_path):
    points = precision_curve(fixture_predictions(), thresholds=[0.0, 0.95])
    path = tmp_path / "curve.csv"
    write_curve_csv(points, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "threshold,precision,retained"
    assert lines[2].startswith("0.95,NA,0")


def test_read_predictions_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_text("lemma,predicted,confidence\nwar,EVENT,1.0\n")
    with pytest.raises(ValueError):
        read_predictions_csv(str(path))


PREDICTIONS_HEADER = "lemma,gold,predicted,confidence\n"


@pytest.mark.parametrize("row, message", [
    ("a,EVENT,EVENT", "expected 4 fields, got 3"),
    ("a,EVENT,EVENT,0.5,x", "expected 4 fields, got 5"),
    ("a,FOO,EVENT,0.9", "unknown label: 'FOO'"),
    ("a,NON_EVENT,BAR,0.9", "unknown label: 'BAR'"),
    ("a,EVENT,,0.9", "unknown label: ''"),
    ("a,EVENT,EVENT,nan", "not in [0, 1]"),
    ("a,EVENT,EVENT,2.5", "not in [0, 1]"),
    ("a,EVENT,EVENT,-0.1", "not in [0, 1]"),
    ("a,EVENT,EVENT,high", "could not convert"),
], ids=["3-fields", "5-fields", "bad-gold", "bad-predicted", "empty-predicted",
        "nan-confidence", "confidence-above-1", "negative-confidence",
        "text-confidence"])
def test_read_predictions_csv_rejects_bad_rows(tmp_path, row, message):
    path = tmp_path / "preds.csv"
    # the blank row still counts, so the bad row is row 4
    path.write_text(PREDICTIONS_HEADER + "b,EVENT,EVENT,1.0\n\n" + row + "\n")
    with pytest.raises(ValueError) as exc:
        read_predictions_csv(str(path))
    assert str(exc.value).startswith(f"{path}:4: ")
    assert message in str(exc.value)


def test_read_predictions_csv_normalizes_labels(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_text(PREDICTIONS_HEADER + "a,event,Non_Event,0\nb,,EVENT,1\n")
    assert read_predictions_csv(str(path)) == [
        Prediction("a", NON_EVENT, 0.0, EVENT), Prediction("b", EVENT, 1.0, None)]
