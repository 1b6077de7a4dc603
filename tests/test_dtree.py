import json
import math
import random
import re
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from eventnouns.dtree import (
    ColumnIndex,
    LabeledExample,
    TreeNode,
    TreeParams,
    best_split,
    classify,
    count_nodes,
    format_tree,
    load_model,
    pessimistic_upper_bound,
    save_model,
    train,
    tree_depth,
    tree_from_dict,
    tree_to_dict,
)
from eventnouns.evaluation import cross_validate, stratified_folds
from eventnouns.features import (
    Dataset,
    EVENT,
    FeatureVector,
    NON_EVENT,
    to_relative,
)
from eventnouns import dtree, evaluation


def ex(counts, label, lemma="w"):
    return LabeledExample(FeatureVector(lemma, tuple(counts), sum(counts)), label)


def make_examples(values_by_attr, labels):
    rows = list(zip(*values_by_attr)) if len(values_by_attr) > 1 else \
        [(v,) for v in values_by_attr[0]]
    return [ex(row, label, f"w{i}") for i, (row, label) in enumerate(zip(rows, labels))]


# --- entropy ------------------------------------------------------------------

def entropy(class_counts) -> float:
    """Shannon entropy in bits of a class distribution, given its counts:
    the reference for the tree's two-count entropy and the split oracle."""
    counts = list(class_counts)
    if any(c < 0 for c in counts):
        raise ValueError("negative class count")
    total = sum(counts)
    if total <= 0:
        raise ValueError("empty class distribution")
    result = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            result -= p * math.log2(p)
    return result


def test_entropy_balanced():
    assert entropy([4, 4]) == pytest.approx(1.0, abs=1e-12)


def test_entropy_pure():
    assert entropy([8, 0]) == 0.0


def test_entropy_closed_form():
    expected = -(3 / 8) * math.log2(3 / 8) - (5 / 8) * math.log2(5 / 8)
    assert entropy([3, 5]) == pytest.approx(expected, abs=1e-9)


def test_two_count_entropy_is_entropy():
    for a in range(61):
        for b in range(61):
            if a + b:
                assert dtree._entropy2(a, b) == entropy([a, b]), (a, b)


def test_entropy_rejects_empty_distribution():
    with pytest.raises(ValueError):
        entropy([0, 0])
    with pytest.raises(ValueError):
        entropy([])
    with pytest.raises(ValueError):
        entropy([-1, 2])


# --- best_split ----------------------------------------------------------------

def test_best_split_perfect_balanced():
    examples = make_examples([[0, 0, 1, 1]], [NON_EVENT, NON_EVENT, EVENT, EVENT])
    threshold, gain, ratio = best_split(examples, 0)
    assert threshold == pytest.approx(0.5)
    assert gain == pytest.approx(1.0, abs=1e-12)
    assert ratio == pytest.approx(1.0, abs=1e-12)


def test_best_split_constant_attribute():
    examples = make_examples([[2, 2, 2, 2]], [NON_EVENT, EVENT, NON_EVENT, EVENT])
    assert best_split(examples, 0) is None


def test_best_split_one_label_is_none():
    examples = make_examples([[0, 1, 2, 3]], [EVENT] * 4)
    assert best_split(examples, 0) is None


@pytest.mark.parametrize("labels", [["A", "B"], [EVENT, "event"], [NON_EVENT, "FOO"]])
def test_unknown_labels_are_rejected(labels):
    unknown = next(label for label in labels if label not in (EVENT, NON_EVENT))
    message = f"unknown label: '{unknown}' (expected EVENT or NON_EVENT)"
    with pytest.raises(ValueError, match=re.escape(message)):
        make_examples([[0, 1, 2, 3]], labels * 2)


def test_best_split_needs_two_examples():
    with pytest.raises(ValueError) as exc:
        best_split([ex([1], EVENT)], 0)
    assert str(exc.value) == "best_split needs at least 2 examples"


def test_best_split_respects_min_leaf():
    examples = make_examples([[0, 1, 1, 1]], [NON_EVENT, EVENT, EVENT, EVENT])
    assert best_split(examples, 0, min_leaf=1) is not None
    assert best_split(examples, 0, min_leaf=2) is None


def oracle_best_split(examples, attribute, min_leaf=1):
    """Naive enumeration of every midpoint threshold, recomputed from scratch."""
    values = sorted({e.vector.counts[attribute] for e in examples})
    labels = sorted({e.label for e in examples})

    def dist(subset):
        return [sum(1 for e in subset if e.label == label) for label in labels]

    def h(counts):
        total = sum(counts)
        return -sum((c / total) * math.log2(c / total) for c in counts if c)

    n = len(examples)
    best = None
    for low, high in zip(values, values[1:]):
        threshold = (low + high) / 2
        left = [e for e in examples if e.vector.counts[attribute] <= threshold]
        right = [e for e in examples if e.vector.counts[attribute] > threshold]
        if len(left) < min_leaf or len(right) < min_leaf:
            continue
        gain = h(dist(examples)) - (len(left) / n) * h(dist(left)) \
            - (len(right) / n) * h(dist(right))
        if gain <= 1e-12:
            continue
        p = len(left) / n
        split_info = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
        ratio = gain / split_info
        if best is None or ratio > best[2] + 1e-12:
            best = (threshold, gain, ratio)
    return best


def test_best_split_matches_enumeration_on_fixture():
    examples = make_examples([[0, 1, 2, 3]], [NON_EVENT, EVENT, NON_EVENT, EVENT])
    got = best_split(examples, 0, min_leaf=1)
    want = oracle_best_split(examples, 0, min_leaf=1)
    assert got is not None and want is not None
    for a, b in zip(got, want):
        assert a == pytest.approx(b, abs=1e-9)


def test_best_split_matches_enumeration_randomized():
    rng = random.Random(20240)
    for _ in range(300):
        n = rng.randint(2, 12)
        dim = rng.randint(1, 4)
        examples = [
            ex([rng.randint(0, 4) for _ in range(dim)],
               rng.choice([EVENT, NON_EVENT]), f"w{i}")
            for i in range(n)]
        for attribute in range(dim):
            for min_leaf in (1, 2):
                got = best_split(examples, attribute, min_leaf=min_leaf)
                want = oracle_best_split(examples, attribute, min_leaf)
                if want is None:
                    assert got is None
                else:
                    assert got is not None
                    for a, b in zip(got, want):
                        assert a == pytest.approx(b, abs=1e-9)


# --- pessimistic bound -----------------------------------------------------------

def test_bound_zero_error_closed_form():
    assert pessimistic_upper_bound(0, 2, 0.25) == pytest.approx(0.5, abs=1e-12)
    assert pessimistic_upper_bound(0, 1, 0.25) == pytest.approx(0.75, abs=1e-12)


def test_bound_monotone_in_errors():
    previous = -1.0
    for errors in range(11):
        bound = pessimistic_upper_bound(errors, 10, 0.25)
        assert bound > previous
        previous = bound
    assert pessimistic_upper_bound(1, 10, 0.25) > pessimistic_upper_bound(0, 10, 0.25)


def test_bound_stays_in_unit_interval():
    for errors in range(21):
        assert 0.0 <= pessimistic_upper_bound(errors, 20, 0.25) <= 1.0


@pytest.mark.parametrize("errors, n, cf, expected", [
    (1, 10, 0.25, 0.241256150100949),
    (3, 7, 0.05, 0.7639899124268491),
    (5, 40, 0.9, 0.08192754927276238),
    (2, 3, 0.5, 0.8333333333333334),
    (7, 8, 0.25, 0.9748438942569028),
    (0, 12, 0.25, 0.10910128185966073),
])
def test_bound_floats_are_pinned(errors, n, cf, expected):
    # exact: pruning decisions, and so every tree, depend on these floats
    assert pessimistic_upper_bound(errors, n, cf) == expected


def test_bound_validates_inputs():
    with pytest.raises(ValueError):
        pessimistic_upper_bound(-1, 5, 0.25)
    with pytest.raises(ValueError):
        pessimistic_upper_bound(6, 5, 0.25)
    with pytest.raises(ValueError):
        pessimistic_upper_bound(0, 0, 0.25)
    with pytest.raises(ValueError):
        pessimistic_upper_bound(0, 5, 0.0)


# --- training ---------------------------------------------------------------------

def test_pure_examples_make_a_single_leaf():
    tree = train([ex([1, 0], EVENT), ex([0, 2], EVENT)], TreeParams())
    assert tree.is_leaf
    assert tree.class_counts == {EVENT: 2}


def test_two_level_interaction_dataset_fits_exactly():
    # needs both attributes: attribute 0 isolates the pure-right side,
    # attribute 1 then separates the left side
    examples = [ex([0, 0], NON_EVENT, "a"), ex([0, 1], EVENT, "b"),
                ex([1, 0], EVENT, "c"), ex([1, 1], EVENT, "d")]
    params = TreeParams(min_leaf=1, pruning=False)
    tree = train(examples, params)
    assert not tree.is_leaf
    assert tree.attribute == 0  # tie against attribute 1 breaks low
    assert tree_depth(tree) == 2
    for example in examples:
        assert classify(tree, example.vector).predicted == example.label


def test_training_is_deterministic():
    rng = random.Random(5)
    examples = [ex([rng.randint(0, 3) for _ in range(4)],
                   rng.choice([EVENT, NON_EVENT]), f"w{i}") for i in range(40)]
    assert train(examples, TreeParams()) == train(examples, TreeParams())


def test_train_rejects_bad_input():
    with pytest.raises(ValueError):
        train([], TreeParams())
    with pytest.raises(ValueError):
        train([ex([1], EVENT), ex([1, 2], NON_EVENT)], TreeParams())


def _random_consistent_examples(rng, n, dim):
    # continuous attribute values are distinct with probability one, so the
    # dataset is consistent and greedy growth can always separate it
    examples = []
    for i in range(n):
        counts = tuple(rng.random() * 4 for _ in range(dim))
        examples.append(LabeledExample(FeatureVector(f"w{i}", counts, 1),
                                       rng.choice([EVENT, NON_EVENT])))
    return examples


def test_consistent_fit_with_min_leaf_one():
    for seed in range(30):
        rng = random.Random(seed)
        examples = _random_consistent_examples(rng, rng.randint(2, 40),
                                               rng.randint(1, 4))
        tree = train(examples, TreeParams(min_leaf=1, pruning=False))
        hits = sum(1 for e in examples
                   if classify(tree, e.vector).predicted == e.label)
        assert hits == len(examples)


def test_pruning_never_increases_node_count():
    for seed in range(30):
        rng = random.Random(1000 + seed)
        examples = _random_consistent_examples(rng, 60, 3)
        # flip a few labels to create noise worth pruning
        noisy = [
            LabeledExample(e.vector,
                           (NON_EVENT if e.label == EVENT else EVENT)
                           if rng.random() < 0.1 else e.label)
            for e in examples]
        unpruned = train(noisy, TreeParams(min_leaf=2, pruning=False))
        pruned = train(noisy, TreeParams(min_leaf=2, pruning=True))
        assert count_nodes(pruned) <= count_nodes(unpruned)


def _reference_estimated_errors(node, cf):
    if node.is_leaf:
        n = node.total
        if n == 0:
            return 0.0
        errors = n - max(node.class_counts.values())
        return n * pessimistic_upper_bound(errors, n, cf)
    return (_reference_estimated_errors(node.left, cf)
            + _reference_estimated_errors(node.right, cf))


def _reference_pruned(node, cf):
    """Two-pass pruning: prune the children, then re-walk the subtree to
    estimate its errors."""
    if node.is_leaf:
        return node
    node = TreeNode(node.class_counts, node.attribute, node.threshold,
                    _reference_pruned(node.left, cf), _reference_pruned(node.right, cf))
    n = node.total
    errors = n - max(node.class_counts.values())
    leaf_estimate = n * pessimistic_upper_bound(errors, n, cf)
    if leaf_estimate <= _reference_estimated_errors(node, cf):
        return TreeNode(dict(node.class_counts))
    return node


def test_pruning_matches_two_pass_reference():
    pruned_somewhere = False
    for seed in range(12):
        rng = random.Random(500 + seed)
        # small integer counts with a noisy signal on attribute 0: many tied
        # values, deep unpruned trees, and subtrees worth pruning
        examples = []
        for i in range(rng.randint(20, 120)):
            label = rng.choice([EVENT, NON_EVENT])
            signal = rng.randint(1, 4) if label == EVENT else 0
            counts = [signal if rng.random() > 0.2 else rng.randint(0, 4)]
            counts += [rng.randint(0, 3) for _ in range(3)]
            examples.append(ex(counts, label, f"w{i}"))
        for cf in (0.05, 0.25, 0.5, 0.9):
            for min_leaf in (1, 2):
                grown = train(examples, TreeParams(min_leaf=min_leaf, pruning=False))
                pruned = train(examples, TreeParams(min_leaf=min_leaf,
                                                    confidence_factor=cf))
                assert tree_to_dict(pruned) == tree_to_dict(_reference_pruned(grown, cf))
                pruned_somewhere |= count_nodes(pruned) < count_nodes(grown)
    assert pruned_somewhere


def test_params_validation():
    with pytest.raises(ValueError):
        TreeParams(min_leaf=0)
    with pytest.raises(ValueError):
        TreeParams(confidence_factor=1.5)
    # 1 - 1e-17 rounds to 1.0, whose normal quantile pruning cannot take
    with pytest.raises(ValueError):
        TreeParams(confidence_factor=1e-17)
    TreeParams(confidence_factor=5.56e-17)


# --- classification -------------------------------------------------------------

def test_classify_reads_leaf_distribution():
    leaf = TreeNode({NON_EVENT: 60, EVENT: 40})
    prediction = classify(leaf, FeatureVector("storm", (0, 0), 0))
    assert prediction.predicted == NON_EVENT
    assert prediction.confidence == pytest.approx(0.6)
    assert prediction.lemma == "storm"
    assert prediction.gold is None


def test_classify_pure_leaf_full_confidence():
    leaf = TreeNode({EVENT: 7})
    prediction = classify(leaf, FeatureVector("war", (1,), 1))
    assert (prediction.predicted, prediction.confidence) == (EVENT, 1.0)


def test_zero_vector_routes_to_confident_wrong_leaf():
    # the silence failure mode: an all-zero vector reaches a pure NON_EVENT
    # leaf and gets a maximally confident wrong answer for an event noun
    tree = TreeNode({EVENT: 5, NON_EVENT: 5}, attribute=0, threshold=0.5,
                    left=TreeNode({NON_EVENT: 5}), right=TreeNode({EVENT: 5}))
    prediction = classify(tree, FeatureVector("terremoto", (0, 0), 0))
    assert (prediction.predicted, prediction.confidence) == (NON_EVENT, 1.0)


def test_classify_tie_prefers_non_event():
    leaf = TreeNode({EVENT: 3, NON_EVENT: 3})
    assert classify(leaf, FeatureVector("w", (0,), 0)).predicted == NON_EVENT


def test_classify_laplace_confidence():
    leaf = TreeNode({EVENT: 7})
    prediction = classify(leaf, FeatureVector("w", (0,), 0), laplace=True)
    assert prediction.confidence == pytest.approx(8 / 9)


def test_classify_dimension_check():
    tree = TreeNode({EVENT: 1, NON_EVENT: 1}, attribute=3, threshold=0.5,
                    left=TreeNode({NON_EVENT: 1}), right=TreeNode({EVENT: 1}))
    with pytest.raises(ValueError):
        classify(tree, FeatureVector("w", (0, 0), 0))


def test_classify_rejects_an_empty_leaf():
    tree = TreeNode({EVENT: 1, NON_EVENT: 1}, attribute=0, threshold=0.5,
                    left=TreeNode({EVENT: 0, NON_EVENT: 0}), right=TreeNode({EVENT: 1}))
    with pytest.raises(ValueError) as exc:
        classify(tree, FeatureVector("w", (0,), 0))
    assert str(exc.value) == "reached an empty leaf"


def test_confidence_ranges():
    rng = random.Random(77)
    examples = [ex([rng.randint(0, 3)], rng.choice([EVENT, NON_EVENT]), f"w{i}")
                for i in range(30)]
    tree = train(examples, TreeParams())
    for e in examples:
        raw = classify(tree, e.vector).confidence
        smoothed = classify(tree, e.vector, laplace=True).confidence
        assert 0.5 <= raw <= 1.0
        assert 0.0 < smoothed < 1.0


# --- serialization -----------------------------------------------------------------

def test_tree_dict_roundtrip():
    rng = random.Random(13)
    examples = [ex([rng.randint(0, 3) for _ in range(3)],
                   rng.choice([EVENT, NON_EVENT]), f"w{i}") for i in range(50)]
    tree = train(examples, TreeParams())
    assert tree_from_dict(tree_to_dict(tree)) == tree


def _split_tree():
    return {"counts": {EVENT: 3, NON_EVENT: 2}, "attribute": 0, "threshold": 0.5,
            "left": {"counts": {NON_EVENT: 2}}, "right": {"counts": {EVENT: 3}}}


def _set(key, value, node="root"):
    def edit(tree):
        (tree if node == "root" else tree[node])[key] = value
    return edit


@pytest.mark.parametrize("edit", [
    _set("counts", {"FOO": 3, NON_EVENT: 2}),
    _set("counts", {EVENT: -5, NON_EVENT: 2}, node="left"),
    _set("counts", {EVENT: 1.5, NON_EVENT: 2}, node="left"),
    _set("counts", {EVENT: True}, node="right"),
    _set("counts", {EVENT: "3"}, node="right"),
    _set("counts", {EVENT: 0, NON_EVENT: 0}, node="right"),
    _set("counts", {}, node="right"),
    _set("attribute", -1),
    _set("attribute", 0.0),
    _set("attribute", True),
    _set("threshold", math.nan),
    _set("threshold", math.inf),
], ids=["unknown-label", "negative-count", "float-count", "bool-count",
        "text-count", "zero-counts", "no-counts", "negative-attribute", "float-attribute",
        "bool-attribute", "nan-threshold", "inf-threshold"])
def test_tree_from_dict_rejects_malformed_nodes(edit):
    tree = _split_tree()
    assert tree_from_dict(tree).attribute == 0  # the unedited tree loads
    edit(tree)
    with pytest.raises(ValueError, match="bad model"):
        tree_from_dict(tree)


def test_model_file_roundtrip(tmp_path):
    examples = [ex([0, 0], NON_EVENT), ex([1, 2], EVENT),
                ex([2, 1], EVENT), ex([0, 1], NON_EVENT)]
    params = TreeParams(min_leaf=1, pruning=False)
    tree = train(examples, params)
    path = tmp_path / "model.json"
    save_model(tree, str(path), cue_ids=["C-1", "C-2"], params=params,
               language="EN")
    loaded_tree, cue_ids, loaded_params, language = load_model(str(path))
    assert loaded_tree == tree
    assert cue_ids == ("C-1", "C-2")
    assert loaded_params == params
    assert language == "EN"


def _saved_model(tmp_path):
    tree = TreeNode({EVENT: 1, NON_EVENT: 1}, attribute=0, threshold=0.5,
                    left=TreeNode({NON_EVENT: 1}), right=TreeNode({EVENT: 1}))
    path = tmp_path / "model.json"
    save_model(tree, str(path), cue_ids=["C-1"], params=TreeParams())
    return path


@pytest.mark.parametrize("edit, message", [
    (lambda model: model["tree"].update(left=5), "bad model node: 5"),
    (lambda model: model.update(params=[1]), "bad model params: [1]"),
], ids=["number-node", "list-params"])
def test_load_model_rejects_a_part_that_is_not_an_object(tmp_path, edit, message):
    path = _saved_model(tmp_path)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as exc:
        load_model(str(path))
    assert str(exc.value) == f"{path}: {message}"


def test_load_model_names_the_file_of_damaged_json(tmp_path):
    path = _saved_model(tmp_path)
    text = path.read_text()[:50]
    path.write_text(text)
    with pytest.raises(json.JSONDecodeError) as decode:
        json.loads(text)
    with pytest.raises(ValueError) as exc:
        load_model(str(path))
    assert str(exc.value) == f"{path}: {decode.value}"


def test_model_file_may_start_with_a_byte_order_mark(tmp_path):
    path = _saved_model(tmp_path)
    marked = tmp_path / "marked.json"
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert load_model(str(marked)) == load_model(str(path))


def test_format_tree_renders_tests_and_leaves():
    tree = TreeNode({EVENT: 2, NON_EVENT: 1}, attribute=0, threshold=0.5,
                    left=TreeNode({NON_EVENT: 1}), right=TreeNode({EVENT: 2}))
    text = format_tree(tree, ["EN-1"])
    assert "EN-1 <= 0.5:" in text
    assert "EN-1 > 0.5:" in text
    assert "leaf [EVENT=2] -> EVENT" in text


# --- histogram split search against the pairwise scan -----------------------------

def _reference_best_split(examples, attribute, *, min_leaf=1):
    """The pairwise scan: sort every example's (value, label) pair and test
    the boundary after each one whose next value differs."""
    pairs = sorted((ex.vector.counts[attribute], ex.label) for ex in examples)
    n = len(pairs)
    total_counts = Counter(label for _, label in pairs)
    total_entropy = entropy(total_counts.values())
    left_counts = Counter()
    best = None
    for i in range(n - 1):
        left_counts[pairs[i][1]] += 1
        value, next_value = pairs[i][0], pairs[i + 1][0]
        if value == next_value:
            continue
        n_left = i + 1
        n_right = n - n_left
        if n_left < min_leaf or n_right < min_leaf:
            continue
        right_counts = {label: total_counts[label] - left_counts[label]
                        for label in total_counts}
        gain = (total_entropy
                - (n_left / n) * entropy(left_counts.values())
                - (n_right / n) * entropy(right_counts.values()))
        if gain <= 1e-12:
            continue
        p_left = n_left / n
        split_info = -(p_left * math.log2(p_left)
                       + (1 - p_left) * math.log2(1 - p_left))
        ratio = gain / split_info
        if best is None or ratio > best[2] + 1e-12:
            best = ((value + next_value) / 2, gain, ratio)
    return best


def _reference_node_split(examples, min_leaf):
    best = None
    for attribute in range(len(examples[0].vector.counts)):
        candidate = _reference_best_split(examples, attribute, min_leaf=min_leaf)
        if candidate is not None and (best is None or candidate[2] > best[0] + 1e-12):
            best = (candidate[2], attribute, candidate[0])
    return None if best is None else best[1:]


def _reference_grow(examples, params, label_order):
    """Growth without masks or histograms: each node is split by the
    pairwise scan over its own examples. The oracle of ``dtree._grow``."""
    counts = {label: sum(1 for e in examples if e.label == label)
              for label in label_order}
    if sum(1 for c in counts.values() if c) == 1 or len(examples) < 2 * params.min_leaf:
        return TreeNode(counts)
    best = _reference_node_split(examples, params.min_leaf)
    if best is None:
        return TreeNode(counts)
    attribute, threshold = best
    left = [e for e in examples if e.vector.counts[attribute] <= threshold]
    right = [e for e in examples if e.vector.counts[attribute] > threshold]
    return TreeNode(counts, attribute, threshold,
                    _reference_grow(left, params, label_order),
                    _reference_grow(right, params, label_order))


def _reference_train(examples, params):
    """:func:`train` by the reference grower and the two-pass pruning."""
    tree = _reference_grow(examples, params, sorted({e.label for e in examples}))
    return _reference_pruned(tree, params.confidence_factor) if params.pruning else tree


# the forms of a seeded dataset; "spread" is the one whose columns hold more
# than 64 distinct values, so that the index keeps most of them as places
FORMS = ["counts", "relative", "spread"]


def _seeded_dataset(seed, n, form="counts"):
    """Labeled count vectors with a noisy signal on the first two cues, as
    counts, with many tied values; ``relative``, after ``to_relative``,
    mostly distinct float ones; or ``spread``, relative with lemma totals
    spread over thousands, where nearly every value of a column is held by
    one row, as ``--relative`` gives on a corpus of widely spread lemma
    frequencies."""
    rng = random.Random(seed)
    vectors, labels = [], {}
    for i in range(n):
        label = rng.choice([EVENT, NON_EVENT])
        signal = [rng.randint(1, 5) if label == EVENT and rng.random() > 0.3 else 0
                  for _ in range(2)]
        counts = signal + [rng.randint(0, 3) for _ in range(3)]
        total = sum(counts) + rng.randint(0, 5000 if form == "spread" else 6)
        vectors.append(FeatureVector(f"w{i:04d}", tuple(counts), total))
        labels[f"w{i:04d}"] = label
    dataset = Dataset(("C-1", "C-2", "C-3", "C-4", "C-5"), tuple(vectors), labels)
    return dataset if form == "counts" else to_relative(dataset)


def _examples_of(dataset):
    return [LabeledExample(v, dataset.labels[v.lemma]) for v in dataset.vectors]


@pytest.mark.parametrize("form", FORMS)
def test_histogram_split_search_matches_pairwise_reference(form):
    datasets = [_examples_of(_seeded_dataset(900 + seed, 40 + 30 * seed, form))
                for seed in range(5)]
    for examples in datasets:
        for attribute in range(5):
            for min_leaf in (1, 2, 5):
                # exact, not approximate: the floats are the same
                assert best_split(examples, attribute, min_leaf=min_leaf) == \
                    _reference_best_split(examples, attribute, min_leaf=min_leaf)
    grid = [TreeParams(min_leaf=min_leaf, confidence_factor=cf, pruning=pruning)
            for cf in (0.05, 0.25, 0.5, 0.9) for min_leaf in (1, 2, 5)
            for pruning in (True, False)]
    trees = [tree_to_dict(train(examples, params))
             for examples in datasets for params in grid]
    assert trees == [tree_to_dict(_reference_train(examples, params))
                     for examples in datasets for params in grid]
    assert max(count_nodes(tree_from_dict(t)) for t in trees) > 15


def _fold_training_sets(dataset, k, seed):
    examples = _examples_of(dataset)
    for fold in stratified_folds(dataset, k, seed):
        held_out = set(fold)
        yield fold, [e for i, e in enumerate(examples) if i not in held_out]


@pytest.mark.parametrize("form", FORMS)
def test_cross_validation_matches_pairwise_reference(form):
    dataset = _seeded_dataset(77, 1000, form)
    params = TreeParams()
    report = cross_validate(dataset, params, k=10, seed=5)
    predictions, accuracies = [], []
    for fold, training in _fold_training_sets(dataset, 10, 5):
        tree = _reference_train(training, params)
        correct = 0
        for i in fold:
            vector, gold = dataset.vectors[i], dataset.labels[dataset.vectors[i].lemma]
            prediction = classify(tree, vector)
            predictions.append(replace(prediction, gold=gold))
            correct += prediction.predicted == gold
        accuracies.append(correct / len(fold))
    assert report.predictions == sorted(predictions, key=lambda p: p.lemma)
    assert report.fold_accuracies == accuracies


@pytest.mark.parametrize("pruning", [True, False], ids=["pruned", "unpruned"])
@pytest.mark.parametrize("form", FORMS)
def test_each_fold_tree_equals_train_on_its_training_set(monkeypatch, form, pruning):
    dataset = _seeded_dataset(31, 400, form)
    params = TreeParams(min_leaf=1, pruning=pruning)
    grown = []

    def recording_train_rows(index, mask, params):
        grown.append(dtree.train_rows(index, mask, params))
        return grown[-1]

    monkeypatch.setattr(evaluation, "train_rows", recording_train_rows)
    cross_validate(dataset, params, k=7, seed=2)
    assert grown == [train(training, params)
                     for _, training in _fold_training_sets(dataset, 7, 2)]
    assert len(grown) == 7 and min(map(count_nodes, grown)) >= 5


@st.composite
def _small_datasets(draw):
    n = draw(st.integers(2, 30))
    dim = draw(st.integers(1, 3))
    vectors, labels = [], {}
    for i in range(n):
        counts = tuple(draw(st.integers(0, 4)) for _ in range(dim))
        total = sum(counts) + draw(st.integers(0, 3))
        vectors.append(FeatureVector(f"w{i:02d}", counts, total))
        labels[f"w{i:02d}"] = draw(st.sampled_from([EVENT, NON_EVENT]))
    dataset = Dataset(tuple(f"C-{j}" for j in range(dim)), tuple(vectors), labels)
    return to_relative(dataset) if draw(st.booleans()) else dataset


@settings(max_examples=200, deadline=None)
@given(_small_datasets(), st.integers(1, 3), st.booleans(),
       st.sampled_from([0.05, 0.25, 0.5, 0.9]))
def test_training_matches_pairwise_reference_property(dataset, min_leaf, pruning, cf):
    examples = _examples_of(dataset)
    params = TreeParams(min_leaf=min_leaf, confidence_factor=cf, pruning=pruning)
    assert train(examples, params) == _reference_train(examples, params)


def _lopsided_examples(seed, n, relative=False):
    """Three NON_EVENTs to one EVENT, and every EVENT fires C-1 while no
    NON_EVENT does: the root splits on C-1, and its larger, left child holds
    no EVENT row."""
    rng = random.Random(seed)
    examples = []
    for i in range(n):
        label = EVENT if rng.random() < 0.25 else NON_EVENT
        counts = [rng.randint(1, 5) if label == EVENT else 0]
        counts += [rng.randint(0, 3) for _ in range(3)]
        total = sum(counts) + rng.randint(0, 6)
        if relative:
            counts = [c / max(total, 1) for c in counts]
        examples.append(LabeledExample(FeatureVector(f"w{i}", tuple(counts), total),
                                       label))
    return examples


@pytest.mark.parametrize("k", [0, 1, 2, 64, 65, 200, 4097])
def test_value_rows_hold_each_values_rows(k):
    # past 64 values only the 64 most common keep a mask; 4,097 values
    # over 8,194 rows are held by one to about eight rows each
    rng = random.Random(k)
    column = [rng.randrange(k) / 4 for _ in range(2 * k)]
    column[::3] = [int(value) for value in column[::3]]  # 2 and 2.0 are one value
    expected = {}
    for i, value in enumerate(column):
        expected[value] = expected.get(value, 0) | 1 << i
    entries = dtree._value_rows(column)
    assert [value for value, _, _ in entries] == sorted(expected)
    masked = {value: mask for value, mask, places in entries if not places}
    placed = {value: places for value, mask, places in entries if not mask}
    assert len(masked) == min(len(expected), 64) and len(masked) + len(placed) == len(entries)
    for value, mask, places in entries:
        assert mask | sum(1 << (len(column) - 1 - p) for p in places) == expected[value]
    if placed:
        assert min(map(int.bit_count, masked.values())) >= max(map(len, placed.values()))


def test_index_of_distinct_values_grows_linearly_with_its_rows():
    """A column of nearly all distinct values keeps at most 64 masks and one
    place per row, so the index of four times the rows takes about four
    times the memory; a mask for every value would take sixteen times."""
    def traced_peak(n):
        dataset = _seeded_dataset(5, n, "spread")
        rows = [v.counts for v in dataset.vectors]
        labels = [dataset.labels[v.lemma] for v in dataset.vectors]
        tracemalloc.start()
        try:
            index = ColumnIndex(rows, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(len(column) for column in index.columns) > n // 2
        assert all(sum(1 for _, mask, _ in column if mask) <= 64
                   for column in index.columns)
        return peak
    assert traced_peak(8000) < 6 * traced_peak(2000)


def _rows_of(mask):
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


def _check_node_masks(node, index, mask, examples):
    """Walk a grown tree with the row masks its growth gave each node: the
    left child's from ``dtree._at_most`` and the right child's, the parent's
    minus the left's. Returns the number of nodes walked."""
    rows = _rows_of(mask)
    assert node.class_counts == {label: sum(1 for i in rows if examples[i].label == label)
                                 for label in index.label_masks}
    if node.is_leaf:
        return 1
    left = dtree._at_most(index, index.columns[node.attribute], mask, node.threshold)
    right = mask & ~left
    assert _rows_of(left) == {i for i in rows
                              if examples[i].vector.counts[node.attribute] <= node.threshold}
    assert left | right == mask and not left & right and left and right
    return (1 + _check_node_masks(node.left, index, left, examples)
            + _check_node_masks(node.right, index, right, examples))


@pytest.mark.parametrize("min_leaf", [1, 2, 5])
@pytest.mark.parametrize("form", FORMS)
def test_subtracted_histograms_equal_a_fresh_count(form, min_leaf):
    """Each node's class counts equal a fresh count of the rows in its mask,
    and a split's two masks partition its parent's: the right child's is the
    parent's minus the left's."""
    params = TreeParams(min_leaf=min_leaf, pruning=False)

    def walked(examples):
        tree = train(examples, params)
        index = ColumnIndex([e.vector.counts for e in examples], [e.label for e in examples])
        assert _check_node_masks(tree, index, index.rows, examples) == count_nodes(tree)
        return tree, index

    for seed in range(4):
        tree, _ = walked(_examples_of(_seeded_dataset(300 + seed, 150, form)))
        assert count_nodes(tree) > 5
    tree, index = walked(_lopsided_examples(40, 80, form != "counts"))
    assert (tree.attribute, tree.left.class_counts[EVENT]) == (0, 0)
    assert tree.left.total > tree.right.total
    assert not dtree._at_most(index, index.columns[0], index.rows, tree.threshold) \
        & index.label_masks[EVENT]
