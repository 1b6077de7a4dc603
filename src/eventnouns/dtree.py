"""A small C4.5-style decision tree over numeric count vectors.

Binary threshold splits chosen by gain ratio, pessimistic-error subtree
replacement pruning, and leaf class distributions that double as prediction
confidence. Everything is deterministic: ties break toward the lowest
attribute index, the lowest threshold, and the NON_EVENT class.

Growth keeps a ``value -> count`` histogram per attribute and label for
each node, counting only the smaller child of a split and subtracting it
from the parent's for the larger, so that a histogram always holds the
node's counts only, with no zero entries. Split search is done once per
node: the node's two class totals and their entropy are computed once,
and each attribute's scan walks its distinct values with two integer left
counts, one per label, scoring each boundary with a two-count entropy.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, fields
from typing import Iterable, Mapping, Sequence

from .features import FeatureVector, LABELS, NON_EVENT

# gains and gain-ratio differences below this are treated as zero so that
# float noise cannot create degenerate splits or unstable tie-breaks
_EPS = 1e-12


@dataclass(frozen=True)
class LabeledExample:
    vector: FeatureVector
    label: str  # EVENT or NON_EVENT

    def __post_init__(self):
        if self.label not in LABELS:
            raise ValueError(f"unknown label: {self.label!r} (expected EVENT or NON_EVENT)")


@dataclass(frozen=True)
class TreeParams:
    min_leaf: int = 2
    confidence_factor: float = 0.25
    pruning: bool = True
    laplace_confidence: bool = False

    def __post_init__(self):
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")
        if not 0 < self.confidence_factor < 1:
            raise ValueError("confidence_factor must be in (0, 1)")


@dataclass(frozen=True)
class TreeNode:
    """Internal node (attribute/threshold/left/right) or leaf (counts only).

    Nodes are immutable once built, so a trained tree can be shared across
    concurrent classification calls.
    """

    class_counts: dict[str, int]
    attribute: int | None = None
    threshold: float | None = None
    left: TreeNode | None = None
    right: TreeNode | None = None

    @property
    def is_leaf(self) -> bool:
        return self.attribute is None

    @property
    def total(self) -> int:
        return sum(self.class_counts.values())


@dataclass(frozen=True)
class Prediction:
    lemma: str
    predicted: str
    confidence: float
    gold: str | None = None


def entropy(class_counts: Iterable[int]) -> float:
    """Shannon entropy in bits of a class distribution, given its counts."""
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


def best_split(examples: Sequence[LabeledExample], attribute: int, *,
               min_leaf: int = 1) -> tuple[float, float, float] | None:
    """Best threshold for one attribute, or None if no split qualifies.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values. A candidate qualifies when its information gain is positive and
    both sides keep at least ``min_leaf`` examples; among qualifying
    candidates the one with the highest gain ratio wins, lowest threshold
    on ties. Returns ``(threshold, gain, gain_ratio)``.
    """
    if len(examples) < 2:
        raise ValueError("best_split needs at least 2 examples")
    histograms = [Counter(ex.vector.counts[attribute] for ex in examples
                          if ex.label == label) for label in LABELS]
    totals = [sum(histogram.values()) for histogram in histograms]
    return _best_threshold(histograms, totals, _entropy2(*totals), min_leaf)


def _entropy2(a: int, b: int) -> float:
    """:func:`entropy` of the two counts ``[a, b]``, the same float."""
    total = a + b
    result = 0.0
    if a:
        p = a / total
        result -= p * math.log2(p)
    if b:
        p = b / total
        result -= p * math.log2(p)
    return result


def _best_threshold(histograms: Sequence[Mapping[float, int]], totals: Sequence[int],
                    total_entropy: float,
                    min_leaf: int) -> tuple[float, float, float] | None:
    """:func:`best_split` over one ``value -> count`` histogram per label.

    There are exactly two labels; ``totals`` are their counts at the node,
    and ``total_entropy`` is ``entropy(totals)``, both computed once per
    node by the caller. The scan visits each distinct value once, not each
    example, and keeps the two integer counts of the examples left of it.
    Labels enter the entropies in label order, not in the order a scan
    over the sorted examples would meet them, but a sum of two entropy
    terms is the same float in either order. So every gain and ratio is
    bit-identical to the per-example scan's.
    """
    first, second = histograms
    values = sorted(first.keys() | second.keys())
    if len(values) < 2:
        return None
    total0, total1 = totals
    n = total0 + total1
    left0 = left1 = 0
    best: tuple[float, float, float] | None = None
    for value, next_value in zip(values, values[1:]):
        left0 += first.get(value, 0)
        left1 += second.get(value, 0)
        n_left = left0 + left1
        n_right = n - n_left
        if n_left < min_leaf or n_right < min_leaf:
            continue
        gain = (total_entropy
                - (n_left / n) * _entropy2(left0, left1)
                - (n_right / n) * _entropy2(total0 - left0, total1 - left1))
        if gain <= _EPS:
            continue
        p_left = n_left / n
        split_info = -(p_left * math.log2(p_left)
                       + (1 - p_left) * math.log2(1 - p_left))
        ratio = gain / split_info
        if best is None or ratio > best[2] + _EPS:
            best = ((value + next_value) / 2, gain, ratio)
    return best


def pessimistic_upper_bound(errors: int, n: int, confidence_factor: float) -> float:
    """Upper limit of the one-sided binomial interval for an error rate.

    The zero-error case uses the closed form ``1 - CF**(1/n)``; otherwise a
    normal approximation with a 0.5 continuity correction, clamped to 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= errors <= n:
        raise ValueError("errors must be in 0..n")
    if not 0 < confidence_factor < 1:
        raise ValueError("confidence_factor must be in (0, 1)")
    if errors == 0:
        return 1.0 - confidence_factor ** (1.0 / n)
    if errors >= n:
        return 1.0
    # imported here: statistics pulls in fractions and decimal, which only
    # pruning needs
    from statistics import NormalDist
    z = NormalDist().inv_cdf(1.0 - confidence_factor)
    f = (errors + 0.5) / n
    upper = (f + z * z / (2 * n)
             + z * math.sqrt(f * (1 - f) / n + z * z / (4 * n * n))) \
        / (1 + z * z / n)
    return min(1.0, upper)


def _majority(class_counts: Mapping[str, int]) -> str:
    top = max(class_counts.values())
    candidates = [label for label, c in class_counts.items() if c == top]
    if NON_EVENT in candidates:
        return NON_EVENT
    return min(candidates)


def train(examples: Sequence[LabeledExample],
          params: TreeParams | None = None) -> TreeNode:
    """Grow a tree greedily, then prune bottom-up unless disabled.

    Growth stops at pure nodes, nodes smaller than ``2 * min_leaf``, and
    nodes where no attribute offers a qualifying split. Splits maximize
    gain ratio; ties go to the lowest attribute index, then the lowest
    threshold. Pruning replaces a subtree with a leaf whenever the leaf's
    pessimistic error estimate does not exceed the subtree's.
    """
    params = params or TreeParams()
    examples = list(examples)
    if not examples:
        raise ValueError("cannot train on an empty example set")
    dim = len(examples[0].vector.counts)
    for ex in examples:
        if len(ex.vector.counts) != dim:
            raise ValueError(
                f"inconsistent dimensionality: {len(ex.vector.counts)} vs {dim}")
    label_order = sorted({ex.label for ex in examples})
    groups = [[ex.vector.counts for ex in examples if ex.label == label]
              for label in label_order]
    node = _grow(groups, _histograms(groups, dim), params, label_order)
    if params.pruning:
        node, _ = _pruned(node, params.confidence_factor)
    return node


def _histograms(groups, dim) -> list[tuple[Counter, ...]]:
    """Per attribute, one ``value -> count`` Counter per label.

    ``groups`` holds each label's count vectors, in label order.
    """
    by_label = [[Counter(column) for column in zip(*rows)]
                or [Counter() for _ in range(dim)] for rows in groups]
    return list(zip(*by_label))


def _grow(groups, histograms, params, label_order) -> TreeNode:
    """Grow the subtree of the vectors in ``groups``, one list per label.

    ``histograms`` are the node's own, as :func:`_histograms` would count
    them. A split counts only its smaller child; the larger child's
    histograms are the parent's minus the smaller's.
    """
    counts = {label: len(rows) for label, rows in zip(label_order, groups)}
    n = sum(counts.values())
    if max(counts.values()) == n or n < 2 * params.min_leaf:
        return TreeNode(counts)
    # not pure, so both labels are here: exactly two groups and totals
    totals = list(counts.values())
    best = _best_node_split(histograms, totals, _entropy2(*totals), params.min_leaf)
    if best is None:
        return TreeNode(counts)
    attribute, threshold = best
    left = [[row for row in rows if row[attribute] <= threshold] for rows in groups]
    right = [[row for row in rows if row[attribute] > threshold] for rows in groups]
    left_is_smaller = 2 * sum(map(len, left)) <= n
    smaller = _histograms(left if left_is_smaller else right, len(histograms))
    # drop the entries that fall to zero; a zero-count value left behind
    # would add a boundary that moves the midpoint thresholds
    larger = [tuple({v: d for v, c in p.items() if (d := c - s.get(v, 0))}
                    for p, s in zip(parent, small))
              for parent, small in zip(histograms, smaller)]
    left_histograms, right_histograms = \
        (smaller, larger) if left_is_smaller else (larger, smaller)
    return TreeNode(counts, attribute, threshold,
                    _grow(left, left_histograms, params, label_order),
                    _grow(right, right_histograms, params, label_order))


def _best_node_split(histograms, totals, total_entropy,
                     min_leaf) -> tuple[int, float] | None:
    """``(attribute, threshold)`` of the best split over all attributes.

    Ties go to the lowest attribute.
    """
    best = None  # (ratio, attribute, threshold)
    for attribute, per_label in enumerate(histograms):
        candidate = _best_threshold(per_label, totals, total_entropy, min_leaf)
        if candidate is None:
            continue
        threshold, _, ratio = candidate
        if best is None or ratio > best[0] + _EPS:
            best = (ratio, attribute, threshold)
    return None if best is None else best[1:]


def _leaf_errors(class_counts: Mapping[str, int], cf: float) -> float:
    """Pessimistic error estimate of a leaf holding ``class_counts``."""
    n = sum(class_counts.values())
    errors = n - max(class_counts.values())
    return n * pessimistic_upper_bound(errors, n, cf)


def _pruned(node: TreeNode, cf: float) -> tuple[TreeNode, float]:
    """Prune bottom-up; returns the subtree and its estimated errors."""
    leaf_estimate = _leaf_errors(node.class_counts, cf)
    if node.is_leaf:
        return node, leaf_estimate
    left, left_errors = _pruned(node.left, cf)
    right, right_errors = _pruned(node.right, cf)
    subtree_estimate = left_errors + right_errors
    if leaf_estimate <= subtree_estimate:
        return TreeNode(dict(node.class_counts)), leaf_estimate
    return (TreeNode(node.class_counts, node.attribute, node.threshold, left, right),
            subtree_estimate)


def classify(tree: TreeNode, vector: FeatureVector, *,
             laplace: bool = False) -> Prediction:
    """Route a vector to a leaf and read the prediction off its counts.

    Confidence is the majority-class proportion at the leaf, or its
    Laplace-smoothed variant ``(majority + 1) / (total + 2)``. Ties predict
    NON_EVENT.
    """
    node = tree
    while not node.is_leaf:
        if node.attribute >= len(vector.counts):
            raise ValueError(
                f"vector for {vector.lemma!r} has {len(vector.counts)} "
                f"attributes but the tree tests attribute {node.attribute}")
        if vector.counts[node.attribute] <= node.threshold:
            node = node.left
        else:
            node = node.right
    total = node.total
    if total == 0:
        raise ValueError("reached an empty leaf")
    predicted = _majority(node.class_counts)
    majority_count = node.class_counts[predicted]
    if laplace:
        confidence = (majority_count + 1) / (total + 2)
    else:
        confidence = majority_count / total
    return Prediction(vector.lemma, predicted, confidence)


def count_nodes(node: TreeNode) -> int:
    if node.is_leaf:
        return 1
    return 1 + count_nodes(node.left) + count_nodes(node.right)


def _max_attribute(node: TreeNode) -> int:
    """The highest attribute the tree tests; -1 for a leaf."""
    if node.is_leaf:
        return -1
    return max(node.attribute, _max_attribute(node.left), _max_attribute(node.right))


def tree_depth(node: TreeNode) -> int:
    """Number of edges on the longest root-to-leaf path."""
    if node.is_leaf:
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


# --- serialization ----------------------------------------------------------

def tree_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"counts": dict(node.class_counts)}
    return {
        "counts": dict(node.class_counts),
        "attribute": node.attribute,
        "threshold": node.threshold,
        "left": tree_to_dict(node.left),
        "right": tree_to_dict(node.right),
    }


def _required(data: dict, key: str, what: str = "model node"):
    """``data[key]``, or a ValueError saying that ``what`` lacks it."""
    if key not in data:
        raise ValueError(f"{what} lacks {key!r}")
    return data[key]


def tree_from_dict(data: dict) -> TreeNode:
    """Rebuild a tree from :func:`tree_to_dict` output, checking each node."""
    if type(data) is not dict:
        raise ValueError(f"bad model node: {data!r}")
    counts = _required(data, "counts")
    # `type(c) is int` turns away floats and bools, so the sum is safe
    if type(counts) is not dict or any(
            label not in LABELS or type(c) is not int or c < 0
            for label, c in counts.items()) or sum(counts.values()) == 0:
        raise ValueError(f"bad model node counts: {counts!r}")
    if "attribute" not in data:
        return TreeNode(dict(counts))
    attribute, threshold = data["attribute"], _required(data, "threshold")
    if (type(attribute) is not int or attribute < 0
            or type(threshold) not in (int, float) or not math.isfinite(threshold)):
        raise ValueError(f"bad model split: attribute {attribute!r}, "
                         f"threshold {threshold!r}")
    return TreeNode(dict(counts), attribute, float(threshold),
                    tree_from_dict(_required(data, "left")),
                    tree_from_dict(_required(data, "right")))


def save_model(tree: TreeNode, path: str, *, cue_ids: Sequence[str],
               params: TreeParams, language: str = "") -> None:
    import json
    payload = {
        "format": "eventnouns-tree/1",
        "language": language,
        "cue_ids": list(cue_ids),
        "params": asdict(params),
        "tree": tree_to_dict(tree),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path: str) -> tuple[TreeNode, tuple[str, ...], TreeParams, str]:
    """Returns (tree, cue_ids, params, language). The file is opened with
    :func:`corpus.open_input`; an error in its contents begins with ``path``."""
    import json
    from .corpus import open_input
    with open_input(path) as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
        if type(payload) is not dict or payload.get("format") != "eventnouns-tree/1":
            raise ValueError("not an eventnouns tree model")
        raw = _required(payload, "params", "model")
        if type(raw) is not dict:
            raise ValueError(f"bad model params: {raw!r}")
        values = {}
        for field in fields(TreeParams):
            value = _required(raw, field.name, "model 'params'")
            # a field's default has its JSON type: bool flags, an int min_leaf
            # and a float confidence factor, so a bool is no number here
            if type(value) is not type(field.default):
                raise ValueError(f"bad model param {field.name}: {value!r}")
            values[field.name] = value
        params = TreeParams(**values)
        tree = tree_from_dict(_required(payload, "tree", "model"))
        cue_ids = _required(payload, "cue_ids", "model")
        if type(cue_ids) is not list or not all(type(c) is str for c in cue_ids):
            raise ValueError(f"bad model cue ids: {cue_ids!r}")
        attribute = _max_attribute(tree)
        if attribute >= len(cue_ids):
            raise ValueError(f"tree tests attribute {attribute} but the model has "
                             f"{len(cue_ids)} cue ids")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return tree, tuple(cue_ids), params, payload.get("language", "")


def format_tree(node: TreeNode, attribute_names: Sequence[str],
                _prefix: str = "") -> str:
    """Indented text rendering: one test per internal node, counts at leaves."""
    if node.is_leaf:
        counts = " ".join(f"{label}={c}" for label, c in sorted(node.class_counts.items()))
        return f"{_prefix}leaf [{counts}] -> {_majority(node.class_counts)}\n"
    child_prefix = _prefix + "|   "
    return (f"{_prefix}{attribute_names[node.attribute]} <= {node.threshold:g}:\n"
            + format_tree(node.left, attribute_names, child_prefix)
            + f"{_prefix}{attribute_names[node.attribute]} > {node.threshold:g}:\n"
            + format_tree(node.right, attribute_names, child_prefix))
