"""A small C4.5-style decision tree over numeric count vectors.

Binary threshold splits chosen by gain ratio, pessimistic-error subtree
replacement pruning, and leaf class distributions that double as prediction
confidence. Everything is deterministic: ties break toward the lowest
attribute index, the lowest threshold, and the NON_EVENT class.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from statistics import NormalDist
from typing import Iterable, Mapping, Sequence

from .features import FeatureVector, NON_EVENT

# gains and gain-ratio differences below this are treated as zero so that
# float noise cannot create degenerate splits or unstable tie-breaks
_EPS = 1e-12


@dataclass(frozen=True)
class LabeledExample:
    vector: FeatureVector
    label: str


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
    return _best_threshold(
        Counter((ex.vector.counts[attribute], ex.label) for ex in examples), min_leaf)


def _best_threshold(histogram: Mapping[tuple[float, str], int],
                    min_leaf: int) -> tuple[float, float, float] | None:
    """:func:`best_split` over a ``(value, label) -> count`` histogram.

    The scan visits each distinct value once, not each example. Labels
    enter ``left_counts`` and ``total_counts`` in the order a scan over the
    sorted examples would add them, and there are only two labels anyway:
    a sum of two entropy terms is the same float in either order. So every
    gain and ratio is bit-identical to the per-example scan's.
    """
    items = sorted(histogram.items())
    total_counts: Counter[str] = Counter()
    for (_, label), count in items:
        total_counts[label] += count
    n = sum(total_counts.values())
    total_entropy = entropy(total_counts.values())
    left_counts: Counter[str] = Counter()
    n_left = 0
    best: tuple[float, float, float] | None = None
    for i in range(len(items) - 1):
        (value, label), count = items[i]
        left_counts[label] += count
        n_left += count
        next_value = items[i + 1][0][0]
        if value == next_value:
            continue
        n_right = n - n_left
        if n_left < min_leaf or n_right < min_leaf:
            continue
        right_counts = {label: total_counts[label] - left_counts[label]
                        for label in total_counts}
        gain = (total_entropy
                - (n_left / n) * entropy(left_counts.values())
                - (n_right / n) * entropy(right_counts.values()))
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
    z = NormalDist().inv_cdf(1.0 - confidence_factor)
    f = (errors + 0.5) / n
    if f >= 1.0:
        return 1.0
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
    node = _grow(examples, params, label_order)
    if params.pruning:
        node, _ = _pruned(node, params.confidence_factor)
    return node


def _counts_of(examples, label_order) -> dict[str, int]:
    raw = Counter(ex.label for ex in examples)
    return {label: raw.get(label, 0) for label in label_order}


def _grow(examples, params, label_order) -> TreeNode:
    counts = _counts_of(examples, label_order)
    nonzero = [c for c in counts.values() if c > 0]
    if len(nonzero) == 1 or len(examples) < 2 * params.min_leaf:
        return TreeNode(counts)
    best = _best_node_split(examples, params.min_leaf)
    if best is None:
        return TreeNode(counts)
    attribute, threshold = best
    left = [ex for ex in examples if ex.vector.counts[attribute] <= threshold]
    right = [ex for ex in examples if ex.vector.counts[attribute] > threshold]
    return TreeNode(counts, attribute, threshold,
                    _grow(left, params, label_order),
                    _grow(right, params, label_order))


def _best_node_split(examples, min_leaf) -> tuple[int, float] | None:
    """``(attribute, threshold)`` of the best split over all attributes.

    Ties go to the lowest attribute. The columns live only in this frame,
    so they are freed before ``_grow`` recurses.
    """
    labels = [ex.label for ex in examples]
    best = None  # (ratio, attribute, threshold)
    columns = zip(*(ex.vector.counts for ex in examples))
    for attribute, column in enumerate(columns):
        candidate = _best_threshold(Counter(zip(column, labels)), min_leaf)
        if candidate is None:
            continue
        threshold, _, ratio = candidate
        if best is None or ratio > best[0] + _EPS:
            best = (ratio, attribute, threshold)
    return None if best is None else best[1:]


def _leaf_errors(class_counts: Mapping[str, int], cf: float) -> float:
    """Pessimistic error estimate of a leaf holding ``class_counts``."""
    n = sum(class_counts.values())
    if n == 0:
        return 0.0
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


def tree_from_dict(data: dict) -> TreeNode:
    counts = {str(label): int(c) for label, c in data["counts"].items()}
    if "attribute" not in data:
        return TreeNode(counts)
    return TreeNode(counts, int(data["attribute"]), float(data["threshold"]),
                    tree_from_dict(data["left"]), tree_from_dict(data["right"]))


def save_model(tree: TreeNode, path: str, *, cue_ids: Sequence[str],
               params: TreeParams, language: str = "") -> None:
    payload = {
        "format": "eventnouns-tree/1",
        "language": language,
        "cue_ids": list(cue_ids),
        "params": {
            "min_leaf": params.min_leaf,
            "confidence_factor": params.confidence_factor,
            "pruning": params.pruning,
            "laplace_confidence": params.laplace_confidence,
        },
        "tree": tree_to_dict(tree),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path: str) -> tuple[TreeNode, tuple[str, ...], TreeParams, str]:
    """Returns (tree, cue_ids, params, language)."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != "eventnouns-tree/1":
        raise ValueError(f"{path}: not an eventnouns tree model")
    raw = payload["params"]
    params = TreeParams(min_leaf=raw["min_leaf"],
                        confidence_factor=raw["confidence_factor"],
                        pruning=raw["pruning"],
                        laplace_confidence=raw["laplace_confidence"])
    return (tree_from_dict(payload["tree"]), tuple(payload["cue_ids"]),
            params, payload.get("language", ""))


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
