"""A small C4.5-style decision tree over numeric count vectors.

Binary threshold splits chosen by gain ratio, pessimistic-error subtree
replacement pruning, and leaf class distributions that double as prediction
confidence. Pruning is post-order, so it runs as each subtree's growth
returns: a tree is grown and pruned in one recursive pass. Everything is
deterministic: ties break toward the lowest attribute index, the lowest
threshold, and the NON_EVENT class.

Growth works on row bitmasks: a Python ``int`` whose bit ``i`` stands
for row ``i`` of the training set, so a node is the mask of its rows and
a split hands its children ``mask & left`` and ``mask & ~left``. A
:class:`ColumnIndex`, built once per dataset, holds each attribute's
sorted distinct values and one mask per label. The 64 values of a column
held by the most rows each keep a row mask; any other value keeps the
places of its few rows, read in the node mask's binary text. A mask
costs a bit per row, so a column of nearly all distinct values, as
``--relative`` gives, costs at most 64 masks and one place per row, not a
mask per value. A node's class counts are popcounts of ANDs with the
label masks. Split search is done once per node: the node's two class
totals and their entropy are computed once, and each attribute's scan
walks the values held at the node with two integer left counts, one per
label, scoring each boundary with a two-count entropy. A child's scan
walks only the values its parent's rows hold, so a small node of a column
with many distinct values does not visit them all.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, fields
from functools import cached_property, lru_cache
from itertools import compress, groupby, repeat
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .features import FeatureVector, LABELS, NON_EVENT, open_input, write_csv

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
        # pruning reads the normal quantile of 1 - cf, and a cf at or
        # below 2**-54 rounds that to 1.0, which has none
        if not 0 < 1 - self.confidence_factor < 1:
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

    @cached_property
    def _votes(self) -> tuple[str, float, float]:
        """What the node predicts as a leaf: the majority label, its share,
        and its Laplace-smoothed share. Computed once per node."""
        total = self.total
        if total == 0:
            raise ValueError("reached an empty leaf")
        predicted = _majority(self.class_counts)
        majority = self.class_counts[predicted]
        return predicted, majority / total, (majority + 1) / (total + 2)


@dataclass(frozen=True)
class Prediction:
    lemma: str
    predicted: str
    confidence: float
    gold: str | None = None


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
    index = ColumnIndex([(ex.vector.counts[attribute],) for ex in examples],
                        [ex.label for ex in examples])
    n_first = index.first[0].bit_count()
    totals = (n_first, len(examples) - n_first)
    # a boundary has examples on both sides, so min_leaf 0 acts as 1
    return _best_threshold(index.columns[0], index.node(index.rows), index.first,
                           totals, _entropy2(*totals), max(min_leaf, 1))[0]


def _entropy2(a: int, b: int) -> float:
    """Shannon entropy in bits of the class distribution ``[a, b]``."""
    total = a + b
    result = 0.0
    if a:
        p = a / total
        result -= p * math.log2(p)
    if b:
        p = b / total
        result -= p * math.log2(p)
    return result


# a column keeps a row mask for at most this many of its values
_MASKED = 64


def _value_rows(column: Sequence) -> list[tuple]:
    """``(value, mask, places)`` for each distinct value of ``column``, in
    sorted order: the value's rows are those of ``mask``, where bit ``i``
    stands for ``column[i]``, and those at ``places``, in a mask's binary
    text of ``len(column)`` digits, where row ``i`` is at place
    ``len(column) - 1 - i``.

    The 64 values held by the most rows each have a mask and no places;
    every other value has mask 0 and the tuple of its places. A mask costs
    a bit per row of the column, whatever the rows it holds, so a column of
    many distinct values costs at most 64 masks and one place per row.

    The column becomes a text with one byte per place: the rank of its
    row's value among the masked values, or 64 for any other value. A
    masked value's mask is that text translated to ``1`` at its rank and
    ``0`` elsewhere, read as a binary number; the other places are sorted
    by value and grouped. A column of at most 64 values is not counted.
    """
    values = set(column)
    many = len(values) > _MASKED
    masked = [value for value, _ in Counter(column).most_common(_MASKED)] if many else values
    places = column[::-1]
    code = {value: r for r, value in enumerate(masked)}
    text = bytes(map(code.get, places, repeat(_MASKED)))
    table = bytearray(b"0") * 256
    entries = []
    for r, value in enumerate(masked):
        table[r] = 49  # "1"
        entries.append((value, int(text.translate(table), 2), ()))
        table[r] = 48
    if many:
        table = bytearray(256)
        table[_MASKED] = 1
        placed = sorted(compress(range(len(places)), text.translate(table)),
                        key=places.__getitem__)
        entries += [(value, 0, tuple(group))
                    for value, group in groupby(placed, places.__getitem__)]
    entries.sort(key=itemgetter(0))
    return entries


class ColumnIndex:
    """One dataset's rows as bitmasks, built once: bit ``i`` of a mask
    stands for row ``i``.

    ``columns[a]`` is :func:`_value_rows` of attribute ``a``;
    ``label_masks`` maps each label present, in sorted order, to the mask
    of its rows; ``rows`` is the mask of every row. ``first`` is
    :meth:`node` of the first label's rows, or of none if there are none.
    """

    def __init__(self, rows: Sequence[Sequence[float]], labels: Sequence[str]):
        self.width = len(rows)
        self.rows = (1 << self.width) - 1
        self.columns = [_value_rows(column) for column in zip(*rows)]
        # only a column of more than 64 values has places
        self._placed = any(len(column) > _MASKED for column in self.columns)
        self.label_masks = {label: mask for label, mask, _ in _value_rows(labels)}
        self.first = self.node(next(iter(self.label_masks.values()), 0))

    def node(self, mask: int) -> tuple[int, str]:
        """``mask`` with its binary text of ``width`` digits, in which a
        column's places are read; the text is empty when no column has
        places."""
        return mask, format(mask, f"0{self.width}b") if self._placed else ""

    def mask(self, places: Iterable[int]) -> int:
        """The mask of the rows at ``places``."""
        text = bytearray(b"0") * self.width
        for place in places:
            text[place] = 49  # "1"
        return int(text, 2)


def _at_most(index: ColumnIndex, column: list[tuple], mask: int,
             threshold: float) -> int:
    """The rows of ``mask`` whose value in ``column``, a list of
    :func:`_value_rows` entries of ``index`` in value order, is ``<=
    threshold``."""
    below = 0
    places = []
    for value, rows, value_places in column:
        if value > threshold:
            break
        below |= rows
        places += value_places
    if places:
        below |= index.mask(places)
    return mask & below


def _best_threshold(column: list[tuple], node: tuple[int, str],
                    first: tuple[int, str], totals: Sequence[int],
                    total_entropy: float, min_leaf: int
                    ) -> tuple[tuple[float, float, float] | None, list[tuple]]:
    """:func:`best_split` over ``column``, the :func:`_value_rows` entries
    of a :class:`ColumnIndex` column, for ``node``, the
    :meth:`ColumnIndex.node` of the node's rows; ``min_leaf`` is at least
    1. Also returns the entries of the values held by a row of the node: a
    child's rows hold no other, so its scan walks only those.

    There are exactly two labels: ``first`` is the :meth:`ColumnIndex.node`
    of the first label's rows, and every other row has the second.
    ``totals`` are their counts at the node, and ``total_entropy`` is
    ``_entropy2(*totals)``, both computed once per node by the caller. The
    scan walks the values held by a row of the node in order, counting the
    rows left of the boundary and those of them with the first label, and
    stops once every row is counted: a masked value's rows by popcounts, a
    placed value's by reading the node's and the first label's texts at
    its places. Labels enter the entropies in label order, not in the
    order a scan over the sorted examples would meet them, but a sum of
    two entropy terms is the same float in either order. So every gain and
    ratio is bit-identical to the per-example scan's.
    """
    mask, text = node
    first_mask, first_text = first
    total0, total1 = totals
    n = total0 + total1
    n_left = left0 = 0
    best: tuple[float, float, float] | None = None
    held = []
    for entry in column:
        hit = mask & entry[1]
        if hit:
            n_hit = hit.bit_count()
            hit0 = (hit & first_mask).bit_count()
        elif entry[2]:
            n_hit = hit0 = 0
            for place in entry[2]:
                if text[place] == "1":
                    n_hit += 1
                    if first_text[place] == "1":
                        hit0 += 1
            if not n_hit:
                continue
        else:
            continue
        held.append(entry)
        value = entry[0]
        n_right = n - n_left
        # the boundary between the previous value held and this one
        if n_left >= min_leaf and n_right >= min_leaf:
            p_left = n_left / n
            right0 = total0 - left0
            gain = (total_entropy
                    - p_left * _entropy2(left0, n_left - left0)
                    - (n_right / n) * _entropy2(right0, n_right - right0))
            if gain > _EPS:
                split_info = -(p_left * math.log2(p_left)
                               + (1 - p_left) * math.log2(1 - p_left))
                ratio = gain / split_info
                if best is None or ratio > best[2] + _EPS:
                    best = ((previous + value) / 2, gain, ratio)
        left0 += hit0
        n_left += n_hit
        if n_left == n:
            break
        previous = value
    return best, held


def pessimistic_upper_bound(errors: int, n: int, confidence_factor: float) -> float:
    """Upper limit of the one-sided binomial interval for an error rate.

    The zero-error case uses the closed form ``1 - CF**(1/n)``; otherwise a
    normal approximation with a 0.5 continuity correction, clamped to 1.
    ``1 - confidence_factor`` must be in (0, 1), so a factor at or below
    2**-54, for which it rounds to 1.0, is refused.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= errors <= n:
        raise ValueError("errors must be in 0..n")
    if not 0 < 1 - confidence_factor < 1:
        raise ValueError("confidence_factor must be in (0, 1)")
    if errors == 0:
        return 1.0 - confidence_factor ** (1.0 / n)
    if errors >= n:
        return 1.0
    z = _z(confidence_factor)
    f = (errors + 0.5) / n
    upper = (f + z * z / (2 * n)
             + z * math.sqrt(f * (1 - f) / n + z * z / (4 * n * n))) \
        / (1 + z * z / n)
    return min(1.0, upper)


@lru_cache(maxsize=16)
def _z(confidence_factor: float) -> float:
    """The normal quantile of ``1 - confidence_factor``."""
    # imported here: statistics pulls in fractions and decimal, which only
    # pruning needs
    from statistics import NormalDist
    return NormalDist().inv_cdf(1.0 - confidence_factor)


def _majority(class_counts: Mapping[str, int]) -> str:
    top = max(class_counts.values())
    candidates = [label for label, c in class_counts.items() if c == top]
    if NON_EVENT in candidates:
        return NON_EVENT
    return min(candidates)


def train(examples: Sequence[LabeledExample],
          params: TreeParams | None = None) -> TreeNode:
    """Grow a tree greedily, pruning each subtree as its growth returns
    unless pruning is disabled.

    Growth stops at pure nodes, nodes smaller than ``2 * min_leaf``, and
    nodes where no attribute offers a qualifying split. Splits maximize
    gain ratio; ties go to the lowest attribute index, then the lowest
    threshold. Pruning replaces a subtree with a leaf whenever the leaf's
    pessimistic error estimate does not exceed the subtree's.
    """
    examples = list(examples)
    if not examples:
        raise ValueError("cannot train on an empty example set")
    dim = len(examples[0].vector.counts)
    for ex in examples:
        if len(ex.vector.counts) != dim:
            raise ValueError(
                f"inconsistent dimensionality: {len(ex.vector.counts)} vs {dim}")
    index = ColumnIndex([ex.vector.counts for ex in examples],
                        [ex.label for ex in examples])
    return train_rows(index, index.rows, params)


def train_rows(index: ColumnIndex, mask: int,
               params: TreeParams | None = None) -> TreeNode:
    """:func:`train` on the rows of ``index`` in ``mask``, grown and pruned
    in one pass by :func:`_grow`."""
    params = params or TreeParams()
    if not mask:
        raise ValueError("cannot train on an empty example set")
    labels = [(label, rows) for label, rows in index.label_masks.items() if rows & mask]
    return _grow(mask, index.columns, labels, index, params)[0]


def _grow(mask: int, columns: list[list[tuple]], labels: list[tuple[str, int]],
          index: ColumnIndex, params: TreeParams) -> tuple[TreeNode, float]:
    """Grow the subtree of the rows in ``mask`` and prune it as its growth
    returns. ``columns`` holds, per attribute, the :func:`_value_rows`
    entries of ``index`` of at least the values held by those rows, in
    value order; ``labels`` pairs each label of the training rows, in
    sorted order, with the mask of its rows.

    Returns the subtree and its pessimistic error estimate: a leaf's is
    ``n`` times :func:`pessimistic_upper_bound` of its minority count, and
    a split's is the sum of its pruned children's. A split whose leaf
    estimate does not exceed that sum becomes a leaf. Without pruning no
    estimate is computed, and the one returned is 0.0.
    """
    counts = {label: (mask & rows).bit_count() for label, rows in labels}
    n = mask.bit_count()
    majority = max(counts.values())
    leaf = (n * pessimistic_upper_bound(n - majority, n, params.confidence_factor)
            if params.pruning else 0.0)
    if majority == n or n < 2 * params.min_leaf:
        return TreeNode(counts), leaf
    # not pure, so both labels are here: exactly two totals, and the first
    # is the index's first
    totals = list(counts.values())
    total_entropy = _entropy2(*totals)
    node = index.node(mask)
    first = index.first
    held = []
    best = None  # (ratio, attribute, threshold)
    for attribute, column in enumerate(columns):
        candidate, column_held = _best_threshold(column, node, first, totals,
                                                 total_entropy, params.min_leaf)
        held.append(column_held)
        if candidate is None:
            continue
        threshold, _, ratio = candidate
        if best is None or ratio > best[0] + _EPS:
            best = (ratio, attribute, threshold)
    if best is None:
        return TreeNode(counts), leaf
    _, attribute, threshold = best
    left_mask = _at_most(index, held[attribute], mask, threshold)
    left, left_errors = _grow(left_mask, held, labels, index, params)
    right, right_errors = _grow(mask & ~left_mask, held, labels, index, params)
    subtree = left_errors + right_errors
    if params.pruning and leaf <= subtree:
        return TreeNode(counts), leaf
    return TreeNode(counts, attribute, threshold, left, right), subtree


def classify(tree: TreeNode, vector: FeatureVector, *,
             laplace: bool = False) -> Prediction:
    """Route a vector to a leaf and read the prediction off its counts.

    Confidence is the majority-class proportion at the leaf, or its
    Laplace-smoothed variant ``(majority + 1) / (total + 2)``. Ties predict
    NON_EVENT.
    """
    return Prediction(vector.lemma, *predict(tree, vector, laplace=laplace))


def predict(tree: TreeNode, vector: FeatureVector, *,
            laplace: bool = False) -> tuple[str, float]:
    """:func:`classify`'s ``(predicted, confidence)``."""
    node = tree
    counts = vector.counts
    try:
        while node.attribute is not None:
            node = node.left if counts[node.attribute] <= node.threshold else node.right
    except IndexError:
        raise ValueError(
            f"vector for {vector.lemma!r} has {len(counts)} attributes "
            f"but the tree tests attribute {node.attribute}") from None
    predicted, share, smoothed = node._votes
    return predicted, smoothed if laplace else share


def write_lexicon_csv(predictions: Sequence[Prediction], path: str) -> None:
    """Production output: lemma,predicted,confidence sorted by confidence."""
    ordered = sorted(predictions, key=lambda p: (-p.confidence, p.lemma))
    write_csv(path, ["lemma", "predicted", "confidence"],
              ([p.lemma, p.predicted, str(p.confidence)] for p in ordered))


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
    :func:`features.open_input`; an error in its contents begins with ``path``."""
    import json
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
