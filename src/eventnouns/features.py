"""Per-lemma feature vectors aggregated from cue hits.

One vector summarizes all occurrences of a lemma: how many times each cue
fired around it, plus how often the lemma occurred as a noun at all. Zero
counts are meaningful and kept; lemmas never seen in the corpus get
all-zero vectors so that silent words still take part in evaluation.

Every CSV file of the pipeline is read and written here, by
:func:`read_csv_rows` and :func:`write_csv`, which own the format.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .corpus import Sentence, open_input
from .cues import CueSet, TARGET_FIRST_NOUN, encode, match_encoded

# the matcher seam: perfbench/replay.py wraps this name to time matching,
# so extract_features calls it once per encoded chunk
match_sentence = match_encoded
_lemma = attrgetter("lemma")
_cue_and_lemma = itemgetter(0, 1)  # of a CueHit

EVENT = "EVENT"
NON_EVENT = "NON_EVENT"
LABELS = (EVENT, NON_EVENT)


def normalize_label(value: str) -> str:
    label = value.strip().upper() if isinstance(value, str) else None
    if label in LABELS:
        return label
    raise ValueError(f"unknown label: {value!r} (expected EVENT or NON_EVENT)")


@dataclass(frozen=True)
class FeatureVector:
    """Cue counts for one lemma. Counts are raw ints, or floats after
    :func:`to_relative`."""

    lemma: str
    counts: tuple[float, ...]
    total_occurrences: float

    def __post_init__(self):
        if not self.lemma:
            raise ValueError("feature vector with an empty lemma")
        counts = (*self.counts, self.total_occurrences)
        # one C-level pass for the common case; NaN < inf is False too
        if not all(map(math.inf.__gt__, counts)) or min(counts) < 0:
            if any(c < 0 for c in counts):
                raise ValueError(f"negative count for lemma {self.lemma!r}")
            if not all(c < math.inf for c in counts):
                raise ValueError(f"non-finite count for lemma {self.lemma!r}")
        if self.total_occurrences == 0 and any(c != 0 for c in self.counts):
            # every cue hit is an occurrence, so a never-seen lemma has no hits
            raise ValueError(f"lemma {self.lemma!r} has cue counts but no occurrences")

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.counts)


@dataclass(frozen=True)
class Dataset:
    """A fixed-order collection of feature vectors, optionally labeled.
    Labels are case-insensitive and kept canonical: ``event`` as ``EVENT``."""

    cue_ids: tuple[str, ...]
    vectors: tuple[FeatureVector, ...]
    labels: Mapping[str, str] | None = None

    def __post_init__(self):
        repeated = sorted(c for c, k in Counter(self.cue_ids).items() if k > 1)
        if repeated:
            raise ValueError("duplicate cue ids in dataset: " + ", ".join(repeated))
        if "label" in self.cue_ids:  # a CSV would read it as the label column
            raise ValueError("cue id 'label' names the dataset's label column")
        lemmas = [v.lemma for v in self.vectors]
        if len(lemmas) != len(set(lemmas)):
            repeated = sorted(l for l, k in Counter(lemmas).items() if k > 1)
            raise ValueError("duplicate lemmas in dataset: " + ", ".join(repeated))
        for v in self.vectors:
            if len(v.counts) != len(self.cue_ids):
                raise ValueError(
                    f"vector for {v.lemma!r} has {len(v.counts)} counts, "
                    f"expected {len(self.cue_ids)}")
        if self.labels is not None:
            missing = [l for l in lemmas if l not in self.labels]
            if missing:
                raise ValueError("vectors without labels: " + ", ".join(sorted(missing)))
            object.__setattr__(self, "labels", {
                lemma: normalize_label(label) for lemma, label in self.labels.items()})

    @property
    def n(self) -> int:
        return len(self.cue_ids)

    def __len__(self) -> int:
        return len(self.vectors)


def extract_features(corpus: Iterable[Sentence], cue_set: CueSet,
                     target_lemmas: Iterable[str], *,
                     target_policy: str = TARGET_FIRST_NOUN) -> Dataset:
    """Run the cue matcher over a corpus and aggregate counts per lemma.

    Single pass over the chunks that :func:`cues.encode` streams, so
    ``corpus`` may be a lazy stream. Each chunk's noun totals and its hits
    per cue and lemma are counted in C and merged into the target rows.
    Vectors come out sorted by lemma. Target lemmas never observed yield
    all-zero vectors with a zero occurrence total.
    """
    targets = sorted(set(target_lemmas))
    if not targets:
        raise ValueError("target_lemmas must be non-empty")
    position = {cue_id: i for i, cue_id in enumerate(cue_set.cue_ids)}
    counts = {lemma: [0] * cue_set.n for lemma in targets}
    totals: Counter[str] = Counter()
    for encoded in encode(corpus, cue_set):
        text, tokens, nouns = encoded
        totals.update(filter(counts.__contains__, map(
            _lemma, compress(tokens, map(nouns.__contains__, text)))))
        hits = match_sentence(encoded, cue_set, target_policy=target_policy)
        for (cue_id, lemma), n in Counter(map(_cue_and_lemma, hits)).items():
            if lemma in counts:
                counts[lemma][position[cue_id]] += n
    vectors = tuple(
        FeatureVector(lemma, tuple(counts[lemma]), totals[lemma])
        for lemma in targets)
    return Dataset(cue_set.cue_ids, vectors)


def to_relative(dataset: Dataset) -> Dataset:
    """Replace each count by count / max(total_occurrences, 1).

    Zero-total vectors stay all-zero; the guarded denominator never divides
    by zero.
    """
    vectors = tuple(
        FeatureVector(v.lemma,
                      tuple(c / max(v.total_occurrences, 1) for c in v.counts),
                      v.total_occurrences)
        for v in dataset.vectors)
    return Dataset(dataset.cue_ids, vectors, dataset.labels)


def attach_labels(dataset: Dataset, gold: Mapping[str, str]) -> Dataset:
    """Label a dataset with a gold standard.

    Every dataset lemma must appear in the gold map. Gold lemmas absent
    from the dataset are added as all-zero vectors: silent words must still
    participate in cross-validation.
    """
    missing = sorted(v.lemma for v in dataset.vectors if v.lemma not in gold)
    if missing:
        raise ValueError("dataset lemmas missing from gold standard: "
                         + ", ".join(missing))
    seen = {v.lemma for v in dataset.vectors}
    zero = tuple([0] * dataset.n)
    extra = tuple(FeatureVector(lemma, zero, 0)
                  for lemma in sorted(gold) if lemma not in seen)
    vectors = tuple(sorted(dataset.vectors + extra, key=lambda v: v.lemma))
    return Dataset(dataset.cue_ids, vectors, gold)


# --- CSV files -------------------------------------------------------------

def write_csv(path: str, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write ``header`` and then ``rows`` to ``path``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv_rows(path: str) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(row_number, row)`` for the non-empty rows; numbering starts at 1.
    The file is opened with :func:`corpus.open_input`; a row the ``csv``
    module cannot read, or one that holds a NUL byte, raises ``ValueError``
    with ``path:row``."""
    row_number = 0
    with open_input(path, newline="") as fh:
        try:
            for row_number, row in enumerate(csv.reader(_refuse_nul(fh)), start=1):
                if row:
                    yield row_number, row
        except csv.Error as exc:
            raise ValueError(f"{path}:{row_number + 1}: {exc}") from None


def _refuse_nul(lines: Iterable[str]) -> Iterator[str]:
    """``lines``, raising at one that holds NUL as the ``csv`` module of
    Python 3.10 does; from 3.11 on, that module reads NUL as data."""
    for line in lines:
        if "\0" in line:
            raise csv.Error("line contains NUL")
        yield line


def _format_number(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _parse_number(text: str) -> float:
    try:
        return int(text)
    except ValueError:
        return float(text)


def write_dataset_csv(dataset: Dataset, path: str) -> None:
    """Write ``lemma,total,<cue ids...>[,label]`` rows."""
    labeled = dataset.labels is not None
    header = ["lemma", "total", *dataset.cue_ids, *(["label"] if labeled else [])]
    write_csv(path, header, (
        [v.lemma, _format_number(v.total_occurrences),
         *(_format_number(c) for c in v.counts),
         *([dataset.labels[v.lemma]] if labeled else [])]
        for v in dataset.vectors))


def read_dataset_csv(path: str) -> Dataset:
    """Read a dataset that :func:`write_dataset_csv` wrote; lemmas are
    lowercased. An error begins with ``path``, and with ``path:row`` where
    one row is at fault."""
    rows = read_csv_rows(path)
    _, header = next(rows, (0, None))
    if header is None:
        raise ValueError(f"{path}: empty dataset file")
    if header[:2] != ["lemma", "total"]:
        raise ValueError(f"{path}: bad dataset header {header[:2]!r}")
    labeled = header[-1] == "label"
    cue_ids = tuple(header[2:-1] if labeled else header[2:])
    expected = len(header)
    vectors = []
    labels: dict[str, str] = {}
    for row_number, row in rows:
        try:
            if len(row) != expected:
                raise ValueError(f"row for {row[0]!r} has {len(row)} "
                                 f"fields, expected {expected}")
            lemma = row[0].lower()
            cells = row[1:2 + len(cue_ids)]
            try:
                numbers = tuple(map(int, cells))
            except ValueError:  # some cell is not an integer
                numbers = tuple(map(_parse_number, cells))
            vectors.append(FeatureVector(lemma, numbers[1:], numbers[0]))
        except ValueError as exc:
            raise ValueError(f"{path}:{row_number}: {exc}") from None
        if labeled:
            labels[lemma] = row[-1]
    try:
        return Dataset(cue_ids, tuple(vectors), labels if labeled else None)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
