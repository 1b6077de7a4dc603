"""Gold standards: the built-in English list and ``lemma,label`` CSV files.

The English gold standard ships with the package; Spanish has none, so a
Spanish run reads its gold standard from a file. A gold standard stores its
labels canonical (EVENT or NON_EVENT), whatever case they were given in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .features import EVENT, NON_EVENT, normalize_label, read_csv_rows, write_csv

_ENGLISH_EVENT = (
    "accident", "assembly", "audience", "battle", "boycott", "campaign",
    "catastrophe", "ceremony", "cold", "collapse", "conference", "conflict",
    "course", "crime", "crisis", "cycle", "cyclone", "change", "choice",
    "decline", "disease", "disaster", "drought", "earthquake", "epidemic",
    "event", "excursion", "fair", "famine", "feast", "festival", "fever",
    "fight", "fire", "flight", "flood", "growth", "holiday", "hurricane",
    "impact", "incident", "increase", "injury", "interview", "journey",
    "lecture", "loss", "meal", "measurement", "meiosis", "marriage",
    "mitosis", "monsoon", "period", "process", "program", "quake",
    "response", "seminar", "snowstorm", "speech", "storm", "strike",
    "struggle", "summit", "symposium", "therapy", "tour", "treaty", "trial",
    "trip", "vacation", "war",
)

_ENGLISH_NON_EVENT = (
    "agency", "airport", "animal", "architecture", "bag", "battery", "bird",
    "bridge", "bus", "canal", "circle", "city", "climate", "community",
    "company", "computer", "constitution", "country", "creature", "customer",
    "chain", "chair", "channel", "characteristic", "child", "defence",
    "director", "drug", "economy", "ecosystem", "energy", "face", "family",
    "firm", "folder", "food", "grade", "grant", "group", "health", "hope",
    "hospital", "house", "illusion", "information", "intelligence",
    "internet", "island", "malaria", "mammal", "map", "market", "mountain",
    "nation", "nature", "ocean", "office", "organism", "pencil", "people",
    "perspective", "phone", "pipe", "plan", "plant", "profile", "profit",
    "reserve", "river", "role", "satellite", "school", "sea", "shape",
    "source", "space", "star", "statistics", "store", "technology",
    "television", "temperature", "theme", "theory", "tree", "medicine",
    "tube", "university", "visa", "visitor", "water", "weather", "window",
    "world",
)


@dataclass(frozen=True)
class GoldStandard:
    language: str
    entries: Mapping[str, str]  # lemma -> EVENT | NON_EVENT, given in any case

    def __post_init__(self):
        object.__setattr__(self, "entries", {
            lemma: normalize_label(label) for lemma, label in self.entries.items()})

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def lemmas(self) -> tuple[str, ...]:
        return tuple(sorted(self.entries))

    def count(self, label: str) -> int:
        return sum(1 for l in self.entries.values() if l == label)


def english_gold() -> GoldStandard:
    """The built-in English gold standard: 73 EVENT and 94 NON_EVENT lemmas.

    The paper reports 74 EVENT / 93 NON_EVENT for the same 167 nouns, but
    its published word lists hold 73 / 94. The lists are embedded as
    published; no noun was moved between them.
    """
    entries = {lemma: EVENT for lemma in _ENGLISH_EVENT}
    entries.update({lemma: NON_EVENT for lemma in _ENGLISH_NON_EVENT})
    return GoldStandard("EN", entries)


def load_gold(path: str, *, language: str = "") -> GoldStandard:
    """Read a ``lemma,label`` CSV; labels are case-insensitive, duplicates
    are rejected, lemmas are lowercased. Each error names ``path:row``."""
    entries: dict[str, str] = {}
    for row_number, row in read_csv_rows(path):
        if row_number == 1 and row == ["lemma", "label"]:
            continue
        try:
            if len(row) != 2:
                raise ValueError(f"expected 2 fields, got {len(row)}")
            lemma = row[0].strip().lower()
            if not lemma:
                raise ValueError("empty lemma")
            if lemma in entries:
                raise ValueError(f"duplicate lemma {lemma!r}")
            entries[lemma] = normalize_label(row[1])
        except ValueError as exc:
            raise ValueError(f"{path}:{row_number}: {exc}") from None
    return GoldStandard(language, entries)


def write_gold_csv(gold: GoldStandard, path: str) -> None:
    write_csv(path, ["lemma", "label"], sorted(gold.entries.items()))
