"""Reader and writer for vertical POS-tagged corpora.

The corpus format is one token per line::

    surface<TAB>lemma<TAB>tag

A blank line ends a sentence, lines starting with ``#`` are comments, and
both LF and CRLF endings are accepted. Files are UTF-8. The tag is a coarse
category, optionally refined as ``COARSE:FINE`` (e.g. ``VERB:PART`` for a
participle or ``PART:POSS`` for a possessive marker).

Lemmas are lowercased on read: classification is per lemma and case
variance is just noise.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Iterator

log = logging.getLogger(__name__)

COARSE_TAGS = frozenset({
    "NOUN", "PROPN", "VERB", "AUX", "ADJ", "ADV", "DET",
    "ADP", "PRON", "NUM", "CONJ", "PART", "PUNCT", "OTHER",
})


def coarse_tag(tag: str) -> str:
    """Return the coarse part of a tag (``VERB:PART`` -> ``VERB``)."""
    return tag.split(":", 1)[0]


class CorpusParseError(ValueError):
    """A malformed corpus line. Carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class TaggedToken:
    surface: str
    lemma: str
    tag: str

    def __post_init__(self):
        if not self.surface:
            raise ValueError("token surface must be non-empty")
        if not self.lemma:
            raise ValueError("token lemma must be non-empty")
        if self.lemma != self.lemma.lower():
            raise ValueError(f"token lemma must be lowercase: {self.lemma!r}")
        coarse, _, fine = self.tag.partition(":")
        if coarse not in COARSE_TAGS:
            raise ValueError(f"unknown coarse tag: {self.tag!r}")
        if ":" in self.tag and not fine:
            raise ValueError(f"empty tag refinement: {self.tag!r}")

    @property
    def coarse(self) -> str:
        return coarse_tag(self.tag)


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[TaggedToken, ...]

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("sentence must contain at least one token")

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[TaggedToken]:
        return iter(self.tokens)


def parse_tagged_corpus(lines: Iterable[str], *, strict: bool = True) -> Iterator[Sentence]:
    """Parse a stream of corpus lines into sentences, lazily.

    In strict mode (the default) a malformed line raises
    :class:`CorpusParseError` with its line number; in lenient mode the line
    is skipped with a warning. A trailing sentence without a final blank
    line is still emitted.
    """
    pending: list[TaggedToken] = []
    for line_number, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if line.startswith("#"):
            continue
        if not line.strip():
            if pending:
                yield Sentence(tuple(pending))
                pending = []
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            _bad_line(f"expected 3 tab-separated fields, got {len(fields)}",
                      line_number, strict)
            continue
        surface, lemma, tag = fields
        try:
            pending.append(TaggedToken(surface, lemma.lower(), tag))
        except ValueError as exc:
            _bad_line(str(exc), line_number, strict)
    if pending:
        yield Sentence(tuple(pending))


def _bad_line(message: str, line_number: int, strict: bool) -> None:
    if strict:
        raise CorpusParseError(message, line_number)
    log.warning("skipping corpus line %d: %s", line_number, message)


def read_tagged_file(path: str, *, strict: bool = True) -> Iterator[Sentence]:
    """Open ``path`` as UTF-8 and yield its sentences."""
    with open(path, encoding="utf-8") as fh:
        yield from parse_tagged_corpus(fh, strict=strict)


def serialize_corpus(sentences: Iterable[Sentence]) -> str:
    """Render sentences back to the vertical format.

    ``parse_tagged_corpus(serialize_corpus(s).splitlines())`` reproduces the
    token fields exactly.
    """
    blocks = []
    for sentence in sentences:
        blocks.append("\n".join(f"{t.surface}\t{t.lemma}\t{t.tag}" for t in sentence))
    return "\n\n".join(blocks) + "\n"

