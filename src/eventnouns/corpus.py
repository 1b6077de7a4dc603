"""Reader and writer for vertical POS-tagged corpora.

The corpus format is one token per line::

    surface<TAB>lemma<TAB>tag

A blank line ends a sentence, lines starting with ``#`` are comments, and
both LF and CRLF endings are accepted. Files are UTF-8, and a byte-order
mark at the start is skipped. The tag is a coarse category, optionally
refined as ``COARSE:FINE`` (e.g. ``VERB:PART`` for a participle or
``PART:POSS`` for a possessive marker).

Lemmas are lowercased on read: classification is per lemma and case
variance is just noise.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, TextIO

COARSE_TAGS = frozenset({
    "NOUN", "PROPN", "VERB", "AUX", "ADJ", "ADV", "DET",
    "ADP", "PRON", "NUM", "CONJ", "PART", "PUNCT", "OTHER",
})

# distinct token lines kept for reuse per parse; the limit bounds the dict,
# and past it a new line costs one failed lookup
INTERN_LIMIT = 4096
# characters a file read decodes at once; a line that straddles two blocks
# is joined before parsing
BLOCK_CHARS = 16384


def coarse_tag(tag: str) -> str:
    """Return the coarse part of a tag (``VERB:PART`` -> ``VERB``)."""
    return tag.split(":", 1)[0]


def check_tag(tag: str) -> None:
    """Reject a tag with an unknown coarse part or an empty refinement."""
    coarse, sep, fine = tag.partition(":")
    if coarse not in COARSE_TAGS:
        raise ValueError(f"unknown coarse tag: {tag!r}")
    if sep and not fine:
        raise ValueError(f"empty tag refinement: {tag!r}")


class CorpusParseError(ValueError):
    """A malformed corpus line. Carries the 1-based line number; the message
    begins with the file's path when the line came from a file."""

    def __init__(self, message: str, line_number: int, path: str = ""):
        where = f"{path}: line {line_number}" if path else f"line {line_number}"
        super().__init__(f"{where}: {message}")
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
        check_tag(self.tag)


# a sentence is the tuple of its tokens; the readers never yield an empty one
Sentence = tuple[TaggedToken, ...]


def parse_tagged_corpus(lines: Iterable[str], *, strict: bool = True) -> Iterator[Sentence]:
    """Parse a stream of corpus lines into sentences, lazily: each is a
    tuple of :class:`TaggedToken`.

    In strict mode (the default) a malformed line raises
    :class:`CorpusParseError` with its line number; in lenient mode the line
    is skipped with a warning. A trailing sentence without a final blank
    line is still emitted.
    """
    return _parse_lines((raw.rstrip("\r\n") for raw in lines), strict, "")


def _parse_lines(lines: Iterable[str], strict: bool, path: str) -> Iterator[Sentence]:
    """The parser behind both readers, over lines without their endings;
    a non-empty ``path`` begins each error and warning it gives."""
    pending: list[TaggedToken] = []
    # a repeated token line reuses its token and skips validation; bad
    # lines never enter, so each of their occurrences is reported
    interned: dict[str, TaggedToken] = {}
    for line_number, line in enumerate(lines, start=1):
        token = interned.get(line)
        if token is not None:
            pending.append(token)
            continue
        if line.startswith("#"):
            continue
        if not line.strip():
            if pending:
                yield tuple(pending)
                pending = []
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            _bad_line(f"expected 3 tab-separated fields, got {len(fields)}",
                      line_number, strict, path)
            continue
        surface, lemma, tag = fields
        try:
            token = TaggedToken(surface, lemma.lower(), tag)
        except ValueError as exc:
            _bad_line(str(exc), line_number, strict, path)
            continue
        pending.append(token)
        if len(interned) < INTERN_LIMIT:
            interned[line] = token
    if pending:
        yield tuple(pending)


def _bad_line(message: str, line_number: int, strict: bool, path: str) -> None:
    if strict:
        raise CorpusParseError(message, line_number, path)
    # imported here, as only a lenient parse that meets a bad line needs it
    import logging
    logging.getLogger(__name__).warning(
        "%sskipping corpus line %d: %s", f"{path}: " if path else "",
        line_number, message)


def read_tagged_file(path: str, *, strict: bool = True) -> Iterator[Sentence]:
    """Open ``path`` with :func:`open_input` and yield its sentences.

    The file is decoded and split into lines ``BLOCK_CHARS`` characters at
    a time. Every error and warning begins with ``path``. A line that is
    not UTF-8 raises ``ValueError`` with its line number, in lenient mode
    too.
    """
    with open_input(path) as fh:
        yield from _parse_lines(chain.from_iterable(_line_blocks(fh)), strict, path)


@contextmanager
def open_input(path: str, newline: str | None = None) -> Iterator[TextIO]:
    """Open an input file as UTF-8 text; a byte-order mark is skipped.

    Every reader of the pipeline opens its file here. A byte that is not
    UTF-8 raises ``ValueError`` with ``path``, the number of its line and
    the decode error.
    """
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError:
        # a read decodes a chunk of bytes ahead of the lines it returns, so
        # the failed read does not tell the line: decode again line by line
        with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
            for line_number, line in enumerate(fh, start=1):
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ValueError(f"{path}: line {line_number}: {exc}") from None
        raise


def _line_blocks(fh) -> Iterator[list[str]]:
    """The lines of a text file without their endings, a block at a time.

    Universal newlines turn CRLF into LF as the file decodes, so splitting
    on LF leaves no CR behind. The last line of a block is carried into the
    next, and yielded at the end of the file if it is not empty."""
    carry = ""
    while block := fh.read(BLOCK_CHARS):
        lines = (carry + block).split("\n")
        carry = lines.pop()
        yield lines
    if carry:
        yield [carry]


def serialize_corpus(sentences: Iterable[Sentence]) -> str:
    """Render sentences back to the vertical format.

    ``parse_tagged_corpus(serialize_corpus(s).split("\\n"))`` reproduces the
    token fields exactly, and so does reading the text back from a file.
    ``str.splitlines`` does not: it also breaks at characters such as
    U+2028 or ``\\x0b``, which a surface may hold. A token whose line would
    not read back, as a field holds a tab, ``\\n`` or ``\\r`` or the surface
    starts with ``#``, raises ``ValueError``, and so does an empty sentence.
    """
    blocks = []
    n_tokens = 0
    for sentence in sentences:
        blocks.append("\n".join(f"{t.surface}\t{t.lemma}\t{t.tag}" for t in sentence))
        n_tokens += len(sentence)
    text = "\n\n".join(blocks) + "\n"
    # a field holding a tab or a line feed adds to the format's own count,
    # and an empty sentence adds a blank line
    if blocks and (text.count("\t") != 2 * n_tokens
                   or text.count("\n") != n_tokens + len(blocks) - 1
                   or "\r" in text or text.startswith("#") or "\n#" in text):
        raise ValueError("a token's line would not read back: a field holds a tab, "
                         "\\n or \\r, or a surface starts with '#', "
                         "or a sentence is empty")
    return text
