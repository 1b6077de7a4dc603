"""Reader and writer for vertical POS-tagged corpora.

The corpus format is one token per line::

    surface<TAB>lemma<TAB>tag

A blank line ends a sentence, lines starting with ``#`` are comments, and
LF, CRLF and CR line endings are accepted. Files are UTF-8, a byte-order
mark at the start is skipped, and a byte that is not UTF-8 is reported
when the parse reaches its line. The tag is a coarse category, optionally
refined as ``COARSE:FINE`` (e.g. ``VERB:PART`` for a participle or
``PART:POSS`` for a possessive marker). :func:`split_corpus` cuts files
into byte ranges just past blank lines, which read as the whole does.

Lemmas are lowercased on read: classification is per lemma and case
variance is just noise.
"""

from __future__ import annotations

import functools
import io
import os
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

COARSE_TAGS = frozenset({
    "NOUN", "PROPN", "VERB", "AUX", "ADJ", "ADV", "DET",
    "ADP", "PRON", "NUM", "CONJ", "PART", "PUNCT", "OTHER",
})

# distinct token lines kept for reuse per parse; the limit bounds the dict,
# and past it a new line costs one failed lookup
INTERN_LIMIT = 4096
# bytes a file read takes at once; a line that straddles two blocks is
# joined before parsing
BLOCK_BYTES = 16384
# the two byte pairs that end a blank line, LF or CRLF, after a line end
_BLANK_LINE_ENDS = (b"\n\n", b"\n\r\n")
# the least bytes of corpus that split_corpus puts in each part
PART_BYTES = 1 << 20


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
    """A malformed corpus line, raised where it is read: the message begins
    with the file's path, if any, and ``line_number`` is 1-based."""

    def __init__(self, message: str, line_number: int, path: str = ""):
        super().__init__(f"{_where(path, line_number)}: {message}")
        self.line_number = line_number


def _where(path: str, line_number: int) -> str:
    return f"{path}: line {line_number}" if path else f"line {line_number}"


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


def _parse_lines(lines: Iterable[str], strict: bool, path: str,
                 lines_before: Callable[[], int] = int) -> Iterator[Sentence]:
    """The parser behind both readers, over lines without their endings;
    a non-empty ``path`` begins each error and warning it gives. A line's
    number in them is its place in ``lines`` plus ``lines_before()``,
    which is called only for such a message and gives 0 by default. A
    line with a lone surrogate, a byte that is not UTF-8 as it reads with
    ``surrogateescape``, raises ``ValueError``, in lenient mode too."""
    pending: list[TaggedToken] = []
    # a repeated token line reuses its token and skips validation; bad
    # lines never enter, so each of their occurrences is reported
    interned: dict[str, TaggedToken] = {}
    lines = iter(lines)
    for line_number, line in enumerate(lines, start=1):
        token = interned.get(line)
        if token is not None:
            pending.append(token)
            continue
        if not line.strip():  # never a line with a surrogate
            if pending:
                yield tuple(pending)
                pending = []
            continue
        if not line.isascii():
            try:
                line.encode()
            except UnicodeEncodeError:
                raise _not_utf8(line, lines, lines_before() + line_number, path) from None
        if line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            _bad_line(f"expected 3 tab-separated fields, got {len(fields)}",
                      lines_before() + line_number, strict, path)
            continue
        surface, lemma, tag = fields
        try:
            token = TaggedToken(surface, lemma.lower(), tag)
        except ValueError as exc:
            _bad_line(str(exc), lines_before() + line_number, strict, path)
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


def read_tagged_file(path: str, *, strict: bool = True, start: int = 0,
                     end: int | None = None) -> Iterator[Sentence]:
    """Yield the sentences of the corpus file ``path``, a pipe too, or of
    its bytes ``[start, end)``, ``end`` None to the end of the file.

    Every error and warning begins with ``path``. A line that is not UTF-8
    raises ``ValueError`` with its line number when the parse reaches it,
    in lenient mode too. ``start`` must be 0 or just past a blank line, as
    :func:`split_corpus` cuts; lines keep their numbers in the whole file.
    """
    # counted once, for the first message that needs it
    lines_before = functools.cache(functools.partial(_lines_before, path, start))
    yield from _parse_lines(chain.from_iterable(_range_blocks(path, start, end)),
                            strict, path, lines_before)


def decode_error(path: str, exc: UnicodeDecodeError) -> ValueError:
    """The error for a whole input file, opened as text, whose bytes
    raised ``exc``: ``ValueError`` with ``path``, the number of the line
    that is not UTF-8 and the decode error; the line is left out for an
    input that cannot be read twice, such as a pipe."""
    if not os.path.isfile(path):
        return ValueError(f"{path}: {exc}")
    # a read decodes bytes ahead of the lines it returns, so the failed
    # read does not tell the line: find it as the corpus reader does
    lines = chain.from_iterable(_range_blocks(path, 0, None))
    for line_number, line in enumerate(lines, start=1):
        try:
            line.encode()
        except UnicodeEncodeError:
            return _not_utf8(line, lines, line_number, path)
    return exc


def _not_utf8(line: str, rest: Iterator[str], line_number: int, path: str) -> ValueError:
    """The error for a line that holds a lone surrogate: that of decoding
    its bytes again, with a line ending unless ``rest`` is empty, or, if
    they decode, of encoding the surrogate."""
    text = line if next(rest, None) is None else line + "\n"
    try:
        text.encode("utf-8", "surrogateescape").decode("utf-8")
        text.encode("utf-8")
    except UnicodeError as exc:
        return ValueError(f"{_where(path, line_number)}: {exc}")


def _range_blocks(path: str, start: int, end: int | None) -> Iterator[list[str]]:
    """``text.split("\\n")`` of bytes ``[start, end)`` of a file, in lists
    of lines, ``BLOCK_BYTES`` read at a time; the last line is carried into
    the next block. The text is UTF-8 with universal newlines, a byte-order
    mark at offset 0 skipped, and each byte that is not UTF-8 a lone
    surrogate (``surrogateescape``) for the parse to report at its line."""
    import codecs  # loaded with the interpreter
    decoder = io.IncrementalNewlineDecoder(
        codecs.getincrementaldecoder("utf-8" if start else "utf-8-sig")("surrogateescape"),
        translate=True)
    with open(path, "rb") as fh:
        if start:  # a pipe cannot seek, and split_corpus never cuts one
            fh.seek(start)
        left = float("inf") if end is None else end - start
        carry = ""
        while data := fh.read(min(BLOCK_BYTES, left)):
            left -= len(data)
            lines = (carry + decoder.decode(data)).split("\n")
            carry = lines.pop()
            yield lines
        yield (carry + decoder.decode(b"", final=True)).split("\n")


def _lines_before(path: str, start: int) -> int:
    """The number of lines in the file before byte ``start``, which is 0
    or the start of a line."""
    if not start:  # so that a pipe is not opened twice
        return 0
    return sum(map(len, _range_blocks(path, 0, start))) - 1


Segment = tuple[str, int, int | None]  # a path and a byte range of it


def split_corpus(paths: Sequence[str], parts: int) -> list[list[Segment]]:
    """Cut corpus files, read one after another, into runs of whole
    sentences of about equal size for :func:`read_run`: at most ``parts``
    of them, and at most one per ``PART_BYTES`` bytes of the files.

    A run is a list of ``(path, start, end)`` ranges, ``end`` None to the
    end of the file. The ``k``-th cut into ``n`` parts is just past the first
    ``\\n\\n`` or ``\\n\\r\\n`` at or past ``k * total // n`` in the joined
    bytes: the end of a blank line, so a sentence end and a UTF-8
    character boundary. Where the rest of that file has no such pair, the
    cut is the file's end. A pipe has size 0, so it is never cut.
    """
    sizes = [os.stat(path).st_size for path in paths]
    total, file, base = sum(sizes), 0, 0
    parts = min(parts, total // PART_BYTES)
    cuts = [(0, 0)]  # (index of a file, offset in it)
    for k in range(1, parts):
        target = k * total // parts
        while base + sizes[file] <= target:
            base += sizes[file]
            file += 1
        cut = _blank_line_end(paths[file], target - base)
        cuts.append((file, cut) if cut is not None and cut < sizes[file] else (file + 1, 0))
    cuts.append((len(paths), 0))
    runs = []
    for (first, start), (last, end) in zip(cuts, cuts[1:]):
        if first == last:
            if start < end:
                runs.append([(paths[first], start, end)])
        else:
            runs.append([(paths[first], start, None),
                         *((path, 0, None) for path in paths[first + 1:last]),
                         *([(paths[last], 0, end)] if end else [])])
    return runs


def read_run(run: Iterable[Segment], *, strict: bool = True) -> Iterator[Sentence]:
    """The sentences of each range of ``run`` in turn, as
    :func:`read_tagged_file` reads it."""
    return chain.from_iterable(read_tagged_file(path, strict=strict, start=start, end=end)
                               for path, start, end in run)


def _blank_line_end(path: str, offset: int) -> int | None:
    """The offset just past the first blank-line end at or past ``offset``
    in the file, or None if it has none."""
    with open(path, "rb") as fh:
        fh.seek(offset)
        tail = b""  # the last bytes of the data before, where a pair may begin
        while block := fh.read(BLOCK_BYTES):
            data = tail + block
            ends = [at + len(pair) for pair in _BLANK_LINE_ENDS
                    if (at := data.find(pair)) >= 0]
            if ends:
                return offset - len(tail) + min(ends)
            offset += len(block)
            tail = data[-2:]
    return None


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
