"""Lexico-syntactic cue rules and the matcher that applies them.

A cue rule is an ordered sequence of token constraints with one designated
TARGET slot (a noun). Matching a rule against a sentence yields one hit per
start position where it matches, bound to the noun in the target slot.
Rules are shallow and strictly linear: each compiles once to a lazy regular
expression over chunks of sentences, one character per token mask (the set
of atoms a token satisfies; the rules fix every mask a token can have).
Matches may overlap; none crosses a sentence boundary.

Rule files are line-oriented text: ``id<TAB>polarity<TAB>pattern`` with an
optional fourth field ``disabled``. Pattern atoms are space-separated:

* ``TARGET``                 the target noun slot
* ``lemma=during``           lemma constraint; alternatives with ``|``
* ``lemma=take+place``       a ``+`` joins words of a multi-token literal
* ``surface=la``             surface constraint (case-insensitive)
* ``tag=DET`` / ``tag=VERB:PART``  tag constraint; a coarse-only tag
  matches any refinement
* ``any``                    wildcard
* fields combine with ``,`` (conjunction), e.g. ``lemma=by,tag=ADP``
* a trailing ``?`` makes the atom optional, a trailing ``*`` lets it match
  zero to three tokens

The built-in Spanish set has 11 rules and the built-in English set 16;
``builtin_cue_set`` documents them inline.
"""

from __future__ import annotations

import enum
import functools
import itertools
import re
from dataclasses import dataclass
from operator import add, attrgetter, invert, methodcaller, sub
from types import SimpleNamespace
from typing import Iterable, Iterator, NamedTuple

from .corpus import COARSE_TAGS, Sentence, check_tag, coarse_tag
from .features import TARGET_FIRST_NOUN, TARGET_LAST_NOUN, open_input

POSITIVE = "positive"
NEGATIVE = "negative"

MAX_STAR = 3
# tokens per encoded chunk: a regex call per rule pays off, memory stays flat
CHUNK_TOKENS = 2048


class Repeat(enum.Enum):
    ONE = "one"
    OPTIONAL = "optional"
    STAR = "star"


@dataclass(frozen=True)
class TokenConstraint:
    """A constraint on one token (or a short bounded run of tokens).

    All present fields must match (conjunction). A constraint with no
    fields at all is a wildcard; repetition is always bounded.
    """

    lemma_in: frozenset[str] | None = None
    surface_in: frozenset[str] | None = None
    tag_in: frozenset[str] | None = None
    repeat: Repeat = Repeat.ONE

    def __post_init__(self):
        for name in ("lemma_in", "surface_in"):  # corpus lemmas are lowercase
            values = getattr(self, name)
            if values is not None:
                object.__setattr__(self, name, frozenset(v.lower() for v in values))
                if "" in values:
                    raise ValueError(f"empty {name[:-3]} value")
        if frozenset() in (self.lemma_in, self.surface_in, self.tag_in):
            raise ValueError("a constraint field must name at least one value")
        for entry in self.lemma_in or ():
            if "" in entry.split(" "):  # a literal's word that no token has
                raise ValueError(f"multi-token lemma literal "
                                 f"{entry.replace(' ', '+')!r} has an empty word")
        for tag in self.tag_in or ():
            check_tag(tag)  # the check a corpus token's tag passes
        if self.lemma_in is not None and any(" " in entry for entry in self.lemma_in):
            # multi-token literals only make sense for a plain lemma slot
            if self.repeat is not Repeat.ONE:
                raise ValueError("multi-token lemma literals cannot repeat")
            if self.surface_in is not None or self.tag_in is not None:
                raise ValueError("multi-token lemma literals cannot combine "
                                 "with surface or tag constraints")


@dataclass(frozen=True)
class CueRule:
    id: str
    polarity: str
    elements: tuple[TokenConstraint, ...]
    target_index: int
    enabled: bool = True

    def __post_init__(self):
        if not self.id:
            raise ValueError("empty rule id")
        if self.polarity not in (POSITIVE, NEGATIVE):
            raise ValueError(f"bad polarity: {self.polarity!r}")
        if not self.elements:
            raise ValueError(f"rule {self.id}: empty pattern")
        if not 0 <= self.target_index < len(self.elements):
            raise ValueError(f"rule {self.id}: target index out of range")
        target = self.elements[self.target_index]
        if target.repeat is not Repeat.ONE:
            raise ValueError(f"rule {self.id}: target slot must match exactly one token")
        if target.tag_in != frozenset({"NOUN"}):
            raise ValueError(f"rule {self.id}: target slot must require tag NOUN")


@dataclass(frozen=True)
class CueSet:
    language: str
    rules: tuple[CueRule, ...]

    def __post_init__(self):
        ids = [r.id for r in self.rules]
        if len(ids) != len(set(ids)):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate rule ids: {', '.join(dupes)}")
        if "label" in ids:  # a dataset CSV would read it as the label column
            raise ValueError("cue id 'label' names the dataset's label column")

    @property
    def n(self) -> int:
        """Vector dimensionality: every rule, enabled or not, has a slot."""
        return len(self.rules)

    @property
    def cue_ids(self) -> tuple[str, ...]:
        return tuple(r.id for r in self.rules)

    @functools.cached_property
    def _compiled(self) -> _CompiledCueSet:
        # built on the first match, not at load; not a field, so equality
        # and hashing ignore it
        return _CompiledCueSet(self)


class CueHit(NamedTuple):
    cue_id: str
    lemma: str
    token_index: int


class EncodedChunk(NamedTuple):
    """A chunk of sentences as :func:`encode` gives it to the matcher."""

    text: str              # one character per token mask; mask 0 ends each sentence
    tokens: list           # the token of each character, the boundaries included
    nouns: frozenset[str]  # the characters of tokens tagged NOUN, refined or not


# --- matching -------------------------------------------------------------

class _ByTag(dict):
    """Tag -> entry; a refinement no rule names has its coarse tag's entry.
    Every tag met here passed ``check_tag``, so its coarse part has one."""

    def __missing__(self, tag: str):
        self[tag] = entry = self[coarse_tag(tag)]
        return entry


def _field_table(constraints, field: str) -> tuple[int, dict[str, int]]:
    """Masks of the values one field names, and the mask of any other value."""
    default = 0
    masks: dict[str, int] = {}
    for constraint, bit in constraints:
        values = getattr(constraint, field)
        if values is None:
            default |= bit
        else:
            for value in values:
                masks[value] = masks.get(value, 0) | bit
    return default, {value: mask | default for value, mask in masks.items()}


# lazy: the shortest consumption is tried first
_QUANTIFIER = {Repeat.ONE: "", Repeat.OPTIONAL: "??", Repeat.STAR: f"{{0,{MAX_STAR}}}?"}
# ends each sentence of a chunk; its tag's mask is 0, so no match crosses it
_BOUNDARY = SimpleNamespace(surface="", lemma="", tag="")


class _CompiledCueSet:
    """The enabled rules of a cue set, compiled to regular expressions.

    Each distinct constraint of the enabled rules gets one bit, and so does
    each word of a multi-word literal. The target constraint ``tag=NOUN``
    always has one, with every rule disabled too: ``nouns`` holds the
    characters of the masks with that bit. So does the wildcard, which every
    token holds and the sentence boundary lacks: mask 0 is the boundary's
    alone. A token's atom mask, the bits of the constraints it satisfies, is
    the AND of one lookup per field in tables that :func:`_field_table`
    builds from the values the rules name, the tag table from each coarse
    tag too; a refinement no rule names takes its coarse tag's mask, so
    every mask is known here. A token is encoded as the character of its
    mask, and an atom as the class of those whose masks hold its bit: never
    empty, as a constraint's own table entries all hold its bit. Where no
    rule has a surface atom, ``text`` takes a token's character from its
    lemma and then its tag in ``lemma_chars`` or ``default_chars``, built
    here for a surface no rule names. Each rule compiles once per policy.
    """

    def __init__(self, cue_set: CueSet):
        bits: dict[TokenConstraint, int] = {}

        def bit(constraint: TokenConstraint) -> int:
            return bits.setdefault(constraint, 1 << len(bits))

        noun = bit(TokenConstraint(tag_in=frozenset({"NOUN"})))
        bit(TokenConstraint())

        # (rule id, atoms); an atom is (bit, repeat, the word bits of each
        # multi-word literal, shortest first, is target)
        rules = []
        for rule in (rule for rule in cue_set.rules if rule.enabled):
            atoms = []
            for index, constraint in enumerate(rule.elements):
                literals = sorted((entry.split(" ") for entry in constraint.lemma_in or ()
                                   if " " in entry), key=len)
                word_bits = [[bit(TokenConstraint(lemma_in=frozenset({w}))) for w in words]
                             for words in literals]
                atoms.append((bit(constraint), constraint.repeat, word_bits,
                              index == rule.target_index))
            rules.append((rule.id, atoms))
        constraints = tuple(bits.items())
        self.lemma_default, self.lemma_masks = _field_table(constraints, "lemma_in")
        self.surface_default, self.surface_masks = _field_table(constraints, "surface_in")
        tag_default, named = _field_table(constraints, "tag_in")
        # a coarse-only pattern matches any refinement; a refined one is exact
        self.tag_masks = _ByTag({tag: named.get(tag, tag_default)
                                 | named.get(coarse_tag(tag), tag_default)
                                 for tag in {*COARSE_TAGS, *named}})
        self.tag_masks[_BOUNDARY.tag] = 0
        masks = {lemma & tag for tag in self.tag_masks.values()
                 for lemma in (self.lemma_default, *self.lemma_masks.values())}
        masks = {mask & surface for mask in masks  # the default holds all bits if unused
                 for surface in (self.surface_default, *self.surface_masks.values())}
        # code points below 256 keep each class a small bitmap in ``re``
        self.chars = {mask: chr(k) for k, mask in enumerate(sorted(masks))}
        self.nouns = frozenset(c for mask, c in self.chars.items() if mask & noun)

        def tag_chars(lemma_mask: int) -> _ByTag:
            return _ByTag({tag: self.chars[lemma_mask & mask & self.surface_default]
                           for tag, mask in self.tag_masks.items()})

        self.lemma_chars = {lemma: tag_chars(mask) for lemma, mask in self.lemma_masks.items()}
        self.default_chars = tag_chars(self.lemma_default)

        @functools.cache
        def chars_of(bits: int) -> str:
            """The class of the characters whose masks hold any of ``bits``."""
            return "[" + "".join(re.escape(c) for mask, c in self.chars.items()
                                 if mask & bits) + "]"

        self.patterns = {last_noun: [(rule_id, _pattern(atoms, chars_of, last_noun))
                                     for rule_id, atoms in rules]
                         for last_noun in (False, True)}

    def text(self, tokens: list) -> str:
        """The character of each token's mask."""
        if self.surface_masks:
            lemma_masks, tag_masks = self.lemma_masks, self.tag_masks
            surface_masks, surface_default = self.surface_masks, self.surface_default
            masks = [lemma_masks.get(token.lemma, self.lemma_default) & tag_masks[token.tag]
                     & surface_masks.get(token.surface.lower(), surface_default)
                     for token in tokens]
            return "".join(map(self.chars.__getitem__, masks))
        # two lookups per token and no mask built: each AND of masks above
        # 256 would make a new int
        lemma_chars, default_chars = self.lemma_chars, self.default_chars
        return "".join([lemma_chars.get(token.lemma, default_chars)[token.tag]
                        for token in tokens])


def _pattern(atoms, chars, last_noun: bool) -> re.Pattern:
    """One rule's pattern for one target policy, given the class of the
    characters whose masks hold any of some bits."""
    parts = []
    for bit, repeat, word_bits, is_target in atoms:
        # the hit is the last token of group 1; a noun run is
        # matched whole without an atomic group, which 3.10 lacks
        if is_target and last_noun:
            parts += [chars(bit), f"({chars(bit)}*)(?!{chars(bit)})"]
        elif is_target:
            parts.append(f"({chars(bit)})")
        elif word_bits:
            literals = ("".join(map(chars, words)) for words in word_bits)
            parts.append("(?:" + "|".join([chars(bit), *literals]) + ")")
        else:
            parts.append(chars(bit) + _QUANTIFIER[repeat])
    # all but a first atom that takes one token is a lookahead, so each
    # start is tried; the engine skips starts that token's class rules out
    _, repeat, word_bits, _ = atoms[0]
    if repeat is Repeat.ONE and not word_bits:
        head = parts.pop(0)
    else:
        # a start must hold a token that some atom can take first: an atom
        # up to the first one that takes at least one token, or the first
        # word of a multi-word literal
        first = 0
        for bit, repeat, word_bits, _ in atoms:
            first |= bit
            for words in word_bits:
                first |= words[0]
            if repeat is Repeat.ONE:
                break
        head = f"(?={chars(first)})"
    return re.compile(head + "(?=" + "".join(parts) + ")")


_lemma = attrgetter("lemma")
_group_end = methodcaller("end", 1)


def encode(sentences: Iterable[Sentence], cue_set: CueSet) -> Iterator[EncodedChunk]:
    """Encode sentences for :func:`match_encoded`, a chunk at a time.

    A chunk ends after the sentence that brings it to ``CHUNK_TOKENS``
    tokens, and the last one after the last sentence; no sentences give
    one empty chunk, so the matcher still checks its arguments. Each token
    becomes the character of its atom mask, and each sentence is followed
    by a boundary, the character of mask 0. Compiles the cue set on its
    first chunk.
    """
    compiled = cue_set._compiled
    tokens: list = []
    size = 0
    for sentence in sentences:
        if size >= CHUNK_TOKENS:
            yield EncodedChunk(compiled.text(tokens), tokens, compiled.nouns)
            tokens, size = [], 0
        tokens += sentence
        tokens.append(_BOUNDARY)
        size += len(sentence)
    yield EncodedChunk(compiled.text(tokens), tokens, compiled.nouns)


def match_encoded(encoded: EncodedChunk, cue_set: CueSet, *,
                  target_policy: str = TARGET_FIRST_NOUN) -> list[CueHit]:
    """Match every enabled rule against a chunk that :func:`encode` gave
    for the same cue set; the hits are those of :func:`match_sentences`.

    Each rule's hits are built with ``map`` from the ends of its matches,
    with no Python loop over them; a hit's ``token_index`` is its distance
    from the boundary before it.
    """
    if target_policy not in (TARGET_FIRST_NOUN, TARGET_LAST_NOUN):
        raise ValueError(f"unknown target policy: {target_policy!r}")
    text, tokens, _ = encoded
    boundaries, zeros = itertools.repeat(cue_set._compiled.chars[0]), itertools.repeat(0)
    hits: list[CueHit] = []
    for rule_id, pattern in cue_set._compiled.patterns[target_policy == TARGET_LAST_NOUN]:
        # the target is the last token of group 1
        bounds = list(map(sub, map(_group_end, pattern.finditer(text)), itertools.repeat(1)))
        # bound + ~r is bound - r - 1: the tokens after the boundary at r,
        # or from the start of the chunk, where rfind gives -1
        indices = map(add, bounds, map(invert, map(text.rfind, boundaries, zeros, bounds)))
        hits += map(CueHit, itertools.repeat(rule_id),
                    map(_lemma, map(tokens.__getitem__, bounds)), indices)
    return hits


def match_sentences(sentences: Iterable[Sentence], cue_set: CueSet, *,
                    target_policy: str = TARGET_FIRST_NOUN) -> list[CueHit]:
    """Match every enabled rule against each sentence: :func:`encode`, then
    :func:`match_encoded` on each chunk.

    For each rule the scan tries every start position left to right; each
    successful match emits one hit for the target token, so overlapping
    matches of the same rule at later starts are all reported. Optional and
    starred atoms and multi-word literals try their shortest consumption
    first and backtrack into longer ones. Matching never crosses sentence
    boundaries. Hits come chunk by chunk, and within a chunk rule by rule,
    then by start; a hit's ``token_index`` counts from the start of its own
    sentence. ``sentences`` may be any iterable, ``(sentence,)`` included.

    The default target policy binds the first noun after the pattern
    prefix, compound head or not; ``TARGET_LAST_NOUN`` binds the last noun
    of the consecutive noun run instead.

    Each cue set is compiled on its first call and keeps its compiled form.
    """
    return [hit for encoded in encode(sentences, cue_set)
            for hit in match_encoded(encoded, cue_set, target_policy=target_policy)]


# --- rule file format -----------------------------------------------------

_FIELDS = {"lemma": "lemma_in", "surface": "surface_in", "tag": "tag_in"}


def _parse_atom(atom: str) -> TokenConstraint:
    repeat = Repeat.ONE
    if atom.endswith("?"):
        repeat = Repeat.OPTIONAL
        atom = atom[:-1]
    elif atom.endswith("*"):
        repeat = Repeat.STAR
        atom = atom[:-1]
    if not atom:
        raise ValueError("empty pattern atom")
    fields = {}
    for field in atom.split(","):
        if field == "any":
            continue
        key, sep, value = field.partition("=")
        if not sep or not value:
            raise ValueError(f"bad pattern atom {field!r}")
        if key not in _FIELDS:
            raise ValueError(f"unknown constraint field {key!r}")
        if _FIELDS[key] in fields:
            raise ValueError(f"constraint field {key!r} given twice")
        fields[_FIELDS[key]] = frozenset(v.replace("+", " ") for v in value.split("|"))
    return TokenConstraint(**fields, repeat=repeat)


def parse_pattern(pattern: str) -> tuple[tuple[TokenConstraint, ...], int]:
    """Parse a space-separated atom sequence; returns (elements, target index)."""
    elements: list[TokenConstraint] = []
    target_index = None
    for atom in pattern.split():
        if atom == "TARGET":
            if target_index is not None:
                raise ValueError("more than one TARGET slot")
            target_index = len(elements)
            elements.append(TokenConstraint(tag_in=frozenset({"NOUN"})))
        else:
            elements.append(_parse_atom(atom))
    if target_index is None:
        raise ValueError("pattern has no TARGET slot")
    return tuple(elements), target_index


def load_cue_set(lines: Iterable[str], language: str) -> CueSet:
    """Load a cue set from rule-file lines (see module docstring); an error
    in one rule begins with its line, as in ``cue line 2: ``."""
    rules = []
    for line_number, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        flag = fields[3] if len(fields) == 4 else "enabled"
        try:
            if len(fields) not in (3, 4):
                raise ValueError(f"expected 3 or 4 tab-separated fields, got {len(fields)}")
            if flag not in ("enabled", "disabled"):
                raise ValueError(f"bad flag {flag!r}")
            rules.append(CueRule(fields[0], fields[1], *parse_pattern(fields[2]),
                                 flag == "enabled"))
        except ValueError as exc:
            raise ValueError(f"cue line {line_number}: {exc}") from None
    if not rules:
        raise ValueError("no cue rules found")
    return CueSet(language, tuple(rules))


def read_cue_file(path: str, language: str) -> CueSet:
    """Load a cue set from a rule file; each error begins with ``path``."""
    with open_input(path) as fh:
        lines = fh.readlines()
    try:
        return load_cue_set(lines, language)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# --- built-in rule sets ---------------------------------------------------

# Spanish: event nouns appear after durative/typical-event prepositions and
# as arguments of occurrence verbs; the one negative rule covers locative
# complex prepositions. ES-11 records the noun+adjective alternation.
_SPANISH_RULES = """\
ES-1	positive	lemma=durante tag=DET? tag=ADJ* TARGET
ES-2	positive	lemma=hasta lemma=el lemma=final lemma=de tag=DET? TARGET
ES-3	positive	lemma=desde lemma=el lemma=principio lemma=de tag=DET? TARGET
ES-4	positive	lemma=se lemma=producir tag=DET? tag=ADJ* TARGET
ES-5	positive	lemma=ocurrir|suceder tag=DET? tag=ADJ* TARGET
ES-6	positive	TARGET lemma=ocurrir|suceder
ES-7	positive	lemma=se? lemma=celebrar tag=DET? tag=ADJ* TARGET
ES-8	positive	TARGET lemma=ocurrir|producir|celebrar,tag=VERB:PART
ES-9	positive	tag=NUM lemma=semana|mes|año|día|hora|minuto lemma=de tag=DET? TARGET
ES-10	negative	lemma=encima|debajo|dentro|cerca lemma=de tag=DET? TARGET
ES-11	positive	TARGET tag=ADJ
"""

# English: EN-1..10 are positive evidence (aspectual PPs, occurrence verbs,
# aspectual objects, genitive external argument), EN-11 is the
# adjective+noun variant that proved useless and ships disabled, and
# EN-12..16 are negative evidence (indefinites, locatives, by/of PPs).
_ENGLISH_RULES = """\
EN-1	positive	lemma=during tag=DET? tag=ADJ* TARGET
EN-2	positive	lemma=after|before,tag=ADP tag=DET? tag=ADJ* TARGET
EN-3	positive	lemma=at lemma=the lemma=end|beginning lemma=of tag=DET? TARGET
EN-4	positive	TARGET lemma=happen|occur|begin|start|take+place
EN-5	positive	TARGET lemma=be,tag=AUX lemma=initiate|begin|start,tag=VERB:PART
EN-6	positive	lemma=frequency|occurrence|period lemma=of tag=DET? TARGET
EN-7	positive	lemma=begin|start|initiate,tag=VERB tag=DET? tag=ADJ* TARGET
EN-8	positive	lemma=carry lemma=out tag=DET? tag=ADJ* TARGET
EN-9	positive	TARGET lemma=last|continue
EN-10	positive	tag=NOUN|PROPN tag=PART:POSS tag=ADJ* TARGET
EN-11	positive	tag=ADJ TARGET	disabled
EN-12	negative	lemma=a|an tag=ADJ* TARGET
EN-13	negative	lemma=on|under|inside|near|behind|above|below,tag=ADP tag=DET? TARGET
EN-14	negative	TARGET lemma=by,tag=ADP
EN-15	negative	TARGET lemma=of,tag=ADP
EN-16	negative	lemma=on+top+of|in+front+of tag=DET? TARGET
"""

_BUILTIN = {"ES": _SPANISH_RULES, "EN": _ENGLISH_RULES}


@functools.lru_cache(maxsize=None)
def builtin_cue_set(language: str) -> CueSet:
    """Return the built-in cue set for ``ES`` or ``EN``.

    Spanish (11 rules, ES-10 negative): durative and boundary PPs (ES-1..3),
    occurrence verbs producir(se)/ocurrir/suceder/celebrar in presentative,
    postverbal, preverbal and participial configurations (ES-4..8), temporal
    quantifiers like "dos semanas de" (ES-9), locative complex prepositions
    as negative evidence (ES-10), and adjacent adjectives (ES-11).

    English (16 rules, EN-12..16 negative, EN-11 disabled): aspectual PPs
    (EN-1..3), occurrence verbs as active or passive subject (EN-4, EN-5),
    "frequency/occurrence/period of" (EN-6), objects of aspectual verbs
    (EN-7, EN-8), subjects of last/continue (EN-9), genitive external
    argument (EN-10), adjective+noun (EN-11, off by default), and negative
    evidence: indefinite determiners, locative prepositions, trailing
    by/of PPs, and complex locatives (EN-12..16).
    """
    key = language.upper()
    if key not in _BUILTIN:
        raise ValueError(f"unknown language: {language!r} (expected ES or EN)")
    return load_cue_set(_BUILTIN[key].splitlines(), key)
