"""Lexico-syntactic cue rules and the matcher that applies them.

A cue rule is an ordered sequence of token constraints with one designated
TARGET slot (a noun). Matching a rule against a sentence yields one hit per
start position where it matches, bound to the noun in the target slot.
Rules are shallow and strictly linear: each compiles to one lazy regular
expression over chunks of sentences encoded as one character per token
mask, the set of atoms a token satisfies. Matches may overlap; none crosses
a sentence boundary.

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
import re
from bisect import bisect_right
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Iterable, Sequence

from .corpus import Sentence, check_tag, coarse_tag

POSITIVE = "positive"
NEGATIVE = "negative"

TARGET_FIRST_NOUN = "first"
TARGET_LAST_NOUN = "last"

MAX_STAR = 3


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

    @property
    def target(self) -> TokenConstraint:
        return self.elements[self.target_index]


@dataclass(frozen=True)
class CueSet:
    language: str
    rules: tuple[CueRule, ...]

    def __post_init__(self):
        ids = [r.id for r in self.rules]
        if len(ids) != len(set(ids)):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate rule ids: {', '.join(dupes)}")

    @property
    def n(self) -> int:
        """Vector dimensionality: every rule, enabled or not, has a slot."""
        return len(self.rules)

    @property
    def cue_ids(self) -> tuple[str, ...]:
        return tuple(r.id for r in self.rules)

    def rule(self, rule_id: str) -> CueRule:
        for r in self.rules:
            if r.id == rule_id:
                return r
        raise KeyError(rule_id)

    def with_enabled(self, rule_id: str, enabled: bool) -> CueSet:
        """Return a copy with one rule toggled."""
        self.rule(rule_id)  # raise early on unknown id
        return CueSet(self.language, tuple(
            replace(r, enabled=enabled) if r.id == rule_id else r
            for r in self.rules))

    def with_all_enabled(self) -> CueSet:
        return CueSet(self.language, tuple(
            replace(r, enabled=True) for r in self.rules))

    @functools.cached_property
    def _compiled(self) -> _CompiledCueSet:
        # built on the first match, not at load; not a field, so equality
        # and hashing ignore it
        return _CompiledCueSet(self)


@dataclass(frozen=True)
class CueHit:
    cue_id: str
    lemma: str
    token_index: int


# --- matching -------------------------------------------------------------

class _TagMasks(dict):
    """Tag -> atom mask, filled in as tags are seen."""

    def __init__(self, constraints):
        super().__init__()
        self.constraints = constraints

    def __missing__(self, tag: str) -> int:
        mask = 0
        for constraint, bit in self.constraints:
            # a coarse-only pattern matches any refinement; a refined one is exact
            if constraint.tag_in is None or any(
                    tag == pattern if ":" in pattern else coarse_tag(tag) == pattern
                    for pattern in constraint.tag_in):
                mask |= bit
        self[tag] = mask
        return mask


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
# ends each sentence of a chunk; its tag has the empty mask, which no atom
# holds, so no match crosses it
_BOUNDARY = SimpleNamespace(surface="", lemma="", tag="")


class _CompiledCueSet:
    """The enabled rules of a cue set, compiled to regular expressions.

    Each distinct constraint of the enabled rules gets one bit, and so does
    each word of a multi-word literal. A token's atom mask, the bits of the
    constraints it satisfies, is the AND of one table lookup per field; the
    lemma and surface tables hold only the values the rules name. A token is
    encoded as the character of its mask, and an atom as the class of the
    characters whose masks hold its bit, so a new mask rebuilds the patterns.
    """

    def __init__(self, cue_set: CueSet):
        bits: dict[TokenConstraint, int] = {}

        def bit(constraint: TokenConstraint) -> int:
            return bits.setdefault(constraint, 1 << len(bits))

        # (rule id, atoms); an atom is (bit, repeat, the word bits of each
        # multi-word literal, shortest first, is target)
        self.rules = []
        for rule in (rule for rule in cue_set.rules if rule.enabled):
            atoms = []
            for index, constraint in enumerate(rule.elements):
                literals = sorted((entry.split(" ") for entry in constraint.lemma_in or ()
                                   if " " in entry), key=len)
                word_bits = [[bit(TokenConstraint(lemma_in=frozenset({w}))) for w in words]
                             for words in literals]
                atoms.append((bit(constraint), constraint.repeat, word_bits,
                              index == rule.target_index))
            self.rules.append((rule.id, atoms))
        constraints = tuple(bits.items())
        self.lemma_default, self.lemma_masks = _field_table(constraints, "lemma_in")
        self.surface_default, self.surface_masks = _field_table(constraints, "surface_in")
        self.use_surface = any(c.surface_in is not None for c in bits)
        self.tag_masks = _TagMasks(constraints)
        self.tag_masks[_BOUNDARY.tag] = 0
        self.chars: dict[int, str] = {}  # mask -> the character that encodes it
        self.patterns: dict[bool, list[tuple[str, re.Pattern]]] = {}  # by last_noun

    def encode(self, sentences: Sequence[Sentence]) -> tuple[str, list, list[int]]:
        """The chunk as text, with its tokens, each sentence followed by the
        boundary, and the offset of each sentence in both."""
        tokens, starts = [], []
        for sentence in sentences:
            starts.append(len(tokens))
            tokens += sentence.tokens
            tokens.append(_BOUNDARY)
        lemma_masks, tag_masks = self.lemma_masks, self.tag_masks
        masks = [lemma_masks.get(token.lemma, self.lemma_default) & tag_masks[token.tag]
                 for token in tokens]
        if self.use_surface:
            surface_masks, surface_default = self.surface_masks, self.surface_default
            masks = [mask & surface_masks.get(token.surface.lower(), surface_default)
                     for mask, token in zip(masks, tokens)]
        for mask in set(masks).difference(self.chars):
            self.chars[mask] = chr(0x100 + len(self.chars))
            self.patterns.clear()
        return "".join(map(self.chars.__getitem__, masks)), tokens, starts

    def compile(self, last_noun: bool) -> list[tuple[str, re.Pattern]]:
        """Build each rule's pattern for the masks seen so far."""
        def chars(bit: int) -> str:
            # "\xff" encodes no mask; it keeps a class no mask fills valid
            return "[\xff" + "".join(c for mask, c in self.chars.items() if mask & bit) + "]"

        patterns = self.patterns[last_noun] = []
        for rule_id, atoms in self.rules:
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
            head = parts.pop(0) if repeat is Repeat.ONE and not word_bits else ""
            patterns.append((rule_id, re.compile(head + "(?=" + "".join(parts) + ")")))
        return patterns


def match_sentences(sentences: Sequence[Sentence], cue_set: CueSet, *,
                    target_policy: str = TARGET_FIRST_NOUN) -> list[CueHit]:
    """Match every enabled rule against each sentence of a chunk.

    For each rule the scan tries every start position left to right; each
    successful match emits one hit for the target token, so overlapping
    matches of the same rule at later starts are all reported. Optional and
    starred atoms and multi-word literals try their shortest consumption
    first and backtrack into longer ones. Matching never crosses sentence
    boundaries. Hits come rule by rule, then by start; a hit's
    ``token_index`` counts from the start of its own sentence.

    The default target policy binds the first noun after the pattern
    prefix, compound head or not; ``TARGET_LAST_NOUN`` binds the last noun
    of the consecutive noun run instead.

    Each cue set is compiled on its first call and keeps its compiled form.
    """
    if target_policy not in (TARGET_FIRST_NOUN, TARGET_LAST_NOUN):
        raise ValueError(f"unknown target policy: {target_policy!r}")
    compiled = cue_set._compiled
    text, tokens, starts = compiled.encode(sentences)
    last_noun = target_policy == TARGET_LAST_NOUN
    hits = []
    for rule_id, pattern in compiled.patterns.get(last_noun) or compiled.compile(last_noun):
        for match in pattern.finditer(text):
            bound = match.end(1) - 1
            index = bound - starts[bisect_right(starts, bound) - 1]
            hits.append(CueHit(rule_id, tokens[bound].lemma, index))
    return hits


def match_sentence(sentence: Sentence, cue_set: CueSet, *,
                   target_policy: str = TARGET_FIRST_NOUN) -> list[CueHit]:
    """:func:`match_sentences` on a chunk of one sentence."""
    return match_sentences((sentence,), cue_set, target_policy=target_policy)


# --- rule file format -----------------------------------------------------

def _parse_atom(atom: str, where: str) -> TokenConstraint:
    repeat = Repeat.ONE
    if atom.endswith("?"):
        repeat = Repeat.OPTIONAL
        atom = atom[:-1]
    elif atom.endswith("*"):
        repeat = Repeat.STAR
        atom = atom[:-1]
    if not atom:
        raise ValueError(f"{where}: empty pattern atom")
    lemma_in = surface_in = tag_in = None
    for field in atom.split(","):
        if field == "any":
            continue
        key, sep, value = field.partition("=")
        if not sep or not value:
            raise ValueError(f"{where}: bad pattern atom {field!r}")
        values = frozenset(v.replace("+", " ") for v in value.split("|"))
        if key == "lemma":
            lemma_in = values
        elif key == "surface":
            surface_in = values
        elif key == "tag":
            tag_in = values
        else:
            raise ValueError(f"{where}: unknown constraint field {key!r}")
    return TokenConstraint(lemma_in=lemma_in, surface_in=surface_in,
                           tag_in=tag_in, repeat=repeat)


def parse_pattern(pattern: str, where: str = "pattern") -> tuple[tuple[TokenConstraint, ...], int]:
    """Parse a space-separated atom sequence; returns (elements, target index)."""
    elements: list[TokenConstraint] = []
    target_index = None
    for atom in pattern.split():
        if atom == "TARGET":
            if target_index is not None:
                raise ValueError(f"{where}: more than one TARGET slot")
            target_index = len(elements)
            elements.append(TokenConstraint(tag_in=frozenset({"NOUN"})))
        else:
            elements.append(_parse_atom(atom, where))
    if target_index is None:
        raise ValueError(f"{where}: pattern has no TARGET slot")
    return tuple(elements), target_index


def load_cue_set(lines: Iterable[str], language: str) -> CueSet:
    """Load a cue set from rule-file lines (see module docstring)."""
    rules = []
    for line_number, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) not in (3, 4):
            raise ValueError(f"cue line {line_number}: expected 3 or 4 "
                             f"tab-separated fields, got {len(fields)}")
        rule_id, polarity, pattern = fields[0], fields[1], fields[2]
        enabled = True
        if len(fields) == 4:
            if fields[3] not in ("enabled", "disabled"):
                raise ValueError(f"cue line {line_number}: bad flag {fields[3]!r}")
            enabled = fields[3] == "enabled"
        elements, target_index = parse_pattern(pattern, f"cue line {line_number}")
        rules.append(CueRule(rule_id, polarity, elements, target_index, enabled))
    return CueSet(language, tuple(rules))


def read_cue_file(path: str, language: str) -> CueSet:
    with open(path, encoding="utf-8") as fh:
        return load_cue_set(fh, language)


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
