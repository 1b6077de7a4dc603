"""Lexico-syntactic cue rules and the matcher that applies them.

A cue rule is an ordered sequence of token constraints with one designated
TARGET slot (a noun). Matching a rule against a sentence yields one hit per
successful match, bound to the noun in the target slot. Rules are shallow
and strictly linear: no parsing, just left-to-right scanning over the
tagged token stream.

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
from dataclasses import dataclass, replace
from typing import Iterable

from .corpus import COARSE_TAGS, Sentence, coarse_tag

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
        if self.surface_in is not None:
            object.__setattr__(self, "surface_in",
                               frozenset(s.lower() for s in self.surface_in))
        if self.tag_in is not None:
            for tag in self.tag_in:
                if coarse_tag(tag) not in COARSE_TAGS:
                    raise ValueError(f"unknown coarse tag in constraint: {tag!r}")
        if self.lemma_in is not None and any(" " in entry for entry in self.lemma_in):
            # multi-token literals only make sense for a plain lemma slot
            if self.repeat is not Repeat.ONE:
                raise ValueError("multi-token lemma literals cannot repeat")
            if self.surface_in is not None or self.tag_in is not None:
                raise ValueError("multi-token lemma literals cannot combine "
                                 "with surface or tag constraints")


def _tag_matches(pattern: str, tag: str) -> bool:
    # a coarse-only pattern matches any refinement; a refined pattern is exact
    if ":" in pattern:
        return tag == pattern
    return coarse_tag(tag) == pattern


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
    sentence_index: int
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
            if constraint.tag_in is None or any(
                    _tag_matches(pattern, tag) for pattern in constraint.tag_in):
                mask |= bit
        self[tag] = mask
        return mask


def _field_table(constraints, field) -> tuple[int, dict[str, int]]:
    """Masks of the values one field names, and the mask of any other value."""
    default = 0
    masks: dict[str, int] = {}
    for constraint, bit in constraints:
        values = field(constraint)
        if values is None:
            default |= bit
        else:
            for value in values:
                masks[value] = masks.get(value, 0) | bit
    return default, {value: mask | default for value, mask in masks.items()}


_REPEAT_LIMIT = {Repeat.ONE: 0, Repeat.OPTIONAL: 1, Repeat.STAR: MAX_STAR}


class _CompiledCueSet:
    """The enabled rules of a cue set, compiled for matching.

    Each distinct constraint of the enabled rules gets one bit, and a
    token's atom mask holds the bits of the constraints it satisfies. A
    constraint holds only when each of its fields holds, so the mask is the
    AND of one table lookup per field. The lemma and surface tables hold
    only the values the rules name; any other value gets the bits of the
    constraints without that field.
    """

    def __init__(self, cue_set: CueSet):
        bits: dict[TokenConstraint, int] = {}
        # (rule id, elements, anchor, required); an element is (bit, repeat
        # limit, multi-word literals, is target)
        self.rules = []
        for rule in cue_set.rules:
            if not rule.enabled:
                continue
            elements = []
            # a repeat-ONE single-token atom consumes one token it holds on,
            # so a sentence lacking any of their bits cannot match the rule
            required = 0
            for index, constraint in enumerate(rule.elements):
                bit = bits.setdefault(constraint, 1 << len(bits))
                limit = _REPEAT_LIMIT[constraint.repeat]
                literals = tuple(sorted(
                    (tuple(entry.split(" "))
                     for entry in constraint.lemma_in or () if " " in entry),
                    key=len))
                elements.append((bit, limit, literals, index == rule.target_index))
                if limit == 0 and not literals:
                    required |= bit
            # a match can start only where a leading repeat-ONE atom holds on
            # the token or one of its multi-word literals begins; 0 tries all
            bit, limit, literals, _ = elements[0]
            anchor = 0
            if limit == 0:
                anchor = bit
                if literals:
                    first_words = TokenConstraint(
                        lemma_in=frozenset(words[0] for words in literals))
                    anchor |= bits.setdefault(first_words, 1 << len(bits))
            self.rules.append((rule.id, tuple(elements), anchor, required))
        constraints = tuple(bits.items())
        self.lemma_default, self.lemma_masks = _field_table(
            constraints, lambda c: c.lemma_in)
        self.surface_default, self.surface_masks = _field_table(
            constraints, lambda c: c.surface_in)
        self.use_surface = any(c.surface_in is not None for c in bits)
        self.tag_masks = _TagMasks(constraints)

    def masks(self, tokens) -> list[int]:
        """The atom mask of each token."""
        lemma_masks, lemma_default = self.lemma_masks, self.lemma_default
        tag_masks = self.tag_masks
        masks = [lemma_masks.get(token.lemma, lemma_default) & tag_masks[token.tag]
                 for token in tokens]
        if self.use_surface:
            surface_masks, surface_default = self.surface_masks, self.surface_default
            masks = [mask & surface_masks.get(token.surface.lower(), surface_default)
                     for mask, token in zip(masks, tokens)]
        return masks


def _match_from(elements, ei: int, ti: int, masks, tokens, last_noun: bool,
                bound: int) -> int:
    """Match ``elements[ei:]`` from token ``ti``; ``bound`` is the target
    token if the target slot lies before ``ei``.

    Returns the index of the token bound to the target slot, or -1. Optional
    and starred atoms and multi-word literals try their shortest
    consumption first and backtrack into longer ones.
    """
    n = len(masks)
    for ei in range(ei, len(elements)):
        bit, limit, literals, is_target = elements[ei]
        if is_target:
            if ti >= n or not masks[ti] & bit:
                return -1
            bound, ti = ti, ti + 1
            if last_noun:
                # bind the last noun of a consecutive noun run (compound heads)
                while ti < n and masks[ti] & bit:
                    bound, ti = ti, ti + 1
            continue
        if limit:
            end = ti
            while end - ti < limit and end < n and masks[end] & bit:
                end += 1
            lengths = range(end - ti + 1)
        elif literals:
            if ti >= n:
                return -1
            lemma = tokens[ti].lemma
            lengths = [1] if masks[ti] & bit else []
            for words in literals:  # shortest first
                if (words[0] == lemma and ti + len(words) <= n
                        and len(words) not in lengths
                        and all(tokens[ti + k].lemma == words[k]
                                for k in range(1, len(words)))):
                    lengths.append(len(words))
            if not lengths:
                return -1
        else:
            if ti >= n or not masks[ti] & bit:
                return -1
            ti += 1
            continue
        for length in lengths[:-1]:
            found = _match_from(elements, ei + 1, ti + length, masks, tokens,
                                last_noun, bound)
            if found >= 0:
                return found
        ti += lengths[-1]
    return bound


def match_sentence(sentence: Sentence, cue_set: CueSet, *,
                   sentence_index: int = 0,
                   target_policy: str = TARGET_FIRST_NOUN) -> list[CueHit]:
    """Match every enabled rule against one sentence.

    For each rule the scan tries every start position left to right; each
    successful match emits one hit for the target token and scanning
    resumes at the token after the match start, so overlapping matches of
    the same rule at later starts are all reported. Matching never crosses
    sentence boundaries.

    The default target policy binds the first noun after the pattern
    prefix, compound head or not; ``TARGET_LAST_NOUN`` binds the last noun
    of the consecutive noun run instead.

    Each cue set is compiled on its first call and keeps its compiled form.
    """
    if target_policy not in (TARGET_FIRST_NOUN, TARGET_LAST_NOUN):
        raise ValueError(f"unknown target policy: {target_policy!r}")
    compiled = cue_set._compiled
    tokens = sentence.tokens
    masks = compiled.masks(tokens)
    present = 0
    for mask in masks:
        present |= mask
    last_noun = target_policy == TARGET_LAST_NOUN
    hits = []
    for rule_id, elements, anchor, required in compiled.rules:
        if present & required != required:
            continue
        if anchor:
            starts = [i for i, mask in enumerate(masks) if mask & anchor]
        else:
            starts = range(len(tokens))
        for start in starts:
            bound = _match_from(elements, 0, start, masks, tokens, last_noun, -1)
            if bound >= 0:
                hits.append(CueHit(rule_id, tokens[bound].lemma,
                                   sentence_index, bound))
    return hits


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
