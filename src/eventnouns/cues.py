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

from .corpus import COARSE_TAGS, Sentence, TaggedToken, coarse_tag

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

    def matches_token(self, token: TaggedToken) -> bool:
        if self.lemma_in is not None and token.lemma not in self.lemma_in:
            return False
        if self.surface_in is not None and token.surface.lower() not in self.surface_in:
            return False
        if self.tag_in is not None and not any(
                _tag_matches(pattern, token.tag) for pattern in self.tag_in):
            return False
        return True


def _tag_matches(pattern: str, tag: str) -> bool:
    # a coarse-only pattern matches any refinement; a refined pattern is exact
    if ":" in pattern:
        return tag == pattern
    return coarse_tag(tag) == pattern


@dataclass(frozen=True)
class CueRule:
    id: str
    language: str
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


@dataclass(frozen=True)
class CueHit:
    cue_id: str
    lemma: str
    sentence_index: int
    token_index: int


# --- matching -------------------------------------------------------------

def _one_token_lengths(constraint: TokenConstraint, tokens, i: int) -> list[int]:
    """Consumption lengths for a repeat-ONE constraint at position i, ascending."""
    lengths = []
    if i < len(tokens) and constraint.matches_token(tokens[i]):
        lengths.append(1)
    if constraint.lemma_in is not None:
        for entry in constraint.lemma_in:
            if " " not in entry:
                continue
            words = entry.split(" ")
            if i + len(words) <= len(tokens) and all(
                    tokens[i + k].lemma == w for k, w in enumerate(words)):
                lengths.append(len(words))
    return sorted(set(lengths))


def _consumptions(constraint: TokenConstraint, tokens, i: int) -> list[int]:
    """Possible token counts this element may consume at position i, ascending.

    Ascending order gives lazy semantics: optional and starred elements
    consume as few tokens as the rest of the pattern allows.
    """
    if constraint.repeat is Repeat.ONE:
        return _one_token_lengths(constraint, tokens, i)
    limit = 1 if constraint.repeat is Repeat.OPTIONAL else MAX_STAR
    options = [0]
    k = 0
    while (k < limit and i + k < len(tokens)
           and constraint.matches_token(tokens[i + k])):
        k += 1
        options.append(k)
    return options


def _match_rule_at(rule: CueRule, tokens, start: int, target_policy: str) -> int | None:
    """Try to match ``rule`` with its first element anchored at ``start``.

    Returns the index of the token bound to the target slot, or None.
    """
    elements = rule.elements

    def rec(ei: int, ti: int) -> tuple[bool, int | None]:
        if ei == len(elements):
            return True, None
        constraint = elements[ei]
        if ei == rule.target_index:
            if ti >= len(tokens) or not constraint.matches_token(tokens[ti]):
                return False, None
            bound, nxt = ti, ti + 1
            if target_policy == TARGET_LAST_NOUN:
                # bind the last noun of a consecutive noun run (compound heads)
                while nxt < len(tokens) and constraint.matches_token(tokens[nxt]):
                    bound, nxt = nxt, nxt + 1
            ok, _ = rec(ei + 1, nxt)
            return (True, bound) if ok else (False, None)
        for consumed in _consumptions(constraint, tokens, ti):
            ok, bound = rec(ei + 1, ti + consumed)
            if ok:
                return True, bound
        return False, None

    ok, bound = rec(0, start)
    return bound if ok else None


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
    """
    if target_policy not in (TARGET_FIRST_NOUN, TARGET_LAST_NOUN):
        raise ValueError(f"unknown target policy: {target_policy!r}")
    tokens = sentence.tokens
    hits = []
    for rule in cue_set.rules:
        if not rule.enabled:
            continue
        for start in range(len(tokens)):
            bound = _match_rule_at(rule, tokens, start, target_policy)
            if bound is not None:
                hits.append(CueHit(rule.id, tokens[bound].lemma,
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
        rules.append(CueRule(rule_id, language, polarity, elements,
                             target_index, enabled))
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
