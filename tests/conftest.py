from dataclasses import replace

from eventnouns.corpus import Sentence, TaggedToken
from eventnouns.cues import CueSet
from eventnouns.gold import GoldStandard


def tok(surface: str, tag: str, lemma: str | None = None) -> TaggedToken:
    return TaggedToken(surface, lemma if lemma is not None else surface.lower(), tag)


def sent(*specs) -> Sentence:
    """Build a sentence from (surface, tag) or (surface, tag, lemma) tuples."""
    return tuple(tok(*spec) for spec in specs)


def with_rules_enabled(cue_set: CueSet, enabled=lambda rule: True) -> CueSet:
    """A copy of ``cue_set``, not yet compiled, in which each rule is
    enabled if ``enabled(rule)`` holds and disabled if not."""
    return replace(cue_set, rules=tuple(replace(rule, enabled=enabled(rule))
                                        for rule in cue_set.rules))


def label_count(gold: GoldStandard, label: str) -> int:
    """The lemmas of ``gold`` labeled ``label``."""
    return sum(1 for l in gold.entries.values() if l == label)
