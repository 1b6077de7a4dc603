"""A deterministic synthetic corpus generator with known ground truth.

The generator produces a tagged corpus by wrapping invented lemmas in
hand-written one-cue sentence templates, so the whole pipeline is testable
without any real corpus. Every draw is logged, which gives tests an exact
oracle for the counts the extractor must recover. The generator does not
run the matcher: the templates are checked against the built-in rules by
``tests/test_data.py::test_each_template_fires_its_rule_exactly_once``.

The gold standards live in :mod:`eventnouns.gold`; their public names are
re-exported here for the callers that import them from this module. The
CLI imports this module only for ``synth``, so the other commands do not
compile the generator.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .corpus import Sentence, TaggedToken, serialize_corpus
from .cues import NEGATIVE, POSITIVE, CueSet, builtin_cue_set
from .features import EVENT, NON_EVENT, write_csv
# the generator uses GoldStandard; the other three are re-exported
from .gold import GoldStandard, english_gold, load_gold, write_gold_csv

# --- sentence templates -----------------------------------------------------

TARGET = "TARGET"

# One tagged sentence per built-in rule. Each template must make exactly its
# own rule fire, exactly once, on the target slot, and a distractor no rule;
# tests/test_data.py::test_each_template_fires_its_rule_exactly_once checks
# that so rule edits cannot silently drift away from the templates.
_TEMPLATES = {
    "ES-1": (("durante", "durante", "ADP"), ("la", "el", "DET"), TARGET),
    "ES-2": (("hasta", "hasta", "ADP"), ("el", "el", "DET"),
             ("final", "final", "NOUN"), ("de", "de", "ADP"),
             ("la", "el", "DET"), TARGET),
    "ES-3": (("desde", "desde", "ADP"), ("el", "el", "DET"),
             ("principio", "principio", "NOUN"), ("de", "de", "ADP"),
             ("la", "el", "DET"), TARGET),
    "ES-4": (("se", "se", "PRON"), ("produjo", "producir", "VERB"),
             ("un", "uno", "DET"), TARGET),
    "ES-5": (("ocurrió", "ocurrir", "VERB"), ("un", "uno", "DET"), TARGET),
    "ES-6": (("el", "el", "DET"), TARGET, ("ocurrió", "ocurrir", "VERB"),
             ("ayer", "ayer", "ADV")),
    "ES-7": (("el", "el", "DET"), ("pueblo", "pueblo", "NOUN"),
             ("celebra", "celebrar", "VERB"), ("la", "el", "DET"), TARGET),
    "ES-8": (("el", "el", "DET"), TARGET,
             ("celebrado", "celebrar", "VERB:PART"), ("ayer", "ayer", "ADV")),
    "ES-9": (("dos", "dos", "NUM"), ("semanas", "semana", "NOUN"),
             ("de", "de", "ADP"), TARGET),
    "ES-10": (("encima", "encima", "ADV"), ("de", "de", "ADP"),
              ("la", "el", "DET"), TARGET),
    "ES-11": (("la", "el", "DET"), TARGET, ("nacional", "nacional", "ADJ")),
    "EN-1": (("during", "during", "ADP"), ("the", "the", "DET"), TARGET),
    "EN-2": (("after", "after", "ADP"), ("the", "the", "DET"), TARGET),
    "EN-3": (("at", "at", "ADP"), ("the", "the", "DET"),
             ("end", "end", "NOUN"), ("of", "of", "ADP"),
             ("the", "the", "DET"), TARGET),
    "EN-4": (("the", "the", "DET"), TARGET, ("happened", "happen", "VERB")),
    "EN-5": (("the", "the", "DET"), TARGET, ("was", "be", "AUX"),
             ("initiated", "initiate", "VERB:PART")),
    "EN-6": (("the", "the", "DET"), ("frequency", "frequency", "NOUN"),
             ("of", "of", "ADP"), ("the", "the", "DET"), TARGET),
    "EN-7": (("they", "they", "PRON"), ("initiated", "initiate", "VERB"),
             ("the", "the", "DET"), TARGET),
    "EN-8": (("they", "they", "PRON"), ("carried", "carry", "VERB"),
             ("out", "out", "PART"), ("the", "the", "DET"), TARGET),
    "EN-9": (("the", "the", "DET"), TARGET, ("lasted", "last", "VERB")),
    "EN-10": (("john", "john", "PROPN"), ("'s", "'s", "PART:POSS"), TARGET),
    "EN-11": (("nuclear", "nuclear", "ADJ"), TARGET),
    "EN-12": (("a", "a", "DET"), TARGET),
    "EN-13": (("under", "under", "ADP"), ("the", "the", "DET"), TARGET),
    "EN-14": (("the", "the", "DET"), TARGET, ("by", "by", "ADP"),
              ("them", "they", "PRON")),
    "EN-15": (("the", "the", "DET"), TARGET, ("of", "of", "ADP"),
              ("them", "they", "PRON")),
    "EN-16": (("in", "in", "ADP"), ("front", "front", "NOUN"),
              ("of", "of", "ADP"), ("the", "the", "DET"), TARGET),
}

# Filler sentences that contain the target noun in a cue-free context.
_DISTRACTORS = {
    "ES": (
        (("el", "el", "DET"), TARGET, ("es", "ser", "AUX"),
         ("importante", "importante", "ADJ")),
        (("vimos", "ver", "VERB"), ("el", "el", "DET"), TARGET,
         ("ayer", "ayer", "ADV")),
        (("con", "con", "ADP"), ("el", "el", "DET"), TARGET,
         ("de", "de", "ADP"), ("madera", "madera", "NOUN")),
    ),
    "EN": (
        (("the", "the", "DET"), TARGET, ("seemed", "seem", "VERB"),
         ("fine", "fine", "ADJ")),
        (("we", "we", "PRON"), ("saw", "see", "VERB"), ("the", "the", "DET"),
         TARGET, ("yesterday", "yesterday", "ADV")),
        (("this", "this", "DET"), TARGET, ("works", "work", "VERB"),
         ("well", "well", "ADV")),
    ),
}


def instantiate_template(template, lemma: str) -> Sentence:
    tokens = []
    for item in template:
        if item == TARGET:
            tokens.append(TaggedToken(lemma, lemma, "NOUN"))
        else:
            surface, item_lemma, tag = item
            tokens.append(TaggedToken(surface, item_lemma, tag))
    return tuple(tokens)


# --- synthetic corpus -------------------------------------------------------

@dataclass(frozen=True)
class SynthParams:
    """Knobs for the generator.

    ``p_event`` is the per-occurrence probability that a lemma appears in a
    cue context of its own class polarity (positive cues for EVENT lemmas,
    negative cues for NON_EVENT lemmas); ``p_non_event`` is the rate for the
    opposite polarity. ``noise`` swaps the two rates for one occurrence,
    modelling cue contexts around wrong-class words. Silent lemmas are
    emitted zero times but stay in the gold standard.
    """

    n_event: int = 100
    n_non_event: int = 100
    p_event: float = 0.4
    p_non_event: float = 0.02
    occurrences: tuple[int, int] = (10, 30)
    silence_event: float = 0.0
    silence_non_event: float = 0.0
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_event < 1 or self.n_non_event < 1:
            raise ValueError("vocabulary sizes must be >= 1")
        for name in ("p_event", "p_non_event", "silence_event",
                     "silence_non_event", "noise"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.p_event + self.p_non_event > 1:
            raise ValueError("p_event + p_non_event must be <= 1")
        lo, hi = self.occurrences
        if not 1 <= lo <= hi:
            raise ValueError("occurrences must satisfy 1 <= lo <= hi")


@dataclass(frozen=True)
class DrawRecord:
    lemma: str
    label: str
    sentence_index: int
    cue_id: str | None  # None for a distractor sentence


@dataclass(frozen=True)
class SynthCorpus:
    corpus_text: str
    gold: GoldStandard
    draw_log: tuple[DrawRecord, ...]


def generate_synthetic_corpus(params: SynthParams,
                              cue_set: CueSet | None = None,
                              language: str = "EN") -> SynthCorpus:
    """Generate a parseable tagged corpus with known per-lemma cue counts.

    Deterministic for a fixed seed. Every lemma draws from its own seeded
    substream, so silencing one lemma never shifts another lemma's draws,
    and the silent set for a larger silence fraction always contains the
    silent set for a smaller one (same seed). Only enabled rules emit
    contexts; the draw log records exactly which cue produced each
    sentence.
    """
    if cue_set is None:
        cue_set = builtin_cue_set(language)
    distractors = _DISTRACTORS.get(cue_set.language)
    if distractors is None:
        raise ValueError(f"no sentence templates for language {cue_set.language!r} "
                         "(expected ES or EN)")
    missing = [r.id for r in cue_set.rules if r.enabled and r.id not in _TEMPLATES]
    if missing:
        raise ValueError("no templates for rules: " + ", ".join(missing))
    positive_rules = [r.id for r in cue_set.rules
                      if r.enabled and r.polarity == POSITIVE]
    negative_rules = [r.id for r in cue_set.rules
                      if r.enabled and r.polarity == NEGATIVE]

    event_lemmas = [f"evt{i:03d}" for i in range(params.n_event)]
    non_event_lemmas = [f"obj{i:03d}" for i in range(params.n_non_event)]
    silent = set()
    for lemmas, fraction, tag in (
            (event_lemmas, params.silence_event, "EVENT"),
            (non_event_lemmas, params.silence_non_event, "NON_EVENT")):
        rng = random.Random(f"{params.seed}:silence:{tag}")
        shuffled = list(lemmas)
        rng.shuffle(shuffled)
        silent.update(shuffled[:int(fraction * len(shuffled) + 0.5)])

    labels = {lemma: EVENT for lemma in event_lemmas}
    labels.update({lemma: NON_EVENT for lemma in non_event_lemmas})

    sentences: list[Sentence] = []
    log: list[DrawRecord] = []
    lo, hi = params.occurrences
    for lemma in sorted(labels):
        if lemma in silent:
            continue
        label = labels[lemma]
        rng = random.Random(f"{params.seed}:lemma:{lemma}")
        for _ in range(rng.randint(lo, hi)):
            effective = label
            if rng.random() < params.noise:
                effective = NON_EVENT if label == EVENT else EVENT
            if effective == EVENT:
                rate_pos, rate_neg = params.p_event, params.p_non_event
            else:
                rate_pos, rate_neg = params.p_non_event, params.p_event
            u = rng.random()
            cue_id = None
            if u < rate_pos and positive_rules:
                cue_id = positive_rules[rng.randrange(len(positive_rules))]
            elif u < rate_pos + rate_neg and negative_rules:
                cue_id = negative_rules[rng.randrange(len(negative_rules))]
            if cue_id is None:
                template = distractors[rng.randrange(len(distractors))]
            else:
                template = _TEMPLATES[cue_id]
            sentences.append(instantiate_template(template, lemma))
            log.append(DrawRecord(lemma, label, len(sentences) - 1, cue_id))

    gold = GoldStandard(cue_set.language, labels)
    return SynthCorpus(serialize_corpus(sentences), gold, tuple(log))


def draw_log_counts(log: Iterable[DrawRecord]) -> tuple[dict[str, Counter], dict[str, int]]:
    """Aggregate a draw log into (cue counts per lemma, occurrences per lemma)."""
    counts: dict[str, Counter] = {}
    totals: dict[str, int] = {}
    for record in log:
        totals[record.lemma] = totals.get(record.lemma, 0) + 1
        if record.cue_id is not None:
            counts.setdefault(record.lemma, Counter())[record.cue_id] += 1
    return counts, totals


def write_draw_log_csv(log: Sequence[DrawRecord], path: str) -> None:
    write_csv(path, ["lemma", "label", "sentence_index", "cue_id"],
              ([r.lemma, r.label, r.sentence_index, r.cue_id or ""] for r in log))
