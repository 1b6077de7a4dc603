import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import sent, with_rules_enabled
from eventnouns import cues
from eventnouns.corpus import COARSE_TAGS, TaggedToken, coarse_tag, parse_tagged_corpus
from eventnouns.cues import (
    CueHit,
    CueRule,
    MAX_STAR,
    NEGATIVE,
    Repeat,
    TARGET_FIRST_NOUN,
    TARGET_LAST_NOUN,
    TokenConstraint,
    builtin_cue_set,
    load_cue_set,
    match_sentences,
    read_cue_file,
)
from eventnouns.data import (
    SynthParams,
    _DISTRACTORS,
    _TEMPLATES,
    generate_synthetic_corpus,
    instantiate_template,
)


def hits_of(sentence, cue_set, **kwargs):
    return match_sentences((sentence,), cue_set, **kwargs)


# --- built-in sets ----------------------------------------------------------

def test_spanish_set_shape():
    cs = builtin_cue_set("ES")
    assert cs.n == 11
    assert sum(1 for r in cs.rules if r.polarity == NEGATIVE) == 1
    assert all(r.enabled for r in cs.rules)
    assert {r.id: r for r in cs.rules}["ES-10"].polarity == NEGATIVE


def test_english_set_shape():
    cs = builtin_cue_set("EN")
    assert cs.n == 16
    assert sum(1 for r in cs.rules if r.polarity == NEGATIVE) == 5
    assert [r.id for r in cs.rules if not r.enabled] == ["EN-11"]


def test_every_target_slot_requires_noun():
    for lang in ("ES", "EN"):
        for rule in builtin_cue_set(lang).rules:
            target = rule.elements[rule.target_index]
            assert target.tag_in == frozenset({"NOUN"})
            assert target.repeat is Repeat.ONE


def test_unknown_language_rejected():
    with pytest.raises(ValueError):
        builtin_cue_set("FR")


def test_language_case_insensitive():
    assert builtin_cue_set("en").n == 16


# --- matching ---------------------------------------------------------------

def test_es1_matches_durante_pp():
    s = sent(("durante", "ADP"), ("la", "DET"), ("guerra", "NOUN"))
    assert hits_of(s, builtin_cue_set("ES")) == [CueHit("ES-1", "guerra", 2)]


def test_first_noun_policy_binds_compound_modifier():
    # the matcher cannot know "world" is not the head: shallow-pattern noise
    s = sent(("during", "ADP"), ("the", "DET"), ("first", "ADJ"),
             ("world", "NOUN"), ("war", "NOUN"))
    assert hits_of(s, builtin_cue_set("EN")) == [CueHit("EN-1", "world", 3)]


def test_last_noun_policy_binds_compound_head():
    s = sent(("during", "ADP"), ("the", "DET"), ("first", "ADJ"),
             ("world", "NOUN"), ("war", "NOUN"))
    hits = hits_of(s, builtin_cue_set("EN"), target_policy=TARGET_LAST_NOUN)
    assert hits == [CueHit("EN-1", "war", 4)]


def test_incomplete_pattern_yields_nothing():
    s = sent(("la", "DET"), ("paz", "NOUN"), ("durante", "ADP"))
    assert hits_of(s, builtin_cue_set("ES")) == []


def test_matching_is_deterministic():
    s = sent(("se", "PRON"), ("produjo", "VERB", "producir"), ("un", "DET"),
             ("grave", "ADJ"), ("accidente", "NOUN"))
    cs = builtin_cue_set("ES")
    assert hits_of(s, cs) == hits_of(s, cs)


def test_multiword_lemma_take_place():
    s = sent(("the", "DET"), ("war", "NOUN"), ("took", "VERB", "take"),
             ("place", "NOUN"))
    assert hits_of(s, builtin_cue_set("EN")) == [CueHit("EN-4", "war", 1)]


def test_multiword_complex_preposition():
    s = sent(("in", "ADP"), ("front", "NOUN"), ("of", "ADP"),
             ("the", "DET"), ("house", "NOUN"))
    hits = hits_of(s, builtin_cue_set("EN"))
    assert CueHit("EN-16", "house", 4) in hits
    # "front of" also looks like a trailing of-PP around the filler noun
    assert CueHit("EN-15", "front", 1) in hits


def test_en2_requires_adposition_tag():
    after_adp = sent(("after", "ADP"), ("the", "DET"), ("storm", "NOUN"))
    after_adv = sent(("after", "ADV"), ("the", "DET"), ("storm", "NOUN"))
    cs = builtin_cue_set("EN")
    assert [h.cue_id for h in hits_of(after_adp, cs)] == ["EN-2"]
    assert hits_of(after_adv, cs) == []


def test_disabled_rule_reports_no_hits():
    s = sent(("nuclear", "ADJ"), ("war", "NOUN"))
    cs = builtin_cue_set("EN")
    assert hits_of(s, cs) == []
    enabled = with_rules_enabled(cs, lambda rule: rule.enabled or rule.id == "EN-11")
    assert hits_of(s, enabled) == [CueHit("EN-11", "war", 1)]


def test_disabling_removes_exactly_its_hits():
    s = sent(("during", "ADP"), ("a", "DET", "a"), ("war", "NOUN"))
    cs = builtin_cue_set("EN")
    with_all = hits_of(s, cs)
    without = hits_of(s, with_rules_enabled(cs, lambda rule: rule.enabled and rule.id != "EN-1"))
    assert without == [h for h in with_all if h.cue_id != "EN-1"]
    assert {h.cue_id for h in with_all} - {h.cue_id for h in without} == {"EN-1"}


def test_same_rule_rematches_at_later_starts():
    # the optional leading "se" lets ES-7 match at two start positions
    s = sent(("se", "PRON"), ("celebra", "VERB", "celebrar"),
             ("la", "DET"), ("fiesta", "NOUN"))
    hits = hits_of(s, builtin_cue_set("ES"))
    assert hits == [CueHit("ES-7", "fiesta", 3), CueHit("ES-7", "fiesta", 3)]


def test_matching_never_crosses_sentence_boundary():
    first = sent(("durante", "ADP"), ("la", "DET"))
    second = sent(("guerra", "NOUN"),)
    cs = builtin_cue_set("ES")
    assert hits_of(first, cs) == []
    assert hits_of(second, cs) == []
    assert match_sentences((first, second), cs) == []
    glued = first + second
    assert [h.cue_id for h in hits_of(glued, cs)] == ["ES-1"]


def test_every_hit_is_a_noun_token():
    rng = random.Random(11)
    words = ["during", "the", "a", "war", "storm", "of", "by", "happen",
             "begin", "took", "place", "frequency", "on", "under", "'s"]
    tags = ["NOUN", "VERB", "DET", "ADP", "ADJ", "ADV", "AUX", "PART:POSS",
            "PRON", "PROPN", "NUM"]
    cs = builtin_cue_set("EN")
    for _ in range(300):
        tokens = tuple(
            TaggedToken(w, w, rng.choice(tags))
            for w in (rng.choice(words) for _ in range(rng.randint(1, 7))))
        for hit in hits_of(tokens, cs):
            assert coarse_tag(tokens[hit.token_index].tag) == "NOUN"
            assert tokens[hit.token_index].lemma == hit.lemma


def test_spanish_rule_specific_fixtures():
    cs = builtin_cue_set("ES")
    cases = {
        "ES-2": sent(("hasta", "ADP"), ("el", "DET"), ("final", "NOUN"),
                     ("de", "ADP"), ("la", "DET"), ("guerra", "NOUN")),
        "ES-5": sent(("sucedió", "VERB", "suceder"), ("una", "DET", "uno"),
                     ("desgracia", "NOUN")),
        "ES-6": sent(("el", "DET"), ("accidente", "NOUN"),
                     ("ocurrió", "VERB", "ocurrir"), ("ayer", "ADV")),
        "ES-8": sent(("el", "DET"), ("accidente", "NOUN"),
                     ("ocurrido", "VERB:PART", "ocurrir"), ("ayer", "ADV")),
        "ES-9": sent(("dos", "NUM"), ("meses", "NOUN", "mes"), ("de", "ADP"),
                     ("sequía", "NOUN")),
        "ES-10": sent(("debajo", "ADV"), ("de", "ADP"), ("la", "DET"),
                      ("mesa", "NOUN")),
        "ES-11": sent(("la", "DET"), ("fiesta", "NOUN"), ("nacional", "ADJ")),
    }
    for cue_id, sentence in cases.items():
        assert cue_id in {h.cue_id for h in hits_of(sentence, cs)}, cue_id


def test_english_rule_specific_fixtures():
    cs = builtin_cue_set("EN")
    cases = {
        "EN-3": sent(("at", "ADP"), ("the", "DET"), ("beginning", "NOUN"),
                     ("of", "ADP"), ("the", "DET"), ("trial", "NOUN")),
        "EN-5": sent(("the", "DET"), ("therapy", "NOUN"), ("was", "AUX", "be"),
                     ("initiated", "VERB:PART", "initiate")),
        "EN-7": sent(("have", "AUX"), ("begun", "VERB:PART", "begin"),
                     ("a", "DET"), ("campaign", "NOUN")),
        "EN-8": sent(("carried", "VERB", "carry"), ("out", "PART"),
                     ("a", "DET"), ("campaign", "NOUN")),
        "EN-9": sent(("the", "DET"), ("storm", "NOUN"),
                     ("lasted", "VERB", "last")),
        "EN-10": sent(("enzyme", "NOUN"), ("'s", "PART:POSS"), ("loss", "NOUN")),
        "EN-12": sent(("an", "DET", "an"), ("event", "NOUN")),
        "EN-13": sent(("under", "ADP"), ("the", "DET"), ("bridge", "NOUN")),
        "EN-14": sent(("the", "DET"), ("map", "NOUN"), ("by", "ADP"),
                      ("him", "PRON", "he")),
    }
    for cue_id, sentence in cases.items():
        assert cue_id in {h.cue_id for h in hits_of(sentence, cs)}, cue_id


# --- rule files -------------------------------------------------------------

def test_load_custom_cue_file():
    text = (
        "# test rules\n"
        "X-1\tpositive\tlemma=near|beside tag=DET? TARGET\n"
        "X-2\tnegative\tTARGET lemma=of,tag=ADP\tdisabled\n"
    )
    cs = load_cue_set(text.splitlines(), "EN")
    assert cs.n == 2
    assert [(r.id, r.enabled) for r in cs.rules] == [("X-1", True), ("X-2", False)]
    s = sent(("near", "ADP"), ("the", "DET"), ("sea", "NOUN"))
    assert [h.cue_id for h in hits_of(s, cs)] == ["X-1"]


def test_cue_file_errors(tmp_path):
    with pytest.raises(ValueError):
        load_cue_set(["X-1\tpositive\tlemma=a lemma=b"], "EN")  # no TARGET
    with pytest.raises(ValueError):
        load_cue_set(["X-1\tpositive\tTARGET TARGET"], "EN")
    with pytest.raises(ValueError):
        load_cue_set(["X-1\tsideways\tTARGET"], "EN")
    with pytest.raises(ValueError):
        load_cue_set(["X-1\tpositive\tbad TARGET"], "EN")
    with pytest.raises(ValueError) as exc:
        load_cue_set(["X-1\tpositive\tTARGET", "X-1\tpositive\tTARGET"], "EN")
    assert "X-1" in str(exc.value)
    path = tmp_path / "rules.tsv"
    path.write_text("# a comment\n\n  \n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        read_cue_file(str(path), "EN")
    assert str(exc.value) == f"{path}: no cue rules found"


@pytest.mark.parametrize("line, message", [
    ("X-1\tpositive", "cue line 2: expected 3 or 4 tab-separated fields, got 2"),
    ("X-1\tpositive\tTARGET\tmaybe", "cue line 2: bad flag 'maybe'"),
    ("X-1\tpositive\tlemma=during ? TARGET", "cue line 2: empty pattern atom"),
    ("X-1\tpositive\tfoo=x TARGET", "cue line 2: unknown constraint field 'foo'"),
    ("X-1\tpositive\tlemma=take+place,tag=VERB TARGET",
     "cue line 2: multi-token lemma literals cannot combine with surface or tag constraints"),
    ("X-1\tpositive\ttag=FOO TARGET", "cue line 2: unknown coarse tag: 'FOO'"),
    ("X-1\tsideways\tTARGET", "cue line 2: bad polarity: 'sideways'"),
    ("X-1\tpositive\ttag=VERB: TARGET", "cue line 2: empty tag refinement: 'VERB:'"),
    ("X-1\tpositive\tlemma=take+place* TARGET",
     "cue line 2: multi-token lemma literals cannot repeat"),
    ("X-1\tpositive\tlemma=take++place TARGET",
     "cue line 2: multi-token lemma literal 'take++place' has an empty word"),
    ("X-1\tpositive\tlemma=+take TARGET",
     "cue line 2: multi-token lemma literal '+take' has an empty word"),
    ("X-1\tpositive\tlemma=a| TARGET", "cue line 2: empty lemma value"),
    ("X-1\tpositive\tsurface=|the TARGET", "cue line 2: empty surface value"),
    ("X-1\tpositive\tlemma=a,lemma=b TARGET",
     "cue line 2: constraint field 'lemma' given twice"),
    ("\tpositive\tlemma=during TARGET", "cue line 2: empty rule id"),
], ids=["field-count", "flag", "empty-atom", "unknown-field", "literal-with-tag",
        "unknown-tag", "bad-polarity", "empty-refinement", "repeating-literal",
        "literal-double-plus", "literal-leading-plus", "empty-lemma-value",
        "empty-surface-value", "repeated-field", "empty-id"])
def test_cue_line_error_message(tmp_path, line, message):
    lines = ["# a comment line counts", line]
    with pytest.raises(ValueError) as exc:
        load_cue_set(lines, "EN")
    assert str(exc.value) == message
    path = tmp_path / "rules.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        read_cue_file(str(path), "EN")
    assert str(exc.value) == f"{path}: {message}"


_NOUN = TokenConstraint(tag_in=frozenset({"NOUN"}))


@pytest.mark.parametrize("elements, target_index, message", [
    ((), 0, "rule X-1: empty pattern"),
    ((_NOUN,), 1, "rule X-1: target index out of range"),
    ((TokenConstraint(tag_in=frozenset({"NOUN"}), repeat=Repeat.STAR),), 0,
     "rule X-1: target slot must match exactly one token"),
    ((TokenConstraint(tag_in=frozenset({"PROPN"})),), 0,
     "rule X-1: target slot must require tag NOUN"),
], ids=["no-elements", "target-out-of-range", "repeating-target", "target-not-noun"])
def test_rule_built_in_code_is_checked(elements, target_index, message):
    with pytest.raises(ValueError) as exc:
        CueRule("X-1", "positive", elements, target_index)
    assert str(exc.value) == message


def test_constraint_validation():
    with pytest.raises(ValueError):
        TokenConstraint(tag_in=frozenset({"XXX"}))
    with pytest.raises(ValueError):
        TokenConstraint(lemma_in=frozenset({"take place"}), repeat=Repeat.STAR)
    for field in ("lemma_in", "surface_in", "tag_in"):  # would match no token
        with pytest.raises(ValueError, match="at least one value"):
            TokenConstraint(**{field: frozenset()})


@pytest.mark.parametrize("fields, message", [
    ({"lemma_in": frozenset({"a", ""})}, "empty lemma value"),
    ({"surface_in": frozenset({""})}, "empty surface value"),
    ({"lemma_in": frozenset({"take  place"})},
     "multi-token lemma literal 'take++place' has an empty word"),
    ({"lemma_in": frozenset({"take "})}, "multi-token lemma literal 'take+' has an empty word"),
], ids=["empty-lemma", "empty-surface", "double-space", "trailing-space"])
def test_constraint_built_in_code_refuses_a_value_that_never_matches(fields, message):
    with pytest.raises(ValueError) as exc:
        TokenConstraint(**fields)
    assert str(exc.value) == message


def test_lemma_constraint_is_lowercased_like_corpus_lemmas():
    assert TokenConstraint(lemma_in=frozenset({"During", "Take Place"})).lemma_in \
        == frozenset({"during", "take place"})
    cs = load_cue_set(["X-1\tpositive\tlemma=During TARGET",
                       "X-2\tpositive\tlemma=TAKE+Place TARGET"], "EN")
    corpus = "During\tDuring\tADP\nwar\twar\tNOUN\ntake\ttake\tVERB\n" \
             "place\tplace\tNOUN\nwar\twar\tNOUN\n"
    sentence = next(parse_tagged_corpus(corpus.splitlines()))
    assert hits_of(sentence, cs) == [CueHit("X-1", "war", 1), CueHit("X-2", "war", 4)]


@pytest.mark.parametrize("pattern", ["tag=VERB: TARGET", "lemma=run,tag=VERB: TARGET",
                                     "tag=DET|NOUN: TARGET"])
def test_tag_with_empty_refinement_is_rejected(pattern):
    with pytest.raises(ValueError, match="empty tag refinement"):
        load_cue_set([f"X-1\tpositive\t{pattern}"], "EN")
    with pytest.raises(ValueError, match="empty tag refinement"):
        TaggedToken("run", "run", "VERB:")  # the same check as a corpus token


def test_star_repetition_is_bounded():
    text = "X-1\tpositive\tlemma=during tag=ADJ* TARGET\n"
    cs = load_cue_set(text.splitlines(), "EN")
    inside = sent(("during", "ADP"), ("big", "ADJ"), ("red", "ADJ"),
                  ("old", "ADJ"), ("war", "NOUN"))
    beyond = sent(("during", "ADP"), ("big", "ADJ"), ("red", "ADJ"),
                  ("old", "ADJ"), ("worn", "ADJ"), ("war", "NOUN"))
    assert [h.cue_id for h in hits_of(inside, cs)] == ["X-1"]
    assert hits_of(beyond, cs) == []


def test_optional_atom_consumes_at_most_one_token():
    cs = load_cue_set(["X-1\tpositive\tlemma=during tag=DET? TARGET"], "EN")
    one = sent(("during", "ADP"), ("the", "DET"), ("war", "NOUN"))
    two = sent(("during", "ADP"), ("the", "DET"), ("the", "DET"), ("war", "NOUN"))
    assert [h.cue_id for h in hits_of(one, cs)] == ["X-1"]
    assert hits_of(two, cs) == []


def test_patterns_compile_once_per_cue_set():
    cs = with_rules_enabled(builtin_cue_set("EN"))  # a fresh copy, not yet compiled
    hits_of(sent(("during", "ADP"), ("the", "DET"), ("war", "NOUN")), cs)
    patterns = cs._compiled.patterns
    before = dict(patterns)
    # "carry" brings a token mask that no earlier chunk held
    s = sent(("they", "PRON"), ("carry", "VERB"), ("out", "ADP"), ("the", "DET"),
             ("war", "NOUN"))
    assert hits_of(s, cs) == [CueHit("EN-8", "war", 4)]
    assert cs._compiled.patterns is patterns
    assert all(patterns[policy] is before[policy] for policy in before)
    assert sorted(before) == [False, True]  # both policies, built before matching


def test_validate_templates_builds_each_pattern_once_per_policy(monkeypatch):
    built = []
    compile_ = re.compile
    monkeypatch.setattr(re, "compile", lambda *args: built.append(args) or compile_(*args))
    # one template at a time on a fresh cue set, as a template check matches
    cue_set = with_rules_enabled(builtin_cue_set("EN"))
    for template in (*(_TEMPLATES[rule.id] for rule in cue_set.rules), *_DISTRACTORS["EN"]):
        hits_of(instantiate_template(template, "probenoun"), cue_set)
    assert len(built) == 2 * len(builtin_cue_set("EN").rules)
    assert len(set(built)) == len(built)


# --- the compiled matcher against the backtracking reference ------------------

def _reference_holds(constraint, token):
    """Whether one atom holds on one token, checked field by field."""
    if constraint.lemma_in is not None and token.lemma not in constraint.lemma_in:
        return False
    if (constraint.surface_in is not None
            and token.surface.lower() not in constraint.surface_in):
        return False
    # a coarse-only tag matches any refinement; a refined tag is exact
    if constraint.tag_in is not None and not any(
            token.tag == pattern if ":" in pattern else coarse_tag(token.tag) == pattern
            for pattern in constraint.tag_in):
        return False
    return True


def _reference_consumptions(constraint, tokens, i):
    """Token counts an element may consume at position i, ascending."""
    if constraint.repeat is Repeat.ONE:
        lengths = []
        if i < len(tokens) and _reference_holds(constraint, tokens[i]):
            lengths.append(1)
        for entry in constraint.lemma_in or ():
            if " " not in entry:
                continue
            words = entry.split(" ")
            if i + len(words) <= len(tokens) and all(
                    tokens[i + k].lemma == w for k, w in enumerate(words)):
                lengths.append(len(words))
        return sorted(set(lengths))
    limit = 1 if constraint.repeat is Repeat.OPTIONAL else MAX_STAR
    options = [0]
    k = 0
    while (k < limit and i + k < len(tokens)
           and _reference_holds(constraint, tokens[i + k])):
        k += 1
        options.append(k)
    return options


def _reference_match_rule_at(rule, tokens, start, target_policy):
    elements = rule.elements

    def rec(ei, ti):
        if ei == len(elements):
            return True, None
        constraint = elements[ei]
        if ei == rule.target_index:
            if ti >= len(tokens) or not _reference_holds(constraint, tokens[ti]):
                return False, None
            bound, nxt = ti, ti + 1
            if target_policy == TARGET_LAST_NOUN:
                while nxt < len(tokens) and _reference_holds(constraint, tokens[nxt]):
                    bound, nxt = nxt, nxt + 1
            ok, _ = rec(ei + 1, nxt)
            return (True, bound) if ok else (False, None)
        for consumed in _reference_consumptions(constraint, tokens, ti):
            ok, bound = rec(ei + 1, ti + consumed)
            if ok:
                return True, bound
        return False, None

    ok, bound = rec(0, start)
    return bound if ok else None


def _reference_match_sentence(tokens, cue_set, *, target_policy=TARGET_FIRST_NOUN):
    """The backtracking matcher: every enabled rule at every start, tried
    element by element with ``_reference_holds``."""
    hits = []
    for rule in cue_set.rules:
        if not rule.enabled:
            continue
        for start in range(len(tokens)):
            bound = _reference_match_rule_at(rule, tokens, start, target_policy)
            if bound is not None:
                hits.append(CueHit(rule.id, tokens[bound].lemma, bound))
    return hits


def assert_same_hits(sentences, cue_set):
    """Each sentence alone gives the reference's hits in its order, and all
    of them together give the same hits, ``token_index`` included, however
    the chunks are cut; none crosses a join."""
    for policy in (TARGET_FIRST_NOUN, TARGET_LAST_NOUN):
        chunk_want = Counter()
        for sentence in sentences:
            want = _reference_match_sentence(sentence, cue_set, target_policy=policy)
            got = match_sentences((sentence,), cue_set, target_policy=policy)
            assert got == want, (cue_set.cue_ids, policy, sentence)
            chunk_want.update(want)
        for chunk_tokens in (cues.CHUNK_TOKENS, 1, 7):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cues, "CHUNK_TOKENS", chunk_tokens)
                chunk_got = Counter(match_sentences(iter(sentences), cue_set,
                                                    target_policy=policy))
            assert chunk_got == chunk_want, (cue_set.cue_ids, policy, chunk_tokens)


def _synth_sentences(language, seed):
    """A small synthetic corpus, plus its sentences joined in runs of three
    so that noun runs and later starts meet more rules."""
    params = SynthParams(n_event=15, n_non_event=15, occurrences=(2, 5),
                         noise=0.2, seed=seed)
    text = generate_synthetic_corpus(params, language=language).corpus_text
    sentences = list(parse_tagged_corpus(text.splitlines()))
    joined = [sum(sentences[i:i + 3], ())
              for i in range(0, len(sentences), 3)]
    return sentences + joined


@pytest.mark.parametrize("language", ["EN", "ES"])
def test_compiled_matcher_equals_reference_on_builtin_rules(language):
    base = builtin_cue_set(language)
    cue_sets = [base, with_rules_enabled(base)]
    for rule in base.rules:
        # the rule toggled, and the rule alone enabled
        cue_sets.append(with_rules_enabled(base, lambda r: r.enabled != (r is rule)))
        cue_sets.append(with_rules_enabled(base, lambda r: r is rule))
    sentences = _synth_sentences(language, seed=3)
    # refinements no built-in rule names take their coarse tag's mask
    retag = {"NOUN": "NOUN:PL", "ADJ": "ADJ:SUP", "VERB": "VERB:PAST"}
    retagged = [tuple(TaggedToken(t.surface, t.lemma, retag.get(t.tag, t.tag)) for t in s)
                for s in sentences]
    for cue_set in cue_sets:
        assert_same_hits(sentences, cue_set)
        assert_same_hits(retagged, cue_set)


def test_a_chunk_ends_after_the_sentence_that_fills_it(monkeypatch):
    monkeypatch.setattr(cues, "CHUNK_TOKENS", 3)
    cs = builtin_cue_set("EN")
    sentences = [sent(*[("war", "NOUN")] * n) for n in (2, 1, 1, 3, 1)]
    # each sentence's tokens and then its boundary
    assert [len(c.text) for c in cues.encode(iter(sentences), cs)] == [3 + 2, 2 + 4, 2]
    assert [c.text for c in cues.encode([], cs)] == [""]


def test_token_that_satisfies_no_atom_is_not_a_sentence_end():
    # no EN rule names PUNCT or the lemma ",", so these tokens hold no atom
    # but the wildcard: the boundary alone has mask 0
    cs = builtin_cue_set("EN")
    comma = (",", "PUNCT")
    sentences = [sent(comma, comma, ("during", "ADP"), ("the", "DET"), ("war", "NOUN")),
                 sent(("the", "DET"), comma, ("war", "NOUN"), ("happened", "VERB", "happen")),
                 sent(comma, ("storm", "NOUN"), ("of", "ADP"), comma)]
    assert match_sentences(sentences, cs) == [
        CueHit("EN-1", "war", 4), CueHit("EN-4", "war", 2), CueHit("EN-15", "storm", 1)]
    assert_same_hits(sentences, cs)


def test_compiled_matcher_equals_reference_past_latin1():
    words = [f"w{i}" for i in range(20)]
    tags = sorted(COARSE_TAGS - {"NOUN"})
    lines = [f"L-{i}\tpositive\tlemma={w} TARGET" for i, w in enumerate(words)]
    lines += [f"T-{tag}\tpositive\ttag={tag} TARGET" for tag in tags]
    cs = load_cue_set(lines, "EN")
    rng = random.Random(5)
    sentences = [tuple(
        TaggedToken("x", rng.choice(words + ["other"]), rng.choice(tags + ["NOUN"] * 4))
        for _ in range(rng.randint(1, 8))) for _ in range(300)]
    assert_same_hits(sentences, cs)
    assert max(map(ord, cs._compiled.chars.values())) > 255  # past Latin-1


# a small vocabulary, so that generated rules and sentences meet often
_LEMMAS = ["a", "b", "take", "place", "of", "the"]
_LITERALS = ["take+place", "of+the", "a+b+a", "the+the"]
_SURFACES = ["a", "A", "b", "La", "la"]
_TOKEN_TAGS = ["NOUN", "NOUN:PL", "VERB", "VERB:PART", "ADJ", "ADJ:SUP", "DET", "ADP"]
_PATTERN_TAGS = ["NOUN", "VERB", "VERB:PART", "ADJ", "DET", "ADP", "NOUN:PL"]


def _alternatives(values):
    return st.lists(st.sampled_from(values), min_size=1, max_size=3,
                    unique=True).map("|".join)


_literal_atom = st.tuples(_alternatives(_LEMMAS), _alternatives(_LITERALS)).map(
    lambda pair: f"lemma={pair[0]}|{pair[1]}")
_fields = st.tuples(
    st.one_of(st.none(), _alternatives(_LEMMAS).map("lemma={}".format)),
    st.one_of(st.none(), _alternatives(_SURFACES).map("surface={}".format)),
    st.one_of(st.none(), _alternatives(_PATTERN_TAGS).map("tag={}".format)),
).map(lambda fields: ",".join(f for f in fields if f) or "any")
_atom = st.one_of(
    _literal_atom,
    st.tuples(_fields, st.sampled_from(["", "", "?", "*"])).map("".join))


@st.composite
def _rule_sets(draw):
    lines = []
    for number in range(draw(st.integers(1, 4))):
        atoms = draw(st.lists(_atom, max_size=4))
        atoms.insert(draw(st.integers(0, len(atoms))), "TARGET")
        flag = "\tdisabled" if draw(st.booleans()) and number else ""
        lines.append(f"R-{number}\tpositive\t{' '.join(atoms)}{flag}")
    return load_cue_set(lines, "EN")


_token = st.tuples(st.sampled_from(_SURFACES), st.sampled_from(_LEMMAS),
                   st.sampled_from(_TOKEN_TAGS)).map(lambda t: TaggedToken(*t))
_sentence = st.lists(_token, min_size=1, max_size=10).map(tuple)


@settings(max_examples=300, deadline=None)
@given(_rule_sets(), st.lists(_sentence, min_size=1, max_size=4))
def test_compiled_matcher_equals_reference_on_generated_rules(cue_set, sentences):
    assert_same_hits(sentences, cue_set)
