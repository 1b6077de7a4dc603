import re
from collections import Counter

import pytest

from eventnouns.corpus import parse_tagged_corpus
from eventnouns.cues import builtin_cue_set, load_cue_set, match_sentences
from eventnouns.data import (
    GoldStandard,
    SynthParams,
    _DISTRACTORS,
    _TEMPLATES,
    draw_log_counts,
    english_gold,
    generate_synthetic_corpus,
    instantiate_template,
    load_gold,
    write_draw_log_csv,
    write_gold_csv,
)
from eventnouns.features import EVENT, NON_EVENT, extract_features
from eventnouns.gold import _ENGLISH_EVENT, _ENGLISH_NON_EVENT


# --- gold standards -----------------------------------------------------------

def test_english_gold_shape():
    gold = english_gold()
    assert len(gold) == 167
    # the embedded source lists contain 73 event and 94 non-event nouns
    assert gold.count(EVENT) == 73
    assert gold.count(NON_EVENT) == 94


def test_english_gold_membership():
    gold = english_gold()
    assert gold.entries["war"] == EVENT
    assert gold.entries["earthquake"] == EVENT
    assert gold.entries["map"] == NON_EVENT
    assert gold.entries["defence"] == NON_EVENT
    assert all(lemma == lemma.lower() for lemma in gold.entries)


def test_english_gold_lists_disjoint():
    # english_gold() merges the two lists with dict.update, so a lemma in
    # both would silently become NON_EVENT; check the source lists instead.
    assert len(set(_ENGLISH_EVENT)) == len(_ENGLISH_EVENT)
    assert len(set(_ENGLISH_NON_EVENT)) == len(_ENGLISH_NON_EVENT)
    assert not set(_ENGLISH_EVENT) & set(_ENGLISH_NON_EVENT)
    gold = english_gold()
    counts = Counter(gold.entries.values())
    assert counts[EVENT] + counts[NON_EVENT] == len(gold)  # no third label
    assert len(gold) == len(_ENGLISH_EVENT) + len(_ENGLISH_NON_EVENT)


def test_load_gold_roundtrip(tmp_path):
    path = tmp_path / "gold.csv"
    write_gold_csv(english_gold(), str(path))
    loaded = load_gold(str(path), language="EN")
    assert dict(loaded.entries) == dict(english_gold().entries)


def test_load_gold_two_line_file(tmp_path):
    path = tmp_path / "gold.csv"
    path.write_text("guerra,EVENT\ntren,NON_EVENT\n")
    gold = load_gold(str(path))
    assert len(gold) == 2


def test_load_gold_rejects_duplicates(tmp_path):
    path = tmp_path / "gold.csv"
    path.write_text("guerra,EVENT\nguerra,NON_EVENT\n")
    with pytest.raises(ValueError) as exc:
        load_gold(str(path))
    assert "guerra" in str(exc.value)


def test_load_gold_label_case_insensitive(tmp_path):
    path = tmp_path / "gold.csv"
    path.write_text("lemma,label\nguerra,event\nTren,non_event\n")
    gold = load_gold(str(path))
    assert gold.entries == {"guerra": EVENT, "tren": NON_EVENT}


def test_gold_standard_stores_canonical_labels(tmp_path):
    gold = GoldStandard("EN", {"war": "event", "tree": "Non_Event", "storm": "EVENT"})
    assert (gold.count(EVENT), gold.count(NON_EVENT)) == (2, 1)
    path = tmp_path / "gold.csv"
    write_gold_csv(gold, str(path))
    assert path.read_text().splitlines() == [
        "lemma,label", "storm,EVENT", "tree,NON_EVENT", "war,EVENT"]


@pytest.mark.parametrize("label", [None, 1, ["EVENT"]])
def test_gold_standard_rejects_non_string_label(label):
    message = f"unknown label: {label!r} (expected EVENT or NON_EVENT)"
    with pytest.raises(ValueError, match=re.escape(message)):
        GoldStandard("EN", {"war": "EVENT", "tree": label})


@pytest.mark.parametrize("row, message", [
    ("guerra,EVENT,x", "expected 2 fields, got 3"),
    (" ,EVENT", "empty lemma"),
    ("x" * 140_000 + ",EVENT", "field larger than field limit (131072)"),
    ("m\0ap,NON_EVENT", "line contains NUL"),
], ids=["three-fields", "empty-lemma", "huge-field", "nul"])
def test_load_gold_row_error_names_file_and_row(tmp_path, row, message):
    path = tmp_path / "gold.csv"
    path.write_text("lemma,label\ntren,NON_EVENT\n" + row + "\n")
    with pytest.raises(ValueError) as exc:
        load_gold(str(path))
    assert str(exc.value) == f"{path}:3: {message}"


def test_load_gold_rejects_unknown_label(tmp_path):
    path = tmp_path / "gold.csv"
    path.write_text("guerra,MAYBE\n")
    with pytest.raises(ValueError):
        load_gold(str(path))


# --- templates ------------------------------------------------------------------

@pytest.mark.parametrize("language", ["ES", "EN"])
def test_each_template_fires_its_rule_exactly_once(language):
    # every rule is enabled, so disabled rules keep honest templates too;
    # hits on filler nouns ("end" in "at the end of") are harmless, as
    # fillers are never targets, but no other rule may hit the target, and
    # a distractor template, given as rule None, makes no rule hit it
    cue_set = builtin_cue_set(language).with_all_enabled()
    cases = [(rule.id, _TEMPLATES[rule.id]) for rule in cue_set.rules]
    cases += [(None, template) for template in _DISTRACTORS[language]]
    for rule_id, template in cases:
        sentence = instantiate_template(template, "probenoun")
        hits = match_sentences((sentence,), cue_set)
        own = [h for h in hits if h.cue_id == rule_id]
        assert len(own) == (rule_id is not None), (rule_id, template)
        assert [h for h in hits if h.lemma == "probenoun"] == own, (rule_id, template)


# --- synthetic corpus --------------------------------------------------------------

def small_params(**overrides):
    defaults = dict(n_event=8, n_non_event=8, p_event=0.5, p_non_event=0.05,
                    occurrences=(3, 6), seed=7)
    defaults.update(overrides)
    return SynthParams(**defaults)


def test_generation_is_deterministic():
    a = generate_synthetic_corpus(small_params(), language="EN")
    b = generate_synthetic_corpus(small_params(), language="EN")
    assert a.corpus_text == b.corpus_text
    assert a.draw_log == b.draw_log
    assert dict(a.gold.entries) == dict(b.gold.entries)


def test_generated_corpus_parses():
    result = generate_synthetic_corpus(small_params(), language="ES")
    sentences = list(parse_tagged_corpus(result.corpus_text.splitlines()))
    assert len(sentences) == len(result.draw_log)


def test_zero_emission_rate_yields_zero_cue_counts():
    params = small_params(p_event=0.0, p_non_event=0.0)
    result = generate_synthetic_corpus(params, language="EN")
    dataset = extract_features(
        parse_tagged_corpus(result.corpus_text.splitlines()),
        builtin_cue_set("EN"), result.gold.lemmas)
    for vector in dataset.vectors:
        assert vector.is_zero
        assert vector.total_occurrences >= 3  # lemmas still occur


def test_one_cue_binomial_interval():
    # a single enabled cue: per-occurrence emission is one Bernoulli(p_event)
    cue_set = builtin_cue_set("EN")
    for rule in cue_set.rules:
        if rule.id != "EN-1":
            cue_set = cue_set.with_enabled(rule.id, False)
    params = SynthParams(n_event=1, n_non_event=1, p_event=0.5,
                         p_non_event=0.0, occurrences=(20, 20), seed=99)
    result = generate_synthetic_corpus(params, cue_set)
    counts, totals = draw_log_counts(result.draw_log)
    assert totals["evt000"] == 20
    fired = counts.get("evt000", Counter())["EN-1"]
    assert 3 <= fired <= 17  # 99.9% binomial interval around the mean of 10
    dataset = extract_features(
        parse_tagged_corpus(result.corpus_text.splitlines()),
        cue_set, result.gold.lemmas)
    vector = {v.lemma: v for v in dataset.vectors}["evt000"]
    assert vector.counts[cue_set.cue_ids.index("EN-1")] == fired


@pytest.mark.parametrize("language", ["ES", "EN"])
def test_extraction_recovers_draw_log_exactly(language):
    params = small_params(noise=0.1, silence_event=0.2, silence_non_event=0.1)
    result = generate_synthetic_corpus(params, language=language)
    cue_set = builtin_cue_set(language)
    dataset = extract_features(
        parse_tagged_corpus(result.corpus_text.splitlines()),
        cue_set, result.gold.lemmas)
    logged_counts, logged_totals = draw_log_counts(result.draw_log)
    for vector in dataset.vectors:
        expected = logged_counts.get(vector.lemma, Counter())
        assert vector.total_occurrences == logged_totals.get(vector.lemma, 0)
        for position, cue_id in enumerate(dataset.cue_ids):
            assert vector.counts[position] == expected[cue_id], \
                (vector.lemma, cue_id)


def test_silent_lemmas_stay_in_gold_with_no_occurrences():
    params = small_params(silence_event=0.5)
    result = generate_synthetic_corpus(params, language="EN")
    _, totals = draw_log_counts(result.draw_log)
    silent = [l for l in result.gold.lemmas if l not in totals]
    assert len(silent) == 4  # half of the 8 event lemmas
    assert all(result.gold.entries[l] == EVENT for l in silent)
    assert len(result.gold) == 16


def test_more_silence_means_fewer_nonzero_vectors():
    def nonzero_count(silence):
        params = small_params(n_event=20, n_non_event=20,
                              silence_event=silence, silence_non_event=silence)
        result = generate_synthetic_corpus(params, language="EN")
        dataset = extract_features(
            parse_tagged_corpus(result.corpus_text.splitlines()),
            builtin_cue_set("EN"), result.gold.lemmas)
        return sum(1 for v in dataset.vectors if not v.is_zero)

    assert nonzero_count(0.3) < nonzero_count(0.1) < nonzero_count(0.0)


def test_silent_sets_nest_across_fractions():
    def silent_set(silence):
        params = small_params(n_event=20, n_non_event=1, silence_event=silence)
        result = generate_synthetic_corpus(params, language="EN")
        _, totals = draw_log_counts(result.draw_log)
        return {l for l in result.gold.lemmas if l not in totals}

    assert silent_set(0.1) <= silent_set(0.2) <= silent_set(0.4)


def test_params_validation():
    with pytest.raises(ValueError):
        SynthParams(p_event=1.2)
    with pytest.raises(ValueError):
        SynthParams(p_event=0.6, p_non_event=0.6)
    with pytest.raises(ValueError):
        SynthParams(occurrences=(0, 5))
    with pytest.raises(ValueError):
        SynthParams(occurrences=(6, 5))
    with pytest.raises(ValueError):
        SynthParams(n_event=0)
    with pytest.raises(ValueError):
        SynthParams(noise=-0.1)


def test_draw_log_csv(tmp_path):
    result = generate_synthetic_corpus(small_params(), language="EN")
    path = tmp_path / "drawlog.csv"
    write_draw_log_csv(result.draw_log, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "lemma,label,sentence_index,cue_id"
    assert len(lines) == len(result.draw_log) + 1


@pytest.mark.parametrize("language", ["ES", "EN"])
def test_generator_compiles_no_pattern(monkeypatch, language):
    built = []
    compile_ = re.compile
    monkeypatch.setattr(re, "compile", lambda *args: built.append(args) or compile_(*args))
    generate_synthetic_corpus(small_params(), language=language)
    assert built == []


@pytest.mark.parametrize("language", ["FR", "en"])
def test_generator_rejects_a_language_without_templates(language):
    cue_set = load_cue_set(["Z-1\tpositive\tlemma=during TARGET"], language)
    message = f"no sentence templates for language {language!r} (expected ES or EN)"
    with pytest.raises(ValueError, match=re.escape(message)):
        generate_synthetic_corpus(small_params(), cue_set)


def test_generator_rejects_rules_without_templates():
    custom = load_cue_set(["Z-1\tpositive\tlemma=near TARGET"], "EN")
    with pytest.raises(ValueError) as exc:
        generate_synthetic_corpus(small_params(), custom)
    assert "Z-1" in str(exc.value)
