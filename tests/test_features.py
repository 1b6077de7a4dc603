import math
import random
import re
from collections import Counter

import pytest

from conftest import sent
from eventnouns import features
from eventnouns.corpus import parse_tagged_corpus
from eventnouns.cues import (
    TARGET_FIRST_NOUN,
    TARGET_LAST_NOUN,
    builtin_cue_set,
    match_sentence,
)
from eventnouns.data import (
    SynthParams,
    _TEMPLATES,
    english_gold,
    generate_synthetic_corpus,
    instantiate_template,
)
from eventnouns.features import (
    Dataset,
    EVENT,
    FeatureVector,
    NON_EVENT,
    _parse_number,
    attach_labels,
    extract_features,
    read_dataset_csv,
    to_relative,
    write_dataset_csv,
)


def guerra_corpus():
    return [sent(("durante", "ADP"), ("la", "DET"), ("guerra", "NOUN")),
            sent(("la", "DET"), ("guerra", "NOUN"))]


def test_extract_counts_and_totals():
    cs = builtin_cue_set("ES")
    dataset = extract_features(guerra_corpus(), cs, {"guerra"})
    (vector,) = dataset.vectors
    assert vector.lemma == "guerra"
    assert vector.total_occurrences == 2
    expected = {cue_id: 0 for cue_id in cs.cue_ids}
    expected["ES-1"] = 1
    assert dict(zip(dataset.cue_ids, vector.counts)) == expected


def test_unseen_lemma_gets_zero_vector():
    dataset = extract_features(guerra_corpus(), builtin_cue_set("ES"),
                               {"guerra", "sequía"})
    by_lemma = {v.lemma: v for v in dataset.vectors}
    assert by_lemma["sequía"].is_zero
    assert by_lemma["sequía"].total_occurrences == 0


def test_extract_requires_targets():
    with pytest.raises(ValueError):
        extract_features(guerra_corpus(), builtin_cue_set("ES"), set())


def test_disabled_rules_stay_zero():
    cs = builtin_cue_set("EN")
    corpus = [sent(("nuclear", "ADJ"), ("war", "NOUN"))]
    dataset = extract_features(corpus, cs, {"war"})
    (vector,) = dataset.vectors
    assert vector.counts[cs.cue_ids.index("EN-11")] == 0
    assert vector.is_zero


def _random_template_corpus(rng, lemmas, language="EN"):
    templates = [t for rule_id, t in sorted(_TEMPLATES.items())
                 if rule_id.startswith(language)]
    return [instantiate_template(rng.choice(templates), rng.choice(lemmas))
            for _ in range(rng.randint(1, 30))]


def test_extraction_additive_over_corpora():
    lemmas = ["alpha", "beta", "gamma"]
    cs = builtin_cue_set("EN")
    for seed in range(10):
        rng = random.Random(seed)
        a = _random_template_corpus(rng, lemmas)
        b = _random_template_corpus(rng, lemmas)
        da = extract_features(a, cs, lemmas)
        db = extract_features(b, cs, lemmas)
        dab = extract_features(a + b, cs, lemmas)
        for va, vb, vab in zip(da.vectors, db.vectors, dab.vectors):
            assert vab.counts == tuple(x + y for x, y in zip(va.counts, vb.counts))
            assert vab.total_occurrences == va.total_occurrences + vb.total_occurrences


def test_extraction_order_insensitive():
    lemmas = ["alpha", "beta"]
    cs = builtin_cue_set("EN")
    corpus = _random_template_corpus(random.Random(3), lemmas)
    shuffled = list(corpus)
    random.Random(4).shuffle(shuffled)
    assert extract_features(corpus, cs, lemmas).vectors == \
        extract_features(shuffled, cs, lemmas).vectors


def test_counts_match_per_sentence_rescan():
    lemmas = ["alpha", "beta", "gamma"]
    cs = builtin_cue_set("EN")
    corpus = _random_template_corpus(random.Random(9), lemmas)
    dataset = extract_features(corpus, cs, lemmas)
    for vector in dataset.vectors:
        for position, cue_id in enumerate(dataset.cue_ids):
            brute = sum(
                1
                for sentence in corpus
                for hit in match_sentence(sentence, cs)
                if hit.lemma == vector.lemma and hit.cue_id == cue_id)
            assert vector.counts[position] == brute


def _per_sentence_dataset(corpus, cue_set, lemmas, policy):
    """Counts and noun totals aggregated one sentence at a time."""
    counts = {lemma: Counter() for lemma in lemmas}
    totals = Counter()
    for sentence in corpus:
        totals.update(t.lemma for t in sentence if t.coarse == "NOUN")
        for hit in match_sentence(sentence, cue_set, target_policy=policy):
            if hit.lemma in counts:
                counts[hit.lemma][hit.cue_id] += 1
    return Dataset(cue_set.cue_ids, tuple(
        FeatureVector(lemma, tuple(counts[lemma][c] for c in cue_set.cue_ids),
                      totals[lemma])
        for lemma in sorted(lemmas)))


@pytest.mark.parametrize("policy", [TARGET_FIRST_NOUN, TARGET_LAST_NOUN])
@pytest.mark.parametrize("language", ["EN", "ES"])
@pytest.mark.parametrize("chunk_tokens", [1, 2, 7])
def test_chunked_extraction_equals_per_sentence(monkeypatch, chunk_tokens,
                                                language, policy):
    params = SynthParams(n_event=10, n_non_event=10, occurrences=(2, 6),
                         noise=0.2, seed=13)
    synth = generate_synthetic_corpus(params, language=language)
    corpus = list(parse_tagged_corpus(synth.corpus_text.splitlines()))
    cs = builtin_cue_set(language).with_all_enabled()
    lemmas = sorted(synth.gold.entries)
    want = _per_sentence_dataset(corpus, cs, lemmas, policy)
    assert not all(v.is_zero for v in want.vectors)
    monkeypatch.setattr(features, "CHUNK_TOKENS", chunk_tokens)
    assert extract_features(iter(corpus), cs, lemmas, target_policy=policy) == want


def test_to_relative():
    dataset = Dataset(("C-1", "C-2"),
                      (FeatureVector("a", (2, 0), 4),
                       FeatureVector("b", (0, 0), 0),
                       FeatureVector("c", (3, 0), 3)))
    relative = to_relative(dataset)
    by_lemma = {v.lemma: v for v in relative.vectors}
    assert by_lemma["a"].counts == (0.5, 0)
    assert by_lemma["b"].counts == (0, 0)  # guarded denominator
    assert by_lemma["c"].counts == (1.0, 0)


def test_attach_labels_english_gold():
    gold = english_gold()
    dataset = extract_features(
        [sent(("during", "ADP"), ("the", "DET"), ("war", "NOUN"))],
        builtin_cue_set("EN"), ["war", "map"])
    labeled = attach_labels(dataset, gold.entries)
    assert len(labeled) == 167  # every gold lemma participates
    assert labeled.labels["war"] == EVENT
    assert labeled.labels["map"] == NON_EVENT
    by_lemma = {v.lemma: v for v in labeled.vectors}
    assert not by_lemma["war"].is_zero
    assert by_lemma["earthquake"].is_zero  # silent gold lemma kept as zeros
    assert by_lemma["earthquake"].total_occurrences == 0


def test_attach_labels_rejects_unknown_lemma():
    dataset = extract_features(guerra_corpus(), builtin_cue_set("ES"),
                               {"guerra", "zeppelin"})
    with pytest.raises(ValueError) as exc:
        attach_labels(dataset, {"guerra": EVENT})
    assert "zeppelin" in str(exc.value)


def test_attach_labels_accepts_lowercase_labels():
    dataset = extract_features(guerra_corpus(), builtin_cue_set("ES"), {"guerra"})
    labeled = attach_labels(dataset, {"guerra": "event"})
    assert labeled.labels["guerra"] == EVENT


@pytest.mark.parametrize("label", [None, 1, ["EVENT"]])
def test_dataset_rejects_non_string_label(label):
    message = f"unknown label: {label!r} (expected EVENT or NON_EVENT)"
    with pytest.raises(ValueError, match=re.escape(message)):
        Dataset(("C-1",), (FeatureVector("w", (1,), 1),), labels={"w": label})


def test_dataset_invariants():
    with pytest.raises(ValueError):
        Dataset(("C-1",), (FeatureVector("a", (1,), 1),
                           FeatureVector("a", (0,), 0)))
    with pytest.raises(ValueError):
        Dataset(("C-1", "C-2"), (FeatureVector("a", (1,), 1),))
    with pytest.raises(ValueError):
        Dataset(("C-1",), (FeatureVector("a", (1,), 1),), labels={})
    with pytest.raises(ValueError):
        FeatureVector("a", (-1,), 0)


def test_csv_roundtrip_labeled(tmp_path):
    gold = english_gold()
    dataset = extract_features(
        [sent(("during", "ADP"), ("the", "DET"), ("war", "NOUN"))],
        builtin_cue_set("EN"), ["war", "map"])
    labeled = attach_labels(dataset, gold.entries)
    path = tmp_path / "dataset.csv"
    write_dataset_csv(labeled, str(path))
    loaded = read_dataset_csv(str(path))
    assert loaded.cue_ids == labeled.cue_ids
    assert loaded.vectors == labeled.vectors
    assert loaded.labels == labeled.labels


def test_csv_roundtrip_unlabeled_relative(tmp_path):
    dataset = to_relative(extract_features(guerra_corpus(),
                                           builtin_cue_set("ES"), {"guerra"}))
    path = tmp_path / "dataset.csv"
    write_dataset_csv(dataset, str(path))
    loaded = read_dataset_csv(str(path))
    assert loaded.labels is None
    assert loaded.vectors == dataset.vectors


def test_zero_total_vector_must_be_all_zero():
    with pytest.raises(ValueError):
        FeatureVector("a", (1, 0), 0)


def test_read_dataset_csv_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        read_dataset_csv(str(empty))

    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("word,count,C-1\nwar,1,1\n")
    with pytest.raises(ValueError):
        read_dataset_csv(str(bad_header))

    short_row = tmp_path / "short.csv"
    short_row.write_text("lemma,total,C-1,C-2\nwar,1,1\n")
    with pytest.raises(ValueError):
        read_dataset_csv(str(short_row))


def test_read_dataset_csv_mixed_number_cells(tmp_path):
    path = tmp_path / "dataset.csv"
    path.write_text("lemma,total,C-1,C-2\nwar,1e3,1,0.5\nmap,2,0,0\n")
    war, map_ = read_dataset_csv(str(path)).vectors
    for vector, cells in ((war, ["1e3", "1", "0.5"]), (map_, ["2", "0", "0"])):
        got = [vector.total_occurrences, *vector.counts]
        want = [_parse_number(cell) for cell in cells]
        assert [(type(x), x) for x in got] == [(type(x), x) for x in want]
    assert [type(x) for x in (war.total_occurrences, *war.counts)] == [float, int, float]


@pytest.mark.parametrize("counts, total, message", [
    ((-1, math.nan), 1, "negative"),
    ((-math.inf,), 1, "negative"),
    ((math.nan,), -1, "negative"),
    ((1, math.inf), 2, "non-finite"),
    ((1,), math.nan, "non-finite"),
    ((1,), 0, "cue counts but no occurrences"),
])
def test_feature_vector_check_order(counts, total, message):
    with pytest.raises(ValueError, match=message):
        FeatureVector("a", counts, total)


@pytest.mark.parametrize("row", ["war,4,nan", "war,4,inf", "war,nan,1"],
                         ids=["nan-count", "inf-count", "nan-total"])
def test_read_dataset_csv_rejects_non_finite_counts(tmp_path, row):
    path = tmp_path / "dataset.csv"
    path.write_text("lemma,total,C-1\nmap,2,0\n" + row + "\n")
    with pytest.raises(ValueError, match="non-finite count for lemma 'war'"):
        read_dataset_csv(str(path))


@pytest.mark.parametrize("text, message", [
    ("lemma,total,C-1,C-1\nwar,4,3,3\n", "duplicate cue ids in dataset: C-1"),
    ("lemma,total,C-1\nmap,2,0\n,4,3\n", "empty lemma"),
], ids=["duplicate-cue", "empty-lemma"])
def test_read_dataset_csv_rejects_malformed_keys(tmp_path, text, message):
    path = tmp_path / "dataset.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_dataset_csv(str(path))
