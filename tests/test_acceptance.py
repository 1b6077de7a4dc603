"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 1 checks that the built-in English gold standard is the published
word lists, intact: 167 lowercase lemmas, 73 EVENT and 94 NON_EVENT, with
each class exactly the lemmas of its source list. The paper reports 74 EVENT
/ 93 NON_EVENT for the same 167 nouns; its word lists hold 73 / 94. The lists
are embedded as published, with no noun moved, so the check asserts their
counts and records the paper's figures as a known discrepancy.
"""

import math
import os
import random
import time
from contextlib import contextmanager

from conftest import sent
from eventnouns.cli import main as cli_main
from eventnouns.corpus import parse_tagged_corpus
from eventnouns.cues import builtin_cue_set, match_sentences
from eventnouns.data import (
    SynthParams,
    _TEMPLATES,
    english_gold,
    generate_synthetic_corpus,
    instantiate_template,
)
from eventnouns.dtree import (
    LabeledExample,
    Prediction,
    TreeParams,
    best_split,
    classify,
    count_nodes,
    entropy,
    train,
)
from eventnouns.evaluation import (
    cross_validate,
    filter_by_confidence,
    precision_curve,
)
from eventnouns.features import (
    EVENT,
    FeatureVector,
    NON_EVENT,
    attach_labels,
    extract_features,
)
from eventnouns.gold import _ENGLISH_EVENT, _ENGLISH_NON_EVENT
from test_dtree import oracle_best_split


@contextmanager
def criterion(number: int, name: str, limit_seconds: float):
    started = time.perf_counter()
    outcome = "FAIL"
    try:
        yield
        outcome = "PASS"
    finally:
        elapsed = time.perf_counter() - started
        print(f"acceptance {number} ({name}): {outcome} [{elapsed:.2f}s]")
        if outcome == "PASS":
            assert elapsed < limit_seconds, \
                f"criterion {number} took {elapsed:.2f}s, limit {limit_seconds}s"


def test_criterion_1_gold_integrity():
    """The built-in gold standard is the published word lists, intact.

    Known discrepancy: the paper states 74 EVENT / 93 NON_EVENT, but its
    published lists hold 73 / 94 (167 either way). Nothing says which noun
    the paper counts differently, so the lists are kept as published and
    their own counts are asserted here.
    """
    with criterion(1, "gold integrity", 1.0):
        gold = english_gold()
        assert len(gold) == 167
        assert all(lemma == lemma.lower() for lemma in gold.entries)
        assert gold.entries["war"] == EVENT
        assert gold.entries["map"] == NON_EVENT
        assert (gold.count(EVENT), gold.count(NON_EVENT)) == (73, 94)
        assert len(set(_ENGLISH_EVENT)) == len(_ENGLISH_EVENT)
        assert len(set(_ENGLISH_NON_EVENT)) == len(_ENGLISH_NON_EVENT)
        assert not set(_ENGLISH_EVENT) & set(_ENGLISH_NON_EVENT)
        for label, source in ((EVENT, _ENGLISH_EVENT),
                              (NON_EVENT, _ENGLISH_NON_EVENT)):
            assert {lemma for lemma, got in gold.entries.items()
                    if got == label} == set(source), label


def test_criterion_2_cue_engine_fidelity():
    with criterion(2, "cue-engine fidelity", 1.0):
        for language in ("ES", "EN"):
            cue_set = builtin_cue_set(language).with_all_enabled()
            for rule in cue_set.rules:
                sentence = instantiate_template(_TEMPLATES[rule.id], "probenoun")
                hits = match_sentences((sentence,), cue_set)
                own = [h for h in hits if h.cue_id == rule.id]
                assert len(own) == 1, f"{rule.id} fired {len(own)} times"
                assert own[0].lemma == "probenoun"
        noise_fixture = sent(("during", "ADP"), ("the", "DET"), ("first", "ADJ"),
                             ("world", "NOUN"), ("war", "NOUN"))
        hits = match_sentences((noise_fixture,), builtin_cue_set("EN"))
        assert [(h.cue_id, h.lemma) for h in hits] == [("EN-1", "world")]


def test_criterion_3_tree_oracle_equivalence():
    with criterion(3, "tree-oracle equivalence", 30.0):
        rng = random.Random(424242)
        for _ in range(1000):
            n = rng.randint(2, 12)
            dim = rng.randint(1, 4)
            examples = [
                LabeledExample(
                    FeatureVector(f"w{i}",
                                  tuple(rng.randint(0, 4) for _ in range(dim)),
                                  1),
                    rng.choice([EVENT, NON_EVENT]))
                for i in range(n)]
            min_leaf = rng.choice([1, 2])
            for attribute in range(dim):
                got = best_split(examples, attribute, min_leaf=min_leaf)
                want = oracle_best_split(examples, attribute, min_leaf)
                if want is None:
                    assert got is None
                else:
                    assert got is not None
                    for a, b in zip(got, want):
                        assert abs(a - b) <= 1e-9
            counts = [rng.randint(0, 9) for _ in range(rng.randint(1, 3))]
            if sum(counts) > 0:
                total = sum(counts)
                closed_form = -sum((c / total) * math.log2(c / total)
                                   for c in counts if c)
                assert abs(entropy(counts) - closed_form) <= 1e-9


def test_criterion_4_consistent_fit_and_pruning():
    with criterion(4, "consistent fit / pruning", 30.0):
        rng = random.Random(99)
        for _ in range(100):
            n = rng.randint(4, 40)
            dim = rng.randint(1, 4)
            consistent = [
                LabeledExample(
                    FeatureVector(f"w{i}",
                                  tuple(rng.random() * 5 for _ in range(dim)),
                                  1),
                    rng.choice([EVENT, NON_EVENT]))
                for i in range(n)]
            tree = train(consistent, TreeParams(min_leaf=1, pruning=False))
            correct = sum(1 for e in consistent
                          if classify(tree, e.vector).predicted == e.label)
            assert correct == n, "exact fit on consistent data"

            noisy = [
                LabeledExample(e.vector,
                               (NON_EVENT if e.label == EVENT else EVENT)
                               if rng.random() < 0.05 else e.label)
                for e in consistent]
            unpruned = train(noisy, TreeParams(min_leaf=2, pruning=False))
            pruned = train(noisy, TreeParams(min_leaf=2, pruning=True))
            assert count_nodes(pruned) <= count_nodes(unpruned)


def _synthetic_report(params, language, cv_seed):
    result = generate_synthetic_corpus(params, language=language)
    cue_set = builtin_cue_set(language)
    dataset = extract_features(
        parse_tagged_corpus(result.corpus_text.splitlines()),
        cue_set, result.gold.lemmas)
    dataset = attach_labels(dataset, result.gold.entries)
    report = cross_validate(dataset, TreeParams(), k=10, seed=cv_seed)
    curve = {point.threshold: point
             for point in precision_curve(report.predictions)}
    return report, curve


def test_criterion_5_end_to_end_synthetic():
    with criterion(5, "end-to-end synthetic", 120.0):
        params = SynthParams(n_event=100, n_non_event=100,
                             p_event=0.4, p_non_event=0.02,
                             occurrences=(20, 50),
                             silence_event=0.10, silence_non_event=0.10,
                             noise=0.05, seed=9)
        report, curve = _synthetic_report(params, "ES", cv_seed=9)
        assert report.mean_accuracy >= 0.90, report.mean_accuracy
        assert curve[0.8].precision is not None
        assert curve[0.0].precision is not None
        assert curve[0.8].precision >= curve[0.0].precision


def test_criterion_6_silence_regime():
    with criterion(6, "silence regime", 120.0):
        params = SynthParams(n_event=100, n_non_event=100,
                             p_event=0.4, p_non_event=0.02,
                             occurrences=(5, 15),
                             silence_event=0.15, silence_non_event=0.0,
                             noise=0.10, seed=0)
        report, curve = _synthetic_report(params, "EN", cv_seed=0)
        p_nine, p_one = curve[0.9], curve[1.0]
        assert p_nine.precision is not None and p_one.precision is not None
        assert p_one.retained > 0
        assert p_one.precision < p_nine.precision, \
            (p_one.precision, p_nine.precision)


def test_criterion_7_cli_determinism(tmp_path):
    with criterion(7, "CLI determinism", 120.0):
        synth_dir = str(tmp_path / "synth")
        assert cli_main(["synth", "--lang", "EN", "--n-event", "40",
                         "--n-non-event", "40", "--p-event", "0.5",
                         "--p-non-event", "0.02", "--occ-min", "5",
                         "--occ-max", "15", "--noise", "0.05",
                         "--seed", "21", "--out", synth_dir]) == 0
        dataset = str(tmp_path / "dataset.csv")
        assert cli_main(["extract", "--lang", "EN",
                         "--corpus", os.path.join(synth_dir, "corpus.tsv"),
                         "--gold", os.path.join(synth_dir, "gold.csv"),
                         "--out", dataset]) == 0
        out_dirs = []
        for name in ("first", "second"):
            out_dir = str(tmp_path / name)
            assert cli_main(["evaluate", "--dataset", dataset, "--k", "10",
                             "--seed", "21", "--threshold", "0.8",
                             "--out", out_dir]) == 0
            out_dirs.append(out_dir)
        files = sorted(os.listdir(out_dirs[0]))
        assert files == sorted(os.listdir(out_dirs[1]))
        assert files  # at least one output file
        for name in files:
            with open(os.path.join(out_dirs[0], name), "rb") as fh:
                first = fh.read()
            with open(os.path.join(out_dirs[1], name), "rb") as fh:
                second = fh.read()
            assert first == second, name


def test_criterion_8_partition_and_counting():
    with criterion(8, "partition / counting", 10.0):
        rng = random.Random(31337)
        for _ in range(200):
            predictions = [
                Prediction(f"w{i}", rng.choice([EVENT, NON_EVENT]),
                           round(rng.random(), 3),
                           rng.choice([EVENT, NON_EVENT]))
                for i in range(rng.randint(0, 50))]
            threshold = rng.random()
            accepted, to_review = filter_by_confidence(predictions, threshold)
            assert len(accepted) + len(to_review) == len(predictions)
            assert all(p.confidence >= threshold for p in accepted)
            assert all(p.confidence < threshold for p in to_review)
            merged = sorted(accepted + to_review, key=lambda p: p.lemma)
            assert merged == sorted(predictions, key=lambda p: p.lemma)

            points = precision_curve(predictions)
            retained = [point.retained for point in points]
            assert retained == sorted(retained, reverse=True)
            for point in points:
                if point.retained == 0:
                    assert point.precision is None
                else:
                    assert 0.0 <= point.precision <= 1.0
            # inclusive threshold comparison keeps borderline predictions
            positives = [p for p in predictions if p.predicted == EVENT]
            for p in positives:
                (at_conf,) = precision_curve(predictions,
                                             thresholds=[p.confidence])
                assert at_conf.retained >= 1
