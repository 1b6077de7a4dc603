import random

import pytest

from conftest import sent
from eventnouns import (
    CorpusParseError,
    Sentence,
    SynthParams,
    TaggedToken,
    builtin_cue_set,
    extract_features,
    generate_synthetic_corpus,
    parse_tagged_corpus,
    serialize_corpus,
)
from eventnouns import corpus
from eventnouns.corpus import COARSE_TAGS


def parse(text: str, **kwargs):
    return list(parse_tagged_corpus(text.splitlines(keepends=True), **kwargs))


def test_single_sentence_at_eof():
    sentences = parse("the\tthe\tDET\nwar\twar\tNOUN\nended\tend\tVERB\n")
    assert len(sentences) == 1
    assert len(sentences[0]) == 3
    assert sentences[0].tokens[1] == TaggedToken("war", "war", "NOUN")


def test_blank_line_separates_sentences():
    sentences = parse("a\ta\tDET\nwar\twar\tNOUN\n\nthe\tthe\tDET\nmap\tmap\tNOUN\n")
    assert [len(s) for s in sentences] == [2, 2]


def test_malformed_line_reports_line_number():
    with pytest.raises(CorpusParseError) as exc:
        parse("the\tthe\tDET\nwar NOUN\n")
    assert exc.value.line_number == 2
    assert "line 2" in str(exc.value)


def test_empty_field_rejected():
    with pytest.raises(CorpusParseError):
        parse("war\t\tNOUN\n")


def test_unknown_coarse_tag_rejected():
    with pytest.raises(CorpusParseError) as exc:
        parse("war\twar\tNN\n")
    assert "NN" in str(exc.value)


@pytest.mark.parametrize("bad_line", [
    "\twar\tNOUN",    # empty surface
    "war\t\tNOUN",    # empty lemma
    "war\twar\t",     # empty tag
    "war\twar\tVERB:",  # empty refinement
], ids=["empty-surface", "empty-lemma", "empty-tag", "empty-refinement"])
def test_bad_field_strict_raises_lenient_skips(bad_line, caplog):
    text = f"the\tthe\tDET\n{bad_line}\nmap\tmap\tNOUN\n"
    with pytest.raises(CorpusParseError) as exc:
        parse(text)
    assert exc.value.line_number == 2
    (sentence,) = parse(text, strict=False)
    assert [t.lemma for t in sentence] == ["the", "map"]
    assert "line 2" in caplog.text


def test_repeated_lines_share_one_token():
    text = "the\tthe\tDET\nwar\twar\tNOUN\n\nthe\tthe\tDET\nwar\twar\tNOUN\r\n"
    first, second = parse(text)
    assert first == second
    assert all(a is b for a, b in zip(first, second))


@pytest.mark.parametrize("limit", [0, 2])
def test_interning_keeps_the_parse(monkeypatch, limit):
    params = SynthParams(n_event=20, n_non_event=20, occurrences=(2, 4), seed=4)
    text = generate_synthetic_corpus(params).corpus_text
    interned = parse(text)
    monkeypatch.setattr(corpus, "INTERN_LIMIT", limit)
    assert parse(text) == interned
    # past the limit a repeated line builds a new, equal token
    tokens = [t for s in parse("a\ta\tDET\nb\tb\tDET\nc\tc\tDET\n" * 2) for t in s]
    assert [a is b for a, b in zip(tokens[:3], tokens[3:])] == [
        i < limit for i in range(3)]


def test_repeated_bad_line_reported_every_time(caplog):
    text = "the\tthe\tDET\nwar\twar\tXYZ\nwar\twar\tXYZ\nmap\tmap\tNOUN\nwar\twar\tXYZ\n"
    with pytest.raises(CorpusParseError) as exc:
        parse(text)
    assert exc.value.line_number == 2
    (sentence,) = parse(text, strict=False)
    assert [t.lemma for t in sentence] == ["the", "map"]
    assert [r.getMessage().split(":")[0] for r in caplog.records] == [
        "skipping corpus line 2", "skipping corpus line 3", "skipping corpus line 5"]


def test_lenient_mode_skips_bad_lines():
    sentences = parse("war NOUN\nwar\twar\tNOUN\n", strict=False)
    assert len(sentences) == 1
    assert len(sentences[0]) == 1


def test_comments_and_crlf_accepted():
    sentences = parse("# a comment\r\nwar\twar\tNOUN\r\n\r\nmap\tmap\tNOUN\r\n")
    assert [len(s) for s in sentences] == [1, 1]


def test_lemma_lowercased_on_read():
    (sentence,) = parse("War\tWar\tNOUN\n")
    assert sentence.tokens[0].surface == "War"
    assert sentence.tokens[0].lemma == "war"


def test_refined_tags_accepted():
    (sentence,) = parse("ocurrido\tocurrir\tVERB:PART\n")
    assert sentence.tokens[0].coarse == "VERB"
    with pytest.raises(CorpusParseError):
        parse("x\tx\tVERB:\n")


def test_token_invariants():
    with pytest.raises(ValueError):
        TaggedToken("War", "War", "NOUN")  # lemma must be lowercase
    with pytest.raises(ValueError):
        TaggedToken("war", "", "NOUN")
    with pytest.raises(ValueError):
        TaggedToken("war", "war", "XXX")
    with pytest.raises(ValueError):
        Sentence(())


def _random_corpus(rng: random.Random) -> list[Sentence]:
    tags = sorted(COARSE_TAGS) + ["VERB:PART", "PART:POSS"]
    words = ["guerra", "mapa", "tren", "casa", "luz", "ver", "gran"]
    corpus = []
    for _ in range(rng.randint(1, 8)):
        tokens = tuple(
            TaggedToken(rng.choice(words).capitalize() if rng.random() < 0.3
                        else rng.choice(words),
                        rng.choice(words), rng.choice(tags))
            for _ in range(rng.randint(1, 6)))
        corpus.append(Sentence(tokens))
    return corpus


def test_roundtrip_identity_on_random_corpora():
    for seed in range(25):
        corpus = _random_corpus(random.Random(seed))
        text = serialize_corpus(corpus)
        assert parse(text) == corpus


def test_sentence_count_matches_blocks():
    text = "a\ta\tDET\n\n\nb\tb\tNOUN\n\nc\tc\tNOUN\n"
    assert len(parse(text)) == 3


def noun_totals(corpus, lemmas) -> dict[str, int]:
    """NOUN occurrence totals per lemma, as ``extract_features`` counts them."""
    dataset = extract_features(corpus, builtin_cue_set("EN"), lemmas)
    return {v.lemma: v.total_occurrences for v in dataset.vectors}


def test_count_noun_occurrences_direct():
    corpus = [sent(("durante", "ADP"), ("la", "DET"), ("guerra", "NOUN")),
              sent(("la", "DET"), ("guerra", "NOUN"))]
    assert noun_totals(corpus, {"guerra"}) == {"guerra": 2}


def test_count_noun_occurrences_zero_for_unseen():
    corpus = [sent(("la", "DET"), ("guerra", "NOUN"))]
    assert noun_totals(corpus, {"x"}) == {"x": 0}


def test_count_noun_occurrences_ignores_non_noun_tags():
    # "war" once as NOUN and once (hypothetically) as VERB: only the noun counts
    corpus = [sent(("the", "DET"), ("war", "NOUN")),
              sent(("they", "PRON"), ("war", "VERB"))]
    assert noun_totals(corpus, {"war"}) == {"war": 1}


def test_count_noun_occurrences_additive_over_concatenation():
    rng = random.Random(7)
    a, b = _random_corpus(rng), _random_corpus(rng)
    lemmas = {"guerra", "mapa", "tren"}
    combined = noun_totals(a + b, lemmas)
    left = noun_totals(a, lemmas)
    right = noun_totals(b, lemmas)
    assert combined == {l: left[l] + right[l] for l in lemmas}


def test_count_noun_occurrences_requires_lemmas():
    with pytest.raises(ValueError):
        noun_totals([], set())


def test_parse_is_lazy():
    def lines():
        yield "war\twar\tNOUN\n"
        yield "\n"
        raise RuntimeError("must not be reached")

    stream = parse_tagged_corpus(lines())
    assert len(next(stream)) == 1
