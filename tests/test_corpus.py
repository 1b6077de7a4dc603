import random

import pytest

from conftest import sent
from eventnouns.corpus import (
    COARSE_TAGS,
    CorpusParseError,
    Sentence,
    TaggedToken,
    coarse_tag,
    parse_tagged_corpus,
    read_tagged_file,
    serialize_corpus,
)
from eventnouns.cues import builtin_cue_set
from eventnouns.data import SynthParams, generate_synthetic_corpus
from eventnouns.features import extract_features, open_input
from eventnouns import corpus


def parse(text: str, **kwargs):
    return list(parse_tagged_corpus(text.splitlines(keepends=True), **kwargs))


def test_single_sentence_at_eof():
    sentences = parse("the\tthe\tDET\nwar\twar\tNOUN\nended\tend\tVERB\n")
    assert len(sentences) == 1
    assert len(sentences[0]) == 3
    assert sentences[0][1] == TaggedToken("war", "war", "NOUN")


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
    assert sentence[0].surface == "War"
    assert sentence[0].lemma == "war"


def test_refined_tags_accepted():
    (sentence,) = parse("ocurrido\tocurrir\tVERB:PART\n")
    assert coarse_tag(sentence[0].tag) == "VERB"
    with pytest.raises(CorpusParseError):
        parse("x\tx\tVERB:\n")


def test_token_invariants():
    with pytest.raises(ValueError):
        TaggedToken("War", "War", "NOUN")  # lemma must be lowercase
    with pytest.raises(ValueError):
        TaggedToken("war", "", "NOUN")
    with pytest.raises(ValueError):
        TaggedToken("war", "war", "XXX")


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
        corpus.append(tokens)
    return corpus


def test_roundtrip_identity_on_random_corpora():
    for seed in range(25):
        corpus = _random_corpus(random.Random(seed))
        text = serialize_corpus(corpus)
        assert parse(text) == corpus


@pytest.mark.parametrize("token, reads_back", [
    (TaggedToken("a\u2028b", "a", "NOUN"), True),  # str.splitlines breaks here
    (TaggedToken("a\x0bb", "a", "NOUN"), True),
    (TaggedToken("a", "a", "NOUN:x\ty"), False),
    (TaggedToken("a", "a\nb", "NOUN"), False),
    (TaggedToken("a\rb", "a", "NOUN"), False),
    (TaggedToken("#", "#", "PUNCT"), False),  # read back as a comment
])
def test_serialized_token_reads_back_or_raises(tmp_path, token, reads_back):
    war = TaggedToken("war", "war", "NOUN")
    path = tmp_path / "corpus.tsv"
    # the token leads the text, then a sentence after the first
    for corpus in ([(token, war)], [sent(("the", "DET")), (token, war)]):
        if not reads_back:
            with pytest.raises(ValueError, match="would not read back"):
                serialize_corpus(corpus)
            continue
        text = serialize_corpus(corpus)
        path.write_bytes(text.encode("utf-8"))
        assert list(parse_tagged_corpus(text.split("\n"))) == corpus
        assert list(read_tagged_file(str(path))) == corpus


def test_serialized_empty_sentence_raises():
    s = sent(("war", "NOUN"))
    for corpus in ([()], [s, (), s]):
        with pytest.raises(ValueError, match="or a sentence is empty"):
            serialize_corpus(corpus)


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
def test_sentences_are_plain_tuples_of_tokens(tmp_path, strict):
    text = "la\tel\tDET\nguerra\tguerra\tNOUN\n\nWar\tWar\tNOUN\n"
    if not strict:
        text += "bad line\n"
    want = [(TaggedToken("la", "el", "DET"), TaggedToken("guerra", "guerra", "NOUN")),
            (TaggedToken("War", "war", "NOUN"),)]
    path = tmp_path / "corpus.tsv"
    path.write_text(text, encoding="utf-8")
    for sentences in (list(parse_tagged_corpus(text.splitlines(), strict=strict)),
                      list(read_tagged_file(str(path), strict=strict))):
        assert sentences == want
        assert [type(s) for s in sentences] == [tuple, tuple]


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


# --- reading a file a block at a time ------------------------------------------

def _pad_to(text: str, offset: int) -> str:
    """Append a comment line so that what follows starts at byte ``offset``."""
    return text + "#" + "x" * (offset - len(text.encode("utf-8")) - 2) + "\n"


def _straddling_corpus() -> str:
    """Token lines, CRLF pairs, blank-line breaks in both endings, comments,
    two-byte characters and repeated token lines, with no final newline.

    The padding puts the bytes of an ``é`` across byte 8,192 and a CRLF
    pair across byte 16,384, the end of the first block a file read takes;
    a small enough block size splits every other line and pair as well.
    """
    sentence = "durante\tdurante\tADP\r\nla\tel\tDET\nguerra\tguerra\tNOUN\r\n\r\n"
    text = _pad_to(sentence * 150, 8191 - len("caf"))
    text += "café\tcafé\tNOUN\nocurrió\tocurrir\tVERB\r\n\n" + sentence * 150
    plural = "sequías\tsequía\tNOUN:PL"
    text = _pad_to(text, 16383 - len(plural.encode("utf-8")))
    return text + plural + "\r\n\n\n# the end\nla\tel\tDET\r\nguerra\tguerra\tNOUN"


def _sharing(sentences) -> list[int]:
    """For each token, the position of the first token that is the same object."""
    first: dict[int, int] = {}
    return [first.setdefault(id(token), i)
            for i, token in enumerate(t for s in sentences for t in s)]


@pytest.mark.parametrize("block_bytes", [1, 2, 3, 5, 8, corpus.BLOCK_BYTES])
def test_file_blocks_parse_like_lines(tmp_path, monkeypatch, block_bytes):
    text = _straddling_corpus()
    data = text.encode("utf-8")
    assert data[8191:8193] == "é".encode("utf-8") and data[16383:16385] == b"\r\n"
    path = tmp_path / "corpus.tsv"
    path.write_bytes(data)
    monkeypatch.setattr(corpus, "BLOCK_BYTES", block_bytes)
    from_file = list(read_tagged_file(str(path)))
    from_lines = parse(text)
    assert from_file == from_lines
    assert from_file[-1][-1] == TaggedToken("guerra", "guerra", "NOUN")
    assert _sharing(from_file) == _sharing(from_lines)


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
def test_non_utf8_byte_after_the_first_block_reports_its_line(tmp_path, monkeypatch,
                                                              strict):
    path = tmp_path / "latin1.tsv"
    path.write_bytes(b"la\tel\tDET\nguerra\tguerra\tNOUN\n\n" * 400
                     + b"caf\xe9\tcaf\xe9\tNOUN\n")
    monkeypatch.setattr(corpus, "BLOCK_BYTES", 64)
    sentences = read_tagged_file(str(path), strict=strict)
    assert len(next(sentences)) == 2  # parsed before the bad byte was decoded
    with pytest.raises(ValueError) as exc:
        list(sentences)
    assert str(exc.value) == (f"{path}: line 1201: 'utf-8' codec can't decode byte "
                              "0xe9 in position 3: invalid continuation byte")


def test_bad_lines_keep_their_numbers_across_blocks(tmp_path, monkeypatch, caplog):
    path = tmp_path / "corpus.tsv"
    path.write_bytes(b"la\tel\tDET\r\nbad line\r\n\r\nguerra\tguerra\tXYZ\n"
                     b"guerra\tguerra\tNOUN\n\nbad line")
    monkeypatch.setattr(corpus, "BLOCK_BYTES", 3)
    with pytest.raises(CorpusParseError) as exc:
        list(read_tagged_file(str(path)))
    assert str(exc.value) == f"{path}: line 2: expected 3 tab-separated fields, got 1"
    sentences = list(read_tagged_file(str(path), strict=False))
    assert [[t.lemma for t in s] for s in sentences] == [["el"], ["guerra"]]
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}: skipping corpus line 2: expected 3 tab-separated fields, got 1",
        f"{path}: skipping corpus line 4: unknown coarse tag: 'XYZ'",
        f"{path}: skipping corpus line 7: expected 3 tab-separated fields, got 1"]


@pytest.mark.parametrize("ending, reason", [
    (b"", "unexpected end of data"),
    (b"\n", "invalid continuation byte"),
    (b"\r\n", "invalid continuation byte"),
    (b"\r", "invalid continuation byte"),
], ids=["unterminated", "lf", "crlf", "cr"])
def test_a_byte_that_is_not_utf8_ending_the_last_line_decodes_with_its_ending(
        tmp_path, monkeypatch, ending, reason):
    path = tmp_path / "latin1.tsv"
    path.write_bytes(b"la\tel\tDET\r\n\r\n# caf\xe9" + ending)
    message = (f"{path}: line 3: 'utf-8' codec can't decode byte 0xe9 in position 5: "
               f"{reason}")
    for block_bytes in (1, corpus.BLOCK_BYTES):
        monkeypatch.setattr(corpus, "BLOCK_BYTES", block_bytes)
        with pytest.raises(ValueError) as exc:
            list(read_tagged_file(str(path), strict=False))
        assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        with open_input(str(path)) as fh:
            fh.read()
    assert str(exc.value) == message


def test_a_byte_order_mark_split_across_blocks_is_skipped(tmp_path, monkeypatch):
    text = "war\twar\tNOUN\r\n\r\nmap\tmap\tNOUN\r"
    path = tmp_path / "corpus.tsv"
    path.write_bytes(("\ufeff" + text).encode("utf-8"))
    monkeypatch.setattr(corpus, "BLOCK_BYTES", 1)
    assert list(read_tagged_file(str(path))) == parse(text)


@pytest.mark.parametrize("line, error", [
    ("caf\udce9\tcaf\udce9\tNOUN", "'utf-8' codec can't decode byte 0xe9 in position 3: "
                                   "invalid continuation byte"),
    # escapes of bytes that do decode, and a surrogate that escapes no byte
    ("caf\udcc3\udca9\tx\tNOUN", "'utf-8' codec can't encode characters in "
                                 "position 3-4: surrogates not allowed"),
    ("caf\ud800\tx\tNOUN", "'utf-8' codec can't encode character '\\ud800' in "
                           "position 3: surrogates not allowed"),
], ids=["escaped-byte", "escaped-utf8", "lone-surrogate"])
def test_parsed_lines_with_a_lone_surrogate_are_not_utf8(line, error):
    for strict in (True, False):
        with pytest.raises(ValueError) as exc:
            parse(f"la\tel\tDET\n{line}\n", strict=strict)
        assert str(exc.value) == f"line 2: {error}"
