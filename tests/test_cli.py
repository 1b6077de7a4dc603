import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from eventnouns.cli import main
from eventnouns.data import load_gold, write_gold_csv
from eventnouns.evaluation import read_predictions_csv, write_predictions_csv
from eventnouns.features import read_dataset_csv, write_dataset_csv

SRC = str(Path(__file__).resolve().parents[1] / "src")

TINY_CORPUS = (
    "during\tduring\tADP\nthe\tthe\tDET\nwar\twar\tNOUN\n\n"
    "the\tthe\tDET\nwar\twar\tNOUN\nhappened\thappen\tVERB\n\n"
    "a\ta\tDET\nmap\tmap\tNOUN\n\n"
    "the\tthe\tDET\nmap\tmap\tNOUN\nof\tof\tADP\nthem\tthey\tPRON\n"
)


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


def write_corpus(tmp_path, text=TINY_CORPUS, name="corpus.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def write_gold(tmp_path, rows, name="gold.csv"):
    path = tmp_path / name
    path.write_text("lemma,label\n" + "".join(f"{l},{lab}\n" for l, lab in rows),
                    encoding="utf-8")
    return str(path)


def test_extract_with_builtin_gold(tmp_path, capsys):
    corpus = write_corpus(tmp_path)
    out = str(tmp_path / "dataset.csv")
    assert run(["extract", "--lang", "EN", "--corpus", corpus,
                "--builtin-gold", "--out", out]) == 0
    captured = capsys.readouterr().out
    assert "lemmas: 167" in captured
    assert "nonzero vectors: 2" in captured  # war and map
    with open(out) as fh:
        assert sum(1 for _ in fh) == 168  # header + one row per gold lemma


def test_extract_missing_corpus_is_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.tsv")
    code = run(["extract", "--corpus", missing, "--builtin-gold",
                "--out", str(tmp_path / "d.csv")])
    assert code == 2
    assert "nope.tsv" in capsys.readouterr().err


def test_extract_malformed_line_is_pipeline_error(tmp_path, capsys):
    corpus = write_corpus(tmp_path, "the\tthe\tDET\nbad line\n")
    code = run(["extract", "--corpus", corpus, "--builtin-gold",
                "--out", str(tmp_path / "d.csv")])
    assert code == 1
    assert "line 2" in capsys.readouterr().err


def test_extract_needs_some_target_source(tmp_path, capsys):
    corpus = write_corpus(tmp_path)
    code = run(["extract", "--corpus", corpus, "--out", str(tmp_path / "d.csv")])
    assert code == 2


def test_extract_with_lemma_list(tmp_path, capsys):
    corpus = write_corpus(tmp_path)
    lemmas = tmp_path / "lemmas.txt"
    lemmas.write_text("war\nmap\nstorm\n")
    out = str(tmp_path / "dataset.csv")
    assert run(["extract", "--corpus", corpus, "--lemmas", str(lemmas),
                "--out", out]) == 0
    assert "lemmas: 3" in capsys.readouterr().out


def full_pipeline(tmp_path, capsys):
    synth_dir = str(tmp_path / "synth")
    assert run(["synth", "--lang", "EN", "--n-event", "30", "--n-non-event", "30",
                "--p-event", "0.6", "--p-non-event", "0.02",
                "--occ-min", "5", "--occ-max", "12",
                "--seed", "11", "--out", synth_dir]) == 0
    dataset = str(tmp_path / "dataset.csv")
    assert run(["extract", "--lang", "EN",
                "--corpus", os.path.join(synth_dir, "corpus.tsv"),
                "--gold", os.path.join(synth_dir, "gold.csv"),
                "--out", dataset]) == 0
    return synth_dir, dataset


def test_full_pipeline_train_classify_evaluate(tmp_path, capsys):
    synth_dir, dataset = full_pipeline(tmp_path, capsys)

    model = str(tmp_path / "model.json")
    tree_text = str(tmp_path / "model.txt")
    assert run(["train", "--dataset", dataset, "--lang", "EN",
                "--out", model, "--tree-text", tree_text]) == 0
    assert os.path.exists(model)
    assert "leaf" in Path(tree_text).read_text()

    lexicon = str(tmp_path / "lexicon.csv")
    assert run(["classify", "--model", model, "--dataset", dataset,
                "--out", lexicon]) == 0
    with open(lexicon) as fh:
        rows = fh.read().splitlines()
    assert rows[0] == "lemma,predicted,confidence"
    assert len(rows) == 61  # header + one row per lemma
    confidences = [float(r.split(",")[2]) for r in rows[1:]]
    assert confidences == sorted(confidences, reverse=True)

    out_dir = str(tmp_path / "eval")
    assert run(["evaluate", "--dataset", dataset, "--k", "5", "--seed", "3",
                "--threshold", "0.8", "--out", out_dir]) == 0
    captured = capsys.readouterr().out
    assert "mean accuracy:" in captured
    for name in ("report.txt", "predictions.csv", "curve.csv",
                 "confusion.csv", "accepted.csv", "to_review.csv"):
        assert os.path.exists(os.path.join(out_dir, name)), name

    with open(os.path.join(out_dir, "accepted.csv")) as fh:
        accepted_rows = sum(1 for _ in fh) - 1
    with open(os.path.join(out_dir, "to_review.csv")) as fh:
        review_rows = sum(1 for _ in fh) - 1
    assert accepted_rows + review_rows == 60

    curve_out = str(tmp_path / "curve2.csv")
    assert run(["curve", "--predictions",
                os.path.join(out_dir, "predictions.csv"),
                "--out", curve_out]) == 0
    assert Path(curve_out).read_text().splitlines()[0] == "threshold,precision,retained"


def test_every_csv_file_has_one_format(tmp_path, capsys):
    """Every CSV file the commands write is UTF-8 with CRLF row ends, and
    each file that has a reader reads back to what was written."""
    out = tmp_path / "out"
    assert run(["synth", "--n-event", "20", "--n-non-event", "20",
                "--seed", "4", "--out", str(out / "synth")]) == 0
    gold = tmp_path / "gold_in.csv"  # an input, with a non-ASCII lemma
    gold.write_text((out / "synth" / "gold.csv").read_text(encoding="utf-8")
                    + "sequía,EVENT\n", encoding="utf-8")
    dataset, model = out / "dataset.csv", tmp_path / "model.json"
    assert run(["extract", "--corpus", str(out / "synth" / "corpus.tsv"),
                "--gold", str(gold), "--out", str(dataset)]) == 0
    assert run(["evaluate", "--dataset", str(dataset), "--k", "5", "--seed", "3",
                "--out", str(out / "eval")]) == 0
    assert run(["train", "--dataset", str(dataset), "--out", str(model)]) == 0
    assert run(["classify", "--model", str(model), "--dataset", str(dataset),
                "--out", str(out / "lexicon.csv")]) == 0
    assert run(["curve", "--predictions", str(out / "eval" / "predictions.csv"),
                "--out", str(out / "curve.csv")]) == 0

    written = {p.relative_to(out).as_posix(): p for p in out.rglob("*.csv")}
    assert sorted(written) == [
        "curve.csv", "dataset.csv", "eval/accepted.csv", "eval/confusion.csv",
        "eval/curve.csv", "eval/predictions.csv", "eval/to_review.csv",
        "lexicon.csv", "synth/drawlog.csv", "synth/gold.csv"]
    for name, path in written.items():
        data = path.read_bytes()
        data.decode("utf-8")
        assert data.endswith(b"\r\n") and data.count(b"\n") == data.count(b"\r\n"), name
    for name in ("dataset.csv", "eval/predictions.csv", "lexicon.csv"):
        assert "sequía".encode("utf-8") in written[name].read_bytes(), name

    round_trips = {
        "synth/gold.csv": (load_gold, write_gold_csv),
        "dataset.csv": (read_dataset_csv, write_dataset_csv),
        "eval/predictions.csv": (read_predictions_csv, write_predictions_csv),
        "eval/accepted.csv": (read_predictions_csv, write_predictions_csv),
        "eval/to_review.csv": (read_predictions_csv, write_predictions_csv),
    }
    for name, (read, write) in round_trips.items():
        copy = tmp_path / "copy.csv"
        write(read(str(written[name])), str(copy))
        assert copy.read_bytes() == written[name].read_bytes(), name


def test_classify_dimension_mismatch(tmp_path, capsys):
    synth_dir, dataset = full_pipeline(tmp_path, capsys)
    model = str(tmp_path / "model.json")
    assert run(["train", "--dataset", dataset, "--out", model]) == 0

    es_synth = str(tmp_path / "es")
    assert run(["synth", "--lang", "ES", "--n-event", "5", "--n-non-event", "5",
                "--seed", "2", "--out", es_synth]) == 0
    es_dataset = str(tmp_path / "es_dataset.csv")
    assert run(["extract", "--lang", "ES",
                "--corpus", os.path.join(es_synth, "corpus.tsv"),
                "--gold", os.path.join(es_synth, "gold.csv"),
                "--out", es_dataset]) == 0

    code = run(["classify", "--model", model, "--dataset", es_dataset,
                "--out", str(tmp_path / "lex.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "16" in err and "11" in err


def test_classify_rejects_permuted_cue_columns(tmp_path, capsys):
    synth_dir, dataset = full_pipeline(tmp_path, capsys)
    model = str(tmp_path / "model.json")
    assert run(["train", "--dataset", dataset, "--out", model]) == 0

    with open(dataset, newline="") as fh:
        rows = list(csv.reader(fh))
    cue_columns = list(range(2, len(rows[0]) - 1))  # between total and label
    order = [0, 1, *reversed(cue_columns), len(rows[0]) - 1]
    permuted = str(tmp_path / "permuted.csv")
    with open(permuted, "w", newline="") as fh:
        csv.writer(fh).writerows([row[i] for i in order] for row in rows)

    lexicon = tmp_path / "lex.csv"
    code = run(["classify", "--model", model, "--dataset", permuted,
                "--out", str(lexicon)])
    assert code == 1
    assert "cue mismatch" in capsys.readouterr().err
    assert not lexicon.exists()


def _edit_every_node(tree, edit):
    edit(tree)
    for side in ("left", "right"):
        if side in tree:
            _edit_every_node(tree[side], edit)


def _rename_event(node):
    node["counts"] = {("FOO" if k == "EVENT" else k): c for k, c in node["counts"].items()}


def _first_leaf(tree):
    while "left" in tree:
        tree = tree["left"]
    return tree


@pytest.mark.parametrize("edit", [
    lambda model: _edit_every_node(model["tree"], _rename_event),
    lambda model: model["tree"].update(attribute=-1),
    lambda model: _first_leaf(model["tree"]).update(counts={"EVENT": -5, "NON_EVENT": 2}),
    lambda model: _first_leaf(model["tree"]).update(counts={"EVENT": 0, "NON_EVENT": 0}),
    lambda model: model["tree"].update(threshold=float("nan")),
    lambda model: model["params"].update(min_leaf="2"),
    lambda model: model["tree"].update(threshold=None),
    lambda model: model.update(cue_ids=5),
    lambda model: model["tree"].update(counts=list(model["tree"]["counts"].values())),
    lambda model: model["params"].update(laplace_confidence="no"),
], ids=["unknown-label", "negative-attribute", "negative-count", "zero-counts",
        "nan-threshold", "text-min-leaf", "null-threshold", "number-cue-ids",
        "list-counts", "text-flag"])
def test_classify_rejects_malformed_model(tmp_path, capsys, edit):
    synth_dir, dataset = full_pipeline(tmp_path, capsys)
    model = tmp_path / "model.json"
    assert run(["train", "--dataset", dataset, "--out", str(model)]) == 0
    payload = json.loads(model.read_text())
    assert "attribute" in payload["tree"]
    edit(payload)
    model.write_text(json.dumps(payload))
    lexicon = tmp_path / "lexicon.csv"
    capsys.readouterr()
    assert run(["classify", "--model", str(model), "--dataset", dataset,
                "--out", str(lexicon)]) == 1
    assert "bad model" in capsys.readouterr().err
    assert not lexicon.exists()


@pytest.mark.parametrize("edit", [
    lambda model: [model],
    lambda model: {**model, "params": [1]},
    lambda model: {**model, "tree": []},
    lambda model: {**model, "tree": {**model["tree"], "left": 5}},
], ids=["list-model", "list-params", "list-tree", "number-node"])
def test_classify_rejects_non_object_in_model(tmp_path, capsys, edit):
    _, dataset = full_pipeline(tmp_path, capsys)
    model = tmp_path / "model.json"
    assert run(["train", "--dataset", dataset, "--out", str(model)]) == 0
    payload = json.loads(model.read_text())
    assert "attribute" in payload["tree"]
    model.write_text(json.dumps(edit(payload)))
    lexicon = tmp_path / "lexicon.csv"
    result = subprocess.run(
        [sys.executable, "-m", "eventnouns.cli", "classify", "--model", str(model),
         "--dataset", dataset, "--out", str(lexicon)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: {model}: ")
    assert "Traceback" not in result.stderr
    assert not lexicon.exists()


def _without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


@pytest.mark.parametrize("edit, message", [
    (lambda model: _without(model, "params"), "model lacks 'params'"),
    (lambda model: _without(model, "tree"), "model lacks 'tree'"),
    (lambda model: _without(model, "cue_ids"), "model lacks 'cue_ids'"),
    (lambda model: {**model, "params": _without(model["params"], "min_leaf")},
     "model 'params' lacks 'min_leaf'"),
    (lambda model: {**model, "tree": _without(model["tree"], "counts")},
     "model node lacks 'counts'"),
    (lambda model: {**model, "tree": _without(model["tree"], "threshold")},
     "model node lacks 'threshold'"),
    (lambda model: {**model, "tree": _without(model["tree"], "left")},
     "model node lacks 'left'"),
    (lambda model: {**model, "tree": _without(model["tree"], "right")},
     "model node lacks 'right'"),
], ids=["params", "tree", "cue_ids", "min_leaf", "counts", "threshold", "left",
        "right"])
def test_classify_names_a_missing_model_key(tmp_path, capsys, edit, message):
    _, dataset = full_pipeline(tmp_path, capsys)
    model = tmp_path / "model.json"
    assert run(["train", "--dataset", dataset, "--out", str(model)]) == 0
    payload = json.loads(model.read_text())
    assert "attribute" in payload["tree"]
    model.write_text(json.dumps(edit(payload)))
    lexicon = tmp_path / "lexicon.csv"
    capsys.readouterr()
    assert run(["classify", "--model", str(model), "--dataset", dataset,
                "--out", str(lexicon)]) == 1
    assert capsys.readouterr().err == f"error: {model}: {message}\n"
    assert not lexicon.exists()


@pytest.mark.parametrize("row, message", [
    ("a,EVENT,EVENT,nan", "not in [0, 1]"),
    ("b,EVENT,EVENT,2.5", "not in [0, 1]"),
    ("c,FOO,EVENT,0.9", "unknown label: 'FOO'"),
    ("d,NON_EVENT,BAR,0.9", "unknown label: 'BAR'"),
    ("e,EVENT,EVENT", "expected 4 fields, got 3"),
], ids=["nan-confidence", "confidence-above-1", "bad-gold", "bad-predicted",
        "3-fields"])
def test_curve_rejects_malformed_predictions(tmp_path, capsys, row, message):
    predictions = tmp_path / "predictions.csv"
    predictions.write_text("lemma,gold,predicted,confidence\n"
                           "z,EVENT,EVENT,0.5\n" + row + "\n", encoding="utf-8")
    out = tmp_path / "curve.csv"
    assert run(["curve", "--predictions", str(predictions), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{predictions}:3: " in err and message in err
    assert not out.exists()


LABELED_DATASET = ("lemma,total,X-1,label\n"
                   "war,4,3,EVENT\nstorm,3,2,EVENT\n"
                   "map,2,0,NON_EVENT\ntree,5,1,NON_EVENT\n")


@pytest.mark.parametrize("argv, flag", [
    (["evaluate", "--seed", "1", "--k", "2", "--threshold", "1.5"], "--threshold"),
    (["evaluate", "--seed", "1", "--k", "1"], "--k"),
    (["evaluate", "--seed", "1", "--k", "2", "--min-leaf", "0"], "--min-leaf"),
    (["evaluate", "--seed", "1", "--k", "2", "--cf", "1.5"], "--cf"),
    (["train", "--min-leaf", "0"], "--min-leaf"),
    (["train", "--cf", "0"], "--cf"),
], ids=["evaluate-threshold", "evaluate-k", "evaluate-min-leaf", "evaluate-cf",
        "train-min-leaf", "train-cf"])
def test_bad_numeric_flag_is_usage_error(tmp_path, capsys, argv, flag):
    dataset = tmp_path / "dataset.csv"
    dataset.write_text(LABELED_DATASET, encoding="utf-8")
    out = tmp_path / "out"
    assert run([*argv, "--dataset", str(dataset), "--out", str(out)]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()  # rejected before any work


def _run_on_bad_dataset(tmp_path, capsys, command, text):
    """Exit code of ``command`` on a dataset CSV holding ``text``, with a
    model trained on a clean dataset for ``classify``; asserts that nothing
    was written."""
    clean = tmp_path / "clean.csv"
    clean.write_text(LABELED_DATASET, encoding="utf-8")
    model = tmp_path / "model.json"
    assert run(["train", "--min-leaf", "1", "--dataset", str(clean),
                "--out", str(model)]) == 0
    dataset = tmp_path / "dataset.csv"
    dataset.write_text(text, encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "out"
    argv = {"train": ["train"],
            "classify": ["classify", "--model", str(model)],
            "evaluate": ["evaluate", "--seed", "1", "--k", "2"]}[command]
    code = run([*argv, "--dataset", str(dataset), "--out", str(out)])
    assert not out.exists()
    return code


@pytest.mark.parametrize("row", ["war,4,nan,EVENT", "war,4,inf,EVENT",
                                 "war,nan,3,EVENT"],
                         ids=["nan-count", "inf-count", "nan-total"])
@pytest.mark.parametrize("command", ["train", "classify", "evaluate"])
def test_non_finite_dataset_count_is_data_error(tmp_path, capsys, command, row):
    text = LABELED_DATASET.replace("war,4,3,EVENT", row)
    assert _run_on_bad_dataset(tmp_path, capsys, command, text) == 1
    assert "non-finite count for lemma 'war'" in capsys.readouterr().err


DUPLICATE_CUE_DATASET = ("lemma,total,X-1,X-1,label\n"
                         "war,4,3,3,EVENT\nstorm,3,2,2,EVENT\n"
                         "map,2,0,0,NON_EVENT\ntree,5,1,1,NON_EVENT\n")


@pytest.mark.parametrize("text, message", [
    (DUPLICATE_CUE_DATASET, "duplicate cue ids in dataset: X-1"),
    (LABELED_DATASET.replace("war,4,3,EVENT", ",4,3,EVENT"), "empty lemma"),
], ids=["duplicate-cue", "empty-lemma"])
@pytest.mark.parametrize("command", ["train", "classify", "evaluate"])
def test_malformed_dataset_is_data_error(tmp_path, capsys, command, text, message):
    assert _run_on_bad_dataset(tmp_path, capsys, command, text) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--p-event", "1.5"), ("--p-non-event", "-0.1"), ("--noise", "2"),
    ("--silence", "1.5"), ("--silence-event", "1.5"), ("--silence-non-event", "-1"),
    ("--occ-min", "0"), ("--occ-max", "0"), ("--n-event", "0"), ("--n-non-event", "0"),
])
def test_synth_bad_numeric_flag_is_usage_error(tmp_path, capsys, flag, value):
    out = tmp_path / "synth"
    assert run(["synth", "--seed", "1", flag, value, "--out", str(out)]) == 2
    assert f"{flag} must be" in capsys.readouterr().err
    assert not out.exists()  # rejected before any work


def test_lang_accepts_either_case(tmp_path, capsys):
    corpus = write_corpus(tmp_path)
    outs = []
    for lang in ("EN", "en"):
        out = tmp_path / f"dataset-{lang}.csv"
        assert run(["extract", "--lang", lang, "--corpus", corpus,
                    "--builtin-gold", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert run(["extract", "--lang", "fr", "--corpus", corpus,
                "--builtin-gold"]) == 2


def test_evaluate_from_corpus_and_gold(tmp_path, capsys):
    corpus = write_corpus(tmp_path)
    gold = write_gold(tmp_path, [("war", "EVENT"), ("map", "NON_EVENT"),
                                 ("storm", "EVENT"), ("tree", "NON_EVENT")])
    out_dir = str(tmp_path / "eval")
    assert run(["evaluate", "--lang", "EN", "--corpus", corpus, "--gold", gold,
                "--k", "2", "--seed", "1", "--out", out_dir]) == 0
    assert os.path.exists(os.path.join(out_dir, "report.txt"))


def test_evaluate_requires_seed(tmp_path):
    corpus = write_corpus(tmp_path)
    assert run(["evaluate", "--corpus", corpus, "--builtin-gold"]) == 2


def test_evaluate_deterministic_outputs(tmp_path, capsys):
    synth_dir, dataset = full_pipeline(tmp_path, capsys)
    outs = []
    for name in ("run_a", "run_b"):
        out_dir = str(tmp_path / name)
        assert run(["evaluate", "--dataset", dataset, "--k", "5", "--seed", "17",
                    "--threshold", "0.8", "--out", out_dir]) == 0
        outs.append(out_dir)
    for name in ("report.txt", "predictions.csv", "curve.csv",
                 "confusion.csv", "accepted.csv", "to_review.csv"):
        a = Path(outs[0], name).read_bytes()
        b = Path(outs[1], name).read_bytes()
        assert a == b, name


def test_synth_deterministic(tmp_path):
    for name in ("one", "two"):
        assert run(["synth", "--seed", "5", "--n-event", "10",
                    "--n-non-event", "10", "--out", str(tmp_path / name)]) == 0
    a = (tmp_path / "one" / "corpus.tsv").read_bytes()
    b = (tmp_path / "two" / "corpus.tsv").read_bytes()
    assert a == b


def test_builtin_gold_requires_english(tmp_path, capsys):
    corpus = write_corpus(tmp_path)
    code = run(["extract", "--lang", "ES", "--corpus", corpus,
                "--builtin-gold", "--out", str(tmp_path / "d.csv")])
    assert code == 2


def test_extract_with_custom_cue_file_and_relative(tmp_path, capsys):
    corpus = write_corpus(tmp_path)
    cues = tmp_path / "rules.tsv"
    cues.write_text("X-1\tpositive\tlemma=during tag=DET? TARGET\n")
    gold = write_gold(tmp_path, [("war", "EVENT"), ("map", "NON_EVENT")])
    out = str(tmp_path / "dataset.csv")
    assert run(["extract", "--lang", "EN", "--corpus", corpus,
                "--cues", str(cues), "--gold", gold, "--relative",
                "--out", out]) == 0
    lines = Path(out).read_text().splitlines()
    header, war_row = lines[:2]
    assert header == "lemma,total,X-1,label"
    assert war_row == "map,1,0,NON_EVENT" or war_row.startswith("map")
    rows = dict(line.split(",", 1) for line in lines[1:])
    # war occurs twice, matched once by X-1: relative count 0.5
    assert rows["war"] == "2,0.5,EVENT"


def test_extract_last_noun_policy(tmp_path):
    corpus = write_corpus(
        tmp_path, "during\tduring\tADP\nthe\tthe\tDET\nworld\tworld\tNOUN\n"
                  "war\twar\tNOUN\n")
    gold = write_gold(tmp_path, [("war", "EVENT"), ("world", "NON_EVENT")])
    out_first = str(tmp_path / "first.csv")
    out_last = str(tmp_path / "last.csv")
    assert run(["extract", "--corpus", corpus, "--gold", gold,
                "--out", out_first]) == 0
    assert run(["extract", "--corpus", corpus, "--gold", gold, "--last-noun",
                "--out", out_last]) == 0

    def en1_count(path, lemma):
        lines = Path(path).read_text().splitlines()
        index = lines[0].split(",").index("EN-1")
        for line in lines[1:]:
            fields = line.split(",")
            if fields[0] == lemma:
                return fields[index]
        raise AssertionError(lemma)

    assert en1_count(out_first, "world") == "1"
    assert en1_count(out_first, "war") == "0"
    assert en1_count(out_last, "world") == "0"
    assert en1_count(out_last, "war") == "1"


def test_train_rejects_unlabeled_dataset(tmp_path, capsys):
    corpus = write_corpus(tmp_path)
    lemmas = tmp_path / "lemmas.txt"
    lemmas.write_text("war\nmap\n")
    dataset = str(tmp_path / "unlabeled.csv")
    assert run(["extract", "--corpus", corpus, "--lemmas", str(lemmas),
                "--out", dataset]) == 0
    code = run(["train", "--dataset", dataset, "--out", str(tmp_path / "m.json")])
    assert code == 1
    assert "label" in capsys.readouterr().err


def test_classify_rejects_non_model_file(tmp_path, capsys):
    corpus = write_corpus(tmp_path)
    lemmas = tmp_path / "lemmas.txt"
    lemmas.write_text("war\n")
    dataset = str(tmp_path / "d.csv")
    assert run(["extract", "--corpus", corpus, "--lemmas", str(lemmas),
                "--out", dataset]) == 0
    bogus = tmp_path / "model.json"
    bogus.write_text('{"format": "something-else"}')
    assert run(["classify", "--model", str(bogus), "--dataset", dataset,
                "--out", str(tmp_path / "l.csv")]) == 1
