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

HUGE_FIELD = "x" * 140_000  # beyond the csv module's field limit of 131,072


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


def cli_process(*argv):
    """Run the CLI in a fresh interpreter, as a user would."""
    return subprocess.run(
        [sys.executable, "-m", "eventnouns.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))


def two_bad_corpora(tmp_path):
    """Two corpus files, each with one malformed line, at lines 7 and 2."""
    first = write_corpus(tmp_path, TINY_CORPUS.replace(
        "happened\thappen\tVERB\n", "happened happen VERB\n"), name="first.tsv")
    second = write_corpus(tmp_path, "the\tthe\tDET\nbad line\n", name="second.tsv")
    return first, second


def test_strict_corpus_error_names_the_file(tmp_path):
    _, second = two_bad_corpora(tmp_path)
    out = tmp_path / "d.csv"
    result = cli_process("extract", "--corpus", write_corpus(tmp_path),
                         "--corpus", second, "--builtin-gold", "--out", str(out))
    assert result.returncode == 1
    assert result.stderr == (f"corpus error: {second}: line 2: "
                             "expected 3 tab-separated fields, got 1\n")
    assert not out.exists()


def test_lenient_warnings_name_the_file(tmp_path):
    first, second = two_bad_corpora(tmp_path)
    out = tmp_path / "d.csv"
    result = cli_process("extract", "--corpus", first, "--corpus", second,
                         "--builtin-gold", "--lenient", "--out", str(out))
    assert result.returncode == 0
    assert result.stderr == (
        f"{first}: skipping corpus line 7: expected 3 tab-separated fields, got 1\n"
        f"{second}: skipping corpus line 2: expected 3 tab-separated fields, got 1\n")
    assert out.exists()


@pytest.mark.parametrize("flags", [[], ["--lenient"]], ids=["strict", "lenient"])
def test_non_utf8_corpus_names_file_and_line(tmp_path, flags):
    corpus = tmp_path / "latin1.tsv"
    # the whole file decodes with line 1's read, so line 17 must be found again
    corpus.write_bytes(TINY_CORPUS.encode("utf-8") + b"\ncaf\xe9\tcaf\xe9\tNOUN\n")
    out = tmp_path / "d.csv"
    result = cli_process("extract", "--corpus", str(corpus), "--builtin-gold",
                         *flags, "--out", str(out))
    assert result.returncode == 1
    assert result.stderr == (f"error: {corpus}: line 17: 'utf-8' codec can't decode "
                             "byte 0xe9 in position 3: invalid continuation byte\n")
    assert not out.exists()


BOM = "\ufeff"


def test_corpus_may_start_with_a_byte_order_mark(tmp_path, capsys):
    outs = []
    for mark in ("", BOM):
        corpus = write_corpus(tmp_path, mark + "# a comment\n" + TINY_CORPUS)
        out = tmp_path / "d.csv"
        assert run(["extract", "--corpus", corpus, "--builtin-gold",
                    "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    # the fallback that finds a line that is not UTF-8 skips the mark too
    Path(corpus).write_bytes((BOM + TINY_CORPUS).encode("utf-8")
                             + b"\ncaf\xe9\tcaf\xe9\tNOUN\n")
    capsys.readouterr()
    assert run(["extract", "--corpus", corpus, "--builtin-gold", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {corpus}: line 17: 'utf-8' codec can't decode "
        "byte 0xe9 in position 3: invalid continuation byte\n")


def test_cue_file_may_start_with_a_byte_order_mark(tmp_path):
    cues = tmp_path / "rules.tsv"
    cues.write_text(BOM + "X-1\tpositive\tlemma=during tag=DET? TARGET\n", encoding="utf-8")
    out = tmp_path / "d.csv"
    assert run(["extract", "--corpus", write_corpus(tmp_path), "--cues", str(cues),
                "--builtin-gold", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").startswith("lemma,total,X-1,label\n")


def test_lemma_list_may_start_with_a_byte_order_mark(tmp_path):
    lemmas = tmp_path / "lemmas.txt"
    lemmas.write_text(BOM + "war\nmap\n", encoding="utf-8")
    out = tmp_path / "d.csv"
    assert run(["extract", "--corpus", write_corpus(tmp_path), "--lemmas", str(lemmas),
                "--out", str(out)]) == 0
    rows = out.read_text(encoding="utf-8").splitlines()
    assert [row.split(",")[:2] for row in rows[1:]] == [["map", "2"], ["war", "2"]]


# each reader's input with a byte that is not UTF-8 at position 3 of line 2
# or 3, and a command that reads it; BAD stands for its path
_NOT_UTF8 = {
    "cues": (b"X-1\tpositive\tlemma=during TARGET\ncaf\xe9\tpositive\tTARGET\n", 2,
             ["extract", "--corpus", "CORPUS", "--cues", "BAD", "--builtin-gold"]),
    "lemmas": (b"war\ncaf\xe9\n", 2, ["extract", "--corpus", "CORPUS", "--lemmas", "BAD"]),
    "gold": (b"lemma,label\nwar,EVENT\ncaf\xe9,NON_EVENT\n", 3,
             ["extract", "--corpus", "CORPUS", "--gold", "BAD"]),
    "dataset": (b"lemma,total,X-1,label\nwar,4,3,EVENT\ncaf\xe9,2,0,NON_EVENT\n", 3,
                ["train", "--dataset", "BAD"]),
    "predictions": (b"lemma,gold,predicted,confidence\nwar,EVENT,EVENT,0.9\n"
                    b"caf\xe9,NON_EVENT,EVENT,0.6\n", 3, ["curve", "--predictions", "BAD"]),
    "model": (b'{"format": "eventnouns-tree/1",\ncaf\xe9\n}\n', 2,
              ["classify", "--model", "BAD", "--dataset", "DATASET"]),
}


@pytest.mark.parametrize("kind", list(_NOT_UTF8))
def test_non_utf8_input_names_file_and_line(tmp_path, capsys, kind):
    data, line, argv = _NOT_UTF8[kind]
    bad = tmp_path / f"bad-{kind}"
    bad.write_bytes(data)
    dataset = tmp_path / "dataset.csv"
    dataset.write_text(LABELED_DATASET, encoding="utf-8")
    files = {"BAD": str(bad), "CORPUS": write_corpus(tmp_path), "DATASET": str(dataset)}
    out = tmp_path / "out"
    assert run([files.get(arg, arg) for arg in argv] + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: line {line}: 'utf-8' codec can't decode "
        "byte 0xe9 in position 3: invalid continuation byte\n")
    assert not out.exists()


def test_fresh_process_extract_writes_what_main_writes(tmp_path, capsys):
    # a fresh process runs main_entry, which freezes the start-up heap first
    corpus = write_corpus(tmp_path)
    in_process, fresh = tmp_path / "main.csv", tmp_path / "entry.csv"
    argv = ["extract", "--lang", "EN", "--corpus", corpus, "--builtin-gold",
            "--last-noun", "--out"]
    assert run([*argv, str(in_process)]) == 0
    stdout = capsys.readouterr().out
    result = cli_process(*argv, str(fresh))
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout == stdout.replace(str(in_process), str(fresh))
    assert fresh.read_bytes() == in_process.read_bytes()


def test_start_up_imports_only_what_every_command_uses():
    # json, statistics and logging are imported where they are used, and the
    # generator only by synth; each would add to every command's start-up
    code = ("import sys; import eventnouns.cli; "
            "from eventnouns.cues import builtin_cue_set; "
            "eventnouns.cli.build_parser(); builtin_cue_set('EN'); "
            "print([m for m in ('logging', 'json', 'statistics', 'eventnouns.data')"
            " if m in sys.modules])")
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_gold_with_byte_order_mark_reads_as_without(tmp_path, capsys):
    corpus = write_corpus(tmp_path)
    gold = Path(write_gold(tmp_path, [("war", "EVENT"), ("map", "NON_EVENT")]))
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + gold.read_bytes())
    written = []
    for path in (gold, marked):
        out = tmp_path / f"{path.stem}.dataset.csv"
        assert run(["extract", "--lang", "EN", "--corpus", corpus,
                    "--gold", str(path), "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert capsys.readouterr().err == ""
    assert written[0] == written[1]


def test_gold_label_error_names_file_and_row(tmp_path, capsys):
    corpus = write_corpus(tmp_path)
    gold = write_gold(tmp_path, [("war", "EVENT"), ("map", "EVENTT")])
    out = tmp_path / "d.csv"
    code = run(["extract", "--lang", "EN", "--corpus", corpus, "--gold", gold,
                "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {gold}:3: unknown label: 'EVENTT' (expected EVENT or NON_EVENT)\n")
    assert not out.exists()


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
    (HUGE_FIELD + ",,EVENT,1", "field larger than field limit (131072)"),
    ("f\0,EVENT,EVENT,1", "line contains NUL"),
], ids=["nan-confidence", "confidence-above-1", "bad-gold", "bad-predicted",
        "3-fields", "huge-field", "nul"])
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


@pytest.mark.parametrize("argv, message", [
    (["evaluate", "--seed", "1", "--k", "2", "--threshold", "1.5"],
     "--threshold must be in [0, 1], got 1.5"),
    (["evaluate", "--seed", "1", "--k", "1"], "--k must be >= 2, got 1"),
    (["evaluate", "--seed", "1", "--k", "2", "--min-leaf", "0"],
     "--min-leaf must be >= 1, got 0"),
    (["evaluate", "--seed", "1", "--k", "2", "--cf", "1.5"],
     "--cf must be in (0, 1), got 1.5"),
    (["train", "--min-leaf", "0"], "--min-leaf must be >= 1, got 0"),
    (["train", "--cf", "0"], "--cf must be in (0, 1), got 0"),
], ids=["evaluate-threshold", "evaluate-k", "evaluate-min-leaf", "evaluate-cf",
        "train-min-leaf", "train-cf"])
def test_bad_numeric_flag_is_usage_error(tmp_path, capsys, argv, message):
    dataset = tmp_path / "dataset.csv"
    dataset.write_text(LABELED_DATASET, encoding="utf-8")
    out = tmp_path / "out"
    assert run([*argv, "--dataset", str(dataset), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()  # rejected before any work


def test_range_error_comes_before_a_missing_required_flag(tmp_path, capsys):
    assert run(["train", "--min-leaf", "0", "--out", str(tmp_path / "m.json")]) == 2
    assert capsys.readouterr().err == "error: --min-leaf must be >= 1, got 0\n"


@pytest.mark.parametrize("argv, message", [
    (["--threshold", "2", "--k", "1"], "--threshold must be in [0, 1], got 2"),
    (["--k", "1", "--threshold", "2"], "--k must be >= 2, got 1"),
], ids=["threshold-first", "k-first"])
def test_first_bad_flag_in_argv_is_reported(tmp_path, capsys, argv, message):
    dataset = tmp_path / "dataset.csv"
    dataset.write_text(LABELED_DATASET, encoding="utf-8")
    assert run(["evaluate", "--seed", "1", *argv, "--dataset", str(dataset),
                "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


ONE_CUE_MODEL = {
    "format": "eventnouns-tree/1", "language": "", "cue_ids": ["X-1"],
    "params": {"min_leaf": 2, "confidence_factor": 0.25, "pruning": True,
               "laplace_confidence": False},
    "tree": {"counts": {"EVENT": 2, "NON_EVENT": 2}, "attribute": 0, "threshold": 0.5,
             "left": {"counts": {"NON_EVENT": 2}}, "right": {"counts": {"EVENT": 2}}},
}


@pytest.mark.parametrize("edit, message", [
    (lambda model: model["params"].update(min_leaf=0), "min_leaf must be >= 1"),
    (lambda model: model["params"].update(confidence_factor=1.5),
     "confidence_factor must be in (0, 1)"),
    (lambda model: model["tree"].update(attribute=5),
     "tree tests attribute 5 but the model has 1 cue ids"),
    (lambda model: model["tree"]["right"].update(
        attribute=1, threshold=0.5, left={"counts": {"EVENT": 1}},
        right={"counts": {"EVENT": 1}}),
     "tree tests attribute 1 but the model has 1 cue ids"),
], ids=["zero-min-leaf", "confidence-factor", "root-attribute", "deep-attribute"])
def test_classify_names_the_model_of_a_bad_value(tmp_path, capsys, edit, message):
    dataset = tmp_path / "dataset.csv"
    dataset.write_text(LABELED_DATASET, encoding="utf-8")
    payload = json.loads(json.dumps(ONE_CUE_MODEL))
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    lexicon = tmp_path / "lexicon.csv"
    assert run(["classify", "--model", str(model), "--dataset", str(dataset),
                "--out", str(lexicon)]) == 0  # the unedited model classifies
    edit(payload)
    model.write_text(json.dumps(payload))
    lexicon.unlink()
    capsys.readouterr()
    assert run(["classify", "--model", str(model), "--dataset", str(dataset),
                "--out", str(lexicon)]) == 1
    assert capsys.readouterr().err == f"error: {model}: {message}\n"
    assert not lexicon.exists()


@pytest.mark.parametrize("extra", [
    ["--corpus", "missing.tsv"], ["--cues", "missing.tsv"], ["--gold", "missing.csv"],
    ["--builtin-gold"], ["--relative"], ["--last-noun"], ["--lenient"],
], ids=lambda extra: extra[0])
def test_evaluate_dataset_rejects_extraction_flags(tmp_path, capsys, extra):
    dataset = tmp_path / "dataset.csv"
    dataset.write_text("not a dataset\n", encoding="utf-8")  # exits 1 if read
    out = tmp_path / "out"
    assert run(["evaluate", "--seed", "1", "--k", "2", "--dataset", str(dataset),
                *extra, "--out", str(out)]) == 2
    assert f"error: --dataset cannot be combined with {extra[0]}" in capsys.readouterr().err
    assert not out.exists()  # rejected before any work


@pytest.mark.parametrize("argv", [
    ["extract", "--gold", "GOLD", "--builtin-gold"],
    ["extract", "--gold", "GOLD", "--lemmas", "LEMMAS"],
    ["extract", "--builtin-gold", "--lemmas", "LEMMAS"],
    ["evaluate", "--seed", "1", "--gold", "GOLD", "--builtin-gold"],
], ids=["extract-gold-builtin", "extract-gold-lemmas", "extract-builtin-lemmas",
        "evaluate-gold-builtin"])
def test_conflicting_target_sources_are_usage_error(tmp_path, capsys, argv):
    files = {"GOLD": write_gold(tmp_path, [("war", "EVENT"), ("map", "NON_EVENT")]),
             "LEMMAS": str(tmp_path / "lemmas.txt")}
    Path(files["LEMMAS"]).write_text("war\nmap\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = [files.get(arg, arg) for arg in argv]
    assert run([*argv, "--corpus", write_corpus(tmp_path), "--out", str(out)]) == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("row, where, message", [
    ("war,4,abc,EVENT", ":2", "could not convert string to float: 'abc'"),
    (",4,3,EVENT", ":2", "feature vector with an empty lemma"),
    ("war,4,3", ":2", "row for 'war' has 3 fields, expected 4"),
    ("tree,4,3,EVENT", "", "duplicate lemmas in dataset: tree"),
    ("war,4,3,EVENTT", "", "unknown label: 'EVENTT' (expected EVENT or NON_EVENT)"),
    (HUGE_FIELD + ",4,3,EVENT", ":2", "field larger than field limit (131072)"),
    ("w\0ar,4,3,EVENT", ":2", "line contains NUL"),
], ids=["bad-cell", "empty-lemma", "short-row", "duplicate-lemma", "bad-label",
        "huge-field", "nul"])
def test_dataset_error_names_file_and_row(tmp_path, capsys, row, where, message):
    dataset = tmp_path / "dataset.csv"
    dataset.write_text(LABELED_DATASET.replace("war,4,3,EVENT", row), encoding="utf-8")
    out = tmp_path / "model.json"
    assert run(["train", "--dataset", str(dataset), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {dataset}{where}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["extract", "--corpus", "CORPUS", "--lemmas", "COMMENTS"], "COMMENTS: no lemmas found"),
    (["evaluate", "--seed", "1"], "need --dataset FILE or --corpus FILE ..."),
    (["evaluate", "--seed", "1", "--corpus", "CORPUS"], "need --builtin-gold or --gold FILE"),
], ids=["lemmas-only-comments", "evaluate-without-input", "evaluate-corpus-without-gold"])
def test_missing_input_is_usage_error(tmp_path, capsys, argv, message):
    comments = tmp_path / "lemmas.txt"
    comments.write_text("# no lemma here\n\n", encoding="utf-8")
    files = {"CORPUS": write_corpus(tmp_path), "COMMENTS": str(comments)}
    out = tmp_path / "out"
    assert run([files.get(arg, arg) for arg in argv] + ["--out", str(out)]) == 2
    message = message.replace("COMMENTS", files["COMMENTS"])
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--p-event", "1.5"), ("--p-non-event", "-0.1"), ("--noise", "2"),
    ("--silence", "1.5"), ("--silence-event", "1.5"), ("--silence-non-event", "-1"),
    ("--occ-min", "0"), ("--occ-max", "0"), ("--n-event", "0"), ("--n-non-event", "0"),
])
def test_synth_bad_numeric_flag_is_usage_error(tmp_path, capsys, flag, value):
    out = tmp_path / "synth"
    assert run(["synth", "--seed", "1", flag, value, "--out", str(out)]) == 2
    allowed = ">= 1" if flag in ("--occ-min", "--occ-max", "--n-event",
                                 "--n-non-event") else "in [0, 1]"
    assert capsys.readouterr().err == f"error: {flag} must be {allowed}, got {value}\n"
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


def test_extract_rejects_a_cue_named_label(tmp_path, capsys):
    # its column would end the header, and every later read would take it
    # for the label column
    corpus = write_corpus(tmp_path)
    cues = tmp_path / "rules.tsv"
    cues.write_text("X-1\tpositive\tlemma=during tag=DET? TARGET\n"
                    "label\tpositive\tlemma=the TARGET\n")
    lemmas = tmp_path / "lemmas.txt"
    lemmas.write_text("war\n")
    out = tmp_path / "dataset.csv"
    assert run(["extract", "--lang", "EN", "--corpus", corpus, "--cues", str(cues),
                "--lemmas", str(lemmas), "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"error: {cues}: cue id 'label' names the dataset's label column\n"
    assert not out.exists()


def test_cue_named_label_is_rejected_before_the_corpus_is_read(tmp_path, capsys):
    corpus = write_corpus(tmp_path, "war NOUN\n")  # its first line is malformed
    cues = tmp_path / "rules.tsv"
    cues.write_text("label\tpositive\tlemma=the TARGET\n")
    lemmas = tmp_path / "lemmas.txt"
    lemmas.write_text("war\n")
    out = tmp_path / "dataset.csv"
    assert run(["extract", "--lang", "EN", "--corpus", corpus, "--cues", str(cues),
                "--lemmas", str(lemmas), "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"error: {cues}: cue id 'label' names the dataset's label column\n"
    assert not out.exists()


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
