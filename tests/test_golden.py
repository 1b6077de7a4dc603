"""Golden-output manifest: every byte the CLI writes, checked in.

A table of CLI commands runs through ``cli.main`` in a temporary working
directory, with relative paths, so no message holds a temporary path. For
each command the manifest records the exit code and the SHA-256 of stdout,
of stderr and of every file the command wrote or changed. The inputs come
from ``synth`` at fixed seeds and from small files written here.

``tests/golden.json`` holds the expected manifest. An intended change of an
output shows as a diff of that file; rewrite it with::

    UPDATE_GOLDEN=1 python -m pytest tests/test_golden.py

The manifest is the same under every supported Python version, so the CI
matrix also checks that the outputs do not depend on the version.
"""

import codecs
import contextlib
import hashlib
import io
import json
import logging
import os
from pathlib import Path

from eventnouns.cli import main

GOLDEN = Path(__file__).with_name("golden.json")

TINY = ("during\tduring\tADP\nthe\tthe\tDET\nwar\twar\tNOUN\n\n"
        "the\tthe\tDET\nwar\twar\tNOUN\nhappened\thappen\tVERB\n\n"
        "a\ta\tDET\nmap\tmap\tNOUN\n\n"
        "the\tthe\tDET\nmap\tmap\tNOUN\nof\tof\tADP\nthem\tthey\tPRON\n")

# a custom cue file: surface=, a refined tag, any?, any* and a disabled rule
RULES = ("# custom rules\n"
         "C-1\tpositive\tsurface=During|after any? TARGET\n"
         "C-2\tpositive\tTARGET lemma=be,tag=AUX tag=VERB:PART\n"
         "C-3\tnegative\tlemma=a|this any* TARGET\n"
         "C-4\tpositive\ttag=DET TARGET tag=VERB\tdisabled\n"
         "C-5\tnegative\tTARGET surface=of|by,tag=ADP\n")

LATIN1 = b"\ncaf\xe9\tcaf\xe9\tNOUN\n"

# a model over one cue, split on its count
ONE_CUE_MODEL = {
    "format": "eventnouns-tree/1", "language": "", "cue_ids": ["X-1"],
    "params": {"min_leaf": 2, "confidence_factor": 0.25, "pruning": True,
               "laplace_confidence": False},
    "tree": {"counts": {"EVENT": 1, "NON_EVENT": 1}, "attribute": 0, "threshold": 0.5,
             "left": {"counts": {"NON_EVENT": 1}}, "right": {"counts": {"EVENT": 1}}},
}

INPUTS = {
    "tiny.tsv": TINY.encode(),
    "crlf.tsv": TINY.replace("\n", "\r\n").encode(),
    # a byte-order mark, and a comment line inside a sentence
    "bom.tsv": codecs.BOM_UTF8 + TINY.replace("the\tthe\tDET\nwar",
                                              "the\tthe\tDET\n# note\nwar", 1).encode(),
    "bad.tsv": TINY.replace("happened\thappen\tVERB", "happened happen VERB")
                   .replace("map\tmap\tNOUN\n\n", "map\tmap\tNOUNX\n\n", 1).encode(),
    "latin1.tsv": TINY.encode() + LATIN1,
    "rules.tsv": RULES.encode(),
    "lemmas.txt": b"# targets\nwar\nMap\nevt000\nobj001\n",
    "tiny_gold.csv": b"lemma,label\nwar,EVENT\nmap,NON_EVENT\nstorm,EVENT\ntree,NON_EVENT\n",
    "bad_rules.tsv": b"C-1\tpositive\tlemma=during TARGET\nC-2\tpositive\n",
    "latin1_rules.tsv": b"C-1\tpositive\tlemma=during TARGET\nC-2\tpositive\tlemma=caf\xe9 TARGET\n",
    "latin1_lemmas.txt": b"war\ncaf\xe9\n",
    "latin1_gold.csv": b"lemma,label\nwar,EVENT\ncaf\xe9,NON_EVENT\n",
    "latin1_dataset.csv": b"lemma,total,X-1,label\nwar,4,3,EVENT\ncaf\xe9,2,0,NON_EVENT\n",
    "latin1_predictions.csv": (b"lemma,gold,predicted,confidence\n"
                               b"war,EVENT,EVENT,0.9\ncaf\xe9,NON_EVENT,EVENT,0.6\n"),
    "latin1_model.json": b'{"format": "eventnouns-tree/1", "language": "caf\xe9"}\n',
    "cased_dataset.csv": b"lemma,total,X-1,label\nwar,4,3,EVENT\nWar,4,3,EVENT\n",
    "tag_rules.tsv": b"C-1\tpositive\tlemma=during TARGET\nC-2\tpositive\ttag=FOO TARGET\n",
    # a field beyond the csv module's limit of 131,072 characters
    "huge_gold.csv": b"lemma,label\nwar,EVENT\n" + b"x" * 140_000 + b",EVENT\n",
    "one_cue_dataset.csv": b"lemma,total,X-1\nwar,4,3\nmap,2,0\n",
    # a NUL byte inside a field: the csv module of Python 3.11 on reads it
    "nul_gold.csv": b"lemma,label\nwar,EVENT\nm\0ap,NON_EVENT\n",
    "nul_dataset.csv": b"lemma,total,X-1,label\nwar,4,3,EVENT\nw\0ar,1,0,EVENT\n",
    "zero_min_leaf_model.json": json.dumps(dict(ONE_CUE_MODEL, params={
        **ONE_CUE_MODEL["params"], "min_leaf": 0})).encode(),
    "attribute_model.json": json.dumps(dict(ONE_CUE_MODEL, tree={
        **ONE_CUE_MODEL["tree"], "attribute": 5})).encode(),
}


def _derive_models():
    """A model cut short, and the same model after a byte-order mark."""
    model = Path("model.json").read_bytes()
    Path("truncated_model.json").write_bytes(model[:50])
    Path("bom_model.json").write_bytes(codecs.BOM_UTF8 + model)


# (name, argv); a callable between them writes inputs that it derives from
# the outputs before it
STEPS = [
    ("synth-en", ["synth", "--lang", "EN", "--n-event", "100", "--n-non-event", "100",
                  "--noise", "0.1", "--silence", "0.2", "--seed", "7", "--out", "en"]),
    ("synth-es", ["synth", "--lang", "ES", "--n-event", "100", "--n-non-event", "100",
                  "--seed", "8", "--out", "es"]),
    ("extract-en", ["extract", "--corpus", "en/corpus.tsv", "--gold", "en/gold.csv",
                    "--out", "en/dataset.csv"]),
    ("extract-en-relative", ["extract", "--corpus", "en/corpus.tsv", "--gold",
                             "en/gold.csv", "--relative", "--out", "en/relative.csv"]),
    ("extract-es-last-noun", ["extract", "--lang", "es", "--corpus", "es/corpus.tsv",
                              "--gold", "es/gold.csv", "--last-noun",
                              "--out", "es/dataset.csv"]),
    ("extract-custom-cues", ["extract", "--corpus", "en/corpus.tsv", "--cues", "rules.tsv",
                             "--gold", "en/gold.csv", "--out", "custom.csv"]),
    ("extract-custom-cues-relative-last-noun",
     ["extract", "--corpus", "en/corpus.tsv", "--cues", "rules.tsv", "--gold",
      "en/gold.csv", "--relative", "--last-noun", "--out", "custom_relative.csv"]),
    ("extract-two-corpora", ["extract", "--corpus", "en/corpus.tsv", "--corpus",
                             "tiny.tsv", "--lemmas", "lemmas.txt", "--out", "two.csv"]),
    ("extract-tiny", ["extract", "--corpus", "tiny.tsv", "--builtin-gold",
                      "--out", "tiny.csv"]),
    ("extract-crlf", ["extract", "--corpus", "crlf.tsv", "--builtin-gold",
                      "--out", "crlf.csv"]),
    ("extract-bom-comment", ["extract", "--corpus", "bom.tsv", "--builtin-gold",
                             "--out", "bom.csv"]),
    ("extract-strict-error", ["extract", "--corpus", "tiny.tsv", "--corpus", "bad.tsv",
                              "--builtin-gold", "--out", "strict.csv"]),
    ("extract-lenient", ["extract", "--corpus", "tiny.tsv", "--corpus", "bad.tsv",
                         "--builtin-gold", "--lenient", "--out", "lenient.csv"]),
    ("extract-non-utf8", ["extract", "--corpus", "latin1.tsv", "--builtin-gold",
                          "--out", "latin1.csv"]),
    ("extract-non-utf8-lenient", ["extract", "--corpus", "latin1.tsv", "--builtin-gold",
                                  "--lenient", "--out", "latin1.csv"]),
    ("evaluate-dataset", ["evaluate", "--dataset", "en/dataset.csv", "--k", "5",
                          "--seed", "3", "--out", "eval"]),
    ("evaluate-corpus", ["evaluate", "--lang", "ES", "--corpus", "es/corpus.tsv",
                         "--gold", "es/gold.csv", "--last-noun", "--laplace",
                         "--k", "4", "--seed", "5", "--threshold", "0.9",
                         "--out", "eval_es"]),
    ("evaluate-tiny-corpus", ["evaluate", "--corpus", "tiny.tsv", "--gold",
                              "tiny_gold.csv", "--k", "2", "--seed", "1",
                              "--min-leaf", "1", "--out", "eval_tiny"]),
    ("train", ["train", "--dataset", "en/dataset.csv", "--lang", "EN",
               "--tree-text", "tree.txt", "--out", "model.json"]),
    ("train-laplace-relative", ["train", "--dataset", "en/relative.csv", "--laplace",
                                "--no-prune", "--out", "model_laplace.json"]),
    ("classify", ["classify", "--model", "model.json", "--dataset", "en/dataset.csv",
                  "--out", "lexicon.csv"]),
    ("classify-laplace", ["classify", "--model", "model_laplace.json",
                          "--dataset", "en/relative.csv", "--out", "lexicon_laplace.csv"]),
    ("curve", ["curve", "--predictions", "eval/predictions.csv", "--out", "curve.csv"]),
    _derive_models,
    ("classify-truncated-model", ["classify", "--model", "truncated_model.json",
                                  "--dataset", "en/dataset.csv", "--out", "lexicon_t.csv"]),
    ("classify-bom-model", ["classify", "--model", "bom_model.json",
                            "--dataset", "en/dataset.csv", "--out", "lexicon_bom.csv"]),
    ("classify-non-utf8-model", ["classify", "--model", "latin1_model.json",
                                 "--dataset", "en/dataset.csv", "--out", "lexicon_l.csv"]),
    ("train-cased-lemmas", ["train", "--dataset", "cased_dataset.csv", "--min-leaf", "1",
                            "--out", "model_cased.json"]),
    ("cue-file-error", ["extract", "--corpus", "tiny.tsv", "--cues", "bad_rules.tsv",
                        "--builtin-gold", "--out", "x.csv"]),
    ("cue-file-non-utf8", ["extract", "--corpus", "tiny.tsv", "--cues",
                           "latin1_rules.tsv", "--builtin-gold", "--out", "x.csv"]),
    ("lemmas-non-utf8", ["extract", "--corpus", "tiny.tsv", "--lemmas",
                         "latin1_lemmas.txt", "--out", "x.csv"]),
    ("gold-non-utf8", ["extract", "--corpus", "tiny.tsv", "--gold", "latin1_gold.csv",
                       "--out", "x.csv"]),
    ("dataset-non-utf8", ["train", "--dataset", "latin1_dataset.csv", "--out", "x.json"]),
    ("predictions-non-utf8", ["curve", "--predictions", "latin1_predictions.csv",
                              "--out", "x.csv"]),
    ("cue-rule-error", ["extract", "--corpus", "tiny.tsv", "--cues", "tag_rules.tsv",
                        "--builtin-gold", "--out", "x.csv"]),
    ("gold-field-too-large", ["extract", "--corpus", "tiny.tsv", "--gold",
                              "huge_gold.csv", "--out", "x.csv"]),
    ("model-zero-min-leaf", ["classify", "--model", "zero_min_leaf_model.json",
                             "--dataset", "one_cue_dataset.csv", "--out", "x.csv"]),
    ("model-attribute-beyond-cues", ["classify", "--model", "attribute_model.json",
                                     "--dataset", "one_cue_dataset.csv", "--out", "x.csv"]),
    ("gold-nul", ["extract", "--corpus", "tiny.tsv", "--gold", "nul_gold.csv",
                  "--out", "x.csv"]),
    ("dataset-nul", ["train", "--dataset", "nul_dataset.csv", "--min-leaf", "1",
                     "--out", "x.json"]),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _snapshot() -> dict[str, str]:
    """The hash of every file under the working directory, by relative path."""
    return {path.as_posix(): _sha256(path.read_bytes())
            for path in sorted(Path().rglob("*")) if path.is_file()}


def _run(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI command."""
    out, err = io.StringIO(), io.StringIO()
    # a fresh process writes a warning to stderr through logging's
    # last-resort handler, which a test's own log capture would replace
    handler = logging.StreamHandler(err)
    handler.setLevel(logging.WARNING)
    logger = logging.getLogger("eventnouns")
    logger.addHandler(handler)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        logger.removeHandler(handler)
    return code, out.getvalue(), err.getvalue()


def record_manifest() -> dict:
    """Write the inputs and run every step in the working directory."""
    for name, data in INPUTS.items():
        Path(name).write_bytes(data)
    manifest = {}
    for step in STEPS:
        if callable(step):
            step()
            continue
        name, argv = step
        before = _snapshot()
        code, stdout, stderr = _run(argv)
        after = _snapshot()
        manifest[name] = {
            "command": " ".join(argv),
            "exit": code,
            "stdout": _sha256(stdout.encode()),
            "stderr": _sha256(stderr.encode()),
            "files": {path: digest for path, digest in after.items()
                      if before.get(path) != digest},
        }
    return manifest


def test_outputs_equal_the_golden_manifest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    manifest = record_manifest()
    if os.environ.get("UPDATE_GOLDEN") == "1":
        GOLDEN.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    changed = sorted(name for name in golden.keys() | manifest.keys()
                     if golden.get(name) != manifest.get(name))
    assert changed == []
    assert list(manifest) == list(golden)
