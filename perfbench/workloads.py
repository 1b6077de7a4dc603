"""The benchmark's workloads: the commands of one operation and the checks
of their outputs.

Inputs come from ``make_inputs.py``; every command runs from the run's
working directory, so all paths here are relative. This module does not
import the program: the benchmark's own process stays small.
"""

from __future__ import annotations

import csv
import json
import os
import re
from collections import Counter
from dataclasses import dataclass

THRESHOLD = 0.8
EVENT, NON_EVENT = "EVENT", "NON_EVENT"


@dataclass(frozen=True)
class Inputs:
    """The draw-log oracle of the generated inputs."""

    gold: dict[str, str]
    counts: dict[str, dict[str, int]]   # cue hits per lemma
    totals: dict[str, int]              # noun occurrences per lemma
    tokens: int
    sentences: int

    @classmethod
    def load(cls, path: str) -> Inputs:
        with open(path, encoding="utf-8") as fh:
            return cls(**json.load(fh))

    @property
    def lemmas(self) -> int:
        return len(self.gold)

    @property
    def target_hits(self) -> int:
        return sum(sum(c.values()) for c in self.counts.values())


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "extract" or "evaluate"
    language: str
    flags: tuple[str, ...] = ()

    def commands(self, seed: int, out: str) -> list[list[str]]:
        """CLI argument lists of one operation, writing below ``out``."""
        if self.kind == "extract":
            return [["extract", *self.flags, "--corpus", "corpus.tsv",
                     "--gold", "gold.csv", "--out", os.path.join(out, "dataset.csv")]]
        model = os.path.join(out, "model.json")
        return [
            ["evaluate", "--dataset", "dataset.csv", "--seed", str(seed),
             "--threshold", str(THRESHOLD), "--out", os.path.join(out, "eval")],
            ["train", "--dataset", "dataset.csv", "--out", model],
            ["classify", "--model", model, "--dataset", "dataset.csv",
             "--out", os.path.join(out, "lexicon.csv")],
        ]

    def check(self, inputs: Inputs, out: str, stdouts: list[str]) -> list[str]:
        if self.kind == "extract":
            return _check_extract(inputs, out)
        return _check_evaluate(inputs, out, stdouts)

    def expected_counts(self, inputs: Inputs, stdouts: list[str]) -> dict[str, int]:
        """Counts the traced replay must reproduce exactly."""
        if self.kind == "extract":
            return {"corpus.tokens": inputs.tokens, "corpus.sentences": inputs.sentences,
                    "cues.target_hits": inputs.target_hits}
        nodes = re.search(r" (\d+) nodes", stdouts[1])
        return {"dtree.nodes": int(nodes.group(1)) if nodes else -1}


WORKLOADS = {w.name: w for w in (
    Workload("extract-en-short", "extract", "EN", ("--lang", "EN")),
    Workload("extract-es-long", "extract", "ES", ("--lang", "ES", "--last-noun")),
    Workload("evaluate-wide", "evaluate", "EN"),
)}


def _rows(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _check_extract(inputs: Inputs, out: str) -> list[str]:
    """The dataset must equal the draw-log oracle: every count and total."""
    header, *body = _rows(os.path.join(out, "dataset.csv"))
    if header[:2] != ["lemma", "total"] or header[-1] != "label":
        return [f"bad dataset header {header!r}"]
    cue_ids = header[2:-1]
    errors = []
    unknown = {c for hits in inputs.counts.values() for c in hits} - set(cue_ids)
    if unknown:
        errors.append(f"dataset lacks cue columns {sorted(unknown)}")
    rows = {row[0]: row for row in body}
    if len(rows) != len(body) or rows.keys() != inputs.gold.keys():
        errors.append("dataset lemmas differ from the gold lemmas")
    mismatched = 0
    for lemma, label in inputs.gold.items():
        hits = inputs.counts.get(lemma, {})
        expected = [lemma, str(inputs.totals.get(lemma, 0)),
                    *(str(hits.get(c, 0)) for c in cue_ids), label]
        mismatched += rows.get(lemma) != expected
    if mismatched:
        errors.append(f"{mismatched} of {inputs.lemmas} lemmas differ "
                      "from the draw-log oracle")
    return errors


def _leaf(node: dict, vector: list[int]) -> dict:
    while "attribute" in node:
        branch = "left" if vector[node["attribute"]] <= node["threshold"] else "right"
        node = node[branch]
    return node


def _tree_nodes(node: dict) -> int:
    if "attribute" not in node:
        return 1
    return 1 + _tree_nodes(node["left"]) + _tree_nodes(node["right"])


def _check_evaluate(inputs: Inputs, out: str, stdouts: list[str]) -> list[str]:
    """Recompute every evaluate file from predictions.csv, and the lexicon
    by walking the saved model, independently of the program."""
    errors = []
    report_dir = os.path.join(out, "eval")
    header, *predictions = _rows(os.path.join(report_dir, "predictions.csv"))
    if header != ["lemma", "gold", "predicted", "confidence"]:
        return [f"bad predictions header {header!r}"]
    if [p[:2] for p in predictions] != [list(kv) for kv in sorted(inputs.gold.items())]:
        errors.append("predictions do not list each lemma once with its gold label")
    for name, keep in (("accepted.csv", lambda c: c >= THRESHOLD),
                       ("to_review.csv", lambda c: c < THRESHOLD)):
        expected = [p for p in predictions if keep(float(p[3]))]
        if _rows(os.path.join(report_dir, name))[1:] != expected:
            errors.append(f"{name} is not the confidence split of the predictions")
    labels = sorted({p[1] for p in predictions} | {p[2] for p in predictions})
    tally = Counter((p[1], p[2]) for p in predictions)
    confusion = [["gold\\predicted", *labels]] + [
        [g, *(str(tally[g, p]) for p in labels)] for g in labels]
    if _rows(os.path.join(report_dir, "confusion.csv")) != confusion:
        errors.append("confusion.csv does not tally the predictions")
    curve = [["threshold", "precision", "retained"]]
    positives = [p for p in predictions if p[2] == EVENT]
    for i in range(21):
        kept = [p for p in positives if float(p[3]) >= i / 20]
        precision = str(sum(p[1] == EVENT for p in kept) / len(kept)) if kept else "NA"
        curve.append([str(i / 20), precision, str(len(kept))])
    if _rows(os.path.join(report_dir, "curve.csv")) != curve:
        errors.append("curve.csv is not the precision curve of the predictions")
    accuracy = sum(p[1] == p[2] for p in predictions) / max(len(predictions), 1)
    with open(os.path.join(report_dir, "report.txt"), encoding="utf-8") as fh:
        if f"mean accuracy: {accuracy:.4f}\n" not in fh.read():
            errors.append("report.txt mean accuracy differs from the predictions")

    with open(os.path.join(out, "model.json"), encoding="utf-8") as fh:
        model = json.load(fh)
    if f" {_tree_nodes(model['tree'])} nodes" not in stdouts[1]:
        errors.append("train reported another node count than the saved model")
    lexicon = []
    for lemma in inputs.gold:
        hits = inputs.counts.get(lemma, {})
        counts = _leaf(model["tree"], [hits.get(c, 0) for c in model["cue_ids"]])["counts"]
        top = max(counts.values())
        winners = [label for label, c in counts.items() if c == top]
        predicted = NON_EVENT if NON_EVENT in winners else min(winners)
        lexicon.append([lemma, predicted, str(top / sum(counts.values()))])
    lexicon.sort(key=lambda row: (-float(row[2]), row[0]))
    if _rows(os.path.join(out, "lexicon.csv")) != [["lemma", "predicted", "confidence"],
                                                  *lexicon]:
        errors.append("lexicon.csv differs from walking the saved model")
    return errors
