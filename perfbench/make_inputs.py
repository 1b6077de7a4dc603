"""Generate a workload's input files and its draw-log oracle.

    PYTHONPATH=src python3 perfbench/make_inputs.py WORKLOAD SEED

writes the inputs and ``oracle.json`` into the current directory. The
benchmark runs this in a child process, so the generator's memory (about
150 MB at the largest size) is returned before measuring starts and the
benchmark's own process never imports the program.
"""

from __future__ import annotations

import csv
import json
import random
import sys

from eventnouns import cues, data

# The fixed corpus of the ROADMAP baseline: 2,000 lemmas, about 244k tokens.
SYNTH = {"occurrences": (20, 40), "noise": 0.05}
CORPUS_LEMMAS = 2000
# evaluate-wide: enough lemmas that evaluate, train and classify take a few
# seconds together, so several operations fit in one run
EVAL_LEMMAS = 4000
# extract-es-long joins 4 to 8 generator sentences (6 on average) into one;
# the PUNCT token between them stops matches that would cross a join
JOIN = (4, 8)
SEPARATOR = ".\t.\tPUNCT"


def _synth(seed: int, language: str, lemmas: int) -> data.SynthCorpus:
    params = data.SynthParams(n_event=lemmas // 2, n_non_event=lemmas // 2,
                              seed=seed, **SYNTH)
    return data.generate_synthetic_corpus(params, language=language)


def _oracle(result: data.SynthCorpus, tokens: int, sentences: int) -> dict:
    counts, totals = data.draw_log_counts(result.draw_log)
    return {"gold": dict(result.gold.entries), "counts": counts, "totals": totals,
            "tokens": tokens, "sentences": sentences}


def _write_corpus(result: data.SynthCorpus, text: str, sentences: int) -> dict:
    with open("corpus.tsv", "w", encoding="utf-8") as fh:
        fh.write(text)
    data.write_gold_csv(result.gold, "gold.csv")
    tokens = sum(1 for line in text.splitlines() if line)
    return _oracle(result, tokens, sentences)


def en_short(seed: int) -> dict:
    result = _synth(seed, "EN", CORPUS_LEMMAS)
    return _write_corpus(result, result.corpus_text, len(result.draw_log))


def es_long(seed: int) -> dict:
    result = _synth(seed, "ES", CORPUS_LEMMAS)
    blocks = result.corpus_text.rstrip("\n").split("\n\n")
    rng = random.Random(f"{seed}:join")
    rng.shuffle(blocks)
    joined = []
    start = 0
    while start < len(blocks):
        end = start + rng.randint(*JOIN)
        joined.append(f"\n{SEPARATOR}\n".join(blocks[start:end]))
        start = end
    return _write_corpus(result, "\n\n".join(joined) + "\n", len(joined))


def evaluate_wide(seed: int) -> dict:
    """A labeled dataset written straight from the draw log: no matching."""
    result = _synth(seed, "EN", EVAL_LEMMAS)
    oracle = _oracle(result, 0, 0)
    cue_ids = cues.builtin_cue_set("EN").cue_ids
    with open("dataset.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lemma", "total", *cue_ids, "label"])
        for lemma, label in sorted(oracle["gold"].items()):
            hits = oracle["counts"].get(lemma, {})
            writer.writerow([lemma, oracle["totals"].get(lemma, 0),
                             *(hits.get(c, 0) for c in cue_ids), label])
    return oracle


GENERATORS = {"extract-en-short": en_short, "extract-es-long": es_long,
              "evaluate-wide": evaluate_wide}


def main(argv: list[str]) -> int:
    workload, seed = argv
    oracle = GENERATORS[workload](int(seed))
    with open("oracle.json", "w", encoding="utf-8") as fh:
        json.dump(oracle, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
