"""Replay one CLI command with a span around each call into a layer.

    PYTHONPATH=src python3 perfbench/replay.py SPANS_FILE COMMAND [ARGS...]

COMMAND and ARGS are a CLI command line (``extract``, ``evaluate``,
``train`` or ``classify``), or ``setup LANG``, which loads the built-in cue
set the way the first call in a fresh process does. A replay follows the
CLI's glue in ``eventnouns.cli`` call for call, through public functions
only, and writes the same output files. The benchmark starts it as it
starts the CLI, in a fresh child, so the child's wall time holds
interpreter start-up and imports too. Spans stay in memory; when the work
is done they are written to SPANS_FILE as JSON, with the counts the
benchmark checks. A span named ``bench.*`` is the replay's own
bookkeeping, not the program's work.
"""

from __future__ import annotations

import json
import os
import sys
import time

from eventnouns import cli, corpus, cues, data, dtree, evaluation, features

from tracer import Tracer

EVAL_FILES = ("report.txt", "predictions.csv", "curve.csv", "confusion.csv",
              "accepted.csv", "to_review.csv")


def load_builtin_cues(language: str) -> cues.CueSet:
    """Load the built-in rules without ``builtin_cue_set``'s cache, as a
    fresh process does."""
    loader = getattr(cues.builtin_cue_set, "__wrapped__", cues.builtin_cue_set)
    return loader(language)


def _tree_params(args) -> dtree.TreeParams:
    return dtree.TreeParams(min_leaf=args.min_leaf, confidence_factor=args.cf,
                            pruning=not args.no_prune,
                            laplace_confidence=args.laplace)


def replay_setup(tracer: Tracer, argv: list[str]) -> dict[str, int]:
    with tracer.span("pipeline"):
        with tracer.span("cues.load"):
            load_builtin_cues(argv[1])
    return {}


def replay_extract(tracer: Tracer, argv: list[str]) -> dict[str, int]:
    """Each ``match_sentence`` call that ``extract_features`` makes is
    timed, so that matching and aggregation split one interval."""
    matched = []  # (seconds, hits) of each match_sentence call
    match_sentence = features.match_sentence

    def timed_match(*args, **kwargs):
        start = time.perf_counter()
        hits = match_sentence(*args, **kwargs)
        matched.append((time.perf_counter() - start, hits))
        return hits

    with tracer.span("pipeline"):
        with tracer.span("cli.args"):
            args = cli.build_parser().parse_args(argv)
        policy = cues.TARGET_LAST_NOUN if args.last_noun else cues.TARGET_FIRST_NOUN
        with tracer.span("cues.load"):
            cue_set = load_builtin_cues(args.lang)
        with tracer.span("data.load_gold"):
            gold = data.load_gold(args.gold, language=args.lang)
        with tracer.span("corpus.parse"):
            sentences = list(corpus.read_tagged_file(args.corpus[0]))
        features.match_sentence = timed_match
        try:
            with tracer.span("features.extract") as extract:
                dataset = features.extract_features(sentences, cue_set, list(gold.entries),
                                                    target_policy=policy)
        finally:
            features.match_sentence = match_sentence
        with tracer.span("features.attach_labels"):
            dataset = features.attach_labels(dataset, gold.entries)
        with tracer.span("features.csv_write"):
            features.write_dataset_csv(dataset, args.out)
    if sentences and not matched:
        raise RuntimeError("extract_features made no match_sentence call to time")
    extract["match_s"] = sum(seconds for seconds, _ in matched)
    with tracer.span("bench.counts"):
        hits = [hit for _, sentence_hits in matched for hit in sentence_hits]
        return {
            "corpus.sentences": len(sentences),
            "corpus.tokens": sum(len(s) for s in sentences),
            "cues.hits": len(hits),
            "cues.target_hits": sum(hit.lemma in gold.entries for hit in hits),
        }


def replay_evaluate(tracer: Tracer, argv: list[str]) -> dict[str, int]:
    with tracer.span("pipeline"):
        with tracer.span("cli.args"):
            args = cli.build_parser().parse_args(argv)
        with tracer.span("features.csv_read"):
            dataset = features.read_dataset_csv(args.dataset)
        with tracer.span("evaluation.cv"):
            report = evaluation.cross_validate(dataset, _tree_params(args),
                                               k=args.k, seed=args.seed)
        with tracer.span("evaluation.report"):
            curve = evaluation.precision_curve(report.predictions)
            accepted, to_review = evaluation.filter_by_confidence(
                report.predictions, args.threshold)
            os.makedirs(args.out, exist_ok=True)
            path = {name: os.path.join(args.out, name) for name in EVAL_FILES}
            with open(path["report.txt"], "w", encoding="utf-8") as fh:
                fh.write(evaluation.format_report(report, args.k))
            evaluation.write_predictions_csv(report.predictions, path["predictions.csv"])
            evaluation.write_curve_csv(curve, path["curve.csv"])
            evaluation.write_confusion_csv(report.confusion, path["confusion.csv"])
            evaluation.write_predictions_csv(accepted, path["accepted.csv"])
            evaluation.write_predictions_csv(to_review, path["to_review.csv"])
    return {}


def replay_train(tracer: Tracer, argv: list[str]) -> dict[str, int]:
    with tracer.span("pipeline"):
        with tracer.span("cli.args"):
            args = cli.build_parser().parse_args(argv)
        with tracer.span("features.csv_read"):
            dataset = features.read_dataset_csv(args.dataset)
        params = _tree_params(args)
        with tracer.span("dtree.train"):
            examples = [dtree.LabeledExample(v, dataset.labels[v.lemma])
                        for v in dataset.vectors]
            tree = dtree.train(examples, params)
        with tracer.span("dtree.model_io"):
            dtree.save_model(tree, args.out, cue_ids=dataset.cue_ids, params=params,
                             language=args.lang or "")
            dtree.format_tree(tree, dataset.cue_ids)
    return {"dtree.nodes": dtree.count_nodes(tree), "dtree.depth": dtree.tree_depth(tree)}


def replay_classify(tracer: Tracer, argv: list[str]) -> dict[str, int]:
    with tracer.span("pipeline"):
        with tracer.span("cli.args"):
            args = cli.build_parser().parse_args(argv)
        with tracer.span("dtree.model_io"):
            model, _, params, _ = dtree.load_model(args.model)
        with tracer.span("features.csv_read"):
            dataset = features.read_dataset_csv(args.dataset)
        with tracer.span("dtree.classify"):
            predictions = [dtree.classify(model, v, laplace=params.laplace_confidence)
                           for v in dataset.vectors]
        with tracer.span("evaluation.report"):
            evaluation.write_lexicon_csv(predictions, args.out)
    return {}


REPLAYS = {"setup": replay_setup, "extract": replay_extract, "evaluate": replay_evaluate,
           "train": replay_train, "classify": replay_classify}


def main(argv: list[str]) -> int:
    spans_file, *command = argv
    tracer = Tracer()
    counts = REPLAYS[command[0]](tracer, command)
    with open(spans_file, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": counts}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
