"""Command-line pipeline: synth, extract, train, classify, evaluate, curve.

Exit codes: 0 success, 1 data or pipeline error, 2 usage error. Every
command is deterministic given its flags (one seed drives all randomness),
so identical invocations produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import os
import sys

from . import features

EXIT_OK = 0
EXIT_PIPELINE = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _in_range(allowed: str, accepts) -> type[argparse.Action]:
    """An action for a numeric flag: it stores a value that ``accepts``
    takes and raises UsageError for any other, while the flags are parsed.
    Rules that tie two flags together stay with the code that uses them."""

    class InRange(argparse.Action):
        def __call__(self, parser, namespace, value, option_string=None):
            if not accepts(value):
                raise UsageError(f"{self.option_strings[0]} must be {allowed}, "
                                 f"got {value:g}")
            setattr(namespace, self.dest, value)

    return InRange


_AT_LEAST_ONE = _in_range(">= 1", lambda v: v >= 1)
_UNIT_INTERVAL = _in_range("in [0, 1]", lambda v: 0 <= v <= 1)


# evaluate flags that only shape extraction from a corpus, which --dataset skips
_EXTRACTION_FLAGS = ("corpus", "cues", "gold", "builtin_gold", "relative",
                     "last_noun", "lenient")


def _check_files(paths) -> None:
    for path in paths:
        if not os.path.exists(path):
            raise UsageError(f"no such file: {path}")


def _resolve_cue_set(args):
    from .cues import builtin_cue_set, read_cue_file

    if args.cues:
        _check_files([args.cues])
        return read_cue_file(args.cues, args.lang)
    return builtin_cue_set(args.lang)


def _resolve_gold(args):
    from .gold import english_gold, load_gold

    if args.builtin_gold:
        if args.lang != "EN":
            raise UsageError("--builtin-gold is only available for --lang EN")
        return english_gold()
    if args.gold:
        _check_files([args.gold])
        gold = load_gold(args.gold, language=args.lang)
        if not gold.entries:
            raise UsageError(f"{args.gold}: no lemmas found")
        return gold
    return None


def _read_lemma_list(path: str) -> list[str]:
    _check_files([path])
    lemmas = []
    with features.open_input(path) as fh:
        for line in fh:
            lemma = line.strip().lower()
            if lemma and not lemma.startswith("#"):
                lemmas.append(lemma)
    if not lemmas:
        raise UsageError(f"{path}: no lemmas found")
    return lemmas


def _extract_dataset(args, target_lemmas):
    # the corpus reader, the cue matcher and the part map are compiled only
    # for a corpus
    from .corpus import read_run, split_corpus
    from .parts import map_parts, workers

    cue_set = _resolve_cue_set(args)
    _check_files(args.corpus)
    policy = features.TARGET_LAST_NOUN if args.last_noun else features.TARGET_FIRST_NOUN

    def count(run):
        counts, totals = features.count_features(read_run(run, strict=not args.lenient),
                                                 cue_set, target_lemmas,
                                                 target_policy=policy)
        return counts, dict(totals)

    results = map_parts(count, split_corpus(args.corpus, workers()))
    counts, totals = results[0]
    for more_counts, more_totals in results[1:]:
        for lemma, row in more_counts.items():
            counts[lemma] = [a + b for a, b in zip(counts[lemma], row)]
        for lemma, n in more_totals.items():
            totals[lemma] = totals.get(lemma, 0) + n
    dataset = features.build_dataset(cue_set, counts, totals)
    if args.relative:
        dataset = features.to_relative(dataset)
    return dataset


def _read_labeled_dataset(path: str) -> features.Dataset:
    _check_files([path])
    dataset = features.read_dataset_csv(path)
    if dataset.labels is None:
        raise ValueError(f"{path}: dataset has no label column")
    return dataset


def _tree_params(args) -> dtree.TreeParams:
    from . import dtree

    return dtree.TreeParams(min_leaf=args.min_leaf,
                            confidence_factor=args.cf,
                            pruning=not args.no_prune,
                            laplace_confidence=args.laplace)


def _cmd_extract(args) -> int:
    gold = _resolve_gold(args)
    if gold is not None:
        targets = list(gold.entries)
    elif args.lemmas:
        targets = _read_lemma_list(args.lemmas)
    else:
        raise UsageError("need --builtin-gold, --gold FILE, or --lemmas FILE")
    dataset = _extract_dataset(args, targets)
    if gold is not None:
        dataset = features.attach_labels(dataset, gold.entries)
    features.write_dataset_csv(dataset, args.out)
    nonzero = sum(1 for v in dataset.vectors if not v.is_zero)
    print(f"lemmas: {len(dataset)}")
    print(f"nonzero vectors: {nonzero}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    from . import dtree

    dataset = _read_labeled_dataset(args.dataset)
    params = _tree_params(args)
    vectors = dataset.vectors
    # dtree.train's rows, without an example object per row
    index = dtree.ColumnIndex([v.counts for v in vectors],
                              [dataset.labels[v.lemma] for v in vectors])
    tree = dtree.train_rows(index, index.rows, params)
    dtree.save_model(tree, args.out, cue_ids=dataset.cue_ids, params=params,
                     language=args.lang)
    if args.tree_text:
        with open(args.tree_text, "w", encoding="utf-8") as fh:
            fh.write(dtree.format_tree(tree, dataset.cue_ids))
    print(f"trained on {len(vectors)} examples, "
          f"{dtree.count_nodes(tree)} nodes")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_classify(args) -> int:
    from . import dtree

    _check_files([args.model, args.dataset])
    tree, cue_ids, params, _ = dtree.load_model(args.model)
    dataset = features.read_dataset_csv(args.dataset)
    if dataset.cue_ids != cue_ids:
        raise ValueError(
            f"cue mismatch: model has {len(cue_ids)} cues ({', '.join(cue_ids)}), "
            f"dataset has {len(dataset.cue_ids)} ({', '.join(dataset.cue_ids)})")
    predictions = [dtree.classify(tree, v, laplace=params.laplace_confidence)
                   for v in dataset.vectors]
    dtree.write_lexicon_csv(predictions, args.out)
    print(f"classified {len(predictions)} lemmas")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    from . import evaluation

    if args.dataset:
        given = ["--" + dest.replace("_", "-") for dest in _EXTRACTION_FLAGS
                 if getattr(args, dest)]
        if given:
            raise UsageError(f"--dataset cannot be combined with {', '.join(given)}")
        dataset = _read_labeled_dataset(args.dataset)
    else:
        if not args.corpus:
            raise UsageError("need --dataset FILE or --corpus FILE ...")
        gold = _resolve_gold(args)
        if gold is None:
            raise UsageError("need --builtin-gold or --gold FILE")
        dataset = _extract_dataset(args, list(gold.entries))
        dataset = features.attach_labels(dataset, gold.entries)
    params = _tree_params(args)
    report = evaluation.cross_validate(dataset, params, k=args.k, seed=args.seed)
    curve = evaluation.precision_curve(report.predictions)
    accepted, to_review = evaluation.filter_by_confidence(
        report.predictions, args.threshold)

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(evaluation.format_report(report, args.k))
    evaluation.write_predictions_csv(
        report.predictions, os.path.join(args.out, "predictions.csv"))
    evaluation.write_curve_csv(curve, os.path.join(args.out, "curve.csv"))
    evaluation.write_confusion_csv(
        report.confusion, os.path.join(args.out, "confusion.csv"))
    evaluation.write_predictions_csv(
        accepted, os.path.join(args.out, "accepted.csv"))
    evaluation.write_predictions_csv(
        to_review, os.path.join(args.out, "to_review.csv"))
    print(f"mean accuracy: {report.mean_accuracy:.4f}")
    print(f"accepted at threshold {args.threshold:g}: "
          f"{len(accepted)} of {len(report.predictions)}")
    print(f"wrote report files to {args.out}")
    return EXIT_OK


def _cmd_curve(args) -> int:
    from . import evaluation

    _check_files([args.predictions])
    predictions = evaluation.read_predictions_csv(args.predictions)
    curve = evaluation.precision_curve(predictions)
    evaluation.write_curve_csv(curve, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    # the generator is compiled only for the command that runs it
    from . import data as data_mod
    from .gold import write_gold_csv

    silence_event = args.silence if args.silence_event is None else args.silence_event
    silence_non_event = (args.silence if args.silence_non_event is None
                         else args.silence_non_event)
    params = data_mod.SynthParams(
        n_event=args.n_event, n_non_event=args.n_non_event,
        p_event=args.p_event, p_non_event=args.p_non_event,
        occurrences=(args.occ_min, args.occ_max),
        silence_event=silence_event, silence_non_event=silence_non_event,
        noise=args.noise, seed=args.seed)
    result = data_mod.generate_synthetic_corpus(params, language=args.lang)
    os.makedirs(args.out, exist_ok=True)
    corpus_path = os.path.join(args.out, "corpus.tsv")
    with open(corpus_path, "w", encoding="utf-8") as fh:
        fh.write(result.corpus_text)
    write_gold_csv(result.gold, os.path.join(args.out, "gold.csv"))
    data_mod.write_draw_log_csv(result.draw_log,
                                os.path.join(args.out, "drawlog.csv"))
    print(f"lemmas: {len(result.gold)}")
    print(f"sentences: {len(result.draw_log)}")
    print(f"wrote corpus to {args.out}")
    return EXIT_OK


def _add_corpus_options(parser, *, corpus_required):
    """Add the extraction flags; returns the group of exclusive target sources."""
    parser.add_argument("--lang", default="EN", type=str.upper, choices=["EN", "ES"],
                        help="language of the built-in cue set (default EN)")
    parser.add_argument("--corpus", action="append", default=[],
                        required=corpus_required, metavar="FILE",
                        help="tagged corpus file; repeatable")
    parser.add_argument("--cues", metavar="FILE",
                        help="cue rule file (default: built-in set for --lang)")
    targets = parser.add_mutually_exclusive_group()
    targets.add_argument("--gold", metavar="FILE", help="gold standard CSV")
    targets.add_argument("--builtin-gold", action="store_true",
                         help="use the built-in English gold standard")
    parser.add_argument("--lenient", action="store_true",
                        help="skip malformed corpus lines instead of failing")
    parser.add_argument("--relative", action="store_true",
                        help="divide counts by lemma occurrence totals")
    parser.add_argument("--last-noun", action="store_true",
                        help="bind the last noun of a compound instead of the first")
    return targets


def _add_tree_options(parser):
    parser.add_argument("--min-leaf", type=int, default=2, action=_AT_LEAST_ONE,
                        help="minimum examples per split side (default 2)")
    parser.add_argument("--cf", type=float, default=0.25,
                        # 1 - cf, which pruning reads, must round below 1 too
                        action=_in_range("in (0, 1)", lambda v: 0 < 1 - v < 1),
                        help="pruning confidence factor (default 0.25)")
    parser.add_argument("--no-prune", action="store_true",
                        help="disable pessimistic pruning")
    parser.add_argument("--laplace", action="store_true",
                        help="Laplace-smoothed leaf confidence")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eventnouns",
        description="Classify nouns as event vs non-event from tagged corpora.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract per-lemma cue count vectors")
    _add_corpus_options(p, corpus_required=True).add_argument(
        "--lemmas", metavar="FILE", help="plain lemma list for unlabeled extraction")
    p.add_argument("--out", default="dataset.csv", metavar="FILE")
    p.set_defaults(handler=_cmd_extract)

    p = sub.add_parser("train", help="train a decision tree on a labeled dataset")
    p.add_argument("--dataset", required=True, metavar="FILE")
    p.add_argument("--lang", default="", type=str.upper,
                   help="language tag stored in the model")
    _add_tree_options(p)
    p.add_argument("--out", default="model.json", metavar="FILE")
    p.add_argument("--tree-text", metavar="FILE",
                   help="also write a human-readable tree rendering")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("classify", help="apply a trained model to a dataset")
    p.add_argument("--model", required=True, metavar="FILE")
    p.add_argument("--dataset", required=True, metavar="FILE")
    p.add_argument("--out", default="lexicon.csv", metavar="FILE")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("evaluate",
                       help="cross-validate and write report, curve and lexicon files")
    p.add_argument("--dataset", metavar="FILE",
                   help="labeled dataset CSV (alternative to --corpus + gold)")
    _add_corpus_options(p, corpus_required=False)
    _add_tree_options(p)
    p.add_argument("--k", type=int, default=10, action=_in_range(">= 2", lambda v: v >= 2),
                   help="number of folds (default 10)")
    p.add_argument("--seed", type=int, required=True,
                   help="seed for fold assignment")
    p.add_argument("--threshold", type=float, default=0.8, action=_UNIT_INTERVAL,
                   help="confidence threshold for the accepted lexicon (default 0.8)")
    p.add_argument("--out", default=".", metavar="DIR")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("curve", help="precision curve from a predictions CSV")
    p.add_argument("--predictions", required=True, metavar="FILE")
    p.add_argument("--out", default="curve.csv", metavar="FILE")
    p.set_defaults(handler=_cmd_curve)

    p = sub.add_parser("synth", help="generate a synthetic tagged corpus")
    p.add_argument("--lang", default="EN", type=str.upper, choices=["EN", "ES"])
    p.add_argument("--n-event", type=int, default=100, action=_AT_LEAST_ONE)
    p.add_argument("--n-non-event", type=int, default=100, action=_AT_LEAST_ONE)
    p.add_argument("--p-event", type=float, default=0.4, action=_UNIT_INTERVAL)
    p.add_argument("--p-non-event", type=float, default=0.02, action=_UNIT_INTERVAL)
    p.add_argument("--occ-min", type=int, default=10, action=_AT_LEAST_ONE)
    p.add_argument("--occ-max", type=int, default=30, action=_AT_LEAST_ONE)
    p.add_argument("--silence", type=float, default=0.0, action=_UNIT_INTERVAL,
                   help="silent lemma fraction for both classes")
    p.add_argument("--silence-event", type=float, action=_UNIT_INTERVAL)
    p.add_argument("--silence-non-event", type=float, action=_UNIT_INTERVAL)
    p.add_argument("--noise", type=float, default=0.0, action=_UNIT_INTERVAL)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default="synth", metavar="DIR")
    p.set_defaults(handler=_cmd_synth)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # the summary is held until the command is done, so that a reader
        # gone by then fails no step of it
        with contextlib.redirect_stdout(io.StringIO()) as summary:
            code = args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError, OSError) as exc:
        kind = "corpus error" if _is_corpus_error(exc) else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    try:
        sys.stdout.write(summary.getvalue())
        sys.stdout.flush()
    except BrokenPipeError:
        # nothing reads the summary: send what is left of it nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def _is_corpus_error(exc: Exception) -> bool:
    # only a command that loaded the corpus reader can raise its error
    corpus = sys.modules.get(f"{__package__}.corpus")
    return corpus is not None and isinstance(exc, corpus.CorpusParseError)


def main_entry() -> None:
    # the objects the imports made live as long as the process: moved out of
    # the collector's generations, no collection during the command rescans them
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
