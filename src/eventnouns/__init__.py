"""eventnouns: corpus-driven detection of non-deverbal event nouns.

The pipeline reads POS-tagged corpora, matches shallow lexico-syntactic cue
patterns around nouns, aggregates the hits into per-lemma count vectors,
trains a pruned decision tree on a labeled gold standard, and filters the
resulting lexicon by prediction confidence.
"""

from .corpus import (
    CorpusParseError,
    Sentence,
    TaggedToken,
    parse_tagged_corpus,
    read_tagged_file,
    serialize_corpus,
)
from .cues import (
    CueHit,
    CueRule,
    CueSet,
    TARGET_FIRST_NOUN,
    TARGET_LAST_NOUN,
    TokenConstraint,
    builtin_cue_set,
    load_cue_set,
    match_sentence,
    read_cue_file,
)
from .data import (
    GoldStandard,
    SynthCorpus,
    SynthParams,
    english_gold,
    generate_synthetic_corpus,
    load_gold,
    spanish_sample_gold,
)
from .dtree import (
    LabeledExample,
    Prediction,
    TreeNode,
    TreeParams,
    best_split,
    classify,
    entropy,
    pessimistic_upper_bound,
    train,
)
from .evaluation import (
    CurvePoint,
    EvalReport,
    cross_validate,
    filter_by_confidence,
    precision_curve,
    stratified_folds,
)
from .features import (
    Dataset,
    EVENT,
    FeatureVector,
    NON_EVENT,
    attach_labels,
    extract_features,
    read_dataset_csv,
    to_relative,
    write_dataset_csv,
)

__version__ = "0.1.0"
