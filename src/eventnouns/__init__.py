"""eventnouns: corpus-driven detection of non-deverbal event nouns.

The pipeline reads POS-tagged corpora, matches shallow lexico-syntactic cue
patterns around nouns, aggregates the hits into per-lemma count vectors,
trains a pruned decision tree on a labeled gold standard, and filters the
resulting lexicon by prediction confidence.

The package root exports the library API the README documents; everything
else lives in its module (``eventnouns.cues``, ``eventnouns.dtree``, ...).
"""

from .corpus import read_tagged_file
from .cues import builtin_cue_set
from .dtree import TreeParams
from .evaluation import cross_validate, precision_curve
from .features import attach_labels, extract_features
from .gold import english_gold

__all__ = [
    "attach_labels",
    "builtin_cue_set",
    "cross_validate",
    "english_gold",
    "extract_features",
    "precision_curve",
    "read_tagged_file",
    "TreeParams",
]

__version__ = "0.1.0"
