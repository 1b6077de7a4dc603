"""eventnouns: corpus-driven detection of non-deverbal event nouns.

The pipeline reads POS-tagged corpora, matches shallow lexico-syntactic cue
patterns around nouns, aggregates the hits into per-lemma count vectors,
trains a pruned decision tree on a labeled gold standard, and filters the
resulting lexicon by prediction confidence.

The package root exports the library API the README documents; everything
else lives in its module (``eventnouns.cues``, ``eventnouns.dtree``, ...).
"""

# each export of the root and its module, imported on first access, so that
# a command compiles only the modules it runs
_EXPORTS = {
    "attach_labels": "features",
    "builtin_cue_set": "cues",
    "cross_validate": "evaluation",
    "english_gold": "gold",
    "extract_features": "features",
    "precision_curve": "evaluation",
    "read_tagged_file": "corpus",
    "TreeParams": "dtree",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
