from eventnouns.corpus import Sentence, TaggedToken


def tok(surface: str, tag: str, lemma: str | None = None) -> TaggedToken:
    return TaggedToken(surface, lemma if lemma is not None else surface.lower(), tag)


def sent(*specs) -> Sentence:
    """Build a sentence from (surface, tag) or (surface, tag, lemma) tuples."""
    return Sentence(tuple(tok(*spec) for spec in specs))
