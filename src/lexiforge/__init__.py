"""lexiforge: build a dictionary from a lemma list with a text-generation
provider and evaluate any generated dictionary against a gold standard."""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    Dictionary,
    DictionaryEntry,
    PosCategory,
    PosTag,
    Sense,
    is_monosemous,
    normalize_lemma,
    vocabulary_join,
)
