"""Core value types: POS tags, senses, entries and dictionaries."""

from __future__ import annotations

import enum
import unicodedata
from dataclasses import dataclass
from typing import Iterable

from .exceptions import DuplicateKeyError, EmptyLemmaError


class PosCategory(enum.Enum):
    NOUN = "noun"
    ADJECTIVE = "adjective"
    VERB = "verb"
    ADVERB = "adverb"
    OTHER = "other"

    # members are singletons compared by identity, so they can hash by it
    # too, in C, instead of hashing their name in Python; every dictionary
    # key holds one
    __hash__ = object.__hash__


#: Spanish surface labels mapped to categories; matched case-insensitively
#: on the first word of the label.
_LABEL_CATEGORIES = {
    "nombre": PosCategory.NOUN,
    "sustantivo": PosCategory.NOUN,
    "adjetivo": PosCategory.ADJECTIVE,
    "verbo": PosCategory.VERB,
    "adverbio": PosCategory.ADVERB,
}


def normalize_lemma(raw: str) -> str:
    """Canonical lemma key: trimmed, NFC-composed, case-folded.

    A final NFC pass keeps the result composed even for the rare code
    points whose case folding decomposes, which makes the function
    idempotent. Diacritics are never stripped ("aquí" stays "aquí").
    """
    trimmed = raw.strip()
    if not trimmed:
        raise EmptyLemmaError(f"lemma is empty after trimming: {raw!r}")
    folded = unicodedata.normalize("NFC", trimmed).casefold()
    return unicodedata.normalize("NFC", folded)


@dataclass(frozen=True, slots=True)
class PosTag:
    """A part-of-speech tag with its source label preserved verbatim.

    Frozen, so the parsers share one tag among every entry of a label.
    """

    category: PosCategory
    raw_label: str

    @classmethod
    def from_label(cls, raw_label: str) -> "PosTag":
        """Classify a Spanish POS label ("Nombre masculino", "Verbo", ...).

        Unknown labels map to OTHER.
        """
        words = raw_label.strip().casefold().split()
        category = _LABEL_CATEGORIES.get(words[0], PosCategory.OTHER) if words else PosCategory.OTHER
        return cls(category=category, raw_label=raw_label.strip())


@dataclass(frozen=True, slots=True)
class Sense:
    """A trimmed, non-blank definition plus an optional example; a sense's number is its 1-based position in its entry."""

    definition: str
    example: str | None = None


@dataclass(frozen=True, slots=True)
class DictionaryEntry:
    """A normalised lemma's senses, at least one, under one POS tag.

    Entries and senses check nothing: their producers, ``ingestion.parse_dictionary``
    and ``generation.parse_model_response``, build only entries that hold this.
    """

    lemma: str
    pos: PosTag
    senses: tuple[Sense, ...]

    @property
    def key(self) -> tuple[str, PosCategory]:
        return (self.lemma, self.pos.category)


def is_monosemous(entry: DictionaryEntry) -> bool:
    return len(entry.senses) == 1


def _order(entry: DictionaryEntry) -> tuple[str, str]:
    return (entry.lemma, entry.pos.category.value)


class Dictionary:
    """Entries keyed by (lemma, POS category), built once and kept in (lemma, category value) order."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable[DictionaryEntry]):
        ordered = sorted(entries, key=_order)
        self._entries = {entry.key: entry for entry in ordered}
        if len(self._entries) < len(ordered):
            # a key's entries sort equal, so they are neighbours
            repeated = next(a for a, b in zip(ordered, ordered[1:]) if a.key == b.key)
            raise DuplicateKeyError(f"duplicate key {_order(repeated)!r}")

    def get(self, lemma: str, category: PosCategory) -> DictionaryEntry | None:
        return self._entries.get((lemma, category))

    def entries(self) -> list[DictionaryEntry]:
        """Entries in (lemma, category value) order."""
        return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple[str, PosCategory]) -> bool:
        return key in self._entries


def vocabulary_join(generated: Dictionary, gold: Dictionary) -> list[tuple[DictionaryEntry, DictionaryEntry]]:
    """(generated, gold) entry pairs of the keys present in both, in the generated side's key order.

    Evaluation is restricted to exactly these pairs, so entries missing on
    either side never influence any statistic.
    """
    gold_entries = gold._entries
    return [(entry, gold_entries[key]) for key, entry in generated._entries.items() if key in gold_entries]
