"""Core value types: POS tags, senses, entries and dictionaries."""

from __future__ import annotations

import enum
import unicodedata
from dataclasses import dataclass, field

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


class Gender(enum.Enum):
    MASCULINE = "masculine"
    FEMININE = "feminine"


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
    gender: Gender | None = None

    def __post_init__(self):
        if self.gender is not None and self.category is not PosCategory.NOUN:
            raise ValueError(f"gender only applies to nouns, not {self.category.value}")

    @classmethod
    def from_label(cls, raw_label: str) -> "PosTag":
        """Classify a Spanish POS label ("Nombre masculino", "Verbo", ...).

        Unknown labels map to OTHER. Gender is read from the words
        "masculino" / "femenino" and only kept for nouns.
        """
        words = raw_label.strip().casefold().split()
        category = _LABEL_CATEGORIES.get(words[0], PosCategory.OTHER) if words else PosCategory.OTHER
        gender = None
        if category is PosCategory.NOUN:
            if "masculino" in words:
                gender = Gender.MASCULINE
            elif "femenino" in words:
                gender = Gender.FEMININE
        return cls(category=category, raw_label=raw_label.strip(), gender=gender)


@dataclass(frozen=True, slots=True)
class Sense:
    """One numbered sense: a definition plus an optional example sentence."""

    definition: str
    example: str | None = None
    ordinal: int = 1

    def __post_init__(self):
        if not self.definition or self.definition != self.definition.strip():
            raise ValueError(f"definition must be non-empty and trimmed: {self.definition!r}")
        if self.ordinal < 1:
            raise ValueError(f"ordinal must be >= 1, got {self.ordinal}")


@dataclass(frozen=True, slots=True)
class DictionaryEntry:
    lemma: str
    pos: PosTag
    senses: tuple[Sense, ...]

    def __post_init__(self):
        if self.lemma != normalize_lemma(self.lemma):
            raise ValueError(f"lemma is not normalized: {self.lemma!r}")
        if not self.senses:
            raise ValueError(f"entry {self.lemma!r} has no senses")
        ordinals = [s.ordinal for s in self.senses]
        if ordinals != list(range(1, len(self.senses) + 1)):
            raise ValueError(f"entry {self.lemma!r} sense ordinals must be 1..n, got {ordinals}")

    @property
    def key(self) -> tuple[str, PosCategory]:
        return (self.lemma, self.pos.category)


def is_monosemous(entry: DictionaryEntry) -> bool:
    return len(entry.senses) == 1


@dataclass
class Dictionary:
    """Entries keyed by (lemma, POS category); single-writer during build."""

    name: str = "dictionary"
    _entries: dict[tuple[str, PosCategory], DictionaryEntry] = field(default_factory=dict)
    # the keys in entries() order, sorted on first use after an add
    _sorted_keys: list[tuple[str, PosCategory]] | None = field(default=None, init=False, repr=False, compare=False)

    def add(self, entry: DictionaryEntry) -> None:
        if entry.key in self._entries:
            raise DuplicateKeyError(f"duplicate key {entry.key!r} in {self.name!r}")
        self._entries[entry.key] = entry
        self._sorted_keys = None

    def get(self, lemma: str, category: PosCategory) -> DictionaryEntry | None:
        return self._entries.get((lemma, category))

    def keys(self) -> set[tuple[str, PosCategory]]:
        return set(self._entries)

    def entries(self) -> list[DictionaryEntry]:
        """Entries sorted by (lemma, category) for deterministic iteration."""
        if self._sorted_keys is None:
            self._sorted_keys = sorted(self._entries, key=_key_sort)
        return [self._entries[k] for k in self._sorted_keys]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple[str, PosCategory]) -> bool:
        return key in self._entries


def _key_sort(key: tuple[str, PosCategory]) -> tuple[str, str]:
    return (key[0], key[1].value)


def vocabulary_join(generated: Dictionary, gold: Dictionary) -> list[tuple[DictionaryEntry, DictionaryEntry]]:
    """(generated, gold) entry pairs of the keys present in both, sorted by (lemma, category).

    Evaluation is restricted to exactly these pairs, so entries missing on
    either side never influence any statistic.
    """
    shared = sorted(generated._entries.keys() & gold._entries.keys(), key=_key_sort)
    return [(generated._entries[key], gold._entries[key]) for key in shared]
