"""Core value types: POS tags, senses, entries and dictionaries."""

from __future__ import annotations

import bisect
import enum
import itertools
import unicodedata
from dataclasses import dataclass
from typing import Iterable, Sequence, TypeVar

import numpy as np

from .exceptions import DuplicateKeyError, EmptyLemmaError

T = TypeVar("T")


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


#: The categories by code: a ``Dictionary``'s ``categories`` column holds
#: each entry's position here. They come in value order, so keys sort by
#: (lemma, code) exactly as by (lemma, category value).
CATEGORIES = tuple(sorted(PosCategory, key=lambda category: category.value))
#: ``CATEGORIES``' values by code, the category names the outputs write.
CATEGORY_VALUES = tuple(category.value for category in CATEGORIES)
CATEGORY_CODES = {category: code for code, category in enumerate(CATEGORIES)}


def _order(entry: DictionaryEntry) -> tuple[str, str]:
    return (entry.lemma, entry.pos.category.value)


def take(items: Sequence[T], rows: np.ndarray) -> list[T]:
    """``items[row]`` for each row of *rows*, in order."""
    return list(map(items.__getitem__, rows.tolist()))


def csr_offsets(counts: Sequence[int] | np.ndarray) -> np.ndarray:
    """The n + 1 CSR offsets of n items that own *counts* rows each."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def csr_rows(offsets: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The rows of items *index* of a CSR offsets array, item after item.

    Item i owns rows ``offsets[i]`` to ``offsets[i + 1]``: the senses of a
    dictionary's entry, say, or the per-gold scores of a join pair.
    """
    starts = offsets[index]
    counts = offsets[index + 1] - starts
    ends = np.cumsum(counts)
    return np.arange(int(ends[-1]) if ends.size else 0) + np.repeat(starts - ends + counts, counts)


class Dictionary:
    """Entries keyed by (lemma, POS category), stored as columns in (lemma, category value) order.

    The columns follow the Apache Arrow columnar layout, with CSR-style
    sense offsets; entry i is row i of each entry column:

    - ``lemmas``: a list of normalised lemmas;
    - ``categories``: an int8 array of ``CATEGORIES`` codes;
    - ``tag_ids``: an int32 array, each entry's position in ``tags``, the
      tuple of the distinct POS tags (raw label and category);
    - ``sense_offsets``: an int64 array of n + 1 values. Entry i's senses
      are rows ``sense_offsets[i]`` to ``sense_offsets[i + 1]`` of
      ``definitions`` and ``examples``, two flat lists.

    A dictionary is built once and never changed: ``Dictionary(entries)``
    or ``ingestion.parse_dictionary``. ``DictionaryEntry`` and ``Sense``
    objects are built on demand, by ``entry``, ``entries`` and ``get``.
    """

    __slots__ = ("lemmas", "categories", "tag_ids", "tags", "sense_offsets", "definitions", "examples")

    def __init__(self, entries: Iterable[DictionaryEntry]):
        ordered = sorted(entries, key=_order)
        # a key's entries sort equal, so a repeated key is a pair of neighbours
        repeated = next((a for a, b in zip(ordered, ordered[1:]) if a.key == b.key), None)
        if repeated is not None:
            raise DuplicateKeyError(f"duplicate key {_order(repeated)!r}")
        tags: dict[PosTag, int] = {}
        self._fill(
            [entry.lemma for entry in ordered],
            np.array([CATEGORY_CODES[entry.pos.category] for entry in ordered], dtype=np.int8),
            np.array([tags.setdefault(entry.pos, len(tags)) for entry in ordered], dtype=np.int32),
            tuple(tags),
            csr_offsets([len(entry.senses) for entry in ordered]),
            [sense.definition for entry in ordered for sense in entry.senses],
            [sense.example for entry in ordered for sense in entry.senses],
        )

    def _fill(self, lemmas, categories, tag_ids, tags, sense_offsets, definitions, examples) -> None:
        self.lemmas: list[str] = lemmas
        self.categories: np.ndarray = categories
        self.tag_ids: np.ndarray = tag_ids
        self.tags: tuple[PosTag, ...] = tags
        self.sense_offsets: np.ndarray = sense_offsets
        self.definitions: list[str] = definitions
        self.examples: list[str | None] = examples

    @classmethod
    def from_columns(cls, lemmas, categories, tag_ids, tags, sense_offsets, definitions, examples) -> "Dictionary":
        """A dictionary of columns that already hold what the class states; nothing is checked.

        The columns' producer checks them: ``ingestion.parse_dictionary``,
        or ``block`` of a dictionary.
        """
        dictionary = cls.__new__(cls)
        dictionary._fill(lemmas, categories, tag_ids, tags, sense_offsets, definitions, examples)
        return dictionary

    def block(self, start: int, stop: int) -> "Dictionary":
        """Entries *start* to *stop* as a dictionary of their own; entry *start* is its entry 0."""
        stop = min(stop, len(self.lemmas))
        first, last = self.sense_offsets[start], self.sense_offsets[stop]
        return Dictionary.from_columns(
            self.lemmas[start:stop],
            self.categories[start:stop],
            self.tag_ids[start:stop],
            self.tags,
            self.sense_offsets[start : stop + 1] - first,
            self.definitions[first:last],
            self.examples[first:last],
        )

    @property
    def sense_counts(self) -> np.ndarray:
        return np.diff(self.sense_offsets)

    def entry(self, index: int) -> DictionaryEntry:
        """Entry *index*, in key order."""
        start, end = self.sense_offsets[index : index + 2].tolist()
        senses = tuple(map(Sense, self.definitions[start:end], self.examples[start:end]))
        return DictionaryEntry(self.lemmas[index], self.tags[self.tag_ids[index]], senses)

    def entries(self) -> list[DictionaryEntry]:
        """Entries in (lemma, category value) order."""
        offsets = self.sense_offsets.tolist()
        senses = list(map(Sense, self.definitions, self.examples))
        return [
            DictionaryEntry(lemma, self.tags[tag_id], tuple(senses[start:end]))
            for lemma, tag_id, start, end in zip(self.lemmas, self.tag_ids.tolist(), offsets, offsets[1:])
        ]

    def run(self, lemma: str) -> range:
        """The indices of *lemma*'s entries, in key order: a lemma's entries are one run of the sorted lemma column."""
        return range(bisect.bisect_left(self.lemmas, lemma), bisect.bisect_right(self.lemmas, lemma))

    def find(self, lemma: str, category: PosCategory) -> int | None:
        """The index of the entry of key (*lemma*, *category*), or None."""
        code = CATEGORY_CODES[category]
        return next((index for index in self.run(lemma) if self.categories[index] == code), None)

    def get(self, lemma: str, category: PosCategory) -> DictionaryEntry | None:
        index = self.find(lemma, category)
        return None if index is None else self.entry(index)

    def __len__(self) -> int:
        return len(self.lemmas)

    def __contains__(self, key: tuple[str, PosCategory]) -> bool:
        return self.find(*key) is not None


def key_codes(lemmas: Sequence[str], categories: np.ndarray, ranks: dict[str, int]) -> np.ndarray:
    """Each (lemma, category code) key as one int64, ordered as the keys: the lemma's rank in *ranks*, then the code.

    A lemma missing from *ranks* gets rank -1.
    """
    lemma_ranks = np.fromiter(map(ranks.get, lemmas, itertools.repeat(-1)), dtype=np.int64, count=len(lemmas))
    return lemma_ranks * len(CATEGORIES) + categories


def vocabulary_join(generated: Dictionary, gold: Dictionary) -> tuple[np.ndarray, np.ndarray]:
    """Entry indices (generated, gold) of the keys present in both, in key order.

    Evaluation is restricted to exactly these pairs, so entries missing on
    either side never influence any statistic. Both sides' keys become
    int64 codes ranked by the gold's distinct lemmas, so the gold codes
    are sorted and one ``searchsorted`` finds each generated key's match.
    """
    if not len(gold):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    ranks = {lemma: rank for rank, lemma in enumerate(dict.fromkeys(gold.lemmas))}
    gold_codes = key_codes(gold.lemmas, gold.categories, ranks)
    gen_codes = key_codes(generated.lemmas, generated.categories, ranks)  # negative where the gold lacks the lemma
    found = np.minimum(np.searchsorted(gold_codes, gen_codes), len(gold) - 1)
    shared = gold_codes[found] == gen_codes
    return np.flatnonzero(shared), found[shared]
