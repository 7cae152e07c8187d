"""Monosemy/polysemy confusion counts, classification metrics and the
cosine / definition-length statistics tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .alignment import AlignmentRecord
from .model import Dictionary, DictionaryEntry, PosCategory, is_monosemous

#: Fixed row order for rendered tables; "other" appears only when present.
GROUP_ORDER = ("all", "noun", "adjective", "verb", "adverb", "other")


@dataclass(frozen=True)
class ConfusionMatrix2x2:
    """Monosemy/polysemy counts; first component actual (gold), second
    predicted (generated). Marginals are derived, never stored."""

    mono_mono: int
    mono_poly: int
    poly_mono: int
    poly_poly: int

    def __post_init__(self):
        for name in ("mono_mono", "mono_poly", "poly_mono", "poly_poly"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def actual_mono(self) -> int:
        return self.mono_mono + self.mono_poly

    @property
    def actual_poly(self) -> int:
        return self.poly_mono + self.poly_poly

    @property
    def pred_mono(self) -> int:
        return self.mono_mono + self.poly_mono

    @property
    def pred_poly(self) -> int:
        return self.mono_poly + self.poly_poly

    @property
    def total(self) -> int:
        return self.actual_mono + self.actual_poly


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    degenerate: bool = False


@dataclass(frozen=True)
class StatsSummary:
    count: int
    mean: float
    std_dev: float  # population (divide by N)

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "StatsSummary":
        if not len(values):
            raise ValueError("cannot summarize an empty group")
        # sorting fixes the summation order, making the result bitwise
        # permutation-invariant in the input records
        arr = np.sort(np.asarray(values, dtype=np.float64))
        return cls(count=int(arr.size), mean=float(arr.mean()), std_dev=float(arr.std(ddof=0)))


def polysemy_confusion(pairs: Iterable[tuple[DictionaryEntry, DictionaryEntry]]) -> ConfusionMatrix2x2:
    """Classify every (generated, gold) join pair by monosemy on each side; cells sum to the pair count."""
    cells = {(True, True): 0, (True, False): 0, (False, True): 0, (False, False): 0}
    for gen, gold_entry in pairs:
        cells[(is_monosemous(gold_entry), is_monosemous(gen))] += 1
    return ConfusionMatrix2x2(
        mono_mono=cells[(True, True)],
        mono_poly=cells[(True, False)],
        poly_mono=cells[(False, True)],
        poly_poly=cells[(False, False)],
    )


def class_metrics(matrix: ConfusionMatrix2x2, positive_class: str) -> ClassMetrics:
    """Precision/recall/F1 for the chosen positive class.

    Computed with exact rational arithmetic on the integer cells; floats
    appear only in the returned values. Division-by-zero cases yield 0
    with the degenerate flag rather than raising.
    """
    if positive_class == "monosemy":
        tp, fp, fn = matrix.mono_mono, matrix.poly_mono, matrix.mono_poly
    elif positive_class == "polysemy":
        tp, fp, fn = matrix.poly_poly, matrix.mono_poly, matrix.poly_mono
    else:
        raise ValueError(f"positive_class must be 'monosemy' or 'polysemy', got {positive_class!r}")
    degenerate = False
    if tp + fp > 0:
        precision = Fraction(tp, tp + fp)
    else:
        precision, degenerate = Fraction(0), True
    if tp + fn > 0:
        recall = Fraction(tp, tp + fn)
    else:
        recall, degenerate = Fraction(0), True
    if precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1, degenerate = Fraction(0), True
    return ClassMetrics(float(precision), float(recall), float(f1), degenerate)


def _group_names(category: PosCategory) -> tuple[str, str]:
    return ("all", category.value)


def cosine_stats(
    records: Iterable[AlignmentRecord],
    score_field: str = "best_score",
    gold_filter: str = "monosemous",
) -> dict[str, StatsSummary]:
    """Mean/std of an alignment score field, grouped by POS plus "all".

    ``gold_filter`` selects records whose gold entry is monosemous or
    polysemous; groups with no records are absent from the result.
    """
    if score_field not in ("best_score", "mean_over_gold"):
        raise ValueError(f"unknown score field {score_field!r}")
    if gold_filter not in ("monosemous", "polysemous"):
        raise ValueError(f"gold_filter must be 'monosemous' or 'polysemous', got {gold_filter!r}")
    want_mono = gold_filter == "monosemous"
    values: dict[str, list[float]] = {}
    for record in records:
        if (record.gold_sense_count == 1) != want_mono:
            continue
        score = getattr(record, score_field)
        for group in _group_names(record.category):
            values.setdefault(group, []).append(score)
    return {group: StatsSummary.from_values(v) for group, v in values.items()}


@dataclass(frozen=True)
class LengthStats:
    words: StatsSummary
    characters: StatsSummary


def length_stats(dictionary: Dictionary) -> dict[str, LengthStats]:
    """Definition length statistics per POS group and overall.

    Lengths are measured per sense: words by whitespace splitting with no
    punctuation stripping, characters as Unicode scalar values of the
    trimmed definition. The groups are "all", then the categories in the
    order they first appear; an empty dictionary has none.
    """
    by_category: dict[PosCategory, tuple[list[int], list[int]]] = {}
    for entry in dictionary.entries():
        if entry.pos.category not in by_category:
            by_category[entry.pos.category] = ([], [])
        words, chars = by_category[entry.pos.category]
        for sense in entry.senses:
            words.append(len(sense.definition.split()))
            chars.append(len(sense.definition))
    if not by_category:
        return {}
    # from_values sorts, so "all" need not keep the entries' order
    every = (
        [n for group_words, _ in by_category.values() for n in group_words],
        [n for _, group_chars in by_category.values() for n in group_chars],
    )
    groups = {"all": every} | {category.value: lengths for category, lengths in by_category.items()}
    return {
        group: LengthStats(words=StatsSummary.from_values(words), characters=StatsSummary.from_values(chars))
        for group, (words, chars) in groups.items()
    }
