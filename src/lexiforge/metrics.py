"""Monosemy/polysemy confusion counts, classification metrics and the
cosine / definition-length statistics tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .alignment import BlockAlignment
from .model import CATEGORY_VALUES, Dictionary

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
        # permutation-invariant in the input values
        arr = np.sort(np.asarray(values, dtype=np.float64))
        return cls(count=int(arr.size), mean=float(arr.mean()), std_dev=float(arr.std(ddof=0)))


def polysemy_confusion(
    generated: Dictionary, gold: Dictionary, join: tuple[np.ndarray, np.ndarray]
) -> ConfusionMatrix2x2:
    """Classify every join pair (``vocabulary_join``'s entry indices) by monosemy on each side.

    The cells sum to the pair count.
    """
    gen_rows, gold_rows = join
    gen_mono = generated.sense_counts[gen_rows] == 1
    gold_mono = gold.sense_counts[gold_rows] == 1
    return ConfusionMatrix2x2(
        mono_mono=int(np.count_nonzero(gold_mono & gen_mono)),
        mono_poly=int(np.count_nonzero(gold_mono & ~gen_mono)),
        poly_mono=int(np.count_nonzero(~gold_mono & gen_mono)),
        poly_poly=int(np.count_nonzero(~gold_mono & ~gen_mono)),
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


def cosine_values(alignment: BlockAlignment) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """One block's share of the report's two cosine tables, per group.

    The first table takes the ``best_score`` of the generated-monosemous
    pairs whose gold entry is monosemous, the second the ``mean_over_gold``
    of those whose gold entry is polysemous. Each table's groups are "all",
    then each category in the order its first pair comes; groups with no
    pairs are absent.
    """
    gen_mono = alignment.gen_sense_count == 1
    gold_mono = alignment.gold_sense_count == 1
    categories = alignment.generated.categories[alignment.gen_index]
    tables = []
    for rows, scores in ((gold_mono, alignment.best_score), (~gold_mono, alignment.mean_over_gold)):
        values, groups = scores[gen_mono & rows], categories[gen_mono & rows]
        table = {"all": values} if values.size else {}
        for code in dict.fromkeys(groups.tolist()):
            table[CATEGORY_VALUES[code]] = values[groups == code]
        tables.append(table)
    return tables[0], tables[1]


def cosine_stats(
    blocks: Iterable[tuple[dict[str, np.ndarray], dict[str, np.ndarray]]]
) -> tuple[dict[str, StatsSummary], dict[str, StatsSummary]]:
    """The report's two cosine tables, mean/std per group, from the blocks' :func:`cosine_values`.

    A table's groups come in the order of their first block; groups with no
    values are absent.
    """
    merged: tuple[dict[str, list[np.ndarray]], dict[str, list[np.ndarray]]] = ({}, {})
    for block in blocks:
        for table, values in zip(merged, block):
            for group, scores in values.items():
                table.setdefault(group, []).append(scores)
    mono, poly = (
        {group: StatsSummary.from_values(np.concatenate(parts)) for group, parts in table.items()} for table in merged
    )
    return mono, poly


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
    definitions = dictionary.definitions
    if not definitions:
        return {}
    words = np.fromiter(map(len, map(str.split, definitions)), dtype=np.int64, count=len(definitions))
    chars = np.fromiter(map(len, definitions), dtype=np.int64, count=len(definitions))
    categories = np.repeat(dictionary.categories, dictionary.sense_counts)
    groups = {"all": slice(None)}
    for code in dict.fromkeys(dictionary.categories.tolist()):
        groups[CATEGORY_VALUES[code]] = categories == code
    return {
        group: LengthStats(StatsSummary.from_values(words[rows]), StatsSummary.from_values(chars[rows]))
        for group, rows in groups.items()
    }
