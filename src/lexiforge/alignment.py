"""Match generated senses against gold senses by cosine similarity.

Every (generated, gold) pair of the vocabulary join yields one AlignmentRecord: the cosine of the generated
definition against each gold sense, the best-matching gold sense index
(ties break toward the lowest index, mirroring frequency-first gold
ordering) and the mean over all gold senses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

from .embedding import VectorTable
from .model import DictionaryEntry, PosCategory, Sense


@dataclass(frozen=True)
class AlignmentRecord:
    lemma: str
    category: PosCategory
    gen_sense_count: int
    gold_sense_count: int
    best_gold_index: int  # 1-based
    best_score: float
    mean_over_gold: float
    per_gold_scores: tuple[float, ...]

    def __post_init__(self):
        if len(self.per_gold_scores) != self.gold_sense_count or self.gold_sense_count < 1:
            raise ValueError(
                f"{self.lemma!r}: expected {self.gold_sense_count} scores, got {len(self.per_gold_scores)}"
            )
        if not 1 <= self.best_gold_index <= self.gold_sense_count:
            raise ValueError(f"{self.lemma!r}: best_gold_index {self.best_gold_index} out of range")
        if self.best_score != max(self.per_gold_scores):
            raise ValueError(f"{self.lemma!r}: best_score is not the maximum per-gold score")
        if self.mean_over_gold != sum(self.per_gold_scores) / len(self.per_gold_scores):
            raise ValueError(f"{self.lemma!r}: mean_over_gold does not match per-gold scores")


def sense_text(sense: Sense, include_examples: bool = False) -> str:
    if include_examples and sense.example:
        return f"{sense.definition} {sense.example}"
    return sense.definition


def align_dictionaries(
    pairs: Sequence[tuple[DictionaryEntry, DictionaryEntry]],
    vectors: VectorTable,
    include_examples: bool = False,
) -> list[AlignmentRecord]:
    """One record per (generated, gold) pair of the vocabulary join, in pair order.

    Generated sense 1 is scored against every gold sense, in gold order;
    polysemous generated entries are aligned by their first sense, and the
    full cross-product lives in :func:`all_pairs_scores`. ``vectors`` must
    hold the sense texts of every entry in *pairs*.
    """
    records = []
    for gen, gold_entry in pairs:
        rows = vectors.rows([sense_text(s, include_examples) for s in (gen.senses[0], *gold_entry.senses)])
        scores = (rows[1:] @ rows[0]).tolist()
        best_index = scores.index(max(scores))  # the first maximum, so ties go to the lowest index
        records.append(
            AlignmentRecord(
                lemma=gen.lemma,
                category=gen.pos.category,
                gen_sense_count=len(gen.senses),
                gold_sense_count=len(gold_entry.senses),
                best_gold_index=best_index + 1,
                best_score=scores[best_index],
                mean_over_gold=sum(scores) / len(scores),
                per_gold_scores=tuple(scores),
            )
        )
    return records


def all_pairs_scores(
    gen: DictionaryEntry, gold: DictionaryEntry, vectors: VectorTable, include_examples: bool = False
) -> list[list[float]]:
    """Cosine matrix rows = generated senses, columns = gold senses, of one join pair.

    Inspection aid for polysemous generated entries; no table depends on it.
    """
    gen_rows = vectors.rows([sense_text(s, include_examples) for s in gen.senses])
    gold_rows = vectors.rows([sense_text(s, include_examples) for s in gold.senses])
    return (gen_rows @ gold_rows.T).tolist()


def rank_histogram(records: Iterable[AlignmentRecord]) -> dict[int, int]:
    """Count of best-matching gold sense indices over gold-polysemous records."""
    counts: dict[int, int] = {}
    for record in records:
        if record.gold_sense_count > 1:
            counts[record.best_gold_index] = counts.get(record.best_gold_index, 0) + 1
    return dict(sorted(counts.items()))


def write_alignments(records: Iterable[AlignmentRecord], stream: IO[str]) -> int:
    written = 0
    for r in records:
        obj = {
            "lemma": r.lemma,
            "category": r.category.value,
            "gen_sense_count": r.gen_sense_count,
            "gold_sense_count": r.gold_sense_count,
            "best_gold_index": r.best_gold_index,
            "best_score": r.best_score,
            "mean_over_gold": r.mean_over_gold,
            "per_gold_scores": list(r.per_gold_scores),
        }
        line = json.dumps(obj, ensure_ascii=False) + "\n"
        stream.write(line)
        written += len(line.encode("utf-8"))
    return written

