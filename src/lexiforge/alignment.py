"""Match generated senses against gold senses by cosine similarity.

Every (generated, gold) pair of the vocabulary join yields one
AlignmentRecord: the cosine of the generated definition against each gold
sense. The record derives the rest from those scores: the best-matching
gold sense index (ties break toward the lowest index, mirroring
frequency-first gold ordering), its score and the mean over all gold
senses. The pairs that share a gold sense count are scored together, one
stacked matmul per chunk of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Sequence

from .embedding import VectorTable
from .ingestion import write_records
from .model import DictionaryEntry, PosCategory


@dataclass(frozen=True, slots=True)
class AlignmentRecord:
    """The cosine of one generated definition against each gold sense, in gold order.

    The gold sense count, the best-matching gold sense, its score and the
    mean over gold senses are read from ``per_gold_scores``, never stored.
    """

    lemma: str
    category: PosCategory
    gen_sense_count: int
    per_gold_scores: tuple[float, ...]

    def __post_init__(self):
        if not self.per_gold_scores:
            raise ValueError(f"{self.lemma!r}: no per-gold scores")

    @property
    def gold_sense_count(self) -> int:
        return len(self.per_gold_scores)

    @property
    def best_gold_index(self) -> int:
        """1-based index of the first maximum, so ties go to the lowest index."""
        return self.per_gold_scores.index(max(self.per_gold_scores)) + 1

    @property
    def best_score(self) -> float:
        return max(self.per_gold_scores)

    @property
    def mean_over_gold(self) -> float:
        return sum(self.per_gold_scores) / len(self.per_gold_scores)


#: Join pairs of one gold sense count scored per stacked matmul in
#: ``align_dictionaries``. A chunk gathers 64 KB of gold rows per gold
#: sense at 512 dimensions, small enough to stay in the CPU cache. On the
#: 5k perfbench fixture (2 vCPU), ``align_dictionaries`` took about 34 ms
#: in chunks of 16 to 64 pairs, 54 ms in chunks of 8, 59-66 ms in whole
#: groups and 74 ms one pair at a time; chunks of 64 raised eval-det-5k's
#: peak RSS by 0.5 MB over chunks of 16.
ALIGN_CHUNK = 16


def align_dictionaries(
    pairs: Sequence[tuple[DictionaryEntry, DictionaryEntry]], vectors: VectorTable
) -> list[AlignmentRecord]:
    """One record per (generated, gold) pair of the vocabulary join, in pair order.

    Each record holds the pair's lemma, category, generated sense count and
    per-gold scores. Generated sense 1 is scored against every gold sense,
    in gold order; polysemous generated entries are aligned by their first
    sense, and the full cross-product lives in :func:`all_pairs_scores`.
    ``vectors`` must hold the definitions of every entry in *pairs*.

    The pairs whose gold entries hold k senses are scored ``ALIGN_CHUNK``
    at a time: their gold rows as an (n, k, d) stack times their generated
    rows as (n, d, 1). Each of the n products is the (k, d) @ (d,) product
    of one pair on its own, for which numpy calls the same BLAS routine, so
    every score is bit-identical to scoring the pair alone.
    """
    groups: dict[int, list[int]] = {}
    for i, (_, gold_entry) in enumerate(pairs):
        groups.setdefault(len(gold_entry.senses), []).append(i)
    pair_scores: list[list[float]] = [[] for _ in pairs]
    for k, group in groups.items():
        for start in range(0, len(group), ALIGN_CHUNK):
            members = group[start : start + ALIGN_CHUNK]
            gen_rows = vectors.rows([pairs[i][0].senses[0].definition for i in members])
            gold_rows = vectors.rows([s.definition for i in members for s in pairs[i][1].senses])
            stacked = gold_rows.reshape(len(members), k, gold_rows.shape[1]) @ gen_rows[:, :, None]
            for i, scores in zip(members, stacked[:, :, 0].tolist()):
                pair_scores[i] = scores
    return [
        AlignmentRecord(gen.lemma, gen.pos.category, len(gen.senses), tuple(scores))
        for (gen, _), scores in zip(pairs, pair_scores)
    ]


def all_pairs_scores(gen: DictionaryEntry, gold: DictionaryEntry, vectors: VectorTable) -> list[list[float]]:
    """Cosine matrix rows = generated senses, columns = gold senses, of one join pair.

    Inspection aid for polysemous generated entries; no table depends on it.
    """
    gen_rows = vectors.rows([s.definition for s in gen.senses])
    gold_rows = vectors.rows([s.definition for s in gold.senses])
    return (gen_rows @ gold_rows.T).tolist()


def rank_histogram(records: Iterable[AlignmentRecord]) -> dict[int, int]:
    """Count of best-matching gold sense indices over gold-polysemous records."""
    counts: dict[int, int] = {}
    for record in records:
        if record.gold_sense_count > 1:
            counts[record.best_gold_index] = counts.get(record.best_gold_index, 0) + 1
    return dict(sorted(counts.items()))


def write_alignments(records: Iterable[AlignmentRecord], stream: IO[str]) -> int:
    objects = (
        {
            "lemma": r.lemma,
            "category": r.category.value,
            "gen_sense_count": r.gen_sense_count,
            "gold_sense_count": r.gold_sense_count,
            "best_gold_index": r.best_gold_index,
            "best_score": r.best_score,
            "mean_over_gold": r.mean_over_gold,
            "per_gold_scores": list(r.per_gold_scores),
        }
        for r in records
    )
    return write_records(objects, stream)
