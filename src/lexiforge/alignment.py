"""Match generated senses against gold senses by cosine similarity.

``align_dictionaries`` scores one key block's join pairs as arrays: the
cosine of each pair's generated definition against each gold sense, and
from those scores the best-matching gold sense index (ties break toward
the lowest index, mirroring frequency-first gold ordering), its score and
the mean over all gold senses. The pairs that share a gold sense count are
scored together, one stacked matmul per chunk of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .embedding import VectorTable
from .ingestion import write_records
from .model import CATEGORY_VALUES, Dictionary, csr_offsets, csr_rows, take


@dataclass(frozen=True, eq=False)
class BlockAlignment:
    """The alignment of a run of join pairs, one array element per pair, in pair order.

    Pair i joins entry ``gen_index[i]`` of *generated* with entry
    ``gold_index[i]`` of the gold dictionary. Its per-gold scores, in gold
    order, are ``scores[offsets[i] : offsets[i + 1]]``. ``best_gold_index``
    is 1-based and names the first maximum of those scores, ``best_score``
    is that maximum and ``mean_over_gold`` their mean.
    """

    generated: Dictionary
    gen_index: np.ndarray
    gold_index: np.ndarray
    gen_sense_count: np.ndarray
    scores: np.ndarray
    offsets: np.ndarray
    best_gold_index: np.ndarray
    best_score: np.ndarray
    mean_over_gold: np.ndarray

    @property
    def gold_sense_count(self) -> np.ndarray:
        return np.diff(self.offsets)


#: Join pairs of one gold sense count scored per stacked matmul in
#: ``align_dictionaries``. A chunk gathers 64 KB of gold rows per gold
#: sense at 512 dimensions, small enough to stay in the CPU cache. On the
#: 5k perfbench fixture (2 vCPU), ``align_dictionaries`` took about 34 ms
#: in chunks of 16 to 64 pairs, 54 ms in chunks of 8, 59-66 ms in whole
#: groups and 74 ms one pair at a time; chunks of 64 raised eval-det-5k's
#: peak RSS by 0.5 MB over chunks of 16.
ALIGN_CHUNK = 16


def align_dictionaries(
    generated: Dictionary, gold: Dictionary, join: tuple[np.ndarray, np.ndarray], vectors: VectorTable
) -> BlockAlignment:
    """The alignment of the join pairs *join*, (generated, gold) entry indices, as arrays in pair order.

    Generated sense 1 is scored against every gold sense, in gold order;
    polysemous generated entries are aligned by their first sense, and the
    full cross-product lives in :func:`all_pairs_scores`. ``vectors`` must
    hold the definitions of every entry of the pairs.

    Each text's table row is looked up once (``VectorTable.indices``). The
    pairs whose gold entries hold k senses are scored ``ALIGN_CHUNK`` at a
    time: their gold rows, gathered by index as an (n, k, d) stack, times
    their generated rows as (n, d, 1). Each of the n products is the
    (k, d) @ (d,) product of one pair on its own, for which numpy calls the
    same BLAS routine, so every score is bit-identical to scoring the pair
    alone. A group's
    first maximum comes from ``argmax``, and its mean from ``np.cumsum``,
    which adds left to right as Python's ``sum`` does.
    """
    gen_index, gold_index = join
    gen_firsts = generated.sense_offsets[gen_index]
    gold_firsts = gold.sense_offsets[gold_index]
    gold_counts = gold.sense_offsets[gold_index + 1] - gold_firsts
    offsets = csr_offsets(gold_counts)
    # the table rows of each pair's first generated sense, and of its gold senses laid out as the scores
    gen_rows = vectors.indices(take(generated.definitions, gen_firsts))
    gold_rows = vectors.indices(take(gold.definitions, csr_rows(gold.sense_offsets, gold_index)))
    scores = np.empty(int(offsets[-1]))
    best = np.empty(len(gold_index), dtype=np.int64)  # 0-based here
    mean = np.empty(len(gold_index))
    for k in set(gold_counts.tolist()):
        members = np.flatnonzero(gold_counts == k)
        gen_members = gen_rows[members]
        gold_members = gold_rows[offsets[members, None] + np.arange(k)]
        group = np.empty((members.size, k))
        for start in range(0, members.size, ALIGN_CHUNK):
            stop = min(start + ALIGN_CHUNK, members.size)
            stacked = vectors.matrix[gold_members[start:stop]] @ vectors.matrix[gen_members[start:stop]][:, :, None]
            group[start:stop] = stacked[:, :, 0]
        best[members] = group.argmax(axis=1)
        mean[members] = np.cumsum(group, axis=1)[:, -1] / k
        scores[offsets[members, None] + np.arange(k)] = group
    if not np.isfinite(scores).all():
        raise ValueError("an alignment score is not finite")
    return BlockAlignment(
        generated=generated,
        gen_index=gen_index,
        gold_index=gold_index,
        gen_sense_count=generated.sense_offsets[gen_index + 1] - gen_firsts,
        scores=scores,
        offsets=offsets,
        best_gold_index=best + 1,
        best_score=scores[offsets[:-1] + best],
        mean_over_gold=mean,
    )


def all_pairs_scores(
    gen_definitions: Sequence[str], gold_definitions: Sequence[str], vectors: VectorTable
) -> list[list[float]]:
    """Cosine matrix rows = generated senses, columns = gold senses, of one join pair's definitions.

    Inspection aid for polysemous generated entries; no table depends on it.
    """
    gen_rows, gold_rows = vectors.indices(gen_definitions), vectors.indices(gold_definitions)
    return (vectors.matrix[gen_rows] @ vectors.matrix[gold_rows].T).tolist()


def rank_histogram(alignment: BlockAlignment) -> dict[int, int]:
    """Count of best-matching gold sense indices over the generated-monosemous, gold-polysemous pairs."""
    rows = (alignment.gen_sense_count == 1) & (alignment.gold_sense_count > 1)
    counts = np.bincount(alignment.best_gold_index[rows])
    return {index: count for index, count in enumerate(counts.tolist()) if count}


def write_alignments(alignment: BlockAlignment, stream: IO[str]) -> int:
    """One line per pair, in pair order; returns the bytes written."""
    scores, offsets = alignment.scores.tolist(), alignment.offsets.tolist()
    generated = alignment.generated
    objects = (
        {
            "lemma": lemma,
            "category": CATEGORY_VALUES[code],
            "gen_sense_count": gen_count,
            "gold_sense_count": end - start,
            "best_gold_index": index,
            "best_score": best,
            "mean_over_gold": mean,
            "per_gold_scores": scores[start:end],
        }
        for lemma, code, gen_count, start, end, index, best, mean in zip(
            take(generated.lemmas, alignment.gen_index),
            generated.categories[alignment.gen_index].tolist(),
            alignment.gen_sense_count.tolist(),
            offsets,
            offsets[1:],
            alignment.best_gold_index.tolist(),
            alignment.best_score.tolist(),
            alignment.mean_over_gold.tolist(),
        )
    )
    return write_records(objects, stream)
