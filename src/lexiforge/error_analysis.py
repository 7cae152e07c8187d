"""Automated error taxonomy for a generated dictionary.

Flags low-similarity join pairs as hallucination candidates and
classifies entries with implementable heuristics: circular definitions,
common nouns defined as proper nouns, fabricated polysemy (near-duplicate
senses) and over-corrections (defining a closely spelled different word).
"""

from __future__ import annotations

import enum
import itertools
import math
import re
from contextlib import closing
from dataclasses import dataclass
from typing import IO, Iterable, NamedTuple, Sequence

import numpy as np

from . import _kernels
from .alignment import BlockAlignment, align_dictionaries
from .embedding import VectorTable, normalize_text, vector_tables
from .exceptions import ParseError
from .ingestion import BOOLEAN, STRING, STRING_OR_NULL, RecordKind, read_records, write_records
from .model import Dictionary, csr_rows, take

DEFAULT_PROPER_NOUN_PATTERNS = ("nombre propio", "en la mitología")
PROPER_NOUN_EVIDENCE = "definition matches a proper-noun pattern"
CIRCULARITY_EVIDENCE = "lemma occurs whole-word inside its own definition"


class ErrorCategory(enum.Enum):
    HALLUCINATION_CANDIDATE = "hallucination_candidate"
    CIRCULARITY = "circularity"
    PROPER_NOUN_AS_COMMON = "proper_noun_as_common"
    FABRICATED_POLYSEMY = "fabricated_polysemy"
    OVERCORRECTION = "overcorrection"
    REFUSAL = "refusal"


@dataclass(frozen=True)
class ErrorAnalysisConfig:
    hallucination_threshold: float = 0.1  # strict less-than
    overcorrection_max_edit_distance: int = 2
    overcorrection_similarity_floor: float = 0.5
    fabricated_polysemy_similarity: float = 0.9

    def __post_init__(self):
        for name in ("hallucination_threshold", "overcorrection_similarity_floor", "fabricated_polysemy_similarity"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.overcorrection_max_edit_distance < 0:
            raise ValueError("overcorrection_max_edit_distance must be >= 0")


@dataclass(frozen=True)
class ErrorFinding:
    lemma: str
    category: ErrorCategory
    evidence: str
    pos_label: str | None = None
    generated_definition: str | None = None
    gold_definition: str | None = None
    low_confidence: bool = False


def _cosine_text(score: float) -> str:
    """*score* to 4 places; a value that rounds to zero prints ``0.0000``, never ``-0.0000``."""
    return f"{round(score, 4) + 0.0:.4f}"


class Candidate(NamedTuple):
    """A join pair, by its two entry indices, whose best score falls strictly below the hallucination threshold."""

    gen_index: int
    gold_index: int
    best_gold_index: int
    best_score: float


def hallucination_candidates(alignment: BlockAlignment, config: ErrorAnalysisConfig | None = None) -> list[Candidate]:
    """The pairs of *alignment* whose best score falls strictly below the threshold, in pair order."""
    config = config or ErrorAnalysisConfig()
    rows = np.flatnonzero(alignment.best_score < config.hallucination_threshold)
    columns = (alignment.gen_index, alignment.gold_index, alignment.best_gold_index, alignment.best_score)
    return list(map(Candidate, *(column[rows].tolist() for column in columns)))


class _CaseFold(dict):
    """``str.translate`` table that folds each character to one character.

    ``c.lower()[0].upper()[0].lower()[0]`` sends every pair of characters
    that ``re.IGNORECASE`` treats as equal (ß and ẞ, ſ and s, the Kelvin
    sign and k, µ and μ, ς and σ, ...) to one character, and never changes
    a string's length. Entries are filled on first use: a table over every
    code point would cost more start-up time than the texts ever use.
    """

    def __missing__(self, code: int) -> str:
        folded = chr(code).lower()[0].upper()[0].lower()[0]
        self[code] = folded
        return folded


# a pure function's memo: what one caller adds, every caller would compute alike
_FOLD = _CaseFold()


_NON_ASCII = re.compile(r"[^\x00-\x7f]")


def _fold(text: str) -> str:
    """``text.translate(_FOLD)``, computed by ``str.lower`` once the few characters it folds otherwise are replaced.

    ``str.translate`` with a mapping looks every character up one at a
    time; ``str.lower`` runs in C, and agrees with ``_FOLD`` on every ASCII
    character and on nearly every other one (not on ſ, ς, µ or İ, say, nor
    on Σ, which it lowercases to ς at the end of a word).
    """
    for char in set(_NON_ASCII.findall(text)):
        if char == "Σ" or char.lower() != _FOLD[ord(char)]:
            text = text.replace(char, _FOLD[ord(char)])
    return text.lower()


def detect_circularity(lemma: str, definitions: Sequence[str]) -> bool:
    """True when the exact lemma occurs whole-word in any of its entry's *definitions*.

    Case-insensitive but diacritic-sensitive; morphological variants do
    not count ("limitar" inside a definition of "limitable" is fine).
    """
    pattern = re.compile(rf"(?<!\w){re.escape(lemma)}(?!\w)", re.IGNORECASE)
    return any(pattern.search(definition) for definition in definitions)


def detect_fabricated_polysemy(
    entries: Dictionary, vectors: VectorTable, config: ErrorAnalysisConfig | None = None
) -> dict[int, str]:
    """By entry index in *entries*, the evidence that two senses of an entry are the same meaning restated.

    A pair trips the detector when the normalized definitions are
    identical or their cosine reaches the configured similarity; an
    entry's first such pair, in (i, j) order, is the evidence. Monosemous
    entries have no pair. ``vectors`` must hold the definitions of every
    polysemous entry. The entries of one sense count n are scored
    together: their rows, gathered by index as an (m, n, d) stack, times
    its transpose.
    """
    config = config or ErrorAnalysisConfig()
    threshold = config.fabricated_polysemy_similarity
    counts = entries.sense_counts
    found = {}
    for n in dict.fromkeys(counts[counts > 1].tolist()):
        members = np.flatnonzero(counts == n)
        definitions = take(entries.definitions, (entries.sense_offsets[members, None] + np.arange(n)).ravel())
        rows = vectors.matrix[vectors.indices(definitions).reshape(len(members), n)]
        scores = rows @ rows.transpose(0, 2, 1)
        upper = np.triu_indices(n, 1)
        above = (scores[:, upper[0], upper[1]] >= threshold).any(axis=1).tolist()
        normalized = list(map(normalize_text, definitions))
        for m, position in enumerate(members.tolist()):
            texts = normalized[m * n : (m + 1) * n]
            if not above[m] and len(set(texts)) == n:
                continue  # no pair trips: only an entry with one needs the ordered search
            matrix = scores[m].tolist()
            for i, j in itertools.combinations(range(n), 2):
                if texts[i] == texts[j]:
                    found[position] = f"senses {i + 1} and {j + 1} are exact duplicates"
                    break
                if matrix[i][j] >= threshold:
                    found[position] = f"senses {i + 1} and {j + 1} cosine {_cosine_text(matrix[i][j])} >= {threshold}"
                    break
    return found


def findings_of_entries(
    entries: Dictionary, vectors: VectorTable, config: ErrorAnalysisConfig | None = None
) -> list[ErrorFinding]:
    """The circularity, proper-noun and fabricated-polysemy findings of generated entries.

    *entries* is a key block of the generated dictionary (``Dictionary.block``).
    Entries come in their order, and each entry's findings in that order.
    ``vectors`` must hold the definitions of every polysemous entry.

    The lemmas and definitions are case-folded by ``_fold`` as one joined
    string, sliced back at each text's end: ``_fold`` maps every character
    to one character on its own. Wherever ``detect_circularity``'s regex
    matches, the folded lemma is a substring of a folded definition: that
    is a superset pre-check (ﬀ folds to f and ẚ to a, which the regex
    keeps apart), and the regex decides for the entries that pass it. An
    entry is a proper noun when a definition, case-folded by
    ``str.casefold``, holds one of the patterns.
    """
    lemmas, definitions = entries.lemmas, entries.definitions
    offsets = entries.sense_offsets.tolist()
    owners = np.repeat(np.arange(len(lemmas)), entries.sense_counts).tolist()
    texts = lemmas + definitions
    joined = _fold("".join(texts))
    folded = [joined[start:end] for start, end in itertools.pairwise(itertools.accumulate(map(len, texts), initial=0))]
    passing = {position for position, text in zip(owners, folded[len(lemmas) :]) if folded[position] in text}
    circular = {p for p in passing if detect_circularity(lemmas[p], definitions[offsets[p] : offsets[p + 1]])}
    proper = {
        owner
        for owner, definition in zip(owners, map(str.casefold, definitions))
        if any(pattern in definition for pattern in DEFAULT_PROPER_NOUN_PATTERNS)
    }
    fabricated = detect_fabricated_polysemy(entries, vectors, config)
    labels = [tag.raw_label for tag in entries.tags]
    findings = []
    for position in sorted(circular | proper | fabricated.keys()):
        found = (
            (ErrorCategory.CIRCULARITY, position in circular, CIRCULARITY_EVIDENCE),
            (ErrorCategory.PROPER_NOUN_AS_COMMON, position in proper, PROPER_NOUN_EVIDENCE),
            (ErrorCategory.FABRICATED_POLYSEMY, position in fabricated, fabricated.get(position)),
        )
        findings += [
            ErrorFinding(
                lemma=lemmas[position],
                category=category,
                evidence=evidence,
                pos_label=labels[entries.tag_ids[position]],
                generated_definition=definitions[offsets[position]],
            )
            for category, flagged, evidence in found
            if flagged
        ]
    return findings


# multiplier of the variant hash: odd, so multiplying by it loses no bits mod 2**64
_VARIANT_BASE = np.uint64(0x100000001B3)


def _variant_hashes(codepoints: np.ndarray, max_deletions: int) -> np.ndarray:
    """Hashes of every deletion variant of each row of an (n, L) code-point matrix.

    Each row of the (n, V) result holds, one column per choice of up to
    ``max_deletions`` positions to delete, the polynomial hash (Horner's
    rule, wrapping mod 2**64) of the code points that choice keeps. A
    variant that several choices produce appears once per choice. The
    order of the columns is unspecified.

    The variants are built in place one position at a time: each variant
    of the prefix with k deletions is extended by the next code point, or
    deletes it and joins those with k + 1. The result is the transpose of
    a (V, n) array, so that each step works on whole contiguous rows.
    """
    rows, length = codepoints.shape
    values = codepoints.T.astype(np.uint64) + np.uint64(1)  # a leading U+0000 still moves the hash
    # the variants with k deletions fill rows first[k] on, filled[k] of them so far
    sizes = [math.comb(length, k) for k in range(min(max_deletions, length) + 1)]
    first = [sum(sizes[:k]) for k in range(len(sizes))]
    filled = [1] + [0] * (len(sizes) - 1)
    hashes = np.zeros((sum(sizes), rows), dtype=np.uint64)
    for i in range(length):
        for k in range(min(i + 1, len(sizes) - 1), -1, -1):  # level k - 1 still holds the shorter prefix
            kept = hashes[first[k] : first[k] + filled[k]]
            kept *= _VARIANT_BASE
            kept += values[i]
            if k:
                end = first[k] + filled[k]
                hashes[end : end + filled[k - 1]] = hashes[first[k - 1] : first[k - 1] + filled[k - 1]]
                filled[k] += filled[k - 1]
    return hashes.T


#: Gold lemmas of one length hashed per pass of the ``NeighborIndex`` build.
#: A pass holds GOLD_CHUNK × Σₖ₌₀ᵈ C(L, k) uint64 hashes, 1.3 MB for
#: lemmas of 12 code points at d = 2. At 77k keys, passes of 4,096 lemmas
#: peaked 5-11 MB higher, with no change in build time.
GOLD_CHUNK = 2048


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D array, which on first use imports ``numpy.ma`` (about 9 ms)."""
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _length_groups(lemmas: Iterable[str]) -> dict[int, list[str]]:
    groups: dict[int, list[str]] = {}
    for lemma in lemmas:
        groups.setdefault(len(lemma), []).append(lemma)
    return groups


def _group_variants(group: Sequence[str], length: int, max_deletions: int) -> np.ndarray:
    """``_variant_hashes`` of lemmas that all hold *length* code points, one row per lemma."""
    matrix = _kernels.codepoints("".join(group)).reshape(len(group), length)
    return _variant_hashes(matrix, max_deletions)


class NeighborIndex:
    """Gold neighbours of a fixed set of query lemmas within a bounded edit distance.

    Symmetric-delete scheme (W. Garbe, SymSpell): when two strings are
    within edit distance d, removing at most d code points from each
    leaves a common string, since an insertion on one side is a deletion
    on the other and a substitution is one deletion on each. That holds
    whichever side is indexed, so the index records the queries'
    variants with up to ``max_distance`` deletions and streams the gold
    lemmas past it; a gold lemma that shares a variant with a query is a
    candidate of that query. The build confirms every candidate pair at
    once with ``_kernels.levenshtein_many``, banded at ``max_distance``,
    and keeps the neighbours within it, so the result equals a scan of
    the whole vocabulary and ``neighbors`` only looks a query up.

    The index is keyed by lemma; ``classify_errors`` expands each
    neighbour lemma into its run of gold entries (``Dictionary.run``).

    Variants are ``_variant_hashes`` values; no variant string is ever
    built. The queries' hashes are one sorted uint64 array beside an
    int32 array of query ids. The gold lemmas are hashed one length and
    ``GOLD_CHUNK`` lemmas at a time, and a length more than
    ``max_distance`` from every query's length is skipped. A chunk's
    hashes are first looked up in a membership table indexed by their
    low bits, so only the few that hit it are searched for in the sorted
    array. A hash collision only adds a candidate that the exact
    distance rejects.

    Memory holds the queries' variants and their table, one chunk's
    variants and the candidate pairs, whatever the size of the gold
    dictionary; build time grows
    with the gold lemmas' variants, Σₖ₌₀ᵈ C(L, k) per lemma of length L
    (37 for L = 8, d = 2).
    """

    def __init__(self, gold: Dictionary, queries: Iterable[str], max_distance: int = 2):
        query_list = sorted(set(queries))
        query_ids = {query: query_id for query_id, query in enumerate(query_list)}
        hashes, ids = [np.empty(0, dtype=np.uint64)], [np.empty(0, dtype=np.int32)]
        for length, group in _length_groups(query_list).items():
            hashes.append(_group_variants(group, length, max_distance).ravel())
            members = np.array([query_ids[query] for query in group], dtype=np.int32)
            ids.append(np.repeat(members, hashes[-1].size // len(group)))
        hash_array = np.concatenate(hashes)
        order = np.argsort(hash_array)  # ids of one hash need no order: the pairs are de-duplicated
        query_hashes, query_variant_ids = hash_array[order], np.concatenate(ids)[order]
        # at least 16 slots per query hash, so about one gold variant in 16 that
        # no query shares passes the table
        mask = np.uint64((1 << (16 * query_hashes.size).bit_length()) - 1)
        table = np.zeros(int(mask) + 1, dtype=bool)
        table[query_hashes & mask] = True

        lemmas = dict.fromkeys(gold.lemmas)  # the distinct gold lemmas
        gold_count = max(len(lemmas), 1)
        gold_lemmas: list[str] = []  # in the order the chunks are hashed, indexed by gold id
        query_lengths = {len(query) for query in query_list}
        pairs = [np.empty(0, dtype=np.int64)]  # query id × gold_count + gold id
        for length, group in _length_groups(lemmas).items():
            if all(abs(length - other) > max_distance for other in query_lengths):
                continue
            for start in range(0, len(group), GOLD_CHUNK):
                chunk = group[start : start + GOLD_CHUNK]
                variants = _group_variants(chunk, length, max_distance)
                rows, columns = np.nonzero(table[variants & mask])
                found = variants[rows, columns]
                lows = np.searchsorted(query_hashes, found, side="left")
                counts = np.searchsorted(query_hashes, found, side="right") - lows
                # the sorted array's positions of every query variant of each hit's
                # hash: hit i's range lows[i] .. lows[i] + counts[i], laid end to end
                ends = np.cumsum(counts)
                positions = np.arange(counts.sum()) + np.repeat(lows - (ends - counts), counts)
                gold_ids = np.repeat(rows, counts) + len(gold_lemmas)
                pairs.append(_sorted_unique(query_variant_ids[positions] * np.int64(gold_count) + gold_ids))
                gold_lemmas += chunk
        pair_queries, pair_gold = np.divmod(_sorted_unique(np.concatenate(pairs)), gold_count)
        pair_lemmas = [query_list[query_id] for query_id in pair_queries.tolist()]
        others = [gold_lemmas[gold_id] for gold_id in pair_gold.tolist()]
        distances = _kernels.levenshtein_many(pair_lemmas, others, max_distance).tolist()
        # each query's different gold lemmas within max_distance, sorted by (distance, lemma)
        self._neighbors: dict[str, list[tuple[str, int]]] = {query: [] for query in query_list}
        for lemma, other, distance in zip(pair_lemmas, others, distances):
            if distance <= max_distance and other != lemma:
                self._neighbors[lemma].append((other, distance))
        for found in self._neighbors.values():
            found.sort(key=lambda pair: (pair[1], pair[0]))

    def neighbors(self, lemma: str) -> list[tuple[str, int]]:
        """Different gold lemmas within the index's max_distance of a query, sorted by (distance, lemma).

        Raises ValueError when *lemma* was not one of the queries.
        """
        if lemma not in self._neighbors:
            raise ValueError(f"{lemma!r} is not one of the index's queries")
        return list(self._neighbors[lemma])


def detect_overcorrection(
    generated: Dictionary,
    gold: Dictionary,
    join: tuple[np.ndarray, np.ndarray],
    distances: np.ndarray,
    vectors: VectorTable,
    config: ErrorAnalysisConfig | None = None,
) -> dict[int, ErrorFinding]:
    """By generated entry index, the closely spelled gold lemma whose definition a hallucination candidate matches.

    A high cosine against a nearby (but different) gold lemma suggests the
    generated definition belongs to that neighbor. *join* pairs each
    candidate, by its generated entry index, with every gold entry of its
    neighbours, in (distance, lemma, key) order, and ``distances[i]`` is
    pair i's edit distance; ``vectors`` holds the candidates' first
    definitions and every definition of those gold entries.

    The pairs are scored by :func:`align_dictionaries`, so every score is
    the one a candidate's first sense gets against that gold sense alone.
    A candidate's finding is its gold sense of the highest score at or
    above ``overcorrection_similarity_floor``; of equal scores, the first
    in pair and sense order wins, so the smaller distance, then the lemma
    and key that sort first. A candidate with no such sense has no finding.
    """
    config = config or ErrorAnalysisConfig()
    alignment = align_dictionaries(generated, gold, join, vectors)
    scores = alignment.scores
    pair = np.repeat(np.arange(len(distances)), alignment.gold_sense_count)  # the pair of each score
    kept = np.flatnonzero(scores >= config.overcorrection_similarity_floor)
    owners = join[0][pair[kept]]
    # by candidate, then highest score; lexsort is stable, so equal scores keep their order
    order = np.lexsort((-scores[kept], owners))
    best = kept[order][np.flatnonzero(np.diff(owners[order], prepend=-1))]
    senses = csr_rows(gold.sense_offsets, join[1])  # the gold definition of each score
    columns = (join[0][pair[best]], join[1][pair[best]], distances[pair[best]], scores[best], senses[best])
    found = {}
    for gen_index, gold_index, distance, score, sense in zip(*(column.tolist() for column in columns)):
        neighbor = f"gold neighbor '{gold.lemmas[gold_index]}' at edit distance {distance}"
        found[gen_index] = ErrorFinding(
            lemma=generated.lemmas[gen_index],
            category=ErrorCategory.OVERCORRECTION,
            evidence=f"{neighbor}, cosine {_cosine_text(score)}",
            pos_label=generated.tags[generated.tag_ids[gen_index]].raw_label,
            generated_definition=generated.definitions[generated.sense_offsets[gen_index]],
            gold_definition=gold.definitions[sense],
        )
    return found


#: Hallucination candidates whose over-correction texts share one
#: ``VectorTable`` in ``classify_errors``. At 77k keys (1,540 candidates),
#: blocks of 128 peaked 6-11 MB higher, one table for all of them about 60 MB.
CANDIDATE_BLOCK = 64


def classify_errors(
    generated: Dictionary,
    gold: Dictionary,
    candidates: Sequence[Candidate],
    embedder,
    config: ErrorAnalysisConfig | None = None,
) -> list[ErrorFinding]:
    """The hallucination and over-correction findings of the hallucination candidates.

    *candidates* are :func:`hallucination_candidates` of the alignment of
    *generated* against *gold*, and every finding is built from the two
    dictionaries' columns. Each candidate gets its hallucination finding,
    in their order, followed by its over-correction finding when
    :func:`detect_overcorrection` finds one.

    The over-correction search takes the candidates ``CANDIDATE_BLOCK`` at
    a time. A block's neighbour lemmas (``NeighborIndex.neighbors``) are
    expanded into their runs of gold entries (``Dictionary.run``), and the
    block gets a ``VectorTable`` (:func:`vector_tables`) of its candidates'
    and those entries' definitions, so memory holds one block's vectors
    however many candidates there are.

    Hallucination candidates whose best-matching gold definition has at
    most two words are marked low-confidence: terse synonym-style gold
    entries score low against full definitions that may well be correct.
    Over-derivation is not auto-detected; such entries surface here only
    as hallucination candidates.
    """
    config = config or ErrorAnalysisConfig()
    findings: list[ErrorFinding] = []
    lemmas = generated.lemmas
    max_distance = config.overcorrection_max_edit_distance
    index = NeighborIndex(gold, [lemmas[c.gen_index] for c in candidates], max_distance) if candidates else None

    def candidate_blocks():
        for start in range(0, len(candidates), CANDIDATE_BLOCK):
            block = candidates[start : start + CANDIDATE_BLOCK]
            pairs = [
                (c.gen_index, gold_index, distance)
                for c in block
                for other, distance in index.neighbors(lemmas[c.gen_index])
                for gold_index in gold.run(other)
            ]
            gen_index, gold_index, distances = np.array(pairs, dtype=np.int64).reshape(-1, 3).T
            yield block, (gen_index, gold_index), distances

    def texts_of(planned):
        block, (_, gold_index), _ = planned
        yield from take(generated.definitions, generated.sense_offsets[[c.gen_index for c in block]])
        yield from take(gold.definitions, csr_rows(gold.sense_offsets, gold_index))

    with closing(vector_tables(embedder, candidate_blocks(), texts_of)) as tables:
        for (block, join, distances), vectors in tables:
            overcorrections = detect_overcorrection(generated, gold, join, distances, vectors, config)
            del vectors  # before the next block's table is filled, so at most one is alive
            for c in block:
                gold_best = gold.definitions[gold.sense_offsets[c.gold_index] + c.best_gold_index - 1]
                low_confidence = len(gold_best.split()) <= 2
                evidence = f"best cosine {_cosine_text(c.best_score)} < {config.hallucination_threshold}"
                findings.append(
                    ErrorFinding(
                        lemma=lemmas[c.gen_index],
                        category=ErrorCategory.HALLUCINATION_CANDIDATE,
                        evidence=evidence + ("; short gold definition, low confidence" if low_confidence else ""),
                        pos_label=generated.tags[generated.tag_ids[c.gen_index]].raw_label,
                        generated_definition=generated.definitions[generated.sense_offsets[c.gen_index]],
                        gold_definition=gold_best,
                        low_confidence=low_confidence,
                    )
                )
                if c.gen_index in overcorrections:
                    findings.append(overcorrections[c.gen_index])
    return findings


def write_findings(findings: Iterable[ErrorFinding], stream: IO[str]) -> int:
    objects = (
        {
            "lemma": f.lemma,
            "category": f.category.value,
            "evidence": f.evidence,
            "pos": f.pos_label,
            "generated_definition": f.generated_definition,
            "gold_definition": f.gold_definition,
            "low_confidence": f.low_confidence,
        }
        for f in findings
    )
    return write_records(objects, stream)


_FINDING_RECORD = RecordKind(
    lemma=STRING,
    category=STRING,
    evidence=STRING,
    pos=STRING_OR_NULL,
    generated_definition=STRING_OR_NULL,
    gold_definition=STRING_OR_NULL,
    low_confidence=BOOLEAN,
)


def parse_findings(stream: Iterable[str]) -> list[ErrorFinding]:
    """Findings back from the lines of *stream*, which must hold write_findings' fields and types exactly."""
    findings = []
    categories = {c.value: c for c in ErrorCategory}
    for number, obj in read_records(stream, _FINDING_RECORD):
        category = categories.get(obj["category"])
        if category is None:
            raise ParseError(f"unknown category {obj['category']!r}", line_number=number, field="category")
        findings.append(
            ErrorFinding(
                lemma=obj["lemma"],
                category=category,
                evidence=obj["evidence"],
                pos_label=obj["pos"],
                generated_definition=obj["generated_definition"],
                gold_definition=obj["gold_definition"],
                low_confidence=obj["low_confidence"],
            )
        )
    return findings
