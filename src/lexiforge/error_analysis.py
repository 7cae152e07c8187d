"""Automated error taxonomy for a generated dictionary.

Flags low-similarity alignment records as hallucination candidates and
classifies entries with implementable heuristics: circular definitions,
common nouns defined as proper nouns, fabricated polysemy (near-duplicate
senses) and over-corrections (defining a closely spelled different word).
"""

from __future__ import annotations

import enum
import itertools
import re
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np

from . import _kernels
from .alignment import AlignmentRecord
from .embedding import VectorTable, normalize_text
from .exceptions import ParseError
from .generation import FailureReason, GenerationFailure
from .ingestion import BOOLEAN, STRING, STRING_OR_NULL, RecordKind, read_records, write_records
from .model import Dictionary, DictionaryEntry

DEFAULT_PROPER_NOUN_PATTERNS = ("nombre propio", "en la mitología")
PROPER_NOUN_EVIDENCE = "definition matches a proper-noun pattern"


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


def hallucination_candidates(
    records: Iterable[AlignmentRecord], config: ErrorAnalysisConfig | None = None
) -> list[ErrorFinding]:
    """Records whose best score falls strictly below the threshold."""
    config = config or ErrorAnalysisConfig()
    findings = []
    for record in records:
        if record.best_score < config.hallucination_threshold:
            findings.append(
                ErrorFinding(
                    lemma=record.lemma,
                    category=ErrorCategory.HALLUCINATION_CANDIDATE,
                    evidence=f"best cosine {_cosine_text(record.best_score)} < {config.hallucination_threshold}",
                    pos_label=record.category.value,
                )
            )
    return findings


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


def detect_circularity(entry: DictionaryEntry) -> bool:
    """True when the exact lemma occurs whole-word in any of its definitions.

    Case-insensitive but diacritic-sensitive; morphological variants do
    not count ("limitar" inside a definition of "limitable" is fine).
    Wherever the regex matches, the case-folded lemma is a substring of the
    case-folded definition, so an entry that fails that test is not circular
    and compiles no pattern.
    """
    lemma = entry.lemma.translate(_FOLD)
    if not any(lemma in sense.definition.translate(_FOLD) for sense in entry.senses):
        return False
    pattern = re.compile(rf"(?<!\w){re.escape(entry.lemma)}(?!\w)", re.IGNORECASE)
    return any(pattern.search(sense.definition) for sense in entry.senses)


def detect_proper_noun_definition(entry: DictionaryEntry) -> bool:
    """True when any sense reads like a proper-noun description."""
    return any(p in sense.definition.casefold() for sense in entry.senses for p in DEFAULT_PROPER_NOUN_PATTERNS)


def detect_fabricated_polysemy(
    entry: DictionaryEntry, vectors: VectorTable, config: ErrorAnalysisConfig | None = None
) -> tuple[bool, str] | None:
    """Flag sense pairs that are the same meaning restated.

    Returns None for monosemous entries (not applicable, distinct from a
    negative result), else (flag, evidence). A pair trips the detector
    when the normalized definitions are identical or their cosine reaches
    the configured similarity. ``vectors`` must hold every definition.
    """
    if len(entry.senses) < 2:
        return None
    config = config or ErrorAnalysisConfig()
    rows = vectors.rows([s.definition for s in entry.senses])
    scores = (rows @ rows.T).tolist()
    normalized = [normalize_text(s.definition) for s in entry.senses]
    for i in range(len(entry.senses)):
        for j in range(i + 1, len(entry.senses)):
            if normalized[i] == normalized[j]:
                return True, f"senses {i + 1} and {j + 1} are exact duplicates"
            score = scores[i][j]
            if score >= config.fabricated_polysemy_similarity:
                similarity = config.fabricated_polysemy_similarity
                return True, f"senses {i + 1} and {j + 1} cosine {_cosine_text(score)} >= {similarity}"
    return False, ""


def findings_of_entry(
    entry: DictionaryEntry, vectors: VectorTable, config: ErrorAnalysisConfig | None = None
) -> list[ErrorFinding]:
    """The circularity, proper-noun and fabricated-polysemy findings of one generated entry, in that order.

    ``vectors`` must hold the entry's definitions when it has more than one sense.
    """
    fabricated = detect_fabricated_polysemy(entry, vectors, config) or (False, "")
    found = (
        (ErrorCategory.CIRCULARITY, detect_circularity(entry), "lemma occurs whole-word inside its own definition"),
        (ErrorCategory.PROPER_NOUN_AS_COMMON, detect_proper_noun_definition(entry), PROPER_NOUN_EVIDENCE),
        (ErrorCategory.FABRICATED_POLYSEMY, *fabricated),
    )
    return [
        ErrorFinding(
            lemma=entry.lemma,
            category=category,
            evidence=evidence,
            pos_label=entry.pos.raw_label,
            generated_definition=entry.senses[0].definition,
        )
        for category, flagged, evidence in found
        if flagged
    ]


# multiplier of the variant hash: odd, so multiplying by it loses no bits mod 2**64
_VARIANT_BASE = np.uint64(0x100000001B3)


def _variant_hashes(codepoints: np.ndarray, max_deletions: int) -> np.ndarray:
    """Hashes of every deletion variant of each row of an (n, L) code-point matrix.

    Column c of the (n, V) result is, for every row, the polynomial hash
    (Horner's rule, wrapping mod 2**64) of the code points kept by the c-th
    choice of up to ``max_deletions`` positions to delete. A variant that
    several choices produce appears once per choice.
    """
    rows, length = codepoints.shape
    values = codepoints.astype(np.uint64) + np.uint64(1)  # a leading U+0000 still moves the hash
    columns = []
    for kept in range(length, max(length - max_deletions, 0) - 1, -1):
        choices = list(itertools.combinations(range(length), kept))
        positions = np.array(choices, dtype=np.int64).reshape(len(choices), kept)
        h = np.zeros((rows, positions.shape[0]), dtype=np.uint64)
        for j in range(kept):
            h = h * _VARIANT_BASE + values[:, positions[:, j]]
        columns.append(h)
    return np.concatenate(columns, axis=1)


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
    once with ``_kernels.levenshtein_many`` and keeps the neighbours
    within ``max_distance``, so the result equals a scan of the whole
    vocabulary and ``neighbors`` only filters.

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
        self._max_distance = max_distance
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

        gold_entries = gold.entries()
        lemmas = dict.fromkeys(entry.lemma for entry in gold_entries)  # the distinct gold lemmas
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
        distances = _kernels.levenshtein_many(pair_lemmas, others).tolist()
        # each query's different gold lemmas within max_distance, sorted by (distance, lemma)
        self._neighbors: dict[str, list[tuple[str, int]]] = {query: [] for query in query_list}
        for lemma, other, distance in zip(pair_lemmas, others, distances):
            if distance <= max_distance and other != lemma:
                self._neighbors[lemma].append((other, distance))
        for found in self._neighbors.values():
            found.sort(key=lambda pair: (pair[1], pair[0]))
        # the entries of neighbour lemmas only, in entries() order
        self._entries_by_lemma: dict[str, list[DictionaryEntry]] = {
            other: [] for found in self._neighbors.values() for other, _ in found
        }
        for entry in gold_entries:
            if entry.lemma in self._entries_by_lemma:
                self._entries_by_lemma[entry.lemma].append(entry)

    def neighbors(self, lemma: str, max_distance: int) -> list[tuple[str, int]]:
        """Different gold lemmas within max_distance of a query, sorted by (distance, lemma).

        Raises ValueError when max_distance exceeds the distance the index
        was built for, which would miss neighbours, and when *lemma* was
        not one of the queries.
        """
        if max_distance > self._max_distance:
            raise ValueError(f"index built for edit distance {self._max_distance}, asked for {max_distance}")
        if lemma not in self._neighbors:
            raise ValueError(f"{lemma!r} is not one of the index's queries")
        return [(other, distance) for other, distance in self._neighbors[lemma] if distance <= max_distance]

    def neighbor_entries(self, lemma: str, max_distance: int) -> list[tuple[DictionaryEntry, int]]:
        """Gold entries of ``neighbors(lemma, max_distance)``, in that order, with their distance."""
        found = self.neighbors(lemma, max_distance)
        return [(entry, distance) for other, distance in found for entry in self._entries_by_lemma[other]]


def detect_overcorrection(
    entry: DictionaryEntry,
    neighbors: Sequence[tuple[DictionaryEntry, int]],
    vectors: VectorTable,
    config: ErrorAnalysisConfig | None = None,
) -> ErrorFinding | None:
    """Look for a closely spelled gold lemma whose definition the entry matches.

    Run on hallucination candidates only: a high cosine against a nearby
    (but different) gold lemma suggests the generated definition belongs
    to that neighbor. ``neighbors`` is ``NeighborIndex.neighbor_entries``
    of the entry's lemma, and ``vectors`` holds their definitions and the
    entry's first one. Returns the best such neighbor or None.
    """
    config = config or ErrorAnalysisConfig()
    gen_vector = vectors.rows([entry.senses[0].definition])[0]
    # neighbors arrive sorted by (distance, lemma); strict > keeps the first
    # (alphabetically lowest) winner on exact ties
    best: tuple[float, int, str, str] | None = None
    for gold_entry, distance in neighbors:
        scores = vectors.rows([sense.definition for sense in gold_entry.senses]) @ gen_vector
        for sense, score in zip(gold_entry.senses, scores.tolist()):
            if score < config.overcorrection_similarity_floor:
                continue
            if best is None or (score, -distance) > (best[0], best[1]):
                best = (score, -distance, gold_entry.lemma, sense.definition)
    if best is None:
        return None
    score, neg_distance, neighbor, gold_definition = best
    return ErrorFinding(
        lemma=entry.lemma,
        category=ErrorCategory.OVERCORRECTION,
        evidence=f"gold neighbor '{neighbor}' at edit distance {-neg_distance}, cosine {_cosine_text(score)}",
        pos_label=entry.pos.raw_label,
        generated_definition=entry.senses[0].definition,
        gold_definition=gold_definition,
    )


#: Hallucination candidates whose over-correction texts share one
#: ``VectorTable`` in ``classify_errors``. At 77k keys (1,540 candidates),
#: blocks of 128 peaked 6-11 MB higher, one table for all of them about 60 MB.
CANDIDATE_BLOCK = 64


@dataclass
class ErrorReport:
    findings: list[ErrorFinding] = field(default_factory=list)
    summary: dict[str, int] = field(default_factory=dict)


def classify_errors(
    generated: Dictionary,
    gold: Dictionary,
    records: Sequence[AlignmentRecord],
    embedder,
    entry_findings: Iterable[ErrorFinding],
    config: ErrorAnalysisConfig | None = None,
    failures: Sequence[GenerationFailure] | None = None,
) -> ErrorReport:
    """Run every detector; one entry may carry several findings.

    ``entry_findings`` are :func:`findings_of_entry` of every generated
    entry, in ``generated.entries()`` order; they follow the hallucination
    and over-correction findings. The over-correction search
    takes the candidates ``CANDIDATE_BLOCK`` at a time and embeds a block's
    definitions and those of its gold neighbors in one batch, so memory
    holds one block's vectors however many candidates there are.

    Hallucination candidates whose best-matching gold definition has at
    most two words are marked low-confidence: terse synonym-style gold
    entries score low against full definitions that may well be correct.
    Over-derivation is not auto-detected; such entries surface here only
    as hallucination candidates.
    """
    config = config or ErrorAnalysisConfig()
    report = ErrorReport(summary={category.value: 0 for category in ErrorCategory})
    records_by_key = {(r.lemma, r.category.value): r for r in records}

    flagged = hallucination_candidates(records, config)
    candidates = [records_by_key[(f.lemma, f.pos_label)] for f in flagged]
    max_distance = config.overcorrection_max_edit_distance
    index = NeighborIndex(gold, [record.lemma for record in candidates], max_distance) if candidates else None
    for start in range(0, len(candidates), CANDIDATE_BLOCK):
        block = candidates[start : start + CANDIDATE_BLOCK]
        neighbors = [index.neighbor_entries(record.lemma, max_distance) for record in block]
        vectors = VectorTable(
            embedder,
            [generated.get(record.lemma, record.category).senses[0].definition for record in block]
            + [s.definition for found in neighbors for gold_entry, _ in found for s in gold_entry.senses],
        )
        for finding, record, found in zip(flagged[start : start + CANDIDATE_BLOCK], block, neighbors):
            gen_entry = generated.get(record.lemma, record.category)
            gold_entry = gold.get(record.lemma, record.category)
            gold_best = gold_entry.senses[record.best_gold_index - 1].definition
            low_confidence = len(gold_best.split()) <= 2
            evidence = finding.evidence + ("; short gold definition, low confidence" if low_confidence else "")
            report.findings.append(
                ErrorFinding(
                    lemma=finding.lemma,
                    category=ErrorCategory.HALLUCINATION_CANDIDATE,
                    evidence=evidence,
                    pos_label=gen_entry.pos.raw_label,
                    generated_definition=gen_entry.senses[0].definition,
                    gold_definition=gold_best,
                    low_confidence=low_confidence,
                )
            )
            overcorrection = detect_overcorrection(gen_entry, found, vectors, config)
            if overcorrection is not None:
                report.findings.append(overcorrection)
        del vectors  # before the next block's table is filled, so at most one is alive

    report.findings += entry_findings

    for failure in failures or ():
        if failure.reason is FailureReason.REFUSAL:
            report.findings.append(
                ErrorFinding(
                    lemma=failure.lemma,
                    category=ErrorCategory.REFUSAL,
                    evidence=failure.detail,
                    pos_label=failure.pos.raw_label if failure.pos else None,
                )
            )

    for finding in report.findings:
        report.summary[finding.category.value] += 1
    return report


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
