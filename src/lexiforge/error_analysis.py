"""Automated error taxonomy for a generated dictionary.

Flags low-similarity alignment records as hallucination candidates and
classifies entries with implementable heuristics: circular definitions,
common nouns defined as proper nouns, fabricated polysemy (near-duplicate
senses) and over-corrections (defining a closely spelled different word).
"""

from __future__ import annotations

import enum
import json
import re
from array import array
from dataclasses import dataclass, field
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from . import _kernels
from .alignment import AlignmentRecord
from .embedding import VectorTable, normalize_text
from .exceptions import ParseError
from .generation import FailureReason, GenerationFailure
from .model import Dictionary, DictionaryEntry, PosCategory

DEFAULT_PROPER_NOUN_PATTERNS = ("nombre propio", "en la mitología")


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


def detect_circularity(entry: DictionaryEntry) -> bool:
    """True when the exact lemma occurs whole-word in any of its definitions.

    Case-insensitive but diacritic-sensitive; morphological variants do
    not count ("limitar" inside a definition of "limitable" is fine).
    """
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
    for i in range(len(entry.senses)):
        for j in range(i + 1, len(entry.senses)):
            if normalize_text(entry.senses[i].definition) == normalize_text(entry.senses[j].definition):
                return True, f"senses {i + 1} and {j + 1} are exact duplicates"
            score = scores[i][j]
            if score >= config.fabricated_polysemy_similarity:
                similarity = config.fabricated_polysemy_similarity
                return True, f"senses {i + 1} and {j + 1} cosine {_cosine_text(score)} >= {similarity}"
    return False, ""


def _deletions(word: str, max_deletions: int) -> set[str]:
    """*word* and every string left after removing up to max_deletions code points."""
    variants, frontier = {word}, {word}
    for _ in range(max_deletions):
        frontier = {w[:i] + w[i + 1 :] for w in frontier for i in range(len(w))}
        variants |= frontier
    return variants


class NeighborIndex:
    """Gold lemmas indexed by their deletion variants for bounded edit-distance search.

    Symmetric-delete scheme (W. Garbe, SymSpell): when two strings are
    within edit distance d, removing at most d code points from each
    leaves a common string, since an insertion on one side is a deletion
    on the other and a substitution is one deletion on each. The index
    records every gold lemma's variants with up to ``max_distance``
    deletions; a query forms its own variants, gathers the gold lemmas
    that share one, and confirms each with the exact DP, so the result
    equals a scan of the whole vocabulary.

    Variants are stored as ``hash(variant)`` in a sorted int64 array beside
    an array of lemma ids and looked up with ``np.searchsorted``; no
    variant string outlives the build. ``hash`` is salted per process,
    which does not matter because the hashes never leave the index, and a
    collision only adds a candidate that the DP rejects.

    Build time and memory grow with the number of deletion variants,
    Σₖ₌₀ᵈ C(L, k) per lemma of length L (at most 37 for L = 8, d = 2);
    a query costs its own variants plus one DP per candidate.
    """

    def __init__(self, gold: Dictionary, max_distance: int = 2):
        self._max_distance = max_distance
        self._entries_by_lemma: dict[str, list[DictionaryEntry]] = {}
        for entry in gold.entries():
            self._entries_by_lemma.setdefault(entry.lemma, []).append(entry)
        self._lemmas = sorted(self._entries_by_lemma)
        # array.array keeps 8 bytes per variant while collecting; a list of
        # Python ints would cost about five times that at peak
        hashes, counts = array("q"), []
        for lemma in self._lemmas:
            variants = _deletions(lemma, max_distance)
            hashes.extend(map(hash, variants))
            counts.append(len(variants))
        hash_array = np.frombuffer(hashes, dtype=np.int64)
        order = np.argsort(hash_array, kind="stable")
        self._hashes = hash_array[order]
        self._ids = np.repeat(np.arange(len(self._lemmas)), counts)[order]

    def neighbors(self, lemma: str, max_distance: int) -> list[tuple[str, int]]:
        """Different lemmas within max_distance, sorted by (distance, lemma).

        Raises ValueError when max_distance exceeds the distance the index
        was built for, which would miss neighbours.
        """
        if max_distance > self._max_distance:
            raise ValueError(f"index built for edit distance {self._max_distance}, asked for {max_distance}")
        queries = np.fromiter(map(hash, _deletions(lemma, max_distance)), dtype=np.int64)
        starts = np.searchsorted(self._hashes, queries, side="left")
        stops = np.searchsorted(self._hashes, queries, side="right")
        candidates = np.unique(np.concatenate([self._ids[i:j] for i, j in zip(starts, stops)]))
        found = []
        a = _kernels.codepoints(lemma)
        for lemma_id in candidates:
            other = self._lemmas[lemma_id]
            if other == lemma:
                continue
            distance = int(_kernels.levenshtein(a, _kernels.codepoints(other)))
            if distance <= max_distance:
                found.append((other, distance))
        return sorted(found, key=lambda pair: (pair[1], pair[0]))

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


@dataclass
class ErrorReport:
    findings: list[ErrorFinding] = field(default_factory=list)
    summary: dict[str, int] = field(default_factory=dict)


def classify_errors(
    generated: Dictionary,
    gold: Dictionary,
    records: Sequence[AlignmentRecord],
    embedder,
    polysemy: Mapping[tuple[str, PosCategory], tuple[bool, str] | None],
    config: ErrorAnalysisConfig | None = None,
    failures: Sequence[GenerationFailure] | None = None,
) -> ErrorReport:
    """Run every detector; one entry may carry several findings.

    ``polysemy`` maps every generated entry's key to its
    :func:`detect_fabricated_polysemy` result. The over-correction search
    embeds the candidates' and their gold neighbors' definitions in one batch.

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
    index = NeighborIndex(gold, max_distance) if candidates else None
    neighbors = [index.neighbor_entries(record.lemma, max_distance) for record in candidates]
    vectors = VectorTable(
        embedder,
        [generated.get(record.lemma, record.category).senses[0].definition for record in candidates]
        + [s.definition for found in neighbors for gold_entry, _ in found for s in gold_entry.senses],
    )
    for finding, record, found in zip(flagged, candidates, neighbors):
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

    for entry in generated.entries():
        if detect_circularity(entry):
            report.findings.append(
                ErrorFinding(
                    lemma=entry.lemma,
                    category=ErrorCategory.CIRCULARITY,
                    evidence="lemma occurs whole-word inside its own definition",
                    pos_label=entry.pos.raw_label,
                    generated_definition=entry.senses[0].definition,
                )
            )
        if detect_proper_noun_definition(entry):
            report.findings.append(
                ErrorFinding(
                    lemma=entry.lemma,
                    category=ErrorCategory.PROPER_NOUN_AS_COMMON,
                    evidence="definition matches a proper-noun pattern",
                    pos_label=entry.pos.raw_label,
                    generated_definition=entry.senses[0].definition,
                )
            )
        fabricated = polysemy[entry.key]
        if fabricated is not None and fabricated[0]:
            report.findings.append(
                ErrorFinding(
                    lemma=entry.lemma,
                    category=ErrorCategory.FABRICATED_POLYSEMY,
                    evidence=fabricated[1],
                    pos_label=entry.pos.raw_label,
                    generated_definition=entry.senses[0].definition,
                )
            )

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
    written = 0
    for f in findings:
        obj = {
            "lemma": f.lemma,
            "category": f.category.value,
            "evidence": f.evidence,
            "pos": f.pos_label,
            "generated_definition": f.generated_definition,
            "gold_definition": f.gold_definition,
            "low_confidence": f.low_confidence,
        }
        line = json.dumps(obj, ensure_ascii=False) + "\n"
        stream.write(line)
        written += len(line.encode("utf-8"))
    return written


def parse_findings(stream: Iterable[str]) -> list[ErrorFinding]:
    findings = []
    for number, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            findings.append(
                ErrorFinding(
                    lemma=obj["lemma"],
                    category=ErrorCategory(obj["category"]),
                    evidence=obj["evidence"],
                    pos_label=obj.get("pos"),
                    generated_definition=obj.get("generated_definition"),
                    gold_definition=obj.get("gold_definition"),
                    low_confidence=bool(obj.get("low_confidence", False)),
                )
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"invalid finding record: {exc}", line_number=number) from exc
    return findings
