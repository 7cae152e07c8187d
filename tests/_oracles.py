"""Independent scratch implementations used as oracles.

Everything here is written from the definitions alone, without importing
the package's embedding or kernel code, so tests can compare the two
paths. Keep it boring: beyond the standard library it uses only numpy
and the package's exception types.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import unicodedata

import numpy as np

from lexiforge.exceptions import DimensionError, DuplicateKeyError, ParseError, ZeroVectorError

FNV_OFFSET = 14695981039346656037
FNV_PRIME = 1099511628211
MASK64 = (1 << 64) - 1


def oracle_normalize(text: str) -> str:
    lowered = unicodedata.normalize("NFC", text.lower())
    return re.sub(r"\s+", " ", lowered).strip()


def oracle_fnv1a(data: bytes) -> int:
    h = FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & MASK64
    return h


def oracle_trigram_counts(text: str, dimension: int) -> list[int]:
    padded = f"#{text}#"
    chars = list(padded)
    counts = [0] * dimension
    for i in range(len(chars) - 2):
        h = oracle_fnv1a("".join(chars[i : i + 3]).encode("utf-8"))
        counts[h % dimension] += 1 if h >> 63 == 0 else -1
    return counts


def oracle_counts(text: str, dimension: int = 512) -> list[int]:
    """The deterministic embedder's unnormalised vector: signed trigram counts of the normalised text."""
    normalized = oracle_normalize(text)
    if not normalized:
        raise ValueError("empty text")
    counts = oracle_trigram_counts(normalized, dimension)
    if not any(counts):
        # signed buckets cancelled: mark the first trigram's bucket
        first = oracle_fnv1a(f"#{normalized}#"[:3].encode("utf-8"))
        counts[first % dimension] = 1
    return counts


def oracle_embed(text: str, dimension: int = 512) -> list[float]:
    counts = oracle_counts(text, dimension)
    norm = math.sqrt(sum(c * c for c in counts))
    return [c / norm for c in counts]


def oracle_cosine(a: list[float], b: list[float]) -> float:
    dot = math.fsum(x * y for x, y in zip(a, b))
    norm_a = math.sqrt(math.fsum(x * x for x in a))
    norm_b = math.sqrt(math.fsum(y * y for y in b))
    return dot / (norm_a * norm_b)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """dot(a,b) / (|a|·|b|); symmetric and invariant under positive scaling."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise DimensionError(f"vector shapes differ: {a.shape} vs {b.shape}")
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ZeroVectorError("cosine similarity is undefined for a zero vector")
    return float(np.dot(a, b) / (norm_a * norm_b))


def oracle_text_cosine(a: str, b: str, dimension: int = 512) -> float:
    return oracle_cosine(oracle_embed(a, dimension), oracle_embed(b, dimension))


def oracle_levenshtein(a: str, b: str) -> int:
    rows = len(a) + 1
    cols = len(b) + 1
    table = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        table[i][0] = i
    for j in range(cols):
        table[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(table[i - 1][j] + 1, table[i][j - 1] + 1, table[i - 1][j - 1] + cost)
    return table[-1][-1]


def oracle_variant_hashes(codepoints: np.ndarray, max_deletions: int) -> np.ndarray:
    """Column c of each row: the Horner hash, base FNV_PRIME mod 2**64, of the code points + 1 kept by the c-th choice of deletions."""
    rows, length = codepoints.shape
    values = codepoints.astype(np.uint64) + np.uint64(1)
    columns = []
    for kept in range(length, max(length - max_deletions, 0) - 1, -1):
        choices = list(itertools.combinations(range(length), kept))
        positions = np.array(choices, dtype=np.int64).reshape(len(choices), kept)
        h = np.zeros((rows, positions.shape[0]), dtype=np.uint64)
        for j in range(kept):
            h = h * np.uint64(FNV_PRIME) + values[:, positions[:, j]]
        columns.append(h)
    return np.concatenate(columns, axis=1)


def oracle_population_stats(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = math.fsum(values) / n
    variance = math.fsum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(variance)


_ORACLE_CATEGORIES = {
    "nombre": "noun", "sustantivo": "noun", "adjetivo": "adjective", "verbo": "verb", "adverbio": "adverb",
}


def oracle_key(lemma: str, label: str) -> tuple[str, str]:
    """(normalised lemma, category value).

    The lemma is trimmed, NFC-composed, case-folded and composed again; the
    category is that of the label's first word, case-insensitively.
    """
    words = label.casefold().split()
    category = _ORACLE_CATEGORIES.get(words[0], "other") if words else "other"
    return unicodedata.normalize("NFC", unicodedata.normalize("NFC", lemma.strip()).casefold()), category


def oracle_parse_dictionary(lines) -> list[tuple]:
    """README's **Dictionary** rules, one line at a time, as one tuple per key, in key order.

    Each tuple is (lemma, category, label, ((definition, example), ...)).

    Raises what a parser must: ParseError with the line and field at the
    first bad line, else DuplicateKeyError at the first line that repeats a key.
    """
    entries, repeat = {}, None
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            raise ParseError("invalid JSON", line_number=number) from None
        if not isinstance(record, dict) or set(record) != {"lemma", "pos", "senses"}:
            raise ParseError("not a dictionary record", line_number=number, field="record")
        for name, kind in (("lemma", str), ("pos", str), ("senses", list)):
            if not isinstance(record[name], kind):
                raise ParseError("wrong type", line_number=number, field=name)
        if not record["lemma"].strip():
            raise ParseError("lemma is empty", line_number=number)
        if not record["senses"]:
            raise ParseError("no senses", line_number=number, field="senses")
        senses = []
        for i, sense in enumerate(record["senses"]):
            if not isinstance(sense, dict) or set(sense) != {"definition", "example"}:
                raise ParseError("not a sense", line_number=number, field=f"senses[{i}]")
            if not isinstance(sense["definition"], str):
                raise ParseError("wrong type", line_number=number, field=f"senses[{i}].definition")
            if not (sense["example"] is None or isinstance(sense["example"], str)):
                raise ParseError("wrong type", line_number=number, field=f"senses[{i}].example")
            if not sense["definition"].strip():
                raise ParseError("blank definition", line_number=number, field=f"senses[{i}].definition")
            senses.append((sense["definition"].strip(), (sense["example"] or "").strip() or None))
        key = oracle_key(record["lemma"], record["pos"])
        if key in entries:
            repeat = repeat or number
        entries.setdefault(key, (*key, record["pos"].strip(), tuple(senses)))
    if repeat:
        raise DuplicateKeyError("duplicate key", line_number=repeat)
    return [entries[key] for key in sorted(entries)]


def oracle_overcorrection(definition: str, neighbors, rows, floor: float):
    """The over-correction of a candidate whose first definition is *definition*: one neighbour entry at a time.

    *neighbors* holds (gold lemma, edit distance, definitions) for each
    gold entry of the candidate's neighbour lemmas, in (distance, lemma,
    key) order; *rows* maps a list of texts to their unit vectors, one row
    per text. Each entry's senses are scored by one (k, d) @ (d,) product.
    A score below *floor* does not count; of the rest, the highest score
    wins, then the smaller distance, then the first in order. Returns
    (score, distance, gold lemma, gold definition), or None.
    """
    gen_vector = rows([definition])[0]
    best = None
    for lemma, distance, definitions in neighbors:
        scores = rows(definitions) @ gen_vector
        for gold_definition, score in zip(definitions, scores.tolist()):
            if score < floor:
                continue
            # strict >: an equal (score, -distance) keeps the earlier one
            if best is None or (score, -distance) > (best[0], -best[1]):
                best = (score, distance, lemma, gold_definition)
    return best
