"""Independent scratch implementations used as oracles.

Everything here is written from the definitions alone, without importing
the package's embedding or kernel code, so tests can compare the two
paths. Keep it boring: beyond the standard library it uses only numpy
and the package's exception types.
"""

from __future__ import annotations

import math
import re
import unicodedata

import numpy as np

from lexiforge.exceptions import DimensionError, ZeroVectorError

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


def oracle_embed(text: str, dimension: int = 512) -> list[float]:
    normalized = oracle_normalize(text)
    if not normalized:
        raise ValueError("empty text")
    counts = oracle_trigram_counts(normalized, dimension)
    if not any(counts):
        # signed buckets cancelled: mark the first trigram's bucket
        first = oracle_fnv1a(f"#{normalized}#"[:3].encode("utf-8"))
        counts[first % dimension] = 1
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


def oracle_population_stats(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = math.fsum(values) / n
    variance = math.fsum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(variance)
