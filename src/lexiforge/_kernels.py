"""Hot numeric kernels: signed trigram hashing and bounded Levenshtein distance.

Both are vectorised with numpy. The trigram hasher takes a chunk of
texts at once: their UTF-8 bytes in one buffer, the FNV-1a chain of
every trigram of the chunk advanced one byte position per pass, and one
``np.bincount`` of the trigrams' ±1.0 signs into a ``(texts, dimension)``
float64 count block, whose values are exact integers. The edit distance
of many pairs at once, exact up to a bound, is a banded DP: the cells of
every pair's DP row within the bound of its diagonal, advanced one query
code point per numpy step.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

FNV_OFFSET = 14695981039346656037
FNV_PRIME = 1099511628211

_U64_OFFSET = np.uint64(FNV_OFFSET)
_U64_PRIME = np.uint64(FNV_PRIME)

# read by perfbench's environment fingerprint; there is no other backend
BACKEND = "numpy"


def codepoints(text: str) -> np.ndarray:
    """Unicode scalar values of *text* as an int64 array."""
    if not text:
        return np.empty(0, dtype=np.int64)
    return np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32).astype(np.int64)


def trigram_counts(texts: list[str], dimension: int) -> np.ndarray:
    """Signed FNV-1a bucket counts of every character trigram, one float64 row per text.

    Each text must hold at least three characters (callers pad the
    normalised text with ``#`` on each side). A trigram's 64-bit FNV-1a
    hash over its UTF-8 bytes picks a bucket (hash mod dimension) and a
    sign (top bit). Opposite signs can, very rarely, cancel every bucket
    of a text; that row falls back to +1 in its first trigram's bucket,
    so no row is all zero.
    """
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    if (lengths < 3).any():
        raise ValueError("every text needs at least three characters")
    joined = "".join(texts)
    data = np.frombuffer(joined.encode("utf-8"), dtype=np.uint8).astype(np.uint64)
    cps = codepoints(joined)
    char_offsets = np.zeros(cps.size + 1, dtype=np.int64)
    np.cumsum(1 + (cps >= 0x80).astype(np.int64) + (cps >= 0x800) + (cps >= 0x10000), out=char_offsets[1:])
    # trigram t of text i starts at character text_starts[i] + t
    per_text = lengths - 2
    row = np.repeat(np.arange(len(texts)), per_text)
    first = np.zeros(len(texts), dtype=np.int64)
    np.cumsum(per_text[:-1], out=first[1:])
    text_starts = np.zeros(len(texts), dtype=np.int64)
    np.cumsum(lengths[:-1], out=text_starts[1:])
    chars = np.arange(row.size) + np.repeat(text_starts - first, per_text)
    starts = char_offsets[chars]
    sizes = char_offsets[chars + 3] - starts
    h = np.full(row.size, _U64_OFFSET, dtype=np.uint64)
    for j in range(3):  # every trigram has at least three bytes
        h = (h ^ data[starts + j]) * _U64_PRIME
    live = np.flatnonzero(sizes > 3)
    for j in range(3, int(sizes.max())):  # only trigrams with multi-byte characters go on
        live = live[sizes[live] > j]
        h[live] = (h[live] ^ data[starts[live] + j]) * _U64_PRIME
    buckets = (h % np.uint64(dimension)).astype(np.int64)
    keys = row * dimension + buckets
    # +1.0 where the top bit is clear, -1.0 where it is set: float sums of
    # small integers are exact, so the counts are the integer counts
    signs = 1.0 - 2.0 * (h >> np.uint64(63)).astype(np.float64)
    counts = np.bincount(keys, weights=signs, minlength=len(texts) * dimension).reshape(len(texts), dimension)
    cancelled = np.flatnonzero(~counts.any(axis=1))
    counts[cancelled, buckets[first[cancelled]]] = 1
    return counts


#: Pairs that ``levenshtein_many`` advances together. Its scratch memory is
#: the chunk's padded code-point matrices and one band of DP cells per pair.
LEVENSHTEIN_CHUNK = 4096


def _padded(strings: Sequence[str], lengths: np.ndarray, lead: int, width: int, fill: int) -> np.ndarray:
    """Code points of *strings*, one column each from row *lead* on, in a *width*-row matrix padded with *fill*."""
    matrix = np.full((width, len(strings)), fill, dtype=np.int32)
    columns = np.repeat(np.arange(len(strings)), lengths)
    rows = np.arange(columns.size) - np.repeat(np.cumsum(lengths) - lengths - lead, lengths)
    matrix[rows, columns] = codepoints("".join(strings))
    return matrix


def _banded(queries: Sequence[str], texts: Sequence[str], m: np.ndarray, n: np.ndarray, bound: int) -> np.ndarray:
    """``levenshtein_many`` of pairs sorted by query length, longest first, whose lengths differ by at most *bound*."""
    cap, band = bound + 1, 2 * bound + 1
    steps = int(m[0])
    query = _padded(queries, m, 0, steps, -1)
    # text code point j - 1 at row j + bound, so rows i .. i + 2·bound hold those of DP row i's cells
    text = _padded(texts, n, bound + 1, steps + band, -2)  # a pad never matches a code point
    # cell k of a pair's column is D[i][i + k - bound]; row 0 is D[0][j] = j, and j < 0 lies outside
    k = np.arange(band)
    cells = np.repeat(np.where(k >= bound, k - bound, cap)[:, None], len(queries), axis=1)
    # pairs whose query holds at least i code points: a prefix, as the longest come first
    alive = np.searchsorted(-m, -np.arange(1, steps + 1), side="right").tolist()
    for i, live in enumerate(alive, start=1):
        prev = cells[:, :live]
        new = prev + (text[i : i + band, :live] != query[i - 1, :live])  # substitution or match
        np.minimum(new[:-1], prev[1:] + 1, out=new[:-1])  # deletion: the cell above
        for c in range(1, band):  # insertion: the cell to the left
            np.minimum(new[c], new[c - 1] + 1, out=new[c])
        np.minimum(new, cap, out=prev)
    return cells[n - m + bound, np.arange(len(queries))]


def levenshtein_many(queries: Sequence[str], texts: Sequence[str], bound: int) -> np.ndarray:
    """``min(edit distance, bound + 1)`` of every pair ``(queries[i], texts[i])``, as an int64 array.

    The unit-cost edit distance over code points, exact up to *bound*:
    Ukkonen's banded DP (E. Ukkonen, Information and Control 64, 1985).
    A cell more than *bound* diagonals from the main one holds more than
    *bound*, so each pair's DP row is its 2·bound + 1 cells around the
    diagonal, every value capped at ``bound + 1``. One query code point
    advances the row of every pair of a ``LEVENSHTEIN_CHUNK`` in one
    numpy step, and a pair stops once its query is used up. A pair whose
    lengths differ by more than *bound* is ``bound + 1`` without a DP.
    """
    if len(queries) != len(texts):
        raise ValueError(f"{len(queries)} queries for {len(texts)} texts")
    m = np.fromiter(map(len, queries), dtype=np.int64, count=len(queries))
    n = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    distances = np.full(len(queries), bound + 1, dtype=np.int64)
    near = np.flatnonzero(np.abs(n - m) <= bound)
    near = near[np.argsort(-m[near], kind="stable")]
    for start in range(0, near.size, LEVENSHTEIN_CHUNK):
        chunk = near[start : start + LEVENSHTEIN_CHUNK]
        distances[chunk] = _banded([queries[i] for i in chunk], [texts[i] for i in chunk], m[chunk], n[chunk], bound)
    return distances
