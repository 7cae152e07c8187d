"""Hot numeric kernels: signed trigram hashing and Levenshtein distance.

Both are vectorised with numpy. The trigram hasher takes a chunk of
texts at once: their UTF-8 bytes in one buffer, the FNV-1a chain of
every trigram of the chunk advanced one byte position per pass, and one
``np.bincount`` of the trigrams' ±1.0 signs into a ``(texts, dimension)``
float64 count block, whose values are exact integers. The edit distance
fills the DP table one row at a time.
"""

from __future__ import annotations

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


def levenshtein(a: np.ndarray, b: np.ndarray) -> int:
    """Unit-cost edit distance, row-vectorized.

    The sequential insertion closure cur[j] = min(cur[j], cur[j-1] + 1) is a
    min-plus prefix scan: subtract the index, take a running minimum, add the
    index back.
    """
    nb = b.shape[0]
    ar = np.arange(nb + 1)
    prev = ar.copy()
    for i in range(1, a.shape[0] + 1):
        cur = np.empty(nb + 1, dtype=np.int64)
        cur[0] = i
        if nb:
            cur[1:] = np.minimum(prev[1:] + 1, prev[:-1] + (b != a[i - 1]))
        cur = np.minimum.accumulate(cur - ar) + ar
        prev = cur
    return int(prev[nb])
