"""Hot numeric kernels: signed trigram hashing and Levenshtein distance.

Both are vectorised with numpy. The trigram hasher takes a chunk of
texts at once: their UTF-8 bytes in one buffer, the FNV-1a chain of
every trigram of the chunk advanced one byte position per pass, and one
``np.bincount`` of the trigrams' ±1.0 signs into a ``(texts, dimension)``
float64 count block, whose values are exact integers. The edit distance
of many pairs at once is Myers' bit-vector algorithm, one uint64 word
per query, with every pair advanced one text code point per numpy step;
a query longer than one word goes to the DP, which fills its table one
row at a time.
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


#: Pairs that ``levenshtein_many`` advances together. Its scratch memory is
#: the chunk's padded code-point matrices and a few arrays of one word per
#: pair, whatever the number of pairs.
LEVENSHTEIN_CHUNK = 4096

#: The longest query ``levenshtein_many`` runs bit-parallel: one bit per code point.
WORD_BITS = 64


def _padded(strings: Sequence[str], width: int, fill: int) -> tuple[np.ndarray, np.ndarray]:
    """Code points of *strings*, one row each padded to *width* with *fill*, and the strings' lengths."""
    lengths = np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))
    matrix = np.full((len(strings), width), fill, dtype=np.int64)
    rows = np.repeat(np.arange(len(strings)), lengths)
    columns = np.arange(rows.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    matrix[rows, columns] = codepoints("".join(strings))
    return matrix, lengths


def _bit_parallel(queries: Sequence[str], texts: Sequence[str]) -> np.ndarray:
    """``levenshtein_many`` of pairs whose queries hold at most ``WORD_BITS`` code points."""
    query_width = -(-max(map(len, queries)) // 8) * 8  # whole bytes of match bits
    query, m = _padded(queries, query_width, -1)
    text, n = _padded(texts, max(map(len, texts)), -2)  # the two pads never match each other
    match_bytes = np.zeros((len(queries), 8), dtype=np.uint8)
    match_word = match_bytes.view("<u8")[:, 0]
    # bit i of a pair's words is row i of its DP column: pv and mv hold the
    # +1 and -1 vertical deltas, and only bits below m reach the last row
    pv = np.full(len(queries), ~np.uint64(0))
    mv = np.zeros(len(queries), dtype=np.uint64)
    last = np.left_shift(np.uint64(1), np.maximum(m - 1, 0).astype(np.uint64))
    score = m.copy()  # D[m][j], the last row of column j
    for j in range(text.shape[1]):
        match_bytes[:, : query_width // 8] = np.packbits(query == text[:, j, None], axis=1, bitorder="little")
        d0 = (((match_word & pv) + pv) ^ pv) | match_word | mv
        hp = mv | ~(d0 | pv)
        hn = pv & d0
        live = j < n
        score += ((hp & last) != 0) & live
        score -= ((hn & last) != 0) & live
        hp = (hp << 1) | 1  # D[0][j] = j: the top row steps up by one in every column
        hn <<= 1
        pv = hn | ~(d0 | hp)
        mv = hp & d0
    return np.where(m == 0, n, score)


def levenshtein_many(queries: Sequence[str], texts: Sequence[str]) -> np.ndarray:
    """Unit-cost edit distance of every pair ``(queries[i], texts[i])``, as an int64 array.

    Myers' bit-vector algorithm (G. Myers, JACM 46(3), 1999) in Hyyrö's
    form for the global distance (H. Hyyrö, Nordic Journal of Computing
    10(1), 2003): a pair's DP column is two uint64 words of vertical
    deltas, and one text code point advances the column of every pair of
    a ``LEVENSHTEIN_CHUNK`` in one numpy step. A query longer than
    ``WORD_BITS`` code points does not fit a word; its pair goes to
    :func:`levenshtein`.
    """
    if len(queries) != len(texts):
        raise ValueError(f"{len(queries)} queries for {len(texts)} texts")
    distances = np.empty(len(queries), dtype=np.int64)
    lengths = np.fromiter(map(len, queries), dtype=np.int64, count=len(queries))
    for i in np.flatnonzero(lengths > WORD_BITS).tolist():
        distances[i] = levenshtein(codepoints(queries[i]), codepoints(texts[i]))
    word = np.flatnonzero(lengths <= WORD_BITS).tolist()
    for start in range(0, len(word), LEVENSHTEIN_CHUNK):
        chunk = word[start : start + LEVENSHTEIN_CHUNK]
        distances[chunk] = _bit_parallel([queries[i] for i in chunk], [texts[i] for i in chunk])
    return distances
