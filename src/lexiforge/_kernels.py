"""Hot numeric kernels: signed trigram hashing and bounded Levenshtein distance.

Both are vectorised with numpy. The trigram hasher takes a chunk of
texts at once: their UTF-8 bytes in one buffer, each character's first
byte found from the UTF-8 lead bytes, the 3-byte FNV-1a window hashed at
every byte position and gathered at the first byte of every run of three
characters (only trigrams with multi-byte characters hash further
bytes), and one ``np.add.at`` of the trigrams' ±1.0 signs into the
caller's ``(texts, dimension)`` float64 rows, whose values are exact
integers; the runs that span two texts add 0. The edit distance
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


def trigram_counts(texts: list[str], dimension: int, out: np.ndarray | None = None) -> np.ndarray:
    """Signed FNV-1a bucket counts of every character trigram, one float64 row per text.

    Each text must hold at least three characters (callers pad the
    normalised text with ``#`` on each side). A trigram's 64-bit FNV-1a
    hash over its UTF-8 bytes picks a bucket (hash mod dimension) and a
    sign (top bit). Opposite signs can, very rarely, cancel every bucket
    of a text; that row falls back to +1 in its first trigram's bucket,
    so no row is all zero.

    The counts go into *out*, a C-contiguous float64 ``(texts, dimension)``
    array that is zeroed first and returned; ``None`` allocates one.
    """
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    if (lengths < 3).any():
        raise ValueError("every text needs at least three characters")
    if out is None:
        out = np.zeros((len(texts), dimension))
    elif out.shape != (len(texts), dimension) or out.dtype != np.float64 or not out.flags.c_contiguous:
        # a reshaped copy of a strided array would take the counts and drop them
        raise ValueError(f"out must be a C-contiguous float64 array of shape {(len(texts), dimension)}")
    else:
        out.fill(0.0)
    raw = np.frombuffer("".join(texts).encode("utf-8"), dtype=np.uint8)
    # a character starts at every byte that is not a continuation byte (10xxxxxx)
    char_offsets = np.append(np.flatnonzero((raw & 0xC0) != 0x80), raw.size)
    data = raw.astype(np.uint64)
    # the FNV-1a hash of the three bytes from every byte position
    window = np.full(raw.size - 2, _U64_OFFSET, dtype=np.uint64)
    for j in range(3):
        window ^= data[j : j + window.size]
        window *= _U64_PRIME
    # every run of three characters of the joined texts: the trigrams, and
    # the two runs that span each boundary between texts, which count 0
    starts = char_offsets[:-3]
    sizes = char_offsets[3:] - starts
    h = window[starts]  # every trigram has at least three bytes
    live = np.flatnonzero(sizes > 3)
    for j in range(3, int(sizes.max())):  # only trigrams with multi-byte characters go on
        live = live[sizes[live] > j]
        h[live] = (h[live] ^ data[starts[live] + j]) * _U64_PRIME
    # h - h // d * d is h mod d; numpy's uint64 % by a scalar is several times slower
    divisor = np.uint64(dimension)
    buckets = (h - h // divisor * divisor).view(np.int64)
    # +1.0 where the top bit is clear, -1.0 where it is set: float sums of
    # small integers are exact, so the counts are the integer counts
    signs = 1.0 - 2.0 * (h.view(np.int64) < 0)
    ends = np.cumsum(lengths)  # one past each text's last character
    signs[ends[:-1] - 2] = signs[ends[:-1] - 1] = 0.0
    # a run's row is the text its first character belongs to
    keys = np.repeat(np.arange(0, len(texts) * dimension, dimension), lengths)[: h.size]
    keys += buckets
    np.add.at(out.reshape(-1), keys, signs)
    cancelled = np.flatnonzero(~out.any(axis=1))
    out[cancelled, buckets[(ends - lengths)[cancelled]]] = 1
    return out


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
