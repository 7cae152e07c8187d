"""Hot numeric kernels: signed trigram hashing and Levenshtein distance.

Both are vectorised with numpy: the trigram hasher advances every
trigram's FNV-1a chain one byte per pass, and the edit distance fills
the DP table one row at a time.
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


def trigram_counts(data: np.ndarray, offsets: np.ndarray, dimension: int) -> np.ndarray:
    """Signed FNV-1a bucket counts, vectorized over trigrams.

    offsets[t]:offsets[t+3] delimit the UTF-8 bytes of trigram t. Hash
    chains advance one byte position per pass; trigrams shorter than the
    longest one are masked out once exhausted.
    """
    n = offsets.shape[0] - 3
    counts = np.zeros(dimension, dtype=np.int64)
    if n <= 0:
        return counts
    starts = offsets[:n].astype(np.int64)
    ends = offsets[3 : n + 3].astype(np.int64)
    h = np.full(n, _U64_OFFSET, dtype=np.uint64)
    for j in range(int((ends - starts).max())):
        idx = starts + j
        active = idx < ends
        hb = h[active] ^ data[idx[active]].astype(np.uint64)
        h[active] = hb * _U64_PRIME
    buckets = (h % np.uint64(dimension)).astype(np.int64)
    signs = np.where((h >> np.uint64(63)) == 0, np.int64(1), np.int64(-1))
    np.add.at(counts, buckets, signs)
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
