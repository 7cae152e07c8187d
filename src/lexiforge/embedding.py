"""Text embeddings for cosine scoring.

Two embedders share one contract (``identifier`` and ``embed_batch``,
which returns a caller-owned texts × dimension float64 array): a
bit-reproducible signed character-trigram hasher for offline evaluation
and tests, and a client for a remote neural embedding service for
full-fidelity runs. Evaluation embeds its texts into a ``VectorTable``
and scores cosines as dot products of its rows.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import logging
import re
import time
import unicodedata
from pathlib import Path
from typing import IO, Callable, Iterable, Sequence

import numpy as np

from . import _kernels
from ._http import TRANSPORT_ERRORS, JsonPoster
from .exceptions import DimensionError, EmptyTextError, ProtocolError, ServiceError, ZeroVectorError

logger = logging.getLogger(__name__)

_WS_RUN_RE = re.compile(r"\s+")


def normalize_text(text: str) -> str:
    """Lowercase, NFC-compose, collapse whitespace runs, trim."""
    lowered = unicodedata.normalize("NFC", text.lower())
    return _WS_RUN_RE.sub(" ", lowered).strip()


#: Texts hashed per ``_kernels.trigram_counts`` call. The count block of a
#: chunk is ``EMBED_CHUNK`` × dimension int64 values (1 MiB at 512 dims),
#: so hashing a batch of any size needs no more scratch memory than that.
EMBED_CHUNK = 256


def embed_deterministic(text: str, dimension: int = 512) -> np.ndarray:
    """Signed character-trigram hash embedding, L2-normalized.

    The normalized text is padded with one ``#`` sentinel on each side;
    every trigram's 64-bit FNV-1a hash picks a bucket (hash mod dimension)
    and a sign (hash top bit), so unrelated texts land near zero cosine
    instead of all-positive. Byte-identical for identical input on every
    platform.

    Opposite-signed trigrams can, very rarely, cancel every bucket; the
    output must never be all-zero, so that case deterministically falls
    back to marking the first trigram's bucket.
    """
    return DeterministicEmbedder(dimension).embed_batch([text])[0]


class VectorTable:
    """L2-normalised embeddings of a fixed set of texts, filled by one ``embed_batch``.

    The texts are sorted and de-duplicated before the call, so the request
    does not depend on the order callers collected them in. A cosine is a
    dot product of two rows; a zero vector, which has none, is rejected.
    """

    def __init__(self, embedder, texts: Iterable[str]):
        ordered = sorted(set(texts))
        self._rows = {text: row for row, text in enumerate(ordered)}
        vectors = embedder.embed_batch(ordered) if ordered else np.empty((0, 0))
        try:
            matrix = np.asarray(vectors, dtype=np.float64)
        except ValueError as exc:  # rows of different lengths
            raise DimensionError(f"vector shapes differ: {exc}") from exc
        if matrix.ndim != 2:
            raise DimensionError(f"embedder returned an array of shape {matrix.shape}, not texts × dimension")
        if len(matrix) != len(ordered):
            raise ProtocolError(f"embedder returned {len(matrix)} vectors for {len(ordered)} texts")
        # each row's dot product with itself, the kernel np.linalg.norm uses
        # on one vector, so every unit row is bit-identical to v / norm(v)
        norms = np.sqrt(matrix[:, None, :] @ matrix[:, :, None])[:, 0]
        if not norms.all():
            raise ZeroVectorError(f"embedder returned a zero vector for {ordered[np.flatnonzero(norms == 0.0)[0]]!r}")
        self._matrix = np.divide(matrix, norms, out=matrix)

    def rows(self, texts: Sequence[str]) -> np.ndarray:
        """Matrix of the texts' unit vectors, one row per text in the given order."""
        return self._matrix[[self._rows[text] for text in texts]]


class DeterministicEmbedder:
    def __init__(self, dimension: int = 512):
        self.dimension = dimension

    @property
    def identifier(self) -> str:
        return f"trigram-fnv1a-{self.dimension}"

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """``embed_deterministic`` of every text, hashed ``EMBED_CHUNK`` texts at a time."""
        if self.dimension < 1:
            raise DimensionError(f"dimension must be >= 1, got {self.dimension}")
        vectors = np.empty((len(texts), self.dimension))
        for start in range(0, len(texts), EMBED_CHUNK):
            padded = []
            for text in texts[start : start + EMBED_CHUNK]:
                normalized = normalize_text(text)
                if not normalized:
                    raise EmptyTextError(f"text is empty after normalization: {text!r}")
                padded.append(f"#{normalized}#")
            counts = _kernels.trigram_counts(padded, self.dimension)
            # integer counts: every sum of squares, so every row's norm, is exact
            np.divide(counts, np.linalg.norm(counts, axis=1, keepdims=True), out=vectors[start : start + len(padded)])
        return vectors


class RemoteEmbedder:
    """Client for the embedding service wire contract.

    POSTs ``{"texts": [...]}`` and expects ``{"vectors": [[...]...],
    "dimension": n}``. Requests are chunked (default 64 texts per call)
    and transient failures (connection errors, 5xx, 429) are retried with
    exponential backoff before raising ServiceError. The chunks go out one
    after another over one kept-alive connection, so an embedder is not
    thread-safe; ``close`` closes that connection.
    """

    def __init__(
        self,
        url: str,
        batch_size: int = 64,
        max_retries: int = 3,
        retry_backoff: float = 1.0,
        timeout: float = 30.0,
        identifier: str = "remote",
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.url = url
        self.batch_size = max(1, batch_size)
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.timeout = timeout
        self._identifier = identifier
        self._sleep = sleep
        self._poster = JsonPoster(url, timeout)

    @property
    def identifier(self) -> str:
        return self._identifier

    def close(self) -> None:
        self._poster.close()

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """One row per text; an empty batch, which sends nothing, has shape (0, 0)."""
        vectors = np.empty((0, 0))
        for start in range(0, len(texts), self.batch_size):
            chunk = list(texts[start : start + self.batch_size])
            rows = self._call(chunk)
            if start == 0:
                vectors = np.empty((len(texts), rows.shape[1]))
            elif rows.shape[1] != vectors.shape[1]:
                raise ProtocolError(f"service changed dimension between chunks: {vectors.shape[1]} then {rows.shape[1]}")
            vectors[start : start + len(chunk)] = rows
        return vectors

    def _call(self, chunk: list[str]) -> np.ndarray:
        attempt = 0
        while True:
            try:
                status, body = self._poster.post({"texts": chunk})
                if status == 429 or status >= 500:
                    raise http.client.HTTPException(f"HTTP {status}")
            except TRANSPORT_ERRORS as exc:
                if attempt >= self.max_retries:
                    raise ServiceError(f"embedding service unreachable after {attempt} retries: {exc}") from exc
                self._sleep(self.retry_backoff * (2**attempt))
                attempt += 1
                continue
            if status >= 400:
                raise ServiceError(f"embedding service rejected the request: HTTP {status}")
            return self._parse_reply(body, len(chunk))

    @staticmethod
    def _parse_reply(body: bytes, expected: int) -> np.ndarray:
        try:
            payload = json.loads(body)
            vectors = np.asarray(payload["vectors"], dtype=np.float64)
            dimension = int(payload["dimension"])
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise ProtocolError(f"malformed embedding service reply: {exc}") from exc
        if vectors.shape != (expected, dimension):
            raise ProtocolError(f"service returned shape {vectors.shape} for {expected} texts of dimension {dimension}")
        if not np.isfinite(vectors).all():
            raise ProtocolError("service returned a vector with a non-finite value")
        if not vectors.any(axis=1).all():
            raise ProtocolError("service returned an all-zero vector")
        return vectors


def _cache_key(text: str) -> str:
    # The prefix keeps every record keyed on the normalised text, as cache
    # files written before exact-text keys hold them, from ever matching.
    return hashlib.sha256(b"exact\0" + text.encode("utf-8")).hexdigest()


class CachingEmbedder:
    """Wrap any embedder with a persistent, append-only JSONL vector cache.

    Records are keyed by (embedder id, exact text). The text is not
    normalised: an embedder may score ``"Casa."`` and ``"casa."``
    differently, and a cached run must score as an uncached one. The file
    may hold several embedders' records; only the wrapped embedder's are
    loaded, and when a key repeats the last record wins.

    Corrupt records are skipped with a warning and recomputed; the file is
    safe to append to across runs, also after a crash cut its last line.
    ``close`` closes the cache file and the inner embedder, when it has a
    ``close`` of its own.
    """

    def __init__(self, inner, path: str | Path):
        self.inner = inner
        self.path = Path(path)
        self._vectors: dict[str, np.ndarray] = {}
        self._handle: IO[str] | None = None
        self._torn = False  # the file's last line lacks its newline
        if self.path.exists():
            self._load()

    @property
    def identifier(self) -> str:
        return self.inner.identifier

    def _load(self) -> None:
        line = b"\n"
        with open(self.path, "rb") as fh:
            for number, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line.decode("utf-8"))
                    if obj["embedder"] != self.identifier:
                        continue
                    key = str(obj["key"])
                    vector = np.asarray(obj["vector"], dtype=np.float64)
                    if vector.ndim != 1 or not np.isfinite(vector).all():
                        raise ValueError("vector must be one-dimensional and finite")
                except (ValueError, KeyError, TypeError):  # UnicodeDecodeError is a ValueError
                    logger.warning("skipping corrupt cache record at %s:%d", self.path, number)
                    continue
                self._vectors[key] = vector
        self._torn = not line.endswith(b"\n")
        logger.debug("loaded %d cached vectors from %s", len(self._vectors), self.path)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        close_inner = getattr(self.inner, "close", None)
        if close_inner is not None:
            close_inner()

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """One new row per text; the de-duplicated misses go to the inner embedder in one batch."""
        keys = [_cache_key(text) for text in texts]
        misses = {key: text for key, text in zip(keys, texts) if key not in self._vectors}
        if misses:
            computed = np.asarray(self.inner.embed_batch(list(misses.values())), dtype=np.float64)
            if len(computed) != len(misses):
                raise ProtocolError(f"embedder returned {len(computed)} vectors for {len(misses)} texts")
            if self._handle is None:
                self._handle = open(self.path, "a", encoding="utf-8")
                if self._torn:
                    self._handle.write("\n")
            for key, vector in zip(misses, computed):
                self._vectors[key] = vector
                self._handle.write(json.dumps({"embedder": self.identifier, "key": key, "vector": vector.tolist()}) + "\n")
            self._handle.flush()
        if not keys:
            return np.empty((0, 0))
        try:
            return np.stack([self._vectors[key] for key in keys])
        except ValueError as exc:  # a cached row of another length
            raise DimensionError(f"vector shapes differ: {exc}") from exc
