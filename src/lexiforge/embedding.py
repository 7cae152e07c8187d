"""Text embeddings for cosine scoring.

Two embedders share one contract (``embed_batch`` / ``identifier``): a
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


def _embed_chunk(texts: Sequence[str], dimension: int) -> np.ndarray:
    """Unit rows of the signed trigram embedding, one per text."""
    if dimension < 1:
        raise DimensionError(f"dimension must be >= 1, got {dimension}")
    padded = []
    for text in texts:
        normalized = normalize_text(text)
        if not normalized:
            raise EmptyTextError(f"text is empty after normalization: {text!r}")
        padded.append(f"#{normalized}#")
    counts = _kernels.trigram_counts(padded, dimension).astype(np.float64)
    # the counts are integers, so the sum of squares is exact in any order
    # and every row's norm is the one a per-text pass would compute
    counts /= np.linalg.norm(counts, axis=1, keepdims=True)
    return counts


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
    return _embed_chunk([text], dimension)[0]


class VectorTable:
    """L2-normalised embeddings of a fixed set of texts, filled by one ``embed_batch``.

    The texts are sorted and de-duplicated before the call, so the request
    does not depend on the order callers collected them in. A cosine is a
    dot product of two rows; a zero vector, which has none, is rejected.
    """

    def __init__(self, embedder, texts: Iterable[str]):
        ordered = sorted(set(texts))
        self._rows = {text: row for row, text in enumerate(ordered)}
        self._vectors = list(embedder.embed_batch(ordered)) if ordered else []
        if len(self._vectors) != len(ordered):
            raise ProtocolError(f"embedder returned {len(self._vectors)} vectors for {len(ordered)} texts")
        shape = np.shape(self._vectors[0]) if ordered else None
        # each vector is replaced by its unit row in turn, so the embedder's
        # vectors and the table never both exist in full
        for row, text in enumerate(ordered):
            vector = np.asarray(self._vectors[row], dtype=np.float64)
            if vector.ndim != 1 or vector.shape != shape:
                raise DimensionError(f"vector shapes differ: {vector.shape} vs {shape}")
            norm = float(np.linalg.norm(vector))
            if norm == 0.0:
                raise ZeroVectorError(f"embedder returned a zero vector for {text!r}")
            self._vectors[row] = vector / norm

    def rows(self, texts: Sequence[str]) -> np.ndarray:
        """Matrix of the texts' unit vectors, one row per text in the given order."""
        return np.array([self._vectors[self._rows[text]] for text in texts])


class DeterministicEmbedder:
    def __init__(self, dimension: int = 512):
        self.dimension = dimension

    @property
    def identifier(self) -> str:
        return f"trigram-fnv1a-{self.dimension}"

    def embed_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
        """``embed_deterministic`` of every text, hashed ``EMBED_CHUNK`` texts at a time."""
        vectors: list[np.ndarray] = []
        for start in range(0, len(texts), EMBED_CHUNK):
            vectors.extend(_embed_chunk(texts[start : start + EMBED_CHUNK], self.dimension))
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

    def embed_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
        vectors: list[np.ndarray] = []
        for start in range(0, len(texts), self.batch_size):
            chunk = list(texts[start : start + self.batch_size])
            chunk_vectors = self._call(chunk)
            if vectors and chunk_vectors[0].shape != vectors[0].shape:
                raise ProtocolError(
                    f"service changed dimension between chunks: {vectors[0].shape[0]} then {chunk_vectors[0].shape[0]}"
                )
            vectors.extend(chunk_vectors)
        return vectors

    def _call(self, chunk: list[str]) -> list[np.ndarray]:
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
    def _parse_reply(body: bytes, expected: int) -> list[np.ndarray]:
        try:
            payload = json.loads(body)
            raw_vectors = payload["vectors"]
            dimension = int(payload["dimension"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ProtocolError(f"malformed embedding service reply: {exc}") from exc
        if len(raw_vectors) != expected:
            raise ProtocolError(f"service returned {len(raw_vectors)} vectors for {expected} texts")
        vectors = []
        for raw in raw_vectors:
            vector = np.asarray(raw, dtype=np.float64)
            if vector.ndim != 1 or vector.shape[0] != dimension:
                raise ProtocolError(f"vector length {vector.shape} does not match dimension {dimension}")
            if not vector.any():
                raise ProtocolError("service returned an all-zero vector")
            vectors.append(vector)
        return vectors


def _cache_key(text: str) -> str:
    # The prefix keeps every record keyed on the normalised text, as cache
    # files written before exact-text keys hold them, from ever matching.
    return hashlib.sha256(b"exact\0" + text.encode("utf-8")).hexdigest()


class EmbeddingCache:
    """Append-only vector cache keyed by (embedder id, exact text).

    The text is not normalised: an embedder may score ``"Casa."`` and
    ``"casa."`` differently, and a cached run must score as an uncached one.

    Corrupt records are skipped with a warning and recomputed by the
    caller; the file is safe to append to across runs.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._memory: dict[tuple[str, str], np.ndarray] = {}
        self._handle: IO[str] | None = None
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        with open(self.path, encoding="utf-8") as fh:
            for number, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                    key = (str(obj["embedder"]), str(obj["key"]))
                    vector = np.asarray(obj["vector"], dtype=np.float64)
                    if vector.ndim != 1:
                        raise ValueError("vector must be one-dimensional")
                except (ValueError, KeyError, TypeError):
                    logger.warning("skipping corrupt cache record at %s:%d", self.path, number)
                    continue
                self._memory[key] = vector
        logger.debug("loaded %d cached vectors from %s", len(self._memory), self.path)

    def get(self, embedder_id: str, text: str) -> np.ndarray | None:
        vector = self._memory.get((embedder_id, _cache_key(text)))
        return None if vector is None else vector.copy()

    def put(self, embedder_id: str, text: str, vector: np.ndarray) -> None:
        key = (embedder_id, _cache_key(text))
        if key in self._memory:
            return
        self._memory[key] = np.asarray(vector, dtype=np.float64).copy()
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        record = {"embedder": key[0], "key": key[1], "vector": [float(x) for x in vector]}
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "EmbeddingCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class CachingEmbedder:
    """Wrap any embedder with a persistent cache; misses are batched.

    ``close`` closes the cache file and the inner embedder, when it has a
    ``close`` of its own.
    """

    def __init__(self, inner, cache: EmbeddingCache):
        self.inner = inner
        self.cache = cache

    @property
    def identifier(self) -> str:
        return self.inner.identifier

    def close(self) -> None:
        self.cache.close()
        close_inner = getattr(self.inner, "close", None)
        if close_inner is not None:
            close_inner()

    def embed_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
        misses = [text for text in dict.fromkeys(texts) if self.cache.get(self.identifier, text) is None]
        if misses:
            computed = self.inner.embed_batch(misses)
            if len(computed) != len(misses):
                raise ProtocolError(f"embedder returned {len(computed)} vectors for {len(misses)} texts")
            for text, vector in zip(misses, computed):
                self.cache.put(self.identifier, text, vector)
        return [self.cache.get(self.identifier, text) for text in texts]
