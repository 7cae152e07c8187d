"""Text embeddings for cosine scoring.

Two embedders share one contract (``embed_batch`` / ``identifier``): a
bit-reproducible signed character-trigram hasher for offline evaluation
and tests, and a client for a remote neural embedding service for
full-fidelity runs. Evaluation embeds its texts into a ``VectorTable``
and scores cosines as dot products of its rows.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
import time
import unicodedata
from pathlib import Path
from typing import IO, Callable, Iterable, Sequence

import numpy as np
import requests

from . import _kernels
from .exceptions import DimensionError, EmptyTextError, ProtocolError, ServiceError, ZeroVectorError

logger = logging.getLogger(__name__)

_WS_RUN_RE = re.compile(r"\s+")


def normalize_text(text: str) -> str:
    """Lowercase, NFC-compose, collapse whitespace runs, trim."""
    lowered = unicodedata.normalize("NFC", text.lower())
    return _WS_RUN_RE.sub(" ", lowered).strip()


def _utf8_offsets(text: str) -> tuple[np.ndarray, np.ndarray]:
    """UTF-8 bytes of *text* plus the byte offset of each character."""
    data = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    cps = _kernels.codepoints(text)
    lengths = 1 + (cps >= 0x80).astype(np.int64) + (cps >= 0x800) + (cps >= 0x10000)
    offsets = np.zeros(len(text) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return data, offsets


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
    if dimension < 1:
        raise DimensionError(f"dimension must be >= 1, got {dimension}")
    normalized = normalize_text(text)
    if not normalized:
        raise EmptyTextError(f"text is empty after normalization: {text!r}")
    padded = f"#{normalized}#"
    data, offsets = _utf8_offsets(padded)
    counts = _kernels.trigram_counts(data, offsets, dimension)
    if not counts.any():
        counts = np.abs(_kernels.trigram_counts(data, offsets[:4], dimension))
    vector = counts.astype(np.float64)
    vector /= float(np.linalg.norm(vector))
    return vector


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
        return [embed_deterministic(t, self.dimension) for t in texts]


class RemoteEmbedder:
    """Client for the embedding service wire contract.

    POSTs ``{"texts": [...]}`` and expects ``{"vectors": [[...]...],
    "dimension": n}``. Requests are chunked (default 64 texts per call)
    and transient failures (connection errors, 5xx, 429) are retried with
    exponential backoff before raising ServiceError.
    """

    def __init__(
        self,
        url: str,
        batch_size: int = 64,
        max_retries: int = 3,
        retry_backoff: float = 1.0,
        timeout: float = 30.0,
        identifier: str = "remote",
        session: requests.Session | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.url = url
        self.batch_size = max(1, batch_size)
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.timeout = timeout
        self._identifier = identifier
        self._session = session or requests.Session()
        self._sleep = sleep

    @property
    def identifier(self) -> str:
        return self._identifier

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
                resp = self._session.post(self.url, json={"texts": chunk}, timeout=self.timeout)
                if resp.status_code == 429 or resp.status_code >= 500:
                    raise requests.HTTPError(f"HTTP {resp.status_code}")
            except requests.RequestException as exc:
                if attempt >= self.max_retries:
                    raise ServiceError(f"embedding service unreachable after {attempt} retries: {exc}") from exc
                self._sleep(self.retry_backoff * (2**attempt))
                attempt += 1
                continue
            if resp.status_code >= 400:
                raise ServiceError(f"embedding service rejected the request: HTTP {resp.status_code}")
            return self._parse_reply(resp, len(chunk))

    @staticmethod
    def _parse_reply(resp: requests.Response, expected: int) -> list[np.ndarray]:
        try:
            payload = resp.json()
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
    return hashlib.sha256(normalize_text(text).encode("utf-8")).hexdigest()


class EmbeddingCache:
    """Append-only vector cache keyed by (embedder id, normalized text).

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
    """Wrap any embedder with a persistent cache; misses are batched."""

    def __init__(self, inner, cache: EmbeddingCache):
        self.inner = inner
        self.cache = cache

    @property
    def identifier(self) -> str:
        return self.inner.identifier

    def embed_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
        misses: list[str] = []
        seen_keys: set[str] = set()
        for text in texts:
            key = _cache_key(text)
            if key not in seen_keys and self.cache.get(self.identifier, text) is None:
                seen_keys.add(key)
                misses.append(text)
        if misses:
            computed = self.inner.embed_batch(misses)
            if len(computed) != len(misses):
                raise ProtocolError(f"embedder returned {len(computed)} vectors for {len(misses)} texts")
            for text, vector in zip(misses, computed):
                self.cache.put(self.identifier, text, vector)
        return [self.cache.get(self.identifier, text) for text in texts]
