"""Text embeddings for cosine scoring.

Two embedders share one contract (``identifier`` and ``embed_batch``,
which returns a caller-owned texts × dimension float64 array): a
bit-reproducible signed character-trigram hasher for offline evaluation
and tests, and a client for a remote neural embedding service for
full-fidelity runs. Evaluation embeds the texts of each block of keys
into a ``VectorTable`` and scores cosines as dot products of its rows.
"""

from __future__ import annotations

import collections
import hashlib
import http.client
import json
import logging
import queue
import threading
import time
import unicodedata
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import IO, Callable, Iterable, Sequence

import numpy as np

from . import _kernels
from ._http import TRANSPORT_ERRORS, JsonPoster
from .exceptions import DimensionError, EmptyTextError, ProtocolError, ServiceError, ZeroVectorError

logger = logging.getLogger(__name__)

#: Code points that can join the texts of a chunk into one string for
#: ``normalize_texts``: the C0 controls that are not whitespace (U+001C to
#: U+001F are, for ``str.split`` as for ``\s``), DEL and the noncharacters
#: U+FDD0-U+FDEF. None is cased or case-ignorable, so a final sigma next to
#: one lowercases as at the end of a text; none has a decomposition or
#: takes part in a composition, so NFC neither changes one nor composes
#: across it.
SEPARATORS = (
    *map(chr, range(0x00, 0x09)),
    *map(chr, range(0x0E, 0x1C)),
    "\x7f",
    *map(chr, range(0xFDD0, 0xFDF0)),
)


def normalize_texts(texts: Sequence[str]) -> list[str]:
    """``normalize_text`` of every text, normalising the texts as one joined string.

    The texts are joined with the first ``SEPARATORS`` code point that none
    of them holds, lowercased, NFC-composed and whitespace-collapsed in one
    pass, then split and trimmed. When every separator occurs somewhere,
    each half of the texts is normalised on its own; one text needs none.
    Whitespace is every character for which ``str.isspace`` holds.
    """
    if len(texts) < 2:
        return [" ".join(unicodedata.normalize("NFC", text.lower()).split()) for text in texts]
    joined = "".join(texts)
    separator = next((candidate for candidate in SEPARATORS if candidate not in joined), None)
    if separator is None:
        half = len(texts) // 2
        return normalize_texts(texts[:half]) + normalize_texts(texts[half:])
    lowered = unicodedata.normalize("NFC", separator.join(texts).lower())
    # a whitespace run never spans a separator; one that starts or ends a
    # text collapses to a space beside it, which the strip removes
    return [piece.strip() for piece in " ".join(lowered.split()).split(separator)]


def normalize_text(text: str) -> str:
    """Lowercase, NFC-compose, collapse whitespace runs, trim."""
    return normalize_texts([text])[0]


#: Texts hashed per ``_kernels.trigram_counts`` call. The count block of a
#: chunk is ``EMBED_CHUNK`` × dimension float64 values (1 MiB at 512 dims),
#: so hashing a batch of any size needs no more scratch memory than that.
EMBED_CHUNK = 256

#: Requests ``RemoteEmbedder`` keeps in flight, one kept-alive connection
#: each. Two keep a 2 ms + 0.05 ms/text service busy while the calling
#: thread parses the last reply; one left it idle, three or four were no
#: faster.
EMBED_LANES = 2


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
    Each row is normalised on its own, so no score depends on which other
    texts share the table: evaluation builds one table per block of keys,
    and holds the vectors of one block at a time.
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
            chunk = texts[start : start + EMBED_CHUNK]
            normalized = normalize_texts(chunk)
            if not all(normalized):
                raise EmptyTextError(f"text is empty after normalization: {chunk[normalized.index('')]!r}")
            counts = _kernels.trigram_counts([f"#{text}#" for text in normalized], self.dimension)
            # integer-valued counts: every sum of squares, so every row's norm, is exact
            np.divide(counts, np.linalg.norm(counts, axis=1, keepdims=True), out=vectors[start : start + len(chunk)])
        return vectors


class RemoteEmbedder:
    """Client for the embedding service wire contract.

    POSTs ``{"texts": [...]}`` and expects ``{"vectors": [[...]...],
    "dimension": n}``. Requests are chunked (default 64 texts per call)
    and transient failures (connection errors, 5xx, 429) are retried with
    exponential backoff before raising ServiceError. The chunks go out
    over ``EMBED_LANES`` lanes, each with its own connection kept open
    across chunks and calls, so the service sees up to that many requests
    at once; a 429 it answers to them is retried like any other. The first
    chunk to fail stops the chunks not yet sent. One ``embed_batch`` runs
    at a time per embedder; ``close`` closes every lane's connection.
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
        self._lanes = [JsonPoster(url, timeout) for _ in range(EMBED_LANES)]
        self._idle: queue.SimpleQueue[JsonPoster] = queue.SimpleQueue()
        for poster in self._lanes:
            self._idle.put(poster)

    @property
    def identifier(self) -> str:
        return self._identifier

    def close(self) -> None:
        for poster in self._lanes:
            poster.close()

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """One row per text; an empty batch, which sends nothing, has shape (0, 0).

        The lanes post chunks while this thread parses the replies in chunk
        order and copies each into the result. No more than
        ``2 * EMBED_LANES`` chunks are sent ahead of the one being parsed,
        so replies never pile up however long the batch.
        """
        if not texts:
            return np.empty((0, 0))
        starts = range(0, len(texts), self.batch_size)
        ahead = 2 * EMBED_LANES
        stop = threading.Event()

        def send(start: int) -> bytes | None:
            return self._send(list(texts[start : start + self.batch_size]), stop)

        with ThreadPoolExecutor(EMBED_LANES) as pool:
            try:
                replies = collections.deque(pool.submit(send, start) for start in starts[:ahead])
                for index, start in enumerate(starts):
                    body = replies.popleft().result()
                    if index + ahead < len(starts):
                        replies.append(pool.submit(send, starts[index + ahead]))
                    if stop.is_set():
                        continue  # a chunk failed: its error is raised when the loop reaches it
                    rows = self._parse_reply(body, min(self.batch_size, len(texts) - start))
                    if start == 0:
                        vectors = np.empty((len(texts), rows.shape[1]))
                    elif rows.shape[1] != vectors.shape[1]:
                        raise ProtocolError(f"service changed dimension between chunks: {vectors.shape[1]} then {rows.shape[1]}")
                    vectors[start : start + len(rows)] = rows
            finally:
                stop.set()  # chunks still queued return without sending
        return vectors

    def _send(self, chunk: list[str], stop: threading.Event) -> bytes | None:
        """The reply body to *chunk*, posted over an idle lane, or None once *stop* is set."""
        poster = self._idle.get()
        try:
            return self._call(poster, chunk, stop)
        except BaseException:
            stop.set()
            raise
        finally:
            self._idle.put(poster)

    def _call(self, poster: JsonPoster, chunk: list[str], stop: threading.Event) -> bytes | None:
        attempt = 0
        while not stop.is_set():
            try:
                status, body = poster.post({"texts": chunk})
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
            return body
        return None

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
