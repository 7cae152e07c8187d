"""Text embeddings for cosine scoring.

Two embedders share one contract (``identifier`` and ``embed_batch``,
which returns a caller-owned texts × dimension float64 array): a
bit-reproducible signed character-trigram hasher for offline evaluation
and tests, and a client for a remote neural embedding service for
full-fidelity runs. Evaluation embeds the texts of each block of keys
into a ``VectorTable`` and scores cosines as dot products of its rows;
``vector_tables`` fills the tables of a run of blocks, from one stream of
requests when the embedder has ``embed_blocks``, as the remote client does.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import logging
import struct
import time
import unicodedata
from contextlib import closing
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence

import numpy as np
import orjson

from . import _kernels
from ._http import TRANSPORT_ERRORS, JsonPoster, ordered_map, retry
from .exceptions import DimensionError, EmptyTextError, ProtocolError, ServiceError, ZeroVectorError

logger = logging.getLogger(__name__)


def _packed_rows(rows: list, dimension: int, code: str) -> np.ndarray:
    """*rows*, each of *dimension* values, packed one row at a time with the ``struct`` *code* and read as one array.

    *code* is ``q`` (int64) or ``d`` (float64), which numpy reads as the
    same type. ``struct`` takes each value as it is, where numpy's
    assignment from nested lists makes a Python float of each. A value the
    code does not take raises ``struct.error``: for ``q`` a float or an
    integer outside int64, for either a string, a list or a null. A boolean
    packs as 1 or 0.
    """
    pack = struct.Struct(f"<{dimension}{code}").pack
    return np.frombuffer(b"".join(itertools.starmap(pack, rows)), f"<{code}")


def normalize_text(text: str) -> str:
    """Lowercase, NFC-compose, collapse whitespace runs (``str.isspace`` characters), trim."""
    return " ".join(unicodedata.normalize("NFC", text.lower()).split())


#: Texts hashed per ``_kernels.trigram_counts`` call, which counts straight
#: into the chunk's rows of the result. Its scratch memory is a few arrays
#: of one 8-byte value per UTF-8 byte of the chunk (a 1.6 MiB peak for 256
#: texts of 100 characters), whatever the batch size.
EMBED_CHUNK = 256

#: Requests ``RemoteEmbedder`` keeps in flight, over at most as many kept-alive
#: connections. On perfbench's eval-remote-5k (a 2 ms + 0.05 ms/text service,
#: 2 vCPUs, every key block's requests in one stream) two lanes leave the
#: calling thread waiting on the service (median ``wall_s`` 0.98 s against
#: 0.76 s for four, seeds 3701-3706); four keep the service busy while that
#: thread decodes replies and scores blocks. With rows packed by ``struct``,
#: six lanes won 5 of 8 pairs against four but took a median 0.67 s against
#: 0.64 s (seeds 3481-3488, runs of either within 0.55-0.77 s), for 1.0 MB
#: more peak RSS.
EMBED_LANES = 4


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
    counts = DeterministicEmbedder(dimension).embed_batch([text])[0]
    return counts / np.linalg.norm(counts)


class VectorTable:
    """L2-normalised embeddings of a fixed set of texts: the sorted distinct texts and their matrix.

    ``vector_tables`` fills every table. The table is the one place a
    vector is normalised; a vector with a non-finite value or norm, or a
    zero vector, has no direction and is rejected. Each row is normalised
    on its own, so no score depends on which other texts share the table:
    evaluation builds one table per block of keys, and holds the vectors of
    one block at a time. A cosine is a dot product of two rows of
    ``matrix``; ``indices`` names the rows of a run of texts once, and a
    caller gathers them by index.
    """

    def __init__(self, texts: Sequence[str], vectors):
        self._rows = {text: row for row, text in enumerate(texts)}
        try:
            matrix = np.asarray(vectors, dtype=np.float64)
        except ValueError as exc:  # rows of different lengths
            raise DimensionError(f"vector shapes differ: {exc}") from exc
        if matrix.ndim != 2:
            raise DimensionError(f"embedder returned an array of shape {matrix.shape}, not texts × dimension")
        if len(matrix) != len(texts):
            raise ProtocolError(f"embedder returned {len(matrix)} vectors for {len(texts)} texts")
        # each row's dot product with itself, the kernel np.linalg.norm uses
        # on one vector, so every unit row is bit-identical to v / norm(v)
        with np.errstate(over="ignore"):  # a norm that overflows is rejected below
            norms = np.sqrt(matrix[:, None, :] @ matrix[:, :, None])[:, 0]
        # a NaN or infinite value makes its row's norm NaN or infinite
        if not np.isfinite(norms).all():
            text = texts[np.flatnonzero(~np.isfinite(norms))[0]]
            raise ProtocolError(f"embedder returned a vector with a non-finite value or norm for {text!r}")
        if not norms.all():
            raise ZeroVectorError(f"embedder returned a zero vector for {texts[np.flatnonzero(norms == 0.0)[0]]!r}")
        #: The unit vectors, one row per text in sorted order.
        self.matrix = np.divide(matrix, norms, out=matrix)

    def indices(self, texts: Sequence[str]) -> np.ndarray:
        """The row of each text in ``matrix``, in the given order."""
        return np.fromiter(map(self._rows.__getitem__, texts), dtype=np.intp, count=len(texts))


def vector_tables(embedder, items: Iterable, texts_of: Callable[..., Iterable[str]]) -> Iterator[tuple]:
    """``(item, VectorTable of texts_of(item))`` for every item, in order; the one place a table is filled.

    Each table's texts are sorted and de-duplicated before they are
    embedded, so no request depends on the order callers collected them
    in. An embedder with ``embed_blocks`` embeds every table's texts in one
    stream, so its lanes send the next item's texts while the caller uses
    this item's table; *texts_of* of the next item may then run before the
    caller is done with this one. Any other embedder gets one
    ``embed_batch`` call per table that has texts, made when the caller
    asks for that table. Drop each table before asking for the next, and
    no two are alive at once.
    """
    planned: collections.deque[tuple] = collections.deque()  # (item, its sorted texts), not yet handed out

    def text_lists() -> Iterator[list[str]]:
        for item in items:
            texts = sorted(set(texts_of(item)))
            planned.append((item, texts))
            yield texts

    embed_blocks = getattr(embedder, "embed_blocks", None)
    if embed_blocks is None:
        matrices = (embedder.embed_batch(texts) if texts else np.empty((0, 0)) for texts in text_lists())
    else:
        matrices = embed_blocks(text_lists())
    with closing(matrices):
        for matrix in matrices:
            item, texts = planned.popleft()
            table = VectorTable(texts, matrix)
            del matrix
            yield item, table
            del item, table  # before the next table is filled


class DeterministicEmbedder:
    def __init__(self, dimension: int = 512):
        self.dimension = dimension

    @property
    def identifier(self) -> str:
        # "counts": caches keyed on trigram-fnv1a-{dimension} hold unit vectors, which are not these rows
        return f"trigram-fnv1a-counts-{self.dimension}"

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """The signed trigram counts of every text, exact integers as float64, hashed ``EMBED_CHUNK`` texts at a time.

        Each row has the direction of ``embed_deterministic``'s vector;
        ``VectorTable`` normalises it.
        """
        if self.dimension < 1:
            raise DimensionError(f"dimension must be >= 1, got {self.dimension}")
        vectors = np.empty((len(texts), self.dimension))
        for start in range(0, len(texts), EMBED_CHUNK):
            chunk = texts[start : start + EMBED_CHUNK]
            normalized = list(map(normalize_text, chunk))
            if not all(normalized):
                raise EmptyTextError(f"text is empty after normalization: {chunk[normalized.index('')]!r}")
            padded = [f"#{text}#" for text in normalized]
            _kernels.trigram_counts(padded, self.dimension, out=vectors[start : start + len(chunk)])
        return vectors


class RemoteEmbedder:
    """Client for the embedding service wire contract.

    POSTs ``{"texts": [...]}`` and expects ``{"vectors": [[...]...],
    "dimension": n}``. Requests are chunked (default 64 texts per call)
    and sent through ``_http``: ``EMBED_LANES`` lanes share one poster's
    kept-alive connections, and transient failures (connection errors,
    5xx, 429) are retried before raising ServiceError. ``close`` closes
    every idle connection.
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
        self.batch_size = batch_size
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.timeout = timeout
        self.identifier = identifier
        self._sleep = sleep
        self._poster = JsonPoster(url, timeout)

    def close(self) -> None:
        self._poster.close()

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """One row per text; an empty batch, which sends nothing, has shape (0, 0)."""
        with closing(self.embed_blocks([texts])) as blocks:
            return next(blocks)

    def embed_blocks(self, text_lists: Iterable[Sequence[str]]) -> Iterator[np.ndarray]:
        """One matrix per text list, in order, all sent as one stream of requests; ``embed_batch`` of each list.

        The lanes post every list's chunks, no chunk spanning two lists,
        while this thread decodes the replies in order, each straight into
        its rows of its list's matrix. So the lanes send the next list's
        chunks while the caller works on this one's matrix; a list is read
        from *text_lists* when the lanes take up its first chunk. A list's
        matrix is allocated once the caller asks for it, after the one
        before was handed out. The first chunk to fail stops the chunks not
        yet sent; its error is raised when the caller asks for its list's
        matrix.
        """

        def chunks() -> Iterator[tuple[Sequence[str], int]]:
            for texts in text_lists:
                # an empty list is one chunk that sends nothing, so that it keeps its place in the replies
                for start in range(0, len(texts) or 1, self.batch_size):
                    yield texts, start

        def send(chunk: tuple[Sequence[str], int], stop) -> tuple[Sequence[str], int, bytes | None]:
            texts, start = chunk
            posted = list(texts[start : start + self.batch_size])
            if not posted:
                return texts, start, None
            return texts, start, retry(lambda: self._post(posted), self.max_retries, self.retry_backoff, self._sleep, stop)

        with closing(ordered_map(send, chunks(), EMBED_LANES)) as replies:
            for texts, start, body in replies:
                if not texts:
                    yield np.empty((0, 0))
                    continue
                rows, dimension = self._parse_reply(body, min(self.batch_size, len(texts) - start))
                if start == 0:
                    vectors = np.empty((len(texts), dimension))
                elif dimension != vectors.shape[1]:
                    raise ProtocolError(f"service changed dimension between chunks: {vectors.shape[1]} then {dimension}")
                self._copy_rows(rows, vectors[start : start + len(rows)])
                del rows  # a chunk's decoded lists are not kept while the caller works
                if start + self.batch_size >= len(texts):
                    yield vectors
                    del vectors  # before the next list's matrix is allocated

    def _post(self, chunk: list[str]) -> bytes:
        """The reply body to *chunk*; a failure raises ServiceError, retryable when it may pass."""
        try:
            status, body, retry_after = self._poster.post({"texts": chunk})
        except TRANSPORT_ERRORS as exc:
            raise ServiceError(f"embedding service unreachable: {exc}") from exc
        if status >= 400:  # a 429 or 5xx may pass
            raise ServiceError(f"embedding service answered HTTP {status}", status == 429 or status >= 500, retry_after)
        return body

    @staticmethod
    def _parse_reply(body: bytes, expected: int) -> tuple[list, int]:
        """The reply's vectors and dimension: *expected* lists of ``dimension`` values each.

        The shape is checked before any value is read, as a check on the
        service's reply: ``_copy_rows`` packs each row as exactly
        ``dimension`` values, so without it a row of another length would be
        reported as a value that is not a number, and a wrong row count
        would not fit the result.
        """
        try:
            payload = orjson.loads(body)
            vectors = payload["vectors"]
            dimension = payload["dimension"]
        except (ValueError, KeyError, TypeError) as exc:
            raise ProtocolError(f"malformed embedding service reply: {exc}") from exc
        if type(dimension) is not int:  # int() would take 512.9, "512" and true
            raise ProtocolError(f"malformed embedding service reply: dimension {dimension!r} is not an integer")
        if not (
            type(vectors) is list
            and len(vectors) == expected
            and all(type(row) is list and len(row) == dimension for row in vectors)
        ):
            raise ProtocolError(f"service returned vectors not of shape ({expected}, {dimension})")
        return vectors, dimension

    @staticmethod
    def _copy_rows(rows: list, out: np.ndarray) -> None:
        """Decode *rows*, every value a JSON number, into *out*, which has their shape, and check every value.

        An all-integer reply, as a quantised encoder sends, is packed as
        int64 and cast, which rounds as ``float(int)`` does; any other is
        packed as float64.
        """
        try:
            try:
                values = _packed_rows(rows, out.shape[1], "q")
            except struct.error:  # a float, an integer outside int64, or not a number
                values = _packed_rows(rows, out.shape[1], "d")
        except struct.error as exc:
            if any(value is None for row in rows for value in row):  # a null stands for a NaN
                raise ProtocolError("service returned a vector with a non-finite value") from exc
            raise ProtocolError(f"malformed embedding service reply: a value is not a number: {exc}") from exc
        out[...] = values.reshape(out.shape)
        if not np.isfinite(out).all():
            raise ProtocolError("service returned a vector with a non-finite value")
        if not out.any(axis=1).all():
            raise ProtocolError("service returned an all-zero vector")


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

    Corrupt records, among them an all-zero vector and one holding a
    string where a number belongs, are skipped with a warning and
    recomputed; the file is
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
                    obj = orjson.loads(line)
                    if obj["embedder"] != self.identifier:
                        continue
                    key = str(obj["key"])
                    values = obj["vector"]
                    vector = _packed_rows([values], len(values), "d")
                    # no embedder returns an all-zero row, and cosine is undefined for one
                    if not np.isfinite(vector).all() or not vector.any():
                        raise ValueError("vector must be finite and not all zero")
                except (ValueError, KeyError, TypeError, struct.error):  # orjson.JSONDecodeError is a ValueError
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
            if not np.isfinite(computed).all():  # the encoder would write it as null
                raise ProtocolError("embedder returned a vector with a non-finite value")
            if self._handle is None:
                self._handle = open(self.path, "a", encoding="utf-8")
                if self._torn:
                    self._handle.write("\n")
            for key, vector in zip(misses, computed):
                self._vectors[key] = vector
                record = {"embedder": self.identifier, "key": key, "vector": vector.tolist()}
                self._handle.write(orjson.dumps(record, option=orjson.OPT_APPEND_NEWLINE).decode())
            self._handle.flush()
        if not keys:
            return np.empty((0, 0))
        try:
            return np.stack([self._vectors[key] for key in keys])
        except ValueError as exc:  # a cached row of another length
            raise DimensionError(f"vector shapes differ: {exc}") from exc
