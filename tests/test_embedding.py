import hashlib
import json
import logging
import math
import threading
from contextlib import closing
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexiforge import embedding
from lexiforge.embedding import (
    EMBED_CHUNK,
    CachingEmbedder,
    DeterministicEmbedder,
    RemoteEmbedder,
    VectorTable,
    embed_deterministic,
    normalize_text,
)
from lexiforge.exceptions import DimensionError, EmptyTextError, ProtocolError, ServiceError, ZeroVectorError

from _oracles import cosine_similarity, oracle_embed
from conftest import DATA_DIR


class TestCosineSimilarity:
    def test_identity(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0

    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_forty_five_degrees(self):
        # 1/sqrt(2), evaluated by hand
        value = cosine_similarity(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert abs(value - 0.70710678) < 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            cosine_similarity(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))

    def test_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            cosine_similarity(np.zeros(3), np.ones(3))

    def test_random_pair_properties(self):
        rng = np.random.default_rng(123)
        for _ in range(300):
            a = rng.normal(size=16)
            b = rng.normal(size=16)
            value = cosine_similarity(a, b)
            assert cosine_similarity(b, a) == value  # symmetry, exact
            assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9
            assert abs(cosine_similarity(a, a) - 1.0) < 1e-9
            k = float(rng.uniform(0.1, 9.0))
            assert abs(cosine_similarity(k * a, b) - value) < 1e-9


class TestNormalizeText:
    def test_collapses_whitespace_and_case(self):
        assert normalize_text("  De   MANERA\tlimitada \n") == "de manera limitada"

    def test_nfc_composition(self):
        assert normalize_text("mañana") == "mañana"


class TestEmbedDeterministic:
    def test_self_similarity(self):
        a = embed_deterministic("casa")
        b = embed_deterministic("casa")
        assert abs(cosine_similarity(a, b) - 1.0) < 1e-9
        assert a.tobytes() == b.tobytes()

    def test_unit_norm(self):
        for text in ("x", "de manera limitada", "ñandú 中文"):
            assert abs(np.linalg.norm(embed_deterministic(text)) - 1.0) < 1e-9

    def test_related_texts_score_higher_than_unrelated(self):
        related = cosine_similarity(
            embed_deterministic("de manera limitada"), embed_deterministic("de forma limitada")
        )
        unrelated = cosine_similarity(
            embed_deterministic("de manera limitada"), embed_deterministic("estrofa de cuatro versos")
        )
        assert related > unrelated

    def test_empty_text_raises(self):
        with pytest.raises(EmptyTextError):
            embed_deterministic("   \t ")

    def test_dimension_controls_length(self):
        assert embed_deterministic("casa", dimension=64).shape == (64,)

    def test_normalization_insensitivity(self):
        assert np.array_equal(embed_deterministic("  CASA  "), embed_deterministic("casa"))

    def test_cancellation_rescue_is_never_zero(self):
        # '𮪟2' at dimension 64: both trigram hashes share a bucket with
        # opposite signs, so the raw counts cancel; the fallback must kick in
        vector = embed_deterministic("𮪟2", 64)
        assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-12)
        assert np.count_nonzero(vector) == 1
        oracle = np.array(oracle_embed("𮪟2", 64), dtype=np.float64)
        assert vector.tobytes() == oracle.tobytes()

    def test_matches_oracle_bit_exactly(self):
        for text in ("casa", "que asalta", "instrumento musical de cuerda", "ñoño 🌲"):
            package = embed_deterministic(text, 128)
            oracle = np.array(oracle_embed(text, 128), dtype=np.float64)
            assert package.tobytes() == oracle.tobytes()

    @settings(max_examples=60)
    @given(st.text(min_size=1, max_size=30))
    def test_oracle_parity_on_random_text(self, text):
        try:
            package = embed_deterministic(text, 64)
        except EmptyTextError:
            return
        oracle = np.array(oracle_embed(normalize_text(text), 64), dtype=np.float64)
        assert package.tobytes() == oracle.tobytes()


class TestChunkedBatch:
    """``embed_batch`` hashes EMBED_CHUNK texts per kernel call; every row must equal the oracle's."""

    @staticmethod
    def assert_rows_match_oracle(texts, dimension):
        rows = DeterministicEmbedder(dimension).embed_batch(texts)
        assert len(rows) == len(texts)
        for text, row in zip(texts, rows):
            assert row.tobytes() == np.array(oracle_embed(text, dimension), dtype=np.float64).tobytes(), text

    def test_batch_longer_than_a_chunk_and_not_a_multiple(self):
        rng = np.random.default_rng(8)
        words = ["casa", "de", "manera", "limitada", "ñandú", "cigüeña", "árbol", "pingüino", "曲", "🌲"]
        texts = [" ".join(rng.choice(words, size=rng.integers(1, 9))) for _ in range(2 * EMBED_CHUNK + 37)]
        self.assert_rows_match_oracle(texts, 512)

    def test_cancelled_row_in_the_middle_of_a_chunk(self):
        texts = [f"texto {i}" for i in range(EMBED_CHUNK)]
        texts[EMBED_CHUNK // 2] = "𮪟2"  # every bucket cancels at dimension 64
        self.assert_rows_match_oracle(texts, 64)
        rows = DeterministicEmbedder(64).embed_batch(texts)
        assert np.count_nonzero(rows[EMBED_CHUNK // 2]) == 1

    def test_single_characters_and_astral_text(self):
        texts = ["a", "ñ", "中", "🌲", "𮪟", "😀😀", "a🌲b", "𝔘𝔫𝔦𝔠𝔬𝔡𝔢 𝔱𝔢𝔵𝔱", "x", "é"] * 3
        for dimension in (7, 64, 512):
            self.assert_rows_match_oracle(texts, dimension)

    def test_empty_text_anywhere_in_the_batch_raises(self):
        texts = ["casa"] * (EMBED_CHUNK + 3)
        texts[EMBED_CHUNK + 1] = "  \t "
        with pytest.raises(EmptyTextError):
            DeterministicEmbedder(64).embed_batch(texts)


class TestGoldenFile:
    def test_golden_vectors_match(self):
        golden = json.loads((DATA_DIR / "embed_golden.json").read_text(encoding="utf-8"))
        dimension = golden["dimension"]
        for text, expected in golden["vectors"].items():
            first = embed_deterministic(text, dimension)
            second = embed_deterministic(text, dimension)
            assert first.tobytes() == second.tobytes()  # two independent runs
            assert first.tobytes() == np.array(expected, dtype=np.float64).tobytes()

    def test_golden_strings_self_similarity(self):
        golden = json.loads((DATA_DIR / "embed_golden.json").read_text(encoding="utf-8"))
        dimension = golden["dimension"]
        for text in golden["vectors"]:
            first, second = embed_deterministic(text, dimension), embed_deterministic(text, dimension)
            assert abs(cosine_similarity(first, second) - 1.0) < 1e-9


class CountingEmbedder:
    def __init__(self, dimension=32):
        self.inner = DeterministicEmbedder(dimension)
        self.calls = 0

    @property
    def identifier(self):
        return self.inner.identifier

    def embed_batch(self, texts):
        self.calls += len(texts)
        return self.inner.embed_batch(texts)


def _record(text, vector, embedder="table"):
    """One cache file line in the established format."""
    key = hashlib.sha256(b"exact\0" + text.encode("utf-8")).hexdigest()
    return (json.dumps({"embedder": embedder, "key": key, "vector": vector}) + "\n").encode("utf-8")


# the one record a cold cache writes for "casa" → (0.1, -1/3, 1e-300, 2.0)
# under embedder id "table", byte for byte
CASA_RECORD = (
    b'{"embedder": "table", "key": "e2ba95c84b1c1268cf92745201869b693bfb52f3fc5098842e24356749ed2bdf", '
    b'"vector": [0.1, -0.3333333333333333, 1e-300, 2.0]}\n'
)


class TestEmbeddingCache:
    def test_put_then_get_identical(self, tmp_path):
        counting = CountingEmbedder()
        with closing(CachingEmbedder(counting, tmp_path / "cache.jsonl")) as cached:
            first = cached.embed_batch(["casa"])
            again = cached.embed_batch(["casa"])
        assert first[0].tobytes() == again[0].tobytes() == embed_deterministic("casa", 32).tobytes()
        assert counting.calls == 1

    def test_get_before_put_is_miss(self, tmp_path):
        counting = CountingEmbedder()
        with closing(CachingEmbedder(counting, tmp_path / "cache.jsonl")) as cached:
            cached.embed_batch(["casa"])
        assert counting.calls == 1

    def test_empty_batch_no_calls(self, tmp_path):
        table = _TableEmbedder({})
        with closing(CachingEmbedder(table, tmp_path / "cache.jsonl")) as cached:
            assert cached.embed_batch([]).shape == (0, 0)
        assert table.batches == []
        assert not (tmp_path / "cache.jsonl").exists()

    def test_cache_persists_across_instances(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with closing(CachingEmbedder(CountingEmbedder(), path)) as cached:
            cached.embed_batch(["casa"])
        counting = CountingEmbedder()
        with closing(CachingEmbedder(counting, path)) as reopened:
            assert reopened.embed_batch(["casa"])[0].tobytes() == embed_deterministic("casa", 32).tobytes()
        assert counting.calls == 0

    def test_key_includes_embedder_id(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with closing(CachingEmbedder(CountingEmbedder(32), path)) as cached:
            cached.embed_batch(["casa"])
        other = CountingEmbedder(16)
        with closing(CachingEmbedder(other, path)) as cached:
            assert cached.embed_batch(["casa"]).shape == (1, 16)
        assert other.calls == 1

    def test_corrupt_record_skipped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        for corrupt in (b"not json at all", b'{"embedder": "table", "key": "n", "vector": [NaN, 1.0]}', b"\xff\xfe"):
            path.write_bytes(_record("uno", [1.0, 2.0]) + corrupt + b"\n")
            caplog.clear()
            table = _TableEmbedder({})
            with caplog.at_level(logging.WARNING), closing(CachingEmbedder(table, path)) as cached:
                assert cached.embed_batch(["uno"]).tolist() == [[1.0, 2.0]], corrupt  # the good record survived
            assert "corrupt" in caplog.text, corrupt
            assert table.batches == [], corrupt

    def test_repeated_key_last_record_wins(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_bytes(_record("uno", [1.0, 2.0]) + _record("uno", [3.0, 4.0]))
        with closing(CachingEmbedder(_TableEmbedder({}), path)) as cached:
            assert cached.embed_batch(["uno"]).tolist() == [[3.0, 4.0]]

    @pytest.mark.parametrize(
        "torn",
        [b'{"embedder": "table", "ke', _record("tres", [5.0, 6.0]).rstrip(b"\n")],
        ids=["cut-record", "whole-record"],
    )
    def test_append_after_a_torn_last_line_starts_a_new_line(self, tmp_path, torn):
        # a crash mid-append leaves the file without its final newline
        path = tmp_path / "cache.jsonl"
        path.write_bytes(_record("uno", [1.0, 2.0]) + torn)
        with closing(CachingEmbedder(_TableEmbedder({"dos": [3.0, 4.0]}), path)) as cached:
            cached.embed_batch(["dos"])
        table = _TableEmbedder({})
        with closing(CachingEmbedder(table, path)) as reopened:
            assert reopened.embed_batch(["uno", "dos"]).tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert table.batches == []

    def test_record_bytes_are_pinned_and_flushed_before_return(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with closing(CachingEmbedder(_TableEmbedder({"casa": [0.1, -1 / 3, 1e-300, 2.0]}), path)) as cached:
            cached.embed_batch(["casa"])
            assert path.read_bytes() == CASA_RECORD

    def test_file_in_the_established_format_warms_with_no_inner_call(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_bytes(_record("uno", [9.0] * 4, embedder="other") + CASA_RECORD + _record("uno", [1.0] * 4))
        table = _TableEmbedder({})
        with closing(CachingEmbedder(table, path)) as cached:
            vectors = cached.embed_batch(["casa", "uno"])
        assert vectors.tolist() == [[0.1, -1 / 3, 1e-300, 2.0], [1.0] * 4]
        assert table.batches == []

    def test_warm_cache_avoids_recompute(self, tmp_path):
        counting = CountingEmbedder()
        cache_path = tmp_path / "cache.jsonl"
        texts = ["uno", "dos", "tres", "uno"]
        with closing(CachingEmbedder(counting, cache_path)) as warm:
            warm.embed_batch(texts)
        first_calls = counting.calls
        assert first_calls == 3  # "uno" deduplicated by the cache

        with closing(CachingEmbedder(counting, cache_path)) as warm:
            result = warm.embed_batch(texts)
        assert counting.calls == first_calls  # zero new calls
        assert len(result) == 4

    def test_cache_key_computed_once_per_text(self, tmp_path, monkeypatch):
        hashed = []
        key = embedding._cache_key
        monkeypatch.setattr(embedding, "_cache_key", lambda text: hashed.append(text) or key(text))
        texts = ["uno", "dos", "uno", "tres"]
        with closing(CachingEmbedder(CountingEmbedder(), tmp_path / "cache.jsonl")) as cached:
            cached.embed_batch(texts)  # cold
            assert hashed == texts
            hashed.clear()
            cached.embed_batch(texts)  # warm
        assert hashed == texts

    def test_rows_are_caller_owned(self, tmp_path):
        # VectorTable normalises the returned matrix in place
        with closing(CachingEmbedder(_TableEmbedder({"uno": [3.0, 4.0]}), tmp_path / "cache.jsonl")) as cached:
            cached.embed_batch(["uno", "uno"])[:] = 0.0
            assert cached.embed_batch(["uno"]).tolist() == [[3.0, 4.0]]

    def test_vector_count_mismatch_rejected(self, tmp_path):
        class Short(_TableEmbedder):
            def embed_batch(self, texts):
                return super().embed_batch(texts)[:-1]

        path = tmp_path / "cache.jsonl"
        with closing(CachingEmbedder(Short({"a": [1.0], "b": [1.0]}), path)) as cached, pytest.raises(ProtocolError):
            cached.embed_batch(["a", "b"])

    def test_texts_differing_in_case_keep_their_own_vectors(self, tmp_path):
        vectors = {"Casa.": [1.0, 0.0], "casa.": [0.0, 1.0]}
        for _ in range(2):  # cold, then warm from the file
            with closing(CachingEmbedder(_TableEmbedder(vectors), tmp_path / "cache.jsonl")) as embedder:
                cached = embedder.embed_batch(["Casa.", "casa."])
            assert [list(v) for v in cached] == [vectors["Casa."], vectors["casa."]]

    def test_record_keyed_on_the_normalised_text_misses(self, tmp_path):
        # cache files written before exact-text keys hold sha256(normalised text);
        # such a record may hold the vector of another spelling, so it must not hit
        path = tmp_path / "cache.jsonl"
        record = {"embedder": "table", "key": hashlib.sha256("casa.".encode()).hexdigest(), "vector": [1.0, 2.0]}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        table = _TableEmbedder({"casa.": [3.0, 4.0]})
        with closing(CachingEmbedder(table, path)) as cached:
            assert cached.embed_batch(["casa."]).tolist() == [[3.0, 4.0]]
        assert table.batches == [["casa."]]


class EmbedHandler(BaseHTTPRequestHandler):
    # one step per request, before the default replies: a status code to
    # fail with, or a function from the request's texts to the reply body
    script: list = []
    calls = 0
    dimension = 8
    # HTTP/1.1: a connection stays open after a reply unless the server
    # drops it; with drop_after_reply it does so without saying so
    protocol_version = "HTTP/1.1"
    drop_after_reply = False
    seen: list = []  # (client port, request target) of each request

    def do_POST(self):
        EmbedHandler.calls += 1
        EmbedHandler.seen.append((self.client_address[1], self.path))
        self.close_connection = EmbedHandler.drop_after_reply
        length = int(self.headers.get("Content-Length", 0))
        texts = json.loads(self.rfile.read(length))["texts"]
        step = EmbedHandler.script.pop(0) if EmbedHandler.script else None
        if isinstance(step, int):
            self.send_response(step)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        if step is None:
            payload = {"vectors": [[float(len(t))] * EmbedHandler.dimension for t in texts],
                       "dimension": EmbedHandler.dimension}
        else:
            payload = step(texts)
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def embed_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), EmbedHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    EmbedHandler.script = []
    EmbedHandler.calls = 0
    EmbedHandler.drop_after_reply = False
    EmbedHandler.seen = []
    yield f"http://127.0.0.1:{server.server_address[1]}/embed"
    server.shutdown()
    server.server_close()


class TestRemoteEmbedder:
    def test_order_and_arity(self, embed_server):
        with closing(RemoteEmbedder(embed_server)) as remote:
            vectors = remote.embed_batch(["a", "bb", "ccc"])
            assert [v[0] for v in vectors] == [1.0, 2.0, 3.0]

    def test_empty_list_no_calls(self, embed_server):
        with closing(RemoteEmbedder(embed_server)) as remote:
            assert remote.embed_batch([]).shape == (0, 0)
            assert EmbedHandler.calls == 0

    def test_batching_130_texts_three_calls(self, embed_server):
        with closing(RemoteEmbedder(embed_server, batch_size=64)) as remote:
            texts = [f"t{i}" for i in range(130)]
            vectors = remote.embed_batch(texts)
            assert len(vectors) == 130
            assert EmbedHandler.calls == math.ceil(130 / 64) == 3

    def test_retries_transient_failure(self, embed_server):
        EmbedHandler.script = [503]
        with closing(RemoteEmbedder(embed_server, max_retries=2, retry_backoff=0.0, sleep=lambda _: None)) as remote:
            vectors = remote.embed_batch(["hola"])
            assert len(vectors) == 1
            assert EmbedHandler.calls == 2

    def test_service_error_after_retries(self, embed_server):
        EmbedHandler.script = [500, 500, 500]
        with closing(RemoteEmbedder(embed_server, max_retries=2, retry_backoff=0.0, sleep=lambda _: None)) as remote:
            with pytest.raises(ServiceError):
                remote.embed_batch(["hola"])

    def test_chunks_share_one_connection(self, embed_server):
        with closing(RemoteEmbedder(embed_server, batch_size=64)) as remote:
            remote.embed_batch([f"t{i}" for i in range(130)])
        assert len(EmbedHandler.seen) == 3
        assert len({port for port, _ in EmbedHandler.seen}) == 1

    def test_connection_dropped_while_idle_is_reopened_without_a_retry(self, embed_server):
        EmbedHandler.drop_after_reply = True
        slept = []
        with closing(RemoteEmbedder(embed_server, batch_size=64, max_retries=0, sleep=slept.append)) as remote:
            assert len(remote.embed_batch([f"t{i}" for i in range(130)])) == 130
            assert len({port for port, _ in EmbedHandler.seen}) == EmbedHandler.calls == 3
            assert slept == []

    def test_non_ascii_path_is_percent_encoded(self, embed_server):
        with closing(RemoteEmbedder(embed_server + "/incrustación vectorial")) as remote:
            assert len(remote.embed_batch(["hola"])) == 1
            assert [path for _, path in EmbedHandler.seen] == ["/embed/incrustaci%C3%B3n%20vectorial"]

    def test_unreachable_service(self):
        remote = RemoteEmbedder("http://127.0.0.1:1/embed", max_retries=1, retry_backoff=0.0,
                                timeout=0.2, sleep=lambda _: None)
        with closing(remote), pytest.raises(ServiceError):
            remote.embed_batch(["hola"])


def _same_vector(value: float, dimension: int):
    """Reply body giving every text the vector (value, ..., value)."""
    return lambda texts: {"vectors": [[value] * dimension for _ in texts], "dimension": dimension}


class TestRemoteProtocol:
    def test_zero_vector_is_protocol_error(self, embed_server):
        EmbedHandler.script = [_same_vector(0.0, 3)]
        with closing(RemoteEmbedder(embed_server)) as remote, pytest.raises(ProtocolError, match="all-zero"):
            remote.embed_batch(["hola"])

    def test_count_mismatch_is_protocol_error(self, embed_server):
        EmbedHandler.script = [lambda texts: {"vectors": [[1.0, 2.0]], "dimension": 2}]
        with closing(RemoteEmbedder(embed_server)) as remote, pytest.raises(ProtocolError):
            remote.embed_batch(["a", "b"])

    @pytest.mark.parametrize(
        "reply",
        [
            lambda texts: {"vectors": [["x", 1.0] for _ in texts], "dimension": 2},
            lambda texts: {"vectors": 5, "dimension": 2},
            lambda texts: {"vectors": [[1.0, 2.0], [3.0]], "dimension": 2},
            lambda texts: {"vectors": [[1.0, 2.0]] * len(texts), "dimension": float("inf")},
        ],
        ids=["non-numeric", "not-a-list", "ragged", "infinite-dimension"],
    )
    def test_malformed_vectors_are_protocol_error(self, embed_server, reply):
        EmbedHandler.script = [reply]
        with closing(RemoteEmbedder(embed_server)) as remote, pytest.raises(ProtocolError, match="malformed|shape"):
            remote.embed_batch(["a", "b"])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_is_protocol_error(self, embed_server, value):
        EmbedHandler.script = [lambda texts: {"vectors": [[1.0, value] for _ in texts], "dimension": 2}]
        with closing(RemoteEmbedder(embed_server)) as remote, pytest.raises(ProtocolError, match="non-finite"):
            remote.embed_batch(["hola"])

    def test_dimension_change_between_chunks_is_protocol_error(self, embed_server):
        EmbedHandler.script = [_same_vector(1.0, 512), _same_vector(1.0, 256)]
        with closing(RemoteEmbedder(embed_server, batch_size=2)) as remote:
            with pytest.raises(ProtocolError, match="512 then 256"):
                remote.embed_batch(["a", "b", "c"])
        assert EmbedHandler.calls == 2

    @pytest.mark.parametrize("url", ["embed-service/embed", "http://[::1", "file:///dev/null"])
    def test_url_that_cannot_be_sent_to_is_service_error(self, url):
        with closing(RemoteEmbedder(url, max_retries=1, retry_backoff=0.0, sleep=lambda _: None)) as remote:
            with pytest.raises(ServiceError):
                remote.embed_batch(["hola"])


class _TableEmbedder:
    """Preset vectors by text; records each batch."""

    identifier = "table"

    def __init__(self, vectors):
        self.vectors = vectors
        self.batches = []

    def embed_batch(self, texts):
        self.batches.append(list(texts))
        return [np.asarray(self.vectors[t], dtype=np.float64) for t in texts]


class TestVectorTable:
    def test_one_sorted_distinct_batch(self):
        embedder = _TableEmbedder({"b": [3.0, 4.0], "a": [1.0, 0.0]})
        VectorTable(embedder, ["b", "a", "b"])
        assert embedder.batches == [["a", "b"]]

    def test_no_call_without_texts(self):
        embedder = _TableEmbedder({})
        VectorTable(embedder, [])
        assert embedder.batches == []

    def test_rows_are_unit_vectors_in_request_order(self):
        raw = {"a": [1.0, 0.0], "b": [3.0, 4.0]}
        embedder = _TableEmbedder(raw)
        table = VectorTable(embedder, raw)
        rows = table.rows(["b", "a", "b"])
        np.testing.assert_array_equal(rows, [[0.6, 0.8], [1.0, 0.0], [0.6, 0.8]])
        assert abs(float(rows[0] @ rows[1]) - cosine_similarity(raw["a"], raw["b"])) <= 1e-15
        assert raw["b"] == [3.0, 4.0]  # the embedder's own vectors are left alone

    @staticmethod
    def assert_rows_are_per_row_unit_vectors(embedder, texts):
        raw = dict(zip(texts, np.asarray(embedder.embed_batch(texts), dtype=np.float64)))
        rows = VectorTable(embedder, texts).rows(texts)
        for text, row in zip(texts, rows):
            assert row.tobytes() == (raw[text] / np.linalg.norm(raw[text])).tobytes(), text

    def test_deterministic_rows_match_single_vector_normalisation(self):
        rng = np.random.default_rng(17)
        words = ["casa", "de", "manera", "limitada", "ñandú", "cigüeña", "árbol", "que", "曲", "🌲", "cuerda"]
        texts = sorted({" ".join(rng.choice(words, size=rng.integers(1, 12))) for _ in range(400)})
        self.assert_rows_are_per_row_unit_vectors(DeterministicEmbedder(512), texts)

    def test_non_unit_rows_match_single_vector_normalisation(self):
        rng = np.random.default_rng(18)
        vectors = {f"t{i}": rng.normal(scale=rng.uniform(0.01, 100.0), size=384) for i in range(300)}
        self.assert_rows_are_per_row_unit_vectors(_TableEmbedder(vectors), sorted(vectors))

    def test_zero_vector_rejected_at_build(self):
        with pytest.raises(ZeroVectorError, match="'nada'"):
            VectorTable(_TableEmbedder({"algo": [1.0, 0.0], "nada": [0.0, 0.0]}), ["algo", "nada"])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionError):
            VectorTable(_TableEmbedder({"a": [1.0, 0.0], "b": [1.0, 0.0, 0.0]}), ["a", "b"])
        with pytest.raises(DimensionError):  # one number per text, not a vector
            VectorTable(_TableEmbedder({"a": 1.0, "b": 2.0}), ["a", "b"])

    def test_cached_vector_of_another_length_rejected(self, tmp_path):
        # a length-1 row would broadcast across the whole row if written unchecked
        table = _TableEmbedder({"uno": [1.0], "dos": [1.0, 2.0]})
        with closing(CachingEmbedder(table, tmp_path / "cache.jsonl")) as embedder:
            embedder.embed_batch(["uno"])
            with pytest.raises(DimensionError):
                VectorTable(embedder, ["uno", "dos"])

    def test_vector_count_mismatch_rejected(self):
        class Short(_TableEmbedder):
            def embed_batch(self, texts):
                return super().embed_batch(texts)[:-1]

        with pytest.raises(ProtocolError):
            VectorTable(Short({"a": [1.0], "b": [1.0]}), ["a", "b"])
