import json
import logging
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexiforge.embedding import (
    CachingEmbedder,
    DeterministicEmbedder,
    EmbeddingCache,
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

    def embed(self, text):
        self.calls += 1
        return embed_deterministic(text, self.inner.dimension)

    def embed_batch(self, texts):
        self.calls += len(texts)
        return self.inner.embed_batch(texts)


class TestEmbeddingCache:
    def test_put_then_get_identical(self, tmp_path):
        with EmbeddingCache(tmp_path / "cache.jsonl") as cache:
            vector = embed_deterministic("casa", 32)
            cache.put("det-32", "casa", vector)
            hit = cache.get("det-32", "casa")
            assert hit.tobytes() == vector.tobytes()

    def test_get_before_put_is_miss(self, tmp_path):
        cache = EmbeddingCache(tmp_path / "cache.jsonl")
        assert cache.get("det-32", "casa") is None

    def test_cache_persists_across_instances(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with EmbeddingCache(path) as cache:
            cache.put("det-32", "casa", embed_deterministic("casa", 32))
        reopened = EmbeddingCache(path)
        assert reopened.get("det-32", "casa") is not None

    def test_key_includes_embedder_id(self, tmp_path):
        cache = EmbeddingCache(tmp_path / "cache.jsonl")
        cache.put("a", "casa", np.ones(4))
        assert cache.get("b", "casa") is None

    def test_corrupt_record_skipped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        good = {"embedder": "e", "key": "k", "vector": [1.0, 2.0]}
        path.write_text(json.dumps(good) + "\nnot json at all\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            cache = EmbeddingCache(path)
        assert "corrupt" in caplog.text
        assert cache._memory  # the good record survived

    def test_warm_cache_avoids_recompute(self, tmp_path):
        counting = CountingEmbedder()
        cache_path = tmp_path / "cache.jsonl"
        texts = ["uno", "dos", "tres", "uno"]
        with EmbeddingCache(cache_path) as cache:
            warm = CachingEmbedder(counting, cache)
            warm.embed_batch(texts)
        first_calls = counting.calls
        assert first_calls == 3  # "uno" deduplicated by the cache

        with EmbeddingCache(cache_path) as cache:
            warm = CachingEmbedder(counting, cache)
            result = warm.embed_batch(texts)
        assert counting.calls == first_calls  # zero new calls
        assert len(result) == 4


class EmbedHandler(BaseHTTPRequestHandler):
    script: list[int] = []  # status codes to emit before succeeding
    calls = 0
    dimension = 8

    def do_POST(self):
        EmbedHandler.calls += 1
        length = int(self.headers.get("Content-Length", 0))
        texts = json.loads(self.rfile.read(length))["texts"]
        if EmbedHandler.script:
            status = EmbedHandler.script.pop(0)
            self.send_response(status)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        vectors = [[float(len(t))] * EmbedHandler.dimension for t in texts]
        data = json.dumps({"vectors": vectors, "dimension": EmbedHandler.dimension}).encode()
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
    yield f"http://127.0.0.1:{server.server_address[1]}/embed"
    server.shutdown()


class TestRemoteEmbedder:
    def test_order_and_arity(self, embed_server):
        remote = RemoteEmbedder(embed_server)
        vectors = remote.embed_batch(["a", "bb", "ccc"])
        assert [v[0] for v in vectors] == [1.0, 2.0, 3.0]

    def test_empty_list_no_calls(self, embed_server):
        remote = RemoteEmbedder(embed_server)
        assert remote.embed_batch([]) == []
        assert EmbedHandler.calls == 0

    def test_batching_130_texts_three_calls(self, embed_server):
        remote = RemoteEmbedder(embed_server, batch_size=64)
        texts = [f"t{i}" for i in range(130)]
        vectors = remote.embed_batch(texts)
        assert len(vectors) == 130
        assert EmbedHandler.calls == math.ceil(130 / 64) == 3

    def test_retries_transient_failure(self, embed_server):
        EmbedHandler.script = [503]
        remote = RemoteEmbedder(embed_server, max_retries=2, retry_backoff=0.0, sleep=lambda _: None)
        vectors = remote.embed_batch(["hola"])
        assert len(vectors) == 1
        assert EmbedHandler.calls == 2

    def test_service_error_after_retries(self, embed_server):
        EmbedHandler.script = [500, 500, 500]
        remote = RemoteEmbedder(embed_server, max_retries=2, retry_backoff=0.0, sleep=lambda _: None)
        with pytest.raises(ServiceError):
            remote.embed_batch(["hola"])

    def test_unreachable_service(self):
        remote = RemoteEmbedder("http://127.0.0.1:1/embed", max_retries=1, retry_backoff=0.0,
                                timeout=0.2, sleep=lambda _: None)
        with pytest.raises(ServiceError):
            remote.embed_batch(["hola"])


class _MismatchSession:
    def post(self, url, json=None, timeout=None):
        class Resp:
            status_code = 200

            @staticmethod
            def json():
                return {"vectors": [[1.0, 2.0]], "dimension": 2}

        return Resp()


class _ShrinkingSession:
    """Answers the first request with 512-wide vectors and later ones with 256-wide ones."""

    def __init__(self):
        self.calls = 0

    def post(self, url, json=None, timeout=None):
        self.calls += 1
        dimension = 512 if self.calls == 1 else 256
        payload = {"vectors": [[1.0] * dimension for _ in json["texts"]], "dimension": dimension}

        class Resp:
            status_code = 200

            @staticmethod
            def json():
                return payload

        return Resp()


class _ZeroSession:
    """Answers every text with an all-zero vector."""

    def post(self, url, json=None, timeout=None):
        payload = {"vectors": [[0.0, 0.0, 0.0] for _ in json["texts"]], "dimension": 3}

        class Resp:
            status_code = 200

            @staticmethod
            def json():
                return payload

        return Resp()


class TestRemoteProtocol:
    def test_zero_vector_is_protocol_error(self):
        remote = RemoteEmbedder("http://unused", session=_ZeroSession())
        with pytest.raises(ProtocolError, match="all-zero"):
            remote.embed_batch(["hola"])

    def test_count_mismatch_is_protocol_error(self):
        remote = RemoteEmbedder("http://unused", session=_MismatchSession())
        with pytest.raises(ProtocolError):
            remote.embed_batch(["a", "b"])

    def test_dimension_change_between_chunks_is_protocol_error(self):
        session = _ShrinkingSession()
        remote = RemoteEmbedder("http://unused", batch_size=2, session=session)
        with pytest.raises(ProtocolError, match="512 then 256"):
            remote.embed_batch(["a", "b", "c"])
        assert session.calls == 2


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

    def test_zero_vector_rejected_at_build(self):
        with pytest.raises(ZeroVectorError, match="'nada'"):
            VectorTable(_TableEmbedder({"algo": [1.0, 0.0], "nada": [0.0, 0.0]}), ["algo", "nada"])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionError):
            VectorTable(_TableEmbedder({"a": [1.0, 0.0], "b": [1.0, 0.0, 0.0]}), ["a", "b"])

    def test_vector_count_mismatch_rejected(self):
        class Short(_TableEmbedder):
            def embed_batch(self, texts):
                return super().embed_batch(texts)[:-1]

        with pytest.raises(ProtocolError):
            VectorTable(Short({"a": [1.0], "b": [1.0]}), ["a", "b"])
