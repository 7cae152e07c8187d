import hashlib
import itertools
import json
import logging
import math
import re
import struct
import sys
import threading
import time
from contextlib import closing
from http.server import BaseHTTPRequestHandler

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from lexiforge import embedding
from lexiforge.embedding import (
    EMBED_CHUNK,
    EMBED_LANES,
    CachingEmbedder,
    DeterministicEmbedder,
    RemoteEmbedder,
    VectorTable,
    embed_deterministic,
    normalize_text,
    vector_tables,
)
from lexiforge.exceptions import DimensionError, EmptyTextError, ProtocolError, ServiceError, ZeroVectorError

from _oracles import cosine_similarity, oracle_counts, oracle_embed, oracle_normalize
from conftest import DATA_DIR, http_server, table_of


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
            assert row.tobytes() == np.array(oracle_counts(text, dimension), dtype=np.float64).tobytes(), text

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


#: The C0 controls (U+001C to U+001F and U+0009 to U+000D among them are
#: whitespace for ``str.split``), DEL and the noncharacters U+FDD0-U+FDEF:
#: characters that a text may hold and that no word of a definition does.
CONTROLS_AND_NONCHARACTERS = (*map(chr, range(0x00, 0x20)), "\x7f", *map(chr, range(0xFDD0, 0xFDF0)))


class TestBatchNormalizer:
    """Every text of an embedded chunk must normalise, and hash, as it would on its own."""

    @staticmethod
    def assert_matches_oracle(texts, dimension=64):
        assert [normalize_text(text) for text in texts] == [oracle_normalize(text) for text in texts]
        rows = DeterministicEmbedder(dimension).embed_batch(texts)
        for text, row in zip(texts, rows):
            assert row.tobytes() == np.array(oracle_counts(text, dimension), dtype=np.float64).tobytes(), repr(text)

    def test_leading_combining_mark(self):
        # a mark that starts a text stays a mark; it must not compose with the text before
        self.assert_matches_oracle(["e", "\u0301casa", "A", "\u0308\u0301u", "\u0301"])

    def test_final_sigma_at_either_end_of_a_text(self):
        self.assert_matches_oracle(["ΟΔΟΣ", "ΣΟΦΙΑ", "Σ", "ΑΣ", "ΣΑ", "ΑΣ'", "'ΣΑ", "Σ ΑΣ"])

    def test_lowercase_longer_than_the_text(self):
        self.assert_matches_oracle(["İstanbul", "xİ", "İ", "ﬁ İİ"])

    def test_whitespace_only_text_raises_naming_it(self):
        texts = ["casa", " \t\u3000\u2028 ", "mesa"]
        assert normalize_text(texts[1]) == ""
        with pytest.raises(EmptyTextError, match=re.escape(repr(texts[1]))):
            DeterministicEmbedder(64).embed_batch(texts)

    @pytest.mark.parametrize("char", CONTROLS_AND_NONCHARACTERS, ids=lambda c: f"U+{ord(c):04X}")
    def test_texts_holding_a_control_or_noncharacter(self, char):
        self.assert_matches_oracle([f"A{char}B", f"ΟΣ{char}", f"{char}ΣΑ", f" {char} x ", f"e{char}\u0301", "casa"])

    def test_chunk_holding_every_control_and_noncharacter(self):
        texts = [f"Texto {i} {char}Σ" for i, char in enumerate(CONTROLS_AND_NONCHARACTERS)] + ["ΟΔΟΣ", "\u0301x"]
        self.assert_matches_oracle(texts)
        self.assert_matches_oracle(["".join(CONTROLS_AND_NONCHARACTERS) + "ΑΣ", "ΣΑ"])

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_small_chunks(self, monkeypatch, chunk):
        monkeypatch.setattr(embedding, "EMBED_CHUNK", chunk)
        texts = ["ΟΔΟΣ", "\u0301casa", "İ", "  De   MANERA\tlimitada ", "a\x00b", "x", "🌲 Σ"]
        self.assert_matches_oracle(texts)

    @settings(max_examples=150)
    @given(
        st.lists(
            st.text(alphabet=st.sampled_from("aΣσΑİ '\u0301\u0308 \t\u3000ﬁ\x00\x01\x02") | st.characters(), max_size=8),
            max_size=8,
        )
    )
    def test_each_text_as_on_its_own(self, texts):
        assert [normalize_text(text) for text in texts] == [oracle_normalize(text) for text in texts]


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
    b'{"embedder":"table","key":"e2ba95c84b1c1268cf92745201869b693bfb52f3fc5098842e24356749ed2bdf",'
    b'"vector":[0.1,-0.3333333333333333,1e-300,2.0]}\n'
)


class TestEmbeddingCache:
    def test_put_then_get_identical(self, tmp_path):
        counting = CountingEmbedder()
        with closing(CachingEmbedder(counting, tmp_path / "cache.jsonl")) as cached:
            first = cached.embed_batch(["casa"])
            again = cached.embed_batch(["casa"])
        assert first[0].tobytes() == again[0].tobytes() == DeterministicEmbedder(32).embed_batch(["casa"])[0].tobytes()
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
            assert reopened.embed_batch(["casa"])[0].tobytes() == DeterministicEmbedder(32).embed_batch(["casa"])[0].tobytes()
        assert counting.calls == 0

    def test_unit_vectors_cached_under_the_old_identifier_are_not_read(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_bytes(_record("casa", embed_deterministic("casa", 32).tolist(), embedder="trigram-fnv1a-32"))
        counting = CountingEmbedder(32)
        with closing(CachingEmbedder(counting, path)) as cached:
            row = cached.embed_batch(["casa"])[0]
        assert counting.calls == 1
        assert row.tobytes() == DeterministicEmbedder(32).embed_batch(["casa"])[0].tobytes()

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
        corrupts = (
            b"not json at all\n",
            b'{"embedder": "table", "key": "n", "vector": [NaN, 1.0]}\n',
            b"\xff\xfe\n",
            _record("uno", [0.0, 0.0]),
        )
        for corrupt in corrupts:
            path.write_bytes(_record("uno", [1.0, 2.0]) + corrupt)
            caplog.clear()
            table = _TableEmbedder({})
            with caplog.at_level(logging.WARNING), closing(CachingEmbedder(table, path)) as cached:
                assert cached.embed_batch(["uno"]).tolist() == [[1.0, 2.0]], corrupt  # the good record survived
            assert "corrupt" in caplog.text, corrupt
            assert table.batches == [], corrupt

    def test_record_with_numeric_strings_is_recomputed(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        path.write_bytes(_record("uno", ["0.5", "1", 2, 3]))
        table = _TableEmbedder({"uno": [4.0, 5.0, 6.0, 7.0]})
        with caplog.at_level(logging.WARNING), closing(CachingEmbedder(table, path)) as cached:
            assert cached.embed_batch(["uno"]).tolist() == [[4.0, 5.0, 6.0, 7.0]]
        assert "corrupt" in caplog.text
        assert table.batches == [["uno"]]
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert [record["vector"] for record in records] == [["0.5", "1", 2, 3], [4.0, 5.0, 6.0, 7.0]]

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


def _length_vectors(texts):
    """Reply body giving each text the vector (len(text), ..., len(text))."""
    return {"vectors": [[float(len(t))] * EmbedHandler.dimension for t in texts], "dimension": EmbedHandler.dimension}


class EmbedHandler(BaseHTTPRequestHandler):
    # one step per request, taken in arrival order before ``reply`` answers
    # the rest: a status code to fail with (alone, or with a dict of headers
    # in a tuple), a reply body (an object, or the bytes to send as they
    # are), or a function from the request's texts to either
    script: list = []
    reply = _length_vectors
    calls = 0
    dimension = 8
    # HTTP/1.1: a connection stays open after a reply unless the server
    # drops it; with drop_after_reply it does so without saying so
    protocol_version = "HTTP/1.1"
    drop_after_reply = False
    seen: list = []  # (client port, request target) of each request
    in_flight = 0
    max_in_flight = 0
    connections = 0  # open now
    lock = threading.Lock()

    def setup(self):
        super().setup()
        with EmbedHandler.lock:
            EmbedHandler.connections += 1

    def finish(self):
        try:
            super().finish()
        finally:
            with EmbedHandler.lock:
                EmbedHandler.connections -= 1

    def do_POST(self):
        with EmbedHandler.lock:
            EmbedHandler.calls += 1
            EmbedHandler.in_flight += 1
            EmbedHandler.max_in_flight = max(EmbedHandler.max_in_flight, EmbedHandler.in_flight)
        try:
            self.answer()
        finally:
            with EmbedHandler.lock:
                EmbedHandler.in_flight -= 1

    def answer(self):
        EmbedHandler.seen.append((self.client_address[1], self.path))
        self.close_connection = EmbedHandler.drop_after_reply
        length = int(self.headers.get("Content-Length", 0))
        texts = json.loads(self.rfile.read(length))["texts"]
        step = EmbedHandler.script.pop(0) if EmbedHandler.script else EmbedHandler.reply
        if callable(step):
            step = step(texts)
        if isinstance(step, (int, tuple)):
            status, headers = step if isinstance(step, tuple) else (step, {})
            self.send_response(status)
            for name, value in headers.items():
                self.send_header(name, value)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        data = step if isinstance(step, bytes) else json.dumps(step).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def embed_server():
    with http_server(EmbedHandler) as url:
        EmbedHandler.script = []
        EmbedHandler.reply = _length_vectors
        EmbedHandler.calls = 0
        EmbedHandler.max_in_flight = 0
        EmbedHandler.drop_after_reply = False
        EmbedHandler.seen = []
        EmbedHandler.connections = 0
        yield f"{url}/embed"


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

    @pytest.mark.parametrize(("value", "wait"), [("0.2", 0.2), ("0", 0.05), ("Wed, 21 Oct 2026 07:28:00 GMT", 0.05)])
    def test_retry_waits_out_retry_after(self, embed_server, value, wait):
        EmbedHandler.script = [(429, {"Retry-After": value})]
        waits = []
        with closing(RemoteEmbedder(embed_server, max_retries=2, retry_backoff=0.05, sleep=waits.append)) as remote:
            assert len(remote.embed_batch(["hola"])) == 1
        assert waits == [wait]
        assert EmbedHandler.calls == 2

    def test_service_error_after_retries(self, embed_server):
        EmbedHandler.script = [500, 500, 500]
        with closing(RemoteEmbedder(embed_server, max_retries=2, retry_backoff=0.0, sleep=lambda _: None)) as remote:
            with pytest.raises(ServiceError):
                remote.embed_batch(["hola"])

    def test_calls_share_at_most_embed_lanes_connections(self, embed_server):
        with closing(RemoteEmbedder(embed_server, batch_size=1)) as remote:
            for call in range(2):
                remote.embed_batch([f"call{call}-{i}" for i in range(10)])
        assert len(EmbedHandler.seen) == 20
        assert len({port for port, _ in EmbedHandler.seen}) <= EMBED_LANES

    def test_chunks_overlap_on_at_most_embed_lanes_connections(self, embed_server):
        # the first EMBED_LANES requests are answered only once all of them
        # are in: overlap by construction, not by timing. A client sending
        # one request at a time breaks the barrier after its timeout.
        barrier = threading.Barrier(EMBED_LANES, timeout=5)
        arrived = itertools.count()

        def slow_reply(texts):
            if next(arrived) < EMBED_LANES:
                try:
                    barrier.wait()
                except threading.BrokenBarrierError:
                    return 500
            time.sleep(0.005)
            return _length_vectors(texts)

        EmbedHandler.reply = slow_reply
        texts = ["a" * (1 + i % 23) for i in range(30)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with closing(RemoteEmbedder(embed_server, batch_size=1, max_retries=0)) as remote:
                vectors = remote.embed_batch(texts)
        finally:
            sys.setswitchinterval(interval)
        assert vectors[:, 0].tolist() == [float(len(t)) for t in texts]
        assert EmbedHandler.max_in_flight == EMBED_LANES
        assert len({port for port, _ in EmbedHandler.seen}) <= EMBED_LANES

    def test_sends_at_most_two_chunks_per_lane_ahead_of_the_reply_it_waits_for(self, embed_server):
        # the first chunk's reply is held back until the other lanes have sent
        # every chunk the bound allows, and a little longer: a client without
        # the bound would send all 40 chunks while it waits
        ahead = 2 * EMBED_LANES
        sent_before_first_reply = []

        def hold_first(texts):
            if texts == ["t0"]:
                deadline = time.monotonic() + 5
                while EmbedHandler.calls < ahead and time.monotonic() < deadline:
                    time.sleep(0.001)
                time.sleep(0.1)  # room for a chunk past the bound to arrive
                sent_before_first_reply.append(EmbedHandler.calls)
            return _length_vectors(texts)

        EmbedHandler.reply = hold_first
        with closing(RemoteEmbedder(embed_server, batch_size=1)) as remote:
            vectors = remote.embed_batch([f"t{i}" for i in range(40)])
        assert len(vectors) == EmbedHandler.calls == 40
        assert sent_before_first_reply == [ahead]

    def test_rows_keep_input_order_when_later_chunks_answer_first(self, embed_server):
        texts = ["a" * n for n in range(1, 9)]
        with closing(RemoteEmbedder(embed_server, batch_size=len(texts))) as remote:
            one_chunk = remote.embed_batch(texts)

        def earlier_is_slower(chunk):
            time.sleep(0.004 * (len(texts) - len(chunk[0])))
            return _length_vectors(chunk)

        EmbedHandler.reply = earlier_is_slower
        with closing(RemoteEmbedder(embed_server, batch_size=1)) as remote:
            vectors = remote.embed_batch(texts)
        assert vectors[:, 0].tolist() == [float(n) for n in range(1, 9)]
        assert np.array_equal(vectors, one_chunk)

    def test_first_failure_stops_the_chunks_not_yet_sent(self, embed_server):
        def fail_first_chunk_last(texts):
            if texts == ["t0"]:  # later chunks fail while the first is still out
                time.sleep(0.2)
            return 500

        EmbedHandler.reply = fail_first_chunk_last
        with closing(RemoteEmbedder(embed_server, batch_size=1, max_retries=0)) as remote:
            with pytest.raises(ServiceError):
                remote.embed_batch([f"t{i}" for i in range(40)])
        assert 1 <= EmbedHandler.calls <= 2 * EMBED_LANES

    def test_lane_in_backoff_stops_when_another_chunk_fails_for_good(self, embed_server):
        posted = []

        def busy_then_rejected(texts):
            posted.append(texts[0])
            return 503 if texts == ["t0"] else 400

        EmbedHandler.reply = busy_then_rejected
        remote = RemoteEmbedder(embed_server, batch_size=1, max_retries=3, retry_backoff=0.5)
        with closing(remote), pytest.raises(ServiceError, match="HTTP 400"):
            remote.embed_batch(["t0", "t1"])
        assert posted.count("t0") <= 1  # not the 1 + 3 retries it would take alone

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


def _recording(reply=_length_vectors):
    """*reply*, recording the texts of every request in a list it returns as well."""
    posted = []

    def answer(texts):
        posted.append(texts)
        return reply(texts)

    return answer, posted


def _wait_until(condition, seconds=5.0):
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.001)
    return condition()


class TestEmbedBlocks:
    """``RemoteEmbedder.embed_blocks``: every block's chunks in one stream, one matrix per block in order."""

    def test_lanes_send_the_next_blocks_first_chunk_before_it_is_asked_for(self, embed_server):
        # the first block's reply is held until the second block's chunk is
        # in: a client that sent a block only once the one before was handed
        # out would wait on the hold until it gives up
        second_arrived = threading.Event()

        def hold_first_block(texts):
            if texts == ["a"]:
                second_arrived.wait(5)
            elif texts == ["bb"]:
                second_arrived.set()
            return _length_vectors(texts)

        EmbedHandler.reply = hold_first_block
        with closing(RemoteEmbedder(embed_server, batch_size=1)) as remote:
            with closing(remote.embed_blocks([["a"], ["bb"]])) as blocks:
                first = next(blocks)
                assert second_arrived.is_set()
                assert first[:, 0].tolist() == [1.0]
                assert next(blocks)[:, 0].tolist() == [2.0]
                assert next(blocks, None) is None
        assert EmbedHandler.calls == 2

    def test_empty_text_lists_give_empty_tables_and_send_nothing(self, embed_server):
        EmbedHandler.reply, posted = _recording()
        text_lists = [[], ["a", "bb"], [], [], ["ccc"], []]
        with closing(RemoteEmbedder(embed_server, batch_size=64)) as remote:
            matrices = list(remote.embed_blocks(text_lists))
            tables = list(vector_tables(remote, text_lists, lambda texts: texts))
        assert [matrix.shape for matrix in matrices] == [(0, 0), (2, 8), (0, 0), (0, 0), (1, 8), (0, 0)]
        assert [item for item, _ in tables] == text_lists
        assert [table.matrix.shape for _, table in tables] == [(0, 0), (2, 8), (0, 0), (0, 0), (1, 8), (0, 0)]
        assert sorted(posted) == sorted([["a", "bb"], ["ccc"]] * 2)

    def test_failing_chunk_raises_when_its_block_is_reached(self, embed_server):
        # the second block's chunk fails for good once every chunk of the
        # first block is in, while their replies are still held: the first
        # block still comes out whole
        failed = threading.Event()

        def fail_second_block(texts):
            if texts == ["dddd"]:
                _wait_until(lambda: EmbedHandler.calls == 4)
                failed.set()
                return 400
            failed.wait(5)
            time.sleep(0.05)  # room for the client to read the failure first
            return _length_vectors(texts)

        EmbedHandler.reply = fail_second_block
        with closing(RemoteEmbedder(embed_server, batch_size=1, max_retries=0)) as remote:
            with closing(remote.embed_blocks([["a", "bb", "ccc"], ["dddd"]])) as blocks:
                assert next(blocks)[:, 0].tolist() == [1.0, 2.0, 3.0]
                with pytest.raises(ServiceError, match="HTTP 400"):
                    next(blocks)
        assert failed.is_set()

    @pytest.mark.parametrize("leave", ["zero-vector", "close"])
    def test_leaving_early_sends_nothing_more_and_leaves_no_socket_open(self, embed_server, leave):
        zero = _same_vector(0.0, EmbedHandler.dimension)
        EmbedHandler.reply = lambda texts: zero(texts) if texts == ["t0"] and leave == "zero-vector" else _length_vectors(texts)
        remote = RemoteEmbedder(embed_server, batch_size=1, max_retries=0)
        blocks = remote.embed_blocks([[f"t{i}"] for i in range(40)])
        try:
            if leave == "zero-vector":
                with pytest.raises(ProtocolError, match="all-zero"):
                    next(blocks)
            else:
                next(blocks)
            blocks.close()
            sent = EmbedHandler.calls
            assert 1 <= sent <= 1 + 2 * EMBED_LANES
            time.sleep(0.1)
            assert EmbedHandler.calls == sent
        finally:
            remote.close()
        assert _wait_until(lambda: EmbedHandler.connections == 0)

    def test_each_block_sends_the_chunks_embed_batch_sends(self, embed_server):
        text_lists = [[f"b{block}-{'x' * i}" for i in range(size)] for block, size in enumerate([5, 0, 3, 7, 1, 2])]
        EmbedHandler.reply, streamed = _recording()
        with closing(RemoteEmbedder(embed_server, batch_size=2)) as remote:
            matrices = list(remote.embed_blocks(text_lists))
        EmbedHandler.reply, batched = _recording()
        with closing(RemoteEmbedder(embed_server, batch_size=2)) as remote:
            expected = [remote.embed_batch(texts) for texts in text_lists]
        assert len(streamed) == len(batched) == 3 + 2 + 4 + 1 + 1
        assert sorted(streamed) == sorted(batched)
        assert all(np.array_equal(got, want) for got, want in zip(matrices, expected, strict=True))


def _same_vector(value: float, dimension: int):
    """Reply body giving every text the vector (value, ..., value)."""
    return lambda texts: {"vectors": [[value] * dimension for _ in texts], "dimension": dimension}


# JSON numbers as orjson reads them: integers up to the greatest uint64, so
# past int64 too, which sends a reply to the float pass as a float does
_INT64S = st.integers(-(2**63), 2**63 - 1)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_NUMBERS = st.one_of(_INT64S, st.integers(-(2**63), 2**64 - 1), _FLOATS)


def _replies(dimension):
    """Replies of up to 4 rows of *dimension* values: rows of integers, of floats, or of both."""
    row = st.one_of(*(st.lists(values, min_size=dimension, max_size=dimension) for values in (_INT64S, _FLOATS, _NUMBERS)))
    return st.lists(row, min_size=1, max_size=4)


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
            lambda texts: {"vectors": [[1.0] for _ in texts], "dimension": 2},
            lambda texts: {"vectors": [[[1.0], [2.0]] for _ in texts], "dimension": 2},
            # each with rows of the length int() would make of the dimension
            lambda texts: {"vectors": [[1.0, 2.0] for _ in texts], "dimension": 2.5},
            lambda texts: {"vectors": [[1.0, 2.0] for _ in texts], "dimension": "2"},
            lambda texts: {"vectors": [[1.0] for _ in texts], "dimension": True},
            lambda texts: {"vectors": [["0.5", 1.0] for _ in texts], "dimension": 2},
        ],
        ids=[
            "non-numeric", "not-a-list", "ragged", "infinite-dimension", "rows-too-short", "nested-values",
            "float-dimension", "string-dimension", "boolean-dimension", "numeric-string",
        ],
    )
    def test_malformed_vectors_are_protocol_error(self, embed_server, reply):
        EmbedHandler.script = [reply]
        with closing(RemoteEmbedder(embed_server)) as remote, pytest.raises(ProtocolError, match="malformed|shape"):
            remote.embed_batch(["a", "b"])

    # NaN, Infinity and a number past the largest double are not JSON
    # (RFC 8259): the reply does not parse. A null parses, reads as NaN, and
    # fails the finiteness check.
    @pytest.mark.parametrize(
        ("token", "message"),
        [
            ("NaN", "malformed"),
            ("Infinity", "malformed"),
            ("-Infinity", "malformed"),
            ("1e400", "malformed"),
            ("-1e400", "malformed"),
            ("null", "non-finite"),
        ],
    )
    def test_non_finite_value_is_protocol_error(self, embed_server, token, message):
        EmbedHandler.script = [f'{{"vectors": [[1.0, {token}]], "dimension": 2}}'.encode()]
        with closing(RemoteEmbedder(embed_server)) as remote, pytest.raises(ProtocolError, match=message):
            remote.embed_batch(["hola"])

    @pytest.mark.parametrize(
        "text",
        [
            "0.1",
            "1e23",
            "5e-324",  # the least subnormal
            "2.2250738585072011e-308",  # just below the least normal
            "1.7976931348623157e308",  # the greatest double
            "-0.0",
            "0.30000000000000004",  # 17 significant digits
            "1.234567890123456789012345e-5",  # 25 significant digits
            # JSON integers decode as float(int(text)); -0 is the integer 0
            "0",
            "-0",
            "9007199254740993",  # 2**53 + 1, between two doubles: rounds to even
            "9223372036854775807",  # the greatest int64
            "-9223372036854775808",  # the least int64
            "9223372036854775808",  # past int64
            "18446744073709551615",  # the greatest uint64
        ],
    )
    def test_reply_values_decode_to_the_nearest_double(self, embed_server, text):
        integer = text.lstrip("-").isdigit()  # sent in a row of integers, which is packed as int64 when it fits
        EmbedHandler.script = [f'{{"vectors": [[{"1" if integer else "1.0"}, {text}]], "dimension": 2}}'.encode()]
        with closing(RemoteEmbedder(embed_server)) as remote:
            value = remote.embed_batch(["hola"])[0, 1]
        assert struct.pack("<d", value) == struct.pack("<d", float(int(text)) if integer else float(text))

    @seed(34)
    @settings(max_examples=150)
    @given(st.integers(1, 6).flatmap(_replies))
    def test_copy_rows_decodes_each_value_as_float_of_it(self, rows):
        out = np.full((len(rows), len(rows[0])), np.nan)
        expected = [[float(value) for value in row] for row in rows]
        if not all(any(row) for row in expected):
            with pytest.raises(ProtocolError, match="all-zero"):
                RemoteEmbedder._copy_rows(rows, out)
            return
        RemoteEmbedder._copy_rows(rows, out)
        assert [struct.pack("<d", value) for value in out.ravel()] == [
            struct.pack("<d", value) for row in expected for value in row
        ]

    def test_zero_dimension_is_protocol_error(self, embed_server):
        EmbedHandler.script = [lambda texts: {"vectors": [[] for _ in texts], "dimension": 0}]
        with closing(RemoteEmbedder(embed_server)) as remote, pytest.raises(ProtocolError):
            remote.embed_batch(["a", "b"])

    def test_dimension_change_between_chunks_is_protocol_error(self, embed_server):
        EmbedHandler.reply = lambda texts: _same_vector(1.0, 512 if texts == ["a", "b"] else 256)(texts)
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
        table_of(embedder, ["b", "a", "b"])
        assert embedder.batches == [["a", "b"]]

    def test_no_call_without_texts(self):
        embedder = _TableEmbedder({})
        table_of(embedder, [])
        assert embedder.batches == []

    def test_rows_are_unit_vectors_in_request_order(self):
        raw = {"a": [1.0, 0.0], "b": [3.0, 4.0]}
        embedder = _TableEmbedder(raw)
        table = table_of(embedder, raw)
        rows = table.matrix[table.indices(["b", "a", "b"])]
        np.testing.assert_array_equal(rows, [[0.6, 0.8], [1.0, 0.0], [0.6, 0.8]])
        assert abs(float(rows[0] @ rows[1]) - cosine_similarity(raw["a"], raw["b"])) <= 1e-15
        assert raw["b"] == [3.0, 4.0]  # the embedder's own vectors are left alone

    @staticmethod
    def assert_rows_are_per_row_unit_vectors(embedder, texts):
        raw = dict(zip(texts, np.asarray(embedder.embed_batch(texts), dtype=np.float64)))
        table = table_of(embedder, texts)
        rows = table.matrix[table.indices(texts)]
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
            table_of(_TableEmbedder({"algo": [1.0, 0.0], "nada": [0.0, 0.0]}), ["algo", "nada"])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_vector_rejected_at_build(self, value):
        with pytest.raises(ProtocolError, match="non-finite.*'roto'"):
            table_of(_TableEmbedder({"bien": [1.0, 0.0], "roto": [value, 1.0]}), ["bien", "roto"])

    def test_vector_whose_norm_overflows_rejected_at_build(self):
        # finite values whose squares sum past the largest float: the unit row would be all zero
        with pytest.raises(ProtocolError, match="'grande'"):
            table_of(_TableEmbedder({"grande": [1e200, 1e200]}), ["grande"])

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_cache_writes_no_non_finite_vector(self, tmp_path, value):
        path = tmp_path / "cache.jsonl"
        with closing(CachingEmbedder(_TableEmbedder({"roto": [value, 1.0]}), path)) as cached:
            with pytest.raises(ProtocolError, match="non-finite"):
                cached.embed_batch(["roto"])
        assert not path.exists() or path.read_bytes() == b""

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionError):
            table_of(_TableEmbedder({"a": [1.0, 0.0], "b": [1.0, 0.0, 0.0]}), ["a", "b"])
        with pytest.raises(DimensionError):  # one number per text, not a vector
            table_of(_TableEmbedder({"a": 1.0, "b": 2.0}), ["a", "b"])

    def test_cached_vector_of_another_length_rejected(self, tmp_path):
        # a length-1 row would broadcast across the whole row if written unchecked
        table = _TableEmbedder({"uno": [1.0], "dos": [1.0, 2.0]})
        with closing(CachingEmbedder(table, tmp_path / "cache.jsonl")) as embedder:
            embedder.embed_batch(["uno"])
            with pytest.raises(DimensionError):
                table_of(embedder, ["uno", "dos"])

    def test_vector_count_mismatch_rejected(self):
        class Short(_TableEmbedder):
            def embed_batch(self, texts):
                return super().embed_batch(texts)[:-1]

        with pytest.raises(ProtocolError):
            table_of(Short({"a": [1.0], "b": [1.0]}), ["a", "b"])
