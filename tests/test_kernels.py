import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexiforge import _kernels

from _oracles import oracle_levenshtein, oracle_trigram_counts

WORDS = st.text(alphabet="abcdeñáéíóú 中🌲", min_size=0, max_size=14)


class TestLevenshtein:
    @settings(max_examples=80)
    @given(WORDS, WORDS)
    def test_matches_reference_dp(self, a, b):
        got = _kernels.levenshtein(_kernels.codepoints(a), _kernels.codepoints(b))
        assert got == oracle_levenshtein(a, b)

    def test_empty_sides(self):
        assert _kernels.levenshtein(_kernels.codepoints(""), _kernels.codepoints("abc")) == 3
        assert _kernels.levenshtein(_kernels.codepoints("ab"), _kernels.codepoints("")) == 2


class TestLevenshteinMany:
    @settings(max_examples=80)
    @given(st.lists(st.tuples(WORDS, WORDS), max_size=12))
    def test_matches_reference_dp(self, pairs):
        queries, texts = [a for a, _ in pairs], [b for _, b in pairs]
        got = _kernels.levenshtein_many(queries, texts)
        assert got.dtype == np.int64
        assert got.tolist() == [oracle_levenshtein(a, b) for a, b in pairs]

    def test_empty_sides(self):
        got = _kernels.levenshtein_many(["", "ab", "", "中🌲"], ["abc", "", "", "中🌲"])
        assert got.tolist() == [3, 2, 0, 0]

    def test_no_pairs(self):
        assert _kernels.levenshtein_many([], []).tolist() == []

    def test_pairs_must_match_up(self):
        with pytest.raises(ValueError):
            _kernels.levenshtein_many(["a"], [])

    @pytest.mark.parametrize("length", [63, 64, 65])
    def test_queries_at_the_word_size(self, monkeypatch, length):
        dp_calls = []
        dp = _kernels.levenshtein

        def counted(a, b):
            dp_calls.append((a, b))
            return dp(a, b)

        monkeypatch.setattr(_kernels, "levenshtein", counted)
        query = "".join("abcñ🌲"[i % 5] for i in range(length))
        texts = [query, query[1:], "x" + query, query[:-2] + "zz", "", query[::-1], query[: length // 2]]
        got = _kernels.levenshtein_many([query] * len(texts), texts)
        assert got.tolist() == [oracle_levenshtein(query, text) for text in texts]
        # only a query longer than one uint64 word goes to the DP
        assert len(dp_calls) == (len(texts) if length > _kernels.WORD_BITS else 0)

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_small_chunks_and_mixed_query_lengths(self, monkeypatch, chunk):
        monkeypatch.setattr(_kernels, "LEVENSHTEIN_CHUNK", chunk)
        long = "ab" * 40
        queries = ["casa", long, "", "cosa", long[:-1] + "c", "ñandú", "a"]
        texts = ["cosa", long[1:], "xyz", "", long, "nandu", "b" * 70]
        got = _kernels.levenshtein_many(queries, texts)
        assert got.tolist() == [oracle_levenshtein(a, b) for a, b in zip(queries, texts)]


class TestCodepoints:
    def test_empty(self):
        assert _kernels.codepoints("").size == 0

    def test_multibyte(self):
        cps = _kernels.codepoints("a中🌲")
        assert cps.tolist() == [ord("a"), ord("中"), ord("🌲")]


class TestTrigramCounts:
    @settings(max_examples=80)
    @given(st.lists(st.text(alphabet="abcñá 中🌲𮪟2", min_size=1, max_size=14), min_size=1, max_size=6))
    def test_signed_counts_are_the_oracle_integers(self, texts):
        counts = _kernels.trigram_counts([f"#{text}#" for text in texts], 64)
        assert counts.dtype == np.float64 and counts.shape == (len(texts), 64)
        for text, row in zip(texts, counts):
            expected = oracle_trigram_counts(text, 64)
            if any(expected):  # a cancelled row is the embedder's fallback, tested there
                assert row.tolist() == expected

    def test_cancelled_row_falls_back_to_its_first_bucket(self):
        counts = _kernels.trigram_counts(["#𮪟2#", "#casa#"], 64)
        assert np.count_nonzero(counts[0]) == 1 and counts[0].sum() == 1.0
        assert counts[1].tolist() == oracle_trigram_counts("casa", 64)
