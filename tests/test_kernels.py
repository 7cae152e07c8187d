import numpy as np
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
