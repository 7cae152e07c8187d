import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from lexiforge import _kernels

from _oracles import oracle_levenshtein, oracle_trigram_counts

WORDS = st.text(alphabet="abcdeñáéíóú 中🌲", min_size=0, max_size=14)
# at a position, insert a string and delete up to one code point: one
# substitution, insertion or deletion, or none
EDITS = st.tuples(st.integers(0, 90), st.sampled_from(["", "a", "ñ", "🌲"]), st.integers(0, 1))


def _edit(word, position, inserted, deleted):
    position %= len(word) + 1
    return word[:position] + inserted + word[position + deleted :]


@st.composite
def pairs(draw):
    """Unrelated pairs, pairs up to three edits apart, and queries longer than 64 code points."""
    if draw(st.booleans()):
        return draw(WORDS), draw(WORDS)
    word = draw(st.one_of(WORDS, st.text(alphabet="abñ🌲", min_size=60, max_size=90)))
    other = word
    for _ in range(draw(st.integers(1, 3))):
        other = _edit(other, *draw(EDITS))
    return word, other


class TestLevenshteinMany:
    @settings(max_examples=150)
    @given(st.lists(pairs(), max_size=12), st.integers(0, 3))
    def test_is_the_reference_dp_capped_at_bound_plus_one(self, drawn, bound):
        queries, texts = [a for a, _ in drawn], [b for _, b in drawn]
        got = _kernels.levenshtein_many(queries, texts, bound)
        assert got.dtype == np.int64
        assert got.tolist() == [min(oracle_levenshtein(a, b), bound + 1) for a, b in drawn]

    def test_empty_sides(self):
        queries, texts = ["", "ab", "", "中🌲", "", "abcd"], ["abc", "", "", "中🌲", "abcd", ""]
        # within the bound the distance is the other side's length; beyond it, bound + 1
        assert _kernels.levenshtein_many(queries, texts, 3).tolist() == [3, 2, 0, 0, 4, 4]

    def test_no_pairs(self):
        assert _kernels.levenshtein_many([], [], 2).tolist() == []

    def test_pairs_must_match_up(self):
        with pytest.raises(ValueError):
            _kernels.levenshtein_many(["a"], [], 2)

    @pytest.mark.parametrize("length", [63, 64, 65])
    def test_queries_at_the_word_size(self, length):
        # one uint64 word of code points: queries on both sides of it take the same banded path
        query = "".join("abcñ🌲"[i % 5] for i in range(length))
        texts = [query, query[1:], "x" + query, query[:-2] + "zz", "", query[::-1], query[: length // 2]]
        got = _kernels.levenshtein_many([query] * len(texts), texts, 2)
        assert got.tolist() == [min(oracle_levenshtein(query, text), 3) for text in texts]

    def test_length_gap_beyond_the_bound_skips_the_dp(self, monkeypatch):
        banded_pairs = []
        banded = _kernels._banded

        def counted(queries, texts, m, n, bound):
            banded_pairs.extend(zip(queries, texts))
            return banded(queries, texts, m, n, bound)

        monkeypatch.setattr(_kernels, "_banded", counted)
        queries, texts = ["casa", "casa", "a", "ñandú"], ["casas", "casasxyz", "abcd", "ñandu"]
        assert _kernels.levenshtein_many(queries, texts, 2).tolist() == [1, 3, 3, 1]
        assert banded_pairs == [("ñandú", "ñandu"), ("casa", "casas")]

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_small_chunks_and_mixed_query_lengths(self, monkeypatch, chunk):
        monkeypatch.setattr(_kernels, "LEVENSHTEIN_CHUNK", chunk)
        long = "ab" * 40
        queries = ["casa", long, "", "cosa", long[:-1] + "c", "ñandú", "a", "ab", long]
        texts = ["cosa", long[1:], "xyz", "", long, "nandu", "b" * 70, "ba", long[::-1]]
        got = _kernels.levenshtein_many(queries, texts, 2)
        assert got.tolist() == [min(oracle_levenshtein(a, b), 3) for a, b in zip(queries, texts)]


class TestCodepoints:
    def test_empty(self):
        assert _kernels.codepoints("").size == 0

    def test_multibyte(self):
        cps = _kernels.codepoints("a中🌲")
        assert cps.tolist() == [ord("a"), ord("中"), ord("🌲")]


PADDED = ["#casa#", "#ñandú#", "#中🌲𮪟2#", "#a#"]


class TestTrigramCounts:
    # the dimensions that are not powers of two exercise the bucket's h - h // d * d
    @seed(32)
    @settings(max_examples=80)
    @given(
        st.lists(st.text(alphabet="abcñá 中🌲𮪟2", min_size=1, max_size=14), min_size=1, max_size=6),
        st.sampled_from([7, 64, 509, 512, 1000]),
    )
    def test_signed_counts_are_the_oracle_integers(self, texts, dimension):
        counts = _kernels.trigram_counts([f"#{text}#" for text in texts], dimension)
        assert counts.dtype == np.float64 and counts.shape == (len(texts), dimension)
        for text, row in zip(texts, counts):
            expected = oracle_trigram_counts(text, dimension)
            if any(expected):  # a cancelled row is the embedder's fallback, tested there
                assert row.tolist() == expected

    def test_out_is_filled_and_returned(self):
        allocated = _kernels.trigram_counts(PADDED, 64)
        matrix = np.full((7, 64), 5.0)
        out = matrix[2:6]
        assert _kernels.trigram_counts(PADDED, 64, out=out) is out
        assert (matrix[2:6] == allocated).all()
        # the earlier values of the rows are zeroed first, the other rows keep theirs
        assert (matrix[:2] == 5.0).all() and (matrix[6:] == 5.0).all()

    @pytest.mark.parametrize(
        "out",
        [np.zeros((64, 4)).T, np.zeros((4, 128))[:, ::2], np.zeros((4, 63)), np.zeros((3, 64)), np.zeros((4, 64), np.float32)],
        ids=["transposed", "strided", "narrow", "short", "float32"],
    )
    def test_out_of_another_layout_is_rejected(self, out):
        with pytest.raises(ValueError, match="C-contiguous"):
            _kernels.trigram_counts(PADDED, 64, out=out)

    def test_cancelled_row_falls_back_to_its_first_bucket(self):
        counts = _kernels.trigram_counts(["#𮪟2#", "#casa#"], 64)
        assert np.count_nonzero(counts[0]) == 1 and counts[0].sum() == 1.0
        assert counts[1].tolist() == oracle_trigram_counts("casa", 64)
