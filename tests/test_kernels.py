from hypothesis import given, settings
from hypothesis import strategies as st

from lexiforge import _kernels

from _oracles import oracle_levenshtein

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
