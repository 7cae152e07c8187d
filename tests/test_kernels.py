import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexiforge import _kernels
from lexiforge.embedding import _utf8_offsets

from _oracles import oracle_levenshtein

WORDS = st.text(alphabet="abcdeñáéíóú 中🌲", min_size=0, max_size=14)


needs_numba = pytest.mark.skipif(_kernels.BACKEND != "numba", reason="numba backend unavailable")


class TestBackendParity:
    @needs_numba
    @settings(max_examples=80)
    @given(st.text(alphabet="abcdeñáé 中🌲#", min_size=1, max_size=24))
    def test_trigram_counts_bit_identical(self, text):
        data, offsets = _utf8_offsets(f"#{text}#")
        jit = _kernels.trigram_counts_jit(data, offsets, 128)
        vec = _kernels.trigram_counts_numpy(data, offsets, 128)
        assert np.array_equal(jit, vec)

    @needs_numba
    @settings(max_examples=80)
    @given(WORDS, WORDS)
    def test_levenshtein_backends_agree(self, a, b):
        ca, cb = _kernels.codepoints(a), _kernels.codepoints(b)
        assert _kernels.levenshtein_jit(ca, cb) == _kernels.levenshtein_numpy(ca, cb)


class TestLevenshteinNumpy:
    @settings(max_examples=80)
    @given(WORDS, WORDS)
    def test_matches_reference_dp(self, a, b):
        got = _kernels.levenshtein_numpy(_kernels.codepoints(a), _kernels.codepoints(b))
        assert got == oracle_levenshtein(a, b)

    def test_empty_sides(self):
        assert _kernels.levenshtein_numpy(_kernels.codepoints(""), _kernels.codepoints("abc")) == 3
        assert _kernels.levenshtein_numpy(_kernels.codepoints("ab"), _kernels.codepoints("")) == 2


def _child_backend(**extra_env: str) -> str:
    """``_kernels.BACKEND`` as chosen by a fresh interpreter.

    The child gets the parent's environment without ``LEXIFORGE_DISABLE_NUMBA``
    (each test sets it explicitly), and the directory holding the ``lexiforge``
    package under test goes first on its ``PYTHONPATH``, so the child imports
    the same copy as the parent whether it is installed or run from ``src/``.
    """
    env = {k: v for k, v in os.environ.items() if k != "LEXIFORGE_DISABLE_NUMBA"}
    package_root = str(Path(_kernels.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    env.update(extra_env)
    out = subprocess.run(
        [sys.executable, "-c", "from lexiforge import _kernels; print(_kernels.BACKEND)"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


class TestBackendSelection:
    def test_env_flag_forces_numpy(self):
        assert _child_backend(LEXIFORGE_DISABLE_NUMBA="1") == "numpy"

    def test_default_prefers_numba_when_importable(self):
        try:
            import numba  # noqa: F401

            expected = "numba"
        except ImportError:
            expected = "numpy"
        assert _child_backend() == expected

    def test_selected_aliases_point_at_backend(self):
        if _kernels.BACKEND == "numba":
            assert _kernels.trigram_counts is _kernels.trigram_counts_jit
            assert _kernels.levenshtein is _kernels.levenshtein_jit
        else:
            assert _kernels.trigram_counts is _kernels.trigram_counts_numpy
            assert _kernels.levenshtein is _kernels.levenshtein_numpy


class TestNumbaFlag:
    @pytest.mark.parametrize("value", ["1", "true", "yes", "TRUE", "Yes", " yes ", "1\n", "\ttrue"])
    def test_set_flag_disables_numba(self, monkeypatch, value):
        monkeypatch.setenv("LEXIFORGE_DISABLE_NUMBA", value)
        assert _kernels._numba_disabled()

    @pytest.mark.parametrize("value", ["0", "", "no", "false"])
    def test_other_values_keep_numba(self, monkeypatch, value):
        monkeypatch.setenv("LEXIFORGE_DISABLE_NUMBA", value)
        assert not _kernels._numba_disabled()

    def test_unset_keeps_numba(self, monkeypatch):
        monkeypatch.delenv("LEXIFORGE_DISABLE_NUMBA", raising=False)
        assert not _kernels._numba_disabled()


class TestCodepoints:
    def test_empty(self):
        assert _kernels.codepoints("").size == 0

    def test_multibyte(self):
        cps = _kernels.codepoints("a中🌲")
        assert cps.tolist() == [ord("a"), ord("中"), ord("🌲")]
