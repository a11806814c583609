"""Parity between the compiled kernel and the pure-Python fallback."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tgfa
from tgfa._kernels import KERNEL_BACKEND
from tgfa._kernels_py import levenshtein as py_levenshtein

from oracles import levenshtein_dp

try:
    from tgfa._speedups import levenshtein as c_levenshtein
except ImportError:
    c_levenshtein = None


def random_string(rng, alphabet, max_len=30):
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))


# Cyrillic, Arabic, ZWNJ, space and an astral-plane character.
WIDE_ALPHABET = "абвғқ" + "ابتجی" + "\u200c \U0001F600"
_wide = st.text(alphabet=WIDE_ALPHABET, max_size=200)


class TestFallback:
    def test_fallback_matches_oracle(self):
        rng = random.Random(0)
        alphabet = "abcd азгو"  # mixed Latin/Cyrillic/Arabic plus space
        for _ in range(300):
            a = random_string(rng, alphabet)
            b = random_string(rng, alphabet)
            assert py_levenshtein(a, b) == levenshtein_dp(a, b)

    @given(_wide, _wide)
    @settings(max_examples=200, deadline=None)
    def test_wide_bit_vectors_match_oracle(self, a, b):
        assert py_levenshtein(a, b) == levenshtein_dp(a, b)

    @pytest.mark.parametrize("n", [63, 64, 65, 129])
    def test_machine_word_boundaries(self, n):
        # Lengths around 64 bits: the column vector spans one or more words.
        rng = random.Random(n)
        a = "".join(rng.choice(WIDE_ALPHABET) for _ in range(n))
        b = "".join(rng.choice(WIDE_ALPHABET) for _ in range(n))
        edited = "x" + a[1 : n // 2] + a[n // 2 + 1 :] + "y"
        for x, y in ((a, b), (a, edited), (a, "")):
            assert py_levenshtein(x, y) == levenshtein_dp(x, y)
            assert py_levenshtein(y, x) == levenshtein_dp(x, y)

    def test_edge_cases(self):
        assert py_levenshtein("", "") == 0
        assert py_levenshtein("", "abc") == 3
        assert py_levenshtein("abc", "") == 3
        assert py_levenshtein("abc", "abc") == 0


@pytest.mark.skipif(c_levenshtein is None, reason="compiled kernel not built")
class TestCompiled:
    def test_backends_agree(self):
        rng = random.Random(1)
        alphabets = ["abcd", "абвгғӣқӯҳҷ", "ابپتثج", "a б‌ج"]
        for alphabet in alphabets:
            for _ in range(200):
                a = random_string(rng, alphabet)
                b = random_string(rng, alphabet)
                assert c_levenshtein(a, b) == py_levenshtein(a, b)

    def test_astral_plane_characters(self):
        # Supplementary-plane code points are single scalars, not pairs.
        a = "a\U0001F600b"
        b = "ab"
        assert c_levenshtein(a, b) == 1

    def test_edge_cases(self):
        assert c_levenshtein("", "") == 0
        assert c_levenshtein("", "xyz") == 3
        assert c_levenshtein("xyz", "xyz") == 0


class TestSelection:
    def test_backend_reported(self):
        assert KERNEL_BACKEND in ("c", "python")

    def test_env_var_forces_pure_python(self):
        code = (
            "import tgfa._kernels as k, tgfa._kernels_py as p; "
            "print(k.KERNEL_BACKEND, k.levenshtein is p.levenshtein)"
        )
        # Inherit the parent's environment and put the directory holding the
        # tgfa under test first, so the child imports that same package.
        package_root = str(Path(tgfa.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")])
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "TGFA_PURE_PYTHON": "1", "PYTHONPATH": pythonpath},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["python", "True"]
