"""The edit-distance kernel against the quadratic DP oracle."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgfa._kernels import levenshtein

from oracles import levenshtein_dp


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
            assert levenshtein(a, b) == levenshtein_dp(a, b)

    @given(_wide, _wide)
    @settings(max_examples=200, deadline=None)
    def test_wide_bit_vectors_match_oracle(self, a, b):
        assert levenshtein(a, b) == levenshtein_dp(a, b)

    @pytest.mark.parametrize("n", [63, 64, 65, 129])
    def test_machine_word_boundaries(self, n):
        # Lengths around 64 bits: the column vector spans one or more words.
        rng = random.Random(n)
        a = "".join(rng.choice(WIDE_ALPHABET) for _ in range(n))
        b = "".join(rng.choice(WIDE_ALPHABET) for _ in range(n))
        edited = "x" + a[1 : n // 2] + a[n // 2 + 1 :] + "y"
        for x, y in ((a, b), (a, edited), (a, "")):
            assert levenshtein(x, y) == levenshtein_dp(x, y)
            assert levenshtein(y, x) == levenshtein_dp(x, y)

    def test_edge_cases(self):
        assert levenshtein("", "") == 0
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3
        assert levenshtein("abc", "abc") == 0
