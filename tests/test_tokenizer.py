from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgfa.errors import MarkerCollision
from tgfa.script import NormMode, Script, normalize_text
from tgfa.tokenizer import (
    detokenize,
    format_token_line,
    parse_token_line,
    tokenize,
)

from conftest import FARSI_SAMPLE, TAJIK_SAMPLE

# Normalized-looking text: words over the script alphabets joined by
# single spaces.
_words = st.lists(
    st.text(alphabet=sorted(TAJIK_SAMPLE + FARSI_SAMPLE), min_size=1, max_size=8),
    min_size=0,
    max_size=6,
)
_normalized_text = _words.map(" ".join)


class TestTokenize:
    def test_two_words(self):
        assert tokenize("аз ин") == ["@", "а", "з", "@", "_", "@", "и", "н", "@"]

    def test_empty(self):
        assert tokenize("") == []

    def test_single_word(self):
        assert tokenize("аз") == ["@", "а", "з", "@"]

    def test_marker_collision(self):
        with pytest.raises(MarkerCollision):
            tokenize("а_з")
        with pytest.raises(MarkerCollision):
            tokenize("а@з")

    def test_normalized_script_text_accepted(self):
        t = normalize_text("Аз  ин", Script.TAJIK, NormMode.TRAIN)
        assert tokenize(t) == ["@", "а", "з", "@", "_", "@", "и", "н", "@"]

    @given(_normalized_text)
    @settings(max_examples=300)
    def test_token_count_formula(self, text):
        words = text.split()
        w = len(words)
        n = sum(len(word) for word in words)
        expected = 0 if w == 0 else n + 2 * w + (w - 1)
        assert len(tokenize(text)) == expected


class TestDetokenize:
    def test_round_trip_example(self):
        assert detokenize(["@", "а", "з", "@", "_", "@", "и", "н", "@"]) == "аз ин"

    def test_repairs_leading_markers(self):
        assert detokenize(["_", "_", "а", "@"]) == "а"

    def test_empty(self):
        assert detokenize([]) == ""

    def test_all_markers(self):
        assert detokenize(["@", "_", "@", "_"]) == ""

    @given(
        st.lists(
            st.sampled_from(list("аби") + ["_", "@"]),
            max_size=30,
        )
    )
    @settings(max_examples=300)
    def test_total_on_arbitrary_token_soup(self, tokens):
        out = detokenize(tokens)
        assert "@" not in out and "_" not in out
        assert "  " not in out
        assert out == out.strip()

    @given(_normalized_text)
    @settings(max_examples=500)
    def test_round_trip(self, text):
        assert detokenize(tokenize(text)) == text

    def test_round_trip_with_zwnj_and_hyphen(self):
        # ZWNJ inside a Farsi word and a joining hyphen inside Tajik are
        # ordinary characters for the tokenizer.
        for text, script in (("می‌روم اз", Script.FARSI), ("в-аз", Script.TAJIK)):
            norm = normalize_text(text, script, NormMode.TRAIN)
            assert detokenize(tokenize(norm)) == norm


class TestLineFormat:
    def test_round_trip(self):
        tokens = tokenize("аз ин")
        line = format_token_line(tokens)
        assert line == "@ а з @ _ @ и н @"
        assert parse_token_line(line) == tokens

    def test_empty_line(self):
        assert parse_token_line("") == []
        assert format_token_line([]) == ""

    def test_many_random_round_trips(self):
        rng = random.Random(3)
        for _ in range(200):
            words = [
                "".join(rng.choice(TAJIK_SAMPLE) for _ in range(rng.randint(1, 7)))
                for _ in range(rng.randint(1, 5))
            ]
            text = " ".join(words)
            assert parse_token_line(format_token_line(tokenize(text))) == tokenize(text)
