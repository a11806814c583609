from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgfa.errors import ParseError, WrongState
from tgfa.script import (
    CharClass,
    NormMode,
    Script,
    ScriptText,
    TextState,
    ZWNJ,
    classify_char,
    export_char_table,
    load_char_table,
    normalize,
    normalize_text,
    parse_code_point,
    strip_whitespace,
    table_lines,
)

FATHA = "َ"
SHADDA = "ّ"
SUPERSCRIPT_ALEF = "ٰ"


class TestClassify:
    def test_zwnj_fixed_code_point(self):
        assert classify_char("‌", Script.FARSI) is CharClass.ZWNJ
        assert classify_char("‌", Script.TAJIK) is CharClass.ZWNJ

    def test_punctuation_is_other(self):
        assert classify_char("!", Script.TAJIK) is CharClass.OTHER
        assert classify_char("،", Script.FARSI) is CharClass.OTHER  # Arabic comma

    def test_tajik_letter(self):
        assert classify_char("и", Script.TAJIK) is CharClass.TAJIK_LETTER
        assert classify_char("Ғ", Script.TAJIK) is CharClass.TAJIK_LETTER
        assert classify_char("ӯ", Script.TAJIK) is CharClass.TAJIK_LETTER

    def test_farsi_letter_and_diacritic(self):
        assert classify_char("پ", Script.FARSI) is CharClass.PERSO_ARABIC_LETTER
        for mark in (FATHA, SHADDA, SUPERSCRIPT_ALEF, "ً"):
            assert classify_char(mark, Script.FARSI) is CharClass.PERSO_ARABIC_DIACRITIC

    def test_cross_script_is_other(self):
        assert classify_char("и", Script.FARSI) is CharClass.OTHER
        assert classify_char("ب", Script.TAJIK) is CharClass.OTHER

    def test_hyphen_per_script(self):
        assert classify_char("-", Script.TAJIK) is CharClass.TAJIK_HYPHEN
        assert classify_char("-", Script.FARSI) is CharClass.OTHER

    def test_digits_are_other(self):
        for d in ("0", "٠", "۰"):
            assert classify_char(d, Script.FARSI) is CharClass.OTHER
            assert classify_char(d, Script.TAJIK) is CharClass.OTHER

    @given(st.characters(), st.sampled_from(list(Script)))
    def test_total_over_all_scalars(self, c, script):
        assert classify_char(c, script) in CharClass


class TestNormalize:
    def test_train_strips_punct_and_lowercases(self):
        assert normalize_text("Ва — аз!", Script.TAJIK, NormMode.TRAIN) == "ва аз"

    def test_eval_removes_joining_hyphen(self):
        assert normalize_text("В-аз", Script.TAJIK, NormMode.EVAL) == "ваз"

    def test_train_keeps_joining_hyphen(self):
        assert normalize_text("В-аз", Script.TAJIK, NormMode.TRAIN) == "в-аз"

    def test_standalone_dash_is_punctuation(self):
        assert normalize_text("ва - аз", Script.TAJIK, NormMode.TRAIN) == "ва аз"

    def test_eval_removes_zwnj(self):
        text = f"می{ZWNJ}روم"
        assert normalize_text(text, Script.FARSI, NormMode.EVAL) == "میروم"
        assert normalize_text(text, Script.FARSI, NormMode.TRAIN) == text

    def test_train_keeps_diacritics_eval_drops(self):
        text = f"کت{FATHA}اب"
        assert normalize_text(text, Script.FARSI, NormMode.TRAIN) == text
        assert normalize_text(text, Script.FARSI, NormMode.EVAL) == "کتاب"

    def test_whitespace_collapse(self):
        assert normalize_text("  аз \t ин ҷо ", Script.TAJIK, NormMode.TRAIN) == "аз ин ҷо"

    def test_state_transitions(self):
        raw = ScriptText("Ва аз", Script.TAJIK)
        train = normalize(raw, NormMode.TRAIN)
        assert train.state is TextState.TRAIN_NORMALIZED
        assert train.text == "ва аз"
        ev = normalize(raw, NormMode.EVAL)
        assert ev.state is TextState.EVAL_NORMALIZED

    def test_wrong_state_rejected(self):
        done = normalize(ScriptText("аз", Script.TAJIK), NormMode.TRAIN)
        with pytest.raises(WrongState):
            normalize(done, NormMode.EVAL)

    @given(
        st.text(max_size=60),
        st.sampled_from(list(Script)),
        st.sampled_from(list(NormMode)),
    )
    @settings(max_examples=300)
    def test_idempotent(self, text, script, mode):
        once = normalize_text(text, script, mode)
        assert normalize_text(once, script, mode) == once

    @given(st.text(max_size=60), st.sampled_from(list(Script)))
    @settings(max_examples=300)
    def test_monotone_removal(self, text, script):
        train = normalize_text(text, script, NormMode.TRAIN)
        ev = normalize_text(text, script, NormMode.EVAL)
        assert len(ev) <= len(train) <= len(text)

    @given(st.text(max_size=60), st.sampled_from(list(Script)))
    @settings(max_examples=300)
    def test_eval_purity(self, text, script):
        ev = normalize_text(text, script, NormMode.EVAL)
        banned = (
            CharClass.ZWNJ,
            CharClass.PERSO_ARABIC_DIACRITIC,
            CharClass.TAJIK_HYPHEN,
            CharClass.OTHER,
        )
        assert all(classify_char(c, script) not in banned for c in ev)

    @given(st.text(max_size=60), st.sampled_from(list(NormMode)))
    @settings(max_examples=200)
    def test_tajik_lowercase_closure(self, text, mode):
        out = normalize_text(text, Script.TAJIK, mode)
        assert out == out.lower()


class TestStripWhitespace:
    @pytest.mark.parametrize(
        "text,expected",
        [("ва аз", "вааз"), ("", ""), ("a b c", "abc")],
    )
    def test_examples(self, text, expected):
        assert strip_whitespace(text) == expected

    def test_length_drop_equals_space_count(self):
        text = "аз ин ҷо"
        assert len(text) - len(strip_whitespace(text)) == text.count(" ")

    def test_accepts_script_text(self):
        assert strip_whitespace(ScriptText("ва аз", Script.TAJIK)) == "вааз"


class TestCharTable:
    def test_export_load_roundtrip(self, tmp_path):
        dump = export_char_table(Script.TAJIK)
        path = tmp_path / "chars.tsv"
        path.write_text(dump, encoding="utf-8")
        table = load_char_table(path)
        assert table["и"] is CharClass.TAJIK_LETTER
        assert table["-"] is CharClass.TAJIK_HYPHEN
        assert table[ZWNJ] is CharClass.ZWNJ

    def test_override_changes_normalization(self):
        # Demote a letter to `other`: normalization must now remove it.
        table = load_char_table(["U+0438\tother"])  # 'и'
        assert classify_char("и", Script.TAJIK, table) is CharClass.OTHER
        assert normalize_text("ин", Script.TAJIK, NormMode.TRAIN, table) == "н"

    def test_literal_character_form(self):
        table = load_char_table(["я\tother"])
        assert table["я"] is CharClass.OTHER

    def test_bad_lines_rejected(self):
        with pytest.raises(ParseError):
            load_char_table(["nonsense"])
        with pytest.raises(ParseError):
            load_char_table(["U+0438\tnot_a_class"])
        with pytest.raises(ParseError):
            load_char_table(["U+ZZZZ\tother"])


class TestTableLines:
    def test_skips_blank_and_comment_lines(self):
        assert table_lines(["# head", "", "  a\tb  ", "c"]) == (None, [(3, "a\tb"), (4, "c")])

    def test_not_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_bytes("а\tб\n".encode() + b"\xff\tx\n")
        with pytest.raises(ParseError) as info:
            table_lines(path)
        assert str(info.value) == f"{path}: line 2: not valid UTF-8 (byte 0xFF)"

    @pytest.mark.parametrize("field", ["U+0438", "u+0438", "0x0438", "0X438", "и", " и "])
    def test_code_point_forms(self, field):
        assert parse_code_point(field) == "и"

    @pytest.mark.parametrize("field", ["", "ии", "U+", "0xZZ", "U+110000"])
    def test_bad_code_point(self, field):
        with pytest.raises(ParseError, match="line 7: bad code point"):
            parse_code_point(field, line=7)
