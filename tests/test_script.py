from __future__ import annotations

import ast
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tgfa
from tgfa.errors import ParseError
from tgfa.translit import DIRECTIONS, default_mapping_table
from tgfa.script import (
    FARSI_DIACRITICS,
    FARSI_LETTERS,
    TAJIK_LETTERS,
    CharClass,
    NormMode,
    Script,
    ZWNJ,
    classify_char,
    load_char_table,
    normalize_text,
    parse_code_point,
    strip_whitespace,
    table_lines,
    write_utf8,
)

from conftest import tajik_char_table

FATHA = "َ"
SHADDA = "ّ"
SUPERSCRIPT_ALEF = "ٰ"

_LETTERS = (CharClass.PERSO_ARABIC_LETTER, CharClass.TAJIK_LETTER)


def loop_normalize(text, script, mode, table=None):
    """``normalize_text`` as a per-character loop: the reference for its translate path."""
    script, mode = Script(script), NormMode(mode)
    keep_optional = mode is NormMode.TRAIN

    def letter_at(i):
        return 0 <= i < len(text) and classify_char(text[i], script, table) in _LETTERS

    out = []
    for i, ch in enumerate(text):
        cls = classify_char(ch, script, table)
        if cls is CharClass.SPACE:
            out.append(" ")
        elif cls in _LETTERS:
            out.append(ch)
        elif cls is CharClass.TAJIK_HYPHEN:
            if keep_optional and letter_at(i - 1) and letter_at(i + 1):
                out.append(ch)
        elif cls in (CharClass.ZWNJ, CharClass.PERSO_ARABIC_DIACRITIC):
            if keep_optional:
                out.append(ch)
    collapsed = " ".join("".join(out).split())
    return collapsed.lower() if script is Script.TAJIK else collapsed


# Pieces of raw text: letters of both inventories, ASCII letters and
# digits, ZWNJ, diacritics, dashes and underscores, non-ASCII whitespace,
# and runs of hyphens, which may fall at either edge or inside a word.
_PIECES = st.one_of(
    st.sampled_from(sorted(TAJIK_LETTERS | FARSI_LETTERS | FARSI_DIACRITICS)),
    st.sampled_from("abcxyzQXZ0189"),
    st.sampled_from([ZWNJ, " ", "\t", "\u00a0", "\u2028", "\u3000", "–", "_", "."]),
    st.text(alphabet="-", min_size=1, max_size=3),
)
_EDGE = st.text(alphabet="-", max_size=2)
_OVERRIDES = [
    None,
    {"-": CharClass.OTHER},
    {"–": CharClass.TAJIK_HYPHEN, "_": CharClass.TAJIK_HYPHEN},
    {"Q": CharClass.TAJIK_LETTER, "X": CharClass.PERSO_ARABIC_LETTER},
]


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


class TestTranslatePath:
    @given(
        st.tuples(_EDGE, st.lists(_PIECES, max_size=40).map("".join), _EDGE).map("".join),
        st.sampled_from(list(Script)),
        st.sampled_from(list(NormMode)),
        st.sampled_from(_OVERRIDES),
    )
    @settings(max_examples=600)
    def test_matches_loop(self, text, script, mode, table):
        assert normalize_text(text, script, mode, table) == loop_normalize(text, script, mode, table)

    @pytest.mark.parametrize(
        "text,table,expected",
        [
            ("-ва-аз-", None, "ва-аз"),
            ("-аз ва", None, "аз ва"),
            ("ва--аз", None, "вааз"),
            ("ва-аз", {"-": CharClass.OTHER}, "вааз"),
            ("ва–аз _ва_", {"–": CharClass.TAJIK_HYPHEN, "_": CharClass.TAJIK_HYPHEN}, "ва–аз ва"),
            ("Qа-Qа", {"Q": CharClass.TAJIK_LETTER}, "qа-qа"),
            # Classes apply to single code points, so a longer key never matches.
            ("ва-аз", {"ва": CharClass.TAJIK_HYPHEN}, "ва-аз"),
        ],
    )
    def test_train_mode_hyphens(self, text, table, expected):
        assert normalize_text(text, Script.TAJIK, NormMode.TRAIN, table) == expected


# Raw text from any code point, with the Cyrillic and Arabic blocks weighted up.
_ANY_TEXT = st.text(st.one_of(st.characters(), st.characters(min_codepoint=0x0400, max_codepoint=0x06FF)), max_size=60)


class TestInventory:
    """The default mapping tables are the one inventory."""

    @given(_ANY_TEXT, st.sampled_from(list(DIRECTIONS.values())), st.sampled_from(list(NormMode)))
    @settings(max_examples=400)
    def test_normalized_source_is_covered_by_the_default_table(self, text, direction, mode):
        keys = default_mapping_table(direction.name).entries
        assert set(normalize_text(text, direction.source, mode)) <= {*keys, " "}

    def test_tajik_letters_are_the_russian_alphabet_plus_six(self):
        lower = "абвгдежзийклмнопрстуфхцчшщъыьэюяё" + "ғӣқӯҳҷ"
        assert TAJIK_LETTERS == frozenset(lower + lower.upper())


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

    def test_split_matches_isspace_on_every_whitespace_code_point(self):
        spaces = [chr(cp) for cp in range(0x110000) if chr(cp).isspace()]
        assert len(spaces) == 29
        for ch in spaces:
            text = f"{ch}а{ch}{ch}б{ch}"
            assert strip_whitespace(text) == "".join(c for c in text if not c.isspace()) == "аб"
        text = "x".join(spaces)
        assert strip_whitespace(text) == "".join(c for c in text if not c.isspace())


class TestCharTable:
    def test_export_load_roundtrip(self, tmp_path):
        dump = tajik_char_table()
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

    def test_table_changed_after_first_use(self):
        table = load_char_table(["U+0438\tother"])
        assert normalize_text("ин-ро", Script.TAJIK, NormMode.TRAIN, table) == "н-ро"
        table["н"] = CharClass.OTHER
        assert normalize_text("ин-ро", Script.TAJIK, NormMode.TRAIN, table) == "ро"
        table["-"] = CharClass.OTHER
        del table["н"]
        assert normalize_text("ин-ро", Script.TAJIK, NormMode.TRAIN, table) == "нро"

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


# The (module, name) pairs that turn input text into lines or JSON values,
# or that read a packaged data file; any ``.splitlines`` does too.
_READERS = {("json", "loads"), ("json", "load"), ("json", "JSONDecoder"), ("io", "StringIO"), ("resources", "files")}


class _ReaderUses(ast.NodeVisitor):
    """(enclosing function, name) of each use of a reader in a module."""

    def __init__(self):
        self.scope: list[str] = []
        self.found: list[tuple[str, str]] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Attribute(self, node):
        module = node.value.id if isinstance(node.value, ast.Name) else None
        if node.attr == "splitlines" or (module, node.attr) in _READERS:
            self.found.append((".".join(self.scope) or "<module>", ast.unparse(node)))
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        self.found += [("<module>", f"{node.module}.{a.name}") for a in node.names if (node.module, a.name) in _READERS]


class TestOneReader:
    """Input text becomes lines, and JSON values, and packaged data files are read, only in script.py."""

    @staticmethod
    def _uses(path: Path) -> list[tuple[str, str]]:
        visitor = _ReaderUses()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        return visitor.found

    def test_no_other_module_splits_lines_or_decodes_json(self):
        package = Path(tgfa.__file__).parent
        found = [f"{path.name}: {name} in {scope}" for path in sorted(package.glob("*.py")) if path.name != "script.py"
                 for scope, name in self._uses(path)]
        assert not found, (
            "read input through script.read_lines, script.parse_json_object and script.data_lines: " + ", ".join(found)
        )

    def test_script_splits_and_decodes_in_one_place_each(self):
        uses = self._uses(Path(tgfa.__file__).parent / "script.py")
        assert sorted(uses) == [
            ("<module>", "json.JSONDecoder"),
            ("split_lines", "io.StringIO"),
        ]


class TestWriteUtf8:
    def test_replaces_a_file_whole_and_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old and longer\n")
        write_utf8(path, iter(["а\n", "", "b\n"]))
        assert path.read_bytes() == "а\nb\n".encode()
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_longest_file_name(self, tmp_path):
        path = tmp_path / ("а" * 127)  # 254 bytes, one short of the usual limit
        write_utf8(path, ["x\n"])
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old\n")

        def chunks():
            yield "new\n"
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            write_utf8(path, chunks())
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_dash_string_is_stdout_and_a_dash_path_a_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_utf8("-", ["to stdout\n"])
        write_utf8(Path("-"), ["to a file\n"])
        assert capsys.readouterr().out == "to stdout\n"
        assert (tmp_path / "-").read_text(encoding="utf-8") == "to a file\n"

    def test_symlink_and_device_written_in_place(self, tmp_path):
        target, link = tmp_path / "target.txt", tmp_path / "link.txt"
        target.write_bytes(b"old\n")
        link.symlink_to(target)
        write_utf8(link, ["new\n"])
        assert link.is_symlink() and target.read_bytes() == b"new\n"
        write_utf8(os.devnull, ["gone\n"])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "target.txt"]


# Calls that write or move a file: ``open`` with a mode that writes (the
# builtin's mode is its second argument, a path's its first; ``os.open``
# takes flags, and its one use points stdout at the null device),
# ``write_text``, ``write_bytes``, ``os.replace`` and ``os.rename``.
_WRITE_MODE = set("wax+")
_MOVES = {("os", "replace"), ("os", "rename")}


class _WriterUses(ast.NodeVisitor):
    """(enclosing function, callee) of each call in a module that writes or moves a file."""

    def __init__(self):
        self.scope: list[str] = []
        self.found: list[tuple[str, str]] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        module = func.value.id if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) else None
        at = 1 if isinstance(func, ast.Name) else 0
        modes = node.args[at : at + 1] + [kw.value for kw in node.keywords if kw.arg == "mode"]
        # A mode that is not a string literal may write.
        writes = name == "open" and module != "os" and any(
            not (isinstance(m, ast.Constant) and isinstance(m.value, str)) or _WRITE_MODE & set(m.value) for m in modes
        )
        if writes or name in ("write_text", "write_bytes") or (module, name) in _MOVES:
            self.found.append((".".join(self.scope) or "<module>", ast.unparse(func)))
        self.generic_visit(node)


class TestOneWriter:
    """Files are written, and replaced, only in script.py; cli.py renames a finished run directory."""

    @staticmethod
    def _uses(path: Path) -> list[tuple[str, str]]:
        visitor = _WriterUses()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        return visitor.found

    def test_no_other_module_writes_a_file(self):
        package = Path(tgfa.__file__).parent
        allowed = {("cli.py", "_run_directory", "os.replace")}
        found = [f"{path.name}: {name} in {scope}" for path in sorted(package.glob("*.py")) if path.name != "script.py"
                 for scope, name in self._uses(path) if (path.name, scope, name) not in allowed]
        assert not found, "write files through script.write_utf8: " + ", ".join(found)

    def test_run_directory_is_renamed_in_one_place(self):
        assert self._uses(Path(tgfa.__file__).parent / "cli.py") == [("_run_directory", "os.replace")]

    def test_script_writes_in_one_place(self):
        assert sorted(self._uses(Path(tgfa.__file__).parent / "script.py")) == [
            ("write_utf8", "open"),
            ("write_utf8", "os.replace"),
        ]

    @pytest.mark.parametrize(
        "source",
        ['open(p, "w")', 'open(p, mode="a")', "open(p, m)", 'p.open("x")', 'p.open(mode="r+")',
         'p.write_text("")', 'p.write_bytes(b"")', "os.replace(a, b)", "os.rename(a, b)"],
    )
    def test_guard_sees_each_kind_of_write(self, source):
        visitor = _WriterUses()
        visitor.visit(ast.parse(f"def f():\n    {source}\n"))
        assert [scope for scope, _ in visitor.found] == ["f"]

    @pytest.mark.parametrize("source", ["open(p)", 'open(p, "rb")', "p.open()", "os.open(p, os.O_WRONLY)"])
    def test_guard_passes_reads_and_os_open(self, source):
        visitor = _WriterUses()
        visitor.visit(ast.parse(source))
        assert visitor.found == []


class _WithoutCalls(_WriterUses):
    """The enclosing function of each ``.without(...)`` call: a model derived by subtraction."""

    def visit_Call(self, node):
        if isinstance(node.func, ast.Attribute) and node.func.attr == "without":
            self.found.append(".".join(self.scope) or "<module>")
        self.generic_visit(node)


class TestOneDerivation:
    """A block's models are derived from the whole corpus's in one place, ``translit.decode_block``."""

    def test_only_decode_block_calls_without(self):
        found = []
        for path in sorted(Path(tgfa.__file__).parent.glob("*.py")):
            visitor = _WithoutCalls()
            visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
            found += [f"{path.name}: {scope}" for scope in visitor.found]
        assert sorted(found) == ["translit.py: decode_block", "translit.py: decode_block"]

    @pytest.mark.parametrize("source", ["d.without(p)", "f(x).without(p)", "g(d.without)(p).without(q)"])
    def test_guard_sees_each_call(self, source):
        visitor = _WithoutCalls()
        visitor.visit(ast.parse(f"def f():\n    {source}\n"))
        assert visitor.found == ["f"] * source.count(".without(")
