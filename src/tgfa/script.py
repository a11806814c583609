"""Character classification and normalization for Perso-Arabic and Tajik-Cyrillic text.

Classification is a total function over Unicode scalar values: every code
point falls into exactly one class for a given script. A script's
characters are the source column of the default mapping table from it,
so a new letter is covered by adding its row (Farsi diacritics are the
marks, by combining class; Tajik letters count with their uppercase).
Any other character is class ``other``. A TSV table can amend classes.

Normalization has two modes. Train mode removes class ``other``
(punctuation, digits, symbols, letters with no row), lowercases Tajik
and collapses whitespace, but keeps ZWNJ on both sides, Arabic
diacritics on the Farsi side and the intra-word hyphen on the Tajik
side. Eval mode removes those as well, so that scoring never penalizes
inconsistently written optional characters.

Normalization is one ``str.translate`` per text. Its table, one per
(script, mode, override table contents), asks the classifier about
each code point the first time it appears and keeps the answer, so
classification stays the one path. The joining-hyphen rule needs each
hyphen's neighbours in the raw text, so in train mode a pre-pass
first drops every hyphen-class character without a letter on both
sides; it runs only on texts that hold one.

``Direction`` names a direction's two scripts. It and the decoder's
defaults live here, so the command-line option table reads them
without loading the transliterator.

Every input file is read here: ``read_lines`` decodes UTF-8 and splits
lines only at LF, CRLF or CR; ``parse_json_object`` decodes every JSON
value, refusing ``NaN``, ``Infinity``, over-long integers and deep
nesting; ``data_lines`` reads a packaged data file; the TSV readers
share ``table_lines`` and ``parse_code_point``. Every output file is
written here too, whole, by ``write_utf8``.
"""

from __future__ import annotations

import functools
import io
import json
import os
import re
import sys
import unicodedata
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple

from .errors import ConfigError, ParseError

__all__ = [
    "Script",
    "CharClass",
    "NormMode",
    "Direction",
    "DIRECTIONS",
    "SMOOTHINGS",
    "DEFAULT_LM_ORDER",
    "DEFAULT_BEAM",
    "ZWNJ",
    "TAJIK_LETTERS",
    "FARSI_LETTERS",
    "FARSI_DIACRITICS",
    "classify_char",
    "normalize_text",
    "strip_whitespace",
    "load_char_table",
    "decode_utf8",
    "read_utf8",
    "temporary_sibling",
    "write_utf8",
    "split_lines",
    "read_lines",
    "parse_json_object",
    "table_lines",
    "parse_code_point",
    "data_lines",
]

ZWNJ = "‌"
HYPHEN = "-"


class Script(Enum):
    FARSI = "farsi"
    TAJIK = "tajik"


class CharClass(Enum):
    PERSO_ARABIC_LETTER = "perso_arabic_letter"
    PERSO_ARABIC_DIACRITIC = "perso_arabic_diacritic"
    ZWNJ = "zwnj"
    TAJIK_LETTER = "tajik_letter"
    TAJIK_HYPHEN = "tajik_hyphen"
    SPACE = "space"
    OTHER = "other"


class NormMode(Enum):
    TRAIN = "train"
    EVAL = "eval"


class Direction(NamedTuple):
    """A transliteration direction: its name and its source and target scripts."""

    name: str
    source: Script
    target: Script

    @classmethod
    def of(cls, name: str) -> "Direction":
        """The direction called ``name``; ConfigError if there is none."""
        try:
            return DIRECTIONS[name]
        except KeyError:
            raise ConfigError(f"direction must be one of {tuple(DIRECTIONS)}, got {name!r}") from None


DIRECTIONS = {
    d.name: d
    for d in (Direction("tg2fa", Script.TAJIK, Script.FARSI), Direction("fa2tg", Script.FARSI, Script.TAJIK))
}
SMOOTHINGS = ("witten_bell", "none")
DEFAULT_LM_ORDER = 5
DEFAULT_BEAM = 16


_LETTER_CLASSES = (CharClass.PERSO_ARABIC_LETTER, CharClass.TAJIK_LETTER)
# Kept in train mode, deleted in eval mode.
_OPTIONAL_CLASSES = (CharClass.ZWNJ, CharClass.PERSO_ARABIC_DIACRITIC, CharClass.TAJIK_HYPHEN)


def classify_char(
    c: str, script: Script | str, table: Mapping[str, CharClass] | None = None
) -> CharClass:
    """Classify a single code point for the given script.

    Total and deterministic: any scalar value maps to exactly one class.
    ``table`` holds per-code-point overrides loaded from a TSV config.
    """
    script = Script(script)
    if table is not None:
        override = table.get(c)
        if override is not None:
            return override
    if c == ZWNJ:
        return CharClass.ZWNJ
    if script is Script.FARSI:
        if c in FARSI_DIACRITICS:
            return CharClass.PERSO_ARABIC_DIACRITIC
        if c in FARSI_LETTERS:
            return CharClass.PERSO_ARABIC_LETTER
    else:
        if c in TAJIK_LETTERS:
            return CharClass.TAJIK_LETTER
        if c == HYPHEN:
            return CharClass.TAJIK_HYPHEN
    if c.isspace():
        return CharClass.SPACE
    return CharClass.OTHER


class _Translation(dict):
    """The ``str.translate`` table of one (script, mode, override table).

    Each code point's output is classified on first use and cached:
    letters map to themselves and whitespace to a space; in train mode
    ZWNJ, diacritics and the hyphen class map to themselves, since
    ``join_hyphens`` has already dropped the loose hyphens; everything
    else is deleted.
    """

    def __init__(self, script: Script, mode: NormMode, table: Mapping[str, CharClass] | None):
        super().__init__()
        self.script = script
        self.table = table
        self.keep_optional = mode is NormMode.TRAIN
        # The hyphens that join_hyphens looks at; none in eval mode.
        self.hyphens = sorted(
            c
            for c in {HYPHEN, *(table or ())}
            if self.keep_optional and len(c) == 1 and classify_char(c, script, table) is CharClass.TAJIK_HYPHEN
        )
        self.hyphen_pattern = re.compile("|".join(map(re.escape, self.hyphens)))

    def __missing__(self, code_point: int) -> str | None:
        ch = chr(code_point)
        cls = classify_char(ch, self.script, self.table)
        if cls is CharClass.SPACE:
            out = " "
        elif cls in _LETTER_CLASSES or (self.keep_optional and cls in _OPTIONAL_CLASSES):
            out = ch
        else:
            out = None
        self[code_point] = out
        return out

    def join_hyphens(self, text: str) -> str:
        """``text`` without the hyphens that lack a letter on either side (train mode only).

        A joining hyphen (letter-hyphen-letter in the raw text) is
        orthography and is kept for training; a standalone dash is
        punctuation. Eval mode deletes every hyphen in the translation.
        """
        if not any(h in text for h in self.hyphens):
            return text
        script, table, last = self.script, self.table, len(text) - 1

        def keep(m: re.Match) -> str:
            i = m.start()
            joining = (
                0 < i < last
                and classify_char(text[i - 1], script, table) in _LETTER_CLASSES
                and classify_char(text[i + 1], script, table) in _LETTER_CLASSES
            )
            return m[0] if joining else ""

        return self.hyphen_pattern.sub(keep, text)


@functools.lru_cache(maxsize=16)
def _translation(
    script: Script, mode: NormMode, overrides: frozenset[tuple[str, CharClass]] | None
) -> _Translation:
    """The translation of one (script, mode, override table), built on first use.

    The overrides are keyed by their contents, so a table changed after
    its first use gets a translation of its own.
    """
    return _Translation(script, mode, None if overrides is None else dict(overrides))


def normalize_text(
    text: str,
    script: Script | str,
    mode: NormMode | str,
    table: Mapping[str, CharClass] | None = None,
) -> str:
    """Normalize raw text for training or evaluation.

    Train mode removes class ``other``, lowercases Tajik and collapses
    whitespace runs; eval mode additionally removes ZWNJ, Arabic
    diacritics and the Tajik hyphen. Both modes expect raw text: callers
    re-normalize from raw rather than chaining modes.

    The text goes through one ``str.translate`` whose table classifies
    each distinct code point once; the tables are cached per script,
    mode and contents of the override ``table``. In train mode a
    pre-pass over the raw text first drops each hyphen-class character
    that lacks a letter on either side; it runs only when the text holds
    one. Whitespace runs then collapse to one space, and Tajik is
    lowercased.
    """
    script = Script(script)
    overrides = None if table is None else frozenset(table.items())
    translation = _translation(script, NormMode(mode), overrides)
    collapsed = " ".join(translation.join_hyphens(text).translate(translation).split())
    if script is Script.TAJIK:
        collapsed = collapsed.lower()
    return collapsed


def strip_whitespace(text: str) -> str:
    """Remove every whitespace character (normalized text only has U+0020)."""
    return "".join(text.split())


def decode_utf8(data: bytes, where: str) -> str:
    """``data`` decoded as UTF-8; a byte that is not UTF-8 raises ParseError naming ``where`` and the line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise ParseError(f"not valid UTF-8 (byte 0x{data[e.start]:02X})", line=line, path=where) from None


def read_utf8(path: str | Path) -> str:
    """The text of a UTF-8 file; a byte that is not UTF-8 raises ParseError naming the file and line."""
    return decode_utf8(Path(path).read_bytes(), str(path))


def temporary_sibling(path: Path, suffix: str) -> Path:
    """``.tgfa.<pid>.<suffix>`` beside ``path``, to build it under: as long whatever ``path``'s name.

    ``write_utf8`` builds a file as ``tmp``, and a run directory is built as ``dir``.
    """
    return path.with_name(f".tgfa.{os.getpid()}.{suffix}")


def write_utf8(path: str | Path, chunks: Iterable[str]) -> None:
    """Write ``chunks`` as UTF-8 with LF line ends to ``path``, or to stdout for the str (not Path) ``"-"``.

    A new or regular file is replaced whole by its ``temporary_sibling``, so a failed write
    leaves the old file and no temporary one. A symlink or a device is written in place.
    """
    if path == "-":
        sys.stdout.writelines(chunks)
        return
    path = Path(path)
    whole = not path.is_symlink() and (path.is_file() or not path.exists())
    target = temporary_sibling(path, "tmp") if whole else path
    try:
        with open(target, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        if whole:
            os.replace(target, path)
    except BaseException:
        if whole:
            target.unlink(missing_ok=True)
        raise


def split_lines(text: str) -> Iterator[str]:
    """The lines of ``text`` without their ends, split as a text-mode file is: at LF, CRLF or CR."""
    return (line.rstrip("\n") for line in io.StringIO(text, newline=None))


def read_lines(path: str | Path) -> Iterator[str]:
    """The ``split_lines`` of a UTF-8 file, or of stdin for ``"-"``; ParseError if not UTF-8."""
    return split_lines(decode_utf8(sys.stdin.buffer.read(), "<stdin>") if path == "-" else read_utf8(path))


def _refuse_constant(name: str):
    raise json.JSONDecodeError(f"{name} is not a JSON number", name, 0)


# Every JSON decoder: json's, refusing NaN and Infinity.
_decoder = functools.partial(json.JSONDecoder, parse_constant=_refuse_constant)
_JSON = _decoder()


def parse_json_object(
    text: str,
    path: str | None = None,
    line: int | None = None,
    *,
    pairs_hook: Callable[[list[tuple[str, Any]]], Any] | None = None,
) -> dict:
    """The JSON object ``text`` holds, else ParseError naming ``path`` and ``line`` when given.

    ``pairs_hook``, when given, makes the value of every JSON object from
    its list of (key, value) pairs, as ``json``'s ``object_pairs_hook``
    does; the errors are the same with it and without.
    """
    decoder = _JSON if pairs_hook is None else _decoder(object_pairs_hook=pairs_hook)
    try:
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        value = decoder.decode(text)
    except (ValueError, RecursionError) as e:
        # Drop CPython's advice to raise the integer digit limit, which no command-line user can take.
        reason = str(getattr(e, "msg", e)).split("; use sys.set_int_max_str_digits()")[0]
        raise ParseError(f"invalid JSON ({reason})", line=line, path=path) from None
    if not isinstance(value, dict):
        raise ParseError("expected a JSON object", line=line, path=path)
    return value


def table_lines(source: str | Path | Iterable[str]) -> tuple[str | None, list[tuple[int, str]]]:
    """The file name and the (1-based line number, stripped line) rows of a TSV config.

    ``source`` is a path, read with ``read_utf8`` and ``split_lines``, or
    an iterable of lines; for the latter the file name is None. Blank
    lines and lines starting with ``#`` are skipped.
    """
    where = str(source) if isinstance(source, (str, Path)) else None
    lines = source if where is None else split_lines(read_utf8(where))
    rows = ((lineno, line.strip()) for lineno, line in enumerate(lines, start=1))
    return where, [(lineno, line) for lineno, line in rows if line and not line.startswith("#")]


def parse_code_point(field: str, line: int | None = None, path: str | None = None) -> str:
    """The character a table field names: ``U+XXXX``, ``0xXXXX`` or the character itself."""
    field = field.strip()
    try:
        if field[:2].upper() in ("U+", "0X"):
            return chr(int(field[2:], 16))
        if len(field) == 1:
            return field
    except (ValueError, OverflowError):
        pass
    raise ParseError(f"bad code point {field!r}", line=line, path=path)


def data_lines(name: str) -> Iterator[str]:
    """The ``split_lines`` of the packaged data file ``tgfa/data/<name>``."""
    return split_lines(resources.files("tgfa.data").joinpath(name).read_text("utf-8"))


def _sources(name: str) -> frozenset[str]:
    """The source column of the packaged mapping table ``name``, less ZWNJ and the hyphen."""
    _, rows = table_lines(data_lines(name))
    return frozenset(parse_code_point(line.split("\t")[0], lineno, name) for lineno, line in rows) - {ZWNJ, HYPHEN}


FARSI_DIACRITICS = frozenset(filter(unicodedata.combining, _sources("map_fa2tg.tsv")))
FARSI_LETTERS = _sources("map_fa2tg.tsv") - FARSI_DIACRITICS
TAJIK_LETTERS = frozenset(c for lower in _sources("map_tg2fa.tsv") for c in (lower, lower.upper()))


def load_char_table(source: str | Path | Iterable[str]) -> dict[str, CharClass]:
    """Read classification overrides from a TSV config.

    Each line is ``codepoint<TAB>class``; the code point may be written
    as ``U+0438``, ``0x0438`` or a single literal character. Lines that
    are empty or start with ``#`` are ignored. Assigning class ``other``
    removes a character from its inventory. A code point given twice is
    a ParseError. Errors name the file when ``source`` is a path.
    """
    where, rows = table_lines(source)
    table: dict[str, CharClass] = {}
    for lineno, line in rows:
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError("expected codepoint<TAB>class", line=lineno, path=where)
        cls_field = parts[1].strip()
        try:
            cls = CharClass(cls_field)
        except ValueError:
            raise ParseError(f"unknown class {cls_field!r}", line=lineno, path=where) from None
        char = parse_code_point(parts[0], lineno, where)
        if char in table:
            raise ParseError(f"duplicate code point U+{ord(char):04X}", line=lineno, path=where)
        table[char] = cls
    return table
