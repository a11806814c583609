"""Character classification and normalization for Perso-Arabic and Tajik-Cyrillic text.

Classification is a total function over Unicode scalar values: every code
point falls into exactly one class for a given script. The built-in
inventories cover the Arabic block U+0600..U+06FF (letters and combining
marks, which include the Persian-specific letters) and Russian Cyrillic
plus the six Tajik-specific letters. Both can be amended at runtime from
a TSV table without touching the code.

Normalization has two modes. Train mode removes everything outside the
script (punctuation, digits, symbols, foreign letters), lowercases Tajik
and collapses whitespace, but keeps ZWNJ on both sides, Arabic
diacritics on the Farsi side and the intra-word hyphen on the Tajik
side. Eval mode removes those as well, so that scoring never penalizes
inconsistently written optional characters.

The corpus and TSV config readers of every module decode files with
``read_utf8``; the TSV readers also share ``table_lines`` and
``parse_code_point``.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping

from .errors import ParseError, WrongState

__all__ = [
    "Script",
    "CharClass",
    "NormMode",
    "TextState",
    "ScriptText",
    "ZWNJ",
    "TAJIK_LETTERS",
    "FARSI_LETTERS",
    "FARSI_DIACRITICS",
    "classify_char",
    "normalize",
    "normalize_text",
    "strip_whitespace",
    "export_char_table",
    "load_char_table",
    "read_utf8",
    "table_lines",
    "parse_code_point",
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


class TextState(Enum):
    RAW = "raw"
    TRAIN_NORMALIZED = "train_normalized"
    EVAL_NORMALIZED = "eval_normalized"


# Russian Cyrillic base alphabet plus the six Tajik letters. The base set
# keeps the four letters dropped from the official Tajik alphabet in 1998
# (ц щ ы ь) because they still occur in Russian loanwords in real corpora.
_TAJIK_LOWER = "абвгдежзийклмнопрстуфхцчшщъыьэюяё" + "ғӣқӯҳҷ"
TAJIK_LETTERS = frozenset(_TAJIK_LOWER + _TAJIK_LOWER.upper())

# Arabic block letters (category Lo covers the Persian-specific letters
# such as پ چ ژ گ) and combining marks (fatha, kasra, damma, sukun,
# shadda, the tanwin series, superscript alef, Quranic annotation signs).
FARSI_LETTERS = frozenset(
    chr(cp) for cp in range(0x0600, 0x0700) if unicodedata.category(chr(cp)) == "Lo"
)
FARSI_DIACRITICS = frozenset(
    chr(cp) for cp in range(0x0600, 0x0700) if unicodedata.category(chr(cp)) == "Mn"
)

_LETTER_CLASSES = (CharClass.PERSO_ARABIC_LETTER, CharClass.TAJIK_LETTER)


@dataclass(frozen=True)
class ScriptText:
    """A text together with its script tag and normalization state."""

    text: str
    script: Script
    state: TextState = TextState.RAW

    def __post_init__(self):
        object.__setattr__(self, "script", Script(self.script))
        object.__setattr__(self, "state", TextState(self.state))


def classify_char(
    c: str, script: Script | str, table: Mapping[str, CharClass] | None = None
) -> CharClass:
    """Classify a single code point for the given script.

    Total and deterministic: any scalar value maps to exactly one class.
    ``table`` holds per-code-point overrides loaded from a TSV config.
    """
    if table is not None:
        override = table.get(c)
        if override is not None:
            return override
    if c == ZWNJ:
        return CharClass.ZWNJ
    if Script(script) is Script.FARSI:
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


def _letter_at(text: str, i: int, script: Script, table) -> bool:
    if i < 0 or i >= len(text):
        return False
    return classify_char(text[i], script, table) in _LETTER_CLASSES


def normalize_text(
    text: str,
    script: Script | str,
    mode: NormMode | str,
    table: Mapping[str, CharClass] | None = None,
) -> str:
    """Normalize a plain string; see :func:`normalize` for the contract."""
    script = Script(script)
    mode = NormMode(mode)
    keep_optional = mode is NormMode.TRAIN
    out = []
    for i, ch in enumerate(text):
        cls = classify_char(ch, script, table)
        if cls is CharClass.SPACE:
            out.append(" ")
        elif cls in _LETTER_CLASSES:
            out.append(ch)
        elif cls is CharClass.TAJIK_HYPHEN:
            # Joining hyphen (letter-hyphen-letter) is orthography and is
            # kept for training; a standalone dash is punctuation.
            if keep_optional and _letter_at(text, i - 1, script, table) and _letter_at(
                text, i + 1, script, table
            ):
                out.append(ch)
        elif cls in (CharClass.ZWNJ, CharClass.PERSO_ARABIC_DIACRITIC):
            if keep_optional:
                out.append(ch)
        # CharClass.OTHER is dropped in both modes.
    collapsed = " ".join("".join(out).split())
    if script is Script.TAJIK:
        collapsed = collapsed.lower()
    return collapsed


def normalize(
    t: ScriptText,
    mode: NormMode | str,
    table: Mapping[str, CharClass] | None = None,
) -> ScriptText:
    """Normalize raw text for training or evaluation.

    Train mode removes class ``other``, lowercases Tajik and collapses
    whitespace runs; eval mode additionally removes ZWNJ, Arabic
    diacritics and the Tajik hyphen. Raises WrongState unless the input
    is raw: callers re-normalize from raw rather than chaining modes.
    """
    if t.state is not TextState.RAW:
        raise WrongState(f"normalize expects raw text, got {t.state.value}")
    mode = NormMode(mode)
    state = (
        TextState.TRAIN_NORMALIZED if mode is NormMode.TRAIN else TextState.EVAL_NORMALIZED
    )
    return ScriptText(normalize_text(t.text, t.script, mode, table), t.script, state)


def strip_whitespace(t: ScriptText | str) -> str:
    """Remove every whitespace character (normalized text only has U+0020)."""
    text = t.text if isinstance(t, ScriptText) else t
    return "".join(ch for ch in text if not ch.isspace())


def _inventory(script: Script) -> dict[str, CharClass]:
    chars: dict[str, CharClass] = {ZWNJ: CharClass.ZWNJ}
    if script is Script.FARSI:
        for c in sorted(FARSI_LETTERS):
            chars[c] = CharClass.PERSO_ARABIC_LETTER
        for c in sorted(FARSI_DIACRITICS):
            chars[c] = CharClass.PERSO_ARABIC_DIACRITIC
    else:
        for c in sorted(TAJIK_LETTERS):
            chars[c] = CharClass.TAJIK_LETTER
        chars[HYPHEN] = CharClass.TAJIK_HYPHEN
    return chars


def export_char_table(script: Script | str) -> str:
    """Dump the built-in inventory as ``U+XXXX<TAB>class`` TSV lines."""
    rows = [
        f"U+{ord(c):04X}\t{cls.value}"
        for c, cls in sorted(_inventory(Script(script)).items())
    ]
    return "\n".join(rows) + "\n"


def read_utf8(path: str | Path) -> str:
    """The text of a UTF-8 file; a byte that is not UTF-8 raises ParseError naming the file and line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise ParseError(f"not valid UTF-8 (byte 0x{data[e.start]:02X})", line=line, path=str(path)) from None


def table_lines(source: str | Path | Iterable[str]) -> tuple[str | None, list[tuple[int, str]]]:
    """The file name and the (1-based line number, stripped line) rows of a TSV config.

    ``source`` is a path, read with ``read_utf8``, or an iterable of
    lines; for the latter the file name is None. Blank lines and lines
    starting with ``#`` are skipped.
    """
    where = str(source) if isinstance(source, (str, Path)) else None
    lines = list(source) if where is None else read_utf8(where).splitlines()
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


def load_char_table(source: str | Path | Iterable[str]) -> dict[str, CharClass]:
    """Read classification overrides from a TSV config.

    Each line is ``codepoint<TAB>class``; the code point may be written
    as ``U+0438``, ``0x0438`` or a single literal character. Lines that
    are empty or start with ``#`` are ignored. Assigning class ``other``
    removes a character from its inventory. Errors name the file when
    ``source`` is a path.
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
        table[parse_code_point(parts[0], lineno, where)] = cls
    return table
