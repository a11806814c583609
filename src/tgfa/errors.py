"""Exception hierarchy shared by all tgfa modules.

Exit codes group errors into families for the CLI: 2 = configuration,
3 = parse/artifact, 4 = data mismatch. Everything else exits 1.
"""

from __future__ import annotations

__all__ = [
    "TgfaError",
    "ConfigError",
    "WrongState",
    "MarkerCollision",
    "EmptyCorpus",
    "ParseError",
    "ArtifactError",
    "TooSmall",
    "BadMap",
    "UnknownDataset",
    "UnknownChar",
    "LengthMismatch",
]


class TgfaError(Exception):
    """Base class for all toolkit errors; the message names the file and line when given."""

    exit_code = 1

    def __init__(self, message: str, line: int | None = None, path: str | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line = line


class ConfigError(TgfaError, ValueError):
    """Invalid run configuration (bad flag value, missing input path, invalid table)."""

    exit_code = 2


class WrongState(TgfaError):
    """Text is not in the normalization state an operation requires."""

    exit_code = 2


class MarkerCollision(TgfaError):
    """Input text already contains a marker character; signals a pipeline bug."""

    exit_code = 2


class TooSmall(TgfaError):
    """Corpus too small for the requested split or fold count."""

    exit_code = 2


class BadMap(TgfaError):
    """Consonant map is not a one-to-one character correspondence."""

    exit_code = 2


class ParseError(TgfaError):
    """Malformed input file; message carries the file, line number and reason."""

    exit_code = 3


class ArtifactError(ParseError):
    """Persisted model file is not a JSON object or has a wrong magic header or version."""


class UnknownDataset(TgfaError):
    """Dataset label has no registered domain."""

    exit_code = 3


class UnknownChar(TgfaError):
    """Source character has no mapping-table entry (inventory gap).

    ``line`` and ``path``, when given, name the input line that first
    holds the token.
    """

    exit_code = 3

    def __init__(
        self,
        char: str,
        word: str = "",
        position: int = -1,
        token_index: int = -1,
        line: int | None = None,
        path: str | None = None,
    ):
        where = []
        if word:
            where.append(f"in {word!r}")
        if position >= 0:
            where.append(f"at position {position}")
        if token_index >= 0:
            where.append(f"(token {token_index})")
        suffix = " " + " ".join(where) if where else ""
        super().__init__(f"no mapping entry for {char!r} (U+{ord(char):04X}){suffix}", line=line, path=path)
        self.char = char
        self.word = word
        self.position = position
        self.token_index = token_index


class EmptyCorpus(TgfaError):
    """Operation requires at least one pair/text."""

    exit_code = 4


class LengthMismatch(TgfaError):
    """Hypothesis line count differs from the reference pair count."""

    exit_code = 4
