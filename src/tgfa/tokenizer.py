"""Character-level tokenization with contextual marker tokens.

Every word is wrapped in boundary markers ("@" before the first and after
the last character) and every inter-word space becomes a single "_" token,
giving an unambiguous, invertible grammar. Detokenization is forgiving:
model output is untrusted, so stray markers are repaired by collapsing
space runs instead of being rejected.
"""

from __future__ import annotations

from typing import Iterable

from .errors import MarkerCollision

__all__ = [
    "SPACE_MARKER",
    "WORD_BOUNDARY",
    "tokenize",
    "detokenize",
    "format_token_line",
    "parse_token_line",
]

SPACE_MARKER = "_"
WORD_BOUNDARY = "@"


def tokenize(text: str) -> list[str]:
    """Turn normalized text into a marker token sequence.

    Each word c1..ck becomes ["@", c1, ..., ck, "@"]; inter-word spaces
    become "_" between the boundary markers. Empty input gives [].
    """
    if SPACE_MARKER in text or WORD_BOUNDARY in text:
        raise MarkerCollision(
            "input already contains a marker character; normalize it first"
        )
    tokens: list[str] = []
    for i, word in enumerate(text.split()):
        if i:
            tokens.append(SPACE_MARKER)
        tokens.append(WORD_BOUNDARY)
        tokens.extend(word)
        tokens.append(WORD_BOUNDARY)
    return tokens


def detokenize(tokens: Iterable[str]) -> str:
    """Strip markers from a token sequence and rebuild the plain string.

    Drops every "@", maps "_" to a space, concatenates the rest, then
    collapses space runs and trims. Never fails: malformed marker
    placements from model output are repaired, not rejected. Inverse of
    :func:`tokenize` on well-formed sequences.
    """
    parts = []
    for tok in tokens:
        if tok == WORD_BOUNDARY:
            continue
        parts.append(" " if tok == SPACE_MARKER else tok)
    return " ".join("".join(parts).split())


def format_token_line(tokens: Iterable[str]) -> str:
    """Serialize one token sequence as a space-separated line."""
    return " ".join(tokens)


def parse_token_line(line: str) -> list[str]:
    """Parse a space-separated token line back into a token list."""
    return line.split()
