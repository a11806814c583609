from __future__ import annotations

import io
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from unittest import mock

import pytest

from tgfa.corpus import ParallelPair
from tgfa.script import TAJIK_LETTERS, ZWNJ, CharClass

# Letters that sit in both default mapping tables, so synthetic corpora
# built from them never hit inventory gaps.
TAJIK_SAMPLE = "абвгдежзийклмнопрстуфхчшъэюяёғӣқӯҳҷ"
FARSI_SAMPLE = "ابپتثجچحخدذرزژسشصضطظعغفقکگلمنوهیء"


@dataclass
class CliResult:
    exit_code: int
    output: str  # stdout and stderr together, in the order they were written
    exception: SystemExit
    stdin_read: bool  # whether the command read any of its stdin


def run_cli(args, input: str | bytes = b"", env: dict[str, str] | None = None) -> CliResult:
    """Run ``tgfa.cli.main(args)`` in this process, with ``input`` on stdin and ``env`` added to the environment.

    ``main`` must end in SystemExit; returning normally fails the test.
    """
    from tgfa.cli import main

    data = input.encode("utf-8") if isinstance(input, str) else input
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    out = io.StringIO()
    with mock.patch.dict(os.environ, env or {}), mock.patch.object(sys, "stdin", stdin), \
            redirect_stdout(out), redirect_stderr(out):
        try:
            main(list(args))
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
            return CliResult(code, out.getvalue(), e, stdin.buffer.tell() > 0)
    raise AssertionError(f"main({list(args)}) returned instead of raising SystemExit")


def tajik_char_table() -> str:
    """The built-in Tajik inventory as ``U+XXXX<TAB>class`` lines in code point order: a valid ``--char-table``."""
    chars = {ZWNJ: CharClass.ZWNJ, "-": CharClass.TAJIK_HYPHEN, **dict.fromkeys(TAJIK_LETTERS, CharClass.TAJIK_LETTER)}
    return "".join(f"U+{ord(c):04X}\t{cls.value}\n" for c, cls in sorted(chars.items()))


def random_words(rng: random.Random, alphabet: str, n_words: int, max_len: int = 8) -> str:
    words = [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(1, max_len)))
        for _ in range(n_words)
    ]
    return " ".join(words)


def toy_corpus(n: int = 60, seed: int = 7, dataset: str = "Dictionary") -> list[ParallelPair]:
    rng = random.Random(seed)
    return [
        ParallelPair(
            fa=random_words(rng, FARSI_SAMPLE, rng.randint(1, 3)),
            tg=random_words(rng, TAJIK_SAMPLE, rng.randint(1, 3)),
            dataset=dataset,
        )
        for _ in range(n)
    ]


@pytest.fixture
def corpus_file(tmp_path):
    """Write a small mixed-domain JSONL corpus and return its path."""
    import json

    rng = random.Random(11)
    rows = []
    for dataset in ("Masnavi", "Dr Blog", "Places", "Dictionary"):
        for _ in range(6):
            rows.append(
                {
                    "fa": random_words(rng, FARSI_SAMPLE, rng.randint(1, 3)),
                    "tg": random_words(rng, TAJIK_SAMPLE, rng.randint(1, 3)),
                    "dataset": dataset,
                }
            )
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows),
        encoding="utf-8",
    )
    return path
