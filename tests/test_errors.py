"""Every error the package raises on purpose is a typed TgfaError."""

from __future__ import annotations

import ast
from pathlib import Path

import tgfa

# The corpus line parsers, and ParallelPair for an unknown domain, raise
# ValueError with the bare reason; read_pairs turns it into a ParseError
# naming the file and line.
UNTYPED_ALLOWED = {
    ("corpus.py", "_parse_jsonl_line"),
    ("corpus.py", "_parse_tsv_line"),
    ("corpus.py", "ParallelPair.__post_init__"),
}


class _ValueErrorRaises(ast.NodeVisitor):
    """(qualified scope, line) of each ``raise ValueError`` in a module."""

    def __init__(self):
        self.scope: list[str] = []
        self.found: list[tuple[str, int]] = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_Raise(self, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id == "ValueError":
            self.found.append((".".join(self.scope), node.lineno))


def test_no_untyped_value_errors():
    untyped = []
    for path in sorted(Path(tgfa.__file__).parent.glob("*.py")):
        visitor = _ValueErrorRaises()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        untyped += [
            f"{path.name}:{line} in {scope or '<module>'}"
            for scope, line in visitor.found
            if (path.name, scope) not in UNTYPED_ALLOWED
        ]
    assert not untyped, "raise ConfigError (a ValueError) instead: " + ", ".join(untyped)
