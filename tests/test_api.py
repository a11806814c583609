"""The package's surface: each module's ``__all__`` is its public API, with names that
resolve, none of them private, each of them used; each private module-level name is used
too; and nothing is imported from outside the standard library."""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path
from types import FunctionType

import pytest

import tgfa

SRC = Path(tgfa.__file__).parent
ROOT = SRC.parent.parent


def _exports() -> dict[str, list[str]]:
    """Each ``tgfa`` module that has an ``__all__``, mapped to it."""
    exports = {}
    for path in sorted(SRC.glob("*.py")):
        name = "tgfa" if path.stem == "__init__" else f"tgfa.{path.stem}"
        exported = getattr(importlib.import_module(name), "__all__", None)
        if exported is not None:
            exports[name] = exported
    return exports


def test_all_lists_public_names_that_resolve():
    exports, bad = _exports(), []
    for name, exported in exports.items():
        module = importlib.import_module(name)
        bad += [f"{name}.{attr}" for attr in exported if attr.startswith("_") or not hasattr(module, attr)]
    assert exports, "no module has an __all__"
    assert not bad, "private or unresolved names in __all__: " + ", ".join(bad)


def _references(path: Path, strings: bool) -> set[str]:
    """The names a file's code uses: loaded names, attributes and imported names.

    With ``strings``, also every string constant, since the benchmark
    tracer looks functions up by name with ``getattr``; a constant
    counts only as a whole name, so a docstring that mentions one does
    not. A definition is not a use, and neither is an ``__all__`` entry.
    """
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def _used() -> set[str]:
    """Every name the package, the benchmark or the test oracles use."""
    used = set()
    for path in SRC.glob("*.py"):
        used |= _references(path, strings=False)
    for path in [*(ROOT / "perfbench").glob("*.py"), ROOT / "tests" / "oracles.py"]:
        used |= _references(path, strings=True)
    return used


def test_every_public_name_is_used():
    """No public name is dead: the package, the benchmark or the test oracles use each one."""
    used = _used()
    dead = [f"{name}.{attr}" for name, exported in _exports().items() for attr in exported if attr not in used]
    assert not dead, "public names nothing uses: " + ", ".join(dead)


def test_every_public_method_is_used():
    """Nor is a public method, property or classmethod that a class in an ``__all__`` defines."""
    used, dead = _used(), []
    for name, exported in _exports().items():
        module = importlib.import_module(name)
        for cls in (getattr(module, attr) for attr in exported):
            if not isinstance(cls, type):
                continue
            dead += [f"{name}.{cls.__name__}.{attr}" for attr, value in vars(cls).items()
                     if not attr.startswith("_") and attr not in used
                     and isinstance(value, (FunctionType, property, classmethod, staticmethod))]
    assert not dead, "public methods nothing uses: " + ", ".join(dead)


def _bound_names(stmt: ast.stmt) -> list[str]:
    """The names a statement of a module's body binds by ``def``, ``class`` or assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]
    return []


def test_every_private_name_is_used():
    """Each private name a module's body binds is used in the package outside the statements that bind it.

    A use is a loaded name, an attribute or an imported name, as in
    ``_references``; a function that only calls itself is not used.
    """
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    bindings: dict[str, list[ast.stmt]] = {}
    for tree in trees:
        for stmt in tree.body:
            for name in _bound_names(stmt):
                if name.startswith("_") and not name.startswith("__"):
                    bindings.setdefault(name, []).append(stmt)
    inside = {name: {id(node) for stmt in stmts for node in ast.walk(stmt)} for name, stmts in bindings.items()}
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            used.update(name for name in names if name in inside and id(node) not in inside[name])
    assert bindings, "no private module-level name found"
    dead = sorted(set(bindings) - used)
    assert not dead, "private names nothing else uses: " + ", ".join(dead)


# CPython 3.12's built-in SHA-2 module, which older sys.stdlib_module_names do not list.
_NEWER_STDLIB = {"_sha2"}


def test_no_runtime_dependency():
    """Every import in the package names the standard library or tgfa, and pyproject.toml lists no dependency."""
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            top = {name.partition(".")[0] for name in names} - sys.stdlib_module_names - _NEWER_STDLIB - {"tgfa"}
            outside += [f"{path.name}: {name}" for name in top]
    assert not outside, "imports from outside the standard library: " + ", ".join(outside)
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []
