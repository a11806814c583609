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


def _records():
    """One record of each record class, with the values of its compared fields in order."""
    from tgfa.corpus import ParallelPair, SplitSpec
    from tgfa.metrics import EvalPair
    from tgfa.script import DIRECTIONS
    from tgfa.translit import Lattice, MappingTable, TranslitDict

    d = DIRECTIONS["tg2fa"]
    return [
        pytest.param(ParallelPair, ("از", "аз", "Places", "names"), id="ParallelPair"),
        pytest.param(SplitSpec, ((0, 2), (1,), (3,)), id="SplitSpec"),
        pytest.param(EvalPair, ("کتاب", "کتب", "prose"), id="EvalPair"),
        pytest.param(MappingTable, (d, {"а": ("ا", "")}), id="MappingTable"),
        pytest.param(TranslitDict, (d, {"аз": "از"}, 2), id="TranslitDict"),
        pytest.param(Lattice, ("аб", (("ا", ""), ("ب",))), id="Lattice"),
    ]


# Fields each class compares, repr shows and hashes, in order.
_RECORD_FIELDS = {
    "ParallelPair": ("fa", "tg", "dataset", "domain"),
    "SplitSpec": ("train", "dev", "test"),
    "EvalPair": ("hypothesis", "reference", "group"),
    "MappingTable": ("direction", "entries"),
    "TranslitDict": ("direction", "entries", "skipped_pairs"),
    "Lattice": ("word", "slots"),
}
# A different value for each field, of the same type.
_OTHER_VALUE = {str: "ک", tuple: (9,), dict: {}, int: 7}


class TestRecords:
    """The records keep their equality, hashing, ``repr`` and immutability whatever defines them."""

    @pytest.mark.parametrize("cls,values", _records())
    def test_repr_names_the_compared_fields(self, cls, values):
        fields = _RECORD_FIELDS[cls.__name__]
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
        assert repr(cls(*values)) == f"{cls.__name__}({shown})"
        assert repr(cls(**dict(zip(fields, values)))) == repr(cls(*values))

    @pytest.mark.parametrize("cls,values", _records())
    def test_equality_and_hash_over_the_compared_fields(self, cls, values):
        a, b = cls(*values), cls(*values)
        assert a == b and not a != b
        hashable = cls.__name__ not in ("MappingTable", "TranslitDict")
        if hashable:
            assert hash(a) == hash(b) == hash(values)
        else:
            with pytest.raises(TypeError):
                hash(a)
        for i, value in enumerate(values):
            if type(value) not in _OTHER_VALUE:
                continue
            changed = list(values)
            changed[i] = _OTHER_VALUE[type(value)]
            if cls.__name__ == "ParallelPair" and i == 3:
                changed[i] = "poetry"
            assert a != cls(*changed), _RECORD_FIELDS[cls.__name__][i]

    # TranslitDict is the one record that is not frozen.
    @pytest.mark.parametrize("cls,values", [p for p in _records() if p.id != "TranslitDict"])
    def test_frozen_records_refuse_assignment(self, cls, values):
        record = cls(*values)
        names = [*_RECORD_FIELDS[cls.__name__], "other"]
        if cls.__name__ == "ParallelPair":
            names += ["fa_train", "tg_train", "jsonl_line"]
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name, None))
        assert tuple(getattr(record, name) for name in _RECORD_FIELDS[cls.__name__]) == values

    def test_parallel_pair_derived_fields_are_not_compared(self):
        from tgfa.corpus import ParallelPair

        a = ParallelPair("از!", "Аз")
        assert (a.fa_train, a.tg_train, a.dataset, a.domain) == ("از", "аз", "", None)
        assert a == ParallelPair("از!", "Аз", "") and a != ParallelPair("از", "аз")
        assert a.jsonl_line == '{"dataset": "", "fa": "از!", "tg": "Аз"}\n'
        with pytest.raises(ValueError, match=r"^unknown domain 'verse'$"):
            ParallelPair("از", "аз", domain="verse")

    def test_translit_dict_ignores_votes(self):
        from collections import Counter

        from tgfa.script import DIRECTIONS
        from tgfa.translit import TranslitDict

        d = DIRECTIONS["fa2tg"]
        empty = TranslitDict(d)
        assert (empty.entries, empty.skipped_pairs, empty.votes) == ({}, 0, None)
        assert empty.entries is not TranslitDict(d).entries
        voted = TranslitDict(d, {"از": "аз"}, 1, {"از": Counter({"аз": 3})})
        assert voted == TranslitDict(d, {"از": "аз"}, 1)
        assert "votes" not in repr(voted)

    def test_eval_pair_refuses_text_that_is_not_eval_normalized(self):
        from tgfa.errors import WrongState
        from tgfa.metrics import EvalPair

        with pytest.raises(WrongState, match=r"^reference is not eval-normalized \(contains U\+002D, U\+200C\)$"):
            EvalPair(hypothesis="کتاب", reference="ک‌ت-اب")
        with pytest.raises(WrongState, match=r"^hypothesis is not eval-normalized \(contains U\+0650\)$"):
            EvalPair("کِتاب", "کتاب", "names")
