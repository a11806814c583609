"""Each module's ``__all__`` is its public API: names that resolve, none of them private."""

from __future__ import annotations

import importlib
from pathlib import Path

import tgfa


def test_all_lists_public_names_that_resolve():
    checked, bad = 0, []
    for path in sorted(Path(tgfa.__file__).parent.glob("*.py")):
        name = "tgfa" if path.stem == "__init__" else f"tgfa.{path.stem}"
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", None)
        if exported is None:
            continue
        checked += 1
        bad += [f"{name}.{attr}" for attr in exported if attr.startswith("_") or not hasattr(module, attr)]
    assert checked, "no module has an __all__"
    assert not bad, "private or unresolved names in __all__: " + ", ".join(bad)
