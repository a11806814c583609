"""Run one tgfa command in-process with spans around each layer's public calls.

Usage::

    python3 perfbench/tracer.py SUMMARY.json SPANS.bin -- <tgfa arguments>

The wrappers replace each traced function under every name it is bound
to in the loaded ``tgfa`` modules (``normalize_text``, for one, is bound
in ``tgfa.script``, ``tgfa.cli``, ``tgfa.corpus`` and ``tgfa.translit``),
so every caller goes through them. The program itself is unchanged.

Each span records its name, start, end and parent in flat arrays kept in
memory; they are written to SPANS.bin when the command ends, as four
consecutive arrays (name id uint16, parent int64, start float64, end
float64, each ``n_spans`` long). SUMMARY.json holds the per-name calls,
total and self time (a span's duration minus its children's), the
work counts and the numbers of distinct inputs.
"""

from __future__ import annotations

import array
import functools
import json
import os
import sys
from time import perf_counter

ROOT_SPAN = "cli"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array.array("H")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.calls: list[int] = []
        self.counts: dict[str, int] = {}
        self.distinct: dict[str, set] = {}
        self._stack: list[list] = []  # [span index, time covered by children]

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.calls.append(0)
        return self.names.index(name)

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def seen(self, name: str, key) -> None:
        self.distinct.setdefault(name, set()).add(key)

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span; ``before``/``after`` see its arguments."""
        nid = self._name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                self.start[idx] = t0
                self.end[idx] = t1
                self.total_s[nid] += d
                self.self_s[nid] += d - frame[1]
                self.calls[nid] += 1
                if stack:
                    stack[-1][1] += d
            if after is not None:
                after(*args, **kwargs)
            return result

        return traced

    def summary(self) -> dict:
        return {
            "spans": len(self.start),
            "calls": dict(zip(self.names, self.calls)),
            "self_s": dict(zip(self.names, self.self_s)),
            "total_s": dict(zip(self.names, self.total_s)),
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }

    def write_spans(self, path: str) -> None:
        with open(path, "wb") as fh:
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)


def _rebind(old, new) -> None:
    """Point every ``tgfa`` module attribute bound to ``old`` at ``new``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "tgfa" or mod_name.startswith("tgfa.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def _value(x):
    return getattr(x, "value", x)


def install(tracer: Tracer) -> None:
    """Wrap the public calls of each layer; tgfa must be importable."""
    import tgfa.cli  # noqa: F401  (loads every module the CLI uses)
    from tgfa import _kernels, corpus, metrics, translit
    from tgfa import script as script_mod

    t = tracer

    def on_normalize(text, script, mode, table=None):
        t.add("script.normalize.chars", len(text))
        t.seen("script.normalize", (text, _value(script), _value(mode)))

    def on_levenshtein(a, b):
        t.add("kernels.levenshtein.cells", len(a) * len(b))
        t.seen("kernels.levenshtein", (a, b))

    def on_beam(lattice, lm, beam=None):
        t.add("translit.lattice_paths", lattice.path_count)

    def on_logp(lm, symbol, context=()):
        tail = tuple(context[max(0, len(context) - lm.order + 1):]) if lm.order > 1 else ()
        t.seen("translit.lm_query", (symbol, tail))

    def file_bytes(key):
        def after(obj, path, *args, **kwargs):
            t.add(key, os.path.getsize(path))

        return after

    layers = [
        ("script.normalize", script_mod, "normalize_text", on_normalize, None),
        ("corpus.load", corpus, "load", None, None),
        ("corpus.save", corpus, "save", None, file_bytes("corpus.save.bytes")),
        ("corpus.kfold", corpus, "kfold", None, None),
        ("translit.build_dictionary", translit, "build_dictionary", None, None),
        ("translit.train_lm", translit, "train_lm", None, None),
        ("translit.save_lm", translit, "save_lm", None, file_bytes("translit.lm.bytes")),
        ("translit.load_lm", translit, "load_lm", None, None),
        ("translit.beam_decode", translit, "beam_decode", on_beam, None),
        ("metrics.score_corpus", metrics, "score_corpus", None, None),
        ("metrics.chrf", metrics, "chrf", None, None),
        ("metrics.chrf", metrics, "chrf_pp", None, None),
        ("metrics.cer", metrics, "cer_mean", None, None),
        ("metrics.cer", metrics, "ncer_mean", None, None),
        ("kernels.levenshtein", _kernels, "levenshtein", on_levenshtein, None),
    ]
    for name, module, attr, before, after in layers:
        old = getattr(module, attr)
        _rebind(old, t.wrap(name, old, before, after))
    lm_cls = translit.CharNGramLM
    lm_cls.logp = t.wrap("translit.lm_query", lm_cls.logp, on_logp)


def run(summary_path: str, spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    from tgfa.cli import main

    code = 0

    def command():
        nonlocal code
        try:
            main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)

    tracer.wrap(ROOT_SPAN, command)()
    sys.stdout.flush()
    tracer.write_spans(spans_path)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, **tracer.summary()}, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        sys.exit("usage: tracer.py SUMMARY.json SPANS.bin -- <tgfa arguments>")
    sys.exit(run(sys.argv[1], sys.argv[2], sys.argv[4:]))
