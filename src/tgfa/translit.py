"""Baseline lattice transliterator.

Pipeline per token: dictionary lookup first; on a miss, expand every
source character into its candidate target strings (the ambiguity
tables) and beam-search the resulting lattice under a character n-gram
language model trained on target-side text.

The shipped default mapping tables encode the standard letter
correspondences: unambiguous consonants map one-to-one, the homophonous
Arabic-origin letter groups map many-to-one into Tajik and one-to-many
out of it, and short Tajik vowels may map to the empty string (unwritten
in Perso-Arabic). They are a provisional starting point, editable as
plain TSV, not a vetted linguistic resource.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import ArtifactError, ConfigError, EmptyCorpus, ParseError, UnknownChar, WrongState
from .corpus import ParallelPair
from .script import (
    FARSI_LETTERS,
    Script,
    ScriptText,
    TAJIK_LETTERS,
    TextState,
    ZWNJ,
    parse_code_point,
    table_lines,
)

__all__ = [
    "Direction",
    "DIRECTIONS",
    "EMPTY_MARK",
    "MappingTable",
    "load_mapping_table",
    "save_mapping_table",
    "default_mapping_table",
    "CharNGramLM",
    "train_lm",
    "save_lm",
    "load_lm",
    "TranslitDict",
    "build_dictionary",
    "save_dictionary",
    "load_dictionary",
    "Lattice",
    "expand_lattice",
    "beam_decode",
    "first_candidate",
    "transliterate",
    "transliterate_lines",
    "avg_alternatives",
]

EMPTY_MARK = "∅"

BOS = "\x02"
EOS = "\x03"
UNK = "\x01"

LM_MAGIC = "tgfa-charlm"
DICT_MAGIC = "tgfa-dict"
# Version 2 of the LM file stores contexts as strings; version 1 stored
# them as lists of symbols.
LM_FORMAT_VERSION = 2
DICT_FORMAT_VERSION = 1
SMOOTHINGS = ("witten_bell", "none")

DEFAULT_LM_ORDER = 5
DEFAULT_BEAM = 16


@dataclass(frozen=True)
class Direction:
    """A transliteration direction: its name and its source and target scripts.

    The accessors read a pair's sides through ``ParallelPair.text``, so
    no caller picks ``fa`` or ``tg`` itself.
    """

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

    def source_text(self, pair: ParallelPair) -> str:
        """The pair's train-normalized source side."""
        return pair.text(self.source)

    def target_text(self, pair: ParallelPair) -> str:
        """The pair's train-normalized target side."""
        return pair.text(self.target)

    def reference(self, pair: ParallelPair) -> str:
        """The pair's raw target side, the reference a hypothesis is scored against."""
        return pair.text(self.target, train=False)


DIRECTIONS = {
    d.name: d
    for d in (Direction("tg2fa", Script.TAJIK, Script.FARSI), Direction("fa2tg", Script.FARSI, Script.TAJIK))
}

# The characters a mapping candidate may hold, by target script.
_CANDIDATE_CHARS = {Script.FARSI: FARSI_LETTERS | {ZWNJ}, Script.TAJIK: TAJIK_LETTERS}


@dataclass(frozen=True)
class MappingTable:
    """Per-character candidate expansion table for one direction."""

    direction: str
    entries: dict[str, tuple[str, ...]]

    def __post_init__(self):
        Direction.of(self.direction)

    def candidates(self, char: str) -> tuple[str, ...]:
        try:
            return self.entries[char]
        except KeyError:
            raise UnknownChar(char) from None

    def validate(self, path: str | None = None) -> None:
        """Check that every entry has candidates, all written in the target script.

        Raises ConfigError (a ValueError) naming ``path``, when given, and
        the offending character.
        """
        allowed = _CANDIDATE_CHARS[Direction.of(self.direction).target]
        for src, cands in self.entries.items():
            if not cands:
                raise ConfigError(f"{src!r} has no candidates", path=path)
            for cand in cands:
                bad = set(cand) - allowed
                if bad:
                    raise ConfigError(
                        f"candidate {cand!r} for {src!r} contains "
                        f"non-target characters {sorted(bad)!r}",
                        path=path,
                    )


def load_mapping_table(
    source: str | Path | Iterable[str], direction: str
) -> MappingTable:
    """Read and validate ``source_char<TAB>cand1|cand2|...`` lines; ``∅`` is the empty string.

    The source character may be written as ``U+XXXX`` or ``0xXXXX`` so
    that invisible characters (ZWNJ, combining marks) stay legible in
    the file. Parse and validation errors name the file when ``source``
    is a path.
    """
    where, rows = table_lines(source)
    entries: dict[str, tuple[str, ...]] = {}
    for lineno, line in rows:
        cols = line.split("\t")
        if len(cols) != 2:
            raise ParseError("expected source_char<TAB>candidates", line=lineno, path=where)
        src = parse_code_point(cols[0], lineno, where)
        raw_cands = cols[1].split("|")
        if any(c == "" for c in raw_cands):
            raise ParseError(
                "empty candidate field (use ∅ for the empty string)", line=lineno, path=where
            )
        cands = tuple("" if c == EMPTY_MARK else c for c in raw_cands)
        if src in entries:
            raise ParseError(f"duplicate source character {src!r}", line=lineno, path=where)
        entries[src] = cands
    table = MappingTable(direction=direction, entries=entries)
    table.validate(where)
    return table


def save_mapping_table(table: MappingTable, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for src in sorted(table.entries):
            shown = src if src.isprintable() else f"U+{ord(src):04X}"
            cands = "|".join(c if c else EMPTY_MARK for c in table.entries[src])
            fh.write(f"{shown}\t{cands}\n")


def default_mapping_table(direction: str) -> MappingTable:
    """The packaged provisional table for the given direction."""
    Direction.of(direction)
    text = resources.files("tgfa.data").joinpath(f"map_{direction}.tsv").read_text("utf-8")
    return load_mapping_table(text.splitlines(), direction)


class CharNGramLM:
    """Character n-gram model with Witten-Bell interpolation.

    Symbols are the observed target-side characters plus an end sentinel
    and an unknown bucket; begin sentinels only ever appear in contexts.
    Every conditional distribution sums to 1 over that extended alphabet.

    Every symbol, the sentinels included, is one character, so a context
    is a string. The state a query depends on is the last ``order - 1``
    characters of the text so far, left-padded with begin sentinels, as
    in KenLM (Heafield 2011). Each context's counts are stored with their
    total and number of types. ``prob`` remembers every (state, symbol)
    it has answered for the life of the model object, so a repeated query
    costs one dictionary lookup; the memo grows with the distinct queries.
    """

    def __init__(self, order: int, smoothing: str = "witten_bell"):
        if order < 1:
            raise ConfigError("order must be >= 1")
        if smoothing not in SMOOTHINGS:
            raise ConfigError(f"unknown smoothing {smoothing!r}")
        self.order = order
        self.smoothing = smoothing
        self._set_counts({EOS, UNK}, [() for _ in range(order)])

    def _set_counts(
        self, vocab: set[str], levels: Sequence[Iterable[tuple[str, dict[str, int]]]]
    ) -> None:
        """Install the alphabet and the counts: ``levels[k]`` holds (k-character context, counts)."""
        self._vocab = vocab
        # Characters that stand for themselves in a context; others become UNK.
        self._known = frozenset(vocab | {BOS})
        self._base = 1.0 / len(vocab)
        self._levels = [
            {ctx: (bucket, sum(bucket.values()), len(bucket)) for ctx, bucket in level if bucket}
            for level in levels
        ]
        self._memo: dict[str, float] = {}

    @property
    def vocab(self) -> frozenset[str]:
        return frozenset(self._vocab)

    def prob(self, symbol: str, context: Sequence[str] | str = ()) -> float:
        """P(symbol | last order-1 context symbols).

        ``context`` is a str or a sequence of one-character symbols.
        """
        n = self.order - 1
        tail = context[len(context) - n :] if len(context) > n else context
        if not isinstance(tail, str):
            tail = "".join(tail)
        known = self._known
        if not known.issuperset(tail):
            tail = "".join(c if c in known else UNK for c in tail)
        if len(tail) < n:
            tail = BOS * (n - len(tail)) + tail
        key = tail + (symbol if symbol in known else UNK)
        p = self._memo.get(key)
        if p is None:
            p = self._memo[key] = self._prob(key[:-1], key[-1])
        return p

    def _prob(self, ctx: str, sym: str) -> float:
        n = self.order - 1
        if self.smoothing == "none":
            stats = self._levels[n].get(ctx)
            return stats[0].get(sym, 0) / stats[1] if stats else 0.0
        # Uniform base distribution over the extended alphabet.
        p = self._base
        for k, level in enumerate(self._levels):
            stats = level.get(ctx[n - k :])
            if stats is not None:
                bucket, total, types = stats
                p = (bucket.get(sym, 0) + types * p) / (total + types)
        return p

    def logp(self, symbol: str, context: Sequence[str] | str = ()) -> float:
        p = self.prob(symbol, context)
        return math.log(p) if p > 0.0 else float("-inf")

    def score(self, text: str) -> float:
        """Total log-probability of a string including the end sentinel."""
        n = self.order - 1
        total = 0.0
        for i, sym in enumerate(text + EOS):
            total += self.logp(sym, text[max(0, i - n) : i])
        return total

    def to_payload(self) -> dict:
        counts = [
            [[ctx, dict(sorted(bucket.items()))] for ctx, (bucket, _, _) in sorted(level.items())]
            for level in self._levels
        ]
        return {
            "magic": LM_MAGIC,
            "version": LM_FORMAT_VERSION,
            "order": self.order,
            "smoothing": self.smoothing,
            "alphabet": sorted(self._vocab),
            "counts": counts,
        }

    @classmethod
    def from_payload(cls, payload: dict, path: str | None = None) -> "CharNGramLM":
        """The model of a version-2 payload; ArtifactError names ``path`` and the bad field."""
        order = _field(payload, "order", lambda v: type(v) is int, "an integer", path)
        if order < 1:
            raise ArtifactError(f"field 'order' must be >= 1, got {order}", path=path)
        smoothing = _field(
            payload, "smoothing", lambda v: v in SMOOTHINGS, f"one of {SMOOTHINGS}", path
        )
        alphabet = _field(
            payload,
            "alphabet",
            lambda v: type(v) is list and all(type(s) is str and len(s) == 1 for s in v),
            "a list of characters",
            path,
        )
        counts = _field(
            payload,
            "counts",
            lambda v: type(v) is list and len(v) == order and all(map(_is_level, v, range(order))),
            f"a list of {order} levels of [k-character context, {{character: count}}] pairs",
            path,
        )
        lm = cls(order=order, smoothing=smoothing)
        lm._set_counts(set(alphabet) | {EOS, UNK}, counts)
        return lm


def _is_level(entries, k: int) -> bool:
    """Whether ``entries`` is a list of [k-character context, {character: positive count}]."""
    return type(entries) is list and all(
        type(entry) is list
        and len(entry) == 2
        and type(entry[0]) is str
        and len(entry[0]) == k
        and type(entry[1]) is dict
        and all(type(s) is str and len(s) == 1 and type(c) is int and c > 0 for s, c in entry[1].items())
        for entry in entries
    )


def _field(payload: dict, name: str, ok, what: str, path: str | None):
    """``payload[name]`` if present and ``ok``; otherwise ArtifactError naming the field."""
    if name not in payload:
        raise ArtifactError(f"missing field {name!r}", path=path)
    value = payload[name]
    if not ok(value):
        raise ArtifactError(f"field {name!r} must be {what}", path=path)
    return value


def train_lm(
    texts: Iterable[str], order: int = DEFAULT_LM_ORDER, smoothing: str = "witten_bell"
) -> CharNGramLM:
    """Count character n-grams (with sentinel padding) over target-side text."""
    lm = CharNGramLM(order=order, smoothing=smoothing)
    n = order - 1
    # Every n-gram of up to ``order`` characters that ends on a predicted
    # symbol, keyed by its string: context plus symbol.
    grams: Counter[str] = Counter()
    vocab = {EOS, UNK}
    n_texts = 0
    for text in texts:
        if not text:
            continue
        vocab.update(text)
        padded = BOS * n + text + EOS
        grams.update(padded[i - k : i + 1] for i in range(n, len(padded)) for k in range(order))
        n_texts += 1
    if n_texts == 0:
        raise EmptyCorpus("no non-empty training texts")
    levels: list[dict[str, dict[str, int]]] = [{} for _ in range(order)]
    for gram, count in grams.items():
        levels[len(gram) - 1].setdefault(gram[:-1], {})[gram[-1]] = count
    lm._set_counts(vocab, [level.items() for level in levels])
    return lm


def save_lm(lm: CharNGramLM, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(lm.to_payload(), ensure_ascii=False, sort_keys=True), encoding="utf-8"
    )


def _read_artifact(path: str | Path, kind: str, magic: str, version: int, remake: str) -> dict:
    """The JSON object of a saved model file, checked for magic and version.

    ``remake`` is the command that writes the current version of the file.
    """
    where = str(path)
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ArtifactError(f"not a valid {kind} file: {e.msg}", path=where) from None
    if not isinstance(payload, dict):
        raise ArtifactError(f"not a valid {kind} file: expected a JSON object", path=where)
    if payload.get("magic") != magic:
        raise ArtifactError(f"not a {magic} file", path=where)
    if payload.get("version") != version:
        raise ArtifactError(
            f"unsupported format version {payload.get('version')!r}, "
            f"expected {version}; remake the file with `tgfa {remake}`",
            path=where,
        )
    return payload


def load_lm(path: str | Path) -> CharNGramLM:
    payload = _read_artifact(path, "model", LM_MAGIC, LM_FORMAT_VERSION, "train-lm")
    return CharNGramLM.from_payload(payload, path=str(path))


@dataclass
class TranslitDict:
    """Word-level lookup built from positionally aligned training pairs."""

    direction: str
    entries: dict[str, str] = field(default_factory=dict)
    skipped_pairs: int = 0

    def get(self, token: str) -> str | None:
        return self.entries.get(token)


def build_dictionary(pairs: Sequence[ParallelPair], direction: str) -> TranslitDict:
    """Align word i to word i of each pair's train-normalized sides.

    Pairs with unequal token counts are skipped and counted. Each source
    token keeps its most frequent target (ties broken by the
    lexicographically smallest).
    """
    d = Direction.of(direction)
    votes: dict[str, Counter] = {}
    skipped = 0
    for pair in pairs:
        src_tokens, tgt_tokens = d.source_text(pair).split(), d.target_text(pair).split()
        if len(src_tokens) != len(tgt_tokens):
            skipped += 1
            continue
        for s, t in zip(src_tokens, tgt_tokens):
            votes.setdefault(s, Counter())[t] += 1
    entries = {}
    for s, counter in votes.items():
        best_count = max(counter.values())
        entries[s] = min(t for t, c in counter.items() if c == best_count)
    return TranslitDict(direction=direction, entries=entries, skipped_pairs=skipped)


def save_dictionary(d: TranslitDict, path: str | Path) -> None:
    payload = {
        "magic": DICT_MAGIC,
        "version": DICT_FORMAT_VERSION,
        "direction": d.direction,
        "skipped_pairs": d.skipped_pairs,
        "entries": dict(sorted(d.entries.items())),
    }
    Path(path).write_text(
        json.dumps(payload, ensure_ascii=False, sort_keys=True), encoding="utf-8"
    )


def load_dictionary(path: str | Path) -> TranslitDict:
    """The saved dictionary; ArtifactError names the file and any bad field."""
    where = str(path)
    payload = _read_artifact(path, "dictionary", DICT_MAGIC, DICT_FORMAT_VERSION, "build-dict")
    names = tuple(DIRECTIONS)
    direction = _field(payload, "direction", lambda v: v in names, f"one of {names}", where)
    entries = _field(
        payload,
        "entries",
        lambda v: type(v) is dict and all(type(t) is str for t in v.values()),
        "an object of source token to target token",
        where,
    )
    skipped = payload.get("skipped_pairs", 0)
    if type(skipped) is not int or skipped < 0:
        raise ArtifactError("field 'skipped_pairs' must be a non-negative integer", path=where)
    return TranslitDict(direction=direction, entries=dict(entries), skipped_pairs=skipped)


@dataclass(frozen=True)
class Lattice:
    """Positional candidate lists for one source token."""

    word: str
    slots: tuple[tuple[str, ...], ...]

    @property
    def path_count(self) -> int:
        count = 1
        for slot in self.slots:
            count *= len(slot)
        return count

    def paths(self) -> Iterable[str]:
        """All path strings, lazily, in slot-candidate order."""
        for combo in itertools.product(*self.slots):
            yield "".join(combo)


def expand_lattice(word: str, table: MappingTable) -> Lattice:
    """Candidate lists per character; UnknownChar on inventory gaps."""
    slots = []
    for pos, ch in enumerate(word):
        try:
            slots.append(table.candidates(ch))
        except UnknownChar:
            raise UnknownChar(ch, word=word, position=pos) from None
    return Lattice(word=word, slots=tuple(slots))


def _extend_score(lm: CharNGramLM, text: str, start: int, base: float) -> float:
    """``base`` plus the log-probability of ``text[start:]`` following ``text[:start]``."""
    score = base
    n = lm.order - 1
    for i in range(start, len(text)):
        score += lm.logp(text[i], text[max(0, i - n) : i])
    return score


def beam_decode(lattice: Lattice, lm: CharNGramLM, beam: int = DEFAULT_BEAM) -> list[str]:
    """Rank lattice paths by LM score with a per-position beam.

    A hypothesis is its string; the LM sees its last ``lm.order - 1``
    characters as the context. Identical partial strings are merged
    (their scores are equal by construction). Ties break
    lexicographically, so the result is deterministic; with beam >= path
    count it equals exhaustive scoring.
    """
    if beam < 1:
        raise ConfigError("beam must be >= 1")
    hyps: dict[str, float] = {"": 0.0}
    for slot in lattice.slots:
        extended: dict[str, float] = {}
        for prefix, score in hyps.items():
            for cand in slot:
                grown = prefix + cand
                if grown not in extended:
                    extended[grown] = _extend_score(lm, grown, len(prefix), score)
        ranked = sorted(extended.items(), key=lambda kv: (-kv[1], kv[0]))
        hyps = dict(ranked[:beam])
    finals = {text: score + lm.logp(EOS, text) for text, score in hyps.items()}
    return [text for text, _ in sorted(finals.items(), key=lambda kv: (-kv[1], kv[0]))]


def first_candidate(word: str, table: MappingTable) -> str:
    """No-LM baseline: concatenate each character's first candidate."""
    return "".join(slot[0] for slot in expand_lattice(word, table).slots)


def transliterate(
    text: ScriptText | str,
    dictionary: TranslitDict | None = None,
    table: MappingTable | None = None,
    lm: CharNGramLM | None = None,
    beam: int = DEFAULT_BEAM,
    direction: str | None = None,
) -> ScriptText:
    """Transliterate one train-normalized line; see ``transliterate_lines``.

    To transliterate many lines, pass them all to ``transliterate_lines``,
    which translates each distinct token once over the whole batch.
    """
    return transliterate_lines([text], dictionary, table, lm, beam, direction)[0]


def transliterate_lines(
    lines: Iterable[ScriptText | str],
    dictionary: TranslitDict | None = None,
    table: MappingTable | None = None,
    lm: CharNGramLM | None = None,
    beam: int = DEFAULT_BEAM,
    direction: str | None = None,
) -> list[ScriptText]:
    """Transliterate train-normalized lines token by token.

    Dictionary hits return the stored target; misses go through lattice
    expansion and, when an LM is given, beam rescoring (otherwise the
    first-candidate baseline). The direction comes from the dictionary or
    table unless passed explicitly.

    The dictionary, table, LM and beam are fixed for the call, so each
    distinct token is translated once, at its first occurrence, and every
    later occurrence reuses that output.
    """
    if direction is None:
        if dictionary is not None:
            direction = dictionary.direction
        elif table is not None:
            direction = table.direction
        else:
            raise ConfigError("need a dictionary, a table, or an explicit direction")
    d = Direction.of(direction)
    if dictionary is not None and dictionary.direction != direction:
        raise ConfigError("dictionary direction does not match")
    if table is not None and table.direction != direction:
        raise ConfigError("table direction does not match")
    done: dict[str, str] = {}
    out = []
    for text in lines:
        if isinstance(text, ScriptText):
            if text.state is TextState.RAW:
                raise WrongState("transliterate expects train-normalized text")
            if text.script is not d.source:
                raise WrongState(
                    f"direction {direction} expects {d.source.value} input, "
                    f"got {text.script.value}"
                )
            text = text.text
        tokens = text.split()
        for i, token in enumerate(tokens):
            if token in done:
                continue
            hit = dictionary.get(token) if dictionary is not None else None
            if hit is None:
                if table is None:
                    raise ConfigError(f"token {token!r} not in dictionary and no table given")
                try:
                    lattice = expand_lattice(token, table)
                except UnknownChar as e:
                    raise UnknownChar(e.char, word=token, position=e.position, token_index=i) from None
                if lm is None:
                    hit = "".join(slot[0] for slot in lattice.slots)
                else:
                    hit = beam_decode(lattice, lm, beam)[0]
            done[token] = hit
        out.append(ScriptText(" ".join(done[t] for t in tokens), d.target, TextState.TRAIN_NORMALIZED))
    return out


def avg_alternatives(texts: Iterable[str], table: MappingTable) -> float:
    """Mean lattice path count per token; a diagnostic for table ambiguity."""
    total_paths = 0
    n_tokens = 0
    for text in texts:
        for token in text.split():
            total_paths += expand_lattice(token, table).path_count
            n_tokens += 1
    if n_tokens == 0:
        raise EmptyCorpus("no tokens")
    return total_paths / n_tokens
