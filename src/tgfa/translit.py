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

from .errors import ArtifactError, EmptyCorpus, ParseError, UnknownChar, WrongState
from .corpus import ParallelPair
from .script import (
    FARSI_LETTERS,
    NormMode,
    Script,
    ScriptText,
    TAJIK_LETTERS,
    TextState,
    ZWNJ,
    normalize_text,
)

__all__ = [
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
    "avg_alternatives",
]

DIRECTIONS = ("tg2fa", "fa2tg")
EMPTY_MARK = "∅"

BOS = "\x02"
EOS = "\x03"
UNK = "\x01"

LM_MAGIC = "tgfa-charlm"
DICT_MAGIC = "tgfa-dict"
FORMAT_VERSION = 1

DEFAULT_LM_ORDER = 5
DEFAULT_BEAM = 16


def _source_script(direction: str) -> Script:
    return Script.TAJIK if direction == "tg2fa" else Script.FARSI


def _target_script(direction: str) -> Script:
    return Script.FARSI if direction == "tg2fa" else Script.TAJIK


def _check_direction(direction: str) -> str:
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    return direction


@dataclass(frozen=True)
class MappingTable:
    """Per-character candidate expansion table for one direction."""

    direction: str
    entries: dict[str, tuple[str, ...]]

    def __post_init__(self):
        _check_direction(self.direction)

    def candidates(self, char: str) -> tuple[str, ...]:
        try:
            return self.entries[char]
        except KeyError:
            raise UnknownChar(char) from None

    def validate(self) -> None:
        """Check the per-entry contract; raises ValueError on violations."""
        target = FARSI_LETTERS if self.direction == "tg2fa" else TAJIK_LETTERS
        allowed = set(target) | ({ZWNJ} if self.direction == "tg2fa" else set())
        for src, cands in self.entries.items():
            if not cands:
                raise ValueError(f"{src!r} has no candidates")
            for cand in cands:
                bad = set(cand) - allowed
                if bad:
                    raise ValueError(
                        f"candidate {cand!r} for {src!r} contains "
                        f"non-target characters {sorted(bad)!r}"
                    )


def _parse_char_field(field_text: str, lineno: int) -> str:
    if field_text.upper().startswith("U+"):
        try:
            return chr(int(field_text[2:], 16))
        except (ValueError, OverflowError):
            raise ParseError(f"bad code point {field_text!r}", line=lineno) from None
    if len(field_text) != 1:
        raise ParseError(f"source must be one character, got {field_text!r}", line=lineno)
    return field_text


def load_mapping_table(
    source: str | Path | Iterable[str], direction: str
) -> MappingTable:
    """Read ``source_char<TAB>cand1|cand2|...`` lines; ``∅`` is the empty string.

    The source character may be written as ``U+XXXX`` so that invisible
    characters (ZWNJ, combining marks) stay legible in the file.
    """
    _check_direction(direction)
    if isinstance(source, (str, Path)):
        lines = Path(source).read_text(encoding="utf-8").splitlines()
    else:
        lines = list(source)
    entries: dict[str, tuple[str, ...]] = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 2:
            raise ParseError("expected source_char<TAB>candidates", line=lineno)
        src = _parse_char_field(cols[0].strip(), lineno)
        raw_cands = cols[1].split("|")
        if any(c == "" for c in raw_cands):
            raise ParseError(
                "empty candidate field (use ∅ for the empty string)", line=lineno
            )
        cands = tuple("" if c == EMPTY_MARK else c for c in raw_cands)
        if src in entries:
            raise ParseError(f"duplicate source character {src!r}", line=lineno)
        entries[src] = cands
    table = MappingTable(direction=direction, entries=entries)
    return table


def save_mapping_table(table: MappingTable, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for src in sorted(table.entries):
            shown = src if src.isprintable() else f"U+{ord(src):04X}"
            cands = "|".join(c if c else EMPTY_MARK for c in table.entries[src])
            fh.write(f"{shown}\t{cands}\n")


def default_mapping_table(direction: str) -> MappingTable:
    """The packaged provisional table for the given direction."""
    _check_direction(direction)
    text = resources.files("tgfa.data").joinpath(f"map_{direction}.tsv").read_text("utf-8")
    table = load_mapping_table(text.splitlines(), direction)
    table.validate()
    return table


class CharNGramLM:
    """Character n-gram model with Witten-Bell interpolation.

    Symbols are the observed target-side characters plus an end sentinel
    and an unknown bucket; begin sentinels only ever appear in contexts.
    Every conditional distribution sums to 1 over that extended alphabet.
    """

    def __init__(self, order: int, smoothing: str = "witten_bell"):
        if order < 1:
            raise ValueError("order must be >= 1")
        if smoothing not in ("witten_bell", "none"):
            raise ValueError(f"unknown smoothing {smoothing!r}")
        self.order = order
        self.smoothing = smoothing
        # counts[k-1]: context tuple of length k-1 -> Counter of next symbol
        self._counts: list[dict[tuple[str, ...], Counter]] = [
            {} for _ in range(order)
        ]
        self._vocab: set[str] = {EOS, UNK}

    @property
    def vocab(self) -> frozenset[str]:
        return frozenset(self._vocab)

    def _observe(self, text: str) -> None:
        symbols = [BOS] * (self.order - 1) + list(text) + [EOS]
        self._vocab.update(text)
        for i in range(self.order - 1, len(symbols)):
            sym = symbols[i]
            for k in range(1, self.order + 1):
                ctx = tuple(symbols[i - k + 1 : i])
                level = self._counts[k - 1]
                bucket = level.get(ctx)
                if bucket is None:
                    bucket = level[ctx] = Counter()
                bucket[sym] += 1

    def _map_symbol(self, sym: str) -> str:
        return sym if sym in self._vocab or sym == BOS else UNK

    def prob(self, symbol: str, context: Sequence[str] = ()) -> float:
        """P(symbol | last order-1 context symbols)."""
        sym = self._map_symbol(symbol)
        ctx = tuple(self._map_symbol(s) for s in context)[max(0, len(context) - self.order + 1):]
        ctx = (BOS,) * (self.order - 1 - len(ctx)) + ctx
        if self.smoothing == "none":
            bucket = self._counts[self.order - 1].get(ctx)
            if not bucket:
                return 0.0
            return bucket[sym] / sum(bucket.values())
        return self._wb(sym, ctx)

    def _wb(self, sym: str, ctx: tuple[str, ...]) -> float:
        # Uniform base distribution over the extended alphabet.
        p = 1.0 / len(self._vocab)
        for k in range(1, self.order + 1):
            sub_ctx = ctx[len(ctx) - (k - 1):] if k > 1 else ()
            bucket = self._counts[k - 1].get(sub_ctx)
            if not bucket:
                continue
            total = sum(bucket.values())
            types = len(bucket)
            p = (bucket[sym] + types * p) / (total + types)
        return p

    def logp(self, symbol: str, context: Sequence[str] = ()) -> float:
        p = self.prob(symbol, context)
        return math.log(p) if p > 0.0 else float("-inf")

    def score(self, text: str) -> float:
        """Total log-probability of a string including the end sentinel."""
        symbols = list(text) + [EOS]
        context: list[str] = []
        total = 0.0
        for sym in symbols:
            total += self.logp(sym, context)
            context.append(sym)
        return total

    def to_payload(self) -> dict:
        counts = [
            [
                [list(ctx), {s: c for s, c in sorted(bucket.items())}]
                for ctx, bucket in sorted(level.items())
            ]
            for level in self._counts
        ]
        return {
            "magic": LM_MAGIC,
            "version": FORMAT_VERSION,
            "order": self.order,
            "smoothing": self.smoothing,
            "alphabet": sorted(self._vocab),
            "counts": counts,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CharNGramLM":
        lm = cls(order=payload["order"], smoothing=payload["smoothing"])
        lm._vocab = set(payload["alphabet"])
        for k, level in enumerate(payload["counts"]):
            for ctx, bucket in level:
                lm._counts[k][tuple(ctx)] = Counter(bucket)
        return lm


def train_lm(
    texts: Iterable[str], order: int = DEFAULT_LM_ORDER, smoothing: str = "witten_bell"
) -> CharNGramLM:
    """Count character n-grams (with sentinel padding) over target-side text."""
    lm = CharNGramLM(order=order, smoothing=smoothing)
    n_texts = 0
    for text in texts:
        if not text:
            continue
        lm._observe(text)
        n_texts += 1
    if n_texts == 0:
        raise EmptyCorpus("no non-empty training texts")
    return lm


def save_lm(lm: CharNGramLM, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(lm.to_payload(), ensure_ascii=False, sort_keys=True), encoding="utf-8"
    )


def _read_artifact(path: str | Path, kind: str, magic: str) -> dict:
    """The JSON object of a saved model file, checked for magic and version."""
    where = str(path)
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ArtifactError(f"not a valid {kind} file: {e.msg}", path=where) from None
    if not isinstance(payload, dict):
        raise ArtifactError(f"not a valid {kind} file: expected a JSON object", path=where)
    if payload.get("magic") != magic:
        raise ArtifactError(f"not a {magic} file", path=where)
    if payload.get("version") != FORMAT_VERSION:
        raise ArtifactError(
            f"unsupported format version {payload.get('version')!r}, "
            f"expected {FORMAT_VERSION}",
            path=where,
        )
    return payload


def load_lm(path: str | Path) -> CharNGramLM:
    return CharNGramLM.from_payload(_read_artifact(path, "model", LM_MAGIC))


@dataclass
class TranslitDict:
    """Word-level lookup built from positionally aligned training pairs."""

    direction: str
    entries: dict[str, str] = field(default_factory=dict)
    skipped_pairs: int = 0

    def get(self, token: str) -> str | None:
        return self.entries.get(token)


def build_dictionary(pairs: Sequence[ParallelPair], direction: str) -> TranslitDict:
    """Align word i to word i for pairs with equal token counts.

    Each source token keeps its most frequent target (ties broken by the
    lexicographically smallest). Pairs with unequal token counts are
    skipped and counted.
    """
    _check_direction(direction)
    votes: dict[str, Counter] = {}
    skipped = 0
    for pair in pairs:
        fa = normalize_text(pair.fa, Script.FARSI, NormMode.TRAIN)
        tg = normalize_text(pair.tg, Script.TAJIK, NormMode.TRAIN)
        src, tgt = (tg, fa) if direction == "tg2fa" else (fa, tg)
        src_tokens, tgt_tokens = src.split(), tgt.split()
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
        "version": FORMAT_VERSION,
        "direction": d.direction,
        "skipped_pairs": d.skipped_pairs,
        "entries": dict(sorted(d.entries.items())),
    }
    Path(path).write_text(
        json.dumps(payload, ensure_ascii=False, sort_keys=True), encoding="utf-8"
    )


def load_dictionary(path: str | Path) -> TranslitDict:
    payload = _read_artifact(path, "dictionary", DICT_MAGIC)
    return TranslitDict(
        direction=payload["direction"],
        entries=dict(payload["entries"]),
        skipped_pairs=payload.get("skipped_pairs", 0),
    )


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


def _extend_score(lm: CharNGramLM, prefix: str, addition: str, base: float) -> float:
    score = base
    context = list(prefix)
    for ch in addition:
        score += lm.logp(ch, context)
        context.append(ch)
    return score


def beam_decode(lattice: Lattice, lm: CharNGramLM, beam: int = DEFAULT_BEAM) -> list[str]:
    """Rank lattice paths by LM score with a per-position beam.

    Identical partial strings are merged (their scores are equal by
    construction). Ties break lexicographically, so the result is
    deterministic; with beam >= path count it equals exhaustive scoring.
    """
    if beam < 1:
        raise ValueError("beam must be >= 1")
    hyps: dict[str, float] = {"": 0.0}
    for slot in lattice.slots:
        extended: dict[str, float] = {}
        for prefix, score in hyps.items():
            for cand in slot:
                grown = prefix + cand
                if grown not in extended:
                    extended[grown] = _extend_score(lm, prefix, cand, score)
        ranked = sorted(extended.items(), key=lambda kv: (-kv[1], kv[0]))
        hyps = dict(ranked[:beam])
    finals = {
        text: score + lm.logp(EOS, list(text)) for text, score in hyps.items()
    }
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
    """Transliterate train-normalized text token by token.

    Dictionary hits return the stored target; misses go through lattice
    expansion and, when an LM is given, beam rescoring (otherwise the
    first-candidate baseline). The direction comes from the dictionary or
    table unless passed explicitly.
    """
    if direction is None:
        if dictionary is not None:
            direction = dictionary.direction
        elif table is not None:
            direction = table.direction
        else:
            raise ValueError("need a dictionary, a table, or an explicit direction")
    _check_direction(direction)
    if dictionary is not None and dictionary.direction != direction:
        raise ValueError("dictionary direction does not match")
    if table is not None and table.direction != direction:
        raise ValueError("table direction does not match")
    if isinstance(text, ScriptText):
        if text.state is TextState.RAW:
            raise WrongState("transliterate expects train-normalized text")
        if text.script is not _source_script(direction):
            raise WrongState(
                f"direction {direction} expects {_source_script(direction).value} input, "
                f"got {text.script.value}"
            )
        text = text.text
    out_tokens = []
    for i, token in enumerate(text.split()):
        hit = dictionary.get(token) if dictionary is not None else None
        if hit is not None:
            out_tokens.append(hit)
            continue
        if table is None:
            raise ValueError(f"token {token!r} not in dictionary and no table given")
        try:
            lattice = expand_lattice(token, table)
        except UnknownChar as e:
            raise UnknownChar(e.char, word=token, position=e.position, token_index=i) from None
        if lm is None:
            out_tokens.append("".join(slot[0] for slot in lattice.slots))
        else:
            out_tokens.append(beam_decode(lattice, lm, beam)[0])
    return ScriptText(
        " ".join(out_tokens), _target_script(direction), TextState.TRAIN_NORMALIZED
    )


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
