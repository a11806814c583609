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
plain TSV, not a vetted linguistic resource. A ``Direction`` and the
decoder's defaults come from ``script``.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import ArtifactError, ConfigError, EmptyCorpus, ParseError, UnknownChar, WrongState
from .script import DEFAULT_BEAM, DEFAULT_LM_ORDER, DIRECTIONS, FARSI_LETTERS, SMOOTHINGS, TAJIK_LETTERS, ZWNJ
from .script import Direction, Script, data_lines, parse_code_point, parse_json_object, read_utf8, table_lines
from .script import write_utf8

if TYPE_CHECKING:
    from .corpus import ParallelPair

__all__ = [
    "EMPTY_MARK",
    "MappingTable",
    "load_mapping_table",
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
# The most contexts that save_lm encodes in one call.
_SAVE_BLOCK = 128
DICT_FORMAT_VERSION = 1

# The characters a mapping candidate may hold, by target script.
_CANDIDATE_CHARS = {Script.FARSI: FARSI_LETTERS | {ZWNJ}, Script.TAJIK: TAJIK_LETTERS}


@dataclass(frozen=True)
class MappingTable:
    """Per-character candidate expansion table for one direction."""

    direction: Direction
    entries: dict[str, tuple[str, ...]]

    def validate(self, path: str | None = None) -> None:
        """Check that every entry has candidates, all written in the target script.

        Raises ConfigError (a ValueError) naming ``path``, when given, and
        the offending character.
        """
        allowed = _CANDIDATE_CHARS[self.direction.target]
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


def load_mapping_table(source: str | Path | Iterable[str], direction: Direction) -> MappingTable:
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


def default_mapping_table(name: str) -> MappingTable:
    """The packaged provisional table for the direction called ``name``."""
    direction = Direction.of(name)
    return load_mapping_table(data_lines(f"map_{name}.tsv"), direction)


# One level of LM counts: each k-character context's bucket, a plain dict {symbol: count}.
_Level = dict[str, dict[str, int]]
# The one plain dict of each distinct bucket, keyed by the hash of its (symbol, count) pairs.
_Pool = dict[int, dict[str, int]]


class CharNGramLM:
    """Character n-gram model with Witten-Bell interpolation.

    Symbols are the observed target-side characters plus an end sentinel
    and an unknown bucket; begin sentinels only ever appear in contexts.
    Every conditional distribution sums to 1 over that extended alphabet.

    Every symbol, the sentinels included, is one character, so a context
    is a string. A query depends on the last ``order - 1`` characters of
    the text so far, left-padded with begin sentinels and read through
    ``symbols``, and only on the longest suffix of them that the model
    counted as a context: Witten-Bell skips every level whose context
    was never counted. That suffix, or ``""``, is the query's state; the
    states are minimized as in KenLM (Heafield 2011). A query's key is
    its state plus the symbol. Training counts the prefix of every
    context it counts, so the state after the symbol is the longest
    counted suffix of the key.

    A decoder carries each hypothesis's state, starting from ``start``,
    and asks ``logp_key`` with a ready-made key, while ``logp`` and
    ``score`` build the same key from a context. ``logp_key`` reads one
    memo that maps each key to its log-probability and the next state,
    kept for the life of the model object, so a repeated query costs one
    dictionary lookup; the memo grows with the distinct queries, and its
    values share one ``str`` per state. ``prob`` computes its value
    afresh.

    The counts have ``lm.json``'s shape: level k maps each k-character
    context to its bucket, a plain dict ``{symbol: count}``, exactly the
    file's. A context's number of types is its bucket's size and its
    total the bucket's sum, which the first query that reads the bucket
    sums into ``_totals``, keyed by the bucket's id; the levels keep every
    bucket alive as long as the model, so no id there is reused. Equal
    buckets are one dict, shared by every context that has them, in a
    trained model and in a loaded one alike. So no code may change a
    bucket in place, which would also leave its total stale: ``without``
    copies each bucket it subtracts from. The counts are kept in
    canonical order: each level's contexts in increasing order, and each
    bucket's symbols in increasing order.
    Training inserts each order's n-grams sorted, ``without`` only
    deletes, which keeps the order of what remains, and a loaded file is
    checked to be in that order. So ``save_lm`` emits the counts as
    stored, without sorting.
    """

    def __init__(self, order: int, smoothing: str = "witten_bell", levels: list[_Level] | None = None):
        """The model of ``levels``, the one way a model gets its counts; without them, of none.

        ``levels[k]`` maps each k-character context to its non-empty bucket, and the model keeps them.
        """
        if order < 1:
            raise ConfigError("order must be >= 1")
        if smoothing not in SMOOTHINGS:
            raise ConfigError(f"unknown smoothing {smoothing!r}")
        if levels is None:
            levels = [{} for _ in range(order)]
        self.order = order
        self.smoothing = smoothing
        # The alphabet: the end sentinel, the unknown bucket and the characters of level 0's "" bucket.
        self._vocab = frozenset({EOS, UNK}.union(levels[0].get("", ())))
        # Characters that stand for themselves in a context; others become UNK.
        self._known = self._vocab | {BOS}
        self._base = 1.0 / len(self._vocab)
        self._levels = levels
        # One str per state, which every memo value naming it shares.
        self._states: dict[str, str] = {}
        self._memo: dict[str, tuple[float, str]] = {}
        # Each bucket's total, keyed by its id, from the first query that reads it.
        self._totals: dict[int, int] = {}
        # The state of the empty text.
        self.start = self._minimize(BOS * (self.order - 1))

    @property
    def vocab(self) -> frozenset[str]:
        return self._vocab

    def symbols(self, text: str) -> str:
        """``text`` as the model reads it: each character outside the alphabet becomes UNK.

        Begin sentinels stand for themselves.
        """
        known = self._known
        return text if known.issuperset(text) else "".join(c if c in known else UNK for c in text)

    def _minimize(self, text: str) -> str:
        """The longest suffix of ``text`` that the model counted as a context, or ``""``.

        A counted context has at most ``order - 1`` characters, and level k
        holds those of k characters.
        """
        levels = self._levels
        n = len(text)
        i = n - len(levels) + 1 if n >= len(levels) else 0
        while i < n and text[i:] not in levels[n - i]:
            i += 1
        state = text[i:]
        return self._states.setdefault(state, state)

    def _key(self, symbol: str, context: Sequence[str] | str) -> str:
        """The query key of ``symbol`` after ``context``: its state, then the symbol."""
        n = self.order - 1
        tail = context[len(context) - n :] if len(context) > n else context
        if not isinstance(tail, str):
            tail = "".join(tail)
        state = self._minimize(self.symbols(BOS * (n - len(tail)) + tail))
        return state + (symbol if symbol in self._known else UNK)

    def prob(self, symbol: str, context: Sequence[str] | str = ()) -> float:
        """P(symbol | last order-1 context symbols), computed without the memo.

        ``context`` is a str or a sequence of one-character symbols.
        """
        key = self._key(symbol, context)
        return self._prob(key[:-1], key[-1])

    def _prob(self, ctx: str, sym: str) -> float:
        """P(sym | ctx) for a context of at most ``order - 1`` characters.

        Witten-Bell reads the levels up to the context's length; without
        smoothing only the top level is read, so a shorter context gives 0.
        """
        # A bucket's total is never 0, so a missing one is summed and kept.
        totals = self._totals
        if self.smoothing == "none":
            bucket = self._levels[self.order - 1].get(ctx)
            if not bucket:
                return 0.0
            total = totals.get(id(bucket)) or totals.setdefault(id(bucket), sum(bucket.values()))
            return bucket.get(sym, 0) / total
        # Uniform base distribution over the extended alphabet.
        p = self._base
        n = len(ctx)
        for k, level in enumerate(self._levels[: n + 1]):
            c = ctx[n - k :]
            bucket = level.get(c)
            if bucket is not None:
                total = totals.get(id(bucket)) or totals.setdefault(id(bucket), sum(bucket.values()))
                types = len(bucket)
                p = (bucket.get(sym, 0) + types * p) / (total + types)
        return p

    def logp(self, symbol: str, context: Sequence[str] | str = ()) -> float:
        return self.logp_key(self._key(symbol, context))[0]

    def logp_key(self, key: str) -> tuple[float, str]:
        """log P(key[-1] | key[:-1]) and the state after it, for a ready-made key.

        The key is a state, then one symbol; the state after it is the
        longest counted suffix of the key, which no counted context's
        ``order - 1`` characters can exceed. A repeated key is one memo
        lookup.
        """
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = (_log(self._prob(key[:-1], key[-1])), self._minimize(key))
        return hit

    def score(self, text: str) -> float:
        """Total log-probability of a string including the end sentinel."""
        n = self.order - 1
        total = 0.0
        for i, sym in enumerate(text + EOS):
            total += self.logp(sym, text[max(0, i - n) : i])
        return total

    def without(self, texts: Iterable[str]) -> "CharNGramLM":
        """The model of the texts this one was trained on, less ``texts``.

        ``texts`` must be some of those training texts. The result equals
        ``train_lm`` on the rest, byte for byte once saved: a count that
        falls to zero is dropped, a context left with no counts is
        dropped, and the alphabet is what the rest still counts. The
        level dicts are copied, but only the buckets ``texts`` touch; the
        rest stay shared with this model. ``texts`` are counted one order
        at a time. EmptyCorpus if no non-empty text is left.
        """
        texts = list(texts)
        levels = [dict(level) for level in self._levels]
        for k, level in enumerate(levels):
            touched: dict[str, dict[str, int]] = {}
            for gram, count in _count_grams(texts, k).items():
                ctx, sym = gram[:-1], gram[-1]
                bucket = touched.get(ctx)
                if bucket is None:
                    bucket = touched[ctx] = dict(level.get(ctx, ()))
                left = bucket.get(sym, 0) - count
                if left < 0:
                    raise ConfigError("cannot subtract texts the model was not trained on")
                if left:
                    bucket[sym] = left
                else:
                    del bucket[sym]
            for ctx, bucket in touched.items():
                if bucket:
                    level[ctx] = bucket
                else:
                    del level[ctx]
        return _trained(self.order, self.smoothing, levels)

    @classmethod
    def from_payload(cls, payload: dict, path: str | None = None) -> "CharNGramLM":
        """The model of a version-2 payload; ArtifactError names ``path`` and the bad field.

        The counts must be in canonical order (see the class docstring),
        which a linear pass checks; the same pass checks that the alphabet
        holds every counted character. The alphabet must be exactly the
        end sentinel, the unknown bucket and the characters of level 0's
        ``""`` bucket, sorted, so every distribution sums to 1 over it.
        Each context of level k > 0 less its last character must be a
        context of level k - 1, as in every trained model. The model
        keeps the payload's own bucket dicts, less any empty one, and does
        not copy them, so no caller may change one in place afterwards;
        ``load_lm`` decodes equal buckets as one dict.
        """
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
        vocab = frozenset(alphabet)
        # The ids of the buckets found valid, so that a shared bucket is checked once.
        checked: set[int] = set()
        counts = _field(
            payload,
            "counts",
            lambda v: type(v) is list
            and len(v) == order
            and all(_is_level(level, k, vocab, path, checked) for k, level in enumerate(v)),
            f"a list of {order} levels of [k-character context, {{character: count}}] pairs, "
            "contexts and characters in increasing order",
            path,
        )
        unigrams = counts[0][0][1] if counts[0] else {}
        if alphabet != sorted({EOS, UNK}.union(unigrams)):
            raise ArtifactError(
                "field 'alphabet' must be the end sentinel, the unknown bucket and the "
                "characters counted in context '', in increasing order",
                path=path,
            )
        levels = [{ctx: bucket for ctx, bucket in level if bucket} for level in counts]
        # Minimized states rely on this: training counts the prefix of every context it counts.
        for k in range(1, order):
            shorter = levels[k - 1]
            for ctx in levels[k]:
                if ctx[:-1] not in shorter:
                    raise ArtifactError(
                        f"field 'counts' has level {k} context {ctx!r} but not its prefix in level {k - 1}",
                        path=path,
                    )
        return cls(order, smoothing, levels)


def _log(p: float) -> float:
    return math.log(p) if p > 0.0 else float("-inf")


def _is_level(entries, k: int, alphabet: frozenset[str], path: str | None, checked: set[int]) -> bool:
    """Whether ``entries`` is a list of [k-character context, {character: positive count}].

    The contexts must be strictly increasing, and so must each context's
    characters: the canonical order, checked in one pass. The same pass
    raises ArtifactError, naming ``path`` and the alphabet, for a
    character outside ``alphabet``. A bucket whose id is in ``checked``
    passed before and is not checked again; each bucket that passes is
    added to it.
    """
    if type(entries) is not list:
        return False
    last_ctx = None
    for entry in entries:
        if not (type(entry) is list and len(entry) == 2):
            return False
        ctx, bucket = entry
        if not (type(ctx) is str and len(ctx) == k and type(bucket) is dict):
            return False
        if last_ctx is not None and ctx <= last_ctx:
            return False
        last_ctx = ctx
        if id(bucket) in checked:
            continue
        last_sym = ""
        for sym, count in bucket.items():
            if not (type(sym) is str and len(sym) == 1 and sym > last_sym):
                return False
            if not (type(count) is int and count > 0):
                return False
            last_sym = sym
        if not alphabet.issuperset(bucket):
            missing = sorted(set(bucket) - alphabet)[0]
            raise ArtifactError(
                f"field 'alphabet' lacks {missing!r}, counted in level {k} context {ctx!r}", path=path
            )
        checked.add(id(bucket))
    return True


def _field(payload: dict, name: str, ok, what: str, path: str | None):
    """``payload[name]`` if present and ``ok``; otherwise ArtifactError naming the field."""
    if name not in payload:
        raise ArtifactError(f"missing field {name!r}", path=path)
    value = payload[name]
    if not ok(value):
        raise ArtifactError(f"field {name!r} must be {what}", path=path)
    return value


def _count_grams(texts: Sequence[str], k: int) -> Counter[str]:
    """The counts of the (k+1)-grams of the non-empty texts, padded with sentinels.

    Each n-gram is k context characters, begin sentinels first where the
    text is shorter, then the predicted symbol, and is keyed by its
    string. One order at a time, so that no caller holds more than one
    order's counts.

    The one counting path: ``train_lm`` counts a corpus with it and
    ``CharNGramLM.without`` the texts it subtracts.
    """
    pad = BOS * k
    grams: Counter[str] = Counter()
    for text in texts:
        if text:
            padded = pad + text + EOS
            grams.update(padded[i : i + k + 1] for i in range(len(text) + 1))
    return grams


def _shared_bucket(buckets: _Pool, pairs: tuple[tuple[str, int], ...]) -> dict[str, int]:
    """The dict of the (symbol, count) ``pairs``: the equal one in ``buckets``, else a new one.

    The pool is keyed by ``hash(pairs)`` and keeps no copy of them; a
    bucket whose hash another bucket holds there stays unshared.
    """
    key = hash(pairs)
    bucket = buckets.get(key)
    if bucket is None:
        bucket = buckets[key] = dict(pairs)
    elif tuple(bucket.items()) != pairs:
        bucket = dict(pairs)
    return bucket


def _bucket_hook():
    """A ``pairs_hook`` for ``parse_json_object`` that decodes equal all-integer objects as one dict."""
    buckets: _Pool = {}

    def hook(pairs: list[tuple[str, object]]) -> dict:
        for _, value in pairs:
            if type(value) is not int:
                return dict(pairs)
        return _shared_bucket(buckets, tuple(pairs))

    return hook


def _sorted_level(grams: Counter[str], symbols: dict[str, str], buckets: _Pool) -> _Level:
    """One order's counts as a level: contexts, and each bucket's symbols, inserted in increasing order.

    ``symbols`` maps each symbol to the one ``str`` object that every
    bucket uses for it. Each bucket is made as a tuple of (symbol, count)
    pairs and replaced at once by its dict in ``buckets``, so equal
    buckets are one dict and no duplicate outlives its context.
    """
    level: _Level = {}
    ctx, pairs = None, []
    for gram in sorted(grams):
        if gram[:-1] != ctx:
            if pairs:
                level[ctx] = _shared_bucket(buckets, tuple(pairs))
            ctx, pairs = gram[:-1], []
        sym = gram[-1]
        pairs.append((symbols.setdefault(sym, sym), grams[gram]))
    if pairs:
        level[ctx] = _shared_bucket(buckets, tuple(pairs))
    return level


def train_lm(
    texts: Iterable[str], order: int = DEFAULT_LM_ORDER, smoothing: str = "witten_bell"
) -> CharNGramLM:
    """Count character n-grams (with sentinel padding) over target-side text.

    The n-grams are counted one order at a time, and each order's counts
    are inserted sorted into their level and freed before the next order
    is counted, so training holds the model plus one order's counts. The
    model keeps its counts in canonical order, its buckets share one
    ``str`` object per symbol, and equal buckets are one dict. To train on
    many subsets of one corpus, as k-fold cross-validation does, train
    once on the whole corpus and take each subset's model with
    ``CharNGramLM.without``. EmptyCorpus if no text is non-empty.
    """
    texts = list(texts)
    symbols: dict[str, str] = {}
    buckets: _Pool = {}
    return _trained(order, smoothing, [_sorted_level(_count_grams(texts, k), symbols, buckets) for k in range(order)])


def _trained(order: int, smoothing: str, levels: list[_Level]) -> CharNGramLM:
    """The model of trained counts; EmptyCorpus if level 0, where each non-empty text counts, is empty."""
    lm = CharNGramLM(order, smoothing, levels)
    if not levels[0]:
        raise EmptyCorpus("no non-empty training texts")
    return lm


def save_lm(lm: CharNGramLM, path: str | Path) -> None:
    """Write ``lm.json``: the version-2 payload, keys sorted, as ``json.dumps(..., ensure_ascii=False)`` writes it.

    ``counts`` holds each level as [context, bucket] pairs, read as stored, already in canonical
    order, and encoded in blocks of at most ``_SAVE_BLOCK`` contexts, each a chunk for
    ``write_utf8``, so the write holds one block's text at a time, never the whole file's.
    """
    encode = json.JSONEncoder(ensure_ascii=False, check_circular=False).encode

    def chunks():
        yield f'{{"alphabet": {encode(sorted(lm._vocab))}, "counts": ['
        for k, level in enumerate(lm._levels):
            yield ", [" if k else "["
            entries = iter(level.items())
            sep = ""
            while block := list(islice(entries, _SAVE_BLOCK)):
                # A block of [context, bucket] pairs, without its brackets.
                yield sep + encode(block)[1:-1]
                sep = ", "
            yield "]"
        yield (
            f'], "magic": {encode(LM_MAGIC)}, "order": {lm.order}, '
            f'"smoothing": {encode(lm.smoothing)}, "version": {LM_FORMAT_VERSION}}}'
        )

    write_utf8(Path(path), chunks())


def _read_artifact(
    path: str | Path, kind: str, magic: str, version: int, remake: str, pairs_hook=None
) -> dict:
    """The JSON object of a saved model file, checked for magic and version.

    ``remake`` is the command that writes the current version of the file;
    ``pairs_hook`` is passed to ``parse_json_object``.
    """
    where = str(path)
    text = read_utf8(path)
    try:
        payload = parse_json_object(text, pairs_hook=pairs_hook)
    except ParseError as e:
        raise ArtifactError(f"not a valid {kind} file: {e}", path=where) from None
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
    """The saved model; ArtifactError names the file and any bad field.

    Equal buckets are decoded as one dict, which the model keeps, so a
    duplicate is freed as soon as it is parsed.
    """
    payload = _read_artifact(path, "model", LM_MAGIC, LM_FORMAT_VERSION, "train-lm", _bucket_hook())
    return CharNGramLM.from_payload(payload, path=str(path))


@dataclass
class TranslitDict:
    """Word-level lookup built from positionally aligned training pairs.

    ``votes`` holds, for each source token, how often each target was
    aligned to it; the entries are chosen from it. A loaded dictionary
    has none, since ``dict.json`` keeps only the entries.
    """

    direction: Direction
    entries: dict[str, str] = field(default_factory=dict)
    skipped_pairs: int = 0
    votes: dict[str, Counter[str]] | None = field(default=None, repr=False, compare=False)

    def without(self, pairs: Sequence[ParallelPair]) -> "TranslitDict":
        """The dictionary of the pairs this one was built from, less ``pairs``.

        ``pairs`` must be some of those pairs. The result equals
        ``build_dictionary`` on the rest: the votes and ``skipped_pairs``
        of ``pairs`` are subtracted, a token left with no votes is
        dropped, and only the tokens ``pairs`` touch choose their target
        again. ConfigError if a vote or ``skipped_pairs`` would fall below
        zero, which only pairs the dictionary was not built from can cause.
        """
        if self.votes is None:
            raise WrongState("a loaded dictionary keeps no votes to subtract from")
        fold, skipped = _count_votes(pairs, self.direction)
        if skipped > self.skipped_pairs:
            raise ConfigError("cannot subtract pairs the dictionary was not built from")
        votes = dict(self.votes)
        entries = dict(self.entries)
        for src, counter in fold.items():
            have = votes.get(src)
            if have is None or any(have[t] < c for t, c in counter.items()):
                raise ConfigError(
                    f"cannot subtract pairs the dictionary was not built from (token {src!r})"
                )
            left = have - counter
            if left:
                votes[src] = left
                entries[src] = _best_target(left)
            else:
                del votes[src], entries[src]
        return TranslitDict(self.direction, entries, self.skipped_pairs - skipped, votes)


def _count_votes(pairs: Sequence[ParallelPair], d: Direction) -> tuple[dict[str, Counter[str]], int]:
    """Each source token's aligned targets with their counts, and the pairs skipped.

    A pair is skipped when its sides differ in token count.

    The one counting path: ``build_dictionary`` counts a corpus with it
    and ``TranslitDict.without`` the pairs it subtracts.
    """
    votes: dict[str, Counter[str]] = {}
    skipped = 0
    for pair in pairs:
        src_tokens, tgt_tokens = pair.text(d.source).split(), pair.text(d.target).split()
        if len(src_tokens) != len(tgt_tokens):
            skipped += 1
            continue
        for s, t in zip(src_tokens, tgt_tokens):
            votes.setdefault(s, Counter())[t] += 1
    return votes, skipped


def _best_target(counter: Counter[str]) -> str:
    """The most frequent target, ties broken by the lexicographically smallest."""
    best_count = max(counter.values())
    return min(t for t, c in counter.items() if c == best_count)


def build_dictionary(pairs: Sequence[ParallelPair], direction: Direction) -> TranslitDict:
    """Align word i to word i of each pair's train-normalized sides.

    Pairs with unequal token counts are skipped and counted. Each source
    token keeps its most frequent target (ties broken by the
    lexicographically smallest). To build on many subsets of one corpus,
    as k-fold cross-validation does, build once on the whole corpus and
    take each subset's dictionary with ``TranslitDict.without``.
    """
    votes, skipped = _count_votes(pairs, direction)
    entries = {s: _best_target(counter) for s, counter in votes.items()}
    return TranslitDict(direction=direction, entries=entries, skipped_pairs=skipped, votes=votes)


def save_dictionary(d: TranslitDict, path: str | Path) -> None:
    payload = {
        "magic": DICT_MAGIC,
        "version": DICT_FORMAT_VERSION,
        "direction": d.direction.name,
        "skipped_pairs": d.skipped_pairs,
        "entries": d.entries,
    }
    write_utf8(Path(path), [json.dumps(payload, ensure_ascii=False, sort_keys=True)])


def load_dictionary(path: str | Path) -> TranslitDict:
    """The saved dictionary; ArtifactError names the file and any bad field."""
    where = str(path)
    payload = _read_artifact(path, "dictionary", DICT_MAGIC, DICT_FORMAT_VERSION, "build-dict")
    names = tuple(DIRECTIONS)
    name = _field(payload, "direction", lambda v: v in names, f"one of {names}", where)
    # A token is what str.split() makes of a line: non-empty, without whitespace.
    entries = _field(
        payload,
        "entries",
        lambda v: type(v) is dict
        and all(type(t) is str and s.split() == [s] and t.split() == [t] for s, t in v.items()),
        "an object of source token to target token, each non-empty and without whitespace",
        where,
    )
    skipped = payload.get("skipped_pairs", 0)
    if type(skipped) is not int or skipped < 0:
        raise ArtifactError("field 'skipped_pairs' must be a non-negative integer", path=where)
    return TranslitDict(DIRECTIONS[name], entries=dict(entries), skipped_pairs=skipped)


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


def expand_lattice(word: str, table: MappingTable) -> Lattice:
    """Candidate lists per character; UnknownChar names the word and position of an inventory gap."""
    slots = []
    for pos, ch in enumerate(word):
        cands = table.entries.get(ch)
        if cands is None:
            raise UnknownChar(ch, word=word, position=pos)
        slots.append(cands)
    return Lattice(word=word, slots=tuple(slots))


def beam_decode(lattice: Lattice, lm: CharNGramLM, beam: int = DEFAULT_BEAM) -> list[str]:
    """Rank lattice paths by LM score with a per-position beam.

    A hypothesis is ``(-score, text, state)``, ``state`` being the
    model's minimized state after ``text``. Each character a candidate
    adds is one keyed query, ``lm.logp_key(state + symbol)``, which gives
    its log-probability and the next state. Identical partial strings
    are merged (their scores are equal by construction). Ties break
    lexicographically, so the result is deterministic; with beam >= path
    count it equals exhaustive scoring.
    """
    if beam < 1:
        raise ConfigError("beam must be >= 1")
    query = lm.logp_key
    hyps = [(0.0, "", lm.start)]
    for slot in lattice.slots:
        cands = [(cand, lm.symbols(cand)) for cand in slot]
        seen: set[str] = set()
        extended = []
        for cost, prefix, state in hyps:
            for cand, symbols in cands:
                text = prefix + cand
                if text in seen:
                    continue
                seen.add(text)
                c, s = cost, state
                for sym in symbols:
                    lp, s = query(s + sym)
                    c -= lp
                extended.append((c, text, s))
        extended.sort()
        hyps = extended[:beam]
    finals = sorted([(cost - query(state + EOS)[0], text) for cost, text, state in hyps])
    return [text for _, text in finals]


def transliterate_lines(
    lines: Iterable[str],
    table: MappingTable,
    dictionary: TranslitDict | None = None,
    lm: CharNGramLM | None = None,
    beam: int = DEFAULT_BEAM,
    where: str | None = None,
) -> list[str]:
    """Transliterate train-normalized lines token by token, in the table's direction.

    Dictionary hits return the stored target; misses go through lattice
    expansion and, when an LM is given, beam rescoring (otherwise the
    first-candidate baseline). ConfigError if the dictionary is for the
    other direction.

    The table, dictionary, LM and beam are fixed for the call, so each
    distinct token is translated once, at its first occurrence, and every
    later occurrence reuses that output. An UnknownChar names that
    occurrence's 1-based line and ``where``, the name of the input.
    """
    if dictionary is not None and dictionary.direction != table.direction:
        raise ConfigError("dictionary direction does not match the table's")
    done: dict[str, str] = {}
    out = []
    for lineno, text in enumerate(lines, start=1):
        tokens = text.split()
        for i, token in enumerate(tokens):
            if token in done:
                continue
            hit = dictionary.entries.get(token) if dictionary is not None else None
            if hit is None:
                try:
                    lattice = expand_lattice(token, table)
                except UnknownChar as e:
                    raise UnknownChar(e.char, token, e.position, i, line=lineno, path=where) from None
                if lm is None:
                    hit = "".join(slot[0] for slot in lattice.slots)
                else:
                    hit = beam_decode(lattice, lm, beam)[0]
            done[token] = hit
        out.append(" ".join(done[t] for t in tokens))
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
