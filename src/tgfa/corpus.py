"""Parallel-pair data model, file formats, statistics, splits and filters.

File formats (all UTF-8, LF):

* JSONL: one object per line with keys ``fa``, ``tg``, ``dataset``
  (optional) and ``domain`` (optional, derivable from the dataset label).
  A corpus named ``*.jsonl``, ``*.json`` or ``*.ndjson`` is read as
  JSONL, and ``save`` writes JSONL.
* TSV: ``fa<TAB>tg[<TAB>dataset[<TAB>domain]]``, any other corpus name.
* Consonant map TSV: ``tajik_char<TAB>farsi_char``, one-to-one.
"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter
from functools import cached_property
from math import floor, isfinite
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    BadMap,
    ConfigError,
    EmptyCorpus,
    ParseError,
    TooSmall,
    UnknownDataset,
)
from .script import NormMode, Script, data_lines, normalize_text, parse_json_object, read_lines, table_lines, write_utf8

__all__ = [
    "DOMAINS",
    "DATASET_DOMAINS",
    "ParallelPair",
    "SplitSpec",
    "load",
    "read_pairs",
    "domain_of",
    "group_of",
    "save",
    "stats",
    "check_ratios",
    "split_holdout",
    "kfold",
    "default_consonant_map",
    "load_consonant_map",
    "paranames_filter",
]

DOMAINS = ("poetry", "prose", "names", "dictionary")

# Fixed dataset-to-domain grouping.
DATASET_DOMAINS: dict[str, str] = {
    "Shahnameh": "poetry",
    "Masnavi": "poetry",
    "Assorted Poetry": "poetry",
    "Dr Blog": "prose",
    "Jamujam Blog": "prose",
    "Assorted Prose": "prose",
    "Places": "names",
    "Organizations": "names",
    "People": "names",
    "Dictionary": "dictionary",
}


class _RawPair(NamedTuple):
    fa: str
    tg: str
    dataset: str
    domain: str | None


class ParallelPair(_RawPair):
    """Aligned raw Farsi/Tajik texts with dataset and domain tags; frozen.

    ``fa_train`` and ``tg_train`` are the sides train-normalized, computed
    once when the pair is made; every stage reads them rather than
    normalizing again. Equality, hashing, ``repr`` and ``save`` see only
    the raw fields; ``jsonl_line``, the pair's line in a JSONL file, is
    made from them on first use and kept.
    """

    def __new__(cls, fa: str, tg: str, dataset: str = "", domain: str | None = None):
        if domain is not None and domain not in DOMAINS:
            raise ValueError(f"unknown domain {domain!r}")
        pair = tuple.__new__(cls, (fa, tg, dataset, domain))
        vars(pair).update(fa_train=normalize_text(fa, Script.FARSI, NormMode.TRAIN),
                          tg_train=normalize_text(tg, Script.TAJIK, NormMode.TRAIN))
        return pair

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    @cached_property
    def jsonl_line(self) -> str:
        """The raw fields as one JSON object, keys sorted, ending in a newline."""
        obj = {"fa": self.fa, "tg": self.tg, "dataset": self.dataset}
        if self.domain is not None:
            obj["domain"] = self.domain
        return json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n"

    def text(self, script: Script, train: bool = True) -> str:
        """The side written in ``script``: train-normalized, or raw if not ``train``."""
        fa, tg = (self.fa_train, self.tg_train) if train else (self.fa, self.tg)
        return fa if script is Script.FARSI else tg


class SplitSpec(NamedTuple):
    """Disjoint train/dev/test index sets covering a corpus."""

    train: tuple[int, ...]
    dev: tuple[int, ...]
    test: tuple[int, ...]


# Line parsers, and ParallelPair for an unknown domain, raise ValueError
# or ParseError with the reason; read_pairs adds the file and line.
def _parse_jsonl_line(line: str) -> ParallelPair:
    obj = parse_json_object(line)
    for key in ("fa", "tg"):
        if key not in obj:
            raise ValueError(f"missing field {key!r}")
        if not isinstance(obj[key], str):
            raise ValueError(f"field {key!r} is not a string")
    dataset, domain = obj.get("dataset", ""), obj.get("domain")
    if not isinstance(dataset, str):
        raise ValueError("field 'dataset' is not a string")
    if domain is not None and not isinstance(domain, str):
        raise ValueError("field 'domain' is not a string")
    return ParallelPair(fa=obj["fa"], tg=obj["tg"], dataset=dataset, domain=domain)


def _parse_tsv_line(line: str) -> ParallelPair:
    cols = line.split("\t")
    if len(cols) < 2:
        raise ValueError("expected at least fa<TAB>tg")
    if len(cols) > 4:
        raise ValueError(f"too many columns ({len(cols)})")
    return ParallelPair(
        fa=cols[0],
        tg=cols[1],
        dataset=cols[2] if len(cols) > 2 else "",
        domain=cols[3] if len(cols) > 3 and cols[3] else None,
    )


def read_pairs(path: str | Path) -> tuple[list[ParallelPair], list[str]]:
    """Parse a JSONL or TSV corpus file, by its suffix; returns (pairs, per-line skip diagnostics).

    Each pair carries its train-normalized sides (see ParallelPair).
    Pairs with a side that is empty after train normalization are
    skipped, not errors: real corpora contain lines that are all
    punctuation. Malformed lines, and bytes that are not UTF-8, raise
    ParseError naming the file and the 1-based line.
    """
    path = Path(path)
    parse = _parse_jsonl_line if path.suffix.lower() in (".jsonl", ".json", ".ndjson") else _parse_tsv_line
    pairs: list[ParallelPair] = []
    skipped: list[str] = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line:
            continue
        try:
            pair = parse(line)
        except (ValueError, ParseError) as e:
            raise ParseError(str(e), line=lineno, path=str(path)) from None
        empty = [side for side, text in (("fa", pair.fa_train), ("tg", pair.tg_train)) if not text]
        if empty:
            skipped.append(
                f"line {lineno}: {'/'.join(empty)} side empty after normalization"
            )
            continue
        pairs.append(pair)
    return pairs, skipped


def load(path: str | Path) -> list[ParallelPair]:
    """Load a JSONL or TSV corpus; write each skipped line's diagnostic, then their count, to stderr."""
    pairs, skipped = read_pairs(path)
    for msg in skipped:
        sys.stderr.write(f"{path}: {msg}\n")
    if skipped:
        sys.stderr.write(f"{path}: skipped {len(skipped)} line(s)\n")
    return pairs


def save(pairs: Iterable[ParallelPair], path: str | Path) -> None:
    """Write pairs as JSONL, one ``jsonl_line`` each, with ``write_utf8``."""
    write_utf8(Path(path), (p.jsonl_line for p in pairs))


def domain_of(pair: ParallelPair) -> str:
    """Resolve a pair's domain from the registry or its explicit tag."""
    if pair.dataset in DATASET_DOMAINS:
        return DATASET_DOMAINS[pair.dataset]
    if pair.domain is not None:
        return pair.domain
    raise UnknownDataset(f"dataset {pair.dataset!r} has no registered domain")


def group_of(pair: ParallelPair) -> str:
    """A pair's score group: its domain, else its dataset, else ``all``.

    ConfigError if a pair with no domain has an unregistered dataset
    named like a domain or ``all``: the two groups would be pooled. So
    is one named ``Overall``, the label of the pooled row.
    """
    try:
        return domain_of(pair)
    except UnknownDataset:
        label = pair.dataset or "all"
    if label == "Overall":
        raise ConfigError("group label 'Overall' is reserved for the pooled row")
    if pair.dataset in (*DOMAINS, "all"):
        whom = "the pairs that have no dataset" if label == "all" else f"the {label!r} domain"
        raise ConfigError(f"dataset {label!r} has no registered domain, so its group {label!r} "
                          f"would pool it with {whom}")
    return label


def stats(pairs: Sequence[ParallelPair], per: str = "dataset") -> list[dict]:
    """Pair counts and average token/char lengths over train-normalized text, one row per label.

    The rows, in label order, are those ``stats --format jsonl`` prints:
    ``label``, ``n_pairs``, ``fa_avg_tokens``, ``fa_avg_chars``,
    ``tg_avg_tokens`` and ``tg_avg_chars``. Character averages count all
    scalars of the normalized sequence, including internal spaces. Per
    dataset, pairs with none are labelled ``all``, as ``group_of`` does;
    ConfigError if a dataset is also named ``all``.
    """
    if not pairs:
        raise EmptyCorpus("no pairs")
    if per not in ("dataset", "domain"):
        raise ConfigError("per must be 'dataset' or 'domain'")
    acc: dict[str, list[int]] = {}
    for p in pairs:
        label = p.dataset if per == "dataset" else domain_of(p)
        row = acc.setdefault(label, [0, 0, 0, 0, 0])
        row[0] += 1
        row[1] += len(p.fa_train.split())
        row[2] += len(p.fa_train)
        row[3] += len(p.tg_train.split())
        row[4] += len(p.tg_train)
    if per == "dataset" and "" in acc:
        if "all" in acc:
            raise ConfigError("dataset 'all' would be pooled with the pairs that have no dataset, labelled 'all'")
        acc["all"] = acc.pop("")
    return [
        {
            "label": label,
            "n_pairs": n,
            "fa_avg_tokens": ft / n,
            "fa_avg_chars": fc / n,
            "tg_avg_tokens": tt / n,
            "tg_avg_chars": tc / n,
        }
        for label, (n, ft, fc, tt, tc) in sorted(acc.items())
    ]


def _by_dataset(pairs: Sequence[ParallelPair]) -> dict[str, list[int]]:
    groups: dict[str, list[int]] = {}
    for i, p in enumerate(pairs):
        groups.setdefault(p.dataset, []).append(i)
    return groups


def _shuffled(indices: list[int], seed: int, label: str) -> list[int]:
    rng = random.Random(f"{seed}:{label}")
    out = list(indices)
    rng.shuffle(out)
    return out


def _allocate(n: int, ratios: Sequence[float]) -> list[int]:
    """Largest-remainder apportionment of n items over the ratios."""
    targets = [n * r for r in ratios]
    counts = [floor(t) for t in targets]
    leftovers = sorted(
        range(len(ratios)), key=lambda i: (counts[i] - targets[i], i)
    )
    for i in leftovers[: n - sum(counts)]:
        counts[i] += 1
    return counts


def check_ratios(ratios: Sequence[float]) -> None:
    """Raise ConfigError unless ``ratios`` are three finite non-negative values summing to 1."""
    if len(ratios) != 3 or not all(map(isfinite, ratios)) or abs(sum(ratios) - 1.0) > 1e-9 or min(ratios) < 0:
        raise ConfigError("ratios must be three non-negative values summing to 1")


def split_holdout(
    pairs: Sequence[ParallelPair],
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> SplitSpec:
    """Deterministic stratified train/dev/test split.

    Each dataset label is shuffled and partitioned separately, so every
    dataset contributes close to the requested proportions.
    """
    if len(pairs) < 10:
        raise TooSmall(f"need at least 10 pairs, got {len(pairs)}")
    check_ratios(ratios)
    parts: tuple[list[int], list[int], list[int]] = ([], [], [])
    for label, indices in sorted(_by_dataset(pairs).items()):
        order = _shuffled(indices, seed, label)
        n_train, n_dev, _ = _allocate(len(order), ratios)
        parts[0].extend(order[:n_train])
        parts[1].extend(order[n_train : n_train + n_dev])
        parts[2].extend(order[n_train + n_dev :])
    return SplitSpec(
        train=tuple(sorted(parts[0])),
        dev=tuple(sorted(parts[1])),
        test=tuple(sorted(parts[2])),
    )


def kfold(
    pairs: Sequence[ParallelPair], k: int = 10, seed: int = 0
) -> list[SplitSpec]:
    """Deterministic stratified k-fold cross-validation splits.

    The datasets' shuffled orders are laid end to end and dealt round
    robin, so the deal carries on from one dataset to the next. Fold i's
    test set gets every k-th index from position i: the test sets
    partition the corpus, differ in size by at most one pair, and each
    holds floor or ceil of 1/k of every dataset.
    """
    if k < 2:
        raise TooSmall("k must be at least 2")
    if len(pairs) < k:
        raise TooSmall(f"need at least k={k} pairs, got {len(pairs)}")
    order = [
        i
        for label, indices in sorted(_by_dataset(pairs).items())
        for i in _shuffled(indices, seed, label)
    ]
    test_sets = [order[fold::k] for fold in range(k)]
    folds = []
    for fold in range(k):
        test = set(test_sets[fold])
        train = tuple(i for i in range(len(pairs)) if i not in test)
        folds.append(SplitSpec(train=train, dev=(), test=tuple(sorted(test))))
    return folds


def load_consonant_map(source: str | Path | Iterable[str]) -> dict[str, str]:
    """Read a tajik_char<TAB>farsi_char map; must be one-to-one.

    Parse and BadMap errors name the file when ``source`` is a path.
    """
    where, rows = table_lines(source)
    mapping: dict[str, str] = {}
    for lineno, line in rows:
        cols = line.split("\t")
        if len(cols) != 2 or len(cols[0]) != 1 or len(cols[1]) != 1:
            raise ParseError("expected tajik_char<TAB>farsi_char", line=lineno, path=where)
        if cols[0] in mapping:
            raise BadMap(f"duplicate Tajik consonant {cols[0]!r}", line=lineno, path=where)
        mapping[cols[0]] = cols[1]
    counts = Counter(mapping.values())
    dupes = [c for c, n in counts.items() if n > 1]
    if dupes:
        raise BadMap(f"map is not one-to-one: {dupes!r} mapped more than once", path=where)
    return mapping


def default_consonant_map() -> dict[str, str]:
    """The built-in unambiguous-consonant correspondence table."""
    return load_consonant_map(data_lines("consonants.tsv"))


def _first_mismatch(tg_seq: list[str], fa_seq: list[str]) -> str:
    for a, b in zip(tg_seq, fa_seq):
        if a != b:
            return a
    longer = tg_seq if len(tg_seq) > len(fa_seq) else fa_seq
    return longer[min(len(tg_seq), len(fa_seq))]


def paranames_filter(
    pairs: Sequence[ParallelPair],
    consonant_map: Mapping[str, str] | None = None,
    order_sensitive: bool = True,
) -> tuple[list[ParallelPair], list[tuple[ParallelPair, str]]]:
    """Keep pairs whose unambiguous consonants correspond one-to-one.

    A pair is kept when the projected consonant-class sequences of the
    two sides are identical (order_sensitive) or have identical counts
    (order_sensitive=False, the looser published variant). Rejected
    pairs carry the first violating class.
    """
    consonant_map = dict(consonant_map) if consonant_map else default_consonant_map()
    counts = Counter(consonant_map.values())
    if any(n > 1 for n in counts.values()):
        raise BadMap("map is not one-to-one")
    fa2tg = {fa: tg for tg, fa in consonant_map.items()}
    kept: list[ParallelPair] = []
    rejected: list[tuple[ParallelPair, str]] = []
    for pair in pairs:
        # Classes are named by the Tajik consonant. Arabic-script strings
        # are stored in logical order, so left-to-right iteration already
        # matches the Tajik reading order.
        tg_seq = [ch for ch in pair.tg_train if ch in consonant_map]
        fa_seq = [fa2tg[ch] for ch in pair.fa_train if ch in fa2tg]
        if order_sensitive:
            if tg_seq == fa_seq:
                kept.append(pair)
            else:
                rejected.append((pair, _first_mismatch(tg_seq, fa_seq)))
        else:
            tg_counts, fa_counts = Counter(tg_seq), Counter(fa_seq)
            if tg_counts == fa_counts:
                kept.append(pair)
            else:
                bad = sorted(
                    c
                    for c in set(tg_counts) | set(fa_counts)
                    if tg_counts[c] != fa_counts[c]
                )
                rejected.append((pair, bad[0]))
    return kept, rejected
