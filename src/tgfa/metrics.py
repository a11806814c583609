"""Evaluation metrics: chrF, chrF++, CER, normalized CER, sequence accuracy.

Conventions that matter for comparability:

* All lengths and distances are over Unicode scalar values, never bytes.
* "CER" is the mean raw edit distance per pair, not a rate; normalized
  CER divides each pair's distance by max(1, len(reference)).
* chrF/chrF++ are corpus-level by default: n-gram match/total counts are
  pooled over all pairs and the averaged-F formula is applied once.
  Character n-grams are taken over the text with all whitespace removed;
  word n-grams over space-delimited words. Precisions and recalls are
  averaged uniformly over the active orders (those with at least one
  reference n-gram), then combined with beta = 2. A sentence-averaged
  variant is available for sensitivity checks.

`score_corpus` is the one scorer. It scores each pair once (one edit
distance, one chrF++ count vector whose first six orders are chrF's)
and builds every group and the pooled overall from those values. The
single-metric functions (`chrf`, `chrf_pp`, `cer_mean`, `ncer_mean`)
each read one field of its overall scores, so each costs a full
scoring pass. Every edit distance comes from the bit-parallel kernel in
`tgfa._kernels`.

Each order's n-gram totals are its side's length minus n - 1 (never
below 0), so n-grams are counted only to find matches, and only where
the two sides differ. An exact pair takes every count from its lengths
and builds no n-gram table; so does the character half of a pair that
differs only in whitespace.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from ._kernels import levenshtein as edit_distance
from .errors import EmptyCorpus, WrongState
from .script import ZWNJ, strip_whitespace

__all__ = [
    "EvalPair",
    "GroupScores",
    "MetricReport",
    "edit_distance",
    "cer_mean",
    "ncer_mean",
    "chrf",
    "chrf_pp",
    "score_corpus",
]

CHRF_CHAR_ORDER = 6
CHRF_PP_WORD_ORDER = 2
CHRF_BETA = 2.0

# Characters that, with every combining mark, may not survive eval
# normalization; one in an EvalPair means a stage was skipped upstream.
_FORBIDDEN = frozenset("@_-") | {ZWNJ}


@dataclass(frozen=True)
class EvalPair:
    """One scored pair: detokenized hypothesis vs. reference, both eval-normalized."""

    hypothesis: str
    reference: str
    group: str = ""

    def __post_init__(self):
        for side, text in (("hypothesis", self.hypothesis), ("reference", self.reference)):
            bad = {c for c in set(text) if c in _FORBIDDEN or unicodedata.combining(c)}
            if bad:
                shown = ", ".join(f"U+{ord(c):04X}" for c in sorted(bad))
                raise WrongState(f"{side} is not eval-normalized (contains {shown})")


@dataclass(frozen=True)
class GroupScores:
    n_pairs: int
    chrf: float
    chrf_pp: float
    cer: float
    ncer: float
    acc: float
    acc_no_ws: float


@dataclass(frozen=True)
class MetricReport:
    """Per-group and overall aggregates; overall pools all pairs."""

    groups: dict[str, GroupScores]
    overall: GroupScores


def _ngrams(seq: str | tuple[str, ...], n: int, total: int) -> Counter:
    """The ``total`` n-grams of order ``n`` of a string or a tuple of words, counted."""
    return Counter(seq if n == 1 else (seq[i : i + n] for i in range(total)))


def _order_stats(
    hyp: str | tuple[str, ...], ref: str | tuple[str, ...], max_n: int
) -> list[tuple[int, int, int]]:
    """(matched, hyp_total, ref_total) for each order 1..``max_n`` of two sequences.

    The sides are both strings (character n-grams) or both tuples of
    words (word n-grams). Totals are ``max(0, len - n + 1)``; equal sides
    match in full, so n-grams are counted only where the sides differ.
    """
    same = hyp == ref
    stats = []
    for n in range(1, max_n + 1):
        hyp_total = max(0, len(hyp) - n + 1)
        ref_total = max(0, len(ref) - n + 1)
        if same:
            matched = hyp_total
        else:
            hyp_counts = _ngrams(hyp, n, hyp_total)
            ref_count = _ngrams(ref, n, ref_total).get
            # min(c, ref_count(g, 0)) per n-gram, without a builtin call per item.
            matched = sum(
                [c if c <= ref_count(g, 0) else ref_count(g, 0) for g, c in hyp_counts.items()]
            )
        stats.append((matched, hyp_total, ref_total))
    return stats


def _stats(
    hyp_chars: str, ref_chars: str, hyp: str, ref: str, max_char_n: int, max_word_n: int
) -> list[tuple[int, int, int]]:
    """Per-order (matched, hyp_total, ref_total) n-gram counts for one pair.

    ``hyp_chars`` and ``ref_chars`` are ``hyp`` and ``ref`` with their
    whitespace removed: character n-grams come from them, word n-grams
    from ``hyp`` and ``ref``.
    """
    return _order_stats(hyp_chars, ref_chars, max_char_n) + _order_stats(
        tuple(hyp.split()), tuple(ref.split()), max_word_n
    )


def _f_from_stats(stats: Sequence[tuple[int, int, int]], beta: float) -> float:
    """Averaged-F over active orders, scaled to [0, 100].

    An order is active when the reference contributed at least one
    n-gram. With no active orders the score is 100 if the hypothesis is
    equally empty, 0 otherwise.
    """
    precisions, recalls = [], []
    for matched, hyp_total, ref_total in stats:
        if ref_total == 0:
            continue
        precisions.append(matched / hyp_total if hyp_total else 0.0)
        recalls.append(matched / ref_total)
    if not precisions:
        return 100.0 if all(h == 0 for _, h, _ in stats) else 0.0
    p = sum(precisions) / len(precisions)
    r = sum(recalls) / len(recalls)
    if p + r == 0.0:
        return 0.0
    b2 = beta * beta
    return (1 + b2) * p * r / (b2 * p + r) * 100.0


# perfbench/tracer.py binds these four by name; they can go once its metrics.chrf and metrics.cer rows do.
def chrf(pairs: Sequence[EvalPair], sentence_level: bool = False) -> float:
    """Corpus chrF: character n-grams up to order 6, beta = 2."""
    return score_corpus(pairs, sentence_level).overall.chrf


def chrf_pp(pairs: Sequence[EvalPair], sentence_level: bool = False) -> float:
    """Corpus chrF++: chrF plus word unigrams and bigrams."""
    return score_corpus(pairs, sentence_level).overall.chrf_pp


def cer_mean(pairs: Sequence[EvalPair]) -> float:
    """Mean raw edit distance over all pairs."""
    return score_corpus(pairs).overall.cer


def ncer_mean(pairs: Sequence[EvalPair]) -> float:
    """Mean of edit distance divided by max(1, reference length)."""
    return score_corpus(pairs).overall.ncer


_GROUP_ORDER = {"poetry": 0, "prose": 1, "names": 2, "dictionary": 3}


def _ordered_groups(labels: Iterable[str]) -> list[str]:
    return sorted(set(labels), key=lambda g: (_GROUP_ORDER.get(g, len(_GROUP_ORDER)), g))


def score_corpus(
    pairs: Sequence[EvalPair], sentence_level_chrf: bool = False
) -> MetricReport:
    """All six metrics per group label and pooled overall.

    Each pair is scored once: one edit distance and one chrF++ count
    vector (chrF is its first six orders). Groups and Overall are sums
    of those per-pair values, taken in input order, so a group's scores
    equal those of its pairs scored alone.
    """
    if not pairs:
        raise EmptyCorpus("no pairs to score")
    dists = [edit_distance(p.hypothesis, p.reference) for p in pairs]
    stripped = [(strip_whitespace(p.hypothesis), strip_whitespace(p.reference)) for p in pairs]
    stats = [
        _stats(hc, rc, p.hypothesis, p.reference, CHRF_CHAR_ORDER, CHRF_PP_WORD_ORDER)
        for p, (hc, rc) in zip(pairs, stripped)
    ]
    rates = [d / max(1, len(p.reference)) for d, p in zip(dists, pairs)]
    if sentence_level_chrf:
        sent_chrf = [_f_from_stats(s[:CHRF_CHAR_ORDER], CHRF_BETA) for s in stats]
        sent_chrf_pp = [_f_from_stats(s, CHRF_BETA) for s in stats]
    exact = [p.hypothesis == p.reference for p in pairs]
    exact_no_ws = [hc == rc for hc, rc in stripped]

    def scores(idx: Sequence[int]) -> GroupScores:
        n = len(idx)
        if sentence_level_chrf:
            chrf_value = sum(sent_chrf[i] for i in idx) / n
            chrf_pp_value = sum(sent_chrf_pp[i] for i in idx) / n
        else:
            # Per order, (matched, hyp_total, ref_total) summed over the pairs.
            totals = [tuple(map(sum, zip(*order))) for order in zip(*(stats[i] for i in idx))]
            chrf_value = _f_from_stats(totals[:CHRF_CHAR_ORDER], CHRF_BETA)
            chrf_pp_value = _f_from_stats(totals, CHRF_BETA)
        return GroupScores(
            n_pairs=n,
            chrf=chrf_value,
            chrf_pp=chrf_pp_value,
            cer=sum(dists[i] for i in idx) / n,
            ncer=sum(rates[i] for i in idx) / n,
            acc=100.0 * sum(exact[i] for i in idx) / n,
            acc_no_ws=100.0 * sum(exact_no_ws[i] for i in idx) / n,
        )

    by_group: dict[str, list[int]] = {}
    for i, p in enumerate(pairs):
        by_group.setdefault(p.group, []).append(i)
    groups = {label: scores(by_group[label]) for label in _ordered_groups(by_group)}
    return MetricReport(groups=groups, overall=scores(range(len(pairs))))
