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
and builds every group's row and the pooled Overall row from those
values. The single-metric functions (`chrf`, `chrf_pp`, `cer_mean`,
`ncer_mean`) each read one field of its Overall row, so each costs a
full scoring pass. Every edit distance comes from the bit-parallel
kernel in `tgfa._kernels`.

Each order's n-gram totals are its side's length minus n - 1 (never
below 0), so n-grams are counted only to find matches. An exact pair
takes every count from its lengths and builds no n-gram table; so does
the character half of a pair that differs only in whitespace. Otherwise
the character orders find the pair's greedy common runs once: a run
gives both sides the same n-grams, and min(m + a, m + b) = m + min(a, b),
so each window wholly inside a run is a match and only the windows that
cross or lie outside the runs are counted. The counts are exact whatever
runs the search finds. The word orders count every window.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Sequence

from ._kernels import levenshtein as edit_distance
from .corpus import DOMAINS
from .errors import ConfigError, EmptyCorpus, WrongState
from .script import ZWNJ, strip_whitespace

__all__ = [
    "EvalPair",
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


# A position's reach is how many symbols of its common run start there, capped at 255:
# _DESCENT[-k:] is the reach of a run of k <= 255 symbols.
_DESCENT = bytes(range(255, 0, -1))
_ANCHOR = 3  # symbols that must agree to resync after a mismatch
_MAX_SKIP = 4  # symbols either side may skip to resync
_NO_SKIP = 2 * _MAX_SKIP + 1  # more than any resync skips
_MAX_MISSES = 6  # failed resyncs in a row before the run search gives up


def _run_length(hyp: str, i: int, ref: str, j: int) -> int:
    """The largest k with ``hyp[i:i+k] == ref[j:j+k]``; ``hyp[i] == ref[j]``."""
    k, limit = 1, min(len(hyp) - i, len(ref) - j)
    while k < limit and hyp[i + k] == ref[j + k]:
        k += 1
    return k


def _reaches(hyp: str, ref: str) -> tuple[bytes, bytes]:
    """Each side's reach byte string over the two sides' greedy common runs.

    The runs are disjoint and in order, each ``hyp[i:i+k] == ref[j:j+k]``.
    After a mismatch the search resyncs where 3 symbols agree again, each
    side skipping at most 4 (a substitution, deletion or insertion, or a
    few close together), the least skipped first; failing that, both
    sides step on, and after 6 such failures in a row it stops. Outside
    the runs every reach is 0.
    """
    hyp_len, ref_len = len(hyp), len(ref)
    hyp_parts, ref_parts = [], []
    i = j = hyp_end = ref_end = misses = 0
    while i < hyp_len and j < ref_len and misses < _MAX_MISSES:
        if hyp[i] == ref[j]:
            k = _run_length(hyp, i, ref, j)
            reach = _DESCENT[-k:] if k <= 255 else b"\xff" * (k - 255) + _DESCENT
            hyp_parts += bytes(i - hyp_end), reach
            ref_parts += bytes(j - ref_end), reach
            i = hyp_end = i + k
            j = ref_end = j + k
            if k >= _ANCHOR:
                misses = 0
            continue
        # Resync at the least skip di + dj after which _ANCHOR symbols agree, else step both by 1.
        skip, skip_i, skip_j = _NO_SKIP, 1, 1
        for di in range(min(_MAX_SKIP + 1, hyp_len - i)):
            if di >= skip:
                break
            dj = ref.find(hyp[i + di : i + di + _ANCHOR], j, j + _MAX_SKIP + _ANCHOR) - j
            if 0 <= dj and di + dj < skip:
                skip, skip_i, skip_j = di + dj, di, dj
        misses += skip == _NO_SKIP
        i, j = i + skip_i, j + skip_j
    hyp_parts.append(bytes(hyp_len - hyp_end))
    ref_parts.append(bytes(ref_len - ref_end))
    return b"".join(hyp_parts), b"".join(ref_parts)


def _leftover(seq: str | tuple[str, ...], n: int, total: int, select: bytes) -> list:
    """The n-grams of order ``n`` of ``seq`` that start where ``select`` holds a 1."""
    if n == 1:
        return list(compress(seq, select))
    return [seq[p : p + n] for p in compress(range(total), select)]


def _overlap(hyp_grams: list, ref_grams: list) -> int:
    """Σ_g min(hyp count, ref count) over two lists of n-grams."""
    hyp_set = set(hyp_grams)
    if len(hyp_set) == len(hyp_grams):  # each count is 0 or 1
        return len(hyp_set.intersection(ref_grams))
    ref_count = Counter(ref_grams).get
    # min(c, ref_count(g, 0)) per n-gram, without a builtin call per item.
    return sum(
        [c if c <= ref_count(g, 0) else ref_count(g, 0) for g, c in Counter(hyp_grams).items()]
    )


def _order_stats(
    hyp: str | tuple[str, ...], ref: str | tuple[str, ...], max_n: int
) -> list[tuple[int, int, int]]:
    """(matched, hyp_total, ref_total) for each order 1..``max_n`` of two sequences.

    The sides are both strings (character n-grams) or both tuples of
    words (word n-grams). Totals are ``max(0, len - n + 1)``. Each common
    run of the two sides gives both the same n-grams, and
    min(m + a, m + b) = m + min(a, b), so a window wholly inside a run
    matches and only the others are counted; equal sides match in full.
    """
    if hyp == ref:
        totals = [max(0, len(hyp) - n + 1) for n in range(1, max_n + 1)]
        return [(total, total, total) for total in totals]
    if isinstance(hyp, str):
        hyp_reach, ref_reach = _reaches(hyp, ref)
    else:
        # Word tuples take no run search: over chrF++'s two orders of a line's
        # words it cost more than the counting it saved.
        hyp_reach, ref_reach = bytes(len(hyp)), bytes(len(ref))
    stats = []
    for n in range(1, max_n + 1):
        hyp_total = max(0, len(hyp) - n + 1)
        ref_total = max(0, len(ref) - n + 1)
        # Maps a reach below n, where a window of order n is not wholly inside a run, to 1.
        below = (b"\x01" * n)[:256].ljust(256, b"\x00")
        hyp_left = _leftover(hyp, n, hyp_total, hyp_reach.translate(below))
        ref_left = _leftover(ref, n, ref_total, ref_reach.translate(below))
        stats.append((hyp_total - len(hyp_left) + _overlap(hyp_left, ref_left), hyp_total, ref_total))
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
    return score_corpus(pairs, sentence_level)[-1]["chrf"]


def chrf_pp(pairs: Sequence[EvalPair], sentence_level: bool = False) -> float:
    """Corpus chrF++: chrF plus word unigrams and bigrams."""
    return score_corpus(pairs, sentence_level)[-1]["chrf_pp"]


def cer_mean(pairs: Sequence[EvalPair]) -> float:
    """Mean raw edit distance over all pairs."""
    return score_corpus(pairs)[-1]["cer"]


def ncer_mean(pairs: Sequence[EvalPair]) -> float:
    """Mean of edit distance divided by max(1, reference length)."""
    return score_corpus(pairs)[-1]["ncer"]


_GROUP_ORDER = {domain: i for i, domain in enumerate(DOMAINS)}


def _ordered_groups(labels: Iterable[str]) -> list[str]:
    return sorted(set(labels), key=lambda g: (_GROUP_ORDER.get(g, len(_GROUP_ORDER)), g))


def score_corpus(pairs: Sequence[EvalPair], sentence_level_chrf: bool = False) -> list[dict]:
    """The rows of a score file: one per group label, domains first, then the pooled ``Overall``.

    Each row holds ``group``, ``n_pairs`` and the six metrics ``chrf``,
    ``chrf_pp``, ``cer``, ``ncer``, ``acc`` and ``acc_no_ws``. A pair
    labelled ``Overall`` raises ConfigError, before any pair is scored.
    Each pair is scored once: one edit distance and one chrF++ count
    vector (chrF is its first six orders). Every row sums those per-pair
    values in input order, so a group's row equals that of its pairs
    scored alone.
    """
    if not pairs:
        raise EmptyCorpus("no pairs to score")
    if any(p.group == "Overall" for p in pairs):
        raise ConfigError("group label 'Overall' is reserved for the pooled row")
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

    def row(group: str, idx: Sequence[int]) -> dict:
        n = len(idx)
        if sentence_level_chrf:
            chrf_value = sum(sent_chrf[i] for i in idx) / n
            chrf_pp_value = sum(sent_chrf_pp[i] for i in idx) / n
        else:
            # Per order, (matched, hyp_total, ref_total) summed over the pairs.
            totals = [tuple(map(sum, zip(*order))) for order in zip(*(stats[i] for i in idx))]
            chrf_value = _f_from_stats(totals[:CHRF_CHAR_ORDER], CHRF_BETA)
            chrf_pp_value = _f_from_stats(totals, CHRF_BETA)
        return {
            "group": group,
            "n_pairs": n,
            "chrf": chrf_value,
            "chrf_pp": chrf_pp_value,
            "cer": sum(dists[i] for i in idx) / n,
            "ncer": sum(rates[i] for i in idx) / n,
            "acc": 100.0 * sum(exact[i] for i in idx) / n,
            "acc_no_ws": 100.0 * sum(exact_no_ws[i] for i in idx) / n,
        }

    by_group: dict[str, list[int]] = {}
    for i, p in enumerate(pairs):
        by_group.setdefault(p.group, []).append(i)
    return [row(label, by_group[label]) for label in _ordered_groups(by_group)] + [
        row("Overall", range(len(pairs)))
    ]
