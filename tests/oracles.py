"""Independent reference implementations used only to check the library.

These deliberately avoid the library's own code paths: the edit-distance
oracle is the textbook full-matrix DP, the F-score oracle enumerates
n-gram multisets explicitly with plain dicts, and the decoder oracle
ranks every lattice path by full-sequence rescoring. The character LM
oracle keeps contexts as tuples of symbols and re-sums each context's
counts on every query; ``lm.json``'s oracle encodes its counts with one
``json.dumps``.
"""

from __future__ import annotations

import itertools
import json


def levenshtein_dp(a: str, b: str) -> int:
    """Quadratic full-matrix Levenshtein DP."""
    la, lb = len(a), len(b)
    dp = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in range(la + 1):
        dp[i][0] = i
    for j in range(lb + 1):
        dp[0][j] = j
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            dp[i][j] = min(
                dp[i - 1][j] + 1,
                dp[i][j - 1] + 1,
                dp[i - 1][j - 1] + cost,
            )
    return dp[la][lb]


def _multiset(items) -> dict:
    counts: dict = {}
    for item in items:
        counts[item] = counts.get(item, 0) + 1
    return counts


def _char_ngram_multiset(text: str, n: int) -> dict:
    text = "".join(ch for ch in text if not ch.isspace())
    return _multiset(text[i : i + n] for i in range(len(text) - n + 1))


def _word_ngram_multiset(text: str, n: int) -> dict:
    words = text.split()
    return _multiset(tuple(words[i : i + n]) for i in range(len(words) - n + 1))


def _overlap(h: dict, r: dict) -> int:
    return sum(min(c, r[g]) for g, c in h.items() if g in r)


def ngram_stats_direct(hyp: str, ref: str, max_char_n: int, max_word_n: int):
    """Per-order (matched, hyp_total, ref_total) via explicit enumeration."""
    stats = []
    for n in range(1, max_char_n + 1):
        h = _char_ngram_multiset(hyp, n)
        r = _char_ngram_multiset(ref, n)
        stats.append((_overlap(h, r), sum(h.values()), sum(r.values())))
    for n in range(1, max_word_n + 1):
        h = _word_ngram_multiset(hyp, n)
        r = _word_ngram_multiset(ref, n)
        stats.append((_overlap(h, r), sum(h.values()), sum(r.values())))
    return stats


def f_score_direct(stats, beta: float) -> float:
    """Averaged precision/recall F over orders with reference content."""
    ps, rs = [], []
    for matched, hyp_total, ref_total in stats:
        if ref_total == 0:
            continue
        ps.append(matched / hyp_total if hyp_total else 0.0)
        rs.append(matched / ref_total)
    if not ps:
        return 100.0 if all(h == 0 for _, h, _ in stats) else 0.0
    p = sum(ps) / len(ps)
    r = sum(rs) / len(rs)
    if p + r == 0.0:
        return 0.0
    return (1 + beta**2) * p * r / (beta**2 * p + r) * 100.0


def sentence_f_direct(
    hyp: str, ref: str, max_char_n: int, max_word_n: int, beta: float
) -> float:
    return f_score_direct(ngram_stats_direct(hyp, ref, max_char_n, max_word_n), beta)


def corpus_f_direct(pairs, max_char_n: int, max_word_n: int, beta: float) -> float:
    """Corpus F by pooling per-pair counts before the averaged-F formula."""
    pooled = [(0, 0, 0)] * (max_char_n + max_word_n)
    for hyp, ref in pairs:
        stats = ngram_stats_direct(hyp, ref, max_char_n, max_word_n)
        pooled = [
            (a + m, b + h, c + r) for (a, b, c), (m, h, r) in zip(pooled, stats)
        ]
    return f_score_direct(pooled, beta)


LM_BOS, LM_EOS, LM_UNK = "\x02", "\x03", "\x01"


class CharLMOracle:
    """Character n-gram LM with tuple contexts, Witten-Bell or plain MLE.

    Trained on ``texts`` like ``tgfa.translit.train_lm``: each text is
    padded with ``order - 1`` begin sentinels and ends in the end
    sentinel; the alphabet is every seen character plus the end sentinel
    and the unknown bucket.
    """

    def __init__(self, texts, order: int, smoothing: str = "witten_bell"):
        self.order = order
        self.smoothing = smoothing
        self.counts: list[dict] = [{} for _ in range(order)]
        self.vocab = {LM_EOS, LM_UNK}
        for text in texts:
            if not text:
                continue
            self.vocab.update(text)
            symbols = [LM_BOS] * (order - 1) + list(text) + [LM_EOS]
            for i in range(order - 1, len(symbols)):
                for k in range(1, order + 1):
                    bucket = self.counts[k - 1].setdefault(tuple(symbols[i - k + 1 : i]), {})
                    bucket[symbols[i]] = bucket.get(symbols[i], 0) + 1

    def _map(self, symbol: str) -> str:
        return symbol if symbol in self.vocab or symbol == LM_BOS else LM_UNK

    def prob(self, symbol: str, context=()) -> float:
        sym = self._map(symbol)
        ctx = tuple(self._map(s) for s in context)[max(0, len(context) - self.order + 1) :]
        ctx = (LM_BOS,) * (self.order - 1 - len(ctx)) + ctx
        if self.smoothing == "none":
            bucket = self.counts[self.order - 1].get(ctx)
            if not bucket:
                return 0.0
            return bucket.get(sym, 0) / sum(bucket.values())
        p = 1.0 / len(self.vocab)
        for k in range(1, self.order + 1):
            bucket = self.counts[k - 1].get(ctx[len(ctx) - (k - 1) :] if k > 1 else ())
            if not bucket:
                continue
            total, types = sum(bucket.values()), len(bucket)
            p = (bucket.get(sym, 0) + types * p) / (total + types)
        return p


def oracle_lm_json(texts, order: int, smoothing: str = "witten_bell") -> str:
    """The expected ``lm.json`` text, built from the tuple oracle's counts.

    Format version 2: keys sorted, each level's contexts joined into
    strings and sorted, each bucket's symbols sorted.
    """
    oracle = CharLMOracle(texts, order, smoothing)
    counts = [
        [["".join(ctx), dict(sorted(bucket.items()))] for ctx, bucket in sorted(level.items())]
        for level in oracle.counts
    ]
    payload = {
        "alphabet": sorted(oracle.vocab), "counts": counts, "magic": "tgfa-charlm",
        "order": order, "smoothing": smoothing, "version": 2,
    }
    return json.dumps(payload, ensure_ascii=False)


def exhaustive_rank(slots, lm) -> list[str]:
    """Every distinct lattice path string, ranked by full LM rescoring."""
    scored = {}
    for combo in itertools.product(*slots):
        text = "".join(combo)
        if text not in scored:
            scored[text] = lm.score(text)
    return [t for t, _ in sorted(scored.items(), key=lambda kv: (-kv[1], kv[0]))]


def consonant_projection(text: str, classes: dict) -> list[str]:
    """Project a normalized string onto the consonant classes it contains."""
    return [classes[ch] for ch in text if ch in classes]
