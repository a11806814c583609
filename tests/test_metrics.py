from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgfa.errors import ConfigError, EmptyCorpus, WrongState
from tgfa.metrics import (
    EvalPair,
    cer_mean,
    chrf,
    chrf_pp,
    edit_distance,
    ncer_mean,
    score_corpus,
    _stats,
)

from tgfa.cli import METRIC_COLUMNS
from oracles import (
    corpus_f_direct,
    levenshtein_dp,
    ngram_stats_direct,
    sentence_f_direct,
)

_short = st.text(alphabet="abcdefghijkl", max_size=20)
_sentence = st.lists(st.text(alphabet="abcде", min_size=1, max_size=5), max_size=8).map(" ".join)


@st.composite
def mixed_pairs(draw):
    """Pairs of which about a third are exact copies and a third differ only in whitespace."""
    pairs = []
    for ref in draw(st.lists(_sentence, min_size=1, max_size=12)):
        kind = draw(st.sampled_from(["exact", "whitespace", "other"]))
        if kind == "exact":
            hyp = ref
        elif kind == "whitespace":
            chars = "".join(ref.split())
            cut = draw(st.integers(0, len(chars)))
            hyp = chars[:cut] + " " + chars[cut:]
        else:
            hyp = draw(_sentence)
        pairs.append(EvalPair(hyp, ref))
    return pairs


@st.composite
def edited_copies(draw):
    """A reference over 2 or 3 letters and spaces, and a copy with random substitutions, deletions and insertions."""
    letters = draw(st.sampled_from(["ab", "abc"]))
    ref = draw(st.text(alphabet=letters + " ", max_size=60))
    hyp = list(ref)
    for _ in range(draw(st.integers(0, 8))):
        at = draw(st.integers(0, len(hyp)))
        op = draw(st.sampled_from(["substitute", "delete", "insert"]))
        letter = draw(st.sampled_from(letters + " "))
        if op == "insert":
            hyp.insert(at, letter)
        elif at < len(hyp):
            hyp[at : at + 1] = [letter] if op == "substitute" else []
    return "".join(hyp), ref


def edited_corpus(n: int, seed: int, alphabet: str = "ab c", max_len: int = 300):
    """Pairs of a random reference and a copy of it with about one edit in ten."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(n):
        ref = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))
        hyp = []
        for c in ref:
            op = rng.randrange(30)  # 0 deletes c, 1 inserts after it, 2 substitutes it
            if op == 1:
                hyp += [c, rng.choice(alphabet)]
            elif op == 2:
                hyp.append(rng.choice(alphabet))
            elif op:
                hyp.append(c)
        pairs.append(EvalPair(" ".join("".join(hyp).split()), " ".join(ref.split())))
    return pairs


def random_pairs(n: int, seed: int, alphabet: str = "abcdefghijkl", max_len: int = 20):
    rng = random.Random(seed)
    pairs = []
    for _ in range(n):
        ref = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))
        if rng.random() < 0.3:
            hyp = ref  # exact matches must be represented
        else:
            hyp = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))
        pairs.append(EvalPair(hyp, ref))
    return pairs


class TestEditDistance:
    @pytest.mark.parametrize(
        "a,b,expected",
        [("", "abc", 3), ("abc", "abc", 0), ("kitten", "sitting", 3)],
    )
    def test_examples(self, a, b, expected):
        assert levenshtein_dp(a, b) == expected  # oracle agrees with the books
        assert edit_distance(a, b) == expected

    def test_unicode_scalars_not_bytes(self):
        # Multi-byte characters still count as single edits.
        assert edit_distance("ғӣқ", "ғйқ") == 1
        assert edit_distance("کتاب", "کتب") == 1

    @given(_short, _short)
    @settings(max_examples=400)
    def test_matches_oracle(self, a, b):
        assert edit_distance(a, b) == levenshtein_dp(a, b)

    @pytest.mark.parametrize("n", [63, 64, 65, 129])
    def test_lengths_around_machine_words(self, n):
        rng = random.Random(n)
        alphabet = "аби" + "\u200c" + "ا ب\U0001F600"
        a = "".join(rng.choice(alphabet) for _ in range(n))
        b = "".join(rng.choice(alphabet) for _ in range(n + 3))
        assert edit_distance(a, b) == levenshtein_dp(a, b)
        assert edit_distance("", a) == n

    @given(_short, _short)
    @settings(max_examples=200)
    def test_symmetric(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @given(_short, _short, _short)
    @settings(max_examples=200)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


class TestCer:
    def test_identical_pairs(self):
        pairs = [EvalPair("ab", "ab")] * 4
        assert cer_mean(pairs) == 0.0
        assert ncer_mean(pairs) == 0.0

    def test_mixed(self):
        pairs = [EvalPair("a", "b"), EvalPair("ab", "ab")]
        assert cer_mean(pairs) == 0.5

    def test_ncer_quarter(self):
        assert ncer_mean([EvalPair("abcd", "abce")]) == 0.25

    def test_ncer_empty_reference_denominator(self):
        assert ncer_mean([EvalPair("ab", "")]) == 2.0

    def test_matches_oracle_mean(self):
        pairs = random_pairs(100, seed=5)
        expected = sum(levenshtein_dp(p.hypothesis, p.reference) for p in pairs) / len(pairs)
        assert cer_mean(pairs) == expected

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            cer_mean([])
        with pytest.raises(EmptyCorpus):
            ncer_mean([])


def sentence_scores(hyp: str, ref: str) -> dict:
    """One pair scored alone at sentence level: chrF is orders (6, 0), chrF++ orders (6, 2)."""
    return score_corpus([EvalPair(hyp, ref)], sentence_level_chrf=True)[-1]


class TestNgramF:
    def test_identity_is_100(self):
        for x in ("a", "abc", "аз ин ҷо"):
            assert sentence_scores(x, x)["chrf_pp"] == 100.0

    def test_disjoint_is_0(self):
        assert sentence_scores("aaaa", "bbbb")["chrf"] == 0.0

    def test_derived_value(self):
        # Frozen from the direct-definition oracle: char 1-grams overlap
        # 3/4, 2-grams 2/3, 3-grams 1/2, 4-grams 0/1; P == R == 23/48.
        expected = sentence_f_direct("abcd", "abce", 6, 0, 2.0)
        assert expected == pytest.approx(2300 / 48, abs=1e-12)
        assert sentence_scores("abcd", "abce")["chrf"] == pytest.approx(expected, abs=1e-12)

    def test_empty_edges(self):
        for hyp, ref, want in (("", "", 100.0), ("a", "", 0.0), ("", "a", 0.0)):
            scores = sentence_scores(hyp, ref)
            assert scores["chrf"] == sentence_f_direct(hyp, ref, 6, 0, 2.0) == want
            assert scores["chrf_pp"] == sentence_f_direct(hyp, ref, 6, 2, 2.0) == want

    def test_short_reference_skips_high_orders(self):
        # Reference has no 2-grams, so only order 1 is active.
        assert sentence_scores("ab", "a")["chrf"] == pytest.approx(
            sentence_f_direct("ab", "a", 6, 0, 2.0), abs=1e-12
        )

    @given(_short | _sentence, _short | _sentence)
    @settings(max_examples=300)
    def test_matches_oracle(self, hyp, ref):
        scores = sentence_scores(hyp, ref)
        assert scores["chrf"] == pytest.approx(sentence_f_direct(hyp, ref, 6, 0, 2.0), abs=1e-9)
        assert scores["chrf_pp"] == pytest.approx(sentence_f_direct(hyp, ref, 6, 2, 2.0), abs=1e-9)
        assert 0.0 <= scores["chrf"] <= 100.0 and 0.0 <= scores["chrf_pp"] <= 100.0


def stats(hyp: str, ref: str):
    return _stats("".join(hyp.split()), "".join(ref.split()), hyp, ref, 6, 2)


class TestCommonRuns:
    """Counting only the n-grams outside a pair's common runs matches the direct definition."""

    @given(edited_copies())
    @settings(max_examples=400)
    def test_edited_copy_matches_oracle(self, pair):
        hyp, ref = pair
        assert stats(hyp, ref) == ngram_stats_direct(hyp, ref, 6, 2)
        assert stats(ref, hyp) == ngram_stats_direct(ref, hyp, 6, 2)

    @pytest.mark.parametrize(
        "hyp,ref",
        [
            # Common runs longer than the 255 a reach byte holds.
            ("ab" * 200 + "x" + "ab" * 150, "ab" * 200 + "ab" * 150),
            ("c" + "abc" * 120, "abc" * 120),
            ("a" * 600, "a" * 300 + "b" + "a" * 299),
            # One side empty.
            ("", "abab aba"),
            ("abab aba", ""),
            # A proper prefix or suffix of the reference.
            ("abcab", "abcabcab"),
            ("cabcab", "abcabcab"),
            ("ab ab", "ab ab ab"),
            ("ab ab", "ab ab ba"),
            # Repeated words and word bigrams.
            ("a b a b a b", "a b a b b a b"),
            ("aa ab aa ab aa", "aa ab ab aa ab aa aa"),
            ("x y x y", "y x y x y"),
        ],
    )
    def test_fixed_rows_match_oracle(self, hyp, ref):
        assert stats(hyp, ref) == ngram_stats_direct(hyp, ref, 6, 2)

    @pytest.mark.parametrize("sentence_level", [False, True])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_score_corpus_on_edited_copies_matches_oracles(self, seed, sentence_level):
        pairs = edited_corpus(40, seed)
        tuples = [(p.hypothesis, p.reference) for p in pairs]
        overall = score_corpus(pairs, sentence_level)[-1]
        if sentence_level:
            want = [sum(sentence_f_direct(h, r, 6, w, 2.0) for h, r in tuples) / len(tuples) for w in (0, 2)]
        else:
            want = [corpus_f_direct(tuples, 6, w, 2.0) for w in (0, 2)]
        assert overall["chrf"] == pytest.approx(want[0], abs=1e-9)
        assert overall["chrf_pp"] == pytest.approx(want[1], abs=1e-9)


class TestCorpusChrf:
    def test_all_equal(self):
        pairs = [EvalPair("аз ин", "аз ин"), EvalPair("китоб", "китоб")]
        assert chrf(pairs) == 100.0
        assert chrf_pp(pairs) == 100.0

    def test_all_disjoint(self):
        pairs = [EvalPair("aaa", "bbb"), EvalPair("cc", "dd")]
        assert chrf(pairs) == 0.0
        assert chrf_pp(pairs) == 0.0

    def test_matches_direct_oracle(self):
        pairs = random_pairs(50, seed=17)
        tuples = [(p.hypothesis, p.reference) for p in pairs]
        assert chrf(pairs) == pytest.approx(
            corpus_f_direct(tuples, 6, 0, 2.0), abs=1e-9
        )
        assert chrf_pp(pairs) == pytest.approx(
            corpus_f_direct(tuples, 6, 2, 2.0), abs=1e-9
        )

    def test_pooled_differs_from_sentence_average(self):
        pairs = [EvalPair("ab", "ab"), EvalPair("xxxxxxxx", "yyyyyyyy")]
        pooled = chrf(pairs)
        averaged = chrf(pairs, sentence_level=True)
        assert pooled != averaged

    def test_sentence_average_is_mean(self):
        pairs = random_pairs(20, seed=23)
        want = sum(
            sentence_f_direct(p.hypothesis, p.reference, 6, 0, 2.0) for p in pairs
        ) / len(pairs)
        assert chrf(pairs, sentence_level=True) == pytest.approx(want, abs=1e-9)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            chrf([])


class TestSeqAcc:
    def test_all_identical(self):
        assert score_corpus([EvalPair("аз", "аз")] * 3)[-1]["acc"] == 100.0

    def test_whitespace_variants(self):
        overall = score_corpus([EvalPair("а б", "аб")])[-1]
        assert overall["acc_no_ws"] == 100.0
        assert overall["acc"] == 0.0

    def test_counting(self):
        pairs = [
            EvalPair("a", "a"),
            EvalPair("b", "x"),
            EvalPair("c", "x"),
            EvalPair("d", "x"),
        ]
        assert score_corpus(pairs)[-1]["acc"] == 25.0

    @given(st.lists(st.tuples(_short, _short), min_size=1, max_size=30))
    @settings(max_examples=200)
    def test_strip_ws_never_lowers_accuracy(self, raw):
        overall = score_corpus([EvalPair(h, r) for h, r in raw])[-1]
        assert overall["acc_no_ws"] >= overall["acc"]


class TestEvalPair:
    def test_rejects_markers(self):
        with pytest.raises(WrongState):
            EvalPair("а@з", "аз")
        with pytest.raises(WrongState):
            EvalPair("аз", "а_з")

    def test_rejects_zwnj_and_diacritics(self):
        with pytest.raises(WrongState):
            EvalPair("ми‌равам", "equal")
        with pytest.raises(WrongState):
            EvalPair("hyp", "کتَاب")

    def test_rejects_hyphen(self):
        with pytest.raises(WrongState):
            EvalPair("в-аз", "ваз")

    # U+0653 (maddah above) has no table row; U+0301 (acute) is outside the Arabic block.
    @pytest.mark.parametrize("mark", ["\u0653", "\u0301"])
    def test_rejects_every_combining_mark(self, mark):
        with pytest.raises(WrongState, match=f"U\\+{ord(mark):04X}"):
            EvalPair("аз", "а" + mark + "з")


def _rows_by_group(rows: list[dict]) -> dict[str, dict]:
    return {row["group"]: row for row in rows}


def _row(group: str, n_pairs: int, *metrics: float) -> dict:
    """A score row from its values in METRIC_COLUMNS order."""
    return {"group": group, "n_pairs": n_pairs, **dict(zip(METRIC_COLUMNS, metrics, strict=True))}


class TestScoreCorpus:
    def test_perfect_single_group(self):
        pairs = [EvalPair("аз ин", "аз ин", "poetry")] * 5
        scores, overall = score_corpus(pairs)
        assert scores["group"] == "poetry"
        assert {**scores, "group": "Overall"} == overall
        assert (scores["chrf"], scores["chrf_pp"]) == (100.0, 100.0)
        assert (scores["cer"], scores["ncer"]) == (0.0, 0.0)
        assert (scores["acc"], scores["acc_no_ws"]) == (100.0, 100.0)
        assert scores["n_pairs"] == 5

    def test_overall_pools_groups(self):
        pairs = [
            EvalPair("аб", "аб", "poetry"),
            EvalPair("вг", "вг", "poetry"),
            EvalPair("де", "же", "prose"),
        ]
        *groups, overall = score_corpus(pairs)
        assert overall["n_pairs"] == sum(g["n_pairs"] for g in groups)
        # Pooled overall equals scoring the concatenated pair list directly.
        assert overall["chrf"] == chrf(pairs)
        assert overall["cer"] == cer_mean(pairs)

    def test_group_order_follows_domains(self):
        pairs = [
            EvalPair("a", "a", "dictionary"),
            EvalPair("b", "b", "zeta"),
            EvalPair("c", "c", "poetry"),
            EvalPair("d", "d", "alpha"),
        ]
        assert [row["group"] for row in score_corpus(pairs)] == ["poetry", "dictionary", "alpha", "zeta", "Overall"]

    @pytest.mark.parametrize("sentence_level", [False, True])
    def test_rows_hold_the_score_file_fields(self, sentence_level):
        pairs = [EvalPair("аб", "аб", "poetry"), EvalPair("в", "г", "x"), EvalPair("де", "де")]
        for row in score_corpus(pairs, sentence_level):
            assert set(row) == {"group", "n_pairs", *METRIC_COLUMNS}

    @pytest.mark.parametrize("groups", [["Overall"], ["poetry", "Overall"]])
    def test_group_named_overall_is_refused(self, groups, monkeypatch):
        import tgfa.metrics

        def no_scoring(*args):
            raise AssertionError("a pair was scored")

        monkeypatch.setattr(tgfa.metrics, "edit_distance", no_scoring)
        with pytest.raises(ConfigError, match="'Overall'"):
            score_corpus([EvalPair("аб", "аб", g) for g in groups])

    def test_matches_single_metric_oracles(self):
        pairs = random_pairs(60, seed=31)
        overall = score_corpus(pairs)[-1]
        tuples = [(p.hypothesis, p.reference) for p in pairs]
        assert overall["chrf"] == pytest.approx(
            corpus_f_direct(tuples, 6, 0, 2.0), abs=1e-9
        )
        assert overall["cer"] == sum(
            levenshtein_dp(h, r) for h, r in tuples
        ) / len(tuples)

    @pytest.mark.parametrize("sentence_level", [False, True])
    def test_one_pass_matches_oracles_and_single_metrics(self, sentence_level):
        # Three groups interleaved in input order; spaces give word n-grams.
        labels = ("poetry", "prose", "names")
        pairs = [
            EvalPair(p.hypothesis, p.reference, labels[i % 3])
            for i, p in enumerate(random_pairs(90, seed=41, alphabet="abc де ف"))
        ]
        rows = _rows_by_group(score_corpus(pairs, sentence_level))
        assert list(rows) == [*labels, "Overall"]
        members = {g: [p for p in pairs if p.group == g] for g in labels}
        for group_pairs, got in [(members[g], rows[g]) for g in labels] + [
            (pairs, rows["Overall"])
        ]:
            n = len(group_pairs)
            tuples = [(p.hypothesis, p.reference) for p in group_pairs]
            dists = [levenshtein_dp(h, r) for h, r in tuples]
            if sentence_level:
                want_chrf = sum(sentence_f_direct(h, r, 6, 0, 2.0) for h, r in tuples) / n
                want_chrf_pp = sum(sentence_f_direct(h, r, 6, 2, 2.0) for h, r in tuples) / n
            else:
                want_chrf = corpus_f_direct(tuples, 6, 0, 2.0)
                want_chrf_pp = corpus_f_direct(tuples, 6, 2, 2.0)
            assert got["n_pairs"] == n
            assert got["chrf"] == pytest.approx(want_chrf, abs=1e-9)
            assert got["chrf_pp"] == pytest.approx(want_chrf_pp, abs=1e-9)
            assert got["cer"] == pytest.approx(sum(dists) / n, abs=1e-9)
            assert got["ncer"] == pytest.approx(
                sum(d / max(1, len(r)) for d, (_, r) in zip(dists, tuples)) / n, abs=1e-9
            )
            assert got["acc"] == pytest.approx(100.0 * sum(h == r for h, r in tuples) / n, abs=1e-9)
            assert got["acc_no_ws"] == pytest.approx(
                100.0 * sum("".join(h.split()) == "".join(r.split()) for h, r in tuples) / n,
                abs=1e-9,
            )
            # Each group scores exactly as its pairs scored alone.
            alone = score_corpus(group_pairs)[-1]
            assert got == _row(
                got["group"],
                n,
                chrf(group_pairs, sentence_level),
                chrf_pp(group_pairs, sentence_level),
                cer_mean(group_pairs),
                ncer_mean(group_pairs),
                alone["acc"],
                alone["acc_no_ws"],
            )

    # Exact scores of the 90-pair, three-group input above. Reports print
    # these floats, so any change to the scoring arithmetic shows here.
    PINNED = {
        False: [
            _row("poetry", 30, 31.87148310731019, 27.153690328184055, 9.0,
                 1.7746929612641686, 13.333333333333334, 13.333333333333334),
            _row("prose", 30, 49.084357169842555, 49.185628333228706, 6.4,
                 2.0541914664283083, 40.0, 40.0),
            _row("names", 30, 50.72040584118479, 48.3976843478024, 5.666666666666667,
                 1.4689055023923445, 36.666666666666664, 36.666666666666664),
            _row("Overall", 90, 42.54773357869831, 40.08500652549934, 7.022222222222222,
                 1.7659299766949406, 30.0, 30.0),
        ],
        True: [
            _row("poetry", 30, 23.52354993980107, 20.88073830200772, 9.0,
                 1.7746929612641686, 13.333333333333334, 13.333333333333334),
            _row("prose", 30, 48.590052438314096, 46.812546286417366, 6.4,
                 2.0541914664283083, 40.0, 40.0),
            _row("names", 30, 46.959209901298735, 43.73676740500242, 5.666666666666667,
                 1.4689055023923445, 36.666666666666664, 36.666666666666664),
            _row("Overall", 90, 39.690937426471315, 37.14335066447584, 7.022222222222222,
                 1.7659299766949406, 30.0, 30.0),
        ],
    }

    @pytest.mark.parametrize("sentence_level", [False, True])
    def test_exact_scores_are_pinned(self, sentence_level):
        labels = ("poetry", "prose", "names")
        pairs = [
            EvalPair(p.hypothesis, p.reference, labels[i % 3])
            for i, p in enumerate(random_pairs(90, seed=41, alphabet="abc де ف"))
        ]
        assert score_corpus(pairs, sentence_level) == self.PINNED[sentence_level]

    @given(mixed_pairs(), st.booleans())
    @settings(max_examples=200)
    def test_exact_and_whitespace_pairs_match_oracles(self, pairs, sentence_level):
        tuples = [(p.hypothesis, p.reference) for p in pairs]
        overall = score_corpus(pairs, sentence_level)[-1]
        if sentence_level:
            want = [sum(sentence_f_direct(h, r, 6, w, 2.0) for h, r in tuples) / len(tuples) for w in (0, 2)]
        else:
            want = [corpus_f_direct(tuples, 6, w, 2.0) for w in (0, 2)]
        assert overall["chrf"] == pytest.approx(want[0], abs=1e-9)
        assert overall["chrf_pp"] == pytest.approx(want[1], abs=1e-9)
        assert overall["acc_no_ws"] == pytest.approx(
            100.0 * sum("".join(h.split()) == "".join(r.split()) for h, r in tuples) / len(tuples),
            abs=1e-9,
        )

    @given(st.text(alphabet="abcде \t", max_size=30))
    def test_exact_pair_counts_are_totals(self, x):
        stripped = "".join(x.split())
        chars, words = len(stripped), len(x.split())
        totals = [max(0, chars - n + 1) for n in range(1, 7)] + [max(0, words - n + 1) for n in (1, 2)]
        assert _stats(stripped, stripped, x, x, 6, 2) == [(t, t, t) for t in totals] == ngram_stats_direct(x, x, 6, 2)

    def test_cer_zero_iff_acc_100(self):
        for seed in range(5):
            overall = score_corpus(random_pairs(40, seed=seed))[-1]
            assert (overall["cer"] == 0.0) == (overall["acc"] == 100.0)
