from __future__ import annotations

import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgfa.errors import BadMap, EmptyCorpus, ParseError, TooSmall, UnknownDataset
from tgfa.script import ZWNJ, NormMode, Script, normalize_text
from tgfa.corpus import (
    DATASET_DOMAINS,
    ParallelPair,
    default_consonant_map,
    domain_of,
    kfold,
    load,
    load_consonant_map,
    paranames_filter,
    read_pairs,
    save,
    split_holdout,
    stats,
)

from conftest import run_cli, toy_corpus
from oracles import consonant_projection


def write_jsonl(path, rows):
    path.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows),
        encoding="utf-8",
    )


# Mixed Arabic/Cyrillic text: letters, marks (kasra, shadda, the ezafe
# hamza), ZWNJ, hyphens and dashes, punctuation, digits and whitespace.
MIXED_TEXT = st.text(
    alphabet=list("کتابپژۀ" + "\u0650\u0651\u0654" + "КитобҳӯқғӣҷӢ" + ZWNJ + "-—" + ".,!?«»،؟1a" + " \t\u00a0"),
    max_size=40,
)


class TestParallelPair:
    @given(MIXED_TEXT, MIXED_TEXT)
    @settings(max_examples=200)
    def test_train_sides_match_normalize_text(self, fa, tg):
        pair = ParallelPair(fa=fa, tg=tg)
        assert pair.fa_train == normalize_text(fa, Script.FARSI, NormMode.TRAIN)
        assert pair.tg_train == normalize_text(tg, Script.TAJIK, NormMode.TRAIN)
        assert pair.text(Script.FARSI) == pair.fa_train
        assert pair.text(Script.TAJIK) == pair.tg_train
        assert (pair.text(Script.FARSI, train=False), pair.text(Script.TAJIK, train=False)) == (fa, tg)

    def test_equality_hash_repr_and_save_see_raw_fields(self, tmp_path):
        a = ParallelPair(fa="از!", tg="Аз", dataset="Dictionary")
        assert a == ParallelPair(fa="از!", tg="Аз", dataset="Dictionary")
        assert hash(a) == hash(ParallelPair(fa="از!", tg="Аз", dataset="Dictionary"))
        assert "_train" not in repr(a)
        save([a], tmp_path / "c.jsonl")
        row = json.loads((tmp_path / "c.jsonl").read_text(encoding="utf-8"))
        assert row == {"fa": "از!", "tg": "Аз", "dataset": "Dictionary"}


class TestLoad:
    def test_jsonl_order_preserved(self, tmp_path):
        rows = [
            {"fa": "از", "tg": "аз", "dataset": "Dictionary"},
            {"fa": "این", "tg": "ин", "dataset": "Dictionary"},
            {"fa": "کتاب", "tg": "китоб", "dataset": "Dictionary"},
        ]
        path = tmp_path / "c.jsonl"
        write_jsonl(path, rows)
        pairs = load(path)
        assert [p.tg for p in pairs] == ["аз", "ин", "китоб"]

    def test_line_separator_inside_json_string(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"fa": "از\u2028این", "tg": "аз ин"}\r\n{"fa": "از", "tg": "аз"}\n', encoding="utf-8")
        pairs, skipped = read_pairs(path)
        assert [p.fa for p in pairs] == ["از\u2028این", "از"] and not skipped

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"fa": "از", "tg": "аз"}, {"fa": "این"}])
        with pytest.raises(ParseError, match="line 2"):
            load(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"fa": "از", "tg": "аз"}\nnot json\n', encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            load(path)

    def test_all_punct_side_skipped_with_warning(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(
            path,
            [
                {"fa": "از", "tg": "аз"},
                {"fa": "از", "tg": "?!..."},
            ],
        )
        pairs, skipped = read_pairs(path)
        assert len(pairs) == 1
        assert len(skipped) == 1
        assert "line 2" in skipped[0] and "tg" in skipped[0]

    def test_tsv_two_and_four_columns(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text(
            "از\tаз\nاین\tин\tDictionary\tdictionary\n", encoding="utf-8"
        )
        pairs = load(path)
        assert pairs[0].dataset == ""
        assert pairs[1].domain == "dictionary"

    def test_tsv_too_many_columns(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("a\tб\tc\td\te\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            load(path)

    def test_unknown_domain_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"fa": "از", "tg": "аз", "domain": "weird"}])
        with pytest.raises(ParseError):
            load(path)

    def test_save_load_roundtrip(self, tmp_path):
        pairs = toy_corpus(20)
        save(pairs, tmp_path / "c.jsonl")
        (tmp_path / "c.tsv").write_text(
            "".join(f"{p.fa}\t{p.tg}\t{p.dataset}\t{p.domain or ''}\n" for p in pairs), encoding="utf-8"
        )
        for name in ("c.jsonl", "c.tsv"):
            again = load(tmp_path / name)
            assert [(p.fa, p.tg, p.dataset) for p in again] == [
                (p.fa, p.tg, p.dataset) for p in pairs
            ]


def _stats_by_label(pairs, per: str = "dataset") -> dict[str, dict]:
    return {row["label"]: row for row in stats(pairs, per=per)}


class TestStats:
    def test_single_pair_token_counts(self):
        pairs = [ParallelPair(fa="از این", tg="аз ин", dataset="Dictionary")]
        s = _stats_by_label(pairs)["Dictionary"]
        assert s["n_pairs"] == 1
        assert s["fa_avg_tokens"] == 2.0
        assert s["tg_avg_tokens"] == 2.0
        # Character averages include the internal space.
        assert s["tg_avg_chars"] == len("аз ин")

    def test_normalization_applied_before_counting(self):
        pairs = [ParallelPair(fa="از!", tg="Аз — ин", dataset="Dictionary")]
        s = _stats_by_label(pairs)["Dictionary"]
        assert s["tg_avg_tokens"] == 2.0
        assert s["tg_avg_chars"] == len("аз ин")

    def test_per_domain(self):
        pairs = [
            ParallelPair(fa="از", tg="аз", dataset="Masnavi"),
            ParallelPair(fa="از", tg="аз", dataset="Shahnameh"),
            ParallelPair(fa="از", tg="аз", dataset="Dictionary"),
        ]
        table = _stats_by_label(pairs, per="domain")
        assert table["poetry"]["n_pairs"] == 2
        assert table["dictionary"]["n_pairs"] == 1

    def test_linearity_under_merge(self):
        a, b = toy_corpus(30, seed=1), toy_corpus(40, seed=2)
        sa = _stats_by_label(a)["Dictionary"]
        sb = _stats_by_label(b)["Dictionary"]
        merged = _stats_by_label(a + b)["Dictionary"]
        assert merged["n_pairs"] == sa["n_pairs"] + sb["n_pairs"]
        want = (sa["fa_avg_tokens"] * 30 + sb["fa_avg_tokens"] * 40) / 70
        assert merged["fa_avg_tokens"] == pytest.approx(want)

    @pytest.mark.parametrize("per", ["dataset", "domain"])
    def test_rows_are_the_jsonl_lines(self, tmp_path, per):
        pairs = toy_corpus(5) + toy_corpus(3, seed=2, dataset="Masnavi")
        path = tmp_path / "corpus.jsonl"
        save(pairs, path)
        result = run_cli(["stats", "--corpus", str(path), "--per", per, "--format", "jsonl"])
        assert result.exit_code == 0, result.output
        rows = stats(pairs, per=per)
        assert [json.loads(line) for line in result.output.splitlines()] == rows
        for row in rows:
            assert set(row) == {"label", "n_pairs", "fa_avg_tokens", "fa_avg_chars", "tg_avg_tokens", "tg_avg_chars"}

    def test_empty(self):
        with pytest.raises(EmptyCorpus):
            stats([])


class TestSplitHoldout:
    def test_exact_ratio_sizes(self):
        pairs = toy_corpus(100)
        spec = split_holdout(pairs, seed=1)
        assert (len(spec.train), len(spec.dev), len(spec.test)) == (80, 10, 10)

    def test_deterministic(self):
        pairs = toy_corpus(50)
        assert split_holdout(pairs, seed=4) == split_holdout(pairs, seed=4)
        assert split_holdout(pairs, seed=4) != split_holdout(pairs, seed=5)

    def test_stratified_per_dataset(self):
        pairs = []
        for d in range(10):
            pairs.extend(toy_corpus(100, seed=d, dataset=f"ds{d}"))
        spec = split_holdout(pairs, seed=0)
        per_dataset = Counter(pairs[i].dataset for i in spec.test)
        assert all(per_dataset[f"ds{d}"] == 10 for d in range(10))

    def test_too_small(self):
        with pytest.raises(TooSmall):
            split_holdout(toy_corpus(9), seed=0)

    @given(st.integers(10, 80), st.integers(0, 1000), st.integers(1, 4))
    @settings(max_examples=100)
    def test_disjoint_and_covering(self, n, seed, n_datasets):
        rng = random.Random(n * 31 + seed)
        pairs = [
            ParallelPair(fa="از", tg="аз", dataset=f"d{rng.randrange(n_datasets)}")
            for _ in range(n)
        ]
        spec = split_holdout(pairs, seed=seed)
        all_idx = sorted(spec.train + spec.dev + spec.test)
        assert all_idx == list(range(n))
        sizes = (len(spec.train), len(spec.dev), len(spec.test))
        # Within one pair of the target per dataset, summed over datasets.
        assert abs(sizes[0] - 0.8 * n) <= n_datasets
        assert abs(sizes[1] - 0.1 * n) <= n_datasets
        assert abs(sizes[2] - 0.1 * n) <= n_datasets


class TestKfold:
    def test_partition(self):
        pairs = toy_corpus(100)
        folds = kfold(pairs, k=10, seed=2)
        assert len(folds) == 10
        assert all(len(f.test) == 10 for f in folds)
        seen = sorted(i for f in folds for i in f.test)
        assert seen == list(range(100))

    def test_train_is_complement(self):
        pairs = toy_corpus(30)
        for f in kfold(pairs, k=3, seed=0):
            assert sorted(f.train + f.test) == list(range(30))
            assert f.dev == ()

    def test_k_of_one_rejected(self):
        with pytest.raises(TooSmall):
            kfold(toy_corpus(20), k=1, seed=0)

    def test_too_few_pairs(self):
        with pytest.raises(TooSmall):
            kfold(toy_corpus(5), k=10, seed=0)

    def test_deterministic(self):
        pairs = toy_corpus(40)
        assert kfold(pairs, k=4, seed=9) == kfold(pairs, k=4, seed=9)

    def test_stratified(self):
        pairs = toy_corpus(50, dataset="A") + toy_corpus(50, seed=8, dataset="B")
        for f in kfold(pairs, k=10, seed=1):
            per = Counter(pairs[i].dataset for i in f.test)
            assert per["A"] == 5 and per["B"] == 5

    def test_small_datasets_fill_every_fold(self):
        # Ten one-pair datasets: one pair per test fold, not ten in fold 0.
        pairs = [p for d in range(10) for p in toy_corpus(1, seed=d, dataset=f"d{d}")]
        assert [len(f.test) for f in kfold(pairs, k=10, seed=0)] == [1] * 10

    @given(st.integers(2, 12), st.integers(0, 1000), st.lists(st.integers(1, 15), min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_balanced_partition(self, k, seed, dataset_sizes):
        pairs = [
            ParallelPair(fa="از", tg="аз", dataset=f"d{d}")
            for d, size in enumerate(dataset_sizes)
            for _ in range(size)
        ]
        if len(pairs) < k:
            with pytest.raises(TooSmall):
                kfold(pairs, k=k, seed=seed)
            return
        folds = kfold(pairs, k=k, seed=seed)
        assert sorted(i for f in folds for i in f.test) == list(range(len(pairs)))
        sizes = [len(f.test) for f in folds]
        assert max(sizes) - min(sizes) <= 1
        for f in folds:
            per = Counter(pairs[i].dataset for i in f.test)
            for d, size in enumerate(dataset_sizes):
                assert size // k <= per[f"d{d}"] <= -(-size // k)


class TestGroupDomains:
    @pytest.mark.parametrize(
        "dataset,domain",
        [("Masnavi", "poetry"), ("Dictionary", "dictionary"), ("Dr Blog", "prose"), ("People", "names")],
    )
    def test_fixed_map(self, dataset, domain):
        pair = ParallelPair(fa="از", tg="аз", dataset=dataset)
        assert domain_of(pair) == domain
        assert DATASET_DOMAINS[dataset] == domain

    def test_unknown_dataset(self):
        with pytest.raises(UnknownDataset):
            domain_of(ParallelPair(fa="از", tg="аз", dataset="MadeUp"))

    def test_explicit_domain_survives_unknown_dataset(self):
        pair = ParallelPair(fa="از", tg="аз", dataset="MadeUp", domain="prose")
        assert domain_of(pair) == "prose"


class TestConsonantMap:
    def test_default_is_one_to_one(self):
        cmap = default_consonant_map()
        assert len(set(cmap.values())) == len(cmap)
        assert cmap["б"] == "ب"
        assert cmap["ғ"] == "غ"
        # Ambiguous letters stay out.
        for ch in "тсзвйҳъ":
            assert ch not in cmap

    def test_duplicate_target_rejected(self):
        with pytest.raises(BadMap):
            load_consonant_map(["б\tب", "п\tب"])

    def test_duplicate_source_rejected(self):
        with pytest.raises(BadMap):
            load_consonant_map(["б\tب", "б\tپ"])

    def test_malformed_line(self):
        with pytest.raises(ParseError):
            load_consonant_map(["бб\tب"])


class TestParanamesFilter:
    def test_matching_counts_and_order_kept(self):
        pair = ParallelPair(fa="بابا", tg="баба", dataset="People")
        kept, rejected = paranames_filter([pair])
        assert kept == [pair] and rejected == []

    def test_count_mismatch_rejected_with_class(self):
        pair = ParallelPair(fa="اا", tg="баба", dataset="People")
        kept, rejected = paranames_filter([pair])
        assert kept == []
        assert rejected[0][1] == "б"

    def test_order_variant_difference(self):
        # Same consonant counts, different order: rejected only by the
        # order-sensitive variant.
        pair = ParallelPair(fa="نم", tg="мн", dataset="People")
        kept_strict, _ = paranames_filter([pair], order_sensitive=True)
        kept_loose, _ = paranames_filter([pair], order_sensitive=False)
        assert kept_strict == []
        assert kept_loose == [pair]

    def test_case_folding_applies(self):
        pair = ParallelPair(fa="باکو", tg="Боку", dataset="Places")
        kept, _ = paranames_filter([pair])
        assert kept == [pair]

    def test_bad_map(self):
        with pytest.raises(BadMap):
            paranames_filter([], consonant_map={"б": "ب", "п": "ب"})

    def test_kept_pairs_reverify_against_counting_oracle(self):
        from tgfa.script import NormMode, Script, normalize_text

        cmap = default_consonant_map()
        tg_classes = {ch: ch for ch in cmap}
        fa_classes = {fa: tg for tg, fa in cmap.items()}
        pairs = toy_corpus(200, seed=3, dataset="People")
        kept, rejected = paranames_filter(pairs, order_sensitive=False)
        assert len(kept) + len(rejected) == len(pairs)
        for pair in kept:
            tg_proj = consonant_projection(
                normalize_text(pair.tg, Script.TAJIK, NormMode.TRAIN), tg_classes
            )
            fa_proj = consonant_projection(
                normalize_text(pair.fa, Script.FARSI, NormMode.TRAIN), fa_classes
            )
            assert Counter(tg_proj) == Counter(fa_proj)

    def test_deterministic(self):
        pairs = toy_corpus(100, seed=13, dataset="Places")
        assert paranames_filter(pairs) == paranames_filter(pairs)
