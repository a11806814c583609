from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgfa.errors import (
    ArtifactError,
    ConfigError,
    EmptyCorpus,
    ParseError,
    UnknownChar,
    WrongState,
)
from tgfa.corpus import ParallelPair
from tgfa.script import FARSI_LETTERS, Script, ScriptText, TAJIK_LETTERS, TextState, ZWNJ
from tgfa.translit import (
    BOS,
    EOS,
    UNK,
    DIRECTIONS,
    CharNGramLM,
    Direction,
    Lattice,
    MappingTable,
    avg_alternatives,
    beam_decode,
    build_dictionary,
    default_mapping_table,
    expand_lattice,
    first_candidate,
    load_dictionary,
    load_lm,
    load_mapping_table,
    save_dictionary,
    save_lm,
    save_mapping_table,
    train_lm,
    transliterate,
    transliterate_lines,
)

from conftest import TAJIK_SAMPLE, random_words
from oracles import CharLMOracle, exhaustive_rank


def tiny_lm(texts, order=3):
    return train_lm(texts, order=order)


def random_lm(rng: random.Random, alphabet: str, order: int = 2) -> CharNGramLM:
    texts = [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
        for _ in range(rng.randint(2, 8))
    ]
    return train_lm(texts, order=order)


def random_lattice(rng: random.Random, alphabet: str, max_paths: int = 50) -> Lattice:
    while True:
        n_slots = rng.randint(1, 4)
        slots = []
        for _ in range(n_slots):
            n_cands = rng.randint(1, 3)
            cands = []
            for _ in range(n_cands):
                length = rng.randint(0, 2)
                cands.append("".join(rng.choice(alphabet) for _ in range(length)))
            slots.append(tuple(dict.fromkeys(cands)))
        lat = Lattice(word="?" * n_slots, slots=tuple(slots))
        if lat.path_count <= max_paths:
            return lat


class TestDirection:
    PAIR = ParallelPair(fa="کِتاب!", tg="Китоб!")

    @pytest.mark.parametrize(
        "name,source,target,source_text,target_text,reference",
        [
            ("tg2fa", Script.TAJIK, Script.FARSI, "китоб", "کِتاب", "کِتاب!"),
            ("fa2tg", Script.FARSI, Script.TAJIK, "کِتاب", "китоб", "Китоб!"),
        ],
    )
    def test_table(self, name, source, target, source_text, target_text, reference):
        d = DIRECTIONS[name]
        assert Direction.of(name) is d
        assert (d.name, d.source, d.target) == (name, source, target)
        assert d.source_text(self.PAIR) == source_text
        assert d.target_text(self.PAIR) == target_text
        assert d.reference(self.PAIR) == reference

    def test_names_and_unknown_name(self):
        assert list(DIRECTIONS) == ["tg2fa", "fa2tg"]
        with pytest.raises(ConfigError, match="direction must be one of"):
            Direction.of("tg2tg")


class TestMappingTable:
    def test_load_candidates_and_empty_mark(self):
        t = load_mapping_table(["а\t∅|ا", "б\tب"], "tg2fa")
        assert t.entries["а"] == ("", "ا")
        assert t.entries["б"] == ("ب",)

    def test_u_escape_source(self):
        t = load_mapping_table(["U+200C\t∅"], "fa2tg")
        assert t.entries[ZWNJ] == ("",)

    def test_hex_source(self):
        t = load_mapping_table(["0x200C\t∅"], "fa2tg")
        assert t.entries[ZWNJ] == ("",)

    def test_duplicate_source_rejected(self):
        with pytest.raises(ParseError):
            load_mapping_table(["б\tب", "б\tپ"], "tg2fa")

    def test_empty_candidate_field_rejected(self):
        with pytest.raises(ParseError):
            load_mapping_table(["б\tب||پ"], "tg2fa")

    def test_validate_rejects_wrong_script(self):
        t = MappingTable("tg2fa", {"б": ("b",)})
        with pytest.raises(ValueError):
            t.validate()

    def test_save_load_roundtrip(self, tmp_path):
        t = default_mapping_table("fa2tg")
        path = tmp_path / "map.tsv"
        save_mapping_table(t, path)
        again = load_mapping_table(path, "fa2tg")
        assert again.entries == t.entries

    def test_default_tables_validate(self):
        for direction in ("tg2fa", "fa2tg"):
            default_mapping_table(direction).validate()

    def test_default_tg2fa_covers_alphabet(self):
        t = default_mapping_table("tg2fa")
        lower = {c for c in TAJIK_LETTERS if c == c.lower()}
        missing = lower - set(t.entries)
        assert not missing
        assert "-" in t.entries  # joining hyphen survives train normalization

    def test_default_fa2tg_covers_common_letters(self):
        t = default_mapping_table("fa2tg")
        for ch in "ابپتثجچحخدذرزژسشصضطظعغفقکگلمنوهیءآئؤةأإ":
            assert ch in t.entries, hex(ord(ch))
        assert ZWNJ in t.entries
        for mark in ("َ", "ِ", "ُ", "ّ", "ْ", "ً", "ٰ"):
            assert mark in t.entries, hex(ord(mark))

    def test_unambiguous_consonants_single_candidate(self):
        from tgfa.corpus import default_consonant_map

        t = default_mapping_table("tg2fa")
        for tg_char, fa_char in default_consonant_map().items():
            assert t.entries[tg_char] == (fa_char,)


class TestCharNGramLM:
    def test_mle_hand_count(self):
        # Corpus "aa", order 1, no smoothing: predictions are a, a, EOS.
        lm = train_lm(["aa"], order=1, smoothing="none")
        assert lm.prob("a") == pytest.approx(2 / 3)
        assert lm.prob(EOS) == pytest.approx(1 / 3)
        assert lm.prob("z") == 0.0
        assert lm.logp("z") == float("-inf")

    def test_witten_bell_hand_count(self):
        # Corpus "ab", order 2. Vocabulary {a, b, EOS, UNK}, uniform base
        # 1/4. Unigram level: counts a=1 b=1 EOS=1, 3 types, 3 tokens:
        #   P1(a) = (1 + 3*(1/4)) / (3 + 3) = 1.75/6
        #   P1(UNK) = (0 + 3*(1/4)) / 6 = 0.125
        # Bigram level, context (a,): count b=1, 1 type:
        #   P2(b|a) = (1 + 1*P1(b)) / (1 + 1)
        # and for the unknown bucket: P2(UNK|a) = (0 + 1*P1(UNK)) / 2.
        lm = train_lm(["ab"], order=2)
        p1_b = (1 + 3 * 0.25) / 6
        p1_unk = (0 + 3 * 0.25) / 6
        assert lm.prob("b", ["a"]) == pytest.approx((1 + p1_b) / 2, abs=1e-12)
        assert lm.prob("\x01", ["a"]) == pytest.approx((0 + p1_unk) / 2, abs=1e-12)

    def test_context_distributions_sum_to_one(self):
        rng = random.Random(5)
        lm = random_lm(rng, "abcd", order=3)
        contexts = [(), ("a",), ("a", "b"), ("d", "c"), (BOS, BOS), ("z", "q")]
        for ctx in contexts:
            total = sum(lm.prob(sym, ctx) for sym in lm.vocab)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_unseen_symbol_has_positive_probability(self):
        lm = train_lm(["abab"], order=2)
        assert lm.prob("z", ["a"]) > 0.0

    def test_score_sums_logps(self):
        lm = train_lm(["abab", "ba"], order=2)
        want = lm.logp("a") + lm.logp("b", ["a"]) + lm.logp(EOS, ["a", "b"])
        assert lm.score("ab") == pytest.approx(want, abs=1e-12)

    def test_save_load_roundtrip(self, tmp_path):
        lm = train_lm(["абвг", "вгаб"], order=3)
        path = tmp_path / "lm.json"
        save_lm(lm, path)
        again = load_lm(path)
        for sym, ctx in [("а", ()), ("б", ("а",)), ("г", ("а", "б", "в"))]:
            assert again.prob(sym, ctx) == pytest.approx(lm.prob(sym, ctx), abs=1e-15)

    def test_version_mismatch_fails_loudly(self, tmp_path):
        lm = train_lm(["ab"], order=1)
        payload = lm.to_payload()
        payload["version"] = 99
        path = tmp_path / "lm.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ArtifactError):
            load_lm(path)

    def test_wrong_magic_fails_loudly(self, tmp_path):
        path = tmp_path / "lm.json"
        path.write_text('{"magic": "something-else", "version": 1}', encoding="utf-8")
        with pytest.raises(ArtifactError):
            load_lm(path)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            train_lm([])
        with pytest.raises(EmptyCorpus):
            train_lm(["", ""])


_LM_ALPHABET = "abcd "
_OOV = "xé"


@st.composite
def lm_cases(draw):
    """Random corpus, order, smoothing and contexts (unseen, OOV, short).

    The corpus may hold the unknown-bucket character itself, so a context
    character outside the alphabet must be read as that bucket.
    """
    texts = draw(
        st.lists(st.text(_LM_ALPHABET + UNK, max_size=12), min_size=1, max_size=8).filter(any)
    )
    order = draw(st.integers(1, 6))
    smoothing = draw(st.sampled_from(["witten_bell", "none"]))
    contexts = draw(st.lists(st.text(_LM_ALPHABET + _OOV + BOS, max_size=8), min_size=1, max_size=6))
    return texts, order, smoothing, contexts


class TestCharNGramLMv2:
    @settings(max_examples=150, deadline=None)
    @given(lm_cases())
    def test_prob_matches_tuple_oracle(self, case):
        texts, order, smoothing, contexts = case
        lm = train_lm(texts, order=order, smoothing=smoothing)
        oracle = CharLMOracle(texts, order, smoothing)
        assert lm.vocab == oracle.vocab
        symbols = sorted(oracle.vocab) + list(_OOV) + [BOS]
        for ctx in contexts:
            for sym in symbols:
                want = oracle.prob(sym, tuple(ctx))
                assert lm.prob(sym, list(ctx)) == pytest.approx(want, abs=1e-12)
                assert lm.prob(sym, ctx) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("smoothing", ["witten_bell", "none"])
    @pytest.mark.parametrize("order", [1, 2, 3, 6])
    def test_save_load_keeps_probabilities(self, tmp_path, order, smoothing):
        rng = random.Random(order)
        texts = [random_words(rng, "абвгд", rng.randint(1, 3), max_len=5) for _ in range(12)]
        lm = train_lm(texts, order=order, smoothing=smoothing)
        path = tmp_path / "lm.json"
        save_lm(lm, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["version"] == 2
        for k, level in enumerate(payload["counts"]):
            assert all(isinstance(ctx, str) and len(ctx) == k for ctx, _ in level)
        again = load_lm(path)
        vocab = sorted(lm.vocab)
        contexts = ["", BOS, "жж"] + [t[:i] for t in texts for i in range(len(t) + 1)]
        for ctx in contexts:
            probs = [again.prob(sym, ctx) for sym in vocab]
            assert probs == [lm.prob(sym, ctx) for sym in vocab]
            # An unseen context has no MLE distribution; all else sums to 1.
            total = sum(probs)
            if smoothing == "witten_bell" or total:
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_version_1_file_names_file_and_retraining(self, tmp_path):
        payload = {
            "magic": "tgfa-charlm", "version": 1, "order": 2, "smoothing": "none",
            "alphabet": [UNK, EOS, "a"], "counts": [[[[], {"a": 1, EOS: 1}]], [[[BOS], {"a": 1}]]],
        }
        path = tmp_path / "lm.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ArtifactError) as e:
            load_lm(path)
        assert str(e.value) == (
            f"{path}: unsupported format version 1, expected 2; "
            "remake the file with `tgfa train-lm`"
        )

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"order": None}, "missing field 'order'"),
            ({"order": "2"}, "field 'order' must be an integer"),
            ({"order": 0}, "field 'order' must be >= 1, got 0"),
            ({"smoothing": None}, "missing field 'smoothing'"),
            ({"smoothing": "kneser_ney"}, "field 'smoothing' must be one of"),
            ({"alphabet": None}, "missing field 'alphabet'"),
            ({"alphabet": ["ab"]}, "field 'alphabet' must be a list of characters"),
            ({"counts": None}, "missing field 'counts'"),
            ({"counts": [[]]}, "field 'counts' must be a list of 2 levels"),
            ({"counts": [[], [[["a"], {"b": 1}]]]}, "field 'counts' must be a list of 2 levels"),
            ({"counts": [[], [["a", {"b": -1}]]]}, "field 'counts' must be a list of 2 levels"),
            ({"counts": [[], [["ab", {"b": 1}]]]}, "field 'counts' must be a list of 2 levels"),
        ],
        ids=[
            "no-order", "order-str", "order-0", "no-smoothing", "unknown-smoothing",
            "no-alphabet", "alphabet-str", "no-counts", "counts-levels",
            "counts-list-context", "counts-negative", "counts-long-context",
        ],
    )
    def test_bad_field_names_file_and_field(self, tmp_path, change, message):
        payload = train_lm(["ab"], order=2).to_payload()
        for key, value in change.items():
            if value is None:
                del payload[key]
            else:
                payload[key] = value
        path = tmp_path / "lm.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ArtifactError) as e:
            load_lm(path)
        assert str(e.value).startswith(f"{path}: {message}")


class TestBuildDictionary:
    def test_modal_target(self):
        pairs = [ParallelPair(fa="خوب", tg="аз")] * 3 + [ParallelPair(fa="بد", tg="аз")]
        d = build_dictionary(pairs, "tg2fa")
        assert d.entries["аз"] == "خوب"

    def test_unequal_token_counts_skipped(self):
        pairs = [ParallelPair(fa="از این جا", tg="аз ин")]
        d = build_dictionary(pairs, "tg2fa")
        assert d.entries == {}
        assert d.skipped_pairs == 1

    def test_tie_breaks_lexicographically(self):
        pairs = [
            ParallelPair(fa="ب", tg="аз"),
            ParallelPair(fa="ب", tg="аз"),
            ParallelPair(fa="ا", tg="аз"),
            ParallelPair(fa="ا", tg="аз"),
        ]
        d = build_dictionary(pairs, "tg2fa")
        assert d.entries["аз"] == min("ا", "ب")

    def test_direction_swaps_sides(self):
        pairs = [ParallelPair(fa="از", tg="аз")]
        d = build_dictionary(pairs, "fa2tg")
        assert d.entries == {"از": "аз"}

    def test_normalizes_before_aligning(self):
        pairs = [ParallelPair(fa="از!", tg="Аз")]
        d = build_dictionary(pairs, "tg2fa")
        assert d.entries == {"аз": "از"}

    def test_save_load_roundtrip(self, tmp_path):
        d = build_dictionary([ParallelPair(fa="از", tg="аз")], "tg2fa")
        path = tmp_path / "dict.json"
        save_dictionary(d, path)
        assert json.loads(path.read_text(encoding="utf-8"))["version"] == 1
        again = load_dictionary(path)
        assert again.entries == d.entries
        assert again.direction == "tg2fa"

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"direction": None}, "missing field 'direction'"),
            ({"direction": "tg2en"}, "field 'direction' must be one of"),
            ({"entries": None}, "missing field 'entries'"),
            ({"entries": [["аз", "از"]]}, "field 'entries' must be an object"),
            ({"entries": {"аз": 1}}, "field 'entries' must be an object"),
            ({"skipped_pairs": -1}, "field 'skipped_pairs' must be a non-negative integer"),
        ],
        ids=["no-direction", "bad-direction", "no-entries", "entries-list", "entry-int", "skipped-negative"],
    )
    def test_bad_field_names_file_and_field(self, tmp_path, change, message):
        path = tmp_path / "dict.json"
        save_dictionary(build_dictionary([ParallelPair(fa="از", tg="аз")], "tg2fa"), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        for key, value in change.items():
            if value is None:
                del payload[key]
            else:
                payload[key] = value
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ArtifactError) as e:
            load_dictionary(path)
        assert str(e.value).startswith(f"{path}: {message}")


class TestLattice:
    def test_path_count_is_product(self):
        t = MappingTable(
            "tg2fa", {"а": ("x",), "б": ("y", "z"), "в": ("p", "q", "r")}
        )
        lat = expand_lattice("абв", t)
        assert lat.path_count == 6
        assert len(list(lat.paths())) == 6

    def test_single_path_for_unambiguous(self):
        t = default_mapping_table("tg2fa")
        lat = expand_lattice("бғд", t)
        assert lat.path_count == 1

    def test_unknown_char_reports_position(self):
        t = MappingTable("tg2fa", {"а": ("x",)})
        with pytest.raises(UnknownChar) as e:
            expand_lattice("аж", t)
        assert e.value.char == "ж"
        assert e.value.position == 1

    def test_avg_alternatives(self):
        # аз: 2*4 paths, ин: 2*1, бғд: unambiguous.
        t = default_mapping_table("tg2fa")
        value = avg_alternatives(["аз ин", "бғд"], t)
        assert value == (8 + 2 + 1) / 3


class TestBeamDecode:
    def test_single_path_any_beam(self):
        lat = Lattice(word="x", slots=(("a",), ("b",)))
        lm = tiny_lm(["ab", "ba"])
        for beam in (1, 2, 50):
            assert beam_decode(lat, lm, beam)[0] == "ab"

    def test_ties_break_lexicographically(self):
        # Symmetric training data makes "ab" and "ba" equally likely.
        lm = train_lm(["ab", "ba"], order=1)
        lat = Lattice(word="xx", slots=(("a", "b"),))
        assert beam_decode(lat, lm, 4) == ["a", "b"]

    def test_rescoring_prefers_trained_sequence(self):
        lm = tiny_lm(["از این", "از آن", "از"], order=3)
        t = default_mapping_table("tg2fa")
        lat = expand_lattice("аз", t)
        assert beam_decode(lat, lm, 16)[0] == "از"

    def test_full_beam_matches_exhaustive_oracle(self):
        rng = random.Random(99)
        for _ in range(120):
            alphabet = "abc"
            lm = random_lm(rng, alphabet, order=2)
            lat = random_lattice(rng, alphabet)
            want = exhaustive_rank(lat.slots, lm)
            got = beam_decode(lat, lm, beam=max(1, lat.path_count))
            assert got == want

    def test_beam_validation(self):
        with pytest.raises(ValueError):
            beam_decode(Lattice("x", (("a",),)), tiny_lm(["a"]), beam=0)


class TestTransliterate:
    def test_dictionary_path_wins(self):
        d = build_dictionary([ParallelPair(fa="کتاب", tg="китоб")], "tg2fa")
        t = default_mapping_table("tg2fa")
        lm = tiny_lm(["کتاب"])
        out = transliterate("китоб", d, t, lm)
        assert out.text == "کتاب"
        assert out.script is Script.FARSI
        assert out.state is TextState.TRAIN_NORMALIZED

    def test_all_tokens_in_dict_concatenate(self):
        pairs = [ParallelPair(fa="از", tg="аз"), ParallelPair(fa="این", tg="ин")]
        d = build_dictionary(pairs, "tg2fa")
        out = transliterate("аз ин аз", d, None, None, direction="tg2fa")
        assert out.text == "از این از"

    def test_empty_input(self):
        t = default_mapping_table("tg2fa")
        assert transliterate("", None, t).text == ""

    def test_first_candidate_baseline_without_lm(self):
        t = MappingTable("tg2fa", {"а": ("x", "y"), "б": ("z",)})
        assert transliterate("аб", None, t).text == "xz"
        assert first_candidate("аб", t) == "xz"

    def test_unknown_char_carries_token_index(self):
        t = MappingTable("tg2fa", {"а": ("x",)})
        with pytest.raises(UnknownChar) as e:
            transliterate("а ж", None, t)
        assert e.value.token_index == 1

    def test_wrong_script_rejected(self):
        t = default_mapping_table("tg2fa")
        text = ScriptText("از", Script.FARSI, TextState.TRAIN_NORMALIZED)
        with pytest.raises(WrongState):
            transliterate(text, None, t)

    def test_raw_state_rejected(self):
        t = default_mapping_table("tg2fa")
        with pytest.raises(WrongState):
            transliterate(ScriptText("аз", Script.TAJIK), None, t)

    def test_output_purity(self):
        rng = random.Random(41)
        t = default_mapping_table("tg2fa")
        lm = tiny_lm(["از این کتاب", "کتاب خوب"], order=3)
        allowed = set(FARSI_LETTERS) | {ZWNJ, " "}
        source_alphabet = "абвгдезиклмнопрстуфхчшъ"
        for _ in range(50):
            word = "".join(rng.choice(source_alphabet) for _ in range(rng.randint(1, 6)))
            out = transliterate(word, None, t, lm)
            assert set(out.text) <= allowed

    def test_deterministic(self):
        t = default_mapping_table("tg2fa")
        lm = tiny_lm(["از این", "کتاب"], order=2)
        outs = {transliterate("аз ин китоб", None, t, lm).text for _ in range(5)}
        assert len(outs) == 1

    def test_math_sanity_log_scores(self):
        lm = tiny_lm(["ab"])
        assert lm.score("ab") < 0.0
        assert math.isfinite(lm.score("zz"))


class TestTransliterateLines:
    def setup_method(self):
        rng = random.Random(17)
        self.table = default_mapping_table("tg2fa")
        self.lm = tiny_lm(["از این کتاب", "کتاب خوب", "در آن شهر"], order=3)
        self.dictionary = build_dictionary([ParallelPair(fa="کتاب", tg="китоб")], "tg2fa")
        words = [random_words(rng, TAJIK_SAMPLE, 1, max_len=4) for _ in range(8)] + ["китоб"]
        self.lines = [" ".join(rng.choice(words) for _ in range(rng.randint(0, 5))) for _ in range(40)]

    def test_equals_per_line_transliterate(self):
        for lm in (self.lm, None):
            batch = transliterate_lines(self.lines, self.dictionary, self.table, lm, beam=4)
            single = [transliterate(line, self.dictionary, self.table, lm, beam=4) for line in self.lines]
            assert batch == single

    def test_decodes_each_distinct_oov_token_once(self, monkeypatch):
        import tgfa.translit as translit_mod

        decoded = []
        real = translit_mod.beam_decode

        def counting(lattice, lm, beam):
            decoded.append(lattice.word)
            return real(lattice, lm, beam)

        monkeypatch.setattr(translit_mod, "beam_decode", counting)
        transliterate_lines(self.lines, self.dictionary, self.table, self.lm)
        oov = {tok for line in self.lines for tok in line.split()} - {"китоб"}
        assert sorted(decoded) == sorted(oov)
