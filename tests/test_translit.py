from __future__ import annotations

import json
import math
import random
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tgfa.errors import (
    ArtifactError,
    ConfigError,
    EmptyCorpus,
    ParseError,
    UnknownChar,
    WrongState,
)
from tgfa import translit
from tgfa.corpus import ParallelPair, kfold, split_holdout
from tgfa.script import FARSI_LETTERS, Script, TAJIK_LETTERS, ZWNJ
from tgfa.translit import (
    BOS,
    EOS,
    SMOOTHINGS,
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
    load_dictionary,
    load_lm,
    load_mapping_table,
    save_dictionary,
    save_lm,
    train_lm,
    transliterate_lines,
)

from conftest import TAJIK_SAMPLE, random_words
from oracles import CharLMOracle, exhaustive_rank, oracle_lm_json


TG2FA, FA2TG = DIRECTIONS["tg2fa"], DIRECTIONS["fa2tg"]


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
        assert self.PAIR.text(d.source) == source_text
        assert self.PAIR.text(d.target) == target_text
        assert self.PAIR.text(d.target, train=False) == reference

    def test_names_and_unknown_name(self):
        assert list(DIRECTIONS) == ["tg2fa", "fa2tg"]
        with pytest.raises(ConfigError, match="direction must be one of"):
            Direction.of("tg2tg")


class TestMappingTable:
    def test_load_candidates_and_empty_mark(self):
        t = load_mapping_table(["а\t∅|ا", "б\tب"], TG2FA)
        assert t.entries["а"] == ("", "ا")
        assert t.entries["б"] == ("ب",)

    def test_u_escape_source(self):
        t = load_mapping_table(["U+200C\t∅"], FA2TG)
        assert t.entries[ZWNJ] == ("",)

    def test_hex_source(self):
        t = load_mapping_table(["0x200C\t∅"], FA2TG)
        assert t.entries[ZWNJ] == ("",)

    def test_duplicate_source_rejected(self):
        with pytest.raises(ParseError):
            load_mapping_table(["б\tب", "б\tپ"], TG2FA)

    def test_empty_candidate_field_rejected(self):
        with pytest.raises(ParseError):
            load_mapping_table(["б\tب||پ"], TG2FA)

    def test_validate_rejects_wrong_script(self):
        t = MappingTable(TG2FA, {"б": ("b",)})
        with pytest.raises(ValueError):
            t.validate()

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

    @pytest.mark.parametrize("smoothing", SMOOTHINGS)
    def test_payload_of_plain_dicts_loads_to_the_same_model(self, tmp_path, smoothing):
        # json.loads gives one dict per bucket, equal buckets unshared; from_payload keeps them.
        lm = train_lm(["абвг", "вгаб"], order=3, smoothing=smoothing)
        path = tmp_path / "lm.json"
        save_lm(lm, path)
        plain = CharNGramLM.from_payload(json.loads(path.read_text(encoding="utf-8")))
        for sym, ctx in [("а", ()), ("б", ("а",)), ("г", ("а", "б", "в")), ("\x03", "вгаб")]:
            assert plain.logp(sym, ctx) == lm.logp(sym, ctx)

    def test_version_mismatch_fails_loudly(self, tmp_path):
        payload = json.loads(oracle_lm_json(["ab"], 1))
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
                # The memo holds exactly the log of the value prob computes afresh.
                want_logp = math.log(lm.prob(sym, ctx)) if lm.prob(sym, ctx) > 0 else float("-inf")
                assert lm.logp(sym, ctx) == lm.logp(sym, ctx) == want_logp

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

    @pytest.mark.parametrize("order", [1, 3, 5])
    def test_save_load_save_is_byte_identical(self, tmp_path, order):
        rng = random.Random(order)
        texts = [random_words(rng, "абвгдж" + UNK, rng.randint(0, 3), max_len=6) for _ in range(20)]
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_lm(train_lm(texts, order=order), first)
        save_lm(load_lm(first), second)
        assert second.read_bytes() == first.read_bytes()

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
            ({"counts": [[["", {"b": 1, "a": 1}]], []]}, "field 'counts' must be a list of 2 levels"),
            ({"counts": [[], [["b", {"a": 1}], ["a", {"b": 1}]]]}, "field 'counts' must be a list of 2 levels"),
            ({"counts": [[], [["a", {"b": 1}], ["a", {"c": 1}]]]}, "field 'counts' must be a list of 2 levels"),
        ],
        ids=[
            "no-order", "order-str", "order-0", "no-smoothing", "unknown-smoothing",
            "no-alphabet", "alphabet-str", "no-counts", "counts-levels",
            "counts-list-context", "counts-negative", "counts-long-context",
            "counts-symbols-unsorted", "counts-contexts-unsorted", "counts-context-repeated",
        ],
    )
    def test_bad_field_names_file_and_field(self, tmp_path, change, message):
        payload = json.loads(oracle_lm_json(["ab"], 2))
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


@st.composite
def state_chain_cases(draw):
    """A corpus, the indices of the texts a derived model drops, an order, a smoothing and query texts.

    The corpus and the queries may hold the unknown-bucket character, and
    the queries characters outside the alphabet.
    """
    texts = draw(st.lists(st.text(_LM_ALPHABET + UNK, max_size=10), min_size=1, max_size=8).filter(any))
    dropped = draw(st.sets(st.integers(0, len(texts) - 1), max_size=len(texts) - 1))
    assume(any(t for i, t in enumerate(texts) if i not in dropped))
    order = draw(st.integers(1, 6))
    smoothing = draw(st.sampled_from(SMOOTHINGS))
    queries = draw(st.lists(st.text(_LM_ALPHABET + _OOV + UNK, max_size=10), min_size=1, max_size=4))
    return texts, dropped, order, smoothing, queries


def _is_state(lm: CharNGramLM, state: str) -> bool:
    """Whether ``state`` is minimized: ``""`` or a context the model counted."""
    return state == "" or state in lm._levels[len(state)]


class TestMinimizedStates:
    @settings(max_examples=200, deadline=None)
    @given(state_chain_cases())
    def test_keyed_chain_matches_oracle_bit_for_bit(self, case):
        texts, dropped, order, smoothing, queries = case
        lm = train_lm(texts, order=order, smoothing=smoothing)
        if dropped:
            lm = lm.without(texts[i] for i in sorted(dropped))
        oracle = CharLMOracle([t for i, t in enumerate(texts) if i not in dropped], order, smoothing)
        assert _is_state(lm, lm.start)
        for text in queries:
            state = lm.start
            for i, sym in enumerate(lm.symbols(text) + EOS):
                lp, state = lm.logp_key(state + sym)
                p = oracle.prob((text + EOS)[i], tuple(text[:i]))
                assert lp == (math.log(p) if p > 0.0 else float("-inf"))
                assert _is_state(lm, state)

    def test_decoder_states_are_counted_contexts_held_once(self):
        rng = random.Random(5)
        lm = random_lm(rng, "abc", order=4)
        for _ in range(30):
            beam_decode(random_lattice(rng, "abc" + _OOV), lm, beam=4)
        states = [state for _, state in lm._memo.values()]
        assert states and all(_is_state(lm, s) for s in states)
        # Every memo value that names a state holds the same str object.
        assert len({id(s) for s in states}) == len(set(states))

    def test_order_one_has_only_the_empty_state(self):
        lm = train_lm(["ab", "b"], order=1)
        assert lm.start == ""
        assert lm.logp_key("a") == (math.log(lm.prob("a")), "")
        assert lm.logp_key(EOS)[1] == ""

    def test_file_whose_contexts_lack_their_prefix_is_refused(self, tmp_path):
        # The decoder's state after "xa" would be "a", losing the counted "xa".
        payload = json.loads(oracle_lm_json(["ab", "b"], 3))
        payload["alphabet"] = sorted([*payload["alphabet"], "x"])
        payload["counts"][0][0][1]["x"] = 1
        payload["counts"][2].append(["xa", {"a": 5}])
        path = tmp_path / "lm.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ArtifactError) as e:
            load_lm(path)
        assert str(e.value) == f"{path}: field 'counts' has level 2 context 'xa' but not its prefix in level 1"

    @pytest.mark.parametrize("smoothing", SMOOTHINGS)
    def test_untrained_model_answers_the_uniform_base(self, smoothing):
        lm = CharNGramLM(3, smoothing)
        assert lm.start == ""
        lp, state = lm.logp_key(lm.start + UNK)
        assert state == ""
        # The extended alphabet is the end sentinel and the unknown bucket.
        assert lp == (math.log(0.5) if smoothing == "witten_bell" else float("-inf"))
        assert lm.logp("a", "xy") == lp


class TestSharedBuckets:
    """Equal buckets are one dict, in trained and loaded models, so none may change in place."""

    @staticmethod
    def _buckets(lm: CharNGramLM) -> list[dict[str, int]]:
        return [bucket for level in lm._levels for bucket in level.values()]

    def test_trained_and_loaded_models_hold_one_dict_per_distinct_bucket(self, tmp_path):
        rng = random.Random(3)
        texts = [random_words(rng, TAJIK_SAMPLE, rng.randint(1, 6)) for _ in range(60)]
        lm = train_lm(texts, order=4)
        path = tmp_path / "lm.json"
        save_lm(lm, path)
        for model in (lm, load_lm(path)):
            buckets = self._buckets(model)
            distinct = {tuple(bucket.items()) for bucket in buckets}
            assert len({id(bucket) for bucket in buckets}) == len(distinct) < len(buckets)

    def test_a_bucket_whose_hash_the_pool_holds_for_another_stays_unshared(self):
        pairs = (("а", 2), ("б", 1))
        for other in ({"в": 5}, {"б": 1, "а": 2}):
            # The same items in another order are another bucket: a loaded one is checked for order.
            pool = {hash(pairs): other}
            bucket = translit._shared_bucket(pool, pairs)
            assert bucket == dict(pairs) and list(bucket) == ["а", "б"]
            assert bucket is not other and pool == {hash(pairs): other}
        pool = {}
        assert translit._shared_bucket(pool, pairs) is translit._shared_bucket(pool, tuple(list(pairs)))

    @settings(max_examples=150, deadline=None)
    @given(state_chain_cases())
    def test_deriving_and_decoding_leave_the_source_model_unchanged(self, tmp_path_factory, case):
        texts, dropped, order, smoothing, queries = case
        lm = train_lm(texts, order=order, smoothing=smoothing)
        out = tmp_path_factory.mktemp("shared")
        saved = _bytes(save_lm, lm, out / "before.json")
        derived = lm.without(texts[i] for i in sorted(dropped))
        for text in queries:
            beam_decode(Lattice(text, tuple((c, "") for c in text)), derived, beam=4)
            derived.score(text)
        assert _bytes(save_lm, lm, out / "after.json") == saved
        # Every bucket is a plain dict: trained, derived, loaded, and given as json.loads's dicts.
        plain = CharNGramLM.from_payload(json.loads((out / "after.json").read_text(encoding="utf-8")))
        for model in (lm, derived, load_lm(out / "after.json"), plain):
            assert all(type(bucket) is dict for bucket in self._buckets(model))
        oracle = CharLMOracle(texts, order, smoothing)
        for text in queries:
            for i, sym in enumerate(text + EOS):
                p = oracle.prob(sym, tuple(text[:i]))
                assert lm.logp(sym, text[:i]) == (math.log(p) if p > 0.0 else float("-inf"))
        # The queries summed each bucket they read into _totals, under the id of a bucket of the model.
        for model in (lm, derived):
            buckets = {id(bucket): bucket for bucket in self._buckets(model)}
            assert set(model._totals) <= set(buckets)
            assert all(total == sum(buckets[i].values()) for i, total in model._totals.items())


# Characters that JSON escapes, the unknown bucket, and letters outside Latin-1.
_FILE_ALPHABET = 'ab "\\\n\t\x1f\x7f' + UNK + "жқ"


@st.composite
def lm_file_cases(draw):
    """A corpus, some of its texts to subtract, an order and a smoothing."""
    texts = draw(st.lists(st.text(_FILE_ALPHABET, max_size=10), min_size=1, max_size=8).filter(any))
    drop = draw(st.lists(st.booleans(), min_size=len(texts), max_size=len(texts)))
    return texts, drop, draw(st.integers(1, 5)), draw(st.sampled_from(SMOOTHINGS))


class TestLMFile:
    """``save_lm`` writes the bytes an independent oracle expects."""

    @settings(max_examples=150, deadline=None)
    @given(lm_file_cases())
    def test_saved_bytes_match_oracle(self, tmp_path_factory, case):
        texts, drop, order, smoothing = case
        out = tmp_path_factory.mktemp("lm")
        lm = train_lm(texts, order=order, smoothing=smoothing)
        want = oracle_lm_json(texts, order, smoothing).encode("utf-8")
        assert _bytes(save_lm, lm, out / "trained.json") == want
        removed = [t for t, d in zip(texts, drop) if d]
        rest = [t for t, d in zip(texts, drop) if not d]
        if not any(rest):
            return
        derived = lm.without(removed)
        assert _bytes(save_lm, derived, out / "derived.json") == oracle_lm_json(rest, order, smoothing).encode("utf-8")

    def test_levels_spanning_several_blocks(self, tmp_path):
        rng = random.Random(14)
        texts = [random_words(rng, TAJIK_SAMPLE, rng.randint(1, 6)) for _ in range(120)]
        lm = train_lm(texts, order=4)
        sizes = [len(level) for level in lm._levels]
        assert max(sizes) > 2 * translit._SAVE_BLOCK
        assert any(size % translit._SAVE_BLOCK for size in sizes if size > translit._SAVE_BLOCK)
        assert _bytes(save_lm, lm, tmp_path / "lm.json") == oracle_lm_json(texts, 4).encode("utf-8")

    def test_loaded_file_with_an_empty_level(self, tmp_path):
        payload = {
            "alphabet": [UNK, EOS, "a"], "counts": [[["", {EOS: 1, "a": 2}]], []],
            "magic": "tgfa-charlm", "order": 2, "smoothing": "none", "version": 2,
        }
        text = json.dumps(payload, ensure_ascii=False)
        src = tmp_path / "in.json"
        src.write_text(text, encoding="utf-8")
        assert _bytes(save_lm, load_lm(src), tmp_path / "out.json") == text.encode("utf-8")

    def test_save_peak_memory_is_bounded_by_file_size(self, tmp_path):
        """Saving holds one block of the file, not the whole: tracemalloc counts, not RSS."""
        rng = random.Random(14)
        texts = [random_words(rng, TAJIK_SAMPLE, rng.randint(2, 8)) for _ in range(300)]
        lm = train_lm(texts, order=5)
        path = tmp_path / "lm.json"
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            save_lm(lm, path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert 300_000 < size < 600_000
        assert peak < 0.8 * size

    def test_models_retain_less_than_seven_times_the_file_size(self, tmp_path):
        """A trained model and a loaded one each hold one dict per distinct bucket: tracemalloc counts, not RSS."""
        rng = random.Random(14)
        texts = [random_words(rng, TAJIK_SAMPLE, rng.randint(2, 8)) for _ in range(300)]
        path = tmp_path / "lm.json"
        save_lm(train_lm(texts, order=5), path)
        size = path.stat().st_size
        assert 300_000 < size < 600_000
        for make in (lambda: train_lm(texts, order=5), lambda: load_lm(path)):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                lm = make()
                retained = tracemalloc.get_traced_memory()[0] - base
            finally:
                tracemalloc.stop()
            del lm
            assert retained < 7 * size

    def test_trained_buckets_share_one_str_per_symbol(self):
        rng = random.Random(3)
        texts = [random_words(rng, TAJIK_SAMPLE, rng.randint(1, 6)) for _ in range(40)]
        lm = train_lm(texts, order=4)
        syms = [sym for level in lm._levels for bucket in level.values() for sym in bucket]
        assert len({id(sym) for sym in syms}) == len(set(syms)) == len(lm.vocab) - 1


class TestBuildDictionary:
    def test_modal_target(self):
        pairs = [ParallelPair(fa="خوب", tg="аз")] * 3 + [ParallelPair(fa="بد", tg="аз")]
        d = build_dictionary(pairs, TG2FA)
        assert d.entries["аз"] == "خوب"

    def test_unequal_token_counts_skipped(self):
        pairs = [ParallelPair(fa="از این جا", tg="аз ин")]
        d = build_dictionary(pairs, TG2FA)
        assert d.entries == {}
        assert d.skipped_pairs == 1

    def test_tie_breaks_lexicographically(self):
        pairs = [
            ParallelPair(fa="ب", tg="аз"),
            ParallelPair(fa="ب", tg="аз"),
            ParallelPair(fa="ا", tg="аз"),
            ParallelPair(fa="ا", tg="аз"),
        ]
        d = build_dictionary(pairs, TG2FA)
        assert d.entries["аз"] == min("ا", "ب")

    def test_direction_swaps_sides(self):
        pairs = [ParallelPair(fa="از", tg="аз")]
        d = build_dictionary(pairs, FA2TG)
        assert d.entries == {"از": "аз"}

    def test_normalizes_before_aligning(self):
        pairs = [ParallelPair(fa="از!", tg="Аз")]
        d = build_dictionary(pairs, TG2FA)
        assert d.entries == {"аз": "از"}

    def test_save_load_roundtrip(self, tmp_path):
        d = build_dictionary([ParallelPair(fa="از", tg="аз")], TG2FA)
        path = tmp_path / "dict.json"
        save_dictionary(d, path)
        assert json.loads(path.read_text(encoding="utf-8"))["version"] == 1
        again = load_dictionary(path)
        assert again.entries == d.entries
        assert again.direction is TG2FA

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
        save_dictionary(build_dictionary([ParallelPair(fa="از", tg="аз")], TG2FA), path)
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


# Few letters per side, so tokens and n-grams repeat across pairs; "ж"
# and "ژ" are drawn rarely enough to often sit in a single fold.
_DERIVE_FA = "ابپژ"
_DERIVE_TG = "абвж"


def _side(alphabet: str):
    """Zero to three words, so a side may be empty and sides differ in token count."""
    return st.lists(st.text(alphabet, min_size=1, max_size=3), max_size=3).map(" ".join)


@st.composite
def fold_cases(draw):
    k = draw(st.integers(2, 6))
    rows = draw(
        st.lists(
            st.tuples(_side(_DERIVE_FA), _side(_DERIVE_TG), st.sampled_from(["Names", "Poems"])),
            min_size=k,
            max_size=14,
        )
    )
    pairs = [ParallelPair(fa=fa, tg=tg, dataset=dataset) for fa, tg, dataset in rows]
    return pairs, k, draw(st.integers(1, 6)), draw(st.sampled_from(list(DIRECTIONS.values()))), draw(st.integers(0, 3))


def _bytes(save, model, path) -> bytes:
    save(model, path)
    return path.read_bytes()


class TestFoldDerivation:
    """Each fold's models, and the holdout split's, derived from the whole
    corpus's by subtracting the held-out pairs (dev and test), save to the
    same bytes as models trained on the training pairs."""

    @settings(max_examples=200, deadline=None)
    @given(fold_cases())
    @example((
        [
            ParallelPair(fa="اب", tg="аб", dataset="Names"),
            ParallelPair(fa="ژ پ", tg="ж", dataset="Names"),
            ParallelPair(fa="", tg="", dataset="Names"),
            ParallelPair(fa="با", tg="ба", dataset="Names"),
        ],
        2, 3, TG2FA, 0,
    ))
    @example((
        [ParallelPair(fa="اب ژ"[: i % 4], tg="аб ж"[: i % 4], dataset="Names") for i in range(11)],
        3, 2, FA2TG, 1,
    ))
    def test_derived_fold_models_equal_training_on_the_fold(self, tmp_path_factory, case):
        pairs, k, order, d, seed = case
        out = tmp_path_factory.mktemp("fold")
        whole_dict = build_dictionary(pairs, d)
        targets = [p.text(d.target) for p in pairs]
        whole_lm = train_lm(targets, order=order) if any(targets) else None
        specs = kfold(pairs, k=k, seed=seed)
        if len(pairs) >= 10:
            specs.append(split_holdout(pairs, seed=seed))
        for spec in specs:
            train = [pairs[i] for i in spec.train]
            held_out = [pairs[i] for i in spec.dev + spec.test]
            assert _bytes(save_dictionary, whole_dict.without(held_out), out / "derived.dict.json") == _bytes(
                save_dictionary, build_dictionary(train, d), out / "dict.json"
            )
            if whole_lm is None:
                continue
            train_targets = [p.text(d.target) for p in train]
            test_targets = [p.text(d.target) for p in held_out]
            if not any(train_targets):
                with pytest.raises(EmptyCorpus):
                    whole_lm.without(test_targets)
                continue
            derived = whole_lm.without(test_targets)
            trained = train_lm(train_targets, order=order)
            assert derived.vocab == trained.vocab
            assert _bytes(save_lm, derived, out / "derived.lm.json") == _bytes(save_lm, trained, out / "lm.json")

    def test_all_empty_training_side_is_empty_corpus(self):
        pairs = [ParallelPair(fa="اب", tg="аб"), ParallelPair(fa="ب", tg="")]
        whole = train_lm([p.tg_train for p in pairs], order=3)
        with pytest.raises(EmptyCorpus):
            train_lm([pairs[1].tg_train], order=3)
        with pytest.raises(EmptyCorpus):
            whole.without([pairs[0].tg_train])

    def test_subtracting_a_text_never_counted_is_an_error(self):
        with pytest.raises(ConfigError):
            train_lm(["аб"], order=2).without(["ба"])

    @pytest.mark.parametrize(
        "fold",
        [
            [ParallelPair(fa="این", tg="ин")],  # a token never counted
            [ParallelPair(fa="ای", tg="аз")],  # a counted token with a target never counted
            [ParallelPair(fa="از", tg="аз")] * 2,  # one vote subtracted twice
            [ParallelPair(fa="از", tg="аз ин")] * 2,  # one skipped pair subtracted twice
        ],
    )
    def test_subtracting_pairs_never_counted_is_an_error(self, fold):
        pairs = [ParallelPair(fa="از", tg="аз"), ParallelPair(fa="از", tg="аз ин")]
        whole = build_dictionary(pairs, TG2FA)
        with pytest.raises(ConfigError, match="not built from"):
            whole.without(fold)

    def test_skipped_pair_subtracted_in_two_folds_is_an_error(self):
        skipped = ParallelPair(fa="از", tg="аз ин")
        once = build_dictionary([ParallelPair(fa="از", tg="аз"), skipped], TG2FA).without([skipped])
        assert once.skipped_pairs == 0
        with pytest.raises(ConfigError, match="not built from"):
            once.without([skipped])

    def test_loaded_dictionary_cannot_derive(self, tmp_path):
        path = tmp_path / "dict.json"
        pairs = [ParallelPair(fa="از", tg="аз")]
        save_dictionary(build_dictionary(pairs, TG2FA), path)
        with pytest.raises(WrongState):
            load_dictionary(path).without(pairs)


class TestLattice:
    def test_path_count_is_product(self):
        t = MappingTable(
            TG2FA, {"а": ("x",), "б": ("y", "z"), "в": ("p", "q", "r")}
        )
        lat = expand_lattice("абв", t)
        assert lat.path_count == 6

    def test_single_path_for_unambiguous(self):
        t = default_mapping_table("tg2fa")
        lat = expand_lattice("бғд", t)
        assert lat.path_count == 1

    def test_unknown_char_reports_position(self):
        t = MappingTable(TG2FA, {"а": ("x",)})
        with pytest.raises(UnknownChar) as e:
            expand_lattice("аж", t)
        assert e.value.char == "ж"
        assert e.value.position == 1

    def test_avg_alternatives(self):
        # аз: 2*4 paths, ин: 2*1, бғд: unambiguous.
        t = default_mapping_table("tg2fa")
        value = avg_alternatives(["аз ин", "бғд"], t)
        assert value == (8 + 2 + 1) / 3


def _reference_extend_score(lm: CharNGramLM, text: str, start: int, base: float) -> float:
    """``base`` plus the log-probability of ``text[start:]`` following ``text[:start]``."""
    score = base
    n = lm.order - 1
    for i in range(start, len(text)):
        score += lm.logp(text[i], text[max(0, i - n) : i])
    return score


def reference_beam_decode(lattice: Lattice, lm: CharNGramLM, beam: int) -> list[str]:
    """The string-keyed decoder that keyed queries replaced: each extension
    rebuilds its contexts from the hypothesis text through ``logp``."""
    hyps: dict[str, float] = {"": 0.0}
    for slot in lattice.slots:
        extended: dict[str, float] = {}
        for prefix, score in hyps.items():
            for cand in slot:
                grown = prefix + cand
                if grown not in extended:
                    extended[grown] = _reference_extend_score(lm, grown, len(prefix), score)
        ranked = sorted(extended.items(), key=lambda kv: (-kv[1], kv[0]))
        hyps = dict(ranked[:beam])
    finals = {text: score + lm.logp(EOS, text) for text, score in hyps.items()}
    return [text for text, _ in sorted(finals.items(), key=lambda kv: (-kv[1], kv[0]))]


@st.composite
def decode_cases(draw):
    """A corpus, an order, a smoothing, a lattice and a beam.

    Candidates may be empty (∅), several characters long, or hold
    characters the LM never saw. The corpus may hold the unknown-bucket
    character itself: only then does reading an unseen character as UNK
    change a probability, since otherwise both miss every count.
    """
    texts = draw(st.lists(st.text("ab" + UNK, max_size=6), min_size=1, max_size=6).filter(any))
    candidate = st.text("ab" + _OOV + UNK, max_size=3)
    slots = draw(st.lists(st.lists(candidate, min_size=1, max_size=4).map(tuple), max_size=6))
    return (
        texts,
        draw(st.integers(1, 6)),
        draw(st.sampled_from(SMOOTHINGS)),
        Lattice("w", tuple(slots)),
        draw(st.integers(1, 20)),
    )


class TestBeamDecode:
    @settings(max_examples=300, deadline=None)
    @given(decode_cases())
    @example(([UNK + "b", "a", "a", "a"], 2, "witten_bell", Lattice("w", (("x",), ("a", "b"))), 4))
    def test_keyed_decoder_returns_the_reference_ranking(self, case):
        texts, order, smoothing, lattice, beam = case
        # Separate models, so neither decoder reads what the other put in the memo.
        got = beam_decode(lattice, train_lm(texts, order, smoothing), beam)
        want = reference_beam_decode(lattice, train_lm(texts, order, smoothing), beam)
        assert got == want

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
        d = build_dictionary([ParallelPair(fa="کتاب", tg="китоб")], TG2FA)
        t = default_mapping_table("tg2fa")
        lm = tiny_lm(["کتاب"])
        assert transliterate_lines(["китоб"], t, d, lm) == ["کتاب"]

    def test_all_tokens_in_dict_concatenate(self):
        pairs = [ParallelPair(fa="از", tg="аз"), ParallelPair(fa="این", tg="ин")]
        d = build_dictionary(pairs, TG2FA)
        # The table's first candidates alone give "ز ن ز".
        assert transliterate_lines(["аз ин аз"], default_mapping_table("tg2fa"), d) == ["از این از"]

    def test_dictionary_for_the_other_direction_rejected(self):
        d = build_dictionary([ParallelPair(fa="از", tg="аз")], FA2TG)
        with pytest.raises(ConfigError, match="dictionary direction"):
            transliterate_lines(["аз"], default_mapping_table("tg2fa"), d)

    def test_empty_input(self):
        t = default_mapping_table("tg2fa")
        assert transliterate_lines([""], t) == [""]

    def test_first_candidate_baseline_without_lm(self):
        t = MappingTable(TG2FA, {"а": ("x", "y"), "б": ("z",)})
        assert transliterate_lines(["аб"], t) == ["xz"]

    def test_unknown_char_carries_token_index(self):
        t = MappingTable(TG2FA, {"а": ("x",)})
        with pytest.raises(UnknownChar) as e:
            transliterate_lines(["а ж"], t)
        assert e.value.token_index == 1

    def test_output_purity(self):
        rng = random.Random(41)
        t = default_mapping_table("tg2fa")
        lm = tiny_lm(["از این کتاب", "کتاب خوب"], order=3)
        allowed = set(FARSI_LETTERS) | {ZWNJ, " "}
        source_alphabet = "абвгдезиклмнопрстуфхчшъ"
        for _ in range(50):
            word = "".join(rng.choice(source_alphabet) for _ in range(rng.randint(1, 6)))
            [out] = transliterate_lines([word], t, lm=lm)
            assert set(out) <= allowed

    def test_deterministic(self):
        t = default_mapping_table("tg2fa")
        lm = tiny_lm(["از این", "کتاب"], order=2)
        outs = {transliterate_lines(["аз ин китоб"], t, lm=lm)[0] for _ in range(5)}
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
        self.dictionary = build_dictionary([ParallelPair(fa="کتاب", tg="китоб")], TG2FA)
        words = [random_words(rng, TAJIK_SAMPLE, 1, max_len=4) for _ in range(8)] + ["китоб"]
        self.lines = [" ".join(rng.choice(words) for _ in range(rng.randint(0, 5))) for _ in range(40)]

    def test_equals_per_line_transliterate(self):
        for lm in (self.lm, None):
            batch = transliterate_lines(self.lines, self.table, self.dictionary, lm, beam=4)
            single = [transliterate_lines([line], self.table, self.dictionary, lm, beam=4)[0] for line in self.lines]
            assert batch == single

    def test_decodes_each_distinct_oov_token_once(self, monkeypatch):
        import tgfa.translit as translit_mod

        decoded = []
        real = translit_mod.beam_decode

        def counting(lattice, lm, beam):
            decoded.append(lattice.word)
            return real(lattice, lm, beam)

        monkeypatch.setattr(translit_mod, "beam_decode", counting)
        transliterate_lines(self.lines, self.table, self.dictionary, self.lm)
        oov = {tok for line in self.lines for tok in line.split()} - {"китоб"}
        assert sorted(decoded) == sorted(oov)
