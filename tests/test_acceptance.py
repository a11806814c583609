"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line once its assertions hold (visible
with ``pytest -s``); conditional criteria that need the published
datasets print a SKIP line instead when the data is not present.

Criteria 4-6 look for the public data under $TGFA_PUBLISHED_DATA:

    dictionary.jsonl      the published Dictionary dataset as a corpus file
    places.jsonl          the published Places dataset
    paranames.jsonl       the unfiltered Tajik-Farsi ParaNames extraction
    model_fa2tg.jsonl     test corpus scored by the published model
    model_fa2tg.hyp.txt   the published model's Farsi->Tajik outputs
    model_tg2fa.jsonl     (same, other direction)
    model_tg2fa.hyp.txt
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

import pytest

from tgfa.corpus import (
    ParallelPair,
    load,
    paranames_filter,
    split_holdout,
    stats,
)
from tgfa.errors import TgfaError
from tgfa.metrics import EvalPair, cer_mean, chrf, chrf_pp, edit_distance, score_corpus
from tgfa.script import CharClass, NormMode, Script, classify_char, normalize_text
from tgfa.tokenizer import detokenize, tokenize
from tgfa.translit import (
    DIRECTIONS,
    Lattice,
    beam_decode,
    build_dictionary,
    default_mapping_table,
    train_lm,
    transliterate_lines,
)

from conftest import FARSI_SAMPLE, TAJIK_SAMPLE
from oracles import corpus_f_direct, exhaustive_rank, levenshtein_dp

PUBLISHED = os.environ.get("TGFA_PUBLISHED_DATA")


def _report(cid: int, status: str, detail: str = "") -> None:
    line = f"ACCEPTANCE C{cid} {status}"
    if detail:
        line += f" - {detail}"
    print(line, flush=True)


def _blocked(cid: int, what: str):
    _report(cid, "SKIP (externally blocked)", what)
    pytest.skip(f"criterion {cid}: {what}")


def _published_file(cid: int, name: str) -> Path:
    if not PUBLISHED:
        _blocked(cid, f"needs {name} from the public release (set TGFA_PUBLISHED_DATA)")
    path = Path(PUBLISHED) / name
    if not path.exists():
        _blocked(cid, f"{path} not found")
    return path


def test_c1_metric_identity_suite():
    rng = random.Random(100)
    pairs = []
    for _ in range(1000):
        words = [
            "".join(rng.choice(TAJIK_SAMPLE) for _ in range(rng.randint(1, 8)))
            for _ in range(rng.randint(1, 4))
        ]
        text = " ".join(words)
        pairs.append(EvalPair(text, text, group="dictionary"))
    started = time.perf_counter()
    rows = score_corpus(pairs)
    elapsed = time.perf_counter() - started
    for scores in rows:
        assert scores["chrf"] == 100.0
        assert scores["chrf_pp"] == 100.0
        assert scores["cer"] == 0.0
        assert scores["ncer"] == 0.0
        assert scores["acc"] == 100.0
        assert scores["acc_no_ws"] == 100.0
    assert f"{rows[-1]['chrf']:.2f}" == "100.00"
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(1, "PASS", f"identity corpus of 1000 pairs scored perfectly in {elapsed:.3f}s")


def test_c2_metric_oracle_equivalence():
    rng = random.Random(20240901)
    alphabet = "abcdefghijkl"  # 12 symbols
    pairs = []
    for _ in range(1000):
        ref = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
        hyp = (
            ref
            if rng.random() < 0.25
            else "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
        )
        pairs.append(EvalPair(hyp, ref))
    for p in pairs:
        assert edit_distance(p.hypothesis, p.reference) == levenshtein_dp(
            p.hypothesis, p.reference
        )
    tuples = [(p.hypothesis, p.reference) for p in pairs]
    assert abs(chrf(pairs) - corpus_f_direct(tuples, 6, 0, 2.0)) < 1e-9
    assert abs(chrf_pp(pairs) - corpus_f_direct(tuples, 6, 2, 2.0)) < 1e-9
    _report(2, "PASS", "1000 random pairs: edit distance exact, chrF/chrF++ within 1e-9")


def test_c3_tokenizer_round_trip():
    rng = random.Random(3)
    alphabets = (TAJIK_SAMPLE, FARSI_SAMPLE)
    failures = 0
    for i in range(10000):
        alphabet = alphabets[i % 2]
        words = []
        for _ in range(rng.randint(1, 5)):
            word = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 9)))
            if alphabet is FARSI_SAMPLE and rng.random() < 0.1 and len(word) > 2:
                word = word[:2] + "‌" + word[2:]
            words.append(word)
        text = " ".join(words)
        if detokenize(tokenize(text)) != text:
            failures += 1
    assert failures == 0
    _report(3, "PASS", "10000 random normalized strings round-tripped exactly")


def test_c4_published_dataset_statistics():
    dictionary_path = _published_file(4, "dictionary.jsonl")
    places_path = _published_file(4, "places.jsonl")
    [dict_stats] = [row for row in stats(load(dictionary_path)) if row["label"] == "Dictionary"]
    assert dict_stats["n_pairs"] == 49758
    assert dict_stats["tg_avg_tokens"] == pytest.approx(1.00, abs=0.005)
    assert dict_stats["fa_avg_tokens"] == pytest.approx(1.38, abs=0.01)
    [places_stats] = [row for row in stats(load(places_path)) if row["label"] == "Places"]
    assert places_stats["n_pairs"] == 11179
    detail = (
        f"chars with spaces: tg {dict_stats['tg_avg_chars']:.2f} (published 7.63), "
        f"fa {dict_stats['fa_avg_chars']:.2f} (published 6.70)"
    )
    _report(4, "PASS", detail)


def test_c5_paranames_filter_count():
    path = _published_file(5, "paranames.jsonl")
    pairs = load(path)
    kept_counted, _ = paranames_filter(pairs, order_sensitive=False)
    kept_ordered, _ = paranames_filter(pairs, order_sensitive=True)
    detail = (
        f"count-based kept {len(kept_counted)} (published 39352, "
        f"delta {len(kept_counted) - 39352:+d}); "
        f"order-sensitive kept {len(kept_ordered)}"
    )
    assert len(kept_counted) == 39352, detail
    _report(5, "PASS", detail)


@pytest.mark.parametrize(
    "direction,chrf_pp_expected,ncer_expected",
    [("fa2tg", 87.91, 0.05), ("tg2fa", 92.28, 0.04)],
)
def test_c6_published_model_scores(direction, chrf_pp_expected, ncer_expected):
    corpus_path = _published_file(6, f"model_{direction}.jsonl")
    hyp_path = _published_file(6, f"model_{direction}.hyp.txt")
    pairs = load(corpus_path)
    target = Script.TAJIK if direction == "fa2tg" else Script.FARSI
    refs = [p.tg if direction == "fa2tg" else p.fa for p in pairs]
    hyps = hyp_path.read_text(encoding="utf-8").splitlines()
    assert len(hyps) == len(pairs)
    eval_pairs = [
        EvalPair(
            normalize_text(h, target, NormMode.EVAL),
            normalize_text(r, target, NormMode.EVAL),
        )
        for h, r in zip(hyps, refs)
    ]
    overall = score_corpus(eval_pairs)[-1]
    assert overall["chrf_pp"] == pytest.approx(chrf_pp_expected, abs=0.10)
    assert overall["ncer"] == pytest.approx(ncer_expected, abs=0.005)
    _report(6, "PASS", f"{direction}: chrF++ {overall['chrf_pp']:.2f}, NCER {overall['ncer']:.3f}")


# --- criterion 7: the baseline transliterator -------------------------------

# Letter pairs for the synthetic dictionary-style corpus. The right
# column is what this corpus always uses on the Farsi side; for the
# starred Tajik letters that is NOT the first candidate of the default
# table, so first-candidate decoding must make errors that LM rescoring
# can fix.
_SYNTH_UNAMBIGUOUS = [("б", "ب"), ("г", "گ"), ("д", "د"), ("м", "م"), ("н", "ن"), ("р", "ر")]
_SYNTH_AMBIGUOUS = [("с", "ص"), ("т", "ط"), ("з", "ذ"), ("ҳ", "ح")]  # starred


def _synthetic_dictionary_corpus(n: int, seed: int) -> list[ParallelPair]:
    rng = random.Random(seed)
    pairs = []
    for _ in range(n):
        length = rng.randint(2, 6)
        chosen = [rng.choice(_SYNTH_UNAMBIGUOUS + _SYNTH_AMBIGUOUS) for _ in range(length)]
        if not any(c in _SYNTH_AMBIGUOUS for c in chosen):
            chosen[rng.randrange(length)] = rng.choice(_SYNTH_AMBIGUOUS)
        tg = "".join(t for t, _ in chosen)
        fa = "".join(f for _, f in chosen)
        pairs.append(ParallelPair(fa=fa, tg=tg, dataset="Dictionary"))
    return pairs


def test_c7a_dictionary_path_consistency():
    pairs = _synthetic_dictionary_corpus(300, seed=71)
    dictionary = build_dictionary(pairs, DIRECTIONS["tg2fa"])
    table = default_mapping_table("tg2fa")
    assert dictionary.entries
    outputs = transliterate_lines(dictionary.entries, table, dictionary)
    hits = sum(out == target for out, target in zip(outputs, dictionary.entries.values()))
    assert hits == len(dictionary.entries)
    _report(7, "PASS", f"(a) 100% sequence accuracy on {hits} in-dictionary tokens")


def test_c7b_beam_matches_exhaustive_on_500_lattices():
    rng = random.Random(72)
    alphabet = "abcd"
    checked = 0
    while checked < 500:
        n_slots = rng.randint(1, 5)
        slots = []
        for _ in range(n_slots):
            cands = {
                "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 2)))
                for _ in range(rng.randint(1, 3))
            }
            slots.append(tuple(sorted(cands)))
        lattice = Lattice(word="?" * n_slots, slots=tuple(slots))
        if lattice.path_count > 50:
            continue
        texts = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
            for _ in range(rng.randint(2, 6))
        ]
        lm = train_lm(texts, order=2)
        got = beam_decode(lattice, lm, beam=max(1, lattice.path_count))
        want = exhaustive_rank(lattice.slots, lm)
        assert got == want, lattice.slots
        assert got[0] == want[0]
        checked += 1
    _report(7, "PASS", "(b) full-beam decoding equals exhaustive argmax on 500 lattices")


def test_c7c_lm_rescoring_beats_first_candidate():
    # Held-out evaluation on a dictionary-style corpus: single-token
    # pairs whose Farsi side systematically prefers non-first candidates.
    pairs = _synthetic_dictionary_corpus(400, seed=73)
    spec = split_holdout(pairs, seed=73)
    train_pairs = [pairs[i] for i in spec.train]
    test_pairs = [pairs[i] for i in spec.test]
    table = default_mapping_table("tg2fa")
    lm = train_lm(
        [normalize_text(p.fa, Script.FARSI, NormMode.TRAIN) for p in train_pairs],
        order=3,
    )

    def decode(with_lm):
        out = []
        for p in test_pairs:
            src = normalize_text(p.tg, Script.TAJIK, NormMode.TRAIN)
            [hyp] = transliterate_lines([src], table, lm=lm if with_lm else None)
            ref = normalize_text(p.fa, Script.FARSI, NormMode.EVAL)
            out.append(EvalPair(normalize_text(hyp, Script.FARSI, NormMode.EVAL), ref))
        return out

    cer_rescored = cer_mean(decode(with_lm=True))
    cer_first = cer_mean(decode(with_lm=False))
    assert cer_rescored < cer_first
    _report(
        7,
        "PASS",
        f"(c) held-out CER {cer_rescored:.3f} with LM rescoring vs {cer_first:.3f} first-candidate",
    )


def test_c8_eval_normalization_purity():
    rng = random.Random(8)
    noise = "!?.,;:—–()[]0123456789٠١٢٣۴۵«»،؟#$%"
    diacritics = "ًَُِّْٰ"
    banned = (
        CharClass.ZWNJ,
        CharClass.PERSO_ARABIC_DIACRITIC,
        CharClass.TAJIK_HYPHEN,
        CharClass.OTHER,
    )
    scanned = 0
    lines = 0
    while scanned < 100000:
        script = Script.TAJIK if lines % 2 == 0 else Script.FARSI
        alphabet = TAJIK_SAMPLE.upper() + TAJIK_SAMPLE if script is Script.TAJIK else FARSI_SAMPLE
        chunks = []
        for _ in range(rng.randint(3, 8)):
            word = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
            if script is Script.FARSI and rng.random() < 0.4:
                pos = rng.randrange(1, len(word) + 1)
                word = word[:pos] + rng.choice("‌" + diacritics) + word[pos:]
            if script is Script.TAJIK and rng.random() < 0.3 and len(word) > 1:
                pos = rng.randrange(1, len(word))
                word = word[:pos] + "-" + word[pos:]
            chunks.append(word)
            if rng.random() < 0.5:
                chunks.append(rng.choice(noise))
        raw = " ".join(chunks)
        ev = normalize_text(raw, script, NormMode.EVAL)
        assert normalize_text(ev, script, NormMode.EVAL) == ev
        tr = normalize_text(raw, script, NormMode.TRAIN)
        assert normalize_text(tr, script, NormMode.TRAIN) == tr
        for ch in ev:
            assert classify_char(ch, script) not in banned, (hex(ord(ch)), script)
        scanned += len(ev)
        lines += 1
    _report(8, "PASS", f"{scanned} eval-normalized characters clean over {lines} lines")


def test_c9_pipeline_determinism(tmp_path):
    from conftest import run_cli, toy_corpus
    from tgfa.corpus import save

    corpus = tmp_path / "corpus.jsonl"
    save(toy_corpus(60, seed=9), corpus)
    digests = []
    for name in ("one", "two"):
        out = tmp_path / name
        result = run_cli(
            ["pipeline", "--corpus", str(corpus), "--direction", "tg2fa",
             "--seed", "99", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        digests.append(
            {
                p.relative_to(out).as_posix(): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file()
            }
        )
    assert digests[0].keys() == digests[1].keys()
    for key in digests[0]:
        assert digests[0][key] == digests[1][key], f"{key} differs between reruns"
    _report(9, "PASS", f"{len(digests[0])} pipeline artifacts byte-identical across reruns")
