from __future__ import annotations

import hashlib
import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tgfa
from tgfa.cli import COMMANDS, _config_hash, _dir_path, _direction, _existing_file, _file_path, _sha256, env_var, main
from tgfa.corpus import ParallelPair
from tgfa.errors import ParseError
from tgfa.script import parse_json_object
from tgfa import translit
from tgfa.translit import MappingTable, train_lm

from conftest import run_cli, tajik_char_table, toy_corpus
from oracles import oracle_lm_json


def write_corpus(path: Path, pairs):
    from tgfa.corpus import save

    save(pairs, path)
    return path


class TestTextCommands:
    def test_normalize(self):
        result = run_cli(
            ["normalize", "--script", "tajik", "--mode", "train"],
            input="Ва — аз!\n",
        )
        assert result.exit_code == 0
        assert result.output == "ва аз\n"

    def test_translit_fa2tg_variant_letters(self):
        # ٱ ھ ہ ے have table rows with the candidates of ا ه ه ی.
        result = run_cli(["translit", "--direction", "fa2tg"], input="ٱب ھا ہا بے\n")
        assert result.exit_code == 0, result.output
        assert result.output == "об ҳо ҳо би\n"

    def test_normalize_eval_mode(self):
        result = run_cli(
            ["normalize", "--script", "tajik", "--mode", "eval"],
            input="В-аз\n",
        )
        assert result.output == "ваз\n"

    def test_mode_from_env(self):
        result = run_cli(
            ["normalize", "--script", "tajik"],
            input="В-аз\n",
            env={"TGFA_NORMALIZE_MODE": "eval"},
        )
        assert result.output == "ваз\n"

    def test_mode_flag_beats_its_variable(self):
        result = run_cli(["normalize", "--script", "tajik", "--mode", "train"], input="В-аз\n",
                         env={"TGFA_NORMALIZE_MODE": "eval"})
        assert result.exit_code == 0, result.output
        assert result.output == "в-аз\n"

    def test_tokenize_detokenize_round_trip(self):
        tokenized = run_cli(["tokenize"], input="аз ин\n")
        assert tokenized.output == "@ а з @ _ @ и н @\n"
        back = run_cli(["detokenize"], input=tokenized.output)
        assert back.output == "аз ин\n"

    def test_char_table_override(self, tmp_path):
        table = tmp_path / "chars.tsv"
        table.write_text("U+0438\tother\n", encoding="utf-8")
        result = run_cli(
            ["normalize", "--script", "tajik", "--char-table", str(table)],
            input="ин\n",
        )
        assert result.output == "н\n"

    def test_char_table_translation_built_once(self, tmp_path, monkeypatch):
        from tgfa import script

        table = tmp_path / "chars.tsv"
        table.write_text("U+0438\tother\n", encoding="utf-8")
        built = Counter()
        init = script._Translation.__init__

        def counted(self, script_, mode, table_):
            built[script_, mode] += 1
            init(self, script_, mode, table_)

        monkeypatch.setattr(script._Translation, "__init__", counted)
        script._translation.cache_clear()
        result = run_cli(
            ["normalize", "--script", "tajik", "--char-table", str(table)],
            input="ин аз\n" * 50,
        )
        assert result.output == "н аз\n" * 50
        assert built == {(script.Script.TAJIK, script.NormMode.TRAIN): 1}


class TestCorpusCommands:
    def test_stats_table(self, corpus_file):
        result = run_cli(["stats", "--corpus", str(corpus_file)])
        assert result.exit_code == 0
        assert "Dictionary" in result.output
        assert "Masnavi" in result.output

    def test_stats_jsonl_per_domain(self, corpus_file):
        result = run_cli(
            ["stats", "--corpus", str(corpus_file), "--per", "domain", "--format", "jsonl"],
        )
        rows = [json.loads(line) for line in result.output.splitlines()]
        assert {r["label"] for r in rows} == {"poetry", "prose", "names", "dictionary"}

    def test_split_writes_artifacts(self, corpus_file, tmp_path):
        out = tmp_path / "split"
        result = run_cli(
            ["split", "--corpus", str(corpus_file), "--seed", "3", "--out", str(out)],
        )
        assert result.exit_code == 0
        spec = json.loads((out / "split.json").read_text())
        assert len(spec["train"]) + len(spec["dev"]) + len(spec["test"]) == 24
        for name in ("train", "dev", "test"):
            assert (out / f"{name}.jsonl").exists()

    def test_split_deterministic(self, corpus_file, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            run_cli(["split", "--corpus", str(corpus_file), "--seed", "5", "--out", str(out)])
            outs.append((out / "split.json").read_bytes())
        assert outs[0] == outs[1]

    def test_kfold(self, corpus_file, tmp_path):
        out = tmp_path / "folds"
        result = run_cli(
            ["kfold", "--corpus", str(corpus_file), "--k", "4", "--seed", "1", "--out", str(out)],
        )
        assert result.exit_code == 0
        payload = json.loads((out / "folds.json").read_text())
        assert payload["k"] == 4
        seen = sorted(i for f in payload["folds"] for i in f["test"])
        assert seen == list(range(24))

    def test_filter_names(self, tmp_path):
        corpus = write_corpus(tmp_path / "names.jsonl", toy_corpus(30, dataset="People"))
        out = tmp_path / "filtered"
        result = run_cli(
            ["filter-names", "--corpus", str(corpus), "--out", str(out)]
        )
        assert result.exit_code == 0
        kept = (out / "kept.jsonl").read_text().splitlines()
        rejected = (out / "rejected.jsonl").read_text().splitlines()
        assert len(kept) + len(rejected) == 30
        if rejected:
            assert "violating_class" in json.loads(rejected[0])


class TestModelCommands:
    def test_build_dict_and_train_lm(self, corpus_file, tmp_path):
        dict_path = tmp_path / "dict.json"
        lm_path = tmp_path / "lm.json"
        r1 = run_cli(
            ["build-dict", "--corpus", str(corpus_file), "--direction", "tg2fa", "--out", str(dict_path)],
        )
        assert r1.exit_code == 0 and dict_path.exists()
        r2 = run_cli(
            ["train-lm", "--corpus", str(corpus_file), "--direction", "tg2fa",
             "--lm-order", "3", "--out", str(lm_path)],
        )
        assert r2.exit_code == 0 and lm_path.exists()

    def test_translit_first_candidate(self):
        result = run_cli(
            ["translit", "--direction", "tg2fa"], input="бғд\n"
        )
        assert result.exit_code == 0
        assert result.output == "بغد\n"

    def test_translit_missing_table_fails_before_work(self, tmp_path):
        result = run_cli(
            ["translit", "--direction", "tg2fa", "--table", str(tmp_path / "nope.tsv")],
            input="бғд\n",
        )
        assert result.exit_code == 2

    def test_translit_out_of_script_table_fails_before_output(self, tmp_path):
        table = tmp_path / "t.tsv"
        table.write_text("б\tb\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        result = run_cli(
            ["translit", "--direction", "tg2fa", "--table", str(table), "-o", str(out)],
            input="б\n",
        )
        assert result.exit_code == 2, result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "direction,line",
        [("fa2tg", "خانهٔ من"), ("fa2tg", "خانۀ من"), ("tg2fa", "ман\u200cба")],
        ids=["ezafe-hamza", "heh-with-yeh", "tajik-zwnj"],
    )
    def test_translit_ordinary_text_has_table_rows(self, direction, line):
        result = run_cli(["translit", "--direction", direction], input=line + "\n")
        assert result.exit_code == 0, result.output
        assert len(result.output.splitlines()) == 1

    def test_translit_ambiguity_stats(self):
        result = run_cli(
            ["translit", "--direction", "tg2fa", "--ambiguity-stats"],
            input="аз ин\n",
        )
        assert result.exit_code == 0
        assert "avg alternatives per token" in result.output

    def test_translit_lm_with_letters_outside_the_target_script_loads(self, tmp_path):
        # Only a model holding no letter of the target script is refused.
        lm_path = tmp_path / "lm.json"
        lm_path.write_text(oracle_lm_json(["باد", "ab"], 2), encoding="utf-8")
        result = run_cli(["translit", "--direction", "tg2fa", "--lm", str(lm_path)], input="бод\n")
        assert result.exit_code == 0, result.output
        assert len(result.output.splitlines()) == 1

    def test_translit_with_lm_and_dict(self, corpus_file, tmp_path):
        dict_path = tmp_path / "dict.json"
        lm_path = tmp_path / "lm.json"
        run_cli(["build-dict", "--corpus", str(corpus_file), "--direction", "tg2fa", "--out", str(dict_path)])
        run_cli(["train-lm", "--corpus", str(corpus_file), "--direction", "tg2fa", "--lm-order", "2", "--out", str(lm_path)])
        result = run_cli(
            ["translit", "--direction", "tg2fa", "--dict", str(dict_path), "--lm", str(lm_path)],
            input="бғд аз\n",
        )
        assert result.exit_code == 0
        assert result.output.endswith("\n")


class TestScore:
    def _refs(self, corpus_path, direction="tg2fa"):
        from tgfa.corpus import load
        from tgfa.script import NormMode, Script, normalize_text

        pairs = load(corpus_path)
        side = (lambda p: p.fa) if direction == "tg2fa" else (lambda p: p.tg)
        script = Script.FARSI if direction == "tg2fa" else Script.TAJIK
        return [normalize_text(side(p), script, NormMode.EVAL) for p in pairs]

    def test_identity_hypothesis_scores_perfect(self, corpus_file, tmp_path):
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("".join(line + "\n" for line in self._refs(corpus_file)), encoding="utf-8")
        out = tmp_path / "scores"
        result = run_cli(
            ["score", "--corpus", str(corpus_file), "--hyp", str(hyp),
             "--direction", "tg2fa", "--out", str(out)],
        )
        assert result.exit_code == 0
        assert "100.00" in result.output
        rows = [
            json.loads(line)
            for line in (out / "hyp.scores.jsonl").read_text().splitlines()
        ]
        overall = next(r for r in rows if r.get("group") == "Overall")
        assert overall["chrf"] == 100.0
        assert overall["cer"] == 0.0
        meta = rows[0]["meta"]
        assert meta["version"] and meta["config_hash"] and meta["inputs"]

    def test_length_mismatch_exit_code(self, corpus_file, tmp_path):
        hyp = tmp_path / "hyp.txt"
        lines = self._refs(corpus_file) + ["зиёдатӣ"]
        hyp.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        result = run_cli(
            ["score", "--corpus", str(corpus_file), "--hyp", str(hyp), "--direction", "tg2fa"],
        )
        assert result.exit_code == 4
        assert "25" in result.output  # first offending line

    def test_two_systems_best_marked(self, corpus_file, tmp_path):
        refs = self._refs(corpus_file)
        good = tmp_path / "good.txt"
        good.write_text("".join(line + "\n" for line in refs), encoding="utf-8")
        bad = tmp_path / "bad.txt"
        bad.write_text("".join("خطا" + "\n" for _ in refs), encoding="utf-8")
        result = run_cli(
            ["score", "--corpus", str(corpus_file), "--hyp", str(good),
             "--hyp", str(bad), "--direction", "tg2fa"],
        )
        assert result.exit_code == 0
        assert "chrF[good]" in result.output
        assert "100.00*" in result.output

    @pytest.mark.parametrize("second", ["other/sys.txt", "sys.txt"], ids=["same-stem", "same-file"])
    def test_duplicate_system_name_rejected_before_work(self, corpus_file, tmp_path, second):
        # Hypotheses that are not UTF-8 would exit 3 if they were read.
        first = tmp_path / "sys.txt"
        first.write_bytes(b"\xff\n")
        (tmp_path / "other").mkdir()
        (tmp_path / "other" / "sys.txt").write_bytes(b"\xff\n")
        out = tmp_path / "scores"
        result = run_cli(
            ["score", "--corpus", str(corpus_file), "--hyp", str(first),
             "--hyp", str(tmp_path / second), "--direction", "tg2fa", "--out", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert f"system name 'sys' is given by both {first} and {tmp_path / second}" in result.output
        assert not out.exists()

    def test_missing_corpus_fails_before_work(self, tmp_path):
        result = run_cli(
            ["score", "--corpus", str(tmp_path / "nope.jsonl"), "--hyp", str(tmp_path / "nope.txt"),
             "--direction", "tg2fa"],
        )
        assert result.exit_code == 2

    def test_corrupt_corpus_parse_exit_code(self, tmp_path):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text("not json at all\n", encoding="utf-8")
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("x\n", encoding="utf-8")
        result = run_cli(
            ["score", "--corpus", str(corpus), "--hyp", str(hyp), "--direction", "tg2fa"],
        )
        assert result.exit_code == 3
        assert "line 1" in result.output


class TestPipelineAndReport:
    def test_pipeline_holdout(self, tmp_path):
        corpus = write_corpus(tmp_path / "c.jsonl", toy_corpus(60))
        out = tmp_path / "run"
        result = run_cli(
            ["pipeline", "--corpus", str(corpus), "--direction", "tg2fa",
             "--seed", "7", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        for name in (
            "config.json", "split.json", "train.jsonl", "dev.jsonl", "test.jsonl",
            "dict.json", "lm.json", "test.src.txt", "test.hyp.txt", "test.ref.txt",
            "report.txt", "report.jsonl",
        ):
            assert (out / name).exists(), name
        assert "Overall" in (out / "report.txt").read_text()

    def test_pipeline_kfold(self, tmp_path):
        corpus = write_corpus(tmp_path / "c.jsonl", toy_corpus(30))
        out = tmp_path / "run"
        result = run_cli(
            ["pipeline", "--corpus", str(corpus), "--direction", "fa2tg",
             "--seed", "1", "--folds", "3", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert (out / "fold00" / "test.hyp.txt").exists()
        assert (out / "fold02" / "lm.json").exists()
        rows = [json.loads(l) for l in (out / "report.jsonl").read_text().splitlines()]
        overall = next(r for r in rows if r.get("group") == "Overall")
        assert overall["n_pairs"] == 30  # every pair tested exactly once

    @pytest.mark.parametrize("folds", ["0", "3"])
    @pytest.mark.parametrize("direction", ["tg2fa", "fa2tg"])
    def test_pipeline_equals_its_stages(self, tmp_path, direction, folds):
        """Each block's models and hypotheses are what the stage commands make of its own files."""
        pairs = toy_corpus(20, dataset="Masnavi") + toy_corpus(20, seed=8, dataset="Places")
        corpus = write_corpus(tmp_path / "c.jsonl", pairs)
        run = tmp_path / "run"
        argv = ["pipeline", "--corpus", str(corpus), "--direction", direction, "--folds", folds, "--out", str(run)]
        result = run_cli(argv)
        assert result.exit_code == 0, result.output
        blocks = [run] if folds == "0" else [run / f"fold{i:02d}" for i in range(int(folds))]
        for block in blocks:
            stage = tmp_path / "stages" / block.name
            stage.mkdir(parents=True)
            train = ["--corpus", str(block / "train.jsonl"), "--direction", direction]
            for argv in (
                ["build-dict", *train, "--out", str(stage / "dict.json")],
                ["train-lm", *train, "--out", str(stage / "lm.json")],
                ["translit", "--direction", direction, "--dict", str(stage / "dict.json"),
                 "--lm", str(stage / "lm.json"), "--assume-normalized",
                 "-i", str(block / "test.src.txt"), "-o", str(stage / "test.hyp.txt")],
            ):
                stage_result = run_cli(argv)
                assert stage_result.exit_code == 0, stage_result.output
            for name in ("dict.json", "lm.json", "test.hyp.txt"):
                assert (stage / name).read_bytes() == (block / name).read_bytes(), f"{block.name}/{name}"

        # Scoring the blocks' test sets, joined in block order, gives the run's report rows.
        joined, hyp = tmp_path / "test.jsonl", tmp_path / "hyp.txt"
        joined.write_bytes(b"".join((block / "test.jsonl").read_bytes() for block in blocks))
        hyp.write_bytes(b"".join((block / "test.hyp.txt").read_bytes() for block in blocks))
        scored = run_cli(["score", "--corpus", str(joined), "--hyp", str(hyp), "--direction", direction])
        assert scored.exit_code == 0, scored.output

        def rows(text: str) -> list[str]:
            return [line for line in text.splitlines() if not line.startswith("#")]

        assert rows(scored.output) == rows((run / "report.txt").read_text(encoding="utf-8"))
        assert len(rows(scored.output)) == 4  # header, two domains, Overall

    def test_pipeline_normalizes_each_text_once(self, tmp_path, monkeypatch):
        from tgfa import script

        n_pairs = 30
        corpus = write_corpus(tmp_path / "c.jsonl", toy_corpus(n_pairs))
        calls: Counter = Counter()
        original = script.normalize_text

        def counted(text, script_, mode, table=None):
            calls[script.NormMode(mode)] += 1
            return original(text, script_, mode, table)

        for name, module in list(sys.modules.items()):
            if name == "tgfa" or name.startswith("tgfa."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        result = run_cli(
            ["pipeline", "--corpus", str(corpus), "--direction", "tg2fa",
             "--folds", "3", "--out", str(tmp_path / "run")],
        )
        assert result.exit_code == 0, result.output
        # Both sides of each pair at load; then, in eval mode, every pair's
        # reference and hypothesis once, since each pair is tested once.
        assert calls == {script.NormMode.TRAIN: 2 * n_pairs, script.NormMode.EVAL: 2 * n_pairs}

    def test_report_prints_score_table_unchanged(self, tmp_path):
        """A group label holding U+2028 stays on its line, as in the table score writes."""
        pairs = toy_corpus(4, dataset="Blog\u2028Two")
        corpus = write_corpus(tmp_path / "c.jsonl", pairs)
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("".join(p.fa + "\n" for p in pairs), encoding="utf-8")
        out = tmp_path / "scores"
        scored = run_cli(
            ["score", "--corpus", str(corpus), "--hyp", str(hyp), "--direction", "tg2fa", "--out", str(out)],
        )
        assert scored.exit_code == 0, scored.output
        result = run_cli(["report", "--scores", str(out / "hyp.scores.jsonl")])
        assert result.exit_code == 0, result.output
        assert "Blog\u2028Two" in result.output
        assert result.output == (out / "report.txt").read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "names", [("first", "neither", "second"), ("first", "second", "neither")], ids=["path-order", "other-order"]
    )
    def test_report_prints_three_system_score_table_unchanged(self, corpus_file, tmp_path, names):
        """report over each score file of one `score --out` run prints its report.txt, best-value marks included.

        The one difference: a score file's meta holds the inputs sorted by
        path, and score's table lists them in argument order.
        """
        refs = TestScore()._refs(corpus_file)
        half = len(refs) // 2
        hyps = {
            "first": refs[:half] + ["خطا"] * (len(refs) - half),
            "second": ["خطا"] * half + refs[half:],
            "neither": ["خطا"] * len(refs),
        }
        argv = ["score", "--corpus", str(corpus_file), "--direction", "tg2fa", "--out", str(tmp_path / "scores")]
        for name in names:
            (tmp_path / f"{name}.txt").write_text("".join(line + "\n" for line in hyps[name]), encoding="utf-8")
            argv += ["--hyp", str(tmp_path / f"{name}.txt")]
        assert run_cli(argv).exit_code == 0
        scores = [arg for name in names for arg in ("--scores", str(tmp_path / "scores" / f"{name}.scores.jsonl"))]
        result = run_cli(["report", *scores])
        assert result.exit_code == 0, result.output
        table = (tmp_path / "scores" / "report.txt").read_text(encoding="utf-8").splitlines(keepends=True)
        assert sum(line.count("*") for line in table) > 6 * 5  # one mark per group and metric, and some ties
        inputs = [line for line in table if line.startswith("# input ")]
        assert result.output == "".join([table[0], *sorted(inputs), *table[1 + len(inputs) :]])

    def test_report_merges_files_of_different_groups(self, tmp_path):
        """A group one file lacks shows ``-`` for its system, and N comes from the first file that has it."""
        corpora = {
            "one": toy_corpus(3, dataset="Masnavi") + toy_corpus(2, seed=8, dataset="Places"),
            "two": toy_corpus(4, seed=9, dataset="Dr Blog") + toy_corpus(1, seed=10, dataset="Places")
            + toy_corpus(1, seed=11, dataset="Dr Blog"),
        }
        for name, pairs in corpora.items():
            corpus = write_corpus(tmp_path / f"{name}.jsonl", pairs)
            (tmp_path / f"{name}.txt").write_text("".join(p.fa + "\n" for p in pairs), encoding="utf-8")
            scored = run_cli(["score", "--corpus", str(corpus), "--hyp", str(tmp_path / f"{name}.txt"),
                              "--direction", "tg2fa", "--out", str(tmp_path / name)])
            assert scored.exit_code == 0, scored.output
        result = run_cli(["report", "--scores", str(tmp_path / "one" / "one.scores.jsonl"),
                          "--scores", str(tmp_path / "two" / "two.scores.jsonl")])
        assert result.exit_code == 0, result.output
        meta, meta_two = ([line for line in (tmp_path / name / "report.txt").read_text(encoding="utf-8").splitlines()
                           if line.startswith("#")] for name in corpora)
        # Each run's header lines, in file order.
        assert result.output.splitlines() == meta + meta_two + [
            "Group    N  chrF[one]  chrF[two]  chrF++[one]  chrF++[two]  CER[one]  CER[two]  NCER[one]  NCER[two]"
            "  Acc%[one]  Acc%[two]  Acc%NoWS[one]  Acc%NoWS[two]",
            "poetry   3    100.00*          -      100.00*            -     0.00*         -      0.00*          -"
            "    100.00*          -        100.00*              -",
            "names    2    100.00*    100.00*      100.00*      100.00*     0.00*     0.00*      0.00*      0.00*"
            "    100.00*    100.00*        100.00*        100.00*",
            "prose    5          -    100.00*            -      100.00*         -     0.00*          -      0.00*"
            "          -    100.00*              -        100.00*",
            "Overall  5    100.00*    100.00*      100.00*      100.00*     0.00*     0.00*      0.00*      0.00*"
            "    100.00*    100.00*        100.00*        100.00*",
        ]
        # One system: no marks, and no system name in the header.
        single = run_cli(["report", "--scores", str(tmp_path / "one" / "one.scores.jsonl")])
        assert single.output.splitlines() == meta + [
            "Group    N    chrF  chrF++   CER  NCER    Acc%  Acc%NoWS",
            "poetry   3  100.00  100.00  0.00  0.00  100.00    100.00",
            "names    2  100.00  100.00  0.00  0.00  100.00    100.00",
            "Overall  5  100.00  100.00  0.00  0.00  100.00    100.00",
        ]

    def test_report_merges_systems(self, corpus_file, tmp_path):
        refs = TestScore()._refs(corpus_file)
        hyp = tmp_path / "sys1.txt"
        hyp.write_text("".join(line + "\n" for line in refs), encoding="utf-8")
        out = tmp_path / "scores"
        run_cli(
            ["score", "--corpus", str(corpus_file), "--hyp", str(hyp),
             "--direction", "tg2fa", "--out", str(out)],
        )
        result = run_cli(
            ["report", "--scores", str(out / "sys1.scores.jsonl")]
        )
        assert result.exit_code == 0
        assert "Overall" in result.output
        assert "100.00" in result.output


# Every command and each of its flags, short and long.
SURFACE = {
    "normalize": ["--script", "--mode", "--char-table", "-i", "--input", "-o", "--output"],
    "tokenize": ["-i", "--input", "-o", "--output"],
    "detokenize": ["-i", "--input", "-o", "--output"],
    "stats": ["--corpus", "--per", "--format", "-o", "--output"],
    "split": ["--corpus", "--seed", "--ratios", "--out"],
    "kfold": ["--corpus", "--k", "--seed", "--out"],
    "filter-names": ["--corpus", "--map", "--count-based", "--out"],
    "build-dict": ["--corpus", "--direction", "--out"],
    "train-lm": ["--corpus", "--direction", "--lm-order", "--smoothing", "--out"],
    "translit": ["--direction", "--table", "--dict", "--lm", "--beam", "--assume-normalized", "--ambiguity-stats",
                 "-i", "--input", "-o", "--output"],
    "score": ["--corpus", "--hyp", "--direction", "--sentence-chrf", "--format", "--out"],
    "pipeline": ["--corpus", "--direction", "--seed", "--beam", "--lm-order", "--folds", "--out"],
    "report": ["--scores", "-o", "--output"],
}


def _names(word: str, text: str) -> bool:
    """Whether ``text`` holds ``word`` as a whole flag or command name: ``--out`` is not in ``--output``."""
    return re.search(rf"(?<![\w-]){re.escape(word)}(?![\w-])", text) is not None


class TestSurface:
    def test_version(self):
        result = run_cli(["--version"])
        assert result.exit_code == 0, result.output
        assert result.output == f"tgfa, version {tgfa.__version__}\n"

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_group_help_names_every_command(self, flag):
        result = run_cli([flag])
        assert result.exit_code == 0, result.output
        for command in SURFACE:
            assert _names(command, result.output), command

    @pytest.mark.parametrize("command", list(SURFACE))
    def test_command_help_names_every_flag(self, command):
        for flag in ("-h", "--help"):
            result = run_cli([command, flag])
            assert result.exit_code == 0, result.output
            for name in SURFACE[command]:
                assert _names(name, result.output), (command, name)

    @pytest.mark.parametrize("argv", [[], ["no-such-command"]], ids=["no-command", "unknown-command"])
    def test_missing_or_unknown_command_is_a_usage_error(self, argv):
        result = run_cli(argv)
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["tokenize", "--no-such-flag"], "--no-such-flag"),
            (["translit", "--direction", "tg2fa", "--no-such-flag"], "--no-such-flag"),
            # No flag may be abbreviated.
            (["translit", "--direction", "tg2fa", "--bea", "3"], "--bea"),
            (["tokenize", "--output", "-", "--out", "x"], "--out"),
            # An unknown flag is named before a missing required option (--scores).
            (["report", "--out", "x"], "--out"),
        ],
        ids=["tokenize", "translit", "abbreviated", "prefix-of-another", "before-missing-required"],
    )
    def test_unknown_flag_is_a_usage_error_naming_it(self, argv, flag):
        result = run_cli(argv, input="бғд\n")
        assert result.exit_code == 2, result.output
        assert _names(flag, result.output), result.output

    def test_bad_value_beside_an_unknown_flag_is_reported_with_the_command_usage(self, tmp_path):
        # The bad value is named first, and the usage line still shows the required options as required.
        result = run_cli(["split", "--ratios", "0.5,0.6", "--no-such-flag", "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("usage: tgfa split [-h] --corpus CORPUS"), result.output
        assert _names("--ratios", result.output) and not _names("--no-such-flag", result.output), result.output


# Each option that names a file which must exist, as (command, long flag).
MUST_EXIST = [(command, flags[-1]) for command, (_, options) in COMMANDS.items()
              for flags, kwargs in options if kwargs.get("type") is _existing_file]


def _required_args(command: str, skip: str, existing: Path, out: Path) -> list[str]:
    """Valid values for each required option of ``command`` but ``skip``."""
    by_type = {_existing_file: str(existing), _direction: "tg2fa"}
    args = []
    for flags, kwargs in COMMANDS[command][1]:
        if kwargs.get("required") and flags[-1] != skip:
            value = kwargs["choices"][0] if "choices" in kwargs else by_type.get(kwargs.get("type"), str(out))
            args += [flags[-1], value]
    return args


class TestEnvironment:
    """Each option's TGFA_<COMMAND>_<FLAG> variable, named after its long flag."""

    def test_table_holds_every_flag(self):
        table = {name: [flag for flags, _ in options for flag in flags] for name, (_, options) in COMMANDS.items()}
        assert table == SURFACE

    @pytest.mark.parametrize("command,flag", MUST_EXIST, ids=[f"{c}-{f}" for c, f in MUST_EXIST])
    def test_missing_file_from_variable_rejected_before_work(self, tmp_path, command, flag):
        existing, out = tmp_path / "exists.txt", tmp_path / "out"
        existing.write_text("x\n", encoding="utf-8")
        result = run_cli([command, *_required_args(command, flag, existing, out)], input="бғд\n",
                         env={env_var(command, flag): str(tmp_path / "missing.txt")})
        assert result.exit_code == 2, result.output
        assert _names(flag, result.output), result.output
        assert "missing.txt" in result.output
        assert not out.exists()

    def test_help_reads_no_variable(self):
        env = {"TGFA_TRANSLIT_BEAM": "0", "TGFA_TRANSLIT_ASSUME_NORMALIZED": "maybe"}
        result = run_cli(["translit", "-h"], env=env)
        assert result.exit_code == 0, result.output
        assert _names("--beam", result.output)

    def test_input_from_variable(self, tmp_path):
        source = tmp_path / "in.txt"
        source.write_text("бғд\n", encoding="utf-8")
        result = run_cli(["translit", "--direction", "tg2fa"], env={"TGFA_TRANSLIT_INPUT": str(source)})
        assert result.exit_code == 0, result.output
        assert result.output == "بغد\n"

    @pytest.mark.parametrize(
        "argv,env",
        [
            pytest.param(["translit", "--direction", "tg2fa", "--beam", "4"], {"TGFA_TRANSLIT_BEAM": "0"},
                         id="out-of-range-variable"),
            pytest.param(["translit", "--direction", "tg2fa", "--ambiguity-stats"],
                         {"TGFA_TRANSLIT_AMBIGUITY_STATS": "maybe"}, id="non-boolean-variable"),
        ],
    )
    def test_variable_of_a_given_flag_is_not_read(self, argv, env):
        alone = run_cli(argv, input="бғд\n")
        result = run_cli(argv, input="бғд\n", env=env)
        assert result.exit_code == alone.exit_code == 0, result.output
        assert result.output == alone.output

    def test_repeatable_variable_split_on_whitespace_unless_the_flag_is_given(self, corpus_file, tmp_path):
        hyps = [tmp_path / f"{name}.txt" for name in ("one", "two", "three")]
        for hyp in hyps:
            hyp.write_text("x\n" * 24, encoding="utf-8")
        argv = ["score", "--corpus", str(corpus_file), "--direction", "tg2fa"]
        env = {"TGFA_SCORE_HYP": f" {hyps[0]}  {hyps[1]}\n"}
        both = run_cli(argv, env=env)
        assert both.exit_code == 0, both.output
        assert "chrF[one]" in both.output and "chrF[two]" in both.output
        # The table's meta lines name every input file.
        given = run_cli([*argv, "--hyp", str(hyps[2])], env=env)
        assert given.exit_code == 0, given.output
        assert f"# input {hyps[2]} " in given.output and str(hyps[0]) not in given.output


# Each option that names a file to write, as (command, long flag): every -o, and every --out that is a file.
OUTPUT_FILES = [(command, flags[-1]) for command, (_, options) in COMMANDS.items()
                for flags, kwargs in options if "-o" in flags or kwargs.get("type") is _file_path]

# Each option that names a path, as (command, long flag): a file to read or write, or a run directory.
PATH_FLAGS = [(command, flags[-1]) for command, (_, options) in COMMANDS.items()
              for flags, kwargs in options if kwargs.get("type") in (_existing_file, _file_path, _dir_path)]

# Each option whose value is checked and is not a path, as (command, long flag): numbers, ranges and choices.
BOUNDED = [(command, flags[-1]) for command, (_, options) in COMMANDS.items() for flags, kwargs in options
           if "choices" in kwargs or kwargs.get("type") not in (None, _existing_file, _file_path, _dir_path)]

# Values that no such option takes, by row id: out of every choice, beyond int's digit limit, not finite.
BAD_VALUES = {"word": "x", "5000-digits": "9" * 5000, "nan": "nan", "inf": "inf", "-inf": "-inf"}

# Flag values out of range; --lm-order is at most 10.
OUT_OF_RANGE = [
    ("pipeline", "--beam", "0"),
    ("pipeline", "--lm-order", "0"),
    ("translit", "--beam", "0"),
    ("train-lm", "--lm-order", "0"),
    ("pipeline", "--folds", "1"),
    ("pipeline", "--folds", "-1"),
    ("kfold", "--k", "1"),
    ("kfold", "--k", "0"),
    ("train-lm", "--lm-order", "11"),
    ("pipeline", "--lm-order", "11"),
]


class TestFlagValidation:
    @pytest.mark.parametrize(
        "command,flag,value,env_value",
        [
            *(pytest.param(*row, None, id="-".join(row)) for row in OUT_OF_RANGE),
            # The same values, each set through its flag's variable.
            *(pytest.param(c, f, None, v, id=f"{c}-{f}-{v}-env") for c, f, v in OUT_OF_RANGE),
            # The flag wins over its variable, whose value would be valid.
            pytest.param("pipeline", "--beam", "0", "4", id="flag-beats-variable"),
            pytest.param("translit", "--ambiguity-stats", None, "maybe", id="non-boolean-variable"),
        ],
    )
    def test_out_of_range_rejected_before_work(self, corpus_file, tmp_path, command, flag, value, env_value):
        out = tmp_path / "out"
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("x\n" * 24, encoding="utf-8")
        direction = ["--direction", "tg2fa"]
        args = {
            "score": [*direction, "--corpus", str(corpus_file), "--hyp", str(hyp), "--out", str(out)],
            "pipeline": [*direction, "--corpus", str(corpus_file), "--out", str(out)],
            "translit": [*direction, "-o", str(out)],
            "train-lm": [*direction, "--corpus", str(corpus_file), "--out", str(out)],
            "kfold": ["--corpus", str(corpus_file), "--out", str(out)],
        }[command]
        argv = [command, *args] + ([flag, value] if value is not None else [])
        env = {env_var(command, flag): env_value} if env_value is not None else {}
        result = run_cli(argv, input="бғд\n", env=env)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert flag in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,flag,value,via",
        [
            *(pytest.param(c, f, value, via, id=f"{c}-{f}-{label}-{via}") for c, f in BOUNDED
              for label, value in BAD_VALUES.items() for via in ("flag", "variable")),
            # An empty variable counts as unset, so the empty value is given as the flag only.
            *(pytest.param(c, f, "", "flag", id=f"{c}-{f}-empty-flag") for c, f in BOUNDED),
        ],
    )
    def test_bad_value_rejected_before_work(self, tmp_path, command, flag, value, via):
        existing, out = tmp_path / "exists.txt", tmp_path / "out"
        existing.write_text("x\n", encoding="utf-8")
        argv = [command, *_required_args(command, flag, existing, out)]
        argv += [f"{flag}={value}"] if via == "flag" else []
        env = {env_var(command, flag): value} if via == "variable" else {}
        result = run_cli(argv, input="бғд\n", env=env)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert _names(flag, result.output), result.output
        assert not result.stdin_read
        assert [p.name for p in tmp_path.iterdir()] == ["exists.txt"]

    def test_out_of_range_has_every_bounded_integer(self):
        """Each option that takes an integer between bounds has an out-of-range row."""
        bounded = {(command, flags[-1]) for command, (_, options) in COMMANDS.items() for flags, kwargs in options
                   if kwargs.get("type") not in (None, int) and kwargs["type"].__qualname__.startswith(
                       ("_int_range.", "_fold_count"))}
        assert bounded == {(command, flag) for command, flag, _ in OUT_OF_RANGE}

    @pytest.mark.parametrize(
        "name,via",
        # The empty path is ".", a directory; an empty variable counts as unset, so it is given as the flag only.
        [("k" * 256, "flag"), ("k" * 256, "variable"), ("", "flag")],
        ids=["too-long-flag", "too-long-variable", "empty-flag"],
    )
    @pytest.mark.parametrize("command,flag", PATH_FLAGS, ids=[f"{c}-{f}" for c, f in PATH_FLAGS])
    def test_path_that_names_no_usable_file_rejected_before_work(self, tmp_path, command, flag, name, via):
        existing, out = tmp_path / "exists.txt", tmp_path / "out"
        existing.write_text("x\n", encoding="utf-8")
        target = str(tmp_path / name) if name else ""
        argv = [command, *_required_args(command, flag, existing, out)]
        argv += [flag, target] if via == "flag" else []
        env = {env_var(command, flag): target} if via == "variable" else {}
        result = run_cli(argv, input="бғд\n", env=env)
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        assert _names(flag, result.output), result.output
        assert not name or "File name too long" in result.output, result.output
        assert [p.name for p in tmp_path.iterdir()] == ["exists.txt"]
        assert not result.stdin_read

    @pytest.mark.parametrize("length", [245, 255])
    def test_run_directory_with_a_long_name(self, corpus_file, tmp_path, length):
        # The directory is built aside under a name whose length does not depend on its own.
        out = tmp_path / ("k" * length)
        result = run_cli(["kfold", "--corpus", str(corpus_file), "--k", "2", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert [p.name for p in out.iterdir()] == ["folds.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["corpus.jsonl", out.name])

    @pytest.mark.parametrize("left", [1, 2])
    @pytest.mark.parametrize("command", ["kfold", "pipeline"])
    def test_run_directory_beside_ones_left_by_a_killed_process(self, corpus_file, tmp_path, command, left):
        # Killed processes with this pid left run directories, each with a file in it.
        stale = [tmp_path / f".tgfa.{os.getpid()}.{suffix}" for suffix in ["dir", "1.dir"][:left]]
        for directory in stale:
            directory.mkdir()
            (directory / "partial.txt").write_text("left\n", encoding="utf-8")
        out = tmp_path / "run"
        argv = {"kfold": ["kfold", "--corpus", str(corpus_file), "--k", "2", "--out", str(out)],
                "pipeline": ["pipeline", "--corpus", str(corpus_file), "--direction", "tg2fa", "--folds", "2",
                             "--out", str(out)]}
        result = run_cli(argv[command])
        assert result.exit_code == 0, result.output
        assert (out / ("folds.json" if command == "kfold" else "fold01/test.hyp.txt")).is_file()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["corpus.jsonl", "run", *(d.name for d in stale)])
        for directory in stale:
            assert [p.name for p in directory.iterdir()] == ["partial.txt"]
            assert (directory / "partial.txt").read_text(encoding="utf-8") == "left\n"

    def test_kfold_k_rejected_before_corpus_is_read(self, tmp_path):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_bytes(b"not json at all\n")
        result = run_cli(["kfold", "--corpus", str(corpus), "--k", "1", "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "--k" in result.output
        assert "invalid JSON" not in result.output

    @pytest.mark.parametrize("folds", ["0", "2"])
    def test_pipeline_too_small_corpus_leaves_no_run_directory(self, tmp_path, folds):
        corpus = write_corpus(tmp_path / "one.jsonl", toy_corpus(1))
        out = tmp_path / "p1"
        result = run_cli(
            ["pipeline", "--corpus", str(corpus), "--direction", "tg2fa", "--folds", folds, "--out", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "split: " in result.output
        assert not out.exists()

    def test_pipeline_failed_stage_removes_only_a_run_directory_it_created(self, tmp_path, monkeypatch):
        # Without its fa2tg table row, U+0671 (alef wasla) is an inventory
        # gap, so the translit stage fails after the split and the first artifacts.
        default_table = translit.default_mapping_table

        def table_without_wasla(name):
            table = default_table(name)
            return MappingTable(table.direction, {c: v for c, v in table.entries.items() if c != "\u0671"})

        monkeypatch.setattr(translit, "default_mapping_table", table_without_wasla)
        pairs = toy_corpus(10)
        pairs[3] = ParallelPair(fa="\u0671" + pairs[3].fa, tg=pairs[3].tg, dataset=pairs[3].dataset)
        corpus = write_corpus(tmp_path / "gap.jsonl", pairs)
        out = tmp_path / "run"
        argv = ["pipeline", "--corpus", str(corpus), "--direction", "fa2tg", "--folds", "2", "--out", str(out)]
        result = run_cli(argv)
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert "translit: " in result.output and "(U+0671)" in result.output
        assert f"{out / 'fold01' / 'test.src.txt'}: line " in result.output  # named as in the finished run
        assert not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gap.jsonl"]  # no temporary sibling either

        # A run directory that holds anything is refused before any work.
        out.mkdir()
        (out / "keep.txt").write_text("mine\n", encoding="utf-8")
        result = run_cli(argv)
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        assert _names("--out", result.output) and "is not empty" in result.output, result.output
        assert [p.name for p in out.iterdir()] == ["keep.txt"]
        assert (out / "keep.txt").read_text(encoding="utf-8") == "mine\n"

    @pytest.mark.parametrize("parent", ["missing", "exists.txt"])
    @pytest.mark.parametrize("via", ["flag", "variable"])
    @pytest.mark.parametrize("command,flag", OUTPUT_FILES, ids=[f"{c}-{f}" for c, f in OUTPUT_FILES])
    def test_output_outside_an_existing_directory_rejected_before_work(self, tmp_path, command, flag, via, parent):
        existing = tmp_path / "exists.txt"
        existing.write_text("x\n", encoding="utf-8")
        target = str(tmp_path / parent / "out.txt")
        argv = [command, *_required_args(command, flag, existing, tmp_path / "out")]
        argv += [flag, target] if via == "flag" else []
        env = {env_var(command, flag): target} if via == "variable" else {}
        result = run_cli(argv, input="бғд\n", env=env)
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        assert _names(flag, result.output) and "is not in an existing directory" in result.output, result.output
        assert [p.name for p in tmp_path.iterdir()] == ["exists.txt"]
        assert not result.stdin_read

    def test_split_into_a_directory_where_a_subset_file_goes(self, corpus_file, tmp_path):
        out = tmp_path / "sp"
        (out / "train.jsonl").mkdir(parents=True)
        result = run_cli(["split", "--corpus", str(corpus_file), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        assert _names("--out", result.output) and "is not empty" in result.output, result.output
        assert [p.name for p in out.iterdir()] == ["train.jsonl"]
        assert not any((out / "train.jsonl").iterdir())

    def test_pipeline_into_a_run_directory_where_a_fold_directory_is_a_file(self, corpus_file, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "fold01").write_text("mine\n", encoding="utf-8")
        argv = ["pipeline", "--corpus", str(corpus_file), "--direction", "tg2fa", "--folds", "2", "--out", str(out)]
        result = run_cli(argv)
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        assert _names("--out", result.output) and "is not empty" in result.output, result.output
        assert [p.name for p in out.iterdir()] == ["fold01"]
        assert (out / "fold01").read_text(encoding="utf-8") == "mine\n"

    def test_pipeline_into_an_earlier_run_is_refused_and_leaves_it_unchanged(self, corpus_file, tmp_path):
        out = tmp_path / "run"
        argv = ["pipeline", "--corpus", str(corpus_file), "--direction", "tg2fa", "--out", str(out)]
        assert run_cli([*argv, "--folds", "3"]).exit_code == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        result = run_cli([*argv, "--folds", "2"])
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        assert _names("--out", result.output) and "is not empty" in result.output, result.output
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "run"]

    def test_nameless_run_directory_rejected_before_work(self, corpus_file, tmp_path, monkeypatch):
        empty = tmp_path / "empty"
        empty.mkdir()
        monkeypatch.chdir(empty)
        result = run_cli(["kfold", "--corpus", str(corpus_file), "--out", "."])
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        assert _names("--out", result.output) and "has no name" in result.output, result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "empty"]
        assert not any(empty.iterdir())

    def test_split_that_cannot_write_a_subset_leaves_no_output(self, corpus_file, tmp_path, monkeypatch):
        from tgfa import corpus as corpus_mod

        save = corpus_mod.save

        def save_but_train(pairs, path):
            if Path(path).name == "train.jsonl":
                raise IsADirectoryError(21, "Is a directory", str(path))
            save(pairs, path)

        monkeypatch.setattr(corpus_mod, "save", save_but_train)
        out = tmp_path / "sp"
        result = run_cli(["split", "--corpus", str(corpus_file), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        assert "train.jsonl: Is a directory" in result.output, result.output
        assert not (out / "split.json").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl"]

    def test_pipeline_interrupted_in_a_fold_leaves_no_temporary_directory(self, corpus_file, tmp_path, monkeypatch):
        save_lm = translit.save_lm
        calls = []

        def interrupted_second(lm, path):
            calls.append(path)
            if len(calls) == 2:
                raise KeyboardInterrupt
            save_lm(lm, path)

        monkeypatch.setattr(translit, "save_lm", interrupted_second)
        out = tmp_path / "run"
        with pytest.raises(KeyboardInterrupt):
            run_cli(["pipeline", "--corpus", str(corpus_file), "--direction", "tg2fa", "--folds", "2",
                     "--out", str(out)])
        assert len(calls) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl"]

    def test_train_lm_interrupted_keeps_the_old_model(self, corpus_file, tmp_path, monkeypatch):
        out = tmp_path / "lm.json"
        out.write_bytes(b"old model\n")

        def interrupted(iterable, n):
            raise KeyboardInterrupt

        # The first chunk is written; the first block of contexts never comes.
        monkeypatch.setattr(translit, "islice", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_cli(["train-lm", "--corpus", str(corpus_file), "--direction", "tg2fa", "--out", str(out)])
        assert out.read_bytes() == b"old model\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "lm.json"]

    def test_translit_to_dev_null(self):
        result = run_cli(["translit", "--direction", "tg2fa", "-o", os.devnull], input="бғд\n")
        assert result.exit_code == 0, result.output
        assert result.output == ""

    @pytest.mark.parametrize(
        "ratios,via",
        [
            *(pytest.param(r, "flag", id=r) for r in ["0.5,0.5,0.5", "0.8,0.3,-0.1", "0.5,0.5", "a,b,c"]),
            # Non-finite shares, first and last, as the flag and as TGFA_SPLIT_RATIOS.
            *(pytest.param(r, via, id=f"{r}-{via}")
              for value in ("nan", "inf", "-inf") for r in (f"{value},0.5,0.5", f"0.5,0.5,{value}")
              for via in ("flag", "variable")),
        ],
    )
    def test_split_ratios_rejected_before_work(self, corpus_file, tmp_path, ratios, via):
        out = tmp_path / "out"
        argv = ["split", "--corpus", str(corpus_file), "--out", str(out)]
        result = run_cli(
            [*argv, "--ratios", ratios] if via == "flag" else argv,
            env={env_var("split", "--ratios"): ratios} if via == "variable" else {},
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "--ratios" in result.output
        assert not out.exists()


# A meta field left out of the row.
_DROP = object()


class TestReportErrors:
    GOOD_ROW = {
        "system": "s", "group": "Overall", "n_pairs": 3,
        "chrf": 1.0, "chrf_pp": 1.0, "cer": 0.0, "ncer": 0.0, "acc": 100.0, "acc_no_ws": 100.0,
    }
    GOOD_META = {"tool": "tgfa", "version": "0", "seed": None, "config_hash": "ab" * 32, "inputs": {"c.jsonl": "cd" * 32}}

    @pytest.mark.parametrize(
        "bad_line,reason",
        [
            ('{"group": "poetry", ', "invalid JSON"),
            ("[1, 2, 3]", "expected a JSON object"),
            (json.dumps({k: v for k, v in GOOD_ROW.items() if k != "group"}), "missing field 'group'"),
            (json.dumps({k: v for k, v in GOOD_ROW.items() if k != "ncer"}), "missing field 'ncer'"),
            (json.dumps({**GOOD_ROW, "chrf": "high"}), "field 'chrf' is not a number"),
            (json.dumps({**GOOD_ROW, "system": ["s"]}), "field 'system' is not a string"),
            (json.dumps({**GOOD_ROW, "group": 5}), "field 'group' is not a string"),
            (json.dumps({"meta": "v1"}), "field 'meta' is not an object"),
            (json.dumps({**GOOD_ROW, "n_pairs": True}), "field 'n_pairs' is not an integer"),
            (json.dumps({**GOOD_ROW, "n_pairs": -5}), "field 'n_pairs' is not an integer >= 1"),
            (json.dumps({**GOOD_ROW, "n_pairs": 0}), "field 'n_pairs' is not an integer >= 1"),
            (json.dumps({**GOOD_ROW, "cer": -1}), "field 'cer' is not a finite number >= 0"),
            (json.dumps({**GOOD_ROW, "acc": 250}), "field 'acc' is not a number in [0, 100]"),
            (json.dumps({**GOOD_ROW, "chrf": -0.5}), "field 'chrf' is not a number in [0, 100]"),
            (json.dumps({**GOOD_ROW, "ncer": 1e300}).replace("1e+300", "1e999"),
             "field 'ncer' is not a finite number >= 0"),
            (json.dumps({**GOOD_ROW, "chrf_pp": 1e300}).replace("1e+300", "1e999"),
             "field 'chrf_pp' is not a number in [0, 100]"),
            (json.dumps({**GOOD_ROW, "acc_no_ws": float("-inf")}), "invalid JSON (-Infinity is not a JSON number)"),
        ],
        ids=["bad-json", "not-an-object", "no-group", "no-metric", "non-numeric-metric",
             "system-list", "group-number", "meta-string", "n-pairs-bool", "n-pairs-negative",
             "n-pairs-zero", "cer-negative", "acc-over-100", "chrf-negative", "ncer-overflow",
             "chrf-pp-overflow", "minus-infinity"],
    )
    def test_malformed_row_is_parse_error(self, tmp_path, bad_line, reason):
        path = tmp_path / "s.scores.jsonl"
        lines = [json.dumps({"meta": self.GOOD_META}), json.dumps(self.GOOD_ROW), "", bad_line]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = run_cli(["report", "--scores", str(path)])
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"{path}: line 4: {reason}" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "rows,reason",
        [
            ((("poetry", "A"), ("prose", "B"), ("Overall", "A")), "line 3: rows name two systems, 'A' and 'B'"),
            ((("poetry", "s"), ("poetry", "s"), ("Overall", "s")), "line 3: a second row for group 'poetry'"),
            ((("poetry", "s"), ("Overall", "s"), ("Overall", "s")), "line 4: a second row for group 'Overall'"),
        ],
        ids=["two-systems", "repeated-group", "repeated-overall"],
    )
    def test_rows_that_cannot_merge_are_parse_errors(self, tmp_path, rows, reason):
        """A file holds one system's rows, one per group: report refuses, not merges, any other."""
        path = tmp_path / "s.scores.jsonl"
        lines = [{"meta": self.GOOD_META}, *({**self.GOOD_ROW, "group": g, "system": name} for g, name in rows)]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        result = run_cli(["report", "--scores", str(path)])
        assert result.exit_code == 3, result.output
        assert f"{path}: {reason}" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "key,value,reason",
        [
            ("version", _DROP, "missing field 'meta.version'"),
            ("seed", _DROP, "missing field 'meta.seed'"),
            ("config_hash", _DROP, "missing field 'meta.config_hash'"),
            ("inputs", _DROP, "missing field 'meta.inputs'"),
            ("version", 0, "field 'meta.version' is not a string"),
            ("seed", "1", "field 'meta.seed' is not an integer or null"),
            ("seed", True, "field 'meta.seed' is not an integer or null"),
            ("config_hash", ["ab"], "field 'meta.config_hash' is not a string"),
            ("inputs", ["c.jsonl"], "field 'meta.inputs' is not an object of string to string"),
            ("inputs", {"c.jsonl": 7}, "field 'meta.inputs' is not an object of string to string"),
        ],
        ids=["no-version", "no-seed", "no-config-hash", "no-inputs", "version-number", "seed-string",
             "seed-bool", "config-hash-list", "inputs-list", "inputs-number"],
    )
    def test_incomplete_meta_is_parse_error(self, tmp_path, key, value, reason):
        meta = {k: v for k, v in self.GOOD_META.items() if k != key}
        if value is not _DROP:
            meta[key] = value
        path = tmp_path / "s.scores.jsonl"
        path.write_text(json.dumps(self.GOOD_ROW) + "\n" + json.dumps({"meta": meta}) + "\n", encoding="utf-8")
        result = run_cli(["report", "--scores", str(path)])
        assert result.exit_code == 3, result.output
        assert f"{path}: line 2: {reason}" in result.output
        assert "Traceback" not in result.output

    def test_complete_meta_is_printed(self, tmp_path):
        path = tmp_path / "s.scores.jsonl"
        path.write_text(json.dumps({"meta": self.GOOD_META}) + "\n" + json.dumps(self.GOOD_ROW) + "\n", encoding="utf-8")
        result = run_cli(["report", "--scores", str(path)])
        assert result.exit_code == 0, result.output
        assert "# tgfa 0  seed=None  config=abababababababab" in result.output
        assert "# input c.jsonl sha256=cdcdcdcdcdcdcdcd" in result.output

    @pytest.mark.parametrize("second", ["b/s.scores.jsonl", "a/s.scores.jsonl"], ids=["same-system", "same-file"])
    def test_duplicate_system_name_rejected(self, tmp_path, second):
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
            (tmp_path / d / "s.scores.jsonl").write_text(json.dumps(self.GOOD_ROW) + "\n", encoding="utf-8")
        first = tmp_path / "a" / "s.scores.jsonl"
        result = run_cli(["report", "--scores", str(first), "--scores", str(tmp_path / second)])
        assert result.exit_code == 2, result.output
        assert f"system name 's' is given by both {first} and {tmp_path / second}" in result.output


_GOOD_TSV = "از\tаз\n".encode()
_GOOD_JSONL = '{"fa": "از", "tg": "аз", "dataset": "Places"}\n'.encode()
_SCORE = ["score", "--corpus", "{path}", "--hyp", "{hyp}", "--direction", "tg2fa"]
_TRANSLIT = ["translit", "--direction", "tg2fa"]
_FILTER_NAMES = ["filter-names", "--corpus", "{corpus}", "--map", "{path}", "--out", "{out}"]
_LM_HEADER = {"magic": "tgfa-charlm", "version": 2}
_LM_V2 = {**_LM_HEADER, "order": 1, "smoothing": "none", "alphabet": ["\x01", "\x03", "a"],
          "counts": [[["", {"\x03": 1, "a": 1}]]]}
_LM_V1 = {**_LM_V2, "version": 1, "counts": [[[[], {"\x03": 1, "a": 1}]]]}
# A valid model of Tajik text, the target of fa2tg.
_LM_TAJIK = {**_LM_V2, "alphabet": ["\x01", "\x03", "б"], "counts": [[["", {"\x03": 1, "б": 1}]]]}
_DICT_FA2TG = {"magic": "tgfa-dict", "version": 1, "direction": "fa2tg", "skipped_pairs": 0,
               "entries": {"از": "аз"}}
_NO_DIRECTION = {k: v for k, v in _DICT_FA2TG.items() if k != "direction"}
# Entries that would make translit write other than one token per token.
_UNALIGNED_ENTRIES = {
    "empty-target": {"аз": "", "ин": "a b", "ба": "xyz"},
    "target-with-space": {"бғд": "بغ د"},
    "target-with-u2028": {"бғд": "بغ\u2028د"},
    "empty-source": {"": "بغد"},
    "source-with-tab": {"бғ\tд": "بغد"},
}
# Deeper than any JSON decoder recurses.
_NESTED = b"[" * 50_000
# A fa2tg table without a row for U+0671 (ٱ), which makes it an inventory gap.
_GAP_TABLE = "ا\tа\nز\tз\nب\tб\n"
# One row per malformed file: its name and bytes, the command that reads
# it ({path} is the file), the exit code and the message naming the file.
BAD_FILES = [
    pytest.param("bad.jsonl", b"not json at all\n", _SCORE,
                 3, "{path}: line 1: invalid JSON", id="corpus-bad-json"),
    pytest.param("bad.jsonl", b'{"fa": "\xff", "tg": "x"}\n', _SCORE,
                 3, "{path}: line 1: not valid UTF-8 (byte 0xFF)", id="corpus-not-utf8"),
    pytest.param("bad.tsv", _GOOD_TSV + b"\xd8\ta\n", ["stats", "--corpus", "{path}"],
                 3, "{path}: line 2: not valid UTF-8 (byte 0xD8)", id="tsv-not-utf8"),
    pytest.param("bad.tsv", _GOOD_TSV * 3 + b"\xc0\xaf\ta\n",
                 ["pipeline", "--corpus", "{path}", "--direction", "tg2fa", "--out", "{out}"],
                 3, "{path}: line 4: not valid UTF-8 (byte 0xC0)", id="pipeline-not-utf8"),
    # A dataset with no registered domain is its own group, here one named as the pooled row.
    pytest.param("overall.jsonl", ParallelPair(fa="از", tg="аз", dataset="Overall").jsonl_line.encode(),
                 [*_SCORE, "--out", "{out}"],
                 2, "{path}: group label 'Overall' is reserved for the pooled row", id="score-overall-group"),
    pytest.param("overall.jsonl",
                 "".join(p.jsonl_line for p in toy_corpus(6, dataset="Overall") + toy_corpus(6, 8, "Places")).encode(),
                 ["pipeline", "--corpus", "{path}", "--direction", "tg2fa", "--folds", "2", "--out", "{out}"],
                 2, "score: group label 'Overall' is reserved for the pooled row", id="pipeline-overall-group"),
    pytest.param("s.scores.jsonl",
                 json.dumps({**TestReportErrors.GOOD_ROW, "group": "poetry"}).encode(),
                 ["report", "--scores", "{path}"],
                 3, "{path}: no Overall row found", id="report-no-overall"),
    pytest.param("lm.json", b"[1, 2]", [*_TRANSLIT, "--lm", "{path}"],
                 3, "{path}: not a valid model file: expected a JSON object", id="lm-not-object"),
    pytest.param("dict.json", b"[1, 2]", [*_TRANSLIT, "--dict", "{path}"],
                 3, "{path}: not a valid dictionary file: expected a JSON object", id="dict-not-object"),
    pytest.param("lm.json", json.dumps(_LM_HEADER).encode(), [*_TRANSLIT, "--lm", "{path}"],
                 3, "{path}: missing field 'order'", id="lm-header-only"),
    pytest.param("lm.json", json.dumps({**_LM_V2, "order": 0}).encode(), [*_TRANSLIT, "--lm", "{path}"],
                 3, "{path}: field 'order' must be >= 1, got 0", id="lm-order-0"),
    pytest.param("lm.json", json.dumps(_LM_V1).encode(), [*_TRANSLIT, "--lm", "{path}"],
                 3, "{path}: unsupported format version 1, expected 2; remake the file with `tgfa train-lm`",
                 id="lm-version-1"),
    pytest.param("lm.json", json.dumps({**_LM_V2, "counts": [[["", {"a": 1, "\x03": 1}]]]}).encode(),
                 [*_TRANSLIT, "--lm", "{path}"],
                 3, "{path}: field 'counts' must be a list of 1 levels", id="lm-unsorted"),
    pytest.param("lm.json", json.dumps({**_LM_V2, "smoothing": "witten_bell", "alphabet": ["\x01", "\x03"]}).encode(),
                 [*_TRANSLIT, "--lm", "{path}"],
                 3, "{path}: field 'alphabet' lacks 'a', counted in level 0 context ''", id="lm-alphabet-missing"),
    pytest.param("lm.json", json.dumps({**_LM_V2, "alphabet": ["\x01", "\x03", "a", "b"]}).encode(),
                 [*_TRANSLIT, "--lm", "{path}"],
                 3, "{path}: field 'alphabet' must be the end sentinel, the unknown bucket and the characters "
                 "counted in context ''", id="lm-alphabet-extra"),
    pytest.param("lm.json", json.dumps(_LM_TAJIK).encode(), [*_TRANSLIT, "--lm", "{path}"],
                 2, "{path}: model alphabet holds no Farsi letter, but --direction tg2fa writes Farsi",
                 id="lm-wrong-script"),
    pytest.param("dict.json", json.dumps(_NO_DIRECTION).encode(), [*_TRANSLIT, "--dict", "{path}"],
                 3, "{path}: missing field 'direction'", id="dict-no-direction"),
    pytest.param("dict.json", json.dumps(_DICT_FA2TG).encode(), [*_TRANSLIT, "--dict", "{path}"],
                 2, "{path}: dictionary direction is fa2tg, but --direction is tg2fa",
                 id="dict-wrong-direction"),
    *(pytest.param("dict.json", json.dumps({**_DICT_FA2TG, "direction": "tg2fa", "entries": entries}).encode(),
                   [*_TRANSLIT, "--dict", "{path}"], 3, "{path}: field 'entries' must be an object of source token "
                   "to target token, each non-empty and without whitespace", id=f"dict-{name}")
      for name, entries in _UNALIGNED_ENTRIES.items()),
    pytest.param("map.tsv", b"no tab\n", [*_TRANSLIT, "--table", "{path}"],
                 3, "{path}: line 1: expected source_char<TAB>candidates", id="table-bad-line"),
    pytest.param("chars.tsv", b"no tab\n", ["normalize", "--script", "tajik", "--char-table", "{path}"],
                 3, "{path}: line 1: expected codepoint<TAB>class", id="char-table-bad-line"),
    pytest.param("chars.tsv", b"U+0438\tother\nU+0438\ttajik_letter\n",
                 ["normalize", "--script", "tajik", "--char-table", "{path}"],
                 3, "{path}: line 2: duplicate code point U+0438", id="char-table-duplicate-row"),
    pytest.param("cons.tsv", b"no tab\n", _FILTER_NAMES,
                 3, "{path}: line 1: expected tajik_char<TAB>farsi_char", id="map-bad-line"),
    pytest.param("map.tsv", "б\tب\n".encode() + b"\xff\tx\n", [*_TRANSLIT, "--table", "{path}"],
                 3, "{path}: line 2: not valid UTF-8 (byte 0xFF)", id="table-not-utf8"),
    pytest.param("chars.tsv", b"\xd0\tother\n", ["normalize", "--script", "tajik", "--char-table", "{path}"],
                 3, "{path}: line 1: not valid UTF-8 (byte 0xD0)", id="char-table-not-utf8"),
    pytest.param("cons.tsv", "# map\n".encode() + b"\xc0\xaf\tx\n", _FILTER_NAMES,
                 3, "{path}: line 2: not valid UTF-8 (byte 0xC0)", id="map-not-utf8"),
    pytest.param("cons.tsv", "б\tب\nб\tپ\n".encode(), _FILTER_NAMES,
                 2, "{path}: line 2: duplicate Tajik consonant 'б'", id="map-duplicate-row"),
    pytest.param("cons.tsv", "б\tب\nп\tب\n".encode(), _FILTER_NAMES,
                 2, "{path}: map is not one-to-one: ['ب'] mapped more than once", id="map-not-one-to-one"),
    pytest.param("map.tsv", "б\tb\n".encode(), [*_TRANSLIT, "--table", "{path}"],
                 2, "{path}: candidate 'b' for 'б' contains non-target characters ['b']",
                 id="table-out-of-script"),
    pytest.param("bad.hyp.txt", b"x\n\xff\n",
                 ["score", "--corpus", "{corpus}", "--hyp", "{path}", "--direction", "tg2fa"],
                 3, "{path}: line 2: not valid UTF-8 (byte 0xFF)", id="hyp-not-utf8"),
    pytest.param("in.txt", "бғд\n".encode() + b"\xd0\n", [*_TRANSLIT, "-i", "{path}"],
                 3, "{path}: line 2: not valid UTF-8 (byte 0xD0)", id="input-not-utf8"),
    pytest.param("in.txt", "از\nاز ٱب\nٱب\n".encode(),
                 ["translit", "--direction", "fa2tg", "--table", "{table}", "-i", "{path}"],
                 3, "{path}: line 2: no mapping entry for 'ٱ' (U+0671) in 'ٱب' at position 0 (token 1)",
                 id="input-inventory-gap"),
    pytest.param("s.scores.jsonl", json.dumps(TestReportErrors.GOOD_ROW).encode() + b"\n\xff\n",
                 ["report", "--scores", "{path}"],
                 3, "{path}: line 2: not valid UTF-8 (byte 0xFF)", id="scores-not-utf8"),
    pytest.param("bad.jsonl", _GOOD_JSONL + b'{"fa": "\xd8\xa7", "tg": "a", "dataset": null}\n',
                 ["kfold", "--corpus", "{path}", "--k", "2", "--out", "{out}"],
                 3, "{path}: line 2: field 'dataset' is not a string", id="corpus-dataset-null"),
    pytest.param("bad.jsonl", b'{"fa": "\xd8\xa7", "tg": "a", "dataset": ["x"]}\n',
                 ["stats", "--corpus", "{path}"],
                 3, "{path}: line 1: field 'dataset' is not a string", id="corpus-dataset-list"),
    pytest.param("bad.jsonl", b'{"fa": "\xd8\xa7", "tg": "a", "domain": 5}\n',
                 ["stats", "--corpus", "{path}"],
                 3, "{path}: line 1: field 'domain' is not a string", id="corpus-domain-number"),
    pytest.param("bad.jsonl", b"\n", ["stats", "--corpus", "{path}"], 4, "{path}: no pairs", id="corpus-empty"),
    pytest.param("empty.jsonl", b"\n", ["split", "--corpus", "{path}", "--out", "{out}"],
                 2, "{path}: need at least 10 pairs, got 0", id="split-corpus-empty"),
    pytest.param("empty.jsonl", b"\n", ["kfold", "--corpus", "{path}", "--out", "{out}"],
                 2, "{path}: need at least k=10 pairs, got 0", id="kfold-corpus-empty"),
    pytest.param("empty.jsonl", b"\n", ["train-lm", "--corpus", "{path}", "--direction", "tg2fa", "--out", "{out}"],
                 4, "{path}: no non-empty training texts", id="train-lm-corpus-empty"),
    pytest.param("empty.jsonl", b"\n", ["pipeline", "--corpus", "{path}", "--direction", "tg2fa", "--out", "{out}"],
                 2, "split: {path}: need at least 10 pairs, got 0", id="pipeline-corpus-empty"),
    pytest.param("empty.jsonl", b"", ["score", "--corpus", "{path}", "--hyp", "{path}", "--direction", "fa2tg"],
                 4, "{path}: no pairs to score", id="score-corpus-empty"),
    pytest.param("tok.txt", b"a_b\n", ["tokenize", "-i", "{path}"],
                 2, "{path}: line 1: input already contains a marker character", id="tokenize-marker-collision"),
    pytest.param("in.txt", b"\n", [*_TRANSLIT, "--ambiguity-stats", "-i", "{path}", "-o", "{out}"],
                 4, "{path}: no tokens", id="ambiguity-stats-no-tokens"),
    pytest.param("lm.json", b"\xff" + json.dumps(_LM_V2).encode(), [*_TRANSLIT, "--lm", "{path}"],
                 3, "{path}: line 1: not valid UTF-8 (byte 0xFF)", id="lm-not-utf8"),
    pytest.param("dict.json", b"\xff" + json.dumps(_DICT_FA2TG).encode(), [*_TRANSLIT, "--dict", "{path}"],
                 3, "{path}: line 1: not valid UTF-8 (byte 0xFF)", id="dict-not-utf8"),
    pytest.param("bad.jsonl", _NESTED + b"\n", ["stats", "--corpus", "{path}"],
                 3, "{path}: line 1: invalid JSON (", id="corpus-nested"),
    pytest.param("lm.json", _NESTED, [*_TRANSLIT, "--lm", "{path}"],
                 3, "{path}: not a valid model file: invalid JSON (", id="lm-nested"),
    pytest.param("s.scores.jsonl", _NESTED, ["report", "--scores", "{path}"],
                 3, "{path}: line 1: invalid JSON (", id="scores-nested"),
    pytest.param("s.scores.jsonl", json.dumps({**TestReportErrors.GOOD_ROW, "chrf": float("nan")}).encode(),
                 ["report", "--scores", "{path}"],
                 3, "{path}: line 1: invalid JSON (NaN is not a JSON number)", id="scores-nan"),
    pytest.param("s.scores.jsonl", json.dumps({**TestReportErrors.GOOD_ROW, "cer": float("inf")}).encode(),
                 ["report", "--scores", "{path}"],
                 3, "{path}: line 1: invalid JSON (Infinity is not a JSON number)", id="scores-infinity"),
    pytest.param("lm.json", json.dumps(_LM_V2).replace('"order": 1', '"order": ' + "1" * 5000).encode(),
                 [*_TRANSLIT, "--lm", "{path}"],
                 3, "{path}: not a valid model file: invalid JSON (Exceeds the limit", id="lm-long-integer"),
    pytest.param("s.scores.jsonl", json.dumps(TestReportErrors.GOOD_ROW).replace('"n_pairs": 3', '"n_pairs": ' + "3" * 5000).encode(),
                 ["report", "--scores", "{path}"],
                 3, "{path}: line 1: invalid JSON (Exceeds the limit", id="scores-long-integer"),
    # A comment ends only at a line end, not at U+0085 or U+2028.
    pytest.param("map.tsv", "# a\u0085b\tc\nno tab\n".encode(), [*_TRANSLIT, "--table", "{path}"],
                 3, "{path}: line 2: expected source_char<TAB>candidates", id="table-comment-u0085"),
    pytest.param("chars.tsv", "# note\u2028 tail\nU+0438\tbogus\n".encode(),
                 ["normalize", "--script", "tajik", "--char-table", "{path}"],
                 3, "{path}: line 2: unknown class 'bogus'", id="char-table-comment-u2028"),
]


def _packaged(name: str) -> bytes:
    return resources.files("tgfa.data").joinpath(name).read_bytes()


_TOY = toy_corpus(4)
_TOY_LM = oracle_lm_json([p.tg_train for p in _TOY], 2)
_SCORE_ROWS = [{"meta": TestReportErrors.GOOD_META}, {**TestReportErrors.GOOD_ROW, "group": "poetry"},
               TestReportErrors.GOOD_ROW]
# One valid file of each kind, and the command that reads it: {path} is
# the file, {input} a text input, {corpus} a valid corpus of 4 pairs.
_VALID_FILES = {
    "corpus.jsonl": ("".join(p.jsonl_line for p in _TOY).encode(), ["stats", "--corpus", "{path}"]),
    "corpus.tsv": ("".join(f"{p.fa}\t{p.tg}\t{p.dataset}\n" for p in _TOY).encode(), ["stats", "--corpus", "{path}"]),
    "lm.json": (_TOY_LM.encode(),
                ["translit", "--direction", "fa2tg", "--lm", "{path}", "-i", "{input}", "-o", "{output}"]),
    "dict.json": (json.dumps({**_DICT_FA2TG, "direction": "tg2fa", "entries": {"бғд": "بغد"}}).encode(),
                  [*_TRANSLIT, "--dict", "{path}", "-i", "{input}", "-o", "{output}"]),
    "s.scores.jsonl": ("".join(json.dumps(r) + "\n" for r in _SCORE_ROWS).encode(),
                       ["report", "--scores", "{path}", "-o", "{output}"]),
    "map.tsv": (_packaged("map_tg2fa.tsv"), [*_TRANSLIT, "--table", "{path}", "-i", "{input}", "-o", "{output}"]),
    "chars.tsv": (tajik_char_table().encode(),
                  ["normalize", "--script", "tajik", "--char-table", "{path}", "-i", "{input}", "-o", "{output}"]),
    "cons.tsv": (_packaged("consonants.tsv"), _FILTER_NAMES),
    "hyp.txt": ("".join(p.fa + "\n" for p in _TOY).encode(),
                ["score", "--corpus", "{corpus}", "--hyp", "{path}", "--direction", "tg2fa"]),
}
# A JSON number or string, key or value.
_JSON_TOKEN = re.compile(rb'-?\d+(?:\.\d+)?|"(?:[^"\\]|\\.)*"')
_BAD_VALUES = (b"NaN", b"-Infinity", b"-5", b"0", b"9" * 5000, b'""', b"[]", b"null")


def _mutations(data: bytes):
    """One mutation of ``data``: truncate, flip or insert a byte, insert 0xFF or U+2028,
    nest, duplicate or drop a line, or set a JSON token to a bad value."""
    n, lines = len(data), data.split(b"\n")
    at = st.integers(0, n)

    def splice(i: int, j: int, new: bytes) -> bytes:
        return data[:i] + new + data[j:]

    line = st.integers(0, len(lines) - 1)
    tokens = [m.span() for m in _JSON_TOKEN.finditer(data)]
    # Where a JSON value may start: a line or a token.
    starts = sorted({*(m.start() for m in re.finditer(rb"^", data, re.M)), *(i for i, _ in tokens)})
    mutations = [
        at.map(lambda i: data[:i]),
        st.tuples(st.integers(0, n - 1), st.integers(1, 255)).map(
            lambda t: splice(t[0], t[0] + 1, bytes([data[t[0]] ^ t[1]]))
        ),
        st.tuples(at, st.sampled_from([b"\xff", "\u2028".encode()]) | st.binary(min_size=1, max_size=1)).map(
            lambda t: splice(t[0], t[0], t[1])
        ),
        st.sampled_from(starts).map(lambda i: splice(i, i, b"[" * 2000)),
        line.map(lambda k: b"\n".join(lines[: k + 1] + lines[k:])),
        line.map(lambda k: b"\n".join(lines[:k] + lines[k + 1 :])),
    ]
    if tokens:
        mutations.append(
            st.tuples(st.sampled_from(tokens), st.sampled_from(_BAD_VALUES)).map(lambda t: splice(*t[0], t[1]))
        )
    return st.one_of(mutations)


class TestMalformedInputsGuard:
    """A malformed input file ends in a typed error naming it, not a traceback.

    Report rows and out-of-range flags have their own tables above
    (TestReportErrors, TestFlagValidation), which make the same checks.
    """

    @pytest.mark.parametrize("name,data,argv,code,message", BAD_FILES)
    def test_bad_file(self, tmp_path, name, data, argv, code, message):
        path = tmp_path / name
        path.write_bytes(data)
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("x\n", encoding="utf-8")
        corpus = write_corpus(tmp_path / "corpus.jsonl", toy_corpus(4))
        table = tmp_path / "gap.tsv"
        table.write_text(_GAP_TABLE, encoding="utf-8")
        out = tmp_path / "out"
        fill = {"path": str(path), "hyp": str(hyp), "corpus": str(corpus), "out": str(out), "table": str(table)}
        result = run_cli([arg.format(**fill) for arg in argv], input="бғд\n")
        assert code in (2, 3, 4)
        assert result.exit_code == code, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert "Traceback" not in result.output
        assert message.format(**fill) in result.output
        # A failed command leaves no output behind.
        assert not out.exists()

    @pytest.mark.parametrize(
        "name,data,argv,code,message", [row for row in BAD_FILES if row.values[0].endswith((".json", ".jsonl"))]
    )
    def test_pairs_hook_decodes_and_refuses_alike(self, name, data, argv, code, message):
        """``load_lm``'s ``pairs_hook`` changes neither the values ``parse_json_object`` gives nor its errors."""
        texts = data.decode("utf-8", errors="replace")
        for lineno, text in enumerate(texts.split("\n") if name.endswith(".jsonl") else [texts], start=1):
            outcomes = []
            for hook in (None, translit._bucket_hook()):
                try:
                    outcomes.append(parse_json_object(text, name, lineno, pairs_hook=hook))
                except ParseError as e:
                    outcomes.append(str(e))
            assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("row", ["lm-long-integer", "scores-long-integer"])
    def test_long_integer_message_gives_no_python_advice(self, tmp_path, row):
        [(name, data, argv, _, _)] = [p.values for p in BAD_FILES if p.id == row]
        path = tmp_path / name
        path.write_bytes(data)
        result = run_cli([arg.format(path=path) for arg in argv], input="бғд\n")
        assert result.exit_code == 3, result.output
        assert "value has 5000 digits)" in result.output
        assert "set_int_max_str_digits" not in result.output

    def test_stdin_inventory_gap(self, tmp_path):
        table = tmp_path / "gap.tsv"
        table.write_text(_GAP_TABLE, encoding="utf-8")
        result = run_cli(["translit", "--direction", "fa2tg", "--table", str(table)], input="از\nٱب\n")
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert "<stdin>: line 2: no mapping entry for 'ٱ' (U+0671)" in result.output

    @pytest.mark.parametrize(
        "argv,stdin,code,message",
        [
            (["tokenize"], "аз\nа_б\n", 2, "<stdin>: line 2: input already contains a marker character"),
            ([*_TRANSLIT, "--ambiguity-stats"], "\n", 4, "<stdin>: no tokens"),
        ],
        ids=["tokenize-marker-collision", "ambiguity-stats-no-tokens"],
    )
    def test_stdin_named(self, argv, stdin, code, message):
        result = run_cli(argv, input=stdin)
        assert result.exit_code == code, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert message in result.output

    def test_stdin_not_utf8(self):
        result = run_cli([*_TRANSLIT], input=b"\xff\xd0\n")
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert "<stdin>: line 1: not valid UTF-8 (byte 0xFF)" in result.output

    @pytest.mark.parametrize("name", list(_VALID_FILES))
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_mutated_file(self, tmp_path_factory, name, data):
        """One mutation of a valid file ends in success or a typed error naming a file at fault."""
        valid, argv = _VALID_FILES[name]
        mutated = data.draw(_mutations(valid), label="file")
        assert len(mutated) < 1 << 16
        tmp = tmp_path_factory.mktemp("mutated")
        path, inp = tmp / name, tmp / "in.txt"
        path.write_bytes(mutated)
        inp.write_text("бғд\n", encoding="utf-8")
        fill = {"path": str(path), "input": str(inp), "output": str(tmp / "out.txt"), "out": str(tmp / "out"),
                "corpus": str(write_corpus(tmp / "corpus.jsonl", _TOY))}
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err), pytest.raises(SystemExit) as exited:
            main([arg.format(**fill) for arg in argv])
        code = exited.value.code or 0
        assert code in (0, 2, 3, 4), err.getvalue()
        assert "Traceback" not in err.getvalue()
        # An inventory gap names the input line that holds the character.
        assert code == 0 or str(path) in err.getvalue() or str(inp) in err.getvalue(), err.getvalue()


# The child runs each command through tgfa.cli.main, then reports whether
# any of them loaded OpenSSL's hashlib backend.
_NO_OPENSSL_CHILD = """
import sys
from tgfa.cli import main

for argv in sys.argv[1:]:
    try:
        main(argv.split("\\t"))
    except SystemExit as e:
        if e.code:
            raise
print("_hashlib" in sys.modules)
"""


def _run_child(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this tgfa, with ``args`` as its ``sys.argv[1:]``."""
    package_root = str(Path(tgfa.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120)


class TestDigests:
    """Run digests come from CPython's built-in SHA-256 and equal hashlib's."""

    def test_no_command_loads_openssl(self, tmp_path):
        pairs = toy_corpus(20)
        corpus = write_corpus(tmp_path / "corpus.jsonl", pairs)
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("".join(p.fa + "\n" for p in pairs), encoding="utf-8")
        src = tmp_path / "in.txt"
        src.write_text("".join(p.tg + "\n" for p in pairs[:5]), encoding="utf-8")
        commands = [
            ["pipeline", "--corpus", str(corpus), "--direction", "tg2fa", "--folds", "2",
             "--lm-order", "3", "--out", str(tmp_path / "run")],
            ["score", "--corpus", str(corpus), "--hyp", str(hyp), "--direction", "tg2fa",
             "--out", str(tmp_path / "scores")],
            ["train-lm", "--corpus", str(corpus), "--direction", "tg2fa", "--lm-order", "3",
             "--out", str(tmp_path / "lm.json")],
            ["translit", "--direction", "tg2fa", "--lm", str(tmp_path / "lm.json"),
             "-i", str(src), "-o", str(tmp_path / "out.txt")],
        ]
        result = _run_child(_NO_OPENSSL_CHILD, *("\t".join(argv) for argv in commands))
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "False"
        assert (tmp_path / "out.txt").read_text(encoding="utf-8").count("\n") == 5
        assert (tmp_path / "scores" / "hyp.scores.jsonl").exists()

    # 1 MiB is the read chunk: examples end on it, one byte past it and past three chunks.
    @example(b"")
    @example(bytes(range(256)) * 4096)
    @example(bytes(range(256)) * 4096 + b"\n")
    @example(bytes(range(251)) * 12600)
    @settings(max_examples=25, deadline=None)
    @given(
        st.one_of(
            st.binary(max_size=4096),
            st.builds(lambda head, n: head * n, st.binary(min_size=1, max_size=64), st.integers(1, 1 << 16)),
        )
    )
    def test_file_digest_matches_hashlib(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("digest") / "data.bin"
        path.write_bytes(data)
        assert _sha256(path) == hashlib.sha256(data).hexdigest()

    @example({"direction": "tg2fa", "corpus": "корпус.jsonl", "note": "کتاب‌"})
    @given(
        st.dictionaries(
            st.text(max_size=8),
            st.one_of(st.text(), st.integers(), st.none(), st.lists(st.text(max_size=4), max_size=3)),
            max_size=6,
        )
    )
    def test_config_hash_matches_hashlib(self, config):
        blob = json.dumps(config, sort_keys=True, ensure_ascii=False).encode("utf-8")
        assert _config_hash(config) == hashlib.sha256(blob).hexdigest()


# The modules every command loads: the CLI itself and what its option
# table reads when it loads (Direction, DIRECTIONS and the decoder
# defaults live in script.py, whose scripts come from tgfa/data).
_CORE = {"tgfa", "tgfa.cli", "tgfa.data", "tgfa.errors", "tgfa.script"}
_CORPUS = {"tgfa.corpus"}
_METRICS = {"tgfa.metrics", "tgfa._kernels"}
_TRANSLIT_MOD = {"tgfa.translit"}
# Each command's arguments on a small fixture, and the tgfa modules it
# loads: {corpus}, {text}, {lm}, {dict}, {hyp} and {scores} are the
# fixture's files, {out} a path under the test's own directory.
LOADS = {
    "normalize": (["normalize", "--script", "tajik", "-i", "{text}"], _CORE),
    "tokenize": (["tokenize", "-i", "{text}"], _CORE | {"tgfa.tokenizer"}),
    "detokenize": (["detokenize", "-i", "{text}"], _CORE | {"tgfa.tokenizer"}),
    "stats": (["stats", "--corpus", "{corpus}"], _CORE | _CORPUS),
    "split": (["split", "--corpus", "{corpus}", "--out", "{out}"], _CORE | _CORPUS),
    "kfold": (["kfold", "--corpus", "{corpus}", "--k", "2", "--out", "{out}"], _CORE | _CORPUS),
    "filter-names": (["filter-names", "--corpus", "{corpus}", "--out", "{out}"], _CORE | _CORPUS),
    "build-dict": (["build-dict", "--corpus", "{corpus}", "--direction", "tg2fa", "--out", "{out}"],
                   _CORE | _CORPUS | _TRANSLIT_MOD),
    "train-lm": (["train-lm", "--corpus", "{corpus}", "--direction", "tg2fa", "--lm-order", "3", "--out", "{out}"],
                 _CORE | _CORPUS | _TRANSLIT_MOD),
    "translit": (["translit", "--direction", "tg2fa", "--dict", "{dict}", "--lm", "{lm}", "--ambiguity-stats",
                  "-i", "{text}"], _CORE | _TRANSLIT_MOD),
    "score": (["score", "--corpus", "{corpus}", "--hyp", "{hyp}", "--direction", "tg2fa", "--out", "{out}"],
              _CORE | _CORPUS | _METRICS),
    "pipeline": (["pipeline", "--corpus", "{corpus}", "--direction", "tg2fa", "--folds", "2", "--lm-order", "3",
                  "--out", "{out}"], _CORE | _CORPUS | _METRICS | _TRANSLIT_MOD),
    "report": (["report", "--scores", "{scores}"], _CORE),
}

# The child runs one command through tgfa.cli.main, then writes the tgfa
# modules it loaded and whether it loaded logging and dataclasses to
# stderr's last line.
_LOADS_CHILD = """
import json, sys
from tgfa.cli import main

try:
    main(sys.argv[1:])
finally:
    tgfa = sorted(name for name in sys.modules if name == "tgfa" or name.startswith("tgfa."))
    print(json.dumps({"tgfa": tgfa, "logging": "logging" in sys.modules,
                      "dataclasses": "dataclasses" in sys.modules}), file=sys.stderr)
"""


class TestLoadedModules:
    """Each command imports only the tgfa modules it runs."""

    def test_every_command_has_a_row(self):
        assert set(LOADS) == set(COMMANDS)

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_command_loads_only_its_modules(self, tmp_path, command):
        pairs = toy_corpus(20)
        files = {"corpus": write_corpus(tmp_path / "corpus.jsonl", pairs), "out": tmp_path / "out",
                 "text": tmp_path / "in.txt", "hyp": tmp_path / "hyp.txt", "lm": tmp_path / "lm.json",
                 "dict": tmp_path / "dict.json", "scores": tmp_path / "s.scores.jsonl"}
        files["text"].write_text("".join(p.tg + "\n" for p in pairs[:5]), encoding="utf-8")
        files["hyp"].write_text("".join(p.fa + "\n" for p in pairs), encoding="utf-8")
        direction = translit.DIRECTIONS["tg2fa"]
        translit.save_lm(train_lm([p.text(direction.target) for p in pairs], order=3), files["lm"])
        translit.save_dictionary(translit.build_dictionary(pairs, direction), files["dict"])
        files["scores"].write_text("".join(json.dumps(r) + "\n" for r in _SCORE_ROWS), encoding="utf-8")
        argv, expected = LOADS[command]
        result = _run_child(_LOADS_CHILD, *(arg.format(**files) for arg in argv))
        assert result.returncode == 0, result.stderr
        loaded = json.loads(result.stderr.splitlines()[-1])
        assert loaded["tgfa"] == sorted(expected)
        if "tgfa.corpus" not in expected:
            # logging comes only with corpus.py, which logs skipped lines.
            assert not loaded["logging"]
        if not expected & (_CORPUS | _METRICS | _TRANSLIT_MOD):
            # dataclasses comes only with the modules that define dataclasses.
            assert not loaded["dataclasses"]
