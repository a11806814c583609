from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner

from tgfa.cli import cli

from conftest import toy_corpus


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(cli, args, auto_envvar_prefix="TGFA", **kwargs)


def write_corpus(path: Path, pairs):
    from tgfa.corpus import save

    save(pairs, path)
    return path


class TestTextCommands:
    def test_normalize(self, runner):
        result = invoke(
            runner,
            ["normalize", "--script", "tajik", "--mode", "train"],
            input="Ва — аз!\n",
        )
        assert result.exit_code == 0
        assert result.output == "ва аз\n"

    def test_normalize_eval_mode(self, runner):
        result = invoke(
            runner,
            ["normalize", "--script", "tajik", "--mode", "eval"],
            input="В-аз\n",
        )
        assert result.output == "ваз\n"

    def test_mode_from_env(self, runner):
        result = invoke(
            runner,
            ["normalize", "--script", "tajik"],
            input="В-аз\n",
            env={"TGFA_NORMALIZE_MODE": "eval"},
        )
        assert result.output == "ваз\n"

    def test_tokenize_detokenize_round_trip(self, runner):
        tokenized = invoke(runner, ["tokenize"], input="аз ин\n")
        assert tokenized.output == "@ а з @ _ @ и н @\n"
        back = invoke(runner, ["detokenize"], input=tokenized.output)
        assert back.output == "аз ин\n"

    def test_char_table_override(self, runner, tmp_path):
        table = tmp_path / "chars.tsv"
        table.write_text("U+0438\tother\n", encoding="utf-8")
        result = invoke(
            runner,
            ["normalize", "--script", "tajik", "--char-table", str(table)],
            input="ин\n",
        )
        assert result.output == "н\n"


class TestCorpusCommands:
    def test_stats_table(self, runner, corpus_file):
        result = invoke(runner, ["stats", "--corpus", str(corpus_file)])
        assert result.exit_code == 0
        assert "Dictionary" in result.output
        assert "Masnavi" in result.output

    def test_stats_jsonl_per_domain(self, runner, corpus_file):
        result = invoke(
            runner,
            ["stats", "--corpus", str(corpus_file), "--per", "domain", "--format", "jsonl"],
        )
        rows = [json.loads(line) for line in result.output.splitlines()]
        assert {r["label"] for r in rows} == {"poetry", "prose", "names", "dictionary"}

    def test_split_writes_artifacts(self, runner, corpus_file, tmp_path):
        out = tmp_path / "split"
        result = invoke(
            runner,
            ["split", "--corpus", str(corpus_file), "--seed", "3", "--out", str(out)],
        )
        assert result.exit_code == 0
        spec = json.loads((out / "split.json").read_text())
        assert len(spec["train"]) + len(spec["dev"]) + len(spec["test"]) == 24
        for name in ("train", "dev", "test"):
            assert (out / f"{name}.jsonl").exists()

    def test_split_deterministic(self, runner, corpus_file, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            invoke(runner, ["split", "--corpus", str(corpus_file), "--seed", "5", "--out", str(out)])
            outs.append((out / "split.json").read_bytes())
        assert outs[0] == outs[1]

    def test_kfold(self, runner, corpus_file, tmp_path):
        out = tmp_path / "folds"
        result = invoke(
            runner,
            ["kfold", "--corpus", str(corpus_file), "--k", "4", "--seed", "1", "--out", str(out)],
        )
        assert result.exit_code == 0
        payload = json.loads((out / "folds.json").read_text())
        assert payload["k"] == 4
        seen = sorted(i for f in payload["folds"] for i in f["test"])
        assert seen == list(range(24))

    def test_filter_names(self, runner, tmp_path):
        corpus = write_corpus(tmp_path / "names.jsonl", toy_corpus(30, dataset="People"))
        out = tmp_path / "filtered"
        result = invoke(
            runner, ["filter-names", "--corpus", str(corpus), "--out", str(out)]
        )
        assert result.exit_code == 0
        kept = (out / "kept.jsonl").read_text().splitlines()
        rejected = (out / "rejected.jsonl").read_text().splitlines()
        assert len(kept) + len(rejected) == 30
        if rejected:
            assert "violating_class" in json.loads(rejected[0])


class TestModelCommands:
    def test_build_dict_and_train_lm(self, runner, corpus_file, tmp_path):
        dict_path = tmp_path / "dict.json"
        lm_path = tmp_path / "lm.json"
        r1 = invoke(
            runner,
            ["build-dict", "--corpus", str(corpus_file), "--direction", "tg2fa", "--out", str(dict_path)],
        )
        assert r1.exit_code == 0 and dict_path.exists()
        r2 = invoke(
            runner,
            ["train-lm", "--corpus", str(corpus_file), "--direction", "tg2fa",
             "--lm-order", "3", "--out", str(lm_path)],
        )
        assert r2.exit_code == 0 and lm_path.exists()

    def test_translit_first_candidate(self, runner):
        result = invoke(
            runner, ["translit", "--direction", "tg2fa"], input="бғд\n"
        )
        assert result.exit_code == 0
        assert result.output == "بغد\n"

    def test_translit_missing_table_fails_before_work(self, runner, tmp_path):
        result = invoke(
            runner,
            ["translit", "--direction", "tg2fa", "--table", str(tmp_path / "nope.tsv")],
            input="бғд\n",
        )
        assert result.exit_code == 2

    def test_translit_out_of_script_table_fails_before_output(self, runner, tmp_path):
        table = tmp_path / "t.tsv"
        table.write_text("б\tb\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        result = invoke(
            runner,
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
    def test_translit_ordinary_text_has_table_rows(self, runner, direction, line):
        result = invoke(runner, ["translit", "--direction", direction], input=line + "\n")
        assert result.exit_code == 0, result.output
        assert len(result.output.splitlines()) == 1

    def test_translit_ambiguity_stats(self, runner):
        result = invoke(
            runner,
            ["translit", "--direction", "tg2fa", "--ambiguity-stats"],
            input="аз ин\n",
        )
        assert result.exit_code == 0
        assert "avg alternatives per token" in result.output

    def test_translit_with_lm_and_dict(self, runner, corpus_file, tmp_path):
        dict_path = tmp_path / "dict.json"
        lm_path = tmp_path / "lm.json"
        invoke(runner, ["build-dict", "--corpus", str(corpus_file), "--direction", "tg2fa", "--out", str(dict_path)])
        invoke(runner, ["train-lm", "--corpus", str(corpus_file), "--direction", "tg2fa", "--lm-order", "2", "--out", str(lm_path)])
        result = invoke(
            runner,
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

    def test_identity_hypothesis_scores_perfect(self, runner, corpus_file, tmp_path):
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("".join(line + "\n" for line in self._refs(corpus_file)), encoding="utf-8")
        out = tmp_path / "scores"
        result = invoke(
            runner,
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

    def test_length_mismatch_exit_code(self, runner, corpus_file, tmp_path):
        hyp = tmp_path / "hyp.txt"
        lines = self._refs(corpus_file) + ["зиёдатӣ"]
        hyp.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        result = invoke(
            runner,
            ["score", "--corpus", str(corpus_file), "--hyp", str(hyp), "--direction", "tg2fa"],
        )
        assert result.exit_code == 4
        assert "25" in result.output  # first offending line

    def test_two_systems_best_marked(self, runner, corpus_file, tmp_path):
        refs = self._refs(corpus_file)
        good = tmp_path / "good.txt"
        good.write_text("".join(line + "\n" for line in refs), encoding="utf-8")
        bad = tmp_path / "bad.txt"
        bad.write_text("".join("خطا" + "\n" for _ in refs), encoding="utf-8")
        result = invoke(
            runner,
            ["score", "--corpus", str(corpus_file), "--hyp", str(good),
             "--hyp", str(bad), "--direction", "tg2fa"],
        )
        assert result.exit_code == 0
        assert "chrF[good]" in result.output
        assert "100.00*" in result.output

    def test_missing_corpus_fails_before_work(self, runner, tmp_path):
        result = invoke(
            runner,
            ["score", "--corpus", str(tmp_path / "nope.jsonl"), "--hyp", str(tmp_path / "nope.txt"),
             "--direction", "tg2fa"],
        )
        assert result.exit_code == 2

    def test_corrupt_corpus_parse_exit_code(self, runner, tmp_path):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text("not json at all\n", encoding="utf-8")
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("x\n", encoding="utf-8")
        result = invoke(
            runner,
            ["score", "--corpus", str(corpus), "--hyp", str(hyp), "--direction", "tg2fa"],
        )
        assert result.exit_code == 3
        assert "line 1" in result.output


class TestPipelineAndReport:
    def test_pipeline_holdout(self, runner, tmp_path):
        corpus = write_corpus(tmp_path / "c.jsonl", toy_corpus(60))
        out = tmp_path / "run"
        result = invoke(
            runner,
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

    def test_pipeline_kfold(self, runner, tmp_path):
        corpus = write_corpus(tmp_path / "c.jsonl", toy_corpus(30))
        out = tmp_path / "run"
        result = invoke(
            runner,
            ["pipeline", "--corpus", str(corpus), "--direction", "fa2tg",
             "--seed", "1", "--folds", "3", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert (out / "fold00" / "test.hyp.txt").exists()
        assert (out / "fold02" / "lm.json").exists()
        rows = [json.loads(l) for l in (out / "report.jsonl").read_text().splitlines()]
        overall = next(r for r in rows if r.get("group") == "Overall")
        assert overall["n_pairs"] == 30  # every pair tested exactly once

    def test_pipeline_normalizes_each_text_once(self, runner, tmp_path, monkeypatch):
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
        result = invoke(
            runner,
            ["pipeline", "--corpus", str(corpus), "--direction", "tg2fa",
             "--folds", "3", "--out", str(tmp_path / "run")],
        )
        assert result.exit_code == 0, result.output
        # Both sides of each pair at load; then, in eval mode, every pair's
        # reference and hypothesis once, since each pair is tested once.
        assert calls == {script.NormMode.TRAIN: 2 * n_pairs, script.NormMode.EVAL: 2 * n_pairs}

    def test_report_merges_systems(self, runner, corpus_file, tmp_path):
        refs = TestScore()._refs(corpus_file)
        hyp = tmp_path / "sys1.txt"
        hyp.write_text("".join(line + "\n" for line in refs), encoding="utf-8")
        out = tmp_path / "scores"
        invoke(
            runner,
            ["score", "--corpus", str(corpus_file), "--hyp", str(hyp),
             "--direction", "tg2fa", "--out", str(out)],
        )
        result = invoke(
            runner, ["report", "--scores", str(out / "sys1.scores.jsonl")]
        )
        assert result.exit_code == 0
        assert "Overall" in result.output
        assert "100.00" in result.output


class TestFlagValidation:
    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("pipeline", "--beam", "0"),
            ("pipeline", "--lm-order", "0"),
            ("translit", "--beam", "0"),
            ("train-lm", "--lm-order", "0"),
        ],
    )
    def test_out_of_range_rejected_before_work(self, runner, corpus_file, tmp_path, command, flag, value):
        out = tmp_path / "out"
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("x\n" * 24, encoding="utf-8")
        args = {
            "score": ["--corpus", str(corpus_file), "--hyp", str(hyp), "--out", str(out)],
            "pipeline": ["--corpus", str(corpus_file), "--out", str(out)],
            "translit": ["-o", str(out)],
            "train-lm": ["--corpus", str(corpus_file), "--out", str(out)],
        }[command]
        result = invoke(
            runner, [command, "--direction", "tg2fa", *args, flag, value], input="бғд\n"
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert flag in result.output
        assert not out.exists()


class TestReportErrors:
    GOOD_ROW = {
        "system": "s", "group": "Overall", "n_pairs": 3,
        "chrf": 1.0, "chrf_pp": 1.0, "cer": 0.0, "ncer": 0.0, "acc": 100.0, "acc_no_ws": 100.0,
    }

    @pytest.mark.parametrize(
        "bad_line,reason",
        [
            ('{"group": "poetry", ', "invalid JSON"),
            ("[1, 2, 3]", "expected a JSON object"),
            (json.dumps({k: v for k, v in GOOD_ROW.items() if k != "group"}), "missing field 'group'"),
            (json.dumps({k: v for k, v in GOOD_ROW.items() if k != "ncer"}), "missing field 'ncer'"),
            (json.dumps({**GOOD_ROW, "chrf": "high"}), "field 'chrf' is not a number"),
        ],
        ids=["bad-json", "not-an-object", "no-group", "no-metric", "non-numeric-metric"],
    )
    def test_malformed_row_is_parse_error(self, runner, tmp_path, bad_line, reason):
        path = tmp_path / "s.scores.jsonl"
        lines = [json.dumps({"meta": {"version": "0"}}), json.dumps(self.GOOD_ROW), "", bad_line]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = invoke(runner, ["report", "--scores", str(path)])
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"{path}: line 4: {reason}" in result.output
        assert "Traceback" not in result.output



_GOOD_TSV = "از\tаз\n".encode()
_SCORE = ["score", "--corpus", "{path}", "--hyp", "{hyp}", "--direction", "tg2fa"]
_TRANSLIT = ["translit", "--direction", "tg2fa"]
_FILTER_NAMES = ["filter-names", "--corpus", "{corpus}", "--map", "{path}", "--out", "{out}"]
_LM_HEADER = {"magic": "tgfa-charlm", "version": 2}
_LM_V2 = {**_LM_HEADER, "order": 1, "smoothing": "none", "alphabet": ["\x01", "\x03", "a"],
          "counts": [[["", {"\x03": 1, "a": 1}]]]}
_LM_V1 = {**_LM_V2, "version": 1, "counts": [[[[], {"\x03": 1, "a": 1}]]]}
_DICT_FA2TG = {"magic": "tgfa-dict", "version": 1, "direction": "fa2tg", "skipped_pairs": 0,
               "entries": {"از": "аз"}}
_NO_DIRECTION = {k: v for k, v in _DICT_FA2TG.items() if k != "direction"}
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
    pytest.param("dict.json", json.dumps(_NO_DIRECTION).encode(), [*_TRANSLIT, "--dict", "{path}"],
                 3, "{path}: missing field 'direction'", id="dict-no-direction"),
    pytest.param("dict.json", json.dumps(_DICT_FA2TG).encode(), [*_TRANSLIT, "--dict", "{path}"],
                 2, "{path}: dictionary direction is fa2tg, but --direction is tg2fa",
                 id="dict-wrong-direction"),
    pytest.param("map.tsv", b"no tab\n", [*_TRANSLIT, "--table", "{path}"],
                 3, "{path}: line 1: expected source_char<TAB>candidates", id="table-bad-line"),
    pytest.param("chars.tsv", b"no tab\n", ["normalize", "--script", "tajik", "--char-table", "{path}"],
                 3, "{path}: line 1: expected codepoint<TAB>class", id="char-table-bad-line"),
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
]


class TestMalformedInputsGuard:
    """A malformed input file ends in a typed error naming it, not a traceback.

    Report rows and out-of-range flags have their own tables above
    (TestReportErrors, TestFlagValidation), which make the same checks.
    """

    @pytest.mark.parametrize("name,data,argv,code,message", BAD_FILES)
    def test_bad_file(self, runner, tmp_path, name, data, argv, code, message):
        path = tmp_path / name
        path.write_bytes(data)
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("x\n", encoding="utf-8")
        corpus = write_corpus(tmp_path / "corpus.jsonl", toy_corpus(4))
        fill = {"path": str(path), "hyp": str(hyp), "corpus": str(corpus), "out": str(tmp_path / "out")}
        result = invoke(runner, [arg.format(**fill) for arg in argv], input="бғд\n")
        assert code in (2, 3, 4)
        assert result.exit_code == code, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert "Traceback" not in result.output
        assert message.format(**fill) in result.output
