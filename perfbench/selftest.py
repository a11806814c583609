"""Tests of the benchmark's own generator, checks and tracer.

    python3 -m pytest -q perfbench/selftest.py

Each workload runs once at a reduced size, in-process, with the same
commands the benchmark uses. Every check must pass on the real outputs
and fail on a deliberately corrupted copy.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
from tgfa.cli import main as tgfa_main  # noqa: E402
from tgfa.translit import load_lm  # noqa: E402

SEED = 3
SMALL = {"KFOLD_PAIRS": 150, "SCORE_PAIRS": 12, "DECODE_TRAIN_PAIRS": 150, "DECODE_LINES": 120}


def tgfa(cwd: Path, argv: list[str]) -> None:
    old = os.getcwd()
    os.chdir(cwd)
    try:
        with pytest.raises(SystemExit) as exit_:
            tgfa_main(argv)
    finally:
        os.chdir(old)
    assert exit_.value.code == 0


def generate(workload: str, seed: int, work: Path) -> dict:
    with pytest.MonkeyPatch.context() as mp:
        for name, value in SMALL.items():
            mp.setattr(gen, name, value)
        return gen.generate(workload, seed, work, run.DATA)


def run_workload(workload: str, work: Path) -> dict:
    truth = generate(workload, SEED, work)
    (work / "out").mkdir()
    for argv in run.commands(workload):
        tgfa(work, argv)
    return truth


@pytest.fixture(scope="module")
def done(tmp_path_factory):
    """Each workload run once; tests corrupt copies of the outputs."""
    runs = {}
    for workload in ("kfold", "score", "decode"):
        work = tmp_path_factory.mktemp(workload)
        runs[workload] = (run_workload(workload, work), work)
    return runs


def copy_out(done, workload: str, tmp_path: Path) -> tuple[dict, Path]:
    truth, work = done[workload]
    out = tmp_path / "out"
    shutil.copytree(work / "out", out)
    return truth, out


def edit_line(path: Path, index: int, fn) -> None:
    lines = checks.read_lines(path)
    lines[index] = fn(lines[index])
    path.write_text("".join(s + "\n" for s in lines), encoding="utf-8")


def shift_metric(path: Path, group: str, metric: str, delta: float) -> None:
    rows = checks.read_lines(path)
    for i, s in enumerate(rows):
        row = json.loads(s)
        if row.get("group") == group:
            row[metric] += delta
            rows[i] = json.dumps(row, sort_keys=True, ensure_ascii=False)
    path.write_text("".join(s + "\n" for s in rows), encoding="utf-8")


@pytest.mark.parametrize("workload", ["kfold", "score", "decode"])
def test_generator_is_deterministic(workload, tmp_path):
    def files(work: Path) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(work.iterdir())}

    generate(workload, 11, tmp_path / "a")
    generate(workload, 11, tmp_path / "b")
    generate(workload, 12, tmp_path / "c")
    assert files(tmp_path / "a") == files(tmp_path / "b")
    assert files(tmp_path / "a") != files(tmp_path / "c")


def kfold_problems(truth, out: Path) -> list[str]:
    return checks.check_kfold(truth, out / "pipeline", oracles)


def test_kfold_checks_pass(done, tmp_path):
    truth, out = copy_out(done, "kfold", tmp_path)
    assert kfold_problems(truth, out) == []


def test_kfold_changed_hypothesis_fails(done, tmp_path):
    truth, out = copy_out(done, "kfold", tmp_path)
    # Same token count, other letters: only the metric recomputation sees it.
    edit_line(out / "pipeline" / "fold03" / "test.hyp.txt", 0, lambda s: " ".join("ب" + t for t in s.split(" ")))
    assert any("report.jsonl" in p for p in kfold_problems(truth, out))


def test_kfold_metric_off_by_a_hundredth_fails(done, tmp_path):
    truth, out = copy_out(done, "kfold", tmp_path)
    shift_metric(out / "pipeline" / "report.jsonl", "Overall", "ncer", 0.01)
    assert any("ncer" in p for p in kfold_problems(truth, out))


def test_kfold_changed_source_fails(done, tmp_path):
    truth, out = copy_out(done, "kfold", tmp_path)
    edit_line(out / "pipeline" / "fold00" / "test.src.txt", 1, lambda s: s + "а")
    assert any("test.src.txt:2" in p for p in kfold_problems(truth, out))


def test_kfold_missing_test_pair_fails(done, tmp_path):
    truth, out = copy_out(done, "kfold", tmp_path)
    for name in ("test.jsonl", "test.src.txt", "test.hyp.txt"):
        path = out / "pipeline" / "fold09" / name
        path.write_text("".join(s + "\n" for s in checks.read_lines(path)[1:]), encoding="utf-8")
    assert any("partition" in p for p in kfold_problems(truth, out))


def test_score_checks_pass(done, tmp_path):
    truth, out = copy_out(done, "score", tmp_path)
    assert checks.check_score(truth, out / "score", oracles) == []


def test_score_metric_off_by_a_hundredth_fails(done, tmp_path):
    truth, out = copy_out(done, "score", tmp_path)
    shift_metric(out / "score" / "sys_mid.scores.jsonl", "poetry", "chrf_pp", 0.01)
    assert any("chrf_pp" in p for p in checks.check_score(truth, out / "score", oracles))


def test_score_control_off_fails(done, tmp_path):
    truth, out = copy_out(done, "score", tmp_path)
    shift_metric(out / "score" / "sys_exact.scores.jsonl", "Overall", "cer", 0.01)
    assert any("cer" in p for p in checks.check_score(truth, out / "score", oracles))


def test_score_changed_hypothesis_fails(tmp_path):
    truth = generate("score", SEED, tmp_path)
    edit_line(tmp_path / "sys_low.txt", 2, lambda s: s[::-1])
    (tmp_path / "out").mkdir()
    tgfa(tmp_path, run.commands("score")[0])
    problems = checks.check_score(truth, tmp_path / "out" / "score", oracles)
    assert any(p.startswith("sys_low") for p in problems)


def decode_problems(truth, out: Path, lines: list[str] | None = None) -> list[str]:
    return checks.check_decode(
        truth,
        lines if lines is not None else checks.read_lines(out / "decode.tg.txt"),
        load_lm(out / "lm.json"),
        gen.read_table(run.DATA / "map_fa2tg.tsv"),
        oracles,
        SEED,
        n_ranked=10_000,
    )


def test_decode_checks_pass(done, tmp_path):
    truth, out = copy_out(done, "decode", tmp_path)
    assert decode_problems(truth, out) == []


def test_decode_non_lattice_token_fails(done, tmp_path):
    truth, out = copy_out(done, "decode", tmp_path)
    lines = checks.read_lines(out / "decode.tg.txt")
    lines[5] = " ".join(["щ"] + lines[5].split(" ")[1:])
    assert any("not a lattice path" in p for p in decode_problems(truth, out, lines))


def test_decode_lower_ranked_path_fails(done, tmp_path):
    truth, out = copy_out(done, "decode", tmp_path)
    table = gen.read_table(run.DATA / "map_fa2tg.tsv")
    lm = load_lm(out / "lm.json")
    lines = checks.read_lines(out / "decode.tg.txt")
    for line in truth["inputs"]:
        src = line.fa_train.split(" ")[0]
        if checks.path_count(src, table) > checks.BEAM:
            continue
        ranked = oracles.exhaustive_rank([table[c] for c in src], lm)
        if len(ranked) > 1:
            # Every occurrence of the token, so only the ranking check can see it.
            lines = [
                " ".join(ranked[1] if s == src else t for s, t in zip(inp.fa_train.split(" "), out_line.split(" ")))
                for inp, out_line in zip(truth["inputs"], lines)
            ]
            break
    else:
        pytest.fail("no ambiguous token within the beam")
    assert any("exhaustive best" in p for p in decode_problems(truth, out, lines))


def test_decode_missing_line_fails(done, tmp_path):
    truth, out = copy_out(done, "decode", tmp_path)
    assert decode_problems(truth, out, checks.read_lines(out / "decode.tg.txt")[:-1])


def test_tracer_counts_kernel_calls(tmp_path):
    truth = generate("score", SEED, tmp_path)
    (tmp_path / "out").mkdir()
    cmd = [sys.executable, str(HERE / "tracer.py"), "s.json", "s.bin", "--", *run.commands("score")[0]]
    subprocess.run(cmd, cwd=tmp_path, env=run.child_env(), check=True, capture_output=True, timeout=120)
    summary = json.loads((tmp_path / "s.json").read_text())
    n_pairs = len(truth["lines"]) * len(truth["systems"])
    # cer_mean and ncer_mean each run the kernel, per group and for Overall.
    assert summary["calls"]["kernels.levenshtein"] == 4 * n_pairs
    assert summary["spans"] == (tmp_path / "s.bin").stat().st_size // (2 + 8 + 8 + 8)


def test_benchmark_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kfold", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
