#!/usr/bin/env python3
"""The tgfa benchmark: three workloads run through the ``tgfa`` command line.

    python3 perfbench/run.py --workload kfold --seed 1 --seconds 30 --trace 0

Run from a checkout that holds ``src/tgfa`` and ``tests/oracles.py``; the
program is used from source. The script generates the workload's inputs
from ``--seed``, then repeats whole rounds of the workload's commands,
each command in a fresh interpreter, until ``--seconds`` have passed
(at least three rounds). It checks the outputs and prints, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, medians over
the rounds. With ``--trace 1`` untraced rounds alternate with traced
ones, in which ``tracer.py`` runs each command in-process with spans
around every layer's public calls; the metrics are the per-layer counts
and self times, plus the tracing overhead.

Commands run one after another: the load is one process at a time.
See README.md for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "tgfa" / "data"
TESTS = ROOT / "tests"
WORK = HERE / ".work"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import gen  # noqa: E402

MIN_ROUNDS = 3
SETUP_PROBES = 3  # per round; set-up is short, so it takes more samples to steady its median
COMMAND_TIMEOUT_S = 150
# Interpreter start, CLI imports and the packaged tables: what every
# command pays before it starts work.
SETUP_CODE = (
    "import tgfa.cli\n"
    "from tgfa import corpus, translit\n"
    "translit.default_mapping_table('tg2fa')\n"
    "translit.default_mapping_table('fa2tg')\n"
    "corpus.default_consonant_map()\n"
)

SCORE_SYSTEMS = [name for name, _ in gen.SCORE_RATES]


def _oracles():
    sys.path.insert(0, str(TESTS))
    import oracles

    return oracles


def commands(workload: str) -> list[list[str]]:
    """The tgfa argument lists of one round, run in the work directory."""
    if workload == "kfold":
        return [[
            "pipeline", "--corpus", "corpus.jsonl", "--direction", "tg2fa",
            "--folds", "10", "--out", "out/pipeline",
        ]]
    if workload == "score":
        hyps = [arg for name in SCORE_SYSTEMS for arg in ("--hyp", f"{name}.txt")]
        return [[
            "score", "--corpus", "corpus.jsonl", "--direction", "fa2tg", *hyps,
            "--out", "out/score",
        ]]
    return [
        ["train-lm", "--corpus", "train.jsonl", "--direction", "fa2tg", "--out", "out/lm.json"],
        [
            "translit", "--direction", "fa2tg", "--lm", "out/lm.json",
            "--beam", str(checks.BEAM), "-i", "input.fa.txt", "-o", "out/decode.tg.txt",
        ],
    ]


def units(workload: str) -> int:
    """Work of one round: pairs cross-validated, pairs x systems scored, lines decoded."""
    return {
        "kfold": gen.KFOLD_PAIRS,
        "score": gen.SCORE_PAIRS * len(SCORE_SYSTEMS),
        "decode": gen.DECODE_LINES,
    }[workload]


def check(workload: str, truth: dict, out: Path, seed: int) -> list[str]:
    oracles = _oracles()
    if workload == "kfold":
        return checks.check_kfold(truth, out / "pipeline", oracles)
    if workload == "score":
        return checks.check_score(truth, out / "score", oracles)
    sys.path.insert(0, str(SRC))
    from tgfa.translit import load_lm

    return checks.check_decode(
        truth,
        checks.read_lines(out / "decode.tg.txt"),
        load_lm(out / "lm.json"),
        gen.read_table(DATA / "map_fa2tg.tsv"),
        oracles,
        seed,
    )


def child_env() -> dict[str, str]:
    # TGFA_* variables would set CLI flags; a fixed hash seed keeps set
    # and dict layouts, and so timings, alike from run to run.
    env = {k: v for k, v in os.environ.items() if not k.startswith("TGFA_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], cwd: Path, env: dict, stdout: Path) -> tuple[float, float, int, int]:
    """Run one process to its end; returns (wall s, CPU s, peak RSS KiB, exit code)."""
    with open(stdout, "wb") as out, open(cwd / "stderr.txt", "ab") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode


def run_round(workload: str, work: Path, env: dict, traced: bool) -> dict:
    """One round of the workload's commands into a fresh ``work/out``."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    wall = cpu = 0.0
    rss = 0
    codes = []
    summaries = []
    for i, argv in enumerate(commands(workload)):
        if traced:
            stem = WORK / "traces" / f"{workload}.cmd{i}"
            stem.parent.mkdir(parents=True, exist_ok=True)
            summary = Path(f"{stem}.summary.json")
            prefix = [sys.executable, str(HERE / "tracer.py"), str(summary), f"{stem}.spans.bin", "--"]
        else:
            prefix = [sys.executable, "-m", "tgfa.cli"]
        w, c, r, code = spawn(prefix + argv, work, env, out / f"stdout{i}.txt")
        wall, cpu, rss = wall + w, cpu + c, max(rss, r)
        codes.append(code)
        if traced and code == 0:
            summaries.append(json.loads(summary.read_text(encoding="utf-8")))
    return {"wall": wall, "cpu": cpu, "rss": rss, "ok": not any(codes), "codes": codes,
            "summaries": summaries, "digest": digest(out), "bytes": tree_bytes(out)}


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def probe_setup(work: Path, env: dict) -> float:
    wall, _, _, code = spawn([sys.executable, "-c", SETUP_CODE], work, env, work / "probe.txt")
    if code != 0:
        raise RuntimeError(f"set-up probe exited with {code}")
    return wall


class Rounds:
    """Round bookkeeping shared by both modes: counts, failures, output identity."""

    def __init__(self, workload: str, work: Path):
        self.workload = workload
        self.work = work
        self.count = self.attempted = self.failed = 0
        self.first_digest: str | None = None
        self.problems: list[str] = []

    def record(self, r: dict, label: str) -> bool:
        n = units(self.workload)
        self.count += 1
        self.attempted += n
        if not r["ok"]:
            self.failed += n
            err = (self.work / "stderr.txt").read_text(encoding="utf-8", errors="replace")
            print(f"{label} round failed, exit codes {r['codes']}: {err[-2000:]}", file=sys.stderr)
            return False
        if self.first_digest is None:
            self.first_digest = r["digest"]
            (self.work / "out").rename(self.work / "checked")
        elif r["digest"] != self.first_digest:
            self.problems.append(f"{label} round outputs differ from the first round's")
        return True


def timed(workload: str, truth: dict, work: Path, seed: int, seconds: float) -> dict:
    env = child_env()
    rounds = Rounds(workload, work)
    setup, walls, cpus, rsss = [], [], [], []
    t0 = perf_counter()
    while rounds.count < MIN_ROUNDS or perf_counter() - t0 < seconds:
        setup.extend(probe_setup(work, env) for _ in range(SETUP_PROBES))
        r = run_round(workload, work, env, traced=False)
        if rounds.record(r, "untraced"):
            walls.append(r["wall"])
            cpus.append(r["cpu"])
            rsss.append(r["rss"])
    if not walls:
        raise RuntimeError("no round succeeded")
    problems = rounds.problems + check(workload, truth, work / "checked", seed)
    wall = statistics.median(walls)
    report_progress(workload, work, walls, problems)
    metrics = {
        "wall_s": (wall, "s"),
        "pairs_per_s": (units(workload) / wall, "1/s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (statistics.median(rsss) / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return result(problems, rounds, metrics)


# Per-layer metrics, read from the merged span summaries of a traced round.
LAYER_SPANS = [
    "script.normalize", "corpus.load", "corpus.save", "corpus.kfold",
    "translit.build_dictionary", "translit.train_lm", "translit.save_lm", "translit.load_lm",
    "translit.beam_decode", "translit.lm_query",
    "metrics.score_corpus", "metrics.chrf", "metrics.cer", "kernels.levenshtein", "cli",
]
LAYER_CALLS = ["script.normalize", "translit.beam_decode", "translit.lm_query", "kernels.levenshtein"]
LAYER_COUNTS = [
    ("script.normalize.chars", "count"),
    ("corpus.save.bytes", "B"),
    ("translit.lm.bytes", "B"),
    ("translit.lattice_paths", "count"),
    ("kernels.levenshtein.cells", "count"),
]
LAYER_DISTINCT = ["script.normalize", "translit.lm_query", "kernels.levenshtein"]


def merge(summaries: list[dict]) -> dict:
    """Sum the per-command summaries of one traced round."""
    merged: dict = {"spans": 0, "calls": {}, "self_s": {}, "counts": {}, "distinct": {}}
    for s in summaries:
        merged["spans"] += s["spans"]
        for key in ("calls", "self_s", "counts", "distinct"):
            for name, v in s[key].items():
                merged[key][name] = merged[key].get(name, 0) + v
    return merged


def count_metrics(m: dict, out_bytes: int) -> dict[str, tuple[float, str]]:
    """The per-layer numbers that must repeat exactly from round to round."""
    metrics = {f"{name}.calls": (m["calls"].get(name, 0), "count") for name in LAYER_CALLS}
    metrics.update({name: (m["counts"].get(name, 0), unit) for name, unit in LAYER_COUNTS})
    for name in LAYER_DISTINCT:
        calls = m["calls"].get(name, 0)
        metrics[f"{name}.distinct_share"] = (m["distinct"].get(name, 0) / calls if calls else 0.0, "ratio")
    metrics["cli.out.bytes"] = (out_bytes, "B")
    metrics["trace.spans"] = (m["spans"], "count")
    return metrics


def traced(workload: str, truth: dict, work: Path, seed: int, seconds: float) -> dict:
    env = child_env()
    rounds = Rounds(workload, work)
    plain_walls, traced_walls, merged, counts = [], [], [], []
    t0 = perf_counter()
    n = 0
    while n < 2 or perf_counter() - t0 < seconds:
        n += 1
        r = run_round(workload, work, env, traced=False)
        if rounds.record(r, "untraced"):
            plain_walls.append(r["wall"])
        r = run_round(workload, work, env, traced=True)
        if rounds.record(r, "traced"):
            traced_walls.append(r["wall"])
            merged.append(merge(r["summaries"]))
            counts.append(count_metrics(merged[-1], r["bytes"]))
    if not plain_walls or not traced_walls:
        raise RuntimeError("no round succeeded")
    problems = rounds.problems + check(workload, truth, work / "checked", seed)
    if any(c != counts[0] for c in counts):
        problems.append("per-layer counts differ between traced rounds")
    metrics = dict(counts[0])
    for span in LAYER_SPANS:
        metrics[f"{span}.self_s"] = (statistics.median(m["self_s"].get(span, 0.0) for m in merged), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(plain_walls), "s")
    report_progress(workload, work, traced_walls, problems)
    return result(problems, rounds, metrics)


def report_progress(workload: str, work: Path, walls: list[float], problems: list[str]) -> None:
    print(f"{workload}: {len(walls)} rounds, wall s per round {[round(w, 3) for w in walls]}")
    if workload == "kfold":
        print(f"kfold test-fold sizes: {checks.fold_sizes(work / 'checked' / 'pipeline')}")
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")


def result(problems: list[str], rounds: Rounds, metrics: dict) -> dict:
    return {
        "correct": not problems,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("kfold", "score", "decode"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tgfa" / "__init__.py").is_file() or not (TESTS / "oracles.py").is_file():
        print(f"perfbench: {ROOT} holds no tgfa source tree (src/tgfa, tests/oracles.py)", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        truth = gen.generate(args.workload, args.seed, work, DATA)
        mode = traced if args.trace else timed
        out = mode(args.workload, truth, work, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
