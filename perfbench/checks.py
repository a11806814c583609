"""Output checks for the three workloads.

Each check returns a list of problems, empty when the outputs are
correct. The checks compare the program's outputs with what the
generator built (clean forms, edit counts), with ``tests/oracles.py``
(metric values, exhaustive lattice ranking) and with properties the
method must have (partitions, token counts, lattice membership, LM
normalization). They call into tgfa only to load the LM file whose
probabilities they test.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

from gen import eval_farsi

TOL = 1e-9
BEAM = 16
METRICS = ("chrf", "chrf_pp", "cer", "ncer", "acc", "acc_no_ws")


def read_lines(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def oracle_scores(pairs: list[tuple[str, str]], oracles) -> dict[str, float]:
    """All six metrics of (hypothesis, reference) eval-form pairs, from the oracles."""
    n = len(pairs)
    dists = [0 if h == r else oracles.levenshtein_dp(h, r) for h, r in pairs]
    return {
        "chrf": oracles.corpus_f_direct(pairs, 6, 0, 2.0),
        "chrf_pp": oracles.corpus_f_direct(pairs, 6, 2, 2.0),
        "cer": sum(dists) / n,
        "ncer": sum(d / max(1, len(r)) for d, (_, r) in zip(dists, pairs)) / n,
        "acc": 100.0 * sum(h == r for h, r in pairs) / n,
        "acc_no_ws": 100.0 * sum(h.replace(" ", "") == r.replace(" ", "") for h, r in pairs) / n,
    }


def _by_group(pairs, groups) -> dict[str, list]:
    out: dict[str, list] = {"Overall": list(pairs)}
    for pair, group in zip(pairs, groups):
        out.setdefault(group, []).append(pair)
    return out


def _report_rows(path: Path) -> dict[tuple[str, str], dict]:
    rows = [json.loads(s) for s in read_lines(path) if s.strip()]
    return {(r["system"], r["group"]): r for r in rows if "meta" not in r}


def _compare(problems, where, got: dict, want: dict, keys) -> None:
    for key in keys:
        if abs(got[key] - want[key]) > TOL:
            problems.append(f"{where}: {key} = {got[key]!r}, expected {want[key]!r}")


def check_kfold(truth: dict, out: Path, oracles) -> list[str]:
    problems: list[str] = []
    lines = truth["lines"]
    corpus_rows = [json.dumps(line.row(), sort_keys=True) for line in lines]
    by_row = dict(zip(corpus_rows, lines))
    fold_dirs = sorted(out.glob("fold*"))
    test_rows: list[str] = []
    scored = []  # (hypothesis eval form, reference eval form, domain)
    for fold in fold_dirs:
        rows = [json.dumps(json.loads(s), sort_keys=True) for s in read_lines(fold / "test.jsonl")]
        srcs = read_lines(fold / "test.src.txt")
        hyps = read_lines(fold / "test.hyp.txt")
        if not (len(rows) == len(srcs) == len(hyps)):
            problems.append(f"{fold.name}: {len(rows)} pairs, {len(srcs)} sources, {len(hyps)} hypotheses")
            continue
        test_rows.extend(rows)
        for i, (row, src, hyp) in enumerate(zip(rows, srcs, hyps), start=1):
            line = by_row.get(row)
            if line is None:
                problems.append(f"{fold.name}/test.jsonl:{i}: pair not in the corpus")
                continue
            if src != line.tg_train:
                problems.append(f"{fold.name}/test.src.txt:{i}: {src!r} != {line.tg_train!r}")
            src_tokens, hyp_tokens = src.split(" "), hyp.split(" ")
            if len(hyp_tokens) != len(src_tokens) or "" in hyp_tokens:
                problems.append(
                    f"{fold.name}/test.hyp.txt:{i}: {len(hyp_tokens)} tokens for {len(src_tokens)} source tokens"
                )
            scored.append((eval_farsi(hyp), line.fa_eval, line.domain))
    if Counter(test_rows) != Counter(corpus_rows):
        problems.append(
            f"fold test sets do not partition the corpus ({len(test_rows)} test pairs, {len(lines)} in the corpus)"
        )
    if problems:
        return problems
    report = _report_rows(out / "report.jsonl")
    pairs = [(h, r) for h, r, _ in scored]
    groups = _by_group(pairs, [g for _, _, g in scored])
    if set(report) != {("baseline-tg2fa", g) for g in groups}:
        problems.append(f"report.jsonl rows {sorted(report)} do not match the groups {sorted(groups)}")
        return problems
    for group, group_pairs in groups.items():
        row = report[("baseline-tg2fa", group)]
        if row["n_pairs"] != len(group_pairs):
            problems.append(f"report.jsonl {group}: n_pairs {row['n_pairs']} != {len(group_pairs)}")
        _compare(problems, f"report.jsonl {group}", row, oracle_scores(group_pairs, oracles), METRICS)
    return problems


def fold_sizes(out: Path) -> list[int]:
    return [len(read_lines(fold / "test.jsonl")) for fold in sorted(out.glob("fold*"))]


def check_score(truth: dict, out: Path, oracles) -> list[str]:
    problems: list[str] = []
    lines = truth["lines"]
    refs = [line.tg_eval for line in lines]
    domains = [line.domain for line in lines]
    for name, system in truth["systems"].items():
        report = _report_rows(out / f"{name}.scores.jsonl")
        pairs = list(zip(system["hyps"], refs))
        groups = _by_group(list(zip(pairs, system["edits"])), domains)
        if set(report) != {(name, g) for g in groups}:
            problems.append(f"{name}: report rows {sorted(report)} do not match the groups {sorted(groups)}")
            continue
        for group, items in groups.items():
            row = report[(name, group)]
            where = f"{name} {group}"
            group_pairs = [p for p, _ in items]
            if row["n_pairs"] != len(items):
                problems.append(f"{where}: n_pairs {row['n_pairs']} != {len(items)}")
            want = {
                "chrf": oracles.corpus_f_direct(group_pairs, 6, 0, 2.0),
                "chrf_pp": oracles.corpus_f_direct(group_pairs, 6, 2, 2.0),
            }
            _compare(problems, where, row, want, ("chrf", "chrf_pp"))
            low = sum(abs(len(h) - len(r)) for h, r in group_pairs) / len(items)
            high = sum(k for _, k in items) / len(items)
            if not (low - TOL <= row["cer"] <= high + TOL):
                problems.append(f"{where}: CER {row['cer']!r} outside [{low!r}, {high!r}]")
            if high == 0:
                control = {"chrf": 100.0, "chrf_pp": 100.0, "acc": 100.0, "cer": 0.0, "ncer": 0.0}
                _compare(problems, f"{where} (control)", row, control, control)
    return problems


def on_lattice(token: str, source: str, table: dict[str, tuple[str, ...]]) -> bool:
    """Whether ``token`` is one path of the lattice of ``source`` under ``table``."""
    reach = {0}  # prefix lengths of ``token`` that some path reaches
    for ch in source:
        cands = table.get(ch)
        if cands is None:
            return False
        reach = {i + len(c) for i in reach for c in cands if token.startswith(c, i)}
        if not reach:
            return False
    return len(token) in reach


def path_count(source: str, table) -> int:
    n = 1
    for ch in source:
        n *= len(table.get(ch, ()))
    return n


def check_decode(
    truth: dict,
    out_lines: list[str],
    lm,
    table: dict[str, tuple[str, ...]],
    oracles,
    seed: int,
    n_ranked: int = 200,
    n_contexts: int = 40,
) -> list[str]:
    """``lm`` is the model the program trained, as loaded by tgfa itself."""
    problems: list[str] = []
    inputs = truth["inputs"]
    if len(out_lines) != len(inputs):
        return [f"{len(out_lines)} output lines for {len(inputs)} input lines"]
    decoded: dict[str, str] = {}
    eligible: set[str] = set()
    for i, (line, out) in enumerate(zip(inputs, out_lines), start=1):
        src_tokens, out_tokens = line.fa_train.split(" "), out.split(" ")
        if len(out_tokens) != len(src_tokens) or "" in out_tokens:
            problems.append(f"line {i}: {len(out_tokens)} tokens for {len(src_tokens)} source tokens")
            continue
        for src, tok in zip(src_tokens, out_tokens):
            if not on_lattice(tok, src, table):
                problems.append(f"line {i}: {tok!r} is not a lattice path of {src!r}")
            elif decoded.setdefault(src, tok) != tok:
                problems.append(f"line {i}: {src!r} decoded to {tok!r}, earlier to {decoded[src]!r}")
            elif path_count(src, table) <= BEAM:
                eligible.add(src)
    rng = random.Random(f"perfbench-check:{seed}")
    for src in rng.sample(sorted(eligible), min(n_ranked, len(eligible))):
        best = oracles.exhaustive_rank([table[ch] for ch in src], lm)[0]
        if decoded[src] != best:
            problems.append(f"{src!r} decoded to {decoded[src]!r}, exhaustive best is {best!r}")
    texts = [line.tg_train for line in truth["train"]]
    vocab = sorted(lm.vocab)
    for _ in range(n_contexts):
        text = rng.choice(texts)
        end = rng.randint(0, len(text))
        context = list(text[max(0, end - rng.randint(0, lm.order - 1)) : end])
        total = sum(lm.prob(s, context) for s in vocab)
        if abs(total - 1.0) > TOL:
            problems.append(f"P(. | {''.join(context)!r}) sums to {total!r}")
    return problems
