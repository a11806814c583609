#!/usr/bin/env python3
"""Benchmark the compiled edit-distance kernel against the pure-Python fallback.

The compiled kernel is a two-row Levenshtein DP; the fallback is the
bit-parallel Myers/Hyyrö algorithm over Python integers. Corpus scoring
calls the kernel once per pair. Run after
`pip install -e . --no-build-isolation` so the extension is built:

    python benchmarks/bench_kernels.py
    python benchmarks/bench_kernels.py --pairs 5000 --lengths 10,40,160
"""

from __future__ import annotations

import argparse
import random
import time

from tgfa._kernels_py import levenshtein as py_levenshtein

try:
    from tgfa._speedups import levenshtein as c_levenshtein
except ImportError:
    c_levenshtein = None

ALPHABET = "абвгдезиклмнорстуфхчшғқҳҷ "


def make_pairs(n: int, length: int, seed: int) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    pairs = []
    for _ in range(n):
        ref = "".join(rng.choice(ALPHABET) for _ in range(length))
        # Perturb ~15% of positions so distances are realistic, not maximal.
        hyp = "".join(
            rng.choice(ALPHABET) if rng.random() < 0.15 else ch for ch in ref
        )
        pairs.append((hyp, ref))
    return pairs


def bench(fn, pairs: list[tuple[str, str]], repeats: int = 3) -> tuple[float, int]:
    best = float("inf")
    total = 0
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for a, b in pairs:
            total += fn(a, b)
        best = min(best, time.perf_counter() - started)
    return best, total


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=2000, help="pairs per row")
    parser.add_argument("--lengths", default="10,30,100,300", help="comma-separated string lengths")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    lengths = [int(x) for x in args.lengths.split(",")]
    print(f"{args.pairs} pairs per row, best of 3 runs\n")
    header = f"{'len':>5}  {'python':>12}  {'compiled':>12}  {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for length in lengths:
        pairs = make_pairs(args.pairs, length, args.seed)
        py_time, py_total = bench(py_levenshtein, pairs)
        row = f"{length:>5}  {py_time:>10.3f}s "
        if c_levenshtein is None:
            row += f"  {'not built':>12}  {'-':>8}"
        else:
            c_time, c_total = bench(c_levenshtein, pairs)
            if c_total != py_total:
                raise SystemExit(
                    f"kernels disagree at length {length}: {c_total} != {py_total}"
                )
            row += f"  {c_time:>10.3f}s   {py_time / c_time:>6.1f}x"
        print(row)


if __name__ == "__main__":
    main()
