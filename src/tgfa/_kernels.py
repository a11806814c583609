"""The Levenshtein kernel behind every CER and NCER value.

Bit-parallel (Myers 1999, in Hyyrö's 2001 formulation for the global
distance): one column of the DP matrix is held as vertical +1/-1 delta
bit vectors over the shorter string, in Python integers of any width,
and each character of the longer string updates the whole column in a
constant number of integer operations.
"""

from __future__ import annotations

__all__ = ["levenshtein"]


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance over Unicode scalar values."""
    if a == b:
        return 0
    # Trim the common prefix and suffix; they never contribute edits.
    lo = 0
    hi_a, hi_b = len(a), len(b)
    while lo < hi_a and lo < hi_b and a[lo] == b[lo]:
        lo += 1
    while hi_a > lo and hi_b > lo and a[hi_a - 1] == b[hi_b - 1]:
        hi_a -= 1
        hi_b -= 1
    a, b = a[lo:hi_a], b[lo:hi_b]
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) > len(b):
        a, b = b, a
    # peq[c] has bit i set where a[i] == c.
    peq: dict[str, int] = {}
    bit = 1
    for c in a:
        peq[c] = peq.get(c, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    pv, mv = mask, 0
    dist = len(a)
    for c in b:
        eq = peq.get(c, 0)
        d0 = (((eq & pv) + pv) ^ pv) | eq | mv
        ph = mv | ~(d0 | pv)
        mh = pv & d0
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        # Row 0 of the matrix grows by one per column: shift in a +1.
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(d0 | ph)) & mask
        mv = ph & d0
    return dist
