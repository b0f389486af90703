#!/usr/bin/env python3
"""Regenerate the Bernoulli number table shipped as nearone/bernoulli.py.

The table holds the even-index Bernoulli numbers B_2 .. B_62 as exact
integer fractions, computed with the defining recurrence

    sum_{j=0}^{m} C(m+1, j) B_j = 0,  B_0 = 1

in exact rational arithmetic.  Output is deterministic, so regenerating
must reproduce the committed module byte for byte.

Usage: python scripts/gen_bernoulli.py [dest]
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import comb
from pathlib import Path

MAX_EVEN_INDEX = 62

HEADER = '''"""Even-index Bernoulli numbers B_2 .. B_62 as exact (numerator, denominator) pairs.

Generated by scripts/gen_bernoulli.py; do not edit by hand.  Entry k of
BERNOULLI_EVEN (0-based) is B_{2(k+1)}.  The zeta engine reads the first
21 entries: at most 20 Euler-Maclaurin correction terms plus one for the
remainder estimate.  The rest are kept for tests/test_bernoulli.py.
"""

BERNOULLI_EVEN = (
'''


def bernoulli_fractions(n: int) -> list[Fraction]:
    out = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += comb(m + 1, j) * out[j]
        out.append(-acc / (m + 1))
    return out


def render() -> str:
    table = bernoulli_fractions(MAX_EVEN_INDEX)
    lines = [HEADER]
    for idx in range(2, MAX_EVEN_INDEX + 1, 2):
        b = table[idx]
        lines.append(f"    ({b.numerator}, {b.denominator}),\n")
    lines.append(")\n")
    return "".join(lines)


def main() -> None:
    dest = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        Path(__file__).resolve().parent.parent / "src" / "nearone" / "bernoulli.py")
    dest.write_text(render())
    print(f"wrote {dest}")


if __name__ == "__main__":
    main()
