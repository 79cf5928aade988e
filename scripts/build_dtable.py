"""Write the table of moment gaps d_1..d_L, d_k = mu_k - beta_k, to standard output.

    PYTHONPATH=src python scripts/build_dtable.py > src/heavymp/_dtable.py
    PYTHONPATH=src python scripts/build_dtable.py --max-length 11
"""

from __future__ import annotations

import argparse
import math
from collections import Counter
from fractions import Fraction

from heavymp.combinatorics import count_c0
from heavymp.series import moment_series


class Poly(dict):
    """{(i, j): coefficient of a^i gamma^j}, with no zero coefficient; it adds
    and multiplies with another Poly, an int or a Fraction."""

    def __add__(self, other):
        out = Counter(self)
        out.update(other if isinstance(other, Poly) else {(0, 0): other})
        return Poly({key: c for key, c in out.items() if c})

    __radd__ = __add__

    def __mul__(self, other):
        out: Counter[tuple[int, int]] = Counter()
        for (i, j), c in self.items():
            for (k, l), d in (other if isinstance(other, Poly) else {(0, 0): other}).items():
                out[i + k, j + l] += c * d
        return Poly({key: c for key, c in out.items() if c})

    __rmul__ = __mul__


A, GAMMA = Poly({(1, 0): Fraction(1)}), Poly({(0, 1): Fraction(1)})

HEADER = '''"""d_k = mu_k - beta_k for k = 1..{top}, generated by scripts/build_dtable.py; do not edit.

D[k] is (L, lines) with one line "i j n" per non-zero coefficient n / L of
a^i gamma^j in d_k, a = alpha/2, n an integer and L the lcm of d_k's
denominators.  Strings compile faster than tuples, and heavymp.moments
parses an order on first use.
"""

D = {{
'''


def gap_polynomials(max_length: int) -> dict[int, Poly]:
    """d_1..d_max_length, each {(i, j): coefficient} in sorted order, zeros dropped:
    mu_k less the Narayana polynomial beta_k = sum_r C0(k, r) gamma^(r-1)."""
    mu = moment_series(A, GAMMA, max_length)
    gaps = {}
    for k in range(1, max_length + 1):
        beta = Poly({(0, r - 1): Fraction(-count_c0(k, r)) for r in range(1, k + 1)})
        gaps[k] = dict(sorted((mu[k] + beta).items()))
    return gaps


def render(max_length: int) -> str:
    lines = [HEADER.format(top=max_length)]
    for k, poly in gap_polynomials(max_length).items():
        lcm = math.lcm(*(c.denominator for c in poly.values()))
        body = "".join(f'        "{i} {j} {c * lcm}\\n"\n' for (i, j), c in poly.items())
        lines.append(f"    {k}: ({lcm},\n{body}    ),\n" if body else f'    {k}: (1, ""),\n')
    lines.append("}\n")
    return "".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-length", type=int, default=18)
    args = parser.parse_args()
    if args.max_length < 1:
        parser.error(f"--max-length must be >= 1, got {args.max_length}")
    print(render(args.max_length), end="")


if __name__ == "__main__":
    main()
