"""Write the table of irreducible-path polynomials Q_4..Q_L to standard output.

    PYTHONPATH=src python scripts/build_qtable.py > src/heavymp/_qtable.py
    PYTHONPATH=src python scripts/build_qtable.py --max-length 11

Q_l(a, gamma) sums gamma^(r-1) P_I over the irreducible canonical paths I of
length l (see ``heavymp.moments.heavy_tail_gap``).  Each is built by walking
those paths once, folded into dihedral classes, and written as exact Fraction
strings with sorted keys, so a rebuild is byte-for-byte identical to the
committed ``heavymp._qtable``.  Lengths 4..14 take about 20 s on a 2-core
Xeon VM, 14 s of it at length 14 (1,913,561 paths in 70,386 classes).
"""

from __future__ import annotations

import argparse
from collections import Counter
from fractions import Fraction

from heavymp.delta_graphs import _core_polynomial
from heavymp.paths import irreducible_classes

HEADER = '''"""Q_l(a, gamma) for l = 4..{top}, generated by scripts/build_qtable.py; do not edit.

Q[l] holds one line "i j c" per non-zero coefficient c of a^i gamma^j in Q_l,
a = alpha/2, with c an exact Fraction string.  Strings compile faster than
tuples, and heavymp.moments parses a length on first use.
"""

Q = {{
'''


def build_irreducible_polynomial(length: int) -> dict[tuple[int, int], Fraction]:
    """Q_length, {(i, j): coefficient of (alpha/2)^i gamma^j} in sorted order,
    zeros dropped: gamma^(r - 1) P_I is added once per dihedral class of
    irreducible paths, weighted by the class size, since rotating or
    reversing a core leaves its limit unchanged."""
    poly: Counter[tuple[int, int]] = Counter()
    for core, size in irreducible_classes(length):
        for i, c in enumerate(_core_polynomial(core)):
            poly[i, max(core) - 1] += size * c
    return {key: c for key, c in sorted(poly.items()) if c}


def render(max_length: int) -> str:
    lines = [HEADER.format(top=max_length)]
    for length in range(4, max_length + 1):
        body = "".join(
            f'        "{i} {j} {c}\\n"\n'
            for (i, j), c in build_irreducible_polynomial(length).items()
        )
        lines.append(f"    {length}: (\n{body}    ),\n" if body else f'    {length}: "",\n')
    lines.append("}\n")
    return "".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-length", type=int, default=14)
    args = parser.parse_args()
    if args.max_length < 4:
        parser.error(f"--max-length must be >= 4, got {args.max_length}")
    print(render(args.max_length), end="")


if __name__ == "__main__":
    main()
