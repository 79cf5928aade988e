"""Write the table of moment gaps d_1..d_L to standard output.

    PYTHONPATH=src python scripts/build_dtable.py > src/heavymp/_dtable.py
    PYTHONPATH=src python scripts/build_dtable.py --max-length 11

d_k(a, gamma) = mu_k - beta_k is the heavy-tailed part of the k-th moment, a
polynomial in a = alpha/2 and gamma.  No path is walked.  A canonical pair
(I, T) of length k adds to mu_k exactly when its closed walk
i_1 t_1 ... i_k t_k i_1 stays on a tree.  Summing each vertex's weight over
the orders in which its excursions interleave splits a pair's weight into one
factor per edge, and the sum over all such pairs becomes a fixed point for
sum_k mu_k z^k in formal power series whose coefficients are polynomials in a
and gamma:

    c_m = (1 - a)_(m-1) / (m! (m-1)!),   e_(M,j) = [w^M] (sum_m c_m w^m)^j / j!,
    B_m = sum_M C(m-1+M, M) M! z^M sum_j e_(M,j) (gamma X)^j,
    S = sum_m z^m (1 - a)_(m-1) / m! B_m,   G = sum_m m z^m (1 - a)_(m-1) / m! B_m,
    X = 1 / (1 - a S),   sum_k mu_k z^k = 1 + G X,

with (x)_n the rising factorial and B_m the weight of a column vertex
entered m times.  S has no constant term, so pass p of the fixed point, run
to degree p only, fixes X to degree p.  Then d_k is mu_k less the Narayana
polynomial beta_k.  The coefficients are exact Fractions, written as
integer numerators over one lcm per order with sorted keys, so a rebuild is
byte-for-byte identical to the committed ``heavymp._dtable``.  On a 2-core
Xeon VM, orders 1..14 take about 1.6 s, and orders 1..18 about 7 s.
"""

from __future__ import annotations

import argparse
import math
from collections import Counter
from fractions import Fraction
from math import comb, factorial
from typing import Iterable

from heavymp.combinatorics import count_c0

Poly = dict[tuple[int, int], Fraction]  # {(i, j): coefficient of a^i gamma^j}
Series = list[Poly]  # the coefficients of z^0, z^1, ...
ONE: Poly = {(0, 0): Fraction(1)}

HEADER = '''"""d_k = mu_k - beta_k for k = 1..{top}, generated by scripts/build_dtable.py; do not edit.

D[k] is (L, lines) with one line "i j n" per non-zero coefficient n / L of
a^i gamma^j in d_k, a = alpha/2, n an integer and L the lcm of d_k's
denominators.  Strings compile faster than tuples, and heavymp.moments
parses an order on first use.
"""

D = {{
'''


def _mul(p: Poly, q: Poly) -> Poly:
    out: Counter[tuple[int, int]] = Counter()
    for (i, j), c in p.items():
        for (k, l), d in q.items():
            out[i + k, j + l] += c * d
    return {key: c for key, c in out.items() if c}


def _sum(polys: Iterable[Poly]) -> Poly:
    out: Counter[tuple[int, int]] = Counter()
    for p in polys:
        out.update(p)
    return {key: c for key, c in out.items() if c}


def _times_shifts(poly: list[int], m: int) -> list[int]:
    """poly(a) Gamma(m - a) / Gamma(1 - a) = poly(a) prod_{j=1}^{m-1} (j - a), ascending in a."""
    for j in range(1, m):
        poly = [j * c - lower for c, lower in zip(poly + [0], [0] + poly)]
    return poly


def _series_mul(x: Series, y: Series, degree: int) -> Series:
    return [
        _sum(_mul(x[d], y[n - d]) for d in range(max(0, n - len(y) + 1), min(n + 1, len(x))))
        for n in range(degree + 1)
    ]


def _weights(max_length: int) -> tuple[list[Series], list[Series]]:
    """W_j and mW_j, series in z with coefficients in a alone, such that
    S = sum_j W_j (gamma X)^j and G = sum_j mW_j (gamma X)^j: the z^(m+M) term
    of W_j is (1 - a)_(m-1) / m! C(m-1+M, M) M! e_(M,j), summed over m >= 1,
    and mW_j carries an extra factor m."""
    top = max_length
    rising = [[]] + [_times_shifts([1], m) for m in range(1, top + 1)]  # (1 - a)_(m-1)

    def in_a(coefficients: list[int], scale: Fraction) -> Poly:
        return {(i, 0): scale * c for i, c in enumerate(coefficients) if c}

    c = [{}] + [in_a(rising[m], Fraction(1, factorial(m) * factorial(m - 1))) for m in range(1, top + 1)]
    w = [[{} for _ in range(top + 1)] for _ in range(top)]
    mw = [[{} for _ in range(top + 1)] for _ in range(top)]
    power = [ONE] + [{}] * top  # [w^M] C(w)^j, from j = 0
    for j in range(top):
        for big_m in range(j, top):
            e = {key: v * factorial(big_m) / factorial(j) for key, v in power[big_m].items()}  # M! e_(M,j)
            for m in range(1, top - big_m + 1):
                term = _mul(in_a(rising[m], Fraction(comb(m - 1 + big_m, big_m), factorial(m))), e)
                w[j][m + big_m] = _sum((w[j][m + big_m], term))
                mw[j][m + big_m] = _sum((mw[j][m + big_m], {key: m * v for key, v in term.items()}))
        power = [_sum(_mul(power[n - m], c[m]) for m in range(1, n + 1)) for n in range(top + 1)]
    return w, mw


def _compose(weights: list[Series], x: Series, degree: int) -> Series:
    """sum_j weights[j] (gamma X)^j to degree ``degree``, by Horner's rule;
    weights[j] starts at z^(j+1), so j < degree suffices."""
    y = [{(i, j + 1): c for (i, j), c in coefficient.items()} for coefficient in x]
    total: Series = [{} for _ in range(degree + 1)]
    for j in reversed(range(degree)):
        total = [_sum(pair) for pair in zip(_series_mul(y, total, degree), weights[j])]
    return total


def moment_polynomials(max_length: int) -> Series:
    """mu_0..mu_max_length as polynomials in a = alpha/2 and gamma."""
    w, mw = _weights(max_length)
    x = [ONE]
    for p in range(1, max_length + 1):
        s = _compose(w, x, p)
        # X = 1 + a S X, so X_n = a sum_{d=1}^{n} S_d X_(n-d)
        x = [ONE]
        for n in range(1, p + 1):
            x_n = _sum(_mul(s[d], x[n - d]) for d in range(1, n + 1))
            x.append({(i + 1, j): c for (i, j), c in x_n.items()})
    return [ONE] + _series_mul(_compose(mw, x, max_length), x, max_length)[1:]


def gap_polynomials(max_length: int) -> dict[int, Poly]:
    """d_1..d_max_length, each {(i, j): coefficient} in sorted order, zeros dropped:
    mu_k less the Narayana polynomial beta_k = sum_r C0(k, r) gamma^(r-1)."""
    mu = moment_polynomials(max_length)
    gaps = {}
    for k in range(1, max_length + 1):
        beta = {(0, r - 1): Fraction(-count_c0(k, r)) for r in range(1, k + 1)}
        gaps[k] = dict(sorted(_sum((mu[k], beta)).items()))
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
