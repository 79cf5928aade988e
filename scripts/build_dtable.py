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

    c_m = (1 - a)_(m-1) / (m! (m-1)!),   C(w) = sum_m c_m w^m,
    F_N(y) = N! [w^N] exp(y C(w)),   F(z, y) = sum_N z^N F_N(y),
    S = sum_N z^N F_N'(gamma X) / N,   X = 1 / (1 - a S),
    sum_k mu_k z^k = 1 + (F(z, gamma X) - 1) / gamma,

with (x)_n the rising factorial.  The (gamma X)^j term of S starts at
z^(j+1), so each pass of the fixed point fixes two more orders of X.  Then
d_k is mu_k less the Narayana polynomial beta_k.  The coefficients are exact
Fractions, written as integer numerators over one lcm per order with sorted
keys, so a rebuild is byte-for-byte identical to the committed
``heavymp._dtable``.  On a 2-core AMD EPYC VM (Python 3.11), orders 1..18
take about 1.7 s and orders 1..24 about 11 s, against 2.5 and 17 s before
the weights were read off one table.
"""

from __future__ import annotations

import argparse
import math
from collections import Counter
from fractions import Fraction
from math import factorial
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


def _series_mul(x: Series, y: Series, degree: int) -> Series:
    return [
        _sum(_mul(x[d], y[n - d]) for d in range(max(0, n - len(y) + 1), min(n + 1, len(x))))
        for n in range(degree + 1)
    ]


def _weights(max_length: int) -> tuple[list[Series], list[Series]]:
    """V_j and W_j, series in z with coefficients in a alone, such that
    F(z, y) = sum_j V_j y^j and S = sum_j W_j (gamma X)^j: the z^N term of V_j
    is v[j][N] = N! [w^N] C(w)^j / j!, and that of W_j is (j + 1) / N v[j+1][N]."""
    top = max_length
    c = [{}, ONE]  # c_(m+1) = c_m (m - a) / (m (m + 1))
    for m in range(1, top):
        c.append(_mul(c[m], {(0, 0): Fraction(1, m + 1), (1, 0): Fraction(-1, m * (m + 1))}))
    v = []
    power = [ONE] + [{}] * top  # [w^N] C(w)^j, from j = 0
    for j in range(top + 1):
        v.append([{key: value * factorial(n) / factorial(j) for key, value in power[n].items()}
                  for n in range(top + 1)])
        power = [_sum(_mul(power[n - m], c[m]) for m in range(1, n + 1)) for n in range(top + 1)]
    w = [
        [{}] + [{key: value * (j + 1) / n for key, value in v[j + 1][n].items()} for n in range(1, top + 1)]
        for j in range(top)
    ]
    return v, w


def _compose(weights: list[Series], x: Series, degree: int) -> Series:
    """sum_j weights[j] (gamma X)^j to degree ``degree``, by Horner's rule;
    weights[j] starts at z^j or later, so j <= degree suffices."""
    y = [{(i, j + 1): c for (i, j), c in coefficient.items()} for coefficient in x]
    total: Series = [{} for _ in range(degree + 1)]
    for weight in reversed(weights[: degree + 1]):
        total = [_sum(pair) for pair in zip(_series_mul(y, total, degree), weight)]
    return total


def moment_polynomials(max_length: int) -> Series:
    """mu_0..mu_max_length as polynomials in a = alpha/2 and gamma."""
    v, w = _weights(max_length)
    x = [ONE]
    # W_j starts at z^(j+1), and W_1 at z^2 with coefficient 1, so S to degree n
    # reads X only to degree n - 2: a pass fed X exact to degree q fixes S, and
    # with it X, to degree q + 2.  F to degree L reads X only to degree L - 1,
    # so passes at p = 2, 4, ..., up to L suffice.
    for p in range(2, max_length + 1, 2):
        s = _compose(w, x, p)
        # X = 1 + a S X, so X_n = a sum_{d=1}^{n} S_d X_(n-d)
        x = [ONE]
        for n in range(1, p + 1):
            x_n = _sum(_mul(s[d], x[n - d]) for d in range(1, n + 1))
            x.append({(i + 1, j): c for (i, j), c in x_n.items()})
    # 1 + (F(z, gamma X) - 1) / gamma: past z^0, every term of F carries gamma
    f = _compose(v, x, max_length)
    return [ONE] + [{(i, j - 1): c for (i, j), c in coefficient.items()} for coefficient in f[1:]]


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
