"""The moment series of H_{alpha,gamma} as one fixed point, over any coefficient ring.

No path is walked.  A canonical pair (I, T) of length k adds to mu_k exactly
when its closed walk i_1 t_1 ... i_k t_k i_1 stays on a tree.  Summing each
vertex's weight over the orders in which its excursions interleave splits a
pair's weight into one factor per edge, and the sum over all such pairs
becomes a fixed point for sum_k mu_k z^k in formal power series in z:

    c_m = (1 - a)_(m-1) / (m! (m-1)!),   C(w) = sum_m c_m w^m,
    V_j = sum_N z^N N! [w^N] C(w)^j / j!,   W_j = sum_N z^N (j + 1) / N [z^N] V_(j+1),
    S = sum_j W_j (gamma X)^j,   X = 1 / (1 - a S),
    sum_k mu_k z^k = 1 + X sum_j V_(j+1) (gamma X)^j,

with a = alpha/2 and (x)_n the rising factorial.  The last line is
1 + (F(z, gamma X) - 1) / gamma for F(z, y) = sum_j V_j y^j, written without
dividing by gamma.  gamma^j is folded into the rows of V_(j+1) and W_j, and the
fixed point is solved in one sweep over n: W_j starts at z^(j+1), so [z^n] S
reads the stored power X^j only to degree n - 1 - j, already fixed, and
[z^n] X follows from X = 1 + a S X.  Each order of X and of X^j is made once.

``moment_series`` runs in the ring that a and gamma live in: at a point in
exact Fractions (``moments.moment_table`` past the committed table), or in
polynomials in a and gamma (scripts/build_dtable.py, which writes that
table).  A ring element needs only + and *, with itself and with ints and
Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


def _product(x: list, y: list, degree: int) -> list:
    """The series x y to degree ``degree``; y holds at least degree + 1 terms."""
    return [sum(x[d] * y[n - d] for d in range(min(n + 1, len(x)))) for n in range(degree + 1)]


def _fold(rows: list, powers: list, n: int):
    """[z^n] sum_j rows[j] powers[j], where rows[j] starts at z^(j+1)."""
    return sum(rows[j][m] * powers[j][n - m] for j in range(n) for m in range(j + 1, n + 1))


def moment_series(a, gamma, order: int) -> list:
    """mu_0..mu_order of H_{alpha,gamma}, a = alpha/2, in the ring of a and
    gamma; order >= 1."""
    zero = a * 0
    one = zero + 1
    c = [zero, one]  # c_(m+1) = c_m (m - a) / (m (m + 1))
    for m in range(1, order):
        c.append(c[m] * (Fraction(1, m + 1) + a * Fraction(-1, m * (m + 1))))
    v, w, power, scale = [], [], c, one  # gamma^j V_(j+1), gamma^j W_j, [w^N] C(w)^(j+1)
    for j in range(order):
        v.append([power[n] * scale * Fraction(factorial(n), factorial(j + 1)) for n in range(order + 1)])
        w.append([zero] + [v[j][n] * Fraction(j + 1, n) for n in range(1, order + 1)])
        power, scale = _product(power, c, order), scale * gamma
    # powers[j] = X^j, and X is powers[1]; mu_order reads X^j to degree
    # order - j, so X^j is extended only that far
    x = [one]
    powers = [[one] + [zero] * order, x] + [[one] for _ in range(2, order + 1)]
    s = [zero]
    for n in range(1, order):  # X = 1 + a S X, order n of S and then of X
        s.append(_fold(w, powers, n))
        x.append(a * sum(s[d] * x[n - d] for d in range(1, n + 1)))
        for j in range(2, order - n + 1):
            powers[j].append(sum(x[d] * powers[j - 1][n - d] for d in range(n + 1)))
    return [one] + [_fold(v, powers[1:], n) for n in range(1, order + 1)]
