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
dividing by gamma.  V_j and W_(j-1) start at z^j, so each pass of the fixed
point fixes two more orders of X.

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


def _compose(weights: list, y: list, degree: int) -> list:
    """sum_j weights[j] y^j to degree ``degree``, by Horner's rule; y has no
    constant term and weights[j] starts at z^(j+1), so j < degree suffices."""
    total = weights[degree - 1][: degree + 1]
    for weight in reversed(weights[: degree - 1]):
        total = [t + u for t, u in zip(_product(y, total, degree), weight)]
    return total


def moment_series(a, gamma, order: int) -> list:
    """mu_0..mu_order of H_{alpha,gamma}, a = alpha/2, in the ring of a and
    gamma; order >= 1."""
    zero = a * 0
    one = zero + 1
    c = [zero, one]  # c_(m+1) = c_m (m - a) / (m (m + 1))
    for m in range(1, order):
        c.append(c[m] * (Fraction(1, m + 1) + a * Fraction(-1, m * (m + 1))))
    v, w, power = [], [], c  # V_(j+1), W_j and [w^N] C(w)^(j+1), from j = 0
    for j in range(order):
        v.append([power[n] * Fraction(factorial(n), factorial(j + 1)) for n in range(order + 1)])
        w.append([zero] + [v[j][n] * Fraction(j + 1, n) for n in range(1, order + 1)])
        power = _product(power, c, order)
    x = [one]
    # W_j starts at z^(j+1), and W_1 at z^2 with coefficient 1, so S to degree n
    # reads X only to degree n - 2: a pass fed X exact to degree q fixes S, and
    # with it X, to degree q + 2.  The moments to degree ``order`` read X only
    # to degree order - 1, so passes at p = 2, 4, ..., up to order suffice.
    for p in range(2, order + 1, 2):
        s = _compose(w, [gamma * t for t in x], p)
        x = [one]
        for n in range(1, p + 1):  # X = 1 + a S X
            x.append(a * sum(s[d] * x[n - d] for d in range(1, n + 1)))
    mu = _product(x, _compose(v, [gamma * t for t in x], order), order)
    mu[0] += 1
    return mu
