"""Exact limiting spectral moments, light- and heavy-tailed.

The classical moments ``mp_moment`` are evaluated in rational arithmetic.
The heavy-tailed moments ``heavy_mp_moment`` are assembled path-wise: each
canonical path of length k shortens to a core; completely reducible paths
(empty core) sum to the classical part, and each non-empty core contributes
gamma^(r-1) times a polynomial in alpha/2 with rational coefficients, summed
over its contributing column-path levels.  So d_k = mu_k - beta_k is a
polynomial in alpha and gamma, evaluated exactly and rounded once.

No path is shortened: the number of paths of each length with a given core
and number of simple removals is a product of two binomials (see
``heavy_tail_gap``), so d_k needs only the polynomials Q_4..Q_k of the
irreducible paths.  scripts/build_qtable.py builds them once, walking the
irreducible paths of lengths 4..14 folded into dihedral classes, and writes
their exact coefficients to ``heavymp._qtable``, which moments read: no
moment walks a path.  At a point (alpha, gamma), each Q_l becomes one integer
numerator over a denominator shared by all l, and beta_1..beta_K and
d_1..d_K come out of one pass in integers (``_moment_numerators``), each
rounded once by an integer division: a cold k = 14 table takes under 2 ms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Iterable, NamedTuple, Sequence

from heavymp import _qtable
from heavymp.combinatorics import _times_shifts, count_c0, count_irreducible, stirling2

# int, Fraction or str; a float is taken at its exact binary value, so pass a
# str or Fraction for decimal-exact gammas
RationalLike = int | Fraction | str

#: Largest moment order: the top length of the committed Q_l table.
MOMENT_K_MAX = max(_qtable.Q)


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in the open interval (0, 2), got {alpha}")


def _check_gamma(gamma: float) -> None:
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be finite and positive, got {gamma}")


def mp_moment_exact(gamma: RationalLike, k: int) -> Fraction:
    """k-th Marchenko-Pastur moment as an exact rational.

    beta_k(gamma) = sum_r C0(k, r) gamma^(r-1), with C0(k, r) = (1/r) C(k, r-1)
    C(k-1, r-1) the completely reducible paths (the Narayana numbers).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    g = Fraction(gamma)
    if g <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return sum(count_c0(k, r) * g ** (r - 1) for r in range(1, k + 1))


def mp_moment(gamma: float, k: int) -> float:
    _check_gamma(gamma)
    return float(mp_moment_exact(gamma, k))


def self_normalized_moment_limit(k_parts: Sequence[int], alpha: float) -> float:
    """Limit of C(n, r) E[Y_11^(2k_1) ... Y_1r^(2k_r)] for row-normalized data.

    Equals (a/2)^(r-1) prod_j Gamma(k_j - a/2) / (r Gamma(1 - a/2)^r Gamma(k))
    with k = sum k_j and a the tail index, evaluated exactly.
    """
    _check_alpha(alpha)
    if not k_parts or any(kj < 1 for kj in k_parts):
        raise ValueError(f"k_parts must be non-empty positive integers, got {k_parts}")
    r = len(k_parts)
    poly = [0] * (r - 1) + [1]
    for kj in k_parts:
        poly = _times_shifts(poly, kj)
    a = Fraction(alpha) / 2
    return float(sum(c * a**i for i, c in enumerate(poly)) / (r * factorial(sum(k_parts) - 1)))


def heavy_mp_moment(alpha: float, gamma: float, k: int) -> float:
    """k-th moment of the heavy-tailed limiting spectral law, beta_k + d_k,
    summed exactly and rounded once."""
    return moment_table(alpha, gamma, k).mu[-1]


def heavy_tail_gap(alpha: float, gamma: float, k: int) -> float:
    """d_k = mu_k - beta_k, the excess over the classical moment.

    Path-wise, d_k sums gamma^simples * gamma^(r-1) P_I(alpha/2) over the
    canonical length-k paths with a non-empty core I on r labels.  Deleting
    the j singleton labels of such a path leaves a singleton-free path of
    length m = k - j with the same core and j fewer simple removals.  A singleton-free path of length m
    whose core I has length l and whose shortening makes s simple removals
    occurs, for each canonical form of I,

        N(l, m, s) = C(m, l + 2s) C(l + 2s, s)

    times.  Sketch: shortening erases m - l - s runs.  A simple letter x
    removed from y x y leaves the run y y, so each simple removal is a pair
    of letters that collapses onto the core, and the s pairs sit among the
    l + 2s letters that are not plain run letters in C(l + 2s, s) ways.
    Each of the other m - l - 2s erased letters duplicates a neighbour,
    and their places among the m positions give C(m, l + 2s).  (The tests
    check N against a full census of the paths for m <= 12.)  Summing the
    singleton positions over m, sum_m C(k, m) C(m, n) gamma^(k-m) =
    C(k, n) (1 + gamma)^(k-n), so

        d_k = sum_l sum_s C(k, l + 2s) C(l + 2s, s) gamma^s (1 + gamma)^(k-l-2s) Q_l,

    where Q_l sums gamma^(r-1) P_I (``delta_graphs._core_polynomial``) over the
    irreducible canonical paths I of length l, a polynomial in alpha/2 and
    gamma read from the committed table.  So d_k depends only on Q_4..Q_k.
    It is evaluated in integers at the binary values of alpha and gamma, as
    one numerator over a common denominator (``_moment_numerators``), and
    rounded once by a single integer division.
    """
    return moment_table(alpha, gamma, k).d[-1]


def _heavy_tail_gap_exact(alpha: RationalLike, gamma: RationalLike, k: int) -> Fraction:
    """d_k exactly, for any rational alpha and gamma (alpha = 0 and 2 included)."""
    _b, d, den = _moment_numerators(Fraction(alpha), Fraction(gamma), k)[-1]
    return Fraction(d, den)


def _moment_numerators(alpha: Fraction, gamma: Fraction, k_max: int) -> list[tuple[int, int, int]]:
    """(b, d, den) for k = 1..k_max: beta_k = b / den and d_k = d / den exactly.

    With a = alpha/2 = A/D_a and gamma = G/D_g, every Q_l is one integer
    numerator q_l over the shared denominator L D_a^I D_g^J (L the lcm of the
    table's denominators, I and J its top powers of a and gamma), and the
    terms of d_k and beta_k share the denominator L D_a^I D_g^J D_g^(k-1).
    An int division rounds correctly, so b / den is float(Fraction(b, den)).
    """
    a = alpha / 2
    big_a, den_a = a.numerator, a.denominator
    big_g, den_g = gamma.numerator, gamma.denominator
    polys = {length: _integer_polynomial(length) for length in range(4, k_max + 1)}
    lcm = math.lcm(*(poly_lcm for poly_lcm, _terms in polys.values()))
    top_i = max((i for _lcm, terms in polys.values() for i, _j, _c in terms), default=0)
    top_j = max((j for _lcm, terms in polys.values() for _i, j, _c in terms), default=0)
    a_terms = [big_a**i * den_a ** (top_i - i) for i in range(top_i + 1)]
    g_terms = [big_g**j * den_g ** (top_j - j) for j in range(top_j + 1)]
    q = {
        length: lcm // poly_lcm * sum(c * a_terms[i] * g_terms[j] for i, j, c in terms)
        for length, (poly_lcm, terms) in polys.items()
    }
    q_den = lcm * den_a**top_i * den_g**top_j
    g_pow, one_plus_g_pow, den_g_pow = ([1] for _ in range(3))
    for _ in range(k_max):
        g_pow.append(g_pow[-1] * big_g)
        one_plus_g_pow.append(one_plus_g_pow[-1] * (den_g + big_g))
        den_g_pow.append(den_g_pow[-1] * den_g)
    rows = []
    for k in range(1, k_max + 1):
        # beta_k = sum_r C0(k, r) gamma^(r-1), the completely reducible paths
        b = sum(count_c0(k, r) * g_pow[r - 1] * den_g_pow[k - r] for r in range(1, k + 1))
        # gamma^s (1 + gamma)^(k-n) = G^s (D_g + G)^(k-n) / D_g^(k-l-s) with n = l + 2s,
        # so over D_g^(k-1) the term takes D_g^(l+s-1)
        d = sum(
            comb(k, length + 2 * s) * comb(length + 2 * s, s) * g_pow[s]
            * one_plus_g_pow[k - length - 2 * s] * den_g_pow[length + s - 1] * q[length]
            for length in range(4, k + 1)
            for s in range((k - length) // 2 + 1)
        )
        rows.append((b * q_den, d, q_den * den_g_pow[k - 1]))
    return rows


@lru_cache(maxsize=None)
def _integer_polynomial(length: int) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """Q_length as (L, ((i, j, c), ...)) with c / L the coefficient of
    (alpha/2)^i gamma^j and L the lcm of the denominators, parsed from the
    committed table on first use."""
    terms = []
    for line in _qtable.Q[length].splitlines():
        i, j, coefficient = line.split()
        num, _, den = coefficient.partition("/")
        terms.append((int(i), int(j), int(num), int(den or 1)))
    lcm = math.lcm(*(den for _i, _j, _num, den in terms))
    return lcm, tuple((i, j, num * (lcm // den)) for i, j, num, den in terms)


class MomentTable(NamedTuple):
    """Moments mu_k = beta_k + d_k for k = 1..k_max, each of beta_k, d_k and
    mu_k computed exactly and rounded once."""

    alpha: float
    gamma: float
    k_max: int
    beta: tuple[float, ...]
    d: tuple[float, ...]
    mu: tuple[float, ...]


def moment_table(alpha: float, gamma: float, k_max: int) -> MomentTable:
    """beta_k, d_k and mu_k for k = 1..k_max; alpha in (0, 2), gamma finite and positive."""
    _check_alpha(alpha)
    _check_gamma(gamma)
    if k_max < 1:
        raise ValueError(f"k must be >= 1, got {k_max}")
    if k_max > MOMENT_K_MAX:
        walked = sum(
            count_irreducible(length, r) for length in range(4, k_max + 1) for r in range(1, length + 1)
        )
        raise RuntimeError(
            f"moment order k={k_max} exceeds {MOMENT_K_MAX}: the table holds Q_4..Q_{MOMENT_K_MAX}, and "
            f"building Q_4..Q_{k_max} walks the {walked} irreducible paths of lengths 4..{k_max}, "
            f"a count bounded by the Bell numbers and growing nearly as fast"
        )
    rows = _moment_numerators(Fraction(alpha), Fraction(gamma), k_max)
    beta = tuple(b / den for b, _d, den in rows)
    d = tuple(d / den for _b, d, den in rows)
    mu = tuple((b + d) / den for b, d, den in rows)
    return MomentTable(alpha, gamma, k_max, beta, d, mu)


class ModifiedPoisson(NamedTuple):
    """Limit law of the spectra as the tail index tends to 0.

    A Poisson(gamma) with the masses at k >= 1 scaled by 1/gamma and a
    compensating atom at 0.
    """

    gamma: float

    def pmf(self, k: int) -> float:
        if k < 0:
            return 0.0
        if k == 0:
            # 1 - (1 - e^-g) / g, which cancels catastrophically as g -> 0;
            # below 1 sum g/2 - g^2/6 + g^3/24 - ..., whose terms after the
            # 19th are under 1e-19 of the first
            g = self.gamma
            if g >= 1:
                return 1 + math.expm1(-g) / g
            return -math.fsum((-g) ** n / math.factorial(n + 1) for n in range(1, 20))
        # log-space guards against huge factorials for deep tail queries
        return math.exp(-self.gamma + (k - 1) * math.log(self.gamma) - math.lgamma(k + 1))

    def moment(self, k: int) -> float:
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if k == 0:
            return 1.0
        return boundary_moment_alpha0(self.gamma, k)

    def support(self, tail_tol: float = 1e-15) -> Iterable[int]:
        """0, 1, 2, ... until the remaining tail mass drops below tail_tol."""
        k = 0
        remaining = 1.0
        while remaining > tail_tol:
            yield k
            remaining -= self.pmf(k)
            k += 1


def boundary_modified_poisson(gamma: float) -> ModifiedPoisson:
    _check_gamma(gamma)
    return ModifiedPoisson(gamma)


def boundary_moment_alpha0(gamma: float, k: int) -> float:
    """Limit of the k-th heavy moment as the tail index tends to 0:
    (1/gamma) sum_r gamma^r B(k, r)."""
    _check_gamma(gamma)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    g = Fraction(gamma)
    return float(sum(g**r * stirling2(k, r) for r in range(1, k + 1)) / g)
