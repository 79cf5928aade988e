"""Exact limiting spectral moments, light- and heavy-tailed.

The classical moments ``mp_moment`` are evaluated in rational arithmetic.
The heavy-tailed moments ``heavy_mp_moment`` are assembled path-wise: each
canonical path of length k shortens to a core; completely reducible paths
(empty core) sum to the classical part, and each non-empty core contributes
gamma^(r-1) times a polynomial in alpha/2 with rational coefficients, summed
over its contributing column-path levels.  So d_k = mu_k - beta_k is a
polynomial in alpha and gamma, evaluated exactly and rounded once.

A label that occurs once in a path is simple before shortening starts, and
the shortened core does not depend on the order of removals, so a path has
the core of the path left after deleting its singletons, with one simple
removal more per singleton.  Only paths free of singletons are shortened,
once per length for every moment order (``_core_census``).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from typing import Iterable, Sequence

from heavymp.combinatorics import K_MAX, stirling2, stirling2_assoc
from heavymp.delta_graphs import build_delta, contributing_sets
from heavymp.paths import (  # noqa: F401  (perfbench's tracer wraps enumerate_canonical_paths here)
    Path,
    dihedral_representative,
    enumerate_canonical_paths,
    shorten,
    singleton_free_paths,
)

# int, Fraction or str; a float is taken at its exact binary value, so pass a
# str or Fraction for decimal-exact gammas
RationalLike = int | Fraction | str


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in the open interval (0, 2), got {alpha}")


def _check_gamma(gamma: float) -> None:
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")


def mp_moment_exact(gamma: RationalLike, k: int) -> Fraction:
    """k-th Marchenko-Pastur moment as an exact rational.

    beta_k(gamma) = sum_r (1/r) C(k, r-1) C(k-1, r-1) gamma^(r-1).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    g = Fraction(gamma)
    if g <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return sum(
        Fraction(comb(k, r - 1) * comb(k - 1, r - 1), r) * g ** (r - 1)
        for r in range(1, k + 1)
    )


def mp_moment(gamma: float, k: int) -> float:
    _check_gamma(gamma)
    return float(mp_moment_exact(gamma, k))


def _times_shifts(poly: list[int], m: int) -> list[int]:
    """poly(a) Gamma(m - a) / Gamma(1 - a) = poly(a) prod_{j=1}^{m-1} (j - a), ascending in a."""
    for j in range(1, m):
        poly = [j * c - lower for c, lower in zip(poly + [0], [0] + poly)]
    return poly


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


@lru_cache(maxsize=None)
def _core_polynomial(i_path: Path) -> tuple[Fraction, ...]:
    """P_I, ascending in a = alpha/2, with limit_pF(I) = gamma^(r-1) P_I(a).

    A contributing pair's skeleton is a tree with r + s - 1 edges, so the
    Gamma(1 - a) powers of the limit cancel; the pair adds a^(s-1)
    prod_i (deg_i - 1)!/(c_i - 1)! prod_e prod_{j=1}^{m_e-1} (j - a), where 2 m_e
    is the degree of edge e and c_i the multiplicity of label i.
    """
    labels = range(1, max(i_path) + 1)
    multiplicities = prod(factorial(i_path.count(i) - 1) for i in labels)
    total = [Fraction(0)] * len(i_path)
    for s, t_path in contributing_sets(i_path).all_pairs():
        graph = build_delta(i_path, t_path)
        weight = Fraction(prod(factorial(graph.i_degree(i) - 1) for i in labels), multiplicities)
        poly = [0] * (s - 1) + [1]
        for _edge, degree in graph.edge_degrees:
            poly = _times_shifts(poly, degree // 2)
        for i, c in enumerate(poly):
            total[i] += weight * c
    return tuple(total)


def limit_pF(i_path: Path, alpha: float, gamma: float) -> float:
    """Limit of p^(r-1) F(I) for an irreducible canonical r-path I.

    The polynomial ``_core_polynomial`` evaluated exactly, rounded once.
    """
    _check_alpha(alpha)
    _check_gamma(gamma)
    a = Fraction(alpha) / 2
    value = sum(c * a**i for i, c in enumerate(_core_polynomial(i_path)))
    return float(Fraction(gamma) ** (max(i_path) - 1) * value)


def heavy_mp_moment(alpha: float, gamma: float, k: int, k_max: int = K_MAX) -> float:
    """k-th moment of the heavy-tailed limiting spectral law, beta_k + d_k."""
    return mp_moment(gamma, k) + heavy_tail_gap(alpha, gamma, k, k_max)


def heavy_tail_gap(alpha: float, gamma: float, k: int, k_max: int = K_MAX) -> float:
    """d_k = mu_k - beta_k, the excess over the classical moment.

    Path-wise, d_k sums gamma^simples * limit_pF(core) over the canonical
    length-k paths with a non-empty core.  Deleting the j singleton labels of
    such a path leaves a singleton-free path of length m = k - j with the same
    core and j fewer simple removals, and a length-k path is its choice of j
    singleton positions together with that shorter path.  Hence

        d_k = sum_{m=4..k} C(k, m) gamma^(k-m) G_m,

    where G_m sums gamma^simples * limit_pF(core) over singleton-free
    canonical paths of length m, compiled once per m into a polynomial in
    alpha/2 and gamma (``_gap_polynomial``).  d_k is evaluated exactly at the
    binary values of alpha and gamma and rounded once.
    """
    _check_alpha(alpha)
    _check_gamma(gamma)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > k_max:
        visited = sum(stirling2_assoc(m, r) for m in range(4, k + 1) for r in range(1, m // 2 + 1))
        raise RuntimeError(
            f"moment order k={k} exceeds k_max={k_max}: the path census shortens the "
            f"{visited} singleton-free paths of lengths 4..{k}, a count that grows like "
            f"the Bell numbers"
        )
    return float(_heavy_tail_gap_exact(Fraction(alpha), Fraction(gamma), k))


def _heavy_tail_gap_exact(alpha: Fraction, gamma: Fraction, k: int) -> Fraction:
    """d_k exactly, for any rational alpha and gamma (alpha = 0 and 2 included)."""
    terms = (
        comb(k, m) * c * (alpha / 2) ** i * gamma ** (k - m + j)
        for m in range(4, k + 1)
        for (i, j), c in _gap_polynomial(m)
    )
    return sum(terms, Fraction(0))


@lru_cache(maxsize=None)
def _gap_polynomial(m: int) -> tuple[tuple[tuple[int, int], Fraction], ...]:
    """G_m as ((i, j), coefficient of (alpha/2)^i gamma^j) items, adding
    gamma^(simples + r - 1) P_core once per dihedral class of cores, since
    rotating or reversing a core leaves its limit unchanged."""
    poly: Counter[tuple[int, int]] = Counter()
    for (core, simples), count in _core_census(m).items():
        for i, c in enumerate(_core_polynomial(core)):
            if c:
                poly[i, simples + max(core) - 1] += count * c
    return tuple(poly.items())


def _core_census(m: int) -> Counter[tuple[Path, int]]:
    """Singleton-free canonical paths of length m with a non-empty core,
    counted by (dihedral representative of the core, simples)."""
    by_core: Counter[tuple[Path, int]] = Counter()
    for path in singleton_free_paths(m):
        result = shorten(path)
        if result.shortened:
            by_core[result.shortened, result.simples] += 1
    census: Counter[tuple[Path, int]] = Counter()
    for (core, simples), count in by_core.items():
        census[dihedral_representative(core), simples] += count
    return census


@dataclass(frozen=True)
class MomentTable:
    """Exact moments mu_k = beta_k + d_k for k = 1..k_max."""

    alpha: float
    gamma: float
    k_max: int
    beta: tuple[float, ...]
    d: tuple[float, ...]

    @property
    def mu(self) -> tuple[float, ...]:
        return tuple(b + g for b, g in zip(self.beta, self.d))


def moment_table(alpha: float, gamma: float, k_max: int) -> MomentTable:
    _check_alpha(alpha)
    _check_gamma(gamma)
    if not 1 <= k_max <= K_MAX:
        raise ValueError(f"k_max must lie in [1, {K_MAX}], got {k_max}")
    beta = tuple(mp_moment(gamma, k) for k in range(1, k_max + 1))
    d = tuple(heavy_tail_gap(alpha, gamma, k) for k in range(1, k_max + 1))
    return MomentTable(alpha, gamma, k_max, beta, d)


@dataclass(frozen=True)
class ModifiedPoisson:
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
