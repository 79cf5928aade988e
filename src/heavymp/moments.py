"""Exact limiting spectral moments, light- and heavy-tailed.

The classical moments ``mp_moment`` are evaluated in rational arithmetic.
The heavy-tailed moments ``heavy_mp_moment`` are assembled path-wise: every
canonical path of length k is shortened; completely reducible paths sum to
the classical part, and each surviving core contributes a gamma-function
product evaluated over its contributing column-path levels.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Sequence

from heavymp.combinatorics import K_MAX, bell, stirling2
from heavymp.delta_graphs import build_delta, contributing_sets
from heavymp.paths import Path, dihedral_representative, enumerate_canonical_paths, shorten

RationalLike = int | Fraction | str


def _as_fraction(x: RationalLike | float) -> Fraction:
    if isinstance(x, float):
        # exact binary value of the float; pass a str or Fraction for
        # decimal-exact gammas
        return Fraction(x)
    return Fraction(x)


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
    g = _as_fraction(gamma)
    if g <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return sum(
        Fraction(comb(k, r - 1) * comb(k - 1, r - 1), r) * g ** (r - 1)
        for r in range(1, k + 1)
    )


def mp_moment(gamma: float, k: int) -> float:
    _check_gamma(gamma)
    return float(mp_moment_exact(_as_fraction(gamma), k))


def self_normalized_moment_limit(k_parts: Sequence[int], alpha: float) -> float:
    """Limit of C(n, r) E[Y_11^(2k_1) ... Y_1r^(2k_r)] for row-normalized data.

    Equals (a/2)^(r-1) prod_j Gamma(k_j - a/2) / (r Gamma(1 - a/2)^r Gamma(k))
    with k = sum k_j and a the tail index.
    """
    _check_alpha(alpha)
    if not k_parts or any(kj < 1 for kj in k_parts):
        raise ValueError(f"k_parts must be non-empty positive integers, got {k_parts}")
    r = len(k_parts)
    k = sum(k_parts)
    log_value = (
        (r - 1) * math.log(alpha / 2)
        + sum(math.lgamma(kj - alpha / 2) for kj in k_parts)
        - math.log(r)
        - r * math.lgamma(1 - alpha / 2)
        - math.lgamma(k)
    )
    return math.exp(log_value)


def limit_pF(i_path: Path, alpha: float, gamma: float) -> float:
    """Limit of p^(r-1) F(I) for an irreducible canonical r-path I.

    Sums, over the contributing column-path levels of I, the products of
    gamma functions of vertex degrees, vertex multiplicities and halved edge
    degrees; all factors are positive so terms are accumulated in log space
    without sign tracking.
    """
    _check_alpha(alpha)
    _check_gamma(gamma)
    sets = contributing_sets(i_path)
    r = max(i_path)
    counts = {i: i_path.count(i) for i in range(1, r + 1)}
    lg1 = math.lgamma(1 - alpha / 2)
    total = 0.0
    for s, t_path in sets.all_pairs():
        graph = build_delta(i_path, t_path)
        log_term = s * (math.log(alpha / 2) - lg1)
        for i in range(1, r + 1):
            log_term += math.lgamma(graph.i_degree(i)) - math.lgamma(counts[i])
        for _edge, degree in graph.edge_degrees:
            log_term += math.lgamma((degree - alpha) / 2)
        total += math.exp(log_term)
    prefactor = (r - 1) * (math.log(gamma) - lg1) + math.log(2 / alpha)
    return math.exp(prefactor) * total


@lru_cache(maxsize=4096)
def _limit_pF_cached(i_path: Path, alpha: float, gamma: float) -> float:
    return limit_pF(i_path, alpha, gamma)


def heavy_mp_moment(alpha: float, gamma: float, k: int, k_max: int = K_MAX) -> float:
    """k-th moment of the heavy-tailed limiting spectral law, beta_k + d_k."""
    return mp_moment(gamma, k) + heavy_tail_gap(alpha, gamma, k, k_max)


def heavy_tail_gap(alpha: float, gamma: float, k: int, k_max: int = K_MAX) -> float:
    """d_k = mu_k - beta_k, the excess over the classical moment.

    Path-wise evaluation: paths that shorten to the empty path make up the
    classical moment and are skipped; each path with a non-empty core adds
    gamma^simples * limit_pF(core).  Paths are counted by (core, simples),
    and limit_pF is evaluated once per dihedral class of cores, since
    rotating or reversing a core leaves its limit unchanged.
    """
    _check_alpha(alpha)
    _check_gamma(gamma)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > k_max:
        raise RuntimeError(
            f"moment order k={k} exceeds k_max={k_max}: the path enumeration "
            f"visits Bell(k) = {bell(k)} paths, which grows super-exponentially"
        )
    multiplicity: Counter[tuple[Path, int]] = Counter()
    for r in range(2, k - 1):
        for path in enumerate_canonical_paths(k, r, k_max):
            result = shorten(path)
            if result.shortened:
                multiplicity[result.shortened, result.simples] += 1
    # sum in sorted key order so the result does not depend on how the
    # counts were gathered
    gap = 0.0
    for (core, simples), m in sorted(multiplicity.items()):
        value = _limit_pF_cached(dihedral_representative(core), alpha, gamma)
        gap += m * gamma**simples * value
    return gap


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
            return 1 - 1 / self.gamma + math.exp(-self.gamma) / self.gamma
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
    g = _as_fraction(gamma)
    return float(sum(g**r * stirling2(k, r) for r in range(1, k + 1)) / g)
