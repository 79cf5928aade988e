"""Exact limiting spectral moments, light- and heavy-tailed.

The classical moments ``mp_moment`` are evaluated in rational arithmetic.
The heavy-tailed moments ``heavy_mp_moment`` are mu_k = beta_k + d_k: the
Marchenko-Pastur moment beta_k plus a gap d_k that is a polynomial in
alpha/2 and gamma with rational coefficients.  scripts/build_dtable.py runs
the fixed point of ``heavymp.series`` once over such polynomials and writes
d_1..d_18 to ``heavymp._dtable``: no moment walks a path.  Up to 18, at a
point (alpha, gamma), beta_k and d_k become integer numerators over one
denominator per k (``_moment_numerators``), each rounded once by an integer
division: a cold k = 14 table takes under 2 ms.  Past 18, ``moment_table``
runs the same fixed point at the point in exact rationals and rounds each
of beta_k, d_k and mu_k once: k = 40 at (1, 0.2) takes under 1 s.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from heavymp import _dtable
from heavymp.combinatorics import count_c0, stirling2

# int, Fraction or str; a float is taken at its exact binary value, so pass a
# str or Fraction for decimal-exact gammas
RationalLike = int | Fraction | str

#: Largest moment order; past the d_k table's top (18), moment_table runs the series.
MOMENT_K_MAX = 40


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


def heavy_mp_moment(alpha: float, gamma: float, k: int) -> float:
    """k-th moment of the heavy-tailed limiting spectral law, beta_k + d_k,
    summed exactly and rounded once."""
    return moment_table(alpha, gamma, k).mu[-1]


def heavy_tail_gap(alpha: float, gamma: float, k: int) -> float:
    """d_k = mu_k - beta_k, the excess over the classical moment.

    Path-wise, d_k sums gamma^simples * gamma^(r-1) P_I(alpha/2) over the
    canonical length-k paths with a non-empty core I on r labels, P_I being
    the limit polynomial of the contributing column paths of I
    (``delta_graphs.contributing_sets``).  So d_k is a polynomial in alpha/2
    and gamma, read up to k = 18 from the committed table as one integer
    numerator over one denominator (``_moment_numerators``), and past 18 from
    ``heavymp.series`` in exact rationals; either way it is rounded once.
    """
    return moment_table(alpha, gamma, k).d[-1]


def _heavy_tail_gap_exact(alpha: RationalLike, gamma: RationalLike, k: int) -> Fraction:
    """d_k exactly, for any rational alpha and gamma (alpha = 0 and 2 included)."""
    _b, d, den = _moment_numerators(Fraction(alpha), Fraction(gamma), k)[-1]
    return Fraction(d, den)


def _moment_numerators(alpha: Fraction, gamma: Fraction, k_max: int) -> list[tuple[int, int, int]]:
    """(b, d, den) for k = 1..k_max: beta_k = b / den and d_k = d / den exactly.

    With a = alpha/2 = A/D_a and gamma = G/D_g, beta_k and d_k share the
    denominator L_k D_a^I D_g^(k-1), with L_k the lcm of d_k's denominators
    and I the top power of a up to k_max; neither has a power of gamma above
    k - 1.  An int division rounds correctly, so b / den is float(Fraction(b, den)).
    """
    a = alpha / 2
    big_a, den_a = a.numerator, a.denominator
    big_g, den_g = gamma.numerator, gamma.denominator
    polys = [_integer_polynomial(k) for k in range(1, k_max + 1)]
    top_i = max((i for _lcm, terms in polys for i, _j, _c in terms), default=0)
    a_terms = [big_a**i * den_a ** (top_i - i) for i in range(top_i + 1)]
    rows = []
    for k, (lcm, terms) in enumerate(polys, start=1):
        g_terms = [big_g**j * den_g ** (k - 1 - j) for j in range(k)]
        # beta_k = sum_r C0(k, r) gamma^(r-1), the completely reducible paths
        b = sum(count_c0(k, r) * g_terms[r - 1] for r in range(1, k + 1))
        d = sum(c * a_terms[i] * g_terms[j] for i, j, c in terms)
        scale = lcm * den_a**top_i
        rows.append((b * scale, d, scale * den_g ** (k - 1)))
    return rows


@lru_cache(maxsize=None)
def _integer_polynomial(k: int) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """d_k as (L, ((i, j, c), ...)) with c / L the coefficient of
    (alpha/2)^i gamma^j, parsed from the committed table on first use."""
    lcm, lines = _dtable.D[k]
    values = map(int, lines.split())
    return lcm, tuple(zip(values, values, values))


class MomentTable(NamedTuple):
    """Moments mu_k = beta_k + d_k for k = 1..k_max, each of beta_k, d_k and
    mu_k computed exactly and rounded once."""

    beta: tuple[float, ...]
    d: tuple[float, ...]
    mu: tuple[float, ...]


def moment_table(alpha: float, gamma: float, k_max: int) -> MomentTable:
    """beta_k, d_k and mu_k for k = 1..k_max; alpha in (0, 2), gamma finite and positive.

    Orders up to the committed table's top (18) take milliseconds.  Past it,
    the series runs in exact rationals at the binary (alpha, gamma), and its
    cost grows with their bit length: on shared 2-core x86 VMs, k_max = 40
    takes 0.70 s at (1, 0.2) but 38-63 s at (5e-324, 5e-324).  An order
    whose value passes the largest float64 is an OverflowError that names
    it and the point.
    """
    _check_alpha(alpha)
    _check_gamma(gamma)
    if k_max < 1:
        raise ValueError(f"k must be >= 1, got {k_max}")
    if k_max > MOMENT_K_MAX:
        raise RuntimeError(f"moment order k={k_max} exceeds {MOMENT_K_MAX}, the largest order evaluated")
    if k_max <= max(_dtable.D):
        rows = _moment_numerators(Fraction(alpha), Fraction(gamma), k_max)
    else:
        from heavymp import series

        mu = series.moment_series(Fraction(alpha) / 2, Fraction(gamma), k_max)[1:]
        rows = []
        for k, m in enumerate(mu, start=1):
            # beta_k and d_k over one denominator, as the table route gives them
            b = mp_moment_exact(gamma, k)
            b_num = b.numerator * m.denominator
            rows.append((b_num, m.numerator * b.denominator - b_num, b.denominator * m.denominator))
    rounded = []
    for k, (b, d, den) in enumerate(rows, start=1):
        try:
            rounded.append((b / den, d / den, (b + d) / den))
        except OverflowError:
            raise OverflowError(
                f"moment order k={k} at (alpha, gamma) = ({alpha}, {gamma}) exceeds the largest float64"
            ) from None
    return MomentTable(*map(tuple, zip(*rounded)))


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

    def support(self) -> range:
        """0, 1, 2, ... until the remaining tail mass drops to 1e-12 or below.

        The walk is done before it returns, so a walk past 10^6 points (gamma
        from about 10^6) is a ValueError before any point is used.
        """
        remaining = 1.0
        for k in range(10**6 + 1):
            if remaining <= 1e-12:
                return range(k)
            remaining -= self.pmf(k)
        raise ValueError(f"support of gamma={self.gamma} passes 10^6 points above tail 1e-12")


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
