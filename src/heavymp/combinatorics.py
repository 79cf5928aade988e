"""Exact integer counts and enumerators for set partitions.

Everything here is plain Python integer arithmetic, so counts are exact for
any argument size; the path enumerators built on restricted growth strings
(``paths.enumerate_canonical_paths``) are capped at ``K_MAX`` because the number of partitions of {1..k} is the k-th Bell number,
which grows super-exponentially (Bell(12) = 4,213,597; Bell(20) > 5*10^13).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Iterator

#: Default cap on the ground-set size for full enumerations (``heavymp paths
#: --k``, brute-force contributing sets), which list up to Bell(k) paths, and
#: for ``heavymp counts``.  Moments do not enumerate: they read Q_4..Q_14 from a committed
#: table (``moments.MOMENT_K_MAX``), whose rebuild walks the 2,269,035
#: irreducible paths of lengths 4..14 in about 20 s on a 2-core Xeon VM.
K_MAX = 12


def _check_range(k: int, r: int, k_max: int | None = None) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 1 <= r <= k:
        raise ValueError(f"r must satisfy 1 <= r <= k={k}, got {r}")
    if k_max is not None and k > k_max:
        raise ValueError(f"k={k} exceeds k_max={k_max}")


@lru_cache(maxsize=None)
def _stirling2(k: int, r: int) -> int:
    if r == 0:
        return 1 if k == 0 else 0
    if k == 0 or r > k:
        return 0
    return r * _stirling2(k - 1, r) + _stirling2(k - 1, r - 1)


def stirling2(k: int, r: int) -> int:
    """Number of r-partitions of {1..k} (Stirling number of the second kind)."""
    _check_range(k, r)
    return _stirling2(k, r)


def bell(k: int) -> int:
    """Number of all partitions of {1..k}."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return sum(_stirling2(k, r) for r in range(1, k + 1))


@lru_cache(maxsize=None)
def _stirling2_assoc(k: int, r: int) -> int:
    # B2(k+1, r) = r*B2(k, r) + k*B2(k-1, r-1)
    if r == 0:
        return 1 if k == 0 else 0
    if k < 2 * r:
        return 0
    return r * _stirling2_assoc(k - 1, r) + (k - 1) * _stirling2_assoc(k - 2, r - 1)


def stirling2_assoc(k: int, r: int) -> int:
    """Number of r-partitions of {1..k} with every block of size >= 2."""
    if k < 0 or r < 0:
        raise ValueError(f"k and r must be non-negative, got k={k}, r={r}")
    return _stirling2_assoc(k, r)


def count_norun_paths(k: int, r: int) -> int:
    """Number of canonical r-paths of length k without a run.

    A run is a pair of cyclically consecutive equal vertices; the wraparound
    pair (position k, position 1) counts.  Computed from reduced Stirling
    numbers: sum_{j=0}^{k-r} (-1)^j B(k-j-1, r-1) for r >= 2.
    """
    _check_range(k, r)
    if r == 1:
        # (1,) has no run; (1,...,1) of length >= 2 always does.
        return 1 if k == 1 else 0
    return sum((-1) ** j * _stirling2(k - j - 1, r - 1) for j in range(k - r + 1))


def count_c0(k: int, r: int) -> int:
    """Number of completely reducible canonical r-paths of length k.

    Closed form (1/r) C(k, r-1) C(k-1, r-1); always an integer.
    """
    _check_range(k, r)
    num = comb(k, r - 1) * comb(k - 1, r - 1)
    q, rem = divmod(num, r)
    assert rem == 0
    return q


def count_irreducible(k: int, r: int) -> int:
    """Number of irreducible canonical r-paths of length k, M(k, r).

    A path is irreducible when shortening removes nothing: every label occurs
    at least twice and no two cyclically consecutive entries are equal.  The
    S(k, r) - C0(k, r) paths that are not completely reducible each shorten
    to a core of some length l.  A path with j singletons and s further
    simple removals has the core's labels and s + j more, so grading the
    multiplicity in ``moments.heavy_tail_gap`` by labels (with P_I = 1) gives

        sum_r [S(k, r) - C0(k, r)] g^(r-1)
            = sum_l sum_s C(k, l + 2s) C(l + 2s, s) g^s (1 + g)^(k-l-2s) M_l(g),

    where M_l(g) = sum_r M(l, r) g^(r-1).  The l = k term is M_k(g) itself,
    so M(k, r) follows from the shorter lengths, without walking any path.
    """
    _check_range(k, r)
    return _irreducible_row(k)[r - 1]


def _times_shifts(poly: list[int], m: int) -> list[int]:
    """poly(a) Gamma(m - a) / Gamma(1 - a) = poly(a) prod_{j=1}^{m-1} (j - a), ascending in a."""
    for j in range(1, m):
        poly = [j * c - lower for c, lower in zip(poly + [0], [0] + poly)]
    return poly


@lru_cache(maxsize=None)
def _irreducible_row(k: int) -> tuple[int, ...]:
    """M(k, 1..k), indexed by r - 1."""
    row = [_stirling2(k, r) - count_c0(k, r) for r in range(1, k + 1)]
    for l in range(1, k):
        # sum_s C(k, l + 2s) C(l + 2s, s) g^s (1 + g)^(k-l-2s), ascending in g
        weight = [0] * (k - l + 1)
        for s in range((k - l) // 2 + 1):
            n = k - l - 2 * s
            c = comb(k, l + 2 * s) * comb(l + 2 * s, s)
            for j in range(n + 1):
                weight[s + j] += c * comb(n, j)
        for i, m in enumerate(_irreducible_row(l)):
            if m:
                for j, c in enumerate(weight):
                    row[i + j] -= c * m
    return tuple(row)


def restricted_growth_strings(k: int, r: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield restricted growth strings of length k in lexicographic order.

    A restricted growth string is a 0-based sequence with a[0]=0 and
    a[i] <= max(a[:i]) + 1.  If ``r`` is given, only strings using exactly
    r distinct values are generated: no value exceeds r - 1, and every tail
    is the smallest one that still reaches r - 1.
    """
    if r is not None and not 1 <= r <= k:
        return
    top = k - 1 if r is None else r - 1  # largest value allowed
    need = 0 if r is None else r - 1  # largest value that must appear
    # the first string is all zeros followed by the ramp 1..need
    a = [0] * (k - need) + list(range(1, need + 1))
    maxes = [0] * (k - need) + a[k - need :]  # maxes[i] = max(a[:i+1])
    while True:
        yield tuple(a)
        # rightmost position that can grow; growing it only raises the prefix
        # maximum, so the tail after it can still reach need
        i = k - 1
        while i > 0 and a[i] >= min(maxes[i - 1] + 1, top):
            i -= 1
        if i == 0:
            return
        a[i] += 1
        m = maxes[i] = max(maxes[i - 1], a[i])
        # smallest tail: zeros, then the values m+1..need still missing
        ramp = k - max(need - m, 0)
        for j in range(i + 1, k):
            if j < ramp:
                a[j] = 0
            else:
                m += 1
                a[j] = m
            maxes[j] = m

