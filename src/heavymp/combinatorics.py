"""Exact integer counts for set partitions and canonical paths.

Everything here is plain Python integer arithmetic, and every count is a
closed-form inclusion-exclusion sum with no cache and no recursion, so counts
are exact for any argument size.  The path enumerator
(``paths.enumerate_canonical_paths``) is capped at ``K_MAX`` because the
number of partitions of {1..k} is the k-th Bell number, which grows
super-exponentially (Bell(12) = 4,213,597; Bell(20) > 5*10^13).
"""

from __future__ import annotations

from math import comb, factorial

#: Cap on the ground-set size for full enumerations (``heavymp paths --k``,
#: the tests' brute-force contributing sets), which list up to Bell(k) paths;
#: ``paths.enumerate_canonical_paths`` refuses a larger k.  The counts here
#: enumerate nothing, and neither do moments, so ``heavymp counts`` and the
#: moment commands share the cap ``moments.MOMENT_K_MAX``.
K_MAX = 12


def _check_range(k: int, r: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 1 <= r <= k:
        raise ValueError(f"r must satisfy 1 <= r <= k={k}, got {r}")


def _stirling2(k: int, r: int) -> int:
    # inclusion-exclusion over the labels left empty by a map {1..k} -> {1..r}
    return sum((-1) ** j * comb(r, j) * (r - j) ** k for j in range(r + 1)) // factorial(r)


def stirling2(k: int, r: int) -> int:
    """Number of r-partitions of {1..k} (Stirling number of the second kind)."""
    _check_range(k, r)
    return _stirling2(k, r)


def bell(k: int) -> int:
    """Number of all partitions of {1..k}."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return sum(_stirling2(k, r) for r in range(1, k + 1))


def stirling2_assoc(k: int, r: int) -> int:
    """Number of r-partitions of {1..k} with every block of size >= 2."""
    if k < 0 or r < 0:
        raise ValueError(f"k and r must be non-negative, got k={k}, r={r}")
    # inclusion-exclusion over the j elements forced to be singletons
    return sum((-1) ** j * comb(k, j) * _stirling2(k - j, r - j) for j in range(min(k, r) + 1))


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
    at least twice and no two cyclically consecutive entries are equal.  So
    M(k, r) is the number of run-free r-paths less, by inclusion-exclusion,
    those with singleton labels: j positions whose labels are singletons cut
    the k-cycle into c arcs of m = k - j positions in all, which they do in
    (k/c) C(j-1, c-1) C(m-1, c-1) ways, and the arcs hold a run-free
    (r - j)-partition of their own (``_arc_partitions``).  No path is walked
    and no shorter length is counted.
    """
    _check_range(k, r)
    total = count_norun_paths(k, r)
    for j in range(1, r + 1):
        m = k - j
        # m = 0 leaves no arc: every position is a singleton, so j = r = k
        arcs = sum(
            k * comb(j - 1, c - 1) * comb(m - 1, c - 1) // c * _arc_partitions(m, c, r - j)
            for c in range(1, min(j, m) + 1)
        ) if m else 1
        total += (-1) ** j * arcs
    return total


def _arc_partitions(m: int, c: int, r: int) -> int:
    """Number of r-partitions of m positions laid out in c arcs with no two
    neighbours in one arc in the same block: inclusion-exclusion over the
    labels left empty by a run-free labelling, which gives each arc r - i
    choices at its first position and r - i - 1 at each later one."""
    return sum(
        (-1) ** i * comb(r, i) * (r - i) ** c * (r - i - 1) ** (m - c) for i in range(r + 1)
    ) // factorial(r)
