"""Exact integer counts and enumerators for set partitions.

Everything here is plain Python integer arithmetic, so counts are exact for
any argument size; the enumeration routines are additionally capped at
``K_MAX`` because the number of partitions of {1..k} is the k-th Bell number,
which grows super-exponentially (Bell(12) = 4,213,597; Bell(20) > 5*10^13).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterator

#: Default cap on the ground-set size for full enumerations.  A cold
#: ``heavy_mp_moment`` call, which walks all Bell(k) paths, takes about 2.3 s
#: at k = 10, 15 s at k = 11 and 110 s at k = 12 on a 2-core Xeon VM.
K_MAX = 12


def _check_range(k: int, r: int, k_max: int | None = None) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 1 <= r <= k:
        raise ValueError(f"r must satisfy 1 <= r <= k={k}, got {r}")
    if k_max is not None and k > k_max:
        raise ValueError(f"k={k} exceeds k_max={k_max}")


@dataclass(frozen=True)
class SetPartition:
    """A partition of {1..k} into disjoint non-empty blocks.

    Blocks are ordered by their smallest element, so block j always contains
    the smallest element not covered by blocks 1..j-1.
    """

    k: int
    blocks: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        prev_min = 0
        for block in self.blocks:
            if not block:
                raise ValueError("empty block")
            if block & seen:
                raise ValueError("blocks are not disjoint")
            if min(block) <= prev_min:
                raise ValueError("blocks not ordered by smallest element")
            prev_min = min(block)
            seen |= block
        if seen != set(range(1, self.k + 1)):
            raise ValueError(f"blocks do not cover {{1..{self.k}}}")

    @property
    def r(self) -> int:
        return len(self.blocks)

    def min_block_size(self) -> int:
        return min(len(b) for b in self.blocks)


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


def enumerate_partitions(k: int, r: int, k_max: int = K_MAX) -> Iterator[SetPartition]:
    """Yield every r-partition of {1..k} exactly once.

    Order is lexicographic on the underlying restricted growth strings, so
    streams are reproducible across runs.
    """
    _check_range(k, r, k_max)
    for rgs in restricted_growth_strings(k, r):
        blocks: list[list[int]] = [[] for _ in range(r)]
        for pos, label in enumerate(rgs, start=1):
            blocks[label].append(pos)
        yield SetPartition(k, tuple(frozenset(b) for b in blocks))
