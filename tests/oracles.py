"""Reference implementations that only the tests use.

The exact engine reads the Q_l table and walks irreducible classes directly,
so set partitions, the path/partition bijection, the paper's simple-removal
sets, the dihedral representative and the per-core limit serve here as
independent oracles.  The engine sums d_k in integers over one common
denominator, and the per-k ``Fraction`` sum checks it.  The finite-(p, n)
moment expectations check the Monte Carlo engine against numbers that carry
no n -> infinity bias.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterator

from heavymp import _qtable
from heavymp.combinatorics import K_MAX, _check_range, restricted_growth_strings
from heavymp.delta_graphs import _core_polynomial
from heavymp.moments import _check_alpha, _check_gamma
from heavymp.paths import Path, canonicalize, enumerate_canonical_paths, is_canonical, shorten


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


def enumerate_partitions(k: int, r: int, k_max: int = K_MAX) -> Iterator[SetPartition]:
    """Yield every r-partition of {1..k} exactly once, in the lexicographic
    order of the underlying restricted growth strings."""
    _check_range(k, r, k_max)
    for rgs in restricted_growth_strings(k, r):
        blocks: list[list[int]] = [[] for _ in range(r)]
        for pos, label in enumerate(rgs, start=1):
            blocks[label].append(pos)
        yield SetPartition(k, tuple(frozenset(b) for b in blocks))


def path_to_partition(path: Path) -> SetPartition:
    """Partition of {1..k} whose block l holds the positions of label l."""
    if not is_canonical(path):
        raise ValueError(f"path {path} is not canonical")
    if not path:
        raise ValueError("empty path has no partition")
    blocks: list[list[int]] = [[] for _ in range(max(path))]
    for pos, label in enumerate(path, start=1):
        blocks[label - 1].append(pos)
    return SetPartition(len(path), tuple(frozenset(b) for b in blocks))


def partition_to_path(partition: SetPartition) -> Path:
    labels = [0] * partition.k
    # blocks are ordered by smallest element, which is exactly the canonical
    # first-appearance order of labels
    for label, block in enumerate(partition.blocks, start=1):
        for pos in block:
            labels[pos - 1] = label
    return tuple(labels)


def enumerate_simples(k: int, r: int, q: int, k_max: int = K_MAX) -> Iterator[Path]:
    """Canonical r-paths of length k with a non-empty core and exactly q
    simple-vertex removals (q must be at most r - 2)."""
    if not 0 <= q <= r - 2:
        raise ValueError(f"q must satisfy 0 <= q <= r-2={r - 2}, got {q}")
    for path in enumerate_canonical_paths(k, r, k_max):
        result = shorten(path)
        if result.shortened and result.simples == q:
            yield path


def dihedral_representative(path: Path) -> Path:
    """Smallest canonical form among the rotations of the path and their reversals.

    Paths in one class close the same index cycles of a trace, so every
    quantity built from those cycles agrees on them.
    """
    rotations = [path[j:] + path[:j] for j in range(len(path))]
    return min(canonicalize(p) for rot in rotations for p in (rot, rot[::-1]))


def limit_pF(i_path: Path, alpha: float, gamma: float) -> float:
    """Limit of p^(r-1) F(I) for an irreducible canonical r-path I: the engine's
    core polynomial evaluated exactly, rounded once."""
    _check_alpha(alpha)
    _check_gamma(gamma)
    a = Fraction(alpha) / 2
    value = sum(c * a**i for i, c in enumerate(_core_polynomial(i_path)))
    return float(Fraction(gamma) ** (max(i_path) - 1) * value)


def heavy_tail_gap_fractions(alpha: Fraction, gamma: Fraction, k: int) -> Fraction:
    """d_k exactly, for any rational alpha and gamma (alpha = 0 and 2 included),
    summed term by term in Fractions."""
    a = alpha / 2
    total = Fraction(0)
    for length in range(4, k + 1):
        q = sum(c * a**i * gamma**j for (i, j), c in irreducible_polynomial(length))
        for s in range((k - length) // 2 + 1):
            n = length + 2 * s
            total += comb(k, n) * comb(n, s) * gamma**s * (1 + gamma) ** (k - n) * q
    return total


@lru_cache(maxsize=None)
def irreducible_polynomial(length: int) -> tuple[tuple[tuple[int, int], Fraction], ...]:
    """Q_length as ((i, j), coefficient of (alpha/2)^i gamma^j) items, parsed
    from the committed table on first use."""
    rows = (line.split() for line in _qtable.Q[length].splitlines())
    return tuple(((int(i), int(j)), Fraction(c)) for i, j, c in rows)


def expected_m2(p: int, n: int) -> Fraction:
    """E m_2 = E (1/p) tr R^2 for iid symmetric entries, at finite p and n.

    The normalized rows have E[Y_it Y_iu] = delta_tu / n, whatever the law.
    """
    return 1 + Fraction(p - 1, n)


def expected_m3(p: int, n: int) -> Fraction:
    """E m_3 = E (1/p) tr R^3 for iid symmetric entries, at finite p and n."""
    return 1 + Fraction(3 * (p - 1), n) + Fraction((p - 1) * (p - 2), n * n)
