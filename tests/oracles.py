"""Reference implementations that only the tests use.

The exact engine reads the table of moment gaps d_k, which
scripts/build_dtable.py builds from ``heavymp.series``, a fixed point over
closed walks on trees, so set partitions, the path/partition bijection, the paper's simple-removal
sets, the dihedral representative, the per-core limit and the paper's path
walk (singleton-free paths, irreducible classes, the polynomials Q_l summed
over them and d_k reassembled from Q_4..Q_k) serve here as independent
oracles.  Contributing sets filtered from all canonical column paths check
the tree walk that generates them.  Path shortening that erases one run at a
time, restarting after each, checks the engine's one-sweep erasure, and the
class of a path's shortening fixpoint checks the class read off the path.  The
finite-(p, n) moment expectations check the Monte Carlo engine against
numbers that carry no n -> infinity bias.  The engine's own column panels,
copied side by side, give a replicate's whole sample, and a correlation
matrix formed without the engine's Gram checks the engine's.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from typing import Iterator

import numpy as np

from heavymp import simulation
from heavymp.delta_graphs import build_delta, contributing_sets, is_even, is_tree_skeleton
from heavymp.moments import _check_alpha, _check_gamma
from heavymp.paths import (
    Path,
    PathClass,
    PSResult,
    canonicalize,
    enumerate_canonical_paths,
    is_canonical,
    shorten,
)


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


def enumerate_partitions(k: int, r: int) -> Iterator[SetPartition]:
    """Yield every r-partition of {1..k} exactly once, in the lexicographic
    order of the canonical paths."""
    return map(path_to_partition, enumerate_canonical_paths(k, r))


def partition_to_path(partition: SetPartition) -> Path:
    labels = [0] * partition.k
    # blocks are ordered by smallest element, which is exactly the canonical
    # first-appearance order of labels
    for label, block in enumerate(partition.blocks, start=1):
        for pos in block:
            labels[pos - 1] = label
    return tuple(labels)


def enumerate_simples(k: int, r: int, q: int) -> Iterator[Path]:
    """Canonical r-paths of length k with a non-empty core and exactly q
    simple-vertex removals (q must be at most r - 2)."""
    if not 0 <= q <= r - 2:
        raise ValueError(f"q must satisfy 0 <= q <= r-2={r - 2}, got {q}")
    for path in enumerate_canonical_paths(k, r):
        result = shorten(path)
        if result.shortened and result.simples == q:
            yield path


def class_by_shortening(path: Path) -> PathClass:
    """The class of a canonical path named by its shortening fixpoint."""
    shortened = shorten(path).shortened
    if not shortened:
        return PathClass.COMPLETELY_REDUCIBLE
    if shortened == path:
        return PathClass.IRREDUCIBLE
    return PathClass.PARTIALLY_REDUCIBLE


def restart_loop_shorten(path: Path) -> PSResult:
    """Path shortening that erases runs one at a time, leftmost first with
    the cyclic pair (last, first) included, restarting from the first
    position after each erasure; simple vertices go all at once, as in
    ``paths.shorten``."""
    current = list(path)
    runs = 0
    simples = 0
    while True:
        before = list(current)
        while len(current) >= 2:
            l = len(current)
            for j in range(l):
                if current[j] == current[(j + 1) % l]:
                    del current[j]
                    runs += 1
                    break
            else:
                break
        counts = Counter(current)
        kept = [v for v in current if counts[v] > 1]
        simples += len(current) - len(kept)
        current = kept
        if current == before:
            return PSResult(canonicalize(tuple(current)), runs, simples)


def dihedral_representative(path: Path) -> Path:
    """Smallest canonical form among the rotations of the path and their reversals.

    Paths in one class close the same index cycles of a trace, so every
    quantity built from those cycles agrees on them.
    """
    rotations = [path[j:] + path[:j] for j in range(len(path))]
    return min(canonicalize(p) for rot in rotations for p in (rot, rot[::-1]))


def tree_pair_polynomial(i_path: Path, t_path: Path) -> list[Fraction]:
    """The limit weight of a pair (I, T) of canonical paths whose closed walk
    i_1 t_1 ... i_k t_k i_1 stays on a tree, ascending in a = alpha/2.

    A contributing pair's skeleton is a tree with r + s - 1 edges, so the
    Gamma(1 - a) powers of the limit cancel; the pair adds a^(s-1)
    prod_i (deg_i - 1)!/(c_i - 1)! prod_e prod_{j=1}^{m_e-1} (j - a), where 2 m_e
    is the degree of edge e and c_i the multiplicity of label i.
    """
    degrees = build_delta(i_path, t_path)
    labels = range(1, max(i_path) + 1)
    t_neighbours = Counter(i for i, _t in degrees)
    weight = Fraction(
        prod(factorial(t_neighbours[i] - 1) for i in labels),
        prod(factorial(i_path.count(i) - 1) for i in labels),
    )
    poly = [0] * (max(t_path) - 1) + [1]
    for degree in degrees.values():
        for j in range(1, degree // 2):
            poly = _poly_product(poly, [j, -1])
    return [weight * c for c in poly]


def _poly_product(p: list[int], q: list[int]) -> list[int]:
    """The product of two polynomials given by their coefficients, ascending."""
    out = [0] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        for j, d in enumerate(q):
            out[i + j] += c * d
    return out


def brute_contributing_levels(i_path: Path) -> tuple[tuple[Path, ...], ...]:
    """The levels C_1(I), C_2(I), ... of an irreducible canonical path, by
    brute force: every canonical s-path of length k is tested for even edge
    degrees and a tree skeleton, level by level up to the first empty one.

    It lists up to Bell(k) paths, so k is capped at ``combinatorics.K_MAX``.
    """
    k = len(i_path)
    levels: list[tuple[Path, ...]] = [((1,) * k,)]
    # a contributing T has r + s - 1 <= k skeleton edges
    for s in range(2, k - max(i_path) + 2):
        level = tuple(
            t_path
            for t_path in enumerate_canonical_paths(k, s)
            if is_even(degrees := build_delta(i_path, t_path)) and is_tree_skeleton(degrees)
        )
        if not level:
            break
        levels.append(level)
    return tuple(levels)


def core_polynomial(i_path: Path) -> tuple[Fraction, ...]:
    """P_I, ascending in a = alpha/2: for an irreducible canonical r-path I,
    p^(r-1) F(I) tends to gamma^(r-1) P_I(a), the pair weights summed over
    the contributing column paths of I."""
    total = [Fraction(0)] * len(i_path)
    for level in contributing_sets(i_path):
        for t_path in level:
            for i, c in enumerate(tree_pair_polynomial(i_path, t_path)):
                total[i] += c
    return tuple(total)


def singleton_free_paths(k: int, run_free: bool = False) -> Iterator[Path]:
    """Yield each canonical path of length k in which every label occurs at
    least twice, in lexicographic order.  With ``run_free``, only the
    irreducible ones: no entry repeats the one before it, and the last is not
    1, which would repeat the first.

    A prefix is extended only while it can still be completed: each label seen
    once needs one more position.
    """
    top = k // 2  # largest label allowed
    count = [0] * (top + 1)
    path: list[int] = []

    def extend(singles: int, seen: int) -> Iterator[Path]:
        # singles: labels seen once so far; seen: the largest label so far
        left = k - len(path) - 1  # positions after the next one
        prev = path[-1] if run_free and path else 0
        for v in range(2 if run_free and not left else 1, min(seen + 1, top) + 1):
            if v == prev:
                continue
            c = count[v]
            s = singles + 1 if c == 0 else singles - 1 if c == 1 else singles
            if s <= left:
                path.append(v)
                if left:
                    count[v] = c + 1
                    yield from extend(s, max(seen, v))
                    count[v] = c
                else:
                    yield tuple(path)
                path.pop()

    yield from extend(0, 0)


def irreducible_classes(k: int) -> Iterator[tuple[Path, int]]:
    """Yield each dihedral class of irreducible canonical paths of length k
    once, as its smallest canonical form with the number of canonical paths
    in the class, in lexicographic order.

    A walked path is kept when none of its rotations and reversals
    canonicalizes smaller, so it is the smallest canonical form of its class.
    """
    for path in singleton_free_paths(k, run_free=True):
        size = _class_size(path)
        if size:
            yield path, size


def _class_size(path: Path) -> int:
    """Number of distinct canonical forms among the 2k rotations and
    reversals of a canonical path, or 0 as soon as one is smaller than it.

    Each form is compared while it is relabelled, up to the first position
    that differs.  The forms equal to the path make up a subgroup of the
    2k symmetries, and 2k over its order is the number of distinct forms.
    """
    k = len(path)
    fixed = 0
    for j in range(k):
        rotation = path[j:] + path[:j]
        for form in (rotation, rotation[::-1]):
            relabel: dict[int, int] = {}
            for v, w in zip(form, path):
                label = relabel.setdefault(v, len(relabel) + 1)
                if label != w:
                    if label < w:
                        return 0
                    break
            else:
                fixed += 1
    return 2 * k // fixed


def path_walk_polynomial(length: int) -> dict[tuple[int, int], Fraction]:
    """Q_length by the paper's path walk, {(i, j): coefficient of (alpha/2)^i
    gamma^j} in sorted order, zeros dropped: gamma^(r - 1) P_I is added once
    per dihedral class of irreducible paths, weighted by the class size,
    since rotating or reversing a core leaves its limit unchanged."""
    poly: Counter[tuple[int, int]] = Counter()
    for core, size in irreducible_classes(length):
        for i, c in enumerate(core_polynomial(core)):
            poly[i, max(core) - 1] += size * c
    return {key: c for key, c in sorted(poly.items()) if c}


def limit_pF(i_path: Path, alpha: float, gamma: float) -> float:
    """Limit of p^(r-1) F(I) for an irreducible canonical r-path I: the core
    polynomial evaluated exactly, rounded once."""
    _check_alpha(alpha)
    _check_gamma(gamma)
    a = Fraction(alpha) / 2
    value = sum(c * a**i for i, c in enumerate(core_polynomial(i_path)))
    return float(Fraction(gamma) ** (max(i_path) - 1) * value)


@lru_cache(maxsize=None)
def irreducible_polynomial(length: int) -> tuple[tuple[tuple[int, int], Fraction], ...]:
    """Q_length by the path walk as ((i, j), coefficient of (alpha/2)^i gamma^j)
    items, walked once per length."""
    return tuple(path_walk_polynomial(length).items())


def gap_polynomial(k: int) -> dict[tuple[int, int], Fraction]:
    """d_k reassembled from the path-walk Q_4..Q_k, {(i, j): coefficient of
    (alpha/2)^i gamma^j} in sorted order, zeros dropped.

    Deleting the j singleton labels of a path with a non-empty core I leaves a
    singleton-free path of length m = k - j with the same core and j fewer
    simple removals.  A singleton-free path of length m whose core I has
    length l and whose shortening makes s simple removals occurs, for each
    canonical form of I,

        N(l, m, s) = C(m, l + 2s) C(l + 2s, s)

    times.  Sketch: shortening erases m - l - s runs.  A simple letter x
    removed from y x y leaves the run y y, so each simple removal is a pair
    of letters that collapses onto the core, and the s pairs sit among the
    l + 2s letters that are not plain run letters in C(l + 2s, s) ways.
    Each of the other m - l - 2s erased letters duplicates a neighbour, and
    their places among the m positions give C(m, l + 2s).  (The tests check
    N against a full census of the paths for m <= 12.)  Summing the
    singleton positions over m, sum_m C(k, m) C(m, n) gamma^(k-m) =
    C(k, n) (1 + gamma)^(k-n), so

        d_k = sum_l sum_s C(k, l + 2s) C(l + 2s, s) gamma^s (1 + gamma)^(k-l-2s) Q_l.
    """
    poly: Counter[tuple[int, int]] = Counter()
    for length in range(4, k + 1):
        for s in range((k - length) // 2 + 1):
            n = length + 2 * s
            for t in range(k - n + 1):  # gamma^t in (1 + gamma)^(k-n)
                count = comb(k, n) * comb(n, s) * comb(k - n, t)
                for (i, j), c in irreducible_polynomial(length):
                    poly[i, j + s + t] += count * c
    return {key: c for key, c in sorted(poly.items()) if c}


def heavy_tail_gap_fractions(alpha: Fraction, gamma: Fraction, k: int) -> Fraction:
    """d_k exactly from the path-walk Q_4..Q_k, for any rational alpha and
    gamma (alpha = 0 and 2 included), summed term by term in Fractions."""
    a = alpha / 2
    return sum((c * a**i * gamma**j for (i, j), c in gap_polynomial(k).items()), Fraction(0))


def expected_m2(p: int, n: int) -> Fraction:
    """E m_2 = E (1/p) tr R^2 for iid symmetric entries, at finite p and n.

    The normalized rows have E[Y_it Y_iu] = delta_tu / n, whatever the law.
    """
    return 1 + Fraction(p - 1, n)


def expected_m3(p: int, n: int) -> Fraction:
    """E m_3 = E (1/p) tr R^3 for iid symmetric entries, at finite p and n."""
    return 1 + Fraction(3 * (p - 1), n) + Fraction((p - 1) * (p - 2), n * n)


def sample(
    p: int, n: int, dist: str, seed: int, alpha: float | None = None, replicate: int = 0
) -> np.ndarray:
    """The p x n sample of replicate ``replicate``: the engine's column
    panels, copied side by side."""
    panels = simulation._panels(p, n, dist, alpha, seed, replicate)
    return np.hstack([panel.copy() for panel in panels])


def reference_correlation(data: np.ndarray) -> np.ndarray:
    """R = Y Y' formed apart from the engine: each row divided by its norm, then one product."""
    rows = data / np.linalg.norm(data, axis=1, keepdims=True)
    return rows @ rows.T


def self_normalized_fourth_moment(alpha: float, n: int, rows: int, seed: int) -> float:
    """Monte Carlo estimate of n E[Y^4] for row-self-normalized Pareto entries.

    The rows are drawn 500 at a time by the engine's sampler, block j as
    replicate j of the seed, and each row's sum_t Y_t^4 = sum_t X_t^4 /
    (sum_t X_t^2)^2 is summed over the row's column panels.  The mean of
    these sums over ``rows`` rows estimates n E[Y^4], and is far less noisy
    than n Y_1^4 alone.
    """
    total = 0.0
    for block, start in enumerate(range(0, rows, 500)):
        m = min(500, rows - start)
        sum_x2, sum_x4 = np.zeros(m), np.zeros(m)
        for panel in simulation._panels(m, n, "pareto", alpha, seed, block):
            np.square(panel, out=panel)  # the buffer is redrawn for the next panel
            sum_x2 += panel.sum(axis=1)
            sum_x4 += np.einsum("ij,ij->i", panel, panel)
        total += (sum_x4 / (sum_x2 * sum_x2)).sum()
    return total / rows
