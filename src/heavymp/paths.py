"""Canonical paths, the path/partition bijection and path shortening.

A path is a tuple of positive integers.  It is canonical when it starts at 1
and each entry exceeds the running maximum by at most one; every isomorphism
class of paths (under relabelling of the vertex alphabet) contains exactly
one canonical representative.

Shortening repeatedly removes *runs* (cyclically consecutive equal vertices)
and *simple* vertices (appearing exactly once) until a fixpoint; the fixpoint
together with the two removal counters classifies every path as completely
reducible, irreducible or partially reducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from heavymp.combinatorics import (
    K_MAX,
    SetPartition,
    _check_range,
    enumerate_partitions,
    restricted_growth_strings,
)

Path = tuple[int, ...]


class PathClass(Enum):
    COMPLETELY_REDUCIBLE = "c0"
    IRREDUCIBLE = "c1"
    PARTIALLY_REDUCIBLE = "c2"


def is_canonical(path: Path) -> bool:
    running_max = 0
    for v in path:
        if v < 1 or v > running_max + 1:
            return False
        running_max = max(running_max, v)
    return True


def canonicalize(path: Path) -> Path:
    """Relabel vertices by order of first appearance."""
    relabel: dict[int, int] = {}
    out = []
    for v in path:
        if v not in relabel:
            relabel[v] = len(relabel) + 1
        out.append(relabel[v])
    return tuple(out)


def dihedral_representative(path: Path) -> Path:
    """Smallest canonical form among the rotations of the path and their reversals.

    Paths in one class close the same index cycles of a trace, so every
    quantity built from those cycles agrees on them.
    """
    rotations = [path[j:] + path[:j] for j in range(len(path))]
    return min(canonicalize(p) for rot in rotations for p in (rot, rot[::-1]))


def _require_canonical(path: Path) -> None:
    if not is_canonical(path):
        raise ValueError(f"path {path} is not canonical")


def path_to_partition(path: Path) -> SetPartition:
    """Partition of {1..k} whose block l holds the positions of label l."""
    _require_canonical(path)
    if not path:
        raise ValueError("empty path has no partition")
    r = max(path)
    blocks: list[list[int]] = [[] for _ in range(r)]
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


@dataclass(frozen=True)
class PSResult:
    """Outcome of path shortening: the irreducible core and removal counters."""

    shortened: Path
    runs: int
    simples: int


def shorten(path: Path) -> PSResult:
    """Iterate run erasure and simple-vertex deletion to the fixpoint.

    Runs are erased one at a time, leftmost first, with the cyclic pair
    (last, first) included; this order pins down the counters (the fixpoint
    itself is order-independent).  The returned path is canonicalized.
    """
    current = list(path)
    runs = 0
    simples = 0
    while True:
        before = list(current)
        # erase runs, leftmost first, restarting after each removal
        while len(current) >= 2:
            l = len(current)
            for j in range(l):
                if current[j] == current[(j + 1) % l]:
                    del current[j]
                    runs += 1
                    break
            else:
                break
        # delete all currently simple vertices at once
        counts: dict[int, int] = {}
        for v in current:
            counts[v] = counts.get(v, 0) + 1
        kept = [v for v in current if counts[v] > 1]
        simples += len(current) - len(kept)
        current = kept
        if current == before:
            return PSResult(canonicalize(tuple(current)), runs, simples)


def classify(path: Path) -> PathClass:
    _require_canonical(path)
    result = shorten(path)
    if not result.shortened:
        return PathClass.COMPLETELY_REDUCIBLE
    if result.shortened == path:
        return PathClass.IRREDUCIBLE
    return PathClass.PARTIALLY_REDUCIBLE


def enumerate_canonical_paths(k: int, r: int, k_max: int = K_MAX) -> Iterator[Path]:
    """Yield each canonical r-path of length k once, in lexicographic order."""
    _check_range(k, r, k_max)
    for rgs in restricted_growth_strings(k, r):
        yield tuple(a + 1 for a in rgs)


def enumerate_class(k: int, r: int, path_class: PathClass, k_max: int = K_MAX) -> Iterator[Path]:
    """Canonical r-paths of length k in one reducibility class."""
    for path in enumerate_canonical_paths(k, r, k_max):
        if classify(path) is path_class:
            yield path


def enumerate_simples(k: int, r: int, q: int, k_max: int = K_MAX) -> Iterator[Path]:
    """Canonical r-paths of length k with a non-empty core and exactly q
    simple-vertex removals (q must be at most r - 2)."""
    if not 0 <= q <= r - 2:
        raise ValueError(f"q must satisfy 0 <= q <= r-2={r - 2}, got {q}")
    for path in enumerate_canonical_paths(k, r, k_max):
        result = shorten(path)
        if result.shortened and result.simples == q:
            yield path


def count_irreducible(k: int, r: int) -> int:
    """Number of irreducible canonical r-paths of length k, M(k, r).

    Counted through the partition characterization: every block has at least
    two elements, no block contains two integers at distance < 2, and the
    positions 1 and k fall in different blocks.
    """
    _check_range(k, r)
    if k < 2 * r:
        return 0
    count = 0
    for partition in enumerate_partitions(k, r, k_max=max(k, K_MAX)):
        if _is_irreducible_partition(partition):
            count += 1
    return count


def _is_irreducible_partition(partition: SetPartition) -> bool:
    k = partition.k
    for block in partition.blocks:
        if len(block) < 2:
            return False
        elems = sorted(block)
        if any(b - a < 2 for a, b in zip(elems, elems[1:])):
            return False
        if 1 in block and k in block:
            return False
    return True
