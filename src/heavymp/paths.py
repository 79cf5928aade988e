"""Canonical paths, their enumeration and path shortening.

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

from enum import Enum
from typing import Iterator, NamedTuple

from heavymp.combinatorics import K_MAX, _check_range, restricted_growth_strings

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


def _require_canonical(path: Path) -> None:
    if not is_canonical(path):
        raise ValueError(f"path {path} is not canonical")


class PSResult(NamedTuple):
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
