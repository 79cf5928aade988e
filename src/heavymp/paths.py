"""Canonical paths, their enumeration and path shortening.

A path is a tuple of positive integers.  It is canonical when it starts at 1
and each entry exceeds the running maximum by at most one; every isomorphism
class of paths (under relabelling of the vertex alphabet) contains exactly
one canonical representative.  The canonical r-paths of length k, one per
r-partition of {1..k}, are listed by one walk over positions in lexicographic
order; since they number up to Bell(k), the walk refuses k > ``K_MAX``.

Shortening repeatedly removes *runs* (cyclically consecutive equal vertices)
and *simple* vertices (appearing exactly once) until a fixpoint.  A path is
completely reducible when the fixpoint is empty, irreducible when it is the
non-empty path itself, up to relabelling, and partially reducible otherwise.
Both named classes can be read off the path without shortening it:

- irreducible: non-empty with no run and no simple vertex, since such a path
  is its own fixpoint and every other non-empty path loses an entry in the
  first pass;
- completely reducible: no two labels cross (a..b..a..b), since a
  non-crossing path has a label whose entries are cyclically consecutive,
  which run erasure and then simple deletion remove, leaving a shorter
  non-crossing path, while no removal undoes a crossing (an erased run entry
  leaves its equal neighbour in place, and a crossing label is not simple).
"""

from __future__ import annotations

import operator
from collections import Counter
from enum import Enum
from itertools import groupby
from typing import Iterator, NamedTuple

from heavymp.combinatorics import K_MAX, _check_range

Path = tuple[int, ...]


class PathClass(Enum):
    COMPLETELY_REDUCIBLE = "c0"
    IRREDUCIBLE = "c1"
    PARTIALLY_REDUCIBLE = "c2"


def canonicalize(path: Path) -> Path:
    """Relabel vertices by order of first appearance."""
    relabel: dict[int, int] = {}
    out = []
    for v in path:
        if v not in relabel:
            relabel[v] = len(relabel) + 1
        out.append(relabel[v])
    return tuple(out)


def is_canonical(path: Path) -> bool:
    return canonicalize(path) == path


class PSResult(NamedTuple):
    """Outcome of path shortening: the irreducible core and removal counters."""

    shortened: Path
    runs: int
    simples: int


def shorten(path: Path) -> PSResult:
    """Iterate run erasure and simple-vertex deletion to the fixpoint.

    Each pass erases every run, the cyclic pair (last, first) included, in
    one sweep, then deletes every simple vertex.  Neither the fixpoint nor
    the counters depend on the order of the erasures: a block of b cyclically
    consecutive equal entries always loses b - 1 of them.  The returned path
    is canonicalized.
    """
    current = list(path)
    runs = 0
    simples = 0
    while True:
        before = current
        # keep the first entry of each block of equal neighbours, then drop
        # the last entries while they repeat the first
        current = [v for v, _block in groupby(current)]
        while len(current) >= 2 and current[-1] == current[0]:
            current.pop()
        runs += len(before) - len(current)
        # delete all currently simple vertices at once
        counts = Counter(current)
        kept = [v for v in current if counts[v] > 1]
        simples += len(current) - len(kept)
        current = kept
        if current == before:
            return PSResult(canonicalize(tuple(current)), runs, simples)


def classify(path: Path) -> PathClass:
    """The reducibility class of any path; it does not depend on the labels.

    One stack pass looks for a crossing.  The open labels, those met before
    and met again later, are kept innermost last, and a label met while it
    is open but not innermost crosses the labels above it.
    """
    if path and all(map(operator.ne, path, path[1:] + path[:1])) and min(map(path.count, path)) > 1:
        return PathClass.IRREDUCIBLE
    open_labels: list[int] = []
    for j, v in enumerate(path):
        # an open label met again must be innermost; it is popped and pushed
        # back if it is met again later still
        if v in open_labels and open_labels.pop() != v:
            return PathClass.PARTIALLY_REDUCIBLE
        if v in path[j + 1:]:
            open_labels.append(v)
    return PathClass.COMPLETELY_REDUCIBLE


def enumerate_canonical_paths(k: int, r: int) -> Iterator[Path]:
    """Yield each canonical r-path of length k once, in lexicographic order.

    One walk over positions: each takes a label up to min(top + 1, r), with
    top the largest label so far, and only while the positions after it can
    still bring in the labels up to r that are missing.  Refuses k > K_MAX.
    """
    _check_range(k, r)
    if k > K_MAX:
        raise ValueError(f"k={k} exceeds k_max={K_MAX}")

    def walk(prefix: Path, top: int) -> Iterator[Path]:
        left = k - len(prefix) - 1  # positions after this one
        # with more labels missing than positions left, this one must be new
        labels = range(top + 1 if r - top > left else 1, min(top + 1, r) + 1)
        if left:
            for v in labels:
                yield from walk(prefix + (v,), max(top, v))
        else:
            for v in labels:
                yield prefix + (v,)

    yield from walk((), 0)


def enumerate_class(k: int, r: int, path_class: PathClass) -> Iterator[Path]:
    """Canonical r-paths of length k in one reducibility class."""
    for path in enumerate_canonical_paths(k, r):
        if classify(path) is path_class:
            yield path
