"""Bipartite multigraphs linking a row path I to a column path T.

For paths I and T of common length k the graph has a down-edge (i_l, t_l)
and an up-edge (i_{l+1}, t_l) for every step l, with the wraparound
i_{k+1} = i_1; orientation is dropped and parallel edges are counted by an
integer degree.  Only pairs whose edge degrees are all even and whose
skeleton (parallel edges glued) is a tree contribute at leading order, and
the levels C_s(I) of such column paths with s distinct labels are generated
bottom-up through 1-refinements.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Collection, Iterator

# SetPartition is no longer built here; the name stays because the benchmark
# tracer (perfbench/spans.py) counts constructions in this namespace
from heavymp.combinatorics import K_MAX, SetPartition  # noqa: F401
from heavymp.paths import (
    Path,
    canonicalize,
    enumerate_canonical_paths,
    is_canonical,
    shorten,
)


@dataclass(frozen=True)
class DeltaGraph:
    """Edge degrees of the bipartite multigraph for a path pair (I, T)."""

    edge_degrees: tuple[tuple[tuple[int, int], int], ...]  # ((i, t), degree)

    @property
    def degrees(self) -> dict[tuple[int, int], int]:
        return dict(self.edge_degrees)

    @property
    def i_vertices(self) -> frozenset[int]:
        return frozenset(i for (i, _t), _d in self.edge_degrees)

    @property
    def t_vertices(self) -> frozenset[int]:
        return frozenset(t for (_i, t), _d in self.edge_degrees)

    @property
    def n_edges(self) -> int:
        """Number of skeleton edges."""
        return len(self.edge_degrees)

    def i_degree(self, i: int) -> int:
        """Number of distinct T-neighbours of the I-vertex i."""
        return sum(1 for (a, _t), _d in self.edge_degrees if a == i)


def _edge_degrees(i_path: Path, t_path: Path) -> dict[tuple[int, int], int]:
    """Degree of every edge (i, t): one down- and one up-edge per step."""
    degrees: dict[tuple[int, int], int] = {}
    for i_down, i_up, t in zip(i_path, i_path[1:] + i_path[:1], t_path):
        degrees[i_down, t] = degrees.get((i_down, t), 0) + 1
        degrees[i_up, t] = degrees.get((i_up, t), 0) + 1
    return degrees


def _is_tree(edges: Collection[tuple[int, int]], n_vertices: int) -> bool:
    """Whether the (i, t) skeleton edges form a spanning tree of the vertices.

    With #vertices - 1 edges a graph is a tree exactly when it has no cycle;
    union-find spots the first edge that closes one.  T-vertices are stored
    negated so they never share a key with an I-vertex.
    """
    if len(edges) != n_vertices - 1:
        return False
    parent: dict[int, int] = {}

    def root(v: int) -> int:
        while parent.get(v, v) != v:
            v = parent[v]
        return v

    for i, t in edges:
        a, b = root(i), root(-t)
        if a == b:
            return False
        parent[a] = b
    return True


def build_delta(i_path: Path, t_path: Path) -> DeltaGraph:
    if len(i_path) != len(t_path):
        raise ValueError(f"length mismatch: |I|={len(i_path)}, |T|={len(t_path)}")
    if not i_path:
        raise ValueError("paths must be non-empty")
    return DeltaGraph(tuple(sorted(_edge_degrees(i_path, t_path).items())))


def is_even(graph: DeltaGraph) -> bool:
    return all(d % 2 == 0 for _e, d in graph.edge_degrees)


def is_tree_skeleton(graph: DeltaGraph) -> bool:
    """Connected with exactly (#vertices - 1) skeleton edges."""
    n_vertices = len(graph.i_vertices) + len(graph.t_vertices)
    return _is_tree(graph.degrees, n_vertices)


def refine_candidates(t_path: Path, i_path: Path | None = None) -> Iterator[Path]:
    """Canonical paths whose partition is a 1-refinement of partition(T).

    Splits the positions of one label of T into two non-empty parts in every
    possible way: the part without the label's first position moves to a new
    label.  Distinct splits give distinct partitions, so each refinement is
    yielded once.  The optional ``i_path`` is only checked for length
    compatibility, validation of the refined pairs is the caller's job.
    """
    if i_path is not None and len(i_path) != len(t_path):
        raise ValueError("i_path and t_path must have the same length")
    if not t_path or not is_canonical(t_path):
        raise ValueError(f"path {t_path} is not a non-empty canonical path")
    new_label = max(t_path) + 1
    for label in range(1, new_label):
        _first, *rest = (pos for pos, v in enumerate(t_path) if v == label)
        for size in range(1, len(rest) + 1):
            for moved in combinations(rest, size):
                refined = list(t_path)
                for pos in moved:
                    refined[pos] = new_label
                yield canonicalize(refined)


@dataclass(frozen=True)
class ContributingSets:
    """Levels C_1(I), C_2(I), ... of contributing column paths, and t*."""

    i_path: Path
    levels: tuple[tuple[Path, ...], ...]  # levels[s-1] = sorted C_s(I)

    @property
    def t_star(self) -> int:
        return len(self.levels)

    def all_pairs(self) -> Iterator[tuple[int, Path]]:
        """(s, T) over all non-empty levels."""
        for s, level in enumerate(self.levels, start=1):
            for t_path in level:
                yield s, t_path


def _contributes(i_path: Path, t_path: Path, n_vertices: int) -> bool:
    """Even edge degrees and a tree skeleton on ``n_vertices`` vertices."""
    degrees = _edge_degrees(i_path, t_path)
    for d in degrees.values():
        if d % 2:
            return False
    return _is_tree(degrees, n_vertices)


def contributing_sets(
    i_path: Path, mode: str = "refine", k_max: int = K_MAX
) -> ContributingSets:
    """Build the non-empty levels C_s(I) for an irreducible canonical path.

    ``mode="refine"`` grows level s+1 from 1-refinements of level s (the
    first empty level stops the construction, which is valid because
    emptiness is monotone for s >= 2); ``mode="brute"`` filters all
    canonical s-paths of length k and serves as the oracle.
    """
    if not is_canonical(i_path):
        raise ValueError(f"path {i_path} is not canonical")
    if not i_path:
        raise ValueError("empty path")
    if len(i_path) > k_max:
        raise ValueError(f"|I|={len(i_path)} exceeds k_max={k_max}")
    ps = shorten(i_path)
    if ps.shortened != i_path:
        raise ValueError(f"path {i_path} is reducible; shorten it first")
    if mode not in ("refine", "brute"):
        raise ValueError(f"unknown mode {mode!r}")

    k = len(i_path)
    r = max(i_path)
    levels: list[tuple[Path, ...]] = [((1,) * k,)]
    s = 2
    # an irreducible path never exhausts the bound s <= k - r + 1
    while s <= k - r + 1:
        if mode == "brute":
            candidates: Iterator[Path] = enumerate_canonical_paths(k, s, k_max)
        else:
            seen: set[Path] = set()
            candidates = (
                c
                for t_prev in levels[-1]
                for c in refine_candidates(t_prev, i_path)
                if not (c in seen or seen.add(c))
            )
        level = []
        for t_path in candidates:
            if _contributes(i_path, t_path, r + s):
                assert s <= k - r + 1  # distinct-label bound for contributing T
                level.append(t_path)
        if not level:
            break
        levels.append(tuple(sorted(level)))
        s += 1
    return ContributingSets(i_path, tuple(levels))
