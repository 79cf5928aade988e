"""Bipartite multigraphs linking a row path I to a column path T.

For paths I and T of common length k the graph has a down-edge (i_l, t_l)
and an up-edge (i_{l+1}, t_l) for every step l, with the wraparound
i_{k+1} = i_1; orientation is dropped and parallel edges are counted by an
integer degree.  Only pairs whose edge degrees are all even and whose
skeleton (parallel edges glued) is a tree contribute at leading order.  The
levels C_s(I) of such column paths with s distinct labels are generated as
the closed walks i_1 t_1 i_2 t_2 ... i_k t_k i_1 that never close a cycle.
Summed over these pairs, a core I gives its limit polynomial P_I.  The
moments do not sum cores: scripts/build_dtable.py sums the same tree walks
over all row paths at once, by a recursion in formal power series, into the
committed table of the gaps d_k, and this module shows the paper's
combinatorics behind it.
"""

from __future__ import annotations

from typing import Collection, Iterator, NamedTuple

from heavymp.combinatorics import K_MAX
from heavymp.paths import Path, enumerate_canonical_paths, is_canonical, shorten


class DeltaGraph(NamedTuple):
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


class ContributingSets(NamedTuple):
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


def _tree_walks(i_path: Path) -> dict[int, list[Path]]:
    """Column paths T whose closed walk i_1 t_1 i_2 t_2 ... i_k t_k i_1 stays
    on a tree, by label count s, each list in lexicographic order.

    A closed walk on a tree crosses every edge an even number of times, so
    these are exactly the T with even edge degrees and a tree skeleton.  The
    walk picks t_l among the T-neighbours of i_l or as the new label s + 1,
    and the step on to i_{l+1} must follow an edge already there or reach an
    I-vertex not yet visited; any other step closes a cycle.  New labels come
    in order, so each T is canonical, and an I-vertex gains T-neighbours in
    increasing order, so the choices are tried in increasing order.
    """
    k = len(i_path)
    nbrs: list[list[int]] = [[] for _ in range(max(i_path) + 1)]
    fresh = [0 < l == i_path.index(v) for l, v in enumerate(i_path)]
    t_path: list[int] = []
    found: dict[int, list[Path]] = {}

    def step(l: int, s: int) -> None:
        i, nxt = i_path[l], (l + 1) % k
        j = i_path[nxt]
        for t in nbrs[i] + [s + 1]:
            if t > s:
                nbrs[i].append(t)
            if fresh[nxt]:
                nbrs[j].append(t)
            if t in nbrs[j]:
                t_path.append(t)
                if nxt:
                    step(nxt, max(s, t))
                else:
                    found.setdefault(max(s, t), []).append(tuple(t_path))
                t_path.pop()
            if fresh[nxt]:
                nbrs[j].pop()
            if t > s:
                nbrs[i].pop()

    step(0, 0)
    return found


def contributing_sets(i_path: Path, mode: str = "refine") -> ContributingSets:
    """Build the non-empty levels C_s(I) for an irreducible canonical path.

    ``mode="refine"`` generates the contributing column paths directly, as
    the closed walks of ``_tree_walks``, and groups them by label count;
    ``mode="brute"`` filters all canonical s-paths of length k for even edge
    degrees and a tree skeleton, level by level up to the first empty one,
    and serves as the oracle.  Brute mode caps |I| at ``combinatorics.K_MAX``,
    since it lists up to Bell(|I|) paths; refine mode walks trees and needs no cap.
    """
    if not is_canonical(i_path):
        raise ValueError(f"path {i_path} is not canonical")
    if not i_path:
        raise ValueError("empty path")
    if mode == "brute" and len(i_path) > K_MAX:
        raise ValueError(f"|I|={len(i_path)} exceeds k_max={K_MAX}")
    ps = shorten(i_path)
    if ps.shortened != i_path:
        raise ValueError(f"path {i_path} is reducible; shorten it first")
    if mode not in ("refine", "brute"):
        raise ValueError(f"unknown mode {mode!r}")

    k = len(i_path)
    if mode == "refine":
        found = _tree_walks(i_path)
        # no level below t* is empty, so these match the brute-force levels,
        # which stop at the first empty one
        assert sorted(found) == list(range(1, len(found) + 1))
        return ContributingSets(i_path, tuple(tuple(found[s]) for s in sorted(found)))
    levels: list[tuple[Path, ...]] = [((1,) * k,)]
    # a contributing T has r + s - 1 <= k skeleton edges
    for s in range(2, k - max(i_path) + 2):
        level = tuple(
            t_path
            for t_path in enumerate_canonical_paths(k, s)
            if is_even(graph := build_delta(i_path, t_path)) and is_tree_skeleton(graph)
        )
        if not level:
            break
        levels.append(level)
    return ContributingSets(i_path, tuple(levels))
