"""Bipartite multigraphs linking a row path I to a column path T.

For paths I and T of common length k the graph has a down-edge (i_l, t_l)
and an up-edge (i_{l+1}, t_l) for every step l, with the wraparound
i_{k+1} = i_1; orientation is dropped and parallel edges are counted by an
integer degree.  Only pairs whose edge degrees are all even and whose
skeleton (parallel edges glued) is a tree contribute at leading order; the
closed walk i_1 t_1 i_2 t_2 ... i_k t_k i_1 makes every such graph connected,
so the tree test is an edge count.  The levels C_s(I) of contributing column
paths with s distinct labels are generated as the closed walks that never
close a cycle, and ``contributing_sets`` returns them as a plain tuple of
levels, t* being its length; tests/oracles.py keeps the filter over all
canonical s-paths that checks them.
Summed over these pairs, a core I gives its limit polynomial P_I.  The
moments do not sum cores: ``heavymp.series`` sums the same tree walks over
all row paths at once, by a fixed point in formal power series, which
scripts/build_dtable.py runs into the committed table of the gaps d_k, and
this module shows the paper's combinatorics behind it.
"""

from __future__ import annotations

from heavymp.paths import Path, PathClass, classify, is_canonical


def build_delta(i_path: Path, t_path: Path) -> dict[tuple[int, int], int]:
    """Degree of every skeleton edge (i, t), sorted by edge: one down- and
    one up-edge per step."""
    if len(i_path) != len(t_path):
        raise ValueError(f"length mismatch: |I|={len(i_path)}, |T|={len(t_path)}")
    if not i_path:
        raise ValueError("paths must be non-empty")
    degrees: dict[tuple[int, int], int] = {}
    for i_down, i_up, t in zip(i_path, i_path[1:] + i_path[:1], t_path):
        degrees[i_down, t] = degrees.get((i_down, t), 0) + 1
        degrees[i_up, t] = degrees.get((i_up, t), 0) + 1
    return dict(sorted(degrees.items()))


def is_even(degrees: dict[tuple[int, int], int]) -> bool:
    return all(d % 2 == 0 for d in degrees.values())


def is_tree_skeleton(degrees: dict[tuple[int, int], int]) -> bool:
    """Exactly (#vertices - 1) skeleton edges.

    The closed walk i_1 t_1 ... i_k t_k i_1 of a path pair passes every
    vertex, so the graph is connected, and a connected graph is a tree
    exactly when it has one edge fewer than vertices.
    """
    i_vertices = {i for i, _t in degrees}
    t_vertices = {t for _i, t in degrees}
    return len(degrees) == len(i_vertices) + len(t_vertices) - 1


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


def contributing_sets(i_path: Path) -> tuple[tuple[Path, ...], ...]:
    """The levels C_1(I), ..., C_{t*}(I) of an irreducible canonical path I:
    the closed walks of ``_tree_walks``, grouped by label count, so
    levels[s - 1] is C_s(I) in lexicographic order and t* is len(levels)."""
    if not is_canonical(i_path):
        raise ValueError(f"path {i_path} is not canonical")
    if not i_path:
        raise ValueError("empty path")
    if classify(i_path) is not PathClass.IRREDUCIBLE:
        raise ValueError(f"path {i_path} is reducible; shorten it first")
    found = _tree_walks(i_path)
    # no level below t* is empty
    assert sorted(found) == list(range(1, len(found) + 1))
    return tuple(tuple(found[s]) for s in sorted(found))
