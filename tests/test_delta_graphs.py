import pytest

from heavymp.combinatorics import stirling2
from heavymp.delta_graphs import (
    build_delta,
    contributing_sets,
    is_even,
    is_tree_skeleton,
    refine_candidates,
)
from heavymp.paths import PathClass, enumerate_class


def test_build_delta_single_t_vertex():
    graph = build_delta((1, 2, 1, 2), (1, 1, 1, 1))
    assert graph.degrees == {(1, 1): 4, (2, 1): 4}
    assert graph.t_vertices == {1}
    assert is_even(graph) and is_tree_skeleton(graph)


def test_build_delta_trivial():
    graph = build_delta((1,), (1,))
    assert graph.degrees == {(1, 1): 2}
    assert is_even(graph) and is_tree_skeleton(graph)


def test_build_delta_figure_topology():
    # I = (i1, i2, i3), T = (t1, t2, t1): steps give edges
    # (i1,t1),(i2,t1),(i2,t2),(i3,t2),(i3,t1),(i1,t1)
    graph = build_delta((1, 2, 3), (1, 2, 1))
    assert graph.degrees == {(1, 1): 2, (2, 1): 1, (2, 2): 1, (3, 2): 1, (3, 1): 1}
    assert graph.n_edges == 5


def test_build_delta_length_mismatch():
    with pytest.raises(ValueError):
        build_delta((1, 2), (1, 1, 1))


def test_total_degree_is_2k():
    for i_path, t_path in [((1, 2, 1, 2), (1, 1, 2, 2)), ((1, 2, 3), (1, 2, 1))]:
        graph = build_delta(i_path, t_path)
        assert sum(d for _e, d in graph.edge_degrees) == 2 * len(i_path)


def test_i_degree_sums():
    i_path, t_path = (1, 2, 1, 2, 3), (1, 2, 1, 2, 1)
    graph = build_delta(i_path, t_path)
    for i in set(i_path):
        incident = sum(d for (a, _t), d in graph.edge_degrees if a == i)
        assert incident == 2 * i_path.count(i)


def test_example_two_cycles_not_tree():
    # pairing t1=t2, t3=t4, t5=t6, t7=t8 (and t9 glued to t3's pair) keeps
    # degrees even but leaves two cycles in the skeleton
    i_path = (1, 2, 1, 2, 3, 4, 3, 4, 3)
    t2 = (1, 1, 2, 2, 3, 3, 4, 4, 2)
    graph = build_delta(i_path, t2)
    assert is_even(graph)
    assert not is_tree_skeleton(graph)
    # cycle count = edges - vertices + 1 for a connected graph
    assert graph.n_edges - (len(graph.i_vertices) + len(graph.t_vertices)) + 1 == 2


def test_refine_candidates_from_single_block():
    refined = sorted(refine_candidates((1, 1, 1, 1)))
    assert len(refined) == stirling2(4, 2)
    assert all(max(p) == 2 for p in refined)


def test_refine_candidates_all_singletons():
    assert list(refine_candidates((1, 2))) == []


def test_refine_candidates_are_the_one_refinements():
    # a 1-refinement of T has one more label and merging some label of it
    # into another gives T back
    from heavymp.paths import canonicalize, enumerate_canonical_paths

    t_path = (1, 2, 1, 1, 3, 2, 1)
    refined = list(refine_candidates(t_path))
    expected = [
        c
        for c in enumerate_canonical_paths(len(t_path), max(t_path) + 1)
        if any(
            canonicalize(tuple(a if v == b else v for v in c)) == t_path
            for a in range(1, max(c) + 1)
            for b in range(a + 1, max(c) + 1)
        )
    ]
    assert sorted(refined) == expected
    assert len(set(refined)) == len(refined)


def tree_by_search(graph):
    """Reference tree test: edge count plus a depth-first connectivity search."""
    n_vertices = len(graph.i_vertices) + len(graph.t_vertices)
    if graph.n_edges != n_vertices - 1:
        return False
    adjacency = {}
    for (i, t), _d in graph.edge_degrees:
        adjacency.setdefault(("i", i), []).append(("t", t))
        adjacency.setdefault(("t", t), []).append(("i", i))
    start = next(iter(adjacency))
    seen, stack = {start}, [start]
    while stack:
        for nb in adjacency[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == n_vertices


def test_tree_test_matches_search():
    from heavymp.delta_graphs import DeltaGraph
    from heavymp.paths import enumerate_canonical_paths

    graphs = [
        build_delta(i_path, t_path)
        for i_path in [(1, 2, 1, 2, 3, 2), (1, 2, 3, 1, 2, 3), (1, 2, 1, 3, 1, 3)]
        for s in range(1, 5)
        for t_path in enumerate_canonical_paths(len(i_path), s)
    ]
    # built by hand: a 4-cycle plus a separate edge has #vertices - 1 edges
    # but is no tree (a graph built from a path pair is always connected)
    cycle_and_edge = ((1, 1), (1, 2), (2, 1), (2, 2), (3, 3))
    graphs.append(DeltaGraph(tuple((e, 2) for e in cycle_and_edge)))
    for graph in graphs:
        assert is_tree_skeleton(graph) == tree_by_search(graph)
    assert not is_tree_skeleton(graphs[-1])


def test_contributing_sets_1212():
    sets = contributing_sets((1, 2, 1, 2))
    assert sets.levels == (((1, 1, 1, 1),),)
    assert sets.t_star == 1


def test_contributing_sets_level_two_example():
    sets = contributing_sets((1, 2, 1, 2, 3, 4, 3, 4, 3))
    assert sets.levels[0] == ((1, 1, 1, 1, 1, 1, 1, 1, 1),)
    assert sets.levels[1] == ((1, 1, 1, 1, 2, 2, 2, 2, 1),)
    assert sets.t_star == 2


def test_contributing_sets_rejects_reducible():
    with pytest.raises(ValueError):
        contributing_sets((1, 2, 3))
    with pytest.raises(ValueError):
        contributing_sets((2, 1))  # not canonical


def test_level_two_empty_for_short_irreducible_paths():
    for k in range(4, 8):
        for r in range(2, k // 2 + 1):
            for i_path in enumerate_class(k, r, PathClass.IRREDUCIBLE):
                assert contributing_sets(i_path).t_star == 1


def test_level_two_nonempty_cases_at_k8():
    # exhaustive enumeration at k = 8 turns up exactly six irreducible paths
    # whose level 2 is a singleton; every other irreducible path of length
    # <= 8 has t* = 1
    expected = {
        (1, 2, 1, 2, 1, 3, 1, 3): (1, 1, 1, 1, 2, 2, 2, 2),
        (1, 2, 1, 2, 3, 2, 3, 2): (1, 1, 1, 2, 2, 2, 2, 1),
        (1, 2, 1, 3, 1, 2, 1, 3): (1, 1, 2, 2, 1, 1, 2, 2),
        (1, 2, 1, 3, 1, 3, 1, 2): (1, 1, 2, 2, 2, 2, 1, 1),
        (1, 2, 3, 2, 1, 2, 3, 2): (1, 2, 2, 1, 1, 2, 2, 1),
        (1, 2, 3, 2, 3, 2, 1, 2): (1, 2, 2, 2, 2, 1, 1, 1),
    }
    found = {}
    for r in range(2, 5):
        for i_path in enumerate_class(8, r, PathClass.IRREDUCIBLE):
            sets = contributing_sets(i_path)
            if sets.t_star == 2:
                (member,) = sets.levels[1]
                found[i_path] = member
    assert found == expected


def test_refinement_mode_matches_brute_force():
    targets = [
        (1, 2, 1, 2, 3, 4, 3, 4, 3),
        (1, 2, 1, 2, 3, 1, 3, 2, 3),
        (1, 2, 1, 2, 1, 3, 4, 3, 4),
        (1, 2, 1, 2, 1, 2, 3, 1, 3),
        (1, 2, 1, 2, 1, 2, 1, 3, 1, 3),
        (1, 2, 1, 2, 1, 3, 4, 3, 4, 3),  # t* = 3, two paths at level 2
        (1, 2, 1, 3, 4, 3, 4, 3, 1, 2),
    ]
    for k in (6, 8):
        for r in range(2, k // 2 + 1):
            targets.extend(enumerate_class(k, r, PathClass.IRREDUCIBLE))
    for i_path in targets:
        fast = contributing_sets(i_path, mode="refine")
        slow = contributing_sets(i_path, mode="brute")
        assert fast.levels == slow.levels


def test_monotone_emptiness_brute_force():
    # for s >= 2, once a level is empty all later levels are empty too
    from heavymp.paths import enumerate_canonical_paths

    i_path = (1, 2, 1, 2, 3, 4, 3, 4, 3)
    k, r = len(i_path), max(i_path)
    seen_empty = False
    for s in range(2, k - r + 2):
        level = [
            t
            for t in enumerate_canonical_paths(k, s)
            if is_even(build_delta(i_path, t)) and is_tree_skeleton(build_delta(i_path, t))
        ]
        if seen_empty:
            assert not level
        seen_empty = seen_empty or not level


def test_tree_degree_sum_identity():
    # tree skeleton implies sum of I-vertex degrees = r + s - 1
    for i_path in [(1, 2, 1, 2), (1, 2, 1, 2, 3, 4, 3, 4, 3)]:
        sets = contributing_sets(i_path)
        r = max(i_path)
        for s, t_path in sets.all_pairs():
            graph = build_delta(i_path, t_path)
            assert sum(graph.i_degree(i) for i in range(1, r + 1)) == r + s - 1
            assert graph.n_edges == r + s - 1
