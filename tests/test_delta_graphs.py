import os
from collections import Counter

import pytest

from heavymp.delta_graphs import (
    build_delta,
    contributing_sets,
    is_even,
    is_tree_skeleton,
)
from heavymp.paths import PathClass, enumerate_canonical_paths, enumerate_class
from oracles import brute_contributing_levels, irreducible_classes, singleton_free_paths


def test_build_delta_single_t_vertex():
    graph = build_delta((1, 2, 1, 2), (1, 1, 1, 1))
    assert graph == {(1, 1): 4, (2, 1): 4}
    assert {t for _i, t in graph} == {1}
    assert is_even(graph) and is_tree_skeleton(graph)


def test_build_delta_trivial():
    graph = build_delta((1,), (1,))
    assert graph == {(1, 1): 2}
    assert is_even(graph) and is_tree_skeleton(graph)


def test_build_delta_figure_topology():
    # I = (i1, i2, i3), T = (t1, t2, t1): steps give edges
    # (i1,t1),(i2,t1),(i2,t2),(i3,t2),(i3,t1),(i1,t1)
    graph = build_delta((1, 2, 3), (1, 2, 1))
    assert graph == {(1, 1): 2, (2, 1): 1, (2, 2): 1, (3, 2): 1, (3, 1): 1}
    assert list(graph) == sorted(graph)


def test_build_delta_length_mismatch():
    with pytest.raises(ValueError):
        build_delta((1, 2), (1, 1, 1))


def test_total_degree_is_2k():
    for i_path, t_path in [((1, 2, 1, 2), (1, 1, 2, 2)), ((1, 2, 3), (1, 2, 1))]:
        graph = build_delta(i_path, t_path)
        assert sum(graph.values()) == 2 * len(i_path)


def test_i_degree_sums():
    i_path, t_path = (1, 2, 1, 2, 3), (1, 2, 1, 2, 1)
    graph = build_delta(i_path, t_path)
    for i in set(i_path):
        incident = sum(d for (a, _t), d in graph.items() if a == i)
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
    assert len(graph) - len(set(i_path)) - len(set(t2)) + 1 == 2


def test_walk_matches_brute_force_up_to_length_8():
    checked = 0
    for k in range(4, 9):
        for r in range(2, k // 2 + 1):
            for i_path in enumerate_class(k, r, PathClass.IRREDUCIBLE):
                assert contributing_sets(i_path) == brute_contributing_levels(i_path)
                checked += 1
    assert checked == 86


@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("HEAVYMP_FULL_SCALE"),
    reason="the brute filter over all cores of length 10 takes about 20 s; set HEAVYMP_FULL_SCALE=1",
)
@pytest.mark.parametrize("k, n_cores", [(9, 307), (10, 1_554)])
def test_walk_matches_brute_force_at_lengths_9_and_10(k, n_cores):
    cores = list(singleton_free_paths(k, run_free=True))
    assert len(cores) == n_cores
    for i_path in cores:
        assert contributing_sets(i_path) == brute_contributing_levels(i_path)


def _census_classes():
    """(core, levels) for every irreducible census class of length 4 to 10."""
    cores = [core for m in range(4, 11) for core, _size in irreducible_classes(m)]
    return [(core, contributing_sets(core)) for core in sorted(cores)]


def test_walk_yields_only_contributing_pairs():
    for core, levels in _census_classes():
        for s, level in enumerate(levels, start=1):
            for t_path in level:
                assert max(t_path) == s
                graph = build_delta(core, t_path)
                assert is_even(graph) and is_tree_skeleton(graph)


def test_walk_pair_count_over_census_classes():
    classes = _census_classes()
    assert len(classes) == 170
    assert sum(len(level) for _core, levels in classes for level in levels) == 185
    assert max(len(levels) for _core, levels in classes) == 3


def tree_by_search(graph):
    """Reference tree test: edge count plus a depth-first connectivity search."""
    n_vertices = len({i for i, _t in graph}) + len({t for _i, t in graph})
    if len(graph) != n_vertices - 1:
        return False
    adjacency = {}
    for i, t in graph:
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
    # the edge count alone decides, since a path pair's closed walk makes its
    # graph connected; the search checks that premise on every pair with k <= 6
    pairs = trees = 0
    for k in range(1, 7):
        paths = [p for r in range(1, k + 1) for p in enumerate_canonical_paths(k, r)]
        for i_path in paths:
            for t_path in paths:
                graph = build_delta(i_path, t_path)
                tree = is_tree_skeleton(graph)
                assert tree == tree_by_search(graph)
                pairs += 1
                trees += tree
    assert pairs == 44_168
    assert 0 < trees < pairs


def test_contributing_sets_1212():
    assert contributing_sets((1, 2, 1, 2)) == (((1, 1, 1, 1),),)


def test_contributing_sets_level_two_example():
    assert contributing_sets((1, 2, 1, 2, 3, 4, 3, 4, 3)) == (
        ((1, 1, 1, 1, 1, 1, 1, 1, 1),),
        ((1, 1, 1, 1, 2, 2, 2, 2, 1),),
    )


def test_enumeration_cap_binds_brute_mode_only():
    # the tree walk lists no canonical paths, so the enumeration cap K_MAX
    # does not bind it
    core = (1, 2, 1, 2, 3, 4, 3, 4, 3, 5, 6, 5, 6)  # 13 letters, beyond K_MAX
    levels = contributing_sets(core)
    assert levels[1] == ((1, 1, 1, 1, 2, 2, 2, 2, 1, 1, 1, 1, 1),)
    assert len(levels) == 2


def test_contributing_sets_rejects_reducible():
    for path in ((1, 2, 3), (1, 1), (1, 2, 1, 2, 1), (1, 2, 1, 2, 3, 3)):
        with pytest.raises(ValueError) as error:
            contributing_sets(path)
        assert str(error.value) == f"path {path} is reducible; shorten it first"
    with pytest.raises(ValueError) as error:
        contributing_sets((2, 1))
    assert str(error.value) == "path (2, 1) is not canonical"


def test_level_two_empty_for_short_irreducible_paths():
    for k in range(4, 8):
        for r in range(2, k // 2 + 1):
            for i_path in enumerate_class(k, r, PathClass.IRREDUCIBLE):
                assert len(contributing_sets(i_path)) == 1


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
            levels = contributing_sets(i_path)
            if len(levels) == 2:
                (member,) = levels[1]
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
    for i_path in targets:
        assert contributing_sets(i_path) == brute_contributing_levels(i_path)


def test_monotone_emptiness_brute_force():
    # for s >= 2, once a level is empty all later levels are empty too
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
        r = max(i_path)
        for s, level in enumerate(contributing_sets(i_path), start=1):
            for t_path in level:
                graph = build_delta(i_path, t_path)
                t_neighbours = Counter(i for i, _t in graph)
                assert sum(t_neighbours[i] for i in range(1, r + 1)) == r + s - 1
                assert len(graph) == r + s - 1
