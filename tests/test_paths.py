from collections import Counter
from itertools import product
from math import comb

import pytest
from hypothesis import assume, given, strategies as st

from heavymp.combinatorics import bell, count_c0, count_irreducible, stirling2, stirling2_assoc
from heavymp.paths import (
    PathClass,
    canonicalize,
    classify,
    enumerate_canonical_paths,
    enumerate_class,
    is_canonical,
    shorten,
)
from oracles import (
    class_by_shortening,
    dihedral_representative,
    enumerate_simples,
    irreducible_classes,
    partition_to_path,
    path_to_partition,
    restart_loop_shorten,
    singleton_free_paths,
)

paths_strategy = st.lists(st.integers(min_value=1, max_value=5), max_size=10).map(tuple)


@pytest.mark.parametrize(
    "path,expected",
    [
        ((9, 6, 9, 6), (1, 2, 1, 2)),
        ((1, 2, 1, 2), (1, 2, 1, 2)),
        ((3, 3, 1), (1, 1, 2)),
    ],
)
def test_canonicalize(path, expected):
    assert canonicalize(path) == expected
    assert is_canonical(canonicalize(path))


def test_is_canonical_is_the_running_max_rule():
    # canonical: every entry is positive and exceeds the running maximum by
    # at most one
    def running_max_rule(path):
        top = 0
        for v in path:
            if v < 1 or v > top + 1:
                return False
            top = max(top, v)
        return True

    checked = 0
    for k in range(7):
        for path in product(range(-1, 6), repeat=k):
            assert is_canonical(path) == running_max_rule(path)
            checked += 1
    assert checked == 137_257


def test_path_partition_bijection_examples():
    part = path_to_partition((1, 2, 1, 2))
    assert part.blocks == (frozenset({1, 3}), frozenset({2, 4}))
    assert partition_to_path(path_to_partition((1, 2, 3))) == (1, 2, 3)


def test_path_partition_roundtrip_exhaustive():
    for k in range(1, 7):
        for r in range(1, k + 1):
            for path in enumerate_canonical_paths(k, r):
                assert partition_to_path(path_to_partition(path)) == path


def test_path_to_partition_rejects_non_canonical():
    with pytest.raises(ValueError):
        path_to_partition((2, 1))


@pytest.mark.parametrize(
    "path,shortened,runs,simples",
    [
        ((1, 1, 2, 2), (), 2, 2),
        ((1, 2, 1, 2, 3, 3), (1, 2, 1, 2), 1, 1),
        ((1, 2, 1, 2), (1, 2, 1, 2), 0, 0),
        ((1, 2, 3), (), 0, 3),
        ((1,), (), 0, 1),
        ((1, 1), (), 1, 1),
        ((1, 2, 1, 2, 1), (1, 2, 1, 2), 1, 0),
    ],
)
def test_shorten_examples(path, shortened, runs, simples):
    result = shorten(path)
    assert result.shortened == shortened
    assert result.runs == runs
    assert result.simples == simples


def test_shorten_empty_path():
    result = shorten(())
    assert result.shortened == () and result.runs == 0 and result.simples == 0


def test_one_sweep_shorten_matches_the_restart_loop():
    for k in range(1, 10):
        for r in range(1, k + 1):
            for path in enumerate_canonical_paths(k, r):
                assert shorten(path) == restart_loop_shorten(path)


@given(st.lists(st.integers(min_value=1, max_value=4), max_size=14).map(tuple))
def test_one_sweep_shorten_matches_the_restart_loop_off_canonical_form(path):
    assume(not is_canonical(path))
    assert shorten(path) == restart_loop_shorten(path)


@given(paths_strategy)
def test_shorten_length_identity(path):
    result = shorten(path)
    assert len(path) == len(result.shortened) + result.runs + result.simples


@given(paths_strategy)
def test_shorten_idempotent(path):
    core = shorten(path).shortened
    again = shorten(core)
    assert again.shortened == core
    assert again.runs == 0 and again.simples == 0


@given(paths_strategy)
def test_shortened_path_structure(path):
    core = shorten(path).shortened
    assert len(core) in ({0, 4} | set(range(6, len(path) + 1)))
    counts = Counter(core)
    assert all(c >= 2 for c in counts.values())
    k = len(core)
    assert all(core[j] != core[(j + 1) % k] for j in range(k))


def test_simples_bounds():
    # simples = r-1 never occurs; simples >= number of singleton vertices
    for k in range(1, 8):
        for r in range(1, k + 1):
            for path in enumerate_canonical_paths(k, r):
                result = shorten(path)
                assert result.simples != r - 1
                singletons = sum(1 for c in Counter(path).values() if c == 1)
                assert result.simples >= singletons


@pytest.mark.parametrize(
    "path,expected",
    [
        ((1, 2, 3), PathClass.COMPLETELY_REDUCIBLE),
        ((1, 2, 1, 2), PathClass.IRREDUCIBLE),
        ((1, 2, 1, 2, 3, 3), PathClass.PARTIALLY_REDUCIBLE),
        ((), PathClass.COMPLETELY_REDUCIBLE),
        ((1,), PathClass.COMPLETELY_REDUCIBLE),
        ((2, 1, 2, 1), PathClass.IRREDUCIBLE),
        ((2, 1, 2, 1, 3, 3), PathClass.PARTIALLY_REDUCIBLE),
    ],
)
def test_classify(path, expected):
    assert classify(path) is expected


def test_classify_reads_the_class_off_the_path():
    checked = 0
    for k in range(1, 11):
        for r in range(1, k + 1):
            for path in enumerate_canonical_paths(k, r):
                assert classify(path) is class_by_shortening(path)
                checked += 1
    assert checked == 142_417

    # the class does not depend on how the labels are numbered
    @given(st.lists(st.integers(min_value=1, max_value=5), max_size=14).map(tuple))
    def relabelled(path):
        assert classify(path) is class_by_shortening(canonicalize(path))

    relabelled()


def test_enumerate_counts_match_stirling():
    for k in range(1, 9):
        for r in range(1, k + 1):
            stream = list(enumerate_canonical_paths(k, r))
            assert len(stream) == stirling2(k, r)
            assert len(set(stream)) == len(stream)
            assert all(is_canonical(p) and max(p) == r for p in stream)


def test_c0_filter_matches_closed_form():
    for k in range(1, 11):
        for r in range(1, k + 1):
            filtered = sum(1 for _ in enumerate_class(k, r, PathClass.COMPLETELY_REDUCIBLE))
            assert filtered == count_c0(k, r)


def test_c1_filter_matches_partition_conditions():
    for k in range(1, 11):
        for r in range(1, k + 1):
            filtered = sum(1 for _ in enumerate_class(k, r, PathClass.IRREDUCIBLE))
            assert filtered == count_irreducible(k, r)


def test_c2_filter_is_the_rest():
    for k in range(1, 11):
        for r in range(1, k + 1):
            filtered = sum(1 for _ in enumerate_class(k, r, PathClass.PARTIALLY_REDUCIBLE))
            assert filtered == stirling2(k, r) - count_c0(k, r) - count_irreducible(k, r)


def test_only_irreducible_length4_path():
    assert list(enumerate_class(4, 2, PathClass.IRREDUCIBLE)) == [(1, 2, 1, 2)]
    assert count_irreducible(4, 2) == 1
    assert count_irreducible(5, 2) == 0


def test_irreducible_needs_long_paths():
    for r in range(1, 7):
        for k in range(r, min(2 * r, 13)):
            assert count_irreducible(k, r) == 0


def test_enumerate_simples_matches_paper_sets():
    assert set(enumerate_simples(5, 2, 0)) == {
        (1, 1, 2, 1, 2),
        (1, 2, 1, 1, 2),
        (1, 2, 1, 2, 1),
        (1, 2, 2, 1, 2),
        (1, 2, 1, 2, 2),
    }
    assert list(enumerate_simples(5, 3, 0)) == []
    assert set(enumerate_simples(5, 3, 1)) == {
        (1, 2, 3, 1, 2),
        (1, 2, 1, 3, 2),
        (1, 2, 1, 2, 3),
        (1, 2, 3, 1, 3),
        (1, 2, 3, 2, 3),
    }


def test_enumerate_simples_range():
    with pytest.raises(ValueError):
        list(enumerate_simples(5, 2, 1))  # q > r - 2


def test_enumeration_cap():
    with pytest.raises(ValueError, match="k=13 exceeds k_max=12"):
        list(enumerate_canonical_paths(13, 2))


def test_singleton_free_counts_match_associated_stirling():
    for m in range(1, 11):
        by_r = Counter(max(p) for p in singleton_free_paths(m))
        assert set(by_r) <= set(range(1, m + 1))
        for r in range(1, m + 1):
            assert by_r[r] == stirling2_assoc(m, r)


def test_singleton_free_stream_is_lexicographic_and_canonical():
    for m in range(1, 10):
        stream = list(singleton_free_paths(m))
        assert all(a < b for a, b in zip(stream, stream[1:]))
        for path in stream:
            assert len(path) == m and is_canonical(path)
            assert min(Counter(path).values()) >= 2
        if m <= 8:
            assert stream == [
                p
                for p in sorted(p for r in range(1, m + 1) for p in enumerate_canonical_paths(m, r))
                if min(Counter(p).values()) >= 2
            ]


def test_paths_split_into_singletons_and_singleton_free_rest():
    # a canonical length-k path is a choice of its singleton positions and a
    # singleton-free canonical path on the rest; the empty rest is the one
    # path whose labels are all singletons
    for k in range(1, 11):
        rest = sum(comb(k, m) * sum(1 for _ in singleton_free_paths(m)) for m in range(2, k + 1))
        assert 1 + rest == bell(k)


def _is_run_free(path):
    return all(path[j] != path[j - 1] for j in range(len(path)))


def test_run_free_walk_is_the_irreducible_filter():
    for m in range(1, 11):
        assert list(singleton_free_paths(m, run_free=True)) == [
            p for p in singleton_free_paths(m) if _is_run_free(p)
        ]


def test_irreducible_classes_fold_by_dihedral_representative():
    total = 0
    for length in range(1, 11):
        classes = list(irreducible_classes(length))
        assert [core for core, _size in classes] == sorted(core for core, _size in classes)
        folded = Counter(dihedral_representative(p) for p in singleton_free_paths(length, run_free=True))
        assert dict(classes) == folded
        total += len(classes)
    assert total == 170
