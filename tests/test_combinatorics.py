import math

import pytest

from heavymp.combinatorics import (
    SetPartition,
    bell,
    count_c0,
    count_norun_paths,
    enumerate_partitions,
    restricted_growth_strings,
    stirling2,
    stirling2_assoc,
)


def brute_partitions(k):
    """Independent recursive enumeration of all partitions of {1..k}."""
    if k == 0:
        yield []
        return
    for smaller in brute_partitions(k - 1):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] | {k}] + smaller[i + 1 :]
        yield smaller + [{k}]


def test_stirling2_brute_force():
    for k in range(1, 9):
        by_r = {}
        for blocks in brute_partitions(k):
            by_r[len(blocks)] = by_r.get(len(blocks), 0) + 1
        for r in range(1, k + 1):
            assert stirling2(k, r) == by_r.get(r, 0)


@pytest.mark.parametrize("k,r,expected", [(1, 1, 1), (4, 2, 7), (5, 5, 1)])
def test_stirling2_examples(k, r, expected):
    assert stirling2(k, r) == expected


def test_stirling2_identities():
    for k in range(2, 13):
        assert stirling2(k, k) == 1
        assert stirling2(k, k - 1) == math.comb(k, 2)
        assert stirling2(k, 1) == 1


def test_stirling2_range_errors():
    with pytest.raises(ValueError):
        stirling2(4, 0)
    with pytest.raises(ValueError):
        stirling2(4, 5)
    with pytest.raises(ValueError):
        stirling2(0, 0)


@pytest.mark.parametrize("k,expected", [(1, 1), (4, 15), (8, 4140)])
def test_bell_examples(k, expected):
    assert bell(k) == expected


def test_bell_recursion():
    # B(k+1) = sum_j C(k, j) B(j), with B(0) = 1
    values = {0: 1}
    for k in range(1, 13):
        values[k] = bell(k)
    for k in range(0, 12):
        assert values[k + 1] == sum(math.comb(k, j) * values[j] for j in range(k + 1))


def test_bell_is_partition_sum():
    for k in range(1, 13):
        assert bell(k) == sum(stirling2(k, r) for r in range(1, k + 1))


@pytest.mark.parametrize("k,r,expected", [(4, 2, 3), (3, 2, 0), (5, 1, 1)])
def test_stirling2_assoc_examples(k, r, expected):
    assert stirling2_assoc(k, r) == expected


def test_stirling2_assoc_brute_force():
    for k in range(1, 9):
        for r in range(0, k + 1):
            expected = sum(
                1
                for blocks in brute_partitions(k)
                if len(blocks) == r and all(len(b) >= 2 for b in blocks)
            )
            assert stirling2_assoc(k, r) == expected


def has_cyclic_run(path):
    k = len(path)
    return any(path[j] == path[(j + 1) % k] for j in range(k)) if k >= 2 else False


def test_count_norun_paths_brute_force():
    from heavymp.paths import enumerate_canonical_paths

    for k in range(1, 9):
        for r in range(1, k + 1):
            expected = sum(
                1 for p in enumerate_canonical_paths(k, r) if not has_cyclic_run(p)
            )
            assert count_norun_paths(k, r) == expected


def test_count_norun_paths_edges():
    assert count_norun_paths(2, 1) == 0  # (1, 1) is a run
    for k in range(2, 10):
        assert count_norun_paths(k, k) == 1  # only the identity path


@pytest.mark.parametrize("k,r,expected", [(4, 2, 6), (4, 4, 1), (7, 1, 1)])
def test_count_c0_examples(k, r, expected):
    assert count_c0(k, r) == expected


def test_enumerate_partitions_counts_and_order():
    for k in range(1, 9):
        for r in range(1, k + 1):
            parts = list(enumerate_partitions(k, r))
            assert len(parts) == stirling2(k, r)
            assert len(set(parts)) == len(parts)
            for part in parts:
                assert part.k == k
                assert part.r == r


def test_enumerate_partitions_trivial():
    (only,) = enumerate_partitions(2, 2)
    assert only.blocks == (frozenset({1}), frozenset({2}))
    assert len(list(enumerate_partitions(3, 2))) == 3


def test_enumerate_partitions_range_error():
    with pytest.raises(ValueError):
        list(enumerate_partitions(3, 4))
    with pytest.raises(ValueError):
        list(enumerate_partitions(20, 2))  # beyond the enumeration cap


def test_restricted_growth_strings_lexicographic():
    strings = list(restricted_growth_strings(4))
    assert strings == sorted(strings)
    assert len(strings) == bell(4)
    assert strings[0] == (0, 0, 0, 0)
    assert strings[-1] == (0, 1, 2, 3)


def all_rgs(k):
    """Every restricted growth string of length k, lexicographically, by recursion."""

    def extend(prefix, top):
        if len(prefix) == k:
            yield tuple(prefix)
            return
        for v in range(top + 2):
            yield from extend(prefix + [v], max(top, v))

    yield from extend([0], 0)


def test_restricted_growth_strings_exactly_r():
    for k in range(1, 10):
        full = list(all_rgs(k))
        assert list(restricted_growth_strings(k)) == full
        for r in range(0, k + 2):
            expected = [a for a in full if max(a) == r - 1]
            assert list(restricted_growth_strings(k, r)) == expected


def test_set_partition_validation():
    with pytest.raises(ValueError):
        SetPartition(3, (frozenset({1, 2}),))  # does not cover
    with pytest.raises(ValueError):
        SetPartition(2, (frozenset({2}), frozenset({1})))  # wrong block order
    with pytest.raises(ValueError):
        SetPartition(2, (frozenset({1, 2}), frozenset({2})))  # overlap
