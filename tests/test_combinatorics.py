import math

import pytest

from heavymp.combinatorics import (
    bell,
    count_c0,
    count_irreducible,
    count_norun_paths,
    stirling2,
    stirling2_assoc,
)
from heavymp.paths import enumerate_canonical_paths
from oracles import SetPartition, enumerate_partitions


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
    with pytest.raises(ValueError, match=r"^k must be >= 1, got 0$"):
        bell(0)
    with pytest.raises(ValueError, match=r"^k and r must be non-negative, got k=-1, r=0$"):
        stirling2_assoc(-1, 0)


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


# canonical paths are the restricted growth strings of set partitions, labels from 1


def test_restricted_growth_strings_lexicographic():
    strings = [p for r in range(1, 5) for p in enumerate_canonical_paths(4, r)]
    for r in range(1, 5):
        block = list(enumerate_canonical_paths(4, r))
        assert block == sorted(block)
    assert len(strings) == bell(4)
    assert sorted(strings)[0] == (1, 1, 1, 1)
    assert sorted(strings)[-1] == (1, 2, 3, 4)


def all_paths(k):
    """Every canonical path of length k, lexicographically, by recursion."""

    def extend(prefix, top):
        if len(prefix) == k:
            yield tuple(prefix)
            return
        for v in range(1, top + 2):
            yield from extend(prefix + [v], max(top, v))

    yield from extend([1], 1)


def test_restricted_growth_strings_exactly_r():
    for k in range(1, 10):
        full = list(all_paths(k))
        assert len(full) == bell(k)
        for r in range(1, k + 1):
            assert list(enumerate_canonical_paths(k, r)) == [p for p in full if max(p) == r]
        for r in (0, k + 1):
            with pytest.raises(ValueError):
                list(enumerate_canonical_paths(k, r))


def test_deep_counts_match_an_iterative_row_recurrence():
    # rows of S(k, 0..5) and of the singleton-free S2(k, 0..4), k = 0..3000
    s_rows = [[1, 0, 0, 0, 0, 0]]
    a_rows = [[1, 0, 0, 0, 0], [0, 0, 0, 0, 0]]
    for k in range(1, 3001):
        prev = s_rows[-1]
        s_rows.append([0] + [r * prev[r] + prev[r - 1] for r in range(1, 6)])
        if k >= 2:
            # element k joins one of r blocks, or forms the block {j, k} with one of k - 1 others
            one, two = a_rows[k - 1], a_rows[k - 2]
            a_rows.append([0] + [r * one[r] + (k - 1) * two[r - 1] for r in range(1, 5)])
    for r in range(1, 6):
        assert stirling2(3000, r) == s_rows[3000][r]
    for r in range(0, 5):
        assert stirling2_assoc(3000, r) == a_rows[3000][r]
    # N(k, r) = S(k - 1, r - 1) - N(k - 1, r): of the S(k - 1, r - 1) paths with no
    # linear run, those whose only run is the wraparound pair drop their last label
    # to a run-free path of length k - 1
    norun = 0
    for k in range(1, 2001):
        norun = s_rows[k - 1][2] - norun
    assert count_norun_paths(2000, 3) == norun


def test_irreducible_counts_satisfy_the_census_identity():
    # a path with a non-empty core of length l, s simple removals and j
    # singletons has r - 1 = (r_core - 1) + s + j, so grading by labels gives
    #   sum_r [S(k, r) - C0(k, r)] g^(r-1)
    #       = sum_l sum_s C(k, l + 2s) C(l + 2s, s) g^s (1 + g)^(k-l-2s) M_l(g),
    # checked coefficient by coefficient in g
    top = 24
    m = {(l, r): count_irreducible(l, r) for l in range(1, top + 1) for r in range(1, l + 1)}
    for k in range(1, top + 1):
        by_census = [0] * k
        for l in range(1, k + 1):
            for s in range((k - l) // 2 + 1):
                n = k - l - 2 * s
                c = math.comb(k, l + 2 * s) * math.comb(l + 2 * s, s)
                for t in range(n + 1):  # g^t in (1 + g)^n
                    for r in range(1, l + 1):
                        by_census[r - 1 + s + t] += c * math.comb(n, t) * m[l, r]
        assert by_census == [stirling2(k, r) - count_c0(k, r) for r in range(1, k + 1)]


def test_irreducible_counts_at_large_k():
    # two labels alternate around an even cycle and cannot close an odd one
    assert count_irreducible(300, 2) == 1
    assert count_irreducible(301, 2) == 0
    assert count_irreducible(1000, 5) > 0


def test_set_partition_validation():
    with pytest.raises(ValueError):
        SetPartition(3, (frozenset({1, 2}),))  # does not cover
    with pytest.raises(ValueError):
        SetPartition(2, (frozenset({2}), frozenset({1})))  # wrong block order
    with pytest.raises(ValueError):
        SetPartition(2, (frozenset({1, 2}), frozenset({2})))  # overlap
