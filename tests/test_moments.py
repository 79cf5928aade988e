import math
from fractions import Fraction

import pytest

from heavymp.combinatorics import stirling2
from heavymp.delta_graphs import build_delta, contributing_sets
from heavymp.moments import (
    boundary_modified_poisson,
    boundary_moment_alpha0,
    heavy_mp_moment,
    heavy_tail_gap,
    limit_pF,
    moment_table,
    mp_moment,
    mp_moment_exact,
    self_normalized_moment_limit,
)


def test_mp_moment_golden_rationals():
    gamma = Fraction(1, 5)
    assert mp_moment_exact(gamma, 1) == 1
    assert mp_moment_exact(gamma, 2) == Fraction(6, 5)
    assert mp_moment_exact(gamma, 3) == Fraction(41, 25)
    assert mp_moment_exact(gamma, 4) == Fraction(306, 125)
    assert mp_moment_exact(gamma, 5) == Fraction(2426, 625)


def test_mp_moment_floats():
    assert mp_moment(0.2, 2) == pytest.approx(1.2)
    assert mp_moment(1.0, 2) == pytest.approx(2.0)
    for gamma in (0.1, 0.7, 3.0):
        assert mp_moment(gamma, 1) == pytest.approx(1.0)


def test_mp_moment_errors():
    with pytest.raises(ValueError):
        mp_moment(0.0, 2)
    with pytest.raises(ValueError):
        mp_moment(0.2, 0)


def test_self_normalized_fourth_moment_limit():
    for alpha in (0.3, 1.0, 1.7):
        assert self_normalized_moment_limit([2], alpha) == pytest.approx(1 - alpha / 2, rel=1e-12)


def test_self_normalized_first_moment_is_one():
    for alpha in (0.5, 1.0, 1.5):
        assert self_normalized_moment_limit([1], alpha) == pytest.approx(1.0, rel=1e-12)


def test_self_normalized_closed_form_alpha1():
    # Gamma(5/2) / (Gamma(1/2) Gamma(3)) = 3/8
    assert self_normalized_moment_limit([3], 1.0) == pytest.approx(3 / 8, rel=1e-12)


def test_self_normalized_gamma_validation():
    # the underlying gamma evaluation: Gamma(1/2) = sqrt(pi), Gamma(n) = (n-1)!
    assert math.exp(math.lgamma(0.5)) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    for n in range(1, 15):
        assert math.exp(math.lgamma(n)) == pytest.approx(math.factorial(n - 1), rel=1e-12)


def test_self_normalized_errors():
    with pytest.raises(ValueError):
        self_normalized_moment_limit([2], 2.0)
    with pytest.raises(ValueError):
        self_normalized_moment_limit([], 1.0)
    with pytest.raises(ValueError):
        self_normalized_moment_limit([0, 2], 1.0)


def test_limit_pF_1212_closed_form():
    for alpha in (0.25, 1.0, 1.9):
        for gamma in (0.2, 1.0, 2.5):
            expected = gamma * (1 - alpha / 2) ** 2
            assert limit_pF((1, 2, 1, 2), alpha, gamma) == pytest.approx(expected, rel=1e-12)


def test_limit_pF_alpha_to_zero_probe():
    assert limit_pF((1, 2, 1, 2), 1e-9, 0.7) == pytest.approx(0.7, rel=1e-6)


def test_limit_pF_rejects_reducible():
    with pytest.raises(ValueError):
        limit_pF((1, 2, 3), 1.0, 0.2)


def brute_limit_pF(i_path, alpha, gamma):
    """Direct summation of the limit formula over brute-forced levels."""
    r = max(i_path)
    sets = contributing_sets(i_path, mode="brute")
    g1 = math.gamma(1 - alpha / 2)
    total = 0.0
    for s, level in enumerate(sets.levels, start=1):
        for t_path in level:
            graph = build_delta(i_path, t_path)
            term = (alpha / 2 / g1) ** s
            for i in range(1, r + 1):
                term *= math.gamma(graph.i_degree(i)) / math.gamma(i_path.count(i))
            for _edge, degree in graph.edge_degrees:
                term *= math.gamma((degree - alpha) / 2)
            total += term
    return (gamma / g1) ** (r - 1) * (2 / alpha) * total


def test_limit_pF_level_two_path_brute_force():
    i_path = (1, 2, 1, 2, 3, 4, 3, 4, 3)
    value = limit_pF(i_path, 1.0, 0.5)
    assert value == pytest.approx(brute_limit_pF(i_path, 1.0, 0.5), rel=1e-10)


FOLD_POINTS = [(0.5, 0.1), (1.0, 0.2), (1.75, 2.0)]


def test_limit_pF_constant_on_dihedral_classes():
    from heavymp.paths import PathClass, canonicalize, dihedral_representative, enumerate_class

    cores = [
        core
        for k in range(4, 9)
        for r in range(2, k // 2 + 1)
        for core in enumerate_class(k, r, PathClass.IRREDUCIBLE)
    ]
    # up to length 8 every core is a rotation of its reversal; these are not
    cores += [(1, 2, 1, 2, 1, 2, 3, 1, 3), (1, 2, 1, 2, 1, 3, 1, 3, 2, 3)]
    for core in cores:
        rep = dihedral_representative(core)
        assert rep <= core
        assert dihedral_representative(canonicalize(core[3:] + core[:3])) == rep
        assert dihedral_representative(canonicalize(core[::-1])) == rep
        for alpha, gamma in FOLD_POINTS:
            assert limit_pF(rep, alpha, gamma) == pytest.approx(
                limit_pF(core, alpha, gamma), rel=1e-13
            )


def unfolded_heavy_moment(alpha, gamma, k):
    """Reference: gamma^simples * limit_pF(core) summed path by path, with no fold."""
    from heavymp.paths import enumerate_canonical_paths, shorten

    limits = {}
    heavy = 0.0
    for r in range(2, k - 1):
        for path in enumerate_canonical_paths(k, r):
            result = shorten(path)
            core = result.shortened
            if core:
                if core not in limits:
                    limits[core] = limit_pF(core, alpha, gamma)
                heavy += gamma**result.simples * limits[core]
    return mp_moment(gamma, k) + heavy


def test_heavy_moment_matches_unfolded_sum():
    for alpha, gamma in FOLD_POINTS:
        for k in range(1, 9):
            assert heavy_mp_moment(alpha, gamma, k) == pytest.approx(
                unfolded_heavy_moment(alpha, gamma, k), rel=1e-12
            )


@pytest.mark.parametrize(
    "k,expected", [(2, 1.2), (3, 1.64), (4, 2.4980), (5, 4.1816)]
)
def test_heavy_moments_golden(k, expected):
    assert heavy_mp_moment(1.0, 0.2, k) == pytest.approx(expected, abs=5e-4)


def test_heavy_moment_first_is_one():
    for alpha in (0.5, 1.5):
        for gamma in (0.2, 1.0, 2.0):
            assert heavy_mp_moment(alpha, gamma, 1) == 1.0


def test_low_moments_equal_classical():
    for alpha in (0.3, 1.0, 1.8):
        for gamma in (0.2, 1.0):
            for k in (1, 2, 3):
                assert heavy_mp_moment(alpha, gamma, k) == mp_moment(gamma, k)


def test_gap_closed_forms():
    for alpha in (0.25, 0.5, 1.0, 1.5, 1.9):
        for gamma in (0.1, 0.2, 0.5, 1.0, 2.0):
            c = (1 - alpha / 2) ** 2
            assert heavy_tail_gap(alpha, gamma, 4) == pytest.approx(c * gamma, rel=1e-8)
            assert heavy_tail_gap(alpha, gamma, 5) == pytest.approx(
                c * (5 * gamma + 5 * gamma**2), rel=1e-8
            )


def test_gap_nonnegative_and_positive_from_k4():
    for k in range(1, 8):
        gap = heavy_tail_gap(1.0, 0.5, k)
        assert gap >= 0
        if k >= 4:
            assert gap > 0


def test_heavy_moment_argument_errors():
    with pytest.raises(ValueError):
        heavy_mp_moment(0.0, 0.2, 4)
    with pytest.raises(ValueError):
        heavy_mp_moment(2.0, 0.2, 4)
    with pytest.raises(ValueError):
        heavy_mp_moment(1.0, -1.0, 4)
    with pytest.raises(RuntimeError, match="Bell"):
        heavy_mp_moment(1.0, 0.2, 13)


def test_moment_table():
    table = moment_table(1.0, 0.2, 5)
    assert table.mu == tuple(b + d for b, d in zip(table.beta, table.d))
    assert table.mu[0] == 1.0
    assert table.d[:3] == (0.0, 0.0, 0.0)


def test_boundary_modified_poisson_pmf():
    law = boundary_modified_poisson(1.0)
    assert law.pmf(0) == pytest.approx(math.exp(-1), abs=1e-14)
    assert law.pmf(1) == pytest.approx(math.exp(-1), abs=1e-14)
    for gamma in (0.2, 1.0, 2.0):
        law = boundary_modified_poisson(gamma)
        assert law.pmf(0) >= 0
        total = sum(law.pmf(j) for j in range(200))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_boundary_law_mean_is_one():
    for gamma in (0.2, 1.0, 3.0):
        law = boundary_modified_poisson(gamma)
        mean = sum(j * law.pmf(j) for j in range(300))
        assert mean == pytest.approx(1.0, abs=1e-10)


def test_boundary_moment_alpha0_values():
    expected = (0.2 * 1 + 0.04 * 7 + 0.008 * 6 + 0.0016 * 1) / 0.2
    assert boundary_moment_alpha0(0.2, 4) == pytest.approx(expected, rel=1e-12)


def test_boundary_moments_match_pmf():
    # moments of the pmf equal (1/gamma) sum gamma^r B(k, r)
    for gamma in (0.5, 1.0):
        law = boundary_modified_poisson(gamma)
        for k in range(1, 7):
            from_pmf = sum(j**k * law.pmf(j) for j in range(400))
            assert from_pmf == pytest.approx(law.moment(k), rel=1e-10)


def test_touchard_identity():
    # sum_k T_k(g) t^k / k! = exp(g (e^t - 1)) with T_k(g) = sum_r g^r B(k, r)
    g, t = 0.7, 0.3
    lhs = 1.0 + sum(
        sum(g**r * stirling2(k, r) for r in range(1, k + 1)) * t**k / math.factorial(k)
        for k in range(1, 25)
    )
    assert lhs == pytest.approx(math.exp(g * (math.exp(t) - 1)), rel=1e-12)


def test_alpha_boundary_limits():
    for gamma in (0.2, 1.0):
        for k in range(1, 7):
            near_zero = heavy_mp_moment(1e-6, gamma, k)
            assert abs(near_zero - boundary_moment_alpha0(gamma, k)) < 1e-4
            gap_hi = heavy_tail_gap(1.999, gamma, k)
            assert gap_hi < 1e-2
            if k >= 4:
                assert gap_hi < heavy_tail_gap(1.9, gamma, k)


def test_beta_part_matches_c0_accumulation():
    # completely reducible paths, counted with gamma powers, rebuild the
    # classical moment exactly in rational arithmetic
    from heavymp.combinatorics import count_c0

    gamma = Fraction(1, 3)
    for k in range(1, 9):
        acc = sum(count_c0(k, r) * gamma ** (r - 1) for r in range(1, k + 1))
        assert acc == mp_moment_exact(gamma, k)


def test_cores_lie_in_irreducible_union():
    # every non-empty shortened core of a length-k path is irreducible with
    # between 2 and k/2 distinct labels and length between 4 and k
    from heavymp.paths import enumerate_canonical_paths, shorten

    k = 7
    for r in range(1, k + 1):
        for path in enumerate_canonical_paths(k, r):
            core = shorten(path).shortened
            if core:
                assert 4 <= len(core) <= k
                assert 2 <= max(core) <= k // 2
                assert shorten(core).shortened == core
