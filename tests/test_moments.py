import importlib.util
import math
import os
import re
import shutil
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb
from pathlib import Path

import pytest

import heavymp
import oracles
from heavymp import _dtable, series
from heavymp.combinatorics import stirling2
from heavymp.delta_graphs import _tree_walks, build_delta, contributing_sets
from heavymp.moments import (
    MOMENT_K_MAX,
    _heavy_tail_gap_exact,
    boundary_modified_poisson,
    boundary_moment_alpha0,
    heavy_mp_moment,
    heavy_tail_gap,
    moment_table,
    mp_moment,
    mp_moment_exact,
)
from oracles import (
    brute_contributing_levels,
    core_polynomial,
    dihedral_representative,
    gap_polynomial,
    heavy_tail_gap_fractions,
    irreducible_classes,
    irreducible_polynomial,
    limit_pF,
    path_walk_polynomial,
    singleton_free_paths,
    tree_pair_polynomial,
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


def brute_limit_pF(i_path, alpha, gamma, levels=None):
    """Direct summation of the limit formula over the given levels, by
    default the brute-forced ones."""
    r = max(i_path)
    if levels is None:
        levels = brute_contributing_levels(i_path)
    g1 = math.gamma(1 - alpha / 2)
    total = 0.0
    for s, level in enumerate(levels, start=1):
        for t_path in level:
            degrees = build_delta(i_path, t_path)
            t_neighbours = Counter(i for i, _t in degrees)
            term = (alpha / 2 / g1) ** s
            for i in range(1, r + 1):
                term *= math.gamma(t_neighbours[i]) / math.gamma(i_path.count(i))
            for degree in degrees.values():
                term *= math.gamma((degree - alpha) / 2)
            total += term
    return (gamma / g1) ** (r - 1) * (2 / alpha) * total


def test_limit_pF_level_two_path_brute_force():
    i_path = (1, 2, 1, 2, 3, 4, 3, 4, 3)
    value = limit_pF(i_path, 1.0, 0.5)
    assert value == pytest.approx(brute_limit_pF(i_path, 1.0, 0.5), rel=1e-10)


FOLD_POINTS = [(0.5, 0.1), (1.0, 0.2), (1.75, 2.0)]


def test_limit_pF_matches_gamma_function_oracle():
    from heavymp.paths import PathClass, enumerate_class

    cores = [
        core
        for k in range(4, 9)
        for r in range(2, k // 2 + 1)
        for core in enumerate_class(k, r, PathClass.IRREDUCIBLE)
    ]
    assert len(cores) == 86
    for core in cores:
        for alpha, gamma in FOLD_POINTS:
            assert limit_pF(core, alpha, gamma) == pytest.approx(
                brute_limit_pF(core, alpha, gamma), rel=1e-12
            )
    # below length 12 every I-vertex of a contributing pair has at most two
    # T-neighbours, so (deg_i - 1)! = 1; here one pair has a vertex with three,
    # and its levels come from the walk, as the brute filter would take too long
    core = (1, 2, 1, 2, 1, 3, 1, 3, 1, 4, 1, 4)
    levels = contributing_sets(core)
    for alpha, gamma in FOLD_POINTS:
        assert limit_pF(core, alpha, gamma) == pytest.approx(
            brute_limit_pF(core, alpha, gamma, levels), rel=1e-12
        )


def test_limit_pF_constant_on_dihedral_classes():
    from heavymp.paths import PathClass, canonicalize, enumerate_class

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
        for k in range(1, 10):
            assert heavy_mp_moment(alpha, gamma, k) == pytest.approx(
                unfolded_heavy_moment(alpha, gamma, k), rel=1e-12
            )


BUILD_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "build_dtable.py"
# the committed table's top order; moment_table evaluates the series past it
TABLE_TOP = max(_dtable.D)


@lru_cache(maxsize=None)
def table_gap(k):
    """d_k as {(i, j): coefficient of (alpha/2)^i gamma^j}, parsed from the committed table."""
    lcm, lines = _dtable.D[k]
    rows = (map(int, line.split()) for line in lines.splitlines())
    return {(i, j): Fraction(n, lcm) for i, j, n in rows}


@pytest.fixture(scope="module")
def build():
    """The table's build script, loaded as a module."""
    spec = importlib.util.spec_from_file_location("build_dtable", BUILD_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def built(build):
    """mu_0..mu_11 from the moment series over the build script's polynomials, and its d_1..d_11."""
    return series.moment_series(build.A, build.GAMMA, 11), build.gap_polynomials(11)


def test_path_walk_visits_each_irreducible_path_once(monkeypatch):
    walk = oracles.singleton_free_paths
    walked = []

    def counting_walk(*args, **kwargs):
        for path in walk(*args, **kwargs):
            walked.append(path)
            yield path

    monkeypatch.setattr(oracles, "singleton_free_paths", counting_walk)
    for length in range(4, 11):
        path_walk_polynomial(length)
    # irreducible paths of lengths 4..10: 1 + 0 + 5 + 14 + 66 + 307 + 1554, where
    # the path census shortened the 22,080 singleton-free paths of those lengths
    assert len(walked) == len(set(walked)) == 1_947


def test_moment_table_walks_no_path(monkeypatch):
    from heavymp import delta_graphs, moments

    def no_walk(*args, **kwargs):
        raise AssertionError("moments read d_k from the table")

    for module, name in ((oracles, "singleton_free_paths"), (oracles, "irreducible_classes"),
                         (oracles, "core_polynomial"), (delta_graphs, "contributing_sets"),
                         (delta_graphs, "_tree_walks")):
        monkeypatch.setattr(module, name, no_walk)
    moments._integer_polynomial.cache_clear()
    try:
        table = moment_table(1.0, 0.2, TABLE_TOP)
    finally:
        moments._integer_polynomial.cache_clear()
    assert table.mu[-1] == heavy_mp_moment(1.0, 0.2, TABLE_TOP)


def test_table_matches_a_rebuild(built):
    assert TABLE_TOP == 18 and MOMENT_K_MAX == 40
    assert sorted(_dtable.D) == list(range(1, 19))
    _mu, table = built
    assert sorted(table) == list(range(1, 12))
    for k, poly in table.items():
        assert poly == table_gap(k)
        lcm = math.lcm(*(c.denominator for c in poly.values()))
        lines = "".join(f"{i} {j} {c * lcm}\n" for (i, j), c in poly.items())
        assert (lcm, lines) == _dtable.D[k]


def test_path_walk_matches_the_recursion_and_the_table(built):
    # d_k reassembled from the path-walk Q_4..Q_k
    _mu, table = built
    for k in range(1, 12):
        assert gap_polynomial(k) == table[k] == table_gap(k)


# the path walk visits the 15,257,811 irreducible paths of lengths 4..15 in about 5 min
@pytest.mark.slow
def test_path_walk_matches_the_table_at_length15():
    assert gap_polynomial(15) == table_gap(15)


def test_recursion_equals_the_tree_pair_sum(built):
    # mu_k sums gamma^(r-1) times the pair weight over every canonical pair
    # (I, T) of length k whose closed walk stays on a tree, reducible I included
    from heavymp.paths import enumerate_canonical_paths

    mu, _table = built
    for k in range(1, 8):
        pairs = [
            (max(i_path), tree_pair_polynomial(i_path, t_path))
            for r in range(1, k + 1)
            for i_path in enumerate_canonical_paths(k, r)
            for level in _tree_walks(i_path).values()
            for t_path in level
        ]
        for alpha, gamma in [(Fraction(1), Fraction(1, 5)), (Fraction(2, 3), Fraction(7, 4))]:
            a = alpha / 2
            brute = sum(gamma ** (r - 1) * c * a**i for r, poly in pairs for i, c in enumerate(poly))
            assert sum(c * a**i * gamma**j for (i, j), c in mu[k].items()) == brute
            assert brute == mp_moment_exact(gamma, k) + _heavy_tail_gap_exact(alpha, gamma, k)


def built_prefix(pythonpath, max_length=7):
    """The table the build script writes for orders 1..max_length, run on ``pythonpath``."""
    done = subprocess.run(
        [sys.executable, str(BUILD_SCRIPT), "--max-length", str(max_length)],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": pythonpath},
    )
    namespace = {}
    exec(done.stdout, namespace)
    return namespace["D"]


@pytest.mark.parametrize("max_length", [1, 2, 7])
def test_build_script_writes_the_table_prefix(max_length):
    # the script's output for orders 1..max_length (d_1..d_3 are empty) carries the committed entries
    # exactly; the sweep fixes no order of X past the first at length 1, and one more at length 2
    prefix = built_prefix(os.pathsep.join(sys.path), max_length)
    assert prefix == {k: _dtable.D[k] for k in range(1, max_length + 1)}


def test_build_script_needs_no_committed_table(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(Path(heavymp.__file__).parent, src / "heavymp")
    table = src / "heavymp" / "_dtable.py"
    table.write_text("D = {}\n")
    assert built_prefix(str(src)) == {k: _dtable.D[k] for k in range(1, 8)}
    table.unlink()
    assert built_prefix(str(src)) == {k: _dtable.D[k] for k in range(1, 8)}


def a_polynomial(k, j):
    """The gamma^j coefficient of d_k, ascending in a = alpha/2."""
    coefficients = {i: c for (i, jj), c in table_gap(k).items() if jj == j}
    return [coefficients.get(i, Fraction(0)) for i in range(max(coefficients, default=-1) + 1)]


def test_every_gap_is_divisible_by_one_minus_a_squared():
    # (1 - a)^2 divides a polynomial in a exactly when it and its derivative vanish at a = 1
    for k in range(1, TABLE_TOP + 1):
        assert bool(table_gap(k)) == (k >= 4)
        for j in {jj for _i, jj in table_gap(k)}:
            poly = a_polynomial(k, j)
            assert sum(poly) == 0
            assert sum(i * c for i, c in enumerate(poly)) == 0


def test_gamma_one_coefficient_of_the_gap():
    # only the r = 2 cores 1,2,1,2,... of even length l reach gamma^1, each with
    # (prod_{j=1}^{l/2-1} (j - a) / (l/2-1)!)^2, and C(k, l) times in d_k
    for k in range(1, TABLE_TOP + 1):
        expected = []
        for length in range(4, k + 1, 2):
            m = length // 2
            root = [Fraction(1)]
            for j in range(1, m):
                root = [j * c - lower for c, lower in zip(root + [0], [0] + root)]
            expected += [Fraction(0)] * (2 * m - 1 - len(expected))
            for i, c in enumerate(root):
                for n, d in enumerate(root):
                    expected[i + n] += Fraction(comb(k, length) * c * d, math.factorial(m - 1) ** 2)
        assert a_polynomial(k, 1) == expected


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


IDENTITY_GAMMAS = [Fraction(1, 5), Fraction(1, 3), Fraction(1), Fraction(7, 2)]


def test_gap_closed_forms_exact():
    for alpha in (Fraction(0), Fraction(1, 4), Fraction(1), Fraction(19, 10), Fraction(2)):
        for gamma in IDENTITY_GAMMAS:
            c = (1 - alpha / 2) ** 2
            assert _heavy_tail_gap_exact(alpha, gamma, 4) == c * gamma
            assert _heavy_tail_gap_exact(alpha, gamma, 5) == c * (5 * gamma + 5 * gamma**2)


def test_gap_vanishes_at_alpha_two():
    # the table to its top, and the moment series at a = 1 to the cap
    for gamma in IDENTITY_GAMMAS:
        for k in range(1, TABLE_TOP + 1):
            assert _heavy_tail_gap_exact(Fraction(2), gamma, k) == 0
    gamma = Fraction(7, 2)
    mu = series.moment_series(Fraction(1), gamma, MOMENT_K_MAX)
    assert mu == [1] + [mp_moment_exact(gamma, k) for k in range(1, MOMENT_K_MAX + 1)]


def test_alpha_zero_moments_are_modified_poisson_moments():
    # beta_k + d_k(0, gamma) = (1/gamma) sum_r gamma^r S(k, r), exactly: the
    # table to its top, and the moment series at a = 0 to the cap
    def poisson(gamma, k):
        return sum(gamma**r * stirling2(k, r) for r in range(1, k + 1)) / gamma

    for gamma in IDENTITY_GAMMAS:
        for k in range(1, TABLE_TOP + 1):
            mu = mp_moment_exact(gamma, k) + _heavy_tail_gap_exact(Fraction(0), gamma, k)
            assert mu == poisson(gamma, k)
    gamma = Fraction(1, 5)
    mu = series.moment_series(Fraction(0), gamma, MOMENT_K_MAX)
    assert mu == [1] + [poisson(gamma, k) for k in range(1, MOMENT_K_MAX + 1)]


def test_path_walk_does_not_depend_on_class_order(monkeypatch):
    classes = oracles.irreducible_classes

    def reversed_classes(length):
        return reversed(list(classes(length)))

    before = [list(path_walk_polynomial(length).items()) for length in range(4, 11)]
    monkeypatch.setattr(oracles, "irreducible_classes", reversed_classes)
    after = [list(path_walk_polynomial(length).items()) for length in range(4, 11)]
    assert after == before


@lru_cache(maxsize=None)
def core_census(m):
    """Oracle: the singleton-free canonical paths of length m with a non-empty
    core, each shortened, counted by (dihedral representative of the core,
    simples)."""
    from heavymp.paths import shorten

    by_core = Counter()
    for path in singleton_free_paths(m):
        result = shorten(path)
        if result.shortened:
            by_core[result.shortened, result.simples] += 1
    census = Counter()
    for (core, simples), count in by_core.items():
        census[dihedral_representative(core), simples] += count
    return census


def multiplicity(length, m, s):
    """N(l, m, s): singleton-free length-m paths per canonical form of a
    length-l core, with s simple removals."""
    return comb(m, length + 2 * s) * comb(length + 2 * s, s)


def check_census_multiplicity(m):
    expected = {
        (core, s): size * multiplicity(length, m, s)
        for length in range(4, m + 1)
        for core, size in irreducible_classes(length)
        for s in range((m - length) // 2 + 1)
    }
    assert dict(core_census(m)) == expected


def test_census_counts_are_class_size_times_multiplicity():
    for m in range(1, 11):
        check_census_multiplicity(m)


# the census shortens 580,317 paths of length 12 in about 15 s
@pytest.mark.slow
def test_census_multiplicity_length12():
    check_census_multiplicity(12)


def test_gap_equals_census_sum():
    # G_m from the census, gamma^(simples + r - 1) P_core per path, against
    # sum_l sum_s N(l, m, s) gamma^s Q_l, coefficient by coefficient
    census_poly = {}
    for m in range(4, 11):
        by_census, by_class = Counter(), Counter()
        for (core, simples), count in core_census(m).items():
            for i, c in enumerate(core_polynomial(core)):
                by_census[i, simples + max(core) - 1] += count * c
        for length in range(4, m + 1):
            for s in range((m - length) // 2 + 1):
                for (i, j), c in irreducible_polynomial(length):
                    by_class[i, j + s] += multiplicity(length, m, s) * c
        census_poly[m] = {key: c for key, c in by_census.items() if c}
        assert census_poly[m] == {key: c for key, c in by_class.items() if c}
    # and d_k = sum_m C(k, m) gamma^(k-m) G_m, as the census engine summed it
    for alpha, gamma in [(0, Fraction(1, 3)), (2, Fraction(1, 5)), (1, Fraction(1, 5)),
                         (Fraction(3, 2), Fraction(7, 10))]:
        for k in range(1, 11):
            census_gap = sum(
                comb(k, m) * c * Fraction(alpha, 2) ** i * gamma ** (k - m + j)
                for m in range(4, k + 1)
                for (i, j), c in census_poly[m].items()
            )
            assert _heavy_tail_gap_exact(Fraction(alpha), gamma, k) == census_gap


def test_irreducible_count_without_enumeration(monkeypatch):
    from heavymp.combinatorics import count_irreducible

    totals = {}
    for length in range(1, 13):
        walked = Counter(max(p) for p in singleton_free_paths(length, run_free=True))
        for r in range(1, length + 1):
            assert count_irreducible(length, r) == walked[r]
        totals[length] = sum(walked.values())
    assert sum(totals[length] for length in range(4, 11)) == 1_947
    assert sum(totals[length] for length in range(4, 13)) == 58_892

    def no_walk(*args, **kwargs):
        raise AssertionError("the closed form walks no path")

    monkeypatch.setattr(oracles, "singleton_free_paths", no_walk)
    # the paths of lengths 4..20 with a non-empty core, counted at gamma = 1
    # as Bell(k) - Catalan(k) = sum_l M_l sum_s C(k, l + 2s) C(l + 2s, s) 2^(k-l-2s)
    assert sum(
        count_irreducible(length, r) for length in range(4, 21) for r in range(1, length + 1)
    ) == 413_096_308_829
    # 58,892 of lengths 4..12, 296,582 of length 13, 1,913,561 of length 14
    # and 12,988,776 of length 15
    assert sum(
        count_irreducible(length, r) for length in range(4, 16) for r in range(1, length + 1)
    ) == 15_257_811


def test_moments_are_rounded_once():
    assert heavy_mp_moment(1.0, 0.2, 4) == 2.498
    for alpha, gamma in FOLD_POINTS:
        rounded = tuple(
            float(mp_moment_exact(gamma, k) + _heavy_tail_gap_exact(Fraction(alpha), Fraction(gamma), k))
            for k in range(1, 11)
        )
        assert tuple(heavy_mp_moment(alpha, gamma, k) for k in range(1, 11)) == rounded
        assert moment_table(alpha, gamma, 10).mu == rounded


# the benchmark's exact_table points (dyadic floats) and two non-dyadic rationals
TABLE_POINTS = [(1.0, 0.2), (0.5, 0.1), (0.75, 0.25), (1.25, 0.5),
                (1.5, 1.0), (0.25, 2.0), (1.75, 0.5), (1.0, 1.0)]
RATIONAL_POINTS = [(Fraction(2, 3), Fraction(1, 3)), (Fraction(2, 3), Fraction(7, 4))]


def table_gap_fractions(alpha, gamma, k):
    """d_k from the committed table, summed term by term in Fractions."""
    return sum((c * (alpha / 2) ** i * gamma**j for (i, j), c in table_gap(k).items()), Fraction(0))


def test_integer_sum_equals_the_fraction_sum():
    # the integer pass against the table's Fraction sum for every k, and against
    # d_k reassembled from the path-walk Q_l for k <= 11
    ks = range(1, TABLE_TOP + 1)
    for alpha, gamma in TABLE_POINTS + RATIONAL_POINTS:
        a, g = Fraction(alpha), Fraction(gamma)
        gaps = [table_gap_fractions(a, g, k) for k in ks]
        assert [_heavy_tail_gap_exact(a, g, k) for k in ks] == gaps
        assert [heavy_tail_gap_fractions(a, g, k) for k in range(1, 12)] == gaps[:11]
        beta = [mp_moment_exact(g, k) for k in ks]
        table = moment_table(alpha, gamma, TABLE_TOP)
        assert table.beta == tuple(map(float, beta))
        assert table.d == tuple(map(float, gaps))
        assert table.mu == tuple(float(b + d) for b, d in zip(beta, gaps))
    for alpha in (Fraction(0), Fraction(2)):
        for gamma in (Fraction(1, 5), Fraction(7, 4)):
            gaps = [_heavy_tail_gap_exact(alpha, gamma, k) for k in ks]
            assert gaps == [table_gap_fractions(alpha, gamma, k) for k in ks]
            assert gaps[:11] == [heavy_tail_gap_fractions(alpha, gamma, k) for k in range(1, 12)]


# the CLI's golden points, and two more near the ends of the alpha range
SERIES_POINTS = TABLE_POINTS + [(1e-06, 0.2), (1.999, 0.2), (1.999, 0.1), (1e-06, 3.0)]


def test_moment_series_rounded_once_is_the_table():
    # the fixed point at the binary (alpha, gamma), in exact rationals and rounded
    # once, equals the table route bit for bit; and so do the first orders of a
    # table that runs past the committed one and takes the series route
    for alpha, gamma in SERIES_POINTS:
        mu = series.moment_series(Fraction(alpha) / 2, Fraction(gamma), TABLE_TOP)
        assert moment_table(alpha, gamma, TABLE_TOP).mu == tuple(map(float, mu[1:]))
    for alpha, gamma in SERIES_POINTS[:2]:
        longer = moment_table(alpha, gamma, TABLE_TOP + 2)
        assert tuple(column[:TABLE_TOP] for column in longer) == moment_table(alpha, gamma, TABLE_TOP)
        assert longer.mu[-1] == heavy_mp_moment(alpha, gamma, TABLE_TOP + 2)
    # and, unrounded, at points no binary float hits, it is the table's exact mu_k
    for alpha, gamma in [(Fraction(2, 3), Fraction(5, 7)), (Fraction(7, 5), Fraction(3, 2)),
                         (Fraction(1, 10), Fraction(1, 3))]:
        mu = series.moment_series(alpha / 2, gamma, TABLE_TOP)
        assert mu[1:] == [mp_moment_exact(gamma, k) + _heavy_tail_gap_exact(alpha, gamma, k)
                          for k in range(1, TABLE_TOP + 1)]


def series_product(x, y):
    return [sum(x[i] * y[n - i] for i in range(n + 1)) for n in range(len(x))]


def series_compose(coefficients, x):
    """sum_m coefficients[m] x^m, truncated to len(x) terms; x has no constant term."""
    total, power = [0] * len(x), [1] + [0] * (len(x) - 1)
    for c in coefficients:
        total = [t + c * p for t, p in zip(total, power)]
        power = series_product(power, x)
    return total


def test_gap_generating_function():
    # D(z) = sum_k d_k z^k = (1 - (1 + g) z)^-1 (1 - 4 g w^2)^(-1/2) Q(w B(g w^2)),
    # w = z / (1 - (1 + g) z), B the Catalan generating function, Q(u) = sum_l Q_l u^l,
    # with the path-walk Q_l, to l = 11
    size = 12
    central = [comb(2 * m, m) for m in range(size)]  # (1 - 4x)^(-1/2)
    catalan = [c // (m + 1) for m, c in enumerate(central)]
    for alpha, gamma in [(Fraction(1), Fraction(1, 5)), (Fraction(1, 3), Fraction(7, 4)),
                         (Fraction(0), Fraction(1, 2)), (Fraction(3, 2), Fraction(2))]:
        a = alpha / 2
        geometric = [(1 + gamma) ** n for n in range(size)]
        w = [0] + geometric[:-1]
        x = [gamma * c for c in series_product(w, w)]
        q = [0] * 4 + [
            sum(c * a**i * gamma**j for (i, j), c in irreducible_polynomial(length))
            for length in range(4, size)
        ]
        u = series_product(w, series_compose(catalan, x))
        series = series_product(
            geometric, series_product(series_compose(central, x), series_compose(q, u))
        )
        assert series == [0] + [_heavy_tail_gap_exact(alpha, gamma, k) for k in range(1, size)]


def exact_det(rows):
    """Determinant of a square matrix of Fractions by exact elimination."""
    a = [list(row) for row in rows]
    det = Fraction(1)
    for c in range(len(a)):
        pivot = next((r for r in range(c, len(a)) if a[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            for j in range(c, len(a)):
                a[r][j] -= f * a[c][j]
    return det


def test_moments_form_a_stieltjes_sequence():
    # H_{alpha,gamma} is a law on [0, inf) whose support is not finite, so every
    # Hankel matrix of its moments, and every one shifted by one, is positive
    # definite: the table's moments to its top on a grid, and the moment series
    # to the cap at two points
    moment_lists = [
        [Fraction(1)] + [
            mp_moment_exact(gamma, k) + _heavy_tail_gap_exact(alpha, gamma, k)
            for k in range(1, TABLE_TOP + 1)
        ]
        for alpha in (Fraction(i, 10) for i in range(1, 20, 2))
        for gamma in (Fraction(1, 10), Fraction(1, 2), Fraction(1), Fraction(3), Fraction(10))
    ]
    moment_lists += [series.moment_series(alpha / 2, gamma, MOMENT_K_MAX)
                     for alpha, gamma in [(Fraction(1), Fraction(1, 5)), (Fraction(3, 2), Fraction(1, 2))]]
    for mu in moment_lists:
        top = len(mu) - 1
        for n in range(1, top // 2 + 2):
            assert exact_det([[mu[i + j] for j in range(n)] for i in range(n)]) > 0
        for n in range(1, (top + 1) // 2 + 1):
            assert exact_det([[mu[i + j + 1] for j in range(n)] for i in range(n)]) > 0


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
    with pytest.raises(RuntimeError, match=f"exceeds {MOMENT_K_MAX}"):
        heavy_mp_moment(1.0, 0.2, MOMENT_K_MAX + 1)
    for gamma in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="gamma must be finite and positive"):
            heavy_mp_moment(1.0, gamma, 4)


def test_moment_table_holds_the_one_argument_check():
    with pytest.raises(RuntimeError) as from_moment:
        heavy_mp_moment(1.0, 0.2, MOMENT_K_MAX + 1)
    with pytest.raises(RuntimeError) as from_table:
        moment_table(1.0, 0.2, MOMENT_K_MAX + 1)
    assert str(from_table.value) == str(from_moment.value)
    assert str(from_table.value) == "moment order k=41 exceeds 40, the largest order evaluated"
    for call in (heavy_mp_moment, heavy_tail_gap, moment_table):
        with pytest.raises(ValueError, match="k must be >= 1"):
            call(1.0, 0.2, 0)


def test_refusal_over_the_cap_is_immediate():
    # the refusal costs the same at any k; it once summed a path count over every length up to k
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match=f"exceeds {MOMENT_K_MAX}"):
        heavy_mp_moment(1.0, 0.2, 10**6)
    assert time.perf_counter() - start < 0.5


def test_moment_table_overflow_names_the_order_and_the_point():
    # beta_12 at gamma = 1e30 is about gamma^11 = 1e330, past the largest float64
    # (about 1.8e308); k_max = TABLE_TOP reads the table, TABLE_TOP + 2 the series
    message = r"^moment order k=12 at \(alpha, gamma\) = \(1\.0, 1e\+30\) exceeds the largest float64$"
    for k_max in (TABLE_TOP, TABLE_TOP + 2):
        with pytest.raises(OverflowError, match=message):
            moment_table(1.0, 1e30, k_max)
    assert moment_table(1.0, 1e30, 11).beta[-1] > 1e300


def test_moment_table():
    table = moment_table(1.0, 0.2, 5)
    assert table.mu == tuple(heavy_mp_moment(1.0, 0.2, k) for k in range(1, 6))
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


def test_boundary_pmf0_without_cancellation():
    for gamma in (1e-12, 1e-9, 1e-6, 1e-3, 0.5, 1.0, 2.0):
        # 1 - (1 - e^-g) / g = sum_{n >= 1} (-1)^(n+1) g^n / (n+1)!, summed exactly
        g = Fraction(gamma)
        exact = -sum((-g) ** n / math.factorial(n + 1) for n in range(1, 60))
        assert boundary_modified_poisson(gamma).pmf(0) == pytest.approx(float(exact), rel=1e-12)


def test_boundary_law_mean_is_one():
    for gamma in (0.2, 1.0, 3.0):
        law = boundary_modified_poisson(gamma)
        mean = sum(j * law.pmf(j) for j in range(300))
        assert mean == pytest.approx(1.0, abs=1e-10)


def test_boundary_support_stops_at_the_tail_tolerance():
    for gamma in (1e-6, 0.1, 5.0, 300.0):
        law = boundary_modified_poisson(gamma)
        points = list(law.support())
        assert points == list(range(len(points))) and len(points) > 1
        remaining = [1.0]
        for j in points:
            remaining.append(remaining[-1] - law.pmf(j))
        assert remaining[-2] > 1e-12 >= remaining[-1]


def test_boundary_support_walk_is_bounded():
    # gamma = 990000 walks 994,736 points to a 1e-12 tail, gamma = 10^6 walks 1,004,758
    assert sum(1 for _ in boundary_modified_poisson(990_000.0).support()) == 994_736
    message = "support of gamma=1000000.0 passes 10^6 points above tail 1e-12"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        boundary_modified_poisson(1e6).support()


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


def test_heavy_moment_k12():
    assert heavy_mp_moment(1.0, 0.2, 12) == pytest.approx(1268.2439912179786, rel=1e-12, abs=0)


def test_heavy_moments_k13_k14():
    assert heavy_mp_moment(1.0, 0.2, 13) == pytest.approx(3796.438241972546, rel=1e-12, abs=0)
    assert heavy_mp_moment(1.0, 0.2, 14) == pytest.approx(12138.448302765602, rel=1e-12, abs=0)
