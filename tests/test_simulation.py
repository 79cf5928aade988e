import json
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from heavymp import cli, simulation
from heavymp.simulation import (
    TRACE_K_CUT,
    SimConfig,
    _correlation,
    _pareto,
    _student_t,
    empirical_moments,
    run_experiment,
    run_replicate,
    trace_moments,
)
from oracles import (
    expected_m2,
    expected_m3,
    reference_correlation,
    sample,
    self_normalized_fourth_moment,
)


def assert_same_moments(report, expected):
    """Each replicate's moments and the mean and std moments agree bit for bit.

    moments.csv and summary.json print these in 17 digits, which round-trip a
    float64, so equal arrays are equal files.
    """
    assert np.array_equal(report.moments, expected.moments)
    assert np.array_equal(report.mean_moments, expected.mean_moments)
    assert np.array_equal(report.std_moments, expected.std_moments)


def test_sample_matrix_deterministic():
    a = sample(2, 3, "gaussian", seed=42)
    b = sample(2, 3, "gaussian", seed=42)
    assert np.array_equal(a, b)
    c = sample(2, 3, "gaussian", seed=43)
    assert not np.array_equal(a, c)


def test_sample_matrix_replicates_differ():
    a = sample(2, 3, "t", seed=1, alpha=1.0, replicate=0)
    b = sample(2, 3, "t", seed=1, alpha=1.0, replicate=1)
    assert not np.array_equal(a, b)


def test_sample_matrix_validation():
    # the sampler takes its arguments from a SimConfig, which checks them
    base = dict(p=2, n=3, k_max=2, replicates=1, seed=1)
    for bad in (
        dict(dist="gaussian", alpha=None, p=0),
        dict(dist="cauchy", alpha=1.0),
        dict(dist="t", alpha=2.5),
        dict(dist="pareto", alpha=None),
    ):
        with pytest.raises(ValueError):
            SimConfig(**{**base, **bad})


def test_cauchy_tail_probability():
    # t(1) is Cauchy: P(|X| > 10) = 2 arctan(1/10) / pi ~ 2/(10 pi)
    draws = sample(1, 10**6, "t", seed=7, alpha=1.0)[0]
    empirical = np.mean(np.abs(draws) > 10)
    expected = 2 / np.pi * np.arctan(1 / 10)
    assert abs(empirical - expected) / expected < 0.05


def test_pareto_symmetry():
    draws = sample(1, 200_000, "pareto", seed=11, alpha=0.5)[0]
    assert np.all(np.abs(draws) >= 1.0)
    # median of the symmetrized law is 0; sign frequency is binomial(1/2)
    frac_positive = np.mean(draws > 0)
    assert abs(frac_positive - 0.5) < 3 * 0.5 / np.sqrt(draws.size)


def _ks_distance(a, b, chunk=10**6):
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|.

    The supremum is attained at a sample point, so both empirical CDFs are
    compared at the points of a, then of b, ``chunk`` points at a time.
    """
    a, b = np.sort(a, axis=None), np.sort(b, axis=None)
    distance = 0.0
    for points in (a, b):
        for start in range(0, points.size, chunk):
            grid = points[start : start + chunk]
            fa = np.searchsorted(a, grid, side="right") / a.size
            fb = np.searchsorted(b, grid, side="right") / b.size
            distance = max(distance, np.max(np.abs(fa - fb)))
    return distance


def _assert_matches_standard_t(draws, alpha):
    reference = np.random.default_rng(987_654).standard_t(alpha, draws.size)
    assert np.all(np.isfinite(draws))
    # two-sample KS critical value at level 0.001 is 1.95 sqrt(2 / size)
    assert _ks_distance(draws, reference) < 1.95 * np.sqrt(2 / draws.size)


@pytest.mark.parametrize("alpha", [0.05, 0.3, 1.0, 1.7, 1.99])
def test_t_sampler_matches_standard_t(alpha):
    _assert_matches_standard_t(sample(1, 50_000, "t", seed=21, alpha=alpha), alpha)


def test_t_sampler_ragged_last_block():
    # two panels, one column apart in width, each with a last row block of
    # one row, so a row or column the block and panel loops skipped or filled
    # twice would show as a step in the pooled CDF
    p, n = simulation._T_BLOCK_ROWS + 1, simulation._PANEL_COLUMNS + 1
    _assert_matches_standard_t(sample(p, n, "t", seed=22, alpha=0.8), 0.8)


# 10^7 draws per alpha and their KS test take about 11 s
@pytest.mark.slow
def test_t_sampler_large_sample_oracle():
    shape = (1000, 10**4)
    for alpha in (0.3, 1.0, 1.7):
        draws = sample(*shape, "t", seed=31, alpha=alpha)
        _assert_matches_standard_t(draws, alpha)
        if alpha == 1.0:
            # t(1) is Cauchy: P(|X| > c) = 2 arctan(1/c) / pi
            magnitudes = np.abs(draws)
            for c in (10.0, 100.0, 1000.0):
                expected = 2 / np.pi * np.arctan(1 / c)
                se = np.sqrt(expected * (1 - expected) / magnitudes.size)
                assert abs(np.mean(magnitudes > c) - expected) < 4 * se
        del draws


def _replicate_peak_bytes(p, n):
    config = SimConfig(p=p, n=n, dist="t", alpha=1.0, k_max=4, replicates=1, seed=9)
    tracemalloc.start()
    try:
        run_replicate(config, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_replicate_peak_memory_does_not_grow_with_n():
    # a moments-only replicate holds one p x w panel, one scratch row block
    # of the t sampler and a few p x p matrices, never its p x n sample; the
    # first call also counts numpy's one-off allocations, so it is left out
    w = simulation._PANEL_COLUMNS
    p, n = 4 * simulation._T_BLOCK_ROWS + 3, 16 * w
    panel_bytes = p * w * 8
    block_bytes = simulation._T_BLOCK_ROWS * w * 8
    _replicate_peak_bytes(p, n // 4)
    peak = _replicate_peak_bytes(p, n)
    assert peak < panel_bytes + 2 * block_bytes + 4 * p * p * 8 < p * n * 8 / 8
    assert peak <= 1.1 * _replicate_peak_bytes(p, n // 2)


def test_pareto_tail_law():
    alpha = 0.7
    magnitudes = np.abs(sample(1, 200_000, "pareto", seed=5, alpha=alpha)[0])
    assert np.all(np.isfinite(magnitudes))
    for x in (1.5, 4.0, 30.0, 500.0):
        expected = x**-alpha  # P(|X| > x)
        se = np.sqrt(expected * (1 - expected) / magnitudes.size)
        assert abs(np.mean(magnitudes > x) - expected) < 4 * se


class _FixedUniforms:
    """A generator whose calls to ``random`` return the given values in turn, cyclically."""

    def __init__(self, *values):
        self._values = values
        self._calls = 0
        self._rng = np.random.default_rng(0)

    def random(self, shape=None, out=None):
        value = self._values[self._calls % len(self._values)]
        self._calls += 1
        if out is None:
            return np.full(shape, value)
        out[...] = value
        return out

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)


class _ZeroUniforms(_FixedUniforms):
    """A generator whose uniforms all land on 0, the closed end of [0, 1)."""

    def __init__(self):
        super().__init__(0.0)


def test_pareto_zero_uniform_gives_finite_draw():
    draws = _pareto(_ZeroUniforms(), 0.5, np.empty((3, 4)))
    assert np.array_equal(np.abs(draws), np.ones((3, 4)))


def test_t_zero_uniform_gives_finite_draw():
    # W = 1 - 0 = 1 gives W^(-2/alpha) - 1 = 0, so the draw is 0 whatever the angle
    draws = _student_t(_ZeroUniforms(), 0.5, np.empty((simulation._T_BLOCK_ROWS + 2, 4)))
    assert np.array_equal(draws, np.zeros_like(draws))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_t_overflow_at_zero_angle_is_nan_and_caught():
    # W = 2^-53 overflows W^(-100) at alpha=0.02, and a uniform of 1/2 is the
    # angle phi = 0: inf * tan(0) is NaN, which the row-norm check rejects
    tiny_w = _FixedUniforms(1.0 - 2.0**-53, 0.5)
    draws = _student_t(tiny_w, 0.02, np.empty((2, 3)))
    assert np.all(np.isnan(draws))
    with pytest.raises(ArithmeticError, match="row 0 has squared norm nan"):
        _correlation(2, [draws])


def test_correlation_matrix_overflow_names_row():
    with pytest.raises(ArithmeticError, match="row 1"):
        _correlation(2, [np.array([[1.0, 2.0], [1e200, 1.0]])])
    # an overflow in a later panel survives the sum of the panel products
    with pytest.raises(ArithmeticError, match="row 1 has squared norm inf"):
        _correlation(2, [np.ones((2, 3)), np.array([[1.0], [1e200]])])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflow_in_a_multi_panel_replicate_names_row_and_alpha():
    # alpha=0.02 Pareto entries reach 1e154 and beyond, so squared row norms overflow
    n = 3 * simulation._PANEL_COLUMNS + 1
    config = SimConfig(p=5, n=n, dist="pareto", alpha=0.02, k_max=3, replicates=1, seed=3)
    with pytest.raises(ArithmeticError, match=r"pareto draws with alpha=0\.02, replicate 0: row \d+"):
        run_replicate(config, 0)


@pytest.mark.parametrize("dist, alpha", [("t", 1.0), ("pareto", 0.5), ("gaussian", None)])
def test_streamed_replicate_matches_the_sample_matrix_oracle(dist, alpha):
    # three panels of uneven width; the oracle normalizes the rows of the
    # whole p x n sample and forms R in one product, the replicate sums
    # three panel products and then scales them
    p, n = 30, 2 * simulation._PANEL_COLUMNS + 3
    widths = [panel.shape[1] for panel in simulation._panels(p, n, dist, alpha, 4, 2)]
    assert widths == [n // 3 + 1] * (n % 3) + [n // 3] * (3 - n % 3)
    oracle = reference_correlation(sample(p, n, dist, seed=4, alpha=alpha, replicate=2))
    corr = _correlation(p, simulation._panels(p, n, dist, alpha, 4, 2))
    assert np.array_equal(corr, corr.T)
    assert np.array_equal(np.diag(corr), np.ones(p))
    assert np.allclose(corr, oracle, rtol=1e-12, atol=1e-15)
    for k_max in (TRACE_K_CUT - 1, TRACE_K_CUT):
        config = SimConfig(p=p, n=n, dist=dist, alpha=alpha, k_max=k_max, replicates=1, seed=4)
        expected = empirical_moments(np.linalg.eigvalsh(oracle), k_max)
        moments, _eigenvalues = run_replicate(config, 2)
        assert np.allclose(moments, expected, rtol=1e-12, atol=0)


def test_reference_correlation_is_the_matrix_of_row_cosines():
    # each sample is drawn in three panels and copied side by side; the
    # cosines are summed with one rounding each
    p, n = 4, 2 * simulation._PANEL_COLUMNS + 3
    for dist, alpha in (("t", 1.0), ("pareto", 0.5), ("gaussian", None)):
        data = sample(p, n, dist, seed=6, alpha=alpha)
        cosines = [
            [math.fsum(x * y) / math.sqrt(math.fsum(x * x) * math.fsum(y * y)) for y in data]
            for x in data
        ]
        assert np.allclose(reference_correlation(data), cosines, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("p, n", [(40, 200), (30, 10)])
def test_trace_moments_match_spectrum(p, n):
    corr = _correlation(p, simulation._panels(p, n, "t", 1.0, 8, 0))
    spectrum = np.linalg.eigvalsh(corr)
    for k_max in range(1, TRACE_K_CUT):
        expected = empirical_moments(spectrum, k_max)
        assert np.allclose(trace_moments(corr, k_max), expected, rtol=1e-12, atol=0)
    # from the cut on the engine takes the moments from the spectrum
    with pytest.raises(ValueError, match=f"1 <= k_max < {TRACE_K_CUT}, got {TRACE_K_CUT}"):
        trace_moments(corr, TRACE_K_CUT)


def test_eigenvalues_kept_exactly_when_needed():
    base = dict(p=20, n=60, dist="t", alpha=1.0, replicates=1, seed=3)
    spectrum = np.linalg.eigvalsh(_correlation(20, simulation._panels(20, 60, "t", 1.0, 3, 0)))
    trace_moments_only, no_spectrum = run_replicate(SimConfig(**base, k_max=TRACE_K_CUT - 1), 0)
    assert no_spectrum is None
    for extra in (dict(k_max=4, spectrum=True), dict(k_max=TRACE_K_CUT)):
        moments, eigenvalues = run_replicate(SimConfig(**base, **extra), 0)
        assert np.array_equal(eigenvalues, spectrum)
        shared = min(moments.size, trace_moments_only.size)
        assert np.allclose(moments[:shared], trace_moments_only[:shared], rtol=1e-12, atol=0)


def test_correlation_matrix_unit_diagonal():
    # exactly symmetric with an exactly unit diagonal, for every sampler
    for dist, alpha in (("t", 1.0), ("pareto", 0.5), ("gaussian", None)):
        corr = _correlation(60, simulation._panels(60, 300, dist, alpha, 3, 0))
        assert np.array_equal(corr, corr.T)
        assert np.array_equal(np.diag(corr), np.ones(60))


def test_correlation_matrix_orthogonal_rows():
    corr = _correlation(2, [np.array([[1.0, 0.0], [0.0, 1.0]])])
    assert np.allclose(corr, np.eye(2))


def test_correlation_matrix_p1():
    assert np.allclose(_correlation(1, [np.array([[3.0, 4.0]])]), [[1.0]])


def test_correlation_refuses_a_panel_of_another_row_count():
    # the rank-k update would otherwise write past a Gram smaller than the panel
    with pytest.raises(ValueError, match="a 3-row panel cannot update a 2-row Gram"):
        _correlation(2, [np.ones((2, 4)), np.ones((3, 4))])


def test_correlation_matrix_zero_row():
    with pytest.raises(ValueError, match="row 1"):
        _correlation(2, [np.array([[1.0, 2.0], [0.0, 0.0]])])


def _numpy_formula(x):
    """R as numpy forms it: X X' divided by the norms' outer product, with a unit diagonal."""
    gram = x @ x.T
    norms = np.sqrt(np.diag(gram))
    corr = gram / np.outer(norms, norms)
    np.fill_diagonal(corr, 1.0)
    return corr


@pytest.mark.parametrize("p", [1, 2, 64, 133])
def test_one_panel_correlation_is_numpys_formula_bit_for_bit(p):
    # numpy forms X X' by the same dsyrk call, so a one-panel run's outputs
    # do not move when the Gram is accumulated in place
    for dist, alpha in (("t", 1.0), ("pareto", 0.5), ("gaussian", None)):
        (panel,) = simulation._panels(p, 300, dist, alpha, 5, 1)
        assert np.array_equal(_correlation(p, [panel]), _numpy_formula(panel))


def test_three_panel_correlation_is_symmetric_with_unit_diagonal():
    # three panels accumulate into the upper triangle, and the row pass
    # scales it and mirrors it into the lower one
    p, n = 131, 2 * simulation._PANEL_COLUMNS + 3
    corr = _correlation(p, simulation._panels(p, n, "t", 1.0, 7, 0))
    assert np.array_equal(corr, corr.T)
    assert np.array_equal(np.diag(corr), np.ones(p))
    oracle = reference_correlation(sample(p, n, "t", seed=7, alpha=1.0))
    assert np.allclose(corr, oracle, rtol=1e-12, atol=1e-15)


def test_correlation_takes_any_panel_layout():
    # Fortran-ordered, strided and integer panels are copied to C order
    # before the rank-k update; a float panel already in C order is not
    rng = np.random.default_rng(12)
    p = 129
    data = rng.integers(-9, 10, size=(p, 30))
    wide = rng.standard_normal((p, 40))
    panels = [np.asfortranarray(data[:, :10].astype(float)), wide[:, ::2], data[:, 10:]]
    corr = _correlation(p, panels)
    oracle = reference_correlation(np.hstack([data[:, :10], wide[:, ::2], data[:, 10:]]))
    assert np.array_equal(corr, corr.T)
    assert np.array_equal(np.diag(corr), np.ones(p))
    assert np.allclose(corr, oracle, rtol=1e-12, atol=1e-15)
    for panel in panels:
        assert np.array_equal(_correlation(p, [panel]), _correlation(p, [panel.astype(float, order="C")]))
    assert np.array_equal(_correlation(1, [np.array([[3, 4]]), np.array([[0.5]])]), [[1.0]])


def test_correlation_peak_memory_is_the_gram_and_a_few_rows():
    # the panel products add into the Gram in place, with no spare p x p
    # buffer beside it, and scaling and mirroring row by row adds a few
    # p-vectors: 1.016 of a p x p matrix at p=300
    _dsyrk_or_skip()
    p = 300
    panels = [np.random.default_rng(j).standard_normal((p, 200)) for j in range(3)]
    _correlation(p, panels)  # numpy's one-off allocations are left out
    tracemalloc.start()
    try:
        _correlation(p, panels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * p * p * 8


def test_correlation_without_dsyrk_falls_back_to_numpys_product(monkeypatch):
    # one panel: the fallback's moments are the rank-k update's bit for bit;
    # three panels: the sums round differently, within 1e-12
    p, three_panels = 20, 2 * simulation._PANEL_COLUMNS + 3
    base = dict(p=p, dist="t", alpha=1.0, k_max=4, replicates=2, seed=15)
    with_dsyrk, _ = run_replicate(SimConfig(**base, n=three_panels), 1)
    one_panel = run_experiment(SimConfig(**base, n=300))
    monkeypatch.setattr(simulation, "_blas_dsyrk", lambda: None)
    assert_same_moments(run_experiment(SimConfig(**base, n=300)), one_panel)
    fallback, _ = run_replicate(SimConfig(**base, n=three_panels), 1)
    assert np.allclose(fallback, with_dsyrk, rtol=1e-12, atol=0)
    corr = _correlation(p, simulation._panels(p, three_panels, "t", 1.0, 15, 1))
    assert np.array_equal(corr, corr.T)
    assert np.array_equal(np.diag(corr), np.ones(p))
    oracle = reference_correlation(sample(p, three_panels, "t", seed=15, alpha=1.0, replicate=1))
    assert np.allclose(corr, oracle, rtol=1e-12, atol=1e-15)


def test_empirical_moments_basic():
    vals = np.array([1.0, 2.0, 3.0])
    m = empirical_moments(vals, 3)
    assert np.allclose(m, [2.0, 14 / 3, 12.0])


def test_esd_histogram_normalized(tmp_path):
    # the spectrum of R lies in [0, p], inside [lo, hi], so the pooled
    # histogram integrates to 1 and each bin holds a whole number of the
    # p * replicates eigenvalues
    p, replicates = 10, 3
    assert cli.main(["simulate", "--p", str(p), "--n", "30", "--dist", "t", "--alpha", "1",
                     "--k", "2", "--replicates", str(replicates), "--seed", "4",
                     "--hist", "20:-1:11", "--out", str(tmp_path)]) == 0
    rows = np.loadtxt(tmp_path / "hist.csv", delimiter=",", skiprows=1)
    assert rows.shape == (20, 3)
    mass = rows[:, 2] * (rows[:, 1] - rows[:, 0])
    assert np.sum(mass) == pytest.approx(1.0)
    counts = mass * p * replicates
    assert np.allclose(counts, np.round(counts), rtol=0, atol=1e-9)


def test_replicate_invariants():
    config = SimConfig(
        p=40, n=200, dist="t", alpha=1.0, k_max=4, replicates=1, seed=5, spectrum=True
    )
    moments, eigenvalues = run_replicate(config, 0)
    assert abs(eigenvalues.sum() - config.p) <= 1e-6 * config.p
    assert moments[0] == pytest.approx(1.0, abs=1e-8)
    assert eigenvalues.min() >= -1e-8 * np.abs(eigenvalues).max()


def test_p_larger_than_n_gives_zero_mass():
    # rank of R is at most n, so at least p - n eigenvalues vanish
    config = SimConfig(
        p=30, n=10, dist="gaussian", alpha=None, k_max=2, replicates=1, seed=9, spectrum=True
    )
    _moments, eigenvalues = run_replicate(config, 0)
    assert np.sum(np.abs(eigenvalues) < 1e-10) >= config.p - config.n


def test_run_experiment_deterministic_across_threads():
    # one panel, then three
    for n in (60, 2 * simulation._PANEL_COLUMNS + 3):
        base = dict(p=20, n=n, dist="t", alpha=1.0, k_max=3, replicates=6, seed=123)
        r1 = run_experiment(SimConfig(**base, threads=1))
        assert_same_moments(run_experiment(SimConfig(**base, threads=3)), r1)


def test_report_row_j_is_replicate_j():
    # on 3 threads replicates may finish out of order; the report stacks them in
    # replicate order, bit for bit as run_replicate gives them
    base = dict(p=20, n=60, dist="pareto", alpha=0.7, k_max=4, replicates=5, seed=11)
    config = SimConfig(**base, threads=3, spectrum=True)
    report = run_experiment(config)
    assert report.moments.shape == (5, 4) and report.spectra.shape == (5, 20)
    for j in range(5):
        moments, eigenvalues = run_replicate(config, j)
        assert np.array_equal(report.moments[j], moments)
        assert np.array_equal(report.spectra[j], eigenvalues)
    assert run_experiment(SimConfig(**base, threads=3)).spectra is None


@pytest.mark.parametrize("replicates, expected", [(5, 3), (2, 2)])
def test_run_experiment_default_threads_are_the_usable_cores(monkeypatch, replicates, expected):
    monkeypatch.setattr(simulation, "_usable_cores", lambda: 3)
    pool_sizes = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pool_sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(simulation, "ThreadPoolExecutor", RecordingPool)
    base = dict(p=20, n=60, dist="t", alpha=1.0, k_max=6, replicates=replicates, seed=8)
    default = run_experiment(SimConfig(**base))
    assert_same_moments(run_experiment(SimConfig(**base, threads=1)), default)
    assert pool_sizes == [expected, 1]


def _blas_threads():
    """The process's OpenBLAS thread count, read by setting it and setting it back."""
    setter = simulation._blas_thread_setter()
    count = setter(1)
    setter(count)
    return count


def _numpy_bundled_openblas():
    """numpy's build record of the OpenBLAS it says it bundles, or None for another BLAS."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return blas if blas.get("name") == "scipy-openblas" else None


def _numpy_bundled_openblas_version():
    """The version of the OpenBLAS numpy says it bundles, or None for another BLAS."""
    blas = _numpy_bundled_openblas()
    if blas is None:
        return None
    return tuple(int(part) for part in blas["version"].split(".")[:3])


def _blas_setter_or_skip():
    """The BLAS setter; a test skips only when numpy bundles no OpenBLAS >= 0.3.27."""
    setter = simulation._blas_thread_setter()
    if setter is None:
        version = _numpy_bundled_openblas_version()
        if version is not None and version >= (0, 3, 27):
            pytest.fail(f"numpy bundles OpenBLAS {version} but no setter was found")
        pytest.skip("numpy's BLAS exports no openblas_set_num_threads_local")
    return setter


def _dsyrk_or_skip():
    """Skip the test without the bundled dsyrk, unless numpy bundles a 64-bit-integer OpenBLAS."""
    if simulation._blas_dsyrk() is None:
        blas = _numpy_bundled_openblas()
        if blas is not None and "USE64BITINT" in blas.get("openblas configuration", ""):
            pytest.fail(f"numpy bundles 64-bit-integer OpenBLAS {blas['version']} but no dsyrk")
        pytest.skip("numpy's BLAS exports no scipy_cblas_dsyrk64_")


def test_dsyrk_is_found_and_updates_the_upper_triangle_only():
    # small integer entries make every sum exact; a wrong integer width in
    # the call's signature would misread the sizes and strides
    _dsyrk_or_skip()
    a = np.arange(-6.0, 9.0).reshape(3, 5)
    b = np.arange(12.0).reshape(3, 4)
    upper, lower = np.triu_indices(3), np.tril_indices(3, -1)
    gram = np.zeros((3, 3))
    gram[lower] = np.nan
    simulation._add_panel_product(gram, a)
    assert np.array_equal(gram[upper], (a @ a.T)[upper])
    simulation._add_panel_product(gram, b)
    assert np.array_equal(gram[upper], (a @ a.T + b @ b.T)[upper])
    assert np.all(np.isnan(gram[lower]))


@pytest.fixture
def blas_two_threads():
    """OpenBLAS set to 2 threads for the test, and back to its count afterwards."""
    setter = _blas_setter_or_skip()
    previous = setter(2)
    yield
    setter(previous)


def _record_blas_threads(monkeypatch):
    seen = []
    run_replicate_unpatched = simulation.run_replicate

    def recording(config, replicate):
        seen.append(_blas_threads())
        return run_replicate_unpatched(config, replicate)

    monkeypatch.setattr(simulation, "run_replicate", recording)
    return seen


def test_moments_only_run_pins_blas_and_restores_it(blas_two_threads, monkeypatch):
    seen = _record_blas_threads(monkeypatch)
    base = dict(p=20, n=60, dist="t", alpha=1.0, k_max=4, replicates=2, seed=6)
    assert not SimConfig(**base).needs_spectrum
    run_experiment(SimConfig(**base))
    assert seen == [1, 1]
    assert _blas_threads() == 2
    overflow = SimConfig(p=50, n=2000, dist="pareto", alpha=0.02, k_max=3, replicates=2, seed=3)
    with pytest.raises(ArithmeticError, match="alpha=0.02"):
        run_experiment(overflow)
    assert _blas_threads() == 2


def test_spectrum_run_pins_blas_and_restores_it(blas_two_threads, monkeypatch):
    seen = _record_blas_threads(monkeypatch)
    base = dict(p=20, n=60, dist="t", alpha=1.0, replicates=1, seed=6)
    for extra in (dict(k_max=4, spectrum=True), dict(k_max=TRACE_K_CUT)):
        config = SimConfig(**base, **extra)
        assert config.needs_spectrum
        run_experiment(config)
        assert _blas_threads() == 2
    assert seen == [1, 1]


def test_spectrum_run_independent_of_the_blas_thread_count():
    # at p=400 a spectrum on 2 OpenBLAS threads differs in its last bits from one on 1
    setter = _blas_setter_or_skip()
    config = SimConfig(p=400, n=1250, dist="pareto", alpha=0.5, k_max=9, replicates=1, seed=1,
                       spectrum=True)
    reports = []
    for count in (1, 2):
        previous = setter(count)
        try:
            reports.append(run_experiment(config))
        finally:
            setter(previous)
    assert_same_moments(*reports)
    assert np.array_equal(reports[0].spectra, reports[1].spectra)


def test_run_without_blas_setter_matches_pinned_run(monkeypatch):
    # without the setter the run is unpinned, so BLAS is set to 1 thread by
    # hand, as OPENBLAS_NUM_THREADS=1 would, to compare bits
    setter = _blas_setter_or_skip()
    base = dict(p=100, n=500, dist="t", alpha=1.0, k_max=8, replicates=2, seed=2)
    pinned = run_experiment(SimConfig(**base))
    monkeypatch.setattr(simulation, "_blas_thread_setter", lambda: None)
    previous = setter(1)
    try:
        unpinned = run_experiment(SimConfig(**base, threads=2))
    finally:
        setter(previous)
    assert_same_moments(unpinned, pinned)
    spectrum = run_experiment(SimConfig(**{**base, "k_max": TRACE_K_CUT, "replicates": 1}))
    assert spectrum.spectra.shape == (1, base["p"])


def test_run_experiment_outputs(tmp_path):
    assert cli.main(["simulate", "--p", "10", "--n", "30", "--dist", "gaussian", "--k", "3",
                     "--replicates", "4", "--seed", "1", "--hist", "10:0:3",
                     "--save-eigenvalues", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "moments.csv").exists()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["replicates"] == 4
    assert len(summary["mean_moments"]) == 3
    for j in range(4):
        assert (tmp_path / f"eigenvalues_{j}.csv").exists()
    assert (tmp_path / "hist.csv").exists()


@pytest.mark.parametrize("dist,alpha", [("gaussian", None), ("t", 1.0), ("pareto", 0.7)])
def test_finite_n_moment_expectations(dist, alpha):
    # E m_2 and E m_3 are exact at finite (p, n) for any iid symmetric law, so
    # unlike the n -> infinity limits they carry no finite-size bias
    p, n = 50, 200
    report = run_experiment(
        SimConfig(p=p, n=n, dist=dist, alpha=alpha, k_max=3, replicates=2000, seed=11, threads=2)
    )
    stderr = report.stderr_moments()
    for k, expected in ((2, expected_m2(p, n)), (3, expected_m3(p, n))):
        z = (report.mean_moments[k - 1] - float(expected)) / stderr[k - 1]
        assert abs(z) < 4, (k, z)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(p=0, n=5, dist="gaussian", alpha=None, k_max=2, replicates=1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(p=5, n=5, dist="t", alpha=None, k_max=2, replicates=1, seed=0)
    with pytest.raises(ValueError, match="gaussian sampling takes no alpha"):
        SimConfig(p=5, n=5, dist="gaussian", alpha=7.0, k_max=2, replicates=1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(p=5, n=5, dist="gaussian", alpha=None, k_max=0, replicates=1, seed=0)
    with pytest.raises(ValueError, match=r"^replicates must be >= 1, got 0$"):
        SimConfig(p=5, n=5, dist="gaussian", alpha=None, k_max=2, replicates=0, seed=0)
    assert SimConfig(p=5, n=5, dist="gaussian", alpha=None, k_max=2, replicates=1, seed=0,
                     threads=None).threads is None
    with pytest.raises(ValueError, match="threads"):
        SimConfig(p=5, n=5, dist="gaussian", alpha=None, k_max=2, replicates=1, seed=0, threads=0)
    # SeedSequence takes no negative entropy
    with pytest.raises(ValueError, match=r"seed must be >= 0, got -1$"):
        SimConfig(p=5, n=5, dist="gaussian", alpha=None, k_max=2, replicates=1, seed=-1)


def test_gaussian_fourth_moment_decays():
    # E[Y^4] = 3 / (n (n + 2)) on the sphere, so n E[Y^4] ~ 3/n -> 0
    values = []
    for n in (200, 800):
        x = sample(4000, n, "gaussian", seed=2)
        y2 = x**2 / (x**2).sum(axis=1, keepdims=True)
        values.append((y2**2).sum(axis=1).mean())
    assert values[0] == pytest.approx(3 / 202, rel=0.1)
    assert values[1] == pytest.approx(3 / 802, rel=0.1)
    assert values[1] < values[0]


def test_self_normalized_fourth_moment_small():
    # quick version of the tail-index law n E[Y^4] -> 1 - alpha/2, on the
    # engine's Pareto sampler
    for alpha in (0.5, 1.5):
        est = self_normalized_fourth_moment(alpha, n=2000, rows=4000, seed=17)
        assert est == pytest.approx(1 - alpha / 2, rel=0.1)


def test_self_normalized_fourth_moment_zero_uniform_is_finite(monkeypatch):
    monkeypatch.setattr(simulation, "_replicate_rng", lambda seed, replicate: _ZeroUniforms())
    # every X^2 is 1, so each row of n entries has sum Y^4 = n / n^2
    assert self_normalized_fourth_moment(0.5, n=8, rows=3, seed=0) == pytest.approx(1 / 8)
