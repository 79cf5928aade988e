"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Criterion 6's paper-scale run (p=1000, n=5000, L=1000) takes minutes and is
excluded from the default run; enable it with ``-m slow`` or by setting
``HEAVYMP_FULL_SCALE=1``.
"""

import json
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from heavymp import combinatorics, delta_graphs, moments, paths, simulation
from heavymp.cli import main
import oracles


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_exact_moment_golden_values():
    start = time.perf_counter()
    golden_mu = {2: 1.2, 3: 1.64, 4: 2.4980, 5: 4.1816}
    mu_ok = all(
        abs(moments.heavy_mp_moment(1.0, 0.2, k) - v) < 5e-4 for k, v in golden_mu.items()
    )
    golden_beta = {
        2: Fraction(6, 5),
        3: Fraction(41, 25),
        4: Fraction(306, 125),
        5: Fraction(2426, 625),
    }
    beta_ok = all(
        moments.mp_moment_exact(Fraction(1, 5), k) == v for k, v in golden_beta.items()
    )
    elapsed = time.perf_counter() - start
    _report(
        "1 exact moment golden values",
        mu_ok and beta_ok and elapsed < 1.0,
        f"mu_ok={mu_ok} beta_ok={beta_ok} elapsed={elapsed:.2f}s",
    )


def test_criterion_2_closed_form_gaps():
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for alpha in (0.25, 0.5, 1.0, 1.5, 1.9):
        for gamma in (0.1, 0.2, 0.5, 1.0, 2.0):
            c = (1 - alpha / 2) ** 2
            g4 = moments.heavy_tail_gap(alpha, gamma, 4)
            g5 = moments.heavy_tail_gap(alpha, gamma, 5)
            e4 = abs(g4 - c * gamma) / (c * gamma)
            e5 = abs(g5 - c * (5 * gamma + 5 * gamma**2)) / (c * (5 * gamma + 5 * gamma**2))
            worst = max(worst, e4, e5)
            ok = ok and e4 < 1e-8 and e5 < 1e-8
    elapsed = time.perf_counter() - start
    _report(
        "2 closed-form gaps k=4,5",
        ok and elapsed < 5.0,
        f"worst_rel_err={worst:.2e} elapsed={elapsed:.2f}s",
    )


def test_criterion_3_worked_combinatorial_examples():
    start = time.perf_counter()
    ps1 = paths.shorten((1, 1, 2, 2))
    ps2 = paths.shorten((1, 2, 1, 2, 3, 3))
    ok = (ps1.shortened, ps1.runs, ps1.simples) == ((), 2, 2)
    ok = ok and (ps2.shortened, ps2.runs, ps2.simples) == ((1, 2, 1, 2), 1, 1)

    levels9 = delta_graphs.contributing_sets((1, 2, 1, 2, 3, 4, 3, 4, 3))
    ok = ok and levels9[1] == ((1, 1, 1, 1, 2, 2, 2, 2, 1),)

    level2_empty_k7 = all(
        len(delta_graphs.contributing_sets(i_path)) == 1
        for k in range(4, 8)
        for r in range(2, k // 2 + 1)
        for i_path in paths.enumerate_class(k, r, paths.PathClass.IRREDUCIBLE)
    )
    ok = ok and level2_empty_k7

    ok = ok and set(oracles.enumerate_simples(5, 2, 0)) == {
        (1, 1, 2, 1, 2),
        (1, 2, 1, 1, 2),
        (1, 2, 1, 2, 1),
        (1, 2, 2, 1, 2),
        (1, 2, 1, 2, 2),
    }
    ok = ok and set(oracles.enumerate_simples(5, 3, 1)) == {
        (1, 2, 3, 1, 2),
        (1, 2, 1, 3, 2),
        (1, 2, 1, 2, 3),
        (1, 2, 3, 1, 3),
        (1, 2, 3, 2, 3),
    }
    elapsed = time.perf_counter() - start
    _report("3 worked combinatorial examples", ok and elapsed < 30.0, f"elapsed={elapsed:.2f}s")


@pytest.mark.xfail(
    strict=True,
    reason="level 2 is claimed empty for every irreducible path of length <= 8, "
    "but exhaustive enumeration finds six length-8 counterexamples, e.g. "
    "(1,2,1,2,1,3,1,3) with column path (1,1,1,1,2,2,2,2)",
)
def test_criterion_3_level_two_empty_up_to_length_8():
    empty = all(
        len(delta_graphs.contributing_sets(i_path)) == 1
        for k in range(4, 9)
        for r in range(2, k // 2 + 1)
        for i_path in paths.enumerate_class(k, r, paths.PathClass.IRREDUCIBLE)
    )
    _report("3 level-2 emptiness for |I| <= 8 as stated", empty)


def test_criterion_4_counting_oracle_equivalence():
    start = time.perf_counter()
    ok = True
    for k in range(1, 9):
        for r in range(1, k + 1):
            stream = list(paths.enumerate_canonical_paths(k, r))
            ok = ok and len(stream) == combinatorics.stirling2(k, r)
            classes = [paths.classify(p) for p in stream]
            ok = ok and classes.count(paths.PathClass.COMPLETELY_REDUCIBLE) == (
                combinatorics.count_c0(k, r)
            )
            ok = ok and classes.count(paths.PathClass.IRREDUCIBLE) == (
                combinatorics.count_irreducible(k, r)
            )
            no_simple = sum(
                1
                for p in stream
                if oracles.path_to_partition(p).min_block_size() >= 2
            )
            ok = ok and no_simple == combinatorics.stirling2_assoc(k, r)
    elapsed = time.perf_counter() - start
    _report("4 counting oracle equivalence k<=8", ok and elapsed < 60.0, f"elapsed={elapsed:.2f}s")


def test_criterion_5_boundary_limits():
    ok = True
    for gamma in (0.2, 1.0):
        for k in range(1, 7):
            near0 = moments.heavy_mp_moment(1e-6, gamma, k)
            ok = ok and abs(near0 - moments.boundary_moment_alpha0(gamma, k)) < 1e-4
            gap_hi = moments.heavy_tail_gap(1.999, gamma, k)
            ok = ok and gap_hi < 1e-2
            if k >= 4:
                ok = ok and gap_hi < moments.heavy_tail_gap(1.9, gamma, k)
    law = moments.boundary_modified_poisson(1.0)
    e1 = float(np.exp(-1))
    ok = ok and abs(law.pmf(0) - e1) < 1e-12 and abs(law.pmf(1) - e1) < 1e-12
    _report("5 boundary limits", ok)


def _mc_vs_exact(dist: str, alpha: float | None, targets: list[float], seed: int) -> tuple[bool, str]:
    config = simulation.SimConfig(
        p=500, n=2500, dist=dist, alpha=alpha, k_max=5, replicates=50, seed=seed, threads=2
    )
    report = simulation.run_experiment(config)
    stderr = report.stderr_moments()
    zs = [
        (report.mean_moments[k - 1] - targets[k - 1]) / stderr[k - 1]
        for k in range(2, 6)
    ]
    ok = all(abs(z) < 3 for z in zs)
    return ok, "z=" + ",".join(f"{z:+.2f}" for z in zs)


def test_criterion_6_monte_carlo_desk_scale():
    mu = [moments.heavy_mp_moment(1.0, 0.2, k) for k in range(1, 6)]
    heavy_ok, heavy_z = _mc_vs_exact("t", 1.0, mu, seed=2026)
    _report("6 Monte Carlo desk scale, t(1)", heavy_ok, heavy_z)


@pytest.mark.xfail(
    strict=True,
    reason="the gaussian control carries a deterministic finite-size bias "
    "(E[m2] = 1 + (p-1)/n exactly, i.e. beta_2 - 1/n) worth about -3.7 standard "
    "errors at p=500, n=2500, L=50, with a spread of about 1 SE over RNG streams, "
    "so a 3-SE band around the n->infinity limit fails on this seed's stream and "
    "holds only on some others; the empirical means do match the finite-n "
    "expectations",
)
def test_criterion_6_gaussian_control():
    beta = [moments.mp_moment(0.2, k) for k in range(1, 6)]
    gauss_ok, gauss_z = _mc_vs_exact("gaussian", None, beta, seed=2026)
    _report("6 Monte Carlo desk scale, gaussian control", gauss_ok, gauss_z)


@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("HEAVYMP_FULL_SCALE"),
    reason="paper-scale run takes minutes; set HEAVYMP_FULL_SCALE=1",
)
def test_criterion_6_monte_carlo_full_scale():
    config = simulation.SimConfig(
        p=1000, n=5000, dist="t", alpha=1.0, k_max=5, replicates=1000, seed=2026, threads=4
    )
    report = simulation.run_experiment(config)
    reference = (1.1996, 1.6389, 2.4956, 4.1774)
    rel = [
        abs(report.mean_moments[k - 1] - reference[k - 2]) / reference[k - 2]
        for k in range(2, 6)
    ]
    _report(
        "6 Monte Carlo full scale",
        all(r < 0.01 for r in rel),
        "rel=" + ",".join(f"{r:.4f}" for r in rel),
    )


def test_criterion_7_property_suites():
    ok = True
    details = []

    config = simulation.SimConfig(
        p=100, n=500, dist="t", alpha=1.0, k_max=4, replicates=10, seed=77, spectrum=True,
    )
    report = simulation.run_experiment(config)
    for row, eigenvalues in zip(report.moments, report.spectra, strict=True):
        ok = ok and abs(row[0] - 1.0) < 1e-8
        ok = ok and abs(eigenvalues.sum() - config.p) < 1e-6 * config.p
        ok = ok and eigenvalues.min() >= -1e-8 * np.abs(eigenvalues).max()

    for alpha in (0.5, 1.0, 1.5):
        est = oracles.self_normalized_fourth_moment(
            alpha, n=10**4, rows=10**4, seed=31 + int(10 * alpha)
        )
        rel = abs(est - (1 - alpha / 2)) / (1 - alpha / 2)
        details.append(f"a={alpha}:rel={rel:.3f}")
        ok = ok and rel < 0.10

    gamma = 0.2
    variances = []
    for p, n in ((400, 2000), (800, 4000)):
        config = simulation.SimConfig(
            p=p, n=n, dist="pareto", alpha=1.0, k_max=4, replicates=100, seed=55, threads=2
        )
        report = simulation.run_experiment(config)
        variances.append(report.std_moments[3] ** 2)
    ratio = variances[0] / variances[1]
    details.append(f"var_ratio={ratio:.2f}")
    ok = ok and 1.0 <= ratio <= 3.0
    assert gamma == pytest.approx(400 / 2000)

    _report("7 property suites", ok, "; ".join(details))


def test_criterion_8_determinism_across_threads(tmp_path):
    for threads, name in ((1, "t1"), (4, "t4")):
        code = main(
            [
                "simulate", "--p", "50", "--n", "250", "--dist", "t", "--alpha", "1",
                "--k", "5", "--replicates", "8", "--seed", "314",
                "--out", str(tmp_path / name), "--threads", str(threads),
                "--hist", "20:0:4", "--save-eigenvalues",
            ],
        )
        assert code == 0
    files = ["moments.csv", "summary.json", "hist.csv"] + [
        f"eigenvalues_{j}.csv" for j in range(8)
    ]
    identical = all(
        (tmp_path / "t1" / f).read_bytes() == (tmp_path / "t4" / f).read_bytes() for f in files
    )
    json.loads((tmp_path / "t1" / "summary.json").read_text())  # valid JSON
    _report("8 determinism across threads", identical)
