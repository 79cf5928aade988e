import contextlib
import io
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from heavymp import cli as cli_module
from heavymp import moments, simulation
from heavymp.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


class Result(NamedTuple):
    exit_code: int
    output: str
    stdout_bytes: bytes


def run(*args):
    """``main(args)`` with its exit code and its stdout as text and as bytes."""
    buffer = io.BytesIO()
    stdout = io.TextIOWrapper(buffer, encoding="utf-8")
    with contextlib.redirect_stdout(stdout):
        code = main(list(args))
    stdout.flush()
    return Result(code, buffer.getvalue().decode(), buffer.getvalue())


def test_counts_table():
    result = run("counts", "--kmax", "4")
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "k,r,B,B2,norun,C0,M"
    assert "4,2,7,3,1,6,1" in lines


def test_paths_listing():
    result = run("paths", "--k", "4", "--r", "2")
    assert result.exit_code == 0
    assert len(result.output.strip().splitlines()) == 7


def test_paths_class_filter():
    result = run("paths", "--k", "4", "--r", "2", "--class", "c1")
    assert result.output.strip() == "1,2,1,2"


def test_delta_output():
    result = run("delta", "--i", "1,2,1,2", "--t", "1,1,1,1")
    assert result.exit_code == 0
    assert "1,1,4" in result.output
    assert "2,1,4" in result.output
    assert "# even=True" in result.output
    assert "# tree=True" in result.output


def test_contributing_output():
    result = run("contributing", "--i", "1,2,1,2,3,4,3,4,3")
    assert result.exit_code == 0
    assert result.output == "1:1,1,1,1,1,1,1,1,1\n2:1,1,1,1,2,2,2,2,1\n# t_star=2\n"


def test_moments_csv_and_json_agree():
    csv_result = run("moments", "--alpha", "1", "--gamma", "0.2", "--kmax", "5")
    json_result = run(
        "moments", "--alpha", "1", "--gamma", "0.2", "--kmax", "5", "--format", "json"
    )
    assert csv_result.exit_code == 0 and json_result.exit_code == 0
    payload = json.loads(json_result.output)
    row_k4 = csv_result.output.strip().splitlines()[4].split(",")
    assert float(row_k4[3]) == payload["mu"][3]
    assert abs(payload["mu"][3] - 2.498) < 5e-4


GOLDEN = Path(__file__).resolve().parent / "data"
# the benchmark's exact_table points and two near the ends of (0, 2)
GOLDEN_POINTS = [("1.0", "0.2"), ("0.5", "0.1"), ("0.75", "0.25"), ("1.25", "0.5"), ("1.5", "1.0"),
                 ("0.25", "2.0"), ("1.75", "0.5"), ("1.0", "1.0"), ("1e-06", "0.2"), ("1.999", "0.2")]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("alpha, gamma", GOLDEN_POINTS)
def test_moments_output_matches_the_golden_bytes(alpha, gamma, fmt):
    # tests/data holds `heavymp moments --kmax 14` as the per-k Fraction sum printed it
    result = run("moments", "--alpha", alpha, "--gamma", gamma, "--kmax", "14", "--format", fmt)
    assert result.exit_code == 0
    assert result.stdout_bytes == (GOLDEN / f"moments_a{alpha}_g{gamma}_k14.{fmt}").read_bytes()


def test_counts_output_matches_the_golden_bytes():
    # tests/data holds `heavymp counts --kmax 12` as the memoised Stirling recursions printed it
    result = run("counts", "--kmax", "12")
    assert result.exit_code == 0
    assert result.stdout_bytes == (GOLDEN / "counts_k12.csv").read_bytes()


def test_closed_forms_share_the_moment_cap_and_the_enumerator_stays_capped(capsys):
    payload = json.loads(run("moments", "--alpha", "1", "--gamma", "0.2", "--kmax", "14",
                             "--format", "json").output)
    assert payload["mu"][13] == 12138.448302765602
    top, over = str(moments.MOMENT_K_MAX), str(moments.MOMENT_K_MAX + 1)
    assert top == "40"
    for command in (["moments", "--alpha", "1", "--gamma", "0.2"], ["counts"], ["boundary", "--gamma", "1"]):
        assert main(command + ["--kmax", top]) == 0
        assert main(command + ["--kmax", over]) == 1
    assert main(["counts", "--kmax", "13"]) == 0
    assert main(["paths", "--k", "13", "--r", "2"]) == 1
    capsys.readouterr()


def test_boundary_output():
    result = run("boundary", "--gamma", "1", "--kmax", "3")
    assert result.exit_code == 0
    lines = result.output.splitlines()
    pmf0 = float(lines[1].split(",")[1])
    pmf1 = float(lines[2].split(",")[1])
    assert abs(pmf0 - pmf1) < 1e-15


def test_simulate_writes_outputs(tmp_path):
    result = run(
        "simulate", "--p", "10", "--n", "30", "--dist", "gaussian",
        "--k", "3", "--replicates", "3", "--seed", "4", "--out", str(tmp_path),
    )
    assert result.exit_code == 0, result.output
    assert (tmp_path / "moments.csv").exists()
    assert (tmp_path / "summary.json").exists()


def test_simulate_files_are_the_engine_report_bit_for_bit(tmp_path):
    # every number written parses back to the engine's float64, and hist.csv
    # is numpy's histogram of the pooled spectra
    result = run(
        "simulate", "--p", "12", "--n", "40", "--dist", "pareto", "--alpha", "0.7", "--k", "4",
        "--replicates", "3", "--seed", "6", "--hist", "15:0:6", "--save-eigenvalues",
        "--out", str(tmp_path),
    )
    assert result.exit_code == 0, result.output
    report = simulation.run_experiment(simulation.SimConfig(
        p=12, n=40, dist="pareto", alpha=0.7, k_max=4, replicates=3, seed=6, spectrum=True,
    ))
    names = ["moments.csv", "summary.json", "eigenvalues_0.csv", "eigenvalues_1.csv",
             "eigenvalues_2.csv", "hist.csv"]
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(names)
    assert result.output == "".join(f"wrote {tmp_path / name}\n" for name in names)

    lines = (tmp_path / "moments.csv").read_text().splitlines()
    assert lines[0] == "replicate,m1,m2,m3,m4"
    for j, (line, row) in enumerate(zip(lines[1:], report.moments, strict=True)):
        replicate, *values = line.split(",")
        assert int(replicate) == j
        assert np.array_equal(np.array(values, dtype=float), row)
    summary = json.loads((tmp_path / "summary.json").read_text())
    expected = {
        "p": 12, "n": 40, "dist": "pareto", "alpha": 0.7, "k_max": 4, "replicates": 3,
        "seed": 6, "mean_moments": list(report.mean_moments),
        "std_moments": list(report.std_moments),
    }
    # the keys come in the order of simulate's flags; dict equality ignores it
    assert summary == expected and list(summary) == list(expected)
    for j, spectrum in enumerate(report.spectra):
        text = (tmp_path / f"eigenvalues_{j}.csv").read_text()
        assert np.array_equal(np.array(text.splitlines(), dtype=float), spectrum)

    pooled = np.concatenate(list(report.spectra))
    densities, edges = np.histogram(pooled, bins=15, range=(0.0, 6.0), density=True)
    lines = (tmp_path / "hist.csv").read_text().splitlines()
    assert lines[0] == "bin_lo,bin_hi,density"
    rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
    assert np.array_equal(rows, np.column_stack([edges[:-1], edges[1:], densities]))


def test_simulate_byte_identical_across_threads(tmp_path):
    for threads, name in ((1, "one"), (4, "four")):
        result = run(
            "simulate", "--p", "15", "--n", "45", "--dist", "t", "--alpha", "1",
            "--k", "4", "--replicates", "5", "--seed", "99",
            "--out", str(tmp_path / name), "--threads", str(threads),
        )
        assert result.exit_code == 0, result.output
    for fname in ("moments.csv", "summary.json"):
        assert (tmp_path / "one" / fname).read_bytes() == (tmp_path / "four" / fname).read_bytes()


def test_simulate_byte_identical_across_threads_at_blas_threading_size(tmp_path):
    # at p=100 OpenBLAS threads the Gram product, whose last bits m_7 shows
    for threads in (1, 2):
        result = run(
            "simulate", "--dist", "t", "--alpha", "1", "--p", "100", "--n", "500",
            "--k", "8", "--replicates", "3", "--seed", "2",
            "--out", str(tmp_path / str(threads)), "--threads", str(threads),
        )
        assert result.exit_code == 0, result.output
    for fname in ("moments.csv", "summary.json"):
        assert (tmp_path / "1" / fname).read_bytes() == (tmp_path / "2" / fname).read_bytes()


def _three_usable_cores(monkeypatch, tmp_path_factory, cpu_max=None):
    """Report three usable cores and record the replicate pool size of every run.

    ``cpu_max`` is the text of the cgroup cpu.max file, None for no such file.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    path = tmp_path_factory.mktemp("cgroup") / "cpu.max"
    if cpu_max is not None:
        path.write_text(cpu_max)
    monkeypatch.setattr(simulation, "_CPU_MAX", path)
    threads = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            threads.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(simulation, "ThreadPoolExecutor", RecordingPool)
    return threads


def test_simulate_default_threads_are_the_usable_cores(tmp_path, monkeypatch, tmp_path_factory):
    threads = _three_usable_cores(monkeypatch, tmp_path_factory)
    for name, extra in (("default", ()), ("one", ("--threads", "1"))):
        result = run(
            "simulate", "--dist", "t", "--alpha", "1", "--p", "20", "--n", "60",
            "--k", "6", "--replicates", "5", "--seed", "8", "--out", str(tmp_path / name), *extra,
        )
        assert result.exit_code == 0, result.output
    assert threads == [3, 1]
    for fname in ("moments.csv", "summary.json"):
        assert (tmp_path / "default" / fname).read_bytes() == (tmp_path / "one" / fname).read_bytes()


@pytest.mark.parametrize(
    "extra, expected",
    [
        (("--replicates", "2"), 2),  # no more threads than replicates
        (("--hist", "10:0:5"), 3),  # spectrum runs too
        (("--k", "9"), 3),
    ],
)
def test_simulate_default_threads_cap(tmp_path, monkeypatch, tmp_path_factory, extra, expected):
    threads = _three_usable_cores(monkeypatch, tmp_path_factory)
    result = run(
        "simulate", "--dist", "gaussian", "--p", "8", "--n", "24", "--k", "4",
        "--replicates", "4", "--seed", "1", "--out", str(tmp_path), *extra,
    )
    assert result.exit_code == 0, result.output
    assert threads == [expected]


def test_compare_default_threads_are_the_usable_cores(monkeypatch, tmp_path_factory):
    threads = _three_usable_cores(monkeypatch, tmp_path_factory)
    for kmax in ("6", "9"):  # moments from traces, then from the spectrum
        args = ("compare", "--alpha", "1", "--p", "30", "--n", "90", "--kmax", kmax,
                "--replicates", "5", "--seed", "8", "--z-threshold", "1e9")
        default, one = run(*args), run(*args, "--threads", "1")
        assert default.exit_code == one.exit_code == 0, default.output
        assert default.output == one.output
    assert threads == [3, 1, 3, 1]


@pytest.mark.parametrize(
    "cpu_max, extra, expected",
    [
        ("150000 100000\n", (), 2),  # 1.5 CPUs of quota round up to 2 threads
        ("50000 100000\n", (), 1),
        ("150000 100000\n", ("--replicates", "1"), 1),
        ("max 100000\n", (), 3),
        ("", (), 3),  # unreadable as a quota
        (None, (), 3),  # no cgroup v2 cpu.max
    ],
)
def test_simulate_default_threads_see_the_cpu_quota(
    tmp_path, monkeypatch, tmp_path_factory, cpu_max, extra, expected
):
    threads = _three_usable_cores(monkeypatch, tmp_path_factory, cpu_max)
    result = run(
        "simulate", "--dist", "gaussian", "--p", "8", "--n", "24", "--k", "4",
        "--replicates", "4", "--seed", "1", "--out", str(tmp_path), *extra,
    )
    assert result.exit_code == 0, result.output
    assert threads == [expected]


def test_dist_choices_are_the_sampled_distributions():
    (commands,) = [a for a in cli_module.PARSER._actions if a.metavar == "COMMAND"]
    for command in ("simulate", "compare"):
        (dist,) = [a for a in commands.choices[command]._actions if a.dest == "dist"]
        assert tuple(dist.choices) == simulation.DISTRIBUTIONS


_NUMPY_FREE_RUN = """
import sys
from heavymp import cli

assert "numpy" not in sys.modules and "heavymp.simulation" not in sys.modules
for args in (
    ["moments", "--alpha", "1", "--gamma", "0.2", "--kmax", "14", "--format", "json"],
    ["moments", "--alpha", "1", "--gamma", "0.2", "--kmax", "20"],
    ["counts", "--kmax", "6"],
    ["paths", "--k", "5", "--r", "2"],
    ["delta", "--i", "1,2,1,2", "--t", "1,1,1,1"],
    ["contributing", "--i", "1,2,1,2,3,4,3,4,3"],
    ["boundary", "--gamma", "1", "--kmax", "4"],
):
    assert cli.main(args) == 0, args
    assert "numpy" not in sys.modules, args
assert cli.main(["simulate", "--dist", "t", "--alpha", "1", "--p", "6", "--n", "18",
                 "--k", "3", "--replicates", "2", "--out", sys.argv[1]]) == 0
assert "numpy" in sys.modules
"""


def test_exact_subcommands_do_not_import_numpy(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE_RUN, str(tmp_path / "sim")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert (tmp_path / "sim" / "summary.json").exists()


# modules a `heavymp moments` call has no use for, each a cost at start-up
_COLD_START_RUN = """
import contextlib, io, sys

unused = {"click", "dataclasses", "inspect", "heavymp.delta_graphs", "heavymp.paths", "numpy",
          "heavymp.series", "heavymp.simulation"}
before = set(sys.modules)
from heavymp import cli

assert not unused & (set(sys.modules) - before), sorted(unused & set(sys.modules))
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["moments", "--alpha", "1", "--gamma", "0.2", "--kmax", "14"]) == 0
assert not unused & (set(sys.modules) - before), sorted(unused & set(sys.modules))
"""


def test_moments_call_loads_only_what_it_runs():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", _COLD_START_RUN], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr[-2000:]


def test_compare_small_run():
    result = run(
        "compare", "--alpha", "1", "--p", "60", "--n", "300", "--dist", "t",
        "--kmax", "3", "--replicates", "10", "--seed", "5",
    )
    assert result.exit_code == 0, result.output
    assert result.output.splitlines()[0] == "k,mu_exact,m_mean,stderr,z"


def test_main_exit_codes(tmp_path):
    assert main(["counts", "--kmax", "3"]) == 0
    assert main(["paths", "--k", "4", "--r", "9"]) == 1  # usage error
    assert main(["delta", "--i", "1,2", "--t", "1,1,1"]) == 1
    assert main(["contributing", "--i", "1,2,3"]) == 1  # reducible input
    assert main(["nonexistent"]) == 1
    assert main([]) == 1  # no subcommand
    assert main(["--help"]) == main(["moments", "--help"]) == 0


def test_contributing_takes_no_mode(capsys):
    # the tree walk is the only generator; the brute filter is a test oracle
    assert main(["contributing", "--i", "1,2,1,2", "--mode", "brute"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "--mode" in captured.err


def test_boundary_past_the_support_bound_exits_1_before_printing():
    # gamma = 10^10 would walk about 10^10 points, one output line each
    done = subprocess.run(
        [sys.executable, "-m", "heavymp.cli", "boundary", "--gamma", "1e10", "--kmax", "3"],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and "passes 10^6 points" in done.stderr


def _no_replicate(monkeypatch):
    def refuse(config, replicate):
        raise AssertionError("a replicate ran before the arguments were checked")

    monkeypatch.setattr(simulation, "run_replicate", refuse)


@pytest.mark.parametrize(
    "args, message",
    [
        (["moments", "--alpha", "1", "--gamma", "nan"], "gamma must be finite and positive"),
        (["moments", "--alpha", "1", "--gamma", "inf"], "gamma must be finite and positive"),
        (["moments", "--alpha", "1", "--gamma", "-1"], "gamma must be finite and positive"),
        (["moments", "--alpha", "2", "--gamma", "0.2"], "alpha must lie in the open interval (0, 2)"),
        (["boundary", "--gamma", "inf"], "gamma must be finite and positive"),
        (["paths", "--k", "4", "--r", "9"], "r must satisfy 1 <= r <= k=4, got 9"),
        (["delta", "--i", "1,2", "--t", "1,1,1"], "length mismatch"),
        (["contributing", "--i", "1,2,3"], "reducible"),
    ],
)
def test_rejected_exact_arguments_exit_1_with_the_engine_message(capsys, args, message):
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize(
    "args, message",
    [
        # the exact target is always at gamma = p/n, the simulated ratio
        (["compare", "--alpha", "1", "--gamma", "0.2"], "unrecognized arguments: --gamma"),
        # --kmax fills SimConfig's k_max but keeps its name in messages
        (["compare", "--alpha", "1", "--kmax", "0"], "argument --kmax: 0 is not in the range"),
        # the exact table checks alpha before the t sampler does
        (["compare", "--alpha", "3"], "alpha must lie in the open interval"),
        (["compare", "--alpha", "3", "--dist", "gaussian"], "alpha must lie in the open interval"),
        (["compare", "--alpha", "1", "--n", "0"], "--n"),
        (["simulate", "--dist", "t", "--alpha", "1", "--p", "20", "--n", "60", "--replicates", "3",
          "--hist", "10:0:inf"], "hist needs BINS >= 1 and finite LO < HI"),
        (["simulate", "--dist", "t", "--alpha", "1", "--p", "20", "--n", "60", "--replicates", "3",
          "--hist", "10:nan:5"], "hist needs BINS >= 1 and finite LO < HI"),
        (["simulate", "--dist", "t", "--alpha", "1", "--p", "20", "--n", "60", "--replicates", "3",
          "--hist", "0:0:5"], "hist needs BINS >= 1 and finite LO < HI"),
        (["simulate", "--dist", "t", "--alpha", "1", "--p", "20", "--n", "60", "--replicates", "3",
          "--hist", "10:0"], "--hist must be BINS:LO:HI"),
        (["simulate", "--dist", "t", "--p", "20", "--n", "60"], "t sampling needs alpha in (0, 2)"),
        # one replicate has no stderr, so every z would read 0 and pass
        (["compare", "--alpha", "1", "--p", "40", "--n", "200", "--dist", "pareto", "--kmax", "4",
          "--replicates", "1", "--seed", "3", "--z-threshold", "0.01"], "--replicates"),
        # the gaussian sampler has no tail index, so an alpha would only mislabel summary.json
        (["simulate", "--dist", "gaussian", "--alpha", "7", "--p", "4", "--n", "8", "--k", "2",
          "--replicates", "2"], "gaussian sampling takes no alpha"),
        # no |z| is over a NaN threshold, so every run would pass
        (["compare", "--alpha", "1", "--p", "40", "--n", "200", "--dist", "pareto", "--kmax", "4",
          "--replicates", "6", "--seed", "3", "--z-threshold", "nan"],
         "--z-threshold must be >= 0, got nan"),
        (["compare", "--alpha", "1", "--z-threshold", "-1"], "--z-threshold must be >= 0, got -1.0"),
        # an empty --hist is a malformed histogram, not a missing one
        (["simulate", "--dist", "gaussian", "--p", "5", "--n", "20", "--k", "2", "--replicates", "2",
          "--hist", ""], "--hist must be BINS:LO:HI, got ''"),
        # rows are checked as rows, not as the gamma = p/n they would give
        (["compare", "--alpha", "1", "--p", "0"], "argument --p: 0 is not in the range x>=1"),
        (["compare", "--alpha", "1", "--p", "-5"], "argument --p: -5 is not in the range x>=1"),
        # SeedSequence takes no negative entropy
        (["simulate", "--dist", "gaussian", "--p", "5", "--n", "20", "--k", "2", "--replicates", "2",
          "--seed", "-1"], "seed must be >= 0, got -1"),
        (["compare", "--alpha", "1", "--p", "5", "--n", "20", "--seed", "-1"],
         "seed must be >= 0, got -1"),
    ],
)
def test_rejected_monte_carlo_arguments_exit_1_before_any_replicate(
    tmp_path, monkeypatch, capsys, args, message
):
    _no_replicate(monkeypatch)
    if args[0] == "simulate":
        args = [*args, "--out", str(tmp_path / "out")]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert not (tmp_path / "out").exists()


def test_compare_gaussian_column_is_the_marchenko_pastur_moment():
    result = run("compare", "--alpha", "1", "--dist", "gaussian", "--p", "30", "--n", "90",
                 "--kmax", "6", "--replicates", "3", "--seed", "2", "--z-threshold", "1e9")
    assert result.exit_code == 0, result.output
    exact = [float(line.split(",")[1]) for line in result.output.splitlines()[1:]]
    assert exact == [moments.mp_moment(30 / 90, k) for k in range(1, 7)]


def test_compare_over_threshold_exits_2_through_main():
    # the installed entry point calls main and exits with its code; worst |z| here is 1.10
    code = main(
        ["compare", "--alpha", "1", "--p", "40", "--n", "200", "--dist", "pareto",
         "--kmax", "4", "--replicates", "6", "--seed", "3", "--z-threshold", "0.01"]
    )
    assert code == 2
    # an infinite threshold is a valid one that every |z| passes
    code = main(
        ["compare", "--alpha", "1", "--p", "40", "--n", "200", "--dist", "pareto",
         "--kmax", "4", "--replicates", "6", "--seed", "3", "--z-threshold", "inf"]
    )
    assert code == 0
    # with n = 1, R = s s' for a sign vector s, so every replicate gives m_k = p^(k-1):
    # no spread, so a mean off the exact value is z = -inf
    args = ["compare", "--alpha", "1", "--n", "1", "--replicates", "3", "--kmax", "3", "--seed", "1"]
    result = run(*args, "--p", "40")
    assert result.exit_code == 2
    assert result.output.splitlines()[1:] == ["1,1,1,0,0", "2,41,40,0,-inf", "3,1721,1600,0,-inf"]
    result = run(*args, "--p", "1", "--format", "json")
    assert result.exit_code == 2
    assert [row["z"] for row in json.loads(result.output)] == [0.0, -math.inf, -math.inf]
    assert result.output.count('"z": -Infinity') == 2


def test_compare_spectrum_route_m1_is_exactly_one():
    # m_1 is tr(R)/p on the spectrum route too, exactly 1, so rounding cannot give it a z
    result = run("compare", "--alpha", "1", "--p", "50", "--n", "100", "--dist", "t",
                 "--kmax", "9", "--replicates", "5", "--seed", "1")
    assert result.exit_code == 0, result.output
    assert result.output.splitlines()[1] == "1,1,1,0,0"


@pytest.mark.parametrize("kmax", ["18", "20"])  # the table route, then the series route
def test_moments_overflow_exits_2_naming_the_order_and_the_point(capsys, kmax):
    assert main(["moments", "--alpha", "1", "--gamma", "1e30", "--kmax", kmax]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "numeric error: moment order k=12 at (alpha, gamma) = (1.0, 1e+30) exceeds the largest float64\n"
    )


def test_compare_reads_orders_9_to_12_from_the_table_against_the_spectrum_route():
    result = run("compare", "--alpha", "1", "--p", "60", "--n", "300", "--kmax", "12",
                 "--replicates", "3", "--seed", "1", "--z-threshold", "1e9", "--format", "json")
    assert result.exit_code == 0, result.output
    rows = json.loads(result.output)
    assert [row["k"] for row in rows] == list(range(1, 13))
    exact = moments.moment_table(1.0, 60 / 300, 12).mu
    assert [row["mu_exact"] for row in rows] == [exact[k - 1] for k in range(1, 13)]
    # orders past TRACE_K_CUT have no trace route, so these replicates ran eigvalsh
    config = simulation.SimConfig(p=60, n=300, dist="t", alpha=1.0, k_max=12, replicates=3, seed=1)
    assert config.k_max >= simulation.TRACE_K_CUT and config.needs_spectrum


def test_main_io_error(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("file, not a directory")
    code = main(
        ["simulate", "--p", "4", "--n", "8", "--dist", "gaussian",
         "--k", "2", "--replicates", "2", "--seed", "1", "--out", str(target)]
    )
    assert code == 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_overflow_exits_2(tmp_path, capsys):
    # alpha=0.02 Pareto entries reach 1e154 and beyond, so squared row norms
    # overflow; at alpha=0.01 the draw U^(-100) itself overflows, silently
    for alpha in ("0.02", "0.01"):
        code = main(
            ["simulate", "--dist", "pareto", "--alpha", alpha, "--p", "50", "--n", "2000",
             "--k", "3", "--replicates", "2", "--seed", "3", "--out", str(tmp_path / alpha)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"alpha={alpha}" in err and "row " in err
        assert not (tmp_path / alpha).exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_t_overflow_exits_2(tmp_path, capsys):
    # at alpha=0.02 a t draw is about 0.14 W^(-50) sin 2phi, so a W below
    # about 1e-3 overflows the draw or its square; inf, or NaN where
    # sin 2phi is 0, makes a squared row norm non-finite
    out = tmp_path / "out"
    code = main(
        ["simulate", "--dist", "t", "--alpha", "0.02", "--p", "50", "--n", "2000",
         "--k", "3", "--replicates", "2", "--seed", "3", "--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "t draws with alpha=0.02" in err and "row " in err
    assert not out.exists()
