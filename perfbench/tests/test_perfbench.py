"""Tests of the benchmark itself: its checks, its tracer and its timeouts.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(workloads.SRC))


def small_mc(threads: int = 1, save_eigenvalues: bool = True) -> dict:
    return {
        **workloads.MC["mc_spectrum"], "p": 40, "n": 200, "replicates": 6, "seed": 5,
        "threads": threads, "save_eigenvalues": save_eigenvalues,
    }


def failed_frac(check: workloads.Check) -> float:
    return len(check.failures) / check.attempted


def table_stdout(mu: list[float], alpha: float, gamma: float) -> str:
    from heavymp.moments import mp_moment

    beta = [mp_moment(gamma, k) for k in range(1, len(mu) + 1)]
    return json.dumps({"beta": beta, "d": [m - b for m, b in zip(mu, beta)], "mu": mu})


def test_exact_table_reference_passes_and_wrong_moment_fails(tmp_path):
    reference = workloads.load_reference()
    params = workloads.inputs("exact_table", 3)
    mu = list(reference["table"][workloads.point_key(params["alpha"], params["gamma"])])
    good = {"exit_code": 0, "stdout": table_stdout(mu, params["alpha"], params["gamma"])}
    check = workloads.check_unit("exact_table", params, good, tmp_path, reference)
    assert check.attempted == params["kmax"] and failed_frac(check) == 0

    mu[6] *= 1 + 1e-9
    bad = {"exit_code": 0, "stdout": table_stdout(mu, params["alpha"], params["gamma"])}
    check = workloads.check_unit("exact_table", params, bad, tmp_path, reference)
    assert failed_frac(check) > 0


def test_exact_grid_wrong_moment_fails(tmp_path):
    reference = workloads.load_reference()
    params = workloads.inputs("exact_grid", 11)
    mu = [reference["grid"][workloads.point_key(a, g)]
          for a in params["alphas"] for g in params["gammas"]]
    check = workloads.check_unit("exact_grid", params, {"exit_code": 0, "mu": mu}, tmp_path, reference)
    assert check.attempted == 16 and failed_frac(check) == 0
    mu[5] = -mu[5]
    check = workloads.check_unit("exact_grid", params, {"exit_code": 0, "mu": mu}, tmp_path, reference)
    assert len(check.failures) == 1


def test_mc_checks_pass_then_catch_a_corrupt_replicate(tmp_path):
    params = small_mc()
    raw = workloads.run_unit("mc_spectrum", params, tmp_path)
    check = workloads.check_unit("mc_spectrum", params, raw, tmp_path, {})
    assert check.attempted == params["replicates"] + 1 and failed_frac(check) == 0

    lines = (tmp_path / "moments.csv").read_text().splitlines()
    row = lines[2].split(",")
    row[1] = "1.001"
    lines[2] = ",".join(row)
    (tmp_path / "moments.csv").write_text("\n".join(lines) + "\n")
    check = workloads.check_unit("mc_spectrum", params, raw, tmp_path, {})
    # the bad m1 fails its replicate, and the summary no longer matches the rows
    assert len(check.failures) == 2


def test_nonzero_exit_fails_every_output(tmp_path):
    params = small_mc()
    check = workloads.check_unit("mc_spectrum", params, {"exit_code": 2}, tmp_path, {})
    assert check.attempted == len(check.failures) == params["replicates"] + 1


def test_summary_byte_identical_for_one_and_two_threads(tmp_path):
    out = {}
    for threads in (1, 2):
        params = small_mc(threads=threads, save_eigenvalues=False)
        raw = workloads.run_unit("mc_heavy", params, tmp_path / f"t{threads}")
        assert raw["exit_code"] == 0
        out[threads] = (tmp_path / f"t{threads}" / "summary.json").read_bytes()
    assert out[1] == out[2]


def test_tracing_restores_every_wrapped_function(tmp_path, monkeypatch):
    monkeypatch.setattr(spans, "SPAN_CAP", 50)
    modules = {m: importlib.import_module(f"heavymp.{m}") for m, *_ in spans.WRAPS}
    before = {(m, attr): getattr(modules[m], attr) for m, attr, *_ in spans.WRAPS}
    params = small_mc(threads=2)
    with spans.Recorder() as rec:
        assert all(getattr(modules[m], attr) is not fn for (m, attr), fn in before.items())
        workloads.run_unit(
            "exact_grid", {"alphas": [1.0], "gammas": [0.2], "k": 8}, tmp_path,
            cli_span=lambda: rec.span(spans.CLI_SPAN),
        )
        workloads.run_unit("mc_spectrum", params, tmp_path / "mc",
                           cli_span=lambda: rec.span(spans.CLI_SPAN))
    assert all(getattr(modules[m], attr) is fn for (m, attr), fn in before.items())
    assert rec.absent == []

    metrics = spans.per_layer_metrics(rec, params, None)
    assert set(metrics) <= set(spans.UNITS)
    assert metrics["paths.shorten_calls"] > 0 and metrics["paths.cores_distinct"] > 0
    assert 0 < metrics["delta_graphs.contrib_ratio"] <= 1
    assert metrics["simulation.busy_over_wall"] > 0
    assert metrics["cli.self_s"] >= 0 and metrics["moments.sum_self_s"] >= 0
    kept, dropped = rec.spans_recorded()
    assert kept == 50 and dropped > 0
    rec.write_spans(tmp_path / "spans.csv")
    assert len((tmp_path / "spans.csv").read_text().splitlines()) == 51


def test_unit_over_its_timeout_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RUNS", tmp_path)
    monkeypatch.setitem(workloads.TIMEOUT_S, "exact_table", 0.5)
    bench = run.Run("exact_table", 0, seconds=1, trace=False)
    unit = bench.unit()
    assert "timed out" in unit["error"]
    assert bench.attempted == workloads.TABLE_KMAX == len(bench.failures)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "exact_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
