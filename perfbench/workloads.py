"""Workloads of the heavymp benchmark: inputs from a seed, one unit of work
and the checks on its outputs.

A unit is what one user does once: one ``heavymp moments`` call, one
parameter sweep, one ``heavymp simulate`` run.  Each unit runs in a fresh
process (see ``worker.py``) so that every cache starts cold.  This module
imports no part of heavymp at import time; the caller puts the checkout's
``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("exact_table", "exact_grid", "mc_heavy", "mc_spectrum")

# A unit that runs longer than this is killed and all of its outputs count
# as failed.  Each is about five times the unit's cost when the benchmark
# was written.
TIMEOUT_S = {"exact_table": 120.0, "exact_grid": 40.0, "mc_heavy": 45.0, "mc_spectrum": 45.0}

# The (alpha, gamma) lattice the exact workloads draw from.  The exact engine
# does the same work at every point, so the seed changes values, not cost.
ALPHAS = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75)
GAMMAS = (0.1, 0.2, 0.25, 0.5, 1.0, 2.0)
TABLE_POINTS = (
    (1.0, 0.2), (0.5, 0.1), (0.75, 0.25), (1.25, 0.5),
    (1.5, 1.0), (0.25, 2.0), (1.75, 0.5), (1.0, 1.0),
)
TABLE_KMAX = 10
GRID_K = 8
GRID_SIDE = 4

MC = {
    "mc_heavy": {
        "dist": "t", "alpha": 1.0, "p": 1000, "n": 5000, "k": 5,
        "replicates": 16, "threads": 2, "hist": None, "save_eigenvalues": False,
    },
    "mc_spectrum": {
        "dist": "pareto", "alpha": 0.5, "p": 1000, "n": 1250, "k": 8,
        "replicates": 48, "threads": 1, "hist": "100:0:10", "save_eigenvalues": True,
    },
}

REL_TOL_REFERENCE = 1e-12
REL_TOL_CLOSED_FORM = 1e-12  # relative to mu_k, since d_k = mu_k - beta_k
M1_TOL = 1e-12
EIG_NEG_TOL = 1e-10
EIG_SUM_TOL = 1e-9
MEAN_TOL = 1e-12


def inputs(workload: str, seed: int) -> dict:
    """The parameters of one unit of ``workload``; the same seed gives the same inputs."""
    if workload == "exact_table":
        alpha, gamma = TABLE_POINTS[seed % len(TABLE_POINTS)]
        return {"alpha": alpha, "gamma": gamma, "kmax": TABLE_KMAX}
    if workload == "exact_grid":
        rng = random.Random(seed)
        return {
            "alphas": sorted(rng.sample(ALPHAS, GRID_SIDE)),
            "gammas": sorted(rng.sample(GAMMAS, GRID_SIDE)),
            "k": GRID_K,
        }
    if workload in MC:
        return {**MC[workload], "seed": seed}
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def import_layers(workload: str, all_layers: bool = False) -> None:
    """Import what a user of ``workload`` imports (every layer when tracing)."""
    if all_layers or workload != "exact_grid":
        import heavymp.cli  # noqa: F401  (pulls in every layer, numpy included)
    else:
        import heavymp.moments  # noqa: F401


def simulate_args(params: dict, out_dir: Path) -> list[str]:
    args = [
        "simulate", "--dist", params["dist"], "--alpha", repr(params["alpha"]),
        "--p", str(params["p"]), "--n", str(params["n"]), "--k", str(params["k"]),
        "--replicates", str(params["replicates"]), "--threads", str(params["threads"]),
        "--seed", str(params["seed"]), "--out", str(out_dir),
    ]
    if params["hist"]:
        args += ["--hist", params["hist"]]
    if params["save_eigenvalues"]:
        args.append("--save-eigenvalues")
    return args


def _cli(args: list[str]) -> tuple[int, str]:
    from heavymp import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(args)
    return code, out.getvalue()


def run_unit(workload: str, params: dict, out_dir: Path, cli_span=contextlib.nullcontext):
    """Do one unit of work and return its raw outputs (JSON-serialisable).

    ``cli_span`` wraps calls into the CLI layer, so a tracer can time them.
    """
    if workload == "exact_table":
        args = [
            "moments", "--alpha", repr(params["alpha"]), "--gamma", repr(params["gamma"]),
            "--kmax", str(params["kmax"]), "--format", "json",
        ]
        with cli_span():
            code, stdout = _cli(args)
        return {"exit_code": code, "stdout": stdout}
    if workload == "exact_grid":
        from heavymp import moments

        mu = [
            moments.heavy_mp_moment(a, g, params["k"])
            for a in params["alphas"]
            for g in params["gammas"]
        ]
        return {"exit_code": 0, "mu": mu}
    with cli_span():
        code, _stdout = _cli(simulate_args(params, out_dir))
    return {"exit_code": code}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def point_key(alpha: float, gamma: float) -> str:
    return f"{alpha!r},{gamma!r}"


def _rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


class Check:
    """Tally of outputs attempted and failed, with the worst error seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.max_rel_err = 0.0

    def output(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{name}: " + "; ".join(problems))

    def all_failed(self, count: int, reason: str) -> None:
        self.attempted += count
        self.failures += [reason] * count


def check_unit(workload: str, params: dict, raw: dict | None, out_dir: Path,
               reference: dict) -> Check:
    """Check every output of one unit; ``raw`` is None when the unit died."""
    check = Check()
    expected = _expected_outputs(workload, params)
    if raw is None:
        check.all_failed(expected, "unit timed out or crashed")
        return check
    if raw["exit_code"] != 0:
        check.all_failed(expected, f"exit code {raw['exit_code']}")
        return check
    if workload == "exact_table":
        _check_table(params, raw["stdout"], reference, check)
    elif workload == "exact_grid":
        _check_grid(params, raw["mu"], reference, check)
    else:
        _check_mc(params, out_dir, check)
    return check


def _expected_outputs(workload: str, params: dict) -> int:
    if workload == "exact_table":
        return params["kmax"]
    if workload == "exact_grid":
        return len(params["alphas"]) * len(params["gammas"])
    return params["replicates"] + 1  # one row per replicate, plus the summary


def _beta(gamma: float, k: int) -> Fraction:
    from heavymp.moments import mp_moment_exact

    return mp_moment_exact(Fraction(gamma), k)


def _check_table(params: dict, stdout: str, reference: dict, check: Check) -> None:
    alpha, gamma, kmax = params["alpha"], params["gamma"], params["kmax"]
    try:
        payload = json.loads(stdout)
        mu, d = payload["mu"], payload["d"]
    except (ValueError, KeyError, TypeError) as exc:
        check.all_failed(kmax, f"unreadable moments output: {exc}")
        return
    ref = reference["table"][point_key(alpha, gamma)]
    closed = {
        4: (1 - alpha / 2) ** 2 * gamma,
        5: (1 - alpha / 2) ** 2 * (5 * gamma + 5 * gamma**2),
    }
    for k in range(1, kmax + 1):
        problems = []
        if len(mu) < k or len(d) < k:
            check.output(f"mu_{k}", ["missing"])
            continue
        err = _rel_err(mu[k - 1], ref[k - 1])
        check.max_rel_err = max(check.max_rel_err, err)
        if not err <= REL_TOL_REFERENCE:
            problems.append(f"mu={mu[k - 1]!r} vs reference {ref[k - 1]!r}")
        if not d[k - 1] >= 0:
            problems.append(f"d={d[k - 1]!r} < 0")
        if k <= 3 and not _rel_err(mu[k - 1], float(_beta(gamma, k))) <= REL_TOL_REFERENCE:
            problems.append(f"mu={mu[k - 1]!r} differs from mp_moment_exact")
        if k in closed and not abs(d[k - 1] - closed[k]) <= REL_TOL_CLOSED_FORM * mu[k - 1]:
            problems.append(f"d={d[k - 1]!r} differs from closed form {closed[k]!r}")
        check.output(f"mu_{k}", problems)


def _check_grid(params: dict, mu: list, reference: dict, check: Check) -> None:
    k = params["k"]
    points = [(a, g) for a in params["alphas"] for g in params["gammas"]]
    if len(mu) != len(points):
        check.all_failed(len(points), f"expected {len(points)} moments, got {len(mu)}")
        return
    for (alpha, gamma), value in zip(points, mu):
        problems = []
        ref = reference["grid"][point_key(alpha, gamma)]
        err = _rel_err(value, ref)
        check.max_rel_err = max(check.max_rel_err, err)
        if not err <= REL_TOL_REFERENCE:
            problems.append(f"mu={value!r} vs reference {ref!r}")
        if not value >= float(_beta(gamma, k)):
            problems.append(f"d_{k} < 0")
        check.output(f"mu_{k}({alpha},{gamma})", problems)


def _floats(line: str) -> list[float]:
    return [float(x) for x in line.split(",")]


def _check_mc(params: dict, out_dir: Path, check: Check) -> None:
    """Checks that hold for any random stream, so a new sampler keeps them."""
    p, k, reps = params["p"], params["k"], params["replicates"]
    try:
        lines = (out_dir / "moments.csv").read_text().splitlines()
        rows = [_floats(line) for line in lines[1:]]
        summary = json.loads((out_dir / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        check.all_failed(reps + 1, f"unreadable output: {exc}")
        return
    for j in range(reps):
        problems = []
        row = rows[j] if j < len(rows) else []
        if len(row) != k + 1 or row[0] != j:
            check.output(f"replicate {j}", [f"bad moments.csv row {row}"])
            continue
        m1_err = abs(row[1] - 1.0)
        check.max_rel_err = max(check.max_rel_err, m1_err)
        if not m1_err <= M1_TOL:
            problems.append(f"m1={row[1]!r}")
        if params["save_eigenvalues"]:
            problems += _eigen_problems(out_dir / f"eigenvalues_{j}.csv", p)
        check.output(f"replicate {j}", problems)
    problems = []
    if len(rows) != reps:
        problems.append(f"{len(rows)} rows for {reps} replicates")
    else:
        means = [sum(col) / reps for col in zip(*rows)][1:]
        reported = summary.get("mean_moments", [])
        if len(reported) != k or any(
            not abs(a - b) <= MEAN_TOL * abs(b) for a, b in zip(reported, means)
        ):
            problems.append(f"summary means {reported} differ from column means {means}")
    check.output("summary.json", problems)


def _eigen_problems(path: Path, p: int) -> list[str]:
    try:
        values = [float(x) for x in path.read_text().split()]
    except (OSError, ValueError) as exc:
        return [f"unreadable {path.name}: {exc}"]
    if len(values) != p:
        return [f"{path.name} has {len(values)} values, expected {p}"]
    problems = []
    top = max(values)
    if min(values) < -EIG_NEG_TOL * top:
        problems.append(f"{path.name} has eigenvalue {min(values)!r}")
    if not abs(sum(values) - p) <= EIG_SUM_TOL * p:
        problems.append(f"{path.name} sums to {sum(values)!r}, expected {p}")
    return problems
