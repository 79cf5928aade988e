"""heavymp benchmark: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload exact_table --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout.  Every unit of work runs in a fresh
worker process (``worker.py``) with a timeout; this process checks each
unit's outputs, removes them, and prints one line per metric followed by a
JSON object as the last line of standard output.  With ``--trace 0`` the
JSON carries the end-to-end metrics; with ``--trace 1`` it runs a traced unit
between two untraced ones and carries the per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
RUN_LIMIT_S = 170.0  # every run ends well within the 180 s a run may take
# set-up-only launches: a batch before every unit and after the last one, so
# the set-up samples are spread over the run; at least SETUP_MIN samples in
# all, counting the units' own
SETUP_BATCH = 3
SETUP_MIN = 15
MIN_UNITS = 2  # solve_s is a median of at least two units, also on exact_table
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
E2E_UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}


def _git_commit() -> str | None:
    try:
        # --git-dir, so that a checkout without .git inside another repository gives None
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def manifest(workload: str, seed: int, seconds: int, trace: bool, params: dict) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        openblas = None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": params,
        "git_commit": _git_commit(),
        "python": sys.version,
        "numpy": numpy.__version__,
        "blas": openblas,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "timeouts_s": workloads.TIMEOUT_S,
    }


def launch(workload: str, seed: int, out: Path, timeout: float, trace: bool = False,
           setup_only: bool = False) -> tuple[dict | None, float, str]:
    """Run one worker; return (its result or None, wall seconds, error text)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    cmd += ["--trace"] if trace else []
    cmd += ["--setup-only"] if setup_only else []
    start = time.perf_counter()
    cmd += ["--launch", repr(start)]
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, time.perf_counter() - start, f"timed out after {timeout:.0f} s"
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        return None, wall, f"worker exit {proc.returncode}: {stderr.strip()[-2000:]}"
    return json.loads(stdout.strip().splitlines()[-1]), wall, ""


class Run:
    """Units of one workload, their checks and the metrics they give."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool) -> None:
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.params = workloads.inputs(workload, seed)
        self.reference = workloads.load_reference()
        self.dir = RUNS / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.start = time.perf_counter()
        self.units: list[dict] = []
        self.setup: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.start)

    def probe_setup(self, n: int) -> None:
        for _ in range(n):
            out = self.dir / f"probe{len(self.setup)}"
            result, _wall, error = launch(self.workload, self.seed, out,
                                          timeout=min(30.0, self.remaining()), setup_only=True)
            shutil.rmtree(out, ignore_errors=True)
            if result is None:
                raise RuntimeError(f"set-up probe failed: {error}")
            self.setup.append(result["setup_s"])

    def unit(self, trace: bool = False) -> dict:
        j = len(self.units)
        out = self.dir / f"unit{j}"
        timeout = min(workloads.TIMEOUT_S[self.workload], self.remaining())
        result, wall, error = launch(self.workload, self.seed, out, timeout, trace=trace)
        output = out / "output"
        check = workloads.check_unit(self.workload, self.params,
                                     result["raw"] if result else None, output, self.reference)
        bytes_written = sum(f.stat().st_size for f in output.iterdir()) if output.is_dir() else 0
        shutil.rmtree(output, ignore_errors=True)
        self.attempted += check.attempted
        self.failures += check.failures
        unit = {"wall_s": wall, "error": error, "failed": len(check.failures),
                "attempted": check.attempted, "max_rel_err": check.max_rel_err,
                "bytes_written": bytes_written}
        if result is not None:
            unit.update({k: v for k, v in result.items() if k != "raw"})
            self.setup.append(result["setup_s"])
        self.units.append(unit)
        return unit

    def measure(self) -> dict[str, float]:
        """At least MIN_UNITS units, more while their time stays within ``seconds``."""
        while True:
            walls = [u["wall_s"] for u in self.units]
            if walls:
                expect = statistics.median(walls)
                if len(walls) >= MIN_UNITS and sum(walls) + expect > self.seconds:
                    break
                if self.remaining() < 1.5 * expect + 10:
                    break
            self.probe_setup(SETUP_BATCH)
            self.unit()
        self.probe_setup(max(SETUP_BATCH, SETUP_MIN - len(self.setup)))
        ok = [u for u in self.units if u["failed"] == 0 and "solve_s" in u]
        return {
            "setup_s": statistics.median(self.setup),
            "solve_s": statistics.median(u["solve_s"] for u in ok) if ok else 0.0,
            "peak_rss_mb": max((u["peak_rss_mb"] for u in ok), default=0.0),
        }

    def measure_traced(self) -> dict[str, float]:
        """A traced unit between two untraced ones; per-layer metrics of the traced one.

        ``trace.overhead_s`` is the traced unit's time minus the mean of the
        untraced ones around it, so a slow drift of the machine cancels.  The
        second untraced unit is left out when too little time is left for it.
        """
        plain = [self.unit()]
        traced = self.unit(trace=True)
        if self.remaining() > 1.5 * max(plain[0]["wall_s"], traced["wall_s"]):
            plain.append(self.unit())
        metrics = {name: 0.0 for name in spans.UNITS}
        metrics.update(traced.get("per_layer", {}))
        metrics["moments.max_rel_err"] = traced["max_rel_err"]
        metrics["simulation.bytes_written"] = traced["bytes_written"]
        base = [u["solve_s"] for u in plain if "solve_s" in u and u["failed"] == 0]
        if base and "solve_s" in traced:
            metrics["trace.overhead_s"] = traced["solve_s"] - statistics.fmean(base)
        return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "heavymp" / "__init__.py").is_file():
        print(f"error: no heavymp sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    # the oracles the checks use come from the checkout, as the workers' code does
    sys.path.insert(0, str(workloads.SRC))

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    info = manifest(args.workload, args.seed, args.seconds, run.trace, run.params)
    (run.dir / "manifest.json").write_text(json.dumps(info, indent=1) + "\n")

    if run.trace:
        metrics = run.measure_traced()
        units = spans.UNITS
    else:
        metrics = run.measure()
        units = E2E_UNITS
    failed = len(run.failures)
    correct = failed == 0 and run.attempted >= 1

    for failure in run.failures[:20]:
        print(f"FAILED {failure}")
    for unit in run.units:
        if unit["error"]:
            print(f"unit error: {unit['error']}")
    print(f"workload {args.workload} seed {args.seed}: {len(run.units)} unit(s), "
          f"{len(run.setup)} set-up sample(s)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    solved = [u["solve_s"] for u in run.units if "solve_s" in u and u["failed"] == 0]
    if args.workload in workloads.MC and solved and not run.trace:
        per_s = run.params["replicates"] / statistics.median(solved)
        print(f"replicates_per_s {per_s:.6g} 1/s")
    print(f"failed_frac {failed / max(run.attempted, 1):.6g} ratio ({failed}/{run.attempted} outputs)")
    for unit in run.units:
        notes = unit.get("trace_notes")
        if notes:
            print(f"trace notes: {json.dumps(notes)}")

    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    (run.dir / "result.json").write_text(
        json.dumps({**result, "units": run.units, "failures": run.failures}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
