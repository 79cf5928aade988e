"""One unit of one workload, in a fresh process.

    python3 perfbench/worker.py --workload W --seed N --launch T --out DIR [--trace] [--setup-only]

``--launch`` is the parent's ``time.perf_counter()`` just before it started
this process; on Linux that clock is system-wide, so set-up time counts the
interpreter's start as well as imports and input generation.  The last line
of standard output is one JSON object with the unit's timings and outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

import workloads


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _import_heavymp() -> None:
    sys.path.insert(0, str(workloads.SRC))
    import heavymp

    where = Path(heavymp.__file__).resolve()
    if workloads.SRC.resolve() not in where.parents:
        raise ImportError(f"heavymp imported from {where}, not from {workloads.SRC}")


def _core_cache_info():
    """``cache_info()`` of the per-core limit cache, or None once it is gone."""
    from heavymp import moments

    cached = getattr(moments, "_limit_pF_cached", None)
    return cached.cache_info() if hasattr(cached, "cache_info") else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_heavymp()
    workloads.import_layers(args.workload, all_layers=args.trace)
    params = workloads.inputs(args.workload, args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    setup_s = time.perf_counter() - args.launch
    result: dict = {"setup_s": setup_s}
    if args.setup_only:
        result["peak_rss_mb"] = _peak_rss_mb()
        print(json.dumps(result))
        return 0

    output = args.out / "output"
    with contextlib.ExitStack() as stack:
        cli_span = contextlib.nullcontext
        if args.trace:
            from spans import CLI_SPAN, Recorder, per_layer_metrics

            rec = stack.enter_context(Recorder())
            cli_span = lambda: rec.span(CLI_SPAN)  # noqa: E731
        start = time.perf_counter()
        raw = workloads.run_unit(args.workload, params, output, cli_span)
        result["solve_s"] = time.perf_counter() - start
    if args.trace:
        rec.write_spans(args.out / "spans.csv")
        cache_info = _core_cache_info()
        result["per_layer"] = per_layer_metrics(rec, params, cache_info)
        result["trace_notes"] = {
            "absent": rec.absent,
            "spans_kept_dropped": rec.spans_recorded(),
            "core_cache_lookups": cache_info.hits + cache_info.misses if cache_info else 0,
        }
    result["peak_rss_mb"] = _peak_rss_mb()
    result["raw"] = raw
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
