"""Span recorder for the traced benchmark run.

The recorder wraps public functions of heavymp from the outside: it replaces
a name in the module namespace that calls it (``moments.shorten``,
``delta_graphs.build_delta``, ...) and puts the original back on exit.  Each
call, or each resume of a generator, is one span with a name, start, end,
parent and thread.  Aggregates (calls, total time, self time, items yielded)
are kept for every span; the spans themselves are kept in memory up to a cap
and written once, when the run ends.

Self time is a span's duration minus the part of it that its child spans
cover.  Children on the parent's own thread run one after another, so their
durations add up; children on other threads (pool workers, whose parent is
the innermost open span of the main thread) may overlap, so their union is
taken.  The two kinds are assumed not to overlap each other, which holds
while the main thread waits on its pool.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
from array import array
from pathlib import Path
from time import perf_counter

# (module whose namespace calls it, attribute, span name, kind).  ``call`` and
# ``gen`` make spans (one per call, one per generator resume); ``count`` only
# counts calls.  Layers are the part of the span name before the dot.
WRAPS = (
    ("paths", "restricted_growth_strings", "combinatorics.restricted_growth_strings", "gen"),
    ("combinatorics", "restricted_growth_strings", "combinatorics.restricted_growth_strings", "gen"),
    ("paths", "SetPartition", "combinatorics.SetPartition", "count"),
    ("delta_graphs", "SetPartition", "combinatorics.SetPartition", "count"),
    ("combinatorics", "SetPartition", "combinatorics.SetPartition", "count"),
    ("moments", "enumerate_canonical_paths", "paths.enumerate_canonical_paths", "gen"),
    ("delta_graphs", "enumerate_canonical_paths", "paths.enumerate_canonical_paths", "gen"),
    ("moments", "shorten", "paths.shorten", "call"),
    ("delta_graphs", "shorten", "paths.shorten", "call"),
    ("paths", "shorten", "paths.shorten", "call"),
    ("moments", "contributing_sets", "delta_graphs.contributing_sets", "call"),
    ("delta_graphs", "contributing_sets", "delta_graphs.contributing_sets", "call"),
    ("delta_graphs", "refine_candidates", "delta_graphs.refine_candidates", "gen"),
    ("delta_graphs", "build_delta", "delta_graphs.build_delta", "call"),
    ("moments", "build_delta", "delta_graphs.build_delta", "call"),
    ("moments", "limit_pF", "moments.limit_pF", "call"),
    ("moments", "heavy_mp_moment", "moments.heavy_mp_moment", "call"),
    ("moments", "heavy_tail_gap", "moments.heavy_tail_gap", "call"),
    ("moments", "moment_table", "moments.moment_table", "call"),
    ("simulation", "run_experiment", "simulation.run_experiment", "call"),
    ("simulation", "run_replicate", "simulation.run_replicate", "call"),
    ("simulation", "sample_matrix", "simulation.sample_matrix", "call"),
    ("simulation", "correlation_matrix", "simulation.correlation_matrix", "call"),
    ("simulation", "eigenvalues_sym", "simulation.eigenvalues_sym", "call"),
    ("simulation", "empirical_moments", "simulation.empirical_moments", "call"),
    ("simulation", "esd_histogram", "simulation.esd_histogram", "call"),
)
CLI_SPAN = "cli.main"
LAYERS = ("combinatorics", "paths", "delta_graphs", "moments", "simulation", "cli")
SPAN_CAP = 100_000

# open span: [name id, start, span id, same-thread child time, cross-thread
# child intervals or None, parent open span or None, parent on same thread,
# thread state]
_NAME, _START, _ID, _CHILD, _CROSS, _PARENT, _SAME, _STATE = range(8)


class _ThreadState:
    def __init__(self, index: int) -> None:
        self.index = index
        self.stack: list[list] = []
        # (name id, parent name id) -> [calls, total s, self s, items]
        self.agg: dict[tuple[int, int], list] = {}
        self.counts: dict[str, int] = {}


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Recorder:
    """Records spans; use ``with Recorder() as rec:`` to wrap and restore."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count()
        self._cap = cap = SPAN_CAP
        self._start = array("d", bytes(8 * cap))
        self._end = array("d", bytes(8 * cap))
        self._name = array("i", bytes(4 * cap))
        self._parent = array("q", bytes(8 * cap))
        self._thread = array("i", bytes(4 * cap))
        self._main = self._state()
        self._t0 = perf_counter()
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.cores: set = set()

    # -- span bookkeeping -------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._local.state = state
            return state

    def enter(self, nid: int) -> list:
        state = self._state()
        if state.stack:
            parent, same = state.stack[-1], True
        else:
            main_stack = self._main.stack
            parent, same = (main_stack[-1] if main_stack and state is not self._main else None), False
        span = [nid, 0.0, next(self._ids), 0.0, None, parent, same, state]
        state.stack.append(span)
        span[_START] = perf_counter()
        return span

    def exit(self, span: list, items: int = 0) -> None:
        end = perf_counter()
        state = span[_STATE]
        state.stack.pop()
        start = span[_START]
        duration = end - start
        covered = span[_CHILD]
        if span[_CROSS]:
            covered += _union_length(span[_CROSS], start, end)
        parent = span[_PARENT]
        key = (span[_NAME], -1 if parent is None else parent[_NAME])
        entry = state.agg.get(key)
        if entry is None:
            entry = state.agg[key] = [0, 0.0, 0.0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - covered
        entry[3] += items
        if parent is not None:
            if span[_SAME]:
                parent[_CHILD] += duration
            else:
                with self._lock:
                    if parent[_CROSS] is None:
                        parent[_CROSS] = []
                    parent[_CROSS].append((start, end))
        i = span[_ID]
        if i < self._cap:
            self._start[i] = start - self._t0
            self._end[i] = end - self._t0
            self._name[i] = span[_NAME]
            self._parent[i] = -1 if parent is None else parent[_ID]
            self._thread[i] = state.index

    def count(self, key: str, n: int = 1) -> None:
        counts = self._state().counts
        counts[key] = counts.get(key, 0) + n

    # -- wrapping -----------------------------------------------------------

    def _wrap_call(self, fn, nid: int, on_return=None):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(span)
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def _wrap_gen(self, fn, nid: int):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = None
            while True:
                span = enter(nid)
                try:
                    if it is None:
                        it = iter(fn(*args, **kwargs))
                    item = next(it)
                except StopIteration:
                    exit_(span)
                    return
                except BaseException:
                    exit_(span)
                    raise
                exit_(span, 1)
                yield item

        return traced

    def _wrap_count(self, fn, name: str):
        count = self.count

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            count(name)
            return fn(*args, **kwargs)

        return counted

    def _on_return(self, name: str):
        if name == "paths.shorten":
            cores = self.cores

            def note_core(result):
                core = getattr(result, "shortened", None)
                if core:
                    cores.add(core)

            return note_core
        if name == "delta_graphs.contributing_sets":
            count = self.count

            def note_levels(result):
                # level 1 is the all-ones path, added without a test
                levels = getattr(result, "levels", ())
                count("pairs_contributing", sum(len(level) for level in levels[1:]))

            return note_levels
        return None

    def install(self) -> None:
        for module_name, attr, name, kind in WRAPS:
            try:
                module = importlib.import_module(f"heavymp.{module_name}")
            except ModuleNotFoundError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            if kind == "count":
                wrapper = self._wrap_count(original, name)
            elif kind == "gen":
                wrapper = self._wrap_gen(original, self.name_id(name))
            else:
                wrapper = self._wrap_call(original, self.name_id(name), self._on_return(name))
            self._patched.append((module, attr, original))
            setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the benchmark's own call into a layer."""
        open_span = self.enter(self.name_id(name))
        try:
            yield
        finally:
            self.exit(open_span)

    # -- results ------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total, self and items, summed over threads and parents."""
        out: dict[str, dict[str, float]] = {}
        for state in self._states:
            for (nid, _pid), (calls, total, self_s, items) in list(state.agg.items()):
                t = out.setdefault(self.names[nid], {"calls": 0, "total": 0.0, "self": 0.0, "items": 0})
                t["calls"] += calls
                t["total"] += total
                t["self"] += self_s
                t["items"] += items
        return out

    def calls_under(self, name: str, parent: str) -> int:
        nid, pid = self._name_ids.get(name), self._name_ids.get(parent)
        return sum(
            entry[0]
            for state in self._states
            for (n, p), entry in list(state.agg.items())
            if n == nid and p == pid
        )

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for state in self._states:
            for key, n in list(state.counts.items()):
                out[key] = out.get(key, 0) + n
        return out

    def spans_recorded(self) -> tuple[int, int]:
        """(spans kept, spans dropped past the cap), counting closed spans."""
        made = sum(entry[0] for state in self._states for entry in list(state.agg.values()))
        kept = min(made, self._cap)
        return kept, made - kept

    def write_spans(self, path: Path) -> None:
        """Write the kept spans as CSV: id,name,thread,parent,start_s,end_s."""
        lines = ["id,name,thread,parent,start_s,end_s"]
        for i in range(self._cap):
            if self._end[i] > 0.0:
                lines.append(
                    f"{i},{self.names[self._name[i]]},{self._thread[i]},{self._parent[i]},"
                    f"{self._start[i]:.9f},{self._end[i]:.9f}"
                )
        path.write_text("\n".join(lines) + "\n")


# Per-layer metrics and their units.  ``moments.max_rel_err``,
# ``simulation.bytes_written`` and ``trace.overhead_s`` come from the parent,
# which checks the outputs and times an untraced unit as well.
UNITS = {
    "combinatorics.rgs_yielded": "count",
    "combinatorics.rgs_s": "s",
    "combinatorics.partitions_built": "count",
    "combinatorics.self_s": "s",
    "paths.shorten_calls": "count",
    "paths.shorten_s": "s",
    "paths.cores_distinct": "count",
    "paths.self_s": "s",
    "delta_graphs.contributing_sets_calls": "count",
    "delta_graphs.contributing_sets_self_s": "s",
    "delta_graphs.refine_yielded": "count",
    "delta_graphs.refine_s": "s",
    "delta_graphs.build_delta_calls": "count",
    "delta_graphs.build_delta_s": "s",
    "delta_graphs.pairs_tested": "count",
    "delta_graphs.pairs_contributing": "count",
    "delta_graphs.contrib_ratio": "ratio",
    "delta_graphs.self_s": "s",
    "moments.limit_pF_calls": "count",
    "moments.limit_pF_self_s": "s",
    "moments.core_cache_hit_ratio": "ratio",
    "moments.sum_self_s": "s",
    "moments.max_rel_err": "ratio",
    "moments.self_s": "s",
    "simulation.sample_s": "s",
    "simulation.gram_s": "s",
    "simulation.gram_gflop": "GFLOP",
    "simulation.eig_s": "s",
    "simulation.moments_s": "s",
    "simulation.run_experiment_self_s": "s",
    "simulation.bytes_written": "B",
    "simulation.busy_over_wall": "ratio",
    "simulation.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def per_layer_metrics(rec: Recorder, params: dict, cache_info) -> dict[str, float]:
    """The per-layer metrics one traced unit gives, by name."""
    t = rec.totals()
    counts = rec.counts()
    zero = {"calls": 0, "total": 0.0, "self": 0.0, "items": 0}

    def get(name: str) -> dict:
        return t.get(name, zero)

    pairs_tested = rec.calls_under("delta_graphs.build_delta", "delta_graphs.contributing_sets")
    pairs_contributing = counts.get("pairs_contributing", 0)
    lookups = cache_info.hits + cache_info.misses if cache_info is not None else 0
    gram_calls = get("simulation.correlation_matrix")["calls"]
    experiment = get("simulation.run_experiment")
    m = {
        "combinatorics.rgs_yielded": get("combinatorics.restricted_growth_strings")["items"],
        "combinatorics.rgs_s": get("combinatorics.restricted_growth_strings")["total"],
        "combinatorics.partitions_built": counts.get("combinatorics.SetPartition", 0),
        "paths.shorten_calls": get("paths.shorten")["calls"],
        "paths.shorten_s": get("paths.shorten")["total"],
        "paths.cores_distinct": len(rec.cores),
        "delta_graphs.contributing_sets_calls": get("delta_graphs.contributing_sets")["calls"],
        "delta_graphs.contributing_sets_self_s": get("delta_graphs.contributing_sets")["self"],
        "delta_graphs.refine_yielded": get("delta_graphs.refine_candidates")["items"],
        "delta_graphs.refine_s": get("delta_graphs.refine_candidates")["total"],
        "delta_graphs.build_delta_calls": get("delta_graphs.build_delta")["calls"],
        "delta_graphs.build_delta_s": get("delta_graphs.build_delta")["total"],
        "delta_graphs.pairs_tested": pairs_tested,
        "delta_graphs.pairs_contributing": pairs_contributing,
        "delta_graphs.contrib_ratio": pairs_contributing / pairs_tested if pairs_tested else 0.0,
        "moments.limit_pF_calls": get("moments.limit_pF")["calls"],
        "moments.limit_pF_self_s": get("moments.limit_pF")["self"],
        "moments.core_cache_hit_ratio": cache_info.hits / lookups if lookups else 0.0,
        "moments.sum_self_s": get("moments.heavy_mp_moment")["self"],
        "simulation.sample_s": get("simulation.sample_matrix")["total"],
        "simulation.gram_s": get("simulation.correlation_matrix")["total"],
        # computed from the shapes, 2 p^2 n per product, not measured
        "simulation.gram_gflop": 2.0 * params.get("p", 0) ** 2 * params.get("n", 0) * gram_calls / 1e9,
        "simulation.eig_s": get("simulation.eigenvalues_sym")["total"],
        "simulation.moments_s": get("simulation.empirical_moments")["total"],
        "simulation.run_experiment_self_s": experiment["self"],
        "simulation.busy_over_wall": (
            get("simulation.run_replicate")["total"] / experiment["total"] if experiment["total"] else 0.0
        ),
        "cli.self_s": get(CLI_SPAN)["self"],
    }
    for layer in LAYERS[:-1]:
        m[f"{layer}.self_s"] = sum((v["self"] for k, v in t.items() if k.split(".")[0] == layer), 0.0)
    return m
