"""Command-line interface: counts, paths, delta, contributing, moments,
boundary, simulate and compare subcommands with CSV/JSON output.

Exit codes: 0 success, 1 a rejected argument, 2 numeric failure, 3 I/O error.
The engines check their own arguments: ``main`` maps the ValueError of a
rejected argument to 1, an ArithmeticError to 2 and an OSError to 3.  The
CLI repeats only some integer bounds, as argparse ranges: ``--kmax`` of
``moments`` and ``compare``, ``paths --k`` and ``compare --p`` and ``--n``
repeat checks of ``moment_table``, ``enumerate_canonical_paths`` and
``SimConfig``, so that argparse's usage message names the flag, as in
``argument --kmax: 0 is not in the range 1<=x<=40``.  The parser raises its
usage errors as ValueErrors too, so they exit 1, not with argparse's 2.  All commands are
deterministic given their flags (and seed).  The run flags of ``simulate``
and ``compare`` are ``simulation.SimConfig``'s fields, passed to it as parsed,
--alpha and --threads included: SimConfig alone checks that t and pareto data
have an alpha in (0, 2) and gaussian data none, and without --threads the
engine picks the replicate thread count.  ``compare`` reads its exact target
at gamma = p/n, the simulated ratio, and z = (mean - exact) / stderr; when
every replicate gives the same m_k, z is 0 if the mean is exact and +-inf otherwise.

The engines write no file: this module formats every output, floats in 17
significant digits, which round-trip a float64.  ``simulate`` writes its
files under --out only once every replicate is done, so a rejected argument
or a numeric failure leaves no --out behind.

The parser is built once, at import, on the standard library's argparse, so
a call only parses.  Only ``simulate`` and ``compare`` import the Monte Carlo
engine, and with it numpy; only ``paths``, ``delta`` and ``contributing``
import ``heavymp.paths``, the last two through ``delta_graphs``.  ``moments``
loads none of them.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path as FilePath
from typing import Callable, NoReturn

from heavymp import combinatorics, moments
from heavymp._common import DISTRIBUTIONS


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_path(text: str, flag: str) -> tuple[int, ...]:
    try:
        values = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated integers, got {text!r}") from None
    if not values or any(v < 1 for v in values):
        raise ValueError(f"{flag} must be positive integers, got {text!r}")
    return values


def counts(kmax: int) -> None:
    """Partition/path counting table as CSV: k,r,B,B2,norun,C0,M."""
    print("k,r,B,B2,norun,C0,M")
    for k in range(1, kmax + 1):
        for r in range(1, k + 1):
            print(
                f"{k},{r},{combinatorics.stirling2(k, r)},"
                f"{combinatorics.stirling2_assoc(k, r)},"
                f"{combinatorics.count_norun_paths(k, r)},"
                f"{combinatorics.count_c0(k, r)},"
                f"{combinatorics.count_irreducible(k, r)}"
            )


def paths_cmd(k: int, r: int, path_class: str | None) -> None:
    """Print canonical r-paths of length k, one per line, comma-separated."""
    from heavymp import paths

    if path_class is None:
        stream = paths.enumerate_canonical_paths(k, r)
    else:
        stream = paths.enumerate_class(k, r, paths.PathClass(path_class))
    for path in stream:
        print(",".join(map(str, path)))


def delta(i_text: str, t_text: str) -> None:
    """Edge degrees and tree/parity flags of the bipartite path graph."""
    from heavymp import delta_graphs

    i_path = _parse_path(i_text, "--i")
    t_path = _parse_path(t_text, "--t")
    degrees = delta_graphs.build_delta(i_path, t_path)
    print("i,t,degree")
    for (i, t), d in degrees.items():
        print(f"{i},{t},{d}")
    print(f"# edges={len(degrees)}")
    print(f"# even={delta_graphs.is_even(degrees)}")
    print(f"# tree={delta_graphs.is_tree_skeleton(degrees)}")


def contributing(i_text: str) -> None:
    """Contributing column-path levels and the stopping level t*."""
    from heavymp import delta_graphs

    i_path = _parse_path(i_text, "--i")
    levels = delta_graphs.contributing_sets(i_path)
    for s, level in enumerate(levels, start=1):
        for t_path in level:
            print(f"{s}:{','.join(map(str, t_path))}")
    print(f"# t_star={len(levels)}")


def moments_cmd(alpha: float, gamma: float, kmax: int, fmt: str) -> None:
    """Exact limiting moments: k, beta_k, d_k, mu_k."""
    table = moments.moment_table(alpha, gamma, kmax)
    if fmt == "csv":
        print("k,beta_k,d_k,mu_k")
        for k in range(1, kmax + 1):
            print(f"{k},{_fmt(table.beta[k - 1])},{_fmt(table.d[k - 1])},{_fmt(table.mu[k - 1])}")
    else:
        payload = {
            "alpha": alpha,
            "gamma": gamma,
            "k_max": kmax,
            "beta": [float(b) for b in table.beta],
            "d": [float(d) for d in table.d],
            "mu": [float(m) for m in table.mu],
        }
        print(json.dumps(payload, indent=2))


def boundary(gamma: float, kmax: int) -> None:
    """Small-tail-index boundary law: pmf and moments."""
    law = moments.boundary_modified_poisson(gamma)
    support = law.support()
    print("j,pmf")
    for j in support:
        print(f"{j},{_fmt(law.pmf(j))}")
    print("k,moment")
    for k in range(1, kmax + 1):
        print(f"{k},{_fmt(law.moment(k))}")


def _parse_hist(text: str) -> tuple[int, float, float]:
    try:
        bins, lo, hi = text.split(":")
        bins, lo, hi = int(bins), float(lo), float(hi)
    except ValueError:
        raise ValueError(f"--hist must be BINS:LO:HI, got {text!r}") from None
    if bins < 1 or not -math.inf < lo < hi < math.inf:
        raise ValueError(f"hist needs BINS >= 1 and finite LO < HI, got {bins}:{lo}:{hi}")
    return bins, lo, hi


def simulate(out: FilePath, hist_text: str | None, save_eigenvalues: bool, **flags) -> None:
    """Simulate replicates and write moments.csv / summary.json to --out."""
    import numpy as np

    from heavymp import simulation

    hist = None if hist_text is None else _parse_hist(hist_text)
    config = simulation.SimConfig(**flags, spectrum=hist is not None or save_eigenvalues)
    report = simulation.run_experiment(config)
    written = []

    def write(name: str, lines) -> None:
        path = out / name
        path.write_text("\n".join(lines) + "\n")
        written.append(path)

    try:
        out.mkdir(parents=True, exist_ok=True)
        header = "replicate," + ",".join(f"m{k}" for k in range(1, config.k_max + 1))
        write("moments.csv", [header] + [
            f"{j}," + ",".join(map(_fmt, row)) for j, row in enumerate(report.moments)
        ])
        # keys in the order the parser adds the flags
        summary = {key: value for key, value in flags.items() if key != "threads"}
        summary["mean_moments"] = report.mean_moments.tolist()
        summary["std_moments"] = report.std_moments.tolist()
        write("summary.json", [json.dumps(summary, indent=2)])
        if save_eigenvalues:
            for j, spectrum in enumerate(report.spectra):
                write(f"eigenvalues_{j}.csv", map(_fmt, spectrum))
        if hist is not None:
            bins, lo, hi = hist
            densities, edges = np.histogram(report.spectra, bins=bins, range=(lo, hi), density=True)
            write("hist.csv", ["bin_lo,bin_hi,density"] + [
                f"{_fmt(a)},{_fmt(b)},{_fmt(d)}" for a, b, d in zip(edges, edges[1:], densities)
            ])
    except OSError as exc:
        raise OSError(f"failed writing experiment output under {out}: {exc}") from exc
    for path in written:
        print(f"wrote {path}")


def compare(z_threshold: float, fmt: str, **flags) -> int:
    """Exact moments vs Monte Carlo means; exits non-zero if any |z| is large.

    Gaussian data are compared against the classical moments; heavy-tailed
    data against the heavy moments at the given tail index.
    """
    from heavymp import simulation

    if not z_threshold >= 0:  # no |z| exceeds a NaN, so NaN would pass every run
        raise ValueError(f"--z-threshold must be >= 0, got {z_threshold}")
    config = simulation.SimConfig(**flags)
    gamma = config.p / config.n
    if config.alpha is None:
        exact = [moments.mp_moment(gamma, k) for k in range(1, config.k_max + 1)]
    else:
        exact = moments.moment_table(config.alpha, gamma, config.k_max).mu
    report = simulation.run_experiment(config)
    stderr = report.stderr_moments()
    rows = []
    worst = 0.0
    for k in range(1, config.k_max + 1):
        mean = report.mean_moments[k - 1]
        se = stderr[k - 1]
        gap = mean - exact[k - 1]
        # with no spread a mean off the exact value is infinitely many stderrs off
        z = gap / se if se > 0 else math.copysign(math.inf, gap) if gap else 0.0
        worst = max(worst, abs(z))
        rows.append((k, exact[k - 1], mean, se, z))
    if fmt == "csv":
        print("k,mu_exact,m_mean,stderr,z")
        for k, mu, mean, se, z in rows:
            print(f"{k},{_fmt(mu)},{_fmt(mean)},{_fmt(se)},{_fmt(z)}")
    else:
        print(
            json.dumps(
                [
                    {"k": k, "mu_exact": float(mu), "m_mean": float(mean),
                     "stderr": float(se), "z": float(z)}
                    for k, mu, mean, se, z in rows
                ],
                indent=2,
            )
        )
    return 2 if worst > z_threshold else 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are ValueErrors, for ``main`` to map."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


def _int_range(lo: int, hi: int | None = None) -> Callable[[str], int]:
    """Argument type of an int in [lo, hi], or at least lo without hi."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo or hi is not None and value > hi:
            bounds = f"x>={lo}" if hi is None else f"{lo}<=x<={hi}"
            raise argparse.ArgumentTypeError(f"{value} is not in the range {bounds}")
        return value

    parse.__name__ = "int"  # a non-integer reads "invalid int value"
    return parse


_DEFAULT = " (default: %(default)s)"
_THREADS_HELP = "replicate threads (default: usable cores up to --replicates)"


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="heavymp",
        description="Exact and Monte Carlo spectral moments for heavy-tailed correlation matrices.",
    )
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name: str, run: Callable[..., int | None]) -> Callable[..., object]:
        """Add the subcommand ``name`` that calls ``run``; return its add_argument."""
        doc = run.__doc__
        sub = commands.add_parser(name, help=doc.splitlines()[0], description=doc, allow_abbrev=False)
        sub.set_defaults(run=run)
        return sub.add_argument

    k_cap, moment_cap = combinatorics.K_MAX, moments.MOMENT_K_MAX
    add = command("counts", counts)
    add("--kmax", type=_int_range(1, moment_cap), default=8,
        help=f"largest k, 1 to {moment_cap}" + _DEFAULT)

    add = command("paths", paths_cmd)
    add("--k", type=_int_range(1, k_cap), required=True, help=f"path length, 1 to {k_cap}")
    add("--r", type=int, required=True, help="number of distinct labels, 1 to k")
    add("--class", dest="path_class", choices=["c0", "c1", "c2"], default=None,
        help="only the paths of this class")

    add = command("delta", delta)
    add("--i", dest="i_text", required=True, help="Row path, e.g. 1,2,1,2")
    add("--t", dest="t_text", required=True, help="Column path, e.g. 1,1,1,1")

    add = command("contributing", contributing)
    add("--i", dest="i_text", required=True, help="Irreducible canonical path, e.g. 1,2,1,2")

    add = command("moments", moments_cmd)
    add("--alpha", type=float, required=True, help="tail index in (0, 2)")
    add("--gamma", type=float, required=True, help="ratio p/n, finite and positive")
    add("--kmax", type=_int_range(1, moment_cap), default=6,
        help=f"largest k, 1 to {moment_cap}" + _DEFAULT)
    add("--format", dest="fmt", choices=["csv", "json"], default="csv", help="output" + _DEFAULT)

    add = command("boundary", boundary)
    add("--gamma", type=float, required=True, help="ratio p/n, finite and positive")
    add("--kmax", type=_int_range(1, moment_cap), default=6,
        help=f"largest order, 1 to {moment_cap}" + _DEFAULT)

    add = command("simulate", simulate)
    add("--p", type=int, required=True, help="rows")
    add("--n", type=int, required=True, help="columns")
    add("--dist", choices=DISTRIBUTIONS, required=True, help="entry distribution")
    add("--alpha", type=float, default=None, help="tail index in (0, 2), for t and pareto")
    add("--k", dest="k_max", type=int, default=5, help="largest moment order" + _DEFAULT)
    add("--replicates", type=int, default=50, help="replicates" + _DEFAULT)
    add("--seed", type=int, default=0, help="master seed" + _DEFAULT)
    add("--out", type=FilePath, required=True, help="output directory")
    add("--threads", type=int, default=None, help=_THREADS_HELP)
    add("--hist", dest="hist_text", default=None, help="BINS:LO:HI pooled ESD histogram")
    add("--save-eigenvalues", action="store_true", help="write each replicate's spectrum")

    add = command("compare", compare)
    add("--alpha", type=float, default=None, help="tail index in (0, 2), for t and pareto")
    add("--kmax", dest="k_max", metavar="KMAX", type=_int_range(1, moment_cap), default=5,
        help=f"largest k, 1 to {moment_cap}" + _DEFAULT)
    add("--p", type=_int_range(1), default=500, help="rows, at least 1" + _DEFAULT)
    add("--n", type=_int_range(1), default=2500, help="columns, at least 1" + _DEFAULT)
    add("--dist", choices=DISTRIBUTIONS, default="t", help="entry distribution" + _DEFAULT)
    add("--replicates", type=_int_range(2), default=50, help="replicates, at least 2" + _DEFAULT)
    add("--seed", type=int, default=0, help="master seed" + _DEFAULT)
    add("--threads", type=int, default=None, help=_THREADS_HELP)
    add("--z-threshold", type=float, default=4.0, help="largest |z| that passes" + _DEFAULT)
    add("--format", dest="fmt", choices=["csv", "json"], default="csv", help="output" + _DEFAULT)
    return parser


PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        args = vars(PARSER.parse_args(argv))
        return args.pop("run")(**args) or 0
    except SystemExit as exc:  # --help
        return exc.code
    except KeyboardInterrupt:
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
