"""Command-line interface: counts, paths, delta, contributing, moments,
boundary, simulate and compare subcommands with CSV/JSON output.

Exit codes: 0 success, 1 usage error, 2 numeric failure, 3 I/O error.
All commands are deterministic given their flags (and seed).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path as FilePath

import click

from heavymp import combinatorics, delta_graphs, moments, paths, simulation
from heavymp.simulation import _fmt


def _parse_path(text: str, flag: str) -> paths.Path:
    try:
        values = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise click.UsageError(f"{flag} must be comma-separated integers, got {text!r}")
    if not values or any(v < 1 for v in values):
        raise click.UsageError(f"{flag} must be positive integers, got {text!r}")
    return values


@click.group()
def cli() -> None:
    """Exact and Monte Carlo spectral moments for heavy-tailed correlation matrices."""


@cli.command()
@click.option("--kmax", type=click.IntRange(1, combinatorics.K_MAX), default=8, show_default=True)
def counts(kmax: int) -> None:
    """Partition/path counting table as CSV: k,r,B,B2,norun,C0,M."""
    click.echo("k,r,B,B2,norun,C0,M")
    for k in range(1, kmax + 1):
        for r in range(1, k + 1):
            click.echo(
                f"{k},{r},{combinatorics.stirling2(k, r)},"
                f"{combinatorics.stirling2_assoc(k, r)},"
                f"{combinatorics.count_norun_paths(k, r)},"
                f"{combinatorics.count_c0(k, r)},"
                f"{paths.count_irreducible(k, r)}"
            )


@cli.command(name="paths")
@click.option("--k", "k", type=click.IntRange(1, combinatorics.K_MAX), required=True)
@click.option("--r", "r", type=int, required=True)
@click.option("--class", "path_class", type=click.Choice(["c0", "c1", "c2"]), default=None)
def paths_cmd(k: int, r: int, path_class: str | None) -> None:
    """Print canonical r-paths of length k, one per line, comma-separated."""
    if not 1 <= r <= k:
        raise click.UsageError(f"--r must satisfy 1 <= r <= k={k}, got {r}")
    if path_class is None:
        stream = paths.enumerate_canonical_paths(k, r)
    else:
        stream = paths.enumerate_class(k, r, paths.PathClass(path_class))
    for path in stream:
        click.echo(",".join(map(str, path)))


@cli.command()
@click.option("--i", "i_text", required=True, help="Row path, e.g. 1,2,1,2")
@click.option("--t", "t_text", required=True, help="Column path, e.g. 1,1,1,1")
def delta(i_text: str, t_text: str) -> None:
    """Edge degrees and tree/parity flags of the bipartite path graph."""
    i_path = _parse_path(i_text, "--i")
    t_path = _parse_path(t_text, "--t")
    if len(i_path) != len(t_path):
        raise click.UsageError("--i and --t must have the same length")
    graph = delta_graphs.build_delta(i_path, t_path)
    click.echo("i,t,degree")
    for (i, t), d in graph.edge_degrees:
        click.echo(f"{i},{t},{d}")
    click.echo(f"# edges={graph.n_edges}")
    click.echo(f"# even={delta_graphs.is_even(graph)}")
    click.echo(f"# tree={delta_graphs.is_tree_skeleton(graph)}")


@cli.command()
@click.option("--i", "i_text", required=True, help="Irreducible canonical path, e.g. 1,2,1,2")
@click.option("--mode", type=click.Choice(["refine", "brute"]), default="refine", show_default=True)
def contributing(i_text: str, mode: str) -> None:
    """Contributing column-path levels and the stopping level t*."""
    i_path = _parse_path(i_text, "--i")
    try:
        sets = delta_graphs.contributing_sets(i_path, mode=mode)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    for s, level in enumerate(sets.levels, start=1):
        for t_path in level:
            click.echo(f"{s}:{','.join(map(str, t_path))}")
    click.echo(f"# t_star={sets.t_star}")


@cli.command(name="moments")
@click.option("--alpha", type=float, required=True)
@click.option("--gamma", type=float, required=True)
@click.option("--kmax", type=click.IntRange(1, combinatorics.K_MAX), default=6, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
def moments_cmd(alpha: float, gamma: float, kmax: int, fmt: str) -> None:
    """Exact limiting moments: k, beta_k, d_k, mu_k."""
    if not 0 < alpha < 2:
        raise click.UsageError(f"--alpha must lie in (0, 2), got {alpha}")
    if gamma <= 0:
        raise click.UsageError(f"--gamma must be positive, got {gamma}")
    table = moments.moment_table(alpha, gamma, kmax)
    if fmt == "csv":
        click.echo("k,beta_k,d_k,mu_k")
        for k in range(1, kmax + 1):
            click.echo(
                f"{k},{_fmt(table.beta[k - 1])},{_fmt(table.d[k - 1])},{_fmt(table.mu[k - 1])}"
            )
    else:
        payload = {
            "alpha": alpha,
            "gamma": gamma,
            "k_max": kmax,
            "beta": [float(_fmt(b)) for b in table.beta],
            "d": [float(_fmt(d)) for d in table.d],
            "mu": [float(_fmt(m)) for m in table.mu],
        }
        click.echo(json.dumps(payload, indent=2))


@cli.command()
@click.option("--gamma", type=float, required=True)
@click.option("--kmax", type=click.IntRange(1, combinatorics.K_MAX), default=6, show_default=True)
def boundary(gamma: float, kmax: int) -> None:
    """Small-tail-index boundary law: pmf and moments."""
    if gamma <= 0:
        raise click.UsageError(f"--gamma must be positive, got {gamma}")
    law = moments.boundary_modified_poisson(gamma)
    click.echo("j,pmf")
    for j in law.support(tail_tol=1e-12):
        click.echo(f"{j},{_fmt(law.pmf(j))}")
    click.echo("k,moment")
    for k in range(1, kmax + 1):
        click.echo(f"{k},{_fmt(law.moment(k))}")


def _parse_hist(text: str) -> tuple[int, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise click.UsageError(f"--hist must be BINS:LO:HI, got {text!r}")
    try:
        bins, lo, hi = int(parts[0]), float(parts[1]), float(parts[2])
    except ValueError:
        raise click.UsageError(f"--hist must be BINS:LO:HI, got {text!r}")
    if bins < 1 or hi <= lo:
        raise click.UsageError(f"--hist needs BINS >= 1 and LO < HI, got {text!r}")
    return bins, lo, hi


@cli.command()
@click.option("--p", type=int, required=True)
@click.option("--n", type=int, required=True)
@click.option("--dist", type=click.Choice(list(simulation.DISTRIBUTIONS)), required=True)
@click.option("--alpha", type=float, default=None)
@click.option("--k", "k_max", type=int, default=5, show_default=True)
@click.option("--replicates", type=int, default=50, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(path_type=FilePath), required=True)
@click.option("--threads", type=int, default=1, show_default=True)
@click.option("--hist", "hist_text", default=None, help="BINS:LO:HI pooled ESD histogram")
@click.option("--save-eigenvalues", is_flag=True, default=False)
def simulate(
    p: int,
    n: int,
    dist: str,
    alpha: float | None,
    k_max: int,
    replicates: int,
    seed: int,
    out: FilePath,
    threads: int,
    hist_text: str | None,
    save_eigenvalues: bool,
) -> None:
    """Simulate replicates and write moments.csv / summary.json to --out."""
    hist = _parse_hist(hist_text) if hist_text else None
    try:
        config = simulation.SimConfig(
            p=p,
            n=n,
            dist=dist,
            alpha=alpha,
            k_max=k_max,
            replicates=replicates,
            seed=seed,
            out_dir=out,
            threads=threads,
            hist=hist,
            save_eigenvalues=save_eigenvalues,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    report = simulation.run_experiment(config)
    for path in report.written:
        click.echo(f"wrote {path}")


@cli.command()
@click.option("--alpha", type=float, required=True, help="Tail index of the exact target")
@click.option("--gamma", type=float, default=None, help="Defaults to p/n")
@click.option("--kmax", type=click.IntRange(1, combinatorics.K_MAX), default=5, show_default=True)
@click.option("--p", type=int, default=500, show_default=True)
@click.option("--n", type=int, default=2500, show_default=True)
@click.option("--dist", type=click.Choice(list(simulation.DISTRIBUTIONS)), default="t", show_default=True)
@click.option("--replicates", type=int, default=50, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--threads", type=int, default=1, show_default=True)
@click.option("--z-threshold", type=float, default=4.0, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.pass_context
def compare(
    ctx: click.Context,
    alpha: float,
    gamma: float | None,
    kmax: int,
    p: int,
    n: int,
    dist: str,
    replicates: int,
    seed: int,
    threads: int,
    z_threshold: float,
    fmt: str,
) -> None:
    """Exact moments vs Monte Carlo means; exits non-zero if any |z| is large.

    Gaussian data are compared against the classical moments; heavy-tailed
    data against the heavy moments at the given tail index.
    """
    if not 0 < alpha < 2:
        raise click.UsageError(f"--alpha must lie in (0, 2), got {alpha}")
    g = gamma if gamma is not None else p / n
    if g <= 0:
        raise click.UsageError(f"--gamma must be positive, got {g}")
    sim_alpha = None if dist == "gaussian" else alpha
    try:
        config = simulation.SimConfig(
            p=p, n=n, dist=dist, alpha=sim_alpha, k_max=kmax,
            replicates=replicates, seed=seed, threads=threads,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    report = simulation.run_experiment(config)
    if dist == "gaussian":
        exact = [moments.mp_moment(g, k) for k in range(1, kmax + 1)]
    else:
        exact = [moments.heavy_mp_moment(alpha, g, k) for k in range(1, kmax + 1)]
    stderr = report.stderr_moments()
    rows = []
    worst = 0.0
    for k in range(1, kmax + 1):
        mean = report.mean_moments[k - 1]
        se = stderr[k - 1]
        z = (mean - exact[k - 1]) / se if se > 0 else 0.0
        worst = max(worst, abs(z))
        rows.append((k, exact[k - 1], mean, se, z))
    if fmt == "csv":
        click.echo("k,mu_exact,m_mean,stderr,z")
        for k, mu, mean, se, z in rows:
            click.echo(f"{k},{_fmt(mu)},{_fmt(mean)},{_fmt(se)},{_fmt(z)}")
    else:
        click.echo(
            json.dumps(
                [
                    {"k": k, "mu_exact": float(_fmt(mu)), "m_mean": float(_fmt(mean)),
                     "stderr": float(_fmt(se)), "z": float(_fmt(z))}
                    for k, mu, mean, se, z in rows
                ],
                indent=2,
            )
        )
    if worst > z_threshold:
        ctx.exit(2)


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except (click.UsageError, click.BadParameter) as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except click.Abort:
        return 1
    except (ArithmeticError, ValueError) as exc:
        click.echo(f"numeric error: {exc}", err=True)
        return 2
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
