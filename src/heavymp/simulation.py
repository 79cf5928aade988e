"""Monte Carlo engine for spectra of sample correlation matrices.

Samples heavy-tailed (or Gaussian control) data matrices, forms the
row-self-normalized correlation matrix R = Y Y', computes its spectrum and
empirical moments, and aggregates replicates reproducibly: replicate j draws
from a stream spawned from the master seed, so results are independent of
how replicates are scheduled.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path as FilePath

import numpy as np

DISTRIBUTIONS = ("t", "pareto", "gaussian")


def _replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(replicate,)))


def sample_matrix(
    p: int, n: int, dist: str, seed: int, alpha: float | None = None, replicate: int = 0
) -> np.ndarray:
    """Draw a p x n matrix of iid symmetric entries.

    ``t`` and ``pareto`` require a tail index alpha in (0, 2) and sample the
    exact laws (Student t with alpha degrees of freedom; sign * U^(-1/alpha))
    with no tail truncation.  ``gaussian`` is the light-tailed control.
    """
    if p < 1 or n < 1:
        raise ValueError(f"p and n must be >= 1, got p={p}, n={n}")
    if dist not in DISTRIBUTIONS:
        raise ValueError(f"dist must be one of {DISTRIBUTIONS}, got {dist!r}")
    rng = _replicate_rng(seed, replicate)
    if dist == "gaussian":
        return rng.standard_normal((p, n))
    if alpha is None or not 0.0 < alpha < 2.0:
        raise ValueError(f"{dist} sampling needs alpha in (0, 2), got {alpha}")
    if dist == "t":
        return rng.standard_t(alpha, size=(p, n))
    signs = rng.choice([-1.0, 1.0], size=(p, n))
    u = rng.random((p, n))
    return signs * u ** (-1.0 / alpha)


def correlation_matrix(data: np.ndarray) -> np.ndarray:
    """R = Y Y' with rows of the data normalized to unit Euclidean norm."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {data.shape}")
    norms = np.linalg.norm(data, axis=1)
    zero_rows = np.flatnonzero(norms == 0.0)
    if zero_rows.size:
        raise ValueError(f"row {zero_rows[0]} is identically zero; cannot normalize")
    y = data / norms[:, None]
    return y @ y.T


def eigenvalues_sym(matrix: np.ndarray) -> np.ndarray:
    """Ascending spectrum of a symmetric matrix."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    if not np.allclose(matrix, matrix.T, atol=1e-10 * max(1.0, np.abs(matrix).max())):
        raise ValueError("matrix is not symmetric")
    try:
        return np.linalg.eigvalsh(matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ArithmeticError(f"eigensolver failed on {matrix.shape} matrix: {exc}") from exc


def empirical_moments(eigenvalues: np.ndarray, k_max: int) -> np.ndarray:
    """m_k = p^-1 sum lambda_i^k for k = 1..k_max."""
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    powers = eigenvalues[:, None] ** np.arange(1, k_max + 1)[None, :]
    return powers.mean(axis=0)


def esd_histogram(
    eigenvalues: np.ndarray, bins: int, lo: float, hi: float
) -> tuple[np.ndarray, np.ndarray]:
    """Normalized histogram of the spectrum (integrates to 1 over [lo, hi])."""
    densities, edges = np.histogram(eigenvalues, bins=bins, range=(lo, hi), density=True)
    return densities, edges


@dataclass(frozen=True)
class SpectralSample:
    """One simulated replicate: spectrum and empirical moments."""

    p: int
    n: int
    dist: str
    alpha: float | None
    seed: int
    replicate: int
    eigenvalues: np.ndarray
    moments: np.ndarray


@dataclass(frozen=True)
class SimConfig:
    p: int
    n: int
    dist: str
    alpha: float | None
    k_max: int
    replicates: int
    seed: int
    out_dir: FilePath | None = None
    threads: int = 1
    hist: tuple[int, float, float] | None = None  # (bins, lo, hi)
    save_eigenvalues: bool = False

    def __post_init__(self) -> None:
        if self.p < 1 or self.n < 1:
            raise ValueError(f"p and n must be >= 1, got p={self.p}, n={self.n}")
        if self.dist not in DISTRIBUTIONS:
            raise ValueError(f"dist must be one of {DISTRIBUTIONS}, got {self.dist!r}")
        if self.dist != "gaussian" and (self.alpha is None or not 0 < self.alpha < 2):
            raise ValueError(f"{self.dist} sampling needs alpha in (0, 2), got {self.alpha}")
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")


@dataclass(frozen=True)
class ExperimentReport:
    config: SimConfig
    samples: tuple[SpectralSample, ...]
    mean_moments: np.ndarray
    std_moments: np.ndarray
    hist_densities: np.ndarray | None = None
    hist_edges: np.ndarray | None = None
    written: tuple[FilePath, ...] = field(default_factory=tuple)

    def stderr_moments(self) -> np.ndarray:
        return self.std_moments / np.sqrt(len(self.samples))


def run_replicate(config: SimConfig, replicate: int) -> SpectralSample:
    data = sample_matrix(
        config.p, config.n, config.dist, config.seed, alpha=config.alpha, replicate=replicate
    )
    corr = correlation_matrix(data)
    eigenvalues = eigenvalues_sym(corr)
    return SpectralSample(
        p=config.p,
        n=config.n,
        dist=config.dist,
        alpha=config.alpha,
        seed=config.seed,
        replicate=replicate,
        eigenvalues=eigenvalues,
        moments=empirical_moments(eigenvalues, config.k_max),
    )


def run_experiment(config: SimConfig) -> ExperimentReport:
    """Run all replicates and aggregate in replicate-index order.

    Replicates are independent streams, so thread count affects runtime only;
    aggregation order and therefore all floating-point results are fixed.
    """
    indices = range(config.replicates)
    if config.threads == 1:
        samples = tuple(run_replicate(config, j) for j in indices)
    else:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            samples = tuple(pool.map(lambda j: run_replicate(config, j), indices))
    moments = np.vstack([s.moments for s in samples])
    mean = moments.mean(axis=0)
    std = moments.std(axis=0, ddof=1) if len(samples) > 1 else np.zeros_like(mean)

    hist_densities = hist_edges = None
    if config.hist is not None:
        bins, lo, hi = config.hist
        pooled = np.concatenate([s.eigenvalues for s in samples])
        hist_densities, hist_edges = esd_histogram(pooled, bins, lo, hi)

    written: tuple[FilePath, ...] = ()
    report = ExperimentReport(config, samples, mean, std, hist_densities, hist_edges, written)
    if config.out_dir is not None:
        report = _write_report(report)
    return report


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_report(report: ExperimentReport) -> ExperimentReport:
    config = report.config
    out_dir = FilePath(config.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        written: list[FilePath] = []

        moments_path = out_dir / "moments.csv"
        header = "replicate," + ",".join(f"m{k}" for k in range(1, config.k_max + 1))
        lines = [header]
        for s in report.samples:
            lines.append(f"{s.replicate}," + ",".join(_fmt(m) for m in s.moments))
        moments_path.write_text("\n".join(lines) + "\n")
        written.append(moments_path)

        summary = {
            "p": config.p,
            "n": config.n,
            "dist": config.dist,
            "alpha": config.alpha,
            "k_max": config.k_max,
            "replicates": config.replicates,
            "seed": config.seed,
            "mean_moments": [float(_fmt(m)) for m in report.mean_moments],
            "std_moments": [float(_fmt(m)) for m in report.std_moments],
        }
        summary_path = out_dir / "summary.json"
        summary_path.write_text(json.dumps(summary, indent=2) + "\n")
        written.append(summary_path)

        if config.save_eigenvalues:
            for s in report.samples:
                path = out_dir / f"eigenvalues_{s.replicate}.csv"
                path.write_text("\n".join(_fmt(v) for v in s.eigenvalues) + "\n")
                written.append(path)

        if report.hist_densities is not None:
            hist_path = out_dir / "hist.csv"
            rows = ["bin_lo,bin_hi,density"]
            edges = report.hist_edges
            for i, d in enumerate(report.hist_densities):
                rows.append(f"{_fmt(edges[i])},{_fmt(edges[i + 1])},{_fmt(d)}")
            hist_path.write_text("\n".join(rows) + "\n")
            written.append(hist_path)
    except OSError as exc:
        raise OSError(f"failed writing experiment output under {out_dir}: {exc}") from exc

    return replace(report, written=tuple(written))


def self_normalized_fourth_moment(
    alpha: float, n: int, rows: int, seed: int, dist: str = "pareto", chunk_rows: int = 500
) -> float:
    """Monte Carlo estimate of n * E[Y^4] for row-self-normalized entries.

    Averages Y^4 over all entries of ``rows`` independent rows of length n
    (per-row averages are far less noisy than the first entry alone, and the
    expectation is the same by exchangeability).
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    total = 0.0
    done = 0
    while done < rows:
        m = min(chunk_rows, rows - done)
        # signs drop out after squaring, so sample X^2 only
        if dist == "t":
            x2 = rng.standard_t(alpha, size=(m, n)) ** 2
        elif dist == "pareto":
            x2 = rng.random((m, n)) ** (-2.0 / alpha)
        else:
            raise ValueError(f"dist must be 't' or 'pareto', got {dist!r}")
        # per row, sum Y^4 = sum X^4 / (sum X^2)^2
        s = x2.sum(axis=1)
        total += (np.einsum("ij,ij->i", x2, x2) / (s * s)).sum()
        done += m
    return total / rows
