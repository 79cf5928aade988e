"""Monte Carlo engine for spectra of sample correlation matrices.

Samples heavy-tailed (or Gaussian control) data matrices, forms the
row-self-normalized correlation matrix R = Y Y', computes its empirical
moments (from the spectrum, or from traces of matrix powers when no spectrum
is needed), and aggregates replicates reproducibly: replicate j draws from a
stream spawned from the master seed, so results are independent of how
replicates are scheduled.

A moments-only run does all its BLAS on one OpenBLAS thread: the replicate
pool supplies the parallelism, and the Gram product's last bits, which the
moments show, would otherwise depend on the BLAS thread count.  Runs that
need a spectrum leave BLAS at its default, where ``eigvalsh`` is faster.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path as FilePath

import numpy as np

from heavymp._common import DISTRIBUTIONS, _fmt

# Below this k_max a replicate that needs no spectrum takes its moments from
# matrix products instead of eigvalsh: at p=1000 on one thread the products
# take 0.06 s for k_max=5 and 0.09 s for k_max=8, against 0.11 s for eigvalsh
# plus moments.  Both costs grow as p^3, so the cut does not depend on p.
TRACE_K_CUT = 9

# Rows of t draws formed at once by ``_student_t``: 32 rows hold 1.3 MB at
# n=5000, so a block's ufunc passes run in cache and its scratch is small
# beside the p x n output.
_T_BLOCK_ROWS = 32

# Rows drawn at once by ``self_normalized_fourth_moment``: 500 rows of 10^4
# draws hold 40 MB.
FOURTH_MOMENT_CHUNK_ROWS = 500


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
        return _student_t(rng, alpha, (p, n))
    return _pareto(rng, alpha, (p, n))


def _student_t(rng: np.random.Generator, alpha: float, shape: tuple[int, int]) -> np.ndarray:
    """Student t with alpha degrees of freedom, by Bailey's polar method.

    t = sqrt(alpha (W^(-2/alpha) - 1)) sin 2phi with W uniform on (0, 1] and
    phi uniform on (-pi/4, pi/4) is exactly t(alpha) (R. W. Bailey, "Polar
    generation of random variates with the t-distribution", Math. Comp. 62
    (1994) 779-781): W is the squared radius of a point uniform on the unit
    disc, and sin 2phi has the law of the cosine of its angle.  No gamma or
    normal draw is needed.  W^(-2/alpha) - 1 is formed as
    expm1(-(2/alpha) log W), exact near W = 1, and sin 2phi as
    2 tan(phi) / (1 + tan^2(phi)), since numpy's float64 ``tan`` is several
    times faster than its ``sin`` and ``cos``.  The output is filled in place
    ``_T_BLOCK_ROWS`` rows at a time, each block's W uniforms before its phi
    uniforms, so only one scratch block is alive beside the output.
    """
    out = np.empty(shape)
    scratch = np.empty((min(_T_BLOCK_ROWS, shape[0]), shape[1]))
    for start in range(0, shape[0], _T_BLOCK_ROWS):
        t = out[start : start + _T_BLOCK_ROWS]
        tan = scratch[: t.shape[0]]
        rng.random(out=t)
        np.subtract(1.0, t, out=t)
        np.log(t, out=t)
        t *= -2.0 / alpha
        np.expm1(t, out=t)
        t *= 4.0 * alpha  # the factor 2 of sin 2phi, squared under the root
        np.sqrt(t, out=t)
        rng.random(out=tan)
        tan -= 0.5
        tan *= np.pi / 2
        np.tan(tan, out=tan)
        t *= tan
        np.multiply(tan, tan, out=tan)
        tan += 1.0
        t /= tan
    return out


def _pareto(rng: np.random.Generator, alpha: float, shape: tuple[int, int]) -> np.ndarray:
    """sign * U^(-1/alpha), U uniform on (0, 1], sign from the top bit of a random byte."""
    x = rng.random(shape)
    np.subtract(1.0, x, out=x)
    x **= -1.0 / alpha
    signs = rng.integers(-128, 128, size=shape, dtype=np.int8)
    return np.copysign(x, signs, out=x)


def correlation_matrix(data: np.ndarray) -> np.ndarray:
    """R = Y Y' with rows of the data normalized to unit Euclidean norm.

    R is the Gram matrix G = X X' scaled by 1 / (|x_i| |x_j|).  BLAS forms
    X X' as a symmetric rank-k update, so R is exactly symmetric; its
    diagonal is set to exactly 1.
    """
    data = np.ascontiguousarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {data.shape}")
    gram = data @ data.T
    sq_norms = np.diag(gram).copy()
    bad_rows = np.flatnonzero(~np.isfinite(sq_norms))
    if bad_rows.size:
        row = bad_rows[0]
        raise ArithmeticError(
            f"row {row} has squared norm {sq_norms[row]}: the entries overflow float64"
        )
    zero_rows = np.flatnonzero(sq_norms == 0.0)
    if zero_rows.size:
        raise ValueError(f"row {zero_rows[0]} is identically zero; cannot normalize")
    norms = np.sqrt(sq_norms)
    gram /= np.outer(norms, norms)
    np.fill_diagonal(gram, 1.0)
    return gram


def trace_moments(corr: np.ndarray, k_max: int) -> np.ndarray:
    """m_k = tr(R^k) / p for k = 1..k_max, without the spectrum.

    m_k = <R^(k-b), R^b> / p in the Frobenius inner product, with b the
    largest formed power below k.  Below k_max = 7 the formed powers are
    R^2 and R^4 = R^2 (R^2)', as far as needed, each a P P' that BLAS
    computes as a symmetric rank-k update at half the cost of a general
    product, so m_5 = <R, R^4> and m_6 = <R^2, R^4>; from k_max = 7 on they
    are R^2..R^ceil(k_max/2).
    """
    p = corr.shape[0]
    powers = {1: corr}
    for j in (2, 4)[: (k_max - 1) // 2] if k_max < 7 else range(2, (k_max + 1) // 2 + 1):
        half = powers[j // 2]
        powers[j] = half @ half.T if j % 2 == 0 else powers[j - 1] @ corr
    moments = np.empty(k_max)
    moments[0] = np.trace(corr) / p
    for k in range(2, k_max + 1):
        b = max(j for j in powers if j < k)
        moments[k - 1] = np.einsum("ij,ij->", powers[k - b], powers[b]) / p
    return moments


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
    """One simulated replicate: empirical moments and, when computed, the spectrum.

    ``eigenvalues`` is the ascending spectrum when ``SimConfig.needs_spectrum``;
    otherwise the moments come from ``trace_moments`` and ``eigenvalues`` is
    None.
    """

    replicate: int
    eigenvalues: np.ndarray | None
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
        if self.hist is not None:
            bins, lo, hi = self.hist
            if bins < 1 or not -math.inf < lo < hi < math.inf:
                raise ValueError(f"hist needs BINS >= 1 and finite LO < HI, got {bins}:{lo}:{hi}")

    @property
    def needs_spectrum(self) -> bool:
        """A histogram, saved eigenvalues or k_max >= TRACE_K_CUT need eigvalsh."""
        return self.hist is not None or self.save_eigenvalues or self.k_max >= TRACE_K_CUT


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
    try:
        corr = correlation_matrix(data)
    except ArithmeticError as exc:
        raise ArithmeticError(
            f"{config.dist} draws with alpha={config.alpha}, replicate {replicate}: {exc}"
        ) from exc
    del data
    eigenvalues = None
    if config.needs_spectrum:
        try:
            eigenvalues = np.linalg.eigvalsh(corr)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise ArithmeticError(f"eigensolver failed on replicate {replicate}: {exc}") from exc
        moments = empirical_moments(eigenvalues, config.k_max)
    else:
        moments = trace_moments(corr, config.k_max)
    return SpectralSample(replicate=replicate, eigenvalues=eigenvalues, moments=moments)


@functools.cache
def _blas_thread_setter():
    """OpenBLAS's ``openblas_set_num_threads_local``, or None when numpy has no such BLAS.

    dlsym on numpy's core extension also searches the libraries it links, so
    this finds the OpenBLAS that numpy bundles; MKL, Accelerate, numpy 1.x
    and OpenBLAS < 0.3.27 give None.  The lookup relies on the bundled
    ``libscipy_openblas64_`` exporting this one function under its plain
    name (its other thread functions carry the ``scipy_openblas`` prefix and
    ``64_`` suffix); a build that mangles it too gives None, which the tests
    report as a failure when numpy names a bundled OpenBLAS.  The setter
    returns the previous thread count and, despite its name, sets the count
    for the whole process.
    """
    try:
        setter = ctypes.CDLL(np._core._multiarray_umath.__file__).openblas_set_num_threads_local
    except (AttributeError, OSError):
        return None
    setter.argtypes = [ctypes.c_int]
    setter.restype = ctypes.c_int
    return setter


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with OpenBLAS on one thread, then restore the previous count."""
    setter = _blas_thread_setter()
    if setter is None:
        yield
        return
    previous = setter(1)
    try:
        yield
    finally:
        setter(previous)


def run_experiment(config: SimConfig) -> ExperimentReport:
    """Run all replicates and aggregate in replicate-index order.

    Replicates are independent streams, so thread count affects runtime only;
    aggregation order and therefore all floating-point results are fixed.  A
    run that needs no spectrum sets BLAS to one thread for every ``threads``
    value, since the Gram's last bits depend on the BLAS thread count; the
    setter acts on the whole process, so it is set once around all replicates.
    """
    indices = range(config.replicates)
    with contextlib.nullcontext() if config.needs_spectrum else _one_blas_thread():
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


def self_normalized_fourth_moment(alpha: float, n: int, rows: int, seed: int) -> float:
    """Monte Carlo estimate of n * E[Y^4] for row-self-normalized Pareto entries.

    Averages Y^4 over all entries of ``rows`` independent rows of length n
    (per-row averages are far less noisy than the first entry alone, and the
    expectation is the same by exchangeability).
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    total = 0.0
    done = 0
    while done < rows:
        m = min(FOURTH_MOMENT_CHUNK_ROWS, rows - done)
        # signs drop out after squaring, so sample X^2 = U^(-2/alpha) only,
        # with U uniform on (0, 1] as in ``_pareto``
        x2 = rng.random((m, n))
        np.subtract(1.0, x2, out=x2)
        x2 **= -2.0 / alpha
        # per row, sum Y^4 = sum X^4 / (sum X^2)^2
        s = x2.sum(axis=1)
        total += (np.einsum("ij,ij->i", x2, x2) / (s * s)).sum()
        done += m
    return total / rows
