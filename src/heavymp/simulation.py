"""Monte Carlo engine for spectra of sample correlation matrices.

Samples heavy-tailed (or Gaussian control) data matrices, forms the
row-self-normalized correlation matrix R = Y Y', computes its empirical
moments (from the spectrum, or from traces of matrix powers when no spectrum
is needed), and aggregates replicates reproducibly: replicate j draws from a
stream spawned from the master seed, so results are independent of how
replicates are scheduled, and row j of a run's moments and spectra matrices
is replicate j.  The engine only computes: it writes no file, and
``heavymp simulate`` (``cli.simulate``) writes a run's outputs.

Each stage has one implementation, the one ``run_replicate`` runs:
``_panels`` samples, ``_correlation`` forms R, and ``trace_moments`` or
eigvalsh gives the moments.  A replicate holds at most ``_PANEL_COLUMNS``
columns of its p x n sample at once.  It draws the sample as column panels,
left to right, each in place in one reused p x w buffer.  The Gram matrix
X X' starts at zero, and each panel's product X_b X_b' is added into its
upper triangle in place, with the BLAS that numpy bundles.

Every run, from the library or the CLI, runs its replicates on one pool of
``SimConfig.threads`` threads and does all its BLAS and LAPACK on one
OpenBLAS thread: the pool supplies the parallelism, and the last bits of the
Gram product and of the spectrum, which the outputs show, would otherwise
depend on the BLAS thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path as FilePath

import numpy as np

from heavymp._common import DISTRIBUTIONS

# Below this k_max a replicate that needs no spectrum takes its moments from
# matrix products instead of eigvalsh: at p=1000 on one thread the products
# take 0.06 s for k_max=5 and 0.09 s for k_max=8, against 0.11 s for eigvalsh
# plus moments.  Both costs grow as p^3, so the cut does not depend on p.
TRACE_K_CUT = 9

# Widest column panel a replicate draws at once: n is split into
# ceil(n / _PANEL_COLUMNS) contiguous panels whose widths differ by at most
# one, so n <= _PANEL_COLUMNS is one p x n panel.  Each panel product is
# added into the Gram's upper triangle in place, so more panels cost no
# copy, add or buffer: at p=1000, n=5000 on one thread R takes 93-96 ms from
# one, two (20 MB each), three or five panels.
# Narrower panels would split n = 2500 and so change the acceptance tests'
# sample streams.
_PANEL_COLUMNS = 2500

# cblas enum values for ``_blas_dsyrk``: row-major storage, upper triangle,
# no transpose (C = alpha A A' + beta C)
_CBLAS_ROW_MAJOR, _CBLAS_UPPER, _CBLAS_NO_TRANS = 101, 121, 111

# Rows of t draws formed at once by ``_student_t``: 32 rows of a 2500-column
# panel hold 640 KB, so a block's ufunc passes run in cache and its scratch
# is small beside the panel.
_T_BLOCK_ROWS = 32

# cgroup v2's CPU limit, "<quota> <period>" in microseconds or "max <period>"
_CPU_MAX = FilePath("/sys/fs/cgroup/cpu.max")


def _usable_cores() -> int:
    """CPUs the process may run on, at most ceil(quota / period) under a CPU quota.

    A ``max`` quota, or a cpu.max that is missing or unreadable, adds no cap.
    """
    # no affinity mask on macOS or Windows
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    try:
        quota, period = _CPU_MAX.read_text().split()
        return min(cores, -(-int(quota) // int(period)))
    except (OSError, ValueError):
        return cores


def _replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(replicate,)))


def _panels(p: int, n: int, dist: str, alpha: float | None, seed: int, replicate: int):
    """Yield the p x n sample of replicate ``replicate`` as column panels, left to right.

    The entries are iid symmetric: ``t`` and ``pareto`` sample the exact laws
    (Student t with alpha degrees of freedom; sign * U^(-1/alpha)) with no
    tail truncation, and ``gaussian`` is the light-tailed control.  Every
    panel is drawn in place in one buffer, so a panel is overwritten when
    the next one is drawn.  Each panel is C-contiguous: a panel of width w
    is the first p * w entries of the buffer.
    """
    rng = _replicate_rng(seed, replicate)
    count = -(-n // _PANEL_COLUMNS)
    widths = [n // count + (b < n % count) for b in range(count)]
    buffer = np.empty(p * widths[0])
    for w in widths:
        panel = buffer[: p * w].reshape(p, w)
        if dist == "gaussian":
            rng.standard_normal(out=panel)
        elif dist == "t":
            _student_t(rng, alpha, panel)
        else:
            _pareto(rng, alpha, panel)
        yield panel


def _student_t(rng: np.random.Generator, alpha: float, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with Student t draws with alpha degrees of freedom, by Bailey's polar method.

    t = sqrt(alpha (W^(-2/alpha) - 1)) sin 2phi with W uniform on (0, 1] and
    phi uniform on (-pi/4, pi/4) is exactly t(alpha) (R. W. Bailey, "Polar
    generation of random variates with the t-distribution", Math. Comp. 62
    (1994) 779-781): W is the squared radius of a point uniform on the unit
    disc, and sin 2phi has the law of the cosine of its angle.  No gamma or
    normal draw is needed.  W^(-2/alpha) - 1 is formed as
    expm1(-(2/alpha) log W), exact near W = 1, and sin 2phi as
    2 tan(phi) / (1 + tan^2(phi)), since numpy's float64 ``tan`` is several
    times faster than its ``sin`` and ``cos``.  ``out`` (2-d, C-contiguous)
    is filled in place ``_T_BLOCK_ROWS`` rows at a time, each block's W
    uniforms before its phi uniforms, with one scratch block beside it.
    """
    scratch = np.empty((min(_T_BLOCK_ROWS, out.shape[0]), out.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):  # _correlation reports inf and NaN
        for start in range(0, out.shape[0], _T_BLOCK_ROWS):
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


def _pareto(rng: np.random.Generator, alpha: float, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with sign * U^(-1/alpha), U uniform on (0, 1], sign from the top bit of a random byte."""
    rng.random(out=out)
    np.subtract(1.0, out, out=out)
    with np.errstate(over="ignore"):  # _correlation reports inf
        out **= -1.0 / alpha
    signs = rng.integers(-128, 128, size=out.shape, dtype=np.int8)
    return np.copysign(out, signs, out=out)


def _correlation(p: int, panels) -> np.ndarray:
    """R = Y Y' from the p-row column panels X_b of the data: G = sum_b X_b X_b', then scaled.

    G starts at zero, and BLAS adds every X_b X_b' into its upper triangle
    in place as a symmetric rank-k update (``_add_panel_product``), so a
    replicate holds one panel and G and no spare p x p buffer.  Then, row
    by row, row i's part on and right of the diagonal is divided by the row
    norms' products |x_i| |x_j|, and its part left of the diagonal is copied
    from column i of the rows above, already scaled, so R = G / (|x_i| |x_j|)
    is exactly symmetric.  R's diagonal is set to exactly 1.
    """
    gram = np.zeros((p, p))
    for panel in panels:
        _add_panel_product(gram, panel)
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
    for i in range(p):
        gram[i, i:] /= norms[i] * norms[i:]
        gram[i, :i] = gram[:i, i]
    np.fill_diagonal(gram, 1.0)
    return gram


def _add_panel_product(gram: np.ndarray, panel: np.ndarray) -> None:
    """Add X X' for the panel X to gram's upper triangle, in place.

    The bundled ``cblas_dsyrk`` (``_blas_dsyrk``) updates the upper triangle
    only, the diagonal included, and leaves the rest of gram as it was.
    Added to a zero gram, one product is bit for bit numpy's X X', which is
    the same call writing over its output.  Without the symbol, numpy's
    product is added to gram through one p x p temporary.
    """
    if panel.shape[0] != gram.shape[0]:  # dsyrk would write past gram
        raise ValueError(f"a {panel.shape[0]}-row panel cannot update a {gram.shape[0]}-row Gram")
    panel = np.ascontiguousarray(panel, dtype=np.float64)
    dsyrk = _blas_dsyrk()
    if dsyrk is None:
        gram += panel @ panel.T
        return
    p, w = panel.shape
    dsyrk(_CBLAS_ROW_MAJOR, _CBLAS_UPPER, _CBLAS_NO_TRANS, p, w, 1.0, panel.ctypes.data, w,
          1.0, gram.ctypes.data, p)


def trace_moments(corr: np.ndarray, k_max: int) -> np.ndarray:
    """m_k = tr(R^k) / p for k = 1..k_max < TRACE_K_CUT, without the spectrum.

    m_k = <R^(k-b), R^b> / p in the Frobenius inner product, with b the
    largest formed power below k.  The formed powers are R^2, R^4 = R^2 (R^2)'
    and R^3 = R^2 R, as far as needed: R^2 and R^4 are each a P P' that BLAS
    computes as a symmetric rank-k update at half the cost of a general
    product, so m_5 = <R, R^4>, m_6 = <R^2, R^4>, m_7 = <R^3, R^4> and
    m_8 = <R^4, R^4>.
    """
    if not 1 <= k_max < TRACE_K_CUT:
        raise ValueError(f"trace moments need 1 <= k_max < {TRACE_K_CUT}, got {k_max}")
    p = corr.shape[0]
    powers = {1: corr}
    for j in (2, 4, 3)[: (k_max - 1) // 2]:
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


@dataclass(frozen=True)
class SimConfig:
    p: int
    n: int
    dist: str
    alpha: float | None
    k_max: int
    replicates: int
    seed: int
    # replicate threads; None is one per usable core (``_usable_cores``), at
    # most one per replicate, resolved when the run starts
    threads: int | None = None
    # keep each replicate's spectrum, as a row of ExperimentReport.spectra
    spectrum: bool = False

    def __post_init__(self) -> None:
        if self.p < 1 or self.n < 1:
            raise ValueError(f"p and n must be >= 1, got p={self.p}, n={self.n}")
        if self.dist not in DISTRIBUTIONS:
            raise ValueError(f"dist must be one of {DISTRIBUTIONS}, got {self.dist!r}")
        if self.dist != "gaussian" and (self.alpha is None or not 0.0 < self.alpha < 2.0):
            raise ValueError(f"{self.dist} sampling needs alpha in (0, 2), got {self.alpha}")
        if self.dist == "gaussian" and self.alpha is not None:
            raise ValueError(f"gaussian sampling takes no alpha, got {self.alpha}")
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.threads is not None and self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")

    @property
    def needs_spectrum(self) -> bool:
        """A kept spectrum or k_max >= TRACE_K_CUT needs eigvalsh."""
        return self.spectrum or self.k_max >= TRACE_K_CUT


@dataclass(frozen=True)
class ExperimentReport:
    """Row j of ``moments`` (replicates x k_max) and of ``spectra`` (replicates x p,
    ascending; None unless ``SimConfig.needs_spectrum``) is replicate j."""

    moments: np.ndarray
    spectra: np.ndarray | None
    mean_moments: np.ndarray
    std_moments: np.ndarray

    def stderr_moments(self) -> np.ndarray:
        return self.std_moments / np.sqrt(len(self.moments))


def run_replicate(config: SimConfig, replicate: int) -> tuple[np.ndarray, np.ndarray | None]:
    """(moments, eigenvalues) of a replicate: the eigenvalues are its ascending
    spectrum when ``config.needs_spectrum``, else None and the moments come from
    ``trace_moments``."""
    panels = _panels(config.p, config.n, config.dist, config.alpha, config.seed, replicate)
    try:
        corr = _correlation(config.p, panels)
    except ArithmeticError as exc:
        raise ArithmeticError(
            f"{config.dist} draws with alpha={config.alpha}, replicate {replicate}: {exc}"
        ) from exc
    if not config.needs_spectrum:
        return trace_moments(corr, config.k_max), None
    try:
        eigenvalues = np.linalg.eigvalsh(corr)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ArithmeticError(f"eigensolver failed on replicate {replicate}: {exc}") from exc
    moments = empirical_moments(eigenvalues, config.k_max)
    moments[0] = np.trace(corr) / config.p  # exactly 1, as on the trace route
    return moments, eigenvalues


def _bundled_blas(name: str, argtypes: list, restype):
    """The function ``name`` of the BLAS numpy links, or None when it exports no such symbol.

    dlsym on numpy's core extension also searches the libraries it links, so
    this finds the OpenBLAS that numpy 2 bundles; numpy 1.x, which has no
    ``np._core``, gives None.  ctypes releases the GIL for the call.
    """
    try:
        function = getattr(ctypes.CDLL(np._core._multiarray_umath.__file__), name)
    except (AttributeError, OSError):
        return None
    function.argtypes = argtypes
    function.restype = restype
    return function


@functools.cache
def _blas_thread_setter():
    """OpenBLAS's ``openblas_set_num_threads_local``, or None when numpy has no such BLAS.

    MKL, Accelerate, numpy 1.x and OpenBLAS < 0.3.27 give None.  The lookup
    relies on the bundled ``libscipy_openblas64_`` exporting this one
    function under its plain name (its other thread functions carry the
    ``scipy_openblas`` prefix and ``64_`` suffix); a build that mangles it
    too gives None, which the tests report as a failure when numpy names a
    bundled OpenBLAS.  The setter returns the previous thread count and,
    despite its name, sets the count for the whole process.
    """
    return _bundled_blas("openblas_set_num_threads_local", [ctypes.c_int], ctypes.c_int)


@functools.cache
def _blas_dsyrk():
    """``cblas_dsyrk`` of the 64-bit-integer OpenBLAS numpy bundles, or None.

    The bundled ``libscipy_openblas64_`` exports it as
    ``scipy_cblas_dsyrk64_``, with 64-bit sizes; MKL, Accelerate, numpy 1.x
    and 32-bit-integer builds give None, and ``_add_panel_product`` falls
    back to numpy's product.  The tests report None as a failure when numpy
    names a bundled 64-bit-integer OpenBLAS.
    """
    size, enum, double, pointer = ctypes.c_int64, ctypes.c_int, ctypes.c_double, ctypes.c_void_p
    # order, uplo, trans, n, k, alpha, a, lda, beta, c, ldc
    argtypes = [enum, enum, enum, size, size, double, pointer, size, double, pointer, size]
    return _bundled_blas("scipy_cblas_dsyrk64_", argtypes, None)


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
    """Run all replicates on one thread pool and aggregate in replicate-index order.

    Replicates are independent streams, so thread count affects runtime only;
    aggregation order and therefore all floating-point results are fixed.
    BLAS is set to one thread for every run, since the last bits of the Gram
    and of ``eigvalsh``'s spectrum depend on the BLAS thread count; the setter
    acts on the whole process, so it is set once around the pool.
    """
    threads = config.threads or min(_usable_cores(), config.replicates)
    with _one_blas_thread(), ThreadPoolExecutor(max_workers=threads) as pool:
        results = pool.map(lambda j: run_replicate(config, j), range(config.replicates))
        moments, spectra = zip(*results)
    moments = np.vstack(moments)
    spectra = np.vstack(spectra) if config.needs_spectrum else None
    mean = moments.mean(axis=0)
    std = moments.std(axis=0, ddof=1) if len(moments) > 1 else np.zeros_like(mean)
    return ExperimentReport(moments, spectra, mean, std)
