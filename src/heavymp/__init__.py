"""Spectra of high-dimensional sample correlation matrices under heavy tails.

Two engines working in tandem:

* an exact engine that evaluates the limiting spectral moments of sample
  correlation matrices built from infinite-variance data, via set-partition
  combinatorics, path shortening and bipartite delta graphs;
* a Monte Carlo engine that simulates such matrices, computes their spectra
  and checks the empirical moments against the exact values.
"""

from heavymp.combinatorics import bell, count_c0, count_norun_paths, stirling2, stirling2_assoc
from heavymp.moments import (
    boundary_modified_poisson,
    boundary_moment_alpha0,
    heavy_mp_moment,
    mp_moment,
    mp_moment_exact,
)

# moments and simulation run nothing from heavymp.paths, so its names load it on first use
_PATH_NAMES = {"PSResult", "PathClass", "canonicalize", "classify", "shorten"}


def __getattr__(name: str) -> object:
    if name in _PATH_NAMES:
        from heavymp import paths

        return getattr(paths, name)
    raise AttributeError(f"module 'heavymp' has no attribute {name!r}")

__all__ = [
    "bell",
    "boundary_modified_poisson",
    "boundary_moment_alpha0",
    "canonicalize",
    "classify",
    "count_c0",
    "count_norun_paths",
    "heavy_mp_moment",
    "mp_moment",
    "mp_moment_exact",
    "PathClass",
    "PSResult",
    "shorten",
    "stirling2",
    "stirling2_assoc",
]

__version__ = "0.1.0"
