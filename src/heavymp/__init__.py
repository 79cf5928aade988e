"""Spectra of high-dimensional sample correlation matrices under heavy tails.

Two engines working in tandem:

* an exact engine that evaluates the limiting spectral moments of sample
  correlation matrices built from infinite-variance data, mu_k = beta_k + d_k,
  from a committed table of the gaps d_k, polynomials in alpha/2 and gamma
  that scripts/build_dtable.py builds from the fixed point for the moment
  series in ``heavymp.series``, and past the table's top from that fixed
  point at the point itself;
* a Monte Carlo engine that simulates such matrices, computes their spectra
  and checks the empirical moments against the exact values.

The public names load their modules on first use, so ``import heavymp`` runs
no module of the package, and the table builder can import
``heavymp.combinatorics`` and ``heavymp.series`` without a loadable d_k table.
"""

import importlib

# the module of each public name
_LAZY_NAMES = {
    "bell": "combinatorics",
    "count_c0": "combinatorics",
    "count_norun_paths": "combinatorics",
    "stirling2": "combinatorics",
    "stirling2_assoc": "combinatorics",
    "boundary_modified_poisson": "moments",
    "boundary_moment_alpha0": "moments",
    "heavy_mp_moment": "moments",
    "mp_moment": "moments",
    "mp_moment_exact": "moments",
    "PSResult": "paths",
    "PathClass": "paths",
    "canonicalize": "paths",
    "classify": "paths",
    "shorten": "paths",
}


def __getattr__(name: str) -> object:
    if name in _LAZY_NAMES:
        return getattr(importlib.import_module(f"heavymp.{_LAZY_NAMES[name]}"), name)
    raise AttributeError(f"module 'heavymp' has no attribute {name!r}")


__all__ = list(_LAZY_NAMES)

__version__ = "0.1.0"
