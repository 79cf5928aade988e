"""The sampled distributions, which the CLI and the Monte Carlo engine share.

A leaf module that loads no numpy, so the CLI can offer them as choices
without importing the engine.
"""

DISTRIBUTIONS = ("t", "pareto", "gaussian")
