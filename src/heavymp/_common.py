"""Names the CLI and the Monte Carlo engine share.

A leaf module that loads no numpy, so the engine need not import its own
front end for them, and the CLI need not import the engine.
"""

DISTRIBUTIONS = ("t", "pareto", "gaussian")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")
