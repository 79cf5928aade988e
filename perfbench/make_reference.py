"""Regenerate ``reference.json``: exact moments at every lattice point the
exact workloads can draw.

    python3 perfbench/make_reference.py

Run it from the root of a checkout of the code the references should pin.
It takes a few minutes (one cold k <= 10 table per table point).
"""

from __future__ import annotations

import json
import sys

import workloads

sys.path.insert(0, str(workloads.SRC))

from heavymp import moments  # noqa: E402


def main() -> None:
    table = {}
    for alpha, gamma in workloads.TABLE_POINTS:
        mu = moments.moment_table(alpha, gamma, workloads.TABLE_KMAX).mu
        table[workloads.point_key(alpha, gamma)] = list(mu)
        print(f"table {alpha} {gamma}", file=sys.stderr)
    grid = {
        workloads.point_key(a, g): moments.heavy_mp_moment(a, g, workloads.GRID_K)
        for a in workloads.ALPHAS
        for g in workloads.GAMMAS
    }
    payload = {
        "generator": "perfbench/make_reference.py",
        "table_kmax": workloads.TABLE_KMAX,
        "grid_k": workloads.GRID_K,
        "table": table,
        "grid": grid,
    }
    workloads.REFERENCE.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
