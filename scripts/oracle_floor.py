"""Distance of the finite-difference oracle from a dense solve of its own pencil.

For each star and grid, `fd_oracle` runs on the window, and the pencil of
the same star is diagonalized densely with `scipy.linalg.eigvalsh`, as the
symmetric matrix B^{-1/2} A B^{-1/2} spelled out from the tree form that
`_fd_pencil` returns (per distinct chain the diagonals of A and of the
lumped mass B and the squared couplings, and each edge's chain).  The
dense eigenvalues inside the window are clustered with the oracle's rule
(a neighbour closer than 1e-6 relative joins the cluster; the cluster's
mean is its item), against whichever `starweyl` is on PYTHONPATH:

    PYTHONPATH=src python scripts/oracle_floor.py --grids 300 600 1000

Prints one JSON line per star and grid: the largest gap
|oracle - dense| / max(|dense|, 1) over the items, whether the
multiplicities agree, and the seconds the oracle took.  Both solvers carry
an absolute rounding error of about machine epsilon times the pencil's
norm, which grows as grid^2, so items below 1 are compared absolutely.
The gap is the floor below which two oracles cannot be told apart.
"""

from __future__ import annotations

import argparse
import json
import math
import time
from fractions import Fraction

import numpy as np
import scipy.linalg

from starweyl import spectra
from starweyl.schrodinger import Edge

STARS = {
    "equilateral3": ([Edge.of(math.pi)] * 3, (0.1, 10)),
    "mixed-free": ([Edge.of(1, None, 0.0), Edge.of(Fraction(3, 2), None, math.pi / 2),
                    Edge.of(2, None, 1.1)], (0.1, 10)),
    "well-obtuse": ([Edge.of(1, [((0, 1), [-5])], 2.5), Edge.of(3)], (-3, 12)),
}


def clustered(values) -> list:
    """(mean, size) of each run of sorted values closer than the oracle's
    1e-6 relative clustering gap."""
    clusters: list[list[float]] = []
    for v in values:
        if clusters and v - clusters[-1][-1] < 1e-6 * (1 + abs(v)):
            clusters[-1].append(v)
        else:
            clusters.append([v])
    return [(sum(c) / len(c), len(c)) for c in clusters]


def dense_eigenvalues(tree) -> np.ndarray:
    """Eigenvalues of the pencil whose tree form `_count_below` reads: the
    vertex first, then each edge's chain from its outer node inward."""
    (a0, b0), chains, order = tree
    diag, weight, couplings = [a0], [b0], []
    for a, b, squared in (chains[k] for k in order):
        start = len(diag)
        diag += a.tolist()
        weight += b.tolist()
        for i, c in enumerate(squared):
            couplings.append((start + i, start + i + 1 if i + 1 < len(squared) else 0, c))
    weight = np.array(weight)
    dense = np.diag(np.array(diag) / weight)
    for i, j, c in couplings:
        dense[i, j] = dense[j, i] = -math.sqrt(c / (weight[i] * weight[j]))
    return scipy.linalg.eigvalsh(dense)


def floor_row(name: str, grid: int) -> dict:
    edges, (lo, hi) = STARS[name]
    start = time.perf_counter()
    got = spectra.fd_oracle(edges, (lo, hi), grid=grid).items
    seconds = time.perf_counter() - start
    tree = spectra._fd_pencil(edges, [spectra._nodal_potential(e, grid) for e in edges])
    dense = dense_eigenvalues(tree)
    want = clustered(float(v) for v in dense if lo <= v <= hi)
    return {"star": name, "grid": grid,
            "multiplicities_agree": [k for _, k in got] == [k for _, k in want],
            "max_gap": max(abs(x - y) / max(abs(y), 1.0) for (x, _), (y, _) in zip(got, want)),
            "oracle_s": seconds}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grids", type=int, nargs="+", default=[300, 600, 1000])
    args = parser.parse_args()
    for grid in args.grids:
        for name in STARS:
            print(json.dumps(floor_row(name, grid)), flush=True)


if __name__ == "__main__":
    main()
