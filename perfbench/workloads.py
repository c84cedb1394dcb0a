"""Seeded problem files for the three benchmark workloads.

Every workload is a fixed list of CLI tasks.  The seed only draws the data
inside the problem files; sizes, windows, grids and the task mix stay the
same for every seed, so run time varies little from seed to seed while the
spectra themselves change.  The program under test sees nothing but the
problem files written here (plus the CLI builtins `equilateral3` and
`kac2`, which every seed shares).

Each task carries a `spec`: the benchmark's own description of the problem,
which `reference.py` uses to recompute the expected output without calling
the package.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional, Tuple

import reference

WORKLOADS = ("star-free", "star-potential", "exact-atomic")

DIRICHLET = 0.0
NEUMANN = math.pi / 2


@dataclass(frozen=True)
class EdgeSpec:
    """One finite edge: length, outer angle, potential pieces (lo, hi, coeffs)."""

    length: Fraction
    angle: float
    pieces: Tuple[Tuple[Fraction, Fraction, Tuple[Fraction, ...]], ...] = ()

    def to_json(self) -> dict:
        pot = "free" if not self.pieces else {
            "pieces": [
                {"interval": [_num(lo), _num(hi)], "coeffs": [_num(c) for c in cs]}
                for lo, hi, cs in self.pieces
            ]
        }
        return {"length": _num(self.length), "potential": pot, "outer_angle": self.angle}


@dataclass(frozen=True)
class Task:
    """One CLI call.  `argv` lacks `--out`; the runner appends it."""

    label: str
    kind: str
    argv: Tuple[str, ...]
    spec: dict = field(default_factory=dict, compare=False)
    problem: Optional[str] = None


def _num(x: Fraction):
    """JSON form of an exact number: int when integral, else "p/q"."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _write_problem(directory: Path, name: str, obj: dict) -> str:
    path = directory / f"{name}.json"
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")
    return str(path)


def _star_problem(edges, window, grid) -> dict:
    return {
        "task": "eigs",
        "system": {"edges": [e.to_json() for e in edges], "interface": {"type": "standard"}},
        "window": [_num(window[0]), _num(window[1])],
        "grid": grid,
    }


def _seeded_angle(rng: random.Random) -> float:
    """An outer angle away from Dirichlet, Neumann and the ends of [0, pi)."""
    while True:
        beta = round(rng.uniform(0.3, math.pi - 0.3), 6)
        if abs(beta - NEUMANN) > 0.25:
            return beta


def _star_tasks(directory, name, edges, window, plot_grid, weyl_grid, oracle_grid):
    spec = {"edges": edges, "window": window}
    path = _write_problem(directory, name, _star_problem(edges, window, plot_grid))
    return [
        Task(f"{name}.eigs", "eigs", ("eigs", path), spec, path),
        Task(f"{name}.weyl", "weyl", ("weyl", path, "--grid", str(weyl_grid)),
             dict(spec, grid=weyl_grid, eps=1e-3), path),
        Task(f"{name}.oracle", "oracle", ("oracle", path, "--grid", str(oracle_grid)),
             spec, path),
    ]


# ---------------------------------------------------------------------------
# star-free
# ---------------------------------------------------------------------------

EQUILATERAL3 = {
    "edges": [EdgeSpec(Fraction(math.pi), DIRICHLET)] * 3,
    "window": (Fraction(1, 10), Fraction(10)),
}


def _free_star(rng: random.Random, lengths, angles):
    """Free edges pairing a seeded arrangement of `lengths` with `angles`."""
    lengths, angles = list(lengths), list(angles)
    rng.shuffle(lengths)
    rng.shuffle(angles)
    return [EdgeSpec(L, a) for L, a in zip(lengths, angles)]


def _star_free(rng: random.Random, directory: Path):
    tasks = [
        Task("equilateral3.eigs", "eigs", ("eigs", "equilateral3", "--grid", "50"), EQUILATERAL3),
        Task("equilateral3.weyl", "weyl", ("weyl", "equilateral3", "--grid", "50"),
             dict(EQUILATERAL3, grid=50, eps=1e-3)),
        Task("equilateral3.oracle", "oracle", ("oracle", "equilateral3", "--grid", "4000"),
             EQUILATERAL3),
    ]
    window = (Fraction(1, 10), Fraction(21, 2))
    # Rational lengths make Dirichlet and Neumann poles of different edges,
    # (j pi / L)^2 and ((j + 1/2) pi / L)^2, coincide.
    # Each star uses a fixed multiset of lengths and angle kinds, so every
    # seed integrates about as much; the seed pairs them and draws the free
    # angle.  The three Dirichlet edges of free4 always share the pole pi^2
    # (layer count 2); in free3 the Neumann edge of length 3/2 shares it
    # with a Dirichlet edge of length 1 or 2.
    stars = (
        ("free3", (Fraction(1), Fraction(3, 2), Fraction(2)),
         (DIRICHLET, NEUMANN, _seeded_angle(rng))),
        ("free4", (Fraction(1), Fraction(2), Fraction(2), Fraction(3)),
         (DIRICHLET, DIRICHLET, DIRICHLET, _seeded_angle(rng))),
    )
    for name, lengths, angles in stars:
        edges = _free_star(rng, lengths, angles)
        tasks += _star_tasks(directory, name, edges, window, 30, 30, 4000)
    return tasks


# ---------------------------------------------------------------------------
# star-potential
# ---------------------------------------------------------------------------


def _quarter(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), 4)


def _potential_edge(rng: random.Random, length: Fraction, angle: float, top: int) -> EdgeSpec:
    """Two polynomial pieces with values in [0, top/4]; the first has degree 1 or 2.

    The potential jumps by at least 1/4 at the midpoint.  The package's
    integrator takes about five times more steps on an edge whose pieces do
    not meet continuously, so a continuous draw would make a seed cheap.
    """
    mid = length / 2
    deg = rng.choice((1, 2))
    first = [_quarter(rng, 0, top - deg)] + [Fraction(1, 2 ** (deg + 1))] * deg
    at_mid = sum(c * mid**j for j, c in enumerate(first))
    while True:
        second = _quarter(rng, 0, top)
        if abs(second - at_mid) >= Fraction(1, 4):
            break
    return EdgeSpec(length, angle, ((Fraction(0), mid, tuple(first)), (mid, length, (second,))))


def _potential_window(edges, twin, other):
    """A window around the first pole of `twin` and of `other`, and nothing else.

    Just below a pole the summed function is positive and just above one it
    is negative, so with such ends the window holds exactly the twin overlap
    and the one zero between the two poles.
    """
    p_twin = reference.edge_poles(twin, (Fraction(1, 4), Fraction(6)))[0]
    p_other = reference.edge_poles(other, (Fraction(1, 4), Fraction(6)))[0]
    pad = 0.25
    for _ in range(10):
        window = (Fraction(math.floor((p_twin - pad) * 64), 64),
                  Fraction(math.ceil((p_other + pad) * 64), 64))
        if len(reference.star_spectrum(edges, window)) == 2:
            return window
        pad /= 2
    raise RuntimeError(f"no window around the poles {p_twin} and {p_other}")


def _star_potential(rng: random.Random, directory: Path):
    # Every seed has the same shape: an edge of length 2 with a seeded angle
    # in (0.3, 1.2), twice, and a Dirichlet edge of length 3/2.  The twin's
    # first pole lies in (0.6, 3.1), the other edge's in (4.3, 4.9) and the
    # twin's second above 5.8, so the window below always holds two
    # eigenvalues and every seed does about the same amount of work.
    beta = round(rng.uniform(0.3, 1.2), 6)
    twin = _potential_edge(rng, Fraction(2), beta, 5)
    other = _potential_edge(rng, Fraction(3, 2), DIRICHLET, 2)
    edges = [twin, twin, other]
    rng.shuffle(edges)
    window = _potential_window(edges, twin, other)
    return _star_tasks(directory, "pot3", edges, window, 10, 8, 4000)


# ---------------------------------------------------------------------------
# exact-atomic
# ---------------------------------------------------------------------------


def _atomic_entries(rng: random.Random, entries: int, per_entry: int):
    """`entries` atomic measures with `per_entry` atoms each on the grid Z/8.

    The number of positions carried by 4, 3, 2 and 1 entries is fixed by
    the size, so every seed has the same number of overlaps and gaps (and
    so the same amount of exact root finding); the seed picks positions,
    masses and carriers.
    """
    n3, n2 = per_entry // 5, per_entry // 2
    counts = [4] + [3] * n3 + [2] * n2
    counts += [1] * (entries * per_entry - sum(counts))
    positions = rng.sample(range(-63, 64), len(counts))
    atoms = [[] for _ in range(entries)]
    for pos, c in zip(positions, counts):
        order = sorted(range(entries), key=lambda l: (len(atoms[l]), rng.random()))
        for l in order[:c]:
            atoms[l].append((Fraction(pos, 8), Fraction(rng.randint(1, 32), 16)))
    return [sorted(a) for a in atoms]


def _unit_grid(offset: Fraction, count: int):
    return [(Fraction(2 * i - 1, 2 * count) + offset, Fraction(1, count))
            for i in range(1, count + 1)]


def _shifted(atoms, lo: int, hi: int):
    return [(x + s, w) for s in range(lo, hi) for x, w in atoms]


# The shared density of the four k74 measures: positive on [9/2, 8].
K74_DENSITY = (Fraction(9, 2), Fraction(8), (Fraction(1, 5), Fraction(1, 10), Fraction(1, 100)))


def k74_atoms(count: int):
    """Atoms of the four-measure showcase with `count` atoms per unit.

    Expected singular layer counts: (2,3) -> 1, (3,4) -> 2, (4,5) -> 1,
    (5,6) -> 1, (6,7) -> 3; every measure also carries K74_DENSITY.
    """
    lam1 = _unit_grid(Fraction(0), count)
    lam2 = _unit_grid(Fraction(1, 4 * count), count)
    return [
        _shifted(lam1, 2, 3) + _shifted(lam1, 4, 5) + _shifted(lam2, 3, 4) + _shifted(lam2, 6, 7),
        _shifted(lam1, 2, 6) + _shifted(lam2, 6, 7),
        _shifted(lam2, 0, 7),
        _shifted(lam1, 0, 1) + _shifted(lam1, 7, 8) + _shifted(lam2, 3, 8),
    ]


def _measure_json(atoms, pieces=()) -> dict:
    return {
        "atoms": [[_num(x), _num(w)] for x, w in sorted(atoms)],
        "pieces": [{"interval": [_num(lo), _num(hi)], "coeffs": [_num(c) for c in cs]}
                   for lo, hi, cs in pieces],
    }


def _exact_atomic(rng: random.Random, directory: Path, seed: int):
    tasks = []
    window = (Fraction(-8), Fraction(8))
    for name, per_entry in (("atomic4x10", 10), ("atomic4x14", 14)):
        entries = _atomic_entries(rng, 4, per_entry)
        obj = {
            "task": "eigs",
            "system": {"edges": [_measure_json(a) for a in entries],
                       "interface": {"type": "standard"}},
            "window": [_num(window[0]), _num(window[1])],
            "exact": True,
        }
        path = _write_problem(directory, name, obj)
        tasks.append(Task(f"{name}.eigs", "eigs", ("eigs", path, "--exact"),
                          {"measures": entries, "window": window}, path))
    for count in (24, 80):
        measures = k74_atoms(count)
        obj = {
            "task": "classify",
            "system": {"edges": [_measure_json(a, [K74_DENSITY]) for a in measures],
                       "interface": {"type": "standard"}},
            "window": [0, 8],
        }
        name = f"k74x{count}"
        path = _write_problem(directory, name, obj)
        tasks.append(Task(f"{name}.classify", "classify", ("classify", path),
                          {"measures": measures, "window": (Fraction(0), Fraction(8)),
                           "density": K74_DENSITY}, path))
    tasks.append(Task("verify", "verify", ("verify", "kac2", "--seed", str(seed)),
                      {"seed": seed}))
    return tasks


def generate(workload: str, seed: int, directory) -> list:
    """Write the problem files of one workload into `directory`; return its tasks."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "star-free":
        return _star_free(rng, directory)
    if workload == "star-potential":
        return _star_potential(rng, directory)
    if workload == "exact-atomic":
        return _exact_atomic(rng, directory, seed)
    raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")
