"""Fresh-process timings of `eigs --exact` on large atomic systems.

Each system has four entries with `per_entry` atoms each.  The number of
positions carried by 4, 3, 2 and 1 entries follows the rule of the
benchmark's exact-atomic workload; the P distinct positions are drawn from
the grid (8/P)Z in [-8, 8) and the masses are k/16 with k in 1..32.  Every
size is run in a fresh interpreter (start-up included) on the window
[-8, 8], with one BLAS/OpenMP thread, against whichever `starweyl` is on
PYTHONPATH:

    PYTHONPATH=src python scripts/exact_scale.py --sizes 40 80 --repeat 3

Prints one JSON line per size: the wall seconds of each run, their median,
and the sha256 of every artifact the last run wrote (report.json,
report.csv and plot.csv), by file name.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from starweyl import ScalarMeasure

# Every child CLI runs with one BLAS/OpenMP thread, as the benchmark runs it.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def atomic_entries(per_entry: int, seed: int, entries: int = 4) -> list:
    rng = random.Random(f"exact-scale:{per_entry}:{seed}")
    counts = [4] + [3] * (per_entry // 5) + [2] * (per_entry // 2)
    counts += [1] * (entries * per_entry - sum(counts))
    grid = len(counts)
    atoms = [[] for _ in range(entries)]
    for k, c in zip(rng.sample(range(-grid, grid), grid), counts):
        order = sorted(range(entries), key=lambda l: (len(atoms[l]), rng.random()))
        for l in order[:c]:
            atoms[l].append((Fraction(8 * k, grid), Fraction(rng.randint(1, 32), 16)))
    return [sorted(a) for a in atoms]


def artifact_hashes(out: Path) -> dict:
    """The sha256 of every file in a task's output directory, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def problem(per_entry: int, seed: int) -> dict:
    edges = [ScalarMeasure.of(atoms=a).to_json() for a in atomic_entries(per_entry, seed)]
    return {"task": "eigs", "system": {"edges": edges, "interface": {"type": "standard"}},
            "window": [-8, 8], "exact": True}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[40, 80])
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    with tempfile.TemporaryDirectory() as tmp:
        for size in args.sizes:
            path = Path(tmp) / f"atomic4x{size}.json"
            path.write_text(json.dumps(problem(size, args.seed)))
            runs = []
            for r in range(args.repeat):
                out = Path(tmp) / f"out{size}-{r}"
                start = time.perf_counter()
                subprocess.run([sys.executable, "-m", "starweyl.cli", "eigs", str(path),
                                "--exact", "--out", str(out)], check=True, env=env)
                runs.append(time.perf_counter() - start)
            print(json.dumps({"atoms": f"4x{size}", "seed": args.seed, "runs_s": runs,
                              "median_s": statistics.median(runs),
                              "sha256": artifact_hashes(out)}))


if __name__ == "__main__":
    main()
