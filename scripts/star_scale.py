"""Fresh-process timings of `eigs` and `oracle` on seeded many-edge stars.

Each star has n finite edges of length k/8 (k = 8..24) with the outer
condition Dirichlet, Neumann or the angle 0.7, drawn per edge by
`random.Random(seed)`; the window is (1/2, 60).  The free star leaves every
edge free.  The potential star is the same star with one linear piece
a + b x on each whole edge, a in [-2, 2] and b in [0, 2] in steps of 1/4.
Every task runs in a fresh interpreter (start-up included) against whichever
`starweyl` is on PYTHONPATH, the oracle at `--grid 1000`:

    PYTHONPATH=src python scripts/star_scale.py --edges 3 8 16 --repeat 3

Prints one JSON line per star and task: the wall seconds of each run, their
median, the sha256 of every artifact the last run wrote (report.json,
report.csv and plot.csv of `eigs`; oracle.json and oracle.csv of the
oracle), by file name, and the layer count it states (the multiplicities of
`eigs`, or the oracle's count_below_hi - count_below_lo).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

WINDOW = ["1/2", 60]
ANGLES = (0.0, math.pi / 2, 0.7)


def star_edges(n: int, seed: int, potential: bool) -> list:
    rng = random.Random(seed)
    edges = []
    for _ in range(n):
        length = Fraction(rng.randint(8, 24), 8)
        angle = rng.choice(ANGLES)
        a, b = Fraction(rng.randint(-8, 8), 4), Fraction(rng.randint(0, 8), 4)
        edge = {"length": str(length), "outer_angle": angle}
        if potential:
            edge["potential"] = {"pieces": [{"interval": [0, str(length)],
                                             "coeffs": [str(a), str(b)]}]}
        edges.append(edge)
    return edges


def artifact_hashes(out: Path) -> dict:
    """The sha256 of every file in a task's output directory, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def layers(task: str, out: Path) -> int:
    if task == "eigs":
        report = json.loads((out / "report.json").read_text())
        return sum(e["multiplicity"] for e in report["eigenvalues"])
    report = json.loads((out / "oracle.json").read_text())
    return report["count_below_hi"] - report["count_below_lo"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--edges", type=int, nargs="+", default=[3, 8, 16])
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tasks", nargs="+", default=["eigs", "oracle"],
                        choices=["eigs", "oracle"])
    parser.add_argument("--kinds", nargs="+", default=["free", "potential"],
                        choices=["free", "potential"])
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.edges:
            for kind in args.kinds:
                path = Path(tmp) / f"{kind}{n}.json"
                system = {"edges": star_edges(n, args.seed, kind == "potential")}
                path.write_text(json.dumps({"task": "eigs", "system": system, "window": WINDOW}))
                for task in args.tasks:
                    argv = [task, str(path)] + (["--grid", "1000"] if task == "oracle" else [])
                    runs = []
                    for r in range(args.repeat):
                        out = Path(tmp) / f"{kind}{n}-{task}-{r}"
                        start = time.perf_counter()
                        subprocess.run([sys.executable, "-m", "starweyl.cli", *argv,
                                        "--out", str(out)], check=True)
                        runs.append(time.perf_counter() - start)
                    print(json.dumps({"edges": n, "kind": kind, "task": task, "seed": args.seed,
                                      "runs_s": runs, "median_s": statistics.median(runs),
                                      "sha256": artifact_hashes(out),
                                      "layers": layers(task, out)}),
                          flush=True)


if __name__ == "__main__":
    main()
