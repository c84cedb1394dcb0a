"""Batch front end: problem files in, reports and plot tables out.

A problem file is a single JSON object:

    {
      "task": "eigs" | "weyl" | "classify" | "verify" | "oracle",
      "system": {"edges": [...], "interface": {"type": "standard"}},
      "window": [a, b],
      "grid": 1000,        # optional sampling/oracle resolution
      "exact": false       # optional: require a purely atomic system
    }

The entries choose how the boundary values are read: purely atomic
systems always take the rational route, and the eps ladder of every
other system is the one `PastedSystem.default_schedule` picks.  `exact`
forces nothing and is not kept: it turns a system with a non-atomic entry
into a schema error.  A task that reads `grid` takes its `DEFAULT_GRID`
when given none.  `classify` rejects edges and `grid`, which it never
reads, and `oracle` every entry but an edge; `verify` reads only `--seed`,
which no other task takes, and a builtin gives it no keys.
`ProblemFile.parse` makes all these checks, so `run` meets no schema
violation.

Exit codes: 0 success, 2 schema violation, 3 non-convergence (partial
artifacts are kept), 4 breached internal invariant.  Runs are
deterministic: the same problem file and seed produce byte-identical
artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import sys as _sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence, Tuple, Union

import numpy as np

from .errors import ConvergenceError, InternalInvariantError, SchemaError
from .herglotz import HerglotzRep
from .measure import ScalarMeasure, number_from_json
from .pasting import (
    PastedSystem,
    interface_matrix,
    matrix_from_values,
    matrix_weyl,
    rank_md,
    trace_weyl,
)
from .schrodinger import Edge
from .spectra import (
    ORACLE_MIN_GRID,
    SpectralReport,
    aronszajn_donoghue_check,
    build_example_k74,
    classify_spectrum,
    fd_oracle,
    find_point_spectrum,
    verify_kac,
)

TASKS = ("eigs", "weyl", "classify", "verify", "oracle")
DEFAULT_GRID = {"eigs": 200, "weyl": 50, "oracle": 4000}
BUILTINS = ("k74", "equilateral3", "kac2")


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------


def _is_int(v) -> bool:
    """An int that is not a bool: JSON `true` must not pass as 1."""
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class ProblemFile:
    task: str
    system: Union[PastedSystem, None]
    window: Union[Tuple[Fraction, Fraction], None]
    grid: Union[int, None] = None

    @classmethod
    def parse(cls, obj) -> "ProblemFile":
        if not isinstance(obj, dict):
            raise SchemaError("problem file must be a JSON object")
        allowed = {"task", "system", "window", "grid", "exact"}
        extra = set(obj) - allowed
        if extra:
            raise SchemaError(f"unknown problem keys: {sorted(extra)}")
        task = obj.get("task")
        if task not in TASKS:
            raise SchemaError(f"task must be one of {TASKS}, got {task!r}")
        # parsed first, so that every task names a malformed system as such
        system = None
        if "system" in obj and obj["system"] is not None:
            try:
                system = PastedSystem.from_json(obj["system"])
            except (KeyError, TypeError, ValueError) as exc:
                raise SchemaError(f"bad system spec: {exc}") from exc
        if task == "verify":
            unread = sorted(set(obj) - {"task"})
            if unread:
                raise SchemaError(f"task 'verify' reads no {', '.join(unread)}: only --seed")
            return cls(task, None, None)
        window = obj.get("window")
        if not isinstance(window, (list, tuple)) or len(window) != 2:
            raise SchemaError("window must be a [lo, hi] pair of numbers")
        try:
            lo, hi = number_from_json(window[0]), number_from_json(window[1])
        except (ValueError, TypeError) as exc:
            raise SchemaError(f"bad window value: {exc}") from exc
        if not lo < hi:
            raise SchemaError("window needs lo < hi")
        if system is None:
            raise SchemaError(f"task {task!r} needs a system")
        if task in ("eigs", "oracle") and any(
                isinstance(e, Edge) and e.is_infinite for e in system.entries):
            raise SchemaError(f"task {task!r} needs finite edges: an infinite edge "
                              "has no discrete decoupled spectrum")
        if task == "oracle" and not all(isinstance(e, Edge) for e in system.entries):
            raise SchemaError("the discretization oracle needs edge entries")
        if task == "classify" and system.reps is None:
            raise SchemaError("classification needs measure-backed entries")
        grid = obj.get("grid")
        if grid is not None and not (_is_int(grid) and grid >= 1):
            raise SchemaError("grid must be a positive integer")
        if grid is not None and task == "classify":
            raise SchemaError(f"task {task!r} reads no grid")
        if task == "oracle" and grid is not None and grid < ORACLE_MIN_GRID:
            raise SchemaError(f"the oracle needs grid >= {ORACLE_MIN_GRID} points per edge")
        exact = obj.get("exact", False)
        if not isinstance(exact, bool):
            raise SchemaError("exact must be a boolean")
        if exact and not system.is_exact_atomic:
            raise SchemaError("exact route requested but the system is not purely atomic")
        return cls(task, system, (lo, hi), DEFAULT_GRID.get(task) if grid is None else grid)


def builtin_problem(name: str) -> dict:
    """Problem dictionaries for the named bundled examples."""
    if name == "equilateral3":
        edge = Edge.of(math.pi, "free", 0.0).to_json()
        return {
            "task": "eigs",
            "system": {"edges": [edge, edge, edge], "interface": {"type": "standard"}},
            "window": ["0.1", 10],
        }
    if name == "kac2":
        m1 = ScalarMeasure.point(-1, 1).to_json()
        m2 = ScalarMeasure.point(1, 1).to_json()
        return {
            "task": "eigs",
            "system": {"edges": [m1, m2], "interface": {"type": "standard"}},
            "window": ["-0.9", "0.9"],
            "exact": True,
        }
    if name == "k74":
        mus = build_example_k74()
        return {
            "task": "classify",
            "system": {
                "edges": [m.to_json() for m in mus],
                "interface": {"type": "standard"},
            },
            "window": [0, 8],
        }
    raise SchemaError(f"unknown builtin {name!r}; have {BUILTINS}")


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


# The offset above the real axis of the plotted samples Im tr M(x + i eps)
# and of the `weyl` table.
PLOT_EPS = 1e-3


def emit_plot_data(system: PastedSystem, report: SpectralReport, grid: int) -> list:
    """Rows (x, Im tr M(x + i PLOT_EPS), marker) over the report window.

    Grid samples carry an empty marker; one extra row per eigenvalue holds
    its layer count.  Rows are sorted by x, ready to plot.  All rows come
    from one `trace_weyl` call on the array of their z, each with the bits
    of a call at that z alone.
    """
    lo, hi = float(report.window[0]), float(report.window[1])
    xs = [float(v) for v in np.linspace(lo, hi, grid)] if grid > 0 else []
    marks = {float(e.x): e.multiplicity for e in report.eigenvalues}
    xs_all = sorted(set(xs) | set(marks))
    traces = trace_weyl(system, np.array(xs_all) + 1j * PLOT_EPS).tolist()
    return [(x, float(t.imag), marks.get(x, "")) for x, t in zip(xs_all, traces)]


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


# The exact values the suites draw, looked up by the drawn integer so that
# no gcd runs per atom:
#   POSITIONS[k + 40] = k/8, MASSES[j] = j/16, OFFSETS[k + 8] = k/4,
#   HALVES[k + 6] = k/2, QUARTERS[j] = j/4.
POSITIONS = tuple(Fraction(k, 8) for k in range(-40, 41))
MASSES = tuple(Fraction(j, 16) for j in range(33))
OFFSETS = tuple(Fraction(k, 4) for k in range(-8, 9))
HALVES = tuple(Fraction(k, 2) for k in range(-6, 7))
QUARTERS = tuple(Fraction(j, 4) for j in range(9))


def random_atomic_rep(rng: np.random.Generator, max_atoms: int = 6,
                      allow_slope: bool = True) -> HerglotzRep:
    """Small random purely atomic representation with rational data."""
    n = int(rng.integers(1, max_atoms + 1))
    numerators = set()  # of the positions k/8, which sort as the k do
    while len(numerators) < n:
        numerators.add(int(rng.integers(-40, 41)))
    atoms = tuple((POSITIONS[k + 40], MASSES[int(rng.integers(1, 33))])
                  for k in sorted(numerators))
    a = OFFSETS[int(rng.integers(-8, 9)) + 8]
    b = HALVES[int(rng.integers(0, 3)) + 6] if allow_slope else Fraction(0)
    return HerglotzRep(a, b, ScalarMeasure(atoms))


def random_upper_z(rng: np.random.Generator) -> complex:
    return complex(float(rng.uniform(-5, 5)), float(rng.uniform(0.1, 4.0)))


def suite_rank_lemma(rng: np.random.Generator, trials: int = 1000) -> dict:
    """rank formula vs plain elimination on random integer data.

    `rank_md` runs both and raises on a mismatch; the trial also checks the
    rank against the one its data was drawn for.
    """
    failures = 0
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        b = rng.integers(1, 20, size=n).tolist()
        if rng.integers(0, 2):
            d = sum(b)
            expect = n - 1
        else:
            d = int(rng.integers(1, 200))
            expect = n - 1 if d == sum(b) else n
        got = rank_md(b, d)
        if got != expect:
            failures += 1
    return {"trials": trials, "failures": failures, "passed": failures == 0}


def suite_herglotz_psd(rng: np.random.Generator, trials: int = 1000) -> dict:
    """Im M positive semidefinite, symmetry, and the defining identity.

    Each trial draws its n entries and z in turn and reads its entry values
    at z and at conj(z).  Then the trials of one size n share one
    `matrix_from_values` call per point, which keeps every matrix's bits,
    and one `eigvalsh` on the stack of Im M.  The identity residual and the
    symmetry defect are measured per trial, each by numpy's Frobenius norm
    of that trial's matrix.
    """
    rows: dict = {}  # n -> (the values at z, the values at conj(z)) per trial
    for _ in range(trials):
        n = int(rng.integers(2, 6))
        sys_ = PastedSystem.of([random_atomic_rep(rng) for _ in range(n)])
        z = random_upper_z(rng)
        at_z, at_conj = rows.setdefault(n, ([], []))
        at_z.append(sys_.entry_values(z))
        at_conj.append(sys_.entry_values(z.conjugate()))
    worst_eig = 0.0
    worst_identity = 0.0
    worst_symmetry = 0.0
    for n, (at_z, at_conj) in rows.items():
        ms = np.array(at_z)
        M = matrix_from_values(ms)
        adjoint = M.conj().transpose(0, 2, 1)
        im = (M - adjoint) / 2j
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(im).min()))
        w = interface_matrix(n)
        w11, w12, w21, w22 = w[:n, :n], w[:n, n:], w[n:, :n], w[n:, n:]
        defects = matrix_from_values(np.array(at_conj)) - adjoint
        for values, Mk, defect in zip(ms, M, defects):
            mt = np.diag(values)
            resid = Mk @ (w11 + w12 @ mt) - (w21 + w22 @ mt)
            worst_identity = max(worst_identity, float(np.linalg.norm(resid)))
            worst_symmetry = max(worst_symmetry, float(np.linalg.norm(defect)))
    passed = worst_eig >= -1e-12 and worst_identity <= 1e-12 and worst_symmetry <= 1e-12
    return {
        "trials": trials,
        "min_imag_eigenvalue": worst_eig,
        "max_identity_residual": worst_identity,
        "max_symmetry_residual": worst_symmetry,
        "passed": passed,
    }


def suite_kac(rng: np.random.Generator, trials: int = 100) -> dict:
    """Every point-spectrum layer count of a two-entry system equals 1."""
    failures = 0
    checked = 0
    for _ in range(trials):
        # Draw atoms off a shared coarse lattice so overlaps actually happen.
        def measure():
            k = int(rng.integers(1, 6))
            pos = set()
            while len(pos) < k:
                pos.add(HALVES[int(rng.integers(-6, 7)) + 6])
            return ScalarMeasure.of(
                atoms=[(p, QUARTERS[int(rng.integers(1, 9))]) for p in pos]
            )

        sys_ = PastedSystem.of([measure(), measure()])
        ok, rep = verify_kac(sys_, (-4, 4))
        checked += rep["checked"]
        if not ok:
            failures += 1
    return {"trials": trials, "points_checked": checked,
            "failures": failures, "passed": failures == 0}


def suite_aronszajn_donoghue(rng: np.random.Generator, trials: int = 100) -> dict:
    """Pole sets of two differently anchored transforms never meet."""
    failures = 0
    for _ in range(trials):
        m = random_atomic_rep(rng, max_atoms=5, allow_slope=False)
        a1 = float(rng.uniform(0, math.pi))
        a2 = float(rng.uniform(0, math.pi))
        while a2 == a1:
            a2 = float(rng.uniform(0, math.pi))
        if not aronszajn_donoghue_check(m, a1, a2):
            failures += 1
    return {"trials": trials, "failures": failures, "passed": failures == 0}


def run_verify_suites(seed: int = 0, scale: float = 1.0) -> dict:
    """All four invariant suites with one seeded RNG; scale shrinks trial
    counts for quick runs (the defaults match the acceptance gates)."""
    rng = np.random.default_rng(seed)
    suites = {
        "rank-lemma": suite_rank_lemma(rng, max(1, int(1000 * scale))),
        "herglotz-psd": suite_herglotz_psd(rng, max(1, int(1000 * scale))),
        "kac": suite_kac(rng, max(1, int(100 * scale))),
        "aronszajn-donoghue": suite_aronszajn_donoghue(rng, max(1, int(100 * scale))),
    }
    suites["passed"] = all(v["passed"] for k, v in suites.items() if isinstance(v, dict))
    return suites


# ---------------------------------------------------------------------------
# Task runners
# ---------------------------------------------------------------------------


def run(problem: ProblemFile, out_dir, seed: int = 0) -> int:
    """Execute one task, write artifacts into out_dir, return the exit code."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        if problem.task == "eigs":
            skipped: list = []
            eigs = find_point_spectrum(problem.system, problem.window, skipped)
            notes = ("simple spectrum not searched inside the density intervals "
                     + ", ".join(f"[{a}, {b}]" for a, b in skipped),) if skipped else ()
            report = SpectralReport(window=problem.window, eigenvalues=tuple(eigs), notes=notes)
            _write_json(out / "report.json", report.to_json())
            _write_csv(out / "report.csv", ("x", "multiplicity", "provenance"),
                       report.csv_rows())
            rows = emit_plot_data(problem.system, report, grid=problem.grid)
            _write_csv(out / "plot.csv", ("x", "im_trace", "marker"), rows)
        elif problem.task == "classify":
            report = classify_spectrum(problem.system, problem.window)
            _write_json(out / "report.json", report.to_json())
            _write_csv(out / "report.csv", ("x", "multiplicity", "provenance"),
                       report.csv_rows())
        elif problem.task == "weyl":
            lo, hi = (float(v) for v in problem.window)
            n = problem.system.n
            xs = np.linspace(lo, hi, problem.grid)
            rows = []
            for x, M in zip(xs.tolist(), matrix_weyl(problem.system, xs + 1j * PLOT_EPS)):
                row = [x, PLOT_EPS]
                for i in range(n):
                    for j in range(n):
                        row.extend((float(M[i, j].real), float(M[i, j].imag)))
                rows.append(tuple(row))
            header = ["x", "eps"]
            for i in range(n):
                for j in range(n):
                    header.extend((f"m{i}{j}_re", f"m{i}{j}_im"))
            _write_csv(out / "weyl.csv", header, rows)
        elif problem.task == "oracle":
            res = fd_oracle(problem.system.entries, problem.window, grid=problem.grid)
            _write_json(out / "oracle.json", {
                "items": [[x, k] for x, k in res.items],
                "coarse": res.coarse,
                "h_max": res.h_max,
                "count_below_lo": res.count_below_lo,
                "count_below_hi": res.count_below_hi,
            })
            _write_csv(out / "oracle.csv", ("x", "multiplicity"), res.items)
        else:  # verify: `ProblemFile.parse` admits only the five tasks
            suites = run_verify_suites(seed=seed)
            _write_json(out / "verify.json", suites)
            if not suites["passed"]:
                return 4
    except ConvergenceError as exc:
        _write_json(out / "error.json", {"error": "non-convergence", "detail": str(exc)})
        return 3
    except InternalInvariantError as exc:
        _write_json(out / "error.json", {"error": "invariant-breach", "detail": str(exc)})
        return 4
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _load_problem(source: str, overrides: dict) -> ProblemFile:
    if source in BUILTINS:
        obj = {} if overrides["task"] == "verify" else builtin_problem(source)
    else:
        path = Path(source)
        if not path.exists():
            raise SchemaError(f"no such problem file or builtin: {source}")
        try:
            obj = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise SchemaError(f"problem file is not valid JSON: {exc}") from exc
    obj.update({k: v for k, v in overrides.items() if v is not None})
    return ProblemFile.parse(obj)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="starweyl",
        description="Spectra and local multiplicity of pasted interface problems.",
    )
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("problem", help=f"problem JSON path or one of {BUILTINS}")
    parser.add_argument("--window", nargs=2, metavar=("LO", "HI"))
    parser.add_argument("--grid", type=int)
    parser.add_argument("--exact", action="store_true", default=None)
    parser.add_argument("--out", default="out")
    parser.add_argument("--jobs", type=int, default=1,
                        help="must be 1: every task runs in one thread")
    parser.add_argument("--seed", type=int, help="verify only (default 0)")
    args = parser.parse_args(argv)

    overrides = {
        "task": args.task,
        "window": list(args.window) if args.window else None,
        "grid": args.grid,
        "exact": args.exact,
    }
    try:
        if args.jobs != 1:
            raise SchemaError(f"--jobs must be 1, got {args.jobs}")
        if args.seed is not None and args.task != "verify":
            raise SchemaError(f"task {args.task!r} reads no --seed")
        problem = _load_problem(args.problem, overrides)
        code = run(problem, args.out, seed=args.seed or 0)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=_sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())  # unreached: runs only as a script; tests call main()
