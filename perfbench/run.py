#!/usr/bin/env python3
"""Benchmark of the starweyl command line on seeded workloads.

    python3 perfbench/run.py --workload star-free --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from `src/`.  The
workload's problem files are generated from the seed, every task goes
through `starweyl.cli.main(argv)` in this one process (no threads, `--jobs
1`), and every artifact is checked against the benchmark's own reference.
The task list is repeated in passes until `--seconds` is used up; timings
are medians over passes of speed-normalized seconds (see `SpeedSampler`).
The last line of standard output is the result as JSON: end-to-end metrics
with `--trace 0`, per-layer metrics with `--trace 1` (one pass without
tracing, then one traced pass).  Everything a run writes goes under
`.perfbench-work/` in the checkout.
"""

import os

# One BLAS/OpenMP thread: the machine has two cores and the package is
# single-threaded; set before numpy is imported anywhere.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from speed import SpeedSampler, normalized  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 3

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("eigs_s", "s"), ("peak_rss_mb", "MB"))
KINDS = ("eigs", "weyl", "oracle", "classify", "verify")

_LAYERS = (
    "schrodinger.solve_edge", "schrodinger.weyl_m", "schrodinger.q_at",
    "schrodinger.dirichlet_eigenvalues", "pasting.matrix_weyl", "pasting.trace_weyl",
    "pasting.omega_at.exact", "pasting.omega_at.numeric", "herglotz.solve_level",
    "herglotz.eval_real", "herglotz.eval", "herglotz.atom_weight", "measure.atom_mass_at",
    "measure.add", "spectra.find_point_spectrum", "spectra.classify_spectrum",
    "spectra.fd_oracle", "spectra.eigsh", "cli.run", "cli.emit_plot_data",
)
_COUNTED = ("herglotz.richardson", "spectra.brentq", "schrodinger.brentq")
PER_LAYER = tuple(
    [(f"{name}.calls", "count") for name in _LAYERS + _COUNTED]
    + [(f"{name}.self_s", "s") for name in _LAYERS]
    + [("herglotz.solve_level.roots", "count"), ("herglotz.eval_real_per_root", "ratio"),
       ("trace.overhead_s", "s"), ("trace.uncovered_share", "ratio"), ("trace.spans", "count")]
)

SETUP_CODE = """\
import sys
from speed import SpeedSampler
with SpeedSampler() as sampler:
    import json
    import starweyl
    import starweyl.cli as cli
    for source in sys.argv[1:]:
        obj = json.loads(open(source).read()) if source.endswith(".json") else cli.builtin_problem(source)
        cli.ProblemFile.parse(obj)
print(json.dumps(sampler.samples))
"""
WARM_UP = (
    ("oracle", "equilateral3", "--grid", "100"),
    ("weyl", "equilateral3", "--grid", "2"),
    ("eigs", "kac2"),
    ("classify", "k74"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine_facts() -> dict:
    import numpy
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_count": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def _digests(out: Path) -> dict:
    if not out.is_dir():
        return {}
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir()) if f.is_file()}


def run_pass(cli_main, tasks, out_root: Path) -> list:
    """Run every task once; a task that raises or exits non-zero is recorded, not fatal.

    `elapsed_s` is the task's wall time, `raw_s` that minus the sampler's own
    time, and `seconds` scales `raw_s` to the reference speed (see
    `speed.normalized`).
    """
    records = []
    speeds = []
    for task in tasks:
        out = out_root / task.label
        argv = [*task.argv, "--out", str(out), "--jobs", "1"]
        gc.collect()
        error = None
        with SpeedSampler() as sampler:
            start = time.perf_counter()
            try:
                code = cli_main(argv)
            except (Exception, SystemExit) as exc:  # the run goes on; the task counts as failed
                code, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        if code not in (0, None):
            error = f"exit code {code}"
        seconds, raw, kernel_s = normalized(elapsed, sampler.samples, speeds)
        speeds.extend(sampler.samples)
        records.append({"label": task.label, "kind": task.kind, "elapsed_s": elapsed,
                        "raw_s": raw, "kernel_s": kernel_s, "seconds": seconds,
                        "error": error, "digests": _digests(out)})
    return records


def check_pass(checks, tasks, records, out_root: Path, expected: dict, verdicts: dict) -> None:
    """Check every artifact; byte-identical artifacts reuse the earlier verdict."""
    for task, rec in zip(tasks, records):
        if rec["error"] is not None:
            continue
        known = verdicts.get(task.label)
        if known is not None and known[0] == rec["digests"]:
            ok, details = known[1], known[2]
        else:
            try:
                ok, details = checks.check(task, out_root / task.label, expected[task.label])
            except Exception as exc:  # a malformed artifact fails its task only
                ok, details = False, {"reason": f"check raised {type(exc).__name__}: {exc}"}
            verdicts[task.label] = (rec["digests"], ok, details)
        rec["check"] = details
        if not ok:
            rec["error"] = f"output check failed: {details['reason']}"


def pass_times(records) -> dict:
    times = {"wall_s": sum(r["seconds"] for r in records)}
    for kind in KINDS:
        spent = [r["seconds"] for r in records if r["kind"] == kind]
        if spent:
            times[f"{kind}_s"] = sum(spent)
    return times


def measure_setup(tasks) -> list:
    """Speed-normalized seconds for fresh interpreters to import the package
    and parse the problems, each timed from launch to exit."""
    sources = sorted({task.problem or task.argv[1] for task in tasks})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *sources], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
        samples.append(normalized(elapsed, json.loads(proc.stdout.splitlines()[-1]))[0])
    return samples


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def timed_run(cli, checks, tasks, expected, seconds, work: Path) -> dict:
    passes, verdicts = [], {}
    start = time.perf_counter()
    while True:
        out_root = work / f"pass{len(passes)}"
        records = run_pass(cli.main, tasks, out_root)
        check_pass(checks, tasks, records, out_root, expected, verdicts)
        passes.append(records)
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    setup = measure_setup(tasks)
    per_pass = [pass_times(p) for p in passes]
    timings = {k: statistics.median(t[k] for t in per_pass) for k in per_pass[0]}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"setup_s": statistics.median(setup), "wall_s": timings["wall_s"],
              "eigs_s": timings["eigs_s"], "peak_rss_mb": rss_mb}
    return {"passes": passes, "setup_samples": setup, "timings": timings,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}}


def traced_run(cli, checks, tasks, expected, work: Path) -> dict:
    import spans

    verdicts = {}
    plain = run_pass(cli.main, tasks, work / "pass0")
    check_pass(checks, tasks, plain, work / "pass0", expected, verdicts)
    recorder = spans.SpanRecorder()
    undo = spans.install(recorder)
    try:
        traced = run_pass(cli.main, tasks, work / "pass1")
    finally:
        spans.uninstall(undo)
    check_pass(checks, tasks, traced, work / "pass1", expected, verdicts)
    recorder.save(work / "spans.npz")

    summary = recorder.summary()
    wall_plain = pass_times(plain)["wall_s"]
    wall_traced = pass_times(traced)["wall_s"]
    elapsed_traced = sum(r["elapsed_s"] for r in traced)  # same clock as the spans
    roots = recorder.counters.get("herglotz.solve_level.roots", 0)
    in_level = recorder.calls_inside("herglotz.eval_real", "herglotz.solve_level")
    values = {
        "herglotz.solve_level.roots": roots,
        "herglotz.eval_real_per_root": in_level / roots if roots else 0.0,
        "trace.overhead_s": wall_traced - wall_plain,
        "trace.uncovered_share": max(0.0, elapsed_traced - summary["root_s"]) / elapsed_traced,
        "trace.spans": summary["spans"],
    }
    for name, unit in PER_LAYER:
        if name not in values:
            layer, field = name.rsplit(".", 1)
            values[name] = summary["layers"].get(layer, {"calls": 0, "self_s": 0.0})[field]
    return {"passes": [plain, traced], "timings": pass_times(plain),
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}}


def _result_line(result: dict) -> dict:
    records = [r for p in result["passes"] for r in p]
    failed = sum(1 for r in records if r["error"] is not None)
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": result["metrics"]}


def _report(args, tasks, result: dict) -> dict:
    """Everything beyond the result line: per-kind times, errors, digests, machine."""
    records = [r for p in result["passes"] for r in p]
    first = result["passes"][0]
    relerr = [r["check"]["eig_relerr_max"] for r in first if "eig_relerr_max" in r.get("check", {})]
    by_label = {t.label: t for t in tasks}
    failures = [{"label": r["label"], "argv": list(by_label[r["label"]].argv),
                 "problem": by_label[r["label"]].problem, "error": r["error"]}
                for r in records if r["error"] is not None]
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(result["passes"]),
        "timings_s": result["timings"],
        "error_rate": len(failures) / len(records),
        "eig_relerr_max": max(relerr) if relerr else None,
        "failures": failures,
        "setup_samples_s": result.get("setup_samples"),
        "task_seconds": {r["label"]: [p[i]["seconds"] for p in result["passes"]]
                         for i, r in enumerate(first)},
        "task_raw_s": {r["label"]: [p[i]["raw_s"] for p in result["passes"]]
                       for i, r in enumerate(first)},
        "task_kernel_s": {r["label"]: [p[i]["kernel_s"] for p in result["passes"]]
                          for i, r in enumerate(first)},
        "sha256": {r["label"]: {k: v for k, v in r["digests"].items()
                                if k in ("report.json", "oracle.json")} for r in first},
        "deterministic": all(p[i]["digests"] == r["digests"]
                             for p in result["passes"] for i, r in enumerate(first)),
        "checks": {r["label"]: r.get("check") for r in first},
        "machine": machine_facts(),
    }


def _print_table(report: dict, result: dict) -> None:
    print(f"perfbench {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"passes={report['passes']}")
    rows = dict((k, (v["value"], v["unit"])) for k, v in result["metrics"].items())
    if not report["trace"]:
        for kind in KINDS:
            key = f"{kind}_s"
            rows.setdefault(key, (report["timings_s"][key], "s") if key in report["timings_s"]
                            else ("absent", ""))
        rows["error_rate"] = (report["error_rate"], "ratio")
        rows["eig_relerr_max"] = ((report["eig_relerr_max"], "ratio")
                                  if report["eig_relerr_max"] is not None else ("absent", ""))
    for name, (value, unit) in rows.items():
        print(f"  {name:42s} {value!s:>24} {unit}")
    for failure in report["failures"]:
        print(f"  FAILED {failure['label']}: {failure['error']} (input {failure['problem']})")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "starweyl" / "cli.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import starweyl.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "starweyl").resolve():
        print(f"perfbench: imported starweyl from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    tasks = workloads.generate(args.workload, args.seed, work / "problems")
    expected = {task.label: checks.expect(task) for task in tasks}
    for argv_warm in WARM_UP:  # lazy imports and first-call set-up inside scipy
        cli.main([*argv_warm, "--out", str(work / "warm"), "--jobs", "1"])
    if args.trace:
        result = traced_run(cli, checks, tasks, expected, work)
    else:
        result = timed_run(cli, checks, tasks, expected, args.seconds, work)
    report = _report(args, tasks, result)
    line = _result_line(result)
    (work / "result.json").write_text(json.dumps({"result": line, "report": report}, indent=1))
    _print_table(report, result)
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
