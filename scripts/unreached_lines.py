"""The executable lines of `src/starweyl/` that neither tier-1 nor the
benchmark's workloads reach.

    python scripts/unreached_lines.py --seed 0

A `sys.settrace` recorder, limited to the files under `src/starweyl/`, is
installed before the package is imported.  It then records every line run
by two runs in this one process:

- tier-1, the test suite under `tests/`, through `pytest.main`, with
  Hypothesis seeded so that the lines its draws reach repeat run to run;
- every task of the three benchmark workloads for one seed, generated by
  `perfbench/workloads.py` and run through `starweyl.cli.main`.

The executable lines of a module are the line numbers of its compiled code
objects (`co_lines`), so docstrings and comments are not counted.  A line
that no run can reach carries a trailing comment `# unreached: <reason>`.
Prints, per module, the unreached lines without that marker as ranges and
how many there are, then every marked line with its reason, then the exit
code of each run; problem files and artifacts go to a temporary directory.
Tracing makes the test suite about two and a half times slower.

Exits 1 when a module has an unreached line without the marker, when a
marker stands on a line that is not an unreached one (it was reached, or is
no code: the marker is stale), or when tier-1 or a workload task exits
nonzero; 0 otherwise.
"""

from __future__ import annotations

import argparse
import re
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "starweyl"
MARKER = re.compile(r"#\s*unreached:\s*(\S.*)$")


def executable_lines(path: Path) -> set:
    """Line numbers of every code object compiled from the file."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def start_recording() -> dict:
    """Install the recorder; returns {file name: set of lines reached}."""
    reached = {str(p): set() for p in PACKAGE.glob("*.py")}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        if frame.f_code.co_filename in reached:
            reached[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    sys.settrace(on_call)
    return reached


def run_tier1() -> int:
    import pytest

    return int(pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed", "0",
                            "--rootdir", str(ROOT), str(ROOT / "tests")]))


def run_workloads(seed: int, work: Path) -> dict:
    """Exit codes of every workload task, by workload and label."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    from starweyl import cli

    codes = {}
    for name in workloads.WORKLOADS:
        for task in workloads.generate(name, seed, work / name / "problems"):
            out = work / name / task.label
            codes[f"{name}/{task.label}"] = cli.main([*task.argv, "--out", str(out),
                                                     "--jobs", "1"])
    return codes


def ranges(lines) -> str:
    """Line numbers as ranges: [3, 4, 5, 9] gives "3-5, 9"."""
    spans = []
    for line in sorted(lines):
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="the workloads' seed")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    reached = start_recording()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            codes = run_workloads(args.seed, Path(tmp))
            tier1 = run_tier1()
    finally:
        sys.settrace(None)
    faults = 0
    for path in sorted(PACKAGE.glob("*.py")):
        marks = {n: m.group(1) for n, line in enumerate(path.read_text().splitlines(), 1)
                 if (m := MARKER.search(line))}
        missed = executable_lines(path) - reached[str(path)]
        unmarked = missed - set(marks)
        print(f"{path.name}: {len(unmarked)} unreached: {ranges(unmarked) or '-'}")
        for n, reason in sorted(marks.items()):
            stale = n not in missed
            print(f"  {path.name}:{n} marked{' (stale: no unreached line)' if stale else ''}: "
                  f"{reason}")
            faults += stale
        faults += len(unmarked)
    failed = {label: code for label, code in codes.items() if code != 0}
    print(f"tier-1 exit code {tier1}; workload tasks {len(codes)}, nonzero exits {failed}")
    return int(bool(faults or tier1 or failed))


if __name__ == "__main__":
    raise SystemExit(main())
