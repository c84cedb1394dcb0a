"""Tests of the benchmark itself: python3 -m pytest perfbench -q (from the repo root)."""

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from starweyl import cli  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_problem_files(tmp_path, workload):
    first = workloads.generate(workload, 7, tmp_path / "a")
    again = workloads.generate(workload, 7, tmp_path / "b")
    other = workloads.generate(workload, 8, tmp_path / "c")
    assert [t.label for t in first] == [t.label for t in again] == [t.label for t in other]
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


class _AlwaysOk:
    @staticmethod
    def check(task, out_dir, expected):
        return True, {}


def _none(tasks):
    return {task.label: None for task in tasks}


def _kac2_eigs():
    return workloads.Task("kac2.eigs", "eigs", ("eigs", "kac2"))


def test_failing_task_is_counted_and_run_goes_on(tmp_path):
    def cli_main(argv):
        if argv[0] == "weyl":
            raise RuntimeError("injected crash")
        return cli.main(argv)

    tasks = [
        workloads.Task("missing.eigs", "eigs", ("eigs", str(tmp_path / "missing.json"))),
        workloads.Task("crash.weyl", "weyl", ("weyl", "kac2")),
        _kac2_eigs(),
    ]
    records = run.run_pass(cli_main, tasks, tmp_path / "out")
    run.check_pass(_AlwaysOk, tasks, records, tmp_path / "out", _none(tasks), {})
    assert [r["error"] is None for r in records] == [False, False, True]
    assert records[0]["error"] == "exit code 2"
    assert "injected crash" in records[1]["error"]
    line = run._result_line({"passes": [records], "metrics": {}})
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 3, 2)


def test_failed_output_check_counts_as_failure(tmp_path):
    class Reject:
        @staticmethod
        def check(task, out_dir, expected):
            return False, {"reason": "wrong answer"}

    tasks = [_kac2_eigs()]
    records = run.run_pass(cli.main, tasks, tmp_path / "out")
    run.check_pass(Reject, tasks, records, tmp_path / "out", _none(tasks), {})
    assert records[0]["error"] == "output check failed: wrong answer"


def _names(entries):
    return [(e["name"], e["unit"]) for e in entries]


def test_printed_metric_names_match_benchmark_json(tmp_path):
    tasks = [_kac2_eigs(), workloads.Task("k74.classify", "classify", ("classify", "k74"))]
    timed = run.timed_run(cli, _AlwaysOk, tasks, _none(tasks), 0.1, tmp_path / "timed")
    traced = run.traced_run(cli, _AlwaysOk, tasks, _none(tasks), tmp_path / "traced")
    printed_e2e = [(k, v["unit"]) for k, v in timed["metrics"].items()]
    printed_layer = [(k, v["unit"]) for k, v in traced["metrics"].items()]
    assert printed_e2e == _names(BENCHMARK["end_to_end"])
    assert printed_layer == _names(BENCHMARK["per_layer"])
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert all(v["value"] > 0 for v in timed["metrics"].values())
    assert traced["metrics"]["herglotz.solve_level.roots"]["value"] >= 1


def test_exact_check_certifies_a_zero():
    import reference

    S, poles = reference.summed_function([[(Fraction(-1), Fraction(1))],
                                          [(Fraction(1), Fraction(1))]])
    assert reference.certify_zero(S, poles, Fraction(0)) == (-1, 1)
    assert reference.certify_zero(S, poles, Fraction(1, 3)) is None
