"""Problem-file parsing, artifact layout, exit codes, and determinism."""

import json
import math
import time
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import starweyl.cli as cli
from starweyl import pasting, schrodinger, spectra
from starweyl import (
    ConvergenceError,
    Edge,
    HerglotzRep,
    InternalInvariantError,
    ScalarMeasure,
    SchemaError,
    SpectralReport,
)
from starweyl.cli import (
    BUILTINS,
    ProblemFile,
    builtin_problem,
    emit_plot_data,
    main,
    run,
    run_verify_suites,
)
from starweyl.measure import number_from_json


DATA = Path(__file__).parent / "data"
MEASURE = {"atoms": [[1, 1]], "pieces": []}


def parse(**kw):
    base = {"task": "eigs", "system": builtin_problem("equilateral3")["system"],
            "window": [-1, 1]}
    base.update(kw)
    return ProblemFile.parse(base)


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------


def test_parse_happy_path():
    p = parse(system=builtin_problem("kac2")["system"], grid=30, exact=True)
    assert p.task == "eigs"
    assert p.window == (Fraction(-1), Fraction(1))
    assert p.grid == 30
    # `exact` is checked, not kept: the entries pick the route
    assert [f.name for f in fields(ProblemFile)] == ["task", "system", "window", "grid"]


@pytest.mark.parametrize(
    "mutation",
    [
        {"task": "solve"},
        {"task": None},
        {"window": None},
        {"window": [1]},
        {"window": [2, 1]},
        {"window": [0, 0]},
        {"window": ["nonsense", 1]},
        {"window": [[0], 1]},
        {"surprise": True},
        {"grid": 0},
        {"exact": "yes"},
        {"system": {"edges": "not-a-list"}},
        {"window": ["-1e400", 1]},
        {"window": [0, 10**400]},
        {"task": "classify", "grid": 10},
        {"exact": 1},
        # numbers whose float is 0 where a length must be positive, or that
        # overflow a float
        {"system": {"edges": [{"length": "1e-400"}, {"length": 1}]}},
        {"system": {"edges": [{"length": "1e400"}, {"length": 1}]}},
        {"system": {"edges": [{"length": 1, "potential": {"pieces": [
            {"interval": [0, 1], "coeffs": ["1e400"]}]}}, {"length": 1}]}},
        {"system": {"edges": [{"atoms": [["1e400", 1]], "pieces": []}, MEASURE]}},
        {"system": {"edges": [{"atoms": [[0, "1e400"]], "pieces": []}, MEASURE]}},
        # decimal exponents beyond measure.MAX_DECIMAL_EXPONENT, refused unread
        {"system": {"edges": [{"atoms": [["1e-999999999", 1]], "pieces": []}, MEASURE]}},
        {"system": {"edges": [{"atoms": [[0, "1e-999999999"]], "pieces": []}, MEASURE]}},
        {"window": [0, "1e-999999999"]},
    ],
)
def test_parse_rejections(mutation):
    with pytest.raises(SchemaError):
        parse(**mutation)


@pytest.mark.parametrize("where", ["position", "mass", "window"])
def test_huge_decimal_exponents_exit_2_at_once(tmp_path, where):
    # Fraction would build 10**999999999 before any range check.
    big = "1e-999999999"
    atom = {"position": [big, 1], "mass": [0, big], "window": [0, 1]}[where]
    problem = {"task": "eigs", "window": [-1, big if where == "window" else 1],
               "system": {"edges": [{"atoms": [atom], "pieces": []}, MEASURE],
                          "interface": {"type": "standard"}}}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    start = time.perf_counter()
    assert main(["eigs", str(path), "--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("where", ["position", "length", "coefficient"])
def test_a_zero_denominator_anywhere_is_exit_2(tmp_path, capsys, where):
    # "1/0" in the window always exited 2; in the system it escaped `main`
    # as a ZeroDivisionError
    edges = {
        "position": [{"atoms": [["1/0", 1]], "pieces": []}, MEASURE],
        "length": [{"length": "1/0"}, {"length": 1}],
        "coefficient": [{"length": 1, "potential": {"pieces": [
            {"interval": [0, 1], "coeffs": ["1/0"]}]}}, {"length": 1}],
    }[where]
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"task": "eigs", "window": [-1, 1], "system": {
        "edges": edges, "interface": {"type": "standard"}}}))
    assert main(["eigs", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "'1/0' has a zero denominator" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["1e-10000", "1E+300", "-2.5e-1_000", "3e0", "1e-400"])
def test_decimal_exponents_within_the_bound_are_read(text):
    assert number_from_json(text) == Fraction(text)


@pytest.mark.parametrize(
    "mutation",
    [{"window": [0, math.inf]}, {"window": [math.nan, 1]}, {"window": [0, "1e400"]},
     {"window": [True, 1]}, {"grid": True}, {"exact": 1}],
)
def test_parse_rejects_non_finite_and_boolean_numbers(mutation):
    # JSON `true` is an int to Python and used to pass as 1.
    with pytest.raises(SchemaError):
        parse(**mutation)


@pytest.mark.parametrize(
    "argv",
    [["classify", "k74", "--eps0", "0.1"], ["classify", "k74", "--eps-steps", "5"],
     ["classify", "k74", "--grid", "10"],
     ["oracle", "equilateral3", "--eps0", "0.1"],
     ["oracle", "equilateral3", "--eps-steps", "5"],
     ["verify", "kac2", "--eps0", "0.1"], ["verify", "kac2", "--eps-steps", "5"],
     ["verify", "kac2", "--grid", "10"],
     ["eigs", "kac2", "--eps0", "0.1"], ["eigs", "kac2", "--eps-steps", "5"],
     ["eigs", "equilateral3", "--eps0", "0.1"],
     ["eigs", "equilateral3", "--eps-steps", "5"],
     ["weyl", "equilateral3", "--eps-steps", "5"]],
    ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_main_rejects_keys_the_task_never_reads(argv, tmp_path, capsys):
    # No computation of the task reads the key: it is rejected, not ignored.
    # The entries choose the eps ladder, so argparse exits 2 on its flags.
    out = tmp_path / "out"
    try:
        code = main(argv + ["--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    if argv[2] == "--grid":
        assert "reads no grid" in err
    else:
        assert f"unrecognized arguments: {argv[2]} {argv[3]}" in err
    assert not out.exists()


def test_parse_keeps_the_keys_a_task_reads():
    assert parse(grid=9).grid == 9
    # the parser sets each task's default grid; `run` reads it as it is
    assert [parse(task=t).grid for t in ("eigs", "weyl", "oracle")] == [200, 50, 4000]
    assert ProblemFile.parse(builtin_problem("k74")).grid is None
    assert parse(task="weyl", grid=9).grid == 9
    assert parse(task="oracle", grid=200).grid == 200
    kac2 = builtin_problem("kac2")
    assert ProblemFile.parse({**kac2, "grid": 9}).grid == 9
    # `verify` runs suites on data of its own: the builtin's keys are not read
    with pytest.raises(SchemaError, match="reads no exact, system, window"):
        ProblemFile.parse({**kac2, "task": "verify"})


@pytest.mark.parametrize(
    "argv",
    [["verify", "kac2", "--window", "0", "1"], ["verify", "kac2", "--exact"],
     ["verify", "kac2.json"], ["eigs", "kac2", "--seed", "0"],
     ["classify", "k74", "--seed", "3"]],
    ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_only_verify_reads_the_seed_and_it_reads_nothing_else(argv, tmp_path, capsys,
                                                             monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("kac2.json").write_text(json.dumps(builtin_problem("kac2")))
    assert main(argv + ["--out", "out"]) == 2
    err = capsys.readouterr().err
    assert ("reads no --seed" in err) if "--seed" in argv else ("only --seed" in err)
    assert not Path("out").exists()


@pytest.mark.parametrize("key", ["eps0", "eps_steps"])
def test_main_reports_eps_ladder_keys_as_unknown(key, tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({**builtin_problem("equilateral3"), key: 5}))
    assert main(["eigs", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"unknown problem keys: ['{key}']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv", [["eigs", "equilateral3"], ["eigs", "kac2"], ["weyl", "equilateral3"],
             ["oracle", "equilateral3"]],
    ids=lambda argv: "-".join(argv))
@pytest.mark.parametrize("spelling", ['"1e400"', "1e400"], ids=["string", "number"])
def test_main_rejects_window_ends_beyond_the_float_range(argv, spelling, tmp_path, capsys):
    # The string spelling used to pass parse and exit 1 with an OverflowError.
    problem = {**builtin_problem(argv[1]), "task": argv[0]}
    problem["window"] = [problem["window"][0], "HI"]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(problem).replace('"HI"', spelling))
    assert main([argv[0], str(path), "--out", str(tmp_path / "out")]) == 2
    assert "schema error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# (misspelt key, system): each used to run with the key silently ignored.
MISSPELT_SYSTEMS = {
    "edge": ("outer_angel", {"edges": [{"length": 1, "outer_angel": 1.2}, {"length": 1}]}),
    "interface": ("angels", {"edges": [MEASURE, MEASURE],
                             "interface": {"type": "standard", "angels": [0.1, 0.2]}}),
    "measure": ("mass", {"edges": [{**MEASURE, "mass": 2}, MEASURE]}),
    "rep": ("slope", {"edges": [{"a": 0, "b": 0, "omega": MEASURE, "slope": 1}, MEASURE]}),
    "density-piece": ("weight", {"edges": [MEASURE, {"atoms": [], "pieces": [
        {"interval": [0, 1], "coeffs": [1], "weight": 2}]}]}),
    "potential": ("pices", {"edges": [{"length": 1, "potential": {"pices": []}},
                                      {"length": 1}]}),
    "potential-piece": ("degree", {"edges": [{"length": 1, "potential": {"pieces": [
        {"interval": [0, 1], "coeffs": [1], "degree": 0}]}}, {"length": 1}]}),
    "half-line": ("outer_angle", {"edges": [{"length": 1},
                                            {"length": "inf", "outer_angle": 0.5}]}),
    "system": ("interfaces", {"edges": [MEASURE, MEASURE],
                              "interfaces": {"type": "standard"}}),
}


@pytest.mark.parametrize("key, system", MISSPELT_SYSTEMS.values(), ids=MISSPELT_SYSTEMS)
def test_main_rejects_misspelt_system_keys(key, system, tmp_path, capsys):
    path = tmp_path / "misspelt.json"
    path.write_text(json.dumps({"task": "weyl", "window": [0.5, 2], "system": system}))
    assert main(["weyl", str(path), "--grid", "3", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "bad system spec" in err and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("angle", [True, "0.5", "1/2", 10**400],
                         ids=["true", "decimal-string", "p/q-string", "huge-int"])
def test_main_rejects_an_outer_angle_that_is_not_a_number(angle, tmp_path, capsys):
    # `true` used to run as 1.0 and "0.5" as 0.5, through float(), which
    # raised OverflowError on the 400-digit integer
    path = tmp_path / "angle.json"
    path.write_text(json.dumps({"task": "weyl", "window": [0.5, 2], "system": {
        "edges": [{"length": 1, "outer_angle": angle}, {"length": 1}]}}))
    assert main(["weyl", str(path), "--grid", "3", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "bad system spec" in err and "outer_angle must be a JSON number in [0, pi)" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("jobs", ["2", "0"])
def test_main_accepts_only_one_job(jobs, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["eigs", "kac2", "--jobs", jobs, "--out", str(out)]) == 2
    assert "--jobs must be 1" in capsys.readouterr().err
    assert not out.exists()
    assert main(["eigs", "kac2", "--jobs", "1", "--out", str(out)]) == 0


def rotated_kac2() -> dict:
    problem = builtin_problem("kac2")
    problem["system"]["interface"] = {"type": "angles", "a": [0.7, 1.9], "b": 0.4}
    return problem


@pytest.mark.parametrize("task", cli.TASKS)
def test_parse_rejects_interface_angles_for_every_task(task):
    with pytest.raises(SchemaError, match="interface angles"):
        ProblemFile.parse({**rotated_kac2(), "task": task})


def test_main_rejects_the_rotated_kac2(tmp_path, capsys):
    # No computation reads the angles: this used to write the standard report.
    path = tmp_path / "rotated.json"
    path.write_text(json.dumps(rotated_kac2()))
    assert main(["eigs", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "interface angles" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("task", ["eigs", "oracle"])
def test_main_rejects_infinite_edges_where_poles_are_needed(task, tmp_path, capsys):
    edges = [Edge.of(math.pi).to_json(), Edge.of("inf").to_json()]
    path = tmp_path / "half_line.json"
    path.write_text(json.dumps({"task": task, "window": [0.5, 5],
                                "system": {"edges": edges}}))
    assert main([task, str(path), "--out", str(tmp_path / task)]) == 2
    assert "finite edges" in capsys.readouterr().err
    # the weyl task has no poles to find and keeps working
    assert main(["weyl", str(path), "--grid", "3", "--out", str(tmp_path / "weyl")]) == 0


def test_parse_not_an_object():
    with pytest.raises(SchemaError):
        ProblemFile.parse(["eigs"])


def test_parse_system_required_except_for_verify():
    with pytest.raises(SchemaError):
        ProblemFile.parse({"task": "eigs", "window": [0, 1]})
    p = ProblemFile.parse({"task": "verify"})
    assert p.system is None and p.window is None


def test_builtin_problems_all_parse():
    for name in BUILTINS:
        p = ProblemFile.parse(builtin_problem(name))
        assert p.system is not None
    with pytest.raises(SchemaError):
        builtin_problem("k75")


def test_builtin_kac2_is_exact():
    p = ProblemFile.parse(builtin_problem("kac2"))
    assert p.system.is_exact_atomic and p.system.n == 2


# ---------------------------------------------------------------------------
# plot data
# ---------------------------------------------------------------------------


def test_emit_plot_data_marker_rows():
    p = ProblemFile.parse(builtin_problem("kac2"))
    report = SpectralReport.from_json(
        json.loads(json.dumps({
            "window": [-0.5, 0.5],
            "eigenvalues": [{"x": 0, "multiplicity": 1, "provenance": "overlap"}],
            "ac_regions": [], "sac_items": [], "ss_items": [],
            "vanished": [], "notes": [],
        }))
    )
    rows = emit_plot_data(p.system, report, grid=0)
    assert len(rows) == 1
    x, v, marker = rows[0]
    assert x == 0.0 and marker == 1
    assert v > 100  # 1e-3 off an eigenvalue the trace blows up


def test_emit_plot_data_grid_and_parallel_agree():
    p = ProblemFile.parse(builtin_problem("kac2"))
    report = SpectralReport(window=(Fraction(-1, 2), Fraction(1, 2)))
    rows = emit_plot_data(p.system, report, grid=9)
    assert len(rows) == 9
    assert [r[2] for r in rows] == [""] * 9


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def test_verify_suites_small_scale():
    out = run_verify_suites(seed=7, scale=0.02)
    assert out["passed"]
    assert set(out) == {"rank-lemma", "herglotz-psd", "kac",
                        "aronszajn-donoghue", "passed"}
    assert out["rank-lemma"]["trials"] == 20
    assert out["kac"]["points_checked"] > 0


def test_rank_lemma_eliminates_once_per_trial(monkeypatch):
    calls = []
    original = pasting.exact_rank

    def counted(rows):
        calls.append(rows)
        return original(rows)

    for module in (pasting, cli):
        if vars(module).get("exact_rank") is original:
            monkeypatch.setattr(module, "exact_rank", counted)
    out = cli.suite_rank_lemma(np.random.default_rng(7), trials=20)
    assert out == {"trials": 20, "failures": 0, "passed": True}
    assert len(calls) == 20


def test_each_suite_counts_the_trials_whose_check_fails(monkeypatch):
    monkeypatch.setattr(cli, "rank_md", lambda b, d: -1)
    monkeypatch.setattr(cli, "verify_kac", lambda sys_, window: (False, {"checked": 2}))
    monkeypatch.setattr(cli, "aronszajn_donoghue_check", lambda m, a1, a2: False)
    rng = np.random.default_rng(7)
    assert cli.suite_rank_lemma(rng, trials=3) == {"trials": 3, "failures": 3, "passed": False}
    assert cli.suite_kac(rng, trials=3) == {"trials": 3, "points_checked": 6,
                                            "failures": 3, "passed": False}
    assert cli.suite_aronszajn_donoghue(rng, trials=3) == {"trials": 3, "failures": 3,
                                                           "passed": False}


def test_aronszajn_donoghue_suite_redraws_an_equal_second_angle(monkeypatch):
    class Draws:
        """A generator whose angle draws repeat the first once."""

        def __init__(self):
            self.rng, self.angles = np.random.default_rng(7), iter([0.5, 0.5, 1.5])

        def integers(self, *args, **kwargs):
            return self.rng.integers(*args, **kwargs)

        def uniform(self, lo, hi):
            return next(self.angles)

    seen = []
    monkeypatch.setattr(cli, "aronszajn_donoghue_check",
                        lambda m, a1, a2: seen.append((a1, a2)) or True)
    out = cli.suite_aronszajn_donoghue(Draws(), trials=1)
    assert out == {"trials": 1, "failures": 0, "passed": True}
    assert seen == [(0.5, 1.5)]


def test_verify_suites_are_seeded():
    a = run_verify_suites(seed=3, scale=0.01)
    b = run_verify_suites(seed=3, scale=0.01)
    assert a == b


def test_verify_seed0_writes_the_pinned_bytes(tmp_path):
    # The same draws in the same order and every check computed: the file
    # must not change by a byte, residuals included.
    assert main(["verify", "kac2", "--seed", "0", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "verify.json").read_bytes() == (DATA / "verify.seed0.json").read_bytes()


# ---------------------------------------------------------------------------
# task runners and artifacts
# ---------------------------------------------------------------------------


def test_run_eigs_writes_report_and_plot(tmp_path):
    p = ProblemFile.parse({**builtin_problem("kac2"), "grid": 24})
    assert run(p, tmp_path) == 0
    report = SpectralReport.from_json(
        json.loads((tmp_path / "report.json").read_text()))
    assert [(e.x, e.multiplicity) for e in report.eigenvalues] == [(0, 1)]
    assert report.window == (Fraction(-9, 10), Fraction(9, 10))
    csv_lines = (tmp_path / "report.csv").read_text().splitlines()
    assert csv_lines[0] == "x,multiplicity,provenance"
    assert csv_lines[1].startswith("0.0,1,")
    plot_lines = (tmp_path / "plot.csv").read_text().splitlines()
    assert plot_lines[0] == "x,im_trace,marker"
    assert len(plot_lines) == 1 + 24 + 1  # header, grid, one marker row
    assert sum(1 for l in plot_lines[1:] if l.endswith(",1")) == 1


def test_run_is_deterministic(tmp_path):
    p = ProblemFile.parse({**builtin_problem("kac2"), "grid": 16})
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(p, a) == 0 and run(p, b) == 0
    for name in ("report.json", "report.csv", "plot.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("atoms, window, inside", [
    # a zero about 2^-1000 above a tiny atom, past 200 bracket candidates
    ([[0, f"1/{2**1000}"]], [-1, 2], (Fraction(1, 2**1001), Fraction(1, 2**999))),
    # the zero near 0; the gap (1, infinity) has its zero near 2^1002
    ([[-1, f"{2**1000 + 1}/{2**1000}"]], [-3, 3], (Fraction(-1, 2**60), Fraction(1, 2**60))),
])
def test_exact_eigs_finds_the_zeros_next_to_tiny_masses(atoms, window, inside, tmp_path):
    path = tmp_path / "p.json"
    edges = [{"atoms": atoms, "pieces": []}, {"atoms": [[1, 1]], "pieces": []}]
    path.write_text(json.dumps({"task": "eigs", "exact": True, "window": window,
                                "system": {"edges": edges}}))
    assert main(["eigs", str(path), "--exact", "--out", str(tmp_path / "out")]) == 0
    report = SpectralReport.from_json(json.loads((tmp_path / "out" / "report.json").read_text()))
    [e] = report.eigenvalues
    assert e.provenance == "kirchhoff-zero" and inside[0] < e.x < inside[1]


def test_exact_eigs_resolves_a_tiny_zero_relative_to_its_size(tmp_path):
    # The zero near 2^-1002 of the atoms (-1, 1 + 2^-1000) and (1, 1): the
    # summed function changes sign across x (1 -+ 2^-60), not just within
    # 2^-64 of it.
    atoms = [[-1, f"{2**1000 + 1}/{2**1000}"]], [[1, 1]]
    edges = [{"atoms": a, "pieces": []} for a in atoms]
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"task": "eigs", "exact": True, "window": [-3, 3],
                                "system": {"edges": edges}}))
    assert main(["eigs", str(path), "--exact", "--out", str(tmp_path / "out")]) == 0
    report = SpectralReport.from_json(json.loads((tmp_path / "out" / "report.json").read_text()))
    [e] = [e for e in report.eigenvalues if abs(e.x) < 1]
    reps = [HerglotzRep.from_measure(ScalarMeasure.from_json(m)) for m in edges]
    x = Fraction(e.x)
    assert sum(r.eval_real(x * (1 - Fraction(1, 2**60))) for r in reps) < 0
    assert sum(r.eval_real(x * (1 + Fraction(1, 2**60))) for r in reps) > 0


def test_eigs_names_the_density_intervals_it_does_not_search(tmp_path):
    # two densities overlap in (1, 2) and one reaches past the window's end
    m1 = {"atoms": [[-2, 1], [2, 1]], "pieces": [
        {"interval": [1, 2], "coeffs": [1]}, {"interval": [2, 4], "coeffs": [1]}]}
    m2 = {"atoms": [[-1, 1]], "pieces": [{"interval": ["3/2", "5/2"], "coeffs": [1]}]}
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"task": "eigs", "window": [-3, 3],
                                "system": {"edges": [m1, m2]}}))
    assert main(["eigs", str(path), "--out", str(tmp_path / "out")]) == 0
    obj = json.loads((tmp_path / "out" / "report.json").read_text())
    assert obj["notes"] == ["simple spectrum not searched inside the density intervals [1.0, 3.0]"]
    assert [e["provenance"] for e in obj["eigenvalues"]] == ["kirchhoff-zero"] * 2


@pytest.mark.parametrize("name, task", [("atomic4x10", "eigs"), ("k74x24", "classify")])
def test_report_is_byte_identical_to_the_frozen_artifact(tmp_path, name, task):
    # Frozen from the Fraction-evaluating solver: a 4-entry atomic system
    # with 10 atoms per entry (exact eigs) and k74 at 24 atoms per unit.
    problem = DATA / f"{name}.json"
    argv = [task, str(problem), "--out", str(tmp_path)]
    if task == "eigs":
        argv.append("--exact")
    assert main(argv) == 0
    want = (DATA / f"{name}.report.json").read_bytes()
    assert (tmp_path / "report.json").read_bytes() == want


def test_run_classify_showcase(tmp_path):
    p = ProblemFile.parse(builtin_problem("k74"))
    assert run(p, tmp_path) == 0
    obj = json.loads((tmp_path / "report.json").read_text())
    assert len(obj["eigenvalues"]) == 36
    assert len(obj["vanished"]) == 48
    assert obj["ac_regions"] == [{"interval": [4.5, 8], "r": 4}]
    assert len((tmp_path / "report.csv").read_text().splitlines()) == 37


def test_run_weyl_table(tmp_path):
    p = ProblemFile.parse({**builtin_problem("kac2"), "task": "weyl",
                           "grid": 5, "exact": False})
    assert run(p, tmp_path) == 0
    lines = (tmp_path / "weyl.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["x", "eps"]
    assert header[2:] == [f"m{i}{j}_{p}" for i in range(2) for j in range(2)
                          for p in ("re", "im")]
    assert len(lines) == 6
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == -0.9 and first[1] == 1e-3
    assert all(math.isfinite(v) for v in first)


def test_run_oracle_star_interval(tmp_path):
    edge = Edge.of(math.pi / 2).to_json()
    p = ProblemFile.parse({
        "task": "oracle",
        "system": {"edges": [edge, edge], "interface": {"type": "standard"}},
        "window": [0.5, 10],
        "grid": 400,
    })
    assert run(p, tmp_path) == 0
    obj = json.loads((tmp_path / "oracle.json").read_text())
    assert not obj["coarse"]
    assert [k for _, k in obj["items"]] == [1, 1, 1]
    for (x, _), want in zip(obj["items"], (1.0, 4.0, 9.0)):
        assert abs(x - want) <= 1e-3 * want
    assert len((tmp_path / "oracle.csv").read_text().splitlines()) == 4
    assert (obj["count_below_lo"], obj["count_below_hi"]) == (0, 3)


def test_run_oracle_too_small_a_grid_is_exit_3(tmp_path):
    # Both unit Dirichlet edges at grid 100 leave 199 unknowns, and all 199
    # eigenvalues lie in the window: more than Lanczos can return.
    edge = Edge.of(1).to_json()
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "task": "oracle",
        "system": {"edges": [edge, edge], "interface": {"type": "standard"}},
        "window": [0.5, 1e7],
        "grid": 100,
    }))
    assert main(["oracle", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "grid too small" in (tmp_path / "out" / "error.json").read_text()


@pytest.mark.parametrize("failure", ["no-convergence", "arpack-error", "singular-factor"])
def test_run_oracle_eigensolve_failure_is_exit_3(tmp_path, monkeypatch, failure):
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

    raised = {"no-convergence": ArpackNoConvergence("ARPACK error -1: No convergence", [], []),
              "arpack-error": ArpackError(-9999),
              "singular-factor": RuntimeError("Factor is exactly singular")}[failure]

    def fail(A, **kwargs):
        raise raised

    monkeypatch.setattr(spectra, "eigsh", fail)
    assert main(["oracle", "equilateral3", "--grid", "200", "--out", str(tmp_path / "out")]) == 3
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    # the window (0.1, 10) holds 9 eigenvalues; the shift is its midpoint
    assert err["error"] == "non-convergence"
    assert "sigma=5.05 with k=11" in err["detail"] and str(raised) in err["detail"]


def test_run_oracle_needs_edges():
    with pytest.raises(SchemaError, match="needs edge entries"):
        ProblemFile.parse({**builtin_problem("kac2"), "task": "oracle", "exact": False})


def test_run_exact_needs_atomic_system():
    with pytest.raises(SchemaError, match="not purely atomic"):
        ProblemFile.parse({**builtin_problem("equilateral3"), "exact": True})


@pytest.mark.parametrize("argv, message", [
    (["classify", "equilateral3"], "measure-backed entries"),
    (["oracle", "kac2"], "needs edge entries"),
    (["eigs", "equilateral3", "--exact"], "not purely atomic"),
])
def test_schema_violation_is_exit_2_before_any_output(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_run_verify_failure_is_exit_4(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_verify_suites",
                        lambda seed: {"passed": False, "rank-lemma": {"passed": False}})
    p = ProblemFile.parse({"task": "verify"})
    assert run(p, tmp_path) == 4
    assert not json.loads((tmp_path / "verify.json").read_text())["passed"]


def test_run_nonconvergence_is_exit_3(tmp_path, monkeypatch):
    def boom(*a, **kw):
        raise ConvergenceError("ladder exhausted")

    monkeypatch.setattr(cli, "find_point_spectrum", boom)
    p = ProblemFile.parse(builtin_problem("kac2"))
    assert run(p, tmp_path) == 3
    err = json.loads((tmp_path / "error.json").read_text())
    assert err == {"error": "non-convergence", "detail": "ladder exhausted"}


def test_a_nan_inside_a_bracket_is_exit_3_without_a_traceback(tmp_path, monkeypatch, capsys):
    # the scan brackets the potential edge's pole near 3.13 in one array
    # call; only the refinement's single-z values come out NaN
    monkeypatch.setattr(schrodinger, "_interface_value", lambda edge, z: math.nan)
    path = tmp_path / "pot.json"
    path.write_text(json.dumps({"task": "eigs", "window": [1, 5], "system": {"edges": [
        {"length": 2, "outer_angle": 0.7, "potential": {"pieces": [
            {"interval": [0, 1], "coeffs": [1, "1/4"]}, {"interval": [1, 2], "coeffs": [2]}]}},
        {"length": 1}]}}))
    assert main(["eigs", str(path), "--out", str(tmp_path / "out")]) == 3
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert err["error"] == "non-convergence" and "NaN" in err["detail"]
    assert "Traceback" not in capsys.readouterr().err


def test_run_invariant_breach_is_exit_4(tmp_path, monkeypatch):
    def boom(*a, **kw):
        raise InternalInvariantError("rank disagrees")

    monkeypatch.setattr(cli, "find_point_spectrum", boom)
    p = ProblemFile.parse(builtin_problem("kac2"))
    assert run(p, tmp_path) == 4
    err = json.loads((tmp_path / "error.json").read_text())
    assert err["error"] == "invariant-breach"


# ---------------------------------------------------------------------------
# command line entry point
# ---------------------------------------------------------------------------


def test_main_runs_builtin(tmp_path):
    out = tmp_path / "out"
    assert main(["eigs", "kac2", "--out", str(out), "--grid", "12"]) == 0
    assert (out / "report.json").exists()
    assert (out / "plot.csv").exists()


def test_main_window_override(tmp_path):
    out = tmp_path / "out"
    code = main(["eigs", "kac2", "--out", str(out),
                 "--window", "-0.5", "0.5", "--grid", "8"])
    assert code == 0
    obj = json.loads((out / "report.json").read_text())
    assert obj["window"] == [-0.5, 0.5]


def test_main_reads_problem_files(tmp_path):
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({**builtin_problem("kac2"), "grid": 6}))
    out = tmp_path / "out"
    assert main(["eigs", str(prob), "--out", str(out)]) == 0
    assert (out / "report.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["eigs", "no-such-file.json"],
        ["eigs", "k75"],
        ["eigs", "kac2", "--window", "1", "-1"],
        ["eigs", "equilateral3", "--exact"],
        ["oracle", "equilateral3", "--grid", "50"],
    ],
)
def test_main_schema_errors_are_exit_2(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert "schema error" in capsys.readouterr().err


def test_main_rejects_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["eigs", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_main_refuses_a_window_too_wide_to_scan(tmp_path):
    # The closed-form pole list of each edge used to grow without bound.
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "task": "eigs", "window": ["-1e300", "1e300"],
        "system": {"edges": [{"length": 1}, {"length": 2}, {"length": 3}]}}))
    assert main(["eigs", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "scan points" in (tmp_path / "out" / "error.json").read_text()


def test_main_maps_nonconvergence_to_exit_3(tmp_path, monkeypatch):
    def boom(*a, **kw):
        raise ConvergenceError("no limit")

    monkeypatch.setattr(cli, "find_point_spectrum", boom)
    assert main(["eigs", "kac2", "--out", str(tmp_path / "out")]) == 3
    assert (tmp_path / "out" / "error.json").exists()
