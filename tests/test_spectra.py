"""Spectral report tests.

Frozen oracles, all reproduced by hand or by an independent computation
before being pinned here:

* three atomic inputs {0,2}, {0,4}, {6} (unit weights): the only shared
  atom is 0 with two carriers, so one layer; the summed function has one
  simple zero strictly inside each pole-free gap (0,2), (2,4), (4,6);
  its value at -1 is exactly 37/105 > 0, so no zero enters from the left
  outer gap inside a window starting at -1.
* the four-measure showcase on (0, 8) with six atoms per unit interval:
  36 shared-atom eigenvalues in units (2,3) through (6,7) with layer
  counts 1, 2, 1, 1, 3 and 12 of them sitting in (4,5); 48 singleton
  atoms that vanish from the joined spectrum; a single density region
  (9/2, 8) carried by all four inputs.
* a star of two free edges joined through the matching conditions is a
  plain Dirichlet interval, so two edges of length pi/2 give k^2 and
  lengths 1 and 2 give (k pi / 3)^2.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starweyl import (
    AcRegion,
    ConvergenceError,
    Edge,
    Eigenvalue,
    HerglotzFunction,
    HerglotzRep,
    InternalInvariantError,
    PastedSystem,
    ScalarMeasure,
    SingularItem,
    SpectralReport,
    aronszajn_donoghue_check,
    build_example_k74,
    classify_spectrum,
    fd_oracle,
    find_point_spectrum,
    multiplicity_at,
    verify_kac,
)
from starweyl import pasting, schrodinger, spectra
from starweyl.cli import ProblemFile, builtin_problem, emit_plot_data, main
from starweyl.spectra import _nodal_potential

OVERLAP = "overlap"
KIRCHHOFF = "kirchhoff-zero"


def rep_of(atoms):
    return HerglotzRep.of(omega=ScalarMeasure.of(atoms=atoms))


# ---------------------------------------------------------------------------
# report containers
# ---------------------------------------------------------------------------


def test_eigenvalue_validation():
    Eigenvalue(Fraction(1), 2, OVERLAP)
    with pytest.raises(ValueError):
        Eigenvalue(1.0, 1, "guess")
    with pytest.raises(ValueError):
        Eigenvalue(1.0, 0, OVERLAP)
    with pytest.raises(ValueError):
        Eigenvalue(1.0, 2, KIRCHHOFF)


def test_report_json_round_trip():
    rep = SpectralReport(
        window=(Fraction(-1, 3), Fraction(7)),
        eigenvalues=(
            Eigenvalue(Fraction(1, 3), 2, OVERLAP),
            Eigenvalue(0.5917502724219053, 1, KIRCHHOFF),
        ),
        ac_regions=(AcRegion(Fraction(9, 2), Fraction(8), 4),),
        sac_items=(SingularItem(Fraction(1, 3), 2),),
        ss_items=(SingularItem(Fraction(5), 1),),
        vanished=(Fraction(1, 7),),
        notes=("left outer gap not scanned",),
    )
    blob = json.dumps(rep.to_json())
    back = SpectralReport.from_json(json.loads(blob))
    assert back == rep
    assert back.eigenvalues[0].x == Fraction(1, 3)


def test_report_csv_rows():
    rep = SpectralReport(
        window=(0, 1),
        eigenvalues=(Eigenvalue(Fraction(1, 2), 3, OVERLAP),),
    )
    assert list(rep.csv_rows()) == [(0.5, 3, OVERLAP)]


# ---------------------------------------------------------------------------
# point spectrum, exact route
# ---------------------------------------------------------------------------


@pytest.fixture()
def three_entry_system():
    return PastedSystem.of(
        [rep_of([(0, 1), (2, 1)]), rep_of([(0, 1), (4, 1)]), rep_of([(6, 1)])]
    )


def test_exact_point_spectrum_worked_example(three_entry_system):
    eigs = find_point_spectrum(three_entry_system, (-1, 7))
    assert len(eigs) == 4
    assert eigs[0].x == 0 and eigs[0].multiplicity == 1
    assert eigs[0].provenance == OVERLAP
    zeros = [e for e in eigs if e.provenance == KIRCHHOFF]
    gaps = [(0, 2), (2, 4), (4, 6)]
    assert all(lo < z.x < hi for z, (lo, hi) in zip(zeros, gaps))
    assert all(z.multiplicity == 1 for z in zeros)
    h = three_entry_system.sum_rep()
    for z in zeros:
        assert abs(float(h.eval_real(z.x))) < 1e-15
    # the left outer gap carries no zero above -1: the summed function is
    # already positive there on its way up to the pole
    assert h.eval_real(Fraction(-1)) == Fraction(37, 105)


def test_exact_point_spectrum_respects_window(three_entry_system):
    eigs = find_point_spectrum(three_entry_system, (Fraction(1, 2), 3))
    assert [e.provenance for e in eigs] == [KIRCHHOFF, KIRCHHOFF]
    assert all(Fraction(1, 2) < e.x < 3 for e in eigs)


def test_exact_overlap_layer_count_is_carriers_minus_one():
    sys_ = PastedSystem.of([rep_of([(1, 1)]), rep_of([(1, 2)]), rep_of([(1, 3)])])
    eigs = find_point_spectrum(sys_, (0, 2))
    shared = [e for e in eigs if e.provenance == OVERLAP]
    assert len(shared) == 1
    assert shared[0].x == 1 and shared[0].multiplicity == 2


def test_numeric_point_spectrum_equilateral_star():
    edges = [Edge.of(math.pi) for _ in range(3)]
    sys_ = PastedSystem.of(edges)
    eigs = find_point_spectrum(sys_, (0.1, 2.5))
    got = [(round(float(e.x), 6), e.multiplicity, e.provenance) for e in eigs]
    assert got == [
        (0.25, 1, KIRCHHOFF),
        (1.0, 2, OVERLAP),
        (2.25, 1, KIRCHHOFF),
    ]


def test_numeric_route_scans_the_density_free_parts_of_a_gap():
    # m2's density on [3/2, 7/4] sits inside the pole-free gap (-1, 2); the
    # summed function changes sign on both sides of it, off every support
    m1 = ScalarMeasure.of(atoms=[(-2, 1), (2, 1)])
    m2 = ScalarMeasure.of(atoms=[(-1, 1)], pieces=[((Fraction(3, 2), Fraction(7, 4)), [1])])
    sys_ = PastedSystem.of([m1, m2])
    eigs = find_point_spectrum(sys_, (-3, 3))  # cross-checked by omega rank
    assert [(e.multiplicity, e.provenance) for e in eigs] == [(1, KIRCHHOFF)] * 3
    xs = [float(e.x) for e in eigs]
    assert xs == pytest.approx([-1.36463, 0.183875, 1.752069], abs=1e-5)
    for x in xs:
        assert sum(float(HerglotzRep.from_measure(m).eval_real(x))
                   for m in (m1, m2)) == pytest.approx(0.0, abs=1e-9)


def test_numeric_route_skips_a_gap_thinner_than_its_resolution():
    # The density ends 2^-34 below the pole at 1: the part (1 - 2^-34, 1) is
    # too thin to scan, and its shifted ends would round onto the density.
    density = ScalarMeasure.of(pieces=[((Fraction(1, 2), 1 - Fraction(1, 2**34)), [1])])
    sys_ = PastedSystem.of([Edge.of(math.pi), HerglotzRep.from_measure(density)])
    eigs = find_point_spectrum(sys_, (0.25, 3))
    assert [(e.multiplicity, e.provenance) for e in eigs] == [(1, KIRCHHOFF)]
    assert eigs[0].x == pytest.approx(2.69744, abs=1e-5)


def test_numeric_route_rejects_black_box_entries():
    wrapped = HerglotzFunction(lambda z: 1j)
    sys_ = PastedSystem.of([wrapped, rep_of([(0, 1)])])
    with pytest.raises(ValueError):
        find_point_spectrum(sys_, (-1, 1))


def _count_calls(monkeypatch, *names):
    """Wrap the named `pasting` functions in every package module that binds
    them; returns the live call counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(pasting, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (pasting, spectra):
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


def test_numeric_cross_check_runs_one_omega_ladder_per_eigenvalue(monkeypatch):
    # each ladder evaluates M at all its eps in one `matrix_weyl` call
    problem = ProblemFile.parse(builtin_problem("equilateral3"))
    calls = _count_calls(monkeypatch, "trace_weyl", "matrix_weyl")
    eigs = find_point_spectrum(problem.system, problem.window)
    assert len(eigs) == 6
    assert calls == {"trace_weyl": 0, "matrix_weyl": len(eigs)}


def test_numeric_cross_check_rejects_a_point_without_mass(monkeypatch):
    # A bracket midpoint stands in for the zero: a regular point, off the spectrum.
    problem = ProblemFile.parse(builtin_problem("equilateral3"))
    monkeypatch.setattr(spectra, "brentq", lambda f, a, b, **kwargs: 0.5 * (a + b))
    calls = _count_calls(monkeypatch, "trace_weyl", "matrix_weyl")
    with pytest.raises(InternalInvariantError, match="counted 1, rank gave 0"):
        find_point_spectrum(problem.system, problem.window)
    # Three overlaps pass, then the first spurious zero fails on its own ladder.
    assert calls == {"trace_weyl": 0, "matrix_weyl": 4}


def test_every_z_grid_integrates_each_potential_edge_once(monkeypatch, tmp_path):
    # the omega ladder, the plot rows and the `weyl` table each pass their
    # whole grid to every edge with a potential in one `solve_edge` call;
    # the free edge takes its closed form
    star = PastedSystem.of([
        Edge.of(2, [((0, 1), (1, 2)), ((1, 2), (5,))], 0.7),
        Edge.of(2, [((0, 1), (0, 0, 3))]),
        Edge.of(Fraction(3, 2)),
    ])
    calls = []
    original = schrodinger.solve_edge

    def counted(edge, z, *args, **kwargs):
        calls.append((edge, len(z)))
        return original(edge, z, *args, **kwargs)

    monkeypatch.setattr(schrodinger, "solve_edge", counted)
    steps = len(star.default_schedule())
    pasting.omega_at(star, 3.0)
    assert calls == [(star.entries[0], steps), (star.entries[1], steps)]

    calls.clear()
    report = SpectralReport(window=(Fraction(1), Fraction(10)),
                            eigenvalues=(Eigenvalue(3.0, 1, "kirchhoff-zero"),))
    assert len(emit_plot_data(star, report, grid=20)) == 21
    assert calls == [(star.entries[0], 21), (star.entries[1], 21)]

    calls.clear()
    problem = tmp_path / "star.json"
    problem.write_text(json.dumps({"task": "weyl", "system": star.to_json(),
                                   "window": [1, 10], "grid": 12}))
    assert main(["weyl", str(problem), "--out", str(tmp_path / "out")]) == 0
    assert [len_z for _edge, len_z in calls] == [12, 12]


def _twin_star() -> PastedSystem:
    """Two equal potential edges, built apart, and a third edge."""
    def twin():
        return Edge.of(2, [((0, 1), (1, 2)), ((1, 2), (5,))], 0.7)

    return PastedSystem.of([twin(), twin(),
                            Edge.of(Fraction(3, 2), [((0, Fraction(3, 4)), (1,)),
                                                     ((Fraction(3, 4), Fraction(3, 2)), (3,))])])


@pytest.mark.parametrize("name", ["twin", "equilateral3"])
def test_every_z_grid_evaluates_each_distinct_edge_once(name, monkeypatch, tmp_path):
    # equal edges have the same m: the omega ladder, the plot rows, the
    # `weyl` table and the pole enumeration take each distinct edge once
    if name == "twin":
        star, window = _twin_star(), (1.0, 10.0)
    else:
        problem = ProblemFile.parse(builtin_problem("equilateral3"))
        star, window = problem.system, problem.window
    distinct = star.distinct_entries[0]
    assert len(distinct) == {"twin": 2, "equilateral3": 1}[name]
    calls = []
    for fn in ("weyl_m", "dirichlet_eigenvalues"):
        original = getattr(schrodinger, fn)

        def counted(edge, z, _fn=fn, _original=original):
            calls.append((_fn, edge, len(z) if isinstance(z, np.ndarray) else z))
            return _original(edge, z)

        monkeypatch.setattr(schrodinger, fn, counted)
    steps = len(star.default_schedule())
    pasting.omega_at(star, 3.0)
    assert calls == [("weyl_m", e, steps) for e in distinct]

    calls.clear()
    report = SpectralReport(window=(Fraction(1), Fraction(10)),
                            eigenvalues=(Eigenvalue(3.0, 1, "kirchhoff-zero"),))
    assert len(emit_plot_data(star, report, grid=20)) == 21
    assert calls == [("weyl_m", e, 21) for e in distinct]

    calls.clear()
    path = tmp_path / "star.json"
    path.write_text(json.dumps({"task": "weyl", "system": star.to_json(),
                                "window": [1, 10], "grid": 12}))
    assert main(["weyl", str(path), "--out", str(tmp_path / "out")]) == 0
    assert calls == [("weyl_m", e, 12) for e in distinct]

    calls.clear()
    assert find_point_spectrum(star, window)
    assert [c[1:] for c in calls if c[0] == "dirichlet_eigenvalues"] == [
        (e, window) for e in distinct]


def test_unsearched_intervals_clip_and_merge_the_densities():
    m1 = ScalarMeasure.of(atoms=[(0, 1)], pieces=[((Fraction(1, 2), 1), [1]), ((5, 6), [1])])
    m2 = ScalarMeasure.of(pieces=[((Fraction(3, 4), 2), [1]), ((7, 8), [1])])
    sys_ = PastedSystem.of([m1, m2])
    assert spectra.unsearched_intervals(sys_, (0, Fraction(11, 2))) == [(0.5, 2.0), (5.0, 5.5)]
    assert spectra.unsearched_intervals(sys_, (-2, 0)) == []


def test_numeric_gap_ends_go_in_one_batch(monkeypatch):
    problem = ProblemFile.parse(builtin_problem("equilateral3"))
    calls, original = [], spectra._real_sum_values
    monkeypatch.setattr(spectra, "_real_sum_values",
                        lambda sys_, xs: calls.append(len(xs)) or original(sys_, xs))
    find_point_spectrum(problem.system, problem.window)
    assert calls == [8]  # both ends of (0.1, 1), (1, 4), (4, 9) and (9, 10)


def test_the_gap_end_batch_has_the_bits_of_one_sum_per_x():
    # edges answer the batch in one weyl_m array pass, every other entry one
    # eval_real per x; the sums keep the bits of _real_sum_value
    xs = [-3.0, 0.37, 1.25, 2.9, 7.5]
    edges = [Edge.of(2, [((0, 1), [1, Fraction(1, 4)]), ((1, 2), [0])], 0.7),
             Edge.of(Fraction(3, 2), "free", 0.7), Edge.of("inf")]
    for e in edges:
        many = e.eval_real_many(xs)
        assert [float.hex(v) for v in many] == [float.hex(e.eval_real(x)) for x in xs]
    others = [HerglotzRep.from_measure(ScalarMeasure.of(atoms=[(0, 1), (2, Fraction(1, 2))])),
              HerglotzFunction(lambda z: -1 / (z - 0.5))]
    sys_ = PastedSystem.of(edges + others)
    batch = spectra._real_sum_values(sys_, xs)
    assert [float.hex(v) for v in batch] == [float.hex(spectra._real_sum_value(sys_, x))
                                             for x in xs]


def test_numeric_gap_scan_raises_where_the_sum_cannot_be_evaluated(monkeypatch):
    problem = ProblemFile.parse(builtin_problem("equilateral3"))
    original = spectra._real_sum_values

    def fails_after_the_pole_at_one(sys_, xs):
        for x in xs:
            if 1.0 < x < 1.001:  # only the left end of the gap (1, 4)
                raise ValueError(f"{x} cannot be evaluated")
        return original(sys_, xs)

    # the batch of all gap ends fails, and so does the gap (1, 4) alone
    monkeypatch.setattr(spectra, "_real_sum_values", fails_after_the_pole_at_one)
    with pytest.raises(ConvergenceError, match=r"gap \(1\.0+\d*, 4\.0+\d*\)"):
        find_point_spectrum(problem.system, problem.window)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_spectrum_showcase_counts():
    mus = build_example_k74()
    rep = classify_spectrum(PastedSystem.of(mus), (0, 8))
    assert len(rep.eigenvalues) == 36
    assert len(rep.sac_items) == 36
    assert len(rep.vanished) == 48
    assert rep.ss_items == ()
    assert rep.notes == (
        "off-support simple spectrum not scanned: density pieces present",
    )
    by_unit = {}
    for e in rep.eigenvalues:
        unit = int(e.x)
        by_unit.setdefault(unit, []).append(e.multiplicity)
    assert {u: (len(v), set(v)) for u, v in sorted(by_unit.items())} == {
        2: (6, {1}),
        3: (6, {2}),
        4: (12, {1}),
        5: (6, {1}),
        6: (6, {3}),
    }


def test_classify_spectrum_showcase_positions_are_exact():
    mus = build_example_k74()
    rep = classify_spectrum(PastedSystem.of(mus), (0, 8))
    top = [e.x for e in rep.eigenvalues if 6 < e.x < 7]
    assert top == [
        Fraction(49, 8),
        Fraction(151, 24),
        Fraction(155, 24),
        Fraction(53, 8),
        Fraction(163, 24),
        Fraction(167, 24),
    ]
    assert rep.ac_regions == (AcRegion(Fraction(9, 2), Fraction(8), 4),)


def test_classify_vanished_atoms_are_single_carrier():
    mus = build_example_k74()
    rep = classify_spectrum(PastedSystem.of(mus), (0, 8))
    for x in rep.vanished:
        carriers = sum(1 for m in mus if m.atom_mass_at(x) > 0)
        assert carriers == 1


def test_classify_atomic_inputs_report_gap_zeros():
    m1 = ScalarMeasure.of(atoms=[(0, 1), (2, 1)])
    m2 = ScalarMeasure.of(atoms=[(0, 1), (3, 1)])
    rep = classify_spectrum(PastedSystem.of([m1, m2]), (-1, 4))
    assert [s.multiplicity for s in rep.sac_items] == [1]
    assert len(rep.ss_items) == 2  # one zero per interior gap
    assert rep.notes == ()
    kinds = [e.provenance for e in rep.eigenvalues]
    assert kinds.count(OVERLAP) == 1 and kinds.count(KIRCHHOFF) == 2


def test_classify_window_must_be_ordered():
    sys_ = PastedSystem.of([ScalarMeasure.of(atoms=[(0, 1)]), ScalarMeasure()])
    with pytest.raises(ValueError, match="window must have positive length"):
        classify_spectrum(sys_, (2, 2))


@pytest.mark.parametrize("window", [(1, -1), (2, 2)])
@pytest.mark.parametrize("route", ["exact", "numeric"])
def test_point_spectrum_window_must_be_ordered(route, window):
    first = {"exact": ScalarMeasure.point(-1),
             "numeric": ScalarMeasure.of(atoms=[(-1, 1)], pieces=[((3, 4), [1])])}[route]
    sys_ = PastedSystem.of([first, ScalarMeasure.point(1)])
    with pytest.raises(ValueError, match="window must have positive length"):
        find_point_spectrum(sys_, window)


def test_classify_needs_measure_backed_entries():
    with pytest.raises(ValueError, match="measure-backed entries"):
        classify_spectrum(PastedSystem.of([Edge.of(1), ScalarMeasure.point(0)]), (0, 1))


def test_classify_groups_the_poles_once(monkeypatch, three_entry_system):
    # the points of a purely atomic system come from the same grouping
    calls = []
    original = spectra._pole_groups
    monkeypatch.setattr(spectra, "_pole_groups", lambda *args: calls.append(1) or original(*args))
    rep = classify_spectrum(three_entry_system, (-1, 7))
    assert len(calls) == 1
    assert rep.eigenvalues == tuple(find_point_spectrum(three_entry_system, (-1, 7)))


def test_classify_reads_no_density_outside_the_window():
    # pieces wholly below and above the window must not cut the region
    # that the covering piece opens inside it
    outside = ScalarMeasure.of(pieces=[((-3, -2), [1]), ((2, 3), [1])])
    covering = ScalarMeasure.of(pieces=[((-4, 5), [1])])
    rep = classify_spectrum(PastedSystem.of([outside, covering]), (0, 1))
    assert rep.ac_regions == (AcRegion(Fraction(0), Fraction(1), 1),)


def test_classify_merges_adjacent_regions_with_equal_count():
    left = ScalarMeasure.of(pieces=[((0, 1), [1])])
    right = ScalarMeasure.of(pieces=[((1, 2), [1])])
    both = left + right
    rep = classify_spectrum(PastedSystem.of([both, ScalarMeasure()]), (0, 2))
    assert rep.ac_regions == (AcRegion(Fraction(0), Fraction(2), 1),)


def test_classify_merges_adjacent_regions_from_two_measures():
    # one positive density on either side of 1, carried by different inputs
    left = ScalarMeasure.of(pieces=[((0, 1), [1])])
    right = ScalarMeasure.of(pieces=[((1, 2), [1])])
    rep = classify_spectrum(PastedSystem.of([left, right]), (0, 2))
    assert rep.ac_regions == (AcRegion(Fraction(0), Fraction(2), 1),)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------


def test_fd_oracle_two_edges_form_an_interval():
    r = fd_oracle([Edge.of(math.pi / 2), Edge.of(math.pi / 2)], (0.5, 10), grid=2000)
    assert [m for _, m in r.items] == [1, 1, 1]
    for got, want in zip((x for x, _ in r.items), (1.0, 4.0, 9.0)):
        assert abs(got - want) <= 1e-4 * want
    assert not r.coarse


def test_fd_oracle_distinct_lengths():
    r = fd_oracle([Edge.of(1), Edge.of(2)], (0.5, 12), grid=2000)
    want = [(k * math.pi / 3) ** 2 for k in (1, 2, 3)]
    assert [m for _, m in r.items] == [1, 1, 1]
    for got, ref in zip((x for x, _ in r.items), want):
        assert abs(got - ref) <= 1e-5 * ref


def test_fd_oracle_detects_double_layers():
    r = fd_oracle([Edge.of(math.pi)] * 3, (0.1, 5), grid=600)
    assert [(round(x, 2), m) for x, m in r.items] == [
        (0.25, 1),
        (1.0, 2),
        (2.25, 1),
        (4.0, 2),
    ]


def test_fd_oracle_repeats_exactly_within_one_process():
    edges = [Edge.of(math.pi)] * 3
    first = fd_oracle(edges, (0.1, 10.5), grid=1000)
    second = fd_oracle(edges, (0.1, 10.5), grid=1000)
    assert first.items == second.items
    # the antisymmetric modes at j^2 are still found
    assert [m for _, m in first.items] == [1, 2, 1, 2, 1, 2]


ORACLE_STARS = {
    "equilateral3": ([Edge.of(math.pi)] * 3, (0.1, 10)),
    "mixed-free": ([Edge.of(1, None, 0.0), Edge.of(Fraction(3, 2), None, math.pi / 2),
                    Edge.of(2, None, 1.1)], (0.1, 10)),
    "well-obtuse": ([Edge.of(1, [((0, 1), [-5])], 2.5), Edge.of(3)], (-3, 12)),
}

# The oracle and a dense solve of the same pencil both carry an absolute
# rounding error of about machine epsilon times the pencil's norm, so items
# are compared relative to max(|x|, 1).  On these stars at grids 300 to
# 1000, the largest gap `scripts/oracle_floor.py` measured is 2.5e-10
# (well-obtuse, grid 1000; BENCH_star_decomposition.json); for the earlier
# shift-invert Lanczos oracle it was 6.7e-10 (BENCH_mid_shift_oracle.json).
# The bound is that floor rounded up to the next power of ten.
ORACLE_FLOOR = 1e-9


def _clustered(values):
    """Sorted values in runs closer than the oracle's 1e-6 relative gap."""
    clusters = []
    for v in values:
        if clusters and v - clusters[-1][-1] < 1e-6 * (1 + abs(v)):
            clusters[-1].append(v)
        else:
            clusters.append([v])
    return clusters


def _assert_oracle_matches_dense(r, clusters):
    """`fd_oracle`'s result against the dense clusters of its window: the
    same multiplicities and `coarse` flag, and items within the floor."""
    want = [(sum(c) / len(c), len(c)) for c in clusters]
    assert [k for _, k in r.items] == [k for _, k in want]
    for (x, _), (y, _) in zip(r.items, want):
        assert abs(x - y) <= ORACLE_FLOOR * max(abs(y), 1.0), (x, y)
    coarse = any(y2 - y1 < 10.0 * max(y1 * y1, y2 * y2, 1.0) * r.h_max * r.h_max / 12.0
                 for (y1, _), (y2, _) in zip(want, want[1:]))
    assert r.coarse == coarse


@pytest.mark.parametrize("name", list(ORACLE_STARS))
def test_fd_oracle_matches_dense_eigenvalues(name):
    import scipy.linalg

    edges, (lo, hi) = ORACLE_STARS[name]
    r = fd_oracle(edges, (lo, hi), grid=1000)
    _, C = _pencil(edges, 1000)
    eigs = scipy.linalg.eigvalsh(C)
    _assert_oracle_matches_dense(r, _clustered(v for v in eigs.tolist() if lo <= v <= hi))
    assert not r.coarse


def test_nodal_potential_is_q_at_on_every_node():
    # A jump at 1 (a node), a jump at 1/3 (between nodes), an uncovered gap
    # (1.5, 1.75) and a piece ending inside the last cell.
    third = Fraction(1, 3)
    edge = Edge.of(2, [((0, third), (1, -2, 3)), ((third, 1), ("1/2", "1/4")),
                       ((1, "3/2"), (-2, 0, 1)), (("7/4", "1999/1000"), (5,))])
    grid = 100
    h = float(edge.length) / grid
    want = [edge.q_at(j * h) for j in range(grid + 1)]
    got = _nodal_potential(edge, grid).tolist()
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert got[50] == 0.75  # the left piece 1/2 + x/4 at the shared node x = 1
    assert got[80] == 0.0 and got[100] == 0.0
    assert _nodal_potential(Edge.of(2), grid).tolist() == [0.0] * (grid + 1)


def test_fd_oracle_coarse_flag_tracks_resolution():
    edges = [Edge.of(math.pi), Edge.of(math.pi * (1 + 1e-4)), Edge.of(math.pi)]
    rough = fd_oracle(edges, (0.5, 1.5), grid=100)
    assert rough.coarse
    fine = fd_oracle(edges, (0.5, 1.5), grid=3000)
    assert not fine.coarse
    assert [m for _, m in fine.items] == [1, 1]


def test_fd_oracle_solves_a_window_holding_the_whole_pencil():
    # 199 unknowns, all 199 eigenvalues in the window: each of the 99 poles
    # shared by the two equal chains once (r - 1 = 1), and the 100 zeros of
    # the vertex function below, between and above them
    import scipy.linalg

    edges = [Edge.of(1)] * 2
    r = fd_oracle(edges, (0.5, 1e7), grid=100)
    assert (r.count_below_lo, r.count_below_hi) == (0, 199)
    assert [k for _, k in r.items] == [1] * 199
    _, C = _pencil(edges, 100)
    _assert_oracle_matches_dense(r, _clustered(scipy.linalg.eigvalsh(C).tolist()))


def test_fd_oracle_finds_the_zero_eigenvalue_of_a_neumann_star():
    # constants are an eigenvector at 0, so the first item is a zero of the
    # vertex function within the pencil's rounding floor of 0
    import scipy.linalg

    edges = [Edge.of(1, None, math.pi / 2), Edge.of(Fraction(3, 2), None, math.pi / 2)]
    r = fd_oracle(edges, (-1, 12), grid=300)
    _, C = _pencil(edges, 300)
    eigs = scipy.linalg.eigvalsh(C).tolist()
    _assert_oracle_matches_dense(r, _clustered(v for v in eigs if -1 <= v <= 12))
    assert abs(r.items[0][0]) <= 1e-9


@pytest.mark.parametrize("s, hi, at_most", [
    (lambda x: -x, 1.0, 0.0),  # exactly 0 at the first midpoint
    (lambda x: 1.0 if x <= 0.0 else -1.0, 2.0, 5e-324),  # 0 nowhere
], ids=["zero-at-a-double", "sign-change-between-doubles"])
def test_secular_zero_ends_on_a_zero_at_zero(s, hi, at_most):
    # no bracket around 0 reaches a relative width: the search ends on the
    # exact zero, or on two neighbouring doubles
    calls = []

    def secular(x):
        calls.append(x)
        assert len(calls) < 5000
        return s(x), -1.0

    assert 0.0 <= spectra._secular_zero(secular, -1.0, hi, False, False) <= at_most


def _spy_eigsh(monkeypatch):
    calls = []
    real = spectra.eigsh

    def spy(tree, lo, hi):
        calls.append((lo, hi))
        return real(tree, lo, hi)

    monkeypatch.setattr(spectra, "eigsh", spy)
    return calls


def _pencil(edges, grid):
    """The pencil's tree form and its symmetric form C = B^{-1/2} A B^{-1/2}
    as a dense matrix, spelled out from the tree (the vertex first, then
    each edge's chain from its outer node inward), as
    `scripts/oracle_floor.py` does."""
    tree = spectra._fd_pencil(edges, [_nodal_potential(e, grid) for e in edges])
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
    return tree, dense


def test_fd_oracle_deep_star_is_sized_by_counts(monkeypatch):
    # Three Dirichlet edges of length 1 on q = 10000: the free star's
    # spectrum shifted by 10000, ((j + 1/2) pi)^2 simple and (j pi)^2 double.
    edges = [Edge.of(1, [((0, 1), [10000])])] * 3
    calls = _spy_eigsh(monkeypatch)
    r = fd_oracle(edges, (9999, 10100), grid=4000)
    assert [k for _, k in r.items] == [1, 2, 1, 2, 1, 2]
    assert (r.count_below_lo, r.count_below_hi) == (0, 9)
    for (x, _), j in zip(r.items, range(1, 7)):
        assert abs(x - 10000 - (j * math.pi / 2) ** 2) <= 1e-3 * (j * math.pi / 2) ** 2
    assert calls == [(9999.0, 10100.0)]


def test_fd_oracle_empty_window_runs_no_eigensolve(monkeypatch):
    calls = _spy_eigsh(monkeypatch)
    r = fd_oracle([Edge.of(math.pi)] * 3, (0.3, 0.9), grid=1000)
    assert r.items == () and not r.coarse
    assert (r.count_below_lo, r.count_below_hi) == (1, 1)
    assert calls == []


def _drop_the_nearest(vals, middle):
    return np.delete(vals, np.argmin(np.abs(vals - middle)))


def _split_the_first_pair(vals, middle):
    vals = np.sort(vals)
    vals[np.flatnonzero(np.diff(vals) < 1e-6)[0] + 1] += 1e-3
    return vals


@pytest.mark.parametrize("corrupt, message", [
    (_drop_the_nearest, "found 5 eigenvalues in the window, the inertia count 6"),
    (_split_the_first_pair, "holds 1 eigenvalues, the inertia count 2")],
    ids=["dropped", "split"])
def test_fd_oracle_refuses_an_eigensolve_its_counts_contradict(corrupt, message, monkeypatch):
    # 0.25, 1 (double), 2.25, 4 (double): the eigensolve loses the one
    # nearest the window's middle, or moves one of the double at 1 apart
    # from the other
    real = spectra.eigsh
    monkeypatch.setattr(spectra, "eigsh",
                        lambda tree, lo, hi: corrupt(real(tree, lo, hi), (lo + hi) / 2))
    with pytest.raises(ConvergenceError, match=message):
        fd_oracle([Edge.of(math.pi)] * 3, (0.1, 5), grid=600)


def _potential(length):
    """A free edge, or one to three pieces mixing deep wells, high plateaus
    and linear ramps."""
    levels = st.sampled_from([-400, -30, 0, 7, 2500, 10000])

    @st.composite
    def pieces(draw):
        cuts = sorted(draw(st.sets(st.integers(1, 7), max_size=2)))
        bounds = [Fraction(0), *(length * Fraction(c, 8) for c in cuts), length]
        return [((a, b), [draw(levels), draw(st.integers(-40, 40))])
                for a, b in zip(bounds, bounds[1:])]

    return st.one_of(st.just("free"), pieces())


@st.composite
def fd_stars(draw):
    """Stars of 2 to 5 drawn edges, maybe with repeats of them (a pole shared
    by r equal chains is an eigenvalue of multiplicity r - 1) or with two
    free Dirichlet edges of lengths L and 2L (every pole of the shorter one
    has a discrete pole of the longer one close by)."""
    edges = []
    for _ in range(draw(st.integers(2, 5))):
        length = Fraction(draw(st.integers(2, 12)), 4)
        angle = draw(st.one_of(st.just(0.0), st.just(math.pi / 2),
                               st.floats(0.2, 2.9)))
        edges.append(Edge.of(length, draw(_potential(length)), angle))
    extra = draw(st.sampled_from(["none", "repeats", "halves"]))
    if extra == "repeats":
        edges += draw(st.lists(st.sampled_from(edges), min_size=1, max_size=2))
    elif extra == "halves":
        length = Fraction(draw(st.integers(2, 6)), 4)
        edges += [Edge.of(length), Edge.of(2 * length)]
    return edges, draw(st.integers(100, 150))


@settings(max_examples=40, deadline=None)
@given(fd_stars(), st.data())
def test_count_below_matches_dense_eigenvalues(star, data):
    import numpy as np
    import scipy.linalg

    edges, grid = star
    tree, C = _pencil(edges, grid)
    eigs = scipy.linalg.eigvalsh(C)
    j = data.draw(st.integers(0, len(eigs) - 1))
    lams = [eigs[j] + side * 1e-9 * max(1.0, abs(eigs[j])) for side in (-1, 1)]
    lam = data.draw(st.floats(-1e3, 2e4))
    # a random lam closer than that to an eigenvalue has no reliable side
    if np.min(np.abs(eigs - lam)) > 1e-9 * max(1.0, abs(lam)):
        lams.append(lam)
    for lam in lams:
        assert spectra._count_below(tree, lam) == np.count_nonzero(eigs < lam), lam


def _count_below_per_edge(tree, lam):
    """`_count_below` as it ran before equal chains were grouped: every
    edge's chain eliminated on its own, in edge order."""
    (a0, b0), chains, order = tree
    below, vertex = 0, a0 - lam * b0
    for a, b, coupling in (chains[k] for k in order):
        t = 0.0
        for d, c in zip((a - lam * b).tolist(), coupling):
            p = d - t or -1e-300
            below += p < 0.0
            t = c / p
        vertex -= t
    return below + (vertex < 0.0)


@settings(max_examples=30, deadline=None)
@given(fd_stars(), st.data())
def test_equal_chains_are_kept_once_and_count_as_each_edge(star, data):
    import scipy.linalg

    edges, grid = star
    tree, C = _pencil(edges, grid)
    _, chains, order = tree
    assert len(order) == len(edges) and len(chains) == len(set(order))
    assert list(order) == [order[edges.index(e)] for e in edges]
    eigs = scipy.linalg.eigvalsh(C)
    j = data.draw(st.integers(0, len(eigs) - 1))
    for lam in (eigs[j], np.nextafter(eigs[j], -np.inf), np.nextafter(eigs[j], np.inf),
                data.draw(st.floats(-1e3, 2e4))):
        assert spectra._count_below(tree, lam) == _count_below_per_edge(tree, lam), lam


@settings(max_examples=40, deadline=None)
@given(fd_stars(), st.data())
def test_fd_oracle_matches_dense_eigenvalues_on_random_stars(star, data):
    import scipy.linalg

    edges, grid = star
    _, C = _pencil(edges, grid)
    clusters = _clustered(scipy.linalg.eigvalsh(C).tolist())
    # window ends in the middle of gaps between clusters, up to 8 clusters
    first = data.draw(st.integers(0, len(clusters) - 2))
    last = data.draw(st.integers(first, min(first + 7, len(clusters) - 2)))
    lo = (clusters[first - 1][-1] + clusters[first][0]) / 2 if first else clusters[0][0] - 1.0
    hi = (clusters[last][-1] + clusters[last + 1][0]) / 2
    r = fd_oracle(edges, (lo, hi), grid=grid)
    _assert_oracle_matches_dense(r, clusters[first:last + 1])


def test_fd_oracle_input_validation():
    with pytest.raises(ValueError):
        fd_oracle([Edge.of(1)], (0, 1), grid=50)
    with pytest.raises(ValueError):
        fd_oracle([Edge.of("inf")], (0, 1), grid=spectra.ORACLE_MIN_GRID)
    for window in [(5, 1), (2, 2)]:
        with pytest.raises(ValueError, match="window must have positive length"):
            fd_oracle([Edge.of(math.pi)] * 3, window, grid=200)


# ---------------------------------------------------------------------------
# cross checks
# ---------------------------------------------------------------------------


def test_verify_kac_two_entry_overlap():
    sys_ = PastedSystem.of([rep_of([(0, 1), (2, 1)]), rep_of([(0, 1), (3, 1)])])
    ok, report = verify_kac(sys_, (-5, 5))
    assert ok
    assert report == {"checked": 4, "violations": []}


def test_verify_kac_lists_every_layer_count_above_one(monkeypatch):
    sys_ = PastedSystem.of([rep_of([(0, 1)]), rep_of([(0, 1)])])
    found = [Eigenvalue(Fraction(-1, 2), 1, KIRCHHOFF), Eigenvalue(Fraction(0), 2, OVERLAP)]
    monkeypatch.setattr(spectra, "find_point_spectrum", lambda sys, window: found)
    assert verify_kac(sys_, (-1, 1)) == (
        False, {"checked": 2, "violations": [{"x": 0.0, "multiplicity": 2}]})


def test_verify_kac_needs_two_entries():
    sys_ = PastedSystem.of([rep_of([(0, 1)]), rep_of([(1, 1)]), rep_of([(2, 1)])])
    with pytest.raises(ValueError):
        verify_kac(sys_, (-1, 3))


def test_aronszajn_donoghue_generic_angles_are_disjoint():
    m = rep_of([(0, 1), (1, 1)])
    assert aronszajn_donoghue_check(m, 0.3, 0.9)


def test_aronszajn_donoghue_antipodal_angles_share_all_poles():
    m = rep_of([(0, 1), (1, 1)])
    assert not aronszajn_donoghue_check(m, math.pi / 4, 5 * math.pi / 4)


def test_aronszajn_donoghue_input_validation():
    m = rep_of([(0, 1)])
    with pytest.raises(ValueError):
        aronszajn_donoghue_check(m, 0.5, 0.5)
    with_density = HerglotzRep.of(
        omega=ScalarMeasure.of(atoms=[(0, 1)], pieces=[((2, 3), [1])])
    )
    with pytest.raises(ValueError):
        aronszajn_donoghue_check(with_density, 0.3, 0.9)
    # m = -1 re-anchored at pi/4: sin(pi/4) (-1) + cos(pi/4) 1 vanishes
    with pytest.raises(ValueError, match="degenerate"):
        aronszajn_donoghue_check(HerglotzRep.of(-1), math.pi / 4, 0.3)


# ---------------------------------------------------------------------------
# the showcase builder itself
# ---------------------------------------------------------------------------


def test_showcase_builder_atom_counts_and_masses():
    mus = build_example_k74()
    assert [len(m.atoms) for m in mus] == [24, 30, 42, 42]
    for m in mus:
        assert all(w == Fraction(1, 6) for _, w in m.atoms)
        assert len(m.pieces) == 1
        piece = m.pieces[0]
        assert (piece.lo, piece.hi) == (Fraction(9, 2), Fraction(8))
        assert piece.poly.min_on(piece.lo, piece.hi) > 0



# ---------------------------------------------------------------------------
# the exact cross-check is a second route
# ---------------------------------------------------------------------------


def _carriers_instead(monkeypatch, edit):
    """Let `_pole_groups` hand ``edit(groups)`` to its callers."""
    original = spectra._pole_groups
    monkeypatch.setattr(spectra, "_pole_groups", lambda *args: edit(original(*args)))


def _one_more_carrier_at_overlaps(groups):
    return [(x, k + 1 if k >= 2 else k) for x, k in groups]


def test_cross_check_rejects_a_wrong_overlap_count(monkeypatch, three_entry_system):
    _carriers_instead(monkeypatch, _one_more_carrier_at_overlaps)
    with pytest.raises(InternalInvariantError, match="counted 2, rank gave 1"):
        find_point_spectrum(three_entry_system, (-1, 7))


def test_cross_check_rejects_a_vanished_point_reported_as_an_overlap(monkeypatch):
    sys_ = PastedSystem.of([rep_of([(0, 1)]), rep_of([(3, 1)])])
    _carriers_instead(monkeypatch, lambda groups: [(x, 2 if x == 3 else k) for x, k in groups])
    with pytest.raises(InternalInvariantError, match="counted 1, rank gave 0"):
        find_point_spectrum(sys_, (-1, 4))


def test_cross_check_rejects_a_shifted_kirchhoff_zero(monkeypatch, three_entry_system):
    shift = Fraction(1, 2**30)
    zeros = [e.x for e in find_point_spectrum(three_entry_system, (-1, 7))
             if e.provenance == KIRCHHOFF]
    for z in zeros:
        assert multiplicity_at(three_entry_system, z) == 1
        assert multiplicity_at(three_entry_system, z + shift) == 0
        assert multiplicity_at(three_entry_system, z - shift) == 0
    original = spectra.solve_level
    monkeypatch.setattr(spectra, "solve_level",
                        lambda *args: [u + shift for u in original(*args)])
    with pytest.raises(InternalInvariantError, match="counted 1, rank gave 0"):
        find_point_spectrum(three_entry_system, (-1, 7))


def test_classify_cross_checks_the_points_of_a_purely_atomic_system(monkeypatch,
                                                                     three_entry_system):
    _carriers_instead(monkeypatch, _one_more_carrier_at_overlaps)
    with pytest.raises(InternalInvariantError, match="counted 2, rank gave 1"):
        classify_spectrum(three_entry_system, (-1, 7))
