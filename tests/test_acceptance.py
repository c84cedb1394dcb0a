"""Acceptance gate: nine end-to-end criteria, one test each.

Each test prints a single summary line; the conftest terminal hook
additionally emits "criterion k: PASS/FAIL" for every run.  Tolerances
are pinned inside the asserts and are not configurable.
"""

import math
import time
from fractions import Fraction

import numpy as np

from starweyl import (
    Edge,
    HerglotzRep,
    PastedSystem,
    ScalarMeasure,
    atom_weight,
    build_example_k74,
    classify_spectrum,
    fd_oracle,
    find_point_spectrum,
    multiplicity_at,
    trace_weyl,
)
from starweyl.cli import (
    random_atomic_rep,
    random_upper_z,
    suite_aronszajn_donoghue,
    suite_herglotz_psd,
    suite_kac,
    suite_rank_lemma,
)

SEED = 20260814


def test_criterion_1_equilateral_star_against_discretization():
    t0 = time.monotonic()
    edges = [Edge.of(math.pi) for _ in range(3)]
    sys_ = PastedSystem.of(edges)
    window = (0.1, 10)

    eigs = find_point_spectrum(sys_, window)
    got = [(float(e.x), e.multiplicity) for e in eigs]
    want = [(0.25, 1), (1.0, 2), (2.25, 1), (4.0, 2), (6.25, 1), (9.0, 2)]
    assert len(got) == len(want)
    for (x, k), (wx, wk) in zip(got, want):
        assert abs(x - wx) <= 1e-9 * wx
        assert k == wk

    oracle = fd_oracle(edges, window, grid=4000)
    assert len(oracle.items) == len(got)
    for (x, k), (ox, ok) in zip(got, oracle.items):
        assert abs(x - ox) <= 1e-3 * abs(ox)
        assert k == ok
    assert not oracle.coarse

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"criterion 1: PASS ({len(got)} eigenvalues, {elapsed:.2f}s)")


def test_criterion_2_rank_formula_against_elimination():
    t0 = time.monotonic()
    out = suite_rank_lemma(np.random.default_rng(SEED), trials=1000)
    elapsed = time.monotonic() - t0
    assert out == {"trials": 1000, "failures": 0, "passed": True}
    assert elapsed < 1.0
    print(f"criterion 2: PASS (1000 instances, {elapsed:.3f}s)")


def test_criterion_3_matrix_herglotz_property():
    out = suite_herglotz_psd(np.random.default_rng(SEED), trials=1000)
    assert out["min_imag_eigenvalue"] >= -1e-12
    assert out["max_identity_residual"] <= 1e-12
    assert out["max_symmetry_residual"] <= 1e-12
    assert out["passed"]
    print(
        "criterion 3: PASS (min imag eig {min_imag_eigenvalue:.1e}, "
        "identity {max_identity_residual:.1e}, "
        "symmetry {max_symmetry_residual:.1e})".format(**out)
    )


def test_criterion_4_showcase_multiplicity_levels():
    mus = build_example_k74()
    rep = classify_spectrum(PastedSystem.of(mus), (0, 8))

    levels = {2: 1, 3: 2, 4: 1, 5: 1, 6: 3}
    for unit, want in levels.items():
        inside = [s for s in rep.sac_items if unit < s.x < unit + 1]
        assert inside, f"no shared atoms in ({unit},{unit + 1})"
        assert all(s.multiplicity == want for s in inside)

    listed = {e.x for e in rep.eigenvalues}
    assert listed.isdisjoint(set(rep.vanished))
    for x in rep.vanished:
        assert sum(1 for m in mus if m.atom_mass_at(x) > 0) == 1

    assert len(rep.ac_regions) == 1
    region = rep.ac_regions[0]
    assert (region.lo, region.hi, region.r) == (Fraction(9, 2), Fraction(8), 4)
    print(f"criterion 4: PASS ({len(rep.sac_items)} shared atoms, "
          f"{len(rep.vanished)} vanished, ac layer count 4)")


def test_criterion_5_two_entry_simplicity():
    out = suite_kac(np.random.default_rng(SEED), trials=100)
    assert out["failures"] == 0 and out["passed"]
    assert out["points_checked"] > 0
    print(f"criterion 5: PASS ({out['points_checked']} points over 100 pairs)")


def test_criterion_6_transformed_pole_sets_disjoint():
    out = suite_aronszajn_donoghue(np.random.default_rng(SEED), trials=100)
    assert out == {"trials": 100, "failures": 0, "passed": True}
    print("criterion 6: PASS (100 certified disjoint pairs)")


def test_criterion_7_symmetric_trace_formula():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for n in (2, 3, 4, 5):
        rep = random_atomic_rep(rng)
        sys_ = PastedSystem.of([rep] * n)
        for _ in range(25):
            z = random_upper_z(rng)
            m0 = sys_.entry_values(z)[0]
            predicted = ((n - 1) ** 2 * m0 - 1 / m0) / n
            worst = max(worst, abs(trace_weyl(sys_, z) - predicted))
    assert worst <= 1e-12
    print(f"criterion 7: PASS (worst deviation {worst:.1e} over 100 points)")


def test_criterion_8_interface_zero_eigenvalue():
    sys_ = PastedSystem.of([
        HerglotzRep.of(omega=ScalarMeasure.point(-1, 1)),
        HerglotzRep.of(omega=ScalarMeasure.point(1, 1)),
    ])
    eigs = find_point_spectrum(sys_, (Fraction(-9, 10), Fraction(9, 10)))
    assert len(eigs) == 1
    assert eigs[0].x == 0
    assert eigs[0].multiplicity == 1
    w = atom_weight(lambda z: trace_weyl(sys_, z), 0.0)
    assert w > 0
    assert multiplicity_at(sys_, 0) == 1
    print(f"criterion 8: PASS (eigenvalue at 0, trace weight {w:.6f})")


def test_criterion_9_atom_weight_extrapolation():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    checked = 0
    for _ in range(30):
        rep = random_atomic_rep(rng)
        for t, w in rep.omega.atoms:
            got = atom_weight(rep.eval, float(t))
            worst = max(worst, abs(got - float(w)) / float(w))
            checked += 1
    assert worst <= 1e-6
    print(f"criterion 9: PASS (worst relative error {worst:.1e} "
          f"over {checked} atoms)")
