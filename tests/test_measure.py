"""Measure layer: exact arithmetic, masses, sums, scaling, JSON."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from starweyl import Piece, Poly, ScalarMeasure, as_fraction
from starweyl.measure import number_from_json, number_to_json, sum_measures

from conftest import atomic_measures


# ---------------------------------------------------------------------------
# numbers and polynomials
# ---------------------------------------------------------------------------


def test_as_fraction_accepts_the_usual_forms():
    assert as_fraction(3) == F(3)
    assert as_fraction("2/7") == F(2, 7)
    assert as_fraction(0.25) == F(1, 4)
    assert as_fraction(F(5, 3)) == F(5, 3)


@pytest.mark.parametrize("value", [None, [1], 1j])
def test_as_fraction_refuses_what_is_no_exact_number(value):
    with pytest.raises(TypeError, match="cannot interpret"):
        as_fraction(value)


def test_number_json_round_trip_covers_all_encodings():
    for v in (F(4), F(1, 4), F(1, 3), F(-7, 10), F(2**60)):
        assert number_from_json(number_to_json(v)) == v
    # small integers stay integers, dyadics stay floats, the rest go textual
    assert number_to_json(F(4)) == 4
    assert number_to_json(F(1, 4)) == 0.25
    assert number_to_json(F(1, 3)) == "1/3"
    # beyond the float range only the string form is left
    assert number_to_json(F(10**400, 3)) == f"{10**400}/3"


def test_poly_evaluation_is_exact_on_fractions():
    p = Poly([F(1), F(-2), F(3)])  # 1 - 2x + 3x^2
    assert p(F(1, 2)) == F(3, 4)
    assert p.derivative()(F(1, 2)) == F(1)
    assert p.integrate(F(0), F(1)) == F(1) - F(1) + F(1)


def test_poly_min_on_finds_interior_dips():
    # (x-1)^2 has minimum 0 at the interior point 1
    p = Poly([F(1), F(-2), F(1)])
    assert abs(p.min_on(F(0), F(2))) < 1e-12
    assert p.min_on(F(2), F(3)) == pytest.approx(1.0)


def test_poly_is_immutable():
    with pytest.raises(AttributeError, match="immutable"):
        Poly([1]).coeffs = ()


def test_piece_rejects_negative_densities():
    with pytest.raises(ValueError):
        Piece(F(0), F(1), Poly([F(-1), F(1)]))  # x - 1 < 0 inside


@pytest.mark.parametrize("lo, hi, coeffs, match", [
    (F(1), F(1), [1], "lo < hi"), (F(2), F(1), [1], "lo < hi"),
    (F(0), F(1), [0], "zero densities")])
def test_piece_rejects_empty_intervals_and_zero_densities(lo, hi, coeffs, match):
    with pytest.raises(ValueError, match=match):
        Piece(lo, hi, Poly(coeffs))


def test_piece_mass_is_the_exact_integral():
    piece = Piece(F(0), F(2), Poly([F(1), F(1)]))
    assert piece.mass() == F(4)  # int_0^2 (1+x) dx


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------


def test_atoms_merge_and_sort_through_the_factory():
    m = ScalarMeasure.of(atoms=[(1, 2), (F(1, 2), 1), (1, 1)])
    assert m.atom_positions() == (F(1, 2), F(1))
    assert m.atom_mass_at(1) == F(3)
    assert m.atom_mass_at(F(1, 3)) == 0


def test_zero_mass_atoms_are_dropped_and_negative_rejected():
    assert ScalarMeasure.of(atoms=[(0, 0)]).is_zero
    with pytest.raises(ValueError):
        ScalarMeasure.of(atoms=[(0, -1)])


@pytest.mark.parametrize("atoms, error", [
    (((F(0), F(0)),), ValueError),                      # zero mass
    (((F(0), F(-1, 3)),), ValueError),                  # negative mass
    (((F(1, 3), F(1)), (F(2, 6), F(1))), ValueError),   # a repeated position
    (((F(1, 2), F(1)), (F(1, 3), F(1))), ValueError),   # decreasing positions
    (((F(-1, 2), F(1)), (F(-2, 3), F(1))), ValueError),
    (((0, F(1)),), TypeError),                          # not a Fraction
    (((F(0), 1.0),), TypeError),
])
def test_the_constructor_checks_every_atom(atoms, error):
    with pytest.raises(error):
        ScalarMeasure(atoms)


def test_float_atoms_have_the_bits_of_float():
    m = ScalarMeasure.of(atoms=[(F(-1, 3), F(2, 7)), (F(10**30 + 1, 3 * 10**29), F(1, 10**400))])
    assert m.float_atoms == tuple((float(x), float(w)) for x, w in m.atoms)


def test_the_constructor_rejects_overlapping_pieces():
    pieces = (Piece(F(0), F(2), Poly([1])), Piece(F(1), F(3), Poly([1])))
    with pytest.raises(ValueError, match="overlap"):
        ScalarMeasure((), pieces)


def test_the_factory_drops_zero_pieces():
    m = ScalarMeasure.of(pieces=[((0, 1), [0, 0]), ((1, 2), [1])])
    assert m.piece_intervals() == ((F(1), F(2)),)


def test_mass_of_a_union_counts_overlaps_once_and_refuses_reversed_intervals():
    m = ScalarMeasure.of(atoms=[(F(3, 2), 1)], pieces=[((0, 4), [1])])
    assert m.mass([(0, 2), (1, 3)]) == F(3) + 1
    with pytest.raises(ValueError, match="reversed"):
        m.mass((2, 1))


def test_total_mass_splits_between_atoms_and_pieces():
    m = ScalarMeasure.of(atoms=[(0, F(1, 2))], pieces=[((0, 1), [F(1, 3)])])
    assert m.total_mass() == F(1, 2) + F(1, 3)
    assert m.mass((F(-1), F(1, 2))) == F(1, 2) + F(1, 6)


def test_addition_refines_overlapping_pieces_exactly():
    a = ScalarMeasure.of(pieces=[((0, 2), [1])])
    b = ScalarMeasure.of(pieces=[((1, 3), [F(1, 2)])])
    s = a + b
    assert s.total_mass() == F(2) + F(1)
    assert s.mass((F(1), F(2))) == F(3, 2)
    # piece boundaries at 0, 1, 2, 3 with the middle cell carrying both
    ivs = s.piece_intervals()
    assert ivs[0][0] == 0 and ivs[-1][1] == 3


def test_addition_keeps_the_gap_between_pieces_empty():
    a = ScalarMeasure.of(pieces=[((0, 1), [1])])
    b = ScalarMeasure.of(pieces=[((2, 3), [2])])
    assert (a + b).piece_intervals() == ((F(0), F(1)), (F(2), F(3)))


def test_only_measures_add_to_a_measure():
    with pytest.raises(TypeError):
        ScalarMeasure.point(0) + 1


@settings(max_examples=60, deadline=None)
@given(atomic_measures(), atomic_measures())
def test_addition_is_mass_additive(a, b):
    assert (a + b).total_mass() == a.total_mass() + b.total_mass()


@settings(max_examples=60, deadline=None)
@given(atomic_measures())
def test_json_round_trip_is_identity(m):
    assert ScalarMeasure.from_json(m.to_json()) == m


def test_scaled_rejects_negative_factors():
    m = ScalarMeasure.point(0, 1)
    assert m.scaled(F(2)).atom_mass_at(0) == F(2)
    with pytest.raises(ValueError):
        m.scaled(F(-1))
    with_piece = ScalarMeasure.of(atoms=[(0, 1)], pieces=[((0, 1), [1])])
    assert with_piece.scaled(0).is_zero


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def test_sum_measures_matches_pairwise_addition():
    ms = [
        ScalarMeasure.point(0, 1),
        ScalarMeasure.of(pieces=[((0, 1), [1])]),
        ScalarMeasure.point(1, F(2, 3)),
    ]
    assert sum_measures(ms) == (ms[0] + ms[1]) + ms[2]


def test_atom_mass_at_compares_exactly_within_one_double():
    # 1 and 1 + 2^-1000 round to the same double; positions beyond the
    # doubles round to infinity and are compared exactly as well.
    m = ScalarMeasure.of(atoms=[(-10**400, 2), (1, 3), (1 + F(1, 2**1000), 4), (10**400, 5)])
    assert [m.atom_mass_at(x) for x in (-10**400, 1, 1 + F(1, 2**1000), 10**400)] == [2, 3, 4, 5]
    assert m.atom_mass_at(1 + F(1, 2**999)) == 0
    assert m.atom_mass_at(10**401) == 0 and m.atom_mass_at(-10**401) == 0
