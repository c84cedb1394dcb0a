"""Scalar Herglotz layer.

Exactness claims are tested in Fraction arithmetic; analytic claims are
tested against closed forms.  The value h(i) = i * total mass (for a = b = 0)
is used repeatedly: at z = i the integrand (1 + t i)/(t - i) collapses to i
for every real t, so it is an exact oracle independent of the atom layout.
"""

import cmath
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starweyl import (
    ConvergenceError,
    HerglotzFunction,
    HerglotzRep,
    Poly,
    ScalarMeasure,
    atom_weight,
    atomic_rational_parts,
    cauchy_transform,
    cos_sin,
    geometric_schedule,
    poly_gcd_degree,
    richardson,
    solve_level,
)
from starweyl.herglotz import DEFAULT_SCHEDULE
from starweyl.schrodinger import EDGE_SCHEDULE

from conftest import atomic_reps, upper_half_points


def test_cos_sin_snaps_the_axis_values():
    assert cos_sin(0.0) == (1.0, 0.0)
    assert cos_sin(math.pi / 2) == (0.0, 1.0)
    assert cos_sin(math.pi) == (-1.0, 0.0)
    c, s = cos_sin(math.pi / 4)
    assert c == pytest.approx(s)


def test_cauchy_transform_at_i_equals_i_times_mass():
    omega = ScalarMeasure.of(atoms=[(F(1, 2), F(1, 3)), (F(2), F(1)), (F(-7), F(1, 5))])
    v = cauchy_transform(omega, 1j)
    assert v == pytest.approx(1j * float(omega.total_mass()), abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(atomic_reps(), upper_half_points())
def test_cauchy_transform_converts_each_atom_once_with_the_same_bits(h, z):
    omega = h.omega
    want = 0.0 + 0.0j
    for t, w in omega.atoms:
        tf, wf = float(t), float(w)
        want += wf * ((1.0 + tf * tf) / (tf - z) - tf)
    assert cauchy_transform(omega, z) == want
    assert omega.float_atoms is omega.float_atoms


def test_cauchy_transform_rejects_real_arguments():
    with pytest.raises(ValueError):
        cauchy_transform(ScalarMeasure.point(0, 1), 0.5)


def test_rep_requires_nonnegative_slope():
    with pytest.raises(ValueError):
        HerglotzRep.of(0, -1, ScalarMeasure())


@settings(max_examples=80, deadline=None)
@given(atomic_reps(), upper_half_points())
def test_rep_maps_upper_half_plane_into_itself(h, z):
    assert h.eval(z).imag >= 0
    assert h.eval(z.conjugate()) == pytest.approx(h.eval(z).conjugate())


def test_eval_real_is_exact_fraction_arithmetic():
    h = HerglotzRep.of(F(1, 3), F(2), ScalarMeasure.point(1, F(1, 2)))
    # a + b x + w (1 + t x)/(t - x) at x = 3: 1/3 + 6 + (1/2)(4)/(-2)
    assert h.eval_real(3) == F(1, 3) + F(6) - F(1)
    with pytest.raises(ValueError):
        h.eval_real(1)


def test_eval_real_with_density_needs_distance_from_support():
    h = HerglotzRep.of(0, 0, ScalarMeasure.of(pieces=[((0, 1), [1])]))
    v = h.eval_real(F(2))
    assert isinstance(v, float)
    with pytest.raises(ValueError):
        h.eval_real(F(1, 2))


def test_derivative_real_matches_difference_quotient():
    h = HerglotzRep.of(F(1), F(1, 2), ScalarMeasure.of(atoms=[(0, 1), (3, F(2))]))
    x = F(1)
    d = h.derivative_real(x)
    step = F(1, 2**20)
    quot = (h.eval_real(x + step) - h.eval_real(x - step)) / (2 * step)
    assert abs(d - quot) < F(1, 10**9)
    assert d > 0


def test_derivative_real_refuses_densities_and_poles():
    with pytest.raises(ValueError, match="purely atomic"):
        HerglotzRep.of(0, 0, ScalarMeasure.of(pieces=[((0, 1), [1])])).derivative_real(2)
    with pytest.raises(ValueError, match="pole"):
        HerglotzRep.of(0, 0, ScalarMeasure.point(1)).derivative_real(1)


def test_rep_takes_fractions():
    with pytest.raises(TypeError, match="Fractions"):
        HerglotzRep(0, F(0), ScalarMeasure())


def test_integer_evaluation_needs_a_purely_atomic_measure():
    h = HerglotzRep.of(0, 0, ScalarMeasure.of(atoms=[(3, 1)], pieces=[((0, 1), [1])]))
    with pytest.raises(ValueError, match="purely atomic"):
        h.value_parts(2, 1)


def test_value_at_infinity_for_bounded_reps():
    h = HerglotzRep.of(F(1, 2), 0, ScalarMeasure.of(atoms=[(1, F(1, 3)), (-2, F(1, 4))]))
    # a - sum(w t) = 1/2 - (1/3 - 1/2)
    assert h.value_at_infinity() == F(1, 2) - F(1, 3) + F(1, 2)
    hb = HerglotzRep.of(0, 1, ScalarMeasure())
    with pytest.raises(ValueError):
        hb.value_at_infinity()


def test_rep_json_round_trip():
    h = HerglotzRep.of(F(1, 3), F(1, 2), ScalarMeasure.of(atoms=[(F(-1), F(2))]))
    again = HerglotzRep.from_json(h.to_json())
    assert again.a == h.a and again.b == h.b and again.omega == h.omega


# ---------------------------------------------------------------------------
# extrapolation
# ---------------------------------------------------------------------------


def test_geometric_schedule_shape():
    s = geometric_schedule(0.1, 5)
    assert s == pytest.approx([0.1, 0.05, 0.025, 0.0125, 0.00625])
    with pytest.raises(ValueError):
        geometric_schedule(-1, 5)


@pytest.mark.parametrize("ladder, eps0, steps", [
    (DEFAULT_SCHEDULE, 0.1, 40), (EDGE_SCHEDULE, 1e-2, 13),
    (geometric_schedule(0.2, 10), 0.2, 10), (geometric_schedule(0.1, 9), 0.1, 9)],
    ids=["default", "edge", "ten-steps", "nine-steps"])
def test_a_ladder_holds_the_rungs_its_limits_read_bit_for_bit(ladder, eps0, steps):
    # the floor of `point_mass` reads the first rung and `richardson` the
    # last eight: a ladder keeps those bits and drops the rungs between
    whole = tuple(eps0 * 0.5**k for k in range(steps))
    assert ladder == (whole[0],) + whole[-8:]


def test_richardson_kills_polynomial_error_terms():
    eps = geometric_schedule(0.2, 10)
    vals = [7.0 + 3.1 * e - 0.8 * e ** 2 + 0.1 * e ** 3 for e in eps]
    limit, err = richardson(eps, vals)
    assert limit == pytest.approx(7.0, abs=1e-12)
    assert err < 1e-10


def test_richardson_handles_complex_sequences():
    eps = geometric_schedule(0.1, 8)
    vals = [(2 - 1j) + (0.3 + 0.4j) * e for e in eps]
    limit, _ = richardson(eps, vals)
    assert limit == pytest.approx(2 - 1j, abs=1e-12)


def test_richardson_on_arrays_repeats_the_scalar_elimination_bit_for_bit():
    eps = geometric_schedule(0.1, 12)
    rows = [[1.5 + 0.7 * e - 2.0 * e * e, -0.25 + 3.0 * e ** 3] for e in eps]
    limit, err = richardson(eps, [np.array(r) for r in rows])
    for j in range(2):
        assert limit[j] == richardson(eps, [r[j] for r in rows])[0]
    assert err < 1e-10


def test_richardson_rejects_a_schedule_that_is_not_geometric():
    eps = [0.1, 0.05, 0.02, 0.01, 0.004, 0.001]
    with pytest.raises(ValueError, match="geometrically"):
        richardson(eps, [2.0 - e for e in eps])


@pytest.mark.parametrize("count", [0, 1])
def test_richardson_needs_at_least_two_samples(count):
    eps = geometric_schedule(0.1, 2)[:count]
    with pytest.raises(ValueError, match="at least two samples"):
        richardson(eps, [1.0] * count)


def test_richardson_fit_keeps_real_samples_real():
    eps = geometric_schedule(0.1, 6)
    limit, err = richardson(eps, [2.0 - e + 3.0 * e * e for e in eps])
    assert isinstance(limit, float) and isinstance(err, float)
    assert limit == pytest.approx(2.0, abs=1e-12)
    c_limit, _ = richardson(eps, [(2 - 1j) + (0.3 + 0.4j) * e for e in eps])
    assert isinstance(c_limit, complex) and c_limit == pytest.approx(2 - 1j, abs=1e-12)
    m_limit, m_err = richardson(eps, [np.array([[1.0 + e, -e], [-e, 0.5]]) for e in eps])
    assert m_limit.dtype == float and m_limit.shape == (2, 2)
    assert np.allclose(m_limit, [[1.0, 0.0], [0.0, 0.5]], atol=1e-12)
    assert isinstance(m_err, float)


# ---------------------------------------------------------------------------
# atom weights
# ---------------------------------------------------------------------------


def _rep_with_pole_at_third():
    return HerglotzRep.of(F(1, 2), 0, ScalarMeasure.of(
        atoms=[(F(-1), F(1, 2)), (F(1, 3), F(2))]))


def test_atom_weight_exact_and_extrapolated_routes_agree():
    h = _rep_with_pole_at_third()
    assert atom_weight(h, F(1, 3)) == F(2)
    approx = atom_weight(h.eval, F(1, 3))
    assert float(approx) == pytest.approx(2.0, rel=1e-8)
    assert atom_weight(h.eval, 5.0) == 0.0


def test_atom_weight_has_no_mass_at_an_integrable_singularity():
    # -1/sqrt(z) has density |x|^(-1/2) / pi on x < 0 and no atom at 0;
    # eps * Im h ~ sqrt(eps / 2) extrapolates to a little above zero, under
    # the floor.
    assert atom_weight(HerglotzFunction(lambda z: -1 / cmath.sqrt(z)), 0.0) == 0.0


def test_atom_weight_raises_when_the_mass_does_not_settle():
    # eps * Im h = 1e-6 (1 + sin(1/eps)) oscillates on the floor's scale.
    h = HerglotzFunction(lambda z: 1j * (1e-6 + 1e-6 * math.sin(1 / z.imag)) / z.imag)
    with pytest.raises(ConvergenceError):
        atom_weight(h, 0.0)


# ---------------------------------------------------------------------------
# level sets
# ---------------------------------------------------------------------------


def test_solve_level_hits_rational_solutions_exactly():
    # h(x) = -1/x: the level 2 is attained exactly at -1/2
    h = HerglotzRep.of(0, 0, ScalarMeasure.point(0, 1))
    assert solve_level(h, 2) == [F(-1, 2)]
    assert solve_level(h, 0) == []


def test_solve_level_counts_one_root_per_gap():
    h = HerglotzRep.of(F(1, 3), 0, ScalarMeasure.of(
        atoms=[(F(-2), F(1, 2)), (F(1, 4), F(3)), (F(5, 2), F(1))]))
    # value at infinity is 1/3 - (-1 + 3/4 + 5/2) = -23/12
    hinf = h.value_at_infinity()
    assert hinf == F(-23, 12)
    above = solve_level(h, 0)       # 0 > hinf: extra root left of all poles
    below = solve_level(h, F(-3))   # -3 < hinf: extra root right of all poles
    assert len(above) == 3 and len(below) == 3
    assert above[0] < F(-2) and below[-1] > F(5, 2)
    for x in above:
        assert abs(h.eval_real(x)) < F(1, 2**50)
    roots = solve_level(h, 0, (F(-10), F(10)))
    assert roots == [r for r in above if abs(r) <= 10]


def test_solve_level_with_a_slope_and_no_atoms():
    assert solve_level(HerglotzRep.of(F(1, 3), 2), 1) == [F(1, 3)]


def test_exact_calculus_refuses_densities():
    h = HerglotzRep.of(0, 0, ScalarMeasure.of(pieces=[((0, 1), [1])]))
    with pytest.raises(ValueError, match="purely atomic"):
        solve_level(h, 0)
    with pytest.raises(ValueError, match="purely atomic"):
        atomic_rational_parts(h)


def test_solve_level_respects_the_window():
    h = HerglotzRep.of(F(1, 3), 0, ScalarMeasure.of(
        atoms=[(F(-2), F(1, 2)), (F(1, 4), F(3)), (F(5, 2), F(1))]))
    everything = solve_level(h, 0)
    inside = solve_level(h, 0, window=(F(-2), F(2)))
    assert inside == [r for r in everything if F(-2) <= r <= F(2)]
    assert len(inside) == 2


# ---------------------------------------------------------------------------
# rational certificates
# ---------------------------------------------------------------------------


def test_atomic_rational_parts_reconstruct_the_function():
    h = _rep_with_pole_at_third()
    P, Q = atomic_rational_parts(h)
    for x in (F(0), F(5), F(-3, 7)):
        assert P(x) / Q(x) == h.eval_real(x)
    # numerator and denominator never vanish together
    for t in h.omega.atom_positions():
        assert Q(t) == 0 and P(t) != 0


def test_poly_gcd_degree_detects_common_roots():
    p = Poly([F(-1), F(0), F(1)])   # (x-1)(x+1)
    q = Poly([F(-1), F(1)])         # x - 1
    assert poly_gcd_degree(p, q) == 1
    r = Poly([F(2), F(1)])          # x + 2
    assert poly_gcd_degree(p, r) == 0
    # x^3 + x by x^2 leaves a remainder whose top coefficient is zero
    assert poly_gcd_degree(Poly([0, 1, 0, 1]), Poly([0, 0, 1])) == 1


def test_atom_weight_accepts_reps_functions_and_lambdas():
    h = _rep_with_pole_at_third()
    assert atom_weight(h, F(1, 3)) == F(2)
    assert atom_weight(HerglotzFunction(h.eval), F(1, 3)) == pytest.approx(2.0, rel=1e-8)
    assert atom_weight(lambda z: -5 / z, 0.0) == pytest.approx(5.0, rel=1e-8)


_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-310, 1.0, -2.5, 1e300, -1.7e308]


@st.composite
def _finite_points(draw):
    re = draw(st.one_of(st.sampled_from(_EXTREMES), st.floats(-20, 20)))
    im = draw(st.one_of(st.sampled_from([v for v in _EXTREMES if v != 0]),
                        st.floats(-20, 20).filter(lambda v: v != 0)))
    return complex(re, im)


@settings(max_examples=150, deadline=None)
@given(atomic_reps(max_atoms=6), st.booleans(), st.lists(_finite_points(), max_size=12))
def test_eval_many_has_the_bits_of_eval(h, density, zs):
    # Bytes, not ==: -0.0, infinities and NaN must match too.
    if density:
        h = HerglotzRep(h.a, h.b, h.omega + ScalarMeasure.of(pieces=[((11, 12), (1, F(1, 3)))]))
    got = h.eval_many(np.array(zs, dtype=complex))
    assert got.tobytes() == np.array([h.eval(z) for z in zs], dtype=complex).tobytes()


def _fraction_integer_terms(h):
    """`HerglotzRep._integer_terms` built by `Fraction` sums and products."""
    atoms = h.omega.atoms
    D = math.lcm(*(t.denominator for t, _ in atoms))
    c = h.a - sum((w * t for t, w in atoms), F(0))
    rhos = [w * (1 + t * t) * D for t, w in atoms]
    M = math.lcm(c.denominator, h.b.denominator, *(r.denominator for r in rhos))
    terms = [(t.numerator * (D // t.denominator), r.numerator * (M // r.denominator))
             for (t, _w), r in zip(atoms, rhos)]
    return D, M, int(c * M), int(h.b * M), terms


@st.composite
def _wide_reps(draw):
    """Representations whose a, b, positions and masses are p/q with |p|
    up to 10^33 and q up to 10^30, drawn uniformly: past 2^53, so every
    reduction and common multiple is exercised, and converting p and q to
    float before dividing would round twice in about a third of the draws."""
    rnd = draw(st.randoms(use_true_random=True))

    def wide(lo=-10**33):
        return F(rnd.randint(lo, 10**33), rnd.randint(1, 10**30))

    atoms = [(wide(), wide(1)) for _ in range(rnd.randint(0, 6))]
    return HerglotzRep.of(wide(), wide(0), ScalarMeasure.of(atoms=atoms))


@settings(max_examples=200, deadline=None)
@given(st.one_of(atomic_reps(max_atoms=8), _wide_reps()))
def test_integer_terms_are_those_of_fraction_arithmetic(h):
    assert h._integer_terms == _fraction_integer_terms(h)


@settings(max_examples=100, deadline=None)
@given(st.one_of(atomic_reps(), _wide_reps()), st.lists(upper_half_points(), min_size=1, max_size=6))
def test_eval_and_eval_many_keep_the_bits_of_converting_a_and_b_per_call(h, zs):
    want = [float(h.a) + float(h.b) * complex(z) + cauchy_transform(h.omega, z) for z in zs]
    for _ in range(2):  # the first call converts, the second reads the cache
        assert np.array([h.eval(z) for z in zs], dtype=complex).tobytes() == \
            np.array(want, dtype=complex).tobytes()
        assert h.eval_many(np.array(zs, dtype=complex)).tobytes() == \
            np.array(want, dtype=complex).tobytes()


def test_eval_many_refuses_the_real_axis_like_eval():
    h = HerglotzRep.of(1, 0, ScalarMeasure.point(0, 1))
    with pytest.raises(ValueError, match="real axis"):
        h.eval(2.0)
    with pytest.raises(ValueError, match="real axis"):
        h.eval_many(np.array([1 + 1j, 2.0]))
