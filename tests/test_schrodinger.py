"""Edge layer: the ODE solver, interface values, and decoupled spectra.

Closed forms used as oracles (free potential, outer condition at x = L):
Dirichlet m(z) = -sqrt(z) cot(sqrt(z) L), Neumann m(z) = sqrt(z) tan(sqrt(z) L),
half line m(z) = i sqrt(z).  The residue of the Dirichlet m at z = k^2 (L = pi)
is 2k^2/pi, giving measure mass (2k^2/pi)/(1 + k^4) after the 1 + x^2 rescale.

weyl_m evaluates free finite edges in closed form, so the tests that compare
it with the ODE (solve_edge integrated from the outer end) are two-route
checks; piecewise-constant potentials are checked against products of
closed-form transfer matrices.
"""

import cmath
import math
import random
from fractions import Fraction as F

import pytest

from starweyl import (
    Edge,
    cos_sin,
    dirichlet_eigenvalues,
    edge_to_herglotz,
    mobius,
    solve_edge,
    weyl_m,
)

ODE_TOL = 1e-9


def dirichlet_m(z, L):
    s = cmath.sqrt(z)
    return -s * cmath.cos(s * L) / cmath.sin(s * L)


def ode_m(edge, z):
    """m(z) through the ODE, integrated from the outer end to the vertex."""
    c, s = cos_sin(edge.outer_angle)
    sol = solve_edge(edge, z, (s, -c), float(edge.length), 0.0)
    return sol.du / sol.u


def transfer_m(L, beta, pieces, z):
    """m(z) for a piecewise-constant potential, pieces [(lo, hi, q)] covering
    [0, L], as a product of closed-form transfer matrices from x = L to 0."""
    c, s = cos_sin(beta)
    u, du = complex(s), complex(-c)
    for lo, hi, q in sorted(pieces, reverse=True):
        w = cmath.sqrt(z - q)
        h = lo - hi
        cw, sw = cmath.cos(w * h), cmath.sin(w * h)
        u, du = cw * u + sw / w * du, -w * sw * u + cw * du
    return du / u


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_edge_of_parses_lengths_and_infinite_markers():
    assert Edge.of(1).length == F(1)
    assert Edge.of("3/2").length == F(3, 2)
    for spec in ("inf", None, math.inf):
        e = Edge.of(spec)
        assert e.is_infinite and e.outer_angle is None


def test_edge_validation_rules():
    with pytest.raises(ValueError):
        Edge.of(0)
    with pytest.raises(ValueError):
        Edge.of(1, "free", math.pi)  # angle must stay below pi
    with pytest.raises(ValueError):
        Edge.of(1, [((0, 2), [1])])  # potential sticks out
    with pytest.raises(ValueError):
        Edge.of(1, [((0, F(2, 3)), [1]), ((F(1, 3), 1), [1])])  # overlap
    with pytest.raises(ValueError):
        Edge(None, None, 0.0)  # infinite edges carry no outer condition


def test_potential_lookup_is_zero_where_uncovered():
    e = Edge.of(2, [((F(1, 2), 1), [F(3)]), ((1, F(3, 2)), [0, 1])])
    assert e.q_at(0.25) == 0.0
    assert e.q_at(0.75) == 3.0
    assert e.q_at(1.25) == 1.25
    assert e.q_at(1.75) == 0.0


def test_edge_json_round_trip():
    for e in (
        Edge.of("inf"),
        Edge.of(math.pi, "free", 1.25),
        Edge.of(1, [((0, F(1, 2)), [F(1, 3), F(2)])], 0.0),
    ):
        assert Edge.from_json(e.to_json()) == e


# ---------------------------------------------------------------------------
# the solver itself
# ---------------------------------------------------------------------------


def test_wronskian_is_conserved_along_the_edge():
    e = Edge.of(1, [((0, 1), [F(0), F(5)])], 0.0)  # q(x) = 5x
    z = 2.7
    u = solve_edge(e, z, (1.0, 0.0), 0.0, 1.0)
    v = solve_edge(e, z, (0.0, 1.0), 0.0, 1.0)
    wr = u.u * v.du - u.du * v.u
    assert wr == pytest.approx(1.0, abs=ODE_TOL)


def test_complex_energy_splits_into_a_real_system():
    e = Edge.of(1)
    z = 1.5 + 0.5j
    sol = solve_edge(e, z, (0.0, 1.0), 0.0, 1.0)
    s = cmath.sqrt(z)
    assert sol.u == pytest.approx(cmath.sin(s) / s, abs=ODE_TOL)
    assert sol.du == pytest.approx(cmath.cos(s), abs=ODE_TOL)


def test_solver_rejects_points_outside_the_edge():
    with pytest.raises(ValueError):
        solve_edge(Edge.of(1), 1.0, (1.0, 0.0), 0.0, 2.0)


def test_potential_jump_uses_each_segments_own_piece():
    # q jumps from 1/2 to 2 at x = 1; the integrator restarts there and must
    # not see the [0, 1] value at the start of the [1, 2] segment
    e = Edge.of(2, [((0, 1), [F(1, 2)]), ((1, 2), [F(2)])], 0.7)
    pieces = [(0.0, 1.0, 0.5), (1.0, 2.0, 2.0)]
    for z in (1.3 + 0.01j, 0.4, -2 + 1j, 5.5 + 0.2j):
        want = transfer_m(2.0, 0.7, pieces, z)
        assert abs(weyl_m(e, z) - want) <= 1e-11 * abs(want)


def test_segment_restarts_do_not_change_the_solution():
    # the same constant potential, once as a single piece and once split
    whole = Edge.of(1, [((0, 1), [F(2)])], 0.0)
    split = Edge.of(1, [((0, F(1, 2)), [F(2)]), ((F(1, 2), 1), [F(2)])], 0.0)
    z = 0.8 + 0.3j
    assert weyl_m(split, z) == pytest.approx(weyl_m(whole, z), abs=1e-10)


# ---------------------------------------------------------------------------
# interface values
# ---------------------------------------------------------------------------


def test_weyl_m_matches_the_dirichlet_closed_form():
    e = Edge.of(math.pi)
    for z in (0.5, -1.0, 2.3 + 1.1j):
        assert weyl_m(e, z) == pytest.approx(dirichlet_m(z, math.pi), abs=1e-10)


def test_weyl_m_negative_energy_is_the_coth_value():
    assert weyl_m(Edge.of(1), -1) == pytest.approx(-1 / math.tanh(1), abs=ODE_TOL)


def test_weyl_m_far_negative_energy_does_not_overflow():
    k = math.sqrt(1e5)
    assert weyl_m(Edge.of(3), -1e5) == pytest.approx(-k / math.tanh(3 * k), rel=1e-13)
    # complex z with |Im kL| in the hundreds: cos kL alone would overflow
    z = -1e5 + 1.0j
    assert weyl_m(Edge.of(3), z) == pytest.approx(1j * cmath.sqrt(z), rel=1e-12)


@pytest.mark.parametrize("angle_class", ["dirichlet", "neumann", "obtuse", "acute"])
def test_free_closed_form_matches_the_ode(angle_class):
    rng = random.Random(angle_class)
    for _ in range(4):
        L = rng.uniform(0.5, 3.0)
        beta = {
            "dirichlet": 0.0,
            "neumann": math.pi / 2,
            "obtuse": rng.uniform(math.pi / 2 + 0.1, math.pi - 0.1),
            "acute": rng.uniform(0.1, math.pi / 2 - 0.1),
        }[angle_class]
        e = Edge.of(L, "free", beta)
        x = rng.uniform(0.1, 20.0)
        zs = (
            x,
            -rng.uniform(0.1, 20.0),
            0.0,
            complex(x, 1e-7),
            complex(rng.uniform(200.0, 900.0), rng.uniform(-5.0, 5.0)),
        )
        for z in zs:
            got, want = weyl_m(e, z), ode_m(e, z)
            assert abs(got - want) <= 1e-8 * (1 + abs(want)), (L, beta, z)
            if isinstance(z, float):
                assert isinstance(got, float)


def test_weyl_m_neumann_closed_form():
    e = Edge.of(math.pi, "free", math.pi / 2)
    z = 0.5
    assert weyl_m(e, z) == pytest.approx(
        math.sqrt(z) * math.tan(math.sqrt(z) * math.pi), abs=1e-10
    )


def test_weyl_m_infinite_edge_takes_the_upper_branch():
    e = Edge.of("inf")
    assert weyl_m(e, 1j) == pytest.approx(cmath.exp(3j * math.pi / 4))
    assert weyl_m(e, -4) == pytest.approx(-2.0)  # i * 2i
    assert weyl_m(e, 2 + 1j).imag > 0


def test_weyl_m_satisfies_the_outer_condition_it_came_from():
    # integrate back out with (1, m) and land on the boundary condition
    beta = 1.1
    e = Edge.of(F(3, 2), [((0, 1), [F(1), F(-1)])], beta)
    z = 0.9
    m = weyl_m(e, z)
    sol = solve_edge(e, z, (1.0, m), 0.0, float(e.length))
    c, s = cos_sin(beta)
    assert sol.u * c + sol.du * s == pytest.approx(0.0, abs=1e-8)


def test_constant_potential_shifts_the_energy_argument():
    free = Edge.of(1)
    shifted = Edge.of(1, [((0, 1), [F(5, 2)])], 0.0)
    for z in (0.3, 1j, -2.0):
        assert weyl_m(shifted, z + 2.5) == pytest.approx(weyl_m(free, z), abs=1e-9)


# ---------------------------------------------------------------------------
# decoupled spectrum
# ---------------------------------------------------------------------------


def test_dirichlet_eigenvalues_of_the_pi_edge():
    eigs = dirichlet_eigenvalues(Edge.of(math.pi), (0.1, 10))
    assert len(eigs) == 3
    for got, want in zip(eigs, (1.0, 4.0, 9.0)):
        assert got == pytest.approx(want, abs=1e-9)


def test_dirichlet_eigenvalues_shift_with_the_potential():
    e = Edge.of(1, [((0, 1), [F(-10)])], 0.0)
    eigs = dirichlet_eigenvalues(e, (-5, 40))
    want = [math.pi**2 - 10, 4 * math.pi**2 - 10]
    assert len(eigs) == 2
    for got, ref in zip(eigs, want):
        assert got == pytest.approx(ref, abs=1e-8)


def test_dirichlet_eigenvalues_of_free_edges_are_the_closed_form_poles():
    rng = random.Random(3)
    for _ in range(3):
        L = rng.uniform(0.5, 3.0)
        hi = (6.3 * math.pi / L) ** 2
        dirichlet = dirichlet_eigenvalues(Edge.of(L), (-5.0, hi))
        neumann = dirichlet_eigenvalues(Edge.of(L, "free", math.pi / 2), (-5.0, hi))
        assert dirichlet == pytest.approx([(j * math.pi / L) ** 2 for j in range(1, 7)],
                                          rel=1e-12)
        assert neumann == pytest.approx([((j + 0.5) * math.pi / L) ** 2 for j in range(6)],
                                        rel=1e-12)


def test_obtuse_outer_angle_gives_one_negative_pole():
    L, beta = 2.0, 2.5
    c, s = cos_sin(beta)
    eigs = dirichlet_eigenvalues(Edge.of(L, "free", beta), (-10, 0))
    assert len(eigs) == 1
    k = math.sqrt(-eigs[0])
    # u(0) = s cosh kL + c sinh(kL)/k vanishes there
    assert s + c * math.tanh(k * L) / k == pytest.approx(0.0, abs=1e-12)


def test_dirichlet_eigenvalues_need_a_finite_edge():
    with pytest.raises(ValueError):
        dirichlet_eigenvalues(Edge.of("inf"), (0, 1))


def test_edge_to_herglotz_extracts_the_known_masses():
    rep = edge_to_herglotz(Edge.of(math.pi), (0.1, 10))
    assert rep.a == 0 and rep.b == 0
    positions = rep.omega.atom_positions()
    assert len(positions) == 3
    for pos, k in zip(positions, (1, 2, 3)):
        assert float(pos) == pytest.approx(k * k, abs=1e-9)
        mass = float(rep.omega.atom_mass_at(pos))
        want = (2 * k * k / math.pi) / (1 + k**4)
        assert mass == pytest.approx(want, rel=1e-6)


def test_mobius_applies_the_angle_map_to_an_edge():
    e = Edge.of(math.pi)
    alpha = 0.6
    g = mobius(lambda z: weyl_m(e, z), alpha)
    z = 1.7 + 0.4j
    c, s = cos_sin(alpha)
    m = weyl_m(e, z)
    assert g.eval(z) == pytest.approx((c * m - s) / (s * m + c))
