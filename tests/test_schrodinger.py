"""Edge layer: the ODE solver, interface values, and decoupled spectra.

Closed forms used as oracles (free potential, outer condition at x = L):
Dirichlet m(z) = -sqrt(z) cot(sqrt(z) L), Neumann m(z) = sqrt(z) tan(sqrt(z) L),
half line m(z) = i sqrt(z).

weyl_m evaluates free finite edges in closed form and edges with a potential
by cell transfer matrices (solve_edge).  The slow reference for both is
scipy's DOP853 integrator, which lives here in the tests only;
piecewise-constant potentials are also checked against products of
closed-form transfer matrices.  scipy's `brentq` is the reference of the
in-house one, bit for bit.
"""

import cmath
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq as scipy_brentq

from starweyl import (
    ConvergenceError,
    Edge,
    Poly,
    PotentialPiece,
    cos_sin,
    dirichlet_eigenvalues,
    solve_edge,
    weyl_m,
)
from starweyl import schrodinger
from starweyl.schrodinger import _boundary_values, brentq

ODE_TOL = 1e-9


def dirichlet_m(z, L):
    s = cmath.sqrt(z)
    return -s * cmath.cos(s * L) / cmath.sin(s * L)


def dop853_values(edge, z, init, x0, x1):
    """(u, u')(x1) from init at x0 by scipy's DOP853 at rtol = atol = 1e-12,
    restarted at every potential breakpoint, as a real system in (Re, Im)."""
    breaks = sorted({float(v) for p in edge.potential or () for v in (p.lo, p.hi)}
                    | {float(x0), float(x1)})
    nodes = [b for b in breaks if min(x0, x1) <= b <= max(x0, x1)]
    if x1 < x0:
        nodes.reverse()
    y = [complex(init[0]).real, complex(init[0]).imag, complex(init[1]).real,
         complex(init[1]).imag]
    for a, b in zip(nodes, nodes[1:]):
        mid = 0.5 * (a + b)
        coeffs = next((p.poly.coeffs for p in edge.potential or () if p.lo <= mid <= p.hi), ())
        coeffs = [float(c) for c in coeffs]

        def rhs(x, y, coeffs=coeffs):
            cr = sum(c * x**j for j, c in enumerate(coeffs)) - z.real
            return [y[2], y[3], cr * y[0] + z.imag * y[1], cr * y[1] - z.imag * y[0]]

        res = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=1e-12, atol=1e-12)
        assert res.success, res.message
        y = res.y[:, -1]
    return complex(y[0], y[1]), complex(y[2], y[3])


def ode_m(edge, z):
    """m(z) through DOP853, integrated from the outer end to the vertex."""
    c, s = cos_sin(edge.outer_angle)
    u, du = dop853_values(edge, complex(z), (s, -c), float(edge.length), 0.0)
    return du / u


def transfer_values(L, beta, pieces, z):
    """(u(0), u'(0)) for a piecewise-constant potential, pieces [(lo, hi, q)]
    covering [0, L], as a product of closed-form transfer matrices from x = L
    to 0."""
    c, s = cos_sin(beta)
    u, du = complex(s), complex(-c)
    for lo, hi, q in sorted(pieces, reverse=True):
        w = cmath.sqrt(z - q)
        h = lo - hi
        cw, sw = cmath.cos(w * h), cmath.sin(w * h)
        u, du = cw * u + (sw / w if w else h) * du, -w * sw * u + cw * du
    return u, du


def transfer_m(L, beta, pieces, z):
    u, du = transfer_values(L, beta, pieces, z)
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
    with pytest.raises(ValueError):
        Edge.of(F(1, 10**400))  # positive, but 0.0 as a float


@pytest.mark.parametrize("build, error, match", [
    (lambda: Edge(None, (PotentialPiece(F(0), F(1), Poly([1])),), None), ValueError,
     "only the free potential"),
    (lambda: Edge(1, None, 0.0), TypeError, "Fraction or None"),
    (lambda: Edge(F(1), None, None), ValueError, "need an outer angle"),
    (lambda: PotentialPiece(F(1), F(1), Poly([1])), ValueError, "lo < hi"),
], ids=["infinite-with-potential", "int-length", "no-angle", "empty-piece"])
def test_edge_constructor_guards(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_potential_lookup_is_zero_where_uncovered():
    assert Edge.of(1).q_at(0.5) == 0.0
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


def test_complex_energy_on_a_free_edge_is_the_closed_form():
    e = Edge.of(1)
    z = 1.5 + 0.5j
    sol = solve_edge(e, z, (0.0, 1.0), 0.0, 1.0)
    s = cmath.sqrt(z)
    assert sol.u == pytest.approx(cmath.sin(s) / s, abs=ODE_TOL)
    assert sol.du == pytest.approx(cmath.cos(s), abs=ODE_TOL)


def test_a_batch_of_z_gives_each_z_its_bits_alone():
    # the scan evaluates its grid in one call and hands brentq its values at
    # the bracket ends for single-z ones; -1e5 gives the batch its largest
    # scale factors
    e = Edge.of(2, [((0, 1), [1, F(1, 4)]), ((1, 2), [2])], 0.7)
    zs = np.array([-1e5, -3.0, 0.0, 1.3, 2.5, 4.75, 17.0])
    c, s = cos_sin(0.7)
    batch = solve_edge(e, zs, (s, -c), 2.0, 0.0)
    for i, z in enumerate(zs):
        alone = solve_edge(e, float(z), (s, -c), 2.0, 0.0)
        assert (batch.u[i], batch.du[i]) == (alone.u, alone.du)
        assert (batch.scaled[0][i], batch.scaled[1][i]) == alone.scaled
        assert alone.scaled == (alone.u, alone.du)  # finite, so not rescaled
        assert isinstance(alone.u, float)
    assert np.array_equal(np.sign(_boundary_values(e, zs)[0]),
                          [np.sign(_boundary_values(e, float(z))[0]) for z in zs])
    zc = zs + 1e-3j
    batch = solve_edge(e, zc, (s, -c), 2.0, 0.0)
    for i, z in enumerate(zc):
        alone = solve_edge(e, complex(z), (s, -c), 2.0, 0.0)
        assert (batch.u[i], batch.du[i]) == (alone.u, alone.du)


def _cells_taken(monkeypatch):
    """The cell counts per segment that solve_edge tries, in order."""
    taken, cells = [], schrodinger._cells

    def counting(edge, x0, x1, n):
        taken.append(n)
        return cells(edge, x0, x1, n)

    monkeypatch.setattr(schrodinger, "_cells", counting)
    return taken


def test_steep_potential_at_high_energy_matches_dop853(monkeypatch):
    # q = 60 x^2 rises to 540 across the edge; the cell count has to double
    # past the first level at least twice before the estimate passes, and
    # the sixth-order estimate passes by n = 512 (4,096 cells before it)
    e = Edge.of(3, [((0, 3), [0, 0, 60])], 0.7)
    c, s = cos_sin(0.7)
    for z in (600 + 20j, 600 - 20j, 600.0):
        taken = _cells_taken(monkeypatch)
        got = solve_edge(e, z, (s, -c), 3.0, 0.0)
        assert 4 * schrodinger._CELLS_FIRST <= max(taken) <= 512
        u, du = dop853_values(e, complex(z), (s, -c), 3.0, 0.0)
        assert abs(got.u - u) + abs(got.du - du) <= ODE_TOL * (abs(u) + abs(du))


@pytest.mark.parametrize("z", [0.3, 2.5, 5.9, 1.7 + 1e-2j, 4.2 + 2.4e-6j])
def test_a_benchmark_like_edge_settles_in_one_pass_at_the_first_level(monkeypatch, z):
    # a piece of degree <= 2 and a constant one, values in [0, 5/4], as the
    # benchmark's potential stars draw them, at z in their windows
    for e in (Edge.of(2, [((0, 1), [1, F(1, 4)]), ((1, 2), [0])], 0.76),
              Edge.of(F(3, 2), [((0, F(3, 4)), [F(1, 4), F(1, 4)]), ((F(3, 4), F(3, 2)), [F(1, 2)])]),
              Edge.of(2, [((0, 1), [F(1, 2), F(1, 8), F(1, 8)]), ((1, 2), [F(5, 4)])], 1.1)):
        taken = _cells_taken(monkeypatch)
        solve_edge(e, z, (1.0, 0.0), float(e.length), 0.0)
        assert taken == [schrodinger._CELLS_FIRST] == [16]


def test_transfer_matrices_give_up_past_the_cell_cap(monkeypatch):
    monkeypatch.setattr(schrodinger, "_CELLS_MAX", schrodinger._CELLS_FIRST)
    e = Edge.of(3, [((0, 3), [0, 0, 60])], 0.7)
    with pytest.raises(ConvergenceError):
        solve_edge(e, 600.0, (0.0, 1.0), 3.0, 0.0)


def test_solver_rejects_points_outside_the_edge():
    with pytest.raises(ValueError):
        solve_edge(Edge.of(1), 1.0, (1.0, 0.0), 0.0, 2.0)


@pytest.mark.parametrize("edge", [Edge.of(2), Edge.of(2, [((0, 2), [1, 3])])],
                         ids=["free", "potential"])
def test_a_zero_length_solve_returns_the_initial_values(edge):
    sol = solve_edge(edge, 7.5, (0.3, -1.1), 1.25, 1.25)
    assert (sol.u, sol.du) == (0.3, -1.1) and sol.scaled == (0.3, -1.1)


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


@pytest.mark.parametrize("shift", [1e3, 1e5, 3e5])
@pytest.mark.parametrize("slope", [0, F(1, 10**9)])
def test_deep_evanescence_keeps_the_shifted_closed_form(shift, slope):
    # q = 5/2 on [0, 3] at z = 5/2 - shift, where cosh(3 sqrt(shift)) overflows
    # a float.  The constant piece is one cell, scaled on its own; the tiny
    # slope cuts it into cells whose product is normalized level by level,
    # and moves m by a relative 1e-14 at most.
    e = Edge.of(3, [((0, 3), [F(5, 2), slope])])
    k = math.sqrt(shift)
    assert weyl_m(e, 2.5 - shift) == pytest.approx(-k / math.tanh(3 * k), rel=1e-12)


@pytest.mark.parametrize("z", [2.5 - 1e5, 2000.0, 3000.0, -3000.0, 5000.0,
                               3000.0 + 1e-2j, -3000.0 + 1e-2j])
def test_a_tree_of_many_cells_neither_overflows_nor_underflows(z):
    # four sloped pieces give 64 cells at n = 16 and chains of up to 256; the
    # rescaled cell matrices shrink by about 1/sqrt|q - z| per product, so a
    # tree that went six levels without rescaling lost every entry to 0 here
    e = Edge.of(3, [((F(3 * i, 4), F(3 * i + 3, 4)), [F(5, 2), F(1, 10**12)])
                    for i in range(4)])
    k = cmath.sqrt(2.5 - z)
    want = -k if k.real > 300 else -k / cmath.tanh(3 * k)  # q = 5/2, Dirichlet
    assert weyl_m(e, z) == pytest.approx(want, rel=1e-11)


def test_an_underflowed_value_is_never_accepted(monkeypatch):
    # every transfer matrix is invertible, so (0, 0) from a nonzero start can
    # only be underflow: the solver refines and gives up, it does not return it
    def underflowed(cells, zs):
        return np.zeros((2, 2, 3, zs.size), dtype=complex), np.zeros((3, zs.size), dtype=int)

    monkeypatch.setattr(schrodinger, "_cell_products", underflowed)
    e = Edge.of(3, [((0, 3), [F(5, 2), F(1, 10**12)])])
    with pytest.raises(ConvergenceError):
        solve_edge(e, 3000.0, (0.0, -1.0), 3.0, 0.0)


def test_constant_potential_shifts_the_energy_argument():
    free = Edge.of(1)
    shifted = Edge.of(1, [((0, 1), [F(5, 2)])], 0.0)
    for z in (0.3, 1j, -2.0):
        assert weyl_m(shifted, z + 2.5) == pytest.approx(weyl_m(free, z), abs=1e-9)


@st.composite
def potential_edges(draw):
    """Edges with up to three pieces of degree <= 2, jumps between them, deep
    wells and high plateaus, and gaps where q = 0."""
    length = draw(st.sampled_from([F(1), F(3, 2), F(2), F(3)]))
    cuts = sorted(draw(st.sets(st.integers(1, 7), max_size=3)))
    nodes = [F(0)] + [length * F(c, 8) for c in cuts] + [length]
    pieces = []
    for lo, hi in zip(nodes, nodes[1:]):
        if draw(st.integers(0, 4)) == 0:
            continue  # a gap
        level = draw(st.sampled_from([-40, -8, -1, 0, 1, 3, 25, 120]))
        coeffs = [F(level) + draw(st.fractions(-2, 2, max_denominator=4))]
        coeffs += draw(st.lists(st.fractions(-3, 3, max_denominator=8), max_size=2))
        pieces.append(((lo, hi), coeffs))
    angle = draw(st.sampled_from([0.0, 0.7, math.pi / 2, 2.3]))
    return Edge.of(length, pieces or [((0, length), [1])], angle)


energies = st.builds(complex, st.floats(-30, 150), st.sampled_from([0.0, 1e-6, 1e-3, 0.5, 4.0]))


def _piecewise_constant(edge):
    """[(lo, hi, q)] covering [0, L], or None if some piece is not constant."""
    pieces, at = [], 0.0
    for p in edge.potential:
        if p.poly.degree > 0:
            return None
        if float(p.lo) > at:
            pieces.append((at, float(p.lo), 0.0))
        pieces.append((float(p.lo), float(p.hi), float(p.poly(0))))
        at = float(p.hi)
    if at < float(edge.length):
        pieces.append((at, float(edge.length), 0.0))
    return pieces


@settings(max_examples=40, deadline=None)
@given(potential_edges(), energies)
def test_transfer_matrices_match_dop853_on_random_potentials(edge, z):
    c, s = cos_sin(edge.outer_angle)
    L = float(edge.length)
    got = solve_edge(edge, z, (s, -c), L, 0.0)
    u, du = dop853_values(edge, z, (s, -c), L, 0.0)
    scale = abs(u) + abs(du)
    assert abs(got.u - u) + abs(got.du - du) <= 1e-9 * scale
    pieces = _piecewise_constant(edge)
    if pieces is not None:
        tu, tdu = transfer_values(L, edge.outer_angle, pieces, z)
        assert abs(got.u - tu) + abs(got.du - tdu) <= 1e-12 * (abs(tu) + abs(tdu))


def _richardson_reference(edge, z, init):
    """(u, u') at 0 from the 8,192- and 16,384-cell chains and one Richardson step.

    The products run in long double: in double, rounding in 16,384 cells
    reaches a few 1e-11 relative on the deepest plateaus, more than the
    truncation error it is there to check.
    """
    cells = schrodinger._cut_cells(edge, float(edge.length), 0.0, 4096)
    T, E = schrodinger._cell_products(cells, np.array([z], dtype=np.clongdouble))
    y2, y4 = (T[:, :, k, 0] @ np.array(init, dtype=np.longdouble) * np.longdouble(2) ** int(E[k, 0])
              for k in (1, 2))
    return complex(y4[0] + (y4[0] - y2[0]) / 15), complex(y4[1] + (y4[1] - y2[1]) / 15)


@settings(max_examples=30, deadline=None)
@given(potential_edges(), energies)
# edges that settle only at a late level: q = 60x^2 at n = 128 (chains of up
# to 512 cells), q = 30x^3 at n = 512 (up to 2,048 cells)
@example(Edge.of(1, [((0, 1), [0, 0, 60])], 0.0), complex(600))
@example(Edge.of(1, [((0, 1), [0, 0, 60])], 0.7), complex(600))
@example(Edge.of(2, [((0, 2), [0, 0, 0, 30])], 0.0), 3000 + 1e-6j)
def test_accepted_transfer_values_match_a_16384_cell_reference(edge, z):
    c, s = cos_sin(edge.outer_angle)
    got = solve_edge(edge, z, (s, -c), float(edge.length), 0.0)
    u, du = _richardson_reference(edge, z, (s, -c))
    assert abs(got.u - u) + abs(got.du - du) <= 1e-11 * (abs(u) + abs(du))


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


def test_free_dirichlet_and_neumann_poles_need_no_root_finder(monkeypatch):
    from starweyl import schrodinger

    def no_brentq(*args, **kwargs):
        raise AssertionError("brentq called")

    monkeypatch.setattr(schrodinger, "brentq", no_brentq)
    # strictly inside the window: pi^2 and 4 pi^2 / 4 sit on its ends
    assert dirichlet_eigenvalues(Edge.of(1), (math.pi**2, 50.0)) == [4 * math.pi**2]
    assert dirichlet_eigenvalues(Edge.of(1, "free", math.pi / 2), (-1.0, math.pi**2 / 4)) == []
    assert dirichlet_eigenvalues(Edge.of(2, "free", math.pi / 2), (-1.0, 6.0)) == pytest.approx(
        [(math.pi / 4) ** 2, (3 * math.pi / 4) ** 2], rel=1e-15)


def test_obtuse_outer_angle_gives_one_negative_pole():
    L, beta = 2.0, 2.5
    c, s = cos_sin(beta)
    eigs = dirichlet_eigenvalues(Edge.of(L, "free", beta), (-10, 0))
    assert len(eigs) == 1
    k = math.sqrt(-eigs[0])
    # u(0) = s cosh kL + c sinh(kL)/k vanishes there
    assert s + c * math.tanh(k * L) / k == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("where", ["first", "inner", "last"])
def test_the_scan_reads_an_exact_zero_as_a_pole_at_inner_points_only(where, monkeypatch):
    # the open window of `_free_poles`: a zero at an end scan point is no pole
    edge = Edge.of(1, [((0, 1), [0, 5])], 0.7)
    window = (-5.0, 60.0)
    clean = dirichlet_eigenvalues(edge, window)
    scan, hit = schrodinger._interface_values, []

    def with_a_zero(e, zs):
        vals = scan(e, zs)
        assert all(zs[1] < x < zs[-2] for x in clean)  # no end bracket holds a pole
        i = {"first": 0, "last": len(zs) - 1}.get(where)
        if i is None:  # an inner point with no sign change beside it
            i = next(j for j in range(1, len(zs) - 1) if vals[j - 1] * vals[j + 1] > 0)
        vals[i] = 0.0
        hit.append(zs[i])
        return vals

    monkeypatch.setattr(schrodinger, "_interface_values", with_a_zero)
    got = dirichlet_eigenvalues(edge, window)
    assert got == (sorted(clean + hit) if where == "inner" else clean)


def test_dirichlet_eigenvalues_need_a_finite_edge():
    with pytest.raises(ValueError):
        dirichlet_eigenvalues(Edge.of("inf"), (0, 1))


@pytest.mark.parametrize("window", [(1, 0), (2, 2)])
def test_dirichlet_eigenvalues_need_a_window_of_positive_length(window):
    with pytest.raises(ValueError, match="positive length"):
        dirichlet_eigenvalues(Edge.of(1, [((0, 1), [0, 1])]), window)


@pytest.mark.parametrize(
    "edge, window",
    [(Edge.of(1), (-1e300, 1e300)),
     (Edge.of(1, "free", 1.0), (-1e300, 1e300)),
     (Edge.of(1, [((0, 1), [0, 5])]), (-1e300, 1e300)),
     (Edge.of(1.7e308), (0.5, 1.0))],  # 10 L overflows a float
    ids=["dirichlet", "angle", "potential", "longest-edge"])
def test_pole_search_refuses_a_window_it_cannot_enumerate(edge, window, monkeypatch):
    def enumerate_nothing(*args):
        raise AssertionError("the refusal comes before any enumeration")

    monkeypatch.setattr(schrodinger, "_free_poles", enumerate_nothing)
    monkeypatch.setattr(schrodinger, "_interface_values", enumerate_nothing)
    with pytest.raises(ConvergenceError, match="scan points"):
        dirichlet_eigenvalues(edge, window)


def test_pole_search_takes_a_window_just_below_the_scan_bound():
    # s = sqrt(z) runs over (MAX - 1) steps of pi/10 on a unit Dirichlet
    # edge: one pole (j pi)^2 for each tenth of them.
    hi = ((schrodinger._MAX_SCAN_POINTS - 1) * math.pi / 10) ** 2
    poles = dirichlet_eigenvalues(Edge.of(1), (0.0, hi))
    assert len(poles) == (schrodinger._MAX_SCAN_POINTS - 1) // 10


# ---------------------------------------------------------------------------
# brentq: scipy's iteration, bit for bit
# ---------------------------------------------------------------------------

# The tolerances the port stops on, passed to scipy's reference.
BRENT_TOL = {"xtol": schrodinger._BRENT_XTOL, "rtol": schrodinger._BRENT_RTOL}


def _bracketed(kind: str, c: float, k: float):
    """A function with its zero at c: monotone, monotone near the underflow
    (where the interpolation's slopes multiply to 0), steep, an odd power (a
    multiple zero for powers above 1), or piecewise linear."""
    if kind == "monotone":
        return lambda x: math.expm1(k * (x - c))
    if kind == "tiny":
        return lambda x: 1e-300 * math.expm1(k * (x - c))
    if kind == "steep":
        return lambda x: math.tanh(1e3 * k * (x - c))
    if kind == "odd power":
        power = 2 * int(k) + 1
        return lambda x: (x - c) ** power
    return lambda x: (x - c) * (k if x < c else 1.0 / k)


def _outcome(solve):
    """The root's bits, or the failure: the iteration cap raises RuntimeError
    in scipy and ConvergenceError, a RuntimeError, here."""
    try:
        return solve().hex()
    except RuntimeError:
        return "cap"
    except ValueError:
        return "same signs"


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["monotone", "tiny", "steep", "odd power", "piecewise linear"]),
       st.floats(-50, 50), st.floats(1e-6, 20), st.floats(0, 1), st.floats(0.1, 3))
def test_brentq_has_the_bits_of_scipy(kind, a, width, t, k):
    b = a + width
    f = _bracketed(kind, a + t * width, k)
    seen = []

    def counted(x):
        seen.append(x)
        return f(x)

    got = _outcome(lambda: brentq(counted, a, b, fa=f(a), fb=f(b)))
    assert got == _outcome(lambda: scipy_brentq(f, a, b, **BRENT_TOL))
    assert a not in seen and b not in seen
    if got != "same signs":
        _, info = scipy_brentq(f, a, b, **BRENT_TOL, full_output=True, disp=False)
        assert len(seen) == info.function_calls - 2


def test_brentq_returns_a_root_at_either_end():
    for a, b in ((1.0, 2.0), (0.0, 1.0)):
        assert brentq(lambda x: x - 1.0, a, b, fa=a - 1.0, fb=b - 1.0) == 1.0
        assert scipy_brentq(lambda x: x - 1.0, a, b, **BRENT_TOL) == 1.0


def test_brentq_refuses_ends_of_one_sign():
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x, 1.0, 2.0, fa=1.0, fb=4.0)


def test_brentq_stops_at_a_nan():
    def nan_inside(x):
        return math.nan if 0.0 < x < 1.0 else x - 0.3

    with pytest.raises(ConvergenceError, match="NaN at x"):
        brentq(nan_inside, 0.0, 1.0, fa=-0.3, fb=0.7)
    with pytest.raises(ConvergenceError, match="NaN at an end"):
        brentq(lambda x: x - 0.3, 0.0, 1.0, fa=math.nan, fb=0.7)
