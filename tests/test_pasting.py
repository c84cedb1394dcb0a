"""Joined systems: interface matrix, matrix Weyl function, local ranks.

Residue oracles used below, all derived by hand in rational arithmetic:

* carriers of a shared atom at x0 with trace weights rho_l: the residue
  block over head carriers is diag(rho) - rho rho^T / sum(rho), so for k
  equal carriers among the first n-1 entries omega = (I - J/k)/(k - 1)
  (J the all-ones block) with rank k - 1;
* two point masses at -1 and +1 (mass 1 each): the summed function
  vanishes at 0 with derivative 4, the limits are (m_1(0), 1) = (-1, 1),
  so the residue is [[1/4, -1/4], [-1/4, 1/4]] and the trace-normalized
  sample is [[1/2, -1/2], [-1/2, 1/2]], rank 1.
"""

import math
from fractions import Fraction as F
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starweyl import (
    ConvergenceError,
    Edge,
    HerglotzFunction,
    HerglotzRep,
    InternalInvariantError,
    PastedSystem,
    PureRelationError,
    ScalarMeasure,
    exact_rank,
    interface_matrix,
    matrix_weyl,
    md_matrix,
    multiplicity_at,
    omega_at,
    rank_md,
    rank_one_limit_matrix,
    solve_level,
    symplectic_form,
    trace_weyl,
)
from starweyl import pasting
from starweyl.herglotz import cos_sin
from starweyl.schrodinger import dirichlet_eigenvalues, weyl_m

from conftest import atomic_reps, upper_half_points


def kac_pair():
    return PastedSystem.of([ScalarMeasure.point(-1, 1), ScalarMeasure.point(1, 1)])


def black_box(sys_):
    """The same functions as black-box callables, which take the numeric route."""
    return PastedSystem(tuple(HerglotzFunction(r.eval) for r in sys_.reps))


# ---------------------------------------------------------------------------
# system container
# ---------------------------------------------------------------------------


def test_system_needs_at_least_two_entries():
    with pytest.raises(ValueError):
        PastedSystem.of([ScalarMeasure.point(0, 1)])


def test_constant_entries_are_limited_to_one():
    c = HerglotzRep.of(F(1))
    m = ScalarMeasure.point(0, 1)
    PastedSystem.of([c, m])  # fine
    with pytest.raises(PureRelationError):
        PastedSystem.of([c, c, m])
    with pytest.raises(PureRelationError):
        PastedSystem.of([c, HerglotzRep.of(F(2))])
    with pytest.raises(PureRelationError):  # two zero measures
        PastedSystem.of([ScalarMeasure(), ScalarMeasure()])


def test_entry_normalization_refuses_what_is_no_interface_data():
    with pytest.raises(TypeError, match="interface data"):
        PastedSystem.of([ScalarMeasure.point(0, 1), 3])


def test_entry_normalization_accepts_mixed_inputs():
    sys_ = PastedSystem.of([
        ScalarMeasure.point(0, 1),
        HerglotzRep.of(F(2)),
        lambda z: 1j,
        Edge.of(1),
    ])
    assert sys_.n == 4
    assert isinstance(sys_.entries[0], HerglotzRep)
    assert isinstance(sys_.entries[2], HerglotzFunction)
    assert sys_.has_edges and not sys_.is_exact_atomic
    assert sys_.reps is None


def test_sum_rep_adds_the_exact_data():
    sys_ = kac_pair()
    s = sys_.sum_rep()
    assert s.a == 0 and s.b == 0
    assert s.omega.atom_positions() == (F(-1), F(1))
    with pytest.raises(ValueError, match="all entries exact"):
        PastedSystem.of([ScalarMeasure.point(0, 1), Edge.of(1)]).sum_rep()


def test_entries_answer_one_protocol():
    edge = Edge.of(math.pi)
    z = 1.3 + 0.1j
    assert edge.eval(z) == edge(z) == weyl_m(edge, z)
    assert edge.eval_real(2.5) == float(weyl_m(edge, 2.5).real)
    assert edge.poles((0.1, 10)) == dirichlet_eigenvalues(edge, (0.1, 10))
    assert edge.density_intervals() == ()

    rep = HerglotzRep.of(1, 0, ScalarMeasure.of(
        atoms=[(-1, 1), (0, 2), (1, 1)], pieces=[((2, 3), (1,))]))
    assert rep.eval(z) == rep(z)
    assert rep.poles((-1, "1/2")) == [F(-1), F(0)]
    assert rep.density_intervals() == ((F(2), F(3)),)

    fn = HerglotzFunction(rep.eval)
    assert fn.eval(z) == fn(z) == rep.eval(z)
    assert HerglotzFunction(edge).eval_real(2.5) == edge.eval_real(2.5)

    zs = np.array([z, 2.0 + 1.0j])
    for entry in (edge, rep, fn):
        assert entry.eval_many(zs).tolist() == [entry.eval(v) for v in zs.tolist()]
    with pytest.raises(ValueError, match="poles of a black-box"):
        fn.poles((0, 1))
    with pytest.raises(ValueError, match="density support"):
        fn.density_intervals()


def test_system_json_round_trip():
    sys_ = PastedSystem.of(
        [ScalarMeasure.point(-1, 1), Edge.of(math.pi), Edge.of("inf")])
    again = PastedSystem.from_json(sys_.to_json())
    assert again.n == 3
    assert sys_.to_json()["interface"] == {"type": "standard"}
    assert isinstance(again.entries[0], HerglotzRep)
    assert again.entries[1] == sys_.entries[1]
    with pytest.raises(ValueError):
        PastedSystem.from_json({"edges": [{"what": 1}]})


def test_interface_angles_are_rejected_when_parsed():
    # Rotated vertex conditions are rejected by design rather than computed
    # as the standard interface.
    edges = [ScalarMeasure.point(-1, 1).to_json(), ScalarMeasure.point(1, 1).to_json()]
    with pytest.raises(ValueError, match="interface angles are not supported"):
        PastedSystem.from_json(
            {"edges": edges, "interface": {"type": "angles", "a": [0.7, 1.9], "b": 0.4}})
    with pytest.raises(ValueError, match="unknown interface type"):
        PastedSystem.from_json({"edges": edges, "interface": {"type": "robin"}})
    with pytest.raises(ValueError, match="must be an object"):
        PastedSystem.from_json({"edges": edges, "interface": "standard"})
    assert PastedSystem.from_json({"edges": edges}).n == 2


def test_callables_have_no_json_form():
    sys_ = PastedSystem.of([lambda z: 1j, lambda z: 2j])
    with pytest.raises(ValueError):
        sys_.to_json()


# ---------------------------------------------------------------------------
# interface matrix
# ---------------------------------------------------------------------------


def test_interface_matrix_n2_blocks():
    w = interface_matrix(2)
    expect = np.array([
        [-1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ])
    assert np.array_equal(w, expect)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_interface_matrix_preserves_the_symplectic_form(n):
    w = interface_matrix(n)
    J = symplectic_form(n)
    assert np.array_equal(w.T @ J @ w, J)


def test_interface_matrix_rejects_tiny_n():
    with pytest.raises(ValueError):
        interface_matrix(1)


# ---------------------------------------------------------------------------
# matrix Weyl function
# ---------------------------------------------------------------------------


def test_matrix_weyl_hand_value_for_two_unit_entries():
    sys_ = PastedSystem.of([lambda z: 1j, lambda z: 1j])
    M = matrix_weyl(sys_, 1j)
    expect = np.array([[0.5j, -0.5], [-0.5, 0.5j]])
    assert np.allclose(M, expect, atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(atomic_reps(max_atoms=3), min_size=2, max_size=5),
    upper_half_points(),
)
def test_matrix_weyl_satisfies_the_interface_identity(reps, z):
    sys_ = PastedSystem.of(reps)
    n = sys_.n
    M = matrix_weyl(sys_, z)
    w = interface_matrix(n)
    mt = np.diag(sys_.entry_values(z))
    resid = M @ (w[:n, :n] + w[:n, n:] @ mt) - (w[n:, :n] + w[n:, n:] @ mt)
    assert np.linalg.norm(resid) <= 1e-12
    # Herglotz property and conjugate symmetry at the same point
    im = (M - M.conj().T) / 2j
    assert float(np.linalg.eigvalsh(im).min()) >= -1e-12
    assert np.allclose(matrix_weyl(sys_, z.conjugate()), M.conj().T, atol=1e-12)


def test_values_that_sum_to_zero_have_no_matrix():
    ms = np.array([1.0 + 0j, -1.0 + 0j])
    with pytest.raises(ZeroDivisionError):
        pasting.matrix_from_values(ms)
    with pytest.raises(ZeroDivisionError):
        pasting.trace_from_values(ms)


# The scalar builds the stacked ones replace, kept here as their reference:
# one row at a time, in numpy complex scalars, a Python double loop.
def _loop_others(ms: list) -> list:
    before = [0j, *accumulate(ms[:-2])]
    after = [*accumulate(ms[:0:-1])][::-1]
    return [p + s for p, s in zip(before, after)]


def _loop_matrix(ms: np.ndarray) -> np.ndarray:
    n = len(ms)
    m = ms.sum()
    if m == 0:
        raise ZeroDivisionError("sum of interface values vanishes")
    others = _loop_others(ms.tolist())
    M = np.empty((n, n), dtype=complex)
    for i in range(n - 1):
        for j in range(n - 1):
            M[i, j] = -ms[i] * ms[j] / m
        M[i, i] = ms[i] * others[i] / m
        M[i, n - 1] = M[n - 1, i] = -ms[i] / m
    M[n - 1, n - 1] = -1.0 / m
    return M


def _loop_trace(ms: np.ndarray) -> complex:
    m = ms.sum()
    if m == 0:
        raise ZeroDivisionError("sum of interface values vanishes")
    v = ms.tolist()
    return complex(sum(a * o for a, o in zip(v, _loop_others(v))) / m - 1.0 / m)


# Real and imaginary parts: signed zeros, subnormals, values near the top of
# the range (whose products overflow) and ordinary ones.
_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1.1e-310,
                     1.7e308, -1.3e308, 1e154, -3e-160]),
    st.floats(-1e6, 1e6),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _value_stacks(draw):
    n = draw(st.sampled_from([2, 3, 4, 5, 6, 64]))
    k = draw(st.integers(0, 3))
    parts = st.lists(_PARTS, min_size=2 * n, max_size=2 * n)
    rows = [draw(parts) for _ in range(k)]
    return np.array([[complex(r[2 * i], r[2 * i + 1]) for i in range(n)] for r in rows],
                    dtype=complex).reshape(k, n)


@settings(max_examples=150, deadline=None)
@given(_value_stacks())
# the prefix of entry 0 is +0, which turns a suffix of -0.0 parts into +0.0
@example(np.array([[2 + 1j, complex(-0.0, -0.0)]]))
@example(np.array([[1 - 1j, complex(-0.0, -0.0), complex(-0.0, -0.0)]] * 2))
def test_stacked_builds_have_the_bits_of_the_scalar_loop(stack):
    with np.errstate(all="ignore"):
        if any(row.sum() == 0 for row in stack):
            for build in (pasting.matrix_from_values, pasting.trace_from_values):
                with pytest.raises(ZeroDivisionError):
                    build(stack)
            return
        M, tr = pasting.matrix_from_values(stack), pasting.trace_from_values(stack)
        assert M.shape == (len(stack), stack.shape[1], stack.shape[1])
        assert tr.shape == (len(stack),)
        for k, row in enumerate(stack):
            assert _bits(M[k]) == _bits(pasting.matrix_from_values(row)) == _bits(_loop_matrix(row))
            want = _loop_trace(row)
            assert _bits(tr[k]) == _bits(want)
            alone = pasting.trace_from_values(row)
            assert type(alone) is complex and _bits(alone) == _bits(want)


def test_a_stack_with_one_vanishing_sum_has_no_matrix():
    stack = np.array([[1.0 + 1j, 2.0], [0.0, -0.0], [3.0, 1j]])
    for build in (pasting.matrix_from_values, pasting.trace_from_values):
        with pytest.raises(ZeroDivisionError):
            build(stack)
        assert build(np.empty((0, 4), dtype=complex)).shape[0] == 0


def test_trace_weyl_equals_the_matrix_trace():
    sys_ = PastedSystem.of([ScalarMeasure.point(-1, 1), ScalarMeasure.point(2, F(1, 2)),
                            ScalarMeasure.point(5, 1)])
    z = 0.3 + 0.9j
    assert trace_weyl(sys_, z) == pytest.approx(complex(np.trace(matrix_weyl(sys_, z))))


# One entry of each kind: a potential with a jump at x = 1, free Dirichlet,
# Neumann and angle-1.1 edges, a free half-line and an atomic representation.
_MIXED_ENTRIES = (
    Edge.of(2, [((0, 1), (1, 2)), ((1, 2), (5,))], 0.7),
    Edge.of(1),
    Edge.of(F(3, 2), "free", math.pi / 2),
    Edge.of(2, "free", 1.1),
    Edge.of("inf"),
    HerglotzRep.of(0, 1, ScalarMeasure.of(atoms=[(1, 1), (4, F(1, 2))])),
)
# The poles of those entries in (-1, 30), to 4 places, for points drawn
# next to them.
_MIXED_POLES = (5.4055, 10.2209, 20.2588, 9.8696, 1.0966, 27.4156, 1.035, 6.0431,
                15.9235, 1.0, 4.0)


def _bits(values) -> list:
    return np.asarray(values, dtype=complex).reshape(-1).view(np.uint64).tolist()


def _assert_batch_has_scalar_bits(sys_, zs):
    M, tr = matrix_weyl(sys_, np.array(zs)), trace_weyl(sys_, np.array(zs))
    assert M.shape == (len(zs), sys_.n, sys_.n) and tr.shape == (len(zs),)
    edges = [e for e in sys_.entries if isinstance(e, Edge)]
    columns = [weyl_m(e, np.array(zs)) for e in edges]
    for k, z in enumerate(zs):
        assert _bits(M[k]) == _bits(matrix_weyl(sys_, z))
        assert _bits(tr[k]) == _bits(trace_weyl(sys_, z))
        for e, column in zip(edges, columns):
            assert _bits(column[k]) == _bits(weyl_m(e, z))


@st.composite
def _mixed_batches(draw):
    picks = draw(st.lists(st.sampled_from(range(len(_MIXED_ENTRIES))),
                          min_size=2, max_size=4, unique=True))
    near = st.builds(lambda p, dx: p + dx, st.sampled_from(_MIXED_POLES),
                     st.floats(-1e-3, 1e-3))
    x = st.one_of(near, st.floats(-5, 30))
    z = st.builds(complex, x, st.floats(1e-7, 3.0))
    zs = draw(st.lists(z, min_size=1, max_size=6))
    return PastedSystem.of([_MIXED_ENTRIES[i] for i in sorted(picks)]), zs


@settings(max_examples=40, deadline=None)
@given(_mixed_batches())
def test_batched_values_have_the_bits_of_single_calls(batch):
    _assert_batch_has_scalar_bits(*batch)


def test_a_refined_z_keeps_its_bits_next_to_an_easy_one():
    # at 600 + 20i the steep well takes more levels than the first, of 16 cells
    steep = Edge.of(3, [((0, 3), (0, 0, 60))])
    _assert_batch_has_scalar_bits(PastedSystem.of([steep, _MIXED_ENTRIES[0]]),
                                  [1.0 + 1.0j, 600.0 + 20.0j])


def test_batched_real_values_have_the_bits_of_single_calls():
    # real z alone gives real floats; in a batch with complex z it must too
    for zs in ([0.5, 3.0, 9.9], [0.5, 3.0 + 0.1j, 9.9, -2.0]):
        for e in _MIXED_ENTRIES[:5]:
            column = weyl_m(e, np.array(zs))
            assert [_bits(v) for v in column] == [_bits(weyl_m(e, z)) for z in zs]


def test_equal_edges_share_their_values_bit_for_bit():
    pieces = [((0, 1), (1, 2)), ((1, 2), (5,))]
    star = PastedSystem.of([Edge.of(2, pieces, 0.7), Edge.of(2, pieces, 0.7),
                            Edge.of(F(3, 2), [((0, F(3, 2)), (3,))])])
    assert star.entries[0] is not star.entries[1]
    assert star.distinct_entries == ((star.entries[0], star.entries[2]), (0, 0, 1))
    for zs in ([0.5, 3.0, 9.9], [0.5 + 1e-3j, 3.0 + 0.1j, -2.0 + 1.0j]):
        alone = np.column_stack([e.eval_many(np.array(zs)) for e in star.entries])
        assert _bits(star.entry_values(np.array(zs))) == _bits(alone)
        for z, row in zip(zs, alone):
            assert _bits(star.entry_values(z)) == _bits(row)


def test_only_equal_edges_and_the_same_representation_are_merged():
    pieces = [((0, 1), (1, 2))]
    rep = HerglotzRep.of(0, 1, ScalarMeasure.of(atoms=[(1, 1)]))
    sys_ = PastedSystem.of([Edge.of(2, pieces, 0.7), Edge.of(2, pieces, 0.8), rep, rep,
                            HerglotzRep.of(0, 1, ScalarMeasure.of(atoms=[(1, 1)]))])
    # the outer angle tells the edges apart; representations go by identity
    assert sys_.distinct_entries[1] == (0, 1, 2, 2, 3)


def test_a_batch_raises_where_u_vanishes_at_a_real_z():
    # on q = 2 the cell at z = 2 is exactly [[1, -1], [0, 1]], so u(0) = s + c
    # with (c, s) = cos_sin(beta), which gives the pi/4 family equal magnitudes
    beta = 3 * math.pi / 4
    c, s = cos_sin(beta)
    assert s + c == 0.0
    edge = Edge.of(1, [((0, 1), (2,))], beta)
    with pytest.raises(ZeroDivisionError):
        weyl_m(edge, 2.0)
    for zs in ([2.0, 3.0], [1.0 + 1.0j, 2.0]):
        with pytest.raises(ZeroDivisionError):
            weyl_m(edge, np.array(zs))


def test_empty_batches_give_empty_arrays():
    sys_ = PastedSystem.of(_MIXED_ENTRIES[:2])
    assert matrix_weyl(sys_, np.array([])).shape == (0, 2, 2)
    assert trace_weyl(sys_, np.array([])).shape == (0,)


def test_symmetric_system_trace_reduction():
    # identical entries collapse the trace to ((n-1)^2 m - 1/m)/n
    m0 = complex(1.7, 0.6)
    for n in (2, 3, 4, 5):
        sys_ = PastedSystem.of([lambda z: m0] * n)
        z = -0.4 + 1.3j
        want = ((n - 1) ** 2 * m0 - 1 / m0) / n
        assert trace_weyl(sys_, z) == pytest.approx(want, abs=1e-13)


# ---------------------------------------------------------------------------
# local samples, exact route
# ---------------------------------------------------------------------------


def test_overlap_residue_from_the_worked_example():
    sys_ = PastedSystem.of([
        ScalarMeasure.of(atoms=[(1, 2), (3, 1)]),
        ScalarMeasure.of(atoms=[(1, 1), (-1, 1)]),
        ScalarMeasure.of(atoms=[(4, 1)]),
    ])
    om = omega_at(sys_, 1)
    # rho = (4, 2): C = [[4, 0], [0, 2]] - [[16, 8], [8, 4]]/6, trace 8/3
    assert om.exact and om.rank == 1 and not om.trace_vanishing
    expect = ((F(1, 2), F(-1, 2), F(0)), (F(-1, 2), F(1, 2), F(0)), (F(0), F(0), F(0)))
    assert om.exact_entries == expect


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (3, 3), (5, 3), (6, 6)])
def test_equal_carrier_overlap_has_rank_k_minus_1(n, k):
    entries = [ScalarMeasure.point(0, 1) if l < k else ScalarMeasure.point(l + 1, 1)
               for l in range(n)]
    om = omega_at(PastedSystem.of(entries), 0)
    assert om.exact and om.rank == k - 1
    if k < n:
        # equal head carriers: omega = (I - J/k)/(k-1) on the carrier block
        for i in range(k):
            assert om.exact_entries[i][i] == (1 - F(1, k)) / (k - 1)


def test_single_carrier_leaves_no_atom():
    sys_ = PastedSystem.of([ScalarMeasure.point(0, 1), ScalarMeasure.point(1, 1)])
    om = omega_at(sys_, 1)  # only the second entry charges 1
    assert om.trace_vanishing and om.rank == 0


def test_kirchhoff_zero_residue_of_the_two_atom_system():
    om = omega_at(kac_pair(), 0)
    assert om.exact and om.rank == 1
    assert om.exact_entries == ((F(1, 2), F(-1, 2)), (F(-1, 2), F(1, 2)))


def test_off_support_points_report_vanishing_trace():
    om = omega_at(kac_pair(), F(17))
    assert om.trace_vanishing and om.rank == 0 and om.converged


def test_multiplicity_at_wraps_the_rank():
    assert multiplicity_at(kac_pair(), 0) == 1
    sys3 = PastedSystem.of([ScalarMeasure.point(0, 1)] * 3)
    assert multiplicity_at(sys3, 0) == 2


def test_the_vanishing_test_is_relative_near_zero():
    # The summed function of the atoms (-1, 1 + 2^-1000) and (1, 1) vanishes
    # near 2^-1002.  2.371692252312041e-20 is where a bisection resolved only
    # to 2^-64 absolute stopped: the sum there is about 9.5e-20, below an
    # absolute 2^-40 but far above h' |x| / 2^40.
    sys_ = PastedSystem.of([ScalarMeasure.point(-1, 1 + F(1, 2**1000)),
                            ScalarMeasure.point(1, 1)])
    assert multiplicity_at(sys_, F(2.371692252312041e-20)) == 0
    [root] = solve_level(sys_.sum_rep(), 0, (-F(1, 2), F(1, 2)))
    assert F(1, 2**1003) < root < F(1, 2**1001)
    assert multiplicity_at(sys_, root) == 1


def test_exact_multiplicity_eliminates_at_atoms_only(monkeypatch):
    # Off the atoms the residue v v^T / h' has v's last entry 1: rank 1
    # wherever the sum vanishes, so only the vanishing test runs there.
    calls = []
    original = pasting.exact_rank
    monkeypatch.setattr(pasting, "exact_rank", lambda rows: calls.append(rows) or original(rows))
    assert multiplicity_at(kac_pair(), 0) == 1
    assert multiplicity_at(kac_pair(), F(1, 2)) == 0
    assert calls == []
    assert multiplicity_at(PastedSystem.of([ScalarMeasure.point(0, 1)] * 3), 0) == 2
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# local samples, extrapolated route
# ---------------------------------------------------------------------------


def test_numeric_route_agrees_with_exact_on_overlap_and_zero():
    sys_ = kac_pair()
    for x in (0.0, 1.0, 0.37):
        ex = omega_at(sys_, x if x != 0.37 else F(37, 100))
        nu = omega_at(black_box(sys_), x)
        assert ex.exact and not nu.exact and nu.converged
        assert nu.rank == ex.rank
        assert nu.trace_vanishing == ex.trace_vanishing
        if not ex.trace_vanishing:
            assert np.allclose(nu.matrix, ex.matrix, atol=1e-6)


def test_numeric_route_on_the_default_ladder_gives_the_exact_rank():
    # The single-carrier atoms -1 and 1, the Kirchhoff zero 0 and regular
    # points in between, 1/20 apart: 79 points.
    sys_ = kac_pair()
    for x in (F(k, 20) for k in range(-39, 40)):
        nu = omega_at(black_box(sys_), float(x))
        assert nu.converged, x
        assert nu.rank == omega_at(sys_, x).rank, x


def test_numeric_route_rejects_nonpositive_trace():
    bad = HerglotzFunction(lambda z: complex(0.0, -1.0))
    sys_ = PastedSystem.of([bad, bad])
    with pytest.raises(ConvergenceError):
        omega_at(sys_, 0.0)


def test_numeric_route_flags_oscillating_ratios_as_nonconvergent():
    # pole-scale growth whose direction never settles: the trace weight stays
    # positive but the ratio matrices cannot converge
    steady = HerglotzFunction(lambda z: 1j / z.imag)
    wobble = HerglotzFunction(
        lambda z: 1j * (1.0 + 0.8 * math.sin(1.0 / z.imag)) / z.imag
    )
    # three carriers: the normalized ratios depend on the relative weights,
    # so the oscillation survives into the extrapolation
    sys_ = PastedSystem.of([steady, wobble, steady])
    om = omega_at(sys_, 0.0)
    assert not om.trace_vanishing
    assert not om.converged
    with pytest.raises(ConvergenceError):
        multiplicity_at(sys_, 0.0)


def test_psd_projection_reports_the_defect():
    om = omega_at(black_box(kac_pair()), 0)
    rep = om.psd_tolerance_report
    assert rep.min_eigenvalue >= -1e-9
    assert rep.hermitian_defect < 1e-9
    eigs = np.linalg.eigvalsh(om.matrix)
    assert eigs.min() >= 0.0


# ---------------------------------------------------------------------------
# rank formulas
# ---------------------------------------------------------------------------


def test_rank_md_reference_values():
    assert rank_md([1, 1], 2) == 1
    assert rank_md([1, 1], 3) == 2
    assert rank_md([2, 3, 5], 10) == 2
    assert rank_md([2, 3, 5], 7) == 3


def test_rank_md_raises_when_the_formula_and_elimination_disagree(monkeypatch):
    monkeypatch.setattr(pasting, "exact_rank", lambda rows: len(rows))
    with pytest.raises(InternalInvariantError, match="rank mismatch"):
        rank_md([1, 2], 3)


def test_rank_md_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        rank_md([1, 0], 1)
    with pytest.raises(ValueError):
        rank_md([1, 1], 0)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=30), min_size=2, max_size=6),
    st.integers(min_value=1, max_value=120),
)
def test_rank_md_always_matches_elimination(b, d):
    want = len(b) - 1 if d == sum(b) else len(b)
    assert rank_md(b, d) == want
    assert exact_rank(md_matrix(b, d)) == want


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=30), min_size=2, max_size=6),
    st.integers(min_value=1, max_value=120),
    st.data(),
)
def test_rank_md_agrees_on_ints_fractions_and_mixed_input(b, d, data):
    # ints run in ints, anything else in Fractions; the rank is the same
    mixed = [F(v) if data.draw(st.booleans()) else v for v in b]
    want = rank_md(b, d)
    assert rank_md([F(v) for v in b], F(d)) == want
    assert rank_md(mixed, d) == want
    assert rank_md(b, F(d)) == want
    assert md_matrix(b, d) == md_matrix([F(v) for v in b], F(d))
    assert all(type(v) is int for row in md_matrix(b, d) for v in row)


@pytest.mark.parametrize("b, d", [([1, 0], 1), ([F(1), 0], 1), ([1, F(0)], F(2)),
                                  ([1, 1], 0), ([F(1), 1], F(0)), ([1, 1], F(0))])
def test_rank_md_rejects_a_zero_in_any_number_type(b, d):
    with pytest.raises(ValueError):
        rank_md(b, d)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.integers(-50, 50), min_size=3, max_size=3), min_size=1, max_size=6))
def test_exact_rank_of_int_rows_matches_the_fraction_rows(rows):
    as_fractions = [[F(v) for v in r] for r in rows]
    assert exact_rank(rows) == exact_rank(as_fractions) == _fraction_rank(rows)
    halves = [[F(v, 2) for v in r] for r in rows]  # rescaled per row
    assert exact_rank(halves) == exact_rank(rows)


def test_rank_one_limit_matrix_is_the_normalized_gram():
    om = rank_one_limit_matrix([F(-1)])
    assert om.rank == 1
    assert om.exact_entries == ((F(1, 2), F(-1, 2)), (F(-1, 2), F(1, 2)))
    om3 = rank_one_limit_matrix([F(1), F(1)])
    assert om3.exact_entries[0] == (F(1, 3), F(1, 3), F(1, 3))


# ---------------------------------------------------------------------------
# next to a pole of one entry
# ---------------------------------------------------------------------------


def _cmul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _cdiv(u, v):
    norm = v[0] * v[0] + v[1] * v[1]
    return ((u[0] * v[0] + u[1] * v[1]) / norm, (u[1] * v[0] - u[0] * v[1]) / norm)


@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9])
def test_matrix_weyl_keeps_its_digits_next_to_a_pole(eps):
    # At z = -1 + i eps the first entry of kac2 grows like 1/eps, and
    # m - m_1 kept none of the second entry's digits.  The reference runs
    # the same formulas in exact arithmetic on the same float entry values.
    sys_ = kac_pair()
    z = complex(-1.0, eps)
    m1, m2 = ((F(v.real), F(v.imag)) for v in sys_.entry_values(z))
    m = (m1[0] + m2[0], m1[1] + m2[1])
    want = _cdiv(_cmul(m1, m2), m)
    want = complex(float(want[0]), float(want[1]))
    assert abs(matrix_weyl(sys_, z)[0, 0] - want) <= 1e-15 * abs(want)
    tr = _cdiv(_cmul(m1, m2), m)
    tr = (tr[0] - _cdiv((F(1), F(0)), m)[0], tr[1] - _cdiv((F(1), F(0)), m)[1])
    want_tr = complex(float(tr[0]), float(tr[1]))
    assert abs(trace_weyl(sys_, z) - want_tr) <= 1e-15 * abs(want_tr)


# ---------------------------------------------------------------------------
# exact route: elimination and the omega sample
# ---------------------------------------------------------------------------


def _fraction_rank(rows):
    """Gaussian elimination over the rationals, as `exact_rank` used to run."""
    m = [[F(v) for v in r] for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col] / m[rank][col]
            m[r] = [a - f * p for a, p in zip(m[r], m[rank])]
        rank += 1
    return rank


@st.composite
def low_rank_matrices(draw):
    """Products A B of rational n x k and k x c matrices, rank <= k."""
    n, c, k = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(0, 4))
    entries = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    a = [[draw(entries) for _ in range(k)] for _ in range(n)]
    b = [[draw(entries) for _ in range(c)] for _ in range(k)]
    return [[sum((a[i][l] * b[l][j] for l in range(k)), F(0)) for j in range(c)]
            for i in range(n)]


@settings(max_examples=150, deadline=None)
@given(low_rank_matrices())
def test_exact_rank_matches_rational_elimination(rows):
    assert exact_rank(rows) == _fraction_rank(rows)


def _reference_omega_entries(sys_, x):
    """The exact sample as omega_at built it before, in Fraction arithmetic:
    C / tr(C), with C the residue block at an atom, or v v^T / h' at a
    zero of the sum within the bisection tolerance."""
    reps, n = sys_.reps, sys_.n
    rhos = [r.omega.atom_mass_at(x) * (1 + x * x) for r in reps]
    C = [[F(0)] * n for _ in range(n)]
    if any(rhos):
        total = sum(rhos)
        head = [l for l in range(n - 1) if rhos[l] > 0]
        for i in head:
            for j in head:
                C[i][j] = -rhos[i] * rhos[j] / total
            C[i][i] += rhos[i]
    else:
        vals = [r.eval_real(x) for r in reps]
        deriv = sum(r.derivative_real(x) for r in reps)
        if abs(sum(vals)) <= (1 + deriv * max(F(1), abs(x))) / F(2**40):
            v = vals[:-1] + [F(1)]
            C = [[v[i] * v[j] / deriv for j in range(n)] for i in range(n)]
    tr = sum(C[i][i] for i in range(n))
    if tr == 0:
        return None
    return tuple(tuple(C[i][j] / tr for j in range(n)) for i in range(n))


@pytest.mark.parametrize("seed", range(4))
def test_exact_omega_sample_is_unchanged(seed):
    # Four entries sharing some atoms: the sample at every overlap, vanished
    # point and zero, at a regular point and next to each zero, as before.
    rng = np.random.default_rng(seed)
    pos = [F(int(v), 4) for v in rng.choice(np.arange(-12, 12), size=9, replace=False)]
    entries = []
    for l in range(4):
        idx = rng.choice(9, size=4, replace=False)
        entries.append(ScalarMeasure.of(atoms=[(pos[i], F(int(rng.integers(1, 9)), 4))
                                              for i in idx]))
    sys_ = PastedSystem.of(entries)
    zeros = solve_level(sys_.sum_rep(), 0, (-4, 4))
    for x in sorted(set(pos)) + zeros + [F(1, 7)] + [u + F(1, 2**30) for u in zeros]:
        om = omega_at(sys_, x)
        want = _reference_omega_entries(sys_, x)
        assert om.exact_entries == want
        if want is None:
            assert om.rank == 0 and om.trace_vanishing
            assert multiplicity_at(sys_, x) == 0
            continue
        mat = np.array([[float(v) for v in row] for row in want])
        assert om.rank == multiplicity_at(sys_, x) == int(np.linalg.matrix_rank(mat))
        assert not om.trace_vanishing and om.converged


# ---------------------------------------------------------------------------
# the vanishing test decided in double first
# ---------------------------------------------------------------------------


def _integer_vanishing(sys_, x):
    """`_kirchhoff_zero`'s integer test, without the double filter."""
    p, q = x.numerator, x.denominator
    S, B, Dn, Dd = 0, 1, 0, 1
    for num, den, dnum, dden in (r.value_parts(p, q) for r in sys_.reps):
        S, B = S * den + num * B, B * den
        Dn, Dd = Dn * dden + dnum * Dd, Dd * dden
    return Dn > 0 and abs(S) * 2**40 * Dd * q <= B * Dn * abs(p)


def _threshold_points(r):
    """Points around a zero r where |sum| sits near h' |x| 2^-40, either side."""
    return [r * (1 + s * F(1, 2**40) * (1 + e)) for s in (1, -1)
            for e in (F(-1, 2**20), F(-1, 2**45), F(0), F(1, 2**45), F(1, 2**20))]


@settings(max_examples=60, deadline=None)
@given(st.lists(atomic_reps(max_atoms=4), min_size=2, max_size=4),
       st.fractions(min_value=-12, max_value=12, max_denominator=97))
def test_filtered_vanishing_equals_the_integer_test(reps, x):
    sys_ = PastedSystem.of(reps)
    atoms = {t for r in reps for t in r.omega.atom_positions()}
    points = [x, F(0), F(1, 2**60), -F(1, 2**1000)]
    for r in solve_level(sys_.sum_rep(), 0):
        points += [r, r * (1 - F(1, 2**60)), r * (1 + F(1, 2**60)), *_threshold_points(r)]
    for t in atoms:
        points += [t * (1 + F(1, 2**60)), t - F(1, 2**60)]
    for y in points:
        if y in atoms:
            continue
        want = _integer_vanishing(sys_, y)
        decided = pasting._float_vanishing(sys_, y)
        assert decided is None or decided == want
        assert pasting._kirchhoff_zero(sys_, y) == want


def _atomic_star(seed):
    rng = np.random.default_rng(seed)
    return PastedSystem.of([ScalarMeasure.of(atoms=[
        (F(int(j), 8), F(int(rng.integers(1, 33)), 16))
        for j in rng.choice(np.arange(-64, 64), size=12, replace=False)]) for _ in range(4)])


def test_the_zeros_of_a_star_are_decided_in_double(monkeypatch):
    sys_ = _atomic_star(5)
    roots = solve_level(sys_.sum_rep(), 0, (-8, 8))
    calls = []
    value_parts = HerglotzRep.value_parts
    monkeypatch.setattr(HerglotzRep, "value_parts",
                        lambda self, p, q: calls.append(p) or value_parts(self, p, q))
    assert len(roots) > 40 and all(multiplicity_at(sys_, r) == 1 for r in roots)
    assert calls == []
    # next to the threshold the bound straddles, and the integers decide
    r = roots[len(roots) // 2]
    for y in (r * (1 + F(1, 2**40)), r * (1 - F(1, 2**40))):
        assert pasting._float_vanishing(sys_, y) is None
        assert pasting._kirchhoff_zero(sys_, y) == _integer_vanishing(sys_, y)
    assert calls


@pytest.mark.parametrize("entries, x", [
    # at 0 and below the normal range
    ([ScalarMeasure.point(-1, 1), ScalarMeasure.point(1, 1)], F(0)),
    ([ScalarMeasure.point(-1, 1), ScalarMeasure.point(1, 1)], F(1, 2**1050)),
    # h' |x| below 2^-1000
    ([ScalarMeasure.point(-1, 1), ScalarMeasure.point(1, 1)], F(1, 2**1010)),
    # next to an atom
    ([ScalarMeasure.point(-1, 1), ScalarMeasure.point(1, 1)], 1 + F(1, 2**70)),
    # beyond the doubles
    ([ScalarMeasure.point(-1, 1), ScalarMeasure.point(1, 1)], F(2**1100) + F(1, 3)),
    # a mass below the normal range: no rounded terms
    ([ScalarMeasure.point(-1, F(1, 2**1100)), ScalarMeasure.point(1, 1)], F(1, 3)),
])
def test_the_vanishing_test_falls_back_to_integers(entries, x):
    sys_ = PastedSystem.of(entries)
    assert pasting._float_vanishing(sys_, x) is None
    assert pasting._kirchhoff_zero(sys_, x) == _integer_vanishing(sys_, x)
