"""Exact level solving by integer sign checks, against the Fraction route.

`solve_level` reads the sign of h(x) - level from h(x) evaluated as an
unreduced integer fraction with a positive denominator.  The reference
below is the earlier solver, which evaluated h(x) - level with `eval_real`
in Fraction arithmetic at every step; both must return the same Fractions.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from starweyl import HerglotzRep, Poly, ScalarMeasure, atomic_rational_parts, herglotz, solve_level
from starweyl.errors import ConvergenceError
from starweyl.herglotz import (
    _bisect_exact,
    _level_sign,
    _locate,
    _snap_candidates,
    cos_sin,
)

from conftest import atomic_reps, positive_rationals, rationals

# ---------------------------------------------------------------------------
# slow reference: Fraction bisection on eval_real
# ---------------------------------------------------------------------------


def _reference_bisect(F_, lo, hi):
    width_goal = None
    while True:
        mid = (lo + hi) / 2
        if width_goal is None:
            width_goal = max(abs(mid), F(1)) / F(2**64)
        v = F_(mid)
        if v == 0:
            return mid
        if v < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < width_goal:
            # inside (-1, 1) the goal is 2^-64 of the distance from 0
            zero = lo if lo > 0 else -hi if hi < 0 else F(0)
            if zero >= 1 or hi - lo < zero / 2**64:
                break
            if lo < 0 < hi:
                v = F_(F(0))
                if v == 0:
                    return F(0)
                lo, hi = (F(0), hi) if v < 0 else (lo, F(0))
            width_goal = zero / 2**64 if zero else hi - lo
    mid = (lo + hi) / 2
    for bound in (10, 10**3, 10**6, 10**9, 10**12):
        cand = mid.limit_denominator(bound)
        if lo < cand < hi and F_(cand) == 0:
            return cand
    return mid


def _reference_solve_level(h, level):
    level = F(level)

    def F_(x):
        return h.eval_real(x) - level

    ts = [t for t, _ in h.omega.atoms]
    roots = []
    if not ts:
        if h.b > 0:
            roots.append((level - h.a) / h.b)
        return roots
    hinf = h.value_at_infinity() if h.b == 0 else None
    gaps = [(None, ts[0])] + [(ts[i], ts[i + 1]) for i in range(len(ts) - 1)]
    gaps.append((ts[-1], None))
    for L, R in gaps:
        if L is None and h.b == 0 and not (hinf < level):
            continue
        if R is None and h.b == 0 and not (hinf > level):
            continue
        if L is not None:
            d = (R - L) / 16 if R is not None else F(1)
            for _ in range(200):
                lo = L + d
                v = F_(lo)
                if v < 0:
                    break
                if v == 0:
                    roots.append(lo)
                    lo = None
                    break
                d /= 4
            else:
                raise ConvergenceError("could not bracket below a pole")
            if lo is None:
                continue
        else:
            step = F(1)
            lo = R - step
            for _ in range(200):
                v = F_(lo)
                if v < 0:
                    break
                if v == 0:
                    roots.append(lo)
                    lo = None
                    break
                step *= 2
                lo = R - step
            else:
                raise ConvergenceError("no sign change toward -infinity")
            if lo is None:
                continue
        if R is not None:
            d = (R - L) / 16 if L is not None else F(1)
            for _ in range(200):
                hi = R - d
                if hi <= lo:
                    d /= 4
                    continue
                v = F_(hi)
                if v > 0:
                    break
                if v == 0:
                    roots.append(hi)
                    hi = None
                    break
                d /= 4
            else:
                raise ConvergenceError("could not bracket above a pole")
            if hi is None:
                continue
        else:
            step = F(1)
            hi = L + step
            for _ in range(200):
                if hi > lo:
                    v = F_(hi)
                    if v > 0:
                        break
                    if v == 0:
                        roots.append(hi)
                        hi = None
                        break
                step *= 2
                hi = L + step
            else:
                raise ConvergenceError("no sign change toward +infinity")
            if hi is None:
                continue
        roots.append(_reference_bisect(F_, lo, hi))
    return sorted(roots)


def _reference_rational_parts(h):
    """P/Q by products of linear factors, O(n^3) rational operations."""
    atoms = h.omega.atoms
    Q = Poly((1,))
    for t, _ in atoms:
        Q = Q * Poly((t, -1))
    lead = h.a - sum((w * t for t, w in atoms), F(0))
    P = Poly((lead, h.b)) * Q
    for j, (t, w) in enumerate(atoms):
        Qj = Poly((1,))
        for k, (tk, _) in enumerate(atoms):
            if k != j:
                Qj = Qj * Poly((tk, -1))
        P = P + Qj.scaled(w * (1 + t * t))
    return P, Q


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------


def _float_level(alpha: float) -> F:
    """The level -cot(alpha), exactly from the float cos/sin of alpha."""
    c, s = cos_sin(alpha)
    return -F(c) / F(s)


def _seeded_rep(seed: int, n: int) -> HerglotzRep:
    """n atoms at odd multiples of 1/(2k), as on the k74 grids; slope on odd seeds."""
    rng = np.random.default_rng(seed)
    k = n + int(rng.integers(1, 8))
    js = rng.choice(np.arange(-3 * k, 3 * k), size=n, replace=False)
    atoms = [(F(2 * int(j) + 1, 2 * k), F(int(rng.integers(1, 33)), 16)) for j in js]
    a = F(int(rng.integers(-8, 9)), 4)
    b = F(int(rng.integers(1, 3)), 2) if seed % 2 else F(0)
    return HerglotzRep.of(a, b, ScalarMeasure.of(atoms=atoms))


@st.composite
def grid_reps(draw, max_atoms=8):
    k = draw(st.integers(min_value=1, max_value=30))
    js = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=max_atoms, unique=True))
    masses = draw(st.lists(positive_rationals(), min_size=len(js), max_size=len(js)))
    a = draw(rationals(-5, 5))
    b = draw(st.sampled_from([F(0), F(0), F(1, 2), F(3)]))
    atoms = [(F(2 * j + 1, 2 * k), w) for j, w in zip(js, masses)]
    return HerglotzRep.of(a, b, ScalarMeasure.of(atoms=atoms))


levels = st.one_of(
    rationals(-20, 20, den=7),
    st.floats(min_value=0.05, max_value=3.09).map(_float_level),
)


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _check_sign(h, level, x):
    sign = _level_sign(h, level)
    if x in h.omega.atom_positions():
        # a pole: the check raises, it never reads 0
        with pytest.raises(ValueError):
            sign(x.numerator, x.denominator)
        return
    want = _sign(h.eval_real(x) - level)
    assert sign(x.numerator, x.denominator) == want
    # the integer value needs no lowest terms
    assert sign(3 * x.numerator, 3 * x.denominator) == want


# ---------------------------------------------------------------------------
# the sign, two routes
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(grid_reps(), levels, rationals(-25, 25, den=60))
def test_integer_sign_matches_eval_real(h, level, x):
    _check_sign(h, level, x)


@settings(max_examples=60, deadline=None)
@given(grid_reps(), rationals(-25, 25, den=12))
def test_integer_sign_detects_exact_zeros(h, x0):
    if x0 in h.omega.atom_positions():
        return
    level = h.eval_real(x0)
    assert _level_sign(h, level)(x0.numerator, x0.denominator) == 0
    assert x0 in solve_level(h, level)


@settings(max_examples=40, deadline=None)
@given(grid_reps(max_atoms=6), levels)
def test_integer_sign_at_the_snap_candidates(h, level):
    for r in solve_level(h, level):
        for bound in (10, 10**3, 10**6, 10**9, 10**12):
            _check_sign(h, level, r.limit_denominator(bound))


def test_integer_sign_with_a_slope_and_no_atoms():
    h = HerglotzRep.of(F(1, 3), F(2), ScalarMeasure())
    sign = _level_sign(h, F(1))
    assert [sign(p, 3) for p in (0, 1, 2)] == [-1, 0, 1]


def test_a_constant_at_its_own_value_has_no_isolated_solution():
    # h - level vanishes identically: no sign is ever asked for
    assert solve_level(HerglotzRep.of(1), 1) == []
    assert solve_level(HerglotzRep.of(F(-2, 3)), F(-2, 3), (-1, 1)) == []


def test_sign_checks_compute_no_slope(monkeypatch):
    # The slope is read once per bracket, by the exact Newton step of
    # `_locate`; the sign checks evaluate the value alone.
    h = _seeded_rep(40, 40)
    level = _levels_for(40)[0]
    roots = solve_level(h, level)
    calls = []
    value_parts = HerglotzRep.value_parts

    def counted(self, p, q):
        calls.append((p, q))
        return value_parts(self, p, q)

    monkeypatch.setattr(HerglotzRep, "value_parts", counted)
    assert solve_level(h, level) == roots
    assert len(calls) <= len(roots)


# ---------------------------------------------------------------------------
# same Fractions as the reference
# ---------------------------------------------------------------------------


def _levels_for(seed: int):
    return (F(seed % 7 - 3, 3), _float_level(0.3 + seed % 5 * 0.55))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21])
def test_solve_level_matches_the_eval_real_bisection(n):
    for seed in (n, n + 1000):
        h = _seeded_rep(seed, n)
        for level in _levels_for(seed):
            got = solve_level(h, level)
            assert got == _reference_solve_level(h, level)
            assert all(isinstance(r, F) for r in got)


def test_a_root_at_zero_off_the_dyadic_points_is_exact():
    # h(0) = -1 + 2/2 = 0, and the bracket (-13/16, 29/16) never halves onto 0
    h = HerglotzRep.from_measure(ScalarMeasure.of(atoms=[(-1, 1), (2, 2)]))
    assert solve_level(h, 0) == _reference_solve_level(h, 0)
    assert F(0) in solve_level(h, 0)


def test_a_tiny_root_off_the_dyadic_points_has_a_relative_accuracy():
    # h(0) = -2^-1001 < 0, so the root lies just above 0; the bracket holds 0
    # once it is 2^-64 wide, and is cut there before it goes on
    h = HerglotzRep.from_measure(ScalarMeasure.of(atoms=[(-1, 1), (2, 2 - F(1, 2**1000))]))
    [root] = [r for r in solve_level(h, 0) if abs(r) < 1]
    assert root == [r for r in _reference_solve_level(h, 0) if abs(r) < 1][0]
    assert 0 < root < F(1, 2**999)
    sign = _level_sign(h, F(0))
    for x in (root * (1 - F(1, 2**60)), root * (1 + F(1, 2**60))):
        assert sign(x.numerator, x.denominator) == (-1 if x < root else 1)


@pytest.mark.parametrize("n, which", [(34, 0), (60, 1)])
def test_solve_level_matches_the_eval_real_bisection_on_large_systems(n, which):
    # The reference takes seconds here: one seed, one level each.
    h = _seeded_rep(n, n)
    level = _levels_for(n)[which]
    assert solve_level(h, level) == _reference_solve_level(h, level)


@pytest.mark.parametrize("n", [1, 2, 7, 20])
def test_atomic_rational_parts_match_the_product_construction(n):
    h = _seeded_rep(n, n)
    assert atomic_rational_parts(h) == _reference_rational_parts(h)


@settings(max_examples=60, deadline=None)
@given(grid_reps(max_atoms=12), rationals(-25, 25, den=60))
def test_atom_mass_at_matches_a_lookup(h, x):
    masses = dict(h.omega.atoms)
    assert h.omega.atom_mass_at(x) == masses.get(x, F(0))
    for t, w in h.omega.atoms:
        assert h.omega.atom_mass_at(t) == w


# ---------------------------------------------------------------------------
# integer value and derivative
# ---------------------------------------------------------------------------


def _check_value_parts(h, x, k):
    if x in h.omega.atom_positions():
        with pytest.raises(ValueError):
            h.value_parts(x.numerator, x.denominator)
        return
    num, den, dnum, dden = h.value_parts(k * x.numerator, k * x.denominator)
    assert den > 0 and dden > 0
    assert F(num, den) == h.eval_real(x)
    assert F(dnum, dden) == h.derivative_real(x)


@settings(max_examples=150, deadline=None)
@given(atomic_reps(max_atoms=8), rationals(-12, 12, den=97), st.integers(1, 6))
def test_value_parts_match_eval_real_and_derivative_real(h, x, k):
    # k > 1 hands over p/q in unreduced form
    _check_value_parts(h, x, k)


@settings(max_examples=60, deadline=None)
@given(grid_reps(), st.integers(1, 4))
def test_value_parts_at_the_roots_of_solve_level(h, k):
    # the large-denominator points the cross-check evaluates
    for r in solve_level(h, 0):
        _check_value_parts(h, r, k)


# ---------------------------------------------------------------------------
# float locate, integer certify
# ---------------------------------------------------------------------------


def _pair(shift=F(0), a=F(0)):
    """Atoms of mass 1 at shift - 1 and shift + 1 over the constant a; the
    function is a + 2 shift at x = shift."""
    atoms = [(shift - 1, F(1)), (shift + 1, F(1))]
    return HerglotzRep.of(a, 0, ScalarMeasure.of(atoms=atoms))


def _bisect_both_ways(h, level, lo, hi):
    """`_bisect_exact` on [lo, hi] without a guess, with the located
    guesses, and with float and exact guesses placed next to the root; all
    must agree."""
    sign = _level_sign(h, level)
    plain = _bisect_exact(sign, lo, hi)
    (located,) = _locate(h, level, [(lo, hi)])
    assert located
    got = [_bisect_exact(sign, lo, hi, located)]
    for dx in (0.0, 1e-17, -1e-17, 3e-16, -3e-16, 1e-9, -1e-9):
        for r in (located[-1][1], 1e-30):
            got.append(_bisect_exact(sign, lo, hi, [((float(plain) + dx).as_integer_ratio(), r)]))
    for dx in (F(0), F(1, 2**70), F(-1, 2**70), F(1, 3 * 2**60)):
        x = plain + dx
        got.append(_bisect_exact(sign, lo, hi, [((x.numerator, x.denominator), 1e-40)]))
    assert got == [plain] * len(got)
    return plain


@pytest.mark.parametrize("root", [F(0), F(1, 2), F(-1, 2), F(1, 4), F(-3, 8)])
def test_roots_on_dyadic_split_points_come_back_exact(root):
    # On [-1, 1] the split points are the dyadic rationals, and plain
    # stepping lands on these roots exactly; a guess next to one must not
    # jump past it.
    h = _pair(F(5))
    level = h.eval_real(root)
    assert _bisect_both_ways(h, level, F(-1), F(1)) == root
    assert solve_level(h, level) == _reference_solve_level(h, level)


@pytest.mark.parametrize("root", [F(1, 3), F(-2, 7), F(7, 10), F(123, 1000), F(22, 7 * 10**6)])
def test_roots_at_snap_candidates_come_back_exact(root):
    h = _pair(F(5))
    level = h.eval_real(root)
    assert _bisect_both_ways(h, level, F(-1), F(1)) == root
    assert solve_level(h, level) == _reference_solve_level(h, level)


# The snap candidates of one continued-fraction pass must be exactly the
# Fractions `limit_denominator` gives bound by bound, for any common factor.
SNAP_BOUNDS = (10, 10**3, 10**6, 10**9, 10**12)
snap_values = st.one_of(
    st.fractions(max_denominator=10**15),  # either sign
    st.integers(-10**20, 10**20).map(F),
    st.builds(F, st.integers(-10**13, 10**13), st.sampled_from(SNAP_BOUNDS)),
    st.builds(F, st.integers(-10**13, 10**13), st.integers(1, 10**12)),
    st.builds(F, st.integers(-2**80, 2**80), st.integers(60, 70).map(lambda k: 2**k)),
    st.builds(F, st.integers(-2**80, 2**80), st.integers(-4, 4).map(lambda k: 2**64 + k)),
)


def _limited(x):
    return [(c.numerator, c.denominator) for c in (x.limit_denominator(b) for b in SNAP_BOUNDS)]


@settings(max_examples=400, deadline=None)
@given(snap_values, st.integers(1, 2**40))
def test_snap_candidates_are_limit_denominator(x, factor):
    want = _limited(x)
    assert _snap_candidates(x.numerator, x.denominator) == want
    assert _snap_candidates(x.numerator * factor, x.denominator * factor) == want


@pytest.mark.parametrize("x", [F(0), F(-7), F(1, 10), F(-999999, 10**6), F(1, 10**12 + 1),
                               F(2**64 - 1, 2**64), F(-1, 2**64), F(355, 113),
                               F(19, 180), F(-19, 180)])  # ties: 1/9 and 1/10 are equally near
def test_snap_candidates_at_the_edges(x):
    assert _snap_candidates(x.numerator, x.denominator) == _limited(x)


@pytest.mark.parametrize("shift", [F(0), F(1, 2), F(-3, 4), F(1, 3)])
def test_a_zero_at_the_first_midpoint_comes_back_exact(shift):
    # The gap (shift - 1, shift + 1) is bracketed as shift -+ 7/8, whose
    # first midpoint is the zero itself.
    h = _pair(shift, a=-2 * shift)
    roots = solve_level(h, 0)
    assert shift in roots and roots == _reference_solve_level(h, 0)


def _guess_points(lo, hi, root):
    """Points for guesses at the root of [lo, hi]: on it, off it on either
    side, outside the bracket, and on a dyadic split of the bracket."""
    width = hi - lo
    return st.one_of(
        st.just(root),
        st.fractions(min_value=-1, max_value=2, max_denominator=10**6).map(
            lambda t: lo + width * t),
        st.builds(lambda e, k: root + F(e, 2**k), st.sampled_from([-1, 1]), st.integers(0, 90)),
        st.builds(lambda j, k: lo + width * F(j % 2**k, 2**k), st.integers(0, 2**30),
                  st.integers(0, 30)),
    )


guess_radii = st.one_of(
    st.sampled_from([0.0, 0, -1e-9, math.inf, math.nan]),
    st.floats(min_value=1e-300, max_value=4.0),
    st.builds(lambda k: F(1, 2**k), st.integers(1075, 1200)),  # below the doubles
)


@seed(0)
@settings(max_examples=100, deadline=None)
@given(grid_reps(), st.data())
def test_a_wrong_guess_falls_back_to_plain_stepping(h, data):
    # A bracket [lo, hi] of a gap (L, R) around x0, at the level h(x0) or
    # just off it: the root is x0 itself, which snapping returns, or one
    # that only the bracket's last midpoint gives.
    ts = h.omega.atom_positions()
    assume(len(ts) >= 2)
    i = data.draw(st.integers(0, len(ts) - 2))
    L, R = ts[i], ts[i + 1]
    u, v, w = (data.draw(st.fractions(min_value=F(1, 64), max_value=F(63, 64),
                                      max_denominator=10**4)) for _ in range(3))
    x0 = L + (R - L) * u
    lo, hi = L + (x0 - L) * v, R - (R - x0) * w
    shift = data.draw(st.sampled_from([F(0), F(1, 3 * 10**9), F(-1, 7 * 10**11)]))
    sign = _level_sign(h, h.eval_real(x0) + shift)
    assume(sign(lo.numerator, lo.denominator) < 0 < sign(hi.numerator, hi.denominator))
    plain = _bisect_exact(sign, lo, hi, (), (L, R))
    assert plain == x0 or shift
    guesses = data.draw(st.lists(
        st.tuples(_guess_points(lo, hi, plain).map(lambda x: (x.numerator, x.denominator)),
                  guess_radii), max_size=4))
    if data.draw(st.booleans()):
        # then a good guess, whose enclosure decides the steps: the root
        # lies within half its radius, 2^-k of the bracket's width
        radius = (hi - lo) / 2**data.draw(st.integers(1, 32))
        x = plain + radius * data.draw(st.fractions(-F(1, 2), F(1, 2), max_denominator=64))
        guesses.append(((x.numerator, x.denominator), float(radius)))
    assert _bisect_exact(sign, lo, hi, guesses, (L, R)) == plain


def test_located_guesses_save_most_sign_checks(monkeypatch):
    # 40 atoms: plain stepping spends about 64 checks per root in the
    # bisection alone; the enclosure's two confirming checks decide the rest.
    h = _seeded_rep(40, 40)
    level = _levels_for(40)[0]
    roots = solve_level(h, level)
    calls = []

    def counted(h, level):
        sign = _level_sign(h, level)

        def count(*args, **kwargs):
            calls.append(args)
            return sign(*args, **kwargs)

        return count

    monkeypatch.setattr(herglotz, "_level_sign", counted)
    assert solve_level(h, level) == roots
    assert len(calls) <= 2 * len(roots)


def test_a_root_at_the_upper_bracket_end_comes_back_exact():
    # The gap (0, 16) is bracketed from 0 + 1 upward and from 16 - 1
    # downward; the level is h(15), so the first upper candidate is the root.
    h = HerglotzRep.of(0, 0, ScalarMeasure.of(atoms=[(0, 1), (16, 1)]))
    level = h.eval_real(15)
    roots = solve_level(h, level)
    assert F(15) in roots and roots == _reference_solve_level(h, level)


def test_brackets_closer_to_a_pole_than_float_resolves_get_no_guess():
    # Atoms at 1 and 1 + 2^-60: in float the second lies on the first, so
    # neither bracket gets a guess and both roots come from plain stepping.
    h = HerglotzRep.of(0, 0, ScalarMeasure.of(atoms=[(1, 1), (1 + F(1, 2**60), 1)]))
    roots = solve_level(h, 0)
    assert len(roots) == 2 and roots[0] < 1 < roots[1] < 1 + F(1, 2**60)
    assert roots == _reference_solve_level(h, 0)
    ts = h.omega.atom_positions()
    d = (ts[1] - ts[0]) / 16
    assert _locate(h, F(0), [(ts[0] + d, ts[1] - d)]) == [[]]


def _sign_changes_within(h, level, x, delta) -> bool:
    """Whether h - level changes sign, exactly, between x - delta and x + delta."""
    sign = _level_sign(h, F(level))
    below, above = x - delta, x + delta
    return sign(below.numerator, below.denominator) < 0 < sign(above.numerator, above.denominator)


def test_a_root_next_to_a_tiny_atom_is_bracketed_and_resolved():
    # The root in the gap (0, 1) lies about 2^-1001 above the atom at 0, of
    # mass 2^-1000: its left bracket end is the candidate 4^-k / 16 with
    # k = 499, far past the first 200, and the bisection goes on past the
    # 2^-64 goal until the bracket is 2^-64 times its distance from the atom.
    h = HerglotzRep.of(0, 0, ScalarMeasure.of(atoms=[(0, F(1, 2**1000)), (1, 1)]))
    roots = [x for x in solve_level(h, -1) if 0 < x < 1]
    assert len(roots) == 1 and F(1, 2**1002) < roots[0] < F(1, 2**1000)
    assert _sign_changes_within(h, -1, roots[0], roots[0] / 2**60)


def test_a_gap_whose_root_lies_beyond_the_window_is_not_searched(monkeypatch):
    # h tends to 2^-1000 at +infinity, so its root in (1, infinity) lies near
    # 2^1002, beyond 2^199, the last of 200 doubling candidates.  Inside
    # (-3, 3) the sign at 3 shows the root to be beyond the window.
    h = HerglotzRep.of(0, 0, ScalarMeasure.of(atoms=[(-1, 1 + F(1, 2**1000)), (1, 1)]))
    roots = solve_level(h, 0)
    assert len(roots) == 2 and 2**1001 < roots[1] < 2**1003
    assert _sign_changes_within(h, 0, roots[0], F(1, 2**60))
    seen = []
    original = herglotz._level_sign

    def recording(h, level):
        sign = original(h, level)
        return lambda p, q: seen.append(abs(F(p, q))) or sign(p, q)

    monkeypatch.setattr(herglotz, "_level_sign", recording)
    assert solve_level(h, 0, (-3, 3)) == roots[:1]
    assert max(seen) == 3
    # Gaps that end before the window or start after it are skipped unseen.
    seen.clear()
    assert solve_level(h, 0, (-F(1, 2), F(1, 2))) == roots[:1]
    assert max(seen) < 1
    seen.clear()
    assert solve_level(h, 0, (-3, -2)) == [] and seen == []


# ---------------------------------------------------------------------------
# the sign decided in double first
# ---------------------------------------------------------------------------


def _points_near(h, level, x):
    """x, points within 2^-60 relative of it, of the roots and of the atoms,
    and points next to 0."""
    pts = [x, F(1, 2**60), -F(1, 2**60), F(1, 2**1000), -F(3, 2**1001)]
    for r in solve_level(h, level):
        pts += [r, r * (1 - F(1, 2**60)), r * (1 + F(1, 2**60))]
    for t, _ in h.omega.atoms:
        pts += [t * (1 - F(1, 2**60)), t * (1 + F(1, 2**60)), t + F(1, 2**60)]
    return pts


@settings(max_examples=80, deadline=None)
@given(grid_reps(), levels, rationals(-25, 25, den=60))
def test_filtered_sign_equals_the_integer_sign(h, level, x):
    sign = _level_sign(h, level)
    filtered = herglotz._filtered_sign(h, level, sign)
    for y in _points_near(h, level, x):
        p, q = y.numerator, y.denominator
        if y in h.omega.atom_positions():
            with pytest.raises(ValueError):
                filtered(p, q)
            continue
        assert filtered(p, q) == sign(p, q)
        assert filtered(5 * p, 5 * q) == sign(p, q)


def _counting(sign):
    calls = []

    def counted(p, q):
        calls.append((p, q))
        return sign(p, q)

    return counted, calls


def test_filtered_sign_decides_far_from_the_roots_and_defers_near_them():
    h = _seeded_rep(40, 40)
    level = F(1, 3)
    sign, calls = _counting(_level_sign(h, level))
    filtered = herglotz._filtered_sign(h, level, sign)
    ts = h.omega.atom_positions()
    far = ts[5] + (ts[6] - ts[5]) / 16
    assert filtered(far.numerator, far.denominator) == -1 and calls == []
    root = [r for r in solve_level(h, level) if ts[5] < r < ts[6]][0]
    near = root + abs(root) / 2**60
    assert filtered(near.numerator, near.denominator) == 1 and len(calls) == 1
    # at 0, beyond the doubles and next to an atom: the integers decide
    for y in (F(0), F(2**1100) + F(1, 3), -F(2**1100), ts[5] + F(1, 2**70)):
        calls.clear()
        assert filtered(y.numerator, y.denominator) == _level_sign(h, level)(y.numerator, y.denominator)
        assert len(calls) == 1


@pytest.mark.parametrize("atoms", [[(0, 1), (F(2**1100), 1)],          # a position beyond the doubles
                                   [(0, 1), (1, F(1, 2**1100))]])       # a mass below the normal range
def test_filtered_sign_without_rounded_terms_is_the_integer_sign(atoms):
    h = HerglotzRep.of(0, 0, ScalarMeasure.of(atoms=atoms))
    sign = _level_sign(h, F(0))
    assert herglotz._rounded_terms((h,), F(0)) is None
    assert herglotz._filtered_sign(h, F(0), sign) is sign
    assert _locate(h, F(0), [(F(1, 2), F(3, 4))]) == [[]]


# ---------------------------------------------------------------------------
# tiny roots next to 0
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("atoms, window", [
    ([(-1, 1 + F(1, 2**1000)), (1, 1)], (-3, 3)),   # a zero near 2^-1002, bracket across 0
    ([(0, F(1, 2**1000)), (1, 1)], (-1, 2)),        # a zero near 2^-1000 above a tiny atom
])
def test_a_tiny_root_takes_few_sign_checks_and_keeps_its_fraction(atoms, window, monkeypatch):
    # Both took over 1,000 sign checks, one halving at a time below 2^-64.
    h = HerglotzRep.of(0, 0, ScalarMeasure.of(atoms=atoms))
    calls = []

    def counted(h, level):
        sign, seen = _counting(_level_sign(h, level))
        calls.append(seen)
        return sign

    monkeypatch.setattr(herglotz, "_level_sign", counted)
    roots = solve_level(h, 0, window)
    assert len(roots) == 1 and 0 < roots[0] < F(1, 2**999)
    assert len(calls[0]) <= 100
    # Plain stepping, without guesses, reaches the same Fraction.
    monkeypatch.setattr(herglotz, "_locate", lambda h, level, brackets: [[]] * len(brackets))
    assert solve_level(h, 0, window) == roots
    assert len(calls[1]) > 1000


def test_leaving_zero_needs_a_guess_on_the_root_side():
    # h(x) = 2 x - 2 x0 has its zero x0 just off 0; the bracket (-1, 1)
    # halves onto 0 at once, and its end at 0 moves off at the step a
    # confirmed enclosure decides.  For x0 = +-4/5 2^-1000 the next step
    # moves the other end, so the stop rules must run at that very step.
    # A guess on the wrong side of 0, or at the power-of-two split beside
    # x0, fails its confirming check; one at x0 with a radius below the
    # doubles encloses it.  Each gives plain stepping's Fraction.
    for root in (F(1, 6 * 2**1000), F(4, 5 * 2**1000), -F(4, 5 * 2**1000)):
        h = HerglotzRep.of(-2 * root, 2, ScalarMeasure())
        sign = _level_sign(h, F(0))
        plain = _bisect_exact(sign, F(-1), F(1))
        assert abs(plain - root) < abs(root) / 2**60
        split = F(1, 2**1000) if root > 0 else -F(1, 2**1000)
        for x, radius in ((-root, F(1, 2**1100)), (split, F(1, 2**1010)), (root, F(1, 2**1100))):
            assert _bisect_exact(sign, F(-1), F(1), [((x.numerator, x.denominator), radius)]) == plain


def test_terms_that_overflow_with_both_signs_leave_the_sign_to_integers():
    # q_j = +-2^1600 round to +-infinity; their sum has no double value.
    h = HerglotzRep.of(0, 0, ScalarMeasure.of(atoms=[(-F(1, 2**600), 2**1000),
                                                     (F(1, 2**600), 2**1000)]))
    terms = herglotz._rounded_terms((h,), F(0))
    assert terms is not None and herglotz._float_parts(terms, 2.0**-700) is None
    sign = _level_sign(h, F(0))
    x = F(1, 2**700)
    assert herglotz._filtered_sign(h, F(0), sign)(x.numerator, x.denominator) == sign(
        x.numerator, x.denominator)
