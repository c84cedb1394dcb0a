"""Spectral reports for pasted systems: eigenvalues with layer counts,
region classification, and independent cross-checks.

The report distinguishes three kinds of spectrum on a window.  Point
spectrum comes from two mechanisms: positions where at least two inputs
carry an atom (layer count = carriers - 1), and zeros of the summed
interface function on pole-free gaps (always simple).  Absolutely
continuous regions carry as many layers as there are inputs with positive
density.  Singular locations carried by exactly one input disappear from
the joined spectrum entirely; the report lists them separately so their
absence is visible rather than silent.  One grouping of the entries' poles
counts the carriers for both routes and for the classification.

A finite-difference discretization of the star provides an oracle that
knows nothing about any of the above and is compared against it in tests.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple, Union

import numpy as np

from .errors import ConvergenceError, InternalInvariantError
from .herglotz import (
    HerglotzRep,
    atomic_rational_parts,
    cos_sin,
    poly_gcd_degree,
    solve_level,
)
from .measure import (
    Piece,
    Poly,
    ScalarMeasure,
    as_fraction,
    number_from_json,
    number_to_json,
)
from .pasting import PastedSystem, multiplicity_at
from .schrodinger import Edge, brentq

OVERLAP = "overlap"
KIRCHHOFF = "kirchhoff-zero"
# Fewest points per edge `fd_oracle` discretizes with.
ORACLE_MIN_GRID = 100


@dataclass(frozen=True)
class Eigenvalue:
    x: Union[Fraction, float]
    multiplicity: int
    provenance: str

    def __post_init__(self):
        if self.provenance not in (OVERLAP, KIRCHHOFF):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.multiplicity < 1:
            raise ValueError("listed eigenvalues must have multiplicity >= 1")
        if self.provenance == KIRCHHOFF and self.multiplicity != 1:
            raise ValueError("zeros of the summed function are always simple")


@dataclass(frozen=True)
class AcRegion:
    lo: Union[Fraction, float]
    hi: Union[Fraction, float]
    r: int


@dataclass(frozen=True)
class SingularItem:
    x: Union[Fraction, float]
    multiplicity: int


@dataclass(frozen=True)
class SpectralReport:
    window: Tuple[Union[Fraction, float], Union[Fraction, float]]
    eigenvalues: Tuple[Eigenvalue, ...] = ()
    ac_regions: Tuple[AcRegion, ...] = ()
    sac_items: Tuple[SingularItem, ...] = ()
    ss_items: Tuple[SingularItem, ...] = ()
    vanished: Tuple[Union[Fraction, float], ...] = ()
    notes: Tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "window": [number_to_json(as_fraction(v)) for v in self.window],
            "eigenvalues": [
                {
                    "x": number_to_json(as_fraction(e.x)),
                    "multiplicity": e.multiplicity,
                    "provenance": e.provenance,
                }
                for e in self.eigenvalues
            ],
            "ac_regions": [
                {
                    "interval": [number_to_json(as_fraction(r.lo)),
                                 number_to_json(as_fraction(r.hi))],
                    "r": r.r,
                }
                for r in self.ac_regions
            ],
            "sac_items": [
                {"x": number_to_json(as_fraction(s.x)), "multiplicity": s.multiplicity}
                for s in self.sac_items
            ],
            "ss_items": [
                {"x": number_to_json(as_fraction(s.x)), "multiplicity": s.multiplicity}
                for s in self.ss_items
            ],
            "vanished": [number_to_json(as_fraction(v)) for v in self.vanished],
            "notes": list(self.notes),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SpectralReport":
        return cls(
            window=tuple(number_from_json(v) for v in obj["window"]),
            eigenvalues=tuple(
                Eigenvalue(number_from_json(e["x"]), int(e["multiplicity"]), e["provenance"])
                for e in obj["eigenvalues"]
            ),
            ac_regions=tuple(
                AcRegion(number_from_json(r["interval"][0]),
                         number_from_json(r["interval"][1]), int(r["r"]))
                for r in obj["ac_regions"]
            ),
            sac_items=tuple(
                SingularItem(number_from_json(s["x"]), int(s["multiplicity"]))
                for s in obj["sac_items"]
            ),
            ss_items=tuple(
                SingularItem(number_from_json(s["x"]), int(s["multiplicity"]))
                for s in obj["ss_items"]
            ),
            vanished=tuple(number_from_json(v) for v in obj["vanished"]),
            notes=tuple(obj.get("notes", ())),
        )

    def csv_rows(self):
        """Rows (x, N, provenance) for the eigenvalue table."""
        for e in self.eigenvalues:
            yield (float(e.x), e.multiplicity, e.provenance)


# ---------------------------------------------------------------------------
# Point spectrum
# ---------------------------------------------------------------------------


def _pole_groups(poles: Sequence[Sequence], exact: bool) -> list:
    """(position, carriers) per distinct position of ``poles``, one list
    per entry, in increasing order; carriers counts the entries with a
    pole there.  Exact positions group when equal.  On the numeric route
    every position is a float, and one within 1e-9 (1 + |x|) of the
    previous joins its group, which sits at the mean of its positions."""
    at: dict = {}
    for l, xs in enumerate(poles):
        for x in xs:
            at.setdefault(x if exact else float(x), []).append(l)
    groups: list = []
    for x in sorted(at):
        if exact or not groups or x - groups[-1][0][-1] > 1e-9 * (1 + abs(x)):
            groups.append(([], set()))
        groups[-1][0].extend([x] * len(at[x]))
        groups[-1][1].update(at[x])
    return [(xs[0] if exact else sum(xs) / len(xs), len(ls)) for xs, ls in groups]


def _real_sum_value(sys: PastedSystem, x: float) -> float:
    """The sum of the entries' real values at x, each distinct entry
    evaluated once.  The terms are added one by one in entry order (`sum`
    compensates from Python 3.12 on, which would change the bits)."""
    total = 0.0
    for v in sys.per_entry(lambda e: float(e.eval_real(x))):
        total += v
    return total


def _real_sum_values(sys: PastedSystem, xs: list) -> list:
    """`_real_sum_value` at each x of the list, with its bits: each distinct
    edge evaluates the whole list in one `Edge.eval_real_many` call, any
    other entry one `eval_real` per x, and the terms are added in entry
    order."""
    def values(e) -> list:
        if isinstance(e, Edge):
            return e.eval_real_many(xs)
        return [e.eval_real(x) for x in xs]

    totals = [0.0] * len(xs)
    for column in sys.per_entry(values):
        totals = [t + float(v) for t, v in zip(totals, column)]
    return totals


def _gap_end_values(sys: PastedSystem, gaps: list) -> list:
    """(f(aa), f(bb)) of the summed function for each gap (a, b, aa, bb),
    every end in one `_real_sum_values` batch.  Where the batch cannot be
    evaluated the gaps go one batch each, so that the ConvergenceError
    names the first gap whose ends fail."""
    try:
        values = _real_sum_values(sys, [x for _, _, aa, bb in gaps for x in (aa, bb)])
    except (ValueError, ZeroDivisionError) as exc:
        if len(gaps) > 1:
            return [v for gap in gaps for v in _gap_end_values(sys, [gap])]
        a, b, _, _ = gaps[0]
        raise ConvergenceError(
            f"summed function not evaluable at the ends of the gap ({a}, {b}): {exc}"
        ) from exc
    return list(zip(values[::2], values[1::2]))


def unsearched_intervals(sys: PastedSystem, window) -> list:
    """The parts of the window inside a density interval of some entry,
    merged and in increasing order, as floats.

    The summed function is not real-analytic across a density, so the
    numeric route of `find_point_spectrum` searches no zero there.
    """
    lo, hi = float(window[0]), float(window[1])
    parts: list = []
    for a, b in sorted((float(a), float(b)) for e in sys.entries
                       for a, b in e.density_intervals()):
        a, b = max(a, lo), min(b, hi)
        if a >= b:
            continue
        if parts and a <= parts[-1][1]:
            parts[-1] = (parts[-1][0], max(parts[-1][1], b))
        else:
            parts.append((a, b))
    return parts


def _density_free_parts(a: float, b: float, blocked) -> list:
    """The parts of the gap (a, b) outside every interval of ``blocked``,
    which is sorted (`unsearched_intervals`); a gap meeting none is returned
    whole.
    """
    parts = []
    for blo, bhi in blocked:
        if bhi <= a or b <= blo:
            continue
        if a < blo:
            parts.append((a, blo))
        a = max(a, bhi)
    if a < b:
        parts.append((a, b))
    return parts


def _check_window(window) -> None:
    if not as_fraction(window[0]) < as_fraction(window[1]):
        raise ValueError("window must have positive length")


def find_point_spectrum(sys: PastedSystem, window, skipped: list | None = None) -> list:
    """All eigenvalues of the pasted problem in the window.

    Both routes group the entries' poles in the window (`_pole_groups`);
    k >= 2 carriers give an overlap eigenvalue with k - 1 layers.  The exact
    route (purely atomic representations) adds the zeros of the summed
    function, one per pole-free gap (`solve_level`).  The numeric route
    brackets sign changes on the gaps between the same groups, outside the
    density pieces (`unsearched_intervals`), with the ends of every gap
    evaluated in one batch; a gap whose ends the summed function cannot be
    evaluated at raises ConvergenceError instead of being skipped.  The
    density intervals it does not search are appended to ``skipped`` when
    a list is given.

    On both routes each reported point is re-derived once as a rank by
    `multiplicity_at`, which takes the same route: the residue block's rank
    or the vanishing test of the sum when exact, one `omega_at` ladder
    otherwise.  A point without mass has rank 0, and a rank that differs
    from the counted layers raises InternalInvariantError, a numeric sample
    that does not converge ConvergenceError, and a window without lo < hi
    ValueError, before any work.
    """
    _check_window(window)
    poles = sys.per_entry(lambda e: e.poles(window))
    return _points(sys, window, _pole_groups(poles, sys.is_exact_atomic), skipped)


def _points(sys: PastedSystem, window, groups: list, skipped: list | None = None) -> list:
    """`find_point_spectrum` from the `_pole_groups` of the entries' poles."""
    results = [Eigenvalue(x, k - 1, OVERLAP) for x, k in groups if k >= 2]
    if sys.is_exact_atomic:
        results += [Eigenvalue(u, 1, KIRCHHOFF) for u in solve_level(sys.sum_rep(), 0, window)]
    else:
        lo, hi = float(window[0]), float(window[1])
        blocked = unsearched_intervals(sys, window)
        if skipped is not None:
            skipped.extend(blocked)
        gap_bounds = [lo] + [x for x, _ in groups] + [hi]
        parts = [part for a, b in zip(gap_bounds, gap_bounds[1:])
                 for part in _density_free_parts(a, b, blocked)]
        # each gap with its ends moved 1e-7 of its width inwards
        gaps = [(a, b, a + 1e-7 * (b - a), b - 1e-7 * (b - a))
                for a, b in parts if b - a > 1e-9 * (1 + abs(a))]
        ends = _gap_end_values(sys, gaps) if gaps else []
        for (a, b, aa, bb), (va, vb) in zip(gaps, ends):
            if va <= 0 < vb:  # brentq returns aa itself where va is 0
                u = brentq(lambda t: _real_sum_value(sys, t), aa, bb, fa=va, fb=vb)
                results.append(Eigenvalue(float(u), 1, KIRCHHOFF))

    for e in results:
        got = multiplicity_at(sys, e.x)
        if got != e.multiplicity:
            raise InternalInvariantError(
                f"layer count at {e.x}: counted {e.multiplicity}, rank gave {got}"
            )
    return sorted(results, key=lambda e: e.x)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def classify_spectrum(sys: PastedSystem, window) -> SpectralReport:
    """Region-and-point report for a system of measure-backed entries.

    ac_regions: maximal intervals where at least one density is positive,
    labelled with the number of positive densities r (the layer count
    there).  sac_items: shared atoms (carriers - 1 layers).  vanished:
    atoms carried by exactly one input, absent from the joined spectrum.
    ss_items: simple eigenvalues off the combined support, found through
    the summed interface function when the inputs are purely atomic.
    The entries' poles are grouped once (`_pole_groups`), and a purely atomic
    system takes its points from that grouping as `find_point_spectrum` does.
    An entry that is not a representation raises ValueError.
    """
    if sys.reps is None:
        raise ValueError("classification needs measure-backed entries")
    _check_window(window)
    lo, hi = as_fraction(window[0]), as_fraction(window[1])
    measures = [r.omega for r in sys.reps]

    cuts = {lo, hi}
    for m in measures:
        for p in m.pieces:
            if p.hi <= lo or hi <= p.lo:
                continue
            cuts.add(max(p.lo, lo))
            cuts.add(min(p.hi, hi))
    cuts = sorted(cuts)
    regions: list[AcRegion] = []
    for a, b in zip(cuts, cuts[1:]):
        r = 0
        for m in measures:
            if any(p.lo <= a and b <= p.hi for p in m.pieces):
                r += 1
        if r == 0:
            continue
        if regions and regions[-1].hi == a and regions[-1].r == r:
            regions[-1] = AcRegion(regions[-1].lo, b, r)
        else:
            regions.append(AcRegion(a, b, r))

    groups = _pole_groups(sys.per_entry(lambda e: e.poles((lo, hi))), True)
    if sys.is_exact_atomic:
        points, notes = _points(sys, (lo, hi), groups), ()
    else:
        points = [Eigenvalue(x, k - 1, OVERLAP) for x, k in groups if k >= 2]
        notes = ("off-support simple spectrum not scanned: density pieces present",)

    return SpectralReport(
        window=(lo, hi),
        eigenvalues=tuple(points),
        ac_regions=tuple(regions),
        sac_items=tuple(SingularItem(e.x, e.multiplicity) for e in points
                        if e.provenance == OVERLAP),
        ss_items=tuple(SingularItem(e.x, 1) for e in points if e.provenance == KIRCHHOFF),
        vanished=tuple(x for x, k in groups if k == 1),
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FdOracleResult:
    items: Tuple[Tuple[float, int], ...]
    coarse: bool
    h_max: float
    count_below_lo: int
    count_below_hi: int


def _nodal_potential(edge: Edge, grid: int) -> np.ndarray:
    """`Edge.q_at` at the nodes j * (L / grid), j = 0..grid, bit for bit.

    As there, a node takes the first piece that holds it (the left one at a
    shared breakpoint); each piece's Horner sum runs over all its nodes.
    """
    q = np.zeros(grid + 1)
    if edge.potential is None:
        return q
    nodes = np.arange(grid + 1) * (float(edge.length) / grid)
    xs = nodes.tolist()  # floats, which compare exactly with Fraction bounds
    start = 0
    for piece in edge.potential:
        i = max(start, bisect_left(xs, piece.lo))
        k = bisect_right(xs, piece.hi)
        if i < k:
            q[i:k] = piece.poly(nodes[i:k])
            start = k
    return q


def _fd_pencil(edges: Sequence[Edge], potentials: Sequence[np.ndarray]):
    """The oracle's pencil (A, B) in tree form, from the edges and their
    `_nodal_potential` arrays.

    The vertex is one unknown; edge l, with step h = L_l / grid, adds its
    nodes j = 1..m_l: m_l = grid, or grid - 1 on a Dirichlet edge.  Each edge
    adds its tridiagonal forms as arrays: stiffness 2/h on the diagonal (1/h
    at the outer node), -1/h off it, lumped mass h (h/2 at the outer node),
    the nodal potential times the mass on the diagonal, and c/s at the
    outer node for the outer angle with cos c and sin s.  The vertex sums
    1/h, mass h/2 and its potential term over the edges.

    The tree form is ((a_0, b_0), chains): the vertex's diagonals of A and
    B, and per edge the diagonals of A and B and the squared coupling of
    each node to its inner neighbour (the vertex for node 1), all ordered
    from the outer node inward.  The lumped mass B is diagonal, so the
    symmetric C = B^{-1/2} A B^{-1/2}, which has the pencil's eigenvalues,
    is read from it: diagonal a / b, and coupling squared / (b_i b_j)
    between neighbours i and j.  `_count_below` and `eigsh` read this form.
    """
    grid = len(potentials[0]) - 1
    steps = [float(e.length) / grid for e in edges]
    vertex_w = sum(h / 2.0 for h in steps)
    vertex_k = 0.0
    chains = []
    for e, qs, h in zip(edges, potentials, steps):
        c, s = cos_sin(float(e.outer_angle))
        outer = s != 0.0  # Dirichlet eliminates the outer node j = grid
        m = grid if outer else grid - 1
        w, k = np.full(m, h), np.full(m, 2.0 / h)
        if outer:
            w[-1], k[-1] = h / 2.0, 1.0 / h
        d = k + qs[1:m + 1] * w
        if outer:
            d[-1] += c / s
        off = -1.0 / h
        chains.append((d[::-1].copy(), w[::-1].copy(), [off * off] * m))
        vertex_k = vertex_k + 1.0 / h + qs[0] * (h / 2.0)
    return (float(vertex_k), vertex_w), chains


def _count_below(tree, lam: float) -> int:
    """Number of eigenvalues of the pencil below lam: Sylvester's inertia.

    An LDL^T factorization of A - lam B that eliminates every chain from
    its outer node inward and the vertex last has no fill-in; the count of
    its negative pivots is the count (Barth, Martin & Wilkinson's bisection
    count, carried from a path to a star).  A pivot that is exactly zero is
    replaced by a tiny negative one, as LAPACK's bisection does: a
    perturbation far below the rounding error of A - lam B.
    """
    (a0, b0), chains = tree
    below = 0
    vertex = a0 - lam * b0
    for a, b, coupling in chains:
        t = 0.0
        for d, c in zip((a - lam * b).tolist(), coupling):
            p = d - t or -1e-300
            if p < 0.0:
                below += 1
            t = c / p
        vertex -= t
    return below + (vertex < 0.0)


def _secular_zero(secular, a: float, b: float, pole_a: bool, pole_b: bool) -> float:
    """The one zero on (a, b) of the decreasing vertex function s, which is
    positive just above a and negative just below b.

    The sign of s at every point moves one end of the bracket.  Newton
    steps run on g = s (x - a)(b - x), with the factor of an end only where
    that end is a pole: there s is unbounded and g is smooth.  A step is
    taken from the newest point, or else from the other end of the
    bracket, whichever lands inside it; each overshoots by half the
    tolerance, so that a converged step lands across the zero and closes
    the bracket.  Without such a step, or once three evaluations have not
    halved the bracket, the next point is its midpoint.  Returns a point
    where s is exactly 0, or else the midpoint of a bracket of relative
    width at most 2^-33 or with no double inside (a zero at 0 has no
    relative width to reach).
    """
    def newton(x, s, ds):
        u = x - a if pole_a else 1.0
        v = b - x if pole_b else 1.0
        step = -s * u * v / (ds * u * v + s * (v * pole_a - u * pole_b))
        return x + step + math.copysign(0.5 * tol, step)

    bracket = [a, b]
    points: dict = {}  # the newest evaluation on each side of the zero
    x, halved, stalls = 0.5 * (a + b), b - a, 0
    while True:
        s, ds = secular(x)
        if s == 0.0:
            return x
        side = s < 0.0
        bracket[side], points[side] = x, (x, s, ds)
        left, right = bracket
        tol = 2.0 ** -33 * max(abs(left), abs(right))
        x = 0.5 * (left + right)
        if right - left <= tol or not left < x < right:
            return x
        if right - left <= 0.5 * halved:
            halved, stalls = right - left, 0
        else:
            stalls += 1
        for point in (points[side], points.get(not side)) if stalls < 3 else ():
            if point and left < (step := newton(*point)) < right:
                x = step
                break


def eigsh(tree, lo: float, hi: float) -> np.ndarray:
    """The pencil's eigenvalues in the window (lo, hi], sorted, each as
    often as its multiplicity, from `_fd_pencil`'s tree form.

    The discrete star is a pasting of its chains at the vertex.  With T_l
    the block of C on chain l and c_l its coupling to the vertex, an
    eigenvalue off the poles (the eigenvalues of the T_l) is a zero of the
    vertex Schur complement s(x) = C_00 - x - sum_l c_l^2 [(T_l - x)^-1]_11,
    the secular equation of a bordered matrix (Golub, SIAM Rev. 15, 1973).
    Each T_l is tridiagonal with nonzero couplings, so every pole weighs on
    s and s decreases from +inf to -inf between neighbouring poles: one
    zero in each gap, one in the window's first part when s(lo) > 0 and one
    in its last when s(hi) < 0.  A pole shared by r equal chains is an
    eigenvalue of multiplicity r - 1, its eigenvectors the differences of
    the chains' modes.

    Equal chains are solved once.  The poles come from LAPACK's bisection
    (`eigvalsh_tridiagonal`), and each zero from `_secular_zero`, with one
    tridiagonal solve (T_l - x) y = e_1 per distinct chain giving s from
    y_1 and s' = -1 - sum_l c_l^2 |y|^2.  scipy is loaded at the first
    call, so that no other task loads it.  A LAPACK failure, in the
    bisection or in a solve, raises `numpy.linalg.LinAlgError`.
    """
    from scipy.linalg import eigvalsh_tridiagonal
    from scipy.linalg.lapack import dgtsv

    (a0, b0), chains = tree
    groups: dict = {}  # equal chains and their count
    for chain in chains:
        a, b, squared = chain
        groups.setdefault((a.tobytes(), b.tobytes(), tuple(squared)), [chain, 0])[1] += 1
    blocks, poles = [], Counter()
    for (a, b, squared), r in groups.values():
        # sqrt(x * x) is |x| in binary floating point, so these are C's
        # entries A_ij / sqrt(w_i w_j) with the bits of the assembly
        coupling = np.sqrt(squared) / np.sqrt(b * np.append(b[1:], b0))
        diag, off = a / b, coupling[:-1]
        # the chain runs from the outer node inward: node 1 is the last
        end = np.zeros((len(a), 1))
        end[-1] = 1.0
        blocks.append((diag, off, end, r * float(coupling[-1]) ** 2))
        for x in eigvalsh_tridiagonal(diag, off, select="v", select_range=(lo, hi)).tolist():
            poles[x] += r

    def secular(x: float):
        s, ds = a0 / b0 - x, -1.0
        for diag, off, end, weight in blocks:
            *_, y, info = dgtsv(off, diag - x, off, end, overwrite_d=1)
            if info:
                raise np.linalg.LinAlgError(
                    f"dgtsv at x={x!r}: " + (f"pivot {info} is exactly singular" if info > 0
                                             else f"illegal value in argument {-info}"))
            y = y[:, 0]
            s -= weight * float(y[-1])
            ds -= weight * float(y @ y)
        return s, ds

    values = [x for x, r in poles.items() for _ in range(r - 1)]
    ends = [lo, *sorted(poles), hi]
    first, last = secular(lo)[0] > 0.0, secular(hi)[0] < 0.0
    for i, (a, b) in enumerate(zip(ends, ends[1:])):
        if (i > 0 or first) and (i < len(ends) - 2 or last):
            values.append(_secular_zero(secular, a, b, i > 0, i < len(ends) - 2))
    return np.sort(values)


def fd_oracle(edges: Sequence[Edge], window, grid: int) -> FdOracleResult:
    """Star spectrum from a direct discretization, single shared vertex DOF.

    Piecewise-linear elements with a lumped mass matrix on each edge (see
    `_fd_pencil`); the shared value at the vertex enforces continuity,
    assembling the forms enforces the derivative-sum condition, and the
    outer condition enters as elimination (Dirichlet) or a boundary term.

    Sylvester inertia counts of A - lam B (`_count_below`) size and certify
    the eigensolve.  need = count(hi) - count(lo) is the number of
    eigenvalues in the window; none means no eigensolve.  Otherwise `eigsh`
    solves the window by the star's own decomposition: the chains' poles,
    and the zeros of the vertex function between them.  The eigenvalues are
    clustered into multiplicity groups; clusters closer than ten times the
    discretization error raise the ``coarse`` flag.

    A LAPACK failure in the eigensolve raises `ConvergenceError`.
    Every return is certified: the eigensolve's count equals count(hi) -
    count(lo), and each cluster's multiplicity equals the count difference
    across it, taken at the midpoints of the gaps around it.
    A window without lo < hi raises ValueError before any work, and
    `ConvergenceError` is raised when a check fails.
    """
    _check_window(window)
    if grid < ORACLE_MIN_GRID:
        raise ValueError(f"the oracle needs at least {ORACLE_MIN_GRID} points per edge")
    if any(e.is_infinite for e in edges):
        raise ValueError("the discretization oracle needs finite edges")

    lo, hi = float(window[0]), float(window[1])
    tree = _fd_pencil(edges, [_nodal_potential(e, grid) for e in edges])
    h_max = max(float(e.length) / grid for e in edges)
    below_lo, below_hi = _count_below(tree, lo), _count_below(tree, hi)
    need = below_hi - below_lo
    if need == 0:
        return FdOracleResult(items=(), coarse=False, h_max=h_max,
                              count_below_lo=below_lo, count_below_hi=below_hi)

    try:
        inside = eigsh(tree, lo, hi).tolist()
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"the eigensolve of the window ({lo!r}, {hi!r}) for {need} eigenvalues "
            f"failed: {exc}") from exc
    if len(inside) != need:
        raise ConvergenceError(
            f"the eigensolve found {len(inside)} eigenvalues in the window, "
            f"the inertia count {need}")
    clusters: list[list[float]] = []
    for v in inside:
        if clusters and v - clusters[-1][-1] < 1e-6 * (1 + abs(v)):
            clusters[-1].append(v)
        else:
            clusters.append([v])
    items = tuple((sum(c) / len(c), len(c)) for c in clusters)

    gaps = [(c[-1] + d[0]) / 2.0 for c, d in zip(clusters, clusters[1:])]
    counts = [below_lo, *(_count_below(tree, x) for x in gaps), below_hi]
    for (x, k), below, above in zip(items, counts, counts[1:]):
        if above - below != k:
            raise ConvergenceError(
                f"the cluster at {x!r} holds {k} eigenvalues, the inertia count {above - below}")

    coarse = False
    for (x1, _), (x2, _) in zip(items, items[1:]):
        est = max(x1 * x1, x2 * x2, 1.0) * h_max * h_max / 12.0
        if x2 - x1 < 10.0 * est:
            coarse = True
    return FdOracleResult(items=items, coarse=coarse, h_max=h_max,
                          count_below_lo=below_lo, count_below_hi=below_hi)


# ---------------------------------------------------------------------------
# Verification harnesses
# ---------------------------------------------------------------------------


def verify_kac(sys: PastedSystem, window) -> Tuple[bool, dict]:
    """For a two-entry system, every point-spectrum layer count must be 1."""
    if sys.n != 2:
        raise ValueError("this check is about two-entry systems")
    eigs = find_point_spectrum(sys, window)
    violations = [
        {"x": float(e.x), "multiplicity": e.multiplicity}
        for e in eigs
        if e.multiplicity != 1
    ]
    report = {
        "checked": len(eigs),
        "violations": violations,
    }
    return (not violations), report


def aronszajn_donoghue_check(m: HerglotzRep, alpha1: float, alpha2: float) -> bool:
    """Certified disjointness of the pole sets of two re-anchorings of m.

    Writes the purely atomic m as P/Q and forms the numerators
    R = sin(alpha) P + cos(alpha) Q whose roots are the transformed poles.
    The two root sets are disjoint exactly when gcd(R1, R2) is constant,
    which is decided in rational arithmetic with no tolerance anywhere.
    """
    if not m.omega.is_atomic:
        raise ValueError("the exact certificate needs purely atomic data")
    if alpha1 == alpha2:
        raise ValueError("angles must differ")
    P, Q = atomic_rational_parts(m)
    numerators = []
    for alpha in (alpha1, alpha2):
        c, s = cos_sin(float(alpha))
        cf, sf = as_fraction(c), as_fraction(s)
        numerators.append(P.scaled(sf) + Q.scaled(cf))
    R1, R2 = numerators
    if R1.is_zero or R2.is_zero:
        raise ValueError("degenerate transform: numerator vanished identically")
    return poly_gcd_degree(R1, R2) == 0


# ---------------------------------------------------------------------------
# The worked four-measure example
# ---------------------------------------------------------------------------


def _unit_grid(offset: Fraction, count: int) -> list:
    """count atoms in (0,1) at odd multiples of 1/(2 count), plus an offset."""
    return [(Fraction(2 * i - 1, 2 * count) + offset, Fraction(1, count))
            for i in range(1, count + 1)]


def _shifted(atoms, shifts) -> ScalarMeasure:
    out = []
    for s in shifts:
        out.extend((x + s, w) for x, w in atoms)
    return ScalarMeasure.of(atoms=out)


def build_example_k74():
    """Four measures on [0, 8] whose joined spectrum shows every multiplicity jump.

    Two mutually singular families of unit atom grids, six atoms per unit,
    stand in for the singular parts; integer shifts place copies on the
    intervals encoded in each measure.  All four share one smooth density
    supported on [4.5, 8], so the absolutely continuous layer count is the
    full 4 there.  Expected singular layer counts by region:
    (2,3) -> 1, (3,4) -> 2, (4,5) -> 1, (5,6) -> 1, (6,7) -> 3.
    """
    k = 6
    lam1 = _unit_grid(Fraction(0), k)
    lam2 = _unit_grid(Fraction(1, 4 * k), k)
    density = _power_density(Fraction(9, 2), Fraction(8))

    mu1 = (
        _shifted(lam1, range(2, 3))
        + _shifted(lam1, range(4, 5))
        + _shifted(lam2, range(3, 4))
        + _shifted(lam2, range(6, 7))
        + density
    )
    mu2 = _shifted(lam1, range(2, 6)) + _shifted(lam2, range(6, 7)) + density
    mu3 = _shifted(lam2, range(0, 7)) + density
    mu4 = (
        _shifted(lam1, range(0, 1))
        + _shifted(lam1, range(7, 8))
        + _shifted(lam2, range(3, 8))
        + density
    )
    return mu1, mu2, mu3, mu4


def _power_density(lo: Fraction, hi: Fraction) -> ScalarMeasure:
    """Quadratic fit of (2/(3 pi)) x^(3/2) on [lo, hi] as a density piece.

    The exact power is not a polynomial, so the class cannot hold it; a
    three-point quadratic interpolant keeps the qualitative shape (layer
    counting only cares that the density is positive on the interval).
    """
    def f(x: float) -> float:
        return 2.0 / (3.0 * math.pi) * x ** 1.5

    x0, x2 = float(lo), float(hi)
    x1 = (x0 + x2) / 2.0
    ys = [f(x0), f(x1), f(x2)]
    # Lagrange basis expanded through exact arithmetic on the float nodes.
    xs = [as_fraction(x0), as_fraction(x1), as_fraction(x2)]
    poly = Poly(())
    for i in range(3):
        basis = Poly((1,))
        denom = Fraction(1)
        for j in range(3):
            if j == i:
                continue
            basis = basis * Poly((-xs[j], 1))
            denom *= xs[i] - xs[j]
        poly = poly + basis.scaled(as_fraction(ys[i]) / denom)
    return ScalarMeasure.of(pieces=[Piece(lo, hi, poly)])
