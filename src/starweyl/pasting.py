"""Joining n scalar interface functions at one vertex.

The n inputs m_1..m_n (interface data of the individual edges) determine an
n x n matrix-valued Herglotz function M of the joined problem, through the
value-continuity + derivative-sum interface.  Everything downstream reads
local spectral data out of M: the matrix measure it represents, the density
omega of that measure against its own trace, and the rank of omega, which
counts spectral layers at a point.

Two computation routes coexist on purpose.  For purely atomic rational
data, residue matrices of M at a point come out in exact Fraction
arithmetic.  For black-box inputs the same objects are extrapolated from
Im M(x + i eps) / Im tr M(x + i eps) along the system's geometric eps
ladder (`PastedSystem.default_schedule`).  The entries alone pick the
route; the tests play the routes against each other by handing the same
functions over again as black-box callables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Tuple, Union

import numpy as np

from .errors import ConvergenceError, InternalInvariantError, PureRelationError
from .herglotz import (
    DEFAULT_SCHEDULE,
    HerglotzFunction,
    HerglotzRep,
    _NORMAL,
    _float_parts,
    _rounded_terms,
    point_mass,
    richardson,
)
from .measure import (
    NumberLike,
    ScalarMeasure,
    _saturated_float,
    as_fraction,
    check_keys,
    sum_measures,
)
from .schrodinger import EDGE_SCHEDULE, Edge

RANK_RTOL = 1e-8


# ---------------------------------------------------------------------------
# System container
# ---------------------------------------------------------------------------


def _normalize_entry(item):
    if isinstance(item, (HerglotzRep, HerglotzFunction, Edge)):
        return item
    if isinstance(item, ScalarMeasure):
        return HerglotzRep.from_measure(item)
    if callable(item):
        return HerglotzFunction(item)
    raise TypeError(f"cannot use {type(item).__name__} as interface data")


@dataclass(frozen=True, eq=False)
class PastedSystem:
    """n >= 2 interface functions joined at a single vertex.

    Entries may be exact representations, Schrodinger edges, or plain
    callables.  At most one entry may be a real constant (a degenerate
    relation in place of a function); with two or more the joined object
    stops being an operator, so that is rejected here.
    """

    entries: Tuple[object, ...]

    def __post_init__(self):
        if len(self.entries) < 2:
            raise ValueError("a pasting needs at least two entries")
        n_const = sum(
            1 for e in self.entries if isinstance(e, HerglotzRep) and e.is_constant
        )
        if n_const > 1:
            raise PureRelationError(
                f"{n_const} constant entries: at most one degenerate relation is allowed"
            )

    @classmethod
    def of(cls, items: Sequence) -> "PastedSystem":
        return cls(tuple(_normalize_entry(it) for it in items))

    @property
    def n(self) -> int:
        return len(self.entries)

    @cached_property
    def distinct_entries(self) -> Tuple[Tuple[object, ...], Tuple[int, ...]]:
        """(the distinct entries, the position among them of each entry).

        Equal edges (same length, pieces and outer angle) have the same m,
        so each is evaluated once.  Any other entry is keyed by identity:
        comparing measures would cost more than the tiny systems of
        `verify` could save.
        """
        slots: dict = {}
        distinct, index = [], []
        for e in self.entries:
            key = e if isinstance(e, Edge) else id(e)
            if key not in slots:
                slots[key] = len(distinct)
                distinct.append(e)
            index.append(slots[key])
        return tuple(distinct), tuple(index)

    def per_entry(self, fn) -> list:
        """[fn(e) for e in entries], calling fn once per distinct entry."""
        distinct, index = self.distinct_entries
        values = [fn(e) for e in distinct]
        return [values[k] for k in index]

    def entry_values(self, z) -> np.ndarray:
        """m_l(z) for every entry: shape (n,) at one z, and (len(z), n) for
        a 1-D numpy array of z, whose row k has the bits of the call at z[k].
        Each distinct entry is evaluated once."""
        if not isinstance(z, np.ndarray):
            return np.array(self.per_entry(lambda e: e.eval(z)), dtype=complex)
        zs = np.asarray(z, dtype=complex)
        return np.column_stack(self.per_entry(lambda e: e.eval_many(zs)))

    @property
    def reps(self) -> Union[Tuple[HerglotzRep, ...], None]:
        """The entries as exact representations, or None if any is not one."""
        if all(isinstance(e, HerglotzRep) for e in self.entries):
            return self.entries
        return None

    @property
    def is_exact_atomic(self) -> bool:
        reps = self.reps
        return reps is not None and all(r.omega.is_atomic for r in reps)

    @property
    def has_edges(self) -> bool:
        return any(isinstance(e, Edge) for e in self.entries)

    @cached_property
    def _float_terms(self):
        """The exact atomic entries' `herglotz._rounded_terms`, for the
        double filter of `_kirchhoff_zero`."""
        return _rounded_terms(self.reps, Fraction(0))

    def sum_rep(self) -> HerglotzRep:
        reps = self.reps
        if reps is None:
            raise ValueError("the summed representation needs all entries exact")
        a = sum((r.a for r in reps), Fraction(0))
        b = sum((r.b for r in reps), Fraction(0))
        return HerglotzRep(a, b, sum_measures(r.omega for r in reps))

    def default_schedule(self):
        """The eps ladder of the numeric route: `EDGE_SCHEDULE` when an entry
        is an edge, `DEFAULT_SCHEDULE` otherwise (`geometric_schedule`s)."""
        return EDGE_SCHEDULE if self.has_edges else DEFAULT_SCHEDULE

    def to_json(self) -> dict:
        if any(isinstance(e, HerglotzFunction) for e in self.entries):
            raise ValueError("black-box callables have no JSON form")
        return {"edges": [e.to_json() for e in self.entries],
                "interface": {"type": "standard"}}

    @classmethod
    def from_json(cls, obj: dict) -> "PastedSystem":
        check_keys(obj, "the system", ("edges",), ("interface",))
        items = []
        for spec in obj["edges"]:
            if "length" in spec:
                items.append(Edge.from_json(spec))
            elif "omega" in spec:
                items.append(HerglotzRep.from_json(spec))
            elif "atoms" in spec:
                items.append(ScalarMeasure.from_json(spec))
            else:
                raise ValueError(f"unrecognized edge spec with keys {sorted(spec)}")
        iface = obj.get("interface", {"type": "standard"})
        if isinstance(iface, dict) and iface.get("type") == "angles":
            # By design: the pasting is the standard interface condition.
            raise ValueError('interface angles are not supported; use {"type": "standard"}')
        kind = check_keys(iface, "the interface", ("type",))["type"]
        if kind != "standard":
            raise ValueError(f"unknown interface type {kind!r}")
        return cls.of(items)


# ---------------------------------------------------------------------------
# Interface matrix and matrix Weyl function
# ---------------------------------------------------------------------------


def interface_matrix(n: int) -> np.ndarray:
    """The 2n x 2n real matrix w coupling boundary values at the vertex.

    Block layout [[w11, w12], [w21, w22]]: the first n-1 rows of w11 take
    differences of neighbouring values (continuity), row n-1 of w12 sums
    the derivative-side entries (the flux condition), and the (n-1, n-1)
    entries of w21/w22 close the square.  w preserves the standard complex
    symplectic form J = [[0, I], [-I, 0]].
    """
    if n < 2:
        raise ValueError("the interface needs n >= 2")
    w11 = np.zeros((n, n))
    w12 = np.zeros((n, n))
    w21 = np.zeros((n, n))
    w22 = np.zeros((n, n))
    for l in range(n - 1):
        w11[l, l] = -1.0
        w11[l, n - 1] = 1.0
    w12[n - 1, :] = 1.0
    w21[n - 1, n - 1] = -1.0
    for l in range(n - 1):
        w22[l, l] = -1.0
    top = np.hstack([w11, w12])
    bot = np.hstack([w21, w22])
    return np.vstack([top, bot])


def symplectic_form(n: int) -> np.ndarray:
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.vstack([np.hstack([zero, eye]), np.hstack([-eye, zero])])


def _others(ms: np.ndarray) -> np.ndarray:
    """sum_{k != i} m_k for i < n - 1, per row of a (k, n) stack, from prefix
    and suffix sums added left to right; the prefix of i = 0 is +0.

    m - m_i would cancel next to a pole of entry i, where m_i is huge.
    """
    before = np.zeros((len(ms), ms.shape[1] - 1), dtype=complex)
    np.cumsum(ms[:, :-2], axis=1, out=before[:, 1:])
    after = np.cumsum(ms[:, :0:-1], axis=1)[:, ::-1]
    return before + after


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b elementwise as the scalar complex product computes it,
    (ar br - ai bi) + i (ar bi + ai br), each operation rounded on its
    own.  numpy's array product can differ from its scalar one in the last
    bit."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _stack_and_sums(ms: np.ndarray):
    """(the values as a (k, n) stack, each row's sum m), or ZeroDivisionError
    when some m vanishes.  A row sums as the 1-D array does alone."""
    rows = np.asarray(ms, dtype=complex).reshape(-1, np.shape(ms)[-1])
    m = rows.sum(axis=1)
    if (m == 0).any():
        raise ZeroDivisionError("sum of interface values vanishes")
    return rows, m


def matrix_weyl(sys: PastedSystem, z) -> np.ndarray:
    """The n x n matrix M(z) of the joined problem, entrywise from m_l(z).

    z may be a 1-D numpy array: the result then has shape (len(z), n, n), and
    M[k] has the bits of the call at z[k].  The entries are evaluated once
    for the whole array (`PastedSystem.entry_values`), so an edge with a
    potential takes one integration pass, and the matrices are built in one
    `matrix_from_values` pass over the stack of rows.
    """
    return matrix_from_values(sys.entry_values(z))


def matrix_from_values(ms: np.ndarray) -> np.ndarray:
    """M from the entry values m_1..m_n: (n, n) from one row, and (k, n, n)
    from a (k, n) stack of rows, in one array pass.

    With m = sum of all m_l: M_ij = -m_i m_j / m and M_ii = m_i (m - m_i)/m
    for i, j < n-1-indexed block, M_in = -m_i / m, M_nn = -1/m.  Off the
    real axis m cannot vanish (its imaginary part is a positive sum), so
    the division is safe; a row whose m is 0 raises ZeroDivisionError.
    m - m_i is summed from the other entries (`_others`).  Every entry has
    the bits of the scalar arithmetic on that row alone: the negation comes
    first, the products are `_product`'s, and numpy's array quotient is its
    scalar one.
    """
    rows, m = _stack_and_sums(ms)
    k, n = rows.shape
    neg = -rows[:, :-1]
    m_col = m[:, None]
    M = np.empty((k, n, n), dtype=complex)
    M[:, :-1, :-1] = _product(neg[:, :, None], rows[:, None, :-1]) / m[:, None, None]
    head = np.arange(n - 1)
    M[:, head, head] = _product(rows[:, :-1], _others(rows)) / m_col
    M[:, :-1, -1] = M[:, -1, :-1] = neg / m_col
    M[:, -1, -1] = -1.0 / m
    return M if np.ndim(ms) == 2 else M[0]


def trace_weyl(sys: PastedSystem, z):
    """tr M(z), summed from the entry values like `matrix_weyl`.

    z may be a 1-D numpy array: the result is then a complex array whose entry k
    has the bits of the call at z[k], from one `trace_from_values` pass.
    """
    return trace_from_values(sys.entry_values(z))


def trace_from_values(ms: np.ndarray):
    """tr M from the entry values m_1..m_n: a complex from one row, and a
    complex array from a (k, n) stack, in one array pass.

    tr M = (sum_i m_i (m - m_i)) / m - 1/m over i < n - 1, the sum added
    left to right from 0 and the quotients numpy's, as the scalar arithmetic
    on one row computes it, so every value keeps those bits.
    """
    rows, m = _stack_and_sums(ms)
    total = np.zeros(len(rows), dtype=complex)
    for column in _product(rows[:, :-1], _others(rows)).T:
        total = total + column
    tr = total / m - 1.0 / m
    return tr if np.ndim(ms) == 2 else complex(tr[0])


# ---------------------------------------------------------------------------
# Omega samples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PsdReport:
    min_eigenvalue: float
    hermitian_defect: float
    tolerance: float


@dataclass(frozen=True, eq=False)
class OmegaMatrix:
    """One pointwise sample of the density of the matrix measure against
    its trace: Hermitian, positive semidefinite, trace 1 on the spectrum.

    ``exact`` marks the Fraction-arithmetic route; ``exact_entries`` then
    holds the unrounded values.  ``trace_vanishing`` marks points where the
    trace measure carries nothing, in which case the sample is zero and the
    rank is 0 by convention.
    """

    matrix: np.ndarray
    rank: int
    exact: bool
    converged: bool
    trace_vanishing: bool
    psd_tolerance_report: PsdReport
    exact_entries: Union[Tuple[Tuple[Fraction, ...], ...], None] = None


def _finalize_omega(mat: np.ndarray, converged: bool, trace_vanishing: bool,
                    exact_entries=None, exact_rank=None, err: float = 0.0) -> OmegaMatrix:
    mat = np.asarray(mat, dtype=complex)
    herm_defect = float(np.linalg.norm(mat - mat.conj().T))
    mat = (mat + mat.conj().T) / 2.0
    n = mat.shape[0]
    eigvals, eigvecs = np.linalg.eigh(mat)
    min_eig = float(eigvals.min()) if n else 0.0
    tol = max(n * float(np.abs(eigvals).max(initial=0.0)) * RANK_RTOL, 1e-300)
    clipped = np.clip(eigvals, 0.0, None)
    projected = (eigvecs * clipped) @ eigvecs.conj().T
    projected = (projected + projected.conj().T) / 2.0
    if exact_rank is not None:
        rank = exact_rank
    else:
        counted = clipped > tol
        rank = int(counted.sum())
        # A counted eigenvalue within the error estimate of `mat` may be 0.
        converged = converged and not (clipped[counted] <= err).any()
    return OmegaMatrix(
        matrix=projected,
        rank=rank,
        exact=exact_rank is not None,
        converged=converged,
        trace_vanishing=trace_vanishing,
        psd_tolerance_report=PsdReport(min_eig, herm_defect, tol),
        exact_entries=exact_entries,
    )


def _residue_at_atom(reps: Sequence[HerglotzRep], x: Fraction):
    """(head, block) at an atom position x, or None if no input has one.

    Each input with an atom at x contributes rho_l = w_l (1 + x^2).  In the
    entry formulas the pole of m cancels all rows/columns except the block
    of carrying inputs among the first n-1 (``head``), where the residue
    is diag(rho) - rho rho^T / total, total the sum over all carriers.
    ``block`` is total times that, md_matrix(rho_head, total).  Its rank,
    carriers - 1 by the rank lemma, is left to elimination; one single
    carrier leaves a zero block.
    """
    masses = [r.omega.atom_mass_at(x) for r in reps]
    if not any(masses):
        return None
    rhos = [w * (1 + x * x) for w in masses]
    total = sum(rhos, Fraction(0))
    head = [l for l, rho in enumerate(rhos[:-1]) if rho > 0]
    return head, md_matrix([rhos[l] for l in head], total)


def _kirchhoff_zero(sys: PastedSystem, x: Fraction) -> bool:
    """Whether the summed function vanishes at x, a Kirchhoff zero.

    The residue there is v v^T / h' with v = (m_1(x), ..., m_{n-1}(x), 1).
    Requires no input to have an atom at x.  Bisection-produced zeros carry
    a position error of ~2^-64 |x|, so "vanish" tolerates
    |sum| <= h' |x| / 2^40, which is relative near 0 as well.

    The test is decided in double first (`_float_vanishing`) and otherwise
    in integers: every value and derivative is then an unreduced integer
    fraction (`HerglotzRep.value_parts`).  Both give the same answer
    wherever double decides.
    """
    decided = _float_vanishing(sys, x)
    if decided is not None:
        return decided
    p, q = x.numerator, x.denominator
    parts = [r.value_parts(p, q) for r in sys.reps]
    # total = S / B and h' = Dn / Dd over the products of the denominators.
    S, B, Dn, Dd = 0, 1, 0, 1
    for num, den, dnum, dden in parts:
        S, B = S * den + num * B, B * den
        Dn, Dd = Dn * dden + dnum * Dd, Dd * dden
    # Dn <= 0 only for a constant system, which cannot be pasted anyway.
    return Dn > 0 and abs(S) * 2**40 * Dd * q <= B * Dn * abs(p)


def _float_vanishing(sys: PastedSystem, x: Fraction):
    """`_kirchhoff_zero`'s answer where double settles it, else None.

    `herglotz._float_parts` gives the sum S and slope S' of the inputs at
    x with bounds E and E' on their errors, the rounding of x to double
    included.  With X = |fl(x)|, the integer test holds for certain when
    (|S| + E) 2^40 <= (S' - E') X, and fails for certain when
    (|S| - E) 2^40 > (S' + E') X: |S(x)| and h' |x| lie within those
    bounds.  Each side is evaluated in double with at most four roundings,
    a relative 2^-50 with that of x, which the factor 1 - 2^-48 covers as
    long as (S' - E') X is normal (at least 2^-1000 here).  Undecided (None):
    x = 0, below the normal range or beyond the doubles, a bound that
    straddles, an input whose terms do not round (`herglotz._rounded_terms`),
    an atom too close to x.  The terms of all inputs go in one pass
    (`PastedSystem._float_terms`).
    """
    terms = sys._float_terms
    if terms is None:
        return None
    xf = _saturated_float(x.numerator, x.denominator)
    if not _NORMAL <= abs(xf) < math.inf:
        return None
    parts = _float_parts(terms, xf)
    if parts is None:
        return None
    value, slope, err, slope_err = parts
    low = (slope - slope_err) * abs(xf)
    if not low >= 2.0**-1000:
        return None
    if (abs(value) + err) * 2.0**40 <= low * (1.0 - 2.0**-48):
        return True
    if (abs(value) - err) * 2.0**40 * (1.0 - 2.0**-48) > (slope + slope_err) * abs(xf):
        return False
    return None


def omega_at(sys: PastedSystem, x: NumberLike) -> OmegaMatrix:
    """Sample of Im M / Im tr M in the limit onto the real point x.

    The entries pick the route, as for `multiplicity_at`: exact residue
    arithmetic when every entry is a purely atomic representation, the
    extrapolated eps-limit otherwise.
    Points the trace measure does not charge come back flagged
    ``trace_vanishing`` with a zero matrix; numerically that is the
    `point_mass` verdict on eps * Im tr M.  The numeric ladder is the
    system's `default_schedule` (the floor's rung and the eight extrapolated),
    read in one `matrix_weyl` call on x + i eps with the bits of one per eps.
    """
    n = sys.n
    if sys.is_exact_atomic:
        xf = as_fraction(x)
        hit = _residue_at_atom(sys.reps, xf)
        if hit is not None:
            head, block = hit
            tr = sum((block[i][i] for i in range(len(head))), Fraction(0))
            if tr != 0:
                omega = [[Fraction(0)] * n for _ in range(n)]
                for i, row in zip(head, block):
                    for j, v in zip(head, row):
                        omega[i][j] = v / tr
                omega = tuple(tuple(row) for row in omega)
                mat = np.array([[float(v) for v in row] for row in omega])
                return _finalize_omega(mat, True, False, exact_entries=omega,
                                       exact_rank=exact_rank(block))
            # single carrier: the joined measure has no atom here at all
        elif _kirchhoff_zero(sys, xf):
            return rank_one_limit_matrix([r.eval_real(xf) for r in sys.reps[:-1]])
        return _finalize_omega(np.zeros((n, n)), True, True, exact_rank=0)

    schedule = sys.default_schedule()
    eps = np.array(schedule)
    Ms = matrix_weyl(sys, float(x) + 1j * eps)
    T = np.trace(Ms, axis1=1, axis2=2).imag
    bad = np.flatnonzero(T <= 0)
    if bad.size:
        raise ConvergenceError(
            f"Im tr M not positive at eps={schedule[bad[0]]}; cannot form the ratio"
        )
    ratios = Ms.imag / T[:, None, None]
    # eps * Im tr M extrapolates to the trace weight of the point: positive
    # exactly at atoms, zero at regular and purely continuous points.
    weight, settled = point_mass(schedule, (eps * T).tolist())
    if weight == 0.0:
        return _finalize_omega(np.zeros((n, n)), settled, True)
    limit, err = richardson(schedule, ratios)
    converged = settled and err <= max(1e-6, 1e-4 * float(np.linalg.norm(limit)))
    return _finalize_omega(limit, converged, False, err=err)


def multiplicity_at(sys: PastedSystem, x: NumberLike) -> int:
    """Number of spectral layers at x: the rank of the omega sample there.

    The route is `omega_at`'s: exact when every entry is a purely atomic
    representation.  On the exact route, at an atom that is the rank
    of the residue block of M, found by elimination on integers without
    forming the normalized sample.  Off the atoms the residue is v v^T / h' with last entry of v
    equal to 1, so the rank is 1 by construction where the summed function
    vanishes and 0 elsewhere: the vanishing test decides.
    """
    if sys.is_exact_atomic:
        xf = as_fraction(x)
        hit = _residue_at_atom(sys.reps, xf)
        if hit is not None:
            return exact_rank(hit[1])
        return int(_kirchhoff_zero(sys, xf))
    om = omega_at(sys, x)
    if not om.converged:
        raise ConvergenceError(f"omega sample at x={x} did not converge")
    return om.rank


# ---------------------------------------------------------------------------
# Rank formulas
# ---------------------------------------------------------------------------


def _exact_pair(b: Sequence[NumberLike], d: NumberLike):
    """b and d as they are when all are ints, else all as Fractions."""
    bs = list(b)
    if type(d) is int and all(type(v) is int for v in bs):
        return bs, d
    return [as_fraction(v) for v in bs], as_fraction(d)


def md_matrix(b: Sequence[NumberLike], d: NumberLike):
    """The matrix d * diag(b) - b b^T, in ints when b and d are all ints and
    as exact Fractions otherwise."""
    bs, df = _exact_pair(b, d)
    n = len(bs)
    out = [[-bs[i] * bs[j] for j in range(n)] for i in range(n)]
    for i in range(n):
        out[i][i] += df * bs[i]
    return out


def exact_rank(rows) -> int:
    """Rank by fraction-free (Bareiss) elimination, without thresholds.

    A row of ints is taken as it is; any other row is scaled to integers by
    the common denominator of its entries.  Every entry below the pivots is
    then a minor of the scaled matrix, so the division by the previous
    pivot is exact and no gcd runs.
    """
    m = []
    for row in rows:
        row = list(row)
        if not all(type(v) is int for v in row):
            row = [as_fraction(v) for v in row]
            scale = math.lcm(*(v.denominator for v in row))
            row = [v.numerator * (scale // v.denominator) for v in row]
        m.append(row)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank, prev = 0, 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        pv = top[col]
        for r in range(rank + 1, nrows):
            f = m[r][col]
            m[r] = [(pv * v - f * t) // prev for v, t in zip(m[r], top)]
        prev = pv
        rank += 1
        if rank == nrows:
            break
    return rank


def rank_md(b: Sequence[NumberLike], d: NumberLike) -> int:
    """Exact rank of d*diag(b) - b b^T: n-1 when d equals sum(b), else n.

    Both the closed-form branch and plain elimination are computed; they
    must agree, which guards the formula against editing accidents.  Ints
    stay ints throughout; any other input is read as Fractions.
    """
    bs, df = _exact_pair(b, d)
    if any(v == 0 for v in bs):
        raise ValueError("all b entries must be nonzero")
    if df == 0:
        raise ValueError("d must be nonzero")
    n = len(bs)
    predicted = n - 1 if df == sum(bs) else n
    computed = exact_rank(md_matrix(bs, df))
    if computed != predicted:
        raise InternalInvariantError(
            f"rank mismatch for b={bs}, d={df}: formula {predicted}, elimination {computed}"
        )
    return computed


def rank_one_limit_matrix(m_values: Sequence[NumberLike]) -> OmegaMatrix:
    """The omega sample at a zero of the summed function, from the finite
    real limits of the first n-1 inputs: the normalized Gram matrix of
    (m_1, ..., m_{n-1}, 1).  Rank one by construction.
    """
    vals = [as_fraction(v) for v in m_values]
    v = vals + [Fraction(1)]
    norm = sum((u * u for u in v), Fraction(0))
    omega = tuple(tuple(v[i] * v[j] / norm for j in range(len(v))) for i in range(len(v)))
    mat = np.array([[float(c) for c in row] for row in omega])
    return _finalize_omega(mat, True, False, exact_entries=omega, exact_rank=1)

