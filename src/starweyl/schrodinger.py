"""Weyl functions of one-dimensional Schrodinger operators on a single edge.

An edge is the interval [0, L] (or a free half-line), parametrized so that
x = 0 is the interface vertex.  The outer endpoint carries the boundary
condition u(L) cos(beta) + u'(L) sin(beta) = 0.  The interface data of the
edge is summarized by m(z) = u'(0)/u(0) for the solution obeying the outer
condition; that normalization is fixed here once and used everywhere
downstream.

Free edges are evaluated in closed form: infinite ones give i sqrt(z) with
the square root taken in the upper half-plane, finite ones the
trigonometric ratio in `_free_values`.  Edges with a potential are
integrated from the outer endpoint by products of cell transfer matrices
(`solve_edge`): the constant-perturbation idea of Ixaru and of MATSLISE in
the fourth-order Magnus form of Iserles and Norsett, exact on segments
where q is constant, with Richardson steps between n, 2n and 4n cells.  It
takes an array of z in one pass, which the pole scan and `weyl_m` on an
array of z use.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Tuple, Union

import numpy as np

from .errors import ConvergenceError
from .herglotz import cos_sin, geometric_schedule
from .measure import Poly, as_fraction, check_keys, number_from_json, number_to_json

# The eps ladder for limits onto the real axis through edges.  The transfer
# matrices return (u, u') once the estimated error of their sixth-order value
# is below 1e-12 relative (`_TRANSFER_RTOL`), rounding adds about as much,
# and near a pole |m| ~ 1/eps, so eps below ~1e-6 only amplifies that error:
# start at 1e-2.  Free edges (closed form, accurate to rounding) use the same
# ladder: 1e-2 and 1e-2 * 2**-k for k = 5..12.
EDGE_SCHEDULE = geometric_schedule(1e-2, 13)


# The stopping tolerances of `brentq`, and its iteration cap (scipy's default).
_BRENT_XTOL = 1e-13
_BRENT_RTOL = 8.9e-16
_BRENT_MAXITER = 100


def brentq(f, a, b, *, fa: float, fb: float) -> float:
    """A zero of f in [a, b], given fa = f(a) and fb = f(b) of opposite signs.

    Brent's method (R. P. Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4) as scipy's `brentq.c` runs it: the same
    iteration, the same stop once half the bracket is below
    (xtol + rtol |x|)/2, and the same cap of 100 iterations, so the root
    has the bits of `scipy.optimize.brentq(f, a, b, xtol=_BRENT_XTOL,
    rtol=_BRENT_RTOL)`.  The ends are not evaluated again.  Same-sign ends
    raise ValueError; a NaN value or a run that reaches the cap raises
    ConvergenceError.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = fa, fb
    if math.isnan(fpre) or math.isnan(fcur):
        raise ConvergenceError(f"the bracketed function is NaN at an end of [{a}, {b}]")
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError(f"f({a}) and f({b}) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic interpolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # an underflowed slope: C gets inf or NaN and bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if math.isnan(fcur):
            raise ConvergenceError(f"the bracketed function is NaN at x = {xcur!r}")
    raise ConvergenceError(
        f"Brent's method did not settle in {_BRENT_MAXITER} iterations on [{a}, {b}]")


@dataclass(frozen=True)
class PotentialPiece:
    """Polynomial potential values on [lo, hi] (may be negative)."""

    lo: Fraction
    hi: Fraction
    poly: Poly

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise ValueError(f"potential piece needs lo < hi, got [{self.lo}, {self.hi}]")

    def to_json(self) -> dict:
        return {
            "interval": [number_to_json(self.lo), number_to_json(self.hi)],
            "coeffs": [number_to_json(c) for c in self.poly.coeffs],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PotentialPiece":
        check_keys(obj, "a potential piece", ("interval", "coeffs"))
        lo, hi = (number_from_json(v) for v in obj["interval"])
        return cls(lo, hi, Poly([number_from_json(c) for c in obj["coeffs"]]))


@dataclass(frozen=True)
class Edge:
    """One edge of a star: length, potential, and the outer condition.

    ``length`` is a positive Fraction, or None for an infinite edge.
    ``potential`` is a tuple of PotentialPiece (zero where uncovered), or
    None for the free potential.  ``outer_angle`` beta in [0, pi) encodes
    u(L) cos(beta) + u'(L) sin(beta) = 0 and exists only for finite edges;
    beta = 0 is Dirichlet, beta = pi/2 Neumann.  Infinite edges must be
    free: that is the only case with a usable closed form, and truncating
    a genuine half-line problem would silently change its spectrum.
    """

    length: Union[Fraction, None]
    potential: Union[Tuple[PotentialPiece, ...], None] = None
    outer_angle: Union[float, None] = 0.0

    def __post_init__(self):
        if self.length is None:
            if self.potential is not None:
                raise ValueError("infinite edges support only the free potential")
            if self.outer_angle is not None:
                raise ValueError("infinite edges carry no outer boundary condition")
            return
        if not isinstance(self.length, Fraction):
            raise TypeError("length must be a Fraction or None; use Edge.of")
        if self.length <= 0:
            raise ValueError(f"edge length must be positive, got {self.length}")
        if float(self.length) == 0.0:
            raise ValueError("edge length is positive but rounds to 0.0 as a float")
        if self.outer_angle is None:
            raise ValueError("finite edges need an outer angle in [0, pi)")
        if not (0.0 <= self.outer_angle < math.pi):
            raise ValueError(f"outer angle must lie in [0, pi), got {self.outer_angle}")
        if self.potential is not None:
            prev = Fraction(0)
            for piece in self.potential:
                if piece.lo < prev:
                    raise ValueError("potential pieces overlap or stick out at 0")
                prev = piece.hi
            if prev > self.length:
                raise ValueError("potential pieces stick out past the edge length")

    @classmethod
    def of(cls, length, potential="free", outer_angle: float = 0.0) -> "Edge":
        if length == "inf" or length is None or length == math.inf:
            return cls(None, None, None)
        pieces: Union[Tuple[PotentialPiece, ...], None]
        if potential == "free" or potential is None:
            pieces = None
        else:
            norm = []
            for item in potential:
                if isinstance(item, PotentialPiece):
                    norm.append(item)
                else:
                    (lo, hi), coeffs = item
                    norm.append(PotentialPiece(as_fraction(lo), as_fraction(hi), Poly(coeffs)))
            norm.sort(key=lambda p: p.lo)
            pieces = tuple(norm)
        return cls(as_fraction(length), pieces, float(outer_angle))

    @property
    def is_infinite(self) -> bool:
        return self.length is None

    # The entry protocol of HerglotzRep and HerglotzFunction.  `weyl_m` and
    # `dirichlet_eigenvalues` are read as module globals at each call, so a
    # wrapper installed on them also sees these calls.

    def eval(self, z: complex) -> complex:
        return weyl_m(self, z)

    __call__ = eval

    def eval_many(self, zs: np.ndarray) -> np.ndarray:
        """`weyl_m` on a 1-D array of z: one integration pass with a potential."""
        return weyl_m(self, zs)

    def eval_real(self, x: float) -> float:
        return float(weyl_m(self, x).real)

    def eval_real_many(self, xs: list) -> list:
        """`eval_real` at each x of a list, with its bits: one `weyl_m` array pass."""
        return weyl_m(self, np.array(xs, dtype=float)).real.tolist()

    def poles(self, window) -> list:
        """The poles of m in the window: the decoupled eigenvalues."""
        return dirichlet_eigenvalues(self, window)

    def density_intervals(self) -> tuple:
        return ()

    def q_at(self, x: float) -> float:
        if self.potential is None:
            return 0.0
        for piece in self.potential:
            if piece.lo <= x <= piece.hi:
                return float(piece.poly(float(x)))
        return 0.0

    @cached_property
    def _outer_constants(self) -> Tuple[float, float, float]:
        """(c, s, L) of a finite edge: `cos_sin` of the outer angle and the
        length as a float, computed once for every z the edge meets."""
        c, s = cos_sin(float(self.outer_angle))
        return c, s, float(self.length)

    @cached_property
    def _cells_cache(self) -> dict:
        """(x0, x1, n) -> the integrator's cells; see `_cells`."""
        return {}

    def _breakpoints(self) -> list:
        if self.potential is None:
            return []
        pts = set()
        for piece in self.potential:
            pts.add(float(piece.lo))
            pts.add(float(piece.hi))
        return sorted(pts)

    def to_json(self) -> dict:
        if self.is_infinite:
            return {"length": "inf", "potential": "free"}
        pot = "free" if self.potential is None else {
            "pieces": [p.to_json() for p in self.potential]
        }
        return {
            "length": number_to_json(self.length),
            "potential": pot,
            "outer_angle": self.outer_angle,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Edge":
        check_keys(obj, "an edge", ("length",), ("potential", "outer_angle"))
        length = obj["length"]
        pot = obj.get("potential", "free")
        if length == "inf":
            if pot not in ("free", None) or "outer_angle" in obj:
                raise ValueError("an infinite edge takes no potential and no outer_angle")
            return cls(None, None, None)
        if pot == "free" or pot is None:
            pieces = "free"
        else:
            check_keys(pot, "a potential", ("pieces",))
            pieces = [PotentialPiece.from_json(p) for p in pot["pieces"]]
        angle = obj.get("outer_angle", 0.0)
        # `true` and "0.5" are not angles; the range test is exact for any int
        is_number = isinstance(angle, (int, float)) and not isinstance(angle, bool)
        if not (is_number and 0 <= angle < math.pi):
            raise ValueError(f"outer_angle must be a JSON number in [0, pi), got {angle!r}")
        return cls.of(number_from_json(length), pieces, float(angle))


@dataclass(frozen=True)
class Solution:
    """Value and derivative of a solution at one point, for one z or an array of z.

    `u` and `du` are inf where the solution outgrows the float range.
    `scaled` is the same pair where both are finite, and the pair divided by
    a power of two for each z where they are not.
    """

    u: complex
    du: complex
    scaled: Tuple = field(repr=False, compare=False)


def _unscaled(v: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """2**exponent v, exact, and inf past the float range."""
    with np.errstate(over="ignore"):
        if not np.iscomplexobj(v):
            return np.ldexp(v, exponent)
        out = np.empty_like(v)
        out.real, out.imag = np.ldexp(v.real, exponent), np.ldexp(v.imag, exponent)
        return out


def _segments(x0: float, x1: float, breaks: Sequence[float]) -> list:
    """Split [x0, x1] (either orientation) at the listed interior points."""
    pts = [b for b in breaks if min(x0, x1) < b < max(x0, x1)]
    pts.sort(reverse=x1 < x0)
    nodes = [x0] + pts + [x1]
    return list(zip(nodes, nodes[1:]))


def _segment_coeffs(edge: Edge, mid: float) -> Tuple[float, ...]:
    """Float coefficients of q, highest degree first, on the segment holding mid.

    The piece is chosen once per segment, at an interior point: at a shared
    breakpoint `Edge.q_at` returns whichever piece comes first, which is the
    wrong one for the segment on the other side.
    """
    for piece in edge.potential or ():
        if piece.lo <= mid <= piece.hi:
            return tuple(float(c) for c in reversed(piece.poly.coeffs))
    return ()


# The cell step is the fourth-order Magnus step with the potential sampled at
# the two Gauss points of the cell (Iserles & Norsett 1999).  With w = q - z
# at those points and h the signed cell width it is exp of
#     Omega = [[d, h], [h wbar, -d]],  wbar = (w1 + w2)/2,  d = sqrt(3)/12 h^2 (w1 - w2),
# and since Omega^2 = mu^2 I with mu^2 = d^2 + h^2 wbar,
#     exp Omega = cosh(mu) I + (sinh(mu)/mu) Omega.
_GAUSS = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
_COMMUTATOR = math.sqrt(3.0) / 12.0
# Cells per polynomial segment at the first level, and the most a level may
# start from.  A level at n builds the chains of n, 2n and 4n cells, so the
# longest chain holds 2^14 cells per segment: q = 60 x^2 on [0, 3] settles at
# n = 256 or 512 at z = 600, and at the cap a pass on three such segments
# peaks near 50 MB.
_CELLS_FIRST = 16
_CELLS_MAX = 1 << 12
# Bound on the estimated error of the result, relative to |u| + |u'|.
_TRANSFER_RTOL = 1e-12
# A cell with Re mu above this is computed divided by 2**k, k = (Re mu - 20)/ln 2
# rounded down: cosh and sinh of mu - k ln 2 equal 2**-k cosh mu and
# 2**-k sinh mu to a relative e**-40.
_SCALED_RE_MU = 20.0
_LN2 = math.log(2.0)
# Cell matrices (all slots) times z per array pass; more z than that are
# split over several passes.
_LEAF_BUDGET = 3 << 16


@dataclass(frozen=True)
class _Cells:
    """The cells of [x0, x1] in the order of integration, with seven slots each.

    Slot 0 is the cell itself, slots 1-2 its halves and slots 3-6 its
    quarters, so one pass gives the n-, 2n- and 4n-cell products.  A segment
    where q is constant is one exact cell in every chain: its halves are the
    cell itself and an empty cell, which steps by the identity, and its
    quarters the cell and three empty ones.  Arrays have shape (7, cells, 1).
    """

    h: np.ndarray
    hq: np.ndarray  # h qbar, so that h wbar = hq - h z
    d: np.ndarray
    hh: np.ndarray  # h^2
    c0: np.ndarray  # d^2 + h^2 qbar, so that mu^2 = c0 - h^2 z
    refined: bool  # some segment is split, so the three chains differ


def _cells(edge: Edge, x0: float, x1: float, n: int) -> _Cells:
    """The cells of [x0, x1] at n cells per segment where q is not constant.

    The Gauss-point values of q depend on the edge and n alone, so every z
    shares them: they are kept on the edge.
    """
    key = (x0, x1, n)
    cache = edge._cells_cache
    if key not in cache:
        cache[key] = _cut_cells(edge, x0, x1, n)
    return cache[key]


# (offset, width) of each slot within a cell, in units of the cell width
_SLOTS = ((0.0, 1.0), (0.0, 0.5), (0.5, 0.5),
          (0.0, 0.25), (0.25, 0.25), (0.5, 0.25), (0.75, 0.25))


def _cut_cells(edge: Edge, x0: float, x1: float, n: int) -> _Cells:
    widths, q = [[] for _ in _SLOTS], [[] for _ in _SLOTS]
    refined = False
    for a, b in _segments(x0, x1, edge._breakpoints()):
        coeffs = _segment_coeffs(edge, 0.5 * (a + b))
        if len(coeffs) <= 1:
            q0 = coeffs[0] if coeffs else 0.0
            for slot, (offset, _) in enumerate(_SLOTS):
                widths[slot].append(np.array([0.0 if offset else b - a]))
                q[slot].append(np.full((1, 2), q0))
            continue
        refined = True
        h = (b - a) / n
        left = a + h * np.arange(n)
        for slot, (offset, width) in enumerate(_SLOTS):
            xs = (left + offset * h)[:, None] + (width * h) * _GAUSS
            qs = np.zeros_like(xs)
            for c in coeffs:
                qs = qs * xs + c
            widths[slot].append(np.full(n, width * h))
            q[slot].append(qs)
    h = np.array([np.concatenate(w) for w in widths])[:, :, None]
    qs = np.array([np.concatenate(v) for v in q])
    qbar = (0.5 * (qs[..., 0] + qs[..., 1]))[:, :, None]
    d = _COMMUTATOR * h * h * (qs[..., 0] - qs[..., 1])[:, :, None]
    hh = h * h
    cells = _Cells(h, h * qbar, d, hh, d * d + hh * qbar, refined)
    for arr in (cells.h, cells.hq, cells.d, cells.hh, cells.c0):
        arr.setflags(write=False)
    return cells


def _mul(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X @ Y for stacks of 2x2 matrices with the matrix axes first."""
    return X[:, :1] * Y[:1] + X[:, 1:] * Y[1:]


def _normalized(T: np.ndarray):
    """Each matrix of the stack divided by 2**e, its entries then below 1 in
    modulus, and the exponents e; exact in floating point."""
    _, e = np.frexp(np.abs(T).max(axis=(0, 1)))
    return T * np.ldexp(1.0, -e), e


def _leaves(cells: _Cells, z: np.ndarray):
    """The cell matrices, shape (2, 2, 7, cells, len(z)), each divided by 2**E
    (E is 0 when no cell is scaled)."""
    mu = np.sqrt(cells.c0 - cells.hh * z)
    re, im, E = mu.real, mu.imag, 0
    if re.max() > _SCALED_RE_MU:
        E = ((np.maximum(re, _SCALED_RE_MU) - _SCALED_RE_MU) / _LN2).astype(np.int64)
        re = re - E * _LN2
    # cosh and sinh of re + i im, from real functions
    ca, sa, cb, sb = np.cosh(re), np.sinh(re), np.cos(im), np.sin(im)
    ch, sh = np.empty_like(mu), np.empty_like(mu)
    np.multiply(ca, cb, out=ch.real)
    np.multiply(sa, sb, out=ch.imag)
    np.multiply(sa, cb, out=sh.real)
    np.multiply(ca, sb, out=sh.imag)
    if mu.all():
        sh /= mu
    else:  # sinh(mu)/mu is 1 at mu = 0
        sh = np.divide(sh, mu, out=np.ones_like(mu), where=mu != 0)
    shd = sh * cells.d
    T = np.array([[ch + shd, sh * cells.h], [sh * (cells.hq - cells.h * z), ch - shd]])
    return T, E


def _cell_products(cells: _Cells, zs: np.ndarray):
    """Transfer matrices over all cells, at n, 2n and 4n cells per segment.

    Returns T of shape (2, 2, 3, len(zs)) (row, column, n, 2n or 4n, z) and
    the exponent E of shape (3, len(zs)); the transfer matrix is 2**E T.
    Dividing a matrix by a power of two is exact, so it changes no value;
    it is done to the leaves and then before every third level of products,
    which bounds the entries both ways.  After the leaves are divided, the
    largest entry of each is in [1/2, 1).  Up: two 2x2 matrices with entries
    below b in modulus have a product with entries below 2 b^2, so three
    levels stay below 2^7.  Down: the cell matrices have determinant 1, so
    no product is zero, and one product shrinks the largest entry by a
    factor near 1/k at worst, k = sqrt|q - z| (about 2/k where the cells are
    nearly rank one, deep in evanescence), so the seven products of three
    levels stay above k^-7, a normal float for any |z| below 1e80.  The
    4n-cell chain enters the tree two levels deep (its quarters are
    multiplied twice), so the tree rescales before its levels 1, 4, 7, ...
    Every matrix multiplies into the product once, so the exponent of a
    chain is the sum of the exponents divided out of its matrices.  Each z
    gets the same bits in any batch.
    """
    leaves, E = _leaves(cells, zs[None, None, :])
    leaves, e = _normalized(leaves)
    exps = (E + e).sum(axis=1)
    # slot 0 is the n-cell chain; the product of slots 2 and 1 the 2n-cell
    # one, and that of slots 6 to 3 the 4n-cell one
    pairs = _mul(leaves[:, :, 2::2], leaves[:, :, 1::2])
    T = np.empty(leaves.shape[:2] + (3,) + leaves.shape[3:], dtype=leaves.dtype)
    T[:, :, 0], T[:, :, 1] = leaves[:, :, 0], pairs[:, :, 0]
    T[:, :, 2] = _mul(pairs[:, :, 2], pairs[:, :, 1])
    E = np.array([exps[0], exps[1] + exps[2], exps[3:].sum(axis=0)])
    level = 0
    while T.shape[3] > 1:
        if level % 3 == 1:
            T, e = _normalized(T)
            E = E + e.sum(axis=1)
        level += 1
        count = T.shape[3]
        even = count - count % 2
        paired = _mul(T[:, :, :, 1:even:2], T[:, :, :, 0:even:2])
        if count % 2:
            paired = np.concatenate([paired, T[:, :, :, -1:]], axis=3)
        T = paired
    return T[:, :, :, 0], E


def _propagate(edge: Edge, zs: np.ndarray, u0: complex, du0: complex, x0: float, x1: float):
    """(u, du, exponent) at x1 for every z, from (u0, du0) at x0.

    A level at n gives the values y(n), y(2n) and y(4n) of the three chains
    in one pass, and the Richardson values R(n) = y(2n) + (y(2n) - y(n))/15
    and R(2n).  R(2n) is returned at the first level where the estimate of
    its own error, |R(2n) - R(n)|/63, passes.  Past the array passes each z
    is finished on its own, in Python scalars.
    """
    out = [None] * zs.size
    todo = list(range(zs.size))
    n = _CELLS_FIRST
    while todo:
        if n > _CELLS_MAX:
            raise ConvergenceError(
                f"transfer matrices on [{x0}, {x1}] did not settle at {4 * _CELLS_MAX} cells "
                f"per segment for z = {zs[todo[0]]}")
        cells = _cells(edge, x0, x1, n)
        step = max(1, _LEAF_BUDGET // cells.h.size)
        left = []
        for lo in range(0, len(todo), step):
            idx = todo[lo:lo + step]
            T, E = _cell_products(cells, zs[idx])
            T, E = T.transpose(3, 2, 0, 1).tolist(), E.T.tolist()
            for i, (chains, (e_n, e_2n, e_4n)) in zip(idx, zip(T, E)):
                (((a, b), (c, d)), ((a2, b2), (c2, d2)), ((a4, b4), (c4, d4))) = chains
                u4, du4 = a4 * u0 + b4 * du0, c4 * u0 + d4 * du0
                if not cells.refined:
                    out[i] = (u4, du4, e_4n)
                    continue
                # align the n- and 2n-cell values to the 4n-cell exponent
                # (exact), then extrapolate the fourth-order error away
                align = math.ldexp(1.0, e_n - e_4n)
                u1, du1 = (a * u0 + b * du0) * align, (c * u0 + d * du0) * align
                align = math.ldexp(1.0, e_2n - e_4n)
                u2, du2 = (a2 * u0 + b2 * du0) * align, (c2 * u0 + d2 * du0) * align
                r1, dr1 = u2 + (u2 - u1) / 15.0, du2 + (du2 - du1) / 15.0
                r2, dr2 = u4 + (u4 - u2) / 15.0, du4 + (du4 - du2) / 15.0
                scale = abs(r2) + abs(dr2)
                # the transfer matrix is invertible, so (0, 0) from a nonzero
                # start is underflow, never a settled value
                if (scale or not (u0 or du0)) and \
                        abs(r2 - r1) + abs(dr2 - dr1) <= 63.0 * _TRANSFER_RTOL * scale:
                    out[i] = (r2, dr2, e_4n)
                else:
                    left.append(i)
        todo = left
        n *= 2
    return out


def solve_edge(edge: Edge, z, init: Tuple[complex, complex],
               x0: float, x1: float) -> Solution:
    """Integrate -u'' + q u = z u from (u, u')(x0) = init to x1.

    [x0, x1] is cut at the potential breakpoints; a segment where q is
    constant is one cell, on which the step below is exact, and any other
    segment is cut into n equal cells.  Each cell steps by the closed-form
    exponential of its fourth-order Magnus matrix (see `_GAUSS`), and the
    cell matrices are multiplied in a pairwise tree.  One pass at n gives
    the n-, 2n- and 4n-cell results; a Richardson step on each neighbouring
    pair removes the fourth-order error and leaves a sixth-order one, so the
    difference of the two extrapolated values, over 63, estimates the error
    of the finer one, which is returned.  n starts at `_CELLS_FIRST` and
    doubles until that estimate is below `_TRANSFER_RTOL` relative to
    |u| + |u'|; past `_CELLS_MAX` it raises `ConvergenceError`.

    z may be one number or an array; every z takes the same arithmetic
    whatever else is in the array, so a value in a batch has the bits it
    has alone.  Real z with a real init gives real floats.
    """
    x0, x1 = float(x0), float(x1)
    if not edge.is_infinite:
        L = float(edge.length)
        if not (-1e-12 <= min(x0, x1) and max(x0, x1) <= L + 1e-12):
            raise ValueError(f"[{x0}, {x1}] is not inside the edge [0, {L}]")

    zs = np.asarray(z, dtype=complex)
    u0, du0 = complex(init[0]), complex(init[1])
    u, du, exponent = (np.array(v) for v in zip(*_propagate(edge, zs.ravel(), u0, du0, x0, x1)))
    if not (zs.imag.any() or u0.imag or du0.imag):
        u, du = u.real, du.real
    uu, udu = _unscaled(u, exponent), _unscaled(du, exponent)
    fits = np.isfinite(uu) & np.isfinite(udu)
    values = (uu, udu, np.where(fits, uu, u), np.where(fits, udu, du))
    if zs.ndim == 0:
        uu, udu, su, sdu = (v[0].item() for v in values)
    else:
        uu, udu, su, sdu = (v.reshape(zs.shape) for v in values)
    return Solution(uu, udu, (su, sdu))


# Beyond this |Im kL|, cos kL is at least sinh(20) ~ 2.4e8 in modulus, never
# zero, and cmath.cos overflows a few hundred units further out.
_SCALE_IM_KL = 20.0


def _free_values(edge: Edge, z: complex):
    """(u(0), u'(0)) of the outer-condition solution on a free finite edge.

    With k = sqrt(z), c = cos(beta), s = sin(beta), C = cos kL and
    S = sin(kL)/k (S = L at k = 0):

        u(0) = s C + c S,    u'(0) = s z S - c C.

    C and S are even in k, so the branch of the root does not matter.  Where
    C grows exponentially (z < 0, or |Im kL| large) both values are divided
    by C, which leaves their ratio and the sign of u(0) unchanged.  Real z
    gives real floats.
    """
    c, s, L = edge._outer_constants
    if z.imag == 0.0:
        x = z.real
        if x > 0.0:
            k = math.sqrt(x)
            C, S = math.cos(k * L), math.sin(k * L) / k
        elif x < 0.0:
            k = math.sqrt(-x)
            C, S = 1.0, math.tanh(k * L) / k
        else:
            C, S = 1.0, L
        return s * C + c * S, s * x * S - c * C
    k = cmath.sqrt(z)
    kL = k * L
    if abs(kL.imag) > _SCALE_IM_KL:
        C, S = 1.0, cmath.tan(kL) / k
    else:
        C, S = cmath.cos(kL), cmath.sin(kL) / k
    return s * C + c * S, s * z * S - c * C


def _boundary_values(edge: Edge, z):
    """(u(0), u'(0)) of the outer-condition solution on a finite edge, up to
    a common factor that is positive for real z, at one z or at each z of a
    1-D array with the bits it has alone: `_free_values` when free, one
    transfer-matrix pass with a potential.

    With a potential the pair is `solve_edge`'s scaled one: where the
    solution outgrows the float range it is divided by a power of two, which
    keeps the ratio and the sign of u(0).  Elsewhere it is (u(0), u'(0))
    itself, so `brentq` refines a function continuous in z."""
    if edge.potential is not None:
        if isinstance(z, np.ndarray) and not z.size:
            return z, z
        c, s, L = edge._outer_constants
        return solve_edge(edge, z, (s, -c), L, 0.0).scaled
    if not isinstance(z, np.ndarray):
        return _free_values(edge, z)
    return np.array([_free_values(edge, zv) for zv in z.tolist()]).reshape(-1, 2).T


def weyl_m(edge: Edge, z):
    """Interface value m(z) = u'(0)/u(0) of the outer-condition solution.

    Free infinite edges return i sqrt(z) on the branch with positive
    imaginary part; finite edges divide the pair of `_boundary_values`.
    Real z is allowed for finite edges (the value is then real) except at
    the isolated points where u(0) vanishes, which raise ZeroDivisionError.

    z may also be a 1-D numpy array; the result is then a complex array
    with the bits of the scalar call at each z, and an edge with a potential
    integrates the whole array in one `solve_edge` pass.
    """
    if edge.is_infinite:
        roots = [cmath.sqrt(zv) for zv in np.asarray(z, dtype=complex).ravel().tolist()]
        values = [1j * (-s if s.imag < 0 else s) for s in roots]
        return np.array(values, dtype=complex) if isinstance(z, np.ndarray) else values[0]
    if not isinstance(z, np.ndarray):
        return _ratio(z, *_boundary_values(edge, complex(z)))
    zs = np.asarray(z, dtype=complex)
    su, sdu = _boundary_values(edge, zs)
    values = []
    for zv, u, du in zip(zs.tolist(), su.tolist(), sdu.tolist()):
        # `solve_edge` gives a real z alone a real pair; in a complex batch
        # the pair carries zero imaginary parts, which complex division
        # would not treat like the real pair
        values.append(_ratio(zv, u.real, du.real) if zv.imag == 0 else _ratio(zv, u, du))
    return np.array(values, dtype=complex)


def _ratio(z: complex, u, du):
    if u == 0:
        raise ZeroDivisionError(f"u(0; z={z}) = 0: z is an outer-decoupled eigenvalue")
    return du / u


def _interface_value(edge: Edge, z: float) -> float:
    """u(0; z) for real z, up to a positive factor: the secular function
    whose zeros are the poles of m."""
    return float(_boundary_values(edge, complex(float(z)))[0])


def _interface_values(edge: Edge, zs: list) -> list:
    """`_interface_value` at every z of the list, in one `_boundary_values` call."""
    return _boundary_values(edge, np.array(zs, dtype=float))[0].tolist()


def _free_poles(edge: Edge, lo: float, hi: float) -> Union[list, None]:
    """Poles strictly inside (lo, hi) of a free Dirichlet or Neumann edge:
    (j pi/L)^2 for j >= 1, or ((j + 1/2) pi/L)^2 for j >= 0.  None for a
    potential or any other outer angle."""
    if edge.potential is not None:
        return None
    c, s, L = edge._outer_constants
    if s == 0.0:
        offset = 0.0
    elif c == 0.0:
        offset = 0.5
    else:
        return None
    poles = []
    j = 0 if offset else 1
    while (pole := ((j + offset) * math.pi / L) ** 2) < hi:
        if pole > lo:
            poles.append(pole)
        j += 1
    return poles


# The most scan points one edge's pole search takes, about ten per pole.  The
# scan holds every point and its secular value: 10^5 points take about 1.4 s
# and 85 MB on a free edge with a general outer angle, and an edge with a
# potential integrates each.  The windows of the tests and the benchmark take
# fewer than 100.  A wider window is refused instead of running away.
_MAX_SCAN_POINTS = 10**5


def _s_of(zv: float) -> float:
    """s = sign(z) sqrt|z|, the scan variable of `dirichlet_eigenvalues`."""
    return math.copysign(math.sqrt(abs(zv)), zv)


def dirichlet_eigenvalues(edge: Edge, window) -> list:
    """All real z in the window where the outer-condition solution vanishes
    at the interface (the poles of m, i.e. the decoupled eigenvalues).

    Free Dirichlet and Neumann edges give them in closed form.  Otherwise
    the scan runs in the variable s with z = s|s|: for z > 0 solutions
    oscillate at rate sqrt(z), so a uniform s-step of pi/(10 L) tracks
    every sign change; for z < 0 the function is monotone in practice and
    the same step is more than enough.  The scan points go through the edge
    in one array call; an exact zero at an inner one is a pole, at an end
    one it is not (the open window, as in closed form).  `brentq` refines
    each sign change one z at a time from the scan's values at its ends,
    which have the bits of single-z calls.  A window that needs more than
    `_MAX_SCAN_POINTS` scan points raises ConvergenceError on either route.
    """
    if edge.is_infinite:
        raise ValueError("infinite edges have no discrete decoupled spectrum")
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("window must have positive length")
    L = float(edge.length)
    # the scan's point count, before either route enumerates anything; it
    # may overflow to inf, so it is not divided by the step
    s_lo, s_hi = _s_of(lo), _s_of(hi)
    points = (s_hi - s_lo) * (10.0 * L / math.pi)
    if not points <= _MAX_SCAN_POINTS:
        raise ConvergenceError(
            f"the window ({lo}, {hi}) needs {points:.3g} scan points on an edge of "
            f"length {L}, more than the {_MAX_SCAN_POINTS} that are enumerated")
    poles = _free_poles(edge, lo, hi)
    if poles is not None:
        return poles
    step = math.pi / (10.0 * L)
    count = max(2, int(math.ceil((s_hi - s_lo) / step)) + 1)
    zs = [s * abs(s) for s in np.linspace(s_lo, s_hi, count)]
    vals = _interface_values(edge, zs)
    roots = []
    for i in range(len(zs) - 1):
        v0, v1 = vals[i], vals[i + 1]
        if v0 == 0.0 and i > 0:
            roots.append(zs[i])
        elif v0 * v1 < 0:
            roots.append(brentq(lambda t: _interface_value(edge, t), zs[i], zs[i + 1],
                                fa=v0, fb=v1))
    return roots

