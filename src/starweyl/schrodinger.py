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
integrated segment by segment from the outer endpoint (`solve_edge`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple, Union

import numpy as np

from .errors import ConvergenceError
from .herglotz import HerglotzRep, atom_weight, cos_sin, geometric_schedule
from .measure import (
    NumberLike,
    Poly,
    ScalarMeasure,
    as_fraction,
    number_from_json,
    number_to_json,
)

_ODE_RTOL = 1e-12
_ODE_ATOL = 1e-12

# The eps ladder for limits onto the real axis through edges.  The ODE
# relative error is ~1e-12, and near a pole |m| ~ 1/eps, so eps below ~1e-6
# only amplifies solver noise: start at 1e-2.  Free edges (closed form,
# accurate to rounding) use the same ladder.
EDGE_SCHEDULE = geometric_schedule(1e-2, 13)


def brentq(f, a, b, **kwargs):
    """`scipy.optimize.brentq`, loaded at the first call.

    scipy is imported inside the functions that use it, so that the exact
    and closed-form tasks never load it."""
    from scipy.optimize import brentq as scipy_brentq

    return scipy_brentq(f, a, b, **kwargs)


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

    def eval_real(self, x: float) -> float:
        return float(weyl_m(self, x).real)

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
        length = obj["length"]
        if length == "inf":
            return cls(None, None, None)
        pot = obj.get("potential", "free")
        if pot == "free" or pot is None:
            pieces = "free"
        else:
            pieces = [PotentialPiece.from_json(p) for p in pot["pieces"]]
            pieces = [((p.lo, p.hi), p.poly.coeffs) for p in pieces]
        return cls.of(number_from_json(length), pieces, float(obj.get("outer_angle", 0.0)))


@dataclass(frozen=True)
class Solution:
    """Value and derivative of a solution at one point, for one z."""

    z: complex
    x: float
    u: complex
    du: complex


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


def _rhs(coeffs: Tuple[float, ...], z: complex, real_path: bool):
    """Right-hand side of u'' = (q - z) u as a real first-order system."""

    def q(x):
        acc = 0.0
        for c in coeffs:
            acc = acc * x + c
        return acc

    if real_path:
        zr = z.real

        def rhs(x, y):
            return [y[1], (q(x) - zr) * y[0]]

        return rhs

    ci = -z.imag

    def rhs(x, y):
        cr = q(x) - z.real
        # u'' = (q - z) u with u = y0 + i y1, u' = y2 + i y3
        return [
            y[2],
            y[3],
            cr * y[0] - ci * y[1],
            cr * y[1] + ci * y[0],
        ]

    return rhs


def solve_edge(edge: Edge, z: complex, init: Tuple[complex, complex],
              x0: float, x1: float) -> Solution:
    """Integrate -u'' + q u = z u from (u, u')(x0) = init to x1.

    Complex z is split into real and imaginary parts so the integrator
    always sees a real system.  Integration restarts at every potential
    breakpoint and each segment uses its own piece's polynomial, so the
    right-hand side is smooth on each segment, which is what the
    high-order stepper needs to hit its tolerance.
    """
    x0, x1 = float(x0), float(x1)
    if not edge.is_infinite:
        L = float(edge.length)
        if not (-1e-12 <= min(x0, x1) and max(x0, x1) <= L + 1e-12):
            raise ValueError(f"[{x0}, {x1}] is not inside the edge [0, {L}]")
    if x0 == x1:
        return Solution(z, x1, init[0], init[1])

    zc = complex(z)
    real_path = zc.imag == 0.0 and complex(init[0]).imag == 0.0 and complex(init[1]).imag == 0.0
    if real_path:
        y = [float(complex(init[0]).real), float(complex(init[1]).real)]
    else:
        u0, du0 = complex(init[0]), complex(init[1])
        y = [u0.real, u0.imag, du0.real, du0.imag]

    from scipy.integrate import solve_ivp

    for a, b in _segments(x0, x1, edge._breakpoints()):
        rhs = _rhs(_segment_coeffs(edge, 0.5 * (a + b)), zc, real_path)
        res = solve_ivp(rhs, (a, b), y, method="DOP853",
                        rtol=_ODE_RTOL, atol=_ODE_ATOL, dense_output=False)
        if not res.success:
            raise ConvergenceError(f"ODE integration failed on [{a}, {b}]: {res.message}")
        y = [float(v) for v in res.y[:, -1]]

    if real_path:
        return Solution(zc, x1, y[0], y[1])
    return Solution(zc, x1, complex(y[0], y[1]), complex(y[2], y[3]))


def _outer_init(edge: Edge) -> Tuple[float, float]:
    c, s = cos_sin(float(edge.outer_angle))
    return (s, -c)


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
    c, s = cos_sin(float(edge.outer_angle))
    L = float(edge.length)
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


def _boundary_values(edge: Edge, z: complex):
    """(u(0), u'(0)) of the outer-condition solution on a finite edge, up to
    a common factor that is positive for real z: closed form when free, the
    ODE otherwise."""
    if edge.potential is None:
        return _free_values(edge, z)
    sol = solve_edge(edge, z, _outer_init(edge), float(edge.length), 0.0)
    return sol.u, sol.du


def weyl_m(edge: Edge, z: complex) -> complex:
    """Interface value m(z) = u'(0)/u(0) of the outer-condition solution.

    Free finite edges use the closed form of `_free_values`; edges with a
    potential are integrated from the outer endpoint; free infinite edges
    return i sqrt(z) on the branch with positive imaginary part.  Real z is
    allowed for finite edges (the value is then real) except at the
    isolated points where u(0) vanishes.
    """
    zc = complex(z)
    if edge.is_infinite:
        s = cmath.sqrt(zc)
        if s.imag < 0:
            s = -s
        return 1j * s
    u, du = _boundary_values(edge, zc)
    if u == 0:
        raise ZeroDivisionError(f"u(0; z={z}) = 0: z is an outer-decoupled eigenvalue")
    return du / u


def _interface_value(edge: Edge, z: float) -> float:
    """u(0; z) for real z, up to a positive factor: the secular function
    whose zeros are the poles of m."""
    return float(_boundary_values(edge, complex(float(z)))[0])


def dirichlet_eigenvalues(edge: Edge, window) -> list:
    """All real z in the window where the outer-condition solution vanishes
    at the interface (the poles of m, i.e. the decoupled eigenvalues).

    The scan runs in the variable s with z = s|s|: for z > 0 solutions
    oscillate at rate sqrt(z), so a uniform s-step of pi/(10 L) tracks
    every sign change; for z < 0 the function is monotone in practice and
    the same step is more than enough.
    """
    if edge.is_infinite:
        raise ValueError("infinite edges have no discrete decoupled spectrum")
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("window must have positive length")
    L = float(edge.length)

    # Window endpoints sitting exactly on an eigenvalue would break the
    # sign-change logic; nudge them inward (they are boundary cases anyway).
    for _ in range(8):
        if _interface_value(edge, lo) != 0.0:
            break
        lo += 1e-9 * (1 + abs(lo))
    else:
        raise ConvergenceError("window start sits on an eigenvalue and will not move off it")
    for _ in range(8):
        if _interface_value(edge, hi) != 0.0:
            break
        hi -= 1e-9 * (1 + abs(hi))
    else:
        raise ConvergenceError("window end sits on an eigenvalue and will not move off it")

    def s_of(zv: float) -> float:
        return math.copysign(math.sqrt(abs(zv)), zv)

    step = math.pi / (10.0 * L)
    s_lo, s_hi = s_of(lo), s_of(hi)
    count = max(2, int(math.ceil((s_hi - s_lo) / step)) + 1)
    ss = np.linspace(s_lo, s_hi, count)
    zs = [s * abs(s) for s in ss]
    vals = [_interface_value(edge, zv) for zv in zs]

    roots: list[float] = []
    for i in range(len(zs) - 1):
        v0, v1 = vals[i], vals[i + 1]
        if v0 == 0.0:
            if i > 0:  # interior exact hit
                roots.append(zs[i])
            continue
        if v0 * v1 < 0:
            r = brentq(lambda t: _interface_value(edge, t), zs[i], zs[i + 1],
                       xtol=1e-13, rtol=8.9e-16)
            roots.append(float(r))
    if vals[-1] == 0.0:
        roots.append(zs[-1])
    return sorted(roots)


def edge_to_herglotz(edge: Edge, window) -> HerglotzRep:
    """Purely atomic snapshot of m on a window: decoupled eigenvalues as
    atom positions, masses extracted from m itself by the eps-limit.

    Only the structure inside the window is represented (a and b are set
    to zero and out-of-window poles are dropped): downstream consumers
    compare interface data locally, and locality is exactly what survives
    the truncation.
    """
    if edge.is_infinite:
        raise ValueError("infinite free edges have no atomic representation")
    atoms = []
    for x in edge.poles(window):
        w = atom_weight(edge, x, schedule=EDGE_SCHEDULE)
        if w <= 0:
            raise ConvergenceError(f"nonpositive extracted mass at decoupled eigenvalue {x}")
        atoms.append((x, w))
    return HerglotzRep.of(0, 0, ScalarMeasure.of(atoms=atoms))
