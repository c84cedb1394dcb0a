"""Herglotz functions: representation, evaluation, and point masses.

A function of the upper half-plane with nonnegative imaginary part is stored
as the triple (a, b, omega): a real offset, a nonnegative slope, and a finite
`ScalarMeasure`, entering through the kernel (1 + x z)/(x - z).  Purely
atomic representations support an exact real-axis calculus (poles, zeros,
residues, level sets) with rational arithmetic; density pieces evaluate
through closed-form logarithms.  Black-box functions are read on the real
axis along a geometric ladder of imaginary offsets: `richardson`
extrapolates the samples and `point_mass` decides whether an atom sits at x.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence, Tuple, Union

import numpy as np

from .errors import ConvergenceError
from .measure import (
    NumberLike,
    Poly,
    ScalarMeasure,
    _saturated_float,
    as_fraction,
    check_keys,
    number_from_json,
    number_to_json,
)


def cos_sin(alpha: float) -> Tuple[float, float]:
    """cos/sin with values snapped to exact 0 and +-1 near the axes.

    Angles are almost always multiples of pi/4 in practice; snapping keeps
    an outer angle of pi/2 an exact Neumann condition (c = 0) instead of
    leaking a 6e-17 residue of pi's float rounding into exact paths.
    """
    c, s = math.cos(alpha), math.sin(alpha)
    for name, v in (("c", c), ("s", s)):
        if abs(v) < 1e-15:
            v = 0.0
        elif abs(abs(v) - 1.0) < 1e-15:
            v = math.copysign(1.0, v)
        if name == "c":
            c = v
        else:
            s = v
    if c != 0.0 and s != 0.0 and abs(abs(c) - abs(s)) < 1e-15:
        # pi/4 family: cos and sin land one ulp apart.  Every consumer only
        # depends on the (c, s) ray, so equalizing the magnitudes is safe.
        s = math.copysign(abs(c), s)
    return c, s


# ---------------------------------------------------------------------------
# Cauchy transform
# ---------------------------------------------------------------------------


def _poly_div_at(coeffs: Sequence[complex], z: complex) -> Tuple[list, complex]:
    """Synthetic division: p(x) = (x - z) q(x) + p(z)."""
    q: list = []
    acc = 0.0 + 0.0j
    for c in reversed(list(coeffs)):
        q.append(acc)
        acc = acc * z + c
    q.reverse()
    return q[1:] if q else [], acc


def _poly_int(coeffs: Sequence[complex], a: float, b: float) -> complex:
    total = 0.0 + 0.0j
    for k, c in enumerate(coeffs):
        total += c * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
    return total


def cauchy_transform(nu: ScalarMeasure, z: complex) -> complex:
    """Integral of (1 + x z)/(x - z) against ``nu``, in closed form.

    Atom terms use the split (1 + t z)/(t - z) = (1 + t^2)/(t - z) - t so
    the imaginary part is a sum of positive terms whenever Im z > 0.
    Density pieces reduce to polynomial integrals plus a principal-branch
    logarithm, which is safe off the real axis.
    """
    z = complex(z)
    if z.imag == 0:
        raise ValueError("evaluation on the real axis is not defined; use eval_real")
    total = 0.0 + 0.0j
    for tf, wf in nu.float_atoms:
        total += wf * ((1.0 + tf * tf) / (tf - z) - tf)
    for piece in nu.pieces:
        total += _piece_part(piece, z)
    return total


def _piece_part(piece, z: complex) -> complex:
    """One density piece's term of `cauchy_transform` at z."""
    a, b = float(piece.lo), float(piece.hi)
    coeffs = [float(c) for c in piece.poly.coeffs]
    # (1 + x z)/(x - z) = z + (1 + z^2)/(x - z)
    part = z * _poly_int(coeffs, a, b)
    q, pz = _poly_div_at(coeffs, z)
    log_term = cmath.log(b - z) - cmath.log(a - z)
    part += (1.0 + z * z) * (_poly_int(q, a, b) + pz * log_term)
    return part


def _c_quot(ar: float, ai: float, br: np.ndarray, bi: np.ndarray):
    """(ar + i ai) / (br + i bi) on arrays, with the operations of CPython's
    `_Py_c_quot` (Smith's algorithm; NaN where a NaN defeats both branches),
    so every element has the bits of the scalar quotient."""
    abr = np.where(br < 0, -br, br)
    abi = np.where(bi < 0, -bi, bi)
    ratio = bi / br
    denom = br + bi * ratio
    rr = (ar + ai * ratio) / denom
    ri = (ai - ar * ratio) / denom
    flip = ~(abr >= abi) & (abi >= abr)
    ratio = br / bi
    denom = br * ratio + bi
    rr = np.where(flip, (ar * ratio + ai) / denom, rr)
    ri = np.where(flip, (ai * ratio - ar) / denom, ri)
    lost = ~(abr >= abi) & ~flip
    return np.where(lost, math.nan, rr), np.where(lost, math.nan, ri)


@dataclass(frozen=True)
class HerglotzRep:
    """Representation (a, b, omega) of a Herglotz function."""

    a: Fraction
    b: Fraction
    omega: ScalarMeasure

    def __post_init__(self):
        if not isinstance(self.a, Fraction) or not isinstance(self.b, Fraction):
            raise TypeError("a and b must be Fractions; use HerglotzRep.of")
        if self.b.numerator < 0:
            raise ValueError(f"slope b must be >= 0, got {self.b}")

    @classmethod
    def of(cls, a: NumberLike = 0, b: NumberLike = 0,
           omega: ScalarMeasure | None = None) -> "HerglotzRep":
        return cls(as_fraction(a), as_fraction(b), omega or ScalarMeasure())

    @classmethod
    def from_measure(cls, omega: ScalarMeasure) -> "HerglotzRep":
        return cls.of(0, 0, omega)

    @property
    def is_constant(self) -> bool:
        return self.b == 0 and self.omega.is_zero

    @cached_property
    def _float_ab(self) -> Tuple[float, float]:
        """a and b as floats, converted once, as `ScalarMeasure.float_atoms`
        converts the atoms."""
        return self.a.numerator / self.a.denominator, self.b.numerator / self.b.denominator

    def eval(self, z: complex) -> complex:
        a, b = self._float_ab
        return a + b * complex(z) + cauchy_transform(self.omega, z)

    __call__ = eval

    def eval_many(self, zs: np.ndarray) -> np.ndarray:
        """`eval` at each z of a 1-D array, with the bits of the call at that z.

        One pass over the atoms serves every z.  Python's complex
        arithmetic takes a float operand as (v, 0.0) and applies CPython's
        `_Py_c_prod`, `_Py_c_quot` (`_c_quot`) and componentwise sums; the
        same operations run here on the real and imaginary arrays, in the
        order of `eval` and `cauchy_transform`, so -0.0, infinities and NaN
        come out as there.  numpy's complex division is another algorithm
        and is not used.  Density pieces then add their closed form z by z
        (`_piece_part`), after the atoms as in `cauchy_transform`.
        """
        zs = np.asarray(zs, dtype=complex)
        zr, zi = zs.real.copy(), zs.imag.copy()
        if (zi == 0).any():
            raise ValueError("evaluation on the real axis is not defined; use eval_real")
        a, b = self._float_ab
        tr, ti = np.zeros(len(zs)), np.zeros(len(zs))
        with np.errstate(all="ignore"):
            # a + b z
            re = a + (b * zr - 0.0 * zi)
            im = 0.0 + (b * zi + 0.0 * zr)
            for tf, wf in self.omega.float_atoms:
                # wf ((1 + tf^2) / (tf - z) - tf)
                qr, qi = _c_quot(1.0 + tf * tf, 0.0, tf - zr, 0.0 - zi)
                vr, vi = qr - tf, qi - 0.0
                tr = tr + (wf * vr - 0.0 * vi)
                ti = ti + (wf * vi + 0.0 * vr)
            out = np.empty(len(zs), dtype=complex)
            out.real, out.imag = re + tr, im + ti
        if self.omega.pieces:
            for k, z in enumerate(zs.tolist()):
                total = complex(tr[k], ti[k])
                for piece in self.omega.pieces:
                    total += _piece_part(piece, z)
                out[k] = complex(re[k], im[k]) + total
        return out

    # -- real-axis calculus -------------------------------------------------

    def eval_real(self, x: NumberLike) -> Union[Fraction, float]:
        """Boundary value at a real point where the function stays analytic.

        Exact (a Fraction) for purely atomic data; a float once density
        pieces contribute their logarithmic integrals.  Raises at atoms and
        inside density intervals where no finite real limit exists.
        """
        x = as_fraction(x)
        val = self.a + self.b * x
        for t, w in self.omega.atoms:
            if t == x:
                raise ValueError(f"{x} is a pole (atom of the representing measure)")
            val += w * ((1 + t * t) / (t - x) - t)
        if not self.omega.pieces:
            return val
        out = float(val)
        xf = float(x)
        for piece in self.omega.pieces:
            if piece.lo <= x <= piece.hi:
                raise ValueError(f"{x} lies inside a density interval [{piece.lo}, {piece.hi}]")
            a, b = float(piece.lo), float(piece.hi)
            coeffs = [float(c) for c in piece.poly.coeffs]
            q, px = _poly_div_at(coeffs, xf)
            log_term = math.log(abs(b - xf)) - math.log(abs(a - xf))
            out += xf * _poly_int(coeffs, a, b).real
            out += (1.0 + xf * xf) * (_poly_int(q, a, b).real + px.real * log_term)
        return out

    def poles(self, window) -> list:
        """The atom positions in the closed window [lo, hi]."""
        lo, hi = as_fraction(window[0]), as_fraction(window[1])
        return [t for t, _w in self.omega.atoms if lo <= t <= hi]

    def density_intervals(self) -> tuple:
        """(lo, hi) of every density piece of the measure."""
        return self.omega.piece_intervals()

    def derivative_real(self, x: NumberLike) -> Fraction:
        """Exact derivative on the real axis; purely atomic data only."""
        if self.omega.pieces:
            raise ValueError("exact derivative needs a purely atomic measure")
        x = as_fraction(x)
        val = self.b
        for t, w in self.omega.atoms:
            if t == x:
                raise ValueError(f"{x} is a pole")
            val += w * (1 + t * t) / (t - x) ** 2
        return val

    @cached_property
    def _integer_terms(self):
        """(D, M, c0, c1, [(D t_j, R_j)]): the function in integers, with D
        the common denominator of the positions and M that of c = a - sum
        w_j t_j, b and rho_j = D w_j (1 + t_j^2); c0 = M c, c1 = M b and R_j
        = M rho_j.  Every exact evaluation (`_integer_value`, `value_parts`)
        and `atomic_rational_parts` read these.  They are built on the
        numerators and denominators, with c and each rho_j reduced by one
        gcd: the integers the same sums in `Fraction` arithmetic give."""
        a, b, atoms = self.a, self.b, self.omega.atoms
        D = math.lcm(*(t.denominator for t, _ in atoms))
        # c over a common denominator, then in lowest terms as a Fraction
        L = math.lcm(a.denominator, *(w.denominator * t.denominator for t, w in atoms))
        cn = a.numerator * (L // a.denominator) - sum(
            w.numerator * t.numerator * (L // (w.denominator * t.denominator)) for t, w in atoms)
        g = math.gcd(cn, L)
        cn, cd = cn // g, L // g
        # rho_j = D wn (td^2 + tn^2) / (wd td^2), in lowest terms
        rhos = []
        for t, w in atoms:
            num = D * w.numerator * (t.denominator * t.denominator + t.numerator * t.numerator)
            den = w.denominator * t.denominator * t.denominator
            g = math.gcd(num, den)
            rhos.append((num // g, den // g))
        M = math.lcm(cd, b.denominator, *(den for _, den in rhos))
        terms = [(t.numerator * (D // t.denominator), num * (M // den))
                 for (t, _w), (num, den) in zip(atoms, rhos)]
        return D, M, cn * (M // cd), b.numerator * (M // b.denominator), terms

    def _integer_value(self, p: int, q: int) -> Tuple[int, int]:
        """h(p/q) as an unreduced integer fraction (num, den), den > 0.

        p/q need not be in lowest terms (q > 0).  With d_j = D t_j q - D p,
        h = c + b x + sum_j rho_j / (D t_j - D x) accumulates over the shared
        denominator prod d_j in integers, without any gcd (see
        `_integer_terms`); num/den reduces to exactly `eval_real`.  Raises
        ValueError at an atom and on density pieces.
        """
        if self.omega.pieces:
            raise ValueError("integer evaluation needs a purely atomic measure")
        D, M, c0, c1, terms = self._integer_terms
        s, P = 0, 1
        for T, R in terms:
            d = T * q - D * p
            if d == 0:
                raise ValueError(f"{Fraction(p, q)} is a pole")
            s, P = s * d + R * P, P * d
        if P < 0:
            s, P = -s, -P
        return (c0 * q + c1 * p) * P + q * q * s, M * q * P

    def value_parts(self, p: int, q: int) -> Tuple[int, int, int, int]:
        """h(p/q) and h'(p/q) as unreduced integer fractions, off the atoms.

        Returns (num, den, dnum, dden) with h(p/q) = num/den from
        `_integer_value`, h'(p/q) = dnum/dden and den, dden > 0; p/q need not
        be in lowest terms (q > 0).  The slope takes a second pass over the
        shared denominator prod d_j^2.  The reduced fractions are exactly
        `eval_real` and `derivative_real`.
        """
        num, den = self._integer_value(p, q)
        D, M, _c0, c1, terms = self._integer_terms
        s2, P2 = 0, 1
        for T, R in terms:
            d2 = (T * q - D * p) ** 2
            s2, P2 = s2 * d2 + R * P2, P2 * d2
        return num, den, c1 * P2 + q * q * D * s2, M * P2

    def value_at_infinity(self) -> Fraction:
        """Limit along the real axis when b = 0 (finite only then)."""
        if self.b != 0:
            raise ValueError("function grows linearly; no finite limit at infinity")
        return self.a - sum((w * t for t, w in self.omega.atoms), Fraction(0))

    def to_json(self) -> dict:
        return {
            "a": number_to_json(self.a),
            "b": number_to_json(self.b),
            "omega": self.omega.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "HerglotzRep":
        check_keys(obj, "a representation", ("a", "b", "omega"))
        return cls.of(
            number_from_json(obj["a"]),
            number_from_json(obj["b"]),
            ScalarMeasure.from_json(obj["omega"]),
        )


@dataclass(frozen=True)
class HerglotzFunction:
    """A Herglotz function known only through point evaluation."""

    fn: Callable[[complex], complex]

    def eval(self, z: complex) -> complex:
        return self.fn(z)

    __call__ = eval

    def eval_many(self, zs: np.ndarray) -> np.ndarray:
        """`eval` at each z of a 1-D array, one call per z."""
        return np.array([self.eval(z) for z in zs.tolist()], dtype=complex)

    def eval_real(self, x: float) -> float:
        return float(self.fn(float(x)).real)

    def poles(self, window) -> list:
        raise ValueError("cannot enumerate poles of a black-box callable entry; "
                         "provide a representation or an edge")

    def density_intervals(self) -> tuple:
        raise ValueError("the density support of a black-box callable entry is unknown")


# ---------------------------------------------------------------------------
# Limits onto the real axis
# ---------------------------------------------------------------------------


# The number of trailing samples `richardson` extrapolates from.
_TAIL = 8


def geometric_schedule(eps0: float = 0.1, steps: int = 40):
    """The rungs eps0 * 2**-k, k < steps, that a limit reads: k = 0 and the last ``_TAIL``."""
    if not (eps0 > 0 and steps >= 2):
        raise ValueError("schedule needs eps0 > 0 and steps >= 2")
    return tuple(eps0 * 0.5**k for k in (0, *range(max(1, steps - _TAIL), steps)))


DEFAULT_SCHEDULE = geometric_schedule()


def _size(v) -> float:
    return float(np.linalg.norm(v)) if isinstance(v, np.ndarray) else abs(v)


def richardson(eps: Sequence[float], vals: Sequence):
    """Accelerated limit of vals as eps -> 0 along a geometric schedule.

    The samples are scalars or equally shaped arrays.  Neville's recursion
    evaluates at eps = 0 the polynomials in eps through ever more of the
    last ``_TAIL`` samples, eliminating one power of eps per stage; with
    the schedule's ratio r > 1 between neighbouring offsets the stage-m
    factor is r**m.  Real samples stay real.  Returns the accelerated value
    together with a crude error estimate: the change produced by the last
    stage.  Raises ValueError on fewer than two samples (every
    `geometric_schedule` has at least two rungs) and unless those offsets
    decrease geometrically, as the tail of a `geometric_schedule` does.
    """
    k = min(_TAIL, len(vals))
    if k < 2:
        raise ValueError(f"richardson needs at least two samples, got {len(vals)}")
    e = [float(v) for v in eps[-k:]]
    v = list(vals[-k:])
    r = e[0] / e[1]
    if not (r > 1.0 and all(abs(e[i] / e[i + 1] - r) <= 1e-9 * r for i in range(k - 1))):
        raise ValueError(f"eps offsets {e} do not decrease geometrically")
    for m in range(1, k):
        q = r**m
        diag = v[-1]
        v = [(q * v[i + 1] - v[i]) / (q - 1.0) for i in range(k - m)]
    return v[-1], _size(v[-1] - diag)


def point_mass(schedule: Sequence[float], weights: Sequence[float]):
    """(weight, settled): the point mass that samples eps * Im h(x + i eps)
    on ``schedule`` extrapolate to.

    It reads the first sample and the last ``_TAIL`` (a `geometric_schedule`
    holds no others).  The limit is positive exactly at atoms and zero
    elsewhere, and a floor of 1e-6 times the first sample tells the two
    apart: a limit at or below it comes back as 0.0.  The verdict is settled
    only when the Richardson error keeps the limit clear of the floor, and a
    limit of positive samples below -floor (a failed extrapolation) is not.
    """
    weight, err = richardson(schedule, weights)
    floor = 1e-6 * max(weights[0], 1e-300)
    settled = weight >= -floor and abs(weight - floor) > err
    return (weight if weight > floor else 0.0), settled


def atom_weight(h: Union[HerglotzRep, Callable[[complex], complex]],
                x0: NumberLike) -> Union[Fraction, float]:
    """Mass the representing measure puts on the single point x0.

    For a stored representation this is read off exactly.  For black-box
    functions (a representation's own ``eval`` included) it is the
    `point_mass` of eps * Im h(x0 + i eps) / (1 + x0^2) on
    `DEFAULT_SCHEDULE`: 0.0 below its floor, and ConvergenceError when the
    floor verdict is not settled.
    """
    if isinstance(h, HerglotzRep):
        return h.omega.atom_mass_at(x0)
    x = float(x0)
    vals = [eps * h(x + 1j * eps).imag / (1.0 + x * x) for eps in DEFAULT_SCHEDULE]
    weight, settled = point_mass(DEFAULT_SCHEDULE, vals)
    if not settled:
        raise ConvergenceError(f"point mass at x={x} did not settle against its floor")
    return float(weight)


# ---------------------------------------------------------------------------
# Level sets and zeros on the real axis (exact, purely atomic)
# ---------------------------------------------------------------------------

_BISECT_BITS = 64
_SNAP_BOUNDS = (10, 10**3, 10**6, 10**9, 10**12)  # increasing


def _level_sign(h: HerglotzRep, level: Fraction) -> Callable[[int, int], int]:
    """sign(h(x) - level) as -1, 0 or +1 at x = p/q (q > 0) off the atoms.

    h(p/q) = num/den with den > 0 (`HerglotzRep._integer_value`), so the
    sign is that of num L_d - L_n den for level = L_n/L_d; p/q need not be
    in lowest terms.  The same function serves every gap between poles.  No
    rational arithmetic is involved, a zero is detected exactly, and a
    check at an atom raises ValueError.  Away from the roots,
    `_filtered_sign` settles the same sign in double first.
    """
    value = h._integer_value
    ln, ld = level.numerator, level.denominator

    def sign(p: int, q: int) -> int:
        num, den = value(p, q)
        v = num * ld - ln * den
        return (v > 0) - (v < 0)

    return sign


# Unit roundoff of double, and the smallest positive normal double.
_UNIT = 2.0**-53
_NORMAL = 2.0**-1022


def _rounded_terms(reps: Sequence[HerglotzRep], level: Fraction):
    """(c, b, t, rho) of the sum h of the purely atomic ``reps``, minus
    ``level``, each correctly rounded to double (t and rho lists).

    h(x) - level = c + b x + sum_j rho_j / (t_j - x), with c the sum of
    each function's a - sum_j w_j t_j, less the level, b the sum of the
    slopes, and one term rho_j = w_j (1 + t_j^2) per atom of every function
    (an atom shared by two functions gives two terms), read from
    `HerglotzRep._integer_terms`.  None when a value overflows, or is nonzero and rounds below the normal range,
    where the relative rounding bound of `_float_parts` fails.
    """
    c, b, t, rho, positions = -level, Fraction(0), [], [], []
    try:  # int / int is the correctly rounded quotient
        for h in reps:
            D, M, c0, c1, terms = h._integer_terms
            c += Fraction(c0, M)
            b += Fraction(c1, M)
            t += [T / D for T, _ in terms]
            rho += [R / (M * D) for _, R in terms]
            positions += [T for T, _ in terms]
        cf, bf = c.numerator / c.denominator, b.numerator / b.denominator
    except OverflowError:
        return None
    nonzero = [v for n, v in zip([c.numerator, b.numerator, *positions], [cf, bf, *t]) if n]
    if min(map(abs, nonzero + rho), default=1.0) < _NORMAL:
        return None
    return cf, bf, t, rho


def _float_parts(terms, x: float):
    """(S, S', E, E'): the value S and slope S' in double of the sum of
    functions whose `_rounded_terms` are ``terms``, at the real point that
    the double ``x`` rounds, and bounds |S(x) - S| <= E and |S'(x) - S'| <= E'
    on their errors.  None when an atom lies too close to x (below), or when
    the summands hold infinities of both signs or sum beyond the doubles.

    The bound.  Let u = 2^-53 and x = fl(x) be normal, so the true point is
    x (1 + e) with |e| <= u; the inputs c, b, t_j, rho_j are rounded alike.
    Each operation below is exact times (1 + d) or divided by (1 + d),
    |d| <= u, plus an absolute 2^-1075 where a product or quotient
    underflows (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, ch. 2).  With d_j = fl(t_j - x) and
    sigma_j = (|t_j| + |x|) / |d_j|, the true t_j - x is d_j (1 + phi_j) with
    |phi_j| <= theta_j = u (sigma_j + 1): the rounding of t_j, of x and of
    the difference.  x is refused (None) unless sigma_j <= 2^42, so
    theta_j <= 2^-10.  Then
    - q_j = fl(rho_j / d_j) is the true term rho_j / (t_j - x) within
      (theta_j + 3u)(1 + 2^-8) |q_j|, since (1 + u)^2 / (1 - theta_j) - 1
      is below that;
    - s_j = fl(q_j / d_j) >= 0 is the true rho_j / (t_j - x)^2 within
      (2 theta_j + 3u)(1 + 2^-8) s_j, from (1 + u)^3 / (1 - theta_j)^2;
    - c is within u |c|, and fl(b x) is the true b x within 4u |fl(b x)|.
    `math.fsum` rounds the exact sum of its summands once, adding at most
    u times A, the sum of their magnitudes, for S (Shewchuk's adaptive sum;
    an ordinary sum would add (N - 1) u A for N summands, Higham ch. 4).
    Together, |S(x) - S| <= (1 + 2^-8) u (5 A + W) with
    W = sum_j (sigma_j + 1) |q_j|, and likewise
    |S'(x) - S'| <= (1 + 2^-8) u (5 B + 2 W') with B the sum of b and the
    s_j and W' = sum_j (sigma_j + 1) s_j.  E and E' are twice these,
    evaluated in double: the factor 2 covers the (1 + 2^-8), the rounding
    of the bound's own terms (nonnegative, so a relative error of at most
    gamma_(N+4) = (N + 4) u / (1 - (N + 4) u)), and S' in place of B.  Each
    adds N 2^-1068 for the underflows.  A non-finite input or intermediate
    makes a part NaN or infinite, which every caller treats as undecided.
    """
    c, b, ts, rhos = terms
    ax = abs(x)
    bx = b * x
    qs, ss = [c, bx], [b]
    size = abs(c) + abs(bx)
    skew = bend = 0.0
    for t, rho in zip(ts, rhos):
        d = t - x
        ad = abs(d)
        if not ad * 2.0**42 >= abs(t) + ax:
            return None
        q = rho / d
        s = q / d
        spread = (abs(t) + ax) / ad + 1.0
        qs.append(q)
        ss.append(s)
        size += abs(q)
        skew += abs(q) * spread
        bend += s * spread
    try:
        value, slope = math.fsum(qs), math.fsum(ss)
    except (OverflowError, ValueError):
        return None
    tiny = len(qs) * 2.0**-1068
    return (value, slope, 2.0 * _UNIT * (5.0 * size + skew) + tiny,
            2.0 * _UNIT * (5.0 * slope + 2.0 * bend) + tiny)


def _filtered_sign(h: HerglotzRep, level: Fraction, sign: Callable[[int, int], int]):
    """``sign`` (a `_level_sign`) decided in double first where it can be.

    The sign of h(p/q) - level is that of the double value S whenever
    |S| > E (`_float_parts`): the true value then lies on the same side of
    0.  Otherwise, at 0 and at points below the normal range or beyond
    the double range, and next to an atom, ``sign`` decides in integers.
    So the result is always ``sign``'s.  Worth it away from the roots, as
    at `_bracket_end`'s candidates; next to a root double cannot decide.
    """
    terms = _rounded_terms((h,), level)
    if terms is None:
        return sign

    def filtered(p: int, q: int) -> int:
        x = _saturated_float(p, q)
        if _NORMAL <= abs(x) < math.inf:
            parts = _float_parts(terms, x)
            if parts is not None and abs(parts[0]) > parts[2]:
                return 1 if parts[0] > 0 else -1
        return sign(p, q)

    return filtered


def _locate(h: HerglotzRep, level: Fraction, brackets) -> list:
    """Guesses at the root of h - level in each bracket (lo, hi), best first,
    from the `_rounded_terms` of h - level (none when those do not exist).

    A guess is ((xn, xd), radius): the rational xn/xd (xd > 0) and a radius
    around it that should hold the root.  Safeguarded Newton steps run on
    all brackets at once in numpy, a step leaving the bracket becoming a
    bisection.  The float root's radius bounds the rounding in the sum
    (each term carries rounding of t_j, of t_j - x and of the division),
    divided by the slope; a root stops once its step falls below half its
    radius.  A bracket of one sign that spans over 20 binades bisects at
    its geometric mean, so roots next to 0 are reached too.  One more
    Newton step from the root, on the exact value and slope
    (`HerglotzRep.value_parts`), squares that error: radius^2 |h''| / (2 h')
    with a factor 4 to spare, but at least 2^-120 of the new point, and a
    Fraction once it falls below the doubles.  It goes first when it is the
    narrower one.
    """
    terms = _rounded_terms((h,), level)
    if terms is None:  # values beyond the doubles' normal range: plain stepping
        return [[] for _ in brackets]
    c, b, t, rho = terms
    t, rho = np.array(t), np.array(rho)
    lo = np.array([float(a) for a, _ in brackets])
    hi = np.array([float(z) for _, z in brackets])
    x = 0.5 * (lo + hi)
    unit = (len(t) + 4) * 2.0**-52
    # A float root can land on a pole only when its bracket ends closer to
    # the pole than float resolves; that bracket gets no guess below.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(100):
            diff = t - x[:, None]
            terms = rho / diff
            f = c + b * x + terms.sum(axis=1)
            slope = b + (terms / diff).sum(axis=1)
            spread = 1.0 + (np.abs(t) + np.abs(x)[:, None]) / np.abs(diff)
            size = abs(c) + np.abs(b * x) + (np.abs(terms) * spread).sum(axis=1)
            radius = unit * size / slope + 2.0**-52 * np.abs(x)
            below = f < 0
            lo = np.where(below, x, lo)
            hi = np.where(below, hi, x)
            step = f / slope
            nxt = x - step
            # A bracket of one sign spanning over 20 binades bisects at its
            # geometric mean, so a root next to 0 is reached in few steps.
            small, large = np.minimum(np.abs(lo), np.abs(hi)), np.maximum(np.abs(lo), np.abs(hi))
            mid = np.where(((lo > 0) | (hi < 0)) & (small * 2.0**20 < large),
                           np.sign(hi) * np.sqrt(small) * np.sqrt(large), 0.5 * (lo + hi))
            nxt = np.where((lo <= nxt) & (nxt <= hi), nxt, mid)
            done = (np.abs(step) <= 0.5 * radius) | (f == 0)
            x = nxt
            if done.all():
                break
        bend = np.abs((2 * terms / diff**2).sum(axis=1)) / slope
    out = []
    for (a, z), xf, r, bend in zip(brackets, x.tolist(), radius.tolist(), bend.tolist()):
        if not (math.isfinite(xf) and a < Fraction(xf) < z):
            out.append([])
            continue
        xn, xd = xf.as_integer_ratio()
        guesses = [((xn, xd), r)]
        r2 = 2 * bend * r * r
        if r2 < r:
            num, den, dnum, dden = h.value_parts(xn, xd)
            # x - f / h' with f = fn / (den L_d) and h' = dnum / dden, L = level
            fn = num * level.denominator - level.numerator * den
            q = den * level.denominator * dnum
            pn, pd = xn * q - fn * dden * xd, xd * q
            # At least 2^-120 |x|: the slope's curvature can cancel to 0 in
            # float.  A root near 2^-1000 has a radius below the doubles.
            r2 = max(r2, abs(_saturated_float(pn, pd)) * 2.0**-120)
            if r2 < 2.0**-1000:
                r2 = max(Fraction(2 * bend) * Fraction(r) ** 2, Fraction(abs(pn), pd << 120))
            guesses.insert(0, ((pn, pd), r2))
        out.append(guesses)
    return out


def _bisect_exact(sign: Callable[[int, int], int], lo: Fraction, hi: Fraction,
                  guesses=(), gap=(None, None)) -> Fraction:
    """Root of an increasing function on [lo, hi] from its signs alone.

    ``sign(p, q)`` is -1, 0 or +1 at p/q, with sign < 0 at lo and > 0 at hi;
    `solve_level` passes `_level_sign`, which takes p/q in any terms, and
    the same function for every gap, since [lo, hi] holds no pole.  The
    bracket is kept as integer numerators over a shared denominator that
    doubles per step, so the midpoints are the exact rationals (lo + hi)/2
    without any gcd, and the result is the same Fraction.

    A guess ((xn, xd), radius) from `_locate` lets the search jump to the
    dyadic sub-bracket of depth k holding x = xn/xd: the deepest at least 4
    radii wide that plain stepping would still reach, made shallower while
    x lies within a radius of one of its ends.  Two sign checks confirm the
    jump: the root then lies strictly inside, so plain stepping passes
    through the same brackets and meets no exact zero on its way.  If x is
    within a radius of a split point at every depth (a root at a dyadic
    point of [lo, hi]) or a sign does not confirm, the next guess is tried,
    and after the last the search steps from [lo, hi].  The guesses are
    tried again whenever the goal below moves, and a bracket with an end at
    0 first leaves 0 in one confirmed step (`_leave_zero`), so a root near
    2^-1000 takes a few dozen sign checks, not one per halving.

    The search stops once the bracket is narrower than 2^-64 max(1, |x|),
    unless a pole of ``gap`` (its ends L, R; None if infinite) lies closer
    to it than its width: it then goes on until the bracket is 2^-64 times
    its distance from the pole.  A bracket in (-1, 1) goes on likewise
    until it is 2^-64 times its distance from 0, so every root has a
    relative accuracy; a bracket that still holds 0 then checks the sign
    there once, and keeps the side of 0 that holds the root.
    """
    guesses = [(point, r) for point, r in guesses if 0 < r < math.inf]
    den = lo.denominator * hi.denominator
    a, b = lo.numerator * hi.denominator, hi.numerator * lo.denominator
    goal = max(abs(Fraction(a + b, 2 * den)), Fraction(1)) / Fraction(2**_BISECT_BITS)
    a, b, den = _jumped(sign, a, b, den, goal, guesses)
    while True:
        mid, a, b, den = a + b, 2 * a, 2 * b, 2 * den
        v = sign(mid, den)
        if v == 0:
            return Fraction(mid, den)
        if v < 0:
            a = mid
        else:
            b = mid
        if (b - a) * goal.denominator < goal.numerator * den:
            L, R = gap
            near = min(math.inf if L is None else Fraction(a, den) - L,
                       math.inf if R is None else R - Fraction(b, den))
            if Fraction(b - a, den) > near:
                goal = near / 2**_BISECT_BITS
                a, b, den = _jumped(sign, a, b, den, goal, guesses)
                continue
            # the bracket's distance from 0, over den
            zero = a if a > 0 else -b if b < 0 else 0
            if zero >= den or (b - a) << _BISECT_BITS < zero:
                break
            if a < 0 < b:  # a root at 0 is found here; any other is kept off 0
                v = sign(0, 1)
                if v == 0:
                    return Fraction(0)
                a, b = (0, b) if v < 0 else (a, 0)
            if zero:
                goal = Fraction(zero, den << _BISECT_BITS)
            else:  # an end at 0: plain stepping checks the rules at every step
                left = _leave_zero(sign, a, b, den, guesses)
                if left is None:
                    goal = Fraction(b - a, den)
                    continue
                a, b, den, goal = left
            a, b, den = _jumped(sign, a, b, den, goal, guesses)
    # Roots at simple rationals deserve to come back exact: try the lowest
    # denominator candidates inside the final bracket before giving up.
    # A candidate equal to the one before it has already failed.
    mid, last = a + b, None
    for p, q in _snap_candidates(mid, 2 * den):
        if (p, q) != last and a * q < p * den < b * q and sign(p, q) == 0:
            return Fraction(p, q)
        last = (p, q)
    return Fraction(mid, 2 * den)


def _snap_candidates(n: int, d: int) -> list:
    """(p, q) in lowest terms, q > 0, of `Fraction(n, d).limit_denominator(B)`
    for each B of `_SNAP_BOUNDS`, from one continued-fraction pass.

    n/d (d > 0) need not be in lowest terms: the partial quotients, and the
    comparisons below, are the same for any common factor.  A bound
    reached by no convergent before the expansion ends gets n/d itself.
    """
    den = d
    p0, q0, p1, q1 = 0, 1, 1, 0
    out = []
    for bound in _SNAP_BOUNDS:
        while d:
            a = n // d
            q2 = q0 + a * q1
            if q2 > bound:
                break
            p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
            n, d = d, n - a * d
        if not d:  # the last convergent p1/q1 is n/d in lowest terms
            out.append((p1, q1))
            continue
        # The candidates are p1/q1, at distance d / (q1 den) from n/d, and
        # the semiconvergent of largest denominator qk within the bound, on
        # the other side and 1 / (q1 qk) from p1/q1.  `limit_denominator`
        # keeps p1/q1 on a tie.
        k = (bound - q0) // q1
        qk = q0 + k * q1
        out.append((p1, q1) if 2 * d * qk <= den else (p0 + k * p1, qk))
    return out


def _jump(sign, a: int, b: int, den: int, goal: Fraction, point, radius):
    """The bracket (a, b, den) of `_bisect_exact` moved to the sub-bracket
    holding ``point`` = (xn, xd), or None (see there).  ``radius`` is a
    float or a Fraction, and every comparison is exact, so brackets and
    radii far below the doubles work alike.  A jump of fewer than three
    levels saves no sign check and is not made."""
    width = b - a
    rn, rd = radius.as_integer_ratio()
    # Plain stepping stops at the first step s with width < goal * 2^s, so
    # it passes every depth up to this one; the sub-bracket stays at least
    # 4 radii wide.
    k = min((width * goal.denominator).bit_length() - (goal.numerator * den).bit_length(),
            (width * rd).bit_length() - (4 * rn * den).bit_length()) - 1
    xn, xd = point
    for k in range(k, 2, -1):
        i, rem = divmod((xn * den - a * xd) << k, width * xd)
        if not 0 <= i < 2**k:
            return None
        # the point's distance from the nearer end of its sub-bracket
        if min(rem, width * xd - rem) * rd > rn * xd * (den << k):
            break
    else:  # x lies within a radius of a split point at every depth
        return None
    ka, kden = (a << k) + i * width, den << k
    if sign(ka, kden) < 0 and sign(ka + width, kden) > 0:
        return ka, ka + width, kden
    return None


def _jumped(sign, a: int, b: int, den: int, goal: Fraction, guesses):
    """(a, b, den) moved by the first guess that `_jump` confirms, or as is."""
    for guess in guesses:
        jumped = _jump(sign, a, b, den, goal, *guess)
        if jumped is not None:
            return jumped
    return a, b, den


def _leave_zero(sign, a: int, b: int, den: int, guesses):
    """The state (a, b, den, goal) of `_bisect_exact` at the step where
    plain stepping moves its end at 0 off 0, or None.

    With an end at 0, the stop rules run at every step and only reset the
    goal, while the root lies nearer to 0 than the midpoint.  For a root in
    (w 2^-j, w 2^(1-j)), w the width, the end at 0 moves to w 2^-j at step
    j, and the goal becomes 2^-64 of it.  The first guess lying more than
    its radius inside that range sets j, and the signs at both of its ends
    confirm the root strictly inside, as for `_jump`.
    """
    side = 1 if a == 0 else -1  # the root's side of 0
    w = b - a
    for (xn, xd), radius in guesses:
        rn, rd = radius.as_integer_ratio()
        p, W = abs(xn) * den, w * xd  # |x| and w over xd * den
        if xn * side <= 0 or p >= W:
            continue
        j = W.bit_length() - p.bit_length()
        if W >= p << j:
            j += 1
        room = rn * xd * (den << j)
        if ((p << j) - W) * rd <= room or (2 * W - (p << j)) * rd <= room:
            continue
        kden = den << j
        lo, hi = (w, 2 * w) if side > 0 else (-2 * w, -w)
        if sign(lo, kden) < 0 and sign(hi, kden) > 0:
            return lo, hi, kden, Fraction(w, kden << _BISECT_BITS)
    return None


def _bracket_end(sign: Callable[[int, int], int], base: Fraction, step: Fraction,
                 ratio: Union[int, Fraction], want: int,
                 above: Union[Fraction, None] = None) -> Tuple[Fraction, int]:
    """(x, sign at x) at the first candidate x = base + step * ratio^k where
    the sign is ``want`` or 0, skipping candidates not above ``above`` (when
    given).  There is one: h increases from -infinity above a pole to
    +infinity below the next, and `solve_level` searches toward -infinity or
    +infinity only when the limit of h there lies beyond the level.
    `solve_level` passes the `_filtered_sign` of its `_level_sign`: the
    candidates lie far from the roots, where double decides the sign."""
    while True:
        x = base + step
        step *= ratio
        if above is None or x > above:
            v = sign(x.numerator, x.denominator)
            if v == want or v == 0:
                return x, v


def solve_level(h: HerglotzRep, level: NumberLike, window=None) -> list:
    """All real solutions of h(x) = level, using monotonicity between poles.

    The function increases strictly on every interval free of poles, so each
    such gap carries at most one solution, bracketed and bisected on exact
    rationals.  Each sign check evaluates h in integers, the loop of
    `HerglotzRep.value_parts` without the slope (`_level_sign`), and one
    sign function serves every gap; the bracket ends are decided in double
    first (`_filtered_sign`).  All brackets are first located in
    float at once (`_locate`), and the bisection starts next to that root
    when two sign checks confirm it.  ``window`` (lo, hi) filters the
    output, and a gap whose root lies outside it is not searched.  A root
    next to a pole is resolved against its distance from the pole.
    """
    if not h.omega.is_atomic:
        raise ValueError("exact level solving needs a purely atomic measure")
    level = as_fraction(level)
    sign = _level_sign(h, level)
    far = _filtered_sign(h, level, sign)
    wlo, whi = (as_fraction(v) for v in window) if window is not None else (None, None)

    ts = [t for t, _ in h.omega.atoms]
    roots: list[Fraction] = []
    if not ts:
        if h.b > 0:
            roots.append((level - h.a) / h.b)
        # constant functions have no isolated solutions worth reporting
    else:
        hinf = h.value_at_infinity() if h.b == 0 else None
        gaps: list[tuple] = [(None, ts[0])]
        gaps += [(ts[i], ts[i + 1]) for i in range(len(ts) - 1)]
        gaps.append((ts[-1], None))
        brackets, bracket_gaps = [], []
        for L, R in gaps:
            if L is None and h.b == 0 and not (hinf < level):
                continue
            if R is None and h.b == 0 and not (hinf > level):
                continue
            # Skip a gap that ends before the window or starts after it, or
            # whose sign at a window end inside it puts the root beyond it.
            if window is not None and (
                    (R is not None and R <= wlo) or (L is not None and whi <= L)
                    or ((L is None or L < wlo) and sign(wlo.numerator, wlo.denominator) > 0)
                    or ((R is None or whi < R) and sign(whi.numerator, whi.denominator) < 0)):
                continue
            d = (R - L) / 16 if L is not None and R is not None else Fraction(1)
            # Left endpoint of the bracket: sign negative; then the right, positive.
            if L is not None:
                lo, v = _bracket_end(far, L, d, Fraction(1, 4), -1)
            else:
                lo, v = _bracket_end(far, R, Fraction(-1), 2, -1)
            if v == 0:
                roots.append(lo)
                continue
            if R is not None:
                hi, v = _bracket_end(far, R, -d, Fraction(1, 4), 1, above=lo)
            else:
                hi, v = _bracket_end(far, L, Fraction(1), 2, 1, above=lo)
            if v == 0:
                roots.append(hi)
                continue
            brackets.append((lo, hi))
            bracket_gaps.append((L, R))
        if brackets:
            located = _locate(h, level, brackets)
            roots += [_bisect_exact(sign, lo, hi, guesses, gap)
                      for (lo, hi), guesses, gap in zip(brackets, located, bracket_gaps)]
    roots.sort()
    if window is not None:
        roots = [r for r in roots if wlo <= r <= whi]
    return roots


# ---------------------------------------------------------------------------
# Rational form (for exact disjointness certificates)
# ---------------------------------------------------------------------------


def atomic_rational_parts(h: HerglotzRep) -> Tuple[Poly, Poly]:
    """Write a purely atomic function as P/Q with Q = prod (t_j - x).

    P = (c + b x) Q + sum_j w_j (1 + t_j^2) Q_j with Q_j = Q / (t_j - x),
    one synthetic division per atom, so the build is O(n^2) for n atoms.
    It runs on the integers of `HerglotzRep._integer_terms`: with D, M and
    c as there, M D^n P and D^n Q have integer coefficients.  P and Q are
    coprime by construction (P(t_j) is a nonzero multiple of the j-th
    mass), which is what makes pole-disjointness certificates exact.
    """
    if not h.omega.is_atomic:
        raise ValueError("rational form needs a purely atomic measure")
    D, M, c0, c1, terms = h._integer_terms
    # D^n Q = prod (T_j - D x)
    den = [1]
    for Tj, _ in terms:
        den = ([Tj * den[0]] + [Tj * den[k] - D * den[k - 1] for k in range(1, len(den))]
               + [-D * den[-1]])
    # M D^n (c + b x) Q
    num = [c0 * den[0]] + [c0 * den[k] + c1 * den[k - 1] for k in range(1, len(den))]
    num.append(c1 * den[-1])
    for Tj, r in terms:
        # D^(n-1) Q_j from D^n Q = (T_j - D x) D^(n-1) Q_j, highest term first
        quo = -den[-1] // D
        num[len(den) - 2] += r * quo
        for k in range(len(den) - 2, 0, -1):
            quo = (Tj * quo - den[k]) // D
            num[k - 1] += r * quo
    den_scale = D ** len(terms)
    return (Poly(Fraction(c, M * den_scale) for c in num),
            Poly(Fraction(c, den_scale) for c in den))


def poly_gcd_degree(p: Poly, q: Poly) -> int:
    """Degree of gcd(p, q) over the rationals (0 means coprime)."""
    a, b = p, q
    while not b.is_zero:
        # remainder of a by b
        ra = list(a.coeffs)
        bc = b.coeffs
        while len(ra) >= len(bc) and any(c != 0 for c in ra):
            factor = ra[-1] / bc[-1]  # 0 on a zero leading term, which pop() drops
            shift = len(ra) - len(bc)
            for i, cb in enumerate(bc):
                ra[shift + i] -= factor * cb
            ra.pop()
        a, b = b, Poly(ra)
    return max(a.degree, 0)
