"""Exact arithmetic for finite measures made of atoms and polynomial densities.

A measure here is a finite list of weighted points plus finitely many
density pieces, each piece a polynomial that is nonnegative on a bounded
interval.  Every operation (mass of a window, sum, scaling) is closed-form
over rationals, so tests can demand equality instead of tolerances.

Positions, masses and coefficients are stored as `fractions.Fraction`.
Floats passed in are converted to their exact binary value; two atoms merge
only when their positions compare equal as rationals.
"""

from __future__ import annotations

import math
import re
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Tuple, Union

import numpy as np

NumberLike = Union[int, float, str, Fraction]


# `Fraction` builds 10**|e| for a decimal exponent e before anything can
# check the range, at a cost that grows faster than linearly ("1e-3000000"
# alone takes seconds).  Strings whose exponent lies beyond this bound are
# refused unread; every finite float lies within 10**(+-324).
MAX_DECIMAL_EXPONENT = 10**4
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)")


def as_fraction(x: NumberLike) -> Fraction:
    """Convert ``x`` to an exact Fraction; floats keep their binary value.

    Strings take the forms `Fraction` reads, with a nonzero denominator and a
    decimal exponent of at most `MAX_DECIMAL_EXPONENT` in size (ValueError otherwise).
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("booleans are not numbers here")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"non-finite value {x!r} has no exact rational form")
        return Fraction(x)
    if isinstance(x, str):
        exp = _EXPONENT.search(x)
        if exp and abs(int(exp.group(1))) > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"{x[:40]!r} has a decimal exponent beyond "
                             f"+-{MAX_DECIMAL_EXPONENT}")
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"{x[:40]!r} has a zero denominator") from None
    raise TypeError(f"cannot interpret {type(x).__name__} as an exact number")


def number_to_json(x: Fraction) -> Union[int, float, str]:
    """Encode a Fraction as an int, a float, or a "p/q" string.

    Ints and dyadic rationals survive a JSON round trip bit-exactly via the
    native number types; everything else falls back to the string form.
    """
    x = as_fraction(x)
    if x.denominator == 1 and abs(x.numerator) <= 2**53:
        return int(x)
    try:
        f = float(x)
    except OverflowError:
        return f"{x.numerator}/{x.denominator}"
    if math.isfinite(f) and Fraction(f) == x:
        return f
    return f"{x.numerator}/{x.denominator}"


# Every number read from JSON is also used as a float, so it must not
# overflow one.  Compared as integers: `number_from_json` runs once per atom.
_FLOAT_MAX = int(sys.float_info.max)


def number_from_json(v: Union[int, float, str]) -> Fraction:
    """The exact value of a JSON number or numeric string, within the float range."""
    if not isinstance(v, (int, float, str)):
        raise TypeError(f"expected a JSON number or 'p/q' string, got {type(v).__name__}")
    x = as_fraction(v)
    if abs(x.numerator) > _FLOAT_MAX * x.denominator:
        raise ValueError(f"{v!r} lies beyond the float range")
    return x


def check_keys(obj, what: str, required: Tuple[str, ...],
               optional: Tuple[str, ...] = ()) -> dict:
    """``obj`` when it is a JSON object with every ``required`` key and no
    key outside ``required`` and ``optional``; ValueError otherwise, so a
    misspelt key is an error rather than a default silently taken."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object, got {obj!r}")
    missing = [k for k in required if k not in obj]
    unknown = sorted(set(obj) - set(required) - set(optional))
    if missing or unknown:
        raise ValueError(f"{what} has missing keys {missing} and unknown keys {unknown}")
    return obj


class Poly:
    """Dense univariate polynomial with exact rational coefficients.

    Coefficients run from the constant term upward.  The zero polynomial is
    the empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[NumberLike]):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- basic protocol -------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("Poly", self.coeffs))

    def __repr__(self):
        return f"Poly({[str(c) for c in self.coeffs]})"

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    # -- evaluation and calculus ----------------------------------------

    def __call__(self, x):
        """Evaluate by Horner's rule.  Exact when ``x`` is a Fraction."""
        acc = x * 0  # zero of the right type
        for c in reversed(self.coeffs):
            if isinstance(x, Fraction):
                acc = acc * x + c
            else:
                acc = acc * x + float(c)
        return acc

    def derivative(self) -> "Poly":
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def antiderivative(self) -> "Poly":
        return Poly([Fraction(0)] + [c / (k + 1) for k, c in enumerate(self.coeffs)])

    def integrate(self, a: NumberLike, b: NumberLike) -> Fraction:
        a, b = as_fraction(a), as_fraction(b)
        anti = self.antiderivative()
        return anti(b) - anti(a)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __mul__(self, other: "Poly") -> "Poly":
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    def scaled(self, c: NumberLike) -> "Poly":
        c = as_fraction(c)
        return Poly([c * a for a in self.coeffs])

    def min_on(self, lo: Fraction, hi: Fraction) -> float:
        """Lower estimate of the minimum on [lo, hi].

        Exact for degree <= 1; otherwise the candidates are the endpoints and
        the numerically computed critical points, which is enough to validate
        nonnegativity of the low-degree densities used here.
        """
        flo, fhi = float(lo), float(hi)
        vals = [float(self(lo)), float(self(hi))]
        der = self.derivative()
        if der.degree >= 1:
            roots = np.roots([float(c) for c in reversed(der.coeffs)])
            for r in roots:
                if abs(r.imag) < 1e-9 and flo <= r.real <= fhi:
                    vals.append(float(self(float(r.real))))
        return min(vals)


ZERO_POLY = Poly(())


@dataclass(frozen=True)
class Piece:
    """A density piece: ``poly`` on the closed interval [lo, hi]."""

    lo: Fraction
    hi: Fraction
    poly: Poly

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise ValueError(f"piece needs lo < hi, got [{self.lo}, {self.hi}]")
        if self.poly.is_zero:
            raise ValueError("zero densities should be dropped, not stored")
        if self.poly.min_on(self.lo, self.hi) < -1e-12:
            raise ValueError(
                f"density {self.poly!r} is negative on [{self.lo}, {self.hi}]"
            )

    def mass(self) -> Fraction:
        return self.poly.integrate(self.lo, self.hi)

    def to_json(self) -> dict:
        return {
            "interval": [number_to_json(self.lo), number_to_json(self.hi)],
            "coeffs": [number_to_json(c) for c in self.poly.coeffs],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Piece":
        check_keys(obj, "a density piece", ("interval", "coeffs"))
        lo, hi = (number_from_json(v) for v in obj["interval"])
        return cls(lo, hi, Poly([number_from_json(c) for c in obj["coeffs"]]))


def _interval_set(X) -> Tuple[Tuple[Fraction, Fraction], ...]:
    """Normalize a window spec into disjoint sorted closed intervals.

    Accepts a single (a, b) pair or an iterable of pairs; a == b marks a
    single point.  Overlapping or touching intervals are merged, which is
    harmless because intervals are closed and measures are countably additive.
    """
    items = list(X)
    if len(items) == 2 and all(isinstance(v, (int, float, str, Fraction)) for v in items):
        items = [tuple(items)]
    out = []
    for pair in items:
        a, b = pair
        a, b = as_fraction(a), as_fraction(b)
        if a > b:
            raise ValueError(f"interval [{a}, {b}] is reversed")
        out.append((a, b))
    out.sort()
    merged: list[list[Fraction]] = []
    for a, b in out:
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return tuple((a, b) for a, b in merged)


def _saturated_float(n: int, d: int) -> float:
    """n/d (d > 0) correctly rounded to double, or an infinity of its sign
    beyond the double range: a nondecreasing function of n/d."""
    try:
        return n / d
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def _in_set(x: Fraction, ivs) -> bool:
    return any(a <= x <= b for a, b in ivs)


@dataclass(frozen=True)
class ScalarMeasure:
    """Finite positive measure: sorted atoms plus disjoint density pieces."""

    atoms: Tuple[Tuple[Fraction, Fraction], ...] = ()
    pieces: Tuple[Piece, ...] = ()

    def __post_init__(self):
        # Checked on numerators and denominators (a Fraction's denominator
        # is positive), without Fraction comparisons: many small measures
        # are built per query.
        prev = None
        for (x, w) in self.atoms:
            if not (isinstance(x, Fraction) and isinstance(w, Fraction)):
                raise TypeError("atoms must hold Fractions; use ScalarMeasure.of")
            if w.numerator <= 0:
                raise ValueError(f"atom at {x} has nonpositive mass {w}")
            if prev is not None and not (prev.numerator * x.denominator
                                         < x.numerator * prev.denominator):
                raise ValueError("atom positions must be strictly increasing")
            prev = x
        for i in range(len(self.pieces) - 1):
            if not self.pieces[i].hi <= self.pieces[i + 1].lo:
                raise ValueError("density pieces overlap")

    @classmethod
    def of(cls, atoms: Iterable = (), pieces: Iterable = ()) -> "ScalarMeasure":
        """Build from loose input, merging exact-duplicate atom positions."""
        acc: dict[Fraction, Fraction] = {}
        for x, w in atoms:
            x, w = as_fraction(x), as_fraction(w)
            if w < 0:
                raise ValueError(f"negative atom mass {w} at {x}")
            if w == 0:
                continue
            acc[x] = acc[x] + w if x in acc else w
        norm_pieces = []
        for item in pieces:
            if isinstance(item, Piece):
                norm_pieces.append(item)
            else:
                (lo, hi), coeffs = item
                p = coeffs if isinstance(coeffs, Poly) else Poly(coeffs)
                if p.is_zero:
                    continue
                norm_pieces.append(Piece(as_fraction(lo), as_fraction(hi), p))
        norm_pieces.sort(key=lambda p: (p.lo, p.hi))
        return cls(tuple(sorted(acc.items())), tuple(norm_pieces))

    @classmethod
    def point(cls, x: NumberLike, w: NumberLike = 1) -> "ScalarMeasure":
        return cls.of(atoms=[(x, w)])

    # -- queries ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.atoms and not self.pieces

    @property
    def is_atomic(self) -> bool:
        return not self.pieces

    def atom_positions(self) -> Tuple[Fraction, ...]:
        return tuple(x for x, _ in self.atoms)

    @cached_property
    def float_atoms(self) -> Tuple[Tuple[float, float], ...]:
        """The atoms as (position, mass) floats, converted once.

        numerator / denominator is the correctly rounded quotient that
        `float` of a Fraction computes, without its dispatch."""
        return tuple((x.numerator / x.denominator, w.numerator / w.denominator)
                     for x, w in self.atoms)

    @cached_property
    def _float_positions(self) -> list:
        """`_saturated_float` of each atom position, nondecreasing."""
        return [_saturated_float(x.numerator, x.denominator) for x, _ in self.atoms]

    def atom_mass_at(self, x: NumberLike) -> Fraction:
        """Mass of the atom at x (zero if there is none).

        Rounding to double is monotone, so a binary search on the cached
        positions in double finds the atoms whose double equals that of x;
        only those can sit at x, and only those are compared exactly.
        """
        x = as_fraction(x)
        xf = _saturated_float(x.numerator, x.denominator)
        keys = self._float_positions
        for i in range(bisect_left(keys, xf), bisect_right(keys, xf)):
            if self.atoms[i][0] == x:
                return self.atoms[i][1]
        return Fraction(0)

    def piece_intervals(self) -> Tuple[Tuple[Fraction, Fraction], ...]:
        return tuple((p.lo, p.hi) for p in self.pieces)

    def total_mass(self) -> Fraction:
        return sum((w for _, w in self.atoms), Fraction(0)) + sum(
            (p.mass() for p in self.pieces), Fraction(0)
        )

    def mass(self, X) -> Fraction:
        """Measure of a finite union of closed intervals and points."""
        ivs = _interval_set(X)
        total = sum((w for x, w in self.atoms if _in_set(x, ivs)), Fraction(0))
        for piece in self.pieces:
            for a, b in ivs:
                lo, hi = max(piece.lo, a), min(piece.hi, b)
                if lo < hi:
                    total += piece.poly.integrate(lo, hi)
        return total

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "ScalarMeasure") -> "ScalarMeasure":
        if not isinstance(other, ScalarMeasure):
            return NotImplemented
        atoms = list(self.atoms) + list(other.atoms)
        cuts = sorted(
            {p.lo for p in self.pieces}
            | {p.hi for p in self.pieces}
            | {p.lo for p in other.pieces}
            | {p.hi for p in other.pieces}
        )
        pieces: list[Piece] = []
        for lo, hi in zip(cuts, cuts[1:]):
            acc = ZERO_POLY
            for p in self.pieces + other.pieces:
                if p.lo <= lo and hi <= p.hi:
                    acc = acc + p.poly
            if acc.is_zero:
                continue
            if pieces and pieces[-1].hi == lo and pieces[-1].poly == acc:
                pieces[-1] = Piece(pieces[-1].lo, hi, acc)
            else:
                pieces.append(Piece(lo, hi, acc))
        return ScalarMeasure.of(atoms=atoms, pieces=pieces)

    def scaled(self, c: NumberLike) -> "ScalarMeasure":
        c = as_fraction(c)
        if c < 0:
            raise ValueError("measures stay positive; negative scale rejected")
        if c == 0:
            return ScalarMeasure()
        return ScalarMeasure.of(
            atoms=[(x, c * w) for x, w in self.atoms],
            pieces=[Piece(p.lo, p.hi, p.poly.scaled(c)) for p in self.pieces],
        )

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "atoms": [[number_to_json(x), number_to_json(w)] for x, w in self.atoms],
            "pieces": [p.to_json() for p in self.pieces],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ScalarMeasure":
        check_keys(obj, "a measure", ("atoms", "pieces"))
        atoms = [(number_from_json(x), number_from_json(w)) for x, w in obj["atoms"]]
        pieces = [Piece.from_json(p) for p in obj["pieces"]]
        return cls.of(atoms=atoms, pieces=pieces)


def sum_measures(measures: Iterable[ScalarMeasure]) -> ScalarMeasure:
    total = ScalarMeasure()
    for m in measures:
        total = total + m
    return total

