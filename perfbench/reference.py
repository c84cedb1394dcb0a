"""Expected outputs, computed without the package under test.

Star problems: each edge contributes u(0; z) and u'(0; z) for the solution
that obeys the outer condition u(L) cos b + u'(L) sin b = 0.  Free edges use
the closed form with k = sqrt(z) (even in k, so the branch does not matter):

    u(0)  = s cos kL + (c/k) sin kL,    u'(0) = s k sin kL - c cos kL.

Edges with polynomial potentials use a Taylor-series integrator of
-u'' + q u = z u, exact in the polynomial q and far more accurate than the
package's ODE tolerance of 1e-12.  Poles of m = u'(0)/u(0) are the zeros of
u(0); k >= 2 edges sharing a pole give an eigenvalue with layer count k - 1,
and each zero of sum m_l between poles is a simple eigenvalue.

Atomic problems use exact Fraction arithmetic: overlaps are recounted from
the atoms, and each reported zero of the summed function is certified by an
exact sign change.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.optimize import brentq

POLE_RTOL = 1e-10  # poles of different edges closer than this are shared
TAYLOR_TERMS = 30


def _cos_sin(beta: float):
    c, s = math.cos(beta), math.sin(beta)
    return (0.0 if abs(c) < 1e-15 else c), (0.0 if abs(s) < 1e-15 else s)


# ---------------------------------------------------------------------------
# Edge boundary values
# ---------------------------------------------------------------------------


def _free_values(length: float, beta: float, z):
    c, s = _cos_sin(beta)
    k = np.sqrt(np.asarray(z, dtype=complex))
    kl = k * length
    sinc = length * np.sinc(kl / math.pi)  # sin(kL)/k, finite at k = 0
    cos = np.cos(kl)
    return s * cos + c * sinc, s * z * sinc - c * cos


def _shift_poly(coeffs, x0: float):
    """Coefficients of q(x0 + t) in t, for q given constant-term first."""
    out = [0.0] * len(coeffs)
    for a in reversed(coeffs):
        for i in range(len(out) - 1, 0, -1):
            out[i] = out[i] * x0 + out[i - 1]
        out[0] = out[0] * x0 + a
    return out


def _taylor_step(u, du, z, q, h):
    """Advance (u, u') by h for u'' = (q(t) - z) u, q expanded at the start."""
    c = [u, du]
    for n in range(TAYLOR_TERMS - 2):
        acc = -z * c[n]
        for j, a in enumerate(q[: n + 1]):
            if a:
                acc = acc + a * c[n - j]
        c.append(acc / ((n + 1) * (n + 2)))
    val = c[-1]
    der = (TAYLOR_TERMS - 1) * c[-1]
    for n in range(TAYLOR_TERMS - 2, 0, -1):
        val = val * h + c[n]
        der = der * h + n * c[n]
    return val * h + c[0], der


def _potential_values(length: float, beta: float, pieces, z):
    """Integrate from the outer end x = L to the vertex x = 0."""
    z = np.asarray(z, dtype=complex)
    c, s = _cos_sin(beta)
    u = np.full(z.shape, s, dtype=complex)
    du = np.full(z.shape, -c, dtype=complex)
    cuts = sorted({0.0, length} | {float(p) for lo, hi, _ in pieces for p in (lo, hi)})
    zmax = float(np.abs(z).max(initial=0.0))
    for a, b in reversed(list(zip(cuts, cuts[1:]))):
        coeffs = [0.0]
        for lo, hi, cs in pieces:
            if float(lo) <= a and b <= float(hi):
                coeffs = [float(v) for v in cs]
        qmax = sum(abs(v) * max(abs(a), abs(b)) ** j for j, v in enumerate(coeffs))
        rate = math.sqrt(zmax + qmax) + 1.0
        steps = max(1, math.ceil((b - a) * rate / 0.5))
        h = -(b - a) / steps
        for i in range(steps):
            x0 = b + i * h
            u, du = _taylor_step(u, du, z, _shift_poly(coeffs, x0), h)
    return u, du


def edge_values(edge, z):
    """(u(0), u'(0)) of the outer-condition solution, for an array of z."""
    L = float(edge.length)
    if edge.pieces:
        return _potential_values(L, edge.angle, edge.pieces, z)
    return _free_values(L, edge.angle, z)


def weyl_values(edges, z) -> np.ndarray:
    """m_l(z) for every edge, shape (n, len(z))."""
    rows = []
    for e in edges:
        u, du = edge_values(e, z)
        rows.append(du / u)
    return np.array(rows)


def matrix_weyl(ms: np.ndarray) -> np.ndarray:
    """The joined n x n matrix M from the entry values m_1..m_n at one z.

    Entrywise formula of the paper for the continuity plus derivative-sum
    vertex: M_ij = -m_i m_j / m (i != j < n), M_ii = m_i (m - m_i) / m,
    M_in = M_ni = -m_i / m, M_nn = -1/m, with m = sum of all m_l.
    """
    n = len(ms)
    m = ms.sum()
    M = -np.outer(ms, ms) / m
    M[np.diag_indices(n)] += ms
    M[:, n - 1] = M[n - 1, :] = -ms / m
    M[n - 1, n - 1] = -1.0 / m
    return M


# ---------------------------------------------------------------------------
# Star spectra
# ---------------------------------------------------------------------------


def _real_u0(edge, x: float) -> float:
    return float(edge_values(edge, np.array([x]))[0][0].real)


def edge_poles(edge, window) -> list:
    """Zeros of u(0; z) in the window, by a fine scan in s = sign(z) sqrt|z|."""
    lo, hi = float(window[0]), float(window[1])
    to_s = lambda v: math.copysign(math.sqrt(abs(v)), v)
    step = math.pi / (40.0 * float(edge.length))
    count = max(2, math.ceil((to_s(hi) - to_s(lo)) / step) + 1)
    ss = np.linspace(to_s(lo), to_s(hi), count)
    zs = ss * np.abs(ss)
    vals = edge_values(edge, zs)[0].real
    roots = []
    for i in range(count - 1):
        if vals[i] == 0.0:
            roots.append(float(zs[i]))
        elif vals[i] * vals[i + 1] < 0:
            roots.append(brentq(lambda x: _real_u0(edge, x), zs[i], zs[i + 1],
                                xtol=1e-15, rtol=4 * np.finfo(float).eps, maxiter=200))
    if vals[-1] == 0.0:
        roots.append(float(zs[-1]))
    return roots


def _sum_m(edges, x: float) -> float:
    return float(weyl_values(edges, np.array([x])).real.sum())


def star_spectrum(edges, window) -> list:
    """Sorted (x, layer count, provenance) of the star on the window."""
    lo, hi = float(window[0]), float(window[1])
    poles = sorted((p, l) for l, e in enumerate(edges) for p in edge_poles(e, window))
    groups = []  # [position, carriers]
    for p, l in poles:
        if groups and abs(p - groups[-1][0]) <= POLE_RTOL * (1 + abs(p)):
            groups[-1][1].add(l)
        else:
            groups.append([p, {l}])
    out = [(p, len(ls) - 1, "overlap") for p, ls in groups if len(ls) >= 2]
    bounds = [lo] + [p for p, _ in groups] + [hi]
    for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
        if not b > a:
            continue
        # Just inside a pole the sum tends to -inf (left end) or +inf (right end).
        aa = a + 1e-9 * (b - a) if i > 0 else a
        bb = b - 1e-9 * (b - a) if i < len(bounds) - 2 else b
        fa, fb = _sum_m(edges, aa), _sum_m(edges, bb)
        if fa < 0 < fb:
            x = brentq(lambda t: _sum_m(edges, t), aa, bb,
                       xtol=1e-15, rtol=4 * np.finfo(float).eps, maxiter=200)
            out.append((float(x), 1, "kirchhoff-zero"))
        elif fa == 0.0:
            out.append((aa, 1, "kirchhoff-zero"))
    return sorted(out)


# ---------------------------------------------------------------------------
# Exact atomic systems
# ---------------------------------------------------------------------------


def carriers(measures, window) -> dict:
    """Atom position -> number of measures with an atom there, in the window."""
    lo, hi = window
    count: dict = {}
    for atoms in measures:
        for x, _w in atoms:
            if lo <= x <= hi:
                count[x] = count.get(x, 0) + 1
    return count


def summed_function(measures):
    """Exact S(x) = sum over atoms of w ((1 + t^2)/(t - x) - t), and its poles."""
    total: dict = {}
    for atoms in measures:
        for t, w in atoms:
            total[t] = total.get(t, Fraction(0)) + w
    atoms = sorted(total.items())

    def S(x: Fraction) -> Fraction:
        return sum((w * ((1 + t * t) / (t - x) - t) for t, w in atoms), Fraction(0))

    return S, [t for t, _ in atoms]


def _gap(poles, a, b):
    """The pole-free interval around [a, b]: nearest poles, or -inf / +inf."""
    left = max((t for t in poles if t <= a), default=-math.inf)
    right = min((t for t in poles if t >= b), default=math.inf)
    return left, right


def kirchhoff_gaps(S, poles, window) -> list:
    """Pole-free intervals that must hold exactly one zero of S in the window.

    S increases strictly between poles, from -inf just right of a pole to
    +inf just left of the next, so a gap holds a zero in the window exactly
    when its ends there (pole or window end) have those signs.
    """
    lo, hi = window
    bounds = [lo] + [t for t in poles if lo < t < hi] + [hi]
    pole_set = set(poles)
    gaps = []
    for a, b in zip(bounds, bounds[1:]):
        if (a in pole_set or S(a) <= 0) and (b in pole_set or S(b) >= 0):
            gaps.append(_gap(poles, a, b))
    return gaps


def certify_zero(S, poles, x: Fraction):
    """The pole-free interval in which S changes sign exactly at x, or None."""
    left, right = _gap(poles, x, x)
    if x in (left, right):
        return None
    if S(x) != 0:
        delta = max(abs(x), Fraction(1)) / Fraction(2**60)
        below, above = x - delta, x + delta
        if below <= left or above >= right or not (S(below) < 0 < S(above)):
            return None
    return left, right
