"""The smooth branch through a singular endpoint, as an exact Taylor table.

About the left end write a solution of the (G, M0, M1) problem as
r = s(x), x = t.  The map t -> pi/G - t, r -> k pi/G - r takes the problem
to the (G, M1, M0) one, because the phase 2(k - 1)/G is even (see
``ShootingConfig.validate``), so about the right end r = k pi/G - s(x),
x = pi/G - t, with the multiplicities swapped.  One table per
(G, M_near, M_far) serves both ends; M_near is the multiplicity of the end.

The smooth branch is s = sum_n c_n x^n with c_1 = a, the slope.  In the
cleared-denominator tension of :mod:`ode`, with y = 2(s - x), the product
rules turn the coefficients into sines and cosines of Gx and 2Gx:

    T = A s'' + P (s' - cos y) - U sin y,   A = 4 sin^2(Gx),
    P = G S sin(2Gx) + 2G D sin(Gx),  U = G(G-1) S + G S cos(2Gx) + G^2 D cos(Gx),

S = M_near + M_far, D = M_near - M_far.  The order-n term is
T_n + 4G^2 (n - 1)(n + M_near) c_n, where T_n is that term with c_n = 0,
so c_n = -T_n / (4G^2 (n - 1)(n + M_near)): the O(x) terms cancel for
every slope, which makes a free.  The series is odd in x.  Every base
angle is a multiple of pi, so A, P, U are power series with rational
coefficients and each c_n is a polynomial of degree n in a with
rational coefficients.  :func:`table` computes them exactly, over integers,
to :data:`ORDER`, and keeps their floats for Horner's rule.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

ORDER = 21
#: The last two terms of the slope series, n |c_n| x^(n-1) for n = ORDER - 2
#: and ORDER, at most this times 1 + |a| (|c_n| the polynomial with its
#: coefficients' magnitudes, at |a|) picks a start offset.
TAIL_TOL = 1e-14
#: Offsets tried: pi/(16 G) * 2^-j for j below this.
_CANDIDATES = 40


@dataclass(frozen=True, slots=True)
class Table:
    """The branch of one (G, M_near, M_far), in floats: ``coefficients``
    holds those of c_1, c_3, ..., c_ORDER, each highest power of a first
    (c_n at :func:`_span`); ``bounds`` their magnitudes for c_(ORDER-2) and
    c_ORDER; ``offsets`` the candidate offsets of G (:func:`_candidates`);
    ``powers`` a cache of the coefficients of s and s' in powers of a at an
    offset (:func:`_powers`).  The 209 linear-solution problems of the
    classified actions need 211 tables, so each holds flat arrays of
    doubles, not tuples of float objects."""

    coefficients: array
    bounds: array
    offsets: tuple
    powers: dict = field(default_factory=dict, compare=False, repr=False)


def _span(n: int) -> tuple[int, int]:
    """Where the n + 1 coefficients of c_n, n odd, lie in a table's
    ``coefficients``."""
    i = n // 2
    return i * (i + 1), i * (i + 1) + n + 1


def _product(p: list, q: list) -> list:
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _combine(terms) -> tuple[list, int]:
    """sum f p / (e d) over the (f, e, (integer polynomial p, d)) of
    ``terms``, as (integer polynomial, denominator) in lowest terms."""
    den = 1
    for _, e, (_, d) in terms:
        den = math.lcm(den, e * d)
    acc: list = []
    for f, e, (p, d) in terms:
        scale = f * (den // (e * d))
        acc += [0] * (len(p) - len(acc))
        for i, x in enumerate(p):
            acc[i] += scale * x
    g = math.gcd(den, *acc)
    return [x // g for x in acc], den // g


def _exact(G: int, M: int, M_far: int, order: int) -> list:
    """(integer polynomial, denominator) of c_n(a) for odd 3 <= n <= order.
    A, P and U are kept as n! times their order-n coefficients."""
    S, D = M + M_far, M - M_far
    sign = [(-1) ** (n // 2) for n in range(order + 1)]
    # Taylor coefficients times n! of sin or cos (by parity) of Gx and 2Gx
    g1 = [sign[n] * G**n for n in range(order + 1)]
    g2 = [sign[n] * (2 * G) ** n for n in range(order + 1)]
    # 2 - 2 cos(2Gx); its terms of order 0 and 2 enter only c_n's factor
    A = [-2 * g2[n] if n % 2 == 0 else 0 for n in range(order + 1)]
    P = [G * S * g2[n] + 2 * G * D * g1[n] if n % 2 else 0 for n in range(order + 1)]
    U = [G * S * g2[n] + G * G * D * g1[n] if n % 2 == 0 else 0 for n in range(order + 1)]
    U[0] += G * (G - 1) * S
    fact = [math.factorial(n) for n in range(order + 1)]

    def series(sign, polys, n):
        """sign * sum_j (j / n) y_j polys[n - j] over the odd j < n."""
        return _combine([
            (sign * j, n, (_product(y[j][0], polys[n - j][0]), y[j][1] * polys[n - j][1]))
            for j in range(1, n, 2)
        ])

    # c, y = 2(s - x), sin(y) and cos(y) by order, as (polynomial, denominator)
    c, y = {1: ([0, 1], 1)}, {1: ([-2, 2], 1)}
    sin_y, cos_y = {1: y[1]}, {0: ([1], 1)}
    for n in range(3, order + 1, 2):
        # (n - 1) cos_(n-1) = -sum j y_j sin_(n-1-j) and n sin_n = sum j y_j
        # cos_(n-j); sin_n without y_n for now, which enters c_n's factor
        cos_y[n - 1] = series(-1, sin_y, n - 1)
        sin_y[n] = series(1, cos_y, n)
        # T_n of T = A s'' + P (s' - cos y) - U sin y without c_n
        terms = [(A[n + 2 - m] * m * (m - 1), fact[n + 2 - m], c[m]) for m in range(3, n, 2)]
        terms += [(P[n + 1 - m] * m, fact[n + 1 - m], c[m]) for m in range(1, n - 1, 2)]
        terms += [(-P[n - k], fact[n - k], cos_y[k]) for k in range(0, n, 2)]
        terms += [(-U[n - k], fact[n - k], sin_y[k]) for k in range(1, n + 1, 2)]
        factor = -4 * G * G * (n - 1) * (n + M)
        c[n] = _combine([(f, e * factor, p) for f, e, p in terms])
        y[n] = _combine([(2, 1, c[n])])
        sin_y[n] = _combine([(1, 1, sin_y[n]), (1, 1, y[n])])
    return [c[n] for n in range(3, order + 1, 2)]


def exact(G: int, M: int, M_far: int) -> tuple:
    """The coefficients of c_n(a), n = 3, 5, ..., ORDER, lowest power of a
    first, as Fractions, for (G, M_near = M, M_far)."""
    from fractions import Fraction

    return tuple(tuple(Fraction(x, d) for x in p) for p, d in _exact(G, M, M_far, ORDER))


@lru_cache(maxsize=None)
def _candidates(G: int) -> tuple:
    """The candidate offsets x = pi/(16G) 2^-j, largest first, each with the
    factors n x^(n-1), n = ORDER - 2 and ORDER, as tuples and as the
    columns of an array."""
    x0 = math.pi / G / 16.0
    rows = []
    for j in range(_CANDIDATES):
        scale = 2.0**-j
        rows.append((x0 * scale, *((n * x0 ** (n - 1)) * scale ** (n - 1)
                                   for n in (ORDER - 2, ORDER))))
    return tuple(rows), np.array(rows).T


@lru_cache(maxsize=None)
def table(G: int, M: int, M_far: int) -> Table:
    """The branch table of (G, M_near = M, M_far), built once from the exact
    coefficients, each rounded once."""
    floats = [1.0, 0.0]         # c_1 = a
    for p, d in _exact(G, M, M_far, ORDER):
        floats += [x / d for x in reversed(p)]
    return Table(
        coefficients=array("d", floats),
        bounds=array("d", map(abs, floats[_span(ORDER - 2)[0]:])),
        offsets=_candidates(G),
    )


def _horner(p, a):
    """Horner's rule over the coefficients p, highest first."""
    h = 0.0
    for coefficient in p:
        h = h * a + coefficient
    return h


def _powers(tab: Table, x: float) -> array:
    """The coefficients of s = sum_n c_n(a) x^n and then those of s', in
    powers of a, highest first, at the offset x: for each power, Horner's
    rule in x^2 over the c_n that have it."""
    got = tab.powers.get(x)
    if got is None:
        x2 = x * x
        s, v = [], []
        for m in range(ORDER, -1, -1):
            low = max(m, 1) | 1         # the lowest odd n with a power a^m
            rho = sigma = 0.0
            for n in range(ORDER, low - 1, -2):
                c = tab.coefficients[_span(n)[0] + n - m]
                rho, sigma = rho * x2 + c, sigma * x2 + n * c
            s.append(rho * x ** low)
            v.append(sigma * x ** (low - 1))
        if len(tab.powers) > 64:
            tab.powers.clear()
        got = tab.powers[x] = array("d", s + v)
    return got


def _in_powers(s_poly, v_poly, a, tangent: bool) -> tuple:
    """(s, s', ds/da, ds'/da), or (s, s'), from the coefficients of s and s'
    in powers of a, highest first, by Horner's rule: floats, or rows of
    one coefficient per lane, elementwise."""
    s, v, ds, dv = s_poly[0], v_poly[0], 0.0, 0.0
    for cs, cv in zip(s_poly[1:], v_poly[1:]):
        if tangent:
            ds, dv = ds * a + s, dv * a + v
        s, v = s * a + cs, v * a + cv
    return (s, v, ds, dv) if tangent else (s, v)


def start(tab: Table, a: float, x: float) -> tuple:
    """(s, s', ds/da, ds'/da) of the truncated branch at slope a and offset
    x: Horner's rule in a over the coefficients at x (:func:`_powers`)."""
    powers = _powers(tab, x)
    return _in_powers(powers[:ORDER + 1], powers[ORDER + 1:], a, tangent=True)


def starts(tab: Table, a: np.ndarray, x: np.ndarray) -> tuple:
    """(s, s') of :func:`start` at each slope of a and offset of x, bit
    for bit: the same Horner's rule over the coefficients of each lane's
    offset."""
    unique, lane = np.unique(x, return_inverse=True)
    rows = np.array([_powers(tab, offset) for offset in unique.tolist()])[lane].T
    return _in_powers(rows[:ORDER + 1], rows[ORDER + 1:], a, tangent=False)


def nodes(tab: Table, a: float, x: np.ndarray) -> tuple:
    """(s, s') of the truncated branch at slope a and each offset of x:
    each c_n(a) by Horner's rule in a, then Horner's rule in x^2."""
    x2 = x * x
    s = v = 0.0
    for n in range(ORDER, 0, -2):
        lo, hi = _span(n)
        c = _horner(tab.coefficients[lo:hi], a)
        s, v = s * x2 + c, v * x2 + n * c
    return x * s, v


def offset(tab: Table, a: float, eps: float, limit: float) -> float:
    """The largest candidate offset at most ``limit`` whose last two terms
    meet TAIL_TOL at slope a, or eps if it is larger or none does."""
    bound = TAIL_TOL * (1.0 + abs(a))
    near, last = _horner(tab.bounds[:ORDER - 1], abs(a)), _horner(tab.bounds[ORDER - 1:], abs(a))
    for x, k_near, k_last in tab.offsets[0]:
        if x <= eps:
            break
        if x <= limit and near * k_near <= bound and last * k_last <= bound:
            return x
    return eps


def offsets(tab: Table, a: np.ndarray, eps: float, limit: float) -> np.ndarray:
    """:func:`offset` of each slope of ``a``, elementwise, bit for bit."""
    bound = (TAIL_TOL * (1.0 + np.abs(a)))[:, None]
    near = _horner(tab.bounds[:ORDER - 1], np.abs(a))[:, None]
    last = _horner(tab.bounds[ORDER - 1:], np.abs(a))[:, None]
    x, k_near, k_last = tab.offsets[1]
    meets = (x > eps) & (x <= limit) & (near * k_near <= bound) & (last * k_last <= bound)
    return np.where(meets.any(axis=1), x[meets.argmax(axis=1)], eps)
