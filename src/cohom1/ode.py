"""Right-hand sides and residuals of the singular boundary value problems.

The normal tension of an equivariant map r(t) on a (G, M0, M1)-problem is,
after clearing denominators,

    4 sin^2(Gt) r''(t)
      + (G(M0+M1) sin(2Gt) + 2G(M0-M1) sin(Gt)) r'(t)
      - G(G-2) sin(2(r-t)) (M0+M1 + (M0-M1) cos(Gt))
      - 2G sin(2(r-t)+Gt) ((M0+M1) cos(Gt) + M0-M1)

on the interval (0, pi/G) with boundary limits r -> 0 and r -> k*pi/G.  This
module evaluates that closed form, its equal-multiplicity simplification,
and the un-simplified sums over the curvature directions that the closed
form compresses, so each can serve as an independent check on the others.
The integrator's right-hand side, :func:`rhs`, solves it for r''; called
with a direction (dr, dr') it also returns the derivative of r'' along it,
the variational equation of an exact shooting Jacobian.  ``rhs_tangent``
is a second name for that one closure factory.

All trigonometric arguments are reduced modulo 2*pi before evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import actions
from .errors import PoleProximity, ProfileTooCoarse, UnequalMultiplicities

TAU = 2.0 * math.pi
# TAU split in two for :func:`_remainder_exact` (Cody and Waite): the top
# 26 significant bits and the rest, exactly; quotients below
# _SPLIT_QUOTIENTS in magnitude multiply both without rounding.
_TAU_HI = float.fromhex("0x1.921fb5p+2")
_TAU_LO = TAU - _TAU_HI
_SPLIT_QUOTIENTS = 2.0**26

#: Evaluation points closer than this to a pole of the coefficients are
#: rejected; the solver handles the singular endpoints by series starts.
DEFAULT_POLE_MARGIN = 1e-8


def _reduce(x: float) -> float:
    # IEEE remainder is exact, so reduction adds no rounding error.
    return math.remainder(x, TAU)


def pole_distance(t, G: int):
    """Distance from t, a float or an array, to the pole set (pi/G) * Z."""
    step = math.pi / G
    return abs(t - np.rint(t / step) * step)


def require_regular(t, G: int, margin: float) -> None:
    """Raise :class:`PoleProximity` unless t, a float or an array, stays at
    least ``margin`` from the pole set; an array names its first such point.

    A NaN or infinite t is never regular, and a NaN margin admits no
    distance.  A scalar t inside the :func:`regular_window` passes without
    the distance; outside it, t is checked for finiteness first.  An array
    with an infinite element makes numpy warn before the raise.
    """
    if isinstance(t, np.ndarray):
        far = pole_distance(t, G) >= margin
        if far.all():
            return
        t = float(t[~far][0])
    else:
        lo, hi = regular_window(G, margin)
        if lo < t < hi or (math.isfinite(t) and pole_distance(t, G) >= margin):
            return
    raise _pole_error(t, G, margin)


def _pole_error(t: float, G: int, margin: float) -> PoleProximity:
    return PoleProximity(f"t={t!r} is within {margin:g} of a pole of the (G={G}) problem")


def regular_window(G: int, margin: float) -> tuple[float, float]:
    """The open interval (lo, hi) = (2m, pi/G - 2m), m = |margin|, in which
    :func:`require_regular` cannot raise: the hot paths run the pole test
    only for times outside it.

    Proof, for a float lo < t < hi.  Then 0 < t < step = pi/G, so the
    rounded t/step lies in [0, 1] and rounds to 0 or 1 (0.5 rounds to 0).
    At 0 the distance is t > lo = 2m, and lo is exact.  At 1 the rounded
    quotient exceeds 0.5, a float, so t >= step/2 and t - step is exact by
    Sterbenz's lemma: the distance is step - t.  No float lies strictly between step - 2m and
    its rounding hi, so t < hi gives t <= step - 2m, and the distance is at
    least 2m.  Either way it is not below m, nor below a negative margin.
    A NaN or infinite margin, like a NaN or infinite t, fails a compare
    with the window, so those take the full test.
    """
    m = abs(margin)
    return 2.0 * m, math.pi / G - 2.0 * m


@dataclass(frozen=True)
class BvpSpec:
    """A concrete (G, M0, M1, k) boundary value problem on [0, pi/G].

    k is any integer here; specs generated from an action via an admissible
    j automatically satisfy k = j*g + 1.
    """

    G: int
    M0: int
    M1: int
    k: int

    def __post_init__(self):
        for name in ("G", "M0", "M1"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if isinstance(self.k, bool) or not isinstance(self.k, int):
            raise ValueError(f"k must be an integer, got {self.k!r}")

    @property
    def length(self) -> float:
        return math.pi / self.G

    @property
    def domain(self) -> tuple[float, float]:
        return (0.0, self.length)

    @property
    def boundary(self) -> tuple[float, float]:
        return (0.0, self.k * self.length)

    @classmethod
    def from_action(cls, action: actions.ActionDescriptor, j: int) -> "BvpSpec":
        """The problem solved by the j-th equivariant self-map of ``action``."""
        k = actions.admissible_k(action, j)
        return cls(G=action.bvp_g, M0=action.m0, M1=action.m1, k=k)

    def to_dict(self) -> dict:
        return {"G": self.G, "M0": self.M0, "M1": self.M1, "k": self.k}


@dataclass(frozen=True)
class TensionSample:
    """Candidate values (r, r', r'') at an interior time t."""

    t: float
    r: float
    rdot: float
    rddot: float


def _tension_parts(G, M0, M1, t, r, rdot):
    """Scalar (A, N) with closed tension = A * rddot + N.  Hot path."""
    s = M0 + M1
    d = M0 - M1
    Gt = G * t
    sg = math.sin(_reduce(Gt))
    cg = math.cos(_reduce(Gt))
    s2g = math.sin(_reduce(2.0 * Gt))
    u = 2.0 * (r - t)
    su = math.sin(_reduce(u))
    sug = math.sin(_reduce(u + Gt))
    A = 4.0 * sg * sg
    N = (
        (G * s * s2g + 2.0 * G * d * sg) * rdot
        - G * (G - 2.0) * su * (s + d * cg)
        - 2.0 * G * sug * (s * cg + d)
    )
    return A, N


def _time_parts(G, M0, M1, t, rem):
    """The t-only half of a vectorised :func:`_tension_parts`: the tuple
    (t, Gt, A, P, Q, R), elementwise, with

        A = 4 sin^2(Gt),  N = P r' - G(G-2) sin(u) Q - 2G sin(u+Gt) R,

    u = 2(r - t).  ``rem(x, TAU)`` reduces the trigonometric arguments:
    ``np.remainder``, a floor modulo, serves :func:`closed_tension_grid`,
    and :func:`_remainder_exact` makes every element equal the scalar path
    bit for bit.
    """
    s = M0 + M1
    d = M0 - M1
    Gt = G * t
    g = rem(Gt, TAU)
    sg = np.sin(g)
    cg = np.cos(g)
    s2g = np.sin(rem(2.0 * Gt, TAU))
    return t, Gt, 4.0 * sg * sg, G * s * s2g + 2.0 * G * d * sg, s + d * cg, s * cg + d


def _state_parts(G, parts, r, rdot, rem):
    """(A, N) from the :func:`_time_parts` at t and the state (r, r')."""
    t, Gt, A, P, Q, R = parts
    u = 2.0 * (r - t)
    # One reduction and one sine over the two stacked arguments.
    su, sug = np.sin(rem(np.array([u, u + Gt]), TAU))
    return A, P * rdot - G * (G - 2.0) * su * Q - 2.0 * G * sug * R


def _remainder_exact(x: np.ndarray, period: float) -> np.ndarray:
    """Elementwise ``math.remainder(x, TAU)``, bit for bit; ``period``
    must be TAU, the period the split below holds.

    With n = rint(x / TAU) and TAU = TAU_HI + TAU_LO, TAU_HI its top 26
    significant bits, f = (x - n TAU_HI) - n TAU_LO.  Proof that f is the
    remainder wherever 0 < |f| < pi (pi = TAU/2 is a float) and |n| < 2**26.
    TAU_HI has 25 significant bits and TAU_LO 24, so both products are
    exact.  For n = 0, f is x, and |x| < pi is its own remainder.  For
    n != 0, the rounded quotient lies within 1/2 of n, so x has the sign of
    n and (|n| - 1/2)(1 - 2**-53) TAU <= |x| <= (|n| + 1/2)(1 + 2**-53) TAU;
    TAU_LO/TAU is about 1e-8, far above 2**-53, so |n| TAU_HI / 2 <= |x|
    <= 2 |n| TAU_HI and x - n TAU_HI is exact by Sterbenz's lemma.  Then f is
    z = x - n TAU rounded once.  If |z| < pi, n is the nearest integer to
    x/TAU, so z is the IEEE remainder, which is a float, and f = z.  If
    |z| >= pi, rounding keeps |f| >= pi.

    The other elements take ``math.remainder`` one by one: |f| >= pi, ties
    at +-pi included, where a wrong n or the even-quotient rule decides;
    f == 0, where the remainder takes the sign of x and the split gives
    +0.0 for x = -k TAU; |n| >= 2**26, where the products round; and
    non-finite x, where ``math.remainder`` raises on infinities as the
    scalar path does.  numpy warns on those inputs, so callers run it under
    ``np.errstate``.
    """
    if period != TAU:
        raise ValueError(f"the exact reduction is modulo TAU, got period {period!r}")
    n = np.rint(x / TAU)
    f = x - n * _TAU_HI
    f -= n * _TAU_LO
    a = np.abs(f)
    if not (
        a.max(initial=0.0) < math.pi
        and a.min(initial=1.0) > 0.0
        and np.abs(n).max(initial=0.0) < _SPLIT_QUOTIENTS
    ):
        odd = ~((a < math.pi) & (a > 0.0) & (np.abs(n) < _SPLIT_QUOTIENTS))
        f[odd] = [math.remainder(v, TAU) for v in x[odd].tolist()]
    return f


def closed_tension(
    spec: BvpSpec, sample: TensionSample, margin: float = DEFAULT_POLE_MARGIN
) -> float:
    """Cleared-denominator normal tension at ``sample``.

    Zero means the normal component of the tension field vanishes there.
    """
    require_regular(sample.t, spec.G, margin)
    A, N = _tension_parts(spec.G, spec.M0, spec.M1, sample.t, sample.r, sample.rdot)
    return A * sample.rddot + N


def closed_tension_grid(
    spec: BvpSpec, t, r, rdot, rddot, margin: float = DEFAULT_POLE_MARGIN
) -> np.ndarray:
    """Vectorised closed tension over sample arrays."""
    t = np.asarray(t, dtype=float)
    require_regular(t, spec.G, margin)
    return _closed_tension_regular(spec, t, r, rdot, rddot)


def _closed_tension_regular(spec: BvpSpec, t: np.ndarray, r, rdot, rddot) -> np.ndarray:
    """:func:`closed_tension_grid` at float times that passed the pole test."""
    parts = _time_parts(spec.G, spec.M0, spec.M1, t, np.remainder)
    r, rdot = np.asarray(r, dtype=float), np.asarray(rdot, dtype=float)
    A, N = _state_parts(spec.G, parts, r, rdot, np.remainder)
    return A * np.asarray(rddot, dtype=float) + N


def closed_tension_equal_m(
    spec: BvpSpec, sample: TensionSample, margin: float = DEFAULT_POLE_MARGIN
) -> float:
    """Simplified form for equal multiplicities; half of :func:`closed_tension`.

        2 sin^2(Gt) r'' + mG sin(2Gt) r' - mG ((G-1) sin 2(r-t) + sin 2(r+(G-1)t))
    """
    if spec.M0 != spec.M1:
        raise UnequalMultiplicities(
            f"equal-multiplicity form needs M0 == M1, got ({spec.M0},{spec.M1})"
        )
    require_regular(sample.t, spec.G, margin)
    G, m = spec.G, spec.M0
    t, r = sample.t, sample.r
    sg = math.sin(_reduce(G * t))
    return (
        2.0 * sg * sg * sample.rddot
        + m * G * math.sin(_reduce(2.0 * G * t)) * sample.rdot
        - m
        * G
        * (
            (G - 1.0) * math.sin(_reduce(2.0 * (r - t)))
            + math.sin(_reduce(2.0 * r + 2.0 * (G - 1.0) * t))
        )
    )


def raw_tension_sphere(
    g: int,
    m0: int,
    m1: int,
    sample: TensionSample,
    margin: float = DEFAULT_POLE_MARGIN,
) -> float:
    """Un-simplified normal tension: the sum over curvature directions.

        r'' + sum_i m_i cot(t - i pi/g) r'
            - 1/2 sum_i m_i sin 2(r - i pi/g) / sin^2(t - i pi/g)

    with multiplicities alternating m0, m1 by index parity.  Multiplying by
    4 sin^2(gt) recovers :func:`closed_tension` (for odd g this requires
    m0 == m1, the only case in which the alternating sum is geometric).
    """
    require_regular(sample.t, g, margin)
    t, r = sample.t, sample.r
    total = sample.rddot
    forcing = 0.0
    for i in range(g):
        x = _reduce(t - i * math.pi / g)
        sx = math.sin(x)
        mi = m0 if i % 2 == 0 else m1
        total += mi * (math.cos(x) / sx) * sample.rdot
        forcing += mi * math.sin(_reduce(2.0 * r - 2.0 * i * math.pi / g)) / (sx * sx)
    return total - 0.5 * forcing


def raw_tension_so(
    g: int,
    m0: int,
    m1: int,
    sample: TensionSample,
    margin: float = DEFAULT_POLE_MARGIN,
) -> float:
    """Raw normal tension of the reparametrised lifted map on the rotation group.

    Equals the sphere sum with twice the curvature count (step pi/(2g), 2g
    terms), which is exactly how the lifted problems reduce to sphere
    problems; realised by delegation.  The returned value is twice the
    lifted map's normal tension; only its zero set matters for harmonicity.
    """
    return raw_tension_sphere(2 * g, m0, m1, sample, margin)


def rhs(spec: BvpSpec, margin: float = DEFAULT_POLE_MARGIN) -> Callable:
    """Explicit second-derivative function, solving closed_tension == 0 for
    r'', in two call forms:

        accel(t, r, r') -> r''
        accel(t, r, r', dr, dr') -> (r'', dr'')

    where dr'' is the derivative of r'' along the direction (dr, dr'):

        dN = P dr' - 2 (G(G-2) cos(u) Q + 2G cos(u+Gt) R) dr,  dr'' = -dN / A

    with A, P, Q, R as in :func:`_time_parts` and u = 2(r - t).  Both forms
    compute r'' = -N/A by the same operations, so the value is the same bit
    for bit; the plain form returns before the cosines of u and u + Gt.
    The body repeats the :func:`_tension_parts` arithmetic with bound
    locals because this is the integrator's innermost call; a test pins the
    two paths together bit for bit.  Only a time outside the
    :func:`regular_window` takes the pole test, :func:`require_regular`.
    A time the test lets through where 4 sin^2(Gt) underflows to 0 (|Gt|
    below about 1e-162, so only with a margin below that) raises
    PoleProximity too.
    """
    G, M0, M1 = spec.G, spec.M0, spec.M1
    lo, hi = regular_window(G, margin)
    cs = G * (M0 + M1)          # rdot coefficient scale, sin(2Gt) part
    cd = 2.0 * G * (M0 - M1)    # rdot coefficient scale, sin(Gt) part
    f1 = G * (G - 2.0)
    f2 = 2.0 * G
    s = M0 + M1
    d = M0 - M1

    def accel(
        t: float,
        r: float,
        rdot: float,
        dr: float | None = None,
        drdot: float | None = None,
        sin=math.sin,
        cos=math.cos,
        rem=math.remainder,
    ):
        if not lo < t < hi:
            require_regular(t, G, margin)
        Gt = G * t
        g = rem(Gt, TAU)
        sg = sin(g)
        cg = cos(g)
        s2g = sin(rem(2.0 * Gt, TAU))
        u = 2.0 * (r - t)
        ur = rem(u, TAU)
        ugr = rem(u + Gt, TAU)
        P = cs * s2g + cd * sg
        Q = s + d * cg
        R = s * cg + d
        N = P * rdot - f1 * sin(ur) * Q - f2 * sin(ugr) * R
        A = 4.0 * sg * sg
        try:
            if dr is None:
                return -N / A
            dN = P * drdot - 2.0 * (f1 * cos(ur) * Q + f2 * cos(ugr) * R) * dr
            return -N / A, -dN / A
        except ZeroDivisionError:
            raise _pole_error(t, G, margin) from None

    return accel


# The tangent form's name.  Tangent callers take the closure from here, not
# from ``rhs``: a wrapper that replaces ``rhs`` to count plain evaluations,
# as the benchmark's tracer does, may accept only (t, r, r').
rhs_tangent = rhs


def _rhs_lanes(spec: BvpSpec, margin: float = DEFAULT_POLE_MARGIN):
    """Lane twin of :func:`rhs` as a pair (time, state):
    ``state(time(t), r, rdot)`` is r'' for 1-d arrays, and ``time`` may
    take all the stage times of a step at once, as rows.

    ``time`` pole-checks every time passed, naming the first near one in
    row-major order; it runs :func:`require_regular`, the test :func:`rhs`
    runs, only when some time lies outside the :func:`regular_window`.
    Failing none, it names the first time where A = 4 sin^2(Gt) underflows
    to 0, where :func:`rhs` raises too.  Every lane performs the scalar
    closure's operations in the same order, with the exact remainder, so it
    equals the scalar value bit for bit.  Where the scalar floats overflow
    silently numpy warns, so callers run it under ``np.errstate``.
    """
    G, M0, M1 = spec.G, spec.M0, spec.M1
    lo, hi = regular_window(G, margin)

    def time(t: np.ndarray) -> tuple:
        # NaN propagates through min and max and fails both compares.
        if not (lo < t.min(initial=math.inf) and t.max(initial=-math.inf) < hi):
            require_regular(t, G, margin)
        parts = _time_parts(G, M0, M1, t, _remainder_exact)
        A = parts[2]
        if not A.all():
            raise _pole_error(float(t[A == 0.0][0]), G, margin)
        return parts

    def state(parts, r: np.ndarray, rdot: np.ndarray) -> np.ndarray:
        A, N = _state_parts(G, parts, r, rdot, _remainder_exact)
        return -N / A

    return time, state


def _as_sample_array(profile) -> np.ndarray:
    samples = getattr(profile, "samples", profile)
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("profile samples must be an (n, 3) array of (t, r, rdot)")
    return arr


def residual_norm(
    spec: BvpSpec, profile, margin: float = DEFAULT_POLE_MARGIN
) -> tuple[float, tuple[float, float]]:
    """Max interior |closed tension| of a sampled profile, plus boundary errors.

    r'' is reconstructed with the centred second-order stencil on the
    profile's own (possibly non-uniform) grid; r and r' are taken from the
    samples.  Boundary errors compare the first/last samples against the
    boundary targets under the endpoint linearisations r ~ a*t and
    r ~ k*pi/G - b*(pi/G - t), with slopes estimated from the adjacent
    sample pair.  Times that do not increase strictly inside (0, pi/G), a
    NaN time included, and non-finite r or r' samples raise ValueError; an
    interior time near a pole raises PoleProximity.
    """
    arr = _as_sample_array(profile)
    t, r, v = arr[:, 0], arr[:, 1], arr[:, 2]
    if t.shape[0] - 2 < 16:
        raise ProfileTooCoarse(
            f"need at least 16 interior samples, got {max(t.shape[0] - 2, 0)}"
        )
    if np.any(np.diff(t) <= 0):
        raise ValueError("profile samples must be strictly increasing in t")
    L = spec.length
    if not (0.0 < t[0] and t[-1] < L):
        raise ValueError("profile must be sampled strictly inside (0, pi/G)")
    # The interior pole test runs before the sample check, so a NaN time is
    # reported as a time even where its r is NaN too.
    require_regular(t[1:-1], spec.G, margin)
    if not np.isfinite(arr[:, 1:]).all():
        raise ValueError("profile r and rdot samples must be finite")

    hm = t[1:-1] - t[:-2]
    hp = t[2:] - t[1:-1]
    rdd = 2.0 * (hm * r[2:] - (hm + hp) * r[1:-1] + hp * r[:-2]) / (
        hm * hp * (hm + hp)
    )
    values = _closed_tension_regular(spec, t[1:-1], r[1:-1], v[1:-1], rdd)
    max_abs = float(np.max(np.abs(values)))

    slope0 = (r[1] - r[0]) / (t[1] - t[0])
    err0 = abs(r[0] - slope0 * t[0])
    slope1 = (r[-1] - r[-2]) / (t[-1] - t[-2])
    err1 = abs(r[-1] - (spec.k * L - slope1 * (L - t[-1])))
    return max_abs, (float(err0), float(err1))
