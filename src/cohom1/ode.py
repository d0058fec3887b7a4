"""Right-hand sides and residuals of the singular boundary value problems.

The normal tension of an equivariant map r(t) on a (G, M0, M1)-problem is,
after clearing denominators,

    4 sin^2(Gt) r''(t)
      + (G(M0+M1) sin(2Gt) + 2G(M0-M1) sin(Gt)) r'(t)
      - G(G-2) sin(2(r-t)) (M0+M1 + (M0-M1) cos(Gt))
      - 2G sin(2(r-t)+Gt) ((M0+M1) cos(Gt) + M0-M1)

on the interval (0, pi/G) with boundary limits r -> 0 and r -> k*pi/G;
write it A r'' + N, A = 4 sin^2(Gt).  It is written out twice.  The
scalar closure :func:`rhs` solves it for r'' = -N/A and serves the
integrator, the series start and :func:`closed_tension`; called with a
direction (dr, dr') it also returns the derivative of r'' along it, the
variational equation of an exact shooting Jacobian (``rhs_tangent`` is a
second name for it).  Its array twin, :func:`_time_parts` and
:func:`_state_parts`, serves the lanes, :func:`closed_tension_grid` and
:func:`residual_norm`, and equals it bit for bit.  The equal-multiplicity
simplification and the un-simplified sums over the curvature directions
are independent checks on both.

All trigonometric arguments are reduced modulo 2*pi before evaluation,
one way: scalars by ``math.remainder``, arrays by :func:`_remainder_exact`,
which equals it bit for bit; inside the :func:`regular_window`, which
bounds Gt and 2Gt, both take its rule instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import actions
from .errors import PoleProximity, ProfileTooCoarse, UnequalMultiplicities
from .errors import int_as_float, require_int

TAU = 2.0 * math.pi
# TAU split in two for :func:`_remainder_exact` (Cody and Waite): the top
# 26 significant bits and the rest, exactly; quotients below
# _SPLIT_QUOTIENTS in magnitude multiply both without rounding.
_TAU_HI = float.fromhex("0x1.921fb5p+2")
_TAU_LO = TAU - _TAU_HI
_SPLIT_QUOTIENTS = 2.0**26

# residual_norm's bound on |r|: 2(r - t) + Gt stays finite, as its
# reduction needs.
_MAX_R = 1e300

#: Evaluation points closer than this to a pole of the coefficients are
#: rejected; the solver handles the singular endpoints by series starts.
DEFAULT_POLE_MARGIN = 1e-8


def pole_distance(t, G: int):
    """Distance from t, a float or an array, to the pole set (pi/G) * Z."""
    step = math.pi / G
    return abs(t - np.rint(t / step) * step)


def require_regular(t, G: int) -> bool:
    """Raise :class:`PoleProximity` unless t, a float or an array, stays at
    least ``DEFAULT_POLE_MARGIN`` from the pole set; an array names its
    first such point.  Return whether t lies inside the :func:`regular_window`.

    A NaN or infinite t is never regular.  A t, scalar or array, inside the
    :func:`regular_window` passes without the distance (an array's NaN
    propagates through min and max and fails both compares); outside it, a
    scalar t is checked for finiteness first.
    """
    margin = DEFAULT_POLE_MARGIN
    lo, hi = regular_window(G)
    if isinstance(t, np.ndarray):
        if t.size and lo < t.min() and t.max() < hi:
            return True
        with np.errstate(invalid="ignore"):     # an infinite t has a NaN distance
            far = pole_distance(t, G) >= margin
        if far.all():
            return False
        t = float(t[~far][0])
    elif lo < t < hi or (math.isfinite(t) and pole_distance(t, G) >= margin):
        return lo < t < hi
    raise _pole_error(t, G)


def _pole_error(t: float, G: int) -> PoleProximity:
    return PoleProximity(
        f"t={t!r} is within {DEFAULT_POLE_MARGIN:g} of a pole of the (G={G}) problem"
    )


def regular_window(G: int) -> tuple[float, float]:
    """The open interval (lo, hi) = (2m, pi/G - 2m), m = DEFAULT_POLE_MARGIN,
    in which :func:`require_regular` cannot raise: the hot paths run the
    pole test only for times outside it.

    Proof, for a float lo < t < hi.  Then 0 < t < step = pi/G, so the
    rounded t/step lies in [0, 1] and rounds to 0 or 1 (0.5 rounds to 0).
    At 0 the distance is t > lo = 2m, and lo is exact.  At 1 the rounded
    quotient exceeds 0.5, a float, so t >= step/2 and t - step is exact by
    Sterbenz's lemma: the distance is step - t.  No float lies strictly between step - 2m and
    its rounding hi, so t < hi gives t <= step - 2m, and the distance is at
    least 2m.  Either way it is not below m.  A NaN or infinite t fails a
    compare with the window, so it takes the full test.

    Inside it Gt is its own IEEE remainder modulo TAU = 2 pi (pi the
    float), and so is x = 2Gt up to pi, the tie included; above pi it is
    x - TAU.  Proof: t <= step - 2m and G step <= pi (1 + 2**-53) give
    G t <= pi + 2**-51 - 2Gm < pi - 2**-51, a float, as m >= 2**-48, so
    0 < Gt < pi and 0 < x < TAU; the quotient x/TAU rounded half to even
    is 0 up to pi, the tie too, and 1 above, where x - TAU is exact
    (Sterbenz).
    """
    m = DEFAULT_POLE_MARGIN
    return 2.0 * m, math.pi / G - 2.0 * m


@dataclass(frozen=True)
class BvpSpec:
    """A concrete (G, M0, M1, k) boundary value problem on [0, pi/G].

    Integers G, M0, M1 > 0 and k, stored as Python ints (JSON-native); specs
    generated from an action via an admissible j satisfy k = j*g + 1.
    """

    G: int
    M0: int
    M1: int
    k: int

    def __post_init__(self):
        fields = self.__dict__      # frozen: stored without __setattr__
        for name, low in (("G", 1), ("M0", 1), ("M1", 1), ("k", None)):
            fields[name] = require_int(name, fields[name], low)

    @property
    def length(self) -> float:
        return math.pi / self.G

    @property
    def domain(self) -> tuple[float, float]:
        return (0.0, self.length)

    @property
    def boundary(self) -> tuple[float, float]:
        """(0, k pi/G); ValueError naming k unless k pi/G and twice it, the
        size of the angle 2(r - t) that :func:`rhs` reduces, are finite."""
        right = int_as_float("k", self.k) * self.length
        if not math.isfinite(2.0 * right):
            raise ValueError(
                f"k must keep 2 k pi/G a finite float for G={self.G}, "
                f"got k ~ {float(self.k):.6g}"
            )
        return (0.0, right)

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


def _time_parts(G, M0, M1, t):
    """The t-only half of the array twin of the :func:`rhs` closure's
    arithmetic: the tuple (t, Gt, A, P, Q, R), elementwise, with

        A = 4 sin^2(Gt),  N = P r' - G(G-2) sin(u) Q - 2G sin(u+Gt) R,

    u = 2(r - t).  It pole-checks t with :func:`require_regular`, naming
    the first near time in row-major order, and reduces Gt and 2Gt as the
    closure does: by the :func:`regular_window`'s rule inside it, by
    :func:`_remainder_exact` outside.  Failing no time, it names the first
    one where A underflows to 0, where the closure raises too.
    """
    s = M0 + M1
    d = M0 - M1
    Gt = G * t
    if require_regular(t, G):
        g, x = Gt, 2.0 * Gt
        g2 = np.where(x > math.pi, x - TAU, x)
    else:
        g, g2 = _remainder_exact(Gt), _remainder_exact(2.0 * Gt)
    sg = np.sin(g)
    cg = np.cos(g)
    A = 4.0 * sg * sg
    if not A.all():
        raise _pole_error(float(t[A == 0.0][0]), G)
    return t, Gt, A, G * s * np.sin(g2) + 2.0 * G * d * sg, s + d * cg, s * cg + d


def _state_parts(G, parts, r, rdot):
    """(A, N) from the :func:`_time_parts` at t and the state (r, r')."""
    t, Gt, A, P, Q, R = parts
    u = 2.0 * (r - t)
    # One reduction and one sine over the two stacked arguments.
    su, sug = np.sin(_remainder_exact(np.array([u, u + Gt])))
    return A, P * rdot - G * (G - 2.0) * su * Q - 2.0 * G * sug * R


def _remainder_exact(x: np.ndarray) -> np.ndarray:
    """Elementwise ``math.remainder(x, TAU)``, bit for bit (the twin
    reduces Gt and 2Gt by it only outside the :func:`regular_window`).

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


def closed_tension(spec: BvpSpec, sample: TensionSample) -> float:
    """Cleared-denominator normal tension A (r'' - accel(t, r, r')) at
    ``sample``, accel the :func:`rhs` closure, whose pole test runs first.

    Zero means the normal component of the tension field vanishes there.
    """
    accel = rhs(spec)(sample.t, sample.r, sample.rdot)
    sg = math.sin(math.remainder(spec.G * sample.t, TAU))
    return 4.0 * sg * sg * (sample.rddot - accel)


def closed_tension_grid(spec: BvpSpec, t, r, rdot, rddot) -> np.ndarray:
    """Vectorised closed tension A r'' + N over sample arrays, from the
    :func:`rhs` closure's array twin: (A, N) equal the closure's bit for bit."""
    parts = _time_parts(spec.G, spec.M0, spec.M1, np.asarray(t, dtype=float))
    r, rdot = np.asarray(r, dtype=float), np.asarray(rdot, dtype=float)
    A, N = _state_parts(spec.G, parts, r, rdot)
    return A * np.asarray(rddot, dtype=float) + N


def closed_tension_equal_m(spec: BvpSpec, sample: TensionSample) -> float:
    """Simplified form for equal multiplicities; half of :func:`closed_tension`.

        2 sin^2(Gt) r'' + mG sin(2Gt) r' - mG ((G-1) sin 2(r-t) + sin 2(r+(G-1)t))
    """
    if spec.M0 != spec.M1:
        raise UnequalMultiplicities(
            f"equal-multiplicity form needs M0 == M1, got ({spec.M0},{spec.M1})"
        )
    require_regular(sample.t, spec.G)
    G, m = spec.G, spec.M0
    t, r = sample.t, sample.r
    sg = math.sin(math.remainder(G * t, TAU))
    return (
        2.0 * sg * sg * sample.rddot
        + m * G * math.sin(math.remainder(2.0 * G * t, TAU)) * sample.rdot
        - m
        * G
        * (
            (G - 1.0) * math.sin(math.remainder(2.0 * (r - t), TAU))
            + math.sin(math.remainder(2.0 * r + 2.0 * (G - 1.0) * t, TAU))
        )
    )


def raw_tension_sphere(g: int, m0: int, m1: int, sample: TensionSample) -> float:
    """Un-simplified normal tension: the sum over curvature directions.

        r'' + sum_i m_i cot(t - i pi/g) r'
            - 1/2 sum_i m_i sin 2(r - i pi/g) / sin^2(t - i pi/g)

    with multiplicities alternating m0, m1 by index parity.  Multiplying by
    4 sin^2(gt) recovers :func:`closed_tension` (for odd g this requires
    m0 == m1, the only case in which the alternating sum is geometric).
    """
    g, m0, m1 = require_int("g", g, 1), require_int("m0", m0, 1), require_int("m1", m1, 1)
    require_regular(sample.t, g)
    t, r = sample.t, sample.r
    total = sample.rddot
    forcing = 0.0
    for i in range(g):
        shift = i * math.pi / g
        x = math.remainder(t - shift, TAU)
        sx = math.sin(x)
        mi = m0 if i % 2 == 0 else m1
        total += mi * (math.cos(x) / sx) * sample.rdot
        # 2.0 * shift is 2.0 * i * pi / g: doubling commutes with rounding.
        forcing += mi * math.sin(math.remainder(2.0 * r - 2.0 * shift, TAU)) / (sx * sx)
    return total - 0.5 * forcing


def raw_tension_so(g: int, m0: int, m1: int, sample: TensionSample) -> float:
    """Raw normal tension of the reparametrised lifted map on the rotation group.

    Equals the sphere sum with twice the curvature count (step pi/(2g), 2g
    terms), which is exactly how the lifted problems reduce to sphere
    problems; realised by delegation.  The returned value is twice the
    lifted map's normal tension; only its zero set matters for harmonicity.
    """
    return raw_tension_sphere(2 * require_int("g", g, 1), m0, m1, sample)


def rhs(spec: BvpSpec) -> Callable:
    """Explicit second-derivative function, solving the closed form
    A r'' + N = 0 of the module docstring for r'', in two call forms:

        accel(t, r, r') -> r''
        accel(t, r, r', dr, dr') -> (r'', dr'')

    where dr'' is the derivative of r'' along the direction (dr, dr'):

        dN = P dr' - 2 (G(G-2) cos(u) Q + 2G cos(u+Gt) R) dr,  dr'' = -dN / A

    with A, P, Q, R as in :func:`_time_parts` and u = 2(r - t).  Both forms
    compute r'' = -N/A by the same operations, so the value is the same bit
    for bit; the plain form returns before the cosines of u and u + Gt.
    The body binds its constants and functions to locals because this is
    the integrator's innermost call; tests pin the array twin,
    :func:`_time_parts` and :func:`_state_parts`, to it bit for bit, and
    :func:`closed_tension` multiplies its value back by A.  Only a time
    outside the :func:`regular_window` takes the pole test,
    :func:`require_regular`, and the general reduction of Gt and 2Gt.
    A time the test lets through where 4 sin^2(Gt) underflows to 0 raises
    PoleProximity too.
    """
    G, M0, M1 = spec.G, spec.M0, spec.M1
    lo, hi = regular_window(G)
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
        pi=math.pi,
    ):
        Gt = G * t
        if lo < t < hi:
            g, g2 = Gt, 2.0 * Gt
            if g2 > pi:
                g2 -= TAU
        else:
            require_regular(t, G)
            g, g2 = rem(Gt, TAU), rem(2.0 * Gt, TAU)
        sg = sin(g)
        cg = cos(g)
        u = 2.0 * (r - t)
        ur = rem(u, TAU)
        ugr = rem(u + Gt, TAU)
        P = cs * sin(g2) + cd * sg
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
            raise _pole_error(t, G) from None

    return accel


# The tangent form's name.  Tangent callers take the closure from here, not
# from ``rhs``: a wrapper that replaces ``rhs`` to count plain evaluations,
# as the benchmark's tracer does, may accept only (t, r, r').
rhs_tangent = rhs


def _rhs_lanes(spec: BvpSpec):
    """Lane twin of :func:`rhs` as a pair (time, state):
    ``state(time(t), r, rdot)`` is r'' for 1-d arrays, and ``time`` may
    take all the stage times of a step at once, as rows.

    ``time`` is :func:`_time_parts`, which raises PoleProximity where
    :func:`rhs` does.  Every lane performs the scalar closure's operations
    in the same order and reduces as it does, so it equals the scalar
    value bit for bit.  Where scalar floats overflow silently numpy warns:
    callers run it under ``np.errstate``.
    """
    G, M0, M1 = spec.G, spec.M0, spec.M1

    def time(t: np.ndarray) -> tuple:
        return _time_parts(G, M0, M1, t)

    def state(parts, r: np.ndarray, rdot: np.ndarray) -> np.ndarray:
        A, N = _state_parts(G, parts, r, rdot)
        return -N / A

    return time, state


def _as_sample_array(profile) -> np.ndarray:
    samples = getattr(profile, "samples", profile)
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("profile samples must be an (n, 3) array of (t, r, rdot)")
    return arr


def residual_norm(spec: BvpSpec, profile) -> tuple[float, tuple[float, float]]:
    """Max interior |closed tension| of a sampled profile, plus boundary errors.

    r'' is reconstructed with the centred second-order stencil on the
    profile's own (possibly non-uniform) grid; r and r' are taken from the
    samples.  Boundary errors compare the first/last samples against the
    boundary targets under the endpoint linearisations r ~ a*t and
    r ~ k*pi/G - b*(pi/G - t), with slopes estimated from the adjacent
    sample pair.  Times that do not increase strictly inside (0, pi/G), a
    NaN time included, non-finite r or r' samples, an r above _MAX_R in
    magnitude and a k whose target k pi/G :attr:`BvpSpec.boundary` rejects
    raise ValueError; an interior
    time near a pole raises PoleProximity.  The interior residual is
    :func:`closed_tension_grid` at the stencil's r'', after one pole test.
    """
    arr = _as_sample_array(profile)
    t, r, v = arr[:, 0], arr[:, 1], arr[:, 2]
    if t.shape[0] - 2 < 16:
        raise ProfileTooCoarse(
            f"need at least 16 interior samples, got {max(t.shape[0] - 2, 0)}"
        )
    L, right = spec.length, spec.boundary[1]
    if not (0.0 < t[0] and t[-1] < L):
        raise ValueError("profile must be sampled strictly inside (0, pi/G)")
    # A NaN compares false, so an interior NaN time fails this test; a
    # compare, unlike np.diff, does not warn on two infinite times.
    if not (t[1:] > t[:-1]).all():
        raise ValueError("profile samples must be strictly increasing in t")
    parts = _time_parts(spec.G, spec.M0, spec.M1, t[1:-1])    # the pole test
    if not np.isfinite(arr[:, 1:]).all():
        raise ValueError("profile r and rdot samples must be finite")
    if not (np.abs(r) <= _MAX_R).all():
        raise ValueError(
            f"profile r samples must not exceed {_MAX_R:g} in magnitude, "
            "so that the angle 2(r - t) + Gt is finite"
        )

    hm = t[1:-1] - t[:-2]
    hp = t[2:] - t[1:-1]
    rdd = 2.0 * (hm * r[2:] - (hm + hp) * r[1:-1] + hp * r[:-2]) / (
        hm * hp * (hm + hp)
    )
    A, N = _state_parts(spec.G, parts, r[1:-1], v[1:-1])
    max_abs = float(np.max(np.abs(A * rdd + N)))

    slope0 = (r[1] - r[0]) / (t[1] - t[0])
    err0 = abs(r[0] - slope0 * t[0])
    slope1 = (r[-1] - r[-2]) / (t[-1] - t[-2])
    err1 = abs(r[-1] - (right - slope1 * (L - t[-1])))
    return max_abs, (float(err0), float(err1))
