"""Numerical oracles for the trigonometric identities behind the ODE forms.

Four closed summation identities justify collapsing the per-direction sums
into the compact boundary value problem coefficients:

  sin-square   sum_i sin^2(r - i pi/g) / sin^2(t - i pi/g) * sin^2(gt)
                 = g ((g-1) sin^2(r-t) + sin^2(r + (g-1) t))
  sin-double   the r-derivative of the line above (sin 2(...) numerators)
  cotangent    g cot(gt) = sum_i cot(t - i pi/g)
  half-sum     sum_i m_i cot(t - i pi/g)
                 = (g/2) ((m0+m1) cot(gt) + (m0-m1) / sin(gt)),  g even,

all sums over i = 0..g-1 with multiplicities alternating by index parity.
Every sum is one pass over the shifts: each x_i = t - i pi/g is reduced
modulo 2 pi by :func:`floor_remainder` (the exact ``np.fmod`` plus one
rounded shift, bit for bit ``np.remainder``), and it and its sine are
computed once for every identity evaluated at that t, so the suite pays
one reduction and one sine per shift for the first three.  Within an
identity both sides are evaluated independently, sharing no intermediate
value, and returned for comparison; the deviation
|lhs - rhs| <= tol * (1 + |lhs|) is the mixed relative/absolute
acceptance everywhere, which copes with magnitudes from ~0 up to the large
values near the (excluded) poles.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OddG, is_real, require_int
from .ode import TAU, pole_distance, require_regular

#: Seed of the default sampling streams; configurable in every entry point.
DEFAULT_SEED = 375011

DEFAULT_SAMPLE_MARGIN = 1e-3

# Redraw rounds of sample_regular_t.  A point clear of the poles with chance
# q >= 1e-3 per draw stays rejected through all of them with chance below
# 1e-43; at about 10 us a round, a hopeless margin fails within about 1 s.
_MAX_ROUNDS = 100_000


def floor_remainder(x, period: float) -> np.ndarray:
    """Elementwise ``np.remainder(x, period)`` for a period > 0, bit for bit.

    ``np.fmod`` is exact, so the one rounding is the shift of a negative
    remainder by the period, the one that ``np.remainder`` makes; the +0.0
    added to the rest turns the -0.0 of a negative multiple of the period
    into the +0.0 that ``np.remainder`` returns.  NaN and infinite x give
    NaN, as there.
    """
    f = np.fmod(x, period)
    return f + np.where(f < 0.0, period, 0.0)


def _check_regular(g: int, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    require_regular(t, g)
    return t


def _sides(g: int, t: np.ndarray, identities) -> list:
    """Both sides of each identity at the same g and t, in one pass over the
    shifts i = 0..g-1: x_i = t - i pi/g and gt, reduced mod 2 pi, and their
    sines are computed once for every identity.

    An identity is a pair (term, close): term(i, i pi/g, x_i, sin x_i) is
    its summand, and close(sum, gt, sin gt) returns its (lhs, rhs).
    """
    sums = [0.0] * len(identities)
    for i in range(g):
        off = i * math.pi / g
        x = floor_remainder(t - off, TAU)
        sin_x = np.sin(x)
        for j, (term, _close) in enumerate(identities):
            sums[j] = sums[j] + term(i, off, x, sin_x)
    gt = floor_remainder(g * t, TAU)
    sin_gt = np.sin(gt)
    return [close(total, gt, sin_gt) for (_term, close), total in zip(identities, sums)]


# The numerators of the sin-square and sin-double lemmas.
def _sin_sq(y):
    return np.sin(floor_remainder(y, TAU)) ** 2


def _sin_2(y):
    return np.sin(floor_remainder(2.0 * y, TAU))


def _sin_lemma(g, r, t, num):
    """sum_i num(r - i pi/g) / sin^2(t - i pi/g) * sin^2(gt)
    = g ((g-1) num(r-t) + num(r + (g-1) t)), as a term and a close."""
    r = np.asarray(r, dtype=float)

    def close(total, gt, sin_gt):
        return total * sin_gt**2, g * ((g - 1) * num(r - t) + num(r + (g - 1) * t))

    return (lambda i, off, x, sin_x: num(r - off) / sin_x**2), close


def _cotangent(g):
    """g cot(gt) = sum_i cot(t - i pi/g), as a term and a close."""

    def close(total, gt, sin_gt):
        return g * np.cos(gt) / sin_gt, total

    return (lambda i, off, x, sin_x: np.cos(x) / sin_x), close


def _half_sum(g, m0, m1):
    """sum_i m_i cot(t - i pi/g) = (g/2) ((m0+m1) cot(gt) + (m0-m1) / sin(gt)),
    as a term and a close."""
    m0 = np.asarray(m0, dtype=float)
    m1 = np.asarray(m1, dtype=float)

    def close(direct, gt, sin_gt):
        return direct, 0.5 * g * ((m0 + m1) * np.cos(gt) / sin_gt + (m0 - m1) / sin_gt)

    return (lambda i, off, x, sin_x: (m0 if i % 2 == 0 else m1) * np.cos(x) / sin_x), close


def lemma_sin_sq(g, r, t):
    """Both sides of the sin-square summation identity."""
    g = require_int("g", g, 1)
    t = _check_regular(g, t)
    return _sides(g, t, [_sin_lemma(g, r, t, _sin_sq)])[0]


def lemma_sin_2r(g, r, t):
    """Both sides of the sin-double-angle summation identity."""
    g = require_int("g", g, 1)
    t = _check_regular(g, t)
    return _sides(g, t, [_sin_lemma(g, r, t, _sin_2)])[0]


def cotangent_identity(g, t):
    """g*cot(gt) against the sum of shifted cotangents."""
    g = require_int("g", g, 1)
    t = _check_regular(g, t)
    return _sides(g, t, [_cotangent(g)])[0]


def half_sum_split(g, m0, m1, t):
    """Alternating cotangent sum against its two-term closed split (even g)."""
    g = require_int("g", g, 1)
    if g % 2 != 0:
        raise OddG(f"half-sum split requires even g, got {g}")
    t = _check_regular(g, t)
    return _sides(g, t, [_half_sum(g, m0, m1)])[0]


def mixed_deviation(lhs, rhs) -> float:
    """max |lhs - rhs| / (1 + |lhs|) over the arrays."""
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    return float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs))))


def _check_margin(g: int, margin: float) -> float:
    # Poles are pi/g apart, so no point clears them by pi/(2g) or more.  A
    # bool is no margin, though it compares as 0 or 1; a numpy number is one.
    bound = math.pi / (2 * g)
    if not (is_real(margin) and 0.0 < margin < bound):
        raise ValueError(
            f"margin (--margin) must lie in (0, pi/(2g)) = (0, {bound:.6g}) "
            f"for g = {g}, got {margin!r}"
        )
    return float(margin)


def sample_regular_t(
    g: int, n: int, rng: np.random.Generator, margin: float
) -> np.ndarray:
    """n points uniform in (0, pi), rejected until clear of the pole set.

    Raises ValueError unless 0 < margin < pi/(2g), the only margins that
    leave room between the poles, and when _MAX_ROUNDS of redraws leave a
    point within the margin.
    """
    margin = _check_margin(g, margin)
    t = rng.uniform(0.0, math.pi, size=n)
    for _round in range(_MAX_ROUNDS):
        bad = pole_distance(t, g) < margin
        if not np.any(bad):
            return t
        t[bad] = rng.uniform(0.0, math.pi, size=int(np.count_nonzero(bad)))
    raise ValueError(
        f"margin (--margin) {margin!r} leaves too little room between the "
        f"poles of g = {g}: {_MAX_ROUNDS} redraws did not clear them"
    )


def identity_suite(
    g_max: int = 12,
    samples: int = 10_000,
    seed: int = DEFAULT_SEED,
    margin: float = DEFAULT_SAMPLE_MARGIN,
) -> dict[str, dict]:
    """Evaluate all four identities over seeded random samples.

    Each identity receives at least ``samples`` points spread over
    g = 1..g_max (even g only for the half-sum split).  Returns the maximum
    mixed deviation and sample count per identity.  Raises ValueError
    unless g_max and samples are positive ints, seed is a non-negative int
    and margin is a number with 0 < margin < pi/(2 g_max).
    """
    g_max = require_int("g_max (--g-max)", g_max, 1)
    samples = require_int("samples (--samples)", samples, 1)
    seed = require_int("seed (--seed)", seed, 0)
    margin = _check_margin(g_max, margin)
    rng = np.random.default_rng(seed)
    names = ("lemma_sin_sq", "lemma_sin_2r", "cotangent_identity", "half_sum_split")
    dev = {name: 0.0 for name in names}
    count = {name: 0 for name in names}

    def record(name, sides, n):
        dev[name] = max(dev[name], mixed_deviation(*sides))
        count[name] += n

    per_g = -(-samples // g_max)  # ceil
    even_gs = [g for g in range(1, g_max + 1) if g % 2 == 0]
    per_even = -(-samples // max(len(even_gs), 1))
    for g in range(1, g_max + 1):
        # the pole test of the public identities: a margin below
        # ode.DEFAULT_POLE_MARGIN lets a sample nearer a pole through
        t = _check_regular(g, sample_regular_t(g, per_g, rng, margin))
        r = rng.uniform(0.0, math.pi, size=per_g)
        same_t = [_sin_lemma(g, r, t, _sin_sq), _sin_lemma(g, r, t, _sin_2), _cotangent(g)]
        for name, sides in zip(names, _sides(g, t, same_t)):
            record(name, sides, per_g)
        if g % 2 == 0:
            th = sample_regular_t(g, per_even, rng, margin)
            m0 = rng.integers(1, 10, size=per_even)
            m1 = rng.integers(1, 10, size=per_even)
            record("half_sum_split", half_sum_split(g, m0, m1, th), per_even)

    return {
        name: {"max_mixed_deviation": dev[name], "samples": count[name]}
        for name in names
    }
