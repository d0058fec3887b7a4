"""The exact Taylor table of the smooth branch through a singular endpoint."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from cohom1 import series

# (G, M0, M1): odd G with equal multiplicities, even G with unequal ones
SPECS = [(1, 2, 2), (2, 1, 3), (3, 1, 1), (4, 3, 1), (6, 2, 2), (8, 4, 7), (12, 1, 1)]
SIZE = series.ORDER + 3


def product(p, q):
    return [sum(p[i] * q[n - i] for i in range(n + 1)) for n in range(SIZE)]


def sin_cos(y):
    """sin(y) and cos(y) of a power series y with y[0] = 0."""
    s, c = [F(0)] * SIZE, [F(1)] + [F(0)] * (SIZE - 1)
    for n in range(1, SIZE):
        s[n] = sum(j * y[j] * c[n - j] for j in range(1, n + 1)) / n
        c[n] = -sum(j * y[j] * s[n - j] for j in range(1, n + 1)) / n
    return s, c


def derivative(p):
    return [(n + 1) * p[n + 1] for n in range(SIZE - 1)] + [F(0)]


def scaled(*terms):
    """sum of the (number, series) pairs of ``terms``."""
    return [sum(c * p[n] for c, p in terms) for n in range(SIZE)]


def truncated(G, M, M_far, a):
    """s(x) = a x + sum c_n(a) x^n of the table of (G, M, M_far), exactly."""
    s = [F(0)] * SIZE
    s[1] = a
    for i, coefficients in enumerate(series.exact(G, M, M_far)):
        s[2 * i + 3] = sum(c * a**m for m, c in enumerate(coefficients))
    return s


def tension(G, M0, M1, end, s):
    """The cleared-denominator tension A r'' + N of the (G, M0, M1) problem,
    as a power series in the distance x to ``end``, along r = s(x) from the
    left end or r = k pi/G - s(x) from the right one.  At the right end
    Gt = pi - Gx, and the phase 2(k - 1)/G is even, so sin(2(r - t)) =
    -sin(w) and sin(2(r - t) + Gt) = sin(w + Gx) with w = 2(s - x)."""
    x = [F(0), F(1)] + [F(0)] * (SIZE - 2)
    sg, cg = sin_cos(scaled((G, x)))
    s2g, _ = sin_cos(scaled((2 * G, x)))
    S, D, one = M0 + M1, M0 - M1, [F(1)] + [F(0)] * (SIZE - 1)
    sign = 1 if end == "left" else -1       # cos(Gt) and sin(2Gt) change sign
    A = scaled((4, product(sg, sg)))
    P = scaled((sign * G * S, s2g), (2 * G * D, sg))
    Q = scaled((S, one), (sign * D, cg))
    R = scaled((sign * S, cg), (D, one))
    w = scaled((2, s), (-2, x))
    sin_w, _ = sin_cos(w)
    sin_wg, _ = sin_cos(scaled((1, w), (G, x)))
    ds = derivative(s)
    return scaled(
        (sign, product(A, derivative(ds))), (1, product(P, ds)),
        (-G * (G - 2) * sign, product(sin_w, Q)), (-2 * G, product(sin_wg, R)),
    )


class TestExactTable:
    @pytest.mark.parametrize("G, M0, M1", SPECS)
    def test_truncated_series_tension_vanishes_to_its_order(self, G, M0, M1):
        # at random rational slopes, both ends: the tension of the table's
        # truncated series has no term below x^(ORDER+2), and that one is
        # not 0
        rng = random.Random(G * 100 + M0 * 10 + M1)
        for _ in range(2):
            a = F(rng.randint(-200, 200), rng.randint(1, 17))
            for end, near, far in (("left", M0, M1), ("right", M1, M0)):
                T = tension(G, M0, M1, end, truncated(G, near, far, a))
                assert T[:series.ORDER + 2] == [0] * (series.ORDER + 2)
                assert T[series.ORDER + 2] != 0

    @pytest.mark.parametrize("G, M0, M1", SPECS)
    def test_order_three_is_the_closed_form(self, G, M0, M1):
        # c3 = -T3 / (8 G^2 (3 + M)), T3 the order-3 tension of a x, with
        # b = a - 1, S = M + M_far, D = M - M_far:
        #   T3 = -G^4 (4S + D) a / 3 + 8/3 G^2 M b^3 + 8 G^2 M b^2
        #        + G^3 b ((G - 2) D + 2S + 4M) + G^4 (2M/3 + S)
        for M, M_far in ((M0, M1), (M1, M0)):
            S, D = M + M_far, M - M_far
            for a in (F(0), F(1), F(-3, 7), F(25, 2), F(12_1254021, 10_000_000)):
                b = a - 1
                T3 = (-F(G**4 * (4 * S + D), 3) * a + F(8, 3) * G**2 * M * b**3
                      + 8 * G**2 * M * b**2 + G**3 * b * ((G - 2) * D + 2 * S + 4 * M)
                      + G**4 * (F(2 * M, 3) + S))
                c3 = sum(c * a**m for m, c in enumerate(series.exact(G, M, M_far)[0]))
                assert c3 == -T3 / (8 * G**2 * (3 + M))

    def test_order_three_at_the_criterion_seven_root(self):
        # (1,2,2): c3 = (2/15) a (1 - a^2), -236.0822 at a = 12.1254021
        exact = series.exact(1, 2, 2)[0]
        assert exact == (0, F(2, 15), 0, F(-2, 15))
        a = F(12.1254021)
        assert float(sum(c * a**m for m, c in enumerate(exact))) == pytest.approx(
            -236.0822, abs=1e-4
        )

    @pytest.mark.parametrize("G, M0, M1", SPECS)
    def test_floats_round_the_exact_table(self, G, M0, M1):
        tab = series.table(G, M0, M1)
        floats = list(tab.coefficients)
        assert floats[:2] == [1.0, 0.0]       # c_1 = a
        exact = series.exact(G, M0, M1)
        for n, coefficients in zip(range(3, series.ORDER + 1, 2), exact):
            lo, hi = series._span(n)
            assert len(coefficients) == n + 1 == hi - lo
            assert floats[lo:hi] == [float(c) for c in reversed(coefficients)]
        assert len(floats) == series._span(series.ORDER)[1]
        assert list(tab.bounds) == [abs(c) for c in floats[series._span(series.ORDER - 2)[0]:]]
        assert tab.offsets is series.table(G, M1, M0).offsets


class TestEvaluation:
    @pytest.mark.parametrize("G, M0, M1", SPECS)
    def test_start_and_nodes_equal_exact_evaluation(self, G, M0, M1):
        # (s, s', ds/da, ds'/da) in floats against the truncated series
        # evaluated exactly at the same float slope and offset, within a
        # few rounding errors of the sum of the magnitudes of its terms
        tab, exact = series.table(G, M0, M1), series.exact(G, M0, M1)
        rng = random.Random(G)
        for _ in range(20):
            a = rng.uniform(-40.0, 40.0)
            x = series.offset(tab, a, 1e-5, 1.0) * rng.choice((1.0, 0.5, 1e-3))
            fa, fx = F(a), F(x)
            # (n, c_n(a), dc_n/da, the magnitudes of the terms of c_n(|a|))
            terms = [(1, fa, F(1), abs(a))] + [
                (2 * i + 3,
                 sum(c * fa**m for m, c in enumerate(p)),
                 sum(m * c * fa ** (m - 1) for m, c in enumerate(p) if m),
                 float(sum(abs(c) * abs(fa) ** m for m, c in enumerate(p))))
                for i, p in enumerate(exact)
            ]
            size = sum(bound * x**n for n, _, _, bound in terms)
            want = (
                sum(c * fx**n for n, c, _, _ in terms),
                sum(n * c * fx ** (n - 1) for n, c, _, _ in terms),
                sum(d * fx**n for n, _, d, _ in terms),
                sum(n * d * fx ** (n - 1) for n, _, d, _ in terms),
            )
            got = series.start(tab, a, x)
            for g, w, scale in zip(got, want, (size, size / x, size, size / x)):
                assert abs(g - float(w)) <= 1e-14 * max(scale, 1.0)
            for g, w, scale in zip(series.nodes(tab, a, np.array([x])), want, (size, size / x)):
                assert abs(g[0] - float(w)) <= 1e-14 * scale

    @pytest.mark.parametrize("G, M0, M1", SPECS)
    def test_offset_is_the_largest_candidate_that_meets_the_tail_bound(self, G, M0, M1):
        tab = series.table(G, M0, M1)
        exact = series.exact(G, M0, M1)
        x0 = tab.offsets[0][0][0]

        def tail(a, x):
            # the last two terms of the slope series, by their magnitudes
            return max(n * float(sum(abs(c) * abs(F(a)) ** m for m, c in enumerate(exact[i])))
                       * x ** (n - 1) for n, i in ((series.ORDER - 2, -2), (series.ORDER, -1)))

        rng = random.Random(G + 1)
        for a in [0.0, 1.0, -1.0] + [rng.uniform(-60.0, 60.0) for _ in range(30)]:
            x = series.offset(tab, a, 1e-5, 1.0)
            bound = series.TAIL_TOL * (1.0 + abs(a))
            assert x <= x0 and math.log2(x0 / x) == int(math.log2(x0 / x))
            assert tail(a, x) <= bound * (1.0 + 1e-12)
            assert x == x0 or tail(a, 2.0 * x) > bound * (1.0 - 1e-12)
            # a limit below it, and an eps above it, win
            assert series.offset(tab, a, 1e-5, 0.75 * x) == 0.5 * x
            assert series.offset(tab, a, 1.5 * x, 1.0) == 1.5 * x

    @pytest.mark.parametrize("G, M0, M1", SPECS)
    def test_lanes_equal_scalars_bit_for_bit(self, G, M0, M1):
        tab = series.table(G, M0, M1)
        rng = np.random.default_rng(G)
        slopes = np.concatenate(([0.0, -0.0, 1.0], rng.uniform(-80.0, 80.0, 61)))
        candidates = tab.offsets[0]
        for eps, limit in ((1e-5, 1.0), (1e-5, candidates[3][0]), (candidates[2][0], 1.0)):
            x = series.offsets(tab, slopes, eps, limit)
            assert x.tobytes() == np.array(
                [series.offset(tab, a, eps, limit) for a in slopes.tolist()]
            ).tobytes()
            lanes = series.starts(tab, slopes, x)
            scalars = [series.start(tab, a, xi)[:2] for a, xi in zip(slopes.tolist(), x.tolist())]
            assert np.array(lanes).T.tobytes() == np.array(scalars).tobytes()
