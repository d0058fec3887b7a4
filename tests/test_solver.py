"""Series starts, shooting, sweeps and the profiles they produce."""

import dataclasses
import json
import logging
import math
import random
import re
import struct
from fractions import Fraction

import numpy as np
import pytest

from cohom1 import actions, classify, ode, series, solver
from cohom1.actions import Space
from cohom1.errors import (
    CohomError,
    IntegratorStall,
    NoConvergence,
    PoleProximity,
    TrajectoryEscaped,
)
from cohom1.ode import BvpSpec
from cohom1.solver import Endpoint, ShootingConfig


def integrate(accel, t0, r0, v0, t_end, config, x):
    """Final (r, v) of one scalar DP5(4) run of the plain closure ``accel``
    from (t0, r0, v0), a start x off its endpoint, with the zero tangent,
    to t_end."""
    jet = solver._zero_tangent(accel)
    start = solver._dp_start(jet, (t0, r0, v0, 0.0, 0.0), t_end, x)
    return solver._dp_run(jet, start, t_end, config)[1:3]


def run_bits(end):
    """The bits of a run state's (t, r, v, h, k1v, steps)."""
    return struct.pack("<5dq", *end[:6])


def two_branch_start(spec, endpoint, slope, eps):
    """series_start's (t, r, v) as one body per endpoint, each evaluating
    the branch table of its end's multiplicities at eps."""
    if endpoint is Endpoint.LEFT:
        s, v, *_ = series.start(series.table(spec.G, spec.M0, spec.M1), slope, eps)
        return eps, s, v
    L = spec.length
    s, v, *_ = series.start(series.table(spec.G, spec.M1, spec.M0), slope, eps)
    return L - eps, spec.k * L - s, v


def half_start(spec, config, endpoint, slope):
    """The start (t, r, v, dr, dv) of a half of a shot or a lane and its
    offset: the series start at the half's offset."""
    eps = solver._start_offset(spec, config, endpoint, slope)
    return solver.series_start(spec, endpoint, slope, eps), eps


class TestSeriesStart:
    @pytest.mark.parametrize(
        "endpoint, slope, eps, name",
        [
            ("left", 3.0, 1e-5, "endpoint"),
            (None, 3.0, 1e-5, "endpoint"),
            (Endpoint.LEFT, math.nan, 1e-5, "slope"),
            (Endpoint.RIGHT, math.inf, 1e-5, "slope"),
            (Endpoint.LEFT, -math.inf, 1e-5, "slope"),
            (Endpoint.LEFT, 3.0, 0.0, "eps"),
            (Endpoint.RIGHT, 3.0, -1e-5, "eps"),
            (Endpoint.LEFT, 3.0, math.nan, "eps"),
            (Endpoint.LEFT, 3.0, math.pi / 4.0, "eps"),
            (Endpoint.RIGHT, 3.0, math.inf, "eps"),
        ],
    )
    def test_invalid_arguments_named(self, endpoint, slope, eps, name):
        # "left" took the right end, eps <= 0 a start outside (0, pi/G)
        # and a NaN slope NaNs; eps must stay below pi/(4G), as
        # ShootingConfig.validate requires
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        with pytest.raises(ValueError, match=f"^{name} must "):
            solver.series_start(spec, endpoint, slope, eps)

    @pytest.mark.parametrize("k", [10**400, 2**1023 + 1])
    def test_huge_k_named_at_the_right_end(self, k):
        # the right target k pi/G raised a bare OverflowError at 10**400
        # and a "math domain error" on its infinite angle at 2**1023 + 1
        spec = BvpSpec(G=1, M0=2, M1=2, k=k)
        with pytest.raises(ValueError, match="^k must "):
            solver.series_start(spec, Endpoint.RIGHT, 1.0, 1e-5)

    def test_largest_offset_accepted(self):
        spec = BvpSpec(G=4, M0=1, M1=3, k=1)
        eps = math.nextafter(spec.length / 4.0, 0.0)
        for endpoint in Endpoint:
            assert all(map(math.isfinite, solver.series_start(spec, endpoint, 1.0, eps)))

    def test_left_start_lies_on_exact_linear_solution(self):
        spec = BvpSpec(G=3, M0=2, M1=2, k=-2)
        for eps in (1e-4, 1e-5, 1e-6):
            t, r, v, *_ = solver.series_start(spec, Endpoint.LEFT, -2.0, eps)
            assert t == eps
            assert abs(r - (-2.0) * eps) <= 10.0 * eps**3 * (1 + 2.0)
            assert abs(v - (-2.0)) <= 30.0 * eps**2 * (1 + 2.0)

    def test_right_start_lies_on_exact_linear_solution(self):
        spec = BvpSpec(G=2, M0=1, M1=3, k=-1)
        eps = 1e-5
        t, r, v, *_ = solver.series_start(spec, Endpoint.RIGHT, -1.0, eps)
        assert t == spec.length - eps
        assert abs(r - (-1.0) * t) <= 1e-12
        assert abs(v - (-1.0)) <= 1e-9

    def test_linear_rays_start_exactly_on_the_ray(self):
        # r = j t solves the (1,2,2) equation for j in (-1, 0, 1), whatever
        # k, so every c_n(j) is 0 and the start lies on the ray up to the
        # rounding of its sum over the powers of the slope
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        for j in (-1.0, 0.0, 1.0):
            for eps in (1e-5, 1e-3, 0.19):
                t, r, v, *_ = solver.series_start(spec, Endpoint.LEFT, j, eps)
                assert t == eps
                assert r == pytest.approx(j * eps, rel=4e-16, abs=1e-300)
                assert v == pytest.approx(j, rel=4e-16, abs=1e-300)

    @pytest.mark.parametrize("G", [1, 2, 3, 4, 6, 12])
    def test_equals_two_branch_expansion_bit_for_bit(self, G):
        # the one body of series_start against one body per endpoint, each
        # evaluating the table of its end's multiplicities, signed zero
        # slopes included
        # problems with smooth branches at both ends: odd G needs M0 == M1
        spec = BvpSpec(G=G, M0=2, M1=2 if G % 2 else 3, k=1 - G if G % 2 else 1 + G)
        rng = random.Random(G)
        slopes = [0.0, -0.0, 1.0, -1.0, 7.0, -12.0, 60.0, -60.0]
        slopes += [rng.uniform(-60.0, 60.0) for _ in range(8)]
        for eps in (1e-4, 1e-5, 3.7e-6, 1e-7):
            for endpoint in Endpoint:
                for slope in slopes:
                    got = solver.series_start(spec, endpoint, slope, eps)[:3]
                    want = two_branch_start(spec, endpoint, slope, eps)
                    assert [x.hex() for x in got] == [x.hex() for x in want]

    @pytest.mark.parametrize("tangent", [False, True])
    def test_start_nearly_satisfies_the_ode(self, tangent):
        # the O(t) terms cancel for every slope, so the closed tension at a
        # start, with r'' = 6 c3 t from its own cubic, is O(eps): every
        # table row at both ends, slopes across 2.5 times its bracket.  So
        # does its derivative in the slope: with tangent, the start's
        # (dr, dv) also meets the variational equation, A times dr'' less
        # the tangent acceleration, to the same bound
        for spec in table_specs():
            lo, hi = ShootingConfig().resolved_bracket(spec)
            jet = ode.rhs_tangent(spec)
            for slope in np.linspace(2.5 * lo, 2.5 * hi, 11).tolist():
                scale = 4.0 * spec.G * (spec.M0 + spec.M1) * (1.0 + abs(slope) + abs(spec.k))
                for eps in (1e-5, 1e-3):
                    for endpoint, base in ((Endpoint.LEFT, 0.0), (Endpoint.RIGHT, spec.length)):
                        t, r, v, dr, dv = solver.series_start(spec, endpoint, slope, eps)
                        rdd = 2.0 * (v - slope) / (t - base)
                        tension = ode.closed_tension(spec, ode.TensionSample(t, r, v, rdd))
                        assert abs(tension) <= 100.0 * eps * scale
                        if tangent:
                            drdd = 2.0 * (dv - 1.0) / (t - base)
                            area = 4.0 * math.sin(spec.G * t) ** 2
                            dtension = area * (drdd - jet(t, r, v, dr, dv)[1])
                            assert abs(dtension) <= 100.0 * eps * scale

    def test_richardson_order(self):
        # the value transported to a fixed interior point does not depend
        # on the start offset beyond the integrator's tolerance: from
        # offsets of 2.5e-4 to 5e-2 it moves by 1.9e-13.  The fitted cubic
        # start moved it by 5.6e-7 between 1e-3 and 2.5e-4.
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        accel = ode.rhs(spec)
        target = 0.5
        tight = ShootingConfig(rel_tol=1e-12, abs_tol=1e-14)

        def transported(eps):
            t, r, v, *_ = solver.series_start(spec, Endpoint.LEFT, 3.0, eps)
            return integrate(accel, t, r, v, target, tight, eps)[0]

        values = [transported(eps) for eps in (1e-3, 5e-4, 2.5e-4, 1e-2, 5e-2)]
        assert max(values) - min(values) < 1e-12


# The Dormand-Prince 5(4) pair (Hairer, Norsett and Wanner, Solving ODEs I,
# Table II.5.2) and Shampine's quartic dense output, as exact rationals:
# the solver's float constants must be their roundings.
DP_C = [Fraction(0), Fraction(1, 5), Fraction(3, 10), Fraction(4, 5), Fraction(8, 9), 1, 1]
DP_A = [
    [],
    [Fraction(1, 5)],
    [Fraction(3, 40), Fraction(9, 40)],
    [Fraction(44, 45), Fraction(-56, 15), Fraction(32, 9)],
    [Fraction(19372, 6561), Fraction(-25360, 2187), Fraction(64448, 6561), Fraction(-212, 729)],
    [Fraction(9017, 3168), Fraction(-355, 33), Fraction(46732, 5247), Fraction(49, 176),
     Fraction(-5103, 18656)],
]
DP_B = [Fraction(35, 384), 0, Fraction(500, 1113), Fraction(125, 192), Fraction(-2187, 6784),
        Fraction(11, 84), 0]
DP_E = [Fraction(71, 57600), 0, Fraction(-71, 16695), Fraction(71, 1920),
        Fraction(-17253, 339200), Fraction(22, 525), Fraction(-1, 40)]
DP_P = [
    [1, Fraction(-8048581381, 2820520608), Fraction(8663915743, 2820520608),
     Fraction(-12715105075, 11282082432)],
    [0, 0, 0, 0],
    [0, Fraction(131558114200, 32700410799), Fraction(-68118460800, 10900136933),
     Fraction(87487479700, 32700410799)],
    [0, Fraction(-1754552775, 470086768), Fraction(14199869525, 1410260304),
     Fraction(-10690763975, 1880347072)],
    [0, Fraction(127303824393, 49829197408), Fraction(-318862633887, 49829197408),
     Fraction(701980252875, 199316789632)],
    [0, Fraction(-282668133, 205662961), Fraction(2019193451, 616988883),
     Fraction(-1453857185, 822651844)],
    [0, Fraction(40617522, 29380423), Fraction(-110615467, 29380423),
     Fraction(69997945, 29380423)],
]


def rooted_trees(order):
    """Rooted trees with at most ``order`` vertices, each as the sorted
    tuple of its subtrees."""
    trees = {1: [()]}
    for n in range(2, order + 1):
        found = set()

        def grow(left, smallest, children):
            # children as a non-decreasing sequence of trees, by (size, tree)
            if left == 0:
                found.add(tuple(children))
                return
            for size in range(1, left + 1):
                for tree in trees[size]:
                    if (size, tree) >= smallest:
                        grow(left - size, (size, tree), children + [tree])

        grow(n - 1, (0, ()), [])
        trees[n] = sorted(found)
    return trees


def tree_size(tree):
    return 1 + sum(map(tree_size, tree))


def density(tree):
    """gamma(t) = |t| times the densities of its subtrees."""
    return tree_size(tree) * math.prod(map(density, tree))


def elementary_weights(tree, A):
    """Phi_i(t) over the stages of the rows A: the product over the subtrees
    u of sum_j a_ij Phi_j(u)."""
    below = [elementary_weights(u, A) for u in tree]
    return [
        math.prod((sum(a * w[j] for j, a in enumerate(row)) for w in below), start=Fraction(1))
        for row in A
    ]


class TestTableau:
    # stage 7, first same as last, is the propagation row at c = 1
    STAGES = [*DP_A, DP_B[:6]]

    def test_constants_round_the_rationals(self):
        C = [solver._C2, solver._C3, solver._C4, solver._C5]
        A = [[solver._A21], [solver._A31, solver._A32], [solver._A41, solver._A42, solver._A43],
             [solver._A51, solver._A52, solver._A53, solver._A54],
             [solver._A61, solver._A62, solver._A63, solver._A64, solver._A65]]
        B = [solver._B1, solver._B3, solver._B4, solver._B5, solver._B6]
        E = [solver._E1, solver._E3, solver._E4, solver._E5, solver._E6, solver._E7]
        assert C == [float(c) for c in DP_C[1:5]]
        assert A == [[float(a) for a in row] for row in DP_A[1:]]
        assert B == [float(b) for i, b in enumerate(DP_B[:6]) if i != 1]
        assert E == [float(e) for i, e in enumerate(DP_E) if i != 1]
        assert [list(row) for row in solver._P] == [[float(p) for p in row] for row in DP_P]
        assert solver._STAGE_C[:, 0].tolist() == [float(c) for c in DP_C[1:5]] + [1.0]

    def test_nodes_are_row_sums_and_last_is_first(self):
        assert [sum(row, Fraction(0)) for row in self.STAGES] == DP_C
        assert sum(DP_B) == 1 and DP_B[6] == 0

    @pytest.mark.parametrize("weights, order", [("propagation", 5), ("embedded", 4)])
    def test_order_conditions(self, weights, order):
        # b . Phi(t) = 1 / gamma(t) for every rooted tree t of at most
        # ``order`` vertices: 17 trees to order 5 and 8 to order 4; the
        # propagation weights fail one of order 6
        b = DP_B if weights == "propagation" else [x - e for x, e in zip(DP_B, DP_E)]
        trees = rooted_trees(order + 1)
        assert [len(trees[n]) for n in range(1, order + 2)] == [1, 1, 2, 4, 9, 20][:order + 1]
        for n in range(1, order + 1):
            for tree in trees[n]:
                phi = elementary_weights(tree, self.STAGES)
                assert sum(x * p for x, p in zip(b, phi)) == Fraction(1, density(tree))
        higher = [sum(x * p for x, p in zip(b, elementary_weights(t, self.STAGES)))
                  - Fraction(1, density(t)) for t in trees[order + 1]]
        assert any(higher)

    def test_dense_output_identities(self):
        # columns sum to (1, 0, 0, 0): linear solutions are interpolated
        # exactly; row sums are the propagation weights, so u(1) = y_new;
        # and the interpolant has order 4 at every theta: sum_s
        # w_s(theta) Phi_s(t) = theta^|t| / gamma(t) for |t| <= 4, as
        # polynomials in theta
        assert [sum(col) for col in zip(*DP_P)] == [1, 0, 0, 0]
        assert [sum(row) for row in DP_P] == DP_B
        trees = rooted_trees(4)
        for n in range(1, 5):
            for tree in trees[n]:
                phi = elementary_weights(tree, self.STAGES)
                got = [sum(row[j] * p for row, p in zip(DP_P, phi)) for j in range(4)]
                assert got == [Fraction(1, density(tree)) if j + 1 == n else 0 for j in range(4)]


class TestIntegrator:
    def test_stall_on_nan_dynamics(self):
        bad = lambda t, r, v: math.nan
        with pytest.raises(IntegratorStall):
            integrate(bad, 0.1, 0.0, 1.0, 1.0, ShootingConfig(), 0.1)

    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_last_step_of_an_ulp_arrives(self, direction):
        # a step that stops one ulp short of t_end leaves a last step of one
        # ulp, after which h is below _MIN_STEP: the run has arrived, which
        # is no stall
        t_end = 0.09204181602313845
        t = math.nextafter(t_end, -direction * math.inf)
        state = (t, 1.0, 0.0, direction * 1e-3, 0.0, 0, 0.0, 0.0, 0.0)
        end = solver._dp_run(lambda t, r, v, dr, dv: (0.0, 0.0), state, t_end, ShootingConfig())
        assert end[:3] == (t_end, 1.0, 0.0) and abs(end[3]) < solver._MIN_STEP

    def test_lanes_arrive_after_a_last_step_of_an_ulp(self, monkeypatch):
        # with no acceleration every step is accepted and the next one is 5
        # times longer; the sixth ends one ulp short of t_end.  The lanes
        # start at (0, 1, 0), an offset 1e-3 off their endpoint, so their
        # first step is 1e-3, and take both right-hand sides from ode.
        t, h = 0.0, 1e-3
        for _ in range(6):
            t, h = t + h, h * 5.0
        t_end = math.nextafter(t, math.inf)
        lane_rhs = (lambda stage_t: [stage_t], lambda parts, r, v: np.zeros_like(r))
        monkeypatch.setattr(ode, "_rhs_lanes", lambda spec: lane_rhs)
        monkeypatch.setattr(ode, "rhs", lambda spec: lambda t, r, v: 0.0)
        n = solver._DRAIN_LANES
        monkeypatch.setattr(
            solver, "_lane_starts",
            lambda *args: (np.zeros(n), np.ones(n), np.zeros(n), np.full(n, 1e-3)),
        )
        out = solver._integrate_lanes(
            BvpSpec(G=1, M0=2, M1=2, k=1), ShootingConfig(), Endpoint.LEFT, np.zeros(n), t_end
        )
        assert out == [(1.0, 0.0)] * n
        zero = lambda t, r, v: 0.0
        assert integrate(zero, 0.0, 1.0, 0.0, t_end, ShootingConfig(), 1e-3) == (1.0, 0.0)

    def test_profile_half_ending_an_ulp_short(self):
        # (12,2,2,1) from a start of the newton-recover draw: Newton
        # converges, and the profile's right half to the match point makes
        # such a last step
        spec = BvpSpec(G=12, M0=2, M1=2, k=1)
        profile = solver.solve(spec, init=(1.03495475481159, 1.0981283298347493))
        assert profile.residual <= 1e-6

    def test_escape_reports_state(self):
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        accel = ode.rhs(spec)
        t0, r0, v0, *_ = solver.series_start(spec, Endpoint.LEFT, 10.0, 1e-5)
        with pytest.raises(TrajectoryEscaped) as info:
            integrate(accel, t0, r0, v0, math.pi - 1e-5, ShootingConfig(blowup_cap=100.0), 1e-5)
        assert 0 < info.value.t < math.pi
        assert max(abs(info.value.r), abs(info.value.rdot)) > 100.0

    def test_profile_samples_match_direct_integration(self):
        # a nonlinear (2,1,3,1) solution: every 8th sample out to 3/4 of the
        # domain from either end, so on both sides of the match point and
        # across each half's continuation, against that half integrated
        # from its series start at rel_tol 1e-12
        spec = BvpSpec(G=2, M0=1, M1=3, k=1)
        profile = solver.solve(spec, init=(-0.0954, 13.0473))
        accel, tight = ode.rhs(spec), ShootingConfig(rel_tol=1e-12, abs_tol=1e-14)
        samples = profile.samples[::8].tolist()
        checked = 0
        for endpoint, slope, nodes in (
            (Endpoint.LEFT, profile.slope0, samples),
            (Endpoint.RIGHT, profile.slope1, samples[::-1]),
        ):
            t, r, v, *_ = start = solver.series_start(spec, endpoint, slope, 1e-5)
            for t_node, r_node, v_node in nodes:
                if abs(t_node - start[0]) > 0.75 * spec.length:
                    break
                r, v = integrate(accel, t, r, v, t_node, tight, 1e-5)
                t = t_node
                assert r_node == pytest.approx(r, abs=5e-9)
                assert v_node == pytest.approx(v, abs=5e-8)
                checked += 1
        assert checked == 2 * 49        # of the 65 samples taken, from either end


class TestShoot:
    def test_harmonic_linear_case_closes_the_gap(self):
        spec = BvpSpec(G=4, M0=1, M1=1, k=-3)
        gaps = solver.shoot(spec, ShootingConfig(), -3.0, -3.0).gap
        assert abs(gaps[0]) <= 1e-8 and abs(gaps[1]) <= 1e-8

    def test_identity_map_closes_the_gap(self):
        spec = BvpSpec(G=3, M0=2, M1=2, k=1)
        gaps = solver.shoot(spec, ShootingConfig(), 1.0, 1.0).gap
        assert abs(gaps[0]) <= 1e-8 and abs(gaps[1]) <= 1e-8

    def test_generic_slope_gives_finite_gaps(self):
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        gaps = solver.shoot(spec, ShootingConfig(), 3.0, 3.0).gap
        assert all(math.isfinite(x) for x in gaps)
        assert abs(gaps[0]) > 1e-4

    def test_halves_take_their_first_step_at_the_start_offset(self):
        # On (k, k) of each table row the error estimate is 0, so only the
        # growth cap of 5 limits a step.  Each half starts at the offset
        # x = pi/(16G), 7x short of the match point, and steps x, 5x and
        # the last x; a ramp from a first step of 1e-3 took 6 steps.  Of
        # each left half 1% off (k, k) at seed accuracy, as Newton's far
        # iterates shoot, at most 10 steps are accepted (12 after a ramp).
        seed = solver._seed_config(ShootingConfig())
        for spec in table_specs():
            for config in (ShootingConfig(), seed):
                shot = solver.shoot(spec, config, spec.k, spec.k)
                assert [len(rows) for rows in shot.rows] == [3, 3]
            w = 0.01 * (1.0 + abs(spec.k))
            assert len(solver.shoot(spec, seed, spec.k + w, spec.k + w).rows[0]) <= 10

    @pytest.mark.parametrize("a, b", [
        (math.inf, 1.0), (math.nan, 1.0), (1.0, -math.inf), (1.0, math.nan),
        (np.float64(math.inf), 1.0),
    ])
    def test_non_finite_slope_named_before_integrating(self, monkeypatch, a, b):
        # an infinity raised "math domain error" from math.remainder in the
        # right-hand side, and a NaN an IntegratorStall at step underflow
        def fail(*args, **kwargs):
            raise AssertionError("integrated a non-finite slope")

        monkeypatch.setattr(solver, "series_start", fail)
        with pytest.raises(ValueError, match=r"^slopes a, b must be finite, got \("):
            solver.shoot(BvpSpec(G=1, M0=2, M1=2, k=1), ShootingConfig(), a, b)


def scalar_dense_states(steps, nodes):
    """Per-node scalar quartic interpolation in _dp_run's step rows: walk
    the steps and the nodes in order, and give each node to the first step
    whose end t + h reaches it, as the step loop meets it.  Its step's
    coefficients d_j = h * sum_s P[s][j] k_s are summed stage by stage,
    then u = y + theta (d0 + theta (d1 + theta (d2 + theta d3)))."""
    out = []
    rows = iter(steps)
    t, h, r, v, *ks = next(rows)
    direction = 1.0 if h > 0.0 else -1.0
    stages = (solver._P[0], *solver._P[2:])
    for node in nodes:
        node = float(node)
        while (t + h - node) * direction < 0.0:
            t, h, r, v, *ks = next(rows)
        th = (node - t) / h
        state = [node]
        for y, k in ((r, ks[0::2]), (v, ks[1::2])):
            d = []
            for j in range(4):
                acc = stages[0][j] * k[0]
                for p, k_s in zip(stages[1:], k[1:]):
                    acc = acc + p[j] * k_s
                d.append(h * acc)
            u = d[3] * th + d[2]
            u = u * th + d[1]
            u = u * th + d[0]
            state.append(y + u * th)
        out.append(state)
    return np.array(out)


def profile_at(spec, config, a, b):
    """The 513-point profile from a fresh shot at (a, b) and config."""
    return solver._dense_profile(spec, config, solver.shoot(spec, config, a, b), 513)


class TestDenseOutput:
    # (1,2,2,1) at slope 3 is nonlinear, so every stage weight matters
    SPEC = BvpSpec(G=1, M0=2, M1=2, k=1)

    def recorded_steps(self, endpoint, t_end):
        """Step rows of the half from ``endpoint`` at slope 3 run to t_end."""
        accel = solver._zero_tangent(ode.rhs(self.SPEC))
        t0, r0, v0, *_ = solver.series_start(self.SPEC, endpoint, 3.0, 1e-5)
        steps = []
        solver._dp_run(accel, solver._dp_start(accel, (t0, r0, v0, 0.0, 0.0), t_end, 1e-5), t_end,
                       ShootingConfig(), steps)
        return steps

    @pytest.mark.parametrize("endpoint", [Endpoint.LEFT, Endpoint.RIGHT])
    def test_nodes_equal_scalar_interpolation_bit_for_bit(self, endpoint):
        nodes = np.linspace(0.2, 2.9, 301)
        if endpoint is Endpoint.RIGHT:
            nodes = nodes[::-1].copy()
        steps = self.recorded_steps(endpoint, float(nodes[-1]))
        states = solver._dense_states([(steps, nodes)])
        assert states.shape == (len(nodes), 3) and states[:, 0].tolist() == nodes.tolist()
        assert states.tobytes() == scalar_dense_states(steps, nodes).tobytes()

    @pytest.mark.parametrize("endpoint", [Endpoint.LEFT, Endpoint.RIGHT])
    def test_node_on_a_step_end_and_the_clipped_last_step(self, endpoint):
        t_end = 0.2 if endpoint is Endpoint.RIGHT else 2.9
        steps = self.recorded_steps(endpoint, t_end)
        t_last, h_last = steps[-1][:2]
        assert h_last == t_end - t_last            # the last step is clipped
        ends = [t + h for t, h, *_ in steps[:-1]]
        nodes = np.array(sorted(
            ends + np.linspace(0.2, 2.9, 97)[1:-1].tolist() + [t_end],
            reverse=endpoint is Endpoint.RIGHT,
        ))
        assert nodes[-1] == t_end
        states = solver._dense_states([(steps, nodes)])
        assert states.tobytes() == scalar_dense_states(steps, nodes).tobytes()
        # A node on a step end is that step's theta = 1 and not the next
        # step's theta = 0, which here differ in the last bit.
        on_ends = np.isin(nodes, ends)
        next_step = np.array([row[2:4] for row in steps[1:]])
        assert (states[on_ends, 1:] != next_step).any()

    @pytest.mark.parametrize("endpoint", [Endpoint.LEFT, Endpoint.RIGHT])
    @pytest.mark.parametrize("tangent", [False, True])
    def test_recording_leaves_the_run_unchanged(self, endpoint, tangent):
        # recording a run with the start tangent (1, 0), or one with the
        # zero tangent, leaves it unchanged, and the other kind of run takes
        # the same steps: the same (t, r, v, h, k1v, steps) and step rows
        t_end = 0.2 if endpoint is Endpoint.RIGHT else 2.9
        t0, r0, v0, *_ = solver.series_start(self.SPEC, endpoint, 3.0, 1e-5)

        def run(carried, record=None):
            if carried:
                accel, start_tangent = ode.rhs_tangent(self.SPEC), (1.0, 0.0)
            else:
                accel, start_tangent = solver._zero_tangent(ode.rhs(self.SPEC)), (0.0, 0.0)
            start = solver._dp_start(accel, (t0, r0, v0, *start_tangent), t_end, 1e-5)
            return solver._dp_run(accel, start, t_end, ShootingConfig(), record)

        steps, other_steps = [], []
        plain, recorded = run(tangent), run(tangent, steps)
        other = run(not tangent, other_steps)
        assert struct.pack("<5dq3d", *plain) == struct.pack("<5dq3d", *recorded)
        assert run_bits(recorded) == run_bits(other)
        assert np.array(steps).tobytes() == np.array(other_steps).tobytes()
        # one row per accepted step: each starts where the last one ended,
        # so the ends are strictly monotone and a rejected step has no row
        direction = 1.0 if t_end > t0 else -1.0
        assert steps[0][0] == t0 and len(steps) <= plain[5]
        for (t, h, *_), (t_next, *_) in zip(steps, steps[1:]):
            assert t_next == t + h and (t_next - t) * direction > 0.0
        t, h = steps[-1][:2]
        assert (t + h - t_end) * direction >= 0.0 and recorded[0] == t + h

    def test_profile_samples_equal_scalar_interpolation(self, monkeypatch):
        # both halves of a profile, the right one integrated backwards
        config = ShootingConfig()
        fast = profile_at(self.SPEC, config, 3.0, 2.5)
        passes = []

        def scalar(runs):
            passes.append(len(runs))
            return np.vstack([scalar_dense_states(*run) for run in runs])

        monkeypatch.setattr(solver, "_dense_states", scalar)
        slow = profile_at(self.SPEC, config, 3.0, 2.5)
        assert passes == [2]        # one pass over both halves
        assert fast.samples.tobytes() == slow.samples.tobytes()
        assert struct.pack("<d", fast.residual) == struct.pack("<d", slow.residual)

    def test_halves_continue_after_a_last_step_of_an_ulp(self):
        # a shot whose last step is an ulp ends with h below _MIN_STEP; the
        # continuation past the match point starts from a longer step
        config = ShootingConfig()
        shot = solver.shoot(self.SPEC, config, 3.0, 2.5)
        short = dataclasses.replace(shot, ends=tuple(
            (t, r, v, math.copysign(5e-16, h), k1v, n) for t, r, v, h, k1v, n in shot.ends
        ))
        profile = solver._dense_profile(self.SPEC, config, short, 513)
        want = solver._dense_profile(self.SPEC, config, shot, 513)
        assert np.abs(profile.samples - want.samples).max() < 1e-8


def linear_specs():
    """The linear-solution problems of every classified action, |j| <= 4,
    by (G, M0, M1, k)."""
    acts = [actions.make_action(space, *triple) for triple in actions.strict_triples()
            for space in (Space.SPHERE, Space.ORTHOGONAL_GROUP)]
    acts.append(actions.make_action(Space.SP2_LIFT, 6, 1, 1))
    rows = {(a.bvp_g, a.m0, a.m1, actions.admissible_k(a, j))
            for a in acts for j in range(-4, 5) if j % 2 == 0 or a.odd_j_allowed}
    return [BvpSpec(*row) for row in sorted(rows) if classify.is_linear_solution(*row)]


def table_specs():
    return [
        BvpSpec(G=v.action.bvp_g, M0=v.action.m0, M1=v.action.m1, k=v.k)
        for v in classify.examples_table()
    ]


def max_rel_diff(got, want):
    """Largest entry difference of two 2x2 matrices over want's largest entry."""
    scale = max(abs(x) for row in want for x in row)
    return max(abs(g - w) for gr, wr in zip(got, want) for g, w in zip(gr, wr)) / scale


def half_end(spec, config, endpoint, slope, tangent):
    """End run state of the half from ``endpoint`` with ``slope``, run by
    _dp_run to the match point from its start, with the start's
    tangent or with the zero tangent."""
    accel = ode.rhs_tangent(spec) if tangent else solver._zero_tangent(ode.rhs(spec))
    (start, x), match = half_start(spec, config, endpoint, slope), config.resolved_match(spec)
    state = solver._dp_start(accel, start if tangent else (*start[:3], 0.0, 0.0), match, x)
    return solver._dp_run(accel, state, match, config)


def central_jacobian(spec, config, a, b, rel_step=1e-4):
    """((dg0/da, dg0/db), (dg1/da, dg1/db)) of shoot by central differences."""
    ha, hb = rel_step * (1.0 + abs(a)), rel_step * (1.0 + abs(b))
    pa, ma = solver.shoot(spec, config, a + ha, b).gap, solver.shoot(spec, config, a - ha, b).gap
    pb, mb = solver.shoot(spec, config, a, b + hb).gap, solver.shoot(spec, config, a, b - hb).gap
    return tuple(
        ((pa[i] - ma[i]) / (2.0 * ha), (pb[i] - mb[i]) / (2.0 * hb)) for i in range(2)
    )


class TestTangent:
    NONLINEAR = BvpSpec(G=1, M0=2, M1=2, k=1)
    ROOT = (12.12540210771784, 12.125402093593678)   # the criterion-7 root

    def test_value_equals_rhs_bit_for_bit(self):
        rng = np.random.default_rng(4412)
        for _ in range(2000):
            G = int(rng.integers(1, 13))
            M0, M1 = int(rng.integers(1, 10)), int(rng.integers(1, 10))
            t = float(rng.uniform(-7.0, 7.0))
            if ode.pole_distance(t, G) < 1e-6:
                continue
            r, v = float(rng.uniform(-20, 20)), float(rng.uniform(-50, 50))
            dr, dv = float(rng.normal()), float(rng.normal())
            spec = BvpSpec(G=G, M0=M0, M1=M1, k=1)
            got = ode.rhs_tangent(spec)(t, r, v, dr, dv)[0]
            assert got.hex() == ode.rhs(spec)(t, r, v).hex()

    def test_value_equals_rhs_on_an_escaping_trajectory(self):
        # every state an escaping run evaluates, up to |r'| near the cap
        accel = ode.rhs(self.NONLINEAR)
        jet = ode.rhs_tangent(self.NONLINEAR)
        states = []

        def recorded(t, r, v):
            states.append((t, r, v))
            return accel(t, r, v)

        t0, r0, v0, *_ = solver.series_start(self.NONLINEAR, Endpoint.LEFT, 10.0, 1e-5)
        with pytest.raises(TrajectoryEscaped):
            integrate(recorded, t0, r0, v0, math.pi - 1e-5, ShootingConfig(), 1e-5)
        assert len(states) > 100 and max(abs(v) for _t, _r, v in states) > 1e5
        for t, r, v in states:
            assert jet(t, r, v, 1.0, -0.5)[0].hex() == accel(t, r, v).hex()

    def test_derivative_matches_central_difference(self):
        rng = np.random.default_rng(4413)
        for _ in range(300):
            G = int(rng.integers(1, 13))
            spec = BvpSpec(G=G, M0=int(rng.integers(1, 10)), M1=int(rng.integers(1, 10)), k=1)
            t = float(rng.uniform(0.05, 0.95)) * spec.length
            r, v = float(rng.uniform(-20, 20)), float(rng.uniform(-50, 50))
            dr, dv = float(rng.normal()), float(rng.normal())
            accel, e = ode.rhs(spec), 1e-6
            want = (accel(t, r + e * dr, v + e * dv) - accel(t, r - e * dr, v - e * dv)) / (2 * e)
            got = ode.rhs_tangent(spec)(t, r, v, dr, dv)[1]
            assert got == pytest.approx(want, rel=1e-6, abs=1e-6 * abs(accel(t, r, v)) + 1e-9)

    @pytest.mark.parametrize("endpoint", list(Endpoint))
    def test_start_tangent_matches_central_difference(self, endpoint):
        for spec in (self.NONLINEAR, BvpSpec(G=6, M0=2, M1=2, k=-5), BvpSpec(G=4, M0=1, M1=3, k=5)):
            for slope in (-7.0, -1.0, 0.0, 0.5, 3.0, 12.0):
                for eps in (1e-3, 1e-5):
                    t, r, v, dr, dv = solver.series_start(spec, endpoint, slope, eps)
                    want = two_branch_start(spec, endpoint, slope, eps)
                    assert [x.hex() for x in (t, r, v)] == [x.hex() for x in want]
                    h = 1e-4
                    up = solver.series_start(spec, endpoint, slope + h, eps)
                    down = solver.series_start(spec, endpoint, slope - h, eps)
                    # the right start's r carries k*pi/G, so its difference
                    # quotient carries a rounding error of about |r| ulp / h
                    noise = 1e-11 * (1.0 + abs(r))
                    assert dr == pytest.approx((up[1] - down[1]) / (2 * h), rel=1e-7, abs=noise)
                    assert dv == pytest.approx((up[2] - down[2]) / (2 * h), rel=1e-7)

    def test_jacobian_matches_central_difference_of_shoot(self):
        # every table row, 1% of 1 + |k| off its linear slopes, and the
        # criterion-7 root.  On the exact linear ray the step control sees
        # zero error, so the steps are too long for an accurate tangent.
        config = ShootingConfig()
        points = [
            (spec, (spec.k + 0.01 * (1 + abs(spec.k)), spec.k - 0.007 * (1 + abs(spec.k))))
            for spec in table_specs()
        ]
        points.append((self.NONLINEAR, self.ROOT))
        for spec, (a, b) in points:
            jac = solver.shoot(spec, config, a, b).jac
            assert max_rel_diff(jac, central_jacobian(spec, config, a, b)) < 1e-6

    def test_tangent_shot_gaps_equal_plain_gaps_bit_for_bit(self):
        config = ShootingConfig()
        rng = random.Random(4414)
        points = [(spec, (spec.k, spec.k)) for spec in table_specs()]
        for spec in table_specs():
            w = 0.05 * (1.0 + abs(spec.k))
            points.append((spec, (spec.k + rng.uniform(-w, w), spec.k + rng.uniform(-w, w))))
        points += [(self.NONLINEAR, ab) for ab in ((3.0, 2.5), (-0.0, 0.0), self.ROOT)]
        for spec, (a, b) in points:
            ends = {
                tangent: [half_end(spec, config, endpoint, slope, tangent)
                          for endpoint, slope in ((Endpoint.LEFT, a), (Endpoint.RIGHT, b))]
                for tangent in (False, True)
            }
            assert list(map(run_bits, ends[True])) == list(map(run_bits, ends[False]))
            (_, rl, vl, *_), (_, rr, vr, *_) = ends[False]
            gap = solver.shoot(spec, config, a, b).gap
            assert struct.pack("<2d", *gap) == struct.pack("<2d", rl - rr, vl - vr)

    def test_tangent_shot_raises_what_a_plain_shot_raises(self):
        config = ShootingConfig(blowup_cap=10.0)
        for endpoint in Endpoint:
            with pytest.raises(TrajectoryEscaped) as plain:
                half_end(self.NONLINEAR, config, endpoint, 10.5, tangent=False)
            with pytest.raises(TrajectoryEscaped) as carried:
                half_end(self.NONLINEAR, config, endpoint, 10.5, tangent=True)
            assert str(carried.value) == str(plain.value)
            slopes = (10.5, 1.0) if endpoint is Endpoint.LEFT else (1.0, 10.5)
            with pytest.raises(TrajectoryEscaped) as shot:
                solver.shoot(self.NONLINEAR, config, *slopes)
            assert str(shot.value) == str(plain.value)


class TestRhsFactoryContract:
    def test_plain_callers_call_three_arguments(self, monkeypatch):
        # the benchmark's tracer and ns-per-call timer replace ode.rhs with
        # a factory whose closures take exactly (t, r, r'), so tangent
        # callers take the closure as ode.rhs_tangent.  A closure called
        # with another arity raises TypeError, which no solver path
        # catches.  The (plain, tangent) counts are: the solve (12, 224),
        # the sweep, at seed accuracy, (23394, 0) and the refinement of its
        # 2 brackets (3792, 6432).  Series starts evaluate the branch table
        # and call neither form.  The solve's plain evaluations continue the
        # halves of the shot Newton accepts past the match point for its
        # profile.  RHS counts do not depend on the machine.
        counts = {"plain": 0, "tangent": 0}
        rhs, rhs_tangent = ode.rhs, ode.rhs_tangent

        def plain(spec, *args, **kwargs):
            accel = rhs(spec, *args, **kwargs)

            def counted(t, r, rdot):
                counts["plain"] += 1
                return accel(t, r, rdot)

            return counted

        def tangent(spec, *args, **kwargs):
            jet = rhs_tangent(spec, *args, **kwargs)

            def counted(t, r, rdot, dr, drdot):
                counts["tangent"] += 1
                return jet(t, r, rdot, dr, drdot)

            return counted

        monkeypatch.setattr(ode, "rhs", plain)
        monkeypatch.setattr(ode, "rhs_tangent", tangent)
        spec = BvpSpec(G=6, M0=2, M1=2, k=-5)
        w = 0.05 * (1.0 + abs(spec.k))
        assert solver.solve(spec, init=(spec.k + 0.6 * w, spec.k - 0.3 * w)).residual <= 1e-6
        assert counts == {"plain": 12, "tangent": 224}
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        config = ShootingConfig(bracket=(0.0, 20.0), sweep_points=17)
        points = solver.sweep(spec, config)
        assert sum(p.sign_change for p in points) == 2
        assert counts == {"plain": 12 + 23394, "tangent": 224}
        assert len(solver.refine_brackets(spec, config, points)) == 1
        assert counts == {"plain": 12 + 23394 + 3792, "tangent": 224 + 6432}


def newton_step(shot):
    """The full Newton step (da, db) from ``shot``, the minimum-norm one
    where its Jacobian's sigma_min / sigma_max is below 1e-6, else Cramer's,
    and that ratio; (None, 0.0) at a zero or non-finite Jacobian."""
    gap = shot.gap
    (j00, j01), (j10, j11) = shot.jac
    top, bottom, (v0, v1) = solver._singular_values(shot.jac)
    if not 0.0 < top < math.inf:
        return None, 0.0
    if bottom / top < 1e-6:     # the minimum-norm step
        w = (v0 * (j00 * gap[0] + j10 * gap[1]) + v1 * (j01 * gap[0] + j11 * gap[1]))
        w /= top * top
        return (w * v0, w * v1), bottom / top
    det = j00 * j11 - j01 * j10
    return ((j11 * gap[0] - j01 * gap[1]) / det, (j00 * gap[1] - j10 * gap[0]) / det), bottom / top


def damped(spec, config, shot, delta):
    """(trial, full): the first trial shot - lam * delta, lam = 1, 1/2, ...,
    at most 20 of them, shot at config, whose gap norm is below shot's, and
    whether lam is 1; an escape or stall is a trial that is not.  (None,
    False) if no trial is."""
    lam = 1.0
    for _ in range(20):
        try:
            trial = solver.shoot(spec, config, shot.a - lam * delta[0], shot.b - lam * delta[1])
        except (TrajectoryEscaped, IntegratorStall):
            lam *= 0.5
            continue
        if trial.norm < shot.norm:
            return trial, lam == 1.0
        lam *= 0.5
    return None, False


def reference_newton(spec, config, shot, iterations=0):
    """solve's damped Newton on shots at ``config``, from ``shot`` at
    iteration ``iterations``, with no memo: the shot it stops at.  A shot
    whose gap norm is within the tolerance stops it if its Jacobian is
    rank-deficient or its step is within the tolerance too, and is kept if
    the cap or the damping forbids its step."""
    tol = solver.GAP_TOL_FACTOR * (1.0 + abs(spec.k))
    while True:
        delta, ratio = newton_step(shot)
        inside = shot.norm <= tol
        if inside and (ratio < 1e-6 or max(abs(delta[0]), abs(delta[1])) <= tol):
            return shot
        trial = None
        if iterations < config.max_newton and delta is not None:
            trial, _ = damped(spec, config, shot, delta)
        if trial is None:
            if inside:
                return shot
            why = ("iteration cap reached" if iterations >= config.max_newton else
                   "singular jacobian" if delta is None else "damping failed to reduce gap")
            raise NoConvergence(shot.gap, (shot.a, shot.b), iterations, why)
        shot, iterations = trial, iterations + 1


def reference_solve(spec, config, init):
    """solve with every shot at ``config``."""
    shot = solver.shoot(spec, config, float(init[0]), float(init[1]))
    return solver._dense_profile(spec, config, reference_newton(spec, config, shot), 513)


def seed_phase(spec, config, a, b, predict=True):
    """(a, b, iterations, shot) where a seed phase from (a, b) ends: Newton
    at rel_tol 1e-6, abs_tol scaled alike, until |gap| <= 1e-4 (1 + |k|),
    or, if ``predict``, until an undamped step from a norm n' to one of n
    predicts n (n/n')^2 within that for the next, whose step it shoots at
    ``config`` and returns as ``shot``; else ``shot`` is None.  An escape or
    stall of its first shot, the cap, a singular Jacobian or failed damping
    ends it at its last iterate."""
    scale = 1e-6 / config.rel_tol
    seed = dataclasses.replace(config, rel_tol=1e-6, abs_tol=config.abs_tol * scale)
    switch = 1e-4 * (1.0 + abs(spec.k))
    try:
        shot = solver.shoot(spec, seed, a, b)
    except (TrajectoryEscaped, IntegratorStall):
        return a, b, 0, None
    iterations, previous = 0, None
    while shot.norm > switch and iterations < config.max_newton:
        n, (delta, _) = shot.norm, newton_step(shot)
        if delta is None:
            break
        predicted = predict and previous is not None and n * (n / previous) ** 2 <= switch
        trial, full = damped(spec, config if predicted else seed, shot, delta)
        if trial is None:
            break
        iterations += 1
        if predicted:
            return trial.a, trial.b, iterations, trial
        shot, previous = trial, n if full else None
    return shot.a, shot.b, iterations, None


def two_phase_reference(spec, config, init, predict=True):
    """solve as two phases: the :func:`seed_phase` from ``init``, then
    Newton at ``config`` from its shot at config, or else from its last
    slopes shot again at config; the iteration cap spans both."""
    a, b, iterations, shot = seed_phase(spec, config, float(init[0]), float(init[1]), predict)
    shot = shot or solver.shoot(spec, config, a, b)
    return solver._dense_profile(spec, config, reference_newton(spec, config, shot, iterations), 513)


def solve_outcome(fn, spec, config, init):
    try:
        p = fn(spec, config, init)
    except CohomError as exc:
        return "raised", type(exc), str(exc), getattr(exc, "iterate", None)
    floats = (p.slope0, p.slope1, *p.match_gap, p.residual)
    return "converged", struct.pack("<5d", *floats), p.samples.tobytes()


def newton_cases():
    """(spec, config, init, part of the expected message or None if it
    converges): perturbed table rows, then one case per way out of solve."""
    rng = random.Random(4)
    cases = []
    for v in classify.examples_table()[::4]:
        spec = BvpSpec(G=v.action.bvp_g, M0=v.action.m0, M1=v.action.m1, k=v.k)
        w = 0.05 * (1.0 + abs(v.k))
        init = (v.k + rng.uniform(-w, w), v.k + rng.uniform(-w, w))
        cases.append((spec, ShootingConfig(), init, None))
    nonlinear = BvpSpec(G=1, M0=2, M1=2, k=1)
    capped = ShootingConfig(blowup_cap=10.0)
    return cases + [
        (BvpSpec(G=1, M0=1, M1=1, k=1), ShootingConfig(),
         (0.9939276939480615, 0.9430737289260273), None),
        # the predicted step, shot at config, lands at |gap| 6.3e-9, just
        # outside the tolerance 2e-9
        (BvpSpec(G=8, M0=4, M1=7, k=1), ShootingConfig(),
         (1.0379090647628626, 1.0769999589922035), None),
        (nonlinear, ShootingConfig(max_newton=2), (1.4, 0.7), "iteration cap reached"),
        (nonlinear, capped, (9.75, -0.5), "damping failed to reduce gap"),
        (nonlinear, capped, (10.5, 1.0), "trajectory escaped"),
        (nonlinear, ShootingConfig(), (12.1, 12.2), None),
    ]


class TestSharedHalves:
    @pytest.mark.parametrize("spec, config, init, expected", newton_cases())
    def test_solve_is_bit_identical_to_memo_free_newton(
        self, monkeypatch, spec, config, init, expected
    ):
        # seed accuracy at the config's own: every shot at config
        monkeypatch.setattr(solver, "_SEED_REL_TOL", config.rel_tol)
        got = solve_outcome(solver.solve, spec, config, init)
        assert got == solve_outcome(reference_solve, spec, config, init)
        if expected is None:
            assert got[0] == "converged"
        else:
            assert expected in got[2]

    @pytest.mark.parametrize("spec, config, init, expected", newton_cases())
    def test_solve_is_bit_identical_to_two_phase_newton(self, spec, config, init, expected):
        # the default tolerances, so far iterates are shot at seed accuracy;
        # the cap, the damping and the escape cases hand over from there
        got = solve_outcome(solver.solve, spec, config, init)
        assert got == solve_outcome(two_phase_reference, spec, config, init)
        if expected is None:
            assert got[0] == "converged"
        else:
            assert expected in got[2]

    def test_each_shot_makes_two_end_point_runs_and_nothing_else(self, monkeypatch):
        spec = BvpSpec(G=2, M0=1, M1=3, k=-1)
        shots, runs = [], []
        shoot, dp_run = solver.shoot, solver._dp_run

        def counted_shoot(*args, **kwargs):
            shots.append(args[1:4])
            return shoot(*args, **kwargs)

        def counted_run(accel, state, t_end, config, record=None):
            runs.append((state[0], t_end, state[6:8] != (0.0, 0.0)))
            return dp_run(accel, state, t_end, config, record)

        monkeypatch.setattr(solver, "shoot", counted_shoot)
        monkeypatch.setattr(solver, "_dp_run", counted_run)
        solver.solve(spec, init=(-0.97, -1.04))
        assert len(shots) > 3
        # two halves per shot, with their tangents, from their starts to the
        # match point, then the accepted shot's halves continue from it
        # across the blend window with the zero tangent, the left one up and
        # the right one down
        match, n = spec.length / 2.0, 2 * len(shots)
        assert runs[:n] == [
            (half_start(spec, config, endpoint, slope)[0][0], match, True)
            for config, a, b in shots for endpoint, slope in zip(Endpoint, (a, b))
        ]
        (left_from, hi, left_tangent), (right_from, lo, right_tangent) = runs[n:]
        assert left_from == right_from == match and lo < match < hi
        assert not left_tangent and not right_tangent

    @pytest.mark.parametrize(
        "spec, config, init", [case[:3] for case in newton_cases() if case[3] is None]
    )
    def test_profile_depends_on_the_converged_slopes_alone(self, spec, config, init):
        # solve's profile, from the shot Newton accepted, equals one from a
        # fresh shot at its slopes
        profile = solver.solve(spec, config, init=init)
        fresh = profile_at(spec, config, profile.slope0, profile.slope1)
        assert struct.pack("<2d", *fresh.match_gap) == struct.pack("<2d", *profile.match_gap)
        assert fresh.samples.tobytes() == profile.samples.tobytes()
        assert fresh.residual.hex() == profile.residual.hex()

    def test_escaping_trial_is_halved_not_raised(self, monkeypatch):
        # from (5, 1) with the cap at 10 the first full Newton step escapes
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        shots = []
        shoot = solver.shoot

        def recorded(spec, config, a, b):
            try:
                out = shoot(spec, config, a, b)
            except TrajectoryEscaped:
                shots.append(((a, b), "escaped"))
                raise
            shots.append(((a, b), "ok"))
            return out

        monkeypatch.setattr(solver, "shoot", recorded)
        profile = solver.solve(spec, ShootingConfig(blowup_cap=10.0), init=(5.0, 1.0))
        assert abs(profile.slope0 - 1.0) < 1e-6 and abs(profile.slope1 - 1.0) < 1e-6
        i = [outcome for _ab, outcome in shots].index("escaped")
        assert i == 1 and shots[0] == ((5.0, 1.0), "ok")
        # the next trial is the iterate plus half the escaping step
        (a0, b0), (ae, be), (ah, bh) = (ab for ab, _outcome in shots[:3])
        assert ah == pytest.approx(a0 + 0.5 * (ae - a0), rel=1e-12)
        assert bh == pytest.approx(b0 + 0.5 * (be - b0), rel=1e-12)


def shot_configs(monkeypatch):
    """The config of every shot solve makes from now on, in order."""
    configs = []
    shoot = solver.shoot

    def spy(spec, config, a, b):
        configs.append(config)
        return shoot(spec, config, a, b)

    monkeypatch.setattr(solver, "shoot", spy)
    return configs


def solve_lines(caplog, spec, config, init):
    """solve's outcome and the solve lines it logged at DEBUG level."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="cohom1"):
        try:
            outcome = solver.solve(spec, config, init=init)
        except CohomError as exc:
            outcome = exc
    return outcome, [
        r.getMessage() for r in caplog.records
        if r.name == "cohom1" and r.getMessage().startswith("solve: ")
    ]


class TestTwoPhaseNewton:
    SPEC = BvpSpec(G=6, M0=4, M1=4, k=-5)
    INIT = (-5.260090942592246, -5.059045391308955)   # 5% of 1 + |k| off
    NONLINEAR = BvpSpec(G=1, M0=2, M1=2, k=1)

    def test_convergence_and_profile_at_the_callers_config(self, monkeypatch):
        config = ShootingConfig()
        configs = shot_configs(monkeypatch)
        dense = []
        dense_profile = solver._dense_profile

        def dense_spy(spec, config, *args):
            dense.append(config)
            return dense_profile(spec, config, *args)

        monkeypatch.setattr(solver, "_dense_profile", dense_spy)
        solver.solve(self.SPEC, config, init=self.INIT)
        seed = configs[0]
        assert (seed.rel_tol, seed.abs_tol) == (1e-6, pytest.approx(1e-8, rel=1e-15))
        n = configs.index(config)
        assert n >= 1 and configs == [seed] * n + [config] * (len(configs) - n)
        # the shot that decides convergence and the profile: the same object
        assert configs[-1] is config and len(dense) == 1 and dense[0] is config

    def test_one_phase_at_seed_accuracy_or_coarser(self, monkeypatch):
        configs = shot_configs(monkeypatch)
        for rel_tol in (1e-6, 1e-5):
            config = ShootingConfig(rel_tol=rel_tol, abs_tol=rel_tol * 1e-2)
            del configs[:]
            got = solve_outcome(solver.solve, self.SPEC, config, self.INIT)
            assert configs and all(c is config for c in configs)
            assert got == solve_outcome(reference_solve, self.SPEC, config, self.INIT)

    def test_debug_line_per_solve(self, caplog, monkeypatch):
        configs = shot_configs(monkeypatch)
        profile, lines = solve_lines(caplog, self.SPEC, ShootingConfig(), self.INIT)
        seed_shots = sum(c.rel_tol == 1e-6 for c in configs)
        assert lines == [
            f"solve: {seed_shots} shots at seed rel_tol 1e-06, "
            f"{len(configs) - seed_shots} at rel_tol 1e-10; "
            "hand-over: predicted |gap| 6.74e-07; "
            "converged in 3 iterations, stopped on the step: max|delta| 7.83e-12"
        ]
        assert seed_shots == 2 and profile.residual <= 1e-6
        # seed accuracy at the config's own: no shot at seed accuracy
        del configs[:]
        coarse = ShootingConfig(rel_tol=1e-6, abs_tol=1e-8)
        _, lines = solve_lines(caplog, self.SPEC, coarse, self.INIT)
        assert len(lines) == 1 and re.fullmatch(
            f"solve: 0 shots at seed rel_tol 1e-06, {len(configs)} at rel_tol 1e-06; "
            r"hand-over: none; converged in 3 iterations, stopped on the step: max\|delta\| \S+",
            lines[0],
        )
        # the (1,1,1,1) family's Jacobian is rank-deficient: the gap stops Newton
        family, init = BvpSpec(G=1, M0=1, M1=1, k=1), (0.9939276939480615, 0.9430737289260273)
        _, lines = solve_lines(caplog, family, ShootingConfig(), init)
        assert lines == [
            "solve: 2 shots at seed rel_tol 1e-06, 2 at rel_tol 1e-10; "
            "hand-over: predicted |gap| 2.41e-07; "
            "converged in 3 iterations, stopped on the gap: rank ratio 2.15e-10"
        ]

    @pytest.mark.parametrize("config, init, handover", [
        (ShootingConfig(max_newton=2), (1.4, 0.7), "no convergence .*: iteration cap reached"),
        (ShootingConfig(blowup_cap=10.0), (9.75, -0.5),
         "no convergence .*: damping failed to reduce gap"),
        (ShootingConfig(blowup_cap=10.0), (11.0, 1.0), r"trajectory escaped at t=[^;]*"),
    ])
    def test_hand_over_raises_from_the_callers_config(
        self, caplog, monkeypatch, config, init, handover
    ):
        configs = shot_configs(monkeypatch)
        exc, lines = solve_lines(caplog, self.NONLINEAR, config, init)
        # the seed-accuracy exception, then the one solve raises
        assert len(lines) == 1 and lines[0].endswith(f"; {exc}")
        assert re.fullmatch(handover, lines[0].removesuffix(f"; {exc}").split("; hand-over: ")[1])
        assert configs[0].rel_tol == 1e-6 and configs[-1] is config
        if isinstance(exc, NoConvergence):
            # the cap counts the iterations at both accuracies
            assert exc.iterations <= config.max_newton
            gaps = solver.shoot(self.NONLINEAR, config, *exc.iterate).gap
            assert struct.pack("<2d", *exc.gaps) == struct.pack("<2d", *gaps)
        else:
            with pytest.raises(TrajectoryEscaped) as plain:
                solver.shoot(self.NONLINEAR, config, *init)
            assert str(exc) == str(plain.value)

    # Two starts of the seed-1 newton-recover draw.  (8,1,3,1): a full seed
    # step takes |gap| from 0.24 to 5.0e-4, which predicts 2.1e-9 for the
    # next; the first shot at config, at the full step from there, finds
    # 1.8e-9, inside the tolerance 2e-9, and a step of 7.3e-10, inside it
    # too, so Newton stops there, at residual 3.4e-7.  (12,1,1,-11): the
    # second shot at config finds 4.0e-9, inside the tolerance 1.2e-8, and a
    # step of 2.0e-8, outside it; the step brings the gap to 1.9e-15 and the
    # residual from 1.8e-6 (where the gap alone stopped Newton) to 1.3e-8.
    PLACED = BvpSpec(G=8, M0=1, M1=3, k=1), (0.911586845993481, 0.9385034867323193)
    STEPPED = BvpSpec(G=12, M0=1, M1=1, k=-11), (-10.41034390837324, -10.867026622260914)

    def test_iterate_inside_the_gap_tolerance_stops_on_its_own_step(self, caplog, monkeypatch):
        (spec, init), config = self.PLACED, ShootingConfig()
        configs = shot_configs(monkeypatch)
        profile, lines = solve_lines(caplog, spec, config, init)
        assert lines == [
            "solve: 2 shots at seed rel_tol 1e-06, 1 at rel_tol 1e-10; "
            "hand-over: predicted |gap| 2.1e-09; "
            "converged in 2 iterations, stopped on the step: max|delta| 7.27e-10"
        ]
        assert configs[2] is config and 1e-9 < math.hypot(*profile.match_gap) <= 2e-9
        assert profile.residual <= 1e-6
        spec, init = self.STEPPED
        profile, lines = solve_lines(caplog, spec, config, init)
        assert lines == [
            "solve: 2 shots at seed rel_tol 1e-06, 3 at rel_tol 1e-10; "
            "hand-over: predicted |gap| 0.000193; "
            "converged in 4 iterations, stopped on the step: max|delta| 1.15e-14"
        ]
        assert math.hypot(*profile.match_gap) <= 1e-14 and profile.residual <= 1e-7

    def scripted(self, monkeypatch, config, gaps):
        """From now on every shot has the gap (f, 0), f of the first (top,
        f) of ``gaps`` with a < top, and the Jacobian diag(0.05, 1), and
        solve returns the shot it accepts.  Returns the (whether at
        ``config``, a) of each shot."""
        calls = []

        def scripted(spec, cfg, a, b):
            calls.append((cfg is config, a))
            f = next(f for top, f in gaps if a < top)
            return solver.Shot(a, b, (f, 0.0), abs(f), ((0.05, 0.0), (0.0, 1.0)), (), (), ())

        monkeypatch.setattr(solver, "shoot", scripted)
        monkeypatch.setattr(solver, "_dense_profile", lambda spec, config, shot, n: shot)
        return calls

    # From a = 1 the gap 1e-2 takes a full seed step to a = 0.8, where the
    # gap 1e-9 meets the switch and, shot again at config, the tolerance
    # 2e-9, but the Jacobian puts its step at 2e-8, and every trial of it
    # keeps the gap.
    GAPS = ((0.9, 1e-9), (math.inf, 1e-2))

    def test_step_the_cap_forbids_keeps_the_converged_iterate(self, caplog, monkeypatch):
        config = ShootingConfig(max_newton=1)
        calls = self.scripted(monkeypatch, config, self.GAPS)
        shot, lines = solve_lines(caplog, self.NONLINEAR, config, (1.0, 1.0))
        assert lines == [
            "solve: 2 shots at seed rel_tol 1e-06, 1 at rel_tol 1e-10; hand-over: none; "
            "converged in 1 iterations, kept the iterate: iteration cap reached"
        ]
        assert calls == [(False, 1.0), (False, pytest.approx(0.8)), (True, pytest.approx(0.8))]
        assert shot.gap == (1e-9, 0.0)

    def test_step_no_trial_lowers_keeps_the_converged_iterate(self, caplog, monkeypatch):
        config = ShootingConfig()
        calls = self.scripted(monkeypatch, config, self.GAPS)
        shot, lines = solve_lines(caplog, self.NONLINEAR, config, (1.0, 1.0))
        assert lines == [
            "solve: 2 shots at seed rel_tol 1e-06, 21 at rel_tol 1e-10; hand-over: none; "
            "converged in 1 iterations, kept the iterate: damping failed to reduce gap"
        ]
        # the iterate, then its 20 trials, halving the step of 2e-8
        a = calls[2][1]
        assert calls[2:] == [(True, a)] + [
            (True, pytest.approx(a - 2e-8 * 0.5 ** j, abs=1e-15)) for j in range(20)
        ]
        assert shot.a == a and shot.gap == (1e-9, 0.0)

    @pytest.mark.parametrize(
        "spec, config, init",
        [(SPEC, ShootingConfig(), INIT)] + [case[:3] for case in newton_cases() if case[3] is None],
    )
    def test_predicted_hand_over_saves_the_last_seed_shot(self, monkeypatch, spec, config, init):
        # the profile of the two-phase rule, with one seed shot fewer than
        # the seed phase takes when it switches only at a gap inside the
        # switch; the far nonlinear start's first seed step already meets
        # the switch, and its first shot follows no step, so it predicts
        # nothing
        calls = []
        shoot = solver.shoot

        def spy(spec, config, a, b):
            calls.append(config.rel_tol)
            return shoot(spec, config, a, b)

        monkeypatch.setattr(solver, "shoot", spy)
        want = solve_outcome(two_phase_reference, spec, config, init)
        del calls[:]
        two_phase_reference(spec, config, init, predict=False)
        unpredicted = calls.count(1e-6)
        del calls[:]
        assert solve_outcome(solver.solve, spec, config, init) == want
        saved = 0 if init == (12.1, 12.2) else 1
        assert unpredicted >= 2 and calls.count(1e-6) == unpredicted - saved

    @pytest.mark.parametrize("wrong", ["escapes", "keeps the norm"])
    def test_wrong_prediction_is_damped_at_the_callers_config(self, monkeypatch, wrong):
        # the first shot at config, the predicted full step, escapes or
        # returns the gap of the seed iterate it steps from: the half step
        # is shot at config too, and no shot at seed accuracy follows
        config = ShootingConfig()
        calls, seed_shots = [], []
        shoot = solver.shoot

        def spoiled(spec, cfg, a, b):
            calls.append((cfg, a, b))
            out = shoot(spec, cfg, a, b)
            if cfg is not config:
                seed_shots.append(out)
            elif len(calls) == 3:
                if wrong == "escapes":
                    raise TrajectoryEscaped(0.1, 1e7, 1e7)
                return dataclasses.replace(out, gap=seed_shots[-1].gap, norm=seed_shots[-1].norm)
            return out

        monkeypatch.setattr(solver, "shoot", spoiled)
        profile = solver.solve(self.SPEC, config, init=self.INIT)
        assert profile.residual <= 1e-6
        assert [cfg is config for cfg, _, _ in calls] == [False, False] + [True] * (len(calls) - 2)
        (_, a0, b0), (_, a1, b1), (_, a2, b2) = calls[1:4]
        assert (a2, b2) == (a0 + 0.5 * (a1 - a0), b0 + 0.5 * (b1 - b0))

    def test_no_prediction_after_a_damped_step_or_on_a_first_shot(self, monkeypatch):
        # a scripted gap (F(a), 0) with Jacobian 1, at switch 2e-4: from
        # a = 1 the full step to 0 raises the norm and the half step to 0.5
        # lowers it to 1e-2, which would predict 1e-6 were the step full;
        # from 0.5 the full step to 0.49 gives 1e-3, which predicts 1e-5
        spec, config = BvpSpec(G=1, M0=2, M1=2, k=1), ShootingConfig()
        calls = []

        def scripted(spec, cfg, a, b):
            calls.append((cfg is config, a))
            f = next((f for top, f in ((0.25, 5.0), (0.4895, 0.0), (0.495, 1e-3), (0.75, 1e-2))
                      if a < top), a)
            return solver.Shot(a, b, (f, 0.0), math.hypot(f, 0.0), ((1.0, 0.0), (0.0, 1.0)),
                               (), (), ())

        monkeypatch.setattr(solver, "shoot", scripted)
        monkeypatch.setattr(solver, "_dense_profile", lambda *args: args)
        seed, final = False, True
        for init, want in [
            (1.0, [(seed, 1.0), (seed, 0.0), (seed, 0.5), (seed, 0.49), (final, 0.489)]),
            (0.5, [(seed, 0.5), (seed, 0.49), (final, 0.489)]),
        ]:
            del calls[:]
            solver.solve(spec, config, init=(init, 1.0))
            assert [(c, pytest.approx(a, abs=1e-12)) for c, a in calls[:len(want)]] == want

    def test_linear_start_takes_no_seed_step(self):
        # from (k, k) the first seed shot meets the switch, so what follows
        # is Newton with every shot at config, from the same slopes
        config = ShootingConfig()
        for spec in table_specs():
            init = (float(spec.k), float(spec.k))
            got = solve_outcome(solver.solve, spec, config, init)
            assert got == solve_outcome(reference_solve, spec, config, init)

    def test_far_start_of_a_non_isolated_candidate(self):
        # (4,2,2,-3) from 5% off: a seed iterate meets the switch after one
        # iteration, and what solve reports comes from a shot at the
        # caller's config
        spec, config = BvpSpec(G=4, M0=2, M1=2, k=-3), ShootingConfig()
        try:
            profile = solver.solve(spec, config, init=(-3.154, -2.952))
        except NoConvergence as exc:
            iterate, gaps = exc.iterate, exc.gaps
        else:
            iterate, gaps = (profile.slope0, profile.slope1), profile.match_gap
        want = solver.shoot(spec, config, *iterate).gap
        assert struct.pack("<2d", *gaps) == struct.pack("<2d", *want)

    def test_table_rows_take_at_most_three_quarters_of_the_tangent_evaluations(
        self, monkeypatch
    ):
        # every table row from 5% of 1 + |k| off (k, k); with every shot at
        # the solution tolerance the 14 rows other than (4,2,2,-3) took 20802
        # tangent evaluations and (4,2,2,-3), which runs to the iteration
        # cap, 90312.  Every row but (4,2,2,-3) solves to residual <= 1e-6;
        # (12,1,1,-11) missed (2.1e-6) while the gap alone stopped Newton.
        # With the seed accuracy they took 11034 and 72936; handing over at
        # the iterate Newton predicts inside the switch took the first to 9636.
        counts = [0]
        rhs_tangent = ode.rhs_tangent

        def counted_factory(spec):
            jet = rhs_tangent(spec)

            def counted(*args):
                counts[0] += 1
                return jet(*args)

            return counted

        monkeypatch.setattr(ode, "rhs_tangent", counted_factory)
        rng = random.Random(15)
        evaluations = {}
        for spec in table_specs():
            w = 0.05 * (1.0 + abs(spec.k))
            init = (spec.k + rng.uniform(-w, w), spec.k + rng.uniform(-w, w))
            before = counts[0]
            try:
                residual = solver.solve(spec, init=init).residual
            except NoConvergence:
                residual = math.inf
            evaluations[spec] = evaluations.get(spec, 0) + counts[0] - before
            key = (spec.G, spec.M0, spec.M1, spec.k)
            if key != (4, 2, 2, -3):
                assert residual <= 1e-6, key
        capped = evaluations.pop(BvpSpec(G=4, M0=2, M1=2, k=-3))
        assert sum(evaluations.values()) <= 0.75 * 20802
        assert sum(evaluations.values()) <= 9636
        assert capped <= 90312


class TestConfigDict:
    def test_every_field_in_order_with_bracket_as_list(self):
        spec = BvpSpec(G=2, M0=1, M1=3, k=1)
        config = ShootingConfig(bracket=(2, 5.5), match_point=0.7)
        assert json.dumps(config.to_dict(spec)) == (
            '{"eps0": 1e-05, "eps1": 1e-05, "rel_tol": 1e-10, "abs_tol": 1e-12, '
            '"match_point": 0.7, "bracket": [2.0, 5.5], "sweep_points": 512, '
            '"max_newton": 50, "blowup_cap": 1000000.0}'
        )
        resolved = ShootingConfig().to_dict(spec)
        assert resolved["bracket"] == [-8.0, 8.0]
        assert resolved["match_point"] == spec.length / 2.0


class TestConfigValidation:
    @pytest.mark.parametrize("k", [10**400, -(10**400)])
    def test_huge_k_named_before_any_float(self, k):
        # BvpSpec takes any integer k, but the bracket and the right boundary
        # value are floats: solve and sweep name k instead of overflowing
        spec = BvpSpec(G=2, M0=1, M1=1, k=k)
        for call in (ShootingConfig().validate, solver.solve, solver.sweep):
            with pytest.raises(ValueError, match="^k must round to a float below 2\\*\\*1024"):
                call(spec)

    @pytest.mark.parametrize("G", [1, 2])
    def test_k_whose_boundary_angle_overflows_is_named(self, G):
        # with a finite bracket, shoot and solve reduced an infinite angle
        # and raised a bare "math domain error"
        spec = BvpSpec(G=G, M0=1, M1=1, k=2**1023 + 1)
        config = ShootingConfig(bracket=(-1.0, 1.0))
        message = f"^k must keep 2 k pi/G a finite float for G={G}"
        for call in (
            lambda: config.validate(spec),
            lambda: solver.shoot(spec, config, 0.5, 0.5),
            lambda: solver.solve(spec, config),
        ):
            with pytest.raises(ValueError, match=message):
                call()

    def test_eps_bounds(self):
        spec = BvpSpec(G=6, M0=1, M1=1, k=1)
        with pytest.raises(ValueError):
            ShootingConfig(eps0=math.pi / 12).validate(spec)

    def test_positive_tolerances(self):
        spec = BvpSpec(G=1, M0=1, M1=1, k=1)
        with pytest.raises(ValueError):
            ShootingConfig(rel_tol=0.0).validate(spec)

    def test_match_point_inside_domain(self):
        spec = BvpSpec(G=2, M0=1, M1=1, k=1)
        with pytest.raises(ValueError):
            ShootingConfig(match_point=2.0).validate(spec)

    @pytest.mark.parametrize("name", ["rel_tol", "abs_tol", "blowup_cap"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_numbers_rejected(self, name, value):
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        with pytest.raises(ValueError, match=name):
            ShootingConfig(**{name: value}).validate(spec)

    @pytest.mark.parametrize("bracket", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)])
    def test_non_finite_bracket_rejected(self, bracket):
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        with pytest.raises(ValueError, match="bracket"):
            ShootingConfig(bracket=bracket).validate(spec)

    def test_bracket_nonempty(self):
        spec = BvpSpec(G=1, M0=1, M1=1, k=1)
        with pytest.raises(ValueError):
            ShootingConfig(bracket=(2.0, 2.0)).validate(spec)

    @pytest.mark.parametrize(
        "G, k",
        [(3, 2), (3, 0), (4, 2), (6, -1), (12, 3), (2, 0), (2, 2), (4, 3), (4, -1), (6, 4)],
    )
    def test_k_without_a_right_smooth_branch_rejected_before_integrating(
        self, monkeypatch, G, k
    ):
        # the phase 2(k-1)/G must be an even integer: the first five are no
        # integer, the last five odd; nothing is series-started or integrated
        spec = BvpSpec(G=G, M0=2, M1=2, k=k)
        config = ShootingConfig()

        def fail(*args, **kwargs):
            raise AssertionError("integrated a spec without a right smooth branch")

        for name in ("series_start", "_dp_run", "_integrate_lanes"):
            monkeypatch.setattr(solver, name, fail)
        points = [solver.SweepPoint(0.0, False, -1.0), solver.SweepPoint(1.0, True, 1.0)]
        for call in (
            lambda: config.validate(spec),
            lambda: solver.solve(spec),
            lambda: solver.shoot(spec, config, 1.0, 1.0),
            lambda: solver.sweep(spec, config),
            lambda: solver.refine_brackets(spec, config, points),
        ):
            with pytest.raises(ValueError, match="smooth branch") as raised:
                call()
            phase = 2 * (k - 1) / G
            assert f"phase 2(k-1)/G = {phase:g} is not an even integer" in str(raised.value)

    def test_odd_phase_solve_raises_instead_of_returning_a_non_solution(self):
        # (2,1,3,0) has the phase -1: its O(pi/G - t) terms cancel only for
        # the right slope 0, and from (0.3, 0.3) solve returned slopes
        # (1.8e-11, 0.0282) at residual 5.5e-6, which solve no problem
        spec = BvpSpec(G=2, M0=1, M1=3, k=0)
        with pytest.raises(ValueError, match=re.escape("phase 2(k-1)/G = -1 is not")):
            solver.solve(spec, init=(0.3, 0.3))

    def test_every_classified_problem_has_a_right_smooth_branch(self):
        # every admissible k, |j| <= 12, of every classified action (2913
        # pairs, 2537 problems) and every table row; the 209
        # linear-solution problems are those at |j| <= 4
        specs, near = set(table_specs()), set()
        sp2 = actions.make_action(Space.SP2_LIFT, 6, 1, 1)
        acts = [
            actions.make_action(space, g, m0, m1)
            for g, m0, m1 in actions.strict_triples()
            for space in (Space.SPHERE, Space.ORTHOGONAL_GROUP)
        ]
        pairs = [
            (action, j)
            for action in [*acts, sp2]
            for j in range(-12, 13)
            if j % 2 == 0 or action.odd_j_allowed
        ]
        for action, j in pairs:
            spec = BvpSpec.from_action(action, j)
            specs.add(spec)
            if abs(j) <= 4:
                near.add(spec)
        assert (len(pairs), len(specs)) == (2913, 2537)
        linear = [s for s in near if classify.is_linear_solution(s.G, s.M0, s.M1, s.k)]
        assert len(linear) == 209
        for spec in specs:
            ShootingConfig().validate(spec)

    @pytest.mark.parametrize("name, value", [
        ("sweep_points", 64.0), ("sweep_points", True), ("sweep_points", "64"),
        ("max_newton", 2.5), ("max_newton", math.inf), ("max_newton", True),
        ("max_newton", np.float64(50)), ("max_newton", None), ("max_newton", "50"),
    ])
    def test_counts_not_an_int_rejected_before_integrating(self, monkeypatch, name, value):
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        config = ShootingConfig(**{name: value})

        def fail(*args, **kwargs):
            raise AssertionError("integrated with an invalid config")

        for fn in ("series_start", "_dp_run", "_integrate_lanes"):
            monkeypatch.setattr(solver, fn, fail)
        for call in (
            lambda: config.validate(spec),
            lambda: solver.solve(spec, config),
            lambda: solver.sweep(spec, config),
        ):
            with pytest.raises(ValueError, match=name):
                call()

    def test_numpy_int_counts_accepted(self):
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        config = ShootingConfig(sweep_points=np.int64(8), max_newton=np.int32(5))
        config.validate(spec)
        assert len(solver.sweep(spec, config)) == 8

    def test_numpy_scalars_leave_json_native_metadata(self):
        # json.dumps raised TypeError on the numpy ints of to_dict
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        config = ShootingConfig(
            rel_tol=np.float64(1e-10), match_point=np.float64(1.5),
            bracket=(np.float32(0.5), np.int64(2)), sweep_points=np.int64(8),
            max_newton=np.int32(5), blowup_cap=np.float32(1e6),
        )
        meta = solver.solve(spec, config).metadata(config)
        for d in (config.to_dict(spec), meta):
            assert json.loads(json.dumps(d)) == d
        values = [*meta["config"].values(), *meta["config"]["bracket"], *meta["match_gap"]]
        assert {type(x) for x in values} == {int, float, list}
        assert meta["config"]["sweep_points"] == 8 and meta["config"]["max_newton"] == 5

    @pytest.mark.parametrize("name, value", [
        ("eps0", 1e-5), ("eps1", 1e-5), ("rel_tol", 1e-10), ("abs_tol", 1e-12),
        ("match_point", 1.3), ("blowup_cap", 1e6), ("bracket", (0.3, 2.1)),
    ])
    def test_float32_fields_give_the_bits_of_their_floats(self, name, value):
        # a float32 eps0 kept every gap in single precision, and the identity
        # of (1,2,2,1) raised NoConvergence at a gap of 1.19e-7
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        single = tuple(map(np.float32, value)) if name == "bracket" else np.float32(value)
        double = tuple(map(float, single)) if name == "bracket" else float(single)
        got = ShootingConfig(sweep_points=8, **{name: single})
        want = ShootingConfig(sweep_points=8, **{name: double})
        assert got == want
        field = getattr(got, name)
        assert all(type(x) is float for x in (field if name == "bracket" else (field,)))
        for init in ((1.0, 1.0), (1.2, 0.9)):
            outcome = solve_outcome(lambda s, c, i: solver.solve(s, c, init=i), spec, got, init)
            assert outcome[0] == "converged"
            assert outcome == solve_outcome(
                lambda s, c, i: solver.solve(s, c, init=i), spec, want, init
            )
        assert bits(solver.sweep(spec, got)) == bits(solver.sweep(spec, want))

    @pytest.mark.parametrize("name, value", [
        ("eps0", "1e-5"), ("rel_tol", None), ("abs_tol", [1e-12]), ("match_point", "1.3"),
        ("blowup_cap", 1e6 + 0j), ("bracket", ("0", "1")), ("bracket", (0.0, None)),
        ("eps0", None), ("eps1", "1e-5"), ("eps1", 1e-5 + 0j), ("rel_tol", 1e-10 + 0j),
        ("abs_tol", True), ("match_point", 1.3 + 0j), ("match_point", True),
        ("blowup_cap", None), ("bracket", (0, 1, 2)), ("bracket", (False, 1.0)),
        ("bracket", 5.0),
    ])
    def test_float_fields_not_a_number_rejected_before_integrating(
        self, monkeypatch, name, value
    ):
        # the bracket took float() of each end, so ("0", "1") was a bracket;
        # a string or None met a compare as a TypeError that named no field,
        # (0, 1, 2) failed to unpack, and a bool was read as 0.0 or 1.0
        spec, config = BvpSpec(G=1, M0=2, M1=2, k=1), ShootingConfig(**{name: value})

        def fail(*args, **kwargs):
            raise AssertionError("integrated with an invalid config")

        for fn in ("series_start", "_dp_run", "_integrate_lanes"):
            monkeypatch.setattr(solver, fn, fail)
        for call in (
            lambda: config.validate(spec),
            lambda: solver.solve(spec, config),
            lambda: solver.sweep(spec, config),
        ):
            with pytest.raises(ValueError, match=f"^{name} must be a "):
                call()

    @pytest.mark.parametrize("name, value, message", [
        ("sweep_points", 1, "at least 2"), ("sweep_points", 0, "at least 2"),
        ("max_newton", 0, "max_newton"), ("max_newton", -3, "max_newton"),
    ])
    def test_counts_below_their_minimum_rejected(self, name, value, message):
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        with pytest.raises(ValueError, match=message):
            ShootingConfig(**{name: value}).validate(spec)

    def test_default_bracket_scales_with_k(self):
        spec = BvpSpec(G=3, M0=2, M1=2, k=-5)
        assert ShootingConfig().resolved_bracket(spec) == (-24.0, 24.0)


class TestSolve:
    def test_recovers_gradient_map_profile(self):
        spec = BvpSpec(G=3, M0=2, M1=2, k=-2)
        profile = solver.solve(spec)
        assert profile.max_linear_deviation() <= 1e-7
        assert profile.residual <= 1e-6
        assert abs(profile.slope0 + 2.0) < 1e-6 and abs(profile.slope1 + 2.0) < 1e-6
        t = profile.samples[:, 0]
        assert np.all(np.diff(t) > 0)
        assert profile.samples.shape[0] >= solver.MIN_PROFILE_POINTS

    def test_recovers_sp2_reflection(self):
        spec = BvpSpec(G=6, M0=1, M1=1, k=-5)
        profile = solver.solve(spec)
        assert profile.max_linear_deviation() <= 1e-6
        assert profile.residual <= 1e-6

    def test_match_gap_within_tolerance(self):
        spec = BvpSpec(G=2, M0=3, M1=3, k=-1)
        profile = solver.solve(spec)
        tol = solver.GAP_TOL_FACTOR * (1 + abs(spec.k))
        assert abs(profile.match_gap[0]) <= tol
        assert abs(profile.match_gap[1]) <= tol

    def test_boundary_limits_consistent(self):
        # endpoint samples extrapolate to the boundary targets
        spec = BvpSpec(G=12, M0=2, M1=2, k=-11)
        profile = solver.solve(spec)
        _max_abs, (err0, err1) = ode.residual_norm(spec, profile)
        assert err0 <= 1e-8 and err1 <= 1e-8

    def test_non_solution_rejected_or_exposed(self):
        # r = -3t does not solve (2,1,3,-3); the solver must not pretend it does
        spec = BvpSpec(G=2, M0=1, M1=3, k=-3)
        config = ShootingConfig(max_newton=8)
        try:
            profile = solver.solve(spec, config)
        except (NoConvergence, TrajectoryEscaped):
            return
        assert float(np.max(np.abs(profile.samples[:, 1] + 3.0 * profile.samples[:, 0]))) > 1e-3

    @pytest.mark.parametrize("jac", [((0.0, 0.0), (0.0, 0.0)), ((math.nan, 0.0), (0.0, 1.0))])
    def test_singular_jacobian_is_no_convergence(self, monkeypatch, jac):
        # every shot's gap is real, and its Jacobian zero or NaN:
        # each accuracy stops at its first Newton step, before any trial shot
        shoot, shots = solver.shoot, []

        def singular(*args):
            shots.append(args[1])
            return dataclasses.replace(shoot(*args), jac=jac)

        monkeypatch.setattr(solver, "shoot", singular)
        spec, config = BvpSpec(G=1, M0=2, M1=2, k=1), ShootingConfig()
        with pytest.raises(NoConvergence, match="singular jacobian") as info:
            solver.solve(spec, config, init=(1.2, 0.9))
        assert info.value.iterate == (1.2, 0.9) and info.value.iterations == 0
        assert len(shots) == 2 and shots[1] is config
        gap = shoot(spec, config, 1.2, 0.9).gap
        assert struct.pack("<2d", *info.value.gaps) == struct.pack("<2d", *gap)

    @pytest.mark.parametrize("jac", [((1.0, 2.0), (2.0, 4.0)), ((1.0, 2.0), (2.0, 4.0 + 1e-7))])
    def test_rank_deficient_jacobian_takes_the_minimum_norm_step(self, monkeypatch, jac):
        # sigma_min / sigma_max is 0 and 4e-9: the first trial is the full
        # step pinv(J) g, orthogonal to J's null direction, where Cramer's
        # rule divides by a zero or tiny determinant
        shoot, shots = solver.shoot, []

        def singular(spec, config, a, b):
            shots.append((a, b))
            return dataclasses.replace(shoot(spec, config, a, b), jac=jac)

        monkeypatch.setattr(solver, "shoot", singular)
        spec, config = BvpSpec(G=1, M0=2, M1=2, k=1), ShootingConfig(max_newton=1)
        with pytest.raises(CohomError):
            solver.solve(spec, config, init=(1.2, 0.9))
        gap = shoot(spec, solver._seed_config(config), 1.2, 0.9).gap
        want = np.linalg.pinv(np.array(jac), rcond=1e-6) @ np.array(gap)
        assert np.subtract((1.2, 0.9), shots[1]) == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_singular_values_equal_numpy_svd(self):
        rng = np.random.default_rng(4415)
        cases = [((0.0, 0.0), (0.0, 0.0)), ((1.0, 2.0), (2.0, 4.0)), ((0.0, 3.0), (0.0, 0.0))]
        cases += [tuple(map(tuple, rng.normal(size=(2, 2)) * 10.0 ** rng.integers(-3, 4)))
                  for _ in range(200)]
        for jac in cases:
            top, bottom, v = solver._singular_values(jac)
            _, sigma, vt = np.linalg.svd(np.array(jac))
            assert (top, bottom) == pytest.approx(tuple(sigma), rel=1e-12, abs=1e-14 * sigma[0])
            if sigma[0] > 0.0:
                assert abs(np.dot(v, vt[0])) == pytest.approx(1.0, rel=1e-12)

    def test_conditioning_separates_the_family_from_isolated_rows(self):
        # every linear-solution problem of the classified actions (|j| <=
        # 4), started 5% of 1 + |k| off (k, k) by random.Random(1):
        # sigma_min / sigma_max of the accepted shot's Jacobian is below
        # 1e-6 on the (1,1,1,+-1) family and above 1e-3 on every isolated
        # row.  The degenerate root (4,2,2,-3), whose Jacobian is singular at
        # the root, is left out.
        rng = random.Random(1)
        family, isolated = [], []
        for spec in linear_specs():
            w = 0.05 * (1.0 + abs(spec.k))
            init = (spec.k + rng.uniform(-w, w), spec.k + rng.uniform(-w, w))
            profile = solver.solve(spec, init=init)
            row = (spec.G, spec.M0, spec.M1, spec.k)
            if row in ((1, 1, 1, 1), (1, 1, 1, -1)):
                family.append(profile.conditioning)
            elif row != (4, 2, 2, -3):
                isolated.append(profile.conditioning)
            top, bottom, _ = solver._singular_values(solver.shoot(
                spec, ShootingConfig(), profile.slope0, profile.slope1
            ).jac)
            assert profile.conditioning == bottom / top
        assert len(family) == 2 and max(family) < 1e-6
        assert len(isolated) == 206 and min(isolated) > 1e-3

    def test_seed_1_newton_recover_draw_misses_only_degenerate_rows(self):
        # the 209 linear-solution problems, each from the start the
        # benchmark's seed-1 newton-recover draw gives it, as
        # tests/seed_misses.py draws them: every row but the degenerate
        # ones solves to residual <= 1e-6.  Stopping on the gap alone left
        # (12,1,1,-11) at 1.81e-6.
        import seed_misses

        found = seed_misses.misses(seed_misses.workloads.build_inputs(), 1)
        assert seed_misses.isolated(found) == []
        assert all(m.split()[0] in seed_misses.DEGENERATE for m in found)

    def test_deterministic(self):
        spec = BvpSpec(G=2, M0=1, M1=3, k=-1)
        p1 = solver.solve(spec)
        p2 = solver.solve(spec)
        assert np.array_equal(p1.samples, p2.samples)
        assert p1.slope0 == p2.slope0 and p1.residual == p2.residual

    @pytest.mark.parametrize("init", [(math.nan, 1.0), (1.0, math.inf)])
    def test_non_finite_init_rejected(self, init):
        with pytest.raises(ValueError, match="init"):
            solver.solve(BvpSpec(G=1, M0=2, M1=2, k=1), init=init)

    @pytest.mark.parametrize("init", [
        (1.0,), (1.0, 1.0, 5.0), ("1", "1"), (True, 1.0), (1.0, np.True_), (1.0, None),
        (1.0, 1 + 0j), 1.0, "11", (),
    ])
    def test_init_not_a_pair_of_numbers_rejected_before_any_shot(self, init, monkeypatch):
        # (1.0,) raised IndexError, ("1", "1") and (True, 1.0) converged as
        # (1.0, 1.0), and (1.0, 1.0, 5.0) dropped its third slope
        def fail(*args, **kwargs):
            raise AssertionError("shot an invalid init")

        monkeypatch.setattr(solver, "shoot", fail)
        with pytest.raises(ValueError, match="^init must be a pair of finite real numbers, got "):
            solver.solve(BvpSpec(G=1, M0=2, M1=2, k=1), init=init)

    def test_numpy_or_list_init_is_the_pair_of_its_floats(self):
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        want = solver.solve(spec, init=(float(np.float32(1.2)), 0.9))
        for init in ((np.float32(1.2), np.float64(0.9)), [np.float32(1.2), 0.9]):
            got = solver.solve(spec, init=init)
            assert (got.slope0.hex(), got.slope1.hex()) == (want.slope0.hex(), want.slope1.hex())
            assert np.array_equal(got.samples, want.samples)

    def test_profile_floor_enforced(self):
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        profile = solver.solve(spec, profile_points=17)
        assert profile.samples.shape[0] == solver.MIN_PROFILE_POINTS

    @pytest.mark.parametrize("points", [513.0, True, False, "513", None, np.float64(513)])
    def test_profile_points_not_an_int_rejected_before_any_shot(self, points, monkeypatch):
        shots = []
        shoot = solver.shoot

        def counted(*args, **kwargs):
            shots.append(args[2:4])
            return shoot(*args, **kwargs)

        monkeypatch.setattr(solver, "shoot", counted)
        with pytest.raises(ValueError, match="profile_points"):
            solver.solve(BvpSpec(G=1, M0=2, M1=2, k=1), profile_points=points)
        assert shots == []

    def test_numpy_int_profile_points_accepted(self):
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        profile = solver.solve(spec, profile_points=np.int64(600))
        assert profile.samples.shape[0] == 600

    def test_csv_round_trips_bit_exact(self, tmp_path):
        # 17 significant digits reproduce doubles exactly on read-back
        spec = BvpSpec(G=3, M0=2, M1=2, k=-2)
        profile = solver.solve(spec)
        path = tmp_path / "profile.csv"
        profile.write_csv(path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(data, profile.samples)

    def test_eps_halving_keeps_slopes(self):
        spec = BvpSpec(G=3, M0=2, M1=2, k=-2)
        base = solver.solve(spec)
        tight = solver.solve(
            spec, ShootingConfig(eps0=5e-6, eps1=5e-6, rel_tol=1e-11)
        )
        assert abs(base.slope0 - tight.slope0) <= 1e-7
        assert abs(base.slope1 - tight.slope1) <= 1e-7


class TestSweep:
    def test_brackets_known_root(self):
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        config = ShootingConfig(bracket=(0.5, 1.5), sweep_points=33)
        points = solver.sweep(spec, config)
        assert len(points) == 33
        hits = [p for p in points if p.sign_change]
        assert any(points[i - 1].a <= 1.0 <= p.a
                   for i, p in enumerate(points) if p.sign_change)
        assert len(hits) >= 1

    def test_stalled_lane_is_a_nan_gap(self, monkeypatch):
        # a step budget of 3 stalls every lane, in the batch and drained
        monkeypatch.setattr(solver, "_MAX_STEPS", 3)
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        for n in (solver._DRAIN_LANES + 8, 5):
            points = solver.sweep(spec, ShootingConfig(bracket=(0.0, 6.0), sweep_points=n))
            assert len(points) == n
            assert all(math.isnan(p.gap) and not p.sign_change for p in points)

    def test_ordered_and_deterministic(self):
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        config = ShootingConfig(bracket=(0.0, 6.0), sweep_points=17)
        first = solver.sweep(spec, config)
        second = solver.sweep(spec, config)
        assert bits(first) == bits(second)
        assert [p.a for p in first] == sorted(p.a for p in first)

    def test_grid_refinement_keeps_brackets(self):
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        coarse = solver.sweep(spec, ShootingConfig(bracket=(0.0, 6.0), sweep_points=65))
        fine = solver.sweep(spec, ShootingConfig(bracket=(0.0, 6.0), sweep_points=129))
        fine_intervals = [
            (fine[i - 1].a, fine[i].a) for i in range(1, len(fine)) if fine[i].sign_change
        ]
        for i in range(1, len(coarse)):
            if not coarse[i].sign_change:
                continue
            lo, hi = coarse[i - 1].a, coarse[i].a
            assert any(lo <= b and a <= hi for a, b in fine_intervals)

    def test_escapes_encoded_as_signed_infinity(self):
        spec = BvpSpec(G=1, M0=3, M1=3, k=1)
        config = ShootingConfig(bracket=(20.0, 30.0), sweep_points=5, blowup_cap=1e3)
        points = solver.sweep(spec, config)
        assert all(math.isinf(p.gap) or math.isfinite(p.gap) for p in points)
        assert any(math.isinf(p.gap) for p in points)

    @pytest.mark.parametrize(
        "options, tolerances",
        [
            (dict(), (1e-6, 1e-8)),
            # rel_tol >= 1e-6 is already seed accuracy
            (dict(rel_tol=1e-5), (1e-5, 1e-12)),
            (dict(rel_tol=1e-6, abs_tol=1e-9), (1e-6, 1e-9)),
        ],
    )
    def test_lanes_run_at_seed_accuracy(self, monkeypatch, options, tolerances):
        seen = []
        original = solver._integrate_lanes

        def spy(spec, config, endpoint, slopes, t_end):
            seen.append((config.rel_tol, config.abs_tol))
            return original(spec, config, endpoint, slopes, t_end)

        monkeypatch.setattr(solver, "_integrate_lanes", spy)
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        config = ShootingConfig(bracket=(0.0, 20.0), sweep_points=17, **options)
        points = solver.sweep(spec, config)
        assert seen == [pytest.approx(tolerances, rel=1e-12)]
        lanes = dataclasses.replace(config, rel_tol=seen[0][0], abs_tol=seen[0][1])
        assert bits(points) == bits(scalar_sweep(spec, lanes))

    def test_seed_accuracy_keeps_the_brackets(self, monkeypatch, criterion_grid, bump_grid):
        # the sweep only brackets: at seed accuracy it flags the same grid
        # intervals as at the caller's tolerances
        grids = [(criterion_grid, [1, 26, 91, 310]), (bump_grid, [1, 64, 226])]
        for (_, config, points), want in grids:
            assert [i for i, p in enumerate(points) if p.sign_change] == want
        for (spec, config, _), want in grids:
            monkeypatch.setattr(solver, "_SEED_REL_TOL", config.rel_tol)
            tight = solver.sweep(spec, config)
            assert [i for i, p in enumerate(tight) if p.sign_change] == want

    def test_debug_summary_line(self, caplog, monkeypatch):
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        config = ShootingConfig(bracket=(0.0, 20.0), sweep_points=65, blowup_cap=1e3)
        quiet = solver.sweep(spec, config)
        caplog.set_level(logging.DEBUG, logger="cohom1")
        assert bits(solver.sweep(spec, config)) == bits(quiet)
        # a step budget of 3 stalls every lane
        monkeypatch.setattr(solver, "_MAX_STEPS", 3)
        solver.sweep(spec, dataclasses.replace(config, sweep_points=40))
        assert not logging.getLogger("cohom1").handlers
        assert [r.getMessage() for r in caplog.records if r.name == "cohom1"] == [
            "sweep: 65 lanes at rel_tol 1e-06: 1 arrived, 31 escaped to +inf, "
            "33 to -inf, 0 stalled",
            "sweep: 40 lanes at rel_tol 1e-06: 0 arrived, 0 escaped to +inf, "
            "0 to -inf, 40 stalled",
        ]


def scalar_sweep(spec, config):
    """Per-point reference: half start, scalar run, linearised gap."""
    accel = ode.rhs(spec)
    grid = np.linspace(*config.resolved_bracket(spec), config.sweep_points)
    t_end = spec.length - config.eps1
    gaps = []
    for a in grid:
        (t, r, v, *_), x = half_start(spec, config, Endpoint.LEFT, float(a))
        try:
            r_end, v_end = integrate(accel, t, r, v, t_end, config, x)
        except TrajectoryEscaped as esc:
            gaps.append(math.copysign(math.inf, esc.r if esc.r != 0.0 else 1.0))
        except IntegratorStall:
            gaps.append(math.nan)
        else:
            gaps.append(r_end - (spec.k * spec.length - v_end * config.eps1))
    return [
        solver.SweepPoint(a=float(a), sign_change=i > 0 and gaps[i - 1] * g < 0.0, gap=g)
        for i, (a, g) in enumerate(zip(grid, gaps))
    ]


def bits(points):
    """Sweep points with the floats as their IEEE bit patterns."""
    return [
        (struct.pack("<d", p.a), p.sign_change, struct.pack("<d", p.gap)) for p in points
    ]


def outcome_key(outcome):
    """A lane or scalar run's outcome: its type and the bits of (t, r,
    rdot) for an escape, of its message and t for a stall, of (r, v) for
    an arrival."""
    if isinstance(outcome, TrajectoryEscaped):
        return "escaped", outcome.t.hex(), outcome.r.hex(), outcome.rdot.hex()
    if isinstance(outcome, IntegratorStall):
        return "stalled", str(outcome), outcome.t.hex()
    return "arrived", outcome[0].hex(), outcome[1].hex()


def scalar_outcomes(spec, config, slopes, t_end):
    """Outcome of a scalar run of each left half, as outcome_key gives it."""
    accel, out = ode.rhs(spec), []
    for a in slopes.tolist():
        (t, r, v, *_), x = half_start(spec, config, Endpoint.LEFT, a)
        try:
            out.append(outcome_key(integrate(accel, t, r, v, t_end, config, x)))
        except (TrajectoryEscaped, IntegratorStall) as exc:
            out.append(outcome_key(exc))
    return out


class TestLaneSweep:
    @pytest.mark.parametrize(
        "spec, options",
        [
            # below the drain threshold: every lane drains to the scalar
            # loop after its first derivative
            (BvpSpec(G=1, M0=2, M1=2, k=1), dict(bracket=(0.0, 20.0), sweep_points=17)),
            # escapes of both signs and the identity root
            (BvpSpec(G=1, M0=2, M1=2, k=1), dict(bracket=(0.0, 20.0), sweep_points=65)),
            # every lane reaches the right pole (rel_tol 1e-7 runs at seed
            # accuracy with abs_tol scaled by ten)
            (
                BvpSpec(G=6, M0=1, M1=1, k=-5),
                dict(bracket=(-60.0, 60.0), sweep_points=512, rel_tol=1e-7),
            ),
            # a low blow-up cap: escapes early and on both sides
            (
                BvpSpec(G=1, M0=2, M1=2, k=1),
                dict(bracket=(0.0, 20.0), sweep_points=65, blowup_cap=1e3),
            ),
            # the start 1.5e-8 lies below the regular window (2e-8, ...) but
            # clears the pole margin 1e-8: the first derivative and the
            # first batch step, of 1.5e-8, take the general reduction, the
            # later batch steps the window's.  The match
            # point caps the start offsets at 1.25e-8, below eps0.
            (
                BvpSpec(G=1, M0=2, M1=2, k=1),
                dict(bracket=(0.0, 20.0), sweep_points=64, eps0=1.5e-8, match_point=1e-7),
            ),
        ],
    )
    def test_equals_scalar_reference(self, spec, options):
        # a sweep runs its lanes at seed accuracy
        config = ShootingConfig(**options)
        lanes = solver.sweep(spec, config)
        reference = scalar_sweep(spec, solver._seed_config(config))
        assert lanes == reference
        assert bits(lanes) == bits(reference)

    @pytest.mark.parametrize(
        "options",
        [
            dict(bracket=(0.0, 20.0), sweep_points=17),
            # 32 escapes to +inf, 32 to -inf and 1 arrival
            dict(bracket=(0.0, 20.0), sweep_points=65, blowup_cap=1e3),
        ],
    )
    def test_outcomes_equal_scalar_runs(self, options):
        # each lane's outcome is the scalar run's: the same type, and the
        # same bits of (t, r, rdot) for an escape and of (r, v) for an arrival
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        config = ShootingConfig(**options)
        t_end = spec.length - config.eps1
        slopes = np.linspace(*config.resolved_bracket(spec), config.sweep_points)
        lanes = solver._integrate_lanes(spec, config, Endpoint.LEFT, slopes, t_end)
        assert [outcome_key(o) for o in lanes] == scalar_outcomes(spec, config, slopes, t_end)
        if "blowup_cap" in options:
            signs = [math.copysign(1.0, o.r) for o in lanes if isinstance(o, TrajectoryEscaped)]
            assert signs.count(1.0) == signs.count(-1.0) == 32 and len(lanes) == 65

    def test_step_underflow_in_the_batch_equals_scalar_runs(self, monkeypatch):
        # with a minimum step of 1e-3, the first step of the lanes, 21 of 65
        # stall at their start or one step after it, below t = 0.02, while
        # every lane is still in the batch; the other 44 stall near the
        # right pole
        monkeypatch.setattr(solver, "_MIN_STEP", 1e-3)
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        config = ShootingConfig(blowup_cap=1e3)
        t_end = spec.length - config.eps1
        slopes = np.linspace(0.0, 20.0, 65)
        lanes = solver._integrate_lanes(spec, config, Endpoint.LEFT, slopes, t_end)
        keys = [outcome_key(o) for o in lanes]
        assert keys == scalar_outcomes(spec, config, slopes, t_end)
        stalls = [o for o in lanes if isinstance(o, IntegratorStall)]
        assert len(stalls) == 65 and sum(o.t < 0.02 for o in stalls) == 21
        assert all("step size underflow" in str(o) for o in stalls)

    @pytest.mark.parametrize("budget", [1, 4, 9])
    def test_step_budget_stall_equals_scalar_runs(self, monkeypatch, budget):
        # every lane spends the budget in the batch and raises the scalar
        # loop's IntegratorStall, at the same t
        monkeypatch.setattr(solver, "_MAX_STEPS", budget)
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        config = ShootingConfig()
        accel = ode.rhs(spec)
        t_end = spec.length - config.eps1
        slopes = np.linspace(0.0, 20.0, solver._DRAIN_LANES + 8)
        lanes = solver._integrate_lanes(spec, config, Endpoint.LEFT, slopes, t_end)
        for a, lane in zip(slopes.tolist(), lanes):
            (t, r, v, *_), x = half_start(spec, config, Endpoint.LEFT, a)
            with pytest.raises(IntegratorStall, match="step budget exhausted") as scalar:
                integrate(accel, t, r, v, t_end, config, x)
            assert isinstance(lane, IntegratorStall)
            assert (str(lane), lane.t.hex()) == (str(scalar.value), scalar.value.t.hex())

    def test_pole_check_covers_every_lane(self):
        spec = BvpSpec(G=6, M0=1, M1=1, k=-5)
        time_part, _state = ode._rhs_lanes(spec)
        t = np.linspace(0.1, 0.5, 40)
        time_part(t)
        t[17] = spec.length - 1e-9
        with pytest.raises(PoleProximity):
            time_part(t)

    def test_vector_step_factor_is_libm_pow(self):
        # the lane step factor takes np.float_power for the scalar loop's
        # err ** -0.2: bit for bit on this numpy build (SIMD np.power need not be)
        rng = np.random.default_rng(5)
        x = np.concatenate([
            10.0 ** rng.uniform(-300.0, 300.0, 20000),
            [1.0, 5e-324, math.nextafter(1.0, 0.0)],
        ])
        got = np.float_power(x, -0.2).tolist()
        assert [v.hex() for v in got] == [(v ** -0.2).hex() for v in x.tolist()]

    def test_near_pole_stage_time_is_named_as_per_stage(self):
        # near points in the rows of stages 4 and 3 (lanes 2 and 7): the
        # stacked check names the one a stage-by-stage check meets first
        spec = BvpSpec(G=3, M0=1, M1=2, k=1)
        time_part, _state = ode._rhs_lanes(spec)
        stage_t = np.linspace(0.2, 0.8, 10) + np.array([0.0, 1e-3, 2e-3, 3e-3, 4e-3])[:, None]
        stage_t[2, 2] = spec.length - 5e-9
        stage_t[1, 7] = spec.length + 3e-9
        with pytest.raises(PoleProximity) as per_stage:
            for row in stage_t:
                ode.require_regular(row, spec.G)
        with pytest.raises(PoleProximity) as stacked:
            time_part(stage_t)
        assert str(stacked.value) == str(per_stage.value)
        assert repr(float(stage_t[1, 7])) in str(stacked.value)

    def test_time_part_once_per_batch_step(self, monkeypatch):
        # one time part for the first k1, then one per batch step over its
        # five distinct stage times; the state part once per stage
        calls = {"time": [], "state": 0}
        time_parts, state_parts = ode._time_parts, ode._state_parts

        def counted_time(G, M0, M1, t):
            calls["time"].append(t.shape)
            return time_parts(G, M0, M1, t)

        def counted_state(*args):
            calls["state"] += 1
            return state_parts(*args)

        monkeypatch.setattr(ode, "_time_parts", counted_time)
        monkeypatch.setattr(ode, "_state_parts", counted_state)
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        solver.sweep(spec, ShootingConfig(bracket=(0.0, 20.0), sweep_points=65))
        first, *steps = calls["time"]
        assert first == (65,)
        assert len(steps) > 10
        assert all(shape[0] == 5 and shape[1] >= solver._DRAIN_LANES for shape in steps)
        assert calls["state"] == 1 + 6 * len(steps)
        # below the drain threshold only the first k1 runs on lanes
        calls["time"], calls["state"] = [], 0
        solver.sweep(spec, ShootingConfig(bracket=(0.0, 20.0), sweep_points=17))
        assert calls == {"time": [(17,)], "state": 1}

    @pytest.mark.parametrize("eps0, first", [(1e-5, 0), (1.5e-8, 2)])
    def test_no_general_reduction_of_in_window_stage_times(self, monkeypatch, eps0, first):
        # a batch step's stage rows (5, n) inside the regular window:
        # _remainder_exact reduces only the stacked state arguments (2, n),
        # and Gt and 2Gt of the first derivative (n,) and of the first
        # step's stage rows when the start lies outside the window.  With
        # eps0 1.5e-8 a match point at 1e-7 caps the left start offsets at
        # 1.25e-8, so the lanes start at eps0 and their first step, of
        # eps0, has its first stage time at 1.8e-8; the second step starts
        # at 3e-8, inside the window.
        shapes = []
        remainder_exact = ode._remainder_exact

        def counted(x):
            shapes.append(x.shape)
            return remainder_exact(x)

        monkeypatch.setattr(ode, "_remainder_exact", counted)
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        config = ShootingConfig(
            bracket=(0.0, 20.0), sweep_points=64, eps0=eps0, match_point=1e-7 if first else None
        )
        assert (eps0 > ode.regular_window(1)[0]) == (first == 0)
        solver.sweep(spec, config)
        states = [s for s in shapes if s[0] == 2 and len(s) == 2]
        assert len(states) > 60 and shapes.count((64,)) == shapes.count((5, 64)) == first
        assert len(shapes) == len(states) + 2 * first

    def test_remainder_exact_matches_math_remainder(self):
        def check(x):
            got = ode._remainder_exact(x)
            want = [math.remainder(v, ode.TAU) for v in x.tolist()]
            assert [struct.pack("<d", v) for v in got.tolist()] == [
                struct.pack("<d", v) for v in want
            ]

        rng = np.random.default_rng(7)
        pi = math.pi
        check(np.concatenate([
            rng.uniform(-1e3, 1e3, 5000),
            rng.uniform(-10.0, 10.0, 5000),
            [0.0, -0.0, pi, -pi, 3.0 * pi, -3.0 * pi, 5.0 * pi, ode.TAU, -ode.TAU],
        ]))
        # the fold boundaries 0, -0.0, +-pi, +-2 pi and +-3 pi and their neighbours
        ends = [m * pi for m in (0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0)]
        check(np.array([
            x for v in ends for x in (v, math.nextafter(v, math.inf), math.nextafter(v, -math.inf))
        ]))
        # an infinity raises as math.remainder does
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            ode._remainder_exact(np.array([1.0, math.inf]))

    def test_remainder_split_alone_on_tie_free_batches(self, monkeypatch):
        # no element at a tie, a multiple of 2 pi or beyond 2**26 quotients:
        # the split must give every remainder, with the scalar fallback
        # made to raise
        rng = np.random.default_rng(19)
        batches = [
            rng.uniform(-w, w, shape)
            for w in (3.0, 50.0, 2e3, 1e8)
            for shape in ((5, 512), (2, 64))
        ]
        batches.append(np.array([-0.5, 1e-300, 5e-324, -5e-324, 3.14159, -3.14159]))
        wants = [[math.remainder(v, ode.TAU).hex() for v in x.ravel().tolist()] for x in batches]

        def no_fallback(x, y):
            raise AssertionError("scalar fallback taken")

        monkeypatch.setattr(math, "remainder", no_fallback)
        for x, want in zip(batches, wants):
            got = ode._remainder_exact(x)
            assert got.shape == x.shape
            assert [v.hex() for v in got.ravel().tolist()] == want

    def test_remainder_exact_one_element_at_a_time(self):
        # each element alone, so no other element's fallback covers it:
        # the signed zeros of k * 2 pi, the ties (k + 1/2) * 2 pi and their
        # neighbours, k * pi, signed zeros, subnormals and the edge of the
        # exact products near 2**26 * 2 pi
        tau = ode.TAU
        xs = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310]
        for k in range(-2000, 2001):
            tie = (k + 0.5) * tau
            xs += [k * tau, k * math.pi, tie]
            xs += [math.nextafter(tie, math.inf), math.nextafter(tie, -math.inf)]
        for q in (-1.5, -1.0, -0.5, 0.0, 0.5, 2.0**27):
            q += 2.0**26
            for x in (q * tau, -q * tau):
                xs += [x, math.nextafter(x, math.inf), math.nextafter(x, -math.inf)]
        # quotients far beyond 2**26, where n * TAU_HI rounds
        xs += [10.0 ** (8 + 0.37 * i) for i in range(33)] + [1e300, -1e300, 2.0**1000 * tau]
        got = [ode._remainder_exact(np.array([x]))[0].hex() for x in xs]
        assert got == [math.remainder(x, tau).hex() for x in xs]
        # the exact multiples among them have a zero remainder with the sign
        # of x; the split alone gives +0.0 for -4 * 2 pi
        assert "0x0.0p+0" in got and "-0x0.0p+0" in got
        assert ode._remainder_exact(np.array([-4.0 * tau]))[0].hex() == "-0x0.0p+0"

    def test_sweep_never_calls_fmod(self, monkeypatch):
        def no_fmod(*args, **kwargs):
            raise AssertionError("np.fmod called")

        monkeypatch.setattr(np, "fmod", no_fmod)
        points = solver.sweep(BvpSpec(G=1, M0=2, M1=2, k=1), ShootingConfig(bracket=(0.0, 20.0)))
        assert [i for i, p in enumerate(points) if p.sign_change] == [1, 26, 91, 310]

    def test_lane_rhs_matches_scalar_rhs(self):
        rng = np.random.default_rng(11)
        for spec in (BvpSpec(G=1, M0=2, M1=2, k=1), BvpSpec(G=4, M0=1, M1=3, k=-3)):
            t = rng.uniform(1e-6, spec.length - 1e-6, 2000)
            r = rng.uniform(-50.0, 50.0, 2000)
            v = rng.uniform(-1e4, 1e4, 2000)
            accel = ode.rhs(spec)
            time_part, state_part = ode._rhs_lanes(spec)
            got = state_part(time_part(t), r, v)
            assert got.tolist() == [accel(*x) for x in zip(t.tolist(), r.tolist(), v.tolist())]

    @pytest.mark.parametrize("G", [1, 2, 3, 4, 6, 12])
    def test_lane_parts_match_scalar_rhs_at_domain_ends(self, G, monkeypatch):
        # with the pole margin set to 0: t one float inside and outside pi/G
        # and at +/-1e-150 (nearer 0, A = 4 sin^2(Gt) underflows and the
        # scalar closure divides by zero), where Gt meets the end of the
        # identity reduction; 2Gt meets the fold ends at pi/(2G) and
        # 3pi/(2G).  Each time alone and all as one batch (5 rows, as an
        # integrator step stacks them)
        spec = BvpSpec(G=G, M0=2, M1=3, k=1)
        L = spec.length
        ends = [math.nextafter(L, 0.0), math.nextafter(L, math.inf), 1e-150, -1e-150,
                math.nextafter(1.5 * L, 0.0), math.nextafter(1.5 * L, math.inf), 0.5 * L]
        rng = np.random.default_rng(G)
        t = np.array(ends + rng.uniform(0.0, 2.0 * L, 4).tolist())
        r = rng.uniform(-30.0, 30.0, t.size)
        v = rng.uniform(-100.0, 100.0, t.size)
        monkeypatch.setattr(ode, "DEFAULT_POLE_MARGIN", 0.0)
        accel = ode.rhs(spec)
        want = [accel(*x).hex() for x in zip(t.tolist(), r.tolist(), v.tolist())]
        time_part, state_part = ode._rhs_lanes(spec)
        with np.errstate(all="ignore"):
            alone = [
                state_part(time_part(t[i:i + 1]), r[i:i + 1], v[i:i + 1])[0]
                for i in range(t.size)
            ]
            rows = list(zip(*time_part(np.resize(t, (5, t.size)))))
            batch = state_part(rows[3], r, v)
        assert [x.hex() for x in alone] == want
        assert [x.hex() for x in batch.tolist()] == want


@pytest.fixture(scope="module")
def criterion_grid():
    """(spec, config, sweep points) of the criterion-7 grid: (1,2,2,1) on
    [0, 20] x 512."""
    spec = BvpSpec(G=1, M0=2, M1=2, k=1)
    config = ShootingConfig(bracket=(0.0, 20.0), sweep_points=512)
    return spec, config, solver.sweep(spec, config)


@pytest.fixture(scope="module")
def bump_grid():
    """(spec, config, sweep points) of (1,2,2,0) on [0, 8] x 512."""
    spec = BvpSpec(G=1, M0=2, M1=2, k=0)
    config = ShootingConfig(bracket=(0.0, 8.0))
    return spec, config, solver.sweep(spec, config)


_DECISIONS = (
    "dropped: no crossing", "seeds from crossings", " converged to ", " failed: ",
    "more than a grid step outside", "dropped: duplicate profile", "no seed converged",
)


def refine_logged(caplog, spec, config, points):
    """Profiles of one refinement and the count of each refine decision it
    logged at DEBUG level."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="cohom1"):
        profiles = solver.refine_brackets(spec, config, points)
    messages = [r.getMessage() for r in caplog.records if r.name == "cohom1"]
    return profiles, {d: sum(d in m for m in messages) for d in _DECISIONS}


class TestRefineBrackets:
    def test_refines_identity_root(self):
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        config = ShootingConfig(bracket=(0.5, 1.5), sweep_points=17)
        profiles = solver.refine_brackets(spec, config)
        assert profiles
        best = profiles[0]
        assert abs(best.slope0 - 1.0) < 1e-6
        assert best.max_linear_deviation() < 1e-6

    def test_family_refinement_takes_few_shots(self, monkeypatch):
        # the default (1,1,1,1) grid refines in 3 shots; a seed switch of
        # factor 1 instead of 100 makes it 395 (see solver._SEED_SWITCH)
        shots = [0]
        shoot = solver.shoot

        def counted(*args, **kwargs):
            shots[0] += 1
            return shoot(*args, **kwargs)

        monkeypatch.setattr(solver, "shoot", counted)
        assert solver.refine_brackets(BvpSpec(G=1, M0=1, M1=1, k=1), ShootingConfig())
        assert 0 < shots[0] <= 10

    def test_bracket_where_no_seed_converges_is_dropped(self, caplog, monkeypatch):
        # the identity's bracket has a crossing, but every solve fails
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        config = ShootingConfig(bracket=(0.5, 1.5), sweep_points=17)
        points = solver.sweep(spec, config)
        seeds = []

        def fail(spec, config, init):
            seeds.append(init)
            raise NoConvergence((1.0, 1.0), init, 0, "stub")

        monkeypatch.setattr(solver, "solve", fail)
        profiles, decisions = refine_logged(caplog, spec, config, points)
        assert profiles == [] and seeds
        assert decisions[" failed: "] == len(seeds)
        assert decisions["no seed converged"] == sum(p.sign_change for p in points) == 1

    def test_no_sign_change_runs_no_lanes(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("ran a lane batch without a bracket")

        monkeypatch.setattr(solver, "_integrate_lanes", fail)
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        samples = ((0.0, -1.0), (1.0, -0.5), (2.0, math.inf))
        points = [solver.SweepPoint(a, False, gap) for a, gap in samples]
        assert solver.refine_brackets(spec, ShootingConfig(), points) == []

    @staticmethod
    def count_calls(monkeypatch, *names):
        counts = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(solver, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(solver, name, counted)
        return counts

    def test_refines_nonlinear_degree_one_solution(self, monkeypatch):
        # first excited degree-1 solution on (1,2,2): symmetric, initial
        # slope 12.1254021...; the value is frozen from a converged run and
        # is validated here by the match gap, not by the frozen digits
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        config = ShootingConfig(bracket=(11.5, 12.5), sweep_points=17)
        points = solver.sweep(spec, config)
        counts = self.count_calls(monkeypatch, "solve", "shoot")
        profiles = solver.refine_brackets(spec, config, points)
        # the one crossing of the two half-curves seeds both slopes, and
        # Newton converges from it
        assert counts["solve"] == 1
        assert counts["shoot"] <= 20
        assert profiles
        prof = profiles[0]
        tol = solver.GAP_TOL_FACTOR * (1 + abs(spec.k))
        assert abs(prof.match_gap[0]) <= tol and abs(prof.match_gap[1]) <= tol
        assert prof.slope0 == pytest.approx(12.1254021, abs=1e-5)
        assert prof.slope1 == pytest.approx(prof.slope0, abs=1e-6)
        assert prof.max_linear_deviation() > 1.0  # genuinely nonlinear

    def test_debug_log_reports_seeds_and_drops(self, caplog):
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        config = ShootingConfig(bracket=(11.5, 12.5), sweep_points=17)
        points = solver.sweep(spec, config)
        quiet = solver.refine_brackets(spec, config, points)
        # the same bracket twice: the second refinement is a duplicate
        (i,) = [i for i, p in enumerate(points) if p.sign_change]
        twice = points[i - 1:i + 1] * 2
        caplog.set_level(logging.DEBUG, logger="cohom1")
        logged = solver.refine_brackets(spec, config, twice)
        assert [(p.slope0, p.slope1) for p in logged] == [
            (p.slope0, p.slope1) for p in quiet
        ]
        assert not logging.getLogger("cohom1").handlers
        messages = [r.getMessage() for r in caplog.records if r.name == "cohom1"]
        assert sum("seeds from crossings" in m for m in messages) == 2
        assert sum(" converged to " in m for m in messages) == 2
        assert sum("dropped: duplicate profile" in m for m in messages) == 1

    def test_criterion_grid_keeps_one_profile_per_root(
        self, caplog, monkeypatch, criterion_grid
    ):
        # the (0, 0.039) bracket and the near-miss of the k=0 bump near 3.54
        # are escape-direction flips: no half-curve crossing lies in them
        spec, config, points = criterion_grid
        brackets = [
            (points[i - 1].a, p.a) for i, p in enumerate(points) if p.sign_change
        ]
        assert len(brackets) == 4
        caplog.set_level(logging.DEBUG, logger="cohom1")
        counts = self.count_calls(monkeypatch, "solve", "shoot")
        profiles = solver.refine_brackets(spec, config, points)
        # one solve per root, none failing (the bisection search took 599 shots)
        assert counts["solve"] == 2 and counts["shoot"] <= 20
        messages = [r.getMessage() for r in caplog.records if r.name == "cohom1"]
        assert sum("dropped: no crossing" in m for m in messages) == 2
        assert sum(" converged to " in m for m in messages) == 2
        assert not any("failed" in m or "outside" in m for m in messages)
        # one summary line: 4 brackets of 4 left halves but the first, which
        # has 3; 128 coarse right halves and 14 more in 4 rounds; no half
        # escapes or stalls before the match point
        assert [m for m in messages if "right lanes" in m] == [
            "refine: 142 right lanes in batches of 128+5+3+3+3 at seed rel_tol 1e-06; "
            "escaped or stalled: 0 of 15 left and 0 of 142 right halves"
        ]
        assert [p.slope0 for p in profiles] == [
            pytest.approx(1.0, abs=1e-6), pytest.approx(12.1254021, abs=1e-6)
        ]
        for prof in profiles:
            assert sum(lo <= prof.slope0 <= hi for lo, hi in brackets) == 1

    def test_flag_on_the_first_point_names_no_bracket(self, monkeypatch, criterion_grid):
        # points[310] flags the bracket of the 12.1254 root; cut before it,
        # the flag has no left neighbour, and nothing is shot for it
        spec, config, points = criterion_grid
        assert points[310].sign_change and points[310].a == pytest.approx(12.133, abs=1e-3)
        counts = self.count_calls(monkeypatch, "_match_states", "solve")
        assert solver.refine_brackets(spec, config, points[310:]) == []
        assert counts == {"_match_states": 0, "solve": 0}
        profiles = solver.refine_brackets(spec, config, points[309:])
        assert [p.slope0 for p in profiles] == [pytest.approx(12.1254021, abs=1e-6)]

    def test_summary_counts_the_halves_that_escape(self, caplog):
        # a blow-up cap of 11.95 stops the left half at 12.25, whose start
        # has r' = 12.14 and whose first step ends at r' = 11.97, and 6 of
        # the 18 right halves (4 coarse over +/-31.25, 14 in 6 rounds)
        # before the match point
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        config = ShootingConfig(bracket=(11.5, 12.5), sweep_points=17)
        points = solver.sweep(spec, config)
        caplog.set_level(logging.DEBUG, logger="cohom1")
        capped = dataclasses.replace(config, blowup_cap=11.95)
        assert solver.refine_brackets(spec, capped, points) == []
        messages = [r.getMessage() for r in caplog.records if r.name == "cohom1"]
        assert messages[-1] == (
            "refine: 18 right lanes in batches of 4+3+2+3+4+1+1 at seed rel_tol 1e-06; "
            "escaped or stalled: 1 of 4 left and 6 of 18 right halves"
        )

    def test_seed_search_makes_at_most_36k_rhs_evaluations(self, monkeypatch, criterion_grid):
        # the search's evaluations are the lanes of its state-part calls and
        # the scalar ode.rhs calls of the halves that finish off the lanes,
        # such as every half of a batch below _DRAIN_LANES.  With 1024 right
        # halves the search made 240,055 and 2,160; with 128 coarse ones and
        # 14 in 4 rounds it makes 29,887 and 4,158
        spec, config, points = criterion_grid
        counts = {"lane": 0, "scalar": 0}
        rhs_lanes, rhs, match_states = ode._rhs_lanes, ode.rhs, solver._match_states

        def counted_rhs_lanes(spec):
            time_part, state_part = rhs_lanes(spec)

            def counted(parts, r, v):
                counts["lane"] += r.size
                return state_part(parts, r, v)

            return time_part, counted

        def counted_rhs(spec):
            accel = rhs(spec)

            def counted(t, r, v):
                counts["scalar"] += 1
                return accel(t, r, v)

            return counted

        def counted_match_states(*args):
            with monkeypatch.context() as m:
                m.setattr(ode, "_rhs_lanes", counted_rhs_lanes)
                m.setattr(ode, "rhs", counted_rhs)
                return match_states(*args)

        monkeypatch.setattr(solver, "_match_states", counted_match_states)
        assert len(solver.refine_brackets(spec, config, points)) == 2
        assert counts["lane"] > 0 and counts["scalar"] > 0
        assert counts["lane"] + counts["scalar"] <= 36_000

    def test_coarse_right_curve_misses_the_identity_the_resolved_one_finds(
        self, criterion_grid
    ):
        # the sweep_points // 4 coarse right halves alone give the identity's
        # bracket no crossing; subdividing where the right curve can meet
        # its left polyline recovers the crossing near (1, 1)
        spec, config, points = criterion_grid
        seed = solver._seed_config(config)
        (i,) = [i for i, p in enumerate(points) if p.sign_change and p.a > 1.0 > points[i - 1].a]
        a = np.array([p.a for p in points[i - 2:i + 2]])
        left = solver._match_states(spec, seed, Endpoint.LEFT, a)
        coarse = np.linspace(-50.0, 50.0, 128)
        right = solver._match_states(spec, seed, Endpoint.RIGHT, coarse)
        assert solver._crossings(a, left, coarse, right) == []
        b, right, batches = solver._right_curve(spec, seed, [left])
        assert b.tolist()[::len(b) - 1] == [-50.0, 50.0] and batches[0] == 128
        assert len(b) == sum(batches) and len(batches) > 1
        assert (np.diff(b) > 0.0).all()
        seeds = solver._crossings(a, left, b, right)
        assert seeds
        for seed_a, seed_b in seeds:
            assert abs(seed_a - 1.0) < 0.01 and abs(seed_b - 1.0) < 0.01

    def test_segment_that_meets_no_left_segment_is_not_split(self):
        def split(b, right, *left, finest=0.5):
            lefts = [np.array(left, dtype=float)]
            return solver._unresolved(np.array(b), np.array(right), lefts, finest).tolist()

        line = ([0.0, 1.0, 2.0, 3.0, 4.0], [(x, 0.0) for x in range(5)])
        # a straight right polyline has no pad: only the segment a left one
        # crosses is split, and none once no segment is wider than finest
        assert split(*line, (1.5, -1.0), (1.5, 1.0)) == [False, True, False, False]
        assert split(*line, (1.5, -1.0), (1.5, 1.0), finest=1.0) == [False] * 4
        # boxes apart, or a left segment that passes by the corners of boxes
        # that its own box meets
        assert split(*line, (1.5, 0.5), (1.5, 1.0)) == [False] * 4
        assert split(*line, (2.0, 1.0), (4.5, -4.0)) == [False, False, True, False]
        # a NaN left end removes its segments
        assert split(*line, (1.5, -1.0), (math.nan, math.nan), (3.5, 1.0)) == [False] * 4
        # a kink pads the segments at its node by width times the change of
        # chord slope, (0, 1) here, which reaches a left segment off the chord
        bent = ([0.0, 1.0, 2.0, 3.0], [(0.0, 0.0), (1.0, 0.0), (2.0, 1.0), (3.0, 2.0)])
        assert split(*bent, (0.5, -0.5), (0.5, -0.8)) == [True, False, False]
        assert split(*bent, (0.5, -1.5), (0.5, -1.8)) == [False, False, False]
        # one NaN end: the finite end, padded by the width times the slope
        # of the chord before it; two NaN ends meet nothing
        escape = ([0.0, 1.0, 2.0, 3.0], [(0.0, 0.0), (1.0, 0.0), (math.nan,) * 2, (math.nan,) * 2])
        assert split(*escape, (1.5, -1.0), (1.5, 1.0)) == [False, True, False]
        assert split(*escape, (2.5, -1.0), (2.5, 1.0)) == [False, False, False]

    @pytest.mark.parametrize("grid", ["criterion_grid", "bump_grid"])
    def test_seed_accuracy_does_not_change_outcomes(self, caplog, monkeypatch, request, grid):
        spec, config, points = request.getfixturevalue(grid)
        configs = []
        original = solver.solve

        def spy(spec, config=None, *args, **kwargs):
            configs.append(config)
            return original(spec, config, *args, **kwargs)

        monkeypatch.setattr(solver, "solve", spy)
        loose, loose_decisions = refine_logged(caplog, spec, config, points)
        monkeypatch.setattr(solver, "_SEED_REL_TOL", config.rel_tol)
        tight, tight_decisions = refine_logged(caplog, spec, config, points)
        assert loose_decisions == tight_decisions
        assert loose_decisions[" converged to "] == len(loose) >= 1
        assert [(p.slope0, p.slope1) for p in loose] == [
            (pytest.approx(p.slope0, abs=1e-8), pytest.approx(p.slope1, abs=1e-8))
            for p in tight
        ]
        # every profile is solved and checked at the caller's tolerances
        assert configs and all(c is config for c in configs)
        assert (config.rel_tol, config.abs_tol) == (1e-10, 1e-12)

    @pytest.mark.parametrize("bad", [dict(rel_tol=math.nan), dict(match_point=5.0)])
    def test_invalid_config_rejected_with_given_points(self, bad):
        # a valid sweep passed in does not stand in for the config's checks
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        valid = ShootingConfig(bracket=(0.0, 20.0), sweep_points=64)
        points = solver.sweep(spec, valid)
        assert any(p.sign_change for p in points)
        config = dataclasses.replace(valid, **bad)
        for call in (solver.sweep, solver.solve):
            with pytest.raises(ValueError):
                call(spec, config)
        with pytest.raises(ValueError):
            solver.refine_brackets(spec, config, points)

    def test_right_slope_beyond_the_grid(self):
        # (2,1,3,1): the nonlinear solution's right slope 13.0473 lies
        # outside the default grid [-8, 8]
        spec = BvpSpec(G=2, M0=1, M1=3, k=1)
        profiles = solver.refine_brackets(spec, ShootingConfig())
        assert [(p.slope0, p.slope1) for p in profiles] == [
            (pytest.approx(1.0, abs=1e-6), pytest.approx(1.0, abs=1e-6)),
            (pytest.approx(-0.0953945, abs=1e-6), pytest.approx(13.0473017, abs=1e-6)),
        ]

    def test_degree_zero_bump_from_a_half_line_grid(self, bump_grid):
        # the bump's right slope -3.5377 has the other sign from every grid
        # slope.  The grid's first point is the constant map r = 0, a linear
        # solution, whose gap of -5.5e-7 against +inf at the next point
        # brackets it too.
        profiles = solver.refine_brackets(*bump_grid)
        assert [(p.slope0, p.slope1) for p in profiles] == [
            (pytest.approx(0.0, abs=1e-12), pytest.approx(0.0, abs=1e-12)),
            (pytest.approx(3.5377035, abs=1e-6), pytest.approx(-3.5377035, abs=1e-6)),
        ]

    def test_mirror_pair_order_does_not_depend_on_seed_accuracy(self, monkeypatch):
        # the (1,3,3,0) bumps +/-3.5357 tie on |slope0 - k| to about 1e-11,
        # so which comes first followed the seeds until ties went by slope0
        spec = BvpSpec(G=1, M0=3, M1=3, k=0)
        config = ShootingConfig()
        points = solver.sweep(spec, config)
        want = [
            pytest.approx(0.0, abs=1e-9),
            pytest.approx(-3.5357483, abs=1e-6),
            pytest.approx(3.5357483, abs=1e-6),
        ]
        assert [p.slope0 for p in solver.refine_brackets(spec, config, points)] == want
        monkeypatch.setattr(solver, "_SEED_REL_TOL", config.rel_tol)
        assert [p.slope0 for p in solver.refine_brackets(spec, config, points)] == want

    def test_bracket_without_a_solution_makes_no_solve(self, monkeypatch):
        # (1,2,2,-1) has no solution with slope0 in (0.5, 1.5), but its sweep
        # there flips escape direction once
        spec = BvpSpec(G=1, M0=2, M1=2, k=-1)
        config = ShootingConfig(bracket=(0.5, 1.5), sweep_points=17)
        points = solver.sweep(spec, config)
        assert sum(p.sign_change for p in points) == 1
        counts = self.count_calls(monkeypatch, "solve", "shoot")
        assert solver.refine_brackets(spec, config, points) == []
        assert counts == {"solve": 0, "shoot": 0}

    def test_solution_family_members_are_reported(self):
        # (1,1,1,1) has the family tan(r/2) = lam tan(t/2), slopes (lam, 1/lam)
        spec = BvpSpec(G=1, M0=1, M1=1, k=1)
        profiles = solver.refine_brackets(spec, ShootingConfig())
        assert profiles
        tol = solver.GAP_TOL_FACTOR * (1 + abs(spec.k))
        for prof in profiles:
            assert max(abs(g) for g in prof.match_gap) <= tol
            assert abs(prof.slope0 * prof.slope1 - 1.0) <= 1e-6


def tight_root(spec, a, b, eps=1e-3):
    """A test-side reference root of the gap: each half series-started at
    the fixed offset eps, integrated with its tangent at rel_tol 1e-13 to
    pi/(2G), and Newton from (a, b) until its step is below 1e-13
    relative."""
    tight, match = ShootingConfig(rel_tol=1e-13, abs_tol=1e-15), spec.length / 2.0
    accel = ode.rhs_tangent(spec)
    for _ in range(8):
        halves = []
        for endpoint, slope in ((Endpoint.LEFT, a), (Endpoint.RIGHT, b)):
            start = solver.series_start(spec, endpoint, slope, eps)
            end = solver._dp_run(accel, solver._dp_start(accel, start, match, eps), match, tight)
            halves.append((end[1], end[2], end[6], end[7]))
        (rl, vl, pl, ql), (rr, vr, pr, qr) = halves
        g0, g1 = rl - rr, vl - vr
        det = -pl * qr + pr * ql
        da, db = (-qr * g0 + pr * g1) / det, (pl * g1 - ql * g0) / det
        a, b = a - da, b - db
        if max(abs(da), abs(db)) <= 1e-13 * (abs(a) + abs(b)):
            return a, b
    raise AssertionError("the reference Newton did not settle")


class TestNonlinearSolutions:
    @pytest.mark.parametrize("row, init", [
        ((1, 2, 2, 1), (12.1254, 12.1254)), ((2, 1, 3, 1), (-0.0954, 13.0473)),
        ((1, 2, 2, 0), (3.5377, -3.5377)), ((3, 1, 1, 4), (5.4, 5.5)),
        ((2, 1, 3, 1), "refined"),
    ])
    def test_slopes_within_5e_9_of_a_tight_reference(self, row, init):
        # the four nonlinear profiles, each converged to a gap below 1e-11,
        # and the (2,1,3,1) profile that refine_brackets finds on its
        # default grid: what is left of their slope error is the start's
        # and the integrator's, 2.1e-9 at most (2.0e-8 and 5.5e-8 with the
        # cubic start fitted at 1e-5; 1.5e-8 in b for the refined profile
        # where the gap alone stopped Newton)
        spec = BvpSpec(*row)
        if init == "refined":       # it also finds the linear solution
            (profile,) = [p for p in solver.refine_brackets(spec) if p.slope1 > 2.0]
        else:
            profile = solver.solve(spec, init=init)
        assert math.hypot(*profile.match_gap) < 1e-11
        a, b = tight_root(spec, profile.slope0, profile.slope1)
        assert abs(profile.slope0 - a) <= 5e-9 and abs(profile.slope1 - b) <= 5e-9

    def test_degree_one_residual_is_second_order_in_the_grid(self):
        # the residual of the 12.1254 profile (1.23e-3 at 513 points) is the
        # O(h^2) error of the finite-difference r'' in ode.residual_norm,
        # not a solver defect: doubling the points cuts it about fourfold
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        init = (12.125402108661788, 12.125402108661788)
        coarse = solver.solve(spec, init=init, profile_points=513)
        fine = solver.solve(spec, init=init, profile_points=1025)
        assert (coarse.slope0, coarse.slope1) == (fine.slope0, fine.slope1)
        assert coarse.residual / fine.residual >= 3.5

    def test_degree_zero_bump(self):
        # the first nontrivial degree-0 solution on (1,2,2): a positive
        # bump, mirror-symmetric, slopes +/-3.53770354 (frozen from a
        # converged run; validated by gap, boundary decay and symmetry)
        spec = BvpSpec(G=1, M0=2, M1=2, k=0)
        profile = solver.solve(spec, init=(3.5, -3.5))
        assert profile.slope0 == pytest.approx(3.53770354, abs=1e-6)
        assert profile.slope1 == pytest.approx(-profile.slope0, abs=1e-8)
        r = profile.samples[:, 1]
        assert r.min() > 0.0 and r.max() == pytest.approx(1.9056, abs=1e-3)
        assert abs(r[0]) < 1e-4 and abs(r[-1]) < 1e-4
        # mirror symmetry r(pi - t) = r(t) on the uniform grid
        assert float(np.max(np.abs(r - r[::-1]))) < 1e-7
