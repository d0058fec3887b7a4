"""Series starts, shooting, sweeps and the profiles they produce."""

import dataclasses
import json
import logging
import math
import random
import re
import struct

import numpy as np
import pytest

from cohom1 import actions, classify, ode, solver
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


def integrate(accel, t0, r0, v0, t_end, config):
    """Final (r, v) of one scalar DP5(4) run from (t0, r0, v0) to t_end."""
    return solver._dp_run(accel, solver._dp_start(accel, (t0, r0, v0), t_end), t_end, config)[1:3]


def two_branch_start(spec, endpoint, slope, eps):
    """series_start's (t, r, v) as one body per endpoint, the cubic
    coefficient fitted twice at 2*eps from the endpoint."""
    accel = ode.rhs(spec)
    if endpoint is Endpoint.LEFT:
        tp = 2.0 * eps
        c3 = accel(tp, slope * tp, slope) / (6.0 * tp)
        c3 = accel(tp, slope * tp + c3 * tp**3, slope + 3.0 * c3 * tp * tp) / (6.0 * tp)
        return eps, slope * eps + c3 * eps**3, slope + 3.0 * c3 * eps * eps
    L = spec.length
    r_end = spec.k * L
    tp = L - 2.0 * eps
    s = 2.0 * eps
    d3 = -accel(tp, r_end - slope * s, slope) / (6.0 * s)
    d3 = -accel(tp, r_end - slope * s - d3 * s**3, slope + 3.0 * d3 * s * s) / (6.0 * s)
    return L - eps, r_end - slope * eps - d3 * eps**3, slope + 3.0 * d3 * eps * eps


class TestSeriesStart:
    def test_left_start_lies_on_exact_linear_solution(self):
        spec = BvpSpec(G=3, M0=2, M1=2, k=-2)
        for eps in (1e-4, 1e-5, 1e-6):
            t, r, v = solver.series_start(spec, Endpoint.LEFT, -2.0, eps)
            assert t == eps
            assert abs(r - (-2.0) * eps) <= 10.0 * eps**3 * (1 + 2.0)
            assert abs(v - (-2.0)) <= 30.0 * eps**2 * (1 + 2.0)

    def test_right_start_lies_on_exact_linear_solution(self):
        spec = BvpSpec(G=2, M0=1, M1=3, k=-1)
        eps = 1e-5
        t, r, v = solver.series_start(spec, Endpoint.RIGHT, -1.0, eps)
        assert t == spec.length - eps
        assert abs(r - (-1.0) * t) <= 1e-12
        assert abs(v - (-1.0)) <= 1e-9

    def test_zero_slope_start_is_pure_cubic(self):
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        eps = 1e-3
        t, r, v = solver.series_start(spec, Endpoint.LEFT, 0.0, eps)
        # r = c3 * eps^3 and v = 3 c3 eps^2 for the same c3
        assert r == pytest.approx(v * eps / 3.0, rel=1e-6, abs=1e-18)

    @pytest.mark.parametrize("G", [1, 2, 3, 4, 6, 12])
    def test_equals_two_branch_expansion_bit_for_bit(self, G):
        # the one expansion body against a copy of the former left and
        # right bodies, signed zero slopes included
        # problems with smooth branches at both ends: odd G needs M0 == M1
        spec = BvpSpec(G=G, M0=2, M1=2 if G % 2 else 3, k=1 - G if G % 2 else 1 + G)
        rng = random.Random(G)
        slopes = [0.0, -0.0, 1.0, -1.0, 7.0, -12.0, 60.0, -60.0]
        slopes += [rng.uniform(-60.0, 60.0) for _ in range(8)]
        for eps in (1e-4, 1e-5, 3.7e-6, 1e-7):
            for endpoint in Endpoint:
                for slope in slopes:
                    got = solver.series_start(spec, endpoint, slope, eps)
                    want = two_branch_start(spec, endpoint, slope, eps)
                    assert [x.hex() for x in got] == [x.hex() for x in want]

    @pytest.mark.parametrize("tangent", [False, True])
    def test_start_nearly_satisfies_the_ode(self, tangent):
        # the O(t) terms cancel for every slope, so the closed tension at a
        # start, with r'' = 6 c3 t from its own cubic, is O(eps): every
        # table row at both ends, slopes across 2.5 times its bracket
        for spec in table_specs():
            lo, hi = ShootingConfig().resolved_bracket(spec)
            for slope in np.linspace(2.5 * lo, 2.5 * hi, 11).tolist():
                scale = 4.0 * spec.G * (spec.M0 + spec.M1) * (1.0 + abs(slope) + abs(spec.k))
                for eps in (1e-5, 1e-3):
                    for endpoint, base in ((Endpoint.LEFT, 0.0), (Endpoint.RIGHT, spec.length)):
                        t, r, v, *_ = solver.series_start(spec, endpoint, slope, eps, tangent)
                        rdd = 2.0 * (v - slope) / (t - base)
                        tension = ode.closed_tension(spec, ode.TensionSample(t, r, v, rdd))
                        assert abs(tension) <= 100.0 * eps * scale

    def test_richardson_order(self):
        # the value transported to a fixed interior point converges at
        # order >= 2 as the start offset is halved
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        accel = ode.rhs(spec)
        target = 0.5
        tight = ShootingConfig(rel_tol=1e-12, abs_tol=1e-14)

        def transported(eps):
            t, r, v = solver.series_start(spec, Endpoint.LEFT, 3.0, eps)
            return integrate(accel, t, r, v, target, tight)[0]

        r1 = transported(1e-3)
        r2 = transported(5e-4)
        r3 = transported(2.5e-4)
        d1, d2 = abs(r1 - r2), abs(r2 - r3)
        assert d2 < d1 / 3.5 or d2 < 1e-12


class TestIntegrator:
    def test_stall_on_nan_dynamics(self):
        bad = lambda t, r, v: math.nan
        with pytest.raises(IntegratorStall):
            integrate(bad, 0.1, 0.0, 1.0, 1.0, ShootingConfig())

    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_last_step_of_an_ulp_arrives(self, direction):
        # a step that stops one ulp short of t_end leaves a last step of one
        # ulp, after which h is below _MIN_STEP: the run has arrived, which
        # is no stall
        t_end = 0.09204181602313845
        t = math.nextafter(t_end, -direction * math.inf)
        state = (t, 1.0, 0.0, direction * 1e-3, 0.0, 0)
        end = solver._dp_run(lambda t, r, v: 0.0, state, t_end, ShootingConfig())
        assert end[:3] == (t_end, 1.0, 0.0) and abs(end[3]) < solver._MIN_STEP

    def test_lanes_arrive_after_a_last_step_of_an_ulp(self, monkeypatch):
        # with no acceleration every step is accepted and the next one is 5
        # times longer; the sixth ends one ulp short of t_end.  The lanes
        # start at (0, 1, 0) and take both right-hand sides from ode.
        t, h = 0.0, 1e-3
        for _ in range(6):
            t, h = t + h, h * 5.0
        t_end = math.nextafter(t, math.inf)
        lane_rhs = (lambda stage_t: [stage_t], lambda parts, r, v: np.zeros_like(r))
        monkeypatch.setattr(ode, "_rhs_lanes", lambda spec: lane_rhs)
        monkeypatch.setattr(ode, "rhs", lambda spec: lambda t, r, v: 0.0)
        monkeypatch.setattr(solver, "series_start", lambda *args: (0.0, 1.0, 0.0))
        n = solver._DRAIN_LANES
        out = solver._integrate_lanes(
            BvpSpec(G=1, M0=2, M1=2, k=1), ShootingConfig(), Endpoint.LEFT, np.zeros(n), t_end
        )
        assert out == [(1.0, 0.0)] * n
        assert integrate(lambda t, r, v: 0.0, 0.0, 1.0, 0.0, t_end, ShootingConfig()) == (1.0, 0.0)

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
        t0, r0, v0 = solver.series_start(spec, Endpoint.LEFT, 10.0, 1e-5)
        with pytest.raises(TrajectoryEscaped) as info:
            integrate(accel, t0, r0, v0, math.pi - 1e-5, ShootingConfig(blowup_cap=100.0))
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
            t, r, v = start = solver.series_start(spec, endpoint, slope, 1e-5)
            for t_node, r_node, v_node in nodes:
                if abs(t_node - start[0]) > 0.75 * spec.length:
                    break
                r, v = integrate(accel, t, r, v, t_node, tight)
                t = t_node
                assert r_node == pytest.approx(r, abs=5e-9)
                assert v_node == pytest.approx(v, abs=5e-8)
                checked += 1
        assert checked == 2 * 49        # of the 65 samples taken, from either end


class TestShoot:
    def test_harmonic_linear_case_closes_the_gap(self):
        spec = BvpSpec(G=4, M0=1, M1=1, k=-3)
        gaps = solver.shoot(spec, ShootingConfig(), -3.0, -3.0)
        assert abs(gaps[0]) <= 1e-8 and abs(gaps[1]) <= 1e-8

    def test_identity_map_closes_the_gap(self):
        spec = BvpSpec(G=3, M0=2, M1=2, k=1)
        gaps = solver.shoot(spec, ShootingConfig(), 1.0, 1.0)
        assert abs(gaps[0]) <= 1e-8 and abs(gaps[1]) <= 1e-8

    def test_generic_slope_gives_finite_gaps(self):
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        gaps = solver.shoot(spec, ShootingConfig(), 3.0, 3.0)
        assert all(math.isfinite(x) for x in gaps)
        assert abs(gaps[0]) > 1e-4


def scalar_dense_states(steps, nodes):
    """Per-node scalar quartic interpolation in _dp_run's step rows: walk
    the steps and the nodes in order, and give each node to the first step
    whose end t + h reaches it, as the step loop meets it."""
    out = []
    rows = iter(steps)
    t, h, r, v, *ks = next(rows)
    direction = 1.0 if h > 0.0 else -1.0
    for node in nodes:
        node = float(node)
        while (t + h - node) * direction < 0.0:
            t, h, r, v, *ks = next(rows)
        th = (node - t) / h
        th2 = th * th
        th3 = th2 * th
        th4 = th3 * th
        ur, uv = r, v
        for s, row in enumerate((solver._P[0], *solver._P[2:])):
            w = row[0] * th + row[1] * th2 + row[2] * th3 + row[3] * th4
            ur += h * w * ks[2 * s]
            uv += h * w * ks[2 * s + 1]
        out.append((node, ur, uv))
    return np.array(out)


class TestDenseOutput:
    # (1,2,2,1) at slope 3 is nonlinear, so every stage weight matters
    SPEC = BvpSpec(G=1, M0=2, M1=2, k=1)

    def recorded_steps(self, endpoint, t_end):
        """Step rows of the half from ``endpoint`` at slope 3 run to t_end."""
        accel = ode.rhs(self.SPEC)
        t0, r0, v0 = solver.series_start(self.SPEC, endpoint, 3.0, 1e-5)
        steps = []
        solver._dp_run(accel, solver._dp_start(accel, (t0, r0, v0), t_end), t_end,
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
        t_end = 0.2 if endpoint is Endpoint.RIGHT else 2.9
        accel, start_tangent = ode.rhs(self.SPEC), ()
        if tangent:
            accel, start_tangent = ode.rhs_tangent(self.SPEC), (1.0, 0.0)
        t0, r0, v0 = solver.series_start(self.SPEC, endpoint, 3.0, 1e-5)
        start = solver._dp_start(accel, (t0, r0, v0, *start_tangent), t_end)
        plain = solver._dp_run(accel, start, t_end, ShootingConfig())
        steps = []
        recorded = solver._dp_run(accel, start, t_end, ShootingConfig(), steps)
        assert struct.pack(f"<{len(plain)}d", *plain) == struct.pack(
            f"<{len(recorded)}d", *recorded
        )
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
        fast = solver._dense_profile(self.SPEC, config, 3.0, 2.5, (0.0, 0.0), 513)
        passes = []

        def scalar(runs):
            passes.append(len(runs))
            return np.vstack([scalar_dense_states(*run) for run in runs])

        monkeypatch.setattr(solver, "_dense_states", scalar)
        slow = solver._dense_profile(self.SPEC, config, 3.0, 2.5, (0.0, 0.0), 513)
        assert passes == [2]        # one pass over both halves
        assert fast.samples.tobytes() == slow.samples.tobytes()
        assert struct.pack("<d", fast.residual) == struct.pack("<d", slow.residual)

    def test_halves_continue_after_a_last_step_of_an_ulp(self):
        # a shot whose last step is an ulp ends with h below _MIN_STEP; the
        # continuation past the match point starts from a longer step
        config, record = ShootingConfig(), []
        solver.shoot(self.SPEC, config, 3.0, 2.5, record=record)
        short = [
            (start, steps, (t, r, v, math.copysign(5e-16, h), k1v, n))
            for start, steps, (t, r, v, h, k1v, n) in record
        ]
        profile = solver._dense_profile(self.SPEC, config, 3.0, 2.5, (0.0, 0.0), 513, short)
        want = solver._dense_profile(self.SPEC, config, 3.0, 2.5, (0.0, 0.0), 513, record)
        assert np.abs(profile.samples - want.samples).max() < 1e-8


def table_specs():
    return [
        BvpSpec(G=v.action.bvp_g, M0=v.action.m0, M1=v.action.m1, k=v.k)
        for v in classify.examples_table()
    ]


def max_rel_diff(got, want):
    """Largest entry difference of two 2x2 matrices over want's largest entry."""
    scale = max(abs(x) for row in want for x in row)
    return max(abs(g - w) for gr, wr in zip(got, want) for g, w in zip(gr, wr)) / scale


def central_jacobian(spec, config, a, b, rel_step=1e-4):
    """((dg0/da, dg0/db), (dg1/da, dg1/db)) of shoot by central differences."""
    ha, hb = rel_step * (1.0 + abs(a)), rel_step * (1.0 + abs(b))
    pa, ma = solver.shoot(spec, config, a + ha, b), solver.shoot(spec, config, a - ha, b)
    pb, mb = solver.shoot(spec, config, a, b + hb), solver.shoot(spec, config, a, b - hb)
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

        t0, r0, v0 = solver.series_start(self.NONLINEAR, Endpoint.LEFT, 10.0, 1e-5)
        with pytest.raises(TrajectoryEscaped):
            integrate(recorded, t0, r0, v0, math.pi - 1e-5, ShootingConfig())
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
                    t, r, v, dr, dv = solver.series_start(spec, endpoint, slope, eps, tangent=True)
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
            jac = solver.shoot(spec, config, a, b, tangent=True)[1]
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
            gap = solver.shoot(spec, config, a, b, tangent=True)[0]
            assert struct.pack("<2d", *gap) == struct.pack("<2d", *solver.shoot(spec, config, a, b))

    def test_tangent_shot_raises_what_a_plain_shot_raises(self):
        config = ShootingConfig(blowup_cap=10.0)
        for a, b in ((10.5, 1.0), (1.0, 10.5)):
            with pytest.raises(TrajectoryEscaped) as plain:
                solver.shoot(self.NONLINEAR, config, a, b)
            with pytest.raises(TrajectoryEscaped) as carried:
                solver.shoot(self.NONLINEAR, config, a, b, tangent=True)
            assert str(carried.value) == str(plain.value)


class TestRhsFactoryContract:
    def test_plain_callers_call_three_arguments(self, monkeypatch):
        # the benchmark's tracer and ns-per-call timer replace ode.rhs with
        # a factory whose closures take exactly (t, r, r'), so tangent
        # callers take the closure as ode.rhs_tangent.  A closure called
        # with another arity raises TypeError, which no solver path
        # catches.  The (plain, tangent) counts are: the solve (24, 564),
        # the sweep, at seed accuracy, (24180, 34) and the refinement of its
        # 2 brackets (5160, 6430).  Series starts take the tangent form, two
        # evaluations each.  The solve's plain evaluations continue the
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
        assert counts == {"plain": 24, "tangent": 564}
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        config = ShootingConfig(bracket=(0.0, 20.0), sweep_points=17)
        points = solver.sweep(spec, config)
        assert sum(p.sign_change for p in points) == 2
        assert counts == {"plain": 24 + 24180, "tangent": 564 + 34}
        assert len(solver.refine_brackets(spec, config, points)) == 1
        assert counts == {"plain": 24 + 24180 + 5160, "tangent": 564 + 34 + 6430}


def reference_newton(spec, config, a, b, tol, iterations=0):
    """solve's damped Newton loop on plain shots at ``config``, from (a, b)
    at iteration ``iterations`` until the gap norm is at most ``tol``, with
    the Jacobian of each iterate from a separate tangent-carrying shot at it,
    and no memo: (a, b, gap, iterations)."""
    gap = solver.shoot(spec, config, a, b)
    norm = math.hypot(*gap)
    while norm > tol:
        if iterations >= config.max_newton:
            raise NoConvergence(gap, (a, b), iterations, "iteration cap reached")
        (j00, j01), (j10, j11) = solver.shoot(spec, config, a, b, tangent=True)[1]
        det = j00 * j11 - j01 * j10
        if det == 0.0 or not math.isfinite(det):
            raise NoConvergence(gap, (a, b), iterations, "singular jacobian")
        da = (j11 * gap[0] - j01 * gap[1]) / det
        db = (j00 * gap[1] - j10 * gap[0]) / det
        lam = 1.0
        for _ in range(20):
            trial = (a - lam * da, b - lam * db)
            try:
                trial_gap = solver.shoot(spec, config, *trial)
            except (TrajectoryEscaped, IntegratorStall):
                lam *= 0.5
                continue
            trial_norm = math.hypot(*trial_gap)
            if trial_norm < norm:
                a, b = trial
                gap, norm = trial_gap, trial_norm
                break
            lam *= 0.5
        else:
            raise NoConvergence(gap, (a, b), iterations, "damping failed to reduce gap")
        iterations += 1
    return a, b, gap, iterations


def reference_solve(spec, config, init):
    """solve with one Newton phase, all of it at ``config``."""
    tol = solver.GAP_TOL_FACTOR * (1.0 + abs(spec.k))
    a, b, gap, _ = reference_newton(spec, config, float(init[0]), float(init[1]), tol)
    return solver._dense_profile(spec, config, a, b, gap, 513)


def two_phase_reference(spec, config, init):
    """solve with a seed phase at rel_tol 1e-6, abs_tol scaled alike, to
    |gap| <= 1e-4 (1 + |k|), then a final phase at ``config`` from the seed
    phase's last iterate, whatever stopped it; the iteration cap spans both.
    A final phase that meets its stop on its first shot after seed steps
    runs one more iteration, at a stop below any gap, and keeps the iterate
    it had if that iteration cannot lower the gap."""
    scale = 1e-6 / config.rel_tol
    seed = dataclasses.replace(config, rel_tol=1e-6, abs_tol=config.abs_tol * scale)
    a, b, iterations = float(init[0]), float(init[1]), 0
    try:
        a, b, _, iterations = reference_newton(spec, seed, a, b, 1e-4 * (1.0 + abs(spec.k)))
    except NoConvergence as exc:
        (a, b), iterations = exc.iterate, exc.iterations
    except (TrajectoryEscaped, IntegratorStall):
        pass
    tol = solver.GAP_TOL_FACTOR * (1.0 + abs(spec.k))
    a, b, gap, final = reference_newton(spec, config, a, b, tol, iterations)
    if final == iterations > 0:
        cap = dataclasses.replace(config, max_newton=min(config.max_newton, iterations + 1))
        try:
            reference_newton(spec, cap, a, b, -1.0, iterations)
        except NoConvergence as exc:
            if exc.iterations > iterations:     # stopped by the cap after one step
                a, b = exc.iterate
                gap = exc.gaps
    return solver._dense_profile(spec, config, a, b, gap, 513)


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
        # seed steps land inside the gap tolerance: one more step at config
        (BvpSpec(G=8, M0=4, M1=7, k=1), ShootingConfig(),
         (1.0379090647628626, 1.0769999589922035), None),
        (nonlinear, ShootingConfig(max_newton=2), (1.4, 0.7), "iteration cap reached"),
        (nonlinear, capped, (10.0, 1.0), "damping failed to reduce gap"),
        (nonlinear, capped, (10.5, 1.0), "trajectory escaped"),
        (nonlinear, ShootingConfig(), (12.1, 12.2), None),
    ]


class TestSharedHalves:
    @pytest.mark.parametrize("spec, config, init, expected", newton_cases())
    def test_solve_is_bit_identical_to_memo_free_newton(
        self, monkeypatch, spec, config, init, expected
    ):
        # seed accuracy at the config's own: the one-phase path
        monkeypatch.setattr(solver, "_SEED_REL_TOL", config.rel_tol)
        got = solve_outcome(solver.solve, spec, config, init)
        assert got == solve_outcome(reference_solve, spec, config, init)
        if expected is None:
            assert got[0] == "converged"
        else:
            assert expected in got[2]

    @pytest.mark.parametrize("spec, config, init, expected", newton_cases())
    def test_solve_is_bit_identical_to_two_phase_newton(self, spec, config, init, expected):
        # the default tolerances, so a seed phase runs first; the cap, the
        # damping and the escape cases hand over from it
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
            shots.append(args[2:4])
            return shoot(*args, **kwargs)

        def counted_run(accel, state, t_end, config, record=None):
            runs.append((state[0], t_end))
            return dp_run(accel, state, t_end, config, record)

        monkeypatch.setattr(solver, "shoot", counted_shoot)
        monkeypatch.setattr(solver, "_dp_run", counted_run)
        solver.solve(spec, init=(-0.97, -1.04))
        assert len(shots) > 3
        # two halves per shot from their end points to the match point, then
        # the accepted shot's halves continue from it across the blend
        # window, the left one up and the right one down
        match, n = spec.length / 2.0, 2 * len(shots)
        assert runs[:n] == [(1e-5, match), (spec.length - 1e-5, match)] * len(shots)
        (left_from, hi), (right_from, lo) = runs[n:]
        assert left_from == right_from == match and lo < match < hi

    @pytest.mark.parametrize(
        "spec, config, init", [case[:3] for case in newton_cases() if case[3] is None]
    )
    def test_profile_depends_on_the_converged_slopes_alone(self, spec, config, init):
        # solve's profile, from the record of the tangent shot Newton
        # accepted, equals one from a fresh plain shot at its slopes
        profile = solver.solve(spec, config, init=init)
        a, b, record = profile.slope0, profile.slope1, []
        solver.shoot(spec, config, a, b, record=record)
        fresh = solver._dense_profile(spec, config, a, b, profile.match_gap, 513, record)
        assert fresh.samples.tobytes() == profile.samples.tobytes()
        assert fresh.residual.hex() == profile.residual.hex()

    def test_escaping_trial_is_halved_not_raised(self, monkeypatch):
        # from (5, 1) with the cap at 10 the first full Newton step escapes
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        shots = []
        shoot = solver.shoot

        def recorded(spec, config, a, b, **kwargs):
            try:
                out = shoot(spec, config, a, b, **kwargs)
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

    def spy(spec, config, a, b, **kwargs):
        configs.append(config)
        return shoot(spec, config, a, b, **kwargs)

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
            "hand-over: predicted |gap| 6.75e-07; converged in 3 iterations"
        ]
        assert seed_shots == 2 and profile.residual <= 1e-6
        # one phase: no shot at seed accuracy
        del configs[:]
        coarse = ShootingConfig(rel_tol=1e-6, abs_tol=1e-8)
        _, lines = solve_lines(caplog, self.SPEC, coarse, self.INIT)
        assert lines == [
            f"solve: 0 shots at seed rel_tol 1e-06, {len(configs)} at rel_tol 1e-06; "
            "hand-over: none; converged in 6 iterations"
        ]

    @pytest.mark.parametrize("config, init, handover", [
        (ShootingConfig(max_newton=2), (1.4, 0.7), "no convergence .*: iteration cap reached"),
        (ShootingConfig(blowup_cap=10.0), (10.0, 1.0),
         "no convergence .*: damping failed to reduce gap"),
        (ShootingConfig(blowup_cap=10.0), (10.5, 1.0), r"trajectory escaped at t=[^;]*"),
    ])
    def test_hand_over_raises_from_the_callers_config(
        self, caplog, monkeypatch, config, init, handover
    ):
        configs = shot_configs(monkeypatch)
        exc, lines = solve_lines(caplog, self.NONLINEAR, config, init)
        # the seed phase's exception, then the one solve raises
        assert len(lines) == 1 and lines[0].endswith(f"; {exc}")
        assert re.fullmatch(handover, lines[0].removesuffix(f"; {exc}").split("; hand-over: ")[1])
        assert configs[0].rel_tol == 1e-6 and configs[-1] is config
        if isinstance(exc, NoConvergence):
            # the cap counts the iterations of both phases
            assert exc.iterations <= config.max_newton
            gaps = solver.shoot(self.NONLINEAR, config, *exc.iterate)
            assert struct.pack("<2d", *exc.gaps) == struct.pack("<2d", *gaps)
        else:
            with pytest.raises(TrajectoryEscaped) as plain:
                solver.shoot(self.NONLINEAR, config, *init)
            assert str(exc) == str(plain.value)

    def test_seed_placed_iterate_takes_one_step_at_the_callers_config(
        self, caplog, monkeypatch
    ):
        # (8,4,7,1) from a start of the newton-recover draw: a full seed
        # step takes |gap| from 9.4e-2 to 7.3e-4, which predicts 4.5e-8 for
        # the next, and the first shot at config, at the full step from
        # there, finds 1.5e-9, inside the tolerance 2e-9.  Stopping there
        # left the residual at 2.3e-6; one step at config brings the gap to
        # 2.4e-12 and the residual to 7.8e-9.
        spec, config = BvpSpec(G=8, M0=4, M1=7, k=1), ShootingConfig()
        configs = shot_configs(monkeypatch)
        profile, lines = solve_lines(
            caplog, spec, config, (1.0379090647628626, 1.0769999589922035)
        )
        assert lines == [
            "solve: 2 shots at seed rel_tol 1e-06, 2 at rel_tol 1e-10; "
            "hand-over: predicted |gap| 4.51e-08; converged in 3 iterations"
        ]
        assert configs[2] is config and configs[3] is config
        assert math.hypot(*profile.match_gap) <= 1e-11 and profile.residual <= 1e-6

    def test_step_the_cap_forbids_keeps_the_converged_iterate(self, caplog):
        # the same start with the cap at its two seed-phase steps, the
        # second the predicted one: the first shot at config meets the
        # stop, and solve returns its iterate
        spec, config = BvpSpec(G=8, M0=4, M1=7, k=1), ShootingConfig(max_newton=2)
        init = (1.0379090647628626, 1.0769999589922035)
        profile, lines = solve_lines(caplog, spec, config, init)
        assert lines[0].endswith(
            "; hand-over: predicted |gap| 4.51e-08; converged in 2 iterations"
        )
        assert solve_outcome(solver.solve, spec, config, init) == solve_outcome(
            two_phase_reference, spec, config, init
        )
        assert profile.residual > 1e-6      # what the step at config avoids

    @pytest.mark.parametrize(
        "spec, config, init",
        [(SPEC, ShootingConfig(), INIT)] + [case[:3] for case in newton_cases() if case[3] is None],
    )
    def test_predicted_hand_over_saves_the_last_seed_shot(self, monkeypatch, spec, config, init):
        # the profile of today's rule, with one seed shot fewer; the far
        # nonlinear start's first seed step already meets the switch, and
        # its first shot follows no step, so it predicts nothing
        calls = []
        shoot = solver.shoot

        def spy(spec, config, a, b, **kwargs):
            calls.append((config.rel_tol, kwargs.get("tangent", False)))
            return shoot(spec, config, a, b, **kwargs)

        monkeypatch.setattr(solver, "shoot", spy)
        want = solve_outcome(two_phase_reference, spec, config, init)
        today = calls.count((1e-6, False))
        del calls[:]
        assert solve_outcome(solver.solve, spec, config, init) == want
        saved = 0 if init == (12.1, 12.2) else 1
        assert today >= 2 and calls.count((1e-6, True)) == today - saved

    @pytest.mark.parametrize("wrong", ["escapes", "keeps the norm"])
    def test_wrong_prediction_resumes_the_seed_phase(self, monkeypatch, wrong):
        # the first shot at config, at the predicted iterate, escapes or
        # returns the gap of the seed iterate it steps from: the seed phase
        # resumes there with its damped step, and solve ends where today's
        # rule does, at one more shot at config
        config = ShootingConfig()
        want = solve_outcome(two_phase_reference, self.SPEC, config, self.INIT)
        calls, seed_gaps = [], []
        shoot = solver.shoot

        def spoiled(spec, cfg, a, b, **kwargs):
            calls.append(cfg)
            out = shoot(spec, cfg, a, b, **kwargs)
            if cfg is not config:
                seed_gaps.append(out[0])
            elif calls.count(config) == 1:
                if wrong == "escapes":
                    raise TrajectoryEscaped(0.1, 1e7, 1e7)
                return seed_gaps[-1], out[1]
            return out

        monkeypatch.setattr(solver, "shoot", spoiled)
        assert solve_outcome(solver.solve, self.SPEC, config, self.INIT) == want
        # two seed shots, the spoiled one at config, then the third seed
        # shot of today's rule, which meets the switch
        assert [c is config for c in calls[:5]] == [False, False, True, False, True]
        assert sum(c is not config for c in calls) == 3

    def test_no_prediction_after_a_damped_step_or_on_a_first_shot(self, monkeypatch):
        # a scripted gap (F(a), 0) with Jacobian 1, at switch 2e-4: from
        # a = 1 the full step to 0 raises the norm and the half step to 0.5
        # lowers it to 1e-2, which would predict 1e-6 were the step full;
        # from 0.5 the full step to 0.49 gives 1e-3, which predicts 1e-5
        spec, config = BvpSpec(G=1, M0=2, M1=2, k=1), ShootingConfig()
        calls = []

        def scripted(spec, cfg, a, b, tangent=False, record=None):
            calls.append((cfg is config, a))
            f = next((f for top, f in ((0.25, 5.0), (0.4895, 0.0), (0.495, 1e-3), (0.75, 1e-2))
                      if a < top), a)
            return (f, 0.0), ((1.0, 0.0), (0.0, 1.0))

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
        # from (k, k) the first seed shot meets the switch, so the final
        # phase is the one-phase Newton, with no step added
        config = ShootingConfig()
        for spec in table_specs():
            init = (float(spec.k), float(spec.k))
            got = solve_outcome(solver.solve, spec, config, init)
            assert got == solve_outcome(reference_solve, spec, config, init)

    def test_far_start_of_a_non_isolated_candidate(self):
        # (4,2,2,-3) from 5% off: the seed phase meets its switch after one
        # iteration, and what solve reports comes from a shot at the
        # caller's config
        spec, config = BvpSpec(G=4, M0=2, M1=2, k=-3), ShootingConfig()
        try:
            profile = solver.solve(spec, config, init=(-3.154, -2.952))
        except NoConvergence as exc:
            iterate, gaps = exc.iterate, exc.gaps
        else:
            iterate, gaps = (profile.slope0, profile.slope1), profile.match_gap
        want = solver.shoot(spec, config, *iterate)
        assert struct.pack("<2d", *gaps) == struct.pack("<2d", *want)

    def test_table_rows_take_at_most_three_quarters_of_the_tangent_evaluations(
        self, monkeypatch
    ):
        # every table row from 5% of 1 + |k| off (k, k); with every shot at
        # the solution tolerance the 14 rows other than (4,2,2,-3) took 20802
        # tangent evaluations and (4,2,2,-3), which runs to the iteration
        # cap, 90312.  Every row solved to residual <= 1e-6 then still is:
        # all but (4,2,2,-3) and the (12,1,1,-11) residual miss (2.1e-6).
        # With the seed phase they took 11034 and 72936; handing over at the
        # iterate Newton predicts inside the switch took the first to 9636.
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
            if key not in ((4, 2, 2, -3), (12, 1, 1, -11)):
                assert residual <= 1e-6, key
        capped = evaluations.pop(BvpSpec(G=4, M0=2, M1=2, k=-3))
        assert sum(evaluations.values()) <= 0.75 * 20802
        assert sum(evaluations.values()) <= 9636
        assert capped <= 90312


class TestConfigDict:
    def test_every_field_in_order_with_bracket_as_list(self):
        spec = BvpSpec(G=2, M0=1, M1=3, k=1)
        config = ShootingConfig(bracket=(2, 5.5), match_point=0.7)
        assert json.dumps(config.to_dict()) == (
            '{"eps0": 1e-05, "eps1": 1e-05, "rel_tol": 1e-10, "abs_tol": 1e-12, '
            '"match_point": 0.7, "bracket": [2, 5.5], "sweep_points": 512, '
            '"max_newton": 50, "blowup_cap": 1000000.0}'
        )
        assert config.to_dict(spec)["bracket"] == [2.0, 5.5]
        default = ShootingConfig()
        assert default.to_dict()["bracket"] is None
        assert default.to_dict()["match_point"] is None
        resolved = default.to_dict(spec)
        assert resolved["bracket"] == [-8.0, 8.0]
        assert resolved["match_point"] == spec.length / 2.0


class TestConfigValidation:
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

    @pytest.mark.parametrize("G, k", [(3, 2), (3, 0), (4, 2), (6, -1), (12, 3)])
    def test_k_without_a_right_smooth_branch_rejected_before_integrating(
        self, monkeypatch, G, k
    ):
        # G must divide 2(k-1); nothing is series-started or integrated
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
            with pytest.raises(ValueError, match="smooth branch"):
                call()

    def test_every_classified_problem_has_a_right_smooth_branch(self):
        # every admissible k, |j| <= 4, of every classified action: the 209
        # linear-solution problems among them, and every table row
        specs = set(table_specs())
        for g, m0, m1 in actions.strict_triples():
            for space in (Space.SPHERE, Space.ORTHOGONAL_GROUP):
                action = actions.make_action(space, g, m0, m1)
                for j in range(-4, 5):
                    if j % 2 == 0 or action.odd_j_allowed:
                        specs.add(BvpSpec.from_action(action, j))
        sp2 = actions.make_action(Space.SP2_LIFT, 6, 1, 1)
        specs.update(BvpSpec.from_action(sp2, j) for j in range(-4, 5))
        linear = [s for s in specs if classify.is_linear_solution(s.G, s.M0, s.M1, s.k)]
        assert len(linear) == 209
        for spec in specs:
            ShootingConfig().validate(spec)

    @pytest.mark.parametrize("name, value", [
        ("sweep_points", 64.0), ("sweep_points", True), ("sweep_points", "64"),
        ("max_newton", 2.5), ("max_newton", math.inf), ("max_newton", True),
        ("max_newton", np.float64(50)), ("max_newton", None),
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

    @pytest.mark.parametrize("jac", [((1.0, 2.0), (2.0, 4.0)), ((math.nan, 0.0), (0.0, 1.0))])
    def test_singular_jacobian_is_no_convergence(self, monkeypatch, jac):
        # every shot's gap is real, and its Jacobian rank-deficient or NaN:
        # each phase stops at its first Newton step, before any trial shot
        shoot, shots = solver.shoot, []

        def singular(*args, **kwargs):
            shots.append(args[1])
            return shoot(*args, **kwargs)[0], jac

        monkeypatch.setattr(solver, "shoot", singular)
        spec, config = BvpSpec(G=1, M0=2, M1=2, k=1), ShootingConfig()
        with pytest.raises(NoConvergence, match="singular jacobian") as info:
            solver.solve(spec, config, init=(1.2, 0.9))
        assert info.value.iterate == (1.2, 0.9) and info.value.iterations == 0
        assert len(shots) == 2 and shots[1] is config
        gap = shoot(spec, config, 1.2, 0.9)
        assert struct.pack("<2d", *info.value.gaps) == struct.pack("<2d", *gap)

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
        grids = [(criterion_grid, [1, 26, 91, 310]), (bump_grid, [64, 226])]
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
            "sweep: 65 lanes at rel_tol 1e-06: 1 arrived, 32 escaped to +inf, "
            "32 to -inf, 0 stalled",
            "sweep: 40 lanes at rel_tol 1e-06: 0 arrived, 0 escaped to +inf, "
            "0 to -inf, 40 stalled",
        ]


def scalar_sweep(spec, config):
    """Per-point reference: series start, scalar run, linearised gap."""
    accel = ode.rhs(spec)
    grid = np.linspace(*config.resolved_bracket(spec), config.sweep_points)
    t_end = spec.length - config.eps1
    gaps = []
    for a in grid:
        t, r, v = solver.series_start(spec, Endpoint.LEFT, float(a), config.eps0)
        try:
            r_end, v_end = integrate(accel, t, r, v, t_end, config)
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
        t, r, v = solver.series_start(spec, Endpoint.LEFT, a, config.eps0)
        try:
            out.append(outcome_key(integrate(accel, t, r, v, t_end, config)))
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
        # with a minimum step of 1e-5, 3 of 65 lanes stall at t = 2e-5,
        # while every lane is still in the batch; one more stalls near the
        # right pole and 61 escape
        monkeypatch.setattr(solver, "_MIN_STEP", 1e-5)
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        config = ShootingConfig(blowup_cap=1e3)
        t_end = spec.length - config.eps1
        slopes = np.linspace(0.0, 20.0, 65)
        lanes = solver._integrate_lanes(spec, config, Endpoint.LEFT, slopes, t_end)
        keys = [outcome_key(o) for o in lanes]
        assert keys == scalar_outcomes(spec, config, slopes, t_end)
        stalls = [o for o in lanes if isinstance(o, IntegratorStall)]
        assert len(stalls) == 4 and sum(o.t < 1e-4 for o in stalls) == 3
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
            t, r, v = solver.series_start(spec, Endpoint.LEFT, a, config.eps0)
            with pytest.raises(IntegratorStall, match="step budget exhausted") as scalar:
                integrate(accel, t, r, v, t_end, config)
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
                ode.require_regular(row, spec.G, ode.DEFAULT_POLE_MARGIN)
        with pytest.raises(PoleProximity) as stacked:
            time_part(stage_t)
        assert str(stacked.value) == str(per_stage.value)
        assert repr(float(stage_t[1, 7])) in str(stacked.value)

    def test_time_part_once_per_batch_step(self, monkeypatch):
        # one time part for the first k1, then one per batch step over its
        # five distinct stage times; the state part once per stage
        calls = {"time": [], "state": 0}
        time_parts, state_parts = ode._time_parts, ode._state_parts

        def counted_time(G, M0, M1, t, rem):
            calls["time"].append(t.shape)
            return time_parts(G, M0, M1, t, rem)

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

    def test_remainder_exact_matches_math_remainder(self):
        def check(x):
            got = ode._remainder_exact(x, ode.TAU)
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
            ode._remainder_exact(np.array([1.0, math.inf]), ode.TAU)

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
            got = ode._remainder_exact(x, ode.TAU)
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
        got = [ode._remainder_exact(np.array([x]), tau)[0].hex() for x in xs]
        assert got == [math.remainder(x, tau).hex() for x in xs]
        # the exact multiples among them have a zero remainder with the sign
        # of x; the split alone gives +0.0 for -4 * 2 pi
        assert "0x0.0p+0" in got and "-0x0.0p+0" in got
        assert ode._remainder_exact(np.array([-4.0 * tau]), tau)[0].hex() == "-0x0.0p+0"

    def test_remainder_exact_needs_the_split_period(self):
        with pytest.raises(ValueError, match="modulo TAU"):
            ode._remainder_exact(np.array([1.0]), math.pi)

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
    def test_lane_parts_match_scalar_rhs_at_domain_ends(self, G):
        # with no pole margin: t one float inside and outside pi/G and at
        # +/-1e-150 (nearer 0, A = 4 sin^2(Gt) underflows and the scalar
        # closure divides by zero), where Gt meets the end of the identity
        # reduction; 2Gt meets the fold ends at pi/(2G) and 3pi/(2G).  Each
        # time alone and all as one batch (5 rows, as an integrator step
        # stacks them)
        spec = BvpSpec(G=G, M0=2, M1=3, k=1)
        L = spec.length
        ends = [math.nextafter(L, 0.0), math.nextafter(L, math.inf), 1e-150, -1e-150,
                math.nextafter(1.5 * L, 0.0), math.nextafter(1.5 * L, math.inf), 0.5 * L]
        rng = np.random.default_rng(G)
        t = np.array(ends + rng.uniform(0.0, 2.0 * L, 4).tolist())
        r = rng.uniform(-30.0, 30.0, t.size)
        v = rng.uniform(-100.0, 100.0, t.size)
        accel = ode.rhs(spec, margin=0.0)
        want = [accel(*x).hex() for x in zip(t.tolist(), r.tolist(), v.tolist())]
        time_part, state_part = ode._rhs_lanes(spec, margin=0.0)
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

    def test_summary_counts_the_halves_that_escape(self, caplog):
        # a blow-up cap of 12.2 stops the left half at 12.25 and 6 of the
        # 18 right halves (4 coarse over +/-31.25, 14 in 6 rounds) before
        # the match point
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        config = ShootingConfig(bracket=(11.5, 12.5), sweep_points=17)
        points = solver.sweep(spec, config)
        caplog.set_level(logging.DEBUG, logger="cohom1")
        capped = dataclasses.replace(config, blowup_cap=12.2)
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
        # the bump's right slope -3.5377 has the other sign from every grid slope
        profiles = solver.refine_brackets(*bump_grid)
        assert [(p.slope0, p.slope1) for p in profiles] == [
            (pytest.approx(3.5377035, abs=1e-6), pytest.approx(-3.5377035, abs=1e-6))
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


class TestNonlinearSolutions:
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
