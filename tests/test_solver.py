"""Series starts, shooting, sweeps and the profiles they produce."""

import logging
import math
import random
import struct

import numpy as np
import pytest

from cohom1 import classify, ode, solver
from cohom1.errors import (
    CohomError,
    IntegratorStall,
    NoConvergence,
    PoleProximity,
    TrajectoryEscaped,
)
from cohom1.ode import BvpSpec
from cohom1.solver import Endpoint, ShootingConfig


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

    def test_richardson_order(self):
        # the value transported to a fixed interior point converges at
        # order >= 2 as the start offset is halved
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        accel = ode.rhs(spec)
        target = 0.5

        def transported(eps):
            t, r, v = solver.series_start(spec, Endpoint.LEFT, 3.0, eps)
            return solver._integrate(accel, t, r, v, target, 1e-12, 1e-14, 1e6)[0]

        r1 = transported(1e-3)
        r2 = transported(5e-4)
        r3 = transported(2.5e-4)
        d1, d2 = abs(r1 - r2), abs(r2 - r3)
        assert d2 < d1 / 3.5 or d2 < 1e-12


class TestIntegrator:
    def test_stall_on_nan_dynamics(self):
        bad = lambda t, r, v: math.nan
        with pytest.raises(IntegratorStall):
            solver._integrate(bad, 0.1, 0.0, 1.0, 1.0, 1e-10, 1e-12, 1e6)

    def test_escape_reports_state(self):
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        accel = ode.rhs(spec)
        t0, r0, v0 = solver.series_start(spec, Endpoint.LEFT, 10.0, 1e-5)
        with pytest.raises(TrajectoryEscaped) as info:
            solver._integrate(accel, t0, r0, v0, math.pi - 1e-5, 1e-10, 1e-12, 100.0)
        assert 0 < info.value.t < math.pi
        assert max(abs(info.value.r), abs(info.value.rdot)) > 100.0

    def test_dense_nodes_match_direct_integration(self):
        spec = BvpSpec(G=2, M0=1, M1=3, k=3)
        accel = ode.rhs(spec)
        t0, r0, v0 = solver.series_start(spec, Endpoint.LEFT, 2.0, 1e-5)
        nodes = np.linspace(0.3, 1.2, 7)
        rec = []
        solver._integrate(
            accel, t0, r0, v0, float(nodes[-1]), 1e-10, 1e-12, 1e6,
            nodes=[float(x) for x in nodes], record=rec,
        )
        assert len(rec) == 7
        for t_node, r_node, v_node in rec:
            r_direct, v_direct = solver._integrate(
                accel, t0, r0, v0, t_node, 1e-12, 1e-14, 1e6
            )
            assert r_node == pytest.approx(r_direct, abs=5e-9)
            assert v_node == pytest.approx(v_direct, abs=5e-8)

    @pytest.mark.parametrize("pause", [1, 7, 100, 400])
    def test_paused_run_resumes_bit_for_bit(self, pause):
        # a full run to the right pole (424 steps), paused and resumed
        spec = BvpSpec(G=6, M0=1, M1=1, k=-5)
        accel = ode.rhs(spec)
        t0, r0, v0 = solver.series_start(spec, Endpoint.LEFT, -3.0, 1e-5)
        t_end = spec.length - 1e-5
        start = solver._dp_start(accel, t0, r0, v0, t_end)
        whole = solver._dp_run(accel, start, t_end, 1e-10, 1e-12, 1e6)
        paused = solver._dp_run(accel, start, t_end, 1e-10, 1e-12, 1e6, pause_at=pause)
        assert paused[5] == pause < whole[5]
        resumed = solver._dp_run(accel, paused, t_end, 1e-10, 1e-12, 1e6)
        assert resumed == whole
        assert whole[1:3] == solver._integrate(accel, t0, r0, v0, t_end, 1e-10, 1e-12, 1e6)


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


@pytest.fixture
def integrations(monkeypatch):
    """(t0, t_end) of every solver._integrate call made in the test."""
    calls = []
    original = solver._integrate

    def counted(accel, t0, r0, v0, t_end, *args, **kwargs):
        calls.append((t0, t_end))
        return original(accel, t0, r0, v0, t_end, *args, **kwargs)

    monkeypatch.setattr(solver, "_integrate", counted)
    return calls


def scalar_dense_states(raw):
    """Per-node scalar quartic interpolation of _dp_run's raw rows."""
    out = []
    for node, th, h, r, v, *ks in raw:
        th2 = th * th
        th3 = th2 * th
        th4 = th3 * th
        ur, uv = r, v
        for s, row in enumerate((solver._P[0], *solver._P[2:])):
            w = row[0] * th + row[1] * th2 + row[2] * th3 + row[3] * th4
            ur += h * w * ks[2 * s]
            uv += h * w * ks[2 * s + 1]
        out.append((node, ur, uv))
    return out


class TestDenseOutput:
    # (1,2,2,1) at slope 3 is nonlinear, so every stage weight matters
    SPEC = BvpSpec(G=1, M0=2, M1=2, k=1)

    @pytest.mark.parametrize("endpoint", [Endpoint.LEFT, Endpoint.RIGHT])
    def test_nodes_equal_scalar_interpolation_bit_for_bit(self, endpoint):
        accel = ode.rhs(self.SPEC)
        t0, r0, v0 = solver.series_start(self.SPEC, endpoint, 3.0, 1e-5)
        nodes = [float(x) for x in np.linspace(0.2, 2.9, 301)]
        if endpoint is Endpoint.RIGHT:
            nodes.reverse()
        rec, raw = [], []
        solver._integrate(
            accel, t0, r0, v0, nodes[-1], 1e-10, 1e-12, 1e6, nodes=nodes, record=rec
        )
        solver._dp_run(
            accel, solver._dp_start(accel, t0, r0, v0, nodes[-1]), nodes[-1],
            1e-10, 1e-12, 1e6, nodes, raw,
        )
        assert [x[0] for x in rec] == nodes
        assert rec == scalar_dense_states(raw)

    def test_profile_samples_equal_scalar_interpolation(self, monkeypatch):
        # both halves of a profile, the right one integrated backwards
        config = ShootingConfig()
        fast = solver._dense_profile(self.SPEC, config, 3.0, 2.5, (0.0, 0.0), 513)
        monkeypatch.setattr(solver, "_dense_states", scalar_dense_states)
        slow = solver._dense_profile(self.SPEC, config, 3.0, 2.5, (0.0, 0.0), 513)
        assert fast.samples.tobytes() == slow.samples.tobytes()
        assert struct.pack("<d", fast.residual) == struct.pack("<d", slow.residual)

    def test_record_keeps_nodes_passed_before_an_escape(self):
        accel = ode.rhs(self.SPEC)
        t0, r0, v0 = solver.series_start(self.SPEC, Endpoint.LEFT, 10.0, 1e-5)
        nodes = [float(x) for x in np.linspace(0.1, math.pi - 1e-5, 40)]
        rec = []
        with pytest.raises(TrajectoryEscaped) as info:
            solver._integrate(
                accel, t0, r0, v0, nodes[-1], 1e-10, 1e-12, 100.0, nodes=nodes, record=rec
            )
        assert rec and [x[0] for x in rec] == nodes[: len(rec)]
        assert rec[-1][0] <= info.value.t


class TestShootMemo:
    SPEC = BvpSpec(G=1, M0=2, M1=2, k=1)

    def test_memo_gives_the_same_gap(self):
        config = ShootingConfig()
        halves = {}
        for a, b in ((1.3, 0.8), (1.3, 0.9), (1.2, 0.9), (1.3, 0.8)):
            assert solver.shoot(self.SPEC, config, a, b, halves) == solver.shoot(
                self.SPEC, config, a, b
            )
        assert len(halves) == 4

    def test_shared_left_half_is_integrated_once(self, integrations):
        config = ShootingConfig()
        halves = {}
        solver.shoot(self.SPEC, config, 1.3, 0.8, halves)
        solver.shoot(self.SPEC, config, 1.3, 0.9, halves)
        assert len(integrations) == 3
        assert [t0 for t0, _t_end in integrations].count(config.eps0) == 1

    def test_escaping_half_is_not_stored(self):
        # with the cap at 10 a start slope of 10.5 escapes on the first step
        config = ShootingConfig(blowup_cap=10.0)
        halves = {}
        for _ in range(2):
            with pytest.raises(TrajectoryEscaped):
                solver.shoot(self.SPEC, config, 10.5, 1.0, halves)
        assert halves == {}
        # a right half that escapes leaves the left one stored
        for _ in range(2):
            with pytest.raises(TrajectoryEscaped):
                solver.shoot(self.SPEC, config, 1.0, 10.5, halves)
        assert [key[0] for key in halves] == [Endpoint.LEFT]


def reference_solve(spec, config, init):
    """solve's damped Newton loop with plain shots, no memo of halves."""
    a, b = float(init[0]), float(init[1])
    tol = solver.GAP_TOL_FACTOR * (1.0 + abs(spec.k))
    gap = solver.shoot(spec, config, a, b)
    norm = math.hypot(*gap)
    iterations = 0
    while norm > tol:
        if iterations >= config.max_newton:
            raise NoConvergence(gap, (a, b), iterations, "iteration cap reached")
        ha = 1e-7 * (1.0 + abs(a))
        hb = 1e-7 * (1.0 + abs(b))
        try:
            gap_a = solver.shoot(spec, config, a + ha, b)
            gap_b = solver.shoot(spec, config, a, b + hb)
        except (TrajectoryEscaped, IntegratorStall) as exc:
            raise NoConvergence(
                gap, (a, b), iterations, f"jacobian probe failed ({exc})"
            ) from exc
        j00 = (gap_a[0] - gap[0]) / ha
        j10 = (gap_a[1] - gap[1]) / ha
        j01 = (gap_b[0] - gap[0]) / hb
        j11 = (gap_b[1] - gap[1]) / hb
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
         (0.9939276939480615, 0.9430737289260273), "damping failed to reduce gap"),
        (nonlinear, ShootingConfig(max_newton=2), (1.4, 0.7), "iteration cap reached"),
        (nonlinear, capped, (10.0, 1.0), "jacobian probe failed"),
        (nonlinear, capped, (10.5, 1.0), "trajectory escaped"),
        (nonlinear, ShootingConfig(), (12.1, 12.2), None),
    ]


class TestSharedHalves:
    @pytest.mark.parametrize("spec, config, init, expected", newton_cases())
    def test_solve_is_bit_identical_to_memo_free_newton(self, spec, config, init, expected):
        got = solve_outcome(solver.solve, spec, config, init)
        assert got == solve_outcome(reference_solve, spec, config, init)
        if expected is None:
            assert got[0] == "converged"
        else:
            assert expected in got[2]

    def test_integrates_each_distinct_half_once(self, monkeypatch, integrations):
        spec = BvpSpec(G=2, M0=1, M1=3, k=-1)
        shots = []
        shoot = solver.shoot

        def counted_shoot(*args, **kwargs):
            shots.append(args[2:4])
            return shoot(*args, **kwargs)

        monkeypatch.setattr(solver, "shoot", counted_shoot)
        solver.solve(spec, init=(-0.97, -1.04))
        distinct = {("left", a) for a, _b in shots} | {("right", b) for _a, b in shots}
        assert len(shots) > 3
        assert len(integrations) == len(distinct) + 2
        assert len(integrations) < 2 * len(shots) + 2


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

    def test_ordered_and_deterministic_under_threads(self):
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        config = ShootingConfig(bracket=(0.0, 6.0), sweep_points=17)
        serial = solver.sweep(spec, config, threads=1)
        threaded = solver.sweep(spec, config, threads=4)
        assert serial == threaded
        assert [p.a for p in serial] == sorted(p.a for p in serial)

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


def scalar_sweep(spec, config):
    """Per-point reference: series start, scalar _integrate, linearised gap."""
    accel = ode.rhs(spec)
    grid = np.linspace(*config.resolved_bracket(spec), config.sweep_points)
    t_end = spec.length - config.eps1
    gaps = []
    for a in grid:
        t, r, v = solver.series_start(spec, Endpoint.LEFT, float(a), config.eps0)
        try:
            r_end, v_end = solver._integrate(
                accel, t, r, v, t_end, config.rel_tol, config.abs_tol, config.blowup_cap
            )
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


class TestLaneSweep:
    @pytest.mark.parametrize(
        "spec, options",
        [
            # below the drain threshold: every lane on the scalar loop
            (BvpSpec(G=1, M0=2, M1=2, k=1), dict(bracket=(0.0, 20.0), sweep_points=17)),
            # escapes of both signs and the identity root
            (BvpSpec(G=1, M0=2, M1=2, k=1), dict(bracket=(0.0, 20.0), sweep_points=65)),
            # every lane reaches the right pole (a looser rel_tol keeps the
            # scalar reference cheap)
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
        config = ShootingConfig(**options)
        lanes = solver.sweep(spec, config)
        reference = scalar_sweep(spec, config)
        assert lanes == reference
        assert bits(lanes) == bits(reference)

    def test_lane_batches_in_threads_match_one_batch(self):
        # 4 contiguous batches of 32-33 lanes, each above the drain threshold
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        config = ShootingConfig(bracket=(0.0, 20.0), sweep_points=130, blowup_cap=1e3)
        one = solver.sweep(spec, config, threads=1)
        four = solver.sweep(spec, config, threads=4)
        assert bits(one) == bits(four)
        assert any(math.isinf(p.gap) for p in one)
        assert any(math.isfinite(p.gap) for p in one)

    def test_pole_check_covers_every_lane(self):
        spec = BvpSpec(G=6, M0=1, M1=1, k=-5)
        time_part, _state = ode._rhs_lanes(spec)
        t = np.linspace(0.1, 0.5, 40)
        time_part(t)
        t[17] = spec.length - 1e-9
        with pytest.raises(PoleProximity):
            time_part(t)

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


class TestRefineBrackets:
    def test_refines_identity_root(self):
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        config = ShootingConfig(bracket=(0.5, 1.5), sweep_points=17)
        profiles = solver.refine_brackets(spec, config)
        assert profiles
        best = profiles[0]
        assert abs(best.slope0 - 1.0) < 1e-6
        assert best.max_linear_deviation() < 1e-6

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

    def test_criterion_grid_keeps_one_profile_per_root(self, caplog, monkeypatch):
        # the (0, 0.039) bracket and the near-miss of the k=0 bump near 3.54
        # are escape-direction flips: no half-curve crossing lies in them
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        config = ShootingConfig(bracket=(0.0, 20.0), sweep_points=512)
        points = solver.sweep(spec, config)
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
        assert [p.slope0 for p in profiles] == [
            pytest.approx(1.0, abs=1e-6), pytest.approx(12.1254021, abs=1e-6)
        ]
        for prof in profiles:
            assert sum(lo <= prof.slope0 <= hi for lo, hi in brackets) == 1

    def test_right_slope_beyond_the_grid(self):
        # (2,1,3,1): the nonlinear solution's right slope 13.0473 lies
        # outside the default grid [-8, 8]
        spec = BvpSpec(G=2, M0=1, M1=3, k=1)
        profiles = solver.refine_brackets(spec, ShootingConfig())
        assert [(p.slope0, p.slope1) for p in profiles] == [
            (pytest.approx(1.0, abs=1e-6), pytest.approx(1.0, abs=1e-6)),
            (pytest.approx(-0.0953945, abs=1e-6), pytest.approx(13.0473017, abs=1e-6)),
        ]

    def test_degree_zero_bump_from_a_half_line_grid(self):
        # the bump's right slope -3.5377 has the other sign from every grid slope
        spec = BvpSpec(G=1, M0=2, M1=2, k=0)
        profiles = solver.refine_brackets(spec, ShootingConfig(bracket=(0.0, 8.0)))
        assert [(p.slope0, p.slope1) for p in profiles] == [
            (pytest.approx(3.5377035, abs=1e-6), pytest.approx(-3.5377035, abs=1e-6))
        ]

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
