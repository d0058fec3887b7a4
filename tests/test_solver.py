"""Series starts, shooting, sweeps and the profiles they produce."""

import math
import struct

import numpy as np
import pytest

from cohom1 import ode, solver
from cohom1.errors import (
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
        accel = ode._rhs_lanes(spec)
        t = np.linspace(0.1, 0.5, 40)
        ones = np.ones(40)
        accel(t, ones, ones)
        t[17] = spec.length - 1e-9
        with pytest.raises(PoleProximity):
            accel(t, ones, ones)

    def test_remainder_exact_matches_math_remainder(self):
        rng = np.random.default_rng(7)
        pi = math.pi
        x = np.concatenate([
            rng.uniform(-1e3, 1e3, 5000),
            rng.uniform(-10.0, 10.0, 5000),
            [0.0, -0.0, pi, -pi, 3.0 * pi, -3.0 * pi, 5.0 * pi, ode.TAU, -ode.TAU],
        ])
        got = ode._remainder_exact(x, ode.TAU)
        want = [math.remainder(v, ode.TAU) for v in x.tolist()]
        assert [struct.pack("<d", v) for v in got.tolist()] == [
            struct.pack("<d", v) for v in want
        ]
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
            got = ode._rhs_lanes(spec)(t, r, v)
            assert got.tolist() == [accel(*x) for x in zip(t.tolist(), r.tolist(), v.tolist())]


class TestRefineBrackets:
    def test_refines_identity_root(self):
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        config = ShootingConfig(bracket=(0.5, 1.5), sweep_points=17)
        profiles = solver.refine_brackets(spec, config)
        assert profiles
        best = profiles[0]
        assert abs(best.slope0 - 1.0) < 1e-6
        assert best.max_linear_deviation() < 1e-6

    def test_refines_nonlinear_degree_one_solution(self):
        # first excited degree-1 solution on (1,2,2): symmetric, initial
        # slope 12.1254021...; the value is frozen from a converged run and
        # is validated here by the match gap, not by the frozen digits
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        config = ShootingConfig(bracket=(11.5, 12.5), sweep_points=17)
        profiles = solver.refine_brackets(spec, config)
        assert profiles
        prof = profiles[0]
        tol = solver.GAP_TOL_FACTOR * (1 + abs(spec.k))
        assert abs(prof.match_gap[0]) <= tol and abs(prof.match_gap[1]) <= tol
        assert prof.slope0 == pytest.approx(12.1254021, abs=1e-5)
        assert prof.slope1 == pytest.approx(prof.slope0, abs=1e-6)
        assert prof.max_linear_deviation() > 1.0  # genuinely nonlinear


    def test_criterion_grid_keeps_one_profile_per_root(self):
        # the (0, 0.039) bracket converges to the identity and the near-miss
        # of the k=0 bump near 3.54 to 12.1254; both leave their brackets
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        config = ShootingConfig(bracket=(0.0, 20.0), sweep_points=512)
        points = solver.sweep(spec, config)
        brackets = [
            (points[i - 1].a, p.a) for i, p in enumerate(points) if p.sign_change
        ]
        assert len(brackets) == 4
        profiles = solver.refine_brackets(spec, config, points)
        assert [p.slope0 for p in profiles] == [
            pytest.approx(1.0, abs=1e-6), pytest.approx(12.1254021, abs=1e-6)
        ]
        for prof in profiles:
            assert sum(lo <= prof.slope0 <= hi for lo, hi in brackets) == 1


class TestNonlinearSolutions:
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
