"""Closed-form, simplified and raw-sum tension evaluations."""

import math
import re

import numpy as np
import pytest

from cohom1 import classify, ode
from cohom1.errors import PoleProximity, ProfileTooCoarse, UnequalMultiplicities
from cohom1.ode import BvpSpec, TensionSample

RNG = np.random.default_rng(917)


def random_sample(G, rng=RNG, margin=1e-3):
    t = float(rng.uniform(margin, math.pi / G - margin))
    return TensionSample(
        t=t,
        r=float(rng.uniform(-3, 3)),
        rdot=float(rng.uniform(-5, 5)),
        rddot=float(rng.uniform(-5, 5)),
    )


def random_multiplicities(G, rng=RNG):
    # odd G only carries equal multiplicities (parity of the foliation data)
    if G % 2 == 1:
        m = int(rng.integers(1, 10))
        return m, m
    return int(rng.integers(1, 10)), int(rng.integers(1, 10))


class TestClosedTension:
    def test_identity_map_is_harmonic(self):
        spec = BvpSpec(G=3, M0=2, M1=2, k=1)
        for t in np.linspace(0.05, spec.length - 0.05, 17):
            s = TensionSample(float(t), float(t), 1.0, 0.0)
            assert abs(ode.closed_tension(spec, s)) < 1e-12

    def test_reflection_map_g2(self):
        # r = -t solves the G=2 problem for any multiplicities
        spec = BvpSpec(G=2, M0=1, M1=3, k=-1)
        for t in np.linspace(0.05, spec.length - 0.05, 17):
            s = TensionSample(float(t), float(-t), -1.0, 0.0)
            assert abs(ode.closed_tension(spec, s)) < 1e-12

    def test_matches_scaled_raw_sum_at_fixed_point(self):
        spec = BvpSpec(G=3, M0=2, M1=2, k=1)
        s = TensionSample(math.pi / 6, math.pi / 8, 0.5, 0.25)
        closed = ode.closed_tension(spec, s)
        raw = ode.raw_tension_sphere(3, 2, 2, s)
        scale = 4.0 * math.sin(3 * s.t) ** 2
        assert closed == pytest.approx(scale * raw, rel=1e-12)

    def test_pole_rejected(self):
        spec = BvpSpec(G=4, M0=1, M1=1, k=1)
        with pytest.raises(PoleProximity):
            ode.closed_tension(spec, TensionSample(math.pi / 4 - 1e-12, 0.1, 0.0, 0.0))

    def test_grid_rejects_nan_time(self):
        # a NaN time has no distance to the poles, so it is never regular
        spec = BvpSpec(G=2, M0=1, M1=3, k=1)
        t = np.array([0.3, math.nan, 0.5])
        with pytest.raises(PoleProximity, match=re.escape("t=nan ")):
            ode.closed_tension_grid(spec, t, t, np.ones(3), np.zeros(3))

    def test_scalar_and_grid_paths_agree(self):
        # one formula, two code paths (math scalars vs numpy arrays)
        for _ in range(200):
            G = int(RNG.integers(1, 13))
            M0, M1 = int(RNG.integers(1, 10)), int(RNG.integers(1, 10))
            spec = BvpSpec(G=G, M0=M0, M1=M1, k=1)
            s = random_sample(G)
            scalar = ode.closed_tension(spec, s)
            grid = float(
                ode.closed_tension_grid(spec, [s.t], [s.r], [s.rdot], [s.rddot])[0]
            )
            assert grid == pytest.approx(scalar, rel=1e-12, abs=1e-12)

    def test_reflection_antisymmetry_of_linear_residual(self):
        # for m0=m1 and k = 1 mod G the residual of r=kt is odd about pi/(2G)
        for G, k in [(2, 1), (3, -2), (3, 4), (4, -3), (1, 2)]:
            spec = BvpSpec(G=G, M0=3, M1=3, k=k)
            scale = 4 * G * 6 * (1 + abs(k))
            for t in np.linspace(0.07, spec.length / 2 - 0.01, 7):
                left = ode.closed_tension(spec, TensionSample(float(t), k * float(t), float(k), 0.0))
                tr = spec.length - float(t)
                right = ode.closed_tension(spec, TensionSample(tr, k * tr, float(k), 0.0))
                assert left == pytest.approx(-right, abs=1e-10 * scale)


class TestEqualMultiplicityForm:
    def test_half_of_general_form(self):
        for _ in range(300):
            G = int(RNG.integers(1, 13))
            m = int(RNG.integers(1, 10))
            spec = BvpSpec(G=G, M0=m, M1=m, k=1)
            s = random_sample(G)
            full = ode.closed_tension(spec, s)
            half = ode.closed_tension_equal_m(spec, s)
            assert 2.0 * half == pytest.approx(full, rel=1e-12, abs=1e-12)

    def test_symmetric_point_vanishes_for_any_slope(self):
        # at G=1, t=r=pi/2 all three sine terms vanish regardless of rdot
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        for slope in (-3.0, 0.0, 0.7, 11.0):
            s = TensionSample(math.pi / 2, math.pi / 2, slope, 0.0)
            assert abs(ode.closed_tension_equal_m(spec, s)) < 1e-12

    def test_sp2_fifth_reflection(self):
        # r = -5t solves the (6,1,1) problem
        spec = BvpSpec(G=6, M0=1, M1=1, k=-5)
        for t in np.linspace(0.02, spec.length - 0.02, 23):
            s = TensionSample(float(t), -5.0 * float(t), -5.0, 0.0)
            assert abs(ode.closed_tension_equal_m(spec, s)) < 1e-11

    def test_requires_equal_multiplicities(self):
        spec = BvpSpec(G=2, M0=1, M1=2, k=1)
        with pytest.raises(UnequalMultiplicities):
            ode.closed_tension_equal_m(spec, TensionSample(0.3, 0.1, 0.0, 0.0))


class TestRawSums:
    def test_single_term_expansion(self):
        # g=1: rddot + m cot(t) rdot - (m/2) sin(2r)/sin^2(t)
        m, s = 4, TensionSample(0.8, 0.3, 1.7, 0.6)
        expected = (
            s.rddot
            + m * math.cos(s.t) / math.sin(s.t) * s.rdot
            - 0.5 * m * math.sin(2 * s.r) / math.sin(s.t) ** 2
        )
        assert ode.raw_tension_sphere(1, m, m, s) == pytest.approx(expected, rel=1e-14)

    def test_identity_map_zero(self):
        s = TensionSample(math.pi / 4, math.pi / 4, 1.0, 0.0)
        assert abs(ode.raw_tension_sphere(2, 1, 3, s)) < 1e-13

    def test_scaled_equivalence_with_closed_form(self):
        for _ in range(500):
            G = int(RNG.integers(1, 13))
            M0, M1 = random_multiplicities(G)
            spec = BvpSpec(G=G, M0=M0, M1=M1, k=1)
            s = random_sample(G)
            raw = ode.raw_tension_sphere(G, M0, M1, s)
            closed = ode.closed_tension(spec, s)
            lhs = 4.0 * math.sin(G * s.t) ** 2 * raw
            assert abs(lhs - closed) <= 1e-9 * (1.0 + abs(closed))

    def test_lift_delegates_to_doubled_count(self):
        for _ in range(100):
            g = int(RNG.integers(1, 7))
            M0, M1 = int(RNG.integers(1, 10)), int(RNG.integers(1, 10))
            s = random_sample(2 * g)
            assert ode.raw_tension_so(g, M0, M1, s) == ode.raw_tension_sphere(
                2 * g, M0, M1, s
            )

    def test_lift_two_term_structure(self):
        # g=1 lift: offsets 0 and pi/2
        m, s = 3, TensionSample(0.9, 0.2, 1.1, -0.4)
        expected = (
            s.rddot
            + m * math.cos(s.t) / math.sin(s.t) * s.rdot
            + m * math.cos(s.t - math.pi / 2) / math.sin(s.t - math.pi / 2) * s.rdot
            - 0.5 * m * math.sin(2 * s.r) / math.sin(s.t) ** 2
            - 0.5
            * m
            * math.sin(2 * (s.r - math.pi / 2))
            / math.sin(s.t - math.pi / 2) ** 2
        )
        assert ode.raw_tension_so(1, m, m, s) == pytest.approx(expected, rel=1e-13)


class TestRhs:
    def test_round_trip(self):
        for _ in range(200):
            G = int(RNG.integers(1, 13))
            M0, M1 = random_multiplicities(G)
            spec = BvpSpec(G=G, M0=M0, M1=M1, k=1)
            s = random_sample(G)
            accel = ode.rhs(spec)(s.t, s.r, s.rdot)
            value = ode.closed_tension(spec, TensionSample(s.t, s.r, s.rdot, accel))
            scale = 4.0 * G * (M0 + M1) * (1.0 + abs(spec.k))
            assert abs(value) <= 1e-12 * scale

    def test_linear_solutions_have_zero_acceleration(self):
        cases = [
            (BvpSpec(G=2, M0=1, M1=3, k=-1), -1),
            (BvpSpec(G=4, M0=1, M1=1, k=-3), -3),
        ]
        for spec, k in cases:
            accel = ode.rhs(spec)
            for t in np.linspace(0.05, spec.length - 0.05, 11):
                assert abs(accel(float(t), k * float(t), float(k))) < 1e-10

    def test_pole_rejected(self):
        spec = BvpSpec(G=2, M0=1, M1=1, k=1)
        with pytest.raises(PoleProximity):
            ode.rhs(spec)(math.pi / 2, 0.3, 1.0)

    def test_closure_equals_tension_parts_bit_for_bit(self):
        # the closure's inline arithmetic is the one of _tension_parts
        rng = np.random.default_rng(4411)
        for _ in range(2000):
            G = int(rng.integers(1, 13))
            M0, M1 = random_multiplicities(G, rng)
            t = float(rng.uniform(-7.0, 7.0))
            if ode.pole_distance(t, G) < 1e-6:
                continue
            r, v = float(rng.uniform(-20, 20)), float(rng.uniform(-50, 50))
            A, N = ode._tension_parts(G, M0, M1, t, r, v)
            got = ode.rhs(BvpSpec(G=G, M0=M0, M1=M1, k=1))(t, r, v)
            assert got.hex() == (-N / A).hex()

    @pytest.mark.parametrize("G", [1, 2, 3, 4, 5, 6, 12])
    def test_closure_pole_check_is_pole_distance(self, G):
        # points straddling the margin around several poles: the closure and
        # the scalar tensions raise exactly where pole_distance is below the
        # margin
        margin = 1e-8
        spec = BvpSpec(G=G, M0=2, M1=2, k=1)
        calls = scalar_pole_checks(spec, margin)
        offsets = []
        for d in (margin, 2.0 * margin, 0.5 * margin):
            offsets += [d, np.nextafter(d, 0.0), np.nextafter(d, 1.0)]
        raised = kept = 0
        for n in range(-2, 3 * G):
            for d in offsets:
                for t in (float(n * math.pi / G + d), float(n * math.pi / G - d)):
                    near = ode.pole_distance(t, G) < margin
                    for call in calls:
                        if near:
                            with pytest.raises(PoleProximity):
                                call(t)
                        else:
                            call(t)
                    raised += near
                    kept += not near
        assert raised and kept

    @pytest.mark.parametrize("G", [1, 2, 3, 12])
    def test_scalar_checks_reject_non_finite_times_and_a_nan_margin(self, G):
        # no distance admits a NaN or infinite time, and a NaN margin admits
        # no time, inside the regular window or not
        spec = BvpSpec(G=G, M0=2, M1=2, k=1)
        L = spec.length
        for t in (math.nan, math.inf, -math.inf):
            for call in scalar_pole_checks(spec, 1e-8):
                with pytest.raises(PoleProximity):
                    call(t)
        for t in (0.5 * L, 0.1 * L, 1.5 * L, 0.0):
            for call in scalar_pole_checks(spec, math.nan):
                with pytest.raises(PoleProximity):
                    call(t)

    def test_pole_distance_of_array_equals_scalar(self):
        t = RNG.uniform(-10.0, 10.0, 500)
        for G in (1, 3, 12):
            dist = ode.pole_distance(t, G)
            assert [float(d).hex() for d in dist] == [
                float(ode.pole_distance(float(x), G)).hex() for x in t
            ]

    def test_array_check_names_the_first_near_point(self):
        t = np.linspace(0.1, 1.0, 10)
        ode.require_regular(t, 3, 1e-8)
        t[[4, 7]] = [math.pi / 3 + 1e-9, 2 * math.pi / 3]
        with pytest.raises(PoleProximity, match=re.escape(f"t={float(t[4])!r} ")):
            ode.require_regular(t, 3, 1e-8)

    @pytest.mark.parametrize("G", [1, 2, 3, 4, 6, 12])
    @pytest.mark.parametrize("margin", [0.0, 1e-8, 1e-3])
    def test_window_changes_no_pole_decision(self, margin, G):
        # inside, outside and on the edges of the window, the closure raises
        # PoleProximity exactly where pole_distance is below the margin, on
        # NaN and infinite times, which have no distance, and, with no
        # margin, where 4 sin^2(Gt) underflows to 0; the lane time part
        # raises on the same times, each alone and all at once, and names
        # the same first near time, in row-major order when stacked as
        # (5, n) stage rows, or failing one the first underflowing time
        L = math.pi / G
        spec = BvpSpec(G=G, M0=2, M1=3, k=1)
        accel = ode.rhs(spec, margin)
        time_part, _state = ode._rhs_lanes(spec, margin)
        lo, hi = ode.regular_window(G, margin)
        finite = window_edge_times(G, margin)
        assert any(lo < t < hi for t in finite) and not all(lo < t < hi for t in finite)
        assert any(ode.pole_distance(t, G) < margin for t in finite) == (margin > 0.0)
        times = finite + [math.nan, math.inf, -math.inf]

        def near(t):
            return not math.isfinite(t) or ode.pole_distance(t, G) < margin

        def underflows(t):
            sg = math.sin(math.remainder(G * t, ode.TAU))
            return 4.0 * sg * sg == 0.0

        assert any(underflows(t) and not near(t) for t in finite) == (margin == 0.0)

        def message(t):
            return f"t={t!r} is within {margin:g} of a pole of the (G={G}) problem"

        def named(t):
            with np.errstate(all="ignore"):
                try:
                    time_part(np.asarray(t))
                except PoleProximity as exc:
                    return str(exc)
            return None

        for t in times:
            fails = near(t) or underflows(t)
            assert named([t]) == (message(t) if fails else None)
            if fails:
                with pytest.raises(PoleProximity, match=re.escape(message(t))):
                    accel(t, 0.3, 1.0)
            else:
                accel(t, 0.3, 1.0)

        stacked = np.full((5, len(times)), 0.5 * L)
        for i, t in enumerate(times):
            stacked[4 - i % 5, i] = t
        for batch in (finite, times, stacked):
            flat = np.ravel(batch).tolist()
            first = [t for t in flat if near(t)] or [t for t in flat if underflows(t)]
            assert named(batch) == (message(first[0]) if first else None)
        assert named(np.empty(0)) is None and named(np.empty((5, 0))) is None

    def test_non_finite_margin_takes_the_full_test(self):
        # an infinite margin rejects every finite time, a NaN margin every
        # time
        spec = BvpSpec(G=3, M0=1, M1=1, k=1)
        for margin in (math.inf, math.nan):
            accel = ode.rhs(spec, margin)
            time_part, _state = ode._rhs_lanes(spec, margin)
            for t in (0.5 * spec.length, 0.1, spec.length + 0.1):
                with pytest.raises(PoleProximity):
                    accel(t, 0.3, 1.0)
                with pytest.raises(PoleProximity):
                    time_part(np.array([t]))


def scalar_pole_checks(spec, margin):
    """One-argument calls at time t of every scalar path that pole-tests t:
    the pole test itself, the integrator closure and the three scalar
    tensions."""
    def sample(t):
        return TensionSample(t, 0.3, 1.0, 0.5)

    accel = ode.rhs(spec, margin)
    G, M0, M1 = spec.G, spec.M0, spec.M1
    return (
        lambda t: ode.require_regular(t, G, margin),
        lambda t: accel(t, 0.3, 1.0),
        lambda t: ode.closed_tension(spec, sample(t), margin),
        lambda t: ode.closed_tension_equal_m(spec, sample(t), margin),
        lambda t: ode.raw_tension_sphere(G, M0, M1, sample(t), margin),
    )


def window_edge_times(G, margin):
    """Times at and next to the edges of the regular window, the poles 0
    and pi/G, and points beyond the domain on both sides."""
    L = math.pi / G
    base = [0.0, -0.0, margin, 2.0 * margin, L - 2.0 * margin, L - margin, L, 1.5 * L, -0.3 * L]
    return [
        x for b in base for x in (b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf))
    ]


def linear_profile(spec, n=257):
    t = np.linspace(0.01, spec.length - 0.01, n)
    return np.column_stack([t, spec.k * t, np.full(n, float(spec.k))])


class TestJacobiFields:
    def test_sin_gt_is_a_kernel_exactly_on_four_linear_solutions(self):
        # L sin(Gt) = 0 on r = kt: the tangent form of rhs maps the direction
        # (sin Gt, G cos Gt) to (sin Gt)'' = -G^2 sin Gt at interior points.
        # Among the 648 linear solutions with G in {1,2,3,4,6,8,12},
        # M0, M1 <= 9 (equal for odd G) and |k| <= 12 this holds for the
        # (1,1,1,+-1) family and the degenerate roots (3,3,3,-2) and
        # (4,2,2,-3) only: to about 1e-13 there, and O(1) off elsewhere
        kernels, misses, solutions = [], [], 0
        for G in (1, 2, 3, 4, 6, 8, 12):
            for M0 in range(1, 10):
                for M1 in range(1, 10) if G % 2 == 0 else (M0,):
                    for k in range(-12, 13):
                        if not classify.is_linear_solution(G, M0, M1, k):
                            continue
                        solutions += 1
                        jet = ode.rhs_tangent(BvpSpec(G=G, M0=M0, M1=M1, k=k))
                        worst = 0.0
                        for i in range(1, 16):
                            t = i * math.pi / (16 * G)
                            sg, cg = math.sin(G * t), math.cos(G * t)
                            _, ddr = jet(t, k * t, float(k), sg, G * cg)
                            worst = max(worst, abs(ddr + G * G * sg))
                        if worst <= 1e-12:
                            kernels.append((G, M0, M1, k))
                        else:
                            misses.append(worst)
        assert solutions == 648
        assert kernels == [(1, 1, 1, -1), (1, 1, 1, 1), (3, 3, 3, -2), (4, 2, 2, -3)]
        assert min(misses) >= 0.1


class TestResidualNorm:
    def test_exact_linear_profile(self):
        spec = BvpSpec(G=2, M0=1, M1=3, k=-1)
        max_abs, (e0, e1) = ode.residual_norm(spec, linear_profile(spec))
        assert max_abs <= 1e-10
        assert e0 <= 1e-12 and e1 <= 1e-12

    def test_perturbed_profile_detected(self):
        spec = BvpSpec(G=2, M0=2, M1=2, k=1)
        t = np.linspace(0.01, spec.length - 0.01, 257)
        r = t + 0.01 * np.sin(spec.G * t)
        v = 1.0 + 0.01 * spec.G * np.cos(spec.G * t)
        max_abs, _ = ode.residual_norm(spec, np.column_stack([t, r, v]))
        assert max_abs > 0.01

    def test_one_pole_test_and_the_grid_tension(self, monkeypatch):
        # the interior residual is the grid tension at the stencil's r'',
        # and the interior times pass one pole test
        spec = BvpSpec(G=2, M0=2, M1=2, k=1)
        t = np.linspace(0.01, spec.length - 0.01, 257)
        r = t + 0.01 * np.sin(spec.G * t)
        v = 1.0 + 0.01 * spec.G * np.cos(spec.G * t)
        hm, hp = t[1:-1] - t[:-2], t[2:] - t[1:-1]
        rdd = 2.0 * (hm * r[2:] - (hm + hp) * r[1:-1] + hp * r[:-2]) / (hm * hp * (hm + hp))
        want = np.max(np.abs(ode.closed_tension_grid(spec, t[1:-1], r[1:-1], v[1:-1], rdd)))
        calls = []
        require_regular = ode.require_regular

        def counted(*args):
            calls.append(args)
            return require_regular(*args)

        monkeypatch.setattr(ode, "require_regular", counted)
        max_abs, _ = ode.residual_norm(spec, np.column_stack([t, r, v]))
        assert max_abs.hex() == float(want).hex() and len(calls) == 1

    @pytest.mark.parametrize("cols", [[0, 1], [0]])
    def test_not_three_columns_rejected(self, cols):
        spec = BvpSpec(G=2, M0=1, M1=3, k=-1)
        profile = linear_profile(spec)[:, cols]
        with pytest.raises(ValueError, match=r"\(n, 3\) array"):
            ode.residual_norm(spec, profile)

    def test_too_coarse_rejected(self):
        spec = BvpSpec(G=1, M0=1, M1=1, k=1)
        with pytest.raises(ProfileTooCoarse):
            ode.residual_norm(spec, linear_profile(spec, n=17))

    def test_unsorted_rejected(self):
        spec = BvpSpec(G=1, M0=1, M1=1, k=1)
        profile = linear_profile(spec)
        profile[5, 0], profile[6, 0] = profile[6, 0], profile[5, 0]
        with pytest.raises(ValueError):
            ode.residual_norm(spec, profile)

    def test_outside_domain_rejected(self):
        spec = BvpSpec(G=2, M0=1, M1=1, k=1)
        t = np.linspace(0.01, spec.length + 0.3, 64)
        with pytest.raises(ValueError):
            ode.residual_norm(spec, np.column_stack([t, t, np.ones_like(t)]))

    @pytest.mark.parametrize("row", [0, -1])
    def test_nan_end_time_rejected(self, row):
        spec = BvpSpec(G=2, M0=1, M1=1, k=1)
        profile = linear_profile(spec)
        profile[row, 0] = np.nan
        with pytest.raises(ValueError, match="strictly inside"):
            ode.residual_norm(spec, profile)

    @pytest.mark.parametrize("row, col", [(0, 1), (100, 1), (-1, 1), (100, 2)])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_sample_rejected(self, row, col, value):
        spec = BvpSpec(G=2, M0=1, M1=1, k=1)
        profile = linear_profile(spec)
        profile[row, col] = value
        with pytest.raises(ValueError, match="must be finite"):
            ode.residual_norm(spec, profile)


class TestBvpSpec:
    def test_domain_and_boundary(self):
        spec = BvpSpec(G=3, M0=2, M1=2, k=-2)
        assert spec.domain == (0.0, math.pi / 3)
        assert spec.boundary == (0.0, -2 * math.pi / 3)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BvpSpec(G=0, M0=1, M1=1, k=1)
        with pytest.raises(ValueError):
            BvpSpec(G=1, M0=-1, M1=1, k=1)
        with pytest.raises(ValueError):
            BvpSpec(G=1, M0=1, M1=1, k=0.5)

    @pytest.mark.parametrize(
        "name, value", [("G", True), ("M0", True), ("M1", True), ("k", True), ("k", False)]
    )
    def test_rejects_bools(self, name, value):
        # bool is an int subclass; to_dict would write it as a JSON bool
        fields = dict(G=1, M0=1, M1=1, k=1)
        fields[name] = value
        with pytest.raises(ValueError, match=name):
            BvpSpec(**fields)

    def test_from_action_doubles_curvatures_on_lift(self):
        from cohom1 import actions

        sphere = actions.make_action("sphere", 3, 2, 2)
        lifted = actions.make_action("so", 3, 2, 2)
        assert BvpSpec.from_action(sphere, -1) == BvpSpec(G=3, M0=2, M1=2, k=-2)
        assert BvpSpec.from_action(lifted, -2) == BvpSpec(G=6, M0=2, M1=2, k=-5)

    def test_from_action_keeps_sp2_curvature_count(self):
        from cohom1 import actions
        from cohom1.errors import InadmissibleJ

        sp2 = actions.make_action("sp2", 6, 1, 1)
        assert BvpSpec.from_action(sp2, -1) == BvpSpec(G=6, M0=1, M1=1, k=-5)
        lifted = actions.make_action("so", 2, 1, 1)
        with pytest.raises(InadmissibleJ):
            BvpSpec.from_action(lifted, 1)
