"""Closed-form, simplified and raw-sum tension evaluations."""

import math
import re
import warnings

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

    def test_sum_is_the_written_out_loop_bit_for_bit(self):
        # each shift i pi/g is computed once and doubled for the forcing
        # argument, which rounds as 2 i pi / g does
        rng = np.random.default_rng(4051)
        for _ in range(2000):
            g = int(rng.integers(1, 25))
            m0, m1 = (int(m) for m in rng.integers(1, 10, size=2))
            s = random_sample(g, rng)
            total, forcing = s.rddot, 0.0
            for i in range(g):
                x = math.remainder(s.t - i * math.pi / g, ode.TAU)
                sx = math.sin(x)
                mi = m0 if i % 2 == 0 else m1
                total += mi * (math.cos(x) / sx) * s.rdot
                forcing += mi * math.sin(
                    math.remainder(2.0 * s.r - 2.0 * i * math.pi / g, ode.TAU)
                ) / (sx * sx)
            assert ode.raw_tension_sphere(g, m0, m1, s).hex() == (total - 0.5 * forcing).hex()

    @pytest.mark.parametrize("raw", [ode.raw_tension_sphere, ode.raw_tension_so])
    @pytest.mark.parametrize("g, m0, m1, name", [
        (0, 1, 1, "g"), (-2, 1, 1, "g"), (True, 1, 1, "g"), (2.0, 1, 1, "g"),
        (2, 0, 2, "m0"), (2, -1, 2, "m0"), (2, np.int64(0), 2, "m0"), (2, 2, False, "m1"),
        (2, 2, 0, "m1"), (2, 2, "2", "m1"), (2, 2, None, "m1"), ("2", 1, 1, "g"),
        (2, True, 2, "m0"), (2, 2.0, 2, "m0"), (2, "2", 2, "m0"), (2, 2, True, "m1"),
        (2, 2, 2.0, "m1"),
    ])
    def test_counts_that_are_not_positive_ints_rejected(self, raw, g, m0, m1, name):
        # g = 0 divided by zero, g = -2 summed no term and gave 0.0, m0 <= 0
        # was summed, and a bool was read as 0 or 1
        with pytest.raises(ValueError, match=f"^{name} must be a positive integer"):
            raw(g, m0, m1, TensionSample(0.3, 0.2, 1.1, -0.4))

    @pytest.mark.parametrize("raw", [ode.raw_tension_sphere, ode.raw_tension_so])
    def test_numpy_int_counts_accepted(self, raw):
        s = TensionSample(0.3, 0.2, 1.1, -0.4)
        got = raw(np.int64(2), np.int32(1), np.int16(3), s)
        assert got.hex() == raw(2, 1, 3, s).hex()


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

    def test_closed_tension_vanishes_at_the_closure_acceleration(self):
        # closed_tension is A (r'' - accel), A = 4 sin^2(Gt): zero to
        # rounding where r'' is the closure's acceleration, and A one unit
        # of r'' away from it, at regular times inside and outside (0, pi/G)
        rng = np.random.default_rng(4411)
        for _ in range(2000):
            G = int(rng.integers(1, 13))
            M0, M1 = random_multiplicities(G, rng)
            t = float(rng.uniform(-7.0, 7.0))
            if ode.pole_distance(t, G) < 1e-6:
                continue
            r, v = float(rng.uniform(-20, 20)), float(rng.uniform(-50, 50))
            spec = BvpSpec(G=G, M0=M0, M1=M1, k=1)
            accel = ode.rhs(spec)(t, r, v)
            A = 4.0 * math.sin(math.remainder(G * t, ode.TAU)) ** 2
            assert abs(ode.closed_tension(spec, TensionSample(t, r, v, accel))) <= (
                1e-15 * A * abs(accel)
            )
            off = ode.closed_tension(spec, TensionSample(t, r, v, accel + 1.0))
            assert abs(off - A) <= 1e-12 * A * (1.0 + abs(accel))

    @pytest.mark.parametrize("G", [1, 2, 3, 4, 5, 6, 12])
    def test_closure_pole_check_is_pole_distance(self, G):
        # points straddling the margin around several poles: the closure and
        # the scalar tensions raise exactly where pole_distance is below the
        # margin
        margin = ode.DEFAULT_POLE_MARGIN
        spec = BvpSpec(G=G, M0=2, M1=2, k=1)
        calls = scalar_pole_checks(spec)
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
        # no distance admits a NaN or infinite time
        spec = BvpSpec(G=G, M0=2, M1=2, k=1)
        for t in (math.nan, math.inf, -math.inf):
            for call in scalar_pole_checks(spec):
                with pytest.raises(PoleProximity):
                    call(t)

    @pytest.mark.parametrize("G", [1, 3, 12])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_array_checks_reject_non_finite_times_without_a_warning(self, G, bad):
        # an infinite time's distance is inf - inf, on which numpy warned
        # before the raise, and warnings as errors raised RuntimeWarning
        spec = BvpSpec(G=G, M0=2, M1=2, k=1)
        t = np.linspace(0.1, 0.9, 5) * spec.length
        t[[2, 3]] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PoleProximity, match=re.escape(f"t={bad!r} ")):
                ode.require_regular(t, G)
            with pytest.raises(PoleProximity, match=re.escape(f"t={bad!r} ")):
                ode.closed_tension_grid(spec, t, t, t, t)

    def test_pole_distance_of_array_equals_scalar(self):
        t = RNG.uniform(-10.0, 10.0, 500)
        for G in (1, 3, 12):
            dist = ode.pole_distance(t, G)
            assert [float(d).hex() for d in dist] == [
                float(ode.pole_distance(float(x), G)).hex() for x in t
            ]

    def test_array_check_names_the_first_near_point(self):
        t = np.linspace(0.1, 1.0, 10)
        ode.require_regular(t, 3)
        t[[4, 7]] = [math.pi / 3 + 1e-9, 2 * math.pi / 3]
        with pytest.raises(PoleProximity, match=re.escape(f"t={float(t[4])!r} ")):
            ode.require_regular(t, 3)

    @pytest.mark.parametrize("G", [1, 2, 3, 4, 6, 12])
    @pytest.mark.parametrize("margin", [0.0, 1e-8])
    def test_window_changes_no_pole_decision(self, margin, G, monkeypatch):
        # inside, outside and on the edges of the window, the closure raises
        # PoleProximity exactly where pole_distance is below the margin, on
        # NaN and infinite times, which have no distance, and, with the
        # margin set to 0, where 4 sin^2(Gt) underflows to 0; the lane time
        # part raises on the same times, each alone and all at once, and
        # names the same first near time, in row-major order when stacked as
        # (5, n) stage rows, or failing one the first underflowing time
        L = math.pi / G
        spec = BvpSpec(G=G, M0=2, M1=3, k=1)
        monkeypatch.setattr(ode, "DEFAULT_POLE_MARGIN", margin)
        accel = ode.rhs(spec)
        time_part, _state = ode._rhs_lanes(spec)
        lo, hi = ode.regular_window(G)
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

        # require_regular takes an array inside the window at once, and
        # otherwise names the first near time: inside the window, straddling
        # it, empty, and with a NaN; without a warning
        def required(batch):
            try:
                ode.require_regular(np.asarray(batch, dtype=float), G)
            except PoleProximity as exc:
                return str(exc)
            return None

        inside = [t for t in finite if lo < t < hi]
        outside = [t for t in finite if not lo < t < hi]
        for batch in (inside, inside + outside, outside + inside, [], np.empty((5, 0)),
                      inside + [math.nan], [math.nan] + inside, times, stacked):
            flat = np.ravel(batch).tolist()
            first = [t for t in flat if near(t)]
            assert required(batch) == (message(first[0]) if first else None)


def scalar_pole_checks(spec):
    """One-argument calls at time t of every scalar path that pole-tests t:
    the pole test itself, the integrator closure and the three scalar
    tensions."""
    def sample(t):
        return TensionSample(t, 0.3, 1.0, 0.5)

    accel = ode.rhs(spec)
    G, M0, M1 = spec.G, spec.M0, spec.M1
    return (
        lambda t: ode.require_regular(t, G),
        lambda t: accel(t, 0.3, 1.0),
        lambda t: ode.closed_tension(spec, sample(t)),
        lambda t: ode.closed_tension_equal_m(spec, sample(t)),
        lambda t: ode.raw_tension_sphere(G, M0, M1, sample(t)),
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
        with pytest.raises(ProfileTooCoarse, match="^need at least 16 interior samples, got 15$"):
            ode.residual_norm(spec, linear_profile(spec, n=17))
        with pytest.raises(ProfileTooCoarse, match="^need at least 16 interior samples, got 0$"):
            ode.residual_norm(spec, linear_profile(spec, n=1))

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

    def test_nan_interior_time_rejected(self):
        # a ValueError, not PoleProximity: NaN has no distance to a pole,
        # and it compares false in the ordering test
        spec = BvpSpec(G=2, M0=1, M1=1, k=1)
        profile = linear_profile(spec)
        profile[100, 0] = np.nan
        with pytest.raises(ValueError, match="strictly increasing"):
            ode.residual_norm(spec, profile)

    @pytest.mark.parametrize(
        "k, message",
        [
            (10**400, "^k must round to a float below 2\\*\\*1024"),
            (2**1023 + 1, "^k must keep 2 k pi/G a finite float for G=1"),
        ],
    )
    def test_huge_k_named_by_the_boundary(self, k, message):
        # the right target is spec.boundary's k pi/G: k * L raised a bare
        # OverflowError at 10**400 and gave an infinite error at 2**1023 + 1
        profile = linear_profile(BvpSpec(G=1, M0=2, M1=2, k=1))
        with pytest.raises(ValueError, match=message):
            ode.residual_norm(BvpSpec(G=1, M0=2, M1=2, k=k), profile)

    @pytest.mark.parametrize("row, col", [(0, 1), (100, 1), (-1, 1), (100, 2)])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_sample_rejected(self, row, col, value):
        spec = BvpSpec(G=2, M0=1, M1=1, k=1)
        profile = linear_profile(spec)
        profile[row, col] = value
        with pytest.raises(ValueError, match="must be finite"):
            ode.residual_norm(spec, profile)


    @pytest.mark.parametrize("r", [1e308, -1.7e308, np.nextafter(1e300, np.inf)])
    def test_huge_finite_r_named(self, r):
        # 2(r - t) overflowed at r = 1e308: numpy warned twice, then the
        # remainder's fallback raised a bare "math domain error"
        spec = BvpSpec(G=1, M0=2, M1=2, k=1)
        t = np.linspace(0.01, 3.1, 64)
        profile = np.column_stack([t, np.full(64, 1.0), np.ones(64)])
        profile[30, 1] = r
        with pytest.raises(ValueError, match="^profile r samples must not exceed 1e\\+300 "):
            ode.residual_norm(spec, profile)
        profile[30, 1] = np.copysign(1e300, r)
        assert math.isfinite(ode.residual_norm(spec, profile)[0])


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


class TestWindowReduction:
    """Inside the regular window Gt is its own IEEE remainder, and so is
    2Gt up to pi, the tie included; above pi it is 2Gt - TAU.  The time
    parts take that rule there, and equal the parts under the general
    reduction, _remainder_exact, bit for bit."""

    @staticmethod
    def window_times(G):
        lo, hi = ode.regular_window(G)
        half = math.pi / (2 * G)
        edges = [math.nextafter(lo, math.inf), math.nextafter(hi, 0.0)]
        edges += [half, math.nextafter(half, 0.0), math.nextafter(half, math.inf)]
        rng = np.random.default_rng(G)
        t = np.concatenate([edges, rng.uniform(lo, hi, 10_000)])
        assert ((lo < t) & (t < hi)).all()
        return t

    @staticmethod
    def general_time_parts(monkeypatch, G, M0, M1, t):
        # the time parts with the window test answering "outside": Gt and
        # 2Gt reduced by _remainder_exact
        with monkeypatch.context() as m:
            m.setattr(ode, "require_regular", lambda t, G: False)
            return ode._time_parts(G, M0, M1, t)

    @pytest.mark.parametrize("G", range(1, 25))
    def test_fast_reductions_are_the_remainders(self, monkeypatch, G):
        t = self.window_times(G)
        gt = G * t
        x = 2.0 * gt
        # the window's rule: no reduction of Gt, one fold of 2Gt above pi
        for arg, fast in ((gt, gt), (x, np.where(x > math.pi, x - ode.TAU, x))):
            want = [math.remainder(v, ode.TAU) for v in arg.tolist()]
            assert np.array_equal(bits(fast), bits(want))
        # both sides of the fold at pi are drawn
        assert (x < math.pi).any() and (x > math.pi).any()
        # and the time parts, which take it, equal the general reduction
        M0, M1 = (2, 2) if G % 2 else (1, 3)
        got = ode._time_parts(G, M0, M1, t)
        for got_part, want in zip(got, self.general_time_parts(monkeypatch, G, M0, M1, t)):
            assert np.array_equal(bits(got_part), bits(want))

    def test_tie_at_pi_keeps_pi(self, monkeypatch):
        # G = 1, t = pi/2: 2Gt is pi exactly, a tie that rounds to the even
        # quotient 0, so its remainder is pi itself and not pi - TAU = -pi;
        # with M0 = M1 the time part P is G (M0+M1) sin(2Gt), whose sign
        # tells sin(pi) > 0 from sin(-pi) < 0
        t = math.pi / 2.0
        lo, hi = ode.regular_window(1)
        assert lo < t < hi and 2.0 * t == math.pi
        assert math.remainder(math.pi, ode.TAU) == math.pi
        P = ode._time_parts(1, 2, 2, np.array([t]))[3]
        assert bits(P).tolist() == bits([4.0 * math.sin(math.pi)]).tolist()
        assert P[0] > 0.0
        general = self.general_time_parts(monkeypatch, 1, 2, 2, np.array([t]))[3]
        assert bits(general).tolist() == bits(P).tolist()

    @pytest.mark.parametrize(
        "spec",
        [BvpSpec(1, 2, 2, 1), BvpSpec(2, 1, 3, -1), BvpSpec(6, 1, 1, -5), BvpSpec(12, 2, 2, 1)],
    )
    def test_window_parts_equal_the_general_reduction(self, monkeypatch, spec):
        # the lane time part of in-window stage rows equals the time part
        # under the general reduction, and so does the grid tension built
        # from it, element for element and bit for bit
        G, M0, M1 = spec.G, spec.M0, spec.M1
        t = self.window_times(G)[:2500].reshape(5, 500)
        time_part, _state = ode._rhs_lanes(spec)
        general = self.general_time_parts(monkeypatch, G, M0, M1, t)
        for got, want in zip(time_part(t), general):
            assert np.array_equal(bits(got), bits(want))
        rng = np.random.default_rng(G)
        r, v, a = rng.uniform(-30.0, 30.0, (3, t.size))
        parts = self.general_time_parts(monkeypatch, G, M0, M1, t.ravel())
        A, N = ode._state_parts(G, parts, r, v)
        got = ode.closed_tension_grid(spec, t.ravel(), r, v, a)
        assert np.array_equal(bits(got), bits(A * a + N))


class TestTwinEqualsClosure:
    """One reduction policy: every array evaluation of the tension takes
    the closure's (A, N), inside the regular window and outside it, where
    _remainder_exact reduces Gt and 2Gt, and at states whose angles
    2(r - t) and 2(r - t) + Gt send _remainder_exact to its fallback."""

    @staticmethod
    def points(G):
        lo, hi = ode.regular_window(G)
        step = math.pi / G
        rng = np.random.default_rng(100 + G)
        # outside the window but clear of the pole margin, at both ends
        # and one period on; then inside it
        t = np.concatenate([
            rng.uniform(1.0e-8, lo, 40), [1.5e-8, math.nextafter(lo, 0.0)],
            step - rng.uniform(1.0e-8, lo, 40), step + rng.uniform(1.0e-8, 1.0, 40),
            -rng.uniform(1.0e-8, 1.0, 40), rng.uniform(lo, hi, 200),
        ])
        n = t.size
        # r up to +-1e6; r = t and r - t near odd multiples of pi/2 put
        # 2(r - t) on 0 and near +-pi modulo TAU
        r = rng.uniform(-1.0e6, 1.0e6, n)
        odd = 2.0 * rng.integers(-300_000, 300_000, n) + 1.0
        r[: n // 3] = t[: n // 3] + odd[: n // 3] * (math.pi / 2.0)
        r[n // 3 : n // 2] = t[n // 3 : n // 2]
        v, a = rng.uniform(-50.0, 50.0, (2, n))
        return t, r, v, a

    @pytest.mark.parametrize("G", range(1, 13))
    def test_grid_tension_and_acceleration_are_the_closures(self, G):
        M0, M1 = (3, 3) if G % 2 else (1, 4)
        spec = BvpSpec(G, M0, M1, 1)
        t, r, v, a = self.points(G)
        lo, hi = ode.regular_window(G)
        inside = (lo < t) & (t < hi)
        assert inside.any() and not inside.all()
        # the fallback of _remainder_exact occurs: a zero or a |f| >= pi
        # from the split
        u = 2.0 * (r - t)
        n = np.rint(u / ode.TAU)
        f = (u - n * ode._TAU_HI) - n * ode._TAU_LO
        assert ((f == 0.0) | (np.abs(f) >= math.pi)).any()
        # times inside and outside the window run through the twin
        # together and apart
        accel = ode.rhs(spec)
        for mask in (np.ones_like(inside), inside, ~inside):
            A, N = ode._state_parts(G, ode._time_parts(G, M0, M1, t[mask]), r[mask], v[mask])
            got = ode.closed_tension_grid(spec, t[mask], r[mask], v[mask], a[mask])
            assert np.array_equal(bits(got), bits(A * a[mask] + N))
            want = [accel(*p) for p in zip(t[mask].tolist(), r[mask].tolist(), v[mask].tolist())]
            assert np.array_equal(bits(-N / A), bits(want))


class TestBvpSpec:
    def test_domain_and_boundary(self):
        spec = BvpSpec(G=3, M0=2, M1=2, k=-2)
        assert spec.domain == (0.0, math.pi / 3)
        assert spec.boundary == (0.0, -2 * math.pi / 3)

    def test_huge_k_accepted_and_named_by_the_float_boundary(self):
        spec = BvpSpec(G=2, M0=1, M1=1, k=10**400)
        assert spec.to_dict()["k"] == 10**400
        with pytest.raises(ValueError, match="^k must round to a float below 2\\*\\*1024"):
            spec.boundary

    @pytest.mark.parametrize("G", [1, 2])
    def test_k_whose_boundary_angle_overflows_is_named(self, G):
        # 2**1023 + 1 rounds to a finite float, but k pi/G is infinite at
        # G = 1 and the angle 2(r - t) at r = k pi/G is at G = 2
        message = f"^k must keep 2 k pi/G a finite float for G={G}"
        with pytest.raises(ValueError, match=message):
            BvpSpec(G=G, M0=1, M1=1, k=2**1023 + 1).boundary
        assert BvpSpec(G=G, M0=1, M1=1, k=2**1021).boundary == (0.0, 2.0**1021 * math.pi / G)

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
