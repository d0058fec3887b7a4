"""Oracle checks of the trigonometric summation identities.

Both sides of every identity are evaluated independently; the mixed
tolerance |lhs - rhs| <= tol * (1 + |lhs|) is used throughout.
"""

import math

import numpy as np
import pytest

from cohom1 import identities, ode
from cohom1.errors import OddG, PoleProximity

RNG = np.random.default_rng(20240311)


def mixed_ok(lhs, rhs, tol=1e-10):
    return identities.mixed_deviation(lhs, rhs) <= tol


class TestLemmaSinSq:
    def test_single_term_reduces_to_sin_squared(self):
        # g=1: lhs = sin^2(r)/sin^2(t) * sin^2(t), rhs = sin^2(r)
        for r, t in [(0.3, 0.9), (1.2, 2.5), (2.9, 0.4)]:
            lhs, rhs = identities.lemma_sin_sq(1, r, t)
            assert lhs == pytest.approx(math.sin(r) ** 2, abs=1e-14)
            assert rhs == pytest.approx(math.sin(r) ** 2, abs=1e-14)

    @pytest.mark.parametrize("g", [1, 2, 3, 5, 8, 12])
    def test_diagonal_r_equals_t(self, g):
        # every summand ratio is 1, so both sides equal g sin^2(gt)
        t = 0.2183
        lhs, rhs = identities.lemma_sin_sq(g, t, t)
        expected = g * math.sin(g * t) ** 2
        assert lhs == pytest.approx(expected, rel=1e-12)
        assert rhs == pytest.approx(expected, rel=1e-12)

    def test_specific_point(self):
        lhs, rhs = identities.lemma_sin_sq(5, 0.7, 0.3)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))

    @pytest.mark.parametrize("g", range(1, 13))
    def test_random_samples(self, g):
        t = identities.sample_regular_t(g, 300, RNG, 1e-3)
        r = RNG.uniform(0, math.pi, 300)
        assert mixed_ok(*identities.lemma_sin_sq(g, r, t))

    @pytest.mark.parametrize("g", [2, 3, 7])
    def test_shift_periodicity(self, g):
        # shifting r and t together by pi/g permutes the summands
        r, t = 0.83, 0.41
        lhs, rhs = identities.lemma_sin_sq(g, r, t)
        lhs2, rhs2 = identities.lemma_sin_sq(g, r + math.pi / g, t + math.pi / g)
        assert lhs2 == pytest.approx(lhs, rel=1e-11, abs=1e-13)
        assert rhs2 == pytest.approx(rhs, rel=1e-11, abs=1e-13)

    @pytest.mark.parametrize("side", [0, 1])
    def test_trig_polynomial_in_r(self, side):
        # both sides have the form c + A cos 2r + B sin 2r at fixed t
        g, t = 4, 0.37
        f = lambda r: identities.lemma_sin_sq(g, r, t)[side]
        c = (f(0.0) + f(math.pi / 2)) / 2
        A = (f(0.0) - f(math.pi / 2)) / 2
        B = f(math.pi / 4) - c
        for r in RNG.uniform(0, math.pi, 25):
            predicted = c + A * math.cos(2 * r) + B * math.sin(2 * r)
            assert f(r) == pytest.approx(predicted, abs=1e-9)

    def test_pole_rejected(self):
        with pytest.raises(PoleProximity):
            identities.lemma_sin_sq(3, 0.5, math.pi / 3 + 1e-12)

    def test_nonpositive_g_rejected(self):
        with pytest.raises(ValueError):
            identities.lemma_sin_sq(0, 0.5, 0.4)
        with pytest.raises(ValueError):
            identities.lemma_sin_sq(-2, 0.5, 0.4)


class TestLemmaSin2r:
    def test_single_term(self):
        r, t = 0.7, 1.1
        lhs, rhs = identities.lemma_sin_2r(1, r, t)
        assert lhs == pytest.approx(math.sin(2 * r), abs=1e-14)
        assert rhs == pytest.approx(math.sin(2 * r), abs=1e-14)

    def test_specific_point(self):
        lhs, rhs = identities.lemma_sin_2r(6, 1.1, 0.2)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))

    @pytest.mark.parametrize("g", range(1, 13))
    def test_random_samples(self, g):
        t = identities.sample_regular_t(g, 300, RNG, 1e-3)
        r = RNG.uniform(0, math.pi, 300)
        assert mixed_ok(*identities.lemma_sin_2r(g, r, t))

    @pytest.mark.parametrize("g", [2, 5])
    def test_is_r_derivative_of_sin_sq(self, g):
        # central difference of the sin^2 identity in r, O(h^2)
        r, t, h = 0.9, 0.31, 1e-5
        for side in (0, 1):
            up = identities.lemma_sin_sq(g, r + h, t)[side]
            dn = identities.lemma_sin_sq(g, r - h, t)[side]
            derivative = (up - dn) / (2 * h)
            direct = identities.lemma_sin_2r(g, r, t)[side]
            assert derivative == pytest.approx(direct, abs=1e-7)


class TestCotangentIdentity:
    def test_single_term(self):
        t = 0.77
        lhs, rhs = identities.cotangent_identity(1, t)
        assert lhs == pytest.approx(1 / math.tan(t), rel=1e-14)
        assert rhs == pytest.approx(1 / math.tan(t), rel=1e-14)

    def test_g2_at_pi_over_8(self):
        # cot(pi/8) + cot(pi/8 - pi/2) = (1 + sqrt 2) - (sqrt 2 - 1) = 2
        lhs, rhs = identities.cotangent_identity(2, math.pi / 8)
        assert lhs == pytest.approx(2.0, rel=1e-14)
        assert rhs == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("g", range(1, 13))
    def test_random_samples(self, g):
        t = identities.sample_regular_t(g, 400, RNG, 1e-3)
        assert mixed_ok(*identities.cotangent_identity(g, t))

    def test_shift_periodicity(self):
        g, t = 5, 0.29
        lhs, rhs = identities.cotangent_identity(g, t)
        lhs2, rhs2 = identities.cotangent_identity(g, t + math.pi / g)
        assert lhs2 == pytest.approx(lhs, rel=1e-11, abs=1e-12)
        assert rhs2 == pytest.approx(rhs, rel=1e-11, abs=1e-12)


class TestHalfSumSplit:
    def test_equal_multiplicities_reduce_to_scaled_cotangent(self):
        g, m, t = 4, 3, 0.4
        direct, split = identities.half_sum_split(g, m, m, t)
        expected = m * g / math.tan(g * t)
        assert direct == pytest.approx(expected, rel=1e-12)
        assert split == pytest.approx(expected, rel=1e-12)

    def test_frozen_g2_point(self):
        # direct = cot(pi/8) + 3 cot(pi/8 - pi/2) = 4 - 2 sqrt 2
        direct, split = identities.half_sum_split(2, 1, 3, math.pi / 8)
        expected = 4.0 - 2.0 * math.sqrt(2.0)
        assert direct == pytest.approx(expected, abs=1e-12)
        assert split == pytest.approx(expected, abs=1e-12)

    def test_g4_random(self):
        t = identities.sample_regular_t(4, 200, RNG, 1e-3)
        direct, split = identities.half_sum_split(4, 6, 9, t)
        assert mixed_ok(direct, split)

    @pytest.mark.parametrize("g", [2, 4, 6, 8, 10, 12])
    def test_random_samples(self, g):
        t = identities.sample_regular_t(g, 200, RNG, 1e-3)
        m0 = RNG.integers(1, 10, 200)
        m1 = RNG.integers(1, 10, 200)
        assert mixed_ok(*identities.half_sum_split(g, m0, m1, t))

    def test_shift_swaps_multiplicities(self):
        g, m0, m1, t = 6, 2, 7, 0.21
        d1, s1 = identities.half_sum_split(g, m0, m1, t + math.pi / g)
        d2, s2 = identities.half_sum_split(g, m1, m0, t)
        assert d1 == pytest.approx(d2, rel=1e-11, abs=1e-12)
        assert s1 == pytest.approx(s2, rel=1e-11, abs=1e-12)

    def test_odd_g_rejected(self):
        with pytest.raises(OddG):
            identities.half_sum_split(3, 1, 1, 0.4)


class TestSuite:
    def test_suite_runs_clean(self):
        report = identities.identity_suite(g_max=12, samples=2000)
        for name, entry in report.items():
            assert entry["max_mixed_deviation"] <= 1e-10, name
            assert entry["samples"] >= 2000

    def test_suite_deterministic(self):
        a = identities.identity_suite(samples=500, seed=7)
        b = identities.identity_suite(samples=500, seed=7)
        assert a == b

    def test_suite_seed_matters(self):
        a = identities.identity_suite(samples=500, seed=7)
        b = identities.identity_suite(samples=500, seed=8)
        assert a != b


def reference_sums(g, r, t, m0, m1):
    """The shifted sums written out as one loop each, as a test-local copy."""
    sq = np.zeros(np.broadcast(r, t).shape)
    s2 = np.zeros(np.broadcast(r, t).shape)
    cot = np.zeros(np.shape(t))
    half = np.zeros(np.shape(t))
    for i in range(g):
        off = i * math.pi / g
        x = np.remainder(t - off, identities.TAU)
        sq = sq + np.sin(np.remainder(r - off, identities.TAU)) ** 2 / np.sin(x) ** 2
        s2 = s2 + np.sin(np.remainder(2.0 * (r - off), identities.TAU)) / np.sin(x) ** 2
        cot = cot + np.cos(x) / np.sin(x)
        half = half + (m0 if i % 2 == 0 else m1) * np.cos(x) / np.sin(x)
    sin_gt_sq = np.sin(np.remainder(g * t, identities.TAU)) ** 2
    return sq * sin_gt_sq, s2 * sin_gt_sq, cot, half


class TestShiftedSum:
    @pytest.mark.parametrize("g", range(1, 25))
    def test_oracles_equal_the_written_out_loops_bit_for_bit(self, g):
        rng = np.random.default_rng(g)
        t = identities.sample_regular_t(g, 200, rng, 1e-3)
        r = rng.uniform(0.0, math.pi, 200)
        m0 = rng.integers(1, 10, 200).astype(float)
        m1 = rng.integers(1, 10, 200).astype(float)
        sq, s2, cot, half = reference_sums(g, r, t, m0, m1)
        assert identities.lemma_sin_sq(g, r, t)[0].tobytes() == sq.tobytes()
        assert identities.lemma_sin_2r(g, r, t)[0].tobytes() == s2.tobytes()
        assert identities.cotangent_identity(g, t)[1].tobytes() == cot.tobytes()
        if g % 2 == 0:
            direct = identities.half_sum_split(g, m0, m1, t)[0]
            assert direct.tobytes() == half.tobytes()


def reference_suite(g_max, samples, seed, margin=identities.DEFAULT_SAMPLE_MARGIN):
    """The suite body calling the public identity functions one at a time,
    in the same draw order, as a test-local copy."""
    rng = np.random.default_rng(seed)
    names = ("lemma_sin_sq", "lemma_sin_2r", "cotangent_identity", "half_sum_split")
    dev = {name: 0.0 for name in names}
    count = {name: 0 for name in names}

    def record(name, sides, n):
        dev[name] = max(dev[name], identities.mixed_deviation(*sides))
        count[name] += n

    per_g = -(-samples // g_max)
    even_gs = [g for g in range(1, g_max + 1) if g % 2 == 0]
    per_even = -(-samples // max(len(even_gs), 1))
    for g in range(1, g_max + 1):
        t = identities.sample_regular_t(g, per_g, rng, margin)
        r = rng.uniform(0.0, math.pi, size=per_g)
        record("lemma_sin_sq", identities.lemma_sin_sq(g, r, t), per_g)
        record("lemma_sin_2r", identities.lemma_sin_2r(g, r, t), per_g)
        record("cotangent_identity", identities.cotangent_identity(g, t), per_g)
        if g % 2 == 0:
            th = identities.sample_regular_t(g, per_even, rng, margin)
            m0 = rng.integers(1, 10, size=per_even)
            m1 = rng.integers(1, 10, size=per_even)
            record("half_sum_split", identities.half_sum_split(g, m0, m1, th), per_even)

    return {
        name: {"max_mixed_deviation": dev[name], "samples": count[name]}
        for name in names
    }


class TestOnePass:
    @pytest.mark.parametrize("g_max", [12, 24])
    @pytest.mark.parametrize("seed", [identities.DEFAULT_SEED, 1, 7])
    def test_suite_equals_the_identities_one_at_a_time(self, seed, g_max):
        got = identities.identity_suite(g_max=g_max, seed=seed)
        assert got == reference_suite(g_max, 10_000, seed)

    def test_one_reduction_per_shift_and_argument_family(self, monkeypatch):
        calls = []
        floor_remainder = identities.floor_remainder

        def counting(x, period):
            calls.append(period)
            return floor_remainder(x, period)

        monkeypatch.setattr(identities, "floor_remainder", counting)
        identities.identity_suite(g_max=12, samples=1200)
        # Per g: t, r and 2r shifted by each i pi/g, gt, and the two closed
        # arguments of each sin lemma.  Per even g: the half-sum's own t
        # shifted by each i pi/g, and its gt.
        same_t = sum(3 * g + 5 for g in range(1, 13))
        half = sum(g + 1 for g in range(2, 13, 2))
        assert len(calls) == same_t + half
        assert set(calls) == {identities.TAU}


class TestFloorRemainder:
    TAU = identities.TAU

    def assert_is_np_remainder(self, x):
        got = identities.floor_remainder(x, self.TAU)
        assert np.array_equal(got.view(np.int64), np.remainder(x, self.TAU).view(np.int64))

    def test_signed_zeros_subnormals_and_multiples_of_the_period(self):
        # fmod gives -0.0 at a negative multiple of the period, where the
        # floor modulo gives +0.0; and only a negative fmod is rounded
        points = [0.0, 5e-324, 2.2250738585072009e-308, math.pi]
        points += [self.TAU * m for m in range(1, 65)] + [self.TAU * 2.0**e for e in range(7, 60)]
        x = np.array(points + [-p for p in points])
        self.assert_is_np_remainder(
            np.concatenate([x, np.nextafter(x, math.inf), np.nextafter(x, -math.inf)])
        )

    def test_uniform_draws_from_tiny_to_huge_scales(self):
        rng = np.random.default_rng(20261020)
        scales = 10.0 ** np.arange(-300, 301, 10)
        draws = rng.uniform(-1.0, 1.0, (scales.size, 200)) * scales[:, None]
        self.assert_is_np_remainder(draws.ravel())

    def test_non_finite_give_nan_as_np_remainder(self):
        x = np.array([math.inf, -math.inf, math.nan, -math.nan])
        with np.errstate(invalid="ignore"):
            self.assert_is_np_remainder(x)


class TestSamplingBounds:
    @pytest.mark.parametrize("g", [1, 4, 12])
    def test_margin_must_leave_room_between_poles(self, g):
        rng = np.random.default_rng(3)
        half_gap = math.pi / (2 * g)
        for margin in (0.0, -1e-3, half_gap, 2.0 * half_gap, math.nan):
            with pytest.raises(ValueError, match="--margin"):
                identities.sample_regular_t(g, 10, rng, margin)
        t = identities.sample_regular_t(g, 10, rng, 0.9 * half_gap)
        assert np.all(ode.pole_distance(t, g) >= 0.9 * half_gap)

    def test_suite_rejects_inputs_it_cannot_sample(self):
        with pytest.raises(ValueError, match="--g-max"):
            identities.identity_suite(g_max=0)
        with pytest.raises(ValueError, match="--samples"):
            identities.identity_suite(samples=0)
        with pytest.raises(ValueError, match="--margin"):
            identities.identity_suite(g_max=12, margin=0.2)
        # the bound is pi/(2 g_max): 0.2 still fits g_max = 7
        identities.identity_suite(g_max=7, samples=70, margin=0.2)

    @pytest.mark.parametrize("name, flag", [("g_max", "--g-max"), ("samples", "--samples")])
    @pytest.mark.parametrize("value", [True, False, 2.0, 2.5, "2", None])
    def test_suite_counts_must_be_ints(self, name, flag, value):
        # a bool is an int to isinstance; a float would reach numpy or range()
        with pytest.raises(ValueError, match=f"{name} \\({flag}\\) must be a positive integer"):
            identities.identity_suite(**{name: value})

    @pytest.mark.parametrize("value", [2.5, 2.0, True, False, -1, "2", None])
    def test_suite_seed_must_be_a_non_negative_int(self, value):
        # 2.5 reached numpy's SeedSequence TypeError, and a bool seeded as 0 or 1
        with pytest.raises(ValueError, match="seed \\(--seed\\) must be a non-negative integer"):
            identities.identity_suite(g_max=1, samples=10, seed=value)
        identities.identity_suite(g_max=1, samples=10, seed=0)

    @pytest.mark.parametrize("value", [True, False, "0.001", None, np.True_])
    def test_suite_margin_must_be_a_number(self, value):
        # margin=True ran with a margin of 1.0
        with pytest.raises(ValueError, match="margin \\(--margin\\) must lie in"):
            identities.identity_suite(g_max=1, samples=10, margin=value)
        identities.identity_suite(g_max=1, samples=10, margin=1)

    @pytest.mark.parametrize("margin", [np.float32(1e-3), np.float64(0.2), np.int64(1)])
    def test_suite_numpy_margin_is_its_python_float(self, margin):
        # a float32 margin was refused by a message that it lies outside
        # (0, pi/(2g)), which it did not
        got = identities.identity_suite(g_max=1, samples=10, margin=margin)
        assert got == identities.identity_suite(g_max=1, samples=10, margin=float(margin))

    @pytest.mark.parametrize("value", [True, 2.0, 0, -1, "2"])
    def test_identity_g_must_be_a_positive_int(self, value):
        t = np.array([0.3])
        for call in (
            lambda: identities.lemma_sin_sq(value, t, t),
            lambda: identities.lemma_sin_2r(value, t, t),
            lambda: identities.cotangent_identity(value, t),
            lambda: identities.half_sum_split(value, 1, 1, t),
        ):
            with pytest.raises(ValueError, match="g must be a positive integer"):
                call()
