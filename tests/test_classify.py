"""Harmonicity decisions, the exact linear oracle, example tables."""

import math
import random
import re

import numpy as np
import pytest

from cohom1 import actions, classify, ode
from cohom1.actions import Space, Tangential


class TestIsLinearSolution:
    @pytest.mark.parametrize(
        "G,M0,M1,k,expected",
        [
            (2, 5, 9, -1, True),    # reflection on G=2 needs no equal multiplicities
            (4, 1, 1, 5, False),
            (1, 4, 4, 0, True),     # k = 1 - G degenerates to the constant map
            (3, 2, 2, -2, True),
            (3, 2, 2, 4, False),
            (6, 1, 1, -5, True),
            (12, 2, 2, -11, True),
            (2, 1, 3, -3, False),
            (1, 4, 4, -1, True),    # g=1 reflection, outside the stated rule
            (1, 4, 5, -1, False),
            (2, 5, 9, 0, True),     # constant map solves every G=2 problem
            (3, 2, 2, 0, False),
        ],
    )
    def test_cases(self, G, M0, M1, k, expected):
        assert classify.is_linear_solution(G, M0, M1, k) is expected


class TestLinearResidualOracle:
    def test_exact_solutions_vanish(self):
        for G, M0, M1, k in [(3, 2, 2, 1), (3, 2, 2, -2), (2, 1, 3, -1), (6, 1, 1, -5)]:
            value = classify.linear_residual_oracle(G, M0, M1, k)
            assert value <= 1e-10 * classify.oracle_scale(G, M0, M1, k)

    def test_non_solution_bounded_below(self):
        # pinch point t0 = pi/(4G) forces |k| <= G for linear solutions; the
        # residual of k=5 on (4,1,1) there is 2*G*m*|k - (G-1)| = 16
        value = classify.linear_residual_oracle(4, 1, 1, 5)
        assert value > 10.0

    def test_reflection_fails_off_g2(self):
        value = classify.linear_residual_oracle(2, 1, 3, 3)
        assert value > 1e-9 * classify.oracle_scale(2, 1, 3, 3)
        assert value > 1.0

    def test_agreement_smoke(self):
        # full enumeration lives in the acceptance suite
        for g, m0, m1 in actions.strict_triples(max_m=4, max_ell=1):
            for space in (Space.SPHERE, Space.ORTHOGONAL_GROUP):
                action = actions.make_action(space, g, m0, m1)
                G = action.bvp_g
                for j in (-2, -1, 0, 1, 2):
                    if j % 2 and not action.odd_j_allowed:
                        continue
                    k = actions.admissible_k(action, j)
                    predicted = classify.is_linear_solution(G, m0, m1, k)
                    measured = classify.linear_residual_oracle(G, m0, m1, k)
                    threshold = 1e-9 * classify.oracle_scale(G, m0, m1, k)
                    assert predicted is (measured <= threshold), (space, g, m0, m1, k)


def criterion_3_pairs():
    """(G, M0, M1, k) of every classified action with |j| <= 4, in the
    order of the acceptance test: action by action, j ascending."""
    acts = [
        actions.make_action(space, g, m0, m1)
        for g, m0, m1 in actions.strict_triples(max_m=9, max_ell=2)
        for space in (Space.SPHERE, Space.ORTHOGONAL_GROUP)
    ] + [actions.make_action(Space.SP2_LIFT, 6, 1, 1)]
    return [
        (a.bvp_g, a.m0, a.m1, actions.admissible_k(a, j))
        for a in acts
        for j in range(-4, 5)
        if j % 2 == 0 or a.odd_j_allowed
    ]


def classified_G():
    """Every G the classification produces: sphere g, lifted 2g, Sp(2) 6."""
    acts = [
        actions.make_action(space, g, m0, m1)
        for g, m0, m1 in actions.strict_triples()
        for space in (Space.SPHERE, Space.ORTHOGONAL_GROUP)
    ] + [actions.make_action(Space.SP2_LIFT, 6, 1, 1)]
    return sorted({a.bvp_g for a in acts})


class TestExactOracle:
    def test_half_series_is_the_grid_tension(self):
        # the integer form against its float twin: at seeded random interior
        # t, half the sine series is closed_tension_grid of r = kt, and the
        # oracle bounds twice its largest value
        rng = random.Random(31)
        for G, M0, M1, k in rng.sample(criterion_3_pairs(), 300):
            t = math.pi / G * np.array([rng.uniform(0.001, 0.999) for _ in range(16)])
            series = classify._sine_series(G, M0, M1, k)
            half = 0.5 * sum(c * np.sin(w * t) for w, c in series.items())
            grid = ode.closed_tension_grid(ode.BvpSpec(G, M0, M1, k), t, k * t, k, 0.0)
            scale = classify.oracle_scale(G, M0, M1, k)
            assert np.all(np.abs(half - grid) <= 1e-13 * (scale + np.abs(grid))), (G, M0, M1, k)
            oracle = classify.linear_residual_oracle(G, M0, M1, k)
            assert 2.0 * np.max(np.abs(grid)) <= oracle + 1e-13 * scale

    def test_zero_exactly_on_the_solutions(self):
        # 251 of criterion 3's 1073 pairs are solutions: the oracle is the
        # int 0 on those and a positive int on the rest, in either order
        pairs = criterion_3_pairs()
        assert len(pairs) == 1073
        values = [classify.linear_residual_oracle(*p) for p in pairs]
        assert values == [classify.linear_residual_oracle(*p) for p in pairs[::-1]][::-1]
        assert {type(v) for v in values} == {int}
        assert [v == 0 for v in values] == [classify.is_linear_solution(*p) for p in pairs]
        assert sum(v == 0 for v in values) == 251

    def test_huge_k_is_exact(self):
        # no float conversion: k = 10**400 gives the int of the sine series,
        # here (2,1,1) with c = 2(k-1): 2kGs = 8k at 2G = 4 and -2Gs = -8 at
        # c + 4 and at c, the f1 = 0 and d = 0 terms vanishing
        k = 10**400
        assert classify.linear_residual_oracle(2, 1, 1, k) == 8 * k + 16
        assert classify.linear_residual_oracle(4, 2, 2, -k) > 0
        assert classify.linear_residual_oracle(np.int64(2), 1, 1, k) == 8 * k + 16

    def test_huge_k_named_by_the_float_scale(self):
        with pytest.raises(ValueError, match="^k must round to a float below 2\\*\\*1024"):
            classify.oracle_scale(2, 1, 1, 10**400)
        assert classify.oracle_scale(2, 1, 1, 10**300) == 16.0 * (1.0 + 1e300)

    @pytest.mark.parametrize("G", [1, 2])
    @pytest.mark.parametrize("k", [2**1023, -(2**1023)])
    def test_k_whose_scale_overflows_is_named(self, G, k):
        # k converts to a float, but 4 G (M0+M1)(1+|k|) is infinite: the scale
        # returned inf, and a tolerance of a multiple of it accepted every value
        with pytest.raises(ValueError, match=re.escape("k must keep 4 G (M0+M1)(1+|k|) finite")):
            classify.oracle_scale(G, 1, 1, k)
        # the exact oracle takes the same k: for (G, 1, 1) its series is
        # 4kG S(2G) - 4G S(2k + 2G - 2) - 4(f1 + G) S(2k - 2), f1 + G = G(G-1)
        want = {1: 4 * abs(k) + 4, 2: 8 * abs(k) + 16}[G]
        assert classify.linear_residual_oracle(G, 1, 1, k) == want

    def test_arguments_are_checked(self):
        # True equals 1 and 2.0 equals 2, yet neither is an integer argument
        assert classify.linear_residual_oracle(np.int64(2), 1, 1, -1) == (
            classify.linear_residual_oracle(2, 1, 1, -1)
        )
        for bad in (True, 2.0, 1.0):
            with pytest.raises(ValueError, match="^G must be a positive integer"):
                classify.linear_residual_oracle(bad, 1, 1, -1)
        with pytest.raises(ValueError, match="^M0 must be a positive integer"):
            classify.linear_residual_oracle(2, True, 1, -1)


# Three pairwise non-collinear multiplicity pairs, one of them equal.
PROOF_PAIRS = ((1, 1), (1, 2), (2, 1))


def solution_multiplicities(G, k):
    """The positive (M0, M1) at which r = kt solves the (G, M0, M1, k)
    problem, read from the exact sine series: "all", "equal" or "none".

    Each coefficient is x M0 + y M1 for integers x, y that depend on (G, k)
    only, recovered from the pairs (1, 2) and (2, 1) and checked at (1, 1).
    The multiplicities that zero every coefficient form the kernel of the
    rows (x, y): everything if all rows vanish, the line of (y, -x) if the
    rows are parallel, else 0; the line holds positive pairs iff x y < 0.
    A line other than M0 = M1 is a solution set the rule cannot state, and
    fails the assert.
    """
    at = {pair: classify._sine_series(G, *pair, k) for pair in PROOF_PAIRS}
    rows = []
    for w in set().union(*at.values()):
        c11, c12, c21 = (at[pair].get(w, 0) for pair in PROOF_PAIRS)
        x, y = (2 * c21 - c12) // 3, (2 * c12 - c21) // 3
        assert (x + 2 * y, 2 * x + y, x + y) == (c12, c21, c11), (G, k, w)
        if x or y:
            rows.append((x, y))
    if not rows:
        return "all"
    x, y = rows[0]
    if any(x * y1 - x1 * y for x1, y1 in rows) or x * y >= 0:
        return "none"       # no positive pair on the kernel line
    assert x == -y, (G, k, rows)
    return "equal"


class TestLinearRuleProof:
    """``is_linear_solution`` equals the exact oracle for every integer k and
    every multiplicity pair, for each G the classification produces.

    With c = 2(k - 1), the k-dependent frequencies are |c|, |c + G|,
    |c - G| and |c + 2G|; none is 2G unless c lies in G*{-4, ..., 3}.  Off
    that set the coefficient of sin(2Gt) is 2kG(M0 + M1), nonzero for
    k != 0, so r = kt solves nothing there, and the rule, whose k are 1,
    -1 (G <= 2), 0 and 1 - G, all in the set or 0, agrees.  On the set and
    at k = 0 the coefficients are linear in (M0, M1), so their common zeros
    are read exactly from three pairs (``solution_multiplicities``).
    """

    @pytest.mark.parametrize("G", classified_G())
    def test_rule_is_the_exact_form(self, G):
        special = {0} | {1 + G * m // 2 for m in range(-4, 4) if G * m % 2 == 0}
        for k in sorted(special):
            rule = {pair: classify.is_linear_solution(G, *pair, k) for pair in PROOF_PAIRS}
            assert rule[(1, 2)] is rule[(2, 1)]
            expected = "all" if rule[(1, 2)] else "equal" if rule[(1, 1)] else "none"
            assert solution_multiplicities(G, k) == expected, (G, k)
            for pair in PROOF_PAIRS:
                assert (classify.linear_residual_oracle(G, *pair, k) == 0) is rule[pair]
        for k in range(-8 * G - 8, 8 * G + 9):
            if k not in special:
                for M0, M1 in PROOF_PAIRS:
                    assert classify._sine_series(G, M0, M1, k)[2 * G] == 2 * k * G * (M0 + M1)
                    assert not classify.is_linear_solution(G, M0, M1, k)

    def test_classified_G(self):
        assert classified_G() == [1, 2, 3, 4, 6, 8, 12]


class TestIsHarmonicKMap:
    def test_sphere_reflection(self):
        a = actions.make_action("sphere", 2, 4, 6)
        verdict = classify.is_harmonic_k_map(a, -1)
        assert verdict.k == -1 and verdict.harmonic

    def test_so8_fifth_map(self):
        a = actions.make_action("so", 3, 2, 2)
        verdict = classify.is_harmonic_k_map(a, -2)
        assert verdict.k == -5 and verdict.harmonic and verdict.degree == -5

    @pytest.mark.parametrize("m,expected_degree", [(1, 1), (3, 1), (5, 1), (2, -3), (4, -3)])
    def test_so_negative_three_maps(self, m, expected_degree):
        a = actions.make_action("so", 2, m, m)
        verdict = classify.is_harmonic_k_map(a, -2)
        assert verdict.k == -3 and verdict.harmonic
        assert verdict.degree == expected_degree

    def test_unequal_multiplicities_block_the_gradient_map(self):
        a = actions.make_action("sphere", 4, 4, 5)
        verdict = classify.is_harmonic_k_map(a, -1)
        assert verdict.k == -3 and not verdict.harmonic
        assert verdict.reason == "no-linear-solution"

    def test_identity_always_harmonic(self):
        for g, m0, m1 in actions.strict_triples(max_m=5):
            for space in (Space.SPHERE, Space.ORTHOGONAL_GROUP):
                a = actions.make_action(space, g, m0, m1)
                verdict = classify.is_harmonic_k_map(a, 0)
                assert verdict.harmonic and verdict.degree == 1
                assert verdict.tangential is Tangential.TRIVIALLY_IDENTITY
                assert verdict.reason == "identity-map"

    def test_harmonic_implies_linear_solution(self):
        for g, m0, m1 in actions.strict_triples(max_m=6):
            for space in (Space.SPHERE, Space.ORTHOGONAL_GROUP):
                a = actions.make_action(space, g, m0, m1)
                for v in classify.classify_range(a):
                    if v.harmonic:
                        assert v.is_linear_solution
                    if v.k == 1:
                        assert v.harmonic and v.degree == 1

    def test_never_harmonic_with_unresolved_tangential(self):
        for g, m0, m1 in actions.strict_triples():
            for space in (Space.SPHERE, Space.ORTHOGONAL_GROUP):
                a = actions.make_action(space, g, m0, m1)
                for v in classify.classify_range(a):
                    assert not (v.harmonic and v.tangential is Tangential.UNRESOLVED)

    def test_exceptional_families_only_identity(self):
        for triple in [(4, 2, 3), (4, 4, 7), (4, 4, 5), (4, 6, 9)]:
            a = actions.make_action("sphere", *triple)
            harmonic_ks = {v.k for v in classify.classify_range(a) if v.harmonic}
            assert harmonic_ks == {1}

    def test_sp2_verdicts(self):
        a = actions.make_action("sp2", 6, 1, 1)
        ks = {v.k: v for v in classify.classify_range(a)}
        assert ks[1].harmonic and ks[-5].harmonic
        assert ks[-5].degree == 1
        assert {k for k, v in ks.items() if v.harmonic} == {1, -5}

    def test_inadmissible_j_raises(self):
        from cohom1.errors import InadmissibleJ

        a = actions.make_action("so", 2, 1, 1)
        with pytest.raises(InadmissibleJ):
            classify.is_harmonic_k_map(a, 1)

    def test_route_disagreement_raises(self, monkeypatch):
        # an explicit raise, not an assert, so the check survives python -O
        from cohom1.errors import CohomError

        monkeypatch.setattr(classify, "is_linear_solution", lambda G, M0, M1, k: False)
        a = actions.make_action("so", 3, 2, 2)
        with pytest.raises(CohomError, match="disagree"):
            classify.is_harmonic_k_map(a, 0)

    def test_g1_reflection_follows_tables_with_documented_reason(self):
        # r = -t is a linear solution (the reflection isometry) but the
        # classification tables omit it; the verdict records both facts
        a = actions.make_action("sphere", 1, 3, 3)
        verdict = classify.is_harmonic_k_map(a, -2)
        assert verdict.k == -1
        assert verdict.is_linear_solution
        assert not verdict.harmonic
        assert verdict.reason == "untabulated-reflection"
        harmonic_ks = {v.k for v in classify.classify_range(a) if v.harmonic}
        assert harmonic_ks == {0, 1}


class TestExamplesTable:
    def test_row_count_and_all_harmonic(self):
        rows = classify.examples_table()
        assert len(rows) == 15
        assert all(v.harmonic for v in rows)

    def test_highlighted_degrees(self):
        rows = {(v.action.ambient, v.k): v.degree for v in classify.examples_table()}
        assert rows[("SO(10)", -7)] == -7
        assert rows[("SO(26)", -5)] == -5
        assert rows[("Sp(2)", -5)] == 1
        assert rows[("SO(6)", -7)] == 1

    def test_degree_column_consistent_with_degree_operation(self):
        for v in classify.examples_table():
            assert v.degree == actions.degree_of_k_map(v.action, v.j)

    def test_text_table_renders(self):
        text = classify.format_table(classify.examples_table())
        lines = text.splitlines()
        assert lines[0].startswith("ambient")
        assert len(lines) == 16
        assert any("SO(14)" in line and "-11" in line for line in lines)
