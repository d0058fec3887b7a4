"""Harmonicity decisions, the brute-force linear oracle, example tables."""

import math

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


class TestCachedOracle:
    def test_cached_half_gives_the_grid_tension_bit_for_bit(self):
        # r = kt has r' = k and r'' = 0, so the oracle is max |N| of the
        # cached time parts: the max |closed_tension_grid| on the 64 nodes
        pairs = criterion_3_pairs()
        assert len(pairs) == 1073 and len({p[:3] for p in pairs}) == 125
        unit = 1.0 - np.cos((2 * np.arange(64) + 1) * math.pi / 128)
        want = []
        for G, M0, M1, k in pairs:
            nodes = math.pi / G * 0.5 * unit
            spec = ode.BvpSpec(G, M0, M1, k)
            grid = ode.closed_tension_grid(spec, nodes, k * nodes, k, 0.0)
            want.append(float(np.max(np.abs(grid))).hex())
        runs = []
        for order in (pairs, pairs[::-1]):
            classify._oracle_time_parts.cache_clear()
            runs.append({p: classify.linear_residual_oracle(*p).hex() for p in order})
        assert runs[0] == runs[1]
        assert [runs[0][p] for p in pairs] == want
        assert classify._oracle_time_parts.cache_info().currsize == 125

    def test_cached_arrays_are_read_only(self):
        nodes, parts = classify._oracle_time_parts(2, 1, 3)
        assert len(nodes) == 64 and 0.0 < nodes.min() and nodes.max() < math.pi / 2
        for array in (nodes, *parts):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_arguments_are_checked_before_the_cache(self):
        # True hashes as 1 and 2.0 as 2, so a cache lookup alone would
        # answer for them with the (1, 1, 1) and (2, 1, 1) entries
        classify.linear_residual_oracle(1, 1, 1, -1)
        classify.linear_residual_oracle(2, 1, 1, -1)
        hits = classify._oracle_time_parts.cache_info().hits
        assert classify.linear_residual_oracle(np.int64(2), 1, 1, -1) == (
            classify.linear_residual_oracle(2, 1, 1, -1)
        )
        assert classify._oracle_time_parts.cache_info().hits == hits + 2
        for bad in (True, 2.0, 1.0):
            with pytest.raises(ValueError, match="^G must be a positive integer"):
                classify.linear_residual_oracle(bad, 1, 1, -1)
        with pytest.raises(ValueError, match="^M0 must be a positive integer"):
            classify.linear_residual_oracle(2, True, 1, -1)
        assert classify._oracle_time_parts.cache_info().maxsize == 256


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
