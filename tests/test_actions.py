"""Descriptor construction, admissible winding numbers, degrees."""

import json

import pytest

from cohom1 import actions
from cohom1.actions import Tangential
from cohom1.errors import InadmissibleJ, InvalidSpace, InvalidTriple


class TestMakeAction:
    def test_flag_manifold_triple(self):
        a = actions.make_action("sphere", 3, 2, 2)
        assert (a.n, a.weyl_order, a.codim0, a.codim1) == (6, 6, 3, 3)
        assert a.odd_j_allowed and a.ambient == "S^7"

    def test_odd_g_needs_equal_multiplicities(self):
        with pytest.raises(InvalidTriple):
            actions.make_action("sphere", 3, 1, 2)

    def test_lifted_action(self):
        a = actions.make_action("so", 2, 4, 4)
        assert a.n == 8 and a.ambient == "SO(10)"
        assert not a.odd_j_allowed
        assert a.weyl_order == 4 and a.bvp_g == 4

    def test_sp2_lift(self):
        a = actions.make_action("sp2", 6, 1, 1)
        assert a.weyl_order == 12 and a.odd_j_allowed and a.bvp_g == 6
        assert a.ambient == "Sp(2)"

    def test_unknown_space_rejected(self):
        with pytest.raises(InvalidSpace, match="torus"):
            actions.parse_space("torus")
        with pytest.raises(InvalidSpace):
            actions.make_action("torus", 2, 1, 1)

    def test_sp2_requires_611(self):
        with pytest.raises(InvalidSpace):
            actions.make_action("sp2", 6, 2, 2)

    @pytest.mark.parametrize(
        "triple", [(4, 2, 4), (4, 3, 3), (6, 3, 3), (3, 3, 3), (3, 5, 5)]
    )
    def test_unlisted_triples_rejected_in_strict_mode(self, triple):
        with pytest.raises(InvalidTriple):
            actions.make_action("sphere", *triple)

    @pytest.mark.parametrize("triple", [(6, 1, 2), (6, 2, 1)])
    def test_g6_needs_equal_multiplicities(self, triple):
        # (6, m, m) with m in {1, 2} only (Abresch 1983); the parity rule
        # alone lets (6,1,2) through
        with pytest.raises(InvalidTriple, match="m0 == m1"):
            actions.make_action("sphere", *triple)
        a = actions.make_action("sphere", *triple, strict=False)
        with pytest.raises(InvalidTriple):
            actions.tangential_vanishes(a)

    def test_strict_mode_accepts_exactly_the_enumerated_triples(self):
        # every g and every m0 <= m1 <= 9; max_ell = 9 leaves no g = 4
        # family truncated at that size
        accepted = set()
        for g in (1, 2, 3, 4, 6):
            for m0 in range(1, 10):
                for m1 in range(m0, 10):
                    try:
                        actions.make_action("sphere", g, m0, m1)
                    except InvalidTriple:
                        continue
                    accepted.add((g, m0, m1))
        assert accepted == set(actions.strict_triples(9, 9))

    @pytest.mark.parametrize("triple", [(4, 3, 3), (3, 3, 3), (6, 5, 5)])
    def test_unlisted_triples_allowed_nonstrict(self, triple):
        a = actions.make_action("sphere", *triple, strict=False)
        assert a.n == (triple[1] + triple[2]) * triple[0] // 2

    def test_parity_enforced_even_nonstrict(self):
        with pytest.raises(InvalidTriple):
            actions.make_action("sphere", 3, 1, 2, strict=False)
        with pytest.raises(InvalidTriple):
            actions.make_action("sphere", 1, 1, 2, strict=False)

    @pytest.mark.parametrize("space", list(actions.Space))
    def test_half_dimension_is_exact_on_every_accepted_triple(self, space):
        accepted = 0
        for g in range(1, 10):
            for m0 in range(1, 10):
                for m1 in range(1, 10):
                    try:
                        a = actions.make_action(space, g, m0, m1, strict=False)
                    except (InvalidTriple, InvalidSpace):
                        continue
                    assert 2 * a.n == (m0 + m1) * g
                    accepted += 1
        assert accepted > 0

    @pytest.mark.parametrize("triple", [(True, 1, 1), (2, True, 1), (2, 1, True)])
    def test_bools_rejected(self, triple):
        with pytest.raises(InvalidTriple):
            actions.make_action("so", *triple, strict=False)

    def test_g_range_enforced(self):
        with pytest.raises(InvalidTriple):
            actions.make_action("sphere", 5, 1, 1, strict=False)

    def test_validation_symmetric_in_multiplicities(self):
        a = actions.make_action("sphere", 4, 5, 4)
        assert (a.m0, a.m1) == (5, 4)  # given order preserved
        b = actions.make_action("sphere", 4, 4, 5)
        assert (b.m0, b.m1) == (4, 5)

    def test_overlap_triple_notes_two_actions(self):
        a = actions.make_action("sphere", 4, 2, 1)
        assert "inequivalent" in a.notes

    def test_json_fields_stable(self):
        a = actions.make_action("so", 2, 1, 3)
        d = json.loads(json.dumps(a.to_dict()))
        assert list(d) == [
            "space", "g", "m0", "m1", "n", "weyl_order",
            "codim0", "codim1", "odd_j_allowed", "notes",
        ]
        assert d["space"] == "so" and d["n"] == 4


class TestAdmissibleK:
    def test_sphere_allows_every_j(self):
        a = actions.make_action("sphere", 4, 2, 2)
        assert actions.admissible_k(a, -1) == -3

    def test_lift_allows_even_j(self):
        a = actions.make_action("so", 3, 2, 2)
        assert actions.admissible_k(a, -2) == -5

    def test_lift_rejects_odd_j(self):
        a = actions.make_action("so", 2, 1, 1)
        with pytest.raises(InadmissibleJ):
            actions.admissible_k(a, 1)

    @pytest.mark.parametrize("j", [True, False])
    def test_bool_j_rejected(self, j):
        a = actions.make_action("sphere", 4, 2, 2)
        with pytest.raises(InadmissibleJ):
            actions.admissible_k(a, j)

    def test_sp2_allows_odd_j(self):
        a = actions.make_action("sp2", 6, 1, 1)
        assert actions.admissible_k(a, -1) == -5

    def test_strictly_increasing_in_j(self):
        a = actions.make_action("sphere", 6, 2, 2)
        ks = [actions.admissible_k(a, j) for j in range(-5, 6)]
        assert ks == sorted(ks) and len(set(ks)) == len(ks)
        assert all((k - 1) % a.g == 0 for k in ks)


class TestDegree:
    def test_even_multiplicities_carry_the_full_degree(self):
        a = actions.make_action("so", 2, 2, 2)
        assert actions.degree_of_k_map(a, -2) == -3

    def test_so14_degree(self):
        a = actions.make_action("so", 6, 2, 2)
        assert actions.degree_of_k_map(a, -2) == -11

    def test_identity_always_degree_one(self):
        for g, m0, m1 in actions.strict_triples():
            for space in ("sphere", "so"):
                a = actions.make_action(space, g, m0, m1)
                assert actions.degree_of_k_map(a, 0) == 1

    def test_odd_codimension_collapses_to_plus_one(self):
        a = actions.make_action("so", 3, 1, 1)
        assert actions.degree_of_k_map(a, -2) == 1

    def test_even_j_dichotomy(self):
        # degree is k when both multiplicities are even, +1 otherwise
        for g, m0, m1 in actions.strict_triples():
            for space in ("sphere", "so"):
                a = actions.make_action(space, g, m0, m1)
                for j in (-4, -2, 2, 4):
                    k = actions.admissible_k(a, j)
                    deg = actions.degree_of_k_map(a, j)
                    if m0 % 2 == 0 and m1 % 2 == 0:
                        assert deg == k
                    else:
                        assert deg == 1

    def test_sp2_reflection_degree(self):
        # both codimensions even but the Weyl order 12 is divisible by 4
        a = actions.make_action("sp2", 6, 1, 1)
        assert actions.degree_of_k_map(a, -1) == 1

    def test_odd_j_zero_degree_case(self):
        # (1,m,m) with m odd: both codimensions even, Weyl order 2
        a = actions.make_action("sphere", 1, 3, 3)
        assert actions.degree_of_k_map(a, -1) == 0

    def test_odd_j_minus_one_case(self):
        # codim0 even, codim1 odd, Weyl order 4 not divisible by 8
        a = actions.make_action("sphere", 2, 1, 2)
        assert actions.degree_of_k_map(a, -1) == -1
        # same parities but Weyl order 8: falls through to +1
        b = actions.make_action("sphere", 4, 1, 2)
        assert actions.degree_of_k_map(b, -1) == 1


class TestTangential:
    @pytest.mark.parametrize(
        "space,triple",
        [
            ("sphere", (6, 1, 1)),
            ("sphere", (2, 5, 7)),
            ("sphere", (4, 2, 1)),
            ("sphere", (4, 1, 2)),
            ("sphere", (4, 9, 1)),
            ("so", (3, 8, 8)),
            ("sp2", (6, 1, 1)),
        ],
    )
    def test_vanishing_cases(self, space, triple):
        a = actions.make_action(space, *triple)
        assert actions.tangential_vanishes(a) is Tangential.VANISHES

    @pytest.mark.parametrize(
        "triple", [(4, 2, 3), (4, 3, 2), (4, 2, 5), (4, 4, 3), (4, 4, 7), (4, 4, 5), (4, 6, 9)]
    )
    def test_unresolved_cases(self, triple):
        a = actions.make_action("sphere", *triple)
        assert actions.tangential_vanishes(a) is Tangential.UNRESOLVED

    def test_unresolved_exactly_on_the_four_g4_families(self):
        # the families written out, against every classified g=4 pair < 60
        def listed(a, b):
            return (
                (a == 2 and b % 2 == 1 and b >= 3)
                or (a == 4 and b % 4 == 3)
                or (b == 4 and a % 4 == 3)
                or (a, b) in ((4, 5), (6, 9))
            )

        pairs = [(m0, m1) for g, m0, m1 in actions.strict_triples(59, 29) if g == 4]
        assert len(pairs) > 80
        for m0, m1 in pairs + [(m1, m0) for m0, m1 in pairs]:
            a = actions.make_action("sphere", 4, m0, m1)
            expected = Tangential.UNRESOLVED if listed(*sorted((m0, m1))) else Tangential.VANISHES
            assert actions.tangential_vanishes(a) is expected, (m0, m1)

    def test_requires_classified_triple(self):
        a = actions.make_action("sphere", 4, 3, 3, strict=False)
        with pytest.raises(InvalidTriple):
            actions.tangential_vanishes(a)


class TestStrictTriples:
    def test_default_enumeration(self):
        triples = actions.strict_triples()
        assert len(triples) == len(set(triples))
        assert (1, 9, 9) in triples and (2, 1, 9) in triples
        assert (3, 8, 8) in triples and (6, 2, 2) in triples
        assert (4, 2, 3) in triples and (4, 2, 5) in triples
        assert (4, 3, 4) in triples and (4, 4, 7) in triples
        assert (4, 4, 5) in triples and (4, 6, 9) in triples
        assert (4, 1, 1) in triples and (4, 1, 9) in triples
        assert (4, 4, 4) not in triples and (3, 3, 3) not in triples

    def test_every_triple_validates_strictly(self):
        for g, m0, m1 in actions.strict_triples():
            actions.make_action("sphere", g, m0, m1)
            actions.make_action("sphere", g, m1, m0)
            actions.make_action("so", g, m0, m1)

    def test_ell_cap_respected(self):
        triples = actions.strict_triples(max_m=9, max_ell=1)
        assert (4, 2, 5) not in triples and (4, 2, 3) in triples
