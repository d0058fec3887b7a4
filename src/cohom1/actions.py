"""Cohomogeneity-one actions and their scalar invariants.

An action is recorded by the number g of distinct principal curvatures of
its isoparametric foliation and the two alternating multiplicities m0, m1.
Everything the rest of the package needs (dimension of the ambient space,
Weyl order, orbit codimensions, which winding numbers k admit equivariant
self-maps, and the topological degree of a k-map) is a function of that
triple plus the ambient family.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import InadmissibleJ, InvalidSpace, InvalidTriple, require_int


class Space(enum.Enum):
    """Ambient manifold family carrying the action."""

    SPHERE = "sphere"
    ORTHOGONAL_GROUP = "so"
    SP2_LIFT = "sp2"

    @property
    def token(self) -> str:
        return self.value


class Tangential(enum.Enum):
    """Status of the orbit-tangent part of the tension field."""

    VANISHES = "vanishes"
    UNRESOLVED = "unresolved"
    TRIVIALLY_IDENTITY = "trivially-identity"


_VALID_G = (1, 2, 3, 4, 6)
_G3_MULTS = (1, 2, 4, 8)
_G6_MULTS = (1, 2)

# The two inequivalent actions sharing (4,2,1) are indistinguishable at the
# level of the scalar data stored here.
_NOTE_421 = (
    "two inequivalent actions share (4,2,1); all quantities derived here "
    "depend only on (g, m0, m1)"
)


def parse_space(space: Space | str) -> Space:
    if isinstance(space, Space):
        return space
    for member in Space:
        if member.value == space:
            return member
    raise InvalidSpace(f"unknown space {space!r}; expected sphere, so or sp2")


@dataclass(frozen=True)
class ActionDescriptor:
    space: Space
    g: int
    m0: int
    m1: int
    n: int              # principal orbit dimension, (m0+m1)/2 * g
    weyl_order: int
    codim0: int         # codimension of the orbit through gamma(0)
    codim1: int
    odd_j_allowed: bool
    notes: str = field(default="")

    @property
    def bvp_g(self) -> int:
        """Curvature count of the boundary value problem this action induces.

        Lifting to the rotation group doubles it; the Sp(2) lift does not.
        """
        if self.space is Space.ORTHOGONAL_GROUP:
            return 2 * self.g
        return self.g

    @property
    def ambient(self) -> str:
        if self.space is Space.SPHERE:
            return f"S^{self.n + 1}"
        if self.space is Space.ORTHOGONAL_GROUP:
            return f"SO({self.n + 2})"
        return "Sp(2)"

    def to_dict(self) -> dict:
        return {
            "space": self.space.token,
            "g": self.g,
            "m0": self.m0,
            "m1": self.m1,
            "n": self.n,
            "weyl_order": self.weyl_order,
            "codim0": self.codim0,
            "codim1": self.codim1,
            "odd_j_allowed": self.odd_j_allowed,
            "notes": self.notes,
        }


def _classification_violation(g: int, m0: int, m1: int) -> str | None:
    """Return the violated classification rule, or None if (g,m0,m1) is listed.

    Membership is symmetric in (m0, m1).
    """
    a, b = sorted((m0, m1))
    if g == 1:
        return None  # (1,m,m); m0 == m1 already enforced for odd g
    if g == 2:
        return None  # (2,m0,m1) with arbitrary multiplicities
    if g == 3:
        if a in _G3_MULTS:
            return None
        return f"g=3 requires m in {_G3_MULTS}, got m={a}"
    if g == 4:
        if a == 1:
            return None                      # (4,m0,1)
        if (a, b) == (2, 2):
            return None
        if a == 2 and b % 2 == 1:
            return None                      # (4,2,2l+1)
        if (a == 4 and b % 4 == 3) or (b == 4 and a % 4 == 3):
            return None                      # (4,4,4l+3)
        if (a, b) in ((4, 5), (6, 9)):
            return None
        return f"({a},{b}) is not a classified multiplicity pair for g=4"
    if g == 6:
        if a == b and a in _G6_MULTS:
            return None                      # (6,m,m), Abresch 1983
        return f"g=6 requires m0 == m1 in {_G6_MULTS}, got ({m0},{m1})"
    return f"g must be one of {_VALID_G}"


def make_action(
    space: Space | str, g: int, m0: int, m1: int, strict: bool = True
) -> ActionDescriptor:
    """Build a validated descriptor for a (g, m0, m1)-action.

    With ``strict`` the triple must appear on the classification list (up to
    swapping m0 and m1).  Without it only the parity/dimension rules are
    enforced, which is enough to pose the boundary value problem on
    unclassified multiplicity data.
    """
    space = parse_space(space)
    g = require_int("g", g, 1, InvalidTriple)
    m0 = require_int("m0", m0, 1, InvalidTriple)
    m1 = require_int("m1", m1, 1, InvalidTriple)
    if g not in _VALID_G:
        raise InvalidTriple(f"g must be one of {_VALID_G}, got {g}")
    if g % 2 == 1 and m0 != m1:
        raise InvalidTriple(f"odd g={g} requires m0 == m1, got ({m0},{m1})")
    if strict:
        violation = _classification_violation(g, m0, m1)
        if violation is not None:
            raise InvalidTriple(violation)
    if space is Space.SP2_LIFT and (g, m0, m1) != (6, 1, 1):
        raise InvalidSpace(f"the Sp(2) lift requires (6,1,1), got ({g},{m0},{m1})")

    # exact: g is even, or odd with m0 == m1, so (m0 + m1) * g is even
    n = (m0 + m1) * g // 2
    weyl_order = 12 if space is Space.SP2_LIFT else 2 * g
    notes = _NOTE_421 if (g == 4 and sorted((m0, m1)) == [1, 2]) else ""
    return ActionDescriptor(
        space=space,
        g=g,
        m0=m0,
        m1=m1,
        n=n,
        weyl_order=weyl_order,
        codim0=m0 + 1,
        codim1=m1 + 1,
        odd_j_allowed=space is not Space.ORTHOGONAL_GROUP,
        notes=notes,
    )


def admissible_k(action: ActionDescriptor, j: int) -> int:
    """Winding number k = j*g + 1 of the j-th equivariant self-map.

    Every integer j is admissible on spheres and on the Sp(2) lift; the
    lifted actions on rotation groups only carry even j.
    """
    j = require_int("j", j, error=InadmissibleJ)
    if j % 2 != 0 and not action.odd_j_allowed:
        raise InadmissibleJ(
            f"odd j={j} is not admissible on {action.ambient} (lifted action)"
        )
    return j * action.g + 1


def degree_of_k_map(action: ActionDescriptor, j: int) -> int:
    """Topological degree of the k-map, k = j*g + 1.

    Determined by the parities of the two singular-orbit codimensions and,
    for odd j, by divisibility of the Weyl order.  Convention: the normal
    geodesic starts on the orbit of codimension m0 + 1.
    """
    k = admissible_k(action, j)
    c0_odd = action.codim0 % 2 == 1
    c1_odd = action.codim1 % 2 == 1
    if j % 2 == 0:
        return k if (c0_odd and c1_odd) else 1
    if c0_odd and c1_odd:
        return k
    if not c0_odd and not c1_odd and action.weyl_order % 4 != 0:
        return 0
    if not c0_odd and c1_odd and action.weyl_order % 8 != 0:
        return -1
    return 1


def tangential_vanishes(action: ActionDescriptor) -> Tangential:
    """Whether the orbit-tangent tension component vanishes for every
    equivariant map of this action.

    Resolved for every classified triple except four g=4 families:
    (4,2,2l+1) with l >= 1, (4,4,4l+3), (4,5) and (6,9).  Among classified
    g=4 pairs those are exactly the ones other than (4,m,1) and (4,2,2);
    (4,2,1) falls under the settled (4,m0,1) computation, so its l=0
    overlap with (4,2,2l+1) does not make it exceptional.  The Sp(2) lift
    vanishes: the principal isotropy group fixes only the normal geodesic.
    """
    violation = _classification_violation(action.g, action.m0, action.m1)
    if violation is not None:
        raise InvalidTriple(violation)
    a, b = sorted((action.m0, action.m1))
    if action.g == 4 and a != 1 and (a, b) != (2, 2):
        return Tangential.UNRESOLVED
    return Tangential.VANISHES


def strict_triples(max_m: int = 9, max_ell: int = 2) -> list[tuple[int, int, int]]:
    """Enumerate the classified triples with multiplicities <= max_m.

    Parametric g=4 families are truncated at ``max_ell``.  Pairs are emitted
    with m0 <= m1; validation is symmetric so the swapped order is equally
    valid.
    """
    max_m, max_ell = require_int("max_m", max_m, 0), require_int("max_ell", max_ell, 0)
    triples: list[tuple[int, int, int]] = []
    triples.extend((1, m, m) for m in range(1, max_m + 1))
    for m0 in range(1, max_m + 1):
        triples.extend((2, m0, m1) for m1 in range(m0, max_m + 1))
    triples.extend((3, m, m) for m in _G3_MULTS if m <= max_m)

    pairs = {tuple(sorted((m0, 1))) for m0 in range(1, max_m + 1)}
    if max_m >= 2:
        pairs.add((2, 2))
    for ell in range(1, max_ell + 1):
        if 2 * ell + 1 <= max_m:
            pairs.add((2, 2 * ell + 1))
    for ell in range(0, max_ell + 1):
        if max(4, 4 * ell + 3) <= max_m:
            pairs.add(tuple(sorted((4, 4 * ell + 3))))
    if max_m >= 5:
        pairs.add((4, 5))
    if max_m >= 9:
        pairs.add((6, 9))
    triples.extend((4, a, b) for a, b in sorted(pairs))

    triples.extend((6, m, m) for m in _G6_MULTS if m <= max_m)
    return triples
