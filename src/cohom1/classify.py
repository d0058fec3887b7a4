"""Which k-maps are harmonic, decided twice and cross-checked.

The closed-form criterion: a k-map of a (g,m0,m1)-action is harmonic

  on the sphere          iff k = 1, or (g = 2 and k = -1), or
                             (m0 = m1 and k = 1 - g),
  on the rotation group  iff k = 1 or (m0 = m1 and k = 1 - 2g),
  on Sp(2)               iff k in {1, -5}.

Independently, the linear function r(t) = k t solves the (G,M0,M1,k)
boundary value problem iff k = 1, or (G = 2 and k in {-1, 0}), or (M0 = M1
and k = 1 - G), or (G = 1 and M0 = M1 and k = -1); conjoined with a
vanishing tangential component this reproduces the closed-form answer on
the effective BVP parameters (G = g on spheres and Sp(2), G = 2g on
rotation groups) everywhere except one documented divergence: the stated
classification excludes k = -1 on g = 1 sphere actions although r = -t is
a linear solution there (its k-map is the equivariant reflection isometry;
the usual |k| <= g exclusion argument does not pin j to {0, -1} when
g = 1).  The tables are encoded verbatim and that verdict carries the
reason code "untabulated-reflection".  The G = 2, k = 0 linear solution
never meets the tables because k = 0 is not an admissible winding number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import actions, ode
from .actions import ActionDescriptor, Space, Tangential
from .errors import CohomError


def is_linear_solution(G: int, M0: int, M1: int, k: int) -> bool:
    """Does r(t) = k t solve the (G, M0, M1, k) boundary value problem?

    Complete over all integers k (checked against the brute-force residual
    oracle): besides k = 1, the G = 2 problems admit the reflection k = -1
    and the constant map k = 0 for any multiplicities, and equal
    multiplicities admit k = 1 - G, which for G = 1 is joined by the
    reflection k = -1.
    """
    if k == 1:
        return True
    if G == 2 and k in (-1, 0):
        return True
    return M0 == M1 and (k == 1 - G or (G == 1 and k == -1))


def oracle_scale(G: int, M0: int, M1: int, k: int) -> float:
    """Natural magnitude of the cleared-denominator ODE coefficients."""
    return 4.0 * G * (M0 + M1) * (1.0 + abs(k))


def linear_residual_oracle(
    G: int, M0: int, M1: int, k: int, samples: int = 64
) -> float:
    """Brute-force check of the linear candidate: max |closed tension| of
    r = k t over Chebyshev points of (0, pi/G).

    Open Chebyshev nodes never touch the singular endpoints, so no pole
    handling is needed.
    """
    if samples < 16:
        raise ValueError(f"need at least 16 sample points, got {samples}")
    spec = ode.BvpSpec(G=G, M0=M0, M1=M1, k=k)
    j = np.arange(samples)
    nodes = spec.length * 0.5 * (1.0 - np.cos((2 * j + 1) * math.pi / (2 * samples)))
    values = ode.closed_tension_grid(
        spec, nodes, k * nodes, np.full(samples, float(k)), np.zeros(samples)
    )
    return float(np.max(np.abs(values)))


@dataclass(frozen=True)
class HarmonicityVerdict:
    action: ActionDescriptor
    j: int
    k: int
    is_linear_solution: bool
    tangential: Tangential
    harmonic: bool
    degree: int
    reason: str

    def to_dict(self) -> dict:
        return {
            "action": self.action.to_dict(),
            "ambient": self.action.ambient,
            "j": self.j,
            "k": self.k,
            "is_linear_solution": self.is_linear_solution,
            "tangential": self.tangential.value,
            "harmonic": self.harmonic,
            "degree": self.degree,
            "reason": self.reason,
        }


def is_harmonic_k_map(action: ActionDescriptor, j: int) -> HarmonicityVerdict:
    """Full verdict for the j-th k-map of a classified action."""
    k = actions.admissible_k(action, j)
    g, m0, m1 = action.g, action.m0, action.m1

    if action.space is Space.SPHERE:
        harmonic = k == 1 or (g == 2 and k == -1) or (m0 == m1 and k == 1 - g)
    elif action.space is Space.ORTHOGONAL_GROUP:
        harmonic = k == 1 or (m0 == m1 and k == 1 - 2 * g)
    else:
        harmonic = k in (1, -5)

    linear = is_linear_solution(action.bvp_g, m0, m1, k)
    if k == 1:
        # The identity map is harmonic on any Riemannian manifold.
        tangential = Tangential.TRIVIALLY_IDENTITY
    else:
        tangential = actions.tangential_vanishes(action)

    # The two routes must agree except at the documented g=1 reflection,
    # which the tables omit; any other mismatch means the encoded data is
    # wrong.
    untabulated = action.space is Space.SPHERE and action.g == 1 and k == -1
    if harmonic != (
        linear and tangential is not Tangential.UNRESOLVED and not untabulated
    ):
        raise CohomError(
            f"classification tables and linear-solution route disagree for "
            f"{action.ambient} (g={g}, m0={m0}, m1={m1}), j={j}, k={k}: "
            f"tables say harmonic={harmonic}, linear solution={linear}, "
            f"tangential={tangential.value}"
        )

    if harmonic:
        reason = "identity-map" if k == 1 else "linear-solution"
    elif untabulated:
        reason = "untabulated-reflection"
    elif not linear:
        reason = "no-linear-solution"
    else:  # pragma: no cover - unreachable for classified triples
        reason = "tangential-unresolved"

    return HarmonicityVerdict(
        action=action,
        j=j,
        k=k,
        is_linear_solution=linear,
        tangential=tangential,
        harmonic=harmonic,
        degree=actions.degree_of_k_map(action, j),
        reason=reason,
    )


def classify_range(
    action: ActionDescriptor, jmin: int = -4, jmax: int = 4
) -> list[HarmonicityVerdict]:
    """One verdict per admissible j in [jmin, jmax]."""
    out = []
    for j in range(jmin, jmax + 1):
        if j % 2 != 0 and not action.odd_j_allowed:
            continue
        out.append(is_harmonic_k_map(action, j))
    return out


# The concrete harmonic self-maps highlighted for the rotation groups:
# (g, multiplicities m, j); all have k = 1 - 2g, i.e. j = -2, except the
# Sp(2) lift where k = -5 arises from j = -1.
_EXAMPLE_ROWS = (
    [(2, m, -2) for m in range(1, 7)]
    + [(3, m, -2) for m in (1, 2, 4, 8)]
    + [(4, m, -2) for m in (1, 2)]
    + [(6, m, -2) for m in (1, 2)]
)


def examples_table() -> list[HarmonicityVerdict]:
    """The table of new harmonic self-maps of the rotation groups and Sp(2)."""
    rows = []
    for g, m, j in _EXAMPLE_ROWS:
        action = actions.make_action(Space.ORTHOGONAL_GROUP, g, m, m)
        rows.append(is_harmonic_k_map(action, j))
    sp2 = actions.make_action(Space.SP2_LIFT, 6, 1, 1)
    rows.append(is_harmonic_k_map(sp2, -1))
    return rows


def format_table(verdicts: list[HarmonicityVerdict]) -> str:
    """Aligned plain-text rendering of a verdict list."""
    header = ("ambient", "g", "m0", "m1", "k", "harmonic", "degree", "reason")
    rows = [
        (
            v.action.ambient,
            str(v.action.g),
            str(v.action.m0),
            str(v.action.m1),
            str(v.k),
            "yes" if v.harmonic else "no",
            f"{v.degree:+d}",
            v.reason,
        )
        for v in verdicts
    ]
    widths = [
        max([len(header[c])] + [len(r[c]) for r in rows]) for c in range(len(header))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for r in rows:
        lines.append("  ".join(x.ljust(w) for x, w in zip(r, widths)).rstrip())
    return "\n".join(lines)
