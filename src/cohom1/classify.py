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
:func:`linear_residual_oracle` checks the linear rule exactly, in integers:
this module imports no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import actions
from .actions import ActionDescriptor, Space, Tangential
from .errors import CohomError, InadmissibleJ, int_as_float, require_int


def is_linear_solution(G: int, M0: int, M1: int, k: int) -> bool:
    """Does r(t) = k t solve the (G, M0, M1, k) boundary value problem?

    Complete over all integers k (for every classified G, tests/test_classify.py
    ``TestLinearRuleProof`` proves it by :func:`linear_residual_oracle`):
    besides k = 1, the G = 2 problems admit the reflection k = -1 and the
    constant map k = 0 for any multiplicities, and equal multiplicities
    admit k = 1 - G, which for G = 1 is joined by the reflection k = -1.
    """
    if k == 1:
        return True
    if G == 2 and k in (-1, 0):
        return True
    return M0 == M1 and (k == 1 - G or (G == 1 and k == -1))


def _checked(G, M0, M1, k) -> tuple[int, int, int, int]:
    """(G, M0, M1, k) as Python ints: G, M0 and M1 positive, k any integer."""
    return (require_int("G", G, 1), require_int("M0", M0, 1), require_int("M1", M1, 1),
            require_int("k", k))


def oracle_scale(G: int, M0: int, M1: int, k: int) -> float:
    """Natural magnitude of the cleared-denominator ODE coefficients,
    4 G (M0 + M1)(1 + |k|); ValueError naming k unless it is a finite float."""
    G, M0, M1, k = _checked(G, M0, M1, k)
    scale = 4.0 * G * (M0 + M1) * (1.0 + abs(int_as_float("k", k)))
    if not math.isfinite(scale):
        raise ValueError(f"k must keep 4 G (M0+M1)(1+|k|) finite, got k ~ {float(k):.6g}")
    return scale


def _sine_series(G: int, M0: int, M1: int, k: int) -> dict[int, int]:
    """{w: c_w}, w > 0, of :func:`linear_residual_oracle`'s series, merged
    with S(-w) = -S(w) and S(0) = 0; one (w, c) per term, a line per group."""
    s, d, c, f1 = M0 + M1, M0 - M1, 2 * (k - 1), G * (G - 2)
    series: dict[int, int] = {}
    for w, a in (
        (2 * G, 2 * k * G * s), (G, 4 * k * G * d),
        (c, -2 * f1 * s), (c + G, -f1 * d), (c - G, -f1 * d),
        (c + 2 * G, -2 * G * s), (c, -2 * G * s), (c + G, -4 * G * d),
    ):
        if w:
            series[abs(w)] = series.get(abs(w), 0) + (a if w > 0 else -a)
    return series


def linear_residual_oracle(G: int, M0: int, M1: int, k: int) -> int:
    """Exact check of r = kt: the sum of |c_w| over the integer sine series
    2N = sum c_w S(w) of its tension, where the product-to-sum rule gives

        2N = 2kGs S(2G) + 4kGd S(G) - f1 (2s S(c) + d S(c+G) + d S(c-G))
               - 2G (s S(c+2G) + s S(c) + 2d S(c+G)),

    S(w) = sin(wt), s = M0 + M1, d = M0 - M1, c = 2(k - 1), f1 = G(G - 2).
    Sines of distinct frequencies are independent on (0, pi/G), so the int
    is 0 iff r = kt solves the problem, and never below 2 max_t |N(t, kt)|.
    """
    return sum(map(abs, _sine_series(*_checked(G, M0, M1, k)).values()))


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
    j = require_int("j", j, error=InadmissibleJ)
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
    js = range(require_int("jmin", jmin), require_int("jmax", jmax) + 1)
    return [is_harmonic_k_map(action, j) for j in js if j % 2 == 0 or action.odd_j_allowed]


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
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    lines = ("  ".join(x.ljust(w) for x, w in zip(r, widths)).rstrip() for r in (header, *rows))
    return "\n".join(lines)
