"""Double shooting for the singular boundary value problems.

Both endpoints of [0, pi/G] are regular-singular: the leading coefficient
4 sin^2(Gt) vanishes there, and the smooth solution branch through each
endpoint is a one-parameter family r = a*t + c3(a)*t^3 + c5(a)*t^5 + ...,
odd about the endpoint (the linear-order terms of the ODE cancel for every
slope a, which is what makes the slope a free shooting parameter).  Each
c_n(a) is a polynomial in a with rational coefficients, and
:mod:`series` tabulates them exactly to order series.ORDER.  So integration
starts past the singular layer, at the largest offset pi/(16G) 2^-j, at
least eps0 or eps1, at which the table's last terms are negligible
(:func:`_start_offset`), and the two trajectories are matched in the
interior, where the problem is as well-conditioned as it gets.

Every solve, sweep and refinement does one thing per half: start it on the
branch at its offset (:func:`series_start`) and run an embedded
Dormand-Prince 5(4) pair from that start tuple, with PI-free step control
whose first step is the offset itself (the table showed the branch smooth
on that scale, :func:`_dp_start`), first-same-as-last reuse, a blow-up cap
that converts runaway trajectories into TrajectoryEscaped and a
step-underflow guard that raises IntegratorStall.  A half runs either
alone, on the one scalar step loop (:func:`_dp_run`, which records each
accepted step for dense output: a quartic in theta whose coefficients are
summed once per step and evaluated by Horner's rule, :func:`_dense_states`),
or in a lane batch that starts its own halves from the spec
(:func:`_integrate_lanes`), in the same operations and order per lane, so
each lane ends exactly as its scalar run would.  A lane batch step
evaluates the t-only part of the right-hand side (sines and cosines of Gt
and 2Gt; outside :func:`ode.regular_window` pole check and reduction) once
for its five stage times and each stage the (r, r') part.  The lanes left when
a batch thins out, or all of a small batch after its first derivative,
finish on the scalar loop from their state.  A scalar run carries a tangent
through its steps, which read (r, r') only: a half of a :func:`shoot` its
tangent in its slope (the variational equation, started from the derivative
of the series start), so Newton reads its Jacobian off the :class:`Shot`
values it makes, and every other run the zero tangent.  Where that
Jacobian's singular values are more than 1e6 apart, as on the (1,1,1,+-1)
family, Newton takes the minimum-norm step and stops on the gap; elsewhere
it stops on its own step.  Newton shoots its far iterates, a sweep its
lanes, and the refinement's seed search its halves, at seed accuracy
(:func:`_seed_config`).  Newton's one loop leaves seed accuracy at the
first iterate inside its switch, or at the step from one whose undamped
step predicts the next inside it; every converged gap comes from a shot at
the caller's tolerances, and its profile from that shot's step rows.  The
seed search traces the right half-curve with a coarse lane batch and then
bisects it, a batch per round, only where it can meet a left polyline
(:func:`_right_curve`).  Everything is plain-float arithmetic in a fixed
order, so identical inputs give bit-identical results on a fixed platform.
"""

from __future__ import annotations

import enum
import logging
import math
from contextlib import suppress
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import ode, series
from .errors import IntegratorStall, NoConvergence, TrajectoryEscaped
from .errors import is_real, require_int
from .ode import BvpSpec

GAP_TOL_FACTOR = 1e-9          # convergence: |gaps| <= GAP_TOL_FACTOR*(1+|k|)
MIN_PROFILE_POINTS = 257
DUPLICATE_SLOPE_TOL = 1e-6     # refined profiles this close in both slopes are one
_MAX_STEPS = 5_000_000
# Relative tolerance floor of seed accuracy (see _seed_config): of a sweep's
# lanes, of the seed search's halves and of solve's far iterates.  A bracket,
# a crossing or a far Newton iterate only seeds what follows, and ``solve``
# converges and integrates every profile at the caller's tolerances.
# Refining the 512-point (1,2,2,1) sweep over [0, 20] took 1.18M lane RHS
# evaluations with the halves at 1e-10 and 0.24M at 1e-6; over 48 grids the
# profiles and decisions stayed the same and isolated slopes moved by at
# most 8e-10.  Sweeping nine default-config grids ((1,2,2,1) on [0, 20],
# (1,2,2,0) on [0, 8] and the default grids of (2,1,3,1), (6,2,2,-5),
# (3,1,1,4), (1,3,3,1), (2,2,2,3), (1,1,1,1) and (1,3,3,0)) took 22.7 s at
# 1e-10 and 2.2 s at 1e-6 (2.2-18x per grid, one run each on a 2-core x86-64
# host); eight gave the same brackets and bit-identical refined profiles,
# and the (1,1,1,1) family kept 2 of its 4 brackets and 1 of its 2 members.
_SEED_REL_TOL = 1e-6
# solve's Newton loop leaves seed accuracy at an iterate with |gap| <=
# _SEED_SWITCH * _SEED_REL_TOL * (1+|k|), or one whose undamped step predicts
# the next there.  Over five draws of the 209 linear-solution problems from
# 5% off (k, k), factors 1, 10, 100 and 1000 took 1316, 1438, 1537 and 1963
# tangent RHS evaluations per solve against 2693 with every shot at the
# solution tolerance.  Factor 1 costs the default (1,1,1,1) refinement 395
# shots instead of 3, converging to another member of the family, and moves
# the (4,2,2,-3) solution by 2.9e-5; 100 keeps the refinement's seeds and
# shot count.
_SEED_SWITCH = 100.0
# Where the shot's Jacobian has sigma_min / sigma_max below this, Newton
# takes the minimum-norm step (u1.g / sigma_1) v1, since Cramer's step runs
# along the null direction and damping stalls, and stops on the gap, since
# the step says nothing of the error along that direction.  At the converged
# slopes of the seed 1-3 newton-recover draws of the 209 linear-solution
# problems the ratio was below 3.3e-10 on the (1,1,1,+-1) family, 1.4e-6 on
# the third-order root (4,2,2,-3) and 1.9e-3 to 1.0 on every other row;
# 1e-6, 1e-4 and 1e-3 gave the same 13 misses over the seed 1-10 draws.
_RANK_RATIO = 1e-6

_log = logging.getLogger("cohom1")


class Endpoint(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class ShootingConfig:
    """Knobs of the shooting procedure; defaults suit every classified case."""

    eps0: float = 1e-5          # least offset of a left start; the profile's first node
    eps1: float = 1e-5          # least offset of a right start; the profile's last node
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    match_point: float | None = None      # None -> pi/(2G)
    bracket: tuple[float, float] | None = None  # None -> [-4|k|-4, 4|k|+4]
    sweep_points: int = 512
    max_newton: int = 50
    blowup_cap: float = 1e6

    def __post_init__(self):
        # Numbers as Python floats, counts as Python ints: a float32 eps0 kept
        # every gap in single precision, and json writes no numpy scalar.
        # What is no number (a bool is none), or a count that is no int,
        # validate rejects.
        put = object.__setattr__
        for name in ("eps0", "eps1", "rel_tol", "abs_tol", "match_point", "blowup_cap"):
            if is_real(getattr(self, name)):
                put(self, name, float(getattr(self, name)))
        if isinstance(self.bracket, (tuple, list)) and all(map(is_real, self.bracket)):
            put(self, "bracket", tuple(map(float, self.bracket)))
        for name in ("sweep_points", "max_newton"):
            with suppress(ValueError):
                put(self, name, require_int(name, getattr(self, name)))

    def validate(self, spec: BvpSpec) -> None:
        for name in ("eps0", "eps1", "rel_tol", "abs_tol", "match_point", "blowup_cap"):
            value = getattr(self, name)
            if type(value) is not float and (name != "match_point" or value is not None):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        b = self.bracket
        if not (b is None or type(b) is tuple and len(b) == 2 and set(map(type, b)) == {float}):
            raise ValueError(f"bracket must be a pair of real numbers, got {b!r}")
        spec.boundary       # names k where k pi/G or twice it overflows
        # At t = pi/G the O(pi/G - t) terms cancel for every slope only if
        # the phase 2(k - 1)/G is an even integer: else no smooth branch ends there.
        if (spec.k - 1) % spec.G:
            raise ValueError(
                f"k={spec.k} has no smooth branch at the right endpoint of the G={spec.G} "
                f"problem: phase 2(k-1)/G = {2 * (spec.k - 1) / spec.G:g} is not an even integer"
            )
        quarter = spec.length / 4.0
        if not (0.0 < self.eps0 < quarter and 0.0 < self.eps1 < quarter):
            raise ValueError(
                f"eps0/eps1 must lie in (0, pi/(4G)) = (0, {quarter:g}), "
                f"got {self.eps0!r}, {self.eps1!r}"
            )
        for name in ("rel_tol", "abs_tol", "blowup_cap"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        match = self.resolved_match(spec)
        if not (self.eps0 < match < spec.length - self.eps1):
            raise ValueError(f"match point {match!r} outside the open domain")
        lo, hi = self.resolved_bracket(spec)
        if not -math.inf < lo < hi < math.inf:
            raise ValueError(f"bracket ({lo!r}, {hi!r}) must be finite and non-empty")
        if require_int("sweep_points", self.sweep_points) < 2:
            raise ValueError("sweep needs at least 2 grid points")
        require_int("max_newton", self.max_newton, 1)

    def resolved_match(self, spec: BvpSpec) -> float:
        return spec.length / 2.0 if self.match_point is None else self.match_point

    def resolved_bracket(self, spec: BvpSpec) -> tuple[float, float]:
        if self.bracket is None:
            w = 4.0 * abs(spec.k) + 4.0
            return (-w, w)
        return self.bracket

    def to_dict(self, spec: BvpSpec) -> dict:
        """The fields, match point and bracket resolved for spec."""
        d = asdict(self)
        d["match_point"] = self.resolved_match(spec)
        d["bracket"] = list(self.resolved_bracket(spec))
        return d


@dataclass(frozen=True)
class SolutionProfile:
    """A converged solution sampled on [eps0, pi/G - eps1].

    Of ``conditioning`` only the order of magnitude is meaningful, which is
    how Newton's minimum-norm rule reads it (below 1e-6): the tangent runs
    outside step control, so on a near-linear solution, whose steps are
    long, the Jacobian is coarse: against central differences at rel_tol
    1e-12 its relative error had median 4.4e-3 and maximum 2.7 at the
    converged slopes of the seed-1 newton-recover draws.
    """

    spec: BvpSpec
    samples: np.ndarray          # (n, 3) columns t, r, rdot
    slope0: float
    slope1: float
    match_gap: tuple[float, float]
    residual: float
    conditioning: float          # sigma_min / sigma_max of the accepted shot's Jacobian

    def max_linear_deviation(self) -> float:
        """max_t |r(t) - k t| over the samples."""
        t, r = self.samples[:, 0], self.samples[:, 1]
        return float(np.max(np.abs(r - self.spec.k * t)))

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("t,r,rdot\n")
            for t, r, v in self.samples:
                fh.write(f"{t:.17g},{r:.17g},{v:.17g}\n")

    def metadata(self, config: ShootingConfig) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "slope0": float(self.slope0),
            "slope1": float(self.slope1),
            "match_gap": [float(x) for x in self.match_gap],
            "residual": float(self.residual),
            "conditioning": float(self.conditioning),
            "samples": int(self.samples.shape[0]),
            "config": config.to_dict(self.spec),
        }


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of a single-ended sweep.

    ``sign_change`` flags a bracket between this grid point and its left
    neighbour.  Escaped trajectories carry gap = +/-inf by the sign of r at
    escape (a documented heuristic); a stalled integration carries NaN.
    """

    a: float
    sign_change: bool
    gap: float


@dataclass(frozen=True)
class Shot:
    """One :func:`shoot` from the slopes (a, b); per half, left then right,
    its series start and offset, :func:`_dp_run` step rows and end run
    state."""

    a: float
    b: float
    gap: tuple[float, float]    # (r, r') of the left half minus the right one
    norm: float                 # hypot(*gap)
    jac: tuple                  # ((dg0/da, dg0/db), (dg1/da, dg1/db))
    starts: tuple               # (t, r, v, x)
    rows: tuple                 # lists of step rows (see _dense_states)
    ends: tuple                 # (t, r, v, h, k1v, steps)


# Dormand-Prince 5(4) tableau.
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = (
    19372.0 / 6561.0,
    -25360.0 / 2187.0,
    64448.0 / 6561.0,
    -212.0 / 729.0,
)
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = (
    35.0 / 384.0,
    500.0 / 1113.0,
    125.0 / 192.0,
    -2187.0 / 6784.0,
    11.0 / 84.0,
)
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)

# Quartic dense-output weights w_s(theta) = sum_j P[s][j] * theta^(j+1).
# Columns sum to (1, 0, 0, 0), so constant-derivative (linear) solutions are
# interpolated exactly; row sums equal the propagation weights, so
# u(1) = y_new.
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
# The rows of _P for the stages of a step row (all but the zero row of k2),
# each P[s][j] shaped (4, 1, 1) against a stage's (r, v) rows over the steps
# in :func:`_dense_states`.
_P_STAGES = np.array((_P[0], *_P[2:]))[:, :, None, None]

_MIN_STEP = 1e-14
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 5.0
# Lanes left below which a batch finishes on the scalar loop.  On a shared
# 2-core x86-64 host, over the criterion-7 sweep's steps, a batch step took
# 0.31-0.58 ms at 16-32 lanes and 0.63-1.07 ms at 512, a scalar step 12-18
# us (three runs; the host's speed varied up to 2x between them).  Within a
# run a batch step at 16-32 lanes cost as much as 27-47 scalar steps, so a
# batch breaks even near 32 lanes; the criterion-7 refinement with a drain
# at 24, 40 or 48 lanes was not measurably faster than at 32.
_DRAIN_LANES = 32
# Stage-time nodes of a lane batch step, as a column: t + _STAGE_C * h.
_STAGE_C = np.array([_C2, _C3, _C4, _C5, 1.0])[:, None]


def _dp_start(accel, start: tuple, t_end: float, x: float) -> tuple:
    """Initial run state (t, r, v, h, k1v, steps, p, q, k1q) of a DP5(4) run
    to t_end from a start (t0, r0, v0, p0, q0) an offset x off its endpoint,
    as :func:`series_start` gives it, with ``accel`` in the tangent call form
    of :func:`ode.rhs`: (p, q, k1q) are the tangent (dr, dv) and its first
    derivative.  The first step is x toward t_end, at most the whole span:
    the branch table's tail is negligible out to x (:func:`_start_offset`),
    so the solution varies on that scale and step control starts there
    rather than climbing to it from a fixed small step."""
    t0, r0, v0, p0, q0 = start
    direction = 1.0 if t_end >= t0 else -1.0
    h = direction * min(x, abs(t_end - t0))
    k1v, k1q = accel(t0, r0, v0, p0, q0)
    return (t0, r0, v0, h, k1v, 0, p0, q0, k1q)


def _zero_tangent(accel):
    """``accel(t, r, v)`` in the tangent call form, carrying the zero tangent."""
    return lambda t, r, v, dr, dv: (accel(t, r, v), 0.0)


def _dp_run(accel, state: tuple, t_end: float, config, record=None) -> tuple:
    """The DP5(4) step loop, from a run state (see :func:`_dp_start`) to the
    state at t_end, with the tolerances and blow-up cap of ``config``.

    The tangent (p, q) runs through the same stages and steps as (r, v), so
    it ends as the derivative of the discrete solution along the start
    tangent.  Step control, error norm and blow-up test read (r, v) only, so
    (r, v) end bit-identical whatever the tangent; a run that needs none
    carries the zero tangent (:func:`_zero_tangent`).  The first-same-as-last
    derivatives k1r and k1p are v and q, so they are not stored.  For each
    accepted step ``record``, if given, gains the row (t, h, r, v, k1r, k1v,
    k3r, k3v, ..., k7r, k7v) that :func:`_dense_states` interpolates in.
    """
    t, r, v, h, k1v, steps, p, q, k1q = state
    rel_tol, abs_tol, blowup_cap = config.rel_tol, config.abs_tol, config.blowup_cap
    k1r, k1p = v, q
    sqrt = math.sqrt
    direction = 1.0 if t_end >= t else -1.0

    while (t_end - t) * direction > 0.0:
        if (t + h - t_end) * direction > 0.0:
            h = t_end - t

        tr = r + h * _A21 * k1r
        tv = v + h * _A21 * k1v
        tp = p + h * _A21 * k1p
        tq = q + h * _A21 * k1q
        k2v, k2q = accel(t + _C2 * h, tr, tv, tp, tq)
        k2r, k2p = tv, tq
        tr = r + h * (_A31 * k1r + _A32 * k2r)
        tv = v + h * (_A31 * k1v + _A32 * k2v)
        tp = p + h * (_A31 * k1p + _A32 * k2p)
        tq = q + h * (_A31 * k1q + _A32 * k2q)
        k3v, k3q = accel(t + _C3 * h, tr, tv, tp, tq)
        k3r, k3p = tv, tq
        tr = r + h * (_A41 * k1r + _A42 * k2r + _A43 * k3r)
        tv = v + h * (_A41 * k1v + _A42 * k2v + _A43 * k3v)
        tp = p + h * (_A41 * k1p + _A42 * k2p + _A43 * k3p)
        tq = q + h * (_A41 * k1q + _A42 * k2q + _A43 * k3q)
        k4v, k4q = accel(t + _C4 * h, tr, tv, tp, tq)
        k4r, k4p = tv, tq
        tr = r + h * (_A51 * k1r + _A52 * k2r + _A53 * k3r + _A54 * k4r)
        tv = v + h * (_A51 * k1v + _A52 * k2v + _A53 * k3v + _A54 * k4v)
        tp = p + h * (_A51 * k1p + _A52 * k2p + _A53 * k3p + _A54 * k4p)
        tq = q + h * (_A51 * k1q + _A52 * k2q + _A53 * k3q + _A54 * k4q)
        k5v, k5q = accel(t + _C5 * h, tr, tv, tp, tq)
        k5r, k5p = tv, tq
        tr = r + h * (_A61 * k1r + _A62 * k2r + _A63 * k3r + _A64 * k4r + _A65 * k5r)
        tv = v + h * (_A61 * k1v + _A62 * k2v + _A63 * k3v + _A64 * k4v + _A65 * k5v)
        tp = p + h * (_A61 * k1p + _A62 * k2p + _A63 * k3p + _A64 * k4p + _A65 * k5p)
        tq = q + h * (_A61 * k1q + _A62 * k2q + _A63 * k3q + _A64 * k4q + _A65 * k5q)
        k6v, k6q = accel(t + h, tr, tv, tp, tq)
        k6r, k6p = tv, tq
        r_new = r + h * (_B1 * k1r + _B3 * k3r + _B4 * k4r + _B5 * k5r + _B6 * k6r)
        v_new = v + h * (_B1 * k1v + _B3 * k3v + _B4 * k4v + _B5 * k5v + _B6 * k6v)
        p_new = p + h * (_B1 * k1p + _B3 * k3p + _B4 * k4p + _B5 * k5p + _B6 * k6p)
        q_new = q + h * (_B1 * k1q + _B3 * k3q + _B4 * k4q + _B5 * k5q + _B6 * k6q)
        t_new = t + h
        k7v, k7q = accel(t_new, r_new, v_new, p_new, q_new)
        k7r, k7p = v_new, q_new

        err_r = h * (_E1 * k1r + _E3 * k3r + _E4 * k4r + _E5 * k5r + _E6 * k6r + _E7 * k7r)
        err_v = h * (_E1 * k1v + _E3 * k3v + _E4 * k4v + _E5 * k5v + _E6 * k6v + _E7 * k7v)
        # max(a, b) and min(a, b) as the builtins compute them, without the
        # calls: b if b > a else a, and b if b < a else a.
        a, b = abs(r), abs(r_new)
        sc_r = abs_tol + rel_tol * (b if b > a else a)
        a, b = abs(v), abs(v_new)
        sc_v = abs_tol + rel_tol * (b if b > a else a)
        e0, e1 = err_r / sc_r, err_v / sc_v
        err = sqrt(0.5 * (e0 * e0 + e1 * e1))

        if err <= 1.0:
            if record is not None:
                record.append((t, h, r, v, k1r, k1v, k3r, k3v, k4r, k4v, k5r, k5v, k6r, k6v,
                               k7r, k7v))
            t, r, v, p, q = t_new, r_new, v_new, p_new, q_new
            k1r, k1v, k1p, k1q = k7r, k7v, k7p, k7q
            if abs(r) > blowup_cap or abs(v) > blowup_cap:
                raise TrajectoryEscaped(t, r, v)
            factor = _SAFETY * err ** -0.2 if err > 0.0 else _MAX_FACTOR
        else:
            if not (err == err):  # NaN: shrink hard
                factor = _MIN_FACTOR
            else:
                factor = _SAFETY * err ** -0.2
        factor = factor if factor > _MIN_FACTOR else _MIN_FACTOR
        h *= factor if factor < _MAX_FACTOR else _MAX_FACTOR
        # a clipped last step of an ulp can leave h below _MIN_STEP at t_end
        if abs(h) < _MIN_STEP and (t_end - t) * direction > 0.0:
            raise IntegratorStall(t)
        steps += 1
        if steps > _MAX_STEPS:
            raise IntegratorStall(t, detail="step budget exhausted")
    return t, r, v, h, k1v, steps, p, q, k1q


def _dense_states(runs) -> np.ndarray:
    """(n, 3) array of (t, r, v) at the nodes of each pair (steps, nodes)
    of ``runs``, in order: the step rows that :func:`_dp_run` recorded for
    one run, and nodes sorted in its direction.

    A node belongs to the first step of its run whose end t + h reaches it,
    ties included, as the step loop meets it, and has theta = (node - t) / h.
    The quartic interpolant u = y + h * sum_s w_s(theta) k_s is
    y + theta (d0 + theta (d1 + theta (d2 + theta d3))), where
    d_j = h * sum_s P[s][j] k_s.  Each recorded step's d_j are summed once,
    stage by stage, and each node takes Horner's rule in theta, all with
    elementwise IEEE arithmetic in the operations and order of a per-node
    scalar loop, so the two agree bit for bit.
    """
    rows = np.array([row for steps, _ in runs for row in steps]).T     # a column per step
    k = rows[4:].reshape(6, 1, 2, -1)       # stage, then the rows r, v
    d = _P_STAGES[0] * k[0]
    for s in range(1, 6):
        d = d + _P_STAGES[s] * k[s]
    # per step: t, h, r, v, then d_j for r and for v, j = 0 .. 3
    table = np.concatenate((rows[:4], (rows[1] * d).reshape(8, -1)))
    picked, first = [], 0
    for steps, nodes in runs:
        t, h = rows[:2, first:first + len(steps)]
        sign = 1.0 if h[0] > 0.0 else -1.0
        picked.append(first + np.searchsorted(sign * (t + h), sign * nodes))
        first += len(steps)
    nodes = np.concatenate([nodes for _, nodes in runs])
    per_node = table.take(np.concatenate(picked), axis=1)     # its step's column
    th = (nodes - per_node[0]) / per_node[1]
    d = per_node[4:].reshape(4, 2, -1)
    u = d[3] * th + d[2]
    u = u * th + d[1]
    u = u * th + d[0]
    r, v = per_node[2:4] + u * th
    return np.column_stack((nodes, r, v))


def _integrate_lanes(spec, config, endpoint: Endpoint, slopes, t_end: float) -> list:
    """The halves started (:func:`_lane_starts`) from ``endpoint`` with each
    of ``slopes``, each run by :func:`_dp_run` from :func:`_dp_start` to
    t_end, as one lane batch: each lane's first step is its own start
    offset x, at most its span, as a scalar run's.

    The lanes advance together as numpy arrays, each with its own t, h and
    accept/reject decision, through the scalar loop's operations in the
    same order, on the (time, state) pair of :func:`ode._rhs_lanes`; each
    lane starts with the batch and counts its every step, so one int counts
    them.  Each batch step evaluates the time part once, over its stage
    times t + c*h for c in (C2, C3, C4, C5, 1), and each of its six stages
    the state part; the last stage reuses the row of t + h.  A lane leaves
    the batch where the scalar loop would raise or return.  Once fewer than
    _DRAIN_LANES are left, the rest finish on the scalar loop from their
    current state, with the zero tangent and :func:`ode.rhs` as looked up
    at the call (:func:`_zero_tangent`), so a smaller batch takes only its
    first derivative on lanes.
    Returns one outcome per lane, identical to the scalar run's: its final
    (r, v), or the TrajectoryEscaped or IntegratorStall the run raised.
    """
    t, r0, v0, x = _lane_starts(spec, config, endpoint, np.asarray(slopes, dtype=float))
    accel, (time_part, state_part) = _zero_tangent(ode.rhs(spec)), ode._rhs_lanes(spec)
    n = len(r0)
    out: list = [None] * n
    direction = np.where(t_end >= t, 1.0, -1.0)
    lane = np.arange(n)
    steps = 0
    # Escaping lanes overflow and produce NaN as the scalar floats do, silently.
    with np.errstate(all="ignore"):

        def stage(parts, ty):
            return np.array([ty[1], state_part(parts, ty[0], ty[1])])

        # the first derivative and step of _dp_start, lane by lane
        h = direction * np.minimum(x, np.abs(t_end - t))
        y, k1 = np.array([r0, v0]), np.array([v0, state_part(time_part(t), r0, v0)])  # rows r, v
        while len(lane) >= _DRAIN_LANES:
            h = np.where((t + h - t_end) * direction > 0.0, t_end - t, h)
            stage_t = t + _STAGE_C * h
            p2, p3, p4, p5, p6 = zip(*time_part(stage_t))
            hy = np.array([h, h])      # h in the shape of y: no broadcast per product
            k2 = stage(p2, y + hy * _A21 * k1)
            k3 = stage(p3, y + hy * (_A31 * k1 + _A32 * k2))
            k4 = stage(p4, y + hy * (_A41 * k1 + _A42 * k2 + _A43 * k3))
            k5 = stage(p5, y + hy * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
            k6 = stage(
                p6, y + hy * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5)
            )
            y_new = y + hy * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
            t_new = stage_t[4]
            k7 = stage(p6, y_new)

            e = hy * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
            e /= config.abs_tol + config.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
            err = np.sqrt(0.5 * (e[0] * e[0] + e[1] * e[1]))

            ok = err <= 1.0
            t = np.where(ok, t_new, t)
            y = np.where(ok, y_new, y)
            k1 = np.where(ok, k7, k1)
            escaped = ok & (np.abs(y) > config.blowup_cap).any(axis=0)
            # err == 0 can only be accepted and NaN only rejected.  np.power
            # is SIMD and not libm; np.float_power calls libm pow, as the
            # scalar err ** -0.2 does.
            pos = err > 0.0
            factor = np.where(err == 0.0, _MAX_FACTOR, _MIN_FACTOR)
            factor[pos] = _SAFETY * np.float_power(err[pos], -0.2)
            h = h * np.minimum(_MAX_FACTOR, np.maximum(_MIN_FACTOR, factor))
            before = (t_end - t) * direction > 0.0
            stalled = (np.abs(h) < _MIN_STEP) & before
            steps += 1
            spent = steps > _MAX_STEPS
            leave = escaped | stalled | spent | ~before
            if not leave.any():
                continue
            for j in np.flatnonzero(leave).tolist():
                tj, rj, vj = float(t[j]), float(y[0, j]), float(y[1, j])
                if escaped[j]:
                    out[lane[j]] = TrajectoryEscaped(tj, rj, vj)
                elif stalled[j]:
                    out[lane[j]] = IntegratorStall(tj)
                elif spent:
                    out[lane[j]] = IntegratorStall(tj, detail="step budget exhausted")
                else:
                    out[lane[j]] = (rj, vj)
            keep = ~leave
            lane, t, y, h, k1 = lane[keep], t[keep], y[:, keep], h[keep], k1[:, keep]
            direction = direction[keep]
    for j, i in enumerate(lane.tolist()):
        state = (
            float(t[j]), float(y[0, j]), float(y[1, j]),
            float(h[j]), float(k1[1, j]), steps, 0.0, 0.0, 0.0,
        )
        try:
            out[i] = _dp_run(accel, state, t_end, config)[1:3]
        except (TrajectoryEscaped, IntegratorStall) as exc:
            out[i] = exc
    return out


def _end(spec: BvpSpec, endpoint: Endpoint) -> tuple:
    """(sigma, t_b, r_b, table) of the branch through ``endpoint``: the
    side sigma, the base point and the :func:`series.table` of the end's
    multiplicities.  -0.0 + x is x for every x, signed zeros included,
    where 0.0 + x is not.  ValueError unless endpoint is an
    :class:`Endpoint` and, at the right end, ``spec.boundary`` takes k."""
    if endpoint is Endpoint.LEFT:
        return 1.0, -0.0, -0.0, series.table(spec.G, spec.M0, spec.M1)
    if endpoint is Endpoint.RIGHT:
        return -1.0, spec.length, spec.boundary[1], series.table(spec.G, spec.M1, spec.M0)
    raise ValueError(f"endpoint must be an Endpoint, got {endpoint!r}")


def _lane_starts(spec: BvpSpec, config, endpoint: Endpoint, slopes: np.ndarray) -> tuple:
    """(t, r, rdot, x) arrays of the starts of the halves from ``endpoint``
    with ``slopes``: each lane's :func:`series_start` at its offset x, the
    :func:`_start_offset`, bit for bit, by numpy."""
    sigma, t_b, r_b, tab = _end(spec, endpoint)
    x = series.offsets(tab, slopes, *_reach(spec, config, endpoint))
    s, v = series.starts(tab, slopes, x)
    return t_b + sigma * x, r_b + sigma * s, v, x


def series_start(spec: BvpSpec, endpoint: Endpoint, slope: float, eps: float) -> tuple:
    """Smooth-branch starting data (t, r, rdot, dr, drdot) an offset eps off
    an endpoint, with (dr, drdot) = d(r, rdot)/d(slope).

    It evaluates the exact Taylor table of the branch (:mod:`series`) to
    order series.ORDER and calls no right-hand side.  ValueError unless
    endpoint is an :class:`Endpoint`, slope is finite, 0 < eps < pi/(4G)
    and, at the right end, ``spec.boundary`` takes k.
    """
    sigma, t_b, r_b, tab = _end(spec, endpoint)
    if not -math.inf < slope < math.inf:
        raise ValueError(f"slope must be finite, got {slope!r}")
    if not 0.0 < eps < spec.length / 4.0:
        raise ValueError(f"eps must lie in (0, pi/(4G)) for G={spec.G}, got {eps!r}")
    s, v, ds, dv = series.start(tab, slope, eps)
    return t_b + sigma * eps, r_b + sigma * s, v, sigma * ds, dv


def _reach(spec: BvpSpec, config, endpoint: Endpoint) -> tuple[float, float]:
    """(eps, limit) of the start offsets of the halves from ``endpoint``:
    its config offset and an eighth of its distance to the match point."""
    match = config.resolved_match(spec)
    if endpoint is Endpoint.LEFT:
        return config.eps0, match / 8.0
    return config.eps1, (spec.length - match) / 8.0


def _start_offset(spec: BvpSpec, config, endpoint: Endpoint, slope: float) -> float:
    """Offset of the start of the half from ``endpoint`` with ``slope``:
    the largest pi/(16G) 2^-j, at most an eighth of the way to the match
    point, at which the last two terms of the branch's slope series meet
    series.TAIL_TOL (:func:`series.offset`), and at least the config's
    eps0 or eps1."""
    return series.offset(_end(spec, endpoint)[3], slope, *_reach(spec, config, endpoint))


def shoot(spec: BvpSpec, config: ShootingConfig, a: float, b: float) -> Shot:
    """The :class:`Shot` of the trajectories started from the left with
    slope a and from the right with slope b, matched at the match point.

    Each half carries its tangent with respect to its own slope (the
    variational equation, started from the derivative of its series start
    and integrated by the same DP5(4) steps), so ``jac`` is the Jacobian of
    the discrete gap, whose columns are the left tangent and minus the
    right one.  Step control reads (r, v) only, so the gap, the step rows
    and the end states are those of the halves with the zero tangent.  The
    left half runs before the right one.  Each half starts at its
    :func:`_start_offset` from its endpoint.  ValueError for a non-finite
    slope.
    """
    config.validate(spec)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"slopes a, b must be finite, got ({a!r}, {b!r})")
    match = config.resolved_match(spec)
    accel = ode.rhs_tangent(spec)
    halves = []
    for endpoint, slope in ((Endpoint.LEFT, a), (Endpoint.RIGHT, b)):
        eps = _start_offset(spec, config, endpoint, slope)
        start, rows = series_start(spec, endpoint, slope, eps), []
        *end, p, q, _ = _dp_run(accel, _dp_start(accel, start, match, eps), match, config, rows)
        halves.append(((*start[:3], eps), rows, tuple(end), (end[1], end[2], p, q)))
    starts, rows, ends, ((rl, vl, pl, ql), (rr, vr, pr, qr)) = zip(*halves)
    gap = (rl - rr, vl - vr)
    return Shot(a, b, gap, math.hypot(*gap), ((pl, -pr), (ql, -qr)), starts, rows, ends)


def _singular_values(jac) -> tuple[float, float, tuple[float, float]]:
    """(sigma_max, sigma_min, v) of a 2x2 matrix ``jac``, v the unit right
    singular vector of sigma_max: the top eigenpair of J^T J in closed
    form, and sigma_min = |det J| / sigma_max (0 if sigma_max is)."""
    (a, b), (c, d) = jac
    p, q, s = a * a + c * c, a * b + c * d, b * b + d * d
    half = 0.5 * (p - s)
    top = math.sqrt(0.5 * (p + s) + math.hypot(half, q))
    theta = 0.5 * math.atan2(q, half)
    bottom = abs(a * d - b * c) / top if top > 0.0 else 0.0
    return top, bottom, (math.cos(theta), math.sin(theta))


def _seed_config(config: ShootingConfig) -> ShootingConfig:
    """``config`` at seed accuracy: rel_tol raised to at least
    _SEED_REL_TOL and abs_tol scaled by the same factor; ``config`` itself
    if its rel_tol is already that coarse."""
    if config.rel_tol >= _SEED_REL_TOL:
        return config
    return replace(
        config, rel_tol=_SEED_REL_TOL, abs_tol=config.abs_tol * (_SEED_REL_TOL / config.rel_tol)
    )


def solve(
    spec: BvpSpec,
    config: ShootingConfig | None = None,
    init: tuple[float, float] | None = None,
    profile_points: int = 513,
) -> SolutionProfile:
    """Damped-Newton double shooting on the endpoint slopes (a, b).

    Starts from ``init`` or from the linear candidate (k, k).  Each iterate
    is a :class:`Shot`, whose halves carry their tangents (see :func:`shoot`),
    so its Jacobian comes from the shot that produced it, with no extra
    integration.  The full Newton step is the minimum-norm one where the
    Jacobian's sigma_min / sigma_max is below _RANK_RATIO, else Cramer's;
    it is halved up to 20 times until the gap norm decreases, and an escape
    or stall of a trial counts as a trial that did not decrease it.

    One loop runs over the iterates.  They are shot at seed accuracy
    (:func:`_seed_config`) until one has gap norm at most the switch
    _SEED_SWITCH * _SEED_REL_TOL * (1 + |k|), whose slopes are shot again at
    ``config``, or an undamped step from norm n' to n predicts n (n/n')^2
    (Newton's quadratic contraction) at most the switch, whose next step
    is shot at ``config``.  An escape or stall of the first shot, a singular
    Jacobian, failed damping or the iteration cap at seed accuracy shoots
    the last slopes again at ``config``; with config.rel_tol >=
    _SEED_REL_TOL every shot is at ``config``.  Newton stops at an iterate
    shot at ``config`` with gap norm at most GAP_TOL_FACTOR * (1 + |k|): on
    the gap if its Jacobian is rank-deficient, on the step if the full
    step's max |delta| is within that tolerance too (a gap just inside it
    can leave the residual above 1e-6 at large G), and it keeps such an
    iterate where the cap forbids its step or no trial lowers its norm.
    ``config.max_newton`` caps the iterations at both accuracies together.
    So every converged gap and every failure comes from a shot at
    ``config``.  One DEBUG line on the ``cohom1`` logger gives the shots at
    each accuracy, the hand-over reason (a seed-accuracy exception or the
    predicted norm) if any, and the exception or the iterations and the
    stop: on the step with its max |delta|, on the gap with the rank ratio,
    or the iterate kept, and why.

    On convergence the profile is sampled at max(profile_points,
    MIN_PROFILE_POINTS) nodes from the steps of the shot Newton accepted
    (:func:`_dense_profile`), and the interior residual is measured by
    finite-difference reconstruction of r''.

    Raises ValueError for an invalid config, an ``init`` that is no pair of
    finite real numbers or a ``profile_points`` that is no integer, and
    NoConvergence (with the final gaps and iterate), TrajectoryEscaped or
    IntegratorStall.
    """
    config = config or ShootingConfig()
    config.validate(spec)
    profile_points = require_int("profile_points", profile_points)
    k = spec.k
    init = (k, k) if init is None else init
    pair = isinstance(init, (tuple, list)) and len(init) == 2 and all(map(is_real, init))
    if not (pair and all(map(math.isfinite, init))):
        raise ValueError(f"init must be a pair of finite real numbers, got {init!r}")
    a, b = map(float, init)
    seed = _seed_config(config)
    tol = GAP_TOL_FACTOR * (1.0 + abs(k))
    switch = _SEED_SWITCH * _SEED_REL_TOL * (1.0 + abs(k))
    shots = [0, 0]      # at seed accuracy, at config

    def shot(cfg, a, b):
        shots[cfg is config] += 1
        return shoot(spec, cfg, a, b)

    def direction(iterate):
        """(delta, ratio): the full Newton step (da, db) from ``iterate``
        and its Jacobian's sigma_min / sigma_max, the minimum-norm step
        where the ratio is below _RANK_RATIO, else Cramer's; delta None and
        ratio 0 at a zero or non-finite Jacobian."""
        gap, ((j00, j01), (j10, j11)) = iterate.gap, iterate.jac
        top, bottom, (v0, v1) = _singular_values(iterate.jac)
        if not 0.0 < top < math.inf:
            return None, 0.0
        if (ratio := bottom / top) < _RANK_RATIO:
            w = (v0 * (j00 * gap[0] + j10 * gap[1]) + v1 * (j01 * gap[0] + j11 * gap[1]))
            w /= top * top
            return (w * v0, w * v1), ratio
        det = j00 * j11 - j01 * j10
        return ((j11 * gap[0] - j01 * gap[1]) / det, (j00 * gap[1] - j10 * gap[0]) / det), ratio

    def step(cfg, iterate, delta):
        """The first of the trials iterate - lam * delta, lam = 1, 1/2, ...
        1/2^19, shot at cfg, whose gap norm is below the iterate's, and its
        lam; (None, 0.0) if none is."""
        (a, b), (da, db) = (iterate.a, iterate.b), delta
        for j in range(20):
            lam = 0.5 ** j
            with suppress(TrajectoryEscaped, IntegratorStall):
                trial = shot(cfg, a - lam * da, b - lam * db)
                if trial.norm < iterate.norm:
                    return trial, lam
        return None, 0.0

    cfg, iterate, previous, iterations, handover, outcome = seed, None, None, 0, "none", None
    while True:
        try:
            if iterate is None:
                iterate = shot(cfg, a, b)
            a, b, norm = iterate.a, iterate.b, iterate.norm
            if cfg is not config and norm <= switch:
                cfg, iterate = config, None         # its slopes, shot again at config
                continue
            delta, ratio = direction(iterate)
            inside = cfg is config and norm <= tol
            if inside and (ratio < _RANK_RATIO or max(map(abs, delta)) <= tol):
                stop = (f"stopped on the gap: rank ratio {ratio:.3g}" if ratio < _RANK_RATIO
                        else f"stopped on the step: max|delta| {max(map(abs, delta)):.3g}")
                break
            if iterations < config.max_newton and delta is not None:
                at, predicted = cfg, math.inf if previous is None else norm * (norm / previous) ** 2
                if cfg is not config and predicted <= switch:
                    at, handover = config, f"predicted |gap| {predicted:.3g}"
                trial, lam = step(at, iterate, delta)
                if trial is not None:
                    iterate, cfg, iterations = trial, at, iterations + 1
                    previous = norm if lam == 1.0 else None
                    continue
            why = ("iteration cap reached" if iterations >= config.max_newton else
                   "singular jacobian" if delta is None else "damping failed to reduce gap")
            if not inside:
                raise NoConvergence(iterate.gap, (a, b), iterations, why)
            stop = f"kept the iterate: {why}"
            break
        except (NoConvergence, TrajectoryEscaped, IntegratorStall) as exc:
            if cfg is config:
                outcome = exc
                break
            cfg, iterate, handover = config, None, exc
    _log.debug(
        "solve: %d shots at seed rel_tol %g, %d at rel_tol %g; hand-over: %s; %s",
        shots[0], seed.rel_tol, shots[1], config.rel_tol, handover,
        outcome or f"converged in {iterations} iterations, {stop}",
    )
    if outcome is not None:
        raise outcome
    return _dense_profile(spec, config, iterate, max(profile_points, MIN_PROFILE_POINTS))


def _dense_profile(spec, config, shot: Shot, n_points) -> SolutionProfile:
    """Sample the converged solution on a uniform grid.

    ``shot`` is the :class:`Shot` at its slopes and ``config``, so the
    profile depends on (shot.a, shot.b, config) alone.  Each half continues
    from its end at the match point across the blend window, with the zero
    tangent (:func:`_zero_tangent`), and both are sampled in one pass of
    their step interpolants (:func:`_dense_states`), smooth whatever the steps.
    The nodes between an end's eps and its half's start take the series
    of the half's branch (:func:`series.nodes`).

    The two shooting halves are joined with a C^2 blend over an interior
    overlap window rather than butted at a single node: the converged match
    gap, although below tolerance, would otherwise enter the sampled data
    as a kink that finite differencing amplifies by 1/h^2.  Both halves
    solve the ODE, so the blend's residual is of order gap / window^2.
    """
    accel = _zero_tangent(ode.rhs(spec))
    match = config.resolved_match(spec)
    L = spec.length
    span = L - config.eps0 - config.eps1
    half_w = min(0.15 * span, 0.8 * (match - config.eps0), 0.8 * (L - config.eps1 - match))
    lo, hi = match - half_w, match + half_w
    nodes = np.linspace(config.eps0, L - config.eps1, n_points)
    i, j = nodes.searchsorted(hi, "right"), nodes.searchsorted(lo)  # nodes[j:i] overlap
    (t_left, *_), (t_right, *_) = shot.starts
    # nodes[:first] and nodes[last:] lie between an end's eps and its start
    first, last = nodes.searchsorted(t_left, "right"), nodes.searchsorted(t_right)
    runs = []
    for (*_, x), rows, (t, r, v, h, k1v, n), t_end, half in zip(
        shot.starts, shot.rows, shot.ends, (hi, lo), (nodes[first:i], nodes[j:last][::-1])
    ):
        # a last step clipped to the match point can leave h short, even
        # below _MIN_STEP: the continuation steps at least as _dp_start would
        h = math.copysign(max(abs(h), min(x, abs(t_end - t))), h)
        steps = [*rows]
        _dp_run(accel, (t, r, v, h, k1v, n, 0.0, 0.0, 0.0), t_end, config, steps)
        runs.append((steps, half))
    dense = _dense_states(runs)
    left, right = dense[:i - first], dense[i - first:][::-1]     # nodes[first:i], nodes[j:last]

    samples = np.empty((n_points, 3))
    for endpoint, slope, part in ((Endpoint.LEFT, shot.a, np.s_[:first]),
                                  (Endpoint.RIGHT, shot.b, np.s_[last:])):
        sigma, t_b, r_b, tab = _end(spec, endpoint)
        x = sigma * (nodes[part] - t_b)
        s, v = series.nodes(tab, slope, x)
        samples[part] = np.column_stack((nodes[part], r_b + sigma * s, v))
    samples[first:j] = left[:j - first]
    samples[i:last] = right[i - j:]
    lseg, rseg = left[j - first:], right[:i - j]
    x = (lseg[:, 0] - lo) / (hi - lo)
    s = x * x * x * (10.0 + x * (-15.0 + 6.0 * x))     # smootherstep
    ds = 30.0 * x * x * (1.0 + x * (-2.0 + x)) / (hi - lo)
    w, dw = 1.0 - s, -ds
    samples[j:i, 0] = lseg[:, 0]
    samples[j:i, 1] = w * lseg[:, 1] + (1 - w) * rseg[:, 1]
    samples[j:i, 2] = w * lseg[:, 2] + (1 - w) * rseg[:, 2] + dw * (lseg[:, 1] - rseg[:, 1])

    residual = ode.residual_norm(spec, samples)[0]
    top, bottom, _ = _singular_values(shot.jac)
    return SolutionProfile(
        spec=spec,
        samples=samples,
        slope0=shot.a,
        slope1=shot.b,
        match_gap=shot.gap,
        residual=residual,
        conditioning=bottom / top if top > 0.0 else 0.0,
    )


def sweep(spec: BvpSpec, config: ShootingConfig | None = None) -> list[SweepPoint]:
    """Single-ended slope sweep over the bracket grid, as one lane batch.

    Its lanes start as the left halves of a :func:`shoot` at ``config``
    do.

    A sweep only brackets, so its lanes run at seed accuracy
    (:func:`_seed_config`; a config with rel_tol >= _SEED_REL_TOL runs as
    given).  Each gap is the mismatch at pi/G - eps1, with the boundary
    target linearised by the trajectory's own terminal slope, and equals
    the scalar one-point integration at the seed config bit for bit.  An
    escape gives +/-inf by the sign of r at escape, a stall NaN.  One DEBUG
    line on the ``cohom1`` logger gives the lanes, their rel_tol and how
    many arrived, escaped to +inf or -inf, or stalled.
    """
    config = config or ShootingConfig()
    config.validate(spec)
    seed = _seed_config(config)
    lo, hi = config.resolved_bracket(spec)
    grid = np.linspace(lo, hi, config.sweep_points)
    outcomes = _integrate_lanes(spec, seed, Endpoint.LEFT, grid, spec.length - config.eps1)
    gaps = []
    for outcome in outcomes:
        if isinstance(outcome, TrajectoryEscaped):
            gaps.append(math.copysign(math.inf, outcome.r if outcome.r != 0.0 else 1.0))
        elif isinstance(outcome, IntegratorStall):
            gaps.append(math.nan)
        else:
            r_end, v_end = outcome
            gaps.append(r_end - (spec.k * spec.length - v_end * config.eps1))
    up, down = gaps.count(math.inf), gaps.count(-math.inf)
    stalled = sum(map(math.isnan, gaps))       # an arrival's gap is finite
    _log.debug(
        "sweep: %d lanes at rel_tol %g: %d arrived, %d escaped to +inf, %d to -inf, "
        "%d stalled",
        len(gaps), seed.rel_tol, len(gaps) - up - down - stalled, up, down, stalled,
    )

    points = []
    for i, (a, gap) in enumerate(zip(grid, gaps)):
        change = i > 0 and gaps[i - 1] * gap < 0.0
        points.append(SweepPoint(a=float(a), sign_change=bool(change), gap=gap))
    return points


# Right slopes of the seed search span +/-_RIGHT_REACH times the widest
# slope of the sweep's bracket.  A solution's right slope can lie beyond
# every left slope of the grid that brackets it: (2,1,3,1) has b = 13.0473
# on the default [-8, 8] and the (1,2,2,0) bump b = -3.5377 on [0, 8].
# Right slopes beyond this reach are not searched.
_RIGHT_REACH = 2.5


def _match_states(spec, config, endpoint: Endpoint, slopes) -> np.ndarray:
    """(r, v) rows at the match point of the halves from ``endpoint``; a
    half that escapes or stalls gives a row of NaN."""
    outcomes = _integrate_lanes(spec, config, endpoint, slopes, config.resolved_match(spec))
    return np.array(
        [(math.nan, math.nan) if isinstance(o, Exception) else o for o in outcomes]
    )


def _unresolved(b, right, lefts, finest: float) -> np.ndarray:
    """Mask of the segments of the right polyline (slopes b, match states
    right) that may cross a segment of the polylines ``lefts`` unseen:
    those wider than ``finest`` whose padded box meets one with two finite
    ends.

    A right segment's box spans its two ends, padded by its width times
    the larger change of chord slope at either end: about h^2 |y''| between
    neighbours of equal width h, 8 times the largest distance of a smooth
    curve y(b) from its chord.  A segment with one NaN end (an escape or a
    stall) has the box of its finite end, padded by its width times the
    slope of the chord on the other side of that end; one with two NaN ends
    meets nothing.  A box meets a left segment unless an axis separates
    them: r, v, or the segment's normal; a NaN end fails every compare.
    """
    h = np.diff(b)[:, None]
    s = np.diff(right, axis=0) / h
    edge = np.full((1, 2), math.nan)
    before, after = np.vstack((edge, s[:-1])), np.vstack((s[1:], edge))
    kink = np.fmax(np.abs(s - before), np.abs(after - s))
    outward = np.abs(np.where(np.isnan(right[1:]), before, after))
    pad = h * np.nan_to_num(np.where(np.isnan(s), outward, kink))
    lo = np.fmin(right[:-1], right[1:]) - pad
    hi = np.fmax(right[:-1], right[1:]) + pad
    centre, extent = (0.5 * (lo + hi))[:, None], (0.5 * (hi - lo))[:, None]
    start = np.concatenate([left[:-1] for left in lefts])
    end = np.concatenate([left[1:] for left in lefts])
    w, half = centre - 0.5 * (start + end), 0.5 * (end - start)
    overlap = (np.abs(w) <= extent + np.abs(half)).all(axis=2)
    normal = np.abs(w[..., 0] * half[:, 1] - w[..., 1] * half[:, 0]) <= (
        extent[..., 0] * np.abs(half[:, 1]) + extent[..., 1] * np.abs(half[:, 0])
    )
    return (overlap & normal).any(axis=1) & (h[:, 0] > finest)


def _right_curve(spec, config, lefts) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Slopes b, match states and lane batch sizes of the right half-curve,
    resolved where it can cross one of the left polylines ``lefts``.

    One lane batch runs config.sweep_points // 4 slopes (at least 2) over
    +/-_RIGHT_REACH times the widest slope of config's bracket.  Each round
    then runs the midpoints of every :func:`_unresolved` segment as one
    batch, until no segment wider than 2 * reach / (2 * sweep_points - 1)
    is unresolved.
    """
    reach = _RIGHT_REACH * max(map(abs, config.resolved_bracket(spec)))
    finest = 2.0 * reach / (2 * config.sweep_points - 1)
    b = np.linspace(-reach, reach, max(config.sweep_points // 4, 2))
    right = _match_states(spec, config, Endpoint.RIGHT, b)
    batches = [len(b)]
    while (split := np.flatnonzero(_unresolved(b, right, lefts, finest))).size:
        mid = 0.5 * (b[split] + b[split + 1])
        b = np.insert(b, split + 1, mid)
        right = np.insert(
            right, split + 1, _match_states(spec, config, Endpoint.RIGHT, mid), axis=0
        )
        batches.append(len(mid))
    return b, right, batches


def _crossings(a, left, b, right) -> list[tuple[float, float]]:
    """Seeds (a, b) where the left polyline (slope array a, match states
    left) crosses the right one, both slopes interpolated linearly along
    their segments.  A segment with a NaN end crosses nothing."""
    p, dp = left[:-1, None], np.diff(left, axis=0)[:, None]
    q, dq = right[None, :-1], np.diff(right, axis=0)[None, :]
    w = q - p

    def cross(x, y):
        return x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0]

    with np.errstate(all="ignore"):
        den = cross(dp, dq)
        s = cross(w, dq) / den
        u = cross(w, dp) / den
    hit = (s >= 0.0) & (s <= 1.0) & (u >= 0.0) & (u <= 1.0)
    j, m = np.nonzero(hit)
    seed_a = a[j] + s[j, m] * (a[j + 1] - a[j])
    seed_b = b[m] + u[j, m] * (b[m + 1] - b[m])
    return list(zip(seed_a.tolist(), seed_b.tolist()))


def refine_brackets(
    spec: BvpSpec,
    config: ShootingConfig | None = None,
    points: list[SweepPoint] | None = None,
) -> list[SolutionProfile]:
    """Refine each sweep bracket by shooting to the match point.

    A flag on the first of ``points`` names no bracket there and is skipped.
    A solution is a point where the left and the right shooting halves meet
    at the match point.  The left halves at each bracket's ends and at one
    grid point beyond each end run first, and trace a short polyline of
    match states (r, v) per bracket.  The right halves trace one polyline
    for all brackets (:func:`_right_curve`): config.sweep_points // 4
    slopes spanning +/-_RIGHT_REACH times the widest slope of config's
    bracket (independent of ``points``; a right slope beyond that reach is
    not searched), then, in rounds, the midpoints of the segments that may
    still cross a left segment unseen, down to 2 * reach / (2 *
    sweep_points - 1) wide.  These halves only seed Newton, so they run at
    a relative tolerance of at least _SEED_REL_TOL, with abs_tol scaled
    alike; ``solve`` gets the caller's ``config``, so each profile is
    integrated and checked at its tolerances.  Each crossing seeds
    ``solve`` with both slopes, interpolated linearly along the crossing
    segments.  Seeds nearest the bracket go first, and the first that
    converges settles the bracket.  Its profile is kept if slope0 lies
    within the bracket widened by one grid step (a root on a grid point is
    an end of its bracket up to rounding) and its slopes are not within
    DUPLICATE_SLOPE_TOL of a profile already kept.  A bracket with no
    crossing, or with no seed that converges, is dropped.  Profiles are
    ordered by |slope0 - k|, and those within DUPLICATE_SLOPE_TOL of each
    other in it, such as a mirror pair about k, by slope0.  Each decision,
    and a summary of the right lanes, their batches and the halves that
    escaped or stalled, is logged at DEBUG level on the ``cohom1`` logger.
    """
    config = config or ShootingConfig()
    config.validate(spec)
    points = points if points is not None else sweep(spec, config)
    brackets = [i for i, p in enumerate(points) if i and p.sign_change]
    if not brackets:
        return []
    seed_config = _seed_config(config)
    a_grids = [np.array([p.a for p in points[max(i - 2, 0):i + 2]]) for i in brackets]
    lefts = [_match_states(spec, seed_config, Endpoint.LEFT, a) for a in a_grids]
    b_grid, right, batches = _right_curve(spec, seed_config, lefts)
    profiles: list[SolutionProfile] = []
    for i, a_grid, left in zip(brackets, a_grids, lefts):
        lo, hi = bracket = (points[i - 1].a, points[i].a)
        step = hi - lo
        seeds = sorted(
            _crossings(a_grid, left, b_grid, right),
            key=lambda seed: max(lo - seed[0], seed[0] - hi, 0.0),
        )
        if not seeds:
            _log.debug("refine: bracket %r dropped: no crossing", bracket)
            continue
        _log.debug("refine: bracket %r seeds from crossings: %s", bracket, seeds)
        for seed in seeds:
            try:
                profile = solve(spec, config, init=seed)
            except (NoConvergence, TrajectoryEscaped, IntegratorStall) as exc:
                _log.debug("refine: seed %r failed: %s", seed, exc)
                continue
            _log.debug(
                "refine: seed %r converged to (%r, %r)", seed, profile.slope0, profile.slope1
            )
            if not lo - step <= profile.slope0 <= hi + step:
                _log.debug(
                    "refine: bracket %r dropped: slope0 more than a grid step outside it",
                    bracket,
                )
            elif any(
                abs(p.slope0 - profile.slope0) <= DUPLICATE_SLOPE_TOL
                and abs(p.slope1 - profile.slope1) <= DUPLICATE_SLOPE_TOL
                for p in profiles
            ):
                _log.debug("refine: bracket %r dropped: duplicate profile", bracket)
            else:
                profiles.append(profile)
            break
        else:
            _log.debug("refine: bracket %r dropped: no seed converged", bracket)
    left_halves = np.concatenate(lefts)[:, 0]
    _log.debug(
        "refine: %d right lanes in batches of %s at seed rel_tol %g; "
        "escaped or stalled: %d of %d left and %d of %d right halves",
        len(b_grid), "+".join(map(str, batches)), seed_config.rel_tol,
        int(np.isnan(left_halves).sum()), len(left_halves),
        int(np.isnan(right[:, 0]).sum()), len(b_grid),
    )
    return _ordered(profiles, spec.k)


def _ordered(profiles, k) -> list[SolutionProfile]:
    """``profiles`` by |slope0 - k|; a run of them within DUPLICATE_SLOPE_TOL
    of its first in that distance (a mirror pair about k) goes by slope0."""
    rest = sorted(profiles, key=lambda p: abs(p.slope0 - k))
    out: list[SolutionProfile] = []
    while rest:
        near = abs(rest[0].slope0 - k) + DUPLICATE_SLOPE_TOL
        n = next((i for i, p in enumerate(rest) if abs(p.slope0 - k) > near), len(rest))
        out += sorted(rest[:n], key=lambda p: p.slope0)
        rest = rest[n:]
    return out
