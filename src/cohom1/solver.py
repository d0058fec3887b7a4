"""Double shooting for the singular boundary value problems.

Both endpoints of [0, pi/G] are regular-singular: the leading coefficient
4 sin^2(Gt) vanishes there, and the smooth solution branch through each
endpoint is a one-parameter family r ~ a*t + c3(a)*t^3 (no quadratic term;
the linear-order terms of the ODE cancel for every slope a, which is what
makes the slope a free shooting parameter).  Integration therefore starts a
small offset eps away from each endpoint on a numerically fitted cubic and
the two trajectories are matched in the interior, where the problem is as
well-conditioned as it gets.

The integrator is an embedded Dormand-Prince 5(4) pair with PI-free step
control, first-same-as-last reuse, optional exact landing on output nodes,
a blow-up cap that converts runaway trajectories into TrajectoryEscaped,
and a step-underflow guard that raises IntegratorStall.  Everything is
plain-float arithmetic in a fixed order, so identical inputs give
bit-identical results on a fixed platform.

A sweep runs the same integrator on all its grid points at once as numpy
lanes (:func:`_integrate_lanes`), in the same operations and order per
lane, so each sweep gap equals its one-point scalar integration bit for
bit.  A lane batch step evaluates the t-only part of the right-hand side
(pole check, sines and cosines of Gt and 2Gt) once for its five distinct
stage times, and each of its six stages only the part that depends on
(r, r').
"""

from __future__ import annotations

import enum
import logging
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import ode
from .errors import IntegratorStall, NoConvergence, TrajectoryEscaped
from .ode import BvpSpec, TensionSample

GAP_TOL_FACTOR = 1e-9          # convergence: |gaps| <= GAP_TOL_FACTOR*(1+|k|)
MIN_PROFILE_POINTS = 257
DUPLICATE_SLOPE_TOL = 1e-6     # refined profiles this close in both slopes are one
_MAX_STEPS = 5_000_000

_log = logging.getLogger("cohom1")


class Endpoint(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class ShootingConfig:
    """Knobs of the shooting procedure; defaults suit every classified case."""

    eps0: float = 1e-5          # offset of the left series start
    eps1: float = 1e-5          # offset of the right series start
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    match_point: float | None = None      # None -> pi/(2G)
    bracket: tuple[float, float] | None = None  # None -> [-4|k|-4, 4|k|+4]
    sweep_points: int = 512
    max_newton: int = 50
    blowup_cap: float = 1e6

    def validate(self, spec: BvpSpec) -> None:
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
        if self.sweep_points < 2:
            raise ValueError("sweep needs at least 2 grid points")
        if self.max_newton < 1:
            raise ValueError("max_newton must be >= 1")

    def resolved_match(self, spec: BvpSpec) -> float:
        return spec.length / 2.0 if self.match_point is None else self.match_point

    def resolved_bracket(self, spec: BvpSpec) -> tuple[float, float]:
        if self.bracket is None:
            w = 4.0 * abs(spec.k) + 4.0
            return (-w, w)
        return (float(self.bracket[0]), float(self.bracket[1]))

    def to_dict(self, spec: BvpSpec | None = None) -> dict:
        d = {
            "eps0": self.eps0,
            "eps1": self.eps1,
            "rel_tol": self.rel_tol,
            "abs_tol": self.abs_tol,
            "match_point": self.match_point,
            "bracket": list(self.bracket) if self.bracket is not None else None,
            "sweep_points": self.sweep_points,
            "max_newton": self.max_newton,
            "blowup_cap": self.blowup_cap,
        }
        if spec is not None:
            d["match_point"] = self.resolved_match(spec)
            d["bracket"] = list(self.resolved_bracket(spec))
        return d


@dataclass(frozen=True)
class SolutionProfile:
    """A converged solution sampled on [eps0, pi/G - eps1]."""

    spec: BvpSpec
    samples: np.ndarray          # (n, 3) columns t, r, rdot
    slope0: float
    slope1: float
    match_gap: tuple[float, float]
    residual: float

    def max_linear_deviation(self) -> float:
        """max_t |r(t) - k t| over the samples."""
        t, r = self.samples[:, 0], self.samples[:, 1]
        return float(np.max(np.abs(r - self.spec.k * t)))

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("t,r,rdot\n")
            for t, r, v in self.samples:
                fh.write(f"{t:.17g},{r:.17g},{v:.17g}\n")

    def metadata(self, config: ShootingConfig | None = None) -> dict:
        d = {
            "spec": self.spec.to_dict(),
            "slope0": self.slope0,
            "slope1": self.slope1,
            "match_gap": list(self.match_gap),
            "residual": self.residual,
            "samples": int(self.samples.shape[0]),
        }
        if config is not None:
            d["config"] = config.to_dict(self.spec)
        return d


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

_MIN_STEP = 1e-14
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 5.0
# Below this many lanes a batch step (0.3-0.65 ms for 64 to 512 lanes on a
# 2-core x86-64 host) costs more than the scalar steps it replaces (8-14 us
# each).
_DRAIN_LANES = 32
# Stage-time nodes of a lane batch step, as a column: t + _STAGE_C * h.
_STAGE_C = np.array([_C2, _C3, _C4, _C5, 1.0])[:, None]


def _integrate(
    accel,
    t0: float,
    r0: float,
    v0: float,
    t_end: float,
    rel_tol: float,
    abs_tol: float,
    blowup_cap: float,
    nodes=None,
    record=None,
):
    """Advance (r, v) from t0 to t_end; optionally record states at nodes.

    ``nodes`` must be sorted in the direction of integration and lie in
    (t0, t_end]; they are evaluated from the dense-output interpolant of
    each accepted step, so recorded samples stay smooth at node spacing
    regardless of the step sequence.  ``record`` (a list) then gains one
    (t, r, v) per node passed, in node order, also when the run raises.
    Returns the final (r, v).
    """
    if abs(t_end - t0) == 0.0:
        return r0, v0
    raw = [] if record is not None else None
    try:
        state = _dp_run(
            accel, _dp_start(accel, t0, r0, v0, t_end), t_end,
            rel_tol, abs_tol, blowup_cap, nodes, raw,
        )
    finally:
        if raw:
            record.extend(_dense_states(raw))
    return state[1], state[2]


def _dp_start(accel, t0: float, r0: float, v0: float, t_end: float) -> tuple:
    """Initial run state (t, r, v, h, k1v, steps) of a DP5(4) run to t_end."""
    direction = 1.0 if t_end >= t0 else -1.0
    h = direction * min(abs(t_end - t0) * 1e-3, 1e-3)
    return (t0, r0, v0, h, accel(t0, r0, v0), 0)


def _dp_run(
    accel,
    state: tuple,
    t_end: float,
    rel_tol: float,
    abs_tol: float,
    blowup_cap: float,
    nodes=None,
    record=None,
    pause_at: float = math.inf,
) -> tuple:
    """The DP5(4) step loop, from a run state (t, r, v, h, k1v, steps).

    Returns the state at t_end, or once the run has taken ``pause_at``
    steps; passing that state back in resumes the run bit for bit.  The
    first-same-as-last derivative k1r is always v, so it is not stored.
    For each node an accepted step passes, ``record`` gains the raw row
    that :func:`_dense_states` turns into the node's state: (node, theta,
    h, r, v, k1r, k1v, k3r, k3v, ..., k7r, k7v) of that step.
    """
    t, r, v, h, k1v, steps = state
    k1r = v
    direction = 1.0 if t_end >= t else -1.0
    node_iter = iter(nodes) if nodes is not None else None
    next_node = next(node_iter, None) if node_iter is not None else None

    while (t_end - t) * direction > 0.0 and steps < pause_at:
        if (t + h - t_end) * direction > 0.0:
            h = t_end - t

        tr = r + h * _A21 * k1r
        tv = v + h * _A21 * k1v
        k2r, k2v = tv, accel(t + _C2 * h, tr, tv)
        tr = r + h * (_A31 * k1r + _A32 * k2r)
        tv = v + h * (_A31 * k1v + _A32 * k2v)
        k3r, k3v = tv, accel(t + _C3 * h, tr, tv)
        tr = r + h * (_A41 * k1r + _A42 * k2r + _A43 * k3r)
        tv = v + h * (_A41 * k1v + _A42 * k2v + _A43 * k3v)
        k4r, k4v = tv, accel(t + _C4 * h, tr, tv)
        tr = r + h * (_A51 * k1r + _A52 * k2r + _A53 * k3r + _A54 * k4r)
        tv = v + h * (_A51 * k1v + _A52 * k2v + _A53 * k3v + _A54 * k4v)
        k5r, k5v = tv, accel(t + _C5 * h, tr, tv)
        tr = r + h * (_A61 * k1r + _A62 * k2r + _A63 * k3r + _A64 * k4r + _A65 * k5r)
        tv = v + h * (_A61 * k1v + _A62 * k2v + _A63 * k3v + _A64 * k4v + _A65 * k5v)
        k6r, k6v = tv, accel(t + h, tr, tv)
        r_new = r + h * (_B1 * k1r + _B3 * k3r + _B4 * k4r + _B5 * k5r + _B6 * k6r)
        v_new = v + h * (_B1 * k1v + _B3 * k3v + _B4 * k4v + _B5 * k5v + _B6 * k6v)
        t_new = t + h
        k7r, k7v = v_new, accel(t_new, r_new, v_new)

        err_r = h * (_E1 * k1r + _E3 * k3r + _E4 * k4r + _E5 * k5r + _E6 * k6r + _E7 * k7r)
        err_v = h * (_E1 * k1v + _E3 * k3v + _E4 * k4v + _E5 * k5v + _E6 * k6v + _E7 * k7v)
        sc_r = abs_tol + rel_tol * max(abs(r), abs(r_new))
        sc_v = abs_tol + rel_tol * max(abs(v), abs(v_new))
        e0, e1 = err_r / sc_r, err_v / sc_v
        err = math.sqrt(0.5 * (e0 * e0 + e1 * e1))

        if err <= 1.0:
            while next_node is not None and (t_new - next_node) * direction >= 0.0:
                if record is not None:
                    record.append((
                        next_node, (next_node - t) / h, h, r, v, k1r, k1v,
                        k3r, k3v, k4r, k4v, k5r, k5v, k6r, k6v, k7r, k7v,
                    ))
                next_node = next(node_iter, None)
            t, r, v = t_new, r_new, v_new
            k1r, k1v = k7r, k7v
            if abs(r) > blowup_cap or abs(v) > blowup_cap:
                raise TrajectoryEscaped(t, r, v)
            factor = _SAFETY * err ** -0.2 if err > 0.0 else _MAX_FACTOR
        else:
            if not (err == err):  # NaN: shrink hard
                factor = _MIN_FACTOR
            else:
                factor = _SAFETY * err ** -0.2
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        if abs(h) < _MIN_STEP:
            raise IntegratorStall(t)
        steps += 1
        if steps > _MAX_STEPS:
            raise IntegratorStall(t, detail="step budget exhausted")
    return t, r, v, h, k1v, steps


def _dense_states(raw: list) -> list:
    """(t, r, v) at each node from the raw rows of :func:`_dp_run`.

    The quartic interpolant u = y + h * sum_s w_s(theta) k_s is evaluated
    for all nodes at once, with the operations and order of a per-node
    scalar loop (theta powers, then w_s and u += h * w_s * k_s stage by
    stage); elementwise IEEE arithmetic makes it equal that loop bit for
    bit.
    """
    rows = np.array(raw, dtype=float)
    th, h = rows[:, 1], rows[:, 2]
    th2 = th * th
    th3 = th2 * th
    th4 = th3 * th
    ur, uv = rows[:, 3], rows[:, 4]
    for col, p in zip(range(5, 17, 2), (_P[0], *_P[2:])):
        w = p[0] * th + p[1] * th2 + p[2] * th3 + p[3] * th4
        ur = ur + h * w * rows[:, col]
        uv = uv + h * w * rows[:, col + 1]
    return list(zip(rows[:, 0].tolist(), ur.tolist(), uv.tolist()))


def _lane_outcome(accel, state: tuple, t_end, rel_tol, abs_tol, blowup_cap):
    """Finish one run on the scalar loop: its final (r, v), or the
    TrajectoryEscaped or IntegratorStall the loop raised."""
    try:
        return _dp_run(accel, state, t_end, rel_tol, abs_tol, blowup_cap)[1:3]
    except (TrajectoryEscaped, IntegratorStall) as exc:
        return exc


def _integrate_lanes(
    accel, lane_rhs, t0: float, r0, v0, t_end: float,
    rel_tol: float, abs_tol: float, blowup_cap: float,
) -> list:
    """Run one :func:`_integrate` per lane (r0[i], v0[i]) from a common t0.

    The lanes advance together as numpy arrays, each with its own t, h,
    accept/reject decision and step count, through the scalar loop's
    operations in the same order; ``lane_rhs`` is the (time, state) pair of
    :func:`ode._rhs_lanes` for ``accel``.  Each batch step evaluates the
    time part once, over its stage times t + c*h for c in (C2, C3, C4, C5,
    1), and each of its six stages the state part; the last stage reuses
    the row of t + h.  A lane leaves the batch where the scalar loop would
    raise or return.  Once fewer than _DRAIN_LANES are left, the rest
    finish on the scalar loop from their current state.  Returns one
    outcome per lane, as :func:`_lane_outcome` does, identical to the
    scalar run's.
    """
    n = len(r0)
    if abs(t_end - t0) == 0.0:
        return list(zip(r0, v0))
    tol = (rel_tol, abs_tol, blowup_cap)
    if n < _DRAIN_LANES:
        return [
            _lane_outcome(accel, _dp_start(accel, t0, r, v, t_end), t_end, *tol)
            for r, v in zip(r0, v0)
        ]
    time_part, state_part = lane_rhs
    out: list = [None] * n
    direction = 1.0 if t_end >= t0 else -1.0
    lane = np.arange(n)
    t = np.full(n, t0)
    y = np.array([r0, v0], dtype=float)         # rows r, v
    h = np.full(n, direction * min(abs(t_end - t0) * 1e-3, 1e-3))
    steps = np.zeros(n, dtype=np.int64)
    # Escaping lanes overflow and produce NaN as the scalar floats do, silently.
    with np.errstate(all="ignore"):

        def stage(parts, ty):
            return np.array([ty[1], state_part(parts, ty[0], ty[1])])

        k1 = stage(time_part(t), y)
        while len(lane) >= _DRAIN_LANES:
            h = np.where((t + h - t_end) * direction > 0.0, t_end - t, h)
            stage_t = t + _STAGE_C * h
            p2, p3, p4, p5, p6 = zip(*time_part(stage_t))
            k2 = stage(p2, y + h * _A21 * k1)
            k3 = stage(p3, y + h * (_A31 * k1 + _A32 * k2))
            k4 = stage(p4, y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3))
            k5 = stage(p5, y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
            k6 = stage(
                p6, y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5)
            )
            y_new = y + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
            t_new = stage_t[4]
            k7 = stage(p6, y_new)

            e = h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
            e /= abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
            err = np.sqrt(0.5 * (e[0] * e[0] + e[1] * e[1]))

            ok = err <= 1.0
            t = np.where(ok, t_new, t)
            y = np.where(ok, y_new, y)
            k1 = np.where(ok, k7, k1)
            escaped = ok & (np.abs(y) > blowup_cap).any(axis=0)
            # err == 0 can only be accepted and NaN only rejected; numpy's
            # SIMD power is not libm's, so err ** -0.2 is the scalar pow.
            pos = err > 0.0
            factor = np.where(err == 0.0, _MAX_FACTOR, _MIN_FACTOR)
            factor[pos] = _SAFETY * np.array([x ** -0.2 for x in err[pos].tolist()])
            h = h * np.minimum(_MAX_FACTOR, np.maximum(_MIN_FACTOR, factor))
            stalled = np.abs(h) < _MIN_STEP
            steps += 1
            spent = steps > _MAX_STEPS
            leave = escaped | stalled | spent | ~((t_end - t) * direction > 0.0)
            if not leave.any():
                continue
            for j in np.flatnonzero(leave).tolist():
                tj, rj, vj = float(t[j]), float(y[0, j]), float(y[1, j])
                if escaped[j]:
                    out[lane[j]] = TrajectoryEscaped(tj, rj, vj)
                elif stalled[j]:
                    out[lane[j]] = IntegratorStall(tj)
                elif spent[j]:
                    out[lane[j]] = IntegratorStall(tj, detail="step budget exhausted")
                else:
                    out[lane[j]] = (rj, vj)
            keep = ~leave
            lane, t, y, h, k1, steps = (
                lane[keep], t[keep], y[:, keep], h[keep], k1[:, keep], steps[keep]
            )
    for j, i in enumerate(lane.tolist()):
        state = (
            float(t[j]), float(y[0, j]), float(y[1, j]),
            float(h[j]), float(k1[1, j]), int(steps[j]),
        )
        out[i] = _lane_outcome(accel, state, t_end, *tol)
    return out


def series_start(
    spec: BvpSpec, endpoint: Endpoint, slope: float, eps: float
) -> tuple[float, float, float]:
    """Smooth-branch starting data (t, r, rdot) an offset eps off an endpoint.

    The cubic coefficient is fitted numerically from the ODE itself: probe
    the acceleration at 2*eps on the linear ray, read off c3 from
    r'' ~ 6*c3*t, and refine once with the corrected state.  This keeps the
    expansion formula-agnostic in (G, M0, M1); the Richardson property of
    the starts is asserted by the test suite instead of by algebra.
    """
    accel = ode.rhs(spec)
    if endpoint is Endpoint.LEFT:
        tp = 2.0 * eps
        c3 = accel(tp, slope * tp, slope) / (6.0 * tp)
        c3 = accel(tp, slope * tp + c3 * tp**3, slope + 3.0 * c3 * tp * tp) / (6.0 * tp)
        t = eps
        r = slope * eps + c3 * eps**3
        v = slope + 3.0 * c3 * eps * eps
        rdd = 6.0 * c3 * eps
    else:
        L = spec.length
        r_end = spec.k * L
        tp = L - 2.0 * eps
        s = 2.0 * eps
        d3 = -accel(tp, r_end - slope * s, slope) / (6.0 * s)
        d3 = -accel(tp, r_end - slope * s - d3 * s**3, slope + 3.0 * d3 * s * s) / (
            6.0 * s
        )
        t = L - eps
        r = r_end - slope * eps - d3 * eps**3
        v = slope + 3.0 * d3 * eps * eps
        rdd = -6.0 * d3 * eps

    # Leading-order consistency: the start must already nearly satisfy the
    # ODE (the O(t) terms cancel for every slope, so the residual is O(eps)).
    ct = ode.closed_tension(spec, TensionSample(t, r, v, rdd))
    scale = 4.0 * spec.G * (spec.M0 + spec.M1) * (1.0 + abs(slope) + abs(spec.k))
    if abs(ct) > 100.0 * eps * scale:  # pragma: no cover - diagnostic only
        warnings.warn(
            f"series start at {endpoint.value} endpoint violates leading-order "
            f"consistency: |tension|={abs(ct):.3g} at eps={eps:g}",
            RuntimeWarning,
            stacklevel=2,
        )
    return t, r, v


def shoot(
    spec: BvpSpec,
    config: ShootingConfig,
    a: float,
    b: float,
    halves: dict | None = None,
) -> tuple[float, float]:
    """Mismatch (value, derivative) at the match point between the trajectory
    started from the left with slope a and from the right with slope b.

    ``halves`` is an optional memo, for one (spec, config), from
    (endpoint, slope) to the match-point state (r, v) of that half: a half
    found in it is not integrated again, and every half that reaches the
    match point is stored.  The left half runs before the right one and a
    half that escapes or stalls is not stored, so a shot raises what it
    would raise without the memo.
    """
    config.validate(spec)
    accel = ode.rhs(spec)
    rl, vl = _half(spec, config, accel, Endpoint.LEFT, a, halves)
    rr, vr = _half(spec, config, accel, Endpoint.RIGHT, b, halves)
    return rl - rr, vl - vr


def _half(spec, config, accel, endpoint: Endpoint, slope: float, halves):
    """Match-point state (r, v) of the half shot from ``endpoint``."""
    # 0.0 and -0.0 are one dict key, but their starts may differ in a bit
    key = (endpoint, slope, math.copysign(1.0, slope))
    if halves is not None and key in halves:
        return halves[key]
    eps = config.eps0 if endpoint is Endpoint.LEFT else config.eps1
    t, r, v = series_start(spec, endpoint, slope, eps)
    state = _integrate(
        accel, t, r, v, config.resolved_match(spec),
        config.rel_tol, config.abs_tol, config.blowup_cap,
    )
    if halves is not None:
        halves[key] = state
    return state


def solve(
    spec: BvpSpec,
    config: ShootingConfig | None = None,
    init: tuple[float, float] | None = None,
    profile_points: int = 513,
) -> SolutionProfile:
    """Damped-Newton double shooting on the endpoint slopes (a, b).

    Starts from ``init`` or from the linear candidate (k, k).  The Jacobian
    is a forward finite difference; steps are halved up to 20 times until
    the gap norm decreases, and an escape or stall of a damped trial counts
    as a trial that did not decrease it.  An escape or stall of a Jacobian
    probe raises NoConvergence ('jacobian probe failed ...'); one of the
    very first shot surfaces as TrajectoryEscaped or IntegratorStall.
    Every shot of one call shares a memo of shooting halves (see
    :func:`shoot`), so a probe or trial integrates only the half whose
    slope changed.  On convergence the solution is re-integrated once over
    a dense output grid and the interior residual is measured by
    finite-difference reconstruction of r''.

    Raises ValueError for an invalid config or non-finite ``init``, and
    NoConvergence (with the final gaps and iterate), TrajectoryEscaped or
    IntegratorStall.
    """
    config = config or ShootingConfig()
    config.validate(spec)
    k = spec.k
    a, b = (float(init[0]), float(init[1])) if init is not None else (float(k), float(k))
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"init slopes must be finite, got ({a!r}, {b!r})")
    tol = GAP_TOL_FACTOR * (1.0 + abs(k))
    halves: dict = {}

    gap = shoot(spec, config, a, b, halves)
    norm = math.hypot(*gap)
    iterations = 0
    while norm > tol:
        if iterations >= config.max_newton:
            raise NoConvergence(gap, (a, b), iterations, "iteration cap reached")
        ha = 1e-7 * (1.0 + abs(a))
        hb = 1e-7 * (1.0 + abs(b))
        try:
            gap_a = shoot(spec, config, a + ha, b, halves)
            gap_b = shoot(spec, config, a, b + hb, halves)
        except (TrajectoryEscaped, IntegratorStall) as exc:
            raise NoConvergence(
                gap, (a, b), iterations, f"jacobian probe failed ({exc})"
            ) from exc
        j00 = (gap_a[0] - gap[0]) / ha
        j10 = (gap_a[1] - gap[1]) / ha
        j01 = (gap_b[0] - gap[0]) / hb
        j11 = (gap_b[1] - gap[1]) / hb
        det = j00 * j11 - j01 * j10
        if det == 0.0 or not math.isfinite(det):
            raise NoConvergence(gap, (a, b), iterations, "singular jacobian")
        da = (j11 * gap[0] - j01 * gap[1]) / det
        db = (j00 * gap[1] - j10 * gap[0]) / det

        lam = 1.0
        for _ in range(20):
            trial = (a - lam * da, b - lam * db)
            try:
                trial_gap = shoot(spec, config, *trial, halves)
            except (TrajectoryEscaped, IntegratorStall):
                lam *= 0.5
                continue
            trial_norm = math.hypot(*trial_gap)
            if trial_norm < norm:
                a, b = trial
                gap, norm = trial_gap, trial_norm
                break
            lam *= 0.5
        else:
            raise NoConvergence(gap, (a, b), iterations, "damping failed to reduce gap")
        iterations += 1

    return _dense_profile(spec, config, a, b, gap, max(profile_points, MIN_PROFILE_POINTS))


def _dense_profile(spec, config, a, b, gap, n_points) -> SolutionProfile:
    """Sample the converged solution on a uniform grid.

    The two shooting halves are joined with a C^2 blend over an interior
    overlap window rather than butted at a single node: the converged match
    gap, although below tolerance, would otherwise enter the sampled data
    as a kink that finite differencing amplifies by 1/h^2.  Both halves
    solve the ODE, so the blend's residual is of order gap / window^2.
    """
    accel = ode.rhs(spec)
    match = config.resolved_match(spec)
    L = spec.length
    span = L - config.eps0 - config.eps1
    half_w = min(
        0.15 * span, 0.8 * (match - config.eps0), 0.8 * (L - config.eps1 - match)
    )
    lo, hi = match - half_w, match + half_w
    nodes = np.linspace(config.eps0, L - config.eps1, n_points)
    left_nodes = [float(x) for x in nodes if x <= hi]
    right_nodes = [float(x) for x in nodes if x >= lo]
    n_overlap = len(left_nodes) + len(right_nodes) - n_points

    tl, rl, vl = series_start(spec, Endpoint.LEFT, a, config.eps0)
    left_rec: list[tuple[float, float, float]] = [(tl, rl, vl)]
    if len(left_nodes) > 1:
        _integrate(
            accel, tl, rl, vl, left_nodes[-1],
            config.rel_tol, config.abs_tol, config.blowup_cap,
            nodes=left_nodes[1:], record=left_rec,
        )
    tr, rr, vr = series_start(spec, Endpoint.RIGHT, b, config.eps1)
    right_rec: list[tuple[float, float, float]] = [(tr, rr, vr)]
    if len(right_nodes) > 1:
        _integrate(
            accel, tr, rr, vr, right_nodes[0],
            config.rel_tol, config.abs_tol, config.blowup_cap,
            nodes=right_nodes[-2::-1], record=right_rec,
        )
    left = np.array(left_rec, dtype=float)
    right = np.array(right_rec[::-1], dtype=float)

    samples = np.empty((n_points, 3))
    n_left_only = len(left_nodes) - n_overlap
    samples[:n_left_only] = left[:n_left_only]
    samples[len(left_nodes):] = right[n_overlap:]
    if n_overlap > 0:
        lseg = left[n_left_only:]
        rseg = right[:n_overlap]
        t_seg = lseg[:, 0]
        x = (t_seg - lo) / (hi - lo)
        s = x * x * x * (10.0 + x * (-15.0 + 6.0 * x))     # smootherstep
        ds = 30.0 * x * x * (1.0 + x * (-2.0 + x)) / (hi - lo)
        w, dw = 1.0 - s, -ds
        samples[n_left_only:len(left_nodes), 0] = t_seg
        samples[n_left_only:len(left_nodes), 1] = w * lseg[:, 1] + (1 - w) * rseg[:, 1]
        samples[n_left_only:len(left_nodes), 2] = (
            w * lseg[:, 2] + (1 - w) * rseg[:, 2] + dw * (lseg[:, 1] - rseg[:, 1])
        )

    residual = ode.residual_norm(spec, samples)[0]
    return SolutionProfile(
        spec=spec,
        samples=samples,
        slope0=a,
        slope1=b,
        match_gap=(gap[0], gap[1]),
        residual=residual,
    )


def _half_lanes(spec, config, accel, endpoint: Endpoint, slopes, t_end: float) -> list:
    """Outcomes (see :func:`_integrate_lanes`) of the halves series-started
    from ``endpoint`` with each of ``slopes`` and run to t_end as one lane
    batch."""
    eps = config.eps0 if endpoint is Endpoint.LEFT else config.eps1
    starts = [series_start(spec, endpoint, float(s), eps) for s in slopes]
    return _integrate_lanes(
        accel, ode._rhs_lanes(spec), starts[0][0],
        [s[1] for s in starts], [s[2] for s in starts], t_end,
        config.rel_tol, config.abs_tol, config.blowup_cap,
    )


def _terminal_gaps(spec, config, accel, slopes) -> list[float]:
    """Single-ended mismatch at pi/G - eps1 for each left slope, as one lane
    batch.

    The boundary target is linearised with the trajectory's own terminal
    slope.  An escape gives +/-inf by the sign of r at escape, a stall NaN.
    """
    outcomes = _half_lanes(
        spec, config, accel, Endpoint.LEFT, slopes, spec.length - config.eps1
    )
    gaps = []
    for outcome in outcomes:
        if isinstance(outcome, TrajectoryEscaped):
            gaps.append(math.copysign(math.inf, outcome.r if outcome.r != 0.0 else 1.0))
        elif isinstance(outcome, IntegratorStall):
            gaps.append(math.nan)
        else:
            r_end, v_end = outcome
            gaps.append(r_end - (spec.k * spec.length - v_end * config.eps1))
    return gaps


def sweep(
    spec: BvpSpec, config: ShootingConfig | None = None, threads: int = 1
) -> list[SweepPoint]:
    """Single-ended slope sweep over the bracket grid.

    The grid is integrated as lane batches: ``threads`` contiguous batches,
    run in a thread pool when there is more than one.  Every gap equals the
    scalar per-point result bit for bit, so the output does not depend on
    ``threads``.
    """
    config = config or ShootingConfig()
    config.validate(spec)
    accel = ode.rhs(spec)
    lo, hi = config.resolved_bracket(spec)
    grid = np.linspace(lo, hi, config.sweep_points)
    batches = np.array_split(grid, max(1, min(threads, len(grid))))

    def gaps_of(batch) -> list[float]:
        return _terminal_gaps(spec, config, accel, batch)

    if len(batches) > 1:
        with ThreadPoolExecutor(max_workers=len(batches)) as pool:
            gaps = [g for part in pool.map(gaps_of, batches) for g in part]
    else:
        gaps = gaps_of(grid)

    points = []
    for i, (a, gap) in enumerate(zip(grid, gaps)):
        change = i > 0 and gaps[i - 1] * gap < 0.0
        points.append(SweepPoint(a=float(a), sign_change=bool(change), gap=gap))
    return points


# Right slopes of the seed search: twice the sweep's points, over 2.5 times
# the widest slope of the sweep's bracket.  A solution's right slope can lie
# beyond every left slope of the grid that brackets it: (2,1,3,1) has
# b = 13.0473 on the default [-8, 8] and the (1,2,2,0) bump b = -3.5377 on
# [0, 8].  Right slopes beyond this reach are not searched.
_RIGHT_DENSITY = 2
_RIGHT_REACH = 2.5


def _match_states(spec, config, accel, endpoint: Endpoint, slopes) -> np.ndarray:
    """(r, v) rows at the match point of the halves from ``endpoint``; a
    half that escapes or stalls gives a row of NaN."""
    outcomes = _half_lanes(
        spec, config, accel, endpoint, slopes, config.resolved_match(spec)
    )
    return np.array(
        [(math.nan, math.nan) if isinstance(o, Exception) else o for o in outcomes]
    )


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

    A solution is a point where the left and the right shooting halves meet
    at the match point.  The right halves run once, as one lane batch, over
    _RIGHT_DENSITY * config.sweep_points slopes spanning +/-_RIGHT_REACH
    times the widest slope of config's bracket (independent of ``points``; a
    right slope beyond that reach is not searched).  They and the left
    halves at a bracket's ends and at one grid point beyond each end trace
    two polylines of match states (r, v).  Each crossing seeds ``solve``
    with both slopes, interpolated linearly along the crossing segments.
    Seeds nearest the bracket go first, and the first that converges
    settles the bracket.  Its profile is kept if slope0 lies within the
    bracket widened by one grid step (a root on a grid point is an end of
    its bracket up to rounding) and its slopes are not within
    DUPLICATE_SLOPE_TOL of a profile already kept.  A bracket with no
    crossing, or with no seed that converges, is dropped.  Profiles are
    ordered by |slope0 - k|; each decision is logged at DEBUG level on the
    ``cohom1`` logger.
    """
    config = config or ShootingConfig()
    points = points if points is not None else sweep(spec, config)
    brackets = [i for i, p in enumerate(points) if p.sign_change]
    if not brackets:
        return []
    accel = ode.rhs(spec)
    reach = _RIGHT_REACH * max(map(abs, config.resolved_bracket(spec)))
    b_grid = np.linspace(-reach, reach, _RIGHT_DENSITY * config.sweep_points)
    right = _match_states(spec, config, accel, Endpoint.RIGHT, b_grid)
    profiles: list[SolutionProfile] = []
    for i in brackets:
        lo, hi = bracket = (points[i - 1].a, points[i].a)
        step = hi - lo
        a_grid = np.array([p.a for p in points[max(i - 2, 0):i + 2]])
        left = _match_states(spec, config, accel, Endpoint.LEFT, a_grid)
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
    profiles.sort(key=lambda p: abs(p.slope0 - spec.k))
    return profiles
