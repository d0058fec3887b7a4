"""The four benchmark workloads: seeded inputs, timed operations, checks.

Each workload owns one kind of operation and the end-to-end metrics that
describe it.  A run gives most of its window to its own operation and
interleaves small fixed companion lists of the other three kinds, so every
run reports every end-to-end metric and exercises every layer (see
NOTES.md).  All inputs come from the public API of ``cohom1`` and from the
run's seed; nothing is read from the test suite.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from cohom1 import actions, classify, identities, ode, solver
from cohom1.actions import Space
from cohom1.errors import CohomError

# Acceptance tolerances (criteria 1, 2, 3 and 6 of the test suite).
IDENTITY_TOL = 1e-10
TENSION_TOL = 1e-9
ORACLE_REL_TOL = 1e-9
RESIDUAL_TOL = 1e-6

# Set sizes of the classification; a change here is drift, not a new input.
LINEAR_PROBLEMS = 209
ORACLE_PAIRS = 1073
TABLE_ROWS = 15

PERTURBATION = 0.05            # of 1 + |k|, around the linear start (k, k)
SWEEP_SPEC = ode.BvpSpec(G=1, M0=2, M1=2, k=1)
SWEEP_BRACKET = (0.0, 20.0)
SWEEP_POINTS = 512
PROBE_SWEEP_POINTS = 64        # companions and the smoke test
KNOWN_SLOPES = (1.0, 12.1254021)   # identity and the degree-1 nonlinear root
SLOPE_TOL = 1e-6
TENSION_SAMPLES = 1000         # per family, as in criterion 2
CLI_SWEEP_POINTS = 16
COMPANION_CALLS = ("table", "degree", "solve", "residual")

CLI_TIMEOUT_S = 120.0


class Tally:
    """Attempted and failed operations, plus violated correctness checks.

    A failed operation is a miss (an exception, a tolerance not met).  A
    violated check is a wrong output; it makes the run incorrect and also
    counts as a failed operation.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.violations: list[str] = []

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1

    def check(self, ok: bool, what: str) -> None:
        self.op(ok)
        if not ok and len(self.violations) < 20:
            self.violations.append(what)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.violations.extend(other.violations[:20 - len(self.violations)])


def percentile(values, q: int) -> float:
    """q-th percentile (inclusive method) of at least one value."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# --------------------------------------------------------------------------
# Inputs built from the public API.


def classified_actions() -> list[actions.ActionDescriptor]:
    """Sphere and rotation-group actions of every strict triple, plus Sp(2)."""
    out = []
    for g, m0, m1 in actions.strict_triples():
        out.append(actions.make_action(Space.SPHERE, g, m0, m1))
        out.append(actions.make_action(Space.ORTHOGONAL_GROUP, g, m0, m1))
    out.append(actions.make_action(Space.SP2_LIFT, 6, 1, 1))
    return out


def oracle_pairs() -> list[tuple[int, int, int, int]]:
    """Every (G, M0, M1, k) of a classified action with |j| <= 4."""
    pairs = []
    for action in classified_actions():
        for j in range(-4, 5):
            if j % 2 == 0 or action.odd_j_allowed:
                k = actions.admissible_k(action, j)
                pairs.append((action.bvp_g, action.m0, action.m1, k))
    return pairs


def linear_problems(pairs) -> list[ode.BvpSpec]:
    """The deduplicated problems whose linear candidate r = kt solves them."""
    keys = sorted({p for p in pairs if classify.is_linear_solution(*p)})
    return [ode.BvpSpec(G=G, M0=M0, M1=M1, k=k) for G, M0, M1, k in keys]


@dataclass
class Inputs:
    pairs: list
    problems: list
    table: list
    table_dicts: list
    count_errors: list[str] = field(default_factory=list)


def build_inputs() -> Inputs:
    pairs = oracle_pairs()
    problems = linear_problems(pairs)
    table = classify.examples_table()
    inputs = Inputs(pairs, problems, table, [v.to_dict() for v in table])
    for what, got, want in (
        ("oracle pairs", len(pairs), ORACLE_PAIRS),
        ("linear problems", len(problems), LINEAR_PROBLEMS),
        ("table rows", len(table), TABLE_ROWS),
    ):
        if got != want:
            inputs.count_errors.append(f"{what}: {got} != {want}")
    return inputs


# --------------------------------------------------------------------------
# Workloads.  ``ops`` is the run's fixed list of operation inputs; the
# window cycles through it, so each input is timed several times at moments
# spread over the run.  ``run`` performs one operation and checks it; the
# window times it and stores {"s": seconds, **returned} per input.  A
# companion (``companion=True``) runs inside another workload's window on a
# smaller list; ``tiny`` shrinks the lists for the smoke test.


def seconds(samples) -> list[float]:
    return [s["s"] for samples_of_input in samples for s in samples_of_input]


def input_medians(samples) -> list[float]:
    """Each input's median time over its repeats: one value per input, so
    that a percentile over inputs does not hang on one noisy repeat."""
    return [statistics.median(s["s"] for s in samples_of_input) for samples_of_input in samples]


class NewtonRecover:
    """Solve each linear-solution problem from a perturbed linear start."""

    name = "newton-recover"
    in_process = True
    probe_loops = 1
    owner_cycles = 1
    companion_cycles = 4

    def __init__(self, inputs: Inputs, rng: random.Random, companion: bool, tiny: bool):
        step = 20 if tiny else 7 if companion else 1
        problems = list(inputs.problems[::step])
        rng.shuffle(problems)
        self.ops = []
        for spec in problems:
            w = PERTURBATION * (1.0 + abs(spec.k))
            init = (spec.k + rng.uniform(-w, w), spec.k + rng.uniform(-w, w))
            self.ops.append((spec, init))

    def run(self, x, tally: Tally, ctx) -> dict:
        spec, init = x
        try:
            profile = solver.solve(spec, init=init)
            ok = profile.residual <= RESIDUAL_TOL
        except CohomError:
            ok = False
        tally.op(ok)
        return {}

    @staticmethod
    def metrics(samples) -> dict:
        ms = [x * 1e3 for x in input_medians(samples)]
        return {
            "solve_ms_p50": (statistics.median(ms), "ms"),
            "solve_ms_p95": (percentile(ms, 95), "ms"),
        }


class SweepRefine:
    """Sweep the (1,2,2,1) problem over [0, 20], then refine the brackets.

    A sweep and a refinement of its points are separate operations, each
    timed on its own.
    """

    name = "sweep-refine"
    in_process = True
    probe_loops = 15
    owner_cycles = 1
    companion_cycles = 1

    def __init__(self, inputs: Inputs, rng: random.Random, companion: bool, tiny: bool):
        n = PROBE_SWEEP_POINTS if companion or tiny else SWEEP_POINTS
        lo, hi = SWEEP_BRACKET
        shift = rng.random() * (hi - lo) / (n - 1)
        self.config = solver.ShootingConfig(bracket=(lo + shift, hi + shift), sweep_points=n)
        self.points = None
        self.ops = ["sweep", "refine"]

    def run(self, op, tally: Tally, ctx) -> dict:
        if op == "sweep":
            self.points = solver.sweep(SWEEP_SPEC, self.config)
            for p in self.points:
                tally.op(not math.isnan(p.gap))
            return {"points": len(self.points)}
        profiles = solver.refine_brackets(SWEEP_SPEC, self.config, self.points)
        slopes = [p.slope0 for p in profiles]
        for want in KNOWN_SLOPES:
            tally.check(
                any(abs(s - want) <= SLOPE_TOL for s in slopes),
                f"refine_brackets missed slope {want} (got {slopes})",
            )
        distinct = []
        for s in sorted(slopes):
            if not distinct or s - distinct[-1] > SLOPE_TOL:
                distinct.append(s)
        return {"distinct": len(distinct)}

    @staticmethod
    def metrics(samples) -> dict:
        sweeps = [s for samples_of_op in samples[0::2] for s in samples_of_op]
        refines = [s for samples_of_op in samples[1::2] for s in samples_of_op]
        return {
            "sweep_points_per_s": (
                sum(s["points"] for s in sweeps) / sum(s["s"] for s in sweeps), "1/s"
            ),
            "refine_s": (statistics.median(s["s"] for s in refines), "s"),
            "solutions_distinct": (statistics.median(s["distinct"] for s in refines), "count"),
        }


class OracleCheck:
    """Identity suite, raw against closed tension, and the linear oracle."""

    name = "oracle-check"
    in_process = True
    probe_loops = 3
    owner_cycles = 1
    companion_cycles = 2

    def __init__(self, inputs: Inputs, rng: random.Random, companion: bool, tiny: bool):
        self.pairs = inputs.pairs
        self.ops = [rng.randrange(2**31) for _ in range(2 if companion or tiny else 5)]

    def run(self, seed, tally: Tally, ctx) -> dict:
        suite = identities.identity_suite(g_max=12, samples=10_000, seed=seed)
        worst = max(e["max_mixed_deviation"] for e in suite.values())
        tally.check(worst <= IDENTITY_TOL, f"identity suite deviation {worst:.3g}")

        worst = tension_check(seed)
        tally.check(worst <= TENSION_TOL, f"raw vs closed tension {worst:.3g}")

        disagreements = 0
        for G, M0, M1, k in self.pairs:
            measured = classify.linear_residual_oracle(G, M0, M1, k)
            threshold = ORACLE_REL_TOL * classify.oracle_scale(G, M0, M1, k)
            if classify.is_linear_solution(G, M0, M1, k) is not (measured <= threshold):
                disagreements += 1
        tally.check(disagreements == 0, f"{disagreements} oracle disagreements")
        return {}

    @staticmethod
    def metrics(samples) -> dict:
        return {"oracle_pass_s": (statistics.median(seconds(samples)), "s")}


def tension_check(seed: int) -> float:
    """Worst mixed deviation of 4 sin^2(Gt) * raw sum from the closed form,
    over sphere problems and lifted rotation-group problems."""
    rng = random.Random(seed)
    worst = 0.0
    for lifted in (False, True):
        for _ in range(TENSION_SAMPLES):
            if lifted:
                g = rng.randint(1, 6)
                G, M0, M1 = 2 * g, rng.randint(1, 9), rng.randint(1, 9)
            else:
                G = rng.randint(1, 12)
                M0 = rng.randint(1, 9)
                M1 = M0 if G % 2 else rng.randint(1, 9)
            spec = ode.BvpSpec(G=G, M0=M0, M1=M1, k=1)
            s = ode.TensionSample(
                t=rng.uniform(1e-3, math.pi / G - 1e-3),
                r=rng.uniform(-3.0, 3.0),
                rdot=rng.uniform(-5.0, 5.0),
                rddot=rng.uniform(-5.0, 5.0),
            )
            closed = ode.closed_tension(spec, s)
            if lifted:
                raw = ode.raw_tension_so(g, M0, M1, s)
            else:
                raw = ode.raw_tension_sphere(G, M0, M1, s)
            scaled = 4.0 * math.sin(G * s.t) ** 2 * raw
            worst = max(worst, abs(scaled - closed) / (1.0 + abs(closed)))
    return worst


class CliMix:
    """One `python -m cohom1.cli` subprocess at a time over a seeded mix.

    A round is table, classify, degree, solve on a table row, residual of
    that profile, identity-check and a small sweep of the (1,2,2,1)
    problem over [0, 20]; the row, the triple and j are seeded.  Each round
    writes to its own directory, so a residual reads its own round's profile.
    """

    name = "cli-mix"
    in_process = False
    owner_cycles = 4           # the threaded sweep call varies by ±20% call to call
    companion_cycles = 2

    def __init__(self, inputs: Inputs, rng: random.Random, companion: bool, tiny: bool):
        self.table_dicts = inputs.table_dicts
        triples = actions.strict_triples()
        lo, hi = SWEEP_BRACKET
        rounds = []
        for i in range(1 if tiny else 2):
            row = rng.choice(inputs.table)
            g, m0, m1 = rng.choice(triples)
            j = rng.choice([-2, 0, 2])
            a = row.action
            target = ["--space", a.space.token, "--g", str(a.g), "--m0", str(a.m0),
                      "--m1", str(a.m1)]
            out = f"{{work}}/round{i}"
            rounds.append([
                ["table"],
                ["classify", "--space", "so", "--g", str(g), "--m0", str(m0),
                 "--m1", str(m1)],
                ["degree", *target, "--j", str(j)],
                ["solve", *target, "--k", str(row.k), "--outdir", out],
                ["residual", *target, "--k", str(row.k), "--profile", f"{out}/profile.csv"],
                ["identity-check"],
                ["sweep", "--space", "sphere", "--g", "1", "--m0", "2", "--m1", "2",
                 "--k", "1", "--bracket", f"{lo!r},{hi!r}",
                 "--sweep-points", str(CLI_SWEEP_POINTS)],
            ])
        self.first_round = rounds[0]
        self.ops = [
            argv for r in rounds for argv in r
            if not companion or argv[0] in COMPANION_CALLS   # cheap, so repeated
        ]

    def full_round(self, ctx) -> list[list[str]]:
        """The first round's argvs, with the work directory filled in."""
        return [[a.replace("{work}", str(ctx.work)) for a in argv] for argv in self.first_round]

    def run(self, argv, tally: Tally, ctx) -> dict:
        argv = [a.replace("{work}", str(ctx.work)) for a in argv]
        proc = subprocess.run(
            [sys.executable, "-m", "cohom1.cli", *argv],
            capture_output=True, text=True, env=ctx.child_env, cwd=ctx.work,
            timeout=CLI_TIMEOUT_S,
        )
        ok = proc.returncode == 0
        try:
            payload = json.loads(proc.stdout)
        except ValueError:
            ok = False
        if ok and argv[0] == "table":
            ok = payload["verdicts"] == self.table_dicts
        tally.check(ok, f"cli {argv[0]} exit {proc.returncode}: {proc.stderr[-200:]}")
        return {"argv": argv}

    @staticmethod
    def metrics(samples) -> dict:
        ms = [x * 1e3 for x in input_medians(samples)]
        return {
            "cli_ms_p50": (statistics.median(ms), "ms"),
            "cli_ms_p95": (percentile(ms, 95), "ms"),
        }


WORKLOADS = {w.name: w for w in (NewtonRecover, SweepRefine, OracleCheck, CliMix)}


def peak_rss_mb(from_children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if from_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # ru_maxrss is KiB on Linux


def child_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "COHOM1_THREADS"}
    env["PYTHONPATH"] = str(src)
    return env
