"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.
"""

import json
import math
import time

import numpy as np
import pytest

from cohom1 import actions, classify, cli, identities, ode, solver
from cohom1.actions import Space

SEED = identities.DEFAULT_SEED


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def all_actions(max_m=9, max_ell=2):
    """Every classified action over the criterion-3 triple set."""
    out = []
    for g, m0, m1 in actions.strict_triples(max_m=max_m, max_ell=max_ell):
        out.append(actions.make_action(Space.SPHERE, g, m0, m1))
        out.append(actions.make_action(Space.ORTHOGONAL_GROUP, g, m0, m1))
    out.append(actions.make_action(Space.SP2_LIFT, 6, 1, 1))
    return out


def admissible_js(action, j_abs_max=4):
    return [
        j
        for j in range(-j_abs_max, j_abs_max + 1)
        if j % 2 == 0 or action.odd_j_allowed
    ]


def linear_harmonic_specs():
    """Deduplicated BVPs whose linear candidate r = kt is a solution."""
    specs = {}
    for action in all_actions():
        for j in admissible_js(action):
            k = actions.admissible_k(action, j)
            if classify.is_linear_solution(action.bvp_g, action.m0, action.m1, k):
                spec = ode.BvpSpec(G=action.bvp_g, M0=action.m0, M1=action.m1, k=k)
                specs[(spec.G, spec.M0, spec.M1, spec.k)] = spec
    return [specs[key] for key in sorted(specs)]


def test_criterion_1_identity_suite():
    t0 = time.perf_counter()
    suite = identities.identity_suite(g_max=12, samples=10_000, seed=SEED)
    elapsed = time.perf_counter() - t0
    worst = max(entry["max_mixed_deviation"] for entry in suite.values())
    counts = {name: entry["samples"] for name, entry in suite.items()}
    ok = worst <= 1e-10 and all(n >= 10_000 for n in counts.values()) and elapsed < 5.0
    report(
        1,
        ok,
        f"four identities, >=10000 samples each over g=1..12: max mixed "
        f"deviation {worst:.2e} (tol 1e-10), {elapsed:.2f}s (< 5s)",
    )
    assert ok, (suite, elapsed)


def test_criterion_2_raw_vs_closed_tension():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst_sphere = worst_so = 0.0
    for _ in range(1000):
        G = int(rng.integers(1, 13))
        if G % 2 == 1:
            M0 = M1 = int(rng.integers(1, 10))
        else:
            M0, M1 = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        spec = ode.BvpSpec(G=G, M0=M0, M1=M1, k=1)
        s = ode.TensionSample(
            t=float(rng.uniform(1e-3, math.pi / G - 1e-3)),
            r=float(rng.uniform(-3, 3)),
            rdot=float(rng.uniform(-5, 5)),
            rddot=float(rng.uniform(-5, 5)),
        )
        closed = ode.closed_tension(spec, s)
        scaled = 4.0 * math.sin(G * s.t) ** 2 * ode.raw_tension_sphere(G, M0, M1, s)
        worst_sphere = max(worst_sphere, abs(scaled - closed) / (1 + abs(closed)))
    for _ in range(1000):
        g = int(rng.integers(1, 7))
        M0, M1 = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        spec = ode.BvpSpec(G=2 * g, M0=M0, M1=M1, k=1)
        s = ode.TensionSample(
            t=float(rng.uniform(1e-3, math.pi / (2 * g) - 1e-3)),
            r=float(rng.uniform(-3, 3)),
            rdot=float(rng.uniform(-5, 5)),
            rddot=float(rng.uniform(-5, 5)),
        )
        closed = ode.closed_tension(spec, s)
        scaled = 4.0 * math.sin(2 * g * s.t) ** 2 * ode.raw_tension_so(g, M0, M1, s)
        worst_so = max(worst_so, abs(scaled - closed) / (1 + abs(closed)))
    elapsed = time.perf_counter() - t0
    ok = worst_sphere <= 1e-9 and worst_so <= 1e-9 and elapsed < 5.0
    report(
        2,
        ok,
        f"4 sin^2(Gt) * raw sum vs closed form over 1000+1000 samples: "
        f"sphere {worst_sphere:.2e}, lifted {worst_so:.2e} (tol 1e-9), "
        f"{elapsed:.2f}s (< 5s)",
    )
    assert ok, (worst_sphere, worst_so, elapsed)


CHEBYSHEV_UNIT = 1.0 - np.cos((2 * np.arange(64) + 1) * math.pi / 128)


def float_linear_residual(G, m0, m1, k):
    """Brute-force float check of the linear candidate: max |closed tension|
    of r = kt over the 64 open Chebyshev nodes of (0, pi/G)."""
    nodes = math.pi / G * 0.5 * CHEBYSHEV_UNIT
    spec = ode.BvpSpec(G=G, M0=m0, M1=m1, k=k)
    return float(np.max(np.abs(ode.closed_tension_grid(spec, nodes, k * nodes, k, 0.0))))


def test_criterion_3_linear_oracle_agreement():
    t0 = time.perf_counter()
    disagreements = []
    checked = 0
    for action in all_actions():
        G, m0, m1 = action.bvp_g, action.m0, action.m1
        for j in admissible_js(action):
            k = actions.admissible_k(action, j)
            predicted = classify.is_linear_solution(G, m0, m1, k)
            measured = float_linear_residual(G, m0, m1, k)
            threshold = 1e-9 * classify.oracle_scale(G, m0, m1, k)
            exact = classify.linear_residual_oracle(G, m0, m1, k)
            checked += 1
            if predicted is not (measured <= threshold) or predicted is not (exact == 0):
                disagreements.append((action.space.token, G, m0, m1, k, measured, exact))
    elapsed = time.perf_counter() - t0
    ok = not disagreements and elapsed < 10.0
    report(
        3,
        ok,
        f"linear-solution rule vs brute-force float residual and exact sine "
        f"series on {checked} (triple, k) pairs: {len(disagreements)} "
        f"disagreements, {elapsed:.2f}s (< 10s)",
    )
    assert ok, (disagreements[:10], elapsed)


def test_criterion_4_classification_tables(capsys):
    mismatches = []
    for g, m0, m1 in actions.strict_triples():
        for token in ("sphere", "so"):
            code = cli.main([
                "classify", "--space", token, "--g", str(g),
                "--m0", str(m0), "--m1", str(m1),
            ])
            out = capsys.readouterr().out
            assert code == 0
            verdicts = json.loads(out)["verdicts"]
            got = {v["k"] for v in verdicts if v["harmonic"]}
            if token == "sphere":
                expected = {1}
                if g == 2:
                    expected.add(-1)
                if m0 == m1:
                    expected.add(1 - g)
            else:
                expected = {1}
                if m0 == m1:
                    expected.add(1 - 2 * g)
            if got != expected:
                mismatches.append((token, g, m0, m1, got, expected))
    code = cli.main(["classify", "--space", "sp2", "--g", "6", "--m0", "1", "--m1", "1"])
    out = capsys.readouterr().out
    assert code == 0
    got = {v["k"] for v in json.loads(out)["verdicts"] if v["harmonic"]}
    if got != {1, -5}:
        mismatches.append(("sp2", 6, 1, 1, got, {1, -5}))
    ok = not mismatches
    report(
        4,
        ok,
        f"classify reproduces the harmonic k-sets on all strict triples, "
        f"both ambient families and the Sp(2) lift: "
        f"{len(mismatches)} discrepancies",
    )
    assert ok, mismatches[:10]


def test_criterion_5_degree_table():
    expected = {}
    for m in range(1, 7):  # SO(2m+2), k=-3
        expected[(f"SO({2 * m + 2})", -3)] = 1 if m % 2 == 1 else -3
    for m, so in ((1, 5), (2, 8), (4, 14), (8, 26)):  # k=-5
        expected[(f"SO({so})", -5)] = 1 if m == 1 else -5
    expected[("SO(6)", -7)] = 1
    expected[("SO(10)", -7)] = -7
    expected[("SO(8)", -11)] = 1
    expected[("SO(14)", -11)] = -11
    expected[("Sp(2)", -5)] = 1

    rows = classify.examples_table()
    got = {(v.action.ambient, v.k): v.degree for v in rows}
    ok = got == expected and all(v.harmonic for v in rows)
    report(
        5,
        ok,
        f"the {len(rows)} highlighted self-maps reproduce their degrees "
        f"exactly ({len(expected)} distinct rows)",
    )
    assert ok, (got, expected)


@pytest.fixture(scope="module")
def recovery():
    specs = linear_harmonic_specs()
    t0 = time.perf_counter()
    profiles = [solver.solve(spec) for spec in specs]
    elapsed = time.perf_counter() - t0
    return specs, profiles, elapsed


def test_criterion_6_solver_recovery(recovery):
    specs, profiles, elapsed = recovery
    bad = []
    for spec, profile in zip(specs, profiles):
        deviation = profile.max_linear_deviation()
        if deviation > 1e-6 or profile.residual > 1e-6:
            bad.append((spec, deviation, profile.residual))
    worst_dev = max(p.max_linear_deviation() for p in profiles)
    worst_res = max(p.residual for p in profiles)
    ok = not bad and elapsed < 60.0
    report(
        6,
        ok,
        f"{len(specs)} linear-solution problems recovered: worst "
        f"|r - kt| {worst_dev:.2e}, worst residual {worst_res:.2e} "
        f"(tol 1e-6), {elapsed:.1f}s (< 60s)",
    )
    assert ok, (bad[:10], elapsed)


def test_criterion_7_nonlinear_bracket_detection():
    spec = ode.BvpSpec(G=1, M0=2, M1=2, k=1)
    config = solver.ShootingConfig(bracket=(0.0, 20.0), sweep_points=512)
    t0 = time.perf_counter()
    points = solver.sweep(spec, config)
    elapsed = time.perf_counter() - t0
    brackets = [
        (points[i - 1].a, points[i].a)
        for i in range(1, len(points))
        if points[i].sign_change
    ]
    has_identity = any(lo <= 1.0 <= hi for lo, hi in brackets)
    ok = has_identity and len(brackets) >= 2 and elapsed < 30.0
    report(
        7,
        ok,
        f"(1,2,2,1) sweep over [0,20] x 512: {len(brackets)} brackets "
        f"{brackets}, identity bracketed: {has_identity}, "
        f"{elapsed:.1f}s (< 30s)",
    )
    assert ok, (brackets, elapsed)


def test_criterion_8_robustness(recovery):
    specs, profiles, _ = recovery
    config = solver.ShootingConfig(eps0=5e-6, eps1=5e-6, rel_tol=1e-11)
    worst = 0.0
    bad = []
    for spec, base in zip(specs, profiles):
        tight = solver.solve(spec, config)
        shift = max(
            abs(tight.slope0 - base.slope0), abs(tight.slope1 - base.slope1)
        )
        worst = max(worst, shift)
        if shift > 1e-7:
            bad.append((spec, shift))
    ok = not bad
    report(
        8,
        ok,
        f"halving endpoint offsets and tightening rel_tol 10x moves the "
        f"{len(specs)} recovered slope pairs by at most {worst:.2e} "
        f"(tol 1e-7)",
    )
    assert ok, bad[:10]
